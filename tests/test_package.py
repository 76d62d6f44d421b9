"""The package's public surface: every name __all__ lists is exported, once."""

import gradboost


def test_all_lists_each_exported_name_once():
    names = gradboost.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(gradboost, name)] == []
    namespace = {}
    exec("from gradboost import *", namespace)  # a stale entry raises AttributeError
    assert set(names) <= namespace.keys()
