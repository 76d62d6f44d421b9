"""The package's public surface: every name __all__ lists is exported, once,
and no module imports a name it never uses."""

import ast
from pathlib import Path

import gradboost

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gradboost").glob("*.py"))

# bench/tracing.py still wraps booster.LeafSample, which the engine no longer
# calls; see the FOUND line on bench/tracing.py in CHANGES.md.  The import and
# this entry go together when that wrapper does.
UNUSED_BUT_WRAPPED = {("booster", "LeafSample")}


def test_all_lists_each_exported_name_once():
    names = gradboost.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(gradboost, name)] == []
    namespace = {}
    exec("from gradboost import *", namespace)  # a stale entry raises AttributeError
    assert set(names) <= namespace.keys()


def _unused_imports(path):
    """Names a module imports but never reads, nor lists in its __all__."""
    module = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = set(), set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return imported - used


def test_no_module_imports_a_name_it_never_uses():
    assert SOURCES
    unused = {(path.stem, name) for path in SOURCES for name in _unused_imports(path)}
    assert unused == UNUSED_BUT_WRAPPED
