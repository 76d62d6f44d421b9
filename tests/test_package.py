"""The package's public surface: every name __all__ lists is exported, once,
no module imports a name it never uses, and values become float64 in one place;
and the suite's one hypothesis profile."""

import ast
from pathlib import Path

from hypothesis import settings

import gradboost

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gradboost").glob("*.py"))

# bench/tracing.py still wraps booster.LeafSample, which the engine no longer
# calls; see the FOUND line on bench/tracing.py in CHANGES.md.  The import and
# this entry go together when that wrapper does.
UNUSED_BUT_WRAPPED = {("booster", "LeafSample")}

# dataset.float_array reads every argument as float64, refusing what is not
# numbers; RegressionTree._route converts the tree's own tuples
FLOAT64_CONVERSIONS = {("dataset", "float_array"), ("tree", "RegressionTree._route")}


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


def _is_float64_conversion(call: ast.Call) -> bool:
    """np.asarray or np.array with dtype np.float64 or float, or .astype(np.float64)."""
    if ast.unparse(call.func) in ("np.asarray", "np.array"):
        dtypes = call.args[1:2]
    elif isinstance(call.func, ast.Attribute) and call.func.attr == "astype":
        dtypes = call.args[:1]
    else:
        return False
    dtypes += [keyword.value for keyword in call.keywords if keyword.arg == "dtype"]
    return any(ast.unparse(dtype) in ("np.float64", "float") for dtype in dtypes)


def _float64_conversions(path):
    """(module, qualified name of the enclosing function) of each float64 conversion."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and _is_float64_conversion(child):
                found.add((path.stem, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_values_become_float64_only_through_float_array():
    found = set().union(*(_float64_conversions(path) for path in SOURCES))
    assert found == FLOAT64_CONVERSIONS


def test_property_tests_run_derandomized_with_no_deadline_and_no_database():
    # conftest.py loads this default, so a settings(...) call that names only
    # max_examples can neither run randomized nor keep an example database
    for current in (settings.default, settings(max_examples=3)):
        assert current.derandomize is True
        assert current.deadline is None
        assert current.database is None
