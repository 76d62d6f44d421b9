"""The package's public surface: every name __all__ lists is exported, once,
and read by the package, a demo, the benchmark or the README's code, as is
every public method and property of an exported class; no module of the
package, its tests or demos imports a name it never uses; values become
float64, are checked finite, a CSV body is parsed by numpy, and a CSV cell
by float(), in one place each; a node field is tested for an exact int or
float type only inside its number rule, and no number rule's result is
thrown away; no scope changes the process's warning filters; best_split's
candidate loop makes no call
but to record a winner, and it sorts a column stably only when the column
has a tie; fold is the one walk out of a tree; trees are grown, loaded and
replayed with no Split or Leaf per node; the suite's one hypothesis
profile; and the README's library quickstart runs."""

import ast
import contextlib
import dataclasses
import io
import re
from pathlib import Path

from hypothesis import settings

import gradboost

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gradboost").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")

# bench/tracing.py still wraps booster.LeafSample, which the engine no longer
# calls; see the FOUND line on bench/tracing.py in CHANGES.md.  The import and
# this entry go together when that wrapper does.
UNUSED_BUT_WRAPPED = {("booster", "LeafSample")}

# RegressionTree.apply routes one row by folding the tree at it: it is the
# reference that tests hold predict_raw, predict_raw_batch and leaf_assignment
# to, bit for bit
TEST_ORACLES = {"RegressionTree.apply"}

# dataset.float_array reads every argument as float64, refusing what is not
# numbers: the tree's own threshold and value tuples go through it too
FLOAT64_CONVERSIONS = {("dataset", "float_array")}

# float_array(..., finite=True) is the one np.isfinite check of an array; a
# single row sums its cells instead (tree.row_values), which is far cheaper
FINITENESS_CHECKS = {("dataset", "float_array")}

# tree.is_int and tree.finite_real are the one rule each for an integer and a
# finite real field, and test a value's exact type only to skip the ABC check;
# beside them, only leaf_values.sigmoid's measured scalar path tests an exact
# int or float
EXACT_NUMBER_TYPE_TESTS = {("tree", "is_int"), ("tree", "finite_real"), ("leaf_values", "sigmoid")}

# the rules that check a number, or numbers, and return them as the caller
# must use them: a bare call checks one value and leaves the caller with another
NUMBER_RULES = {
    "positive_int", "finite_real", "float_array", "binary_labels", "valid_feature_names",
    "valid_learning_rate", "valid_threshold",
}

# load_csv parses a CSV body with numpy in one place, which defers every file
# it might read otherwise than the row parser, _read_rows, to that parser
BODY_PARSES = {("dataset", "_parse_at_once")}

# dataset._parse_number is the row parser's one number rule: it reads each
# cell with float() once, and no other scope of dataset.py reads float
NUMBER_READS = {("dataset", "_parse_number")}

# dataset.frozen_copy is the one way an array is frozen: a copy over a bytes
# object, which no flag reopens, so no scope flags an array with setflags
FREEZES = {("dataset", "frozen_copy")}

# the only scope that builds a Split or a Leaf, or calls a leaves() method that
# would build a Leaf per leaf: train's forced stumps.  fit_tree, the model
# reader (_read_node, deserialize_model), RegressionTree._compile and _round
# hand over or read plain node fields; tree.root and fold build nodes through
# the classes they are given, with no call here
NODE_BUILDERS = {("booster", "train")}


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
    assert SOURCES and TESTS and DEMOS
    paths = SOURCES + TESTS + DEMOS
    unused = {(path.stem, name) for path in paths for name in _unused_imports(path)}
    assert unused == UNUSED_BUT_WRAPPED


def _names_read():
    """The names and the attribute names that the package, the demos, the
    benchmark and the README's python blocks read; an import, an __all__
    string or a docstring reads none."""
    codes = [path.read_text(encoding="utf-8") for path in SOURCES + DEMOS + BENCH]
    codes += re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)
    names, attributes = set(), set()
    for code in codes:
        for node in ast.walk(ast.parse(code)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return names, attributes


def test_every_public_name_has_a_caller():
    names, attributes = _names_read()
    unread = {name for name in gradboost.__all__ if name not in names | attributes}
    for name in gradboost.__all__:
        cls = getattr(gradboost, name)
        if not isinstance(cls, type):
            continue
        fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
        unread |= {
            f"{name}.{attribute}"
            for attribute in vars(cls)
            if not attribute.startswith("_") and attribute not in fields | attributes
        }
    assert unread == TEST_ORACLES


def _is_float64_conversion(call: ast.Call) -> bool:
    """np.asarray or np.array with dtype np.float64 or float, np.array with no
    dtype, which makes float64 of floats, or .astype(np.float64)."""
    function = ast.unparse(call.func)
    if function in ("np.asarray", "np.array"):
        dtypes = call.args[1:2]
    elif isinstance(call.func, ast.Attribute) and call.func.attr == "astype":
        dtypes = call.args[:1]
    else:
        return False
    dtypes += [keyword.value for keyword in call.keywords if keyword.arg == "dtype"]
    bare = function == "np.array" and not dtypes
    return bare or any(ast.unparse(dtype) in ("np.float64", "float") for dtype in dtypes)


def _scopes_of(picks):
    """(module, qualified name of the enclosing function) of each node in src/
    that picks(node) picks."""
    found = set()

    def visit(path, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(path, child, scope + (child.name,))
                continue
            if picks(child):
                found.add((path.stem, ".".join(scope)))
            visit(path, child, scope)

    for path in SOURCES:
        visit(path, ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def _scopes_calling(is_call):
    return _scopes_of(lambda node: isinstance(node, ast.Call) and is_call(node))


def test_values_become_float64_only_through_float_array():
    assert _scopes_calling(_is_float64_conversion) == FLOAT64_CONVERSIONS


def test_arrays_are_checked_finite_only_in_float_array():
    assert _scopes_calling(lambda call: ast.unparse(call.func) == "np.isfinite") == FINITENESS_CHECKS


def _tests_an_exact_number_type(node):
    """node is a comparison of the form type(x) is [not] int or float."""
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Call)
        and ast.unparse(node.left.func) == "type"
        and isinstance(node.ops[0], (ast.Is, ast.IsNot))
        and ast.unparse(node.comparators[0]) in ("int", "float")
    )


def test_an_exact_int_or_float_type_is_tested_only_inside_the_number_rules():
    # a node field checked beside its rule, not through it, is a second rule
    # that must agree with the first on every value
    assert _scopes_of(_tests_an_exact_number_type) == EXACT_NUMBER_TYPE_TESTS


def test_no_number_rule_result_is_thrown_away():
    def bare_rule_call(node):
        call = isinstance(node, ast.Expr) and isinstance(node.value, ast.Call) and node.value
        return call and ast.unparse(call.func).rpartition(".")[2] in NUMBER_RULES

    assert _scopes_of(bare_rule_call) == set()


def test_no_scope_changes_the_process_warning_filters():
    # catch_warnings swaps the filter list of the whole process, so a call made
    # while another thread runs changes what that thread's warnings do
    names = ("catch_warnings", "simplefilter", "filterwarnings")
    assert _scopes_calling(lambda call: ast.unparse(call.func).rpartition(".")[2] in names) == set()


def test_numpy_parses_a_csv_body_only_in_load_csvs_one_pass():
    assert _scopes_calling(lambda call: ast.unparse(call.func).endswith("loadtxt")) == BODY_PARSES


def test_the_row_parser_reads_a_number_only_through_parse_number():
    # the row parser runs only on files the numpy pass refuses, and words the
    # refusal; a second number rule beside _parse_number would have to agree
    # with it on every cell
    reads = _scopes_of(lambda node: isinstance(node, ast.Name) and node.id == "float")
    assert {scope for scope in reads if scope[0] == "dataset"} == NUMBER_READS


def _calls_method(name):
    return lambda call: isinstance(call.func, ast.Attribute) and call.func.attr == name


def test_arrays_are_frozen_only_through_frozen_copy():
    assert _scopes_calling(_calls_method("setflags")) == set()
    assert _scopes_calling(_calls_method("tobytes")) == FREEZES


def _tree_definition(kind, name):
    """The one kind of node (ast.FunctionDef or ast.ClassDef) named name in tree.py."""
    tree = next(path for path in SOURCES if path.stem == "tree")
    (definition,) = [
        node
        for node in ast.walk(ast.parse(tree.read_text(encoding="utf-8")))
        if isinstance(node, kind) and node.name == name
    ]
    return definition


def test_the_split_search_loop_makes_no_call():
    # best_split's candidate loop runs once per cut point of every column of
    # every node, so a call there is paid per candidate: two max calls for the
    # clamps made fit-wide's train call take ×1.7 as long.  The loop only
    # searches; the winner's threshold and its SplitCandidate come after it.
    function = _tree_definition(ast.FunctionDef, "best_split")
    (loop,) = [
        node
        for node in ast.walk(function)
        if isinstance(node, ast.For)
        and isinstance(node.iter, ast.Call)
        and ast.unparse(node.iter.func) == "zip"
    ]
    assert [node for statement in loop.body for node in ast.walk(statement) if isinstance(node, ast.Call)] == []
    (build,) = [
        node
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "SplitCandidate"
    ]
    # one SplitCandidate per call, built in best_split's own body after every loop
    (statement,) = [statement for statement in function.body if build in list(ast.walk(statement))]
    assert all(
        statement.lineno > node.end_lineno for node in ast.walk(function) if isinstance(node, ast.For)
    )


def test_the_split_search_sorts_stably_only_a_column_with_a_tie():
    # numpy's default argsort sorts 4,000 floats several times faster than its
    # stable sort, but may leave tied values in any order, and the order of
    # the rows sets the bits of every running sum.  best_split sorts each
    # column the default way, and its one stable sort sits under the branch
    # for a sorted column that is not strictly increasing: neither may go.
    function = _tree_definition(ast.FunctionDef, "best_split")
    argsorts = [
        node
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("argsort")
    ]
    (stable,) = [
        call
        for call in argsorts
        if [(k.arg, ast.unparse(k.value)) for k in call.keywords] == [("kind", "'stable'")]
    ]
    (default,) = [call for call in argsorts if not call.args and not call.keywords]
    (branch,) = [
        node
        for node in ast.walk(function)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "not (xs[:-1] < xs[1:]).all()"
    ]
    assert stable in [node for statement in branch.body for node in ast.walk(statement)]
    assert default.lineno < branch.lineno


def test_fold_is_the_one_walk_out_of_a_tree():
    # one loop in (_compile), the batch router (_route) and one fold out: a
    # second walk beside fold would number the leaves, or route a row, its own
    # way, and apply is a fold at one row
    methods = {
        node.name: node
        for node in _tree_definition(ast.ClassDef, "RegressionTree").body
        if isinstance(node, ast.FunctionDef)
    }
    loops = {
        name
        for name, method in methods.items()
        if any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(method))
    }
    assert loops == {"_compile", "_route", "fold"}
    calls = [ast.unparse(node.func) for node in ast.walk(methods["apply"]) if isinstance(node, ast.Call)]
    assert "self.fold" in calls


def test_trees_are_grown_loaded_and_replayed_with_no_split_or_leaf():
    # a Split or a Leaf per node took most of deserialize_model's time on a
    # 2,314-node model: the one preorder walk takes each node's fields instead
    def builds_nodes(call):
        return ast.unparse(call.func) in ("Split", "Leaf") or _calls_method("leaves")(call)

    assert _scopes_calling(builds_nodes) == NODE_BUILDERS


def test_the_readme_library_quickstart_runs(monkeypatch):
    section = README.split("## Quickstart (library)", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    monkeypatch.chdir(ROOT)  # the example reads demos/data/ relative to the repository root
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    loss, probability, label = out.getvalue().splitlines()
    assert float(loss) > 0.0 and 0.0 < float(probability) < 1.0 and label in ("0", "1")


def test_property_tests_run_derandomized_with_no_deadline_and_no_database():
    # conftest.py loads this default, so a settings(...) call that names only
    # max_examples can neither run randomized nor keep an example database
    for current in (settings.default, settings(max_examples=3)):
        assert current.derandomize is True
        assert current.deadline is None
        assert current.database is None
