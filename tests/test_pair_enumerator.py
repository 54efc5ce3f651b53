"""One pair enumerator and one unranking.

`qi_map._pairs` is the only code in the package that draws vertex pairs,
and the checks that walk pairs read each block's common-prefix lengths
from it: neither `measure_qi` nor `check_geodesic_image` looks up a prefix
length or a distance between the two ends of a block's pairs (`iu`, `ju`,
or entries picked from them).  `_pairs` itself takes the two label
matrices and reads every block's prefix lengths from their rows through
`_prefix_len` alone: there is one pair reader, not a second reader type
beside the prefix index, and the prefix index has one constructor and no
per-pair lookup of its own, nor does the ball keep one.

Pairs laid out row by row are unranked in one place, `_ranked`, and only
`_pairs` and the nested pairs of `check_same_depth` go through it; neither
lays out blocks of its own.  An exhaustive row's prefix lengths at once
(`row_prefix_len`) are read only by the exhaustive measurement
(`_measure_exhaustive`), whose counting pass (`_Groups`) reads no pair's
prefix length at all: it calls none of the prefix-length readers, no
enumerator and no unranking.
"""

import ast
from pathlib import Path

import treeqi

SRC = Path(treeqi.__file__).parent
ENUMERATOR = "_pairs"
CHECKS = ("measure_qi", "check_geodesic_image")
PAIR_ENDS = {"iu", "ju"}
UNRANK = "_ranked"
UNRANK_CALLERS = {ENUMERATOR, "check_same_depth"}
ROW_READ = "row_prefix_len"
ROW_READERS = {"_measure_exhaustive"}
COUNTING = "_Groups"
PREFIX_READERS = {"prefix_len", ROW_READ, "distance", ENUMERATOR, UNRANK}
LABEL_READ = "_prefix_len"


def _functions() -> dict:
    """Every function of the package by name (module-level and nested)."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                out.setdefault(node.name, []).append(node)
    return out


def _definitions() -> list:
    """(name, node) of every module-level function and class of the package."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((node.name, node))
    return out


def _members(cls) -> set:
    """The names of the methods and properties a class defines."""
    return {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}


def _called(node) -> set:
    """The names of the functions and methods called anywhere inside node."""
    calls = (n.func for n in ast.walk(node) if isinstance(n, ast.Call))
    return {getattr(f, "id", None) or getattr(f, "attr", None) for f in calls}


def _assignments(fn) -> list:
    """(target, value) of every plain assignment in fn, tuples unpacked."""
    out = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    out += zip(target.elts, node.value.elts)
                else:
                    out.append((target, node.value))
    return out


def _picked(node, names) -> bool:
    """Whether node is one of `names` or entries picked from one."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Name) and node.id in names


def _pair_names(fn) -> set:
    """iu, ju and every name fn binds to entries picked from them."""
    names = set(PAIR_ENDS)
    grown = True
    while grown:
        grown = False
        for target, value in _assignments(fn):
            if isinstance(target, ast.Name) and target.id not in names and _picked(value, names):
                names.add(target.id)
                grown = True
    return names


def _is_enumerator_call(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == ENUMERATOR


def _bound_by_for(node) -> set:
    return {n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)}


def test_only_the_enumerator_draws_or_makes_pairs():
    functions = _functions()
    assert len(functions[ENUMERATOR]) == 1
    for name, nodes in functions.items():
        if name == ENUMERATOR:
            continue
        for fn in nodes:
            for node in ast.walk(fn):
                # a pair sample is drawn only by the enumerator
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    assert node.func.attr != "sample", (name, node.lineno)
                # pair ends come from the enumerator, or are picked from its blocks
                if isinstance(node, ast.For) and _bound_by_for(node) & PAIR_ENDS:
                    assert _is_enumerator_call(node.iter), (name, node.lineno)
            for target, value in _assignments(fn):
                if isinstance(target, ast.Name) and target.id in PAIR_ENDS:
                    assert _picked(value, PAIR_ENDS), (name, target.lineno)


def test_checks_read_block_prefixes_from_the_enumerator():
    functions = _functions()
    for name in CHECKS:
        (fn,) = functions[name]
        loops = [n for n in ast.walk(fn) if isinstance(n, ast.For) and _is_enumerator_call(n.iter)]
        assert len(loops) == 1 and PAIR_ENDS <= _bound_by_for(loops[0]), name
        ends = _pair_names(fn)
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr in ("prefix_len", "distance"):
                assert not all(_picked(a, ends) for a in node.args), (name, node.lineno)


def _unranks(fn) -> bool:
    """Whether fn finds the rows of ranks: `searchsorted(...) - 1`, the last
    row start at or below each rank."""
    return any(
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and isinstance(node.left, ast.Call)
        and getattr(node.left.func, "attr", None) == "searchsorted"
        and getattr(node.right, "value", None) == 1
        for node in ast.walk(fn)
    )


def test_one_unranking_for_every_pair_walk():
    functions = _functions()
    assert len(functions[UNRANK]) == 1
    assert {name for name, nodes in functions.items() if any(map(_unranks, nodes))} == {UNRANK}
    definitions = _definitions()
    assert {name for name, node in definitions if UNRANK in _called(node)} == UNRANK_CALLERS
    # the callers cut no blocks and lay out no rows of their own
    for name, node in definitions:
        if name in UNRANK_CALLERS:
            assert not _called(node) & {"cumsum", "repeat"}, name


def test_one_row_read_and_a_counting_pass_without_prefixes():
    definitions = _definitions()
    assert {name for name, node in definitions if ROW_READ in _called(node)} == ROW_READERS
    (counting,) = [node for name, node in definitions if name == COUNTING]
    assert not _called(counting) & PREFIX_READERS


def test_one_pair_reader_and_one_index_constructor():
    definitions = _definitions()
    classes = {
        node.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    }
    assert "_PrefixIndex" in classes and "_LabelRows" not in classes
    (index,) = [node for name, node in definitions if name == "_PrefixIndex"]
    (init,) = [n for n in index.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
    args = init.args
    assert [a.arg for a in args.args] == ["self", "labels", "depths"]
    assert not (args.posonlyargs or args.kwonlyargs or args.vararg or args.kwarg)
    (ball,) = [node for name, node in definitions if name == "_Ball"]
    assert "prefix_len" not in _members(index) and "prefix_index" not in _members(ball)
    (enumerator,) = [node for name, node in definitions if name == ENUMERATOR]
    called = _called(enumerator)
    assert LABEL_READ in called and not called & (PREFIX_READERS - {ENUMERATOR, UNRANK})
