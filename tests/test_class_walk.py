"""Equivalence net for the mixed construction's class walk on ball positions.

The references (tests/reference.py) are the tuple versions the position
walk and the level driver replaced: the class walk over the tuple
frontiers with its sorted levels, the structural verifier that read
`m.table` vertex by vertex, and the approximation that walked its classes
as tuples.  Bounded properties run both on built mixed maps with random
image swaps and one deepened image, and on the approximation's inputs; a
structural test keeps the tuple walk from coming back.
"""

import ast
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import treeqi as tq
from reference import (
    lca,
    reference_approximate_by_mixed,
    reference_level_classes,
    reference_trace_text,
    reference_verify_mixed_structure,
)
from test_properties import builds
from treeqi import FiniteTreeMap, TreeShape, mixed_builder, transforms
from treeqi.errors import TreeQIError
from treeqi.mixed_builder import _level_classes
from treeqi.layout import _ball

NET = settings(max_examples=60, deadline=None)


@NET
@given(builds(), st.randoms(use_true_random=False))
def test_position_walk_matches_the_tuple_walk(build, rnd):
    shape, step, levels, policy = build
    m, _ = tq.build_mixed(shape, step, levels, policy)
    table = dict(m.table)
    verts = list(m.domain)
    for _ in range(rnd.randrange(4)):  # image swaps, the root's included
        a, b = rnd.choice(verts), rnd.choice(verts)
        table[a], table[b] = table[b], table[a]
    v = rnd.choice(verts)  # one image one label deeper
    table[v] += (rnd.randrange(shape.child_label_count(table[v])),)
    m = FiniteTreeMap(shape, m.domain_radius, table)

    ball = _ball(shape.degree, m.domain_radius)
    walk = _level_classes(ball, step, levels, m._images)
    got = [
        (i, cls, tuple(ball.verts[p] for p in block), tuple(ball.verts[p] for p in fill))
        for i, cls, block, fill in walk
    ]
    reference = reference_level_classes(shape, step, levels, m.table.__getitem__)
    assert got == [(i, cls, cls.block, tuple(fill)) for i, cls, fill in reference]

    rep = tq.verify_mixed_structure(m, step)
    ref = reference_verify_mixed_structure(m, step)
    assert rep.to_lines() == ref.to_lines()
    assert rep.to_json_dict() == ref.to_json_dict()


def _leaf_moves(m, step, rnd):
    """m with a few images of its deepest level replaced by the image of
    another vertex of that level, one of another D-parent where there is
    one, whose D-parent shares the image of its own: children of one
    class, so the ancestry holds."""
    table, radius = dict(m.table), m.domain_radius
    leaves = [v for v in m.domain if len(v) == radius]
    for _ in range(rnd.randrange(3)):
        v = rnd.choice(leaves)
        up = v[: radius - step]
        kin = [u for u in leaves if table[u[: radius - step]] == table[up]]
        table[v] = table[rnd.choice([u for u in kin if u[: radius - step] != up] or kin)]
    return FiniteTreeMap(m.shape, radius, table)


def _spread(m, step):
    """m with each vertex off the levels sent to the deepest common ancestor
    of the images of its descendants on the next level: still
    order-preserving, and its fill can lie far below its class image."""
    table, radius = dict(m.table), m.domain_radius
    for v in m.domain:
        if len(v) % step:
            lv = min(radius, (len(v) // step + 1) * step)
            table[v] = lca(table[u] for u in m.domain if len(u) == lv and u[: len(v)] == v)
    return FiniteTreeMap(m.shape, radius, table)


@st.composite
def approximation_inputs(draw):
    """(g, C, D): a normalized random map with images down to the depth
    cap, a perturbed automorphism, normalized or not, or a mixed build with
    images moved within a class, its fill spread or not, at its own step or
    another; step depths 1-4, and C honest or not."""
    kind = draw(st.sampled_from(["normalized", "perturbed", "moved", "spread"]))
    rnd = draw(st.randoms(use_true_random=False))
    C = draw(st.sampled_from([1, Fraction(6, 5), 2, 3]))
    if kind in ("moved", "spread"):
        shape, own, levels, policy = draw(builds(min_levels=1))
        if kind == "spread" and rnd.random() < 0.5:  # a block deep enough to pass small bounds
            shape, own, levels = TreeShape(3), 4, 1
        g, _ = tq.build_mixed(shape, own, levels, policy)
        g = _leaf_moves(g, own, rnd) if kind == "moved" else _spread(g, own)
        return g, C, rnd.choice([own, own, rnd.randint(1, 4)])
    shape = TreeShape(rnd.choice([3, 4]))
    radius = rnd.randint(1, 5 if shape.degree == 3 else 3)
    if kind == "normalized":
        table = {}
        for v in tq.layout._ball(shape.degree, radius).verts:
            depth = rnd.choice([0, 1, 2, radius + 2, tq.MAX_DEPTH])
            table[v] = tuple(rnd.randrange(shape.degree - (k > 0)) for k in range(depth))
        table[()] = ()
        g = FiniteTreeMap(shape, radius, table)
    else:
        auto = tq.random_automorphism_map(shape, radius, rnd.randrange(10**6))
        g = tq.perturb_map_in_subtree(auto, rnd.randrange(10**6))
    if kind == "normalized" or rnd.random() < 0.7:
        g = tq.normalize_order_preserving(g, 1, check_promise=False)
    return g, C, rnd.choice([rnd.randint(1, radius), rnd.randint(1, 4)])


def _approximation(approximate, g, C, step):
    """The map's rows and the trace, or the error's type and payload."""
    try:
        f, bundle, trace = approximate(g, C, step, check_promise=False)
    except TreeQIError as e:
        return type(e), str(e), *(getattr(e, k, None) for k in ("level", "image", "value", "bound"))
    return f.labels.tolist(), f.depths.tolist(), bundle, list(trace.classes), trace.to_text()


@settings(max_examples=200, deadline=None)
@given(approximation_inputs())
def test_approximation_matches_the_tuple_walk(case):
    g, C, step = case
    got = _approximation(tq.approximate_by_mixed, g, C, step)
    assert got == _approximation(reference_approximate_by_mixed, g, C, step)
    if len(got) == 5:
        _, _, trace = tq.approximate_by_mixed(g, C, step, check_promise=False)
        assert len(trace.classes) == len(got[3])
        assert got[4] == reference_trace_text(trace)


def test_class_walk_reads_no_tuple_table():
    """The builder, the approximation and the structural verifier walk ball
    positions: neither module reads a `.table` attribute or imports the
    tuple walk `_frontiers`.  The class choices run relative to the class
    image, without the tuple model's second boundary pass; that no module
    of the package defines or imports a name of the tuple model is checked
    in test_public_api.py."""
    for module in (mixed_builder, transforms):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr != "table", (module.__name__, node.lineno)
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name.split(".")[-1] for a in node.names]
                assert "_frontiers" not in names, (module.__name__, node.lineno)
                assert "boundary" not in names, (module.__name__, node.lineno)
