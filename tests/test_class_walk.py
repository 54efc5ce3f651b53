"""Equivalence net for the mixed construction's class walk on ball positions.

The references (tests/reference.py) are the tuple versions the position
walk replaced: the class walk over the tuple frontiers with its sorted
levels, and the structural verifier that read `m.table` vertex by vertex.
A bounded property runs both on built mixed maps with random image swaps
and one deepened image; a structural test keeps the tuple walk from coming
back.
"""

import ast
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import treeqi as tq
from reference import reference_level_classes, reference_verify_mixed_structure
from test_properties import builds
from treeqi import FiniteTreeMap, mixed_builder, transforms
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
