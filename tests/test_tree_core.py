import random

import pytest

from reference import (
    FiniteSubtree,
    boundary,
    d_children,
    distance,
    geodesic,
    is_descendant,
    lca,
    lca_pair,
    parent,
)
from treeqi import ROOT, TreeShape, ball_size, format_address, parse_address
from treeqi.errors import BudgetExceededError, DepthLimitError, InvalidAddressError
from treeqi.tree_core import ball

D3 = TreeShape(3)
D4 = TreeShape(4)


def test_degree_bound():
    with pytest.raises(ValueError):
        TreeShape(2)


def test_parent():
    assert parent((0, 1, 2)) == (0, 1)
    assert parent(ROOT) == ROOT
    assert parent((2,)) == ROOT


def test_lca():
    assert lca({(0, 1, 0), (0, 1, 2, 1)}) == (0, 1)
    assert lca({(0, 1)}) == (0, 1)
    assert lca({(0,), (1,)}) == ROOT
    with pytest.raises(ValueError):
        lca(set())


def test_lca_fold_is_order_independent():
    rng = random.Random(5)
    verts = ball(D3, 5)
    for _ in range(100):
        group = [verts[rng.randrange(len(verts))] for _ in range(rng.randrange(2, 6))]
        expected = lca(group)
        for _ in range(3):
            rng.shuffle(group)
            acc = group[0]
            for v in group[1:]:
                acc = lca_pair(acc, v)
            assert acc == expected


def test_distance():
    assert distance((0, 1, 0), (0, 1, 2, 1)) == 3
    assert distance((1, 0), (1, 0)) == 0
    assert distance(ROOT, (0, 0, 0)) == 3


def test_geodesic():
    assert geodesic((0, 0), (0, 1)) == [(0, 0), (0,), (0, 1)]
    assert geodesic((1, 0), (1, 0)) == [(1, 0)]
    assert geodesic(ROOT, (1, 0)) == [ROOT, (1,), (1, 0)]


def test_geodesic_properties():
    rng = random.Random(11)
    verts = ball(D3, 6)
    for _ in range(300):
        u = verts[rng.randrange(len(verts))]
        v = verts[rng.randrange(len(verts))]
        path = geodesic(u, v)
        assert len(path) == distance(u, v) + 1
        assert path[0] == u and path[-1] == v
        assert all(distance(a, b) == 1 for a, b in zip(path, path[1:]))
        assert lca({u, v}) in path


def test_is_descendant():
    assert is_descendant((0, 1, 2), (0, 1))
    assert not is_descendant((0, 1), (0, 1, 2))
    assert is_descendant((1, 0), ROOT)
    assert is_descendant((1, 0), (1, 0))


def test_metric_axioms_random_quadruples():
    rng = random.Random(3)
    verts = ball(D4, 5)
    for _ in range(500):
        u, v, x, y = (verts[rng.randrange(len(verts))] for _ in range(4))
        assert distance(u, v) == distance(v, u)
        assert (distance(u, v) == 0) == (u == v)
        # four-point condition of tree metrics
        assert distance(u, v) + distance(x, y) <= max(
            distance(u, x) + distance(v, y), distance(u, y) + distance(v, x)
        )


def test_d_children_counts():
    assert len(d_children(ROOT, 2, D3)) == 6
    assert d_children((0,), 1, D3) == [(0, 0), (0, 1)]
    assert len(d_children((0,), 2, D4)) == 9
    with pytest.raises(ValueError):
        d_children(ROOT, 0, D3)


def test_ball_sizes_and_order():
    assert ball_size(D3, 0) == 1
    assert ball_size(D3, 8) == 766
    assert ball_size(D3, 14) == 49150
    b = ball(D3, 3)
    assert len(b) == ball_size(D3, 3)
    assert b == sorted(b)
    assert b[0] == ROOT


def test_budget_and_depth_limits():
    with pytest.raises(BudgetExceededError):
        ball(D3, 30)
    with pytest.raises(DepthLimitError):
        ball(D3, 65, budget=10**18)
    with pytest.raises(DepthLimitError):
        parse_address(".".join(["0"] * 70))


def test_boundary_examples():
    assert boundary(FiniteSubtree([ROOT]), D3) == [(0,), (1,), (2,)]
    assert len(boundary(FiniteSubtree([ROOT, (0,)]), D3)) == 4
    assert boundary(FiniteSubtree([(0,)]), D4) == [(0, 0), (0, 1), (0, 2)]


def test_subtree_validation():
    with pytest.raises(ValueError):
        FiniteSubtree([])
    with pytest.raises(ValueError):
        FiniteSubtree([(0,), (1,)])  # two shallowest vertices, no shared parent
    with pytest.raises(ValueError):
        FiniteSubtree([(0,), (0, 0, 1)])  # gap above the deep vertex
    s = FiniteSubtree([(0, 1), (0,), (0, 0)])
    assert s.local_root == (0,)
    assert (0, 0) in s and (1,) not in s


def _random_subtree(shape, size, rng, include_root):
    if include_root:
        root = ROOT
    else:
        depth = rng.randrange(1, 6)
        root = (rng.randrange(shape.degree),) + tuple(
            rng.randrange(shape.degree - 1) for _ in range(depth - 1)
        )
    members = {root}
    pool = shape.children(root)
    for _ in range(size - 1):
        idx = rng.randrange(len(pool))
        w = pool[idx]
        pool[idx] = pool[-1]
        pool.pop()
        members.add(w)
        pool.extend(shape.children(w))
    return FiniteSubtree(members)


@pytest.mark.parametrize("degree", [3, 4, 5])
def test_isoperimetry_random_growth(degree):
    shape = TreeShape(degree)
    rng = random.Random(100 + degree)
    for _ in range(100):
        size = rng.randrange(1, 60)
        include_root = rng.random() < 0.4
        s = _random_subtree(shape, size, rng, include_root)
        assert len(s) == size
        expected = size * (degree - 2) + (2 if ROOT in s else 1)
        assert len(boundary(s, shape)) == expected


def test_address_text_round_trip():
    assert format_address(ROOT) == "."
    assert format_address((0, 1, 2)) == "0.1.2"
    assert parse_address(".") == ROOT
    assert parse_address("0.1.2", D4) == (0, 1, 2)
    with pytest.raises(InvalidAddressError):
        parse_address("0.x")
    with pytest.raises(InvalidAddressError):
        parse_address("3.0", D3)  # first label must be < degree
    with pytest.raises(InvalidAddressError):
        parse_address("0.2", D3)  # later labels must be < degree-1
    with pytest.raises(InvalidAddressError):
        parse_address("0..1")
    # only ASCII digits are labels: '\u00b2' fails int() and '\u0661' (an
    # Arabic-Indic one) would parse as 1
    for text in ("\u00b2", "0.\u0661"):
        with pytest.raises(InvalidAddressError):
            parse_address(text)
