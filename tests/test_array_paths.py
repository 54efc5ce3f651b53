"""Equivalence net for the array-native map operations.

Each reference (tests/reference.py) is the tuple-by-tuple implementation
the label-array version replaced, kept verbatim in spirit: the table validation,
`sup_distance`, `is_order_preserving` with its witness, `compose`, the
normalization fold and `coarse_surjectivity_radius`.  Bounded properties
compare fast and reference results, errors included, on identity,
automorphism, perturbed (images deeper than the radius), random
non-root-fixing, constant and mixed maps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeqi as tq
from reference import (
    reference_coarse_surjectivity,
    reference_compose,
    reference_is_order_preserving,
    reference_normalize_fold,
    reference_sup_distance,
    reference_validate,
)
from treeqi import ROOT, FiniteTreeMap, MixedPolicy, TreeShape
from treeqi.errors import BudgetExceededError, TreeQIError
from treeqi.mapfile import dump_map_text, parse_map_text
from treeqi.transforms import _normalize_fold
from treeqi.tree_core import DEFAULT_VERTEX_BUDGET, ball_size

NET = settings(max_examples=60, deadline=None)


KINDS = ("identity", "automorphism", "perturbed", "random", "constant", "mixed")


@st.composite
def family_maps(draw, shape=None, radius=None):
    """A map of one of the families, on a ball of at most a few hundred vertices."""
    if shape is None:
        shape = TreeShape(draw(st.sampled_from([3, 4])))
    top = 5 if shape.degree == 3 else 3
    if radius is None:
        radius = draw(st.integers(0, top))
    kind = draw(st.sampled_from(KINDS))
    seed = draw(st.integers(0, 10**6))
    if kind == "identity":
        return tq.identity_map(shape, radius)
    if kind == "automorphism":
        return tq.random_automorphism_map(shape, radius, seed)
    if kind == "perturbed":
        auto = tq.random_automorphism_map(shape, radius, seed)
        return tq.perturb_map_in_subtree(auto, seed + 1, max_step=draw(st.integers(1, 4)))
    if kind == "random":
        return tq.random_map(shape, radius, seed)
    if kind == "constant":
        depth = draw(st.sampled_from([0, 1, 3, 7, tq.MAX_DEPTH]))
        return tq.constant_map(shape, radius, (0,) + (1,) * (depth - 1) if depth else ROOT)
    step = draw(st.integers(1, 2))
    levels = max(radius // step, 1)
    return tq.build_mixed(shape, step, levels, MixedPolicy.random(seed))[0]


@st.composite
def map_pairs(draw):
    """Two maps, mostly of one degree and with radii drawn independently."""
    a = draw(family_maps())
    if draw(st.integers(0, 9)) == 0:
        other = TreeShape(7 - a.shape.degree)
        return a, draw(family_maps(shape=other, radius=min(a.domain_radius, 3)))
    return a, draw(family_maps(shape=a.shape))


def _outcomes(fast, reference):
    """(fast result, reference result), or None when both raise the same
    error with the same message."""
    try:
        want = reference()
    except TreeQIError as e:
        with pytest.raises(type(e)) as err:
            fast()
        assert str(err.value) == str(e)
        return None
    return fast(), want


@NET
@given(map_pairs())
def test_sup_distance_matches_reference(pair):
    a, b = pair
    out = _outcomes(lambda: tq.sup_distance(a, b), lambda: reference_sup_distance(a, b))
    assert out is None or out[0] == out[1]


@NET
@given(map_pairs())
def test_compose_matches_reference(pair):
    outer, inner = pair
    out = _outcomes(lambda: tq.compose(outer, inner), lambda: reference_compose(outer, inner))
    if out is not None:
        got, want = out
        assert got == want and dump_map_text(got) == dump_map_text(want)


@NET
@given(family_maps())
def test_is_order_preserving_matches_reference(m):
    assert tq.is_order_preserving(m) == reference_is_order_preserving(m)


@NET
@given(family_maps())
def test_normalization_fold_matches_reference(m):
    want = reference_normalize_fold(m)
    got = _normalize_fold(m)
    assert got == want and got.table == want.table
    assert dump_map_text(got) == dump_map_text(want)


@NET
@given(family_maps(), st.data())
def test_coarse_surjectivity_matches_reference(m, data):
    r = m.domain_radius
    for target in sorted({0, max(r - 1, 0), r, r + 1, r + 3}):
        size = ball_size(m.shape, target)
        budget = data.draw(st.sampled_from([DEFAULT_VERTEX_BUDGET, size, size - 1]))
        out = _outcomes(
            lambda: tq.coarse_surjectivity_radius(m, target, budget),
            lambda: reference_coarse_surjectivity(m, target, budget),
        )
        assert out is None or out[0] == out[1], target


def test_coarse_surjectivity_honors_a_raised_budget(monkeypatch):
    # with the default vertex budget patched down, a target ball past it is
    # admitted by the caller's larger budget and goes through the one ball
    # cache like any other; a lowered budget refuses it
    m = tq.perturb_map_in_subtree(tq.random_automorphism_map(TreeShape(3), 3, 1), 2)
    monkeypatch.setattr(tq.layout._budgeted_ball, "__defaults__", (50,))
    for target in (4, 6):  # 46 and 190 vertices
        got = tq.coarse_surjectivity_radius(m, target, 200)
        assert got == reference_coarse_surjectivity(m, target, 200)
        misses = tq.layout._ball.cache_info().misses
        tq.layout._ball(3, target)
        assert tq.layout._ball.cache_info().misses == misses  # the target ball is cached
    with pytest.raises(BudgetExceededError, match="has 190 vertices, budget is 100"):
        tq.coarse_surjectivity_radius(m, 6, 100)


def _mutations(rnd, shape, radius, table):
    """The table unchanged, or with one defect a table check must name."""
    verts = sorted(table)
    v, u = rnd.choice(verts), rnd.choice(verts)
    d = shape.degree
    yield dict(table)
    yield {u: w for u, w in table.items() if u != v}  # a missing vertex
    yield {**table, (0,) * (radius + 1): ROOT}  # an entry outside the ball
    yield {**table, v: (d,)}  # first label out of range
    yield {**table, v: (0, d - 1)}  # later label out of range
    yield {**table, v: (0, -1)}
    yield {**table, v: (0,) * (tq.MAX_DEPTH + 1)}  # past the depth cap
    yield {**table, v: (1.0,)}  # a float label
    yield {**table, v: (np.int64(0),)}  # a numpy label is no int
    yield {**table, v: (0, [1])}  # an unhashable label
    yield {**table, v: (2**70,)}  # past int64
    yield {**table, v: (True, 0)}  # bool is an int, as isinstance has it
    yield {**table, v: (d,), u: (0,) * (tq.MAX_DEPTH + 1)}  # the first in domain order is named


@NET
@given(family_maps(), st.randoms(use_true_random=False))
def test_table_validation_matches_reference(m, rnd):
    for table in _mutations(rnd, m.shape, m.domain_radius, m.table):
        out = _outcomes(
            lambda: FiniteTreeMap(m.shape, m.domain_radius, table),
            lambda: reference_validate(m.shape, m.domain_radius, table),
        )
        if out is None:
            continue
        built = out[0]
        assert built.table == table
        assert parse_map_text(dump_map_text(built)).table == table
        table.clear()  # the map keeps its own copy
        assert built.table and built == parse_map_text(dump_map_text(built))


def test_large_degree_labels_are_not_truncated():
    big = TreeShape(40000)
    m = FiniteTreeMap(big, 0, {ROOT: (39999, 5)})
    assert m.table == {ROOT: (39999, 5)}
    assert tq.sup_distance(m, tq.constant_map(big, 0, (39999,))) == 1
    text = "tree-qi v1 degree=40000 radius=0\n. 39999\n"
    assert dump_map_text(parse_map_text(text)) == text
    auto = tq.random_automorphism_map(big, 1, 3)  # one permutation of 40000 labels
    assert sorted(auto.table.values()) == list(auto.domain)
