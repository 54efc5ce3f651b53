"""Exhaustive measurement by counting keys per group.

`measure_qi` over every pair counts the pairs' (delta, iota) keys by group
(`pair_counts._Groups`) and reads only the rows that hold the witness and the
listed violations.  Its reference is the block fold that a sampled source
runs over `_pairs`: a sample of every pair is every pair in canonical
order, so the two must agree field for field.
"""

import random
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeqi as tq
from treeqi import MAX_DEPTH, MixedPolicy, PairSource, TreeShape
from reference import common_prefix_len
from treeqi.errors import BudgetExceededError
from treeqi import pair_counts
from treeqi.pair_counts import _Groups
from treeqi.tree_core import ball

D3 = TreeShape(3)


def _every_pair(m, seed: int = 0) -> PairSource:
    n = len(m.domain)
    return PairSource.sampled(n * (n - 1) // 2, seed)


def _fold(m, **kw):
    """The block fold over a sample of every pair, which `_pairs` hands over
    as the whole range in order without drawing."""
    return tq.measure_qi(m, _every_pair(m), **kw)


def _pool_map(shape: TreeShape, radius: int, seed: int) -> tq.FiniteTreeMap:
    """Images drawn from a few addresses, some at the root or the depth cap,
    so that images repeat and prefixes run long."""
    rng = random.Random(seed)

    def address(depth):
        labels = [rng.randrange(shape.degree)]
        labels += [rng.randrange(shape.degree - 1) for _ in range(depth)]
        return tuple(labels[:depth])

    pool = [address(rng.choice([0, 1, 2, 3, 5, MAX_DEPTH])) for _ in range(rng.randint(1, 6))]
    return tq.FiniteTreeMap(shape, radius, {v: rng.choice(pool) for v in ball(shape, radius)})


@st.composite
def measured_maps(draw):
    """Maps on balls of radius <= 6 of degree 3 or 4 of several kinds:
    random, perturbed automorphisms and their order-preserving
    normalizations, mixed builds, and repeated images."""
    shape = TreeShape(draw(st.sampled_from([3, 4])))
    radius = draw(st.integers(0, 6 if shape.degree == 3 else 4))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["random", "perturbed", "normalized", "mixed", "pool"]))
    if kind == "mixed" and radius:
        step = draw(st.sampled_from([s for s in (1, 2, 3) if radius % s == 0]))
        return tq.build_mixed(shape, step, radius // step, MixedPolicy.random(seed))[0]
    if kind in ("perturbed", "normalized"):
        auto = tq.random_automorphism_map(shape, radius, seed)
        m = tq.perturb_map_in_subtree(auto, seed, max_step=draw(st.integers(1, 4)))
        if kind == "normalized":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", tq.PromiseWarning)
                m = tq.normalize_order_preserving(m, 3)
        return m
    if kind == "pool":
        return _pool_map(shape, radius, seed)
    return tq.random_map(shape, radius, seed)


@settings(max_examples=60, deadline=None)
@given(
    measured_maps(),
    st.sampled_from([None, 1, Fraction(3, 2), 2, 4]),
    st.sampled_from([None, 0, 1, 3]),
    st.sampled_from([0, 1, 7]),
    st.integers(0, 2**16),
)
def test_exhaustive_counts_equal_the_full_sample_fold_property(m, C, max_lca_depth, cap, seed):
    saved = tq.qi_map.DEFAULT_MAX_VIOLATIONS
    tq.qi_map.DEFAULT_MAX_VIOLATIONS = cap
    try:
        got = tq.measure_qi(m, candidate_C=C, max_lca_depth=max_lca_depth)
        want = tq.measure_qi(m, _every_pair(m, seed), candidate_C=C, max_lca_depth=max_lca_depth)
    finally:
        tq.qi_map.DEFAULT_MAX_VIOLATIONS = saved
    assert got.measurement_fields() == want.measurement_fields()


@settings(max_examples=40, deadline=None)
@given(measured_maps(), st.integers(0, 2**16), st.integers(1, 7))
def test_group_counts_equal_the_pairs_property(m, seed, block):
    """Each pair (u, v) falls in the count at (LCA depth, image prefix, cell
    sum); a vertex's partners in any set of those counts are its pairs there.
    Groups formed a few cells at a time (one threshold row a block) give the
    counts and partners of one block."""
    groups = _Groups(tq.qi_map._ball(m.shape.degree, m.domain_radius), m._image_index)
    verts, t = m.domain, m.table
    cell = {v: len(v) * groups.base + len(t[v]) for v in verts}
    at = {}  # (a, b, cell sum) of each pair, by its ends' positions
    for i, u in enumerate(verts):
        for j in range(i + 1, len(verts)):
            v = verts[j]
            at[i, j] = (common_prefix_len(u, v), common_prefix_len(t[u], t[v]), cell[u] + cell[v])
    records = groups.exact_counts(m.domain_radius)
    assert Counter(at.values()) == {tuple(r[:3]): r[3] for r in records.T.tolist()}
    rng = random.Random(seed)
    chosen = np.array([rng.random() < 0.3 for _ in range(records.shape[1])], dtype=bool)
    picked = {tuple(r[:3]) for r in records[:, chosen].T.tolist()}
    want = np.zeros(len(verts))
    for (i, j), k in at.items():
        if k in picked:
            want[[i, j]] += 1
    assert np.array_equal(groups.partners(records[:, chosen]), want)
    saved, pair_counts._GROUP_BLOCK = pair_counts._GROUP_BLOCK, block
    try:
        assert np.array_equal(groups.exact_counts(m.domain_radius), records)
        assert np.array_equal(groups.partners(records[:, chosen]), want)
    finally:
        pair_counts._GROUP_BLOCK = saved


@pytest.mark.parametrize("C", [None, 2])
def test_late_witness_of_a_radius_10_mixed_build(C):
    # like the benchmark's mixed10 input: D = 2, 5 levels, random policy
    m, _ = tq.build_mixed(D3, 2, 5, MixedPolicy.random(6))
    got = tq.measure_qi(m, candidate_C=C)
    assert m.domain.index(got.witness[0]) >= 500
    assert got.measurement_fields() == _fold(m, candidate_C=C).measurement_fields()
    if C is not None:
        assert got.violations_total > len(got.violations) == tq.qi_map.DEFAULT_MAX_VIOLATIONS


def test_witness_of_a_normalized_perturbed_automorphism():
    # pairs whose ends share both depths hold the best key here, so a vertex
    # counted as its own partner would move the witness to an earlier row
    auto = tq.random_automorphism_map(D3, 5, 0)
    m = tq.normalize_order_preserving(tq.perturb_map_in_subtree(auto, 100), 3)
    got = tq.measure_qi(m)
    assert m.domain.index(got.witness[0]) == 89
    assert got.measurement_fields() == _fold(m).measurement_fields()


def test_violations_past_a_small_cap(monkeypatch):
    m = tq.random_map(D3, 4, 7)
    monkeypatch.setattr(tq.qi_map, "DEFAULT_MAX_VIOLATIONS", 7)
    got = tq.measure_qi(m, candidate_C=1)
    assert got.violations_total > len(got.violations) == 7
    assert got.measurement_fields() == _fold(m, candidate_C=1).measurement_fields()


def test_pairs_through_the_root_only():
    m = tq.perturb_map_in_subtree(tq.random_automorphism_map(D3, 5, 3), 4)
    got = tq.measure_qi(m, candidate_C=1, max_lca_depth=0)
    want = _fold(m, candidate_C=1, max_lca_depth=0)
    assert got.measurement_fields() == want.measurement_fields()
    assert 0 < got.pairs_checked < tq.measure_qi(m).pairs_checked


@pytest.mark.parametrize(
    "m, max_lca_depth",
    [(tq.identity_map(D3, 0), None), (tq.random_map(D3, 3, 1), -1)],
    ids=["radius-0", "no-pair-left"],
)
def test_no_pairs(m, max_lca_depth):
    got = tq.measure_qi(m, candidate_C=1, max_lca_depth=max_lca_depth)
    assert (got.pairs_checked, got.witness, got.best_single_C) == (0, None, 1)
    want = _fold(m, candidate_C=1, max_lca_depth=max_lca_depth)
    assert got.measurement_fields() == want.measurement_fields()


def test_exhaustive_budget_refuses_before_counting(monkeypatch):
    m = tq.random_map(D3, 3, 1)  # 231 pairs

    def no_counting(*args):
        raise AssertionError("counted past the budget")

    monkeypatch.setattr(tq.qi_map, "_Groups", no_counting)
    monkeypatch.setattr(tq.qi_map, "DEFAULT_MAX_PAIRS", 230)
    message = "231 vertex pairs exceed the exhaustive budget 230; use a sampled pair source"
    with pytest.raises(BudgetExceededError, match=message):
        tq.measure_qi(m)
