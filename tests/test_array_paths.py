"""Equivalence net for the array-native map operations.

Each reference (tests/reference.py) is the tuple-by-tuple implementation
the label-array version replaced, kept verbatim in spirit: the table validation,
`sup_distance`, `is_order_preserving` with its witness, `compose`, the
normalization fold, `coarse_surjectivity_radius` and
`perturb_map_in_subtree`.  Bounded properties compare fast and reference
results, errors included, on identity, automorphism, perturbed (images
deeper than the radius), random non-root-fixing, constant and mixed maps;
pinned digests guard the generators' random streams.
"""

import hashlib

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
    reference_perturb_map_in_subtree,
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


@st.composite
def perturb_inputs(draw):
    """A map to perturb: an automorphism, a random map (whose non-root
    vertices may map to the root, so a first step draws among d labels) or
    a constant map to the root, one label above the depth cap or on it, on
    a ball of at most a few hundred vertices."""
    shape = TreeShape(draw(st.sampled_from([3, 4, 11, 129])))
    top = {3: 5, 4: 5, 11: 2, 129: 1}[shape.degree]
    radius = draw(st.integers(0, top))
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(["automorphism", "random", "constant"]))
    if kind == "automorphism":
        return tq.random_automorphism_map(shape, radius, seed)
    if kind == "random":
        return tq.random_map(shape, radius, seed)
    depth = draw(st.sampled_from([0, tq.MAX_DEPTH - 1, tq.MAX_DEPTH]))
    return tq.constant_map(shape, radius, (shape.degree - 1,) + (0,) * (depth - 1) if depth else ROOT)


@NET
@given(perturb_inputs(), st.integers(0, 10**6), st.integers(1, 4))
def test_perturb_matches_reference(m, seed, max_step):
    got = tq.perturb_map_in_subtree(m, seed, max_step=max_step)
    want = reference_perturb_map_in_subtree(m, seed, max_step=max_step)
    assert got == want and dump_map_text(got) == dump_map_text(want)


@pytest.mark.parametrize("radius", [0, 2])
@pytest.mark.parametrize("max_step", [0, -1])
def test_perturb_refuses_a_step_bound_below_one(radius, max_step):
    m = tq.random_automorphism_map(TreeShape(3), radius, 1)
    with pytest.raises(ValueError, match=f"max_step must be >= 1, got {max_step}"):
        tq.perturb_map_in_subtree(m, 2, max_step=max_step)


def test_perturb_honors_the_default_vertex_budget(monkeypatch):
    m = tq.random_automorphism_map(TreeShape(3), 3, 1)
    monkeypatch.setattr(tq.layout._budgeted_ball, "__defaults__", (10,))
    with pytest.raises(BudgetExceededError, match="ball of radius 3 has 22 vertices, budget is 10"):
        tq.perturb_map_in_subtree(m, 2)


# sha256 of dump_map_text for (degree, radius, seed): the automorphism
# drawn with `seed` and its perturbation drawn with seed + 1.  They pin the
# random streams of both generators, which the reference shares.
_STREAM_SHA256 = [
    (3, 0, 1, "0a856b9ae1141358306a399597c2efe1b257245eae484011b5b904cbbb762055",
     "0a856b9ae1141358306a399597c2efe1b257245eae484011b5b904cbbb762055"),
    (3, 0, 2024, "0a856b9ae1141358306a399597c2efe1b257245eae484011b5b904cbbb762055",
     "0a856b9ae1141358306a399597c2efe1b257245eae484011b5b904cbbb762055"),
    (3, 1, 1, "794ce5579dee06fa720f9c678be60718dcc095259b4501dd821398af8945f3f9",
     "e7da28b460438c14e3524ff32ce1da166249c51c92fb76d0d01c874e34185eef"),
    (3, 1, 2024, "bd82e93566f83b5f866f367dd4df1ad591aa5baa45cda7ddaa433b58a6d2a220",
     "9b30b7d5b4d4f7e924b79be27bd84cab4da0f03bae87a808ec486247d34e584b"),
    (3, 6, 1, "b7f4fb518ba9eab6e7e993dfb14cdbebda59972b5ea37b70c1beaf2dc86a0b2c",
     "e848ca9c9eb8726f8cde445a776bd367a7792412bce62372fcd0dc13250ddd1f"),
    (3, 6, 2024, "748975bd34f02c78548881f5cd54b83252ce4bb72cc3fb3be824a7f0af168189",
     "d1024b16171897ce067fa27a76901e6a1d9cd92ff2378f9984309c56989573ce"),
    (4, 0, 1, "8a0a9c7fc45a8f3434860a6e68eeac95dc4cd208f995eca45973be51b72f5586",
     "8a0a9c7fc45a8f3434860a6e68eeac95dc4cd208f995eca45973be51b72f5586"),
    (4, 0, 2024, "8a0a9c7fc45a8f3434860a6e68eeac95dc4cd208f995eca45973be51b72f5586",
     "8a0a9c7fc45a8f3434860a6e68eeac95dc4cd208f995eca45973be51b72f5586"),
    (4, 1, 1, "8ca10b639ff02024440a232e01168a5e8a92a123f0dd5f5b61aaa8f113ba6d2b",
     "47422ab9fb15a2b0e85832f05700e42c98b3b1aa1c0f8a0465f2e07254948989"),
    (4, 1, 2024, "e2ca5aad8a81c8a7efabc96318cfdad75bf5a8cb4c210c776c3caf1b2f5a66b1",
     "9bc5b43d33c5cefdf6362afacd0d1c4d203779d7369b0fbf8fc378db36452bbd"),
    (4, 6, 1, "4d0ac5b2ce12ad6bffdb95f7232afff695ce92f124f69e850913dc226f3d83b0",
     "c61e9f4c4b074f0ceb9ccb14dbaa5e0bc684938d6d89fa2dae9ee14d4fd6e4cc"),
    (4, 6, 2024, "8140822171c4282ea12ed6883e5937fd7bee095a47839f3362e7da3079a60641",
     "5094094b3b6eb9bce852b7e28159b41ce76392acbf333a065dda183e4fef04d8"),
    (129, 0, 1, "ca99265670498956f4de81bc5aafc5f36d186dbd6c36eb4db3ace170b904004f",
     "ca99265670498956f4de81bc5aafc5f36d186dbd6c36eb4db3ace170b904004f"),
    (129, 0, 2024, "ca99265670498956f4de81bc5aafc5f36d186dbd6c36eb4db3ace170b904004f",
     "ca99265670498956f4de81bc5aafc5f36d186dbd6c36eb4db3ace170b904004f"),
    (129, 1, 1, "7b2eea25a65c242bb5460e6f488dedfb2c530a26312349b26fd7ddcf5a4dd293",
     "9372c71e55032093f8237bfd2ae8a4f40dd7ddccecb1a9c14e8ec01f04c5d313"),
    (129, 1, 2024, "151d7e803e6f8fa263fdae00e01eae0aa3b0f7033b20429803d8db867cd38688",
     "ef9413bf5e8ef10674f1a3b648fb82f3a23ce20886c84e222fd4590959813646"),
    (129, 2, 1, "c4351812da1f7034893dccc5b9ca38ad4324310871eb431e0b55a9a54e77faa5",
     "aba22367f5904d22017c98d8afd41757225428fed44e4a195d6acb03471d4d1f"),
    (129, 2, 2024, "e2ba736ad9455f74fa8d87f28b39d0f4da3ad55a5aabbda6e2605647eccc9ed9",
     "62e0f7224c9222899d37de873b787b3016318a287de2af9a62519c6c391d8030"),
]


@pytest.mark.parametrize("degree, radius, seed, auto_sha256, perturbed_sha256", _STREAM_SHA256)
def test_generator_streams_are_pinned(degree, radius, seed, auto_sha256, perturbed_sha256):
    auto = tq.random_automorphism_map(TreeShape(degree), radius, seed)
    perturbed = tq.perturb_map_in_subtree(auto, seed + 1)
    assert hashlib.sha256(dump_map_text(auto).encode()).hexdigest() == auto_sha256
    assert hashlib.sha256(dump_map_text(perturbed).encode()).hexdigest() == perturbed_sha256
