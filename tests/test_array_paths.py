"""Equivalence net for the array-native map operations.

Each reference below is the tuple-by-tuple implementation the label-array
version replaced, kept verbatim in spirit: the table validation,
`sup_distance`, `is_order_preserving` with its witness, `compose` and the
normalization fold.  Bounded properties compare fast and reference results,
errors included, on identity, automorphism, perturbed (images deeper than
the radius), random non-root-fixing, constant and mixed maps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeqi as tq
from treeqi import ROOT, FiniteTreeMap, MixedPolicy, TreeShape, ball
from treeqi.errors import MapDomainError, ShapeMismatchError, TreeQIError
from treeqi.mapfile import dump_map_text, parse_map_text
from treeqi.transforms import _normalize_fold
from treeqi.tree_core import distance, format_address, lca_pair, validate_address

NET = settings(max_examples=60, deadline=None)


def _reference_validate(shape, radius, table):
    """The per-image table check of the dict-backed map."""
    dom = ball(shape, radius)
    if len(table) != len(dom) or any(v not in table for v in dom):
        missing = next((v for v in dom if v not in table), None)
        if missing is not None:
            raise MapDomainError(f"table is missing domain vertex {format_address(missing)}")
        extra = sorted(set(table) - set(dom))[0]
        raise MapDomainError(f"table has entry {format_address(extra)} outside the ball")
    for v in dom:
        validate_address(table[v], shape)


def _reference_is_order_preserving(m):
    t = m.table
    for v in sorted(m.domain, key=lambda v: (len(v), v)):
        if not v:
            continue
        fp = t[v[:-1]]
        if t[v][: len(fp)] != fp:
            return False, v
    return True, None


def _reference_sup_distance(m1, m2):
    if m1.shape != m2.shape:
        raise ShapeMismatchError(
            f"cannot compare maps of degrees {m1.shape.degree} and {m2.shape.degree}"
        )
    r = min(m1.domain_radius, m2.domain_radius)
    return max(distance(m1.table[v], m2.table[v]) for v in ball(m1.shape, r))


def _reference_compose(outer, inner):
    if outer.shape != inner.shape:
        raise ShapeMismatchError("composed maps must share a degree")
    eff = inner.domain_radius
    for v in inner.domain:
        if len(inner.table[v]) > outer.domain_radius:
            eff = min(eff, len(v) - 1)
    if eff < 0:
        raise MapDomainError(
            "empty effective domain: the root's inner image leaves the outer ball"
        )
    table = {v: outer.table[inner.table[v]] for v in ball(inner.shape, eff)}
    return FiniteTreeMap(inner.shape, eff, table)


def _reference_normalize_fold(f):
    table = {}
    # address order is preorder, so the reversed order visits children first
    for v in reversed(f.domain):
        acc = f.table[v]
        if len(v) < f.domain_radius:
            for c in f.shape.children(v):
                acc = lca_pair(acc, table[c])
        table[v] = acc
    return FiniteTreeMap(f.shape, f.domain_radius, table)


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
    out = _outcomes(lambda: tq.sup_distance(a, b), lambda: _reference_sup_distance(a, b))
    assert out is None or out[0] == out[1]


@NET
@given(map_pairs())
def test_compose_matches_reference(pair):
    outer, inner = pair
    out = _outcomes(lambda: tq.compose(outer, inner), lambda: _reference_compose(outer, inner))
    if out is not None:
        got, want = out
        assert got == want and dump_map_text(got) == dump_map_text(want)


@NET
@given(family_maps())
def test_is_order_preserving_matches_reference(m):
    assert tq.is_order_preserving(m) == _reference_is_order_preserving(m)


@NET
@given(family_maps())
def test_normalization_fold_matches_reference(m):
    want = _reference_normalize_fold(m)
    got = _normalize_fold(m)
    assert got == want and got.table == want.table
    assert dump_map_text(got) == dump_map_text(want)


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
            lambda: _reference_validate(m.shape, m.domain_radius, table),
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
