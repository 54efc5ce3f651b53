import math
import random
import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import chain
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treeqi as tq
from treeqi import (
    EXHAUSTIVE,
    ROOT,
    FiniteTreeMap,
    PairSource,
    TreeShape,
)
from treeqi.errors import (
    BudgetExceededError,
    MapDomainError,
    PreconditionError,
    ShapeMismatchError,
)
from reference import common_prefix_len, distance, geodesic, parent
from treeqi import pair_counts
from treeqi.oracle import oracle_measure
from treeqi.prefix import _PrefixIndex
from treeqi.tree_core import ball

D3 = TreeShape(3)


def child_swap_map(radius=4):
    """Relabel 0 <-> 1 at the root, identity below (degree 4 so that the
    address 0.2 exists)."""
    shape = TreeShape(4)
    perms = [[1, 0, 2, 3]] + [[0, 1, 2] for _ in range(radius - 1)]
    return tq.levelwise_permutation_map(shape, radius, perms)


def test_table_validation():
    with pytest.raises(MapDomainError):
        FiniteTreeMap(D3, 1, {ROOT: ROOT})  # missing depth-1 vertices
    good = {v: v for v in ball(D3, 1)}
    bad = dict(good)
    bad[(0, 0)] = ROOT
    with pytest.raises(MapDomainError):
        FiniteTreeMap(D3, 1, bad)
    bad_image = dict(good)
    bad_image[(0,)] = (0, 2)  # label 2 needs degree >= 4
    with pytest.raises(tq.InvalidAddressError):
        FiniteTreeMap(D3, 1, bad_image)
    # only the ball's own tuples skip the label check: an equal tuple of
    # non-int labels, or an unhashable one, is still refused
    for image in ((1.0,), (0, [1])):
        with pytest.raises(tq.InvalidAddressError):
            FiniteTreeMap(D3, 1, {**good, (0,): image})


def test_sampled_measure_on_a_degree_past_int16():
    big = TreeShape(40000)
    m = tq.identity_map(big, 1)
    rep = tq.measure_qi(m, PairSource.sampled(2000, 3))
    assert rep.pairs_checked == 2000 and rep.best_single_C == 1


def test_maps_are_unhashable():
    m = tq.identity_map(D3, 1)
    with pytest.raises(TypeError):
        hash(m)


def test_evaluate():
    m = tq.identity_map(D3, 3)
    assert m.evaluate((0, 1)) == (0, 1)
    with pytest.raises(MapDomainError):
        m.evaluate((0, 0, 0, 0))
    swap = child_swap_map()
    assert swap.evaluate((0, 2)) == (1, 2)


def test_pair_min_C_closed_form():
    # identity-like pairs never push beyond 1
    assert tq.pair_min_C(5, 5) == 1
    # upper bound binds: iota/(delta+1)
    assert tq.pair_min_C(1, 5) == Fraction(5, 2)
    # lower bound binds at the positive root of C^2 + iota*C - delta,
    # rounded up to the nearest 1/10^6
    c = tq.pair_min_C(6, 0)
    assert c == Fraction(2449490, 10**6)
    n = c.numerator * (10**6 // c.denominator)
    assert n * n >= 6 * 10**12 > (n - 1) * (n - 1)
    # exact root: delta=1, iota=0 gives exactly 1
    assert tq.pair_min_C(1, 0) == 1


def test_identity_measurement():
    m = tq.identity_map(D3, 5)
    rep = tq.finish_report(tq.measure_qi(m), m)
    assert rep.best_single_C == 1
    assert rep.coarse_surjectivity_radius == 0
    assert rep.order_preserving is True
    assert rep.upper_pair == (1, 0) and rep.lower_pair == (1, 0)
    assert rep.witness is not None


def test_constant_map_measurement():
    rep = tq.measure_qi(tq.constant_map(D3, 3))
    # the farthest pair sits at distance 6; the lower bound forces C >= sqrt(6)
    assert rep.best_single_C == Fraction(2449490, 10**6)
    wx, wy = rep.witness
    assert distance(wx, wy) == 6
    assert rep.upper_pair == (1, 0)
    assert rep.lower_pair == (1, 6)


def test_empty_and_trivial_domains():
    rep = tq.measure_qi(tq.identity_map(D3, 0))
    assert rep.best_single_C == 1 and rep.witness is None and rep.pairs_checked == 0


def test_candidate_violations():
    m = tq.constant_map(D3, 3)
    rep = tq.measure_qi(m, candidate_C=2)
    assert rep.violations_total > 0
    assert all(v.kind == "lower" for v in rep.violations)
    # sqrt(6) candidate clears every pair
    ok = tq.measure_qi(m, candidate_C=Fraction(2449490, 10**6))
    assert ok.violations_total == 0
    ident = tq.identity_map(D3, 3)
    assert tq.measure_qi(ident, candidate_C=1).violations_total == 0


def test_coarse_surjectivity():
    assert tq.coarse_surjectivity_radius(tq.identity_map(D3, 5), 5) == 0
    assert tq.coarse_surjectivity_radius(tq.constant_map(D3, 4), 4) == 4
    # brute-force cross-check on random maps
    rng = random.Random(2)
    for seed in range(5):
        m = tq.random_map(D3, 4, seed)
        targets = ball(D3, 3)
        images = sorted(set(m.table.values()))
        brute = max(min(distance(y, w) for w in images) for y in targets)
        assert tq.coarse_surjectivity_radius(m, 3) == brute


def test_order_preserving():
    assert tq.is_order_preserving(tq.identity_map(D3, 4)) == (True, None)

    def send_zero_to_one(v):
        return (1,) + v[1:] if v and v[0] == 0 else v

    broken = {v: send_zero_to_one(v) for v in ball(D3, 3)}
    broken[(0, 0)] = (0, 0)  # parent image moved but the child stayed behind
    ok, witness = tq.is_order_preserving(FiniteTreeMap(D3, 3, broken))
    assert not ok and witness == (0, 0)


def test_sup_distance():
    m = tq.identity_map(D3, 5)
    assert tq.sup_distance(m, m) == 0
    parent_map = tq.map_from_function(D3, 5, parent)
    assert tq.sup_distance(m, parent_map) == 1
    with pytest.raises(ShapeMismatchError):
        tq.sup_distance(m, tq.identity_map(TreeShape(4), 5))


def test_sup_distance_is_pseudometric():
    rng = random.Random(4)
    maps = [tq.random_map(D3, 3, s) for s in range(6)]
    for _ in range(30):
        a, b, c = (maps[rng.randrange(len(maps))] for _ in range(3))
        assert tq.sup_distance(a, b) == tq.sup_distance(b, a)
        assert tq.sup_distance(a, c) <= tq.sup_distance(a, b) + tq.sup_distance(b, c)


def test_compose():
    m = tq.random_map(D3, 4, 8)
    ident = tq.identity_map(D3, 4)
    assert tq.compose(ident, m) == m
    assert tq.compose(m, ident) == m
    # inner image leaving the outer ball truncates the effective radius
    deep = dict(tq.identity_map(D3, 2).table)
    deep[(0, 0)] = (0,) * 6
    inner = FiniteTreeMap(D3, 2, deep)
    composed = tq.compose(tq.identity_map(D3, 4), inner)
    assert composed.domain_radius == 1
    with pytest.raises(MapDomainError):
        tq.compose(tq.identity_map(D3, 2), tq.constant_map(D3, 2, (0,) * 5))


def test_compose_constant_bound():
    # measured constant of a composite never beats Cf*Cg + Cf + Cg
    for sa, sb in [(1, 2), (3, 4), (5, 6)]:
        f = tq.perturb_map_in_subtree(tq.random_automorphism_map(D3, 5, sa), sa + 50)
        g = tq.perturb_map_in_subtree(tq.random_automorphism_map(D3, 5, sb), sb + 50)
        cf = tq.measure_qi(f).best_single_C
        cg = tq.measure_qi(g).best_single_C
        fg = tq.compose(f, g)
        assert tq.measure_qi(fg).best_single_C <= cf * cg + cf + cg


def test_check_geodesic_image():
    assert tq.check_geodesic_image(tq.identity_map(D3, 4), 1) == []
    assert tq.check_geodesic_image(tq.constant_map(D3, 3), 1) == []
    # a long jump leaves the middle of the image geodesic uncovered
    jump = dict(tq.identity_map(D3, 2).table)
    jump[(0,)] = (0, 0, 0, 0, 0)
    jump[(0, 0)] = (0, 0, 0, 0, 0, 0)
    jump[(0, 1)] = (0, 0, 0, 0, 0, 0)
    bad = FiniteTreeMap(D3, 2, jump)
    violations = tq.check_geodesic_image(bad, 1)
    assert violations and all(v.kind == "geodesic" for v in violations)
    assert all(v.at is not None for v in violations)
    # at the honestly measured constant the guarantee holds
    C = tq.measure_qi(bad).best_single_C
    assert tq.check_geodesic_image(bad, C) == []


_distance = cache(distance)


def _brute_geodesic_violations(m, C, pairs):
    """Direct double loop over both geodesics; oracle for the sweep version."""
    t = m.table
    out = []
    for u, v in pairs:
        images = [t[b] for b in geodesic(u, v)]
        for a in geodesic(t[u], t[v]):
            best = min(_distance(w, a) for w in images)
            if best > C:
                out.append((u, v, a, best))
    return out


def _canonical_pairs(m, source):
    """The source's vertex pairs in canonical order, enumerated directly."""
    verts = m.domain
    pairs = [
        (verts[i], verts[j]) for i in range(len(verts) - 1) for j in range(i + 1, len(verts))
    ]
    if source.mode == "exhaustive":
        return pairs
    picked = random.Random(source.seed).sample(range(len(pairs)), min(source.count, len(pairs)))
    return [pairs[r] for r in sorted(picked)]


def test_check_geodesic_image_matches_brute_force(monkeypatch):
    rng = random.Random(21)
    cut_checked = 0
    for seed in range(6):
        m = tq.random_map(D3, 3, 400 + seed)
        C = Fraction(rng.randrange(1, 3))
        for source in (EXHAUSTIVE, PairSource.sampled(60, seed)):
            brute = _brute_geodesic_violations(m, C, _canonical_pairs(m, source))
            monkeypatch.setattr(tq.qi_map, "DEFAULT_MAX_VIOLATIONS", 10**9)
            got = tq.check_geodesic_image(m, C, source)
            assert [(v.x, v.y, v.at, v.value) for v in got] == brute
            cut_checked += len(brute) > 1
            for cap in (0, 1, len(brute) // 2):
                monkeypatch.setattr(tq.qi_map, "DEFAULT_MAX_VIOLATIONS", cap)
                got = tq.check_geodesic_image(m, C, source)
                assert [(v.x, v.y, v.at, v.value) for v in got] == brute[:cap]
                assert got.total == len(brute)  # the cap limits the list, not the count
    assert cut_checked >= 4


def _geodesic_ties(m, pairs) -> int:
    """The geodesic positions b of the pairs (u, v) where P = Q: on u's
    side (u's ancestors from depth lca(u, v) down), lcp(f(b), f(u)) equals
    lcp(f(u), f(v)), and on v's side (v's ancestors below the LCA) the
    same with u and v swapped."""
    t = m.table
    ties = 0
    for u, v in pairs:
        top, Q = common_prefix_len(u, v), common_prefix_len(t[u], t[v])
        for end, first in ((u, top), (v, top + 1)):
            shared = [common_prefix_len(t[end[:k]], t[end]) for k in range(first, len(end) + 1)]
            ties += shared.count(Q)
    return ties


def test_geodesic_min_rule_and_small_blocks_match_the_brute_force(monkeypatch):
    """The check reads lcp(f(b), f(other end)) as min(P, Q), and from the
    two label rows only where P = Q.  On an exhaustive radius-6 random map
    about 40% of the geodesic positions have P = Q; the result equals the
    brute force there, and blocks cut to one pair, or tie rows read one or
    a few at a time, give the one-block result.  No check builds the map's
    prefix index."""
    m = tq.random_map(D3, 6, 1)
    monkeypatch.setattr(tq.qi_map, "DEFAULT_MAX_VIOLATIONS", 10**9)
    got = tq.check_geodesic_image(m, 2)
    pairs = _canonical_pairs(m, EXHAUSTIVE)
    assert [(v.x, v.y, v.at, v.value) for v in got] == _brute_geodesic_violations(m, 2, pairs)
    positions = sum(distance(u, v) + 1 for u, v in pairs)
    assert 0.35 < _geodesic_ties(m, pairs) / positions < 0.45
    source = PairSource.sampled(2000, 3)
    whole = tq.check_geodesic_image(m, 2, source)
    cuts = {"_GEODESIC_BLOCK": (1, 7), "_LABEL_BLOCK": (1, 5 * m.labels.shape[1])}
    for name, sizes in cuts.items():
        for size in sizes:
            with monkeypatch.context() as patch:
                patch.setattr(tq.qi_map, name, size)
                assert tq.check_geodesic_image(m, 2, source) == whole
    assert whole.total == len(whole) > 0
    assert "_image_index" not in vars(m)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_check_working_sets_do_not_grow_with_the_pairs():
    """The geodesic check and the exhaustive measurement hold one block at a
    time: at radius 8 and 10 (0.29M and 4.7M pairs, images to depth 14 and 20)
    each peaks under the same 2.5 MB, once a first call has built the
    tables cached per vertex.  Counting every threshold row at once took
    4.7 MB at radius 10, and the geodesic check in blocks of 2^16
    positions 3.0 MB."""
    peaks = []
    for levels in (4, 5):
        m, _ = tq.build_mixed(D3, 2, levels, tq.MixedPolicy.random(6))
        C = tq.measure_qi(m).best_single_C
        source = PairSource.sampled(30_000, 1)
        tq.check_geodesic_image(m, C, source)
        peaks.append((_traced_peak(lambda: tq.measure_qi(m)),
                      _traced_peak(lambda: tq.check_geodesic_image(m, C, source))))
    assert all(peak < 2.5 * 2**20 for peak in chain(*peaks)), peaks


def _maps(draw_image, radii=(0, 1, 2, 3), degrees=(3, 4)):
    for degree in degrees:
        shape = TreeShape(degree)
        for radius in radii:
            yield tq.map_from_function(shape, radius, lambda v: draw_image(shape, v))


@st.composite
def small_maps(draw):
    """Small maps whose images repeat, sit at the root, or reach MAX_DEPTH."""
    shape = TreeShape(draw(st.sampled_from([3, 4])))
    radius = draw(st.integers(0, 6 - shape.degree))

    def address(depth):
        labels = [draw(st.integers(0, shape.degree - 1))]
        labels += [draw(st.integers(0, shape.degree - 2)) for _ in range(depth - 1)]
        return tuple(labels[:depth])

    depths = st.one_of(st.integers(0, 4), st.just(tq.MAX_DEPTH))
    pool = [address(draw(depths)) for _ in range(draw(st.integers(1, 6)))]
    table = {v: pool[draw(st.integers(0, len(pool) - 1))] for v in ball(shape, radius)}
    return FiniteTreeMap(shape, radius, table)


@settings(max_examples=30, deadline=2000)
@given(small_maps(), st.sampled_from([1, Fraction(3, 2), 2, 5]), st.integers(0, 8))
def test_geodesic_image_property(m, C, block_exp):
    saved = tq.qi_map._GEODESIC_BLOCK, tq.qi_map.DEFAULT_MAX_VIOLATIONS
    tq.qi_map._GEODESIC_BLOCK, tq.qi_map.DEFAULT_MAX_VIOLATIONS = 1 << block_exp, 10**9
    try:
        got = tq.check_geodesic_image(m, C)
    finally:
        tq.qi_map._GEODESIC_BLOCK, tq.qi_map.DEFAULT_MAX_VIOLATIONS = saved
    assert [(v.x, v.y, v.at, v.value) for v in got] == _brute_geodesic_violations(
        m, C, _canonical_pairs(m, EXHAUSTIVE)
    )
    assert got.total == len(got)


@settings(max_examples=80, deadline=2000)
@given(
    small_maps(),
    st.sampled_from([None, 1, Fraction(3, 2), 2, 4]),
    st.sampled_from([None, 0, 1, 2]),
    st.integers(0, 8),
)
def test_measure_qi_equals_oracle_property(m, C, max_lca_depth, block_exp):
    saved = pair_counts._GROUP_BLOCK, tq.qi_map.DEFAULT_MAX_VIOLATIONS
    pair_counts._GROUP_BLOCK, tq.qi_map.DEFAULT_MAX_VIOLATIONS = 1 << block_exp, 7
    try:
        got = tq.measure_qi(m, candidate_C=C, max_lca_depth=max_lca_depth)
        want = oracle_measure(m, candidate_C=C, max_lca_depth=max_lca_depth)
    finally:
        pair_counts._GROUP_BLOCK, tq.qi_map.DEFAULT_MAX_VIOLATIONS = saved
    assert got.measurement_fields() == want.measurement_fields()


def _label_matrix(rows):
    """Rows packed into a matrix padded with -1, one address per row."""
    labels = np.full((len(rows), max(map(len, rows)) or 1), -1, dtype=np.int64)
    for i, v in enumerate(rows):
        labels[i, : len(v)] = v
    return labels


def _column_prefix_len(labels, iu, ju):
    """Common-prefix length by a scan over every depth column: the
    reference for the label-row reads and the LCP array."""
    a = labels[iu]
    b = labels[ju]
    plen = np.zeros(len(iu), dtype=np.int16)
    alive = np.ones(len(iu), dtype=bool)
    for k in range(labels.shape[1]):
        np.logical_and(alive, a[:, k] == b[:, k], out=alive)
        np.logical_and(alive, a[:, k] >= 0, out=alive)
        plen += alive
    return plen


def _kernel_maps():
    rng = random.Random(8)
    deep = lambda shape, v: (0,) + (1,) * (tq.MAX_DEPTH - 1) if len(v) % 2 else (0,) * tq.MAX_DEPTH
    yield from _maps(lambda shape, v: ROOT)
    yield from _maps(deep)
    yield from _maps(lambda shape, v: v)
    for seed in range(4):
        yield tq.random_map(D3, 3, seed)
        yield tq.random_map(TreeShape(4), 2, seed, fix_root=True)
        pool = [ROOT, (0,), (0, 1), (1, 0, 0), (0,) * tq.MAX_DEPTH, (0,) * 63 + (1,)]
        yield from _maps(lambda shape, v: pool[rng.randrange(len(pool))], radii=(0, 1, 3))
    yield tq.constant_map(D3, 3)
    yield tq.constant_map(D3, 2, (2,) + (1,) * (tq.MAX_DEPTH - 1))


def test_prefix_kernel_matches_column_loop():
    """The image index ranks the images in address order, its LCP array
    holds the column loop's prefix of each two rank-adjacent images, and
    the images that extend image i are exactly the ranks [lo[i], hi[i])."""
    for m in _kernel_maps():
        n = len(m.domain)
        images = [m.table[v] for v in m.domain]
        iu, ju = (a.ravel() for a in np.indices((n, n)))
        ref = _column_prefix_len(_label_matrix(images), iu, ju).reshape(n, n)
        index = m._image_index
        order = np.argsort(index.rank)
        assert sorted(index.rank) == list(range(n))
        assert [images[i] for i in order] == sorted(images)
        assert np.array_equal(index.lcp, ref[order[:-1], order[1:]])
        lo, hi = index.extension_ranks()
        extends = ref == index.depths[:, None]
        for i in range(n):
            assert sorted(index.rank[extends[i]]) == list(range(lo[i], hi[i]))


@st.composite
def prefix_indexes(draw):
    """A domain and an image label matrix over the same number of rows,
    each with the prefix index of the same rows: the ball and the images
    of a small map (`small_maps()`, images up to MAX_DEPTH deep), or two
    unsorted sets of addresses whose labels need a degree past int16, cut
    from a few MAX_DEPTH-deep ones so that rows share long prefixes."""
    if draw(st.booleans()):
        m = draw(small_maps())
        ball = tq.qi_map._ball(m.shape.degree, m.domain_radius)
        return (_PrefixIndex(ball.labels, ball.depths), ball.labels), (m._image_index, m.labels)
    n = draw(st.integers(1, 12))
    labels = st.sampled_from([0, 1, 32767, 32768, 39999])
    depths = st.one_of(st.integers(0, 3), st.integers(tq.MAX_DEPTH - 1, tq.MAX_DEPTH))

    def index():
        pool = [[draw(labels) for _ in range(tq.MAX_DEPTH)] for _ in range(draw(st.integers(1, 3)))]
        rows = [tuple(pool[draw(st.integers(0, len(pool) - 1))][: draw(depths)]) for _ in range(n)]
        lengths = np.array([len(v) for v in rows])
        matrix = _label_matrix(rows).astype(np.int32)
        return _PrefixIndex(matrix, lengths), matrix

    return index(), index()


@settings(max_examples=60, deadline=None)
@given(prefix_indexes(), st.integers(0, 80), st.integers(0, 3))
def test_pair_blocks_equal_the_per_pair_lookup(indexes, count, seed):
    """Exhaustive and sampled blocks, rows cut between blocks, carry the
    canonical pairs and, element for element, the prefix lengths that the
    column loop gives for them, read as int32 from the label rows; each
    row read at once (`row_prefix_len`, running minima along the LCP
    array) equals the column loop too."""
    (dom, dom_rows), (img, img_rows) = indexes
    n = dom.n
    iu, ju = (a.astype(np.int32) for a in np.triu_indices(n, 1))
    picked = sorted(random.Random(seed).sample(range(len(iu)), min(count, len(iu))))
    for source, at in ((EXHAUSTIVE, slice(None)), (PairSource.sampled(count, seed), picked)):
        want = [iu[at], ju[at]]
        want += [_column_prefix_len(rows, *want[:2]) for rows in (dom_rows, img_rows)]
        for size in {s for s in (1, 7, n - 2, n - 1, n, tq.qi_map._BLOCK) if s >= 1}:
            blocks = list(tq.qi_map._pairs(dom_rows, img_rows, source, size))
            assert [len(b[0]) for b in blocks[:-1]] == [size] * (len(blocks) - 1)
            assert all(0 < len(b[0]) <= size for b in blocks)
            assert all(b[k].dtype == np.int32 for b in blocks for k in (2, 3))
            got = [np.concatenate(c) for c in zip(*blocks)] or [np.empty(0)] * 4
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            # the checks double prefix lengths: a depth-64 prefix must not wrap
            assert all(np.array_equal(2 * g, 2 * w.astype(np.int64)) for g, w in zip(got, want))
    for index, rows in ((dom, dom_rows), (img, img_rows)):
        for i in range(n):
            later = np.arange(i + 1, n)
            want = _column_prefix_len(rows, np.full_like(later, i), later).astype(np.int64)
            assert np.array_equal(2 * index.row_prefix_len(i), 2 * want)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=12), st.data())
def test_ranked_equals_the_repeat_layout(counts, data):
    """`_ranked` lays out counts[k] pairs in row k, skipping rows with none,
    as `np.repeat` does: every rank, or a sorted sample of them, in blocks
    of exactly `size` pairs but the last."""
    counts = np.array(counts, np.int64)
    total = int(counts.sum())
    rows = np.repeat(np.arange(len(counts)), counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    size = data.draw(st.integers(1, total + 1))
    sample = None
    if data.draw(st.booleans()):
        picked = data.draw(st.sets(st.integers(0, max(total - 1, 0)), max_size=total))
        sample = np.array(sorted(picked), np.int64)
    ranks = np.arange(total) if sample is None else sample
    blocks = list(tq.qi_map._ranked(counts, size, sample))
    sizes = [min(size, len(ranks) - at) for at in range(0, len(ranks), size)]
    assert [len(r) for r, _ in blocks] == sizes
    got = [np.concatenate(c) for c in zip(*blocks)] or [np.empty(0, np.int64)] * 2
    assert np.array_equal(got[0], rows[ranks]) and np.array_equal(got[1], offsets[ranks])


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.integers(1, 400), st.integers(92_600, 92_760)),
    st.integers(0, 700),
    st.integers(0, 2**40),
)
@example(n=10, count=10, seed=1)  # into a list
@example(n=7, count=5, seed=5)  # into a list of at most 21
@example(n=13, count=21, seed=6)  # into a list: 78 values, at most 85
@example(n=14, count=21, seed=6)  # into a set: 91 values
@example(n=91, count=700, seed=7)  # into a list, k about a fifth of the total
@example(n=30, count=435, seed=8)  # every pair
@example(n=400, count=700, seed=2)  # into a set
@example(n=400, count=20_000, seed=0)  # into a set, with more words read after the estimate
@example(n=92_682, count=50, seed=3)  # the last total of 32 bits
@example(n=92_683, count=50, seed=4)  # 33 bits
def test_sampled_ranks_equal_random_sample(n, count, seed):
    """A sampled source's pairs are the ranks that
    `random.Random(seed).sample(range(total), count)` draws in this
    interpreter, whether `sample` draws into a list (small populations),
    where `_pairs` replays its draws on arrays, or into a set, where
    `_pairs` reads the same draws from the word stream of the generator,
    and whether the total has fewer than 32 bits, exactly 32 (n up to
    92,682) or more, where `sample` itself draws: `_pairs` calls `sample`
    for no other total with a pair to draw."""
    total = n * (n - 1) // 2
    count = min(count, total)
    source, ranks = PairSource.sampled(count, seed), []
    rows = np.zeros((n, 1), np.int8)  # n one-label rows: only the pairs are read

    class Drawn(random.Random):
        def sample(self, population, k):
            assert k == 0 or len(population) >= 1 << 32, "sample drew from at most 32 bits"
            return super().sample(population, k)

    with mock.patch.object(tq.qi_map, "random", SimpleNamespace(Random=Drawn)):
        for iu, ju, _, _ in tq.qi_map._pairs(rows, rows, source, 97):
            i, j = iu.astype(np.int64), ju.astype(np.int64)
            ranks += (i * (2 * n - i - 1) // 2 + j - i - 1).tolist()  # rows before i: i(2n-i-1)/2
    assert ranks == sorted(random.Random(seed).sample(range(total), count))


def test_small_blocks_fold_to_the_single_block_result(monkeypatch):
    maps = [tq.random_map(D3, 3, 900 + s) for s in range(3)] + [tq.constant_map(D3, 3)]
    sources = [EXHAUSTIVE, PairSource.sampled(120, 4)]

    def run():
        out = []
        for m in maps:
            for source in sources:
                for lca in (None, 1):
                    monkeypatch.setattr(tq.qi_map, "DEFAULT_MAX_VIOLATIONS", 9)
                    rep = tq.measure_qi(m, source, candidate_C=2, max_lca_depth=lca)
                    out.append(rep.measurement_fields())
                monkeypatch.setattr(tq.qi_map, "DEFAULT_MAX_VIOLATIONS", 40)
                out.append(tq.check_geodesic_image(m, 1, source))
        return out

    whole = run()
    verts = maps[0].domain
    pairs = [(verts[i], verts[j]) for i in range(len(verts) - 1) for j in range(i + 1, len(verts))]
    witness_rank = pairs.index(tq.measure_qi(maps[0]).witness)
    monkeypatch.setattr(tq.qi_map, "_BLOCK", 7)
    monkeypatch.setattr(tq.qi_map, "_LABEL_BLOCK", 7)  # sampled blocks of 7 // 3 pairs
    monkeypatch.setattr(tq.qi_map, "_GEODESIC_BLOCK", 7)  # geodesic blocks of one pair
    monkeypatch.setattr(pair_counts, "_GROUP_BLOCK", 7)  # one threshold row at a time
    assert witness_rank >= 7  # the witness lies beyond the first block
    assert run() == whole


def test_pair_sources_check_themselves():
    """A sampled source needs an int count >= 0 and an int seed: an
    unseeded one would draw from OS entropy, and differ run to run."""
    for args in (("sampled", 50, None), ("sampled", None, 0), ("sampled", 2.0, 0),
                 ("sampled", 5, "0"), ("sampled", True, 0), ("bogus",), ("Exhaustive",)):
        with pytest.raises(ValueError):
            PairSource(*args)
    with pytest.raises(ValueError, match="needs an int count and an int seed"):
        PairSource.sampled(50, None)
    with pytest.raises(ValueError, match="^sample count must be >= 0$"):
        PairSource.sampled(-1, 0)
    m = tq.random_map(D3, 3, 1)
    reps = [tq.measure_qi(m, PairSource.sampled(50, 5)) for _ in range(2)]
    assert reps[0].measurement_fields() == reps[1].measurement_fields()
    assert reps[0].sampling_seed == 5


def test_sampled_sources_answer_to_the_pair_budget(monkeypatch):
    m = tq.random_map(D3, 3, 1)  # 231 pairs
    source = PairSource.sampled(100, 1)
    monkeypatch.setattr(tq.qi_map, "DEFAULT_MAX_PAIRS", 50)
    with pytest.raises(BudgetExceededError):
        tq.measure_qi(m, source)
    with pytest.raises(BudgetExceededError):
        tq.check_geodesic_image(m, 2, source)
    monkeypatch.setattr(tq.qi_map, "DEFAULT_MAX_PAIRS", 230)
    with pytest.raises(BudgetExceededError):
        tq.check_geodesic_image(m, 2)
    monkeypatch.setattr(tq.qi_map, "DEFAULT_MAX_PAIRS", 100)
    assert tq.measure_qi(m, source).pairs_checked == 100
    tq.check_geodesic_image(m, 2, source)


def _brute_same_depth_violations(m, C):
    """(u, v, value) of every failing nested same-depth pair in canonical
    order; the value is the image distance if it exceeds K, else the
    domain distance."""
    K = 4 * Fraction(C) ** 3 + Fraction(C)
    t = m.table
    by_depth = {}
    for v in m.domain:
        by_depth.setdefault(len(v), []).append(v)
    out = []
    for level in sorted(by_depth):
        if level == 0:
            continue
        vs = by_depth[level]
        for u in vs:
            for v in vs:
                if u == v:
                    continue
                fu, fv = t[u], t[v]
                if fu[: len(fv)] != fv:
                    continue
                dd, di = distance(u, v), distance(fu, fv)
                if dd > K or di > K:
                    out.append((u, v, di if di > K else dd))
    return out


def test_check_same_depth_matches_brute_force(monkeypatch):
    """The listed pairs and values equal the brute force, at thresholds
    floor(K) = 5, 15 and 34 and at C = 11/10, whose K = 803/125 gives the
    even threshold 6: there a domain distance of exactly 6 passes and 8
    fails."""
    blocks = (tq.qi_map._BLOCK, 5)  # nested pairs in one block, or in many
    for seed in range(6):
        raw = tq.random_map(D3, 4, 500 + seed, fix_root=True)
        m = tq.normalize_order_preserving(raw, 1, check_promise=False)
        for C in (1, Fraction(11, 10), Fraction(3, 2), 2):
            want = _brute_same_depth_violations(m, C)
            for block in blocks:
                monkeypatch.setattr(tq.qi_map, "_BLOCK", block)
                monkeypatch.setattr(tq.qi_map, "DEFAULT_MAX_VIOLATIONS", 10**9)
                got = tq.check_same_depth(m, C)
                assert [(v.x, v.y, v.value) for v in got] == want
                assert got.total == len(want)
                for cap in (0, 3):
                    monkeypatch.setattr(tq.qi_map, "DEFAULT_MAX_VIOLATIONS", cap)
                    got = tq.check_same_depth(m, C)
                    assert [(v.x, v.y, v.value) for v in got] == want[:cap]
                    assert got.total == len(want)


def test_check_same_depth_identity():
    assert tq.check_same_depth(tq.identity_map(D3, 4), 1) == []


def test_check_same_depth_requires_order_preserving():
    with pytest.raises(PreconditionError):
        tq.check_same_depth(tq.random_map(D3, 3, 1), 2)


def test_check_same_depth_branch_collapse():
    # collapsing one whole branch onto another is order-preserving but not a
    # 1-quasi-isometry; the check must notice at a small claimed constant
    def collapse(v):
        return (0,) + v[1:] if v and v[0] == 1 else v

    m = tq.map_from_function(D3, 5, collapse)
    assert tq.is_order_preserving(m)[0]
    violations = tq.check_same_depth(m, 1)
    assert violations and all(v.kind == "samedepth" for v in violations)
    measured = tq.measure_qi(m).best_single_C
    assert measured > 1
    assert tq.check_same_depth(m, measured) == []


def test_checks_pass_on_honest_maps():
    for seed in range(5):
        base = tq.random_automorphism_map(D3, 5, seed)
        f = tq.perturb_map_in_subtree(base, seed + 17)
        C = tq.measure_qi(f).best_single_C
        assert tq.check_geodesic_image(f, C) == []
        g = tq.normalize_order_preserving(f, C)
        assert tq.check_same_depth(g, tq.measure_qi(g).best_single_C) == []


def test_sampled_equals_exhaustive_when_covering():
    for seed in range(5):
        m = tq.random_map(D3, 4, seed)
        n = len(m.domain)
        total = n * (n - 1) // 2
        ex = tq.measure_qi(m, EXHAUSTIVE, candidate_C=2)
        sa = tq.measure_qi(m, PairSource.sampled(total, seed + 1), candidate_C=2)
        assert ex.measurement_fields() == sa.measurement_fields()
        assert sa.sampling_seed == seed + 1


def test_sampled_subset_never_exceeds_exhaustive():
    m = tq.random_map(D3, 4, 3)
    ex = tq.measure_qi(m).best_single_C
    sa = tq.measure_qi(m, PairSource.sampled(50, 9)).best_single_C
    assert sa <= ex


def test_chunked_evaluation_merges_to_the_sequential_result():
    # the pair set may be partitioned; per-chunk maxima fold to the global
    # constant and violation lists concatenate in canonical order
    m = tq.random_map(D3, 4, 55)
    full = tq.measure_qi(m, candidate_C=2)
    verts = m.domain
    n = len(verts)
    chunk_best = Fraction(1)
    chunk_violations = []
    pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    for start in range(0, len(pairs), 313):
        best = Fraction(1)
        for i, j in pairs[start : start + 313]:
            delta = distance(verts[i], verts[j])
            iota = distance(m.table[verts[i]], m.table[verts[j]])
            best = max(best, tq.pair_min_C(delta, iota))
            if iota > 2 * delta + 2:
                chunk_violations.append((verts[i], verts[j], "upper"))
            elif Fraction(delta, 2) - 2 > iota:
                chunk_violations.append((verts[i], verts[j], "lower"))
        chunk_best = max(chunk_best, best)
    assert chunk_best == full.best_single_C
    assert chunk_violations == [(v.x, v.y, v.kind) for v in full.violations]
    assert len(chunk_violations) == full.violations_total


def test_best_constant_is_attained_and_fits_bound_all_pairs():
    for seed in range(5):
        m = tq.random_map(D3, 4, 300 + seed)
        rep = tq.measure_qi(m)
        wx, wy = rep.witness
        # the witness pair is exactly tight for the reported constant
        assert tq.pair_min_C(distance(wx, wy), distance(m.table[wx], m.table[wy])) \
            == rep.best_single_C
        # the two-parameter fits bound every pair in their direction
        um, ua = rep.upper_pair
        lm, la = rep.lower_pair
        verts = m.domain
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                delta = distance(verts[i], verts[j])
                iota = distance(m.table[verts[i]], m.table[verts[j]])
                assert iota <= um * delta + ua
                assert Fraction(delta, 1) / lm - la <= iota


def test_max_lca_depth_filter():
    m = tq.random_map(D3, 4, 12)
    full = tq.measure_qi(m)
    shallow = tq.measure_qi(m, max_lca_depth=1)
    assert shallow.pairs_checked < full.pairs_checked
    assert shallow.best_single_C <= full.best_single_C


def test_levelwise_permutation_is_isometry():
    for seed in range(5):
        m = tq.random_levelwise_permutation_map(D3, 6, seed)
        rep = tq.finish_report(tq.measure_qi(m), m)
        assert rep.best_single_C == 1
        assert rep.coarse_surjectivity_radius == 0
        assert rep.order_preserving


def test_automorphism_is_isometry():
    m = tq.random_automorphism_map(D3, 6, 9)
    rep = tq.finish_report(tq.measure_qi(m), m)
    assert rep.best_single_C == 1 and rep.coarse_surjectivity_radius == 0


def test_report_render_round_trip_values():
    m = tq.constant_map(D3, 3)
    rep = tq.finish_report(tq.measure_qi(m, candidate_C=2), m, 2)
    lines = rep.to_lines()
    assert "best_single_C=244949/100000" in lines
    assert "order_preserving=true" in lines  # everything lands in the root subtree
    as_json = rep.to_json_dict()
    assert as_json["best_single_C"] == "244949/100000"
    assert as_json["violations_total"] == rep.violations_total


def test_sqrt_ceiling_scaled():
    for radicand in [0, 1, 2, 3, 4, 24, 10**6, 123456789]:
        n = tq.qi_map.sqrt_ceil_scaled(radicand)
        assert n * n >= radicand * 10**12
        if n:
            assert (n - 1) * (n - 1) < radicand * 10**12
        assert n >= math.isqrt(radicand * 10**12)
