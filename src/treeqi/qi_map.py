"""Quasi-isometry constants of finite tree maps, measured exactly, and the
checks provable for honest quasi-isometries.

Verification measures the best single quasi-isometry constant exactly:
every distance is an integer, the per-pair binding constant is solved in
closed form, and the one irrational case (the square root from the lower
bound) is rounded up to the nearest 1/10^6, so reports are deterministic
rationals.

Sampled pairs, and the pairs of the geodesic-image check, stream from the
one pair enumerator (`pair_source._pairs`) in fixed-size blocks.  The
exhaustive constant measurement enumerates no pairs: it counts their
keys by group (`pair_counts._Groups`) and reads only the rows that hold
its witness and its listed violations, each row at once as running minima
of the preorder depths and along the images' LCP array (`row_prefix_len`).
The checks read the pair budget and the cap on listed violations from
DEFAULT_MAX_PAIRS and DEFAULT_MAX_VIOLATIONS when they are called.

The maps themselves, and the whole-map operations that `finish_report`
and the checks call, live in `tree_map`, the records of a measurement in
`report`.  `compose` and `sup_distance` are bound here too, so every
operation on maps can be reached, and wrapped by `perfbench/tracer.py`,
by this module's name.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .layout import _Ball, _ball
from .pair_counts import _Groups
from .pair_source import EXHAUSTIVE, PairSource, _pair_count, _pairs, _ranked
from .prefix import _prefix_len
from .report import VerificationReport, Violation, ViolationList
from .tree_core import DEFAULT_VERTEX_BUDGET, MAX_DEPTH, format_address
from .tree_map import (  # compose and sup_distance: bound here by name, see above
    _FAR,
    FiniteTreeMap,
    coarse_surjectivity_radius,
    compose,
    is_order_preserving,
    sup_distance,
)

# Denominator used when rounding the square root of the lower-bound solution
# up to a rational.  Reported constants are exact multiples of 1/SQRT_SCALE.
SQRT_SCALE = 10**6

DEFAULT_MAX_PAIRS = 10_000_000
DEFAULT_MAX_VIOLATIONS = 1000

# Pairs are evaluated in blocks, so peak memory does not grow with the pair
# count: nested same-depth pairs _BLOCK at a time, pairs read from their
# label rows at most _LABEL_BLOCK labels of each end at a time, and the
# geodesic check's pairs at most _GEODESIC_BLOCK geodesic positions and
# cover cells at a time.
_BLOCK = 1 << 16
_LABEL_BLOCK = 1 << 17
_GEODESIC_BLOCK = 1 << 16


def _pair_total(n: int, ps: PairSource) -> int:
    """The number of pairs the source checks among n vertices, once it is
    within DEFAULT_MAX_PAIRS: the one budget check, before any work."""
    count = _pair_count(n, ps)
    if count > DEFAULT_MAX_PAIRS:
        if ps.mode == "exhaustive":
            raise BudgetExceededError(
                f"{count} vertex pairs exceed the exhaustive budget {DEFAULT_MAX_PAIRS};"
                " use a sampled pair source"
            )
        raise BudgetExceededError(
            f"{count} sampled vertex pairs exceed the pair budget {DEFAULT_MAX_PAIRS}"
        )
    return count


def sqrt_ceil_scaled(radicand: int) -> int:
    """Smallest integer n with n >= SQRT_SCALE * sqrt(radicand)."""
    t = radicand * SQRT_SCALE * SQRT_SCALE
    s = math.isqrt(t)
    return s if s * s == t else s + 1


def pair_min_C(delta: int, iota: int) -> Fraction:
    """Smallest C >= 1 satisfying both embedding inequalities for one pair.

    The upper bound needs C >= iota/(delta+1).  The lower bound needs
    C^2 + iota*C - delta >= 0, i.e. C at least the positive root; that root
    is rounded up to the nearest 1/SQRT_SCALE so the result stays rational.
    """
    best = Fraction(iota, delta + 1)
    if delta > 0:
        s = sqrt_ceil_scaled(iota * iota + 4 * delta)
        num = s - SQRT_SCALE * iota
        root = Fraction((num + 1) // 2, SQRT_SCALE)
        if root > best:
            best = root
    if best < 1:
        return Fraction(1)
    return best


# ---------------------------------------------------------------------------
# constant measurement


# A pair's (delta, iota) is packed as delta * _KEY_BASE + iota; both are at
# most 2 * MAX_DEPTH.
_KEY_BASE = 256
_KEYS = (2 * MAX_DEPTH + 1) * _KEY_BASE


def _candidate_kinds(cand: Fraction, max_delta: int, max_iota: int) -> np.ndarray:
    """Per key: 0 if the pair honors the candidate, 1 upper, 2 lower failure."""
    p, q = cand.numerator, cand.denominator
    kinds = np.zeros(_KEYS, np.int8)
    for delta in range(max_delta + 1):
        for iota in range(max_iota + 1):
            if iota * q > p * (delta + 1):
                kinds[delta * _KEY_BASE + iota] = 1
            elif delta * q * q - p * p > iota * p * q:
                kinds[delta * _KEY_BASE + iota] = 2
    return kinds


def _listed(vertex, kinds: np.ndarray, i, j: np.ndarray, key: np.ndarray, room: int) -> list:
    """The first `room` pairs (i[t], j[t]) whose keys fail the candidate,
    as violations of the vertices `vertex(i[t])` and `vertex(j[t])`; i may
    be one vertex for all of them."""
    bad = np.flatnonzero(kinds[key])[: max(room, 0)]
    i = np.broadcast_to(i, key.shape)
    return [
        Violation(vertex(x), vertex(y), "upper" if kinds[k] == 1 else "lower", k % _KEY_BASE)
        for x, y, k in zip(i[bad].tolist(), j[bad].tolist(), key[bad].tolist())
    ]


def _measure_exhaustive(m, packed, kinds, max_lca_depth) -> tuple:
    """`measure_qi` over every pair: (pairs, {key: constant}, witness,
    listed violations, violation count), from the counts of `_Groups`.

    The witness is the first pair in canonical order with a best key.  No
    best partner of the least vertex that has one comes before it, so that
    vertex's row holds the witness.  The violations are read from the rows
    of the vertices that have a violating partner, in order, until the cap
    is filled: a row either lists one, or all its partners come before it,
    in pairs that are listed already; so at most twice the cap are read.
    """
    n = len(m.depths)
    _pair_total(n, EXHAUSTIVE)
    radius = m.domain_radius
    top = radius if max_lca_depth is None else min(max_lca_depth, radius)
    ball = _ball(m.shape.degree, radius)
    img = m._image_index
    groups = _Groups(ball, img)
    records = groups.exact_counts(top)
    a, b, s, count = records
    keys = (s // groups.base - 2 * a) * _KEY_BASE + s % groups.base - 2 * b
    # the distinct keys by count, as the sampled fold reads them: np.unique
    # of one array would load numpy.ma
    present = np.flatnonzero(np.bincount(keys, minlength=_KEYS)).tolist()
    key_C = {k: pair_min_C(*divmod(k, _KEY_BASE)) for k in present}

    def row(i: int) -> tuple[np.ndarray, np.ndarray]:
        """The checked pairs (i, j) of row i: each j and the pair's key."""
        # in preorder, lca(i, j) is one level above the shallowest vertex in (i, j]
        dp, ip = np.minimum.accumulate(ball.depths[i + 1 :]) - 1, img.row_prefix_len(i)
        key = packed[i] + packed[i + 1 :] - 2 * (dp * _KEY_BASE + ip)
        keep = slice(None) if max_lca_depth is None else dp <= max_lca_depth
        return np.arange(i + 1, n)[keep], key[keep]

    witness = None
    if key_C:
        best = max(key_C.values())
        hit = np.zeros(_KEYS, dtype=bool)
        hit[[k for k, c in key_C.items() if c == best]] = True
        i = int(np.argmax(groups.partners(records[:, hit[keys]]) > 0))
        later, key = row(i)
        witness = (ball.vertex(i), ball.vertex(later[np.argmax(hit[key])]))
    violations, total = [], 0
    if kinds is not None:
        bad = kinds[keys] != 0
        total = int(count[bad].sum())
        for i in np.flatnonzero(groups.partners(records[:, bad]) > 0).tolist():
            room = DEFAULT_MAX_VIOLATIONS - len(violations)
            if room <= 0:
                break
            violations += _listed(ball.vertex, kinds, i, *row(i), room)
    return int(count.sum()), key_C, witness, violations, total


def measure_qi(
    m: FiniteTreeMap,
    pair_source: PairSource = EXHAUSTIVE,
    *,
    candidate_C=None,
    max_lca_depth: int | None = None,
) -> VerificationReport:
    """Best single constant over the checked pairs, plus two-parameter fits.

    The two-parameter fits report the worst observed multiplicative ratio in
    each direction together with the additive residual that the remaining
    pairs (collapsed pairs, for the lower bound) still need.
    With candidate_C given, every checked pair is also tested against that
    constant and failures are listed in canonical order, at most
    DEFAULT_MAX_VIOLATIONS of them.
    An exhaustive source's pairs are never enumerated: their (delta, iota)
    keys are counted by group (`_Groups`), at a cost in vertices times
    (LCA depth, image prefix) thresholds, not in pairs, and only the rows
    that hold the witness and the listed violations are read.  The pair
    budget still refuses more than DEFAULT_MAX_PAIRS of them.  Sampled
    pairs are folded block by block: the union of their keys, the first
    pair attaining the best constant, violations concatenated.  Their
    prefix lengths are read from the two label rows of each pair (`_pairs`),
    so a sample builds no prefix index.
    Either way the vertex tuples of only the witness and the listed
    violations are made, from their label rows.
    """
    cand = None if candidate_C is None else Fraction(candidate_C)
    if cand is not None and cand < 1:
        raise ValueError("candidate C must be >= 1")
    ball = _ball(m.shape.degree, m.domain_radius)
    kinds = None
    if cand is not None:
        kinds = _candidate_kinds(cand, 2 * m.domain_radius, 2 * int(m.depths.max()))
    # a pair's key is the packed depths of both ends less twice its packed prefixes
    packed = ball.depths.astype(np.int64) * _KEY_BASE + m.depths

    if pair_source.mode == "exhaustive":
        found = _measure_exhaustive(m, packed, kinds, max_lca_depth)
        pairs_checked, key_C, witness, violations, violations_total = found
    else:
        best = Fraction(1)
        witness = None
        key_C: dict[int, Fraction] = {}  # every (delta, iota) key seen so far
        violations: list[Violation] = []
        violations_total = 0
        pairs_checked = 0
        _pair_total(len(m.depths), pair_source)
        size = max(1, _LABEL_BLOCK // max(ball.labels.shape[1], m.labels.shape[1]))
        for iu, ju, dplen, iplen in _pairs(ball.labels, m.labels, pair_source, size):
            if max_lca_depth is not None:
                keep = dplen <= max_lca_depth
                iu, ju, dplen, iplen = iu[keep], ju[keep], dplen[keep], iplen[keep]
                if not len(iu):
                    continue
            pairs_checked += len(iu)
            key = packed[iu] + packed[ju] - 2 * (dplen * _KEY_BASE + iplen)
            present = np.flatnonzero(np.bincount(key, minlength=_KEYS)).tolist()
            for k in present:
                if k not in key_C:
                    key_C[k] = pair_min_C(k // _KEY_BASE, k % _KEY_BASE)
            block_best = max(key_C[k] for k in present)
            if witness is None or block_best > best:
                best = block_best
                hit = np.zeros(_KEYS, dtype=bool)
                hit[[k for k in present if key_C[k] == best]] = True
                first = int(np.argmax(hit[key]))
                witness = (ball.vertex(iu[first]), ball.vertex(ju[first]))
            if kinds is not None:
                violations_total += int(np.count_nonzero(kinds[key]))
                room = DEFAULT_MAX_VIOLATIONS - len(violations)
                violations += _listed(ball.vertex, kinds, iu, ju, key, room)
    best = max(key_C.values(), default=Fraction(1))

    up_mult = Fraction(1)
    low_mult = Fraction(1)
    up_add = Fraction(0)
    low_add = Fraction(0)
    pairs_di = [divmod(k, _KEY_BASE) for k in key_C]
    for delta, iota in pairs_di:
        if delta > 0 and iota > 0:
            up_mult = max(up_mult, Fraction(iota, delta))
            low_mult = max(low_mult, Fraction(delta, iota))
    for delta, iota in pairs_di:
        up_add = max(up_add, iota - up_mult * delta)
        low_add = max(low_add, Fraction(delta, 1) / low_mult - iota)

    return VerificationReport(
        degree=m.shape.degree,
        radius=m.domain_radius,
        pair_mode=pair_source.describe(),
        pairs_checked=pairs_checked,
        sampling_seed=pair_source.seed if pair_source.mode == "sampled" else None,
        best_single_C=best,
        witness=witness,
        upper_pair=(up_mult, up_add),
        lower_pair=(low_mult, low_add),
        candidate_C=cand,
        max_lca_depth=max_lca_depth,
        violations=violations,
        violations_total=violations_total,
    )


def finish_report(
    rep: VerificationReport,
    m: FiniteTreeMap,
    target_radius: int | None = None,
    budget: int = DEFAULT_VERTEX_BUDGET,
) -> VerificationReport:
    """Complete a report of `measure_qi` or `oracle_measure` as `verify` and
    `oracle` print it: coarse surjectivity over the target ball (the domain
    radius by default) and the order-preservation flag; returns `rep`."""
    rep.target_radius = m.domain_radius if target_radius is None else target_radius
    rep.coarse_surjectivity_radius = coarse_surjectivity_radius(m, rep.target_radius, budget)
    rep.order_preserving, rep.order_violation = is_order_preserving(m)
    return rep


# ---------------------------------------------------------------------------
# property checks provable for honest quasi-isometries


def _ancestor_prefix(m: FiniteTreeMap, ball: _Ball) -> np.ndarray:
    """A[x, k] = lcp(f(ancestor of x at depth k), f(x)) for k <= depth(x),
    as n x (radius + 1) int8 (the entries past depth(x) are not read), read
    from label rows a block of rows at a time."""
    anc = ball.ancestors
    out = np.zeros(anc.shape, np.int8)
    step = max(1, _LABEL_BLOCK // m.labels.shape[1])
    for s in range(0, len(out), step):
        rows = slice(s, s + step)
        for k in range(anc.shape[1]):
            out[rows, k] = _prefix_len(m.labels[anc[rows, k]], m.labels[rows])
    return out


def check_geodesic_image(
    m: FiniteTreeMap, C, pair_source: PairSource = EXHAUSTIVE
) -> list[Violation]:
    """For each checked pair (u, v), every vertex on the geodesic between the
    images must be within C of the image of some vertex on the geodesic
    between u and v.  Returns the failures (u, v, offending image vertex),
    at most DEFAULT_MAX_VIOLATIONS of them, as a ViolationList counting them
    all.

    Uses the closest-point projection onto the image geodesic: for a point x
    with projection position p and height h, the distance from x to position
    t along the geodesic is h + |p - t|, so coverage reduces to a two-sided
    distance transform per pair, run for a whole block of pairs at once.
    The projection of f(b) needs its common prefixes with f(u) and f(v).
    For b on u's side of the domain geodesic (u's ancestor at a depth k at
    least that of lca(u, v)), P = lcp(f(b), f(u)) is read from the table
    `_ancestor_prefix`; with Q = lcp(f(u), f(v)), lcp(f(b), f(v)) is
    min(P, Q) unless P = Q, and only then read from the label rows.  v's
    side is the same with u and v swapped.  A block holds at most
    _GEODESIC_BLOCK geodesic positions and cover cells, so memory does not
    grow with the pair count.
    """
    Cf = Fraction(C)
    thr = min(Cf.numerator // Cf.denominator, _FAR)  # integer h violates iff h > thr
    R = m.domain_radius
    _pair_total(len(m.depths), pair_source)
    ball = _ball(m.shape.degree, R)
    anc = ball.ancestors
    near = _ancestor_prefix(m, ball)
    depth = np.arange(R + 1)
    side = np.array([[0], [1]])  # u's side from depth lca(u, v), v's side below it
    # per pair: both sides' positions, then the cover of the image geodesic
    size = max(1, _GEODESIC_BLOCK // (2 * (R + 1) + 2 * int(m.depths.max()) + 1))
    step = max(1, _LABEL_BLOCK // m.labels.shape[1])
    violations = ViolationList()
    for iu, ju, lca, iplen in _pairs(ball.labels, m.labels, pair_source, size):
        ends = np.stack([iu, ju], axis=1)
        on = (depth >= lca[:, None, None] + side) & (depth <= ball.depths[ends][..., None])
        b = anc[ends]  # (pair, side, depth): the end's ancestor at that depth
        P = near[ends]  # lcp(f(b), f(the side's end))
        Q = iplen[:, None, None]
        other = np.minimum(P, Q)  # lcp(f(b), f(the other end))
        tie = np.nonzero(on & (P == Q))
        bt, et = b[tie], ends[tie[0], 1 - tie[1]]
        tied = np.empty(len(bt), np.int32)  # read _LABEL_BLOCK labels at a time
        for s in range(0, len(bt), step):
            rows = slice(s, s + step)
            tied[rows] = _prefix_len(m.labels[bt[rows]], m.labels[et[rows]])
        other[tie] = tied
        # projection of f(b) onto the image geodesic f(u) .. f(v): its
        # position from f(u) and its height
        rise = m.depths[iu] - iplen
        p = np.where(side, P - other, other - P) + rise[:, None, None]
        h = m.depths[b] + Q - P - other
        mlen = rise + m.depths[ju] - iplen
        span = int(mlen.max()) + 1
        cover = np.full((span, len(iu)), _FAR, dtype=np.int32)  # by position, then pair
        p *= len(iu)
        p += np.arange(len(iu))[:, None, None]
        np.minimum.at(cover.reshape(-1), p[on], h[on])
        # cover[t] = min over s of cover[s] + |t - s|: prefix minima of
        # cover[s] - s down the positions, then of cover[s] + s up them
        ramp = np.arange(span, dtype=np.int32)[:, None]
        cover -= ramp
        np.minimum.accumulate(cover, out=cover)
        cover += 2 * ramp
        np.minimum.accumulate(cover[::-1], out=cover[::-1])
        cover -= ramp
        cover = cover.T
        bad = np.argwhere((cover > thr) & (np.arange(span) <= mlen[:, None]))
        violations.total += len(bad)
        r, t = bad[: max(DEFAULT_MAX_VIOLATIONS - len(violations), 0)].T
        # position t of the image geodesic is f(u) cut to depth du - t while
        # t <= rise = du - lca, then f(v) cut to depth lca + t - rise
        fu, fv = iu[r], ju[r]
        lca, du = iplen[r], m.depths[fu]
        rise = du - lca
        on_u = t <= rise
        cut = zip(np.where(on_u, fu, fv).tolist(), np.where(on_u, du - t, lca + t - rise).tolist())
        for x, y, h, (w, k) in zip(fu.tolist(), fv.tolist(), cover[r, t].tolist(), cut):
            at = tuple(m.labels[w, :k].tolist())
            violations.append(Violation(ball.vertex(x), ball.vertex(y), "geodesic", h, at=at))
    return violations


def check_same_depth(m: FiniteTreeMap, C) -> list[Violation]:
    """Order-preserving maps only: whenever two same-depth vertices have
    nested images, both the vertices and the images must be within
    K = 4*C^3 + C of each other.  Returns the failures, at most
    DEFAULT_MAX_VIOLATIONS of them, as a ViolationList counting them all.

    The same-depth vertices u whose image extends f(v) occupy one contiguous
    range of that level sorted by image rank, so only nested pairs are
    enumerated, a block at a time.  Their number is known before the first
    block: more than DEFAULT_MAX_PAIRS raise BudgetExceededError.
    """
    ok, wit = is_order_preserving(m)
    if not ok:
        raise PreconditionError(
            f"map is not order-preserving (witness {format_address(wit)})"
        )
    Cf = Fraction(C)
    K = 4 * Cf**3 + Cf
    if K >= 4 * MAX_DEPTH:  # no stored distance can reach the bound
        return ViolationList()
    thr = K.numerator // K.denominator  # an integer distance exceeds K iff > thr
    n = len(m.depths)
    ball = _ball(m.shape.degree, m.domain_radius)
    img = m._image_index
    ext_lo, ext_hi = img.extension_ranks()
    # every vertex but the root, by depth, then image rank: the same-depth
    # vertices whose image extends f(v) are the run order[first : first + count]
    order = np.lexsort((img.rank, ball.depths))[1:]
    level = ball.depths[order].astype(np.int64) * n
    key = level + img.rank[order]
    first = np.searchsorted(key, level + ext_lo[order])
    counts = np.searchsorted(key, level + ext_hi[order]) - first
    if counts.sum() > DEFAULT_MAX_PAIRS:
        raise BudgetExceededError(
            f"{counts.sum()} nested same-depth pairs exceed the pair budget {DEFAULT_MAX_PAIRS}"
        )
    # two vertices of depth t are more than thr apart, 2 (t - lca) > thr,
    # exactly when their ancestors at depth max(t - thr // 2, 0) differ
    top = ball.ancestors[np.arange(n), np.maximum(ball.depths - thr // 2, 0)]
    violations = ViolationList()
    found = np.empty(0, np.int64)  # keys (depth * n + u) * n + v of failing pairs
    cap = DEFAULT_MAX_VIOLATIONS
    for row, k in _ranked(counts, _BLOCK):
        v, u = order[row], order[first[row] + k]
        fail = (u != v) & ((top[u] != top[v]) | (m.depths[u] - m.depths[v] > thr))
        violations.total += int(fail.sum())
        u, v = u[fail], v[fail]
        found = np.concatenate([found, (ball.depths[u].astype(np.int64) * n + u) * n + v])
        if len(found) > cap:  # keep the least cap keys, sorted once below
            found = np.partition(found, cap)[:cap]
    for key in np.sort(found).tolist():
        a, b = divmod(key % (n * n), n)
        dd = 2 * (int(ball.depths[a]) - int(_prefix_len(ball.labels[a], ball.labels[b])))
        di = int(m.depths[a]) - int(m.depths[b])
        value = di if di > thr else dd
        violations.append(Violation(ball.vertex(a), ball.vertex(b), "samedepth", value))
    return violations
