"""Finite-truncation self-maps of the tree and their verification suite.

A map is stored as an explicit table over the ball of a given radius about
the root; images may be any valid addresses, arbitrarily deep.  Verification
measures the best single quasi-isometry constant exactly: every distance is
an integer, the per-pair binding constant is solved in closed form, and the
one irrational case (the square root from the lower bound) is rounded up to
the nearest 1/10^6, so reports are deterministic rationals.

Pair sets may be scanned exhaustively or sampled without replacement from a
seeded generator.  Either way pairs are processed in canonical (row-major
over the address-sorted domain) order, so a sample that happens to cover all
pairs reproduces the exhaustive result field for field.  Pairs stream
through one common-prefix kernel in fixed-size blocks, so memory does not
grow with the number of pairs, and both sources answer to a pair budget.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterator

import numpy as np

from .errors import (
    BudgetExceededError,
    MapDomainError,
    PreconditionError,
    ShapeMismatchError,
)
from .tree_core import (
    DEFAULT_VERTEX_BUDGET,
    MAX_DEPTH,
    ROOT,
    TreeShape,
    Vertex,
    ball,
    distance,
    format_address,
    geodesic,
    parse_address,
    validate_address,
)

# Denominator used when rounding the square root of the lower-bound solution
# up to a rational.  Reported constants are exact multiples of 1/SQRT_SCALE.
SQRT_SCALE = 10**6

DEFAULT_MAX_PAIRS = 10_000_000
DEFAULT_MAX_VIOLATIONS = 1000

_FAR = 1 << 20  # beyond any distance in the tree's depth cap


@lru_cache(maxsize=64)
def _cached_ball(degree: int, radius: int) -> tuple:
    return tuple(ball(TreeShape(degree), radius))


class _AddressIndex:
    """The canonical dotted text of every vertex of one cached ball, both ways.

    The vertices are `_cached_ball`'s own tuples, so an address read through
    the index shares them.  Text the index lacks (an address deeper than the
    radius, a spelling such as '01.1', a bad label) goes through
    `parse_address` and its checks; a vertex it lacks is formatted afresh.
    """

    __slots__ = ("shape", "vertex", "text")

    def __init__(self, shape: TreeShape, verts: tuple):
        self.shape = shape
        # verts is in address order, which is preorder: the latest vertex
        # seen one level up is the parent, so each text extends its parent's
        texts = []
        latest: dict[int, str] = {}
        for v in verts:
            d = len(v)
            t = "." if d == 0 else str(v[0]) if d == 1 else f"{latest[d - 1]}.{v[-1]}"
            latest[d] = t
            texts.append(t)
        self.vertex = dict(zip(texts, verts))
        self.text = dict(zip(verts, texts))

    def parse(self, text: str) -> Vertex:
        v = self.vertex.get(text)
        return parse_address(text, self.shape) if v is None else v

    def format(self, v: Vertex) -> str:
        return self.text.get(v) or format_address(v)

    def owns(self, v) -> bool:
        """Whether v is one of the ball's own tuples, whose labels the ball
        built and so are valid; an equal tuple built elsewhere is not."""
        try:
            t = self.text.get(v)
        except TypeError:  # unhashable, so no vertex of the ball
            return False
        return t is not None and self.vertex[t] is v


@lru_cache(maxsize=64)
def _address_index(degree: int, radius: int) -> _AddressIndex:
    return _AddressIndex(TreeShape(degree), _cached_ball(degree, radius))


def _label_matrix(vertices) -> tuple[np.ndarray, np.ndarray]:
    """Pack addresses into a padded int16 matrix (pad value -1) plus depths."""
    pad = max((len(v) for v in vertices), default=0) or 1
    arr = np.full((len(vertices), pad), -1, dtype=np.int16)
    depths = np.empty(len(vertices), dtype=np.int16)
    for i, v in enumerate(vertices):
        depths[i] = len(v)
        if v:
            arr[i, : len(v)] = v
    return arr, depths


class _PrefixIndex:
    """Common-prefix lengths between the rows of an address matrix.

    Rows are ranked in address order.  The common prefix of two rows is the
    minimum of the LCP array of rank-adjacent rows between their ranks
    (Kasai et al., CPM 2001), read in O(1) from a sparse table of minima
    (Bender & Farach-Colton, LATIN 2000).  Memory is n log n bytes.
    """

    def __init__(self, labels: np.ndarray, depths: np.ndarray, presorted: bool = False):
        n = len(depths)
        order = np.arange(n) if presorted else np.lexsort(labels.T[::-1])
        self.n = n
        self.depths = depths.astype(np.int32)
        self.rank = np.empty(n, np.int32)
        self.rank[order] = np.arange(n, dtype=np.int32)
        rows = labels[order]
        levels = max(1, (n - 1).bit_length())
        table = np.zeros((levels, n), np.int8)  # table[j, k] = min(lcp[k : k + 2**j])
        alive = np.ones(n - 1, dtype=bool)
        for k in range(labels.shape[1]):
            np.logical_and(alive, rows[:-1, k] == rows[1:, k], out=alive)
            np.logical_and(alive, rows[:-1, k] >= 0, out=alive)
            table[0, : n - 1] += alive
        self.log2 = np.zeros(n, np.int32)
        for j in range(1, levels):
            h, width = 1 << (j - 1), n - (1 << j)
            np.minimum(table[j - 1, :width], table[j - 1, h : h + width], out=table[j, :width])
            self.log2[1 << j :] += 1
        self.table = table
        self._flat = table.ravel()

    def prefix_len(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Common-prefix length of rows i[k] and j[k] (the full depth if equal)."""
        ri, rj = self.rank[i], self.rank[j]
        lo = np.minimum(ri, rj)
        hi = np.maximum(ri, rj)
        span = hi - lo
        lvl = self.log2[span]
        base = lvl * self.n
        out = np.minimum(self._flat[base + lo], self._flat[base + hi - (1 << lvl)])
        return np.where(span == 0, self.depths[i], out)

    def distance(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return self.depths[i] + self.depths[j] - 2 * self.prefix_len(i, j)

    def extension_ranks(self, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rank interval [lo, hi] of the rows that have row i[k] as a prefix."""
        d = self.depths[i]
        lo = self.rank[i].astype(np.int64)
        hi = lo.copy()
        last = self.n - 1
        for j in range(self.table.shape[0] - 1, -1, -1):
            w = 1 << j
            row = self.table[j]
            up = (hi + w <= last) & (row[np.minimum(hi, last)] >= d)
            hi += w * up
            down = (lo >= w) & (row[np.maximum(lo - w, 0)] >= d)
            lo -= w * down
        return lo, hi


@lru_cache(maxsize=16)
def _domain_index(degree: int, radius: int) -> _PrefixIndex:
    return _PrefixIndex(*_label_matrix(_cached_ball(degree, radius)), presorted=True)


@lru_cache(maxsize=16)
def _domain_ancestors(degree: int, radius: int) -> np.ndarray:
    """ancestors[i, k]: index of vertex i's ancestor at depth k <= depth(i).

    In preorder that ancestor is the last vertex of depth k at or before i.
    """
    depths = _domain_index(degree, radius).depths
    idx = np.arange(len(depths), dtype=np.int32)
    out = np.empty((len(depths), radius + 1), np.int32)
    for k in range(radius + 1):
        out[:, k] = np.maximum.accumulate(np.where(depths == k, idx, 0))
    return out


# Pairs are evaluated in blocks of at most this many items (pairs, or pair
# and geodesic position), so peak memory does not grow with the pair count.
_BLOCK = 1 << 16


def _pair_blocks(
    n: int, ps: PairSource, max_pairs: int, size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The source's index pairs (i < j) in canonical order, `size` at a time.

    Pairs are ranked row-major over the upper triangle; a block of sorted
    ranks is unranked with one searchsorted over the row starts.
    """
    total = n * (n - 1) // 2
    sample = None
    if ps.mode == "exhaustive":
        if total > max_pairs:
            raise BudgetExceededError(
                f"{total} vertex pairs exceed the exhaustive budget {max_pairs};"
                " use a sampled pair source"
            )
        count = total
    else:
        count = min(ps.count or 0, total)
        if count > max_pairs:
            raise BudgetExceededError(
                f"{count} sampled vertex pairs exceed the pair budget {max_pairs}"
            )
        picked = random.Random(ps.seed).sample(range(total), count)
        sample = np.sort(np.fromiter(picked, np.int64, count))
    i = np.arange(max(n - 1, 0), dtype=np.int64)
    starts = i * (2 * n - i - 1) // 2
    for start in range(0, count, size):
        if sample is None:
            ranks = np.arange(start, min(start + size, count), dtype=np.int64)
        else:
            ranks = sample[start : start + size]
        iu = np.searchsorted(starts, ranks, side="right") - 1
        yield iu.astype(np.int32), (ranks - starts[iu] + iu + 1).astype(np.int32)


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


@dataclass(frozen=True)
class PairSource:
    """How measure_qi picks vertex pairs: everything, or a seeded sample."""

    mode: str
    count: int | None = None
    seed: int | None = None

    @staticmethod
    def exhaustive() -> "PairSource":
        return PairSource("exhaustive")

    @staticmethod
    def sampled(count: int, seed: int) -> "PairSource":
        if count < 0:
            raise ValueError("sample count must be >= 0")
        return PairSource("sampled", count, seed)

    def describe(self) -> str:
        return "exhaustive" if self.mode == "exhaustive" else f"sampled:{self.count}"


EXHAUSTIVE = PairSource.exhaustive()


@dataclass
class Violation:
    x: Vertex
    y: Vertex
    kind: str  # upper | lower | geodesic | samedepth
    value: int
    at: Vertex | None = None

    def to_line(self) -> str:
        line = (
            f"violation x={format_address(self.x)} y={format_address(self.y)}"
            f" kind={self.kind} value={self.value}"
        )
        if self.at is not None:
            line += f" at={format_address(self.at)}"
        return line


class ViolationList(list):
    """Violations in canonical order, listed up to a cap; `total` counts every
    violation found, listed or not."""

    total = 0


def _fmt_opt(value) -> str:
    return "-" if value is None else str(value)


@dataclass
class VerificationReport:
    """Measured quasi-isometry data for one map over one pair set."""

    degree: int
    radius: int
    pair_mode: str
    pairs_checked: int
    sampling_seed: int | None
    best_single_C: Fraction
    witness: tuple[Vertex, Vertex] | None
    upper_pair: tuple[Fraction, Fraction]
    lower_pair: tuple[Fraction, Fraction]
    candidate_C: Fraction | None = None
    max_lca_depth: int | None = None
    violations: list[Violation] = field(default_factory=list)
    violations_total: int = 0
    coarse_surjectivity_radius: int | None = None
    target_radius: int | None = None
    order_preserving: bool | None = None
    order_violation: Vertex | None = None

    def measurement_fields(self) -> tuple:
        """Everything that must not depend on how pairs were enumerated."""
        return (
            self.pairs_checked,
            self.best_single_C,
            self.witness,
            self.upper_pair,
            self.lower_pair,
            self.candidate_C,
            tuple((v.x, v.y, v.kind, v.value) for v in self.violations),
            self.violations_total,
        )

    def to_lines(self, label: str = "verify") -> list[str]:
        lines = [
            f"report={label}",
            f"degree={self.degree}",
            f"radius={self.radius}",
            f"pairs={self.pair_mode}",
            f"pairs_checked={self.pairs_checked}",
            f"sampling_seed={_fmt_opt(self.sampling_seed)}",
            f"max_lca_depth={_fmt_opt(self.max_lca_depth)}",
            f"best_single_C={self.best_single_C}",
            f"witness_x={_fmt_opt(self.witness and format_address(self.witness[0]))}",
            f"witness_y={_fmt_opt(self.witness and format_address(self.witness[1]))}",
            f"upper_mult={self.upper_pair[0]}",
            f"upper_add={self.upper_pair[1]}",
            f"lower_mult={self.lower_pair[0]}",
            f"lower_add={self.lower_pair[1]}",
            f"candidate_C={_fmt_opt(self.candidate_C)}",
            f"coarse_surjectivity_radius={_fmt_opt(self.coarse_surjectivity_radius)}",
            f"target_radius={_fmt_opt(self.target_radius)}",
            "order_preserving=-"
            if self.order_preserving is None
            else f"order_preserving={'true' if self.order_preserving else 'false'}",
            f"order_witness={_fmt_opt(self.order_violation and format_address(self.order_violation))}",
            f"violations={self.violations_total}",
            f"violations_shown={len(self.violations)}",
        ]
        lines.extend(v.to_line() for v in self.violations)
        return lines

    def to_json_dict(self, label: str = "verify") -> dict:
        def frac(x):
            return None if x is None else str(x)

        return {
            "report": label,
            "degree": self.degree,
            "radius": self.radius,
            "pairs": self.pair_mode,
            "pairs_checked": self.pairs_checked,
            "sampling_seed": self.sampling_seed,
            "max_lca_depth": self.max_lca_depth,
            "best_single_C": frac(self.best_single_C),
            "witness_x": self.witness and format_address(self.witness[0]),
            "witness_y": self.witness and format_address(self.witness[1]),
            "upper_mult": frac(self.upper_pair[0]),
            "upper_add": frac(self.upper_pair[1]),
            "lower_mult": frac(self.lower_pair[0]),
            "lower_add": frac(self.lower_pair[1]),
            "candidate_C": frac(self.candidate_C),
            "coarse_surjectivity_radius": self.coarse_surjectivity_radius,
            "target_radius": self.target_radius,
            "order_preserving": self.order_preserving,
            "order_witness": self.order_violation and format_address(self.order_violation),
            "violations_total": self.violations_total,
            "violations": [
                {
                    "x": format_address(v.x),
                    "y": format_address(v.y),
                    "kind": v.kind,
                    "value": v.value,
                    "at": None if v.at is None else format_address(v.at),
                }
                for v in self.violations
            ],
        }


@dataclass(frozen=True, eq=True)
class FiniteTreeMap:
    """A self-map of the tree stored on the ball of the given radius.

    The table is total on the ball and has no other entries; images are any
    valid addresses.  Instances are immutable after construction.
    """

    shape: TreeShape
    domain_radius: int
    table: dict

    def __post_init__(self):
        dom = _cached_ball(self.shape.degree, self.domain_radius)
        if len(self.table) != len(dom) or any(v not in self.table for v in dom):
            missing = next((v for v in dom if v not in self.table), None)
            if missing is not None:
                raise MapDomainError(
                    f"table is missing domain vertex {format_address(missing)}"
                )
            extra = sorted(set(self.table) - set(dom))[0]
            raise MapDomainError(f"table has entry {format_address(extra)} outside the ball")
        index = _address_index(self.shape.degree, self.domain_radius)
        for v in dom:
            w = self.table[v]
            if not index.owns(w):
                validate_address(w, self.shape)

    @property
    def domain(self) -> tuple:
        """Domain vertices in address order."""
        return _cached_ball(self.shape.degree, self.domain_radius)

    @cached_property
    def domain_by_depth(self) -> tuple:
        return tuple(sorted(self.domain, key=lambda v: (len(v), v)))

    @cached_property
    def _image_index(self) -> _PrefixIndex:
        return _PrefixIndex(*_label_matrix([self.table[v] for v in self.domain]))

    def evaluate(self, v: Vertex) -> Vertex:
        if len(v) > self.domain_radius:
            raise MapDomainError(
                f"{format_address(v)} has depth {len(v)} > domain radius {self.domain_radius}"
            )
        try:
            return self.table[v]
        except KeyError:
            raise MapDomainError(f"{format_address(v)} is not a valid domain vertex") from None

    def __hash__(self):  # tables are dicts; maps are compared, never hashed
        raise TypeError("FiniteTreeMap is not hashable")


def evaluate(m: FiniteTreeMap, v: Vertex) -> Vertex:
    return m.evaluate(v)


# ---------------------------------------------------------------------------
# constructors


def map_from_function(shape: TreeShape, radius: int, fn: Callable[[Vertex], Vertex]) -> FiniteTreeMap:
    return FiniteTreeMap(shape, radius, {v: fn(v) for v in ball(shape, radius)})


def identity_map(shape: TreeShape, radius: int) -> FiniteTreeMap:
    return map_from_function(shape, radius, lambda v: v)


def constant_map(shape: TreeShape, radius: int, value: Vertex = ROOT) -> FiniteTreeMap:
    validate_address(value, shape)
    return map_from_function(shape, radius, lambda v: value)


def levelwise_permutation_map(shape: TreeShape, radius: int, perms) -> FiniteTreeMap:
    """Isometry applying one label permutation per level.

    perms[0] permutes the root's child labels (size d); perms[k] for k >= 1
    permutes the labels at depth k+1 (size d-1).
    """
    if len(perms) < radius:
        raise ValueError(f"need {radius} permutations, got {len(perms)}")
    for k in range(radius):
        want = shape.degree if k == 0 else shape.degree - 1
        if sorted(perms[k]) != list(range(want)):
            raise ValueError(f"perms[{k}] is not a permutation of range({want})")
    return map_from_function(
        shape, radius, lambda v: tuple(perms[i][a] for i, a in enumerate(v))
    )


def random_levelwise_permutation_map(shape: TreeShape, radius: int, seed: int) -> FiniteTreeMap:
    rng = random.Random(seed)
    perms = []
    for k in range(radius):
        p = list(range(shape.degree if k == 0 else shape.degree - 1))
        rng.shuffle(p)
        perms.append(p)
    return levelwise_permutation_map(shape, radius, perms)


def random_automorphism_map(shape: TreeShape, radius: int, seed: int) -> FiniteTreeMap:
    """Root-fixing automorphism of the ball: an independent child permutation
    at every vertex, drawn from one seeded stream in address order."""
    rng = random.Random(seed)
    table = {ROOT: ROOT}
    for v in ball(shape, radius):
        if len(v) == radius:
            continue
        perm = list(range(shape.child_label_count(v)))
        rng.shuffle(perm)
        fv = table[v]
        for a in range(len(perm)):
            table[v + (a,)] = fv + (perm[a],)
    return FiniteTreeMap(shape, radius, table)


def random_map(shape: TreeShape, radius: int, seed: int, *, fix_root: bool = False) -> FiniteTreeMap:
    """Arbitrary (generally non-embedding) map with images drawn from the ball."""
    rng = random.Random(seed)
    verts = ball(shape, radius)
    table = {v: verts[rng.randrange(len(verts))] for v in verts}
    if fix_root:
        table[ROOT] = ROOT
    return FiniteTreeMap(shape, radius, table)


def perturb_map_in_subtree(
    m: FiniteTreeMap, seed: int, *, max_step: int = 2, keep_prob: float = 0.5
) -> FiniteTreeMap:
    """Move each image at most max_step edges down into its own subtree.

    The root's image is left untouched so the result still fixes the root
    whenever the input does.  Deterministic for a fixed seed.
    """
    rng = random.Random(seed)
    shape = m.shape
    table = {}
    for v in m.domain:
        fv = m.table[v]
        if v == ROOT:
            table[v] = fv
            continue
        if rng.random() < keep_prob:
            table[v] = fv
            continue
        steps = 1 + rng.randrange(max_step)
        w = fv
        for _ in range(steps):
            if len(w) >= MAX_DEPTH:
                break
            w = w + (rng.randrange(shape.child_label_count(w)),)
        table[v] = w
    return FiniteTreeMap(shape, m.domain_radius, table)


# ---------------------------------------------------------------------------
# basic operations


def is_order_preserving(m: FiniteTreeMap) -> tuple[bool, Vertex | None]:
    """True iff every vertex's image descends from its parent's image.

    Returns the shallowest (then address-least) violating vertex otherwise.
    """
    t = m.table
    for v in m.domain_by_depth:
        if not v:
            continue
        fp = t[v[:-1]]
        if t[v][: len(fp)] != fp:
            return False, v
    return True, None


def sup_distance(m1: FiniteTreeMap, m2: FiniteTreeMap) -> int:
    """Max pointwise distance over the smaller of the two domains."""
    if m1.shape != m2.shape:
        raise ShapeMismatchError(
            f"cannot compare maps of degrees {m1.shape.degree} and {m2.shape.degree}"
        )
    r = min(m1.domain_radius, m2.domain_radius)
    t1, t2 = m1.table, m2.table
    return max(distance(t1[v], t2[v]) for v in _cached_ball(m1.shape.degree, r))


def compose(outer: FiniteTreeMap, inner: FiniteTreeMap) -> FiniteTreeMap:
    """outer after inner, restricted to the largest ball it stays total on.

    Vertices whose inner image leaves the outer domain are dropped together
    with everything at their depth or below, so the result is again total on
    a (possibly smaller) ball.
    """
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
    table = {v: outer.table[inner.table[v]] for v in _cached_ball(inner.shape.degree, eff)}
    return FiniteTreeMap(inner.shape, eff, table)


def coarse_surjectivity_radius(
    m: FiniteTreeMap, target_radius: int, budget: int = DEFAULT_VERTEX_BUDGET
) -> int:
    """Max over the target ball of the distance to the nearest image point.

    For each target y and each ancestor prefix p of y that some image point
    extends, the distance to the closest image below p is depth(y) + (min
    image depth below p) - 2*depth(p); minimizing over p is exact because the
    true nearest image point realizes it at p = lca(y, image).
    """
    if target_radius < 0:
        raise ValueError("target radius must be >= 0")
    min_depth_below: dict = {}
    for w in m.table.values():
        dw = len(w)
        for k in range(dw + 1):
            p = w[:k]
            cur = min_depth_below.get(p)
            if cur is None or dw < cur:
                min_depth_below[p] = dw
    worst = 0
    for y in ball(m.shape, target_radius, budget):
        dy = len(y)
        best = None
        for k in range(dy + 1):
            md = min_depth_below.get(y[:k])
            if md is not None:
                cand = dy + md - 2 * k
                if best is None or cand < best:
                    best = cand
        worst = max(worst, best)
    return worst


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


def measure_qi(
    m: FiniteTreeMap,
    pair_source: PairSource = EXHAUSTIVE,
    *,
    candidate_C=None,
    max_lca_depth: int | None = None,
    max_violations: int = DEFAULT_MAX_VIOLATIONS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> VerificationReport:
    """Best single constant over the checked pairs, plus two-parameter fits.

    The two-parameter fits report the worst observed multiplicative ratio in
    each direction together with the additive residual that the remaining
    pairs (collapsed pairs, for the lower bound) still need.
    With candidate_C given, every checked pair is also tested against that
    constant and failures are listed in canonical order (capped).
    Pairs are folded block by block: the union of their (delta, iota) keys,
    the first pair attaining the best constant, violations concatenated.
    """
    cand = None if candidate_C is None else Fraction(candidate_C)
    if cand is not None and cand < 1:
        raise ValueError("candidate C must be >= 1")
    verts = m.domain
    dom = _domain_index(m.shape.degree, m.domain_radius)
    img = m._image_index
    kinds = None
    if cand is not None:
        kinds = _candidate_kinds(cand, 2 * m.domain_radius, 2 * int(img.depths.max()))

    best = Fraction(1)
    witness = None
    key_C: dict[int, Fraction] = {}  # every (delta, iota) key seen so far
    violations: list[Violation] = []
    violations_total = 0
    pairs_checked = 0
    for iu, ju in _pair_blocks(len(verts), pair_source, max_pairs, _BLOCK):
        dplen = dom.prefix_len(iu, ju)
        if max_lca_depth is not None:
            keep = dplen <= max_lca_depth
            iu, ju, dplen = iu[keep], ju[keep], dplen[keep]
            if not len(iu):
                continue
        pairs_checked += len(iu)
        idist = img.distance(iu, ju)
        key = (dom.depths[iu] + dom.depths[ju] - 2 * dplen) * _KEY_BASE + idist
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
            witness = (verts[iu[first]], verts[ju[first]])
        if kinds is not None:
            bad = np.flatnonzero(kinds[key])
            violations_total += len(bad)
            for t in bad[: max(max_violations - len(violations), 0)].tolist():
                kind = "upper" if kinds[key[t]] == 1 else "lower"
                violations.append(Violation(verts[iu[t]], verts[ju[t]], kind, int(idist[t])))

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


def verify_map(
    m: FiniteTreeMap,
    pair_source: PairSource = EXHAUSTIVE,
    *,
    candidate_C=None,
    target_radius: int | None = None,
    max_lca_depth: int | None = None,
    max_violations: int = DEFAULT_MAX_VIOLATIONS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    budget: int = DEFAULT_VERTEX_BUDGET,
) -> VerificationReport:
    """measure_qi plus coarse surjectivity and the order-preservation flag."""
    rep = measure_qi(
        m,
        pair_source,
        candidate_C=candidate_C,
        max_lca_depth=max_lca_depth,
        max_violations=max_violations,
        max_pairs=max_pairs,
    )
    tr = m.domain_radius if target_radius is None else target_radius
    rep.coarse_surjectivity_radius = coarse_surjectivity_radius(m, tr, budget)
    rep.target_radius = tr
    ok, wit = is_order_preserving(m)
    rep.order_preserving = ok
    rep.order_violation = wit
    return rep


# ---------------------------------------------------------------------------
# property checks provable for honest quasi-isometries


def check_geodesic_image(
    m: FiniteTreeMap,
    C,
    pair_source: PairSource = EXHAUSTIVE,
    *,
    max_violations: int = DEFAULT_MAX_VIOLATIONS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> list[Violation]:
    """For each checked pair (u, v), every vertex on the geodesic between the
    images must be within C of the image of some vertex on the geodesic
    between u and v.  Returns the failures (u, v, offending image vertex),
    at most max_violations of them, as a ViolationList counting them all.

    Uses the closest-point projection onto the image geodesic: for a point x
    with projection position p and height h, the distance from x to position
    t along the geodesic is h + |p - t|, so coverage reduces to a two-sided
    distance transform per pair, run for a whole block of pairs at once.
    """
    Cf = Fraction(C)
    thr = min(Cf.numerator // Cf.denominator, _FAR)  # integer h violates iff h > thr
    verts = m.domain
    R = m.domain_radius
    dom = _domain_index(m.shape.degree, R)
    anc = _domain_ancestors(m.shape.degree, R)
    img = m._image_index
    steps = np.arange(2 * R + 1, dtype=np.int32)
    width = 2 * max(R, int(img.depths.max())) + 1
    violations = ViolationList()
    for iu, ju in _pair_blocks(len(verts), pair_source, max_pairs, max(1, _BLOCK // width)):
        # position s of the domain geodesic is u's ancestor at depth du - s
        # while s <= rise = du - lca, then v's ancestor at depth lca + s - rise
        lca = dom.prefix_len(iu, ju)
        du = dom.depths[iu]
        rise = du - lca
        row, s = np.nonzero(steps <= (rise + dom.depths[ju] - lca)[:, None])
        on_u = s <= rise[row]
        fu, fv = iu[row], ju[row]
        b = anc[np.where(on_u, fu, fv), np.where(on_u, du[row] - s, s - rise[row] + lca[row])]
        # projection of f(b) onto the image geodesic f(u) .. f(v)
        mlen = img.distance(iu, ju)
        d0 = img.distance(b, fu)
        d1 = img.distance(b, fv)
        span = int(mlen.max()) + 1
        cover = np.full((len(iu), span), _FAR, dtype=np.int32)
        np.minimum.at(
            cover.reshape(-1), row * span + (d0 + mlen[row] - d1) // 2, (d0 + d1 - mlen[row]) // 2
        )
        for t in range(1, span):
            np.minimum(cover[:, t], cover[:, t - 1] + 1, out=cover[:, t])
        for t in range(span - 2, -1, -1):
            np.minimum(cover[:, t], cover[:, t + 1] + 1, out=cover[:, t])
        bad = np.argwhere((cover > thr) & (np.arange(span) <= mlen[:, None]))
        violations.total += len(bad)
        paths: dict[int, list] = {}
        for r, t in bad[: max(max_violations - len(violations), 0)].tolist():
            u, v = verts[iu[r]], verts[ju[r]]
            if r not in paths:
                paths[r] = geodesic(m.table[u], m.table[v])
            violations.append(Violation(u, v, "geodesic", int(cover[r, t]), at=paths[r][t]))
    return violations


def check_same_depth(
    m: FiniteTreeMap, C, *, max_violations: int = DEFAULT_MAX_VIOLATIONS
) -> list[Violation]:
    """Order-preserving maps only: whenever two same-depth vertices have
    nested images, both the vertices and the images must be within
    K = 4*C^3 + C of each other.  Returns the failures, at most
    max_violations of them, as a ViolationList counting them all.

    The same-depth vertices u whose image extends f(v) occupy one contiguous
    range of that level sorted by image rank, so only nested pairs are
    enumerated, a block at a time.
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
    verts = m.domain
    n = len(verts)
    dom = _domain_index(m.shape.degree, m.domain_radius)
    img = m._image_index
    ext_lo, ext_hi = img.extension_ranks(np.arange(n))
    violations = ViolationList()
    for level in range(1, m.domain_radius + 1):
        room = max(max_violations - len(violations), 0)
        idxs = np.flatnonzero(dom.depths == level)
        by_img = idxs[np.argsort(img.rank[idxs])]
        img_ranks = img.rank[by_img]
        first = np.searchsorted(img_ranks, ext_lo[by_img], side="left")
        counts = np.searchsorted(img_ranks, ext_hi[by_img], side="right") - first
        ends = np.cumsum(counts)
        found = np.empty(0, np.int64)  # keys u * n + v of failing pairs
        start = 0
        while start < len(by_img):
            done = int(ends[start - 1]) if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, done + _BLOCK, side="right")))
            c = counts[start:stop]
            v = np.repeat(by_img[start:stop], c)
            q = np.repeat(first[start:stop] - (ends[start:stop] - c - done), c)
            u = by_img[q + np.arange(len(q))]
            ddom = 2 * (level - dom.prefix_len(u, v))
            dimg = img.depths[u] - img.depths[v]
            fail = (u != v) & ((ddom > thr) | (dimg > thr))
            violations.total += int(fail.sum())
            found = np.concatenate([found, u[fail].astype(np.int64) * n + v[fail]])
            if len(found) > room:
                found = np.sort(found)[:room]
            start = stop
        for key in np.sort(found).tolist():
            a, b = divmod(key, n)
            dd = 2 * (level - int(dom.prefix_len(a, b)))
            di = int(img.depths[a] - img.depths[b])
            violations.append(Violation(verts[a], verts[b], "samedepth", di if di > thr else dd))
    return violations
