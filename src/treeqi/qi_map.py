"""Finite-truncation self-maps of the tree and their verification suite.

A map is defined on the ball of a given radius about the root and holds its
images as label arrays in ball (address) order; images may be any valid
addresses, arbitrarily deep.  One cached `_Ball` per degree and radius owns
that order: its label rows, the position arithmetic of children, parents
and addresses, its vertex tuples and its canonical text, which the map
files read too.  Whole-map operations (comparison, composition, sup
distance, the ancestry check, coarse surjectivity) run on the arrays, and
so do the mixed construction and its checks in `mixed_builder`; the dict
view `FiniteTreeMap.table` serves `FiniteTreeMap.evaluate`, the independent
oracle and callers that want tuples.

Verification measures the best single quasi-isometry constant exactly:
every distance is an integer, the per-pair binding constant is solved in
closed form, and the one irrational case (the square root from the lower
bound) is rounded up to the nearest 1/10^6, so reports are deterministic
rationals.

Pair sets may be scanned exhaustively or sampled without replacement from a
seeded generator.  Either way pairs are processed in canonical (row-major
over the address-sorted domain) order, so a sample that happens to cover all
pairs reproduces the exhaustive result field for field.  Pairs stream
through one common-prefix kernel in fixed-size blocks, so memory does not
grow with the number of pairs, and both sources answer to a pair budget.
The checks read the pair budget and the cap on listed violations from
DEFAULT_MAX_PAIRS and DEFAULT_MAX_VIOLATIONS when they are called.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from types import MappingProxyType
from typing import Callable, Iterator

import numpy as np

from . import report
from .errors import (
    BudgetExceededError,
    DepthLimitError,
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
    ball_size,
    checked_ball_size,
    format_address,
    parse_address,
    validate_address,
)

# Denominator used when rounding the square root of the lower-bound solution
# up to a rational.  Reported constants are exact multiples of 1/SQRT_SCALE.
SQRT_SCALE = 10**6

DEFAULT_MAX_PAIRS = 10_000_000
DEFAULT_MAX_VIOLATIONS = 1000

_FAR = 1 << 20  # beyond any distance in the tree's depth cap


def _label_dtype(degree: int) -> np.dtype:
    """The one place label width is chosen: int16 while every label fits."""
    return np.promote_types(np.int16, np.min_scalar_type(-degree))


def _pack(images, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Addresses as a matrix padded with -1 (at least one column) plus depths.

    The labels must be ints that fit dtype."""
    depths = np.fromiter(map(len, images), np.int64, len(images))
    labels = np.full((len(images), max(1, int(depths.max(initial=0)))), -1, dtype)
    flat = np.fromiter(chain.from_iterable(images), dtype, int(depths.sum()))
    labels[np.arange(labels.shape[1]) < depths[:, None]] = flat
    return labels, depths


def _check_rows(shape: TreeShape, labels: np.ndarray, depths: np.ndarray, image) -> None:
    """One bound check per depth column, plus the depth cap; on a failure,
    `validate_address` raises for the first bad row, `image(row)`."""
    bound = np.full(labels.shape[1], shape.degree - 1)
    bound[0] = shape.degree
    live = np.arange(labels.shape[1]) < depths[:, None]
    bad = (depths > MAX_DEPTH) | (live & ((labels < 0) | (labels >= bound))).any(axis=1)
    if bad.any():
        validate_address(image(int(bad.argmax())), shape)


class _Ball:
    """The ball of one radius about the root, laid out in preorder, which is
    address order; every map is a self-map of one such ball.

    `labels` (rows padded with -1), `depths`, `parents` and the positions of
    each depth (`levels`) come from one walk down the levels.  `sizes[k]`
    counts the vertices of the ball at and below one vertex of depth k + 1,
    so the children of a depth-k vertex at position p sit at
    p + 1 + a * sizes[k] for label a (`children`), and an address
    (a_0 .. a_{m-1}) of the ball sits at m + sum a_k * sizes[k]
    (`positions`).  The vertex tuples, the prefix index, the ancestor table
    and the canonical text of every vertex are built on first use.
    """

    def __init__(self, degree: int, radius: int):
        self.shape = TreeShape(degree)
        self.radius = radius
        n = ball_size(self.shape, radius)
        q = degree - 1
        self.sizes = np.array([(q ** (radius - k) - 1) // (q - 1) for k in range(radius)], np.int64)
        self.labels = np.full((n, max(1, radius)), -1, _label_dtype(degree))
        self.depths = np.zeros(n, np.int16)
        self.parents = np.zeros(n, np.int64)
        self.levels = [np.zeros(1, np.int64)]
        for t in range(radius):
            at = self.levels[t]
            kids = self.children(at, t)
            self.labels[kids, :t] = self.labels[at, None, :t]
            self.labels[kids, t] = np.arange(kids.shape[1])
            self.depths[kids] = t + 1
            self.parents[kids] = at[:, None]
            self.levels.append(kids.ravel())
        self.labels.flags.writeable = self.depths.flags.writeable = False

    def children(self, at: np.ndarray, t: int) -> np.ndarray:
        """Positions of the children of the depth-t vertices at `at`, one row each."""
        k = self.shape.degree if t == 0 else self.shape.degree - 1
        return at[:, None] + 1 + np.arange(k) * self.sizes[t]

    def positions(self, labels: np.ndarray, depths: np.ndarray) -> np.ndarray:
        """Position of each address row (its first depths[i] labels); -1 for
        rows deeper than the radius."""
        w = min(labels.shape[1], self.radius)
        offsets = np.maximum(labels[:, :w], 0).astype(np.int64) @ self.sizes[:w]
        return np.where(depths <= self.radius, depths + offsets, -1)

    def rows(self, r: int) -> np.ndarray | slice:
        """Positions of the ball of radius r <= radius, in its own order."""
        return slice(None) if r == self.radius else np.flatnonzero(self.depths <= r)

    def _down(self, root, extend) -> list:
        """`root` at position 0, then extend(entry of the parent, own last
        label) at each later position; preorder puts every parent first."""
        out = [root] * len(self.depths)
        last = self.labels[np.arange(len(out)), self.depths - 1].tolist()
        for p, q in enumerate(self.parents[1:].tolist(), 1):
            out[p] = extend(out[q], last[p])
        return out

    @cached_property
    def verts(self) -> tuple:
        return tuple(self._down(ROOT, lambda v, a: v + (a,)))

    @cached_property
    def prefix_index(self) -> _PrefixIndex:
        return _PrefixIndex(self.labels, self.depths, presorted=True)

    @cached_property
    def ancestors(self) -> np.ndarray:
        """ancestors[i, k]: position of vertex i's ancestor at depth k <= depth(i).

        In preorder that ancestor is the last vertex of depth k at or before i.
        """
        idx = np.arange(len(self.depths), dtype=np.int32)
        out = np.empty((len(self.depths), self.radius + 1), np.int32)
        for k in range(self.radius + 1):
            out[:, k] = np.maximum.accumulate(np.where(self.depths == k, idx, 0))
        return out

    @cached_property
    def texts(self) -> list[str]:
        """The canonical dotted text of each vertex."""
        return self._down(".", lambda t, a: f"{t}.{a}" if t != "." else str(a))

    @cached_property
    def _position(self) -> dict[str, int]:
        return {t: p for p, t in enumerate(self.texts)}

    @cached_property
    def _text(self) -> dict:
        return dict(zip(self.verts, self.texts))

    def locate(self, text: str) -> int | Vertex:
        """The ball position of the address in any spelling, or the parsed
        address itself when it lies outside the ball.

        Canonical text of a vertex is one dict lookup, and canonical text of
        an address deeper than the radius is read as the text of a ball
        vertex other than the root plus further labels (the root's text '.'
        heads no address).  Other text (a spelling such as '01.1', a bad
        label, '..0') goes through `parse_address` and its checks.
        """
        p = self._position.get(text)
        if p is not None:
            return p
        extra = text.count(".") + 1 - self.radius
        if self.radius > 0 and 0 < extra <= MAX_DEPTH - self.radius:
            head, *tail = text.rsplit(".", extra)
            p = self._position.get(head)
            if p and text.isascii() and all(map(str.isdigit, tail)):
                labels = tuple(map(int, tail))
                if max(labels) < self.shape.degree - 1:
                    return self.verts[p] + labels
        v = parse_address(text, self.shape)
        return self._position[format_address(v)] if len(v) <= self.radius else v


@lru_cache(maxsize=32)
def _ball(degree: int, radius: int) -> _Ball:
    """The one cached layout of each ball; refuses only a radius past the
    depth cap.  Entry points ask `_budgeted_ball`, so a ball that a raised
    budget admits is cached like any other."""
    if radius > MAX_DEPTH:
        raise DepthLimitError(f"radius {radius} exceeds the depth cap {MAX_DEPTH}")
    return _Ball(degree, radius)


def _budgeted_ball(shape: TreeShape, radius: int, budget: int = DEFAULT_VERTEX_BUDGET) -> _Ball:
    """The layout of a ball that an entry point is asked for, once the
    caller's vertex budget admits it: the one budget check, before any work."""
    checked_ball_size(shape, radius, budget)
    return _ball(shape.degree, radius)


def _prefix_len(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Common-prefix length of the address rows a[..., :] and b[..., :]."""
    w = min(a.shape[-1], b.shape[-1])
    a, b = a[..., :w], b[..., :w]
    return np.logical_and.accumulate((a == b) & (a >= 0), axis=-1).sum(axis=-1)


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


# Pairs are evaluated in blocks of at most this many items (pairs, or pair
# and geodesic position), so peak memory does not grow with the pair count.
_BLOCK = 1 << 16


def _pair_blocks(n: int, ps: PairSource, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The source's index pairs (i < j) in canonical order, `size` at a
    time, once their number is within DEFAULT_MAX_PAIRS.

    Pairs are ranked row-major over the upper triangle; a block of sorted
    ranks is unranked with one searchsorted over the row starts.
    """
    total = n * (n - 1) // 2
    sample = None
    if ps.mode == "exhaustive":
        if total > DEFAULT_MAX_PAIRS:
            raise BudgetExceededError(
                f"{total} vertex pairs exceed the exhaustive budget {DEFAULT_MAX_PAIRS};"
                " use a sampled pair source"
            )
        count = total
    else:
        count = min(ps.count or 0, total)
        if count > DEFAULT_MAX_PAIRS:
            raise BudgetExceededError(
                f"{count} sampled vertex pairs exceed the pair budget {DEFAULT_MAX_PAIRS}"
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

    def report_fields(self) -> list:
        # the text line omits a missing at=, JSON states it as null
        return [
            ("x", self.x),
            ("y", self.y),
            ("kind", self.kind),
            ("value", self.value),
            ("at", self.at, report.JSON) if self.at is None else ("at", self.at),
        ]

    def to_line(self) -> str:
        return report.row("violation", self)


class ViolationList(list):
    """Violations in canonical order, listed up to a cap; `total` counts every
    violation found, listed or not."""

    total = 0


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

    def report_fields(self, label: str = "verify") -> list:
        witness = self.witness or (None, None)
        return [
            ("report", label),
            ("degree", self.degree),
            ("radius", self.radius),
            ("pairs", self.pair_mode),
            ("pairs_checked", self.pairs_checked),
            ("sampling_seed", self.sampling_seed),
            ("max_lca_depth", self.max_lca_depth),
            ("best_single_C", self.best_single_C),
            ("witness_x", witness[0]),
            ("witness_y", witness[1]),
            ("upper_mult", self.upper_pair[0]),
            ("upper_add", self.upper_pair[1]),
            ("lower_mult", self.lower_pair[0]),
            ("lower_add", self.lower_pair[1]),
            ("candidate_C", self.candidate_C),
            ("coarse_surjectivity_radius", self.coarse_surjectivity_radius),
            ("target_radius", self.target_radius),
            ("order_preserving", self.order_preserving),
            ("order_witness", self.order_violation),
            ("violations", self.violations_total, report.TEXT),
            ("violations_shown", len(self.violations), report.TEXT),
            ("violations_total", self.violations_total, report.JSON),
            ("violations", report.Rows("violation", self.violations)),
        ]

    def to_lines(self, label: str = "verify") -> list[str]:
        return report.lines(self.report_fields(label))

    def to_json_dict(self, label: str = "verify") -> dict:
        return report.to_dict(self.report_fields(label))


class FiniteTreeMap:
    """A self-map of the tree stored on the ball of the given radius.

    The images are label arrays in ball (address) order: row i of `labels`
    is the image of the i-th domain vertex, padded with -1, and `depths[i]`
    its depth; images are any valid addresses.  `FiniteTreeMap(shape,
    radius, table)` packs a dict that is total on the ball and has no other
    entries.  `table` is built on first use from the arrays, with the ball's
    own tuples for images inside the ball.  Instances are immutable after
    construction.
    """

    def __init__(self, shape: TreeShape, domain_radius: int, table: dict):
        dom = _budgeted_ball(shape, domain_radius).verts
        try:
            images = [table[v] for v in dom]
        except KeyError:
            missing = format_address(next(v for v in dom if v not in table))
            raise MapDomainError(f"table is missing domain vertex {missing}") from None
        if len(table) != len(dom):
            extra = sorted(set(table) - set(dom))[0]
            raise MapDomainError(f"table has entry {format_address(extra)} outside the ball")
        depths = np.fromiter(map(len, images), np.int64, len(images))
        flat_types = set(map(type, chain.from_iterable(images)))
        fits = depths.max() <= MAX_DEPTH and all(issubclass(t, int) for t in flat_types)
        if fits:
            try:
                labels, depths = _pack(images, _label_dtype(shape.degree))
            except OverflowError:  # a label the dtype cannot hold is out of range
                fits = False
        if not fits:
            for w in images:  # raises for the first bad image, in domain order
                validate_address(w, shape)
        _check_rows(shape, labels, depths, images.__getitem__)
        self._init(shape, domain_radius, labels, depths)

    @classmethod
    def _from_arrays(
        cls, shape: TreeShape, domain_radius: int, labels: np.ndarray, depths: np.ndarray
    ) -> "FiniteTreeMap":
        """The constructor of array producers: rows in ball order, checked as a table is."""
        _check_rows(shape, labels, depths, lambda i: tuple(labels[i, : depths[i]].tolist()))
        m = cls.__new__(cls)
        m._init(shape, domain_radius, labels, depths)
        return m

    def _init(self, shape, domain_radius, labels, depths) -> None:
        self.shape = shape
        self.domain_radius = domain_radius
        self.labels = np.ascontiguousarray(labels[:, : max(1, int(depths.max()))])
        self.depths = depths.astype(np.int16)  # at most MAX_DEPTH
        self.labels.flags.writeable = self.depths.flags.writeable = False

    @property
    def domain(self) -> tuple:
        """Domain vertices in address order."""
        return _ball(self.shape.degree, self.domain_radius).verts

    def _images(self, at=slice(None), inside=None, deep=tuple) -> list:
        """The images of the domain vertices at positions `at` (all of them,
        in domain order, by default): inside[p] for the ball vertex at
        position p (by default the ball's own vertex tuple), deep(labels)
        for an image deeper than the radius."""
        ball = _ball(self.shape.degree, self.domain_radius)
        inside = ball.verts if inside is None else inside
        labels, depths = self.labels[at], self.depths[at]
        images = [inside[p] for p in ball.positions(labels, depths).tolist()]
        rows = np.flatnonzero(depths > ball.radius)
        for i, row, k in zip(rows.tolist(), labels[rows].tolist(), depths[rows].tolist()):
            images[i] = deep(row[:k])
        return images

    @cached_property
    def table(self) -> MappingProxyType:
        """The map as a read-only {domain vertex: image}."""
        return MappingProxyType(dict(zip(self.domain, self._images())))

    @cached_property
    def _image_index(self) -> _PrefixIndex:
        return _PrefixIndex(self.labels, self.depths)

    def evaluate(self, v: Vertex) -> Vertex:
        if len(v) > self.domain_radius:
            raise MapDomainError(
                f"{format_address(v)} has depth {len(v)} > domain radius {self.domain_radius}"
            )
        try:
            return self.table[v]
        except KeyError:
            raise MapDomainError(f"{format_address(v)} is not a valid domain vertex") from None

    def __eq__(self, other):
        if not isinstance(other, FiniteTreeMap):
            return NotImplemented
        w = min(self.labels.shape[1], other.labels.shape[1])
        return (
            (self.shape, self.domain_radius) == (other.shape, other.domain_radius)
            and np.array_equal(self.depths, other.depths)
            and np.array_equal(self.labels[:, :w], other.labels[:, :w])
        )

    def __hash__(self):  # maps are compared, never hashed
        raise TypeError("FiniteTreeMap is not hashable")

    def __repr__(self) -> str:
        return (
            f"FiniteTreeMap(shape={self.shape!r}, domain_radius={self.domain_radius},"
            f" table={self.table!r})"
        )


# ---------------------------------------------------------------------------
# constructors


def map_from_function(shape: TreeShape, radius: int, fn: Callable[[Vertex], Vertex]) -> FiniteTreeMap:
    return FiniteTreeMap(shape, radius, {v: fn(v) for v in _budgeted_ball(shape, radius).verts})


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
    at every vertex, drawn from one seeded stream in address order.  At each
    depth t the image of v carries the label that the permutation of v's
    depth-t ancestor gives v's own label there."""
    rng = random.Random(seed)
    degree = shape.degree
    b = _budgeted_ball(shape, radius)
    inner = np.flatnonzero(b.depths < radius)
    perms = np.zeros((len(inner), degree), np.int64)  # row r: the permutation at inner[r]
    for r, p in enumerate(inner.tolist()):
        perm = list(range(degree if p == 0 else degree - 1))
        rng.shuffle(perm)
        perms[r, : len(perm)] = perm
    labels = np.full(b.labels.shape, -1, b.labels.dtype)
    for t, at in enumerate(b.levels[:radius]):
        kids = b.children(at, t)
        labels[kids, :t] = labels[at, None, :t]
        labels[kids, t] = perms[np.searchsorted(inner, at), : kids.shape[1]]
    return FiniteTreeMap._from_arrays(shape, radius, labels, b.depths)


def random_map(shape: TreeShape, radius: int, seed: int, *, fix_root: bool = False) -> FiniteTreeMap:
    """Arbitrary (generally non-embedding) map with images drawn from the ball."""
    rng = random.Random(seed)
    verts = _budgeted_ball(shape, radius).verts
    table = {v: verts[rng.randrange(len(verts))] for v in verts}
    if fix_root:
        table[ROOT] = ROOT
    return FiniteTreeMap(shape, radius, table)


def perturb_map_in_subtree(m: FiniteTreeMap, seed: int, *, max_step: int = 2) -> FiniteTreeMap:
    """Move about half of the images, each at most max_step edges down into
    its own subtree.

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
        if rng.random() < 0.5:
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
    b = _ball(m.shape.degree, m.domain_radius)
    parents = b.parents[1:]
    ok = _prefix_len(m.labels[1:], m.labels[parents]) == m.depths[parents]
    if ok.all():
        return True, None
    bad = np.flatnonzero(~ok) + 1
    return False, b.verts[bad[np.argmin(b.depths[bad])]]


def sup_distance(m1: FiniteTreeMap, m2: FiniteTreeMap) -> int:
    """Max pointwise distance over the smaller of the two domains."""
    if m1.shape != m2.shape:
        raise ShapeMismatchError(
            f"cannot compare maps of degrees {m1.shape.degree} and {m2.shape.degree}"
        )
    r = min(m1.domain_radius, m2.domain_radius)
    rows1 = _ball(m1.shape.degree, m1.domain_radius).rows(r)
    rows2 = _ball(m1.shape.degree, m2.domain_radius).rows(r)
    plen = _prefix_len(m1.labels[rows1], m2.labels[rows2])
    return int((m1.depths[rows1] + m2.depths[rows2] - 2 * plen).max())


def compose(outer: FiniteTreeMap, inner: FiniteTreeMap) -> FiniteTreeMap:
    """outer after inner, restricted to the largest ball it stays total on.

    Vertices whose inner image leaves the outer domain are dropped together
    with everything at their depth or below, so the result is again total on
    a (possibly smaller) ball.
    """
    if outer.shape != inner.shape:
        raise ShapeMismatchError("composed maps must share a degree")
    b = _ball(inner.shape.degree, inner.domain_radius)
    leaving = b.depths[inner.depths > outer.domain_radius]
    eff = int(leaving.min(initial=inner.domain_radius + 1)) - 1
    if eff < 0:
        raise MapDomainError(
            "empty effective domain: the root's inner image leaves the outer ball"
        )
    rows = b.rows(eff)
    at = _ball(b.shape.degree, outer.domain_radius).positions(inner.labels[rows], inner.depths[rows])
    return FiniteTreeMap._from_arrays(inner.shape, eff, outer.labels[at], outer.depths[at])


def coarse_surjectivity_radius(
    m: FiniteTreeMap, target_radius: int, budget: int = DEFAULT_VERTEX_BUDGET
) -> int:
    """Max over the target ball of the distance to the nearest image point.

    A pass up the levels gives each target vertex y the depth of the
    shallowest image at or below it (an image deeper than the target radius
    counts at its ancestor on the last level); that depth minus depth(y) is
    the distance to the nearest image below y.  Any other image is reached
    through y's parent, so a pass down takes the minimum of that distance
    and the parent's distance + 1.
    """
    if target_radius < 0:
        raise ValueError("target radius must be >= 0")
    b = _budgeted_ball(m.shape, target_radius, budget)
    dist = np.full(len(b.depths), _FAR, np.int64)
    np.minimum.at(dist, b.positions(m.labels, np.minimum(m.depths, target_radius)), m.depths)
    for t in range(target_radius - 1, -1, -1):
        at = b.levels[t]
        dist[at] = np.minimum(dist[at], dist[b.children(at, t)].min(axis=1))
    dist -= b.depths
    for t, at in enumerate(b.levels[:target_radius]):
        kids = b.children(at, t)
        dist[kids] = np.minimum(dist[kids], dist[at, None] + 1)
    return int(dist.max())


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
) -> VerificationReport:
    """Best single constant over the checked pairs, plus two-parameter fits.

    The two-parameter fits report the worst observed multiplicative ratio in
    each direction together with the additive residual that the remaining
    pairs (collapsed pairs, for the lower bound) still need.
    With candidate_C given, every checked pair is also tested against that
    constant and failures are listed in canonical order, at most
    DEFAULT_MAX_VIOLATIONS of them.
    Pairs are folded block by block: the union of their (delta, iota) keys,
    the first pair attaining the best constant, violations concatenated.
    """
    cand = None if candidate_C is None else Fraction(candidate_C)
    if cand is not None and cand < 1:
        raise ValueError("candidate C must be >= 1")
    verts = m.domain
    dom = _ball(m.shape.degree, m.domain_radius).prefix_index
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
    for iu, ju in _pair_blocks(len(verts), pair_source, _BLOCK):
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
            for t in bad[: max(DEFAULT_MAX_VIOLATIONS - len(violations), 0)].tolist():
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
    """
    Cf = Fraction(C)
    thr = min(Cf.numerator // Cf.denominator, _FAR)  # integer h violates iff h > thr
    verts = m.domain
    R = m.domain_radius
    b = _ball(m.shape.degree, R)
    dom, anc = b.prefix_index, b.ancestors
    img = m._image_index
    steps = np.arange(2 * R + 1, dtype=np.int32)
    width = 2 * max(R, int(img.depths.max())) + 1
    violations = ViolationList()
    for iu, ju in _pair_blocks(len(verts), pair_source, max(1, _BLOCK // width)):
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
        r, t = bad[: max(DEFAULT_MAX_VIOLATIONS - len(violations), 0)].T
        # position t of the image geodesic is f(u) cut to depth du - t while
        # t <= rise = du - lca, then f(v) cut to depth lca + t - rise
        fu, fv = iu[r], ju[r]
        lca, du = img.prefix_len(fu, fv), img.depths[fu]
        rise = du - lca
        on_u = t <= rise
        cut = zip(np.where(on_u, fu, fv).tolist(), np.where(on_u, du - t, lca + t - rise).tolist())
        for x, y, h, (w, k) in zip(fu.tolist(), fv.tolist(), cover[r, t].tolist(), cut):
            at = tuple(m.labels[w, :k].tolist())
            violations.append(Violation(verts[x], verts[y], "geodesic", h, at=at))
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
    verts = m.domain
    n = len(verts)
    dom = _ball(m.shape.degree, m.domain_radius).prefix_index
    img = m._image_index
    ext_lo, ext_hi = img.extension_ranks(np.arange(n))
    # every vertex but the root, by depth, then image rank: the same-depth
    # vertices whose image extends f(v) are the run order[first : first + count]
    order = np.lexsort((img.rank, dom.depths))[1:]
    level = dom.depths[order].astype(np.int64) * n
    key = level + img.rank[order]
    first = np.searchsorted(key, level + ext_lo[order], side="left")
    counts = np.searchsorted(key, level + ext_hi[order], side="right") - first
    ends = np.cumsum(counts)
    if counts.sum() > DEFAULT_MAX_PAIRS:
        raise BudgetExceededError(
            f"{counts.sum()} nested same-depth pairs exceed the pair budget {DEFAULT_MAX_PAIRS}"
        )
    violations = ViolationList()
    found = np.empty(0, np.int64)  # keys (depth * n + u) * n + v of failing pairs
    start = 0
    while start < len(order):
        done = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + _BLOCK, side="right")))
        c = counts[start:stop]
        v = np.repeat(order[start:stop], c)
        q = np.repeat(first[start:stop] - (ends[start:stop] - c - done), c)
        u = order[q + np.arange(len(q))]
        ddom = 2 * (dom.depths[u] - dom.prefix_len(u, v))
        dimg = img.depths[u] - img.depths[v]
        fail = (u != v) & ((ddom > thr) | (dimg > thr))
        violations.total += int(fail.sum())
        u, v = u[fail], v[fail]
        found = np.concatenate([found, (dom.depths[u].astype(np.int64) * n + u) * n + v])
        if len(found) > DEFAULT_MAX_VIOLATIONS:
            found = np.sort(found)[:DEFAULT_MAX_VIOLATIONS]
        start = stop
    for key in np.sort(found).tolist():
        a, b = divmod(key % (n * n), n)
        dd = 2 * (int(dom.depths[a]) - int(dom.prefix_len(a, b)))
        di = int(img.depths[a] - img.depths[b])
        violations.append(Violation(verts[a], verts[b], "samedepth", di if di > thr else dd))
    return violations
