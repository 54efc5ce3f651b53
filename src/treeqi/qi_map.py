"""Finite-truncation self-maps of the tree and their verification suite.

A map is defined on the ball of a given radius about the root and holds its
images as label arrays in ball (address) order; images may be any valid
addresses, arbitrarily deep.  Whole-map operations (comparison,
composition, sup distance, the ancestry check) run on those arrays; the
dict view `FiniteTreeMap.table` serves the code that walks tuples.
Verification
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
from itertools import chain
from types import MappingProxyType
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
    checked_ball_size,
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

    `texts[p]` is the text of the vertex at ball position p and `position`
    maps it back; the vertices are `_cached_ball`'s own tuples, so an address
    read through the index shares them.  Canonical text of an address deeper
    than the radius is read as a ball vertex's text plus further labels.
    Other text (a spelling such as '01.1', a bad label) goes through
    `parse_address` and its checks; a vertex the index lacks is formatted
    afresh.
    """

    __slots__ = ("shape", "radius", "verts", "texts", "position", "text")

    def __init__(self, shape: TreeShape, verts: tuple):
        self.shape = shape
        self.radius = len(verts[-1]) if verts else -1
        # verts is in address order, which is preorder: the latest vertex
        # seen one level up is the parent, so each text extends its parent's
        texts = []
        latest: dict[int, str] = {}
        for v in verts:
            d = len(v)
            t = "." if d == 0 else str(v[0]) if d == 1 else f"{latest[d - 1]}.{v[-1]}"
            latest[d] = t
            texts.append(t)
        self.verts = verts
        self.texts = texts
        self.position = {t: p for p, t in enumerate(texts)}
        self.text = dict(zip(verts, texts))

    def locate(self, text: str) -> int | Vertex:
        """The ball position of the address in any spelling, or the parsed
        address itself when it lies outside the ball."""
        p = self.position.get(text)
        if p is not None:
            return p
        # canonical text deeper than the ball starts with a ball vertex's text
        extra = text.count(".") + 1 - self.radius
        if self.radius > 0 and 0 < extra <= MAX_DEPTH - self.radius:
            head, *tail = text.rsplit(".", extra)
            p = self.position.get(head)
            if p is not None and text.isascii() and all(map(str.isdigit, tail)):
                labels = tuple(map(int, tail))
                if max(labels) < self.shape.degree - 1:
                    return self.verts[p] + labels
        v = parse_address(text, self.shape)
        return self.position[format_address(v)] if len(v) <= self.radius else v

    def parse(self, text: str) -> Vertex:
        p = self.locate(text)
        return self.verts[p] if isinstance(p, int) else p

    def format(self, v: Vertex) -> str:
        return self.text.get(v) or format_address(v)


@lru_cache(maxsize=64)
def _address_index(degree: int, radius: int) -> _AddressIndex:
    return _AddressIndex(TreeShape(degree), _cached_ball(degree, radius))


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


@lru_cache(maxsize=16)
def _domain_arrays(degree: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """The ball's own addresses as (labels, depths), in ball order, built
    level by level at the children's closed-form positions."""
    n = checked_ball_size(TreeShape(degree), radius)
    sizes = _subtree_sizes(degree, radius)
    labels = np.full((n, max(1, radius)), -1, _label_dtype(degree))
    depths = np.zeros(n, np.int16)
    at = np.zeros(1, np.int64)
    for t in range(radius):
        k = degree if t == 0 else degree - 1
        kids = (at[:, None] + 1 + np.arange(k) * sizes[t]).ravel()
        labels[kids, :t] = np.repeat(labels[at, :t], k, axis=0)
        labels[kids, t] = np.tile(np.arange(k), len(at))
        depths[kids] = t + 1
        at = kids
    labels.flags.writeable = depths.flags.writeable = False
    return labels, depths


@lru_cache(maxsize=16)
def _subtree_sizes(degree: int, radius: int) -> np.ndarray:
    """sizes[k]: vertices of the ball below (and at) one vertex of depth k + 1.

    In preorder the children of a depth-k vertex at position p sit at
    p + 1 + a * sizes[k] for label a, so an address (a_0 .. a_{m-1}) of the
    ball sits at m + sum a_k * sizes[k]."""
    q = degree - 1
    return np.array([(q ** (radius - k) - 1) // (q - 1) for k in range(radius)], np.int64)


def _ball_positions(labels: np.ndarray, depths: np.ndarray, degree: int, radius: int) -> np.ndarray:
    """Position in the ball of radius `radius` of each row; -1 for rows deeper."""
    w = min(labels.shape[1], radius)
    offsets = np.maximum(labels[:, :w], 0).astype(np.int64) @ _subtree_sizes(degree, radius)[:w]
    return np.where(depths <= radius, depths + offsets, -1)


def _ball_rows(degree: int, r: int, radius: int) -> np.ndarray | slice:
    """Positions in the ball of radius `radius` of the ball of radius r <= radius."""
    if r == radius:
        return slice(None)
    return _ball_positions(*_domain_arrays(degree, r), degree, radius)


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


@lru_cache(maxsize=16)
def _domain_index(degree: int, radius: int) -> _PrefixIndex:
    return _PrefixIndex(*_domain_arrays(degree, radius), presorted=True)


@lru_cache(maxsize=16)
def _domain_ancestors(degree: int, radius: int) -> np.ndarray:
    """ancestors[i, k]: index of vertex i's ancestor at depth k <= depth(i).

    In preorder that ancestor is the last vertex of depth k at or before i.
    """
    depths = _domain_arrays(degree, radius)[1]
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


class FiniteTreeMap:
    """A self-map of the tree stored on the ball of the given radius.

    The images are label arrays in ball (address) order: row i of `labels`
    is the image of the i-th domain vertex, padded with -1, and `depths[i]`
    its depth; images are any valid addresses.  `FiniteTreeMap(shape,
    radius, table)` packs a dict that is total on the ball and has no other
    entries, and keeps a read-only copy as `table`; maps made from arrays
    build `table` on first use, with the ball's own tuples for images inside
    the ball.  Instances are immutable after construction.
    """

    def __init__(self, shape: TreeShape, domain_radius: int, table: dict):
        dom = _cached_ball(shape.degree, domain_radius)
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
        self.table = MappingProxyType(dict(table))  # later edits of `table` cannot reach the map

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
        return _cached_ball(self.shape.degree, self.domain_radius)

    def _images(self, inside: list, deep=tuple) -> list:
        """The images in domain order: inside[p] for the ball vertex at
        position p, deep(labels) for an image deeper than the radius."""
        positions = _ball_positions(self.labels, self.depths, self.shape.degree, self.domain_radius)
        images = [inside[p] for p in positions.tolist()]
        rows = np.flatnonzero(positions < 0)
        depths = self.depths[rows].tolist()
        for i, labels, k in zip(rows.tolist(), self.labels[rows].tolist(), depths):
            images[i] = deep(labels[:k])
        return images

    @cached_property
    def table(self) -> MappingProxyType:
        """The map as a read-only {domain vertex: image}."""
        return MappingProxyType(dict(zip(self.domain, self._images(self.domain))))

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
    at every vertex, drawn from one seeded stream in address order.  At each
    depth t the image of v carries the label that the permutation of v's
    depth-t ancestor gives v's own label there."""
    rng = random.Random(seed)
    degree = shape.degree
    dom_labels, depths = _domain_arrays(degree, radius)
    inner = np.flatnonzero(depths < radius)
    perms = np.zeros((len(inner), degree), np.int64)  # row r: the permutation at inner[r]
    for r, p in enumerate(inner.tolist()):
        perm = list(range(degree if p == 0 else degree - 1))
        rng.shuffle(perm)
        perms[r, : len(perm)] = perm
    ancestors = _domain_ancestors(degree, radius)
    labels = np.full(dom_labels.shape, -1, dom_labels.dtype)
    for t in range(radius):
        below = np.flatnonzero(depths > t)
        at = np.searchsorted(inner, ancestors[below, t])
        labels[below, t] = perms[at, dom_labels[below, t]]
    return FiniteTreeMap._from_arrays(shape, radius, labels, depths)


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
    degree, radius = m.shape.degree, m.domain_radius
    dom_labels, dom_depths = _domain_arrays(degree, radius)
    kids = np.arange(1, len(dom_depths))
    up = dom_depths[1:] - 1  # the parent's depth: child a sits a subtrees past it
    parents = kids - 1 - dom_labels[kids, up] * _subtree_sizes(degree, radius)[up]
    ok = _prefix_len(m.labels[1:], m.labels[parents]) == m.depths[parents]
    if ok.all():
        return True, None
    bad = kids[~ok]
    return False, m.domain[bad[np.argmin(dom_depths[bad])]]


def sup_distance(m1: FiniteTreeMap, m2: FiniteTreeMap) -> int:
    """Max pointwise distance over the smaller of the two domains."""
    if m1.shape != m2.shape:
        raise ShapeMismatchError(
            f"cannot compare maps of degrees {m1.shape.degree} and {m2.shape.degree}"
        )
    r = min(m1.domain_radius, m2.domain_radius)
    rows1 = _ball_rows(m1.shape.degree, r, m1.domain_radius)
    rows2 = _ball_rows(m1.shape.degree, r, m2.domain_radius)
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
    degree = inner.shape.degree
    leaving = _domain_arrays(degree, inner.domain_radius)[1][inner.depths > outer.domain_radius]
    eff = int(leaving.min(initial=inner.domain_radius + 1)) - 1
    if eff < 0:
        raise MapDomainError(
            "empty effective domain: the root's inner image leaves the outer ball"
        )
    rows = _ball_rows(degree, eff, inner.domain_radius)
    at = _ball_positions(inner.labels[rows], inner.depths[rows], degree, outer.domain_radius)
    return FiniteTreeMap._from_arrays(inner.shape, eff, outer.labels[at], outer.depths[at])


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
