"""Finite-truncation self-maps of the tree and their verification suite.

A map is defined on the ball of a given radius about the root and holds its
images as label arrays in ball (address) order; images may be any valid
addresses, arbitrarily deep.  One cached `_Ball` per degree and radius owns
that order: its label rows, the position arithmetic of children, parents
and addresses, its vertex tuples and the text of every address, which
trace files write and read through it.  Map files are written and read as
byte arrays from the label rows (`mapfile`).  Whole-map operations
(comparison, composition, sup distance, the ancestry check, coarse
surjectivity) run on the arrays, and so do the mixed construction and its
checks in `mixed_builder`; the dict view `FiniteTreeMap.table` serves
`FiniteTreeMap.evaluate`, the independent oracle and callers that want
tuples.

Verification measures the best single quasi-isometry constant exactly:
every distance is an integer, the per-pair binding constant is solved in
closed form, and the one irrational case (the square root from the lower
bound) is rounded up to the nearest 1/10^6, so reports are deterministic
rationals.

Pair sets may be scanned exhaustively or sampled without replacement from a
seeded generator.  Either way pairs are processed in canonical (row-major
over the address-sorted domain) order, so a sample that happens to cover all
pairs reproduces the exhaustive result field for field.  Every pair source
is a run of ranks in that order: all of them, or the sorted ranks of a
seeded sample.  One enumerator (`_pairs`) unranks them (`_ranked`, which
also lays out the nested pairs of the same-depth check) and streams them in
fixed-size blocks together with their common-prefix lengths in the domain
and in the image, read from the two label rows of each pair
(`prefix._prefix_len`), so memory does not grow with the number of pairs
and no table is built for them; both sources answer to a pair budget.
The exhaustive constant measurement enumerates no pairs: it counts their
keys by group (`pair_counts._Groups`) and reads only the rows that hold
its witness and its listed violations, each row at once as running minima
of the preorder depths and along the images' LCP array (`row_prefix_len`).
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
from .pair_counts import _Groups
from .prefix import _PrefixIndex, _prefix_len
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
    MAX_LABEL_DIGITS,
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
_POSITION_ROWS = 1 << 12  # address rows widened at once by `_Ball.positions`


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
    `validate_address` raises for the first bad row, `image(row)`.  The
    columns are checked one at a time, so no temporary is as large as the
    label matrix."""
    bad = depths > MAX_DEPTH
    for k in range(labels.shape[1]):
        column = labels[:, k]
        bound = shape.degree if k == 0 else shape.degree - 1
        bad |= (depths > k) & ((column < 0) | (column >= bound))
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
    (`positions`).  The vertex tuples, the ancestor table and the canonical
    text of every vertex are built on first use, the tuples and texts one
    level at a time.  They are whole-ball tables, so only work that visits
    most of the ball asks for them: the class walk and the dict view share
    the tuples, the trace codec reads the texts, and the exhaustive count
    and the checks read the ancestors.  Work that names a few vertices (a
    witness, violations) builds each one's tuple from its label row (`vertex`).

    The ball is the one codec of address text for trace files and for the
    map reader's line loop: `format` writes any address and `locate` reads
    it back.  An address below the radius is the text of its ancestor on
    the last level followed by the further labels, whose text (`_tail_text`)
    and reading (`_tail`) are cached across balls.  The trace reader looks
    canonical vertex text up in `_position` itself before it calls `locate`.
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
        rows deeper than the radius.  Rows are read a block at a time, so
        the widened labels of only one block are held at once."""
        w = min(labels.shape[1], self.radius)
        out = depths.astype(np.int64)
        for s in range(0, len(out), _POSITION_ROWS):
            rows = slice(s, s + _POSITION_ROWS)
            out[rows] += np.maximum(labels[rows, :w], 0).astype(np.int64) @ self.sizes[:w]
        out[depths > self.radius] = -1
        return out

    def vertex(self, p: int) -> Vertex:
        """The address at position p, read from its label row."""
        return tuple(self.labels[p, : self.depths[p]].tolist())

    def shared(self, vs: list) -> tuple:
        """The addresses vs, each one inside the ball as the ball's own
        tuple (`verts`), so that a record of them holds no copies."""
        at = self.positions(*_pack(vs, self.labels.dtype)).tolist()
        return tuple(v if p < 0 else self.verts[p] for v, p in zip(vs, at))

    def rows(self, r: int) -> np.ndarray | slice:
        """Positions of the ball of radius r <= radius, in its own order."""
        return slice(None) if r == self.radius else np.flatnonzero(self.depths <= r)

    def _by_level(self, root, level) -> list:
        """`root` at position 0, then each level's entries at once:
        level(entries of the level above, child label count) lists them
        parent by parent, each in label order, as `levels` lays them out."""
        out = np.empty(len(self.depths), object)
        out[0] = root
        for t, kids in enumerate(self.levels[1:]):
            entries = level(out[self.levels[t]].tolist(), self.shape.degree - (t > 0))
            out[kids] = np.fromiter(entries, object, len(kids))
        return out.tolist()

    @cached_property
    def verts(self) -> tuple:
        return tuple(self._by_level(ROOT, lambda vs, k: [v + (a,) for v in vs for a in range(k)]))

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
        tails = [f".{a}" for a in range(self.shape.degree)]

        def level(heads: list, k: int) -> list:
            if heads == ["."]:
                return [a[1:] for a in tails]
            return [h + a for h in heads for a in tails[:k]]

        return self._by_level(".", level)

    @cached_property
    def _position(self) -> dict[str, int]:
        return {t: p for p, t in enumerate(self.texts)}

    @cached_property
    def _text(self) -> dict:
        return dict(zip(self.verts, self.texts))

    def format(self, v: Vertex) -> str:
        """The canonical text of any address: a ball vertex's own text, and
        below the radius the text of its ancestor on the last level plus
        the further labels."""
        text = self._text.get(v)
        if text is None:
            r = self.radius
            head = r and self._text.get(v[:r])  # at radius 0 no ancestor has a text to extend
            text = head + _tail_text(v[r:]) if head else format_address(v)
        return text

    def locate(self, text: str) -> int | Vertex:
        """The ball position of the address in any spelling, or the parsed
        address itself when it lies outside the ball.

        Canonical text of a vertex is one dict lookup, and text of an
        address deeper than the radius is read as the text of a ball vertex
        on the last level plus further labels (`_tail`).  Other text (a
        spelling such as '01.1', a bad label, '..0', the root's '.' heading
        further labels) goes through `parse_address` and its checks.
        """
        p = self._position.get(text)
        if p is not None:
            return p
        extra = text.count(".") + 1 - self.radius
        if self.radius > 0 and 0 < extra <= MAX_DEPTH - self.radius:
            head = text.rsplit(".", extra)[0]
            p = self._position.get(head)
            w = p and _tail(text[len(head) + 1 :], self.shape.degree - 1)
            if w:
                return self.verts[p] + w
        v = parse_address(text, self.shape)
        return self._position[format_address(v)] if len(v) <= self.radius else v


@lru_cache(maxsize=4096)
def _tail(text: str, bound: int) -> tuple | None:
    """The labels of the text of an address below a vertex other than the
    root, or None unless each is an ASCII number below `bound` of at most
    MAX_LABEL_DIGITS digits."""
    labels = text.split(".")
    if text.isascii() and all(
        a.isdigit() and len(a) <= MAX_LABEL_DIGITS and int(a) < bound for a in labels
    ):
        return tuple(map(int, labels))
    return None


@lru_cache(maxsize=4096)
def _tail_text(w: tuple) -> str:
    """The text of labels w below a vertex other than the root: '.a.b...'."""
    return "".join(f".{a}" for a in w)


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


# Pairs are evaluated in blocks, so peak memory does not grow with the pair
# count: nested same-depth pairs _BLOCK at a time, pairs read from their
# label rows at most _LABEL_BLOCK labels of each end at a time, and the
# geodesic check's pairs at most _GEODESIC_BLOCK geodesic positions and
# cover cells at a time.
_BLOCK = 1 << 16
_LABEL_BLOCK = 1 << 17
_GEODESIC_BLOCK = 1 << 16
_SAMPLE_WORDS = 1 << 20  # words of the generator's stream read at once by `_set_sample`


def _pair_total(n: int, ps: PairSource) -> int:
    """The number of pairs the source checks among n vertices, once it is
    within DEFAULT_MAX_PAIRS: the one budget check, before any work."""
    total = n * (n - 1) // 2
    if ps.mode == "exhaustive":
        if total > DEFAULT_MAX_PAIRS:
            raise BudgetExceededError(
                f"{total} vertex pairs exceed the exhaustive budget {DEFAULT_MAX_PAIRS};"
                " use a sampled pair source"
            )
        return total
    count = min(ps.count, total)
    if count > DEFAULT_MAX_PAIRS:
        raise BudgetExceededError(
            f"{count} sampled vertex pairs exceed the pair budget {DEFAULT_MAX_PAIRS}"
        )
    return count


def _ranked(
    counts: np.ndarray, size: int, sample: np.ndarray | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Pairs laid out row by row, counts[k] of them in row k, at most `size`
    at a time: every rank in turn, or the sorted ranks `sample`, as blocks
    (row, offset in row).  A rank's row is the last row start at or below
    it, so rows with no pairs are skipped; a block may cut a row."""
    starts = np.cumsum(counts) - counts
    total = int(counts.sum()) if sample is None else len(sample)
    for at in range(0, total, size):
        ranks = np.arange(at, min(at + size, total)) if sample is None else sample[at : at + size]
        row = np.searchsorted(starts, ranks, side="right") - 1
        yield row, ranks - starts[row]


def _set_sample(rng: random.Random, total: int, k: int) -> np.ndarray:
    """sorted(rng.sample(range(total), k)) for a population that `sample`
    draws into a set and whose size has at most 32 bits, from the words
    of the generator's stream.

    There `sample` picks `_randbelow(total)` until it has k distinct
    values: each candidate is one 32-bit word cut to its top
    `total.bit_length()` bits, drawn again while it is total or more.  So
    the picks are the first k distinct candidates of the word stream.  The
    words are read a chunk at a time (`getrandbits` of 32m bits holds the
    next m words, the first lowest), until there are as many candidates as
    k distinct values take on average, and more if the first k distinct
    values are not among them yet.
    """
    bits = total.bit_length()
    chunks, have = [], 0
    need = math.ceil(-total * math.log1p(-k / total)) + 64
    while True:
        while have < need:
            words = min(_SAMPLE_WORDS, ((need - have) << bits) // total + 64)
            stream = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
            picks = np.frombuffer(stream, "<u4") >> (32 - bits)
            chunks.append(picks[picks < total])
            have += len(chunks[-1])
        # each candidate above its place in the stream, sorted: the first
        # key of each value holds the place where it was first drawn
        keys = np.concatenate(chunks).astype(np.uint64) << 32
        keys |= np.arange(have, dtype=np.uint64)
        keys.sort()
        keys = keys[np.r_[True, np.diff(keys >> 32) != 0]]
        if len(keys) >= k:  # the values first drawn no later than the k-th distinct one
            place = keys & 0xFFFFFFFF
            picked = keys[place <= np.partition(place, k - 1)[k - 1]]
            picked >>= 32
            return picked.view(np.int64)
        need = have + 2 * (k - len(keys)) + 64


def _list_sample(rng: random.Random, total: int, k: int) -> np.ndarray:
    """sorted(rng.sample(range(total), k)) for a population that `sample`
    draws into a list: its Fisher-Yates run again, with the same
    `_randbelow(total - i)` calls, on int64 arrays in place of
    `list(range(total))` and the list of picks.  A sample of the whole
    population, sorted, is the population, whatever was drawn."""
    if k == total:
        return np.arange(total, dtype=np.int64)
    pool, picks = np.arange(total, dtype=np.int64), np.empty(k, np.int64)
    left, out, randbelow = memoryview(pool), memoryview(picks), rng._randbelow
    for i in range(k):  # the unpicked values are left[: total - i]
        j = randbelow(total - i)
        out[i] = left[j]
        left[j] = left[total - i - 1]
    picks.sort()
    return picks


def _pairs(dom: np.ndarray, img: np.ndarray, ps: PairSource, size: int) -> Iterator[tuple]:
    """The source's index pairs (i < j) in canonical order, at most `size`
    at a time, once their number is within DEFAULT_MAX_PAIRS, as blocks
    (iu, ju, domain prefix length, image prefix length).

    Every source is a run of ranks over the upper triangle, row i holding
    the pairs (i, i + 1) .. (i, n - 1): an exhaustive source takes every
    rank, a sampled one the sorted ranks of its seeded draw,
    `random.Random(seed).sample(range(total), count)`.  Where `sample`
    draws into a list, its draw is replayed on arrays (`_list_sample`);
    where it draws into a set, and the total has at most 32 bits, the same
    ranks are read from the generator's words (`_set_sample`).  `_ranked`
    unranks them, and the prefix lengths (int32) are read from the rows of
    each pair in the label matrices `dom` and `img` (`_prefix_len`).
    """
    n = len(dom)
    count = _pair_total(n, ps)
    sample = None
    if ps.mode == "sampled":
        total = n * (n - 1) // 2
        rng = random.Random(ps.seed)
        # `sample` draws into a list up to this population size, else into a set
        pool = 21 + (4 ** math.ceil(math.log(count * 3, 4)) if count > 5 else 0)
        if total <= pool:
            sample = _list_sample(rng, total, count)
        elif count and total < 1 << 32:
            sample = _set_sample(rng, total, count)
        else:
            sample = np.sort(np.fromiter(rng.sample(range(total), count), np.int64, count))
    for row, k in _ranked(np.arange(n - 1, 0, -1), size, sample):
        iu, ju = row.astype(np.int32), (row + 1 + k).astype(np.int32)
        yield iu, ju, _prefix_len(dom[iu], dom[ju]), _prefix_len(img[iu], img[ju])


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
    """How measure_qi picks vertex pairs: everything, or a seeded sample.

    A sampled source needs an int count >= 0 and an int seed, so every
    sample is drawn the same way each time."""

    mode: str
    count: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in ("exhaustive", "sampled"):
            raise ValueError(f"pair mode must be 'exhaustive' or 'sampled', got {self.mode!r}")
        sampled = self.mode == "sampled"
        if sampled and not all(type(v) is int for v in (self.count, self.seed)):
            got = f"{self.count!r}, {self.seed!r}"
            raise ValueError(f"a sampled pair source needs an int count and an int seed, got {got}")
        if sampled and self.count < 0:
            raise ValueError("sample count must be >= 0")

    @staticmethod
    def exhaustive() -> "PairSource":
        return PairSource("exhaustive")

    @staticmethod
    def sampled(count: int, seed: int) -> "PairSource":
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

    def _images(self, at=slice(None)) -> list:
        """The images of the domain vertices at positions `at` (all of them,
        in domain order, by default) as tuples; an image in the ball is the
        ball's own tuple."""
        ball = _ball(self.shape.degree, self.domain_radius)
        labels, depths = self.labels[at], self.depths[at]
        images = list(map(ball.verts.__getitem__, ball.positions(labels, depths).tolist()))
        rows = np.flatnonzero(depths > ball.radius)
        for i, row, k in zip(rows.tolist(), labels[rows].tolist(), depths[rows].tolist()):
            images[i] = tuple(row[:k])
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
    return False, b.vertex(bad[np.argmin(b.depths[bad])])


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
    for row, k in _ranked(counts, _BLOCK):
        v, u = order[row], order[first[row] + k]
        fail = (u != v) & ((top[u] != top[v]) | (m.depths[u] - m.depths[v] > thr))
        violations.total += int(fail.sum())
        u, v = u[fail], v[fail]
        found = np.concatenate([found, (ball.depths[u].astype(np.int64) * n + u) * n + v])
        if len(found) > DEFAULT_MAX_VIOLATIONS:
            found = np.sort(found)[:DEFAULT_MAX_VIOLATIONS]
    for key in np.sort(found).tolist():
        a, b = divmod(key % (n * n), n)
        dd = 2 * (int(ball.depths[a]) - int(_prefix_len(ball.labels[a], ball.labels[b])))
        di = int(m.depths[a]) - int(m.depths[b])
        value = di if di > thr else dd
        violations.append(Violation(ball.vertex(a), ball.vertex(b), "samedepth", value))
    return violations
