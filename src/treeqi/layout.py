"""The ball layout: one cached `_Ball` per degree and radius, and the one
codec of address text.

A map is defined on the ball of a given radius about the root and holds its
images as label arrays in ball (address) order; images may be any valid
addresses, arbitrarily deep.  The ball owns that order: its label rows, the
position arithmetic of children, parents and addresses, its vertex tuples
and the text of every address, which trace files and the map reader's line
loop write and read through it.  Label rows are packed and checked here
too, so every producer of a map fills them the same way.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from .errors import DepthLimitError
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
    and reading (`_tail`) are cached across balls.  The canonical text of a
    ball vertex is one lookup in `_position`, which the line loop reads
    directly to place the vertex by position.
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
        return dict(zip(self.texts, range(len(self.texts))))

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

    def locate(self, text: str) -> Vertex:
        """The address of text in any spelling; an address inside the ball
        is the ball's own tuple (`verts`).

        Canonical text of a vertex is one dict lookup, and text of an
        address deeper than the radius is read as the text of a ball vertex
        on the last level plus further labels (`_tail`).  Other text (a
        spelling such as '01.1', a bad label, '..0', the root's '.' heading
        further labels) goes through `parse_address` and its checks.
        """
        p = self._position.get(text)
        if p is not None:
            return self.verts[p]
        extra = text.count(".") + 1 - self.radius
        if self.radius > 0 and 0 < extra <= MAX_DEPTH - self.radius:
            head = text.rsplit(".", extra)[0]
            p = self._position.get(head)
            w = p and _tail(text[len(head) + 1 :], self.shape.degree - 1)  # the root's '.' heads none
            if w:
                return self.verts[p] + w
        v = parse_address(text, self.shape)
        return self.verts[self._position[format_address(v)]] if len(v) <= self.radius else v


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
