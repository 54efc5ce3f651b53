"""The ball layout: one cached `_Ball` per degree and radius, and the one
reader of address text.

A map is defined on the ball of a given radius about the root and holds its
images as label arrays in ball (address) order; images may be any valid
addresses, arbitrarily deep.  The ball owns that order: its label rows, the
position arithmetic of children, parents and addresses, and its vertex
tuples.  Label rows are packed and checked here too, so every producer of a
map fills them the same way.  Trace files and the map reader's line loop
split their lines (`_lines`) and read every address text (`_Addresses`)
here, with no table of the ball.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from .errors import DepthLimitError, TreeQIError
from .tree_core import (
    DEFAULT_VERTEX_BUDGET,
    MAX_DEPTH,
    ROOT,
    TreeShape,
    Vertex,
    ball_size,
    checked_ball_size,
    parse_address,
    validate_address,
)

_POSITION_ROWS = 1 << 10  # address rows widened at once by `_Ball.positions`
_TEXT_LABELS = 1 << 12  # canonical labels `_Addresses` reads by table


def _label_dtype(degree: int) -> np.dtype:
    """The one place label width is chosen: one byte while every label fits
    (degree <= 128), else int16 or wider.  Label rows are only compared,
    gathered and widened before any arithmetic, so no width wraps."""
    return np.promote_types(np.int8, np.min_scalar_type(-degree))


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

    `labels` (rows padded with -1, one byte a label up to degree 128:
    `_label_dtype`), `depths`, `parents` and the positions of each depth
    (`levels`, int32 like `parents`) come from one walk down the levels.
    `sizes[k]` counts the vertices of the ball at and below one vertex of
    depth k + 1, so the children of a depth-k vertex at position p sit at
    p + 1 + a * sizes[k] for label a (`children`), and an address
    (a_0 .. a_{m-1}) of the ball sits at m + sum a_k * sizes[k]
    (`positions`).  The vertex tuples and the ancestor table are built on
    first use, the tuples one level at a time.  They are whole-ball tables,
    so only work that visits most of the ball asks for them: the class walk
    and the dict view share the tuples, and the exhaustive count and the
    checks read the ancestors.  Work that names a few vertices (a witness,
    violations, a missing source) builds each one's tuple from its label
    row (`vertex`); the structural verifier, the approximation, the trace
    writer and both text readers build none.
    """

    def __init__(self, degree: int, radius: int):
        self.shape = TreeShape(degree)
        self.radius = radius
        n = ball_size(self.shape, radius)
        q = degree - 1
        self.sizes = np.array([(q ** (radius - k) - 1) // (q - 1) for k in range(radius)], np.int64)
        self.labels = np.full((n, max(1, radius)), -1, _label_dtype(degree))
        self.depths = np.zeros(n, np.int16)
        self.parents = np.zeros(n, np.int32)
        self.levels = [np.zeros(1, np.int32)]
        for t in range(radius):
            at = self.levels[t]
            kids = self.children(at, t)
            self.labels[kids, :t] = self.labels[at, None, :t]
            self.labels[kids, t] = np.arange(kids.shape[1])
            self.depths[kids] = t + 1
            self.parents[kids] = at[:, None]
            self.levels.append(kids.ravel().astype(np.int32))
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

    def rows(self, r: int) -> np.ndarray | slice:
        """Positions of the ball of radius r <= radius, in its own order."""
        return slice(None) if r == self.radius else np.flatnonzero(self.depths <= r)

    @cached_property
    def verts(self) -> tuple:
        """The address of each position, built one level at a time: each
        level's tuples extend the level above, parent by parent, each in
        label order, as `levels` lays them out."""
        out = np.empty(len(self.depths), object)
        out[0] = ROOT
        for t, kids in enumerate(self.levels[1:]):
            k = self.shape.degree - (t > 0)
            entries = [v + (a,) for v in out[self.levels[t]].tolist() for a in range(k)]
            out[kids] = np.fromiter(entries, object, len(kids))
        return tuple(out.tolist())

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


class _Addresses(dict):
    """The one reader of address text, one per file: each distinct text is
    read once, to its address.

    The dict starts with the root '.' and its children.  Any other text
    'head.last' whose last label is canonical (no leading zero) and below
    the bound of a vertex other than the root is the address of head, read
    through the same dict, plus that label, so each text costs one label.
    Any other text (another spelling, a malformed text, a label of
    `_TEXT_LABELS` or more) goes whole to `parse_address`, which reads it or
    words its error, and so does a text of 2 * MAX_DEPTH characters or
    more: a shorter one has at most MAX_DEPTH labels, so the reading never
    recurses deeper than that and never reads an address past the depth
    cap.
    """

    def __init__(self, shape: TreeShape):
        super().__init__({".": ROOT} | {str(a): (a,) for a in range(min(shape.degree, _TEXT_LABELS))})
        self.shape = shape
        # the labels of the children of a vertex other than the root
        self.labels = {str(a): (a,) for a in range(min(shape.degree - 1, _TEXT_LABELS))}

    def __missing__(self, text: str) -> Vertex:
        head, _, last = text.rpartition(".")
        a = self.labels.get(last)
        if a is not None and head != "." and len(text) < 2 * MAX_DEPTH:
            try:
                v = self[text] = self[head] + a
                return v
            except TreeQIError:  # the whole text words the error
                pass
        v = self[text] = parse_address(text, self.shape)
        return v


def _lines(text: str) -> list[str]:
    """The lines of a map or trace text, split at '\\r\\n', '\\r' and '\\n'
    only: the other characters at which `str.splitlines` splits are
    whitespace inside a line, as `str.split` reads them."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


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
