"""Finite-truncation self-maps of the tree: `FiniteTreeMap`, its
generators and the whole-map operations.

A map holds the images of its ball's vertices as label arrays in ball
(address) order (`layout._Ball`).  Map files are written and read as byte
arrays from the label rows (`mapfile`).  Whole-map operations (comparison,
composition, sup distance, the ancestry check, coarse surjectivity) run on
the arrays, and so do the mixed construction and its checks in
`mixed_builder`; the dict view `FiniteTreeMap.table` serves
`FiniteTreeMap.evaluate`, the independent oracle and callers that want
tuples.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Callable

import numpy as np

from .errors import MapDomainError, ShapeMismatchError
from .layout import _ball, _budgeted_ball, _check_rows, _label_dtype, _pack
from .prefix import _PrefixIndex, _prefix_len
from .tree_core import (
    DEFAULT_VERTEX_BUDGET,
    MAX_DEPTH,
    ROOT,
    TreeShape,
    Vertex,
    format_address,
    validate_address,
)

_FAR = 1 << 20  # beyond any distance in the tree's depth cap


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
        cls, shape: TreeShape, domain_radius: int, labels: np.ndarray, depths: np.ndarray,
        checked: bool = False,
    ) -> "FiniteTreeMap":
        """The constructor of array producers: rows in ball order, checked as
        a table is unless the producer has `checked` every row already."""
        if not checked:
            _check_rows(shape, labels, depths, lambda i: tuple(labels[i, : depths[i]].tolist()))
        m = cls.__new__(cls)
        m._init(shape, domain_radius, labels, depths)
        return m

    def _init(self, shape, domain_radius, labels, depths) -> None:
        self.shape = shape
        self.domain_radius = domain_radius
        self.labels = np.ascontiguousarray(labels[:, : max(1, int(depths.max()))])
        self.depths = depths.astype(np.int16, copy=False)  # at most MAX_DEPTH
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
    Each row is compared with its parent's row, gathered a block at a time
    (`_prefix_len`).
    """
    b = _ball(m.shape.degree, m.domain_radius)
    parents = b.parents[1:]
    plen = _prefix_len(m.labels, m.labels, slice(1, None), parents)
    bad = np.flatnonzero(plen != m.depths[parents]) + 1
    if not len(bad):
        return True, None
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
    dist = _prefix_len(m1.labels, m2.labels, rows1, rows2)  # gathered a block at a time
    dist *= -2
    dist += m1.depths[rows1]
    dist += m2.depths[rows2]
    return int(dist.max())


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

