"""Exact combinatorics of finite truncations of the rooted d-regular tree.

A vertex is addressed by its label path from the root: the root is the empty
tuple and a child extends its parent's address by one label.  In a tree of
degree d the root has child labels 0..d-1 and every other vertex has child
labels 0..d-2, so every vertex has total degree d.  Addresses are plain
tuples, which makes them dict keys for free; tuple order is lexicographic,
which coincides with depth-first preorder.

All distances are integers (unit edge lengths).  Everything here is a pure
function over immutable values and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import BudgetExceededError, DepthLimitError, InvalidAddressError

Vertex = tuple
ROOT: Vertex = ()

# Addresses deeper than this are refused outright: ball sizes grow like
# (d-1)^R, so anything beyond desk scale should fail fast and loudly.
MAX_DEPTH = 64
DEFAULT_VERTEX_BUDGET = 10_000_000


@dataclass(frozen=True)
class TreeShape:
    """Degree of the ambient regular tree (at least 3)."""

    degree: int

    def __post_init__(self):
        if not isinstance(self.degree, int) or self.degree < 3:
            raise ValueError(f"tree degree must be an integer >= 3, got {self.degree!r}")

    def child_label_count(self, v: Vertex) -> int:
        return self.degree if not v else self.degree - 1

    def children(self, v: Vertex) -> list[Vertex]:
        if len(v) >= MAX_DEPTH:
            raise DepthLimitError(
                f"children of {format_address(v)} would exceed the depth cap {MAX_DEPTH}"
            )
        return [v + (a,) for a in range(self.child_label_count(v))]


def depth(v: Vertex) -> int:
    return len(v)


def parent(v: Vertex) -> Vertex:
    """Drop the last label; the parent of the root is the root itself."""
    return v[:-1]


def is_descendant(u: Vertex, v: Vertex) -> bool:
    """True iff v's address is a prefix of u's; every vertex descends from itself."""
    return u[: len(v)] == v


def common_prefix_len(u: Vertex, v: Vertex) -> int:
    n = 0
    for a, b in zip(u, v):
        if a != b:
            break
        n += 1
    return n


def lca_pair(u: Vertex, v: Vertex) -> Vertex:
    return u[: common_prefix_len(u, v)]


def lca(vertices: Iterable[Vertex]) -> Vertex:
    """Deepest common ancestor of a nonempty set: the longest common prefix."""
    it = iter(vertices)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("lca of an empty set is undefined") from None
    for v in it:
        if not acc:
            break
        acc = lca_pair(acc, v)
    return acc


def distance(u: Vertex, v: Vertex) -> int:
    return len(u) + len(v) - 2 * common_prefix_len(u, v)


def geodesic(u: Vertex, v: Vertex) -> list[Vertex]:
    """The unique non-backtracking vertex path u .. lca .. v."""
    k = common_prefix_len(u, v)
    up = [u[:i] for i in range(len(u), k - 1, -1)]
    down = [v[:i] for i in range(k + 1, len(v) + 1)]
    return up + down


def d_children_count(v: Vertex, dist_down: int, shape: TreeShape) -> int:
    d = shape.degree
    if v == ROOT:
        return d * (d - 1) ** (dist_down - 1)
    return (d - 1) ** dist_down


def _frontiers(v: Vertex, dist_down: int, shape: TreeShape) -> list[list[Vertex]]:
    """The descendants of v at distance 1, 2, .., dist_down: one list per
    distance, each in address order.  The tuple walk behind `ball` and
    `d_children`, which stay as the plain references tests compare the
    cached ball layout in `qi_map` (the same levels as arrays) against."""
    out: list[list[Vertex]] = []
    frontier = [v]
    for _ in range(dist_down):
        frontier = [c for u in frontier for c in shape.children(u)]
        out.append(frontier)
    return out


def d_children(
    v: Vertex, dist_down: int, shape: TreeShape, budget: int = DEFAULT_VERTEX_BUDGET
) -> list[Vertex]:
    """All descendants of v at distance exactly dist_down, in address order."""
    if dist_down < 1:
        raise ValueError(f"distance down must be >= 1, got {dist_down}")
    if d_children_count(v, dist_down, shape) > budget:
        raise BudgetExceededError(
            f"{d_children_count(v, dist_down, shape)} descendants exceed budget {budget}"
        )
    return _frontiers(v, dist_down, shape)[-1]


def validate_address(v: Vertex, shape: TreeShape) -> None:
    if len(v) > MAX_DEPTH:
        raise DepthLimitError(f"address of depth {len(v)} exceeds the depth cap {MAX_DEPTH}")
    for i, a in enumerate(v):
        bound = shape.degree if i == 0 else shape.degree - 1
        if not isinstance(a, int) or not 0 <= a < bound:
            raise InvalidAddressError(
                f"label {a!r} at position {i} out of range [0, {bound}) for degree {shape.degree}"
            )


def format_address(v: Vertex) -> str:
    """Text form used in files, CLI arguments and reports: '.' for the root."""
    return "." if not v else ".".join(str(a) for a in v)


def parse_address(text: str, shape: TreeShape | None = None) -> Vertex:
    if text == ".":
        return ROOT
    parts = text.split(".")
    labels = []
    for p in parts:
        if not (p.isascii() and p.isdigit()):
            raise InvalidAddressError(f"bad address {text!r}: label {p!r} is not a number")
        labels.append(int(p))
    v = tuple(labels)
    if len(v) > MAX_DEPTH:
        raise DepthLimitError(f"address {text!r} exceeds the depth cap {MAX_DEPTH}")
    if shape is not None:
        validate_address(v, shape)
    return v


def ball_size(shape: TreeShape, radius: int) -> int:
    if radius < 0:
        raise ValueError("radius must be >= 0")
    d = shape.degree
    return 1 + d * ((d - 1) ** radius - 1) // (d - 2)


def checked_ball_size(shape: TreeShape, radius: int, budget: int = DEFAULT_VERTEX_BUDGET) -> int:
    """ball_size, refusing a radius past the depth cap or a ball past the
    vertex budget before anything is built."""
    if radius > MAX_DEPTH:
        raise DepthLimitError(f"radius {radius} exceeds the depth cap {MAX_DEPTH}")
    n = ball_size(shape, radius)
    if n > budget:
        raise BudgetExceededError(f"ball of radius {radius} has {n} vertices, budget is {budget}")
    return n


def ball(shape: TreeShape, radius: int, budget: int = DEFAULT_VERTEX_BUDGET) -> list[Vertex]:
    """Every vertex of depth <= radius, in address (= preorder) order."""
    checked_ball_size(shape, radius, budget)
    out = [ROOT]
    for frontier in _frontiers(ROOT, radius, shape):
        out.extend(frontier)
    out.sort()
    return out


class FiniteSubtree:
    """Finite, connected, parent-closed vertex set.

    The unique shallowest member is the local root; every other member's
    parent belongs to the set, which forces connectivity.  Vertices are kept
    sorted so traversal order is canonical.
    """

    __slots__ = ("_sorted", "_set", "local_root")

    def __init__(self, vertices: Iterable[Vertex]):
        vs = sorted(set(vertices))
        if not vs:
            raise ValueError("a finite subtree must be nonempty")
        local_root = min(vs, key=len)
        present = set(vs)
        for v in vs:
            if v == local_root:
                continue
            if parent(v) not in present:
                raise ValueError(
                    f"disconnected subtree: {format_address(v)} is missing its parent"
                )
        self._sorted = tuple(vs)
        self._set = present
        self.local_root = local_root

    @property
    def vertices(self) -> tuple:
        return self._sorted

    def __len__(self) -> int:
        return len(self._sorted)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._sorted)

    def __contains__(self, v) -> bool:
        return v in self._set

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteSubtree) and self._sorted == other._sorted

    def __hash__(self) -> int:
        return hash(self._sorted)

    def __repr__(self) -> str:
        return f"FiniteSubtree({[format_address(v) for v in self._sorted]})"


def boundary(subtree: FiniteSubtree, shape: TreeShape) -> list[Vertex]:
    """Vertices outside the subtree whose parent is inside, in address order.

    For a subtree of size s this has exactly s*(d-2)+2 members when the global
    root belongs to the subtree and s*(d-2)+1 otherwise.
    """
    out: list[Vertex] = []
    for s in subtree:
        for c in shape.children(s):
            if c not in subtree:
                out.append(c)
    out.sort()
    return out
