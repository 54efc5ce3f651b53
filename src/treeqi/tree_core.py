"""Addresses, shape and ball sizes of the rooted d-regular tree.

A vertex is addressed by its label path from the root: the root is the empty
tuple and a child extends its parent's address by one label.  In a tree of
degree d the root has child labels 0..d-1 and every other vertex has child
labels 0..d-2, so every vertex has total degree d.  Addresses are plain
tuples; tuple order is lexicographic, which coincides with depth-first
preorder.

This module holds the shape, the depth cap, the text form of an address
and its checks, and the ball size with its budget check.  The ball itself
is laid out once per degree and radius by `layout._ball`; the tuple `ball`
here has no caller in the package.  It stays because the benchmark's tracer
wraps it by name and the tests, `tests/reference.py` among them, import it
as the independent tuple ball.  The tuple model of the tree that tests
compare against (distances, common ancestors, geodesics, finite subtrees
and their boundaries) lives in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, DepthLimitError, InvalidAddressError

Vertex = tuple
ROOT: Vertex = ()

# Addresses deeper than this are refused outright: ball sizes grow like
# (d-1)^R, so anything beyond desk scale should fail fast and loudly.
MAX_DEPTH = 64
DEFAULT_VERTEX_BUDGET = 10_000_000

# A label with more digits than this, leading zeros aside, is refused before
# int() reads it: 640 is the lowest digit limit Python's int() can be set to.
MAX_LABEL_DIGITS = 640


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


def _frontiers(v: Vertex, dist_down: int, shape: TreeShape) -> list[list[Vertex]]:
    """The descendants of v at distance 1, 2, .., dist_down: one list per
    distance, each in address order.  It backs only `ball`, which the
    benchmark's tracer wraps by name."""
    out: list[list[Vertex]] = []
    frontier = [v]
    for _ in range(dist_down):
        frontier = [c for u in frontier for c in shape.children(u)]
        out.append(frontier)
    return out


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
        digits = p.lstrip("0") or "0"
        if len(digits) > MAX_LABEL_DIGITS:
            raise InvalidAddressError(f"bad address: a label of {len(p)} digits is too long")
        labels.append(int(digits))
    v = tuple(labels)
    if len(v) > MAX_DEPTH:
        raise DepthLimitError(f"address {text!r} exceeds the depth cap {MAX_DEPTH}")
    if shape is not None:
        validate_address(v, shape)
    return v


def _number(text: str, name: str) -> int:
    """The value `text` of the trace field `name`: like an address label, a
    number of at most MAX_LABEL_DIGITS ASCII digits, leading zeros aside."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"a {name}= value {text!r} is not a number")
    if len(text.lstrip("0")) > MAX_LABEL_DIGITS:
        raise ValueError(f"a {name}= value of {len(text)} digits is too long")
    return int(text.lstrip("0") or "0")


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
