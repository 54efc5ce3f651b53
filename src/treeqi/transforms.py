"""Constructive conversions between map families.

Two transforms, both for root-fixing maps:

* order-preserving normalization: replace each value by the deepest common
  ancestor of the images of the vertex's whole stored subtree.  The result
  respects ancestry unconditionally and stays within 3*C^3 + 2*C of a map
  whose measured constant is at most C.
* mixed-subtree approximation: rebuild an order-preserving map level by
  level with step depth D, keeping the map's own images on each class block
  and collapsing everything between two levels onto the class image, so
  that each vertex takes the image of its ancestor on the level above.  The
  map is built as arrays.  The two construction conditions and the collapse
  distance are checked for all classes of a level at once, on the level
  driver of the structural verifier (`mixed_builder._levels`), and only a
  failing class is read as tuples; the trace's classes are read from label
  rows one at a time.  Success is guaranteed once D reaches the derived
  threshold; a map that is already mixed at step D comes back unchanged.

Both transforms take the promised constant C as input because every derived
constant is a function of it; they re-measure the actual ball constant and
warn (without aborting) when the promise is violated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterator

import numpy as np

from . import report
from .errors import PreconditionError, ValidationFailure
from .layout import _ball, _pack
from .pair_source import EXHAUSTIVE, PairSource
from .prefix import _prefix_len
from .qi_map import measure_qi
from .tree_core import MAX_DEPTH, format_address
from .tree_map import FiniteTreeMap, is_order_preserving, sup_distance

# Promise checks fall back to a fixed-seed sample above this many pairs so
# they stay affordable on large balls; the warning is best-effort anyway.
PROMISE_EXHAUSTIVE_PAIRS = 600_000
PROMISE_SAMPLE_COUNT = 50_000
PROMISE_SAMPLE_SEED = 0


class PromiseWarning(UserWarning):
    """The caller-promised constant understates the measured one."""


@dataclass(frozen=True)
class ConstantsBundle:
    """Constants derived from a promised quasi-isometry constant C.

    K_normalize   bound between a map and its order-preserving normalization
    K_samedepth   bound for same-depth vertices with nested images
    D_guaranteed  step depth at which the approximation always validates
    D_used        the step depth actually used (override or D_guaranteed)
    final_bound   bound between the input map and the approximation
    """

    C: Fraction
    K_normalize: Fraction
    K_samedepth: Fraction
    D_guaranteed: int
    D_used: int
    final_bound: Fraction

    def report_fields(self) -> list:
        return [
            ("C", self.C, report.JSON),
            ("K_normalize", self.K_normalize),
            ("K_samedepth", self.K_samedepth),
            ("D", self.D_used, report.TEXT),
            ("bound", self.final_bound, report.TEXT),
            ("D_guaranteed", self.D_guaranteed, report.JSON),
            ("D_used", self.D_used, report.JSON),
            ("final_bound", self.final_bound, report.JSON),
        ]


def constants(C, D_override: int | None = None) -> ConstantsBundle:
    Cf = Fraction(C)
    if Cf < 1:
        raise ValueError("C must be >= 1")
    k_norm = 3 * Cf**3 + 2 * Cf
    k_same = 4 * Cf**3 + Cf
    d_guaranteed = math.ceil(Cf * (Cf + k_same) + 1)
    if D_override is None:
        d_used = d_guaranteed
    else:
        if D_override < 1:
            raise ValueError("D override must be >= 1")
        d_used = int(D_override)
    return ConstantsBundle(
        C=Cf,
        K_normalize=k_norm,
        K_samedepth=k_same,
        D_guaranteed=d_guaranteed,
        D_used=d_used,
        final_bound=k_same + Cf * d_used + Cf,
    )


def measure_promise(m: FiniteTreeMap, promised) -> tuple[Fraction, bool, str]:
    """Measured ball constant, whether it honors the promise, and how it was
    measured (exhaustively, or sampled on large balls)."""
    n = len(m.depths)
    total = n * (n - 1) // 2
    if total <= PROMISE_EXHAUSTIVE_PAIRS:
        source = EXHAUSTIVE
        mode = "exhaustive"
    else:
        source = PairSource.sampled(PROMISE_SAMPLE_COUNT, PROMISE_SAMPLE_SEED)
        mode = source.describe()
    measured = measure_qi(m, source).best_single_C
    return measured, measured <= Fraction(promised), mode


def _warn_promise(name: str, measured: Fraction, promised: Fraction, mode: str) -> None:
    warnings.warn(
        f"{name}: promised C={promised} but the {mode} ball constant is {measured};"
        " derived bounds are not guaranteed",
        PromiseWarning,
        stacklevel=3,
    )


def normalize_order_preserving(
    f: FiniteTreeMap, C, *, check_promise: bool = True
) -> FiniteTreeMap:
    """Order-preserving map at bounded distance from f: each vertex goes to
    the deepest common ancestor of the images of its stored subtree.

    Requires f to fix the root.  When the promise C >= measured constant
    holds, the result is verified to stay within 3*C^3 + 2*C of f.
    """
    Cf = Fraction(C)
    if Cf < 1:
        raise ValueError("C must be >= 1")
    if f.depths[0]:  # row 0 is the root's image
        raise PreconditionError("normalization requires a root-fixing map")
    honest = True
    if check_promise:
        measured, honest, mode = measure_promise(f, Cf)
        if not honest:
            _warn_promise("normalize_order_preserving", measured, Cf, mode)
    g = _normalize_fold(f)
    ok, wit = is_order_preserving(g)
    if not ok:
        raise ValidationFailure(
            "normalize-order", f"normalized map broke ancestry at {format_address(wit)}"
        )
    if check_promise and honest:
        bound = 3 * Cf**3 + 2 * Cf
        sup = sup_distance(f, g)
        if sup > bound:
            raise ValidationFailure(
                "normalize-bound",
                f"normalization moved a point {sup} > bound {bound}",
                value=sup,
                bound=bound,
            )
    return g


def _normalize_fold(f: FiniteTreeMap) -> FiniteTreeMap:
    """Each vertex's image cut to the common prefix of the images of its
    stored subtree, one depth level at a time from the deepest up.

    That prefix has length acc(v) = min(depth f(v), min over children c of
    min(cpl(f(v), f(c)), acc(c))), cpl being the common-prefix length.
    Each child is compared with its parent a block of rows at a time, and
    the labels are cut in place, one column at a time.
    """
    radius = f.domain_radius
    b = _ball(f.shape.degree, radius)
    acc = f.depths.copy()
    for t in range(radius - 1, -1, -1):
        at, kids = b.levels[t], b.levels[t + 1]  # kids: the children of `at`, row by row
        cpl = _prefix_len(f.labels, f.labels, kids, b.parents[kids])
        below = np.minimum(cpl, acc[kids]).reshape(len(at), -1).min(axis=1)
        acc[at] = np.minimum(acc[at], below)
    labels = f.labels[:, : max(1, int(acc.max()))].copy()
    for k in range(labels.shape[1]):
        labels[acc <= k, k] = -1
    return FiniteTreeMap._from_arrays(f.shape, radius, labels, acc)


def approximate_by_mixed(
    g: FiniteTreeMap,
    C,
    D_override: int | None = None,
    *,
    check_promise: bool = True,
) -> tuple[FiniteTreeMap, ConstantsBundle, BuildTrace]:
    """Mixed-subtree map at bounded distance from an order-preserving g.

    Runs the level-by-level construction with step depth D_used, keeping
    g on each class block and collapsing intermediate vertices onto the class
    image: a vertex of depth t takes g's image of its ancestor of depth
    floor(t / D) * D.  Each class is validated exactly (subtree-boundary,
    shared-parent, fill-distance, in that order), then the whole result
    (final-bound); any failure raises ValidationFailure with the class
    location and the failed check.  With D_used >= D_guaranteed and an
    honest C the validation never fires, and a mixed map approximated at its
    own step comes back unchanged.  The trace's classes are read from label
    rows one at a time (`_ClassTraces`).
    """
    from .mixed_builder import BuildTrace, _levels  # normalization needs no builder

    bundle = constants(C, D_override)
    Cf = bundle.C
    ok, wit = is_order_preserving(g)
    if not ok:
        raise PreconditionError(
            f"approximation requires an order-preserving map (witness {format_address(wit)})"
        )
    if g.depths[0]:  # row 0 is the root's image
        raise PreconditionError("approximation requires a root-fixing map")
    step = bundle.D_used
    levels = g.domain_radius // step
    if levels < 1:
        raise PreconditionError(
            f"domain radius {g.domain_radius} holds no full level of depth {step}"
        )
    if check_promise:
        measured, honest, mode = measure_promise(g, Cf)
        if not honest:
            _warn_promise("approximate_by_mixed", measured, Cf, mode)
    fill_bound = bundle.final_bound
    # g's images on the class blocks are the approximation's; per level, the
    # class of each member and each class's image row
    classes = [_check_level(g, lv, fill_bound) for lv in _levels(g, step)]
    approx = _anchored(g, step, levels)
    trace = BuildTrace(g.shape.degree, step, levels, f"approximate:C={Cf}")
    trace.classes = _ClassTraces(g, step, classes)
    sup = sup_distance(approx, g)
    if sup > fill_bound:
        raise ValidationFailure(
            "final-bound",
            f"approximation sits {sup} > bound {fill_bound} from the input",
            value=sup,
            bound=fill_bound,
        )
    return approx, bundle, trace


def _anchored(g: FiniteTreeMap, step: int, levels: int) -> FiniteTreeMap:
    """The map on the ball of radius step*levels that sends each vertex of
    depth t to g's image of its ancestor of depth floor(t / step) * step."""
    ball = _ball(g.shape.degree, g.domain_radius)
    radius = step * levels
    anchor = np.arange(len(ball.depths))  # by position
    for t in range(radius + 1):
        if t % step:  # row r of the level above owns the r-th of the equal runs of depth t
            up = ball.levels[t - t % step]
            anchor[ball.levels[t]] = np.repeat(up, len(ball.levels[t]) // len(up))
    anchor = anchor[ball.rows(radius)]
    return FiniteTreeMap._from_arrays(
        g.shape, radius, g.labels[anchor], g.depths[anchor], checked=True
    )


def _check_level(g: FiniteTreeMap, lv, fill_bound: Fraction) -> tuple:
    """The class of each member and the image row of each class of the
    level before `lv`, once every class passes.  Otherwise raise
    ValidationFailure for the first class that fails a check, classes in
    order of least member, checks in order: its images (g's, on the block)
    are not the boundary of a subtree at the class image; children of two
    members share an image; a fill vertex lies farther than the bound from
    the class image, onto which it collapses.

    Each check runs on every class of the level at once.  g is
    order-preserving and each fill vertex descends from a member, whose
    g-image is the class image, so its distance is a depth difference, and
    an integer exceeds the bound iff it exceeds the bound's floor.  Only the
    failing class is read as tuples, to word the failure."""
    # no depth difference exceeds the depth cap, so a larger floor is the cap
    n, top, floor = len(lv.images[1]), lv.top, min(math.floor(fill_bound), MAX_DEPTH)
    parent = lv.parent[lv.by]
    twice = lv.repeat & (parent != np.roll(parent, 1))  # an image again, from another member
    shared = np.bincount(lv.owned, twice, n) > 0
    limit = lv.images[1][lv.owner] + floor
    far = np.zeros(len(top), bool)  # by member
    for run in lv.runs[:-1]:
        far |= g.depths[run].reshape(len(top), -1).max(1) > limit
    far = np.bincount(lv.owner, far, n) > 0
    fails = lv.rejects | shared | far
    for c in dict.fromkeys(lv.owner[fails[lv.owner]].tolist()):  # by least member
        image = lv.image(c)
        fail = partial(ValidationFailure, level=lv.i - 1, image=image)
        if lv.rejects[c] and (reason := lv.reason(c)) is not None:
            raise fail("subtree-boundary", reason)
        if shared[c]:
            at = lv.by[np.argmax(twice & (lv.owned == c))]  # the class's least shared image
            a = format_address(tuple(lv.rows[at, : lv.deps[at]].tolist()))
            raise fail("shared-parent", f"image {a} drawn from children of two class members")
        if far[c]:
            members = np.flatnonzero(lv.owner == c)
            fill = np.hstack([run.reshape(len(top), -1)[members] for run in lv.runs[:-1]]).ravel()
            w = fill[np.argmax(g.depths[fill] > len(image) + floor)]  # member, depth, address order
            dist = int(g.depths[w]) - len(image)
            text = format_address(_ball(g.shape.degree, g.domain_radius).vertex(w))
            message = f"{text} collapsed {dist} > {fill_bound} from its g-image"
            raise fail("fill-distance", message, value=dist, bound=fill_bound)
    return lv.owner, lv.images


class _ClassTraces:
    """The approximation's class traces, in the order of the construction's
    class walk: level by level, each level's classes in order of least
    member.  A ClassTrace is built from label rows when it is read and is
    not kept, so a reader of the whole trace (`BuildTrace.lines`) holds one
    class's tuples at a time.

    Per level it keeps the class of each member (numbered in image order)
    and each class's image row.  The block is g's domain below the members,
    whose images g keeps; the subtree is the images' proper prefixes below
    the class image, which a passing class has as its subtree.  Subtree
    vertices inside the ball are the ball's own tuples once they are built
    (`verts`), so that a caller who holds both holds no copies.
    """

    def __init__(self, g: FiniteTreeMap, step: int, levels: list):
        self._g, self._step, self._levels = g, step, levels

    def __len__(self) -> int:
        return sum(len(images[1]) for _, images in self._levels)

    def __iter__(self) -> Iterator[ClassTrace]:
        from .mixed_builder import ClassTrace

        g, step = self._g, self._step
        ball = _ball(g.shape.degree, g.domain_radius)

        def addresses(labels, depths) -> list:
            return [tuple(r[:k]) for r, k in zip(labels.tolist(), depths.tolist())]

        for j, (owner, (labels, depths)) in enumerate(self._levels):
            top = ball.levels[j * step]
            blocks = ball.levels[(j + 1) * step].reshape(len(top), -1)
            by = np.argsort(owner, kind="stable")  # each class's members in address order
            ends = np.cumsum(np.bincount(owner))
            # the labels below a member of each vertex of its block, alike for every member
            below = [tuple(r) for r in ball.labels[blocks[0], j * step : (j + 1) * step].tolist()]
            for c in dict.fromkeys(owner.tolist()):
                rows = by[ends[c - 1] if c else 0 : ends[c]]
                image = tuple(labels[c, : depths[c]].tolist())
                members = addresses(ball.labels[top[rows]], ball.depths[top[rows]])
                block = blocks[rows].ravel()
                targets, depths_at = g.labels[block], g.depths[block]
                images = addresses(targets, depths_at)
                # the distinct images in address order, and each one's depths below
                # the image and below the one before, which are its new prefixes
                order = np.lexsort(targets.T[::-1])
                lcp = _prefix_len(targets, targets, order[:-1], order[1:])
                new = np.flatnonzero(np.concatenate([[True], lcp < depths_at[order[:-1]]]))
                lows = (np.concatenate([[len(image) - 1], lcp])[new] + 1).tolist()
                boundary = [images[i] for i in order[new].tolist()]
                subtree = [t[:k] for t, low in zip(boundary, lows) for k in range(low, len(t))]
                if "verts" in vars(ball):
                    at = ball.positions(*_pack(subtree, ball.labels.dtype)).tolist()
                    subtree = [v if p < 0 else ball.verts[p] for v, p in zip(subtree, at)]
                yield ClassTrace(
                    level=j,
                    image=image,
                    members=tuple(members),
                    subtree=tuple(subtree),
                    boundary=tuple(boundary),
                    assignment=dict(zip([v + w for v in members for w in below], images)),
                )
