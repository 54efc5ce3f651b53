"""Constructive conversions between map families.

Two transforms, both for root-fixing maps:

* order-preserving normalization: replace each value by the deepest common
  ancestor of the images of the vertex's whole stored subtree.  The result
  respects ancestry unconditionally and stays within 3*C^3 + 2*C of a map
  whose measured constant is at most C.
* mixed-subtree approximation: rebuild an order-preserving map level by
  level with step depth D, keeping the map's own images on each class block
  and collapsing everything between two levels onto the class image.
  Validates the two construction conditions and the collapse distance as it
  goes, and guarantees success once D reaches the derived threshold; a map
  that is already mixed at step D comes back unchanged.

Both transforms take the promised constant C as input because every derived
constant is a function of it; they re-measure the actual ball constant and
warn (without aborting) when the promise is violated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import report
from .errors import PreconditionError, ValidationFailure
from .mixed_builder import (
    BuildTrace,
    ClassTrace,
    LevelClass,
    _build_levels,
    _shared_images,
    recover_class_subtree,
)
from .prefix import _prefix_len
from .qi_map import (
    EXHAUSTIVE,
    FiniteTreeMap,
    PairSource,
    _ball,
    is_order_preserving,
    measure_qi,
    sup_distance,
)
from .tree_core import format_address

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
    """
    radius = f.domain_radius
    b = _ball(f.shape.degree, radius)
    acc = f.depths.copy()
    for t in range(radius - 1, -1, -1):
        at = b.levels[t]
        kids = b.children(at, t)
        cpl = _prefix_len(f.labels[at][:, None, :], f.labels[kids])
        acc[at] = np.minimum(acc[at], np.minimum(cpl, acc[kids]).min(axis=1))
    labels = np.where(np.arange(f.labels.shape[1]) < acc[:, None], f.labels, -1)
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
    image.  Each class is validated exactly (subtree-boundary, shared-parent,
    fill-distance, in that order), then the whole result (final-bound); any
    failure raises ValidationFailure with the class location and the failed
    check.  With D_used >= D_guaranteed and an honest C the validation never
    fires, and a mixed map approximated at its own step comes back unchanged.
    """
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
    fill_floor = math.floor(fill_bound)
    ball = _ball(g.shape.degree, g.domain_radius)  # the walk runs on g's positions

    def choose(i: int, cls: LevelClass, block, fill) -> ClassTrace:
        def failure(kind: str, message: str, value=None) -> ValidationFailure:
            bound = None if value is None else fill_bound
            return ValidationFailure(
                kind, message, level=i, image=cls.image, value=value, bound=bound
            )

        # g's own images, kept once they form the boundary of a subtree
        images = g._images(block)
        subtree, reason = recover_class_subtree(cls.image, images, g.shape)
        if reason is not None:
            raise failure("subtree-boundary", reason)
        if shared := _shared_images(images, len(block) // len(cls.members)):
            raise failure(
                "shared-parent",
                f"image {format_address(min(shared))} drawn from children of two class members",
            )
        # g is order-preserving and each fill vertex descends from a member,
        # whose g-image is the class image: the distance is a depth difference,
        # and an integer exceeds the bound iff it exceeds the bound's floor
        far = np.flatnonzero(g.depths[fill] > len(cls.image) + fill_floor)
        if len(far):
            w = fill[far[0]]
            dist = int(g.depths[w]) - len(cls.image)
            text = format_address(ball.vertex(w))
            raise failure(
                "fill-distance",
                f"{text} collapsed {dist} > {fill_bound} from its g-image",
                value=dist,
            )
        return ClassTrace(
            level=i,
            image=cls.image,
            members=cls.members,
            subtree=ball.shared(sorted(subtree)),
            boundary=tuple(sorted(set(images))),
            assignment=dict(zip(cls.block, images)),
        )

    trace = BuildTrace(g.shape.degree, step, levels, f"approximate:C={Cf}")
    approx = _build_levels(ball, trace, choose)
    sup = sup_distance(approx, g)
    if sup > fill_bound:
        raise ValidationFailure(
            "final-bound",
            f"approximation sits {sup} > bound {fill_bound} from the input",
            value=sup,
            bound=fill_bound,
        )
    return approx, bundle, trace
