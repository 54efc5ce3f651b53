"""Brute-force reference measurement, kept independent of the fast path.

Everything here is plain Python over exact Fractions: pairwise distances are
recomputed from scratch, the per-pair binding constant is re-derived with a
bisection square root, and pairs are folded one at a time.  The fast
``measure_qi`` must agree with this module field for field; tests compare
the two on small balls.  Intended for small balls only: every pair is kept
and folded in Python, so a ball with more than MAX_PAIRS pairs is refused.
"""

from __future__ import annotations

from fractions import Fraction

from . import qi_map
from .errors import BudgetExceededError
from .qi_map import SQRT_SCALE
from .report import VerificationReport, Violation
from .tree_map import FiniteTreeMap

# Every pair is folded in Python (about 40 microseconds each on a 2-core VM)
# and kept in memory until the fold ends, so this bound keeps a run under a
# minute: the degree-3 ball of radius 8 has 292,995 pairs, of radius 9
# 1,175,811.
MAX_PAIRS = 10**6


def _dist(u, v) -> int:
    # local re-derivation on purpose; do not share the fast path's helpers
    k = 0
    for a, b in zip(u, v):
        if a != b:
            break
        k += 1
    return len(u) + len(v) - 2 * k


def _sqrt_ceil(radicand: int) -> int:
    """Smallest n with n >= SQRT_SCALE*sqrt(radicand), by pure bisection."""
    target = radicand * SQRT_SCALE * SQRT_SCALE
    lo, hi = 0, max(1, radicand) * SQRT_SCALE
    while lo < hi:
        mid = (lo + hi) // 2
        if mid * mid >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _pair_constant(delta: int, iota: int) -> Fraction:
    cands = [Fraction(1), Fraction(iota, delta + 1)]
    if delta > 0:
        num = _sqrt_ceil(iota * iota + 4 * delta) - SQRT_SCALE * iota
        cands.append(Fraction((num + 1) // 2, SQRT_SCALE))
    return max(cands)


def oracle_measure(
    m: FiniteTreeMap,
    *,
    candidate_C=None,
    max_lca_depth: int | None = None,
) -> VerificationReport:
    """Exhaustive reference version of measure_qi, listing at most as many
    violations as it does."""
    cand = None if candidate_C is None else Fraction(candidate_C)
    max_violations = qi_map.DEFAULT_MAX_VIOLATIONS
    verts = m.domain
    n = len(verts)
    if n * (n - 1) // 2 > MAX_PAIRS:
        raise BudgetExceededError(
            f"{n * (n - 1) // 2} vertex pairs exceed the oracle's pair budget {MAX_PAIRS}"
        )
    t = m.table

    best = Fraction(1)
    witness = None
    up_mult = Fraction(1)
    low_mult = Fraction(1)
    pairs: list[tuple[int, int, object, object]] = []
    pairs_checked = 0
    for i in range(n - 1):
        u = verts[i]
        fu = t[u]
        for j in range(i + 1, n):
            v = verts[j]
            if max_lca_depth is not None:
                k = 0
                for a, b in zip(u, v):
                    if a != b:
                        break
                    k += 1
                if k > max_lca_depth:
                    continue
            delta = _dist(u, v)
            iota = _dist(fu, t[v])
            pairs_checked += 1
            pairs.append((delta, iota, u, v))
            c = _pair_constant(delta, iota)
            if c > best:
                best = c
                witness = (u, v)
            elif witness is None and c == best:
                witness = (u, v)
            if delta > 0 and iota > 0:
                if Fraction(iota, delta) > up_mult:
                    up_mult = Fraction(iota, delta)
                if Fraction(delta, iota) > low_mult:
                    low_mult = Fraction(delta, iota)

    up_add = Fraction(0)
    low_add = Fraction(0)
    violations: list[Violation] = []
    violations_total = 0
    for delta, iota, u, v in pairs:
        up_add = max(up_add, iota - up_mult * delta)
        low_add = max(low_add, Fraction(delta, 1) / low_mult - iota)
        if cand is not None:
            if iota > cand * delta + cand:
                violations_total += 1
                if len(violations) < max_violations:
                    violations.append(Violation(u, v, "upper", iota))
            elif Fraction(delta, 1) / cand - cand > iota:
                violations_total += 1
                if len(violations) < max_violations:
                    violations.append(Violation(u, v, "lower", iota))

    return VerificationReport(
        degree=m.shape.degree,
        radius=m.domain_radius,
        pair_mode="oracle",
        pairs_checked=pairs_checked,
        sampling_seed=None,
        best_single_C=best,
        witness=witness,
        upper_pair=(up_mult, max(up_add, Fraction(0))),
        lower_pair=(low_mult, max(low_add, Fraction(0))),
        candidate_C=cand,
        max_lca_depth=max_lca_depth,
        violations=violations,
        violations_total=violations_total,
    )
