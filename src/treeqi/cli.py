"""Command-line front-end.

Subcommands: gen-mixed, verify, verify-mixed, normalize, approximate,
compose, distance, constants, oracle.  Every invocation is deterministic
given its flags and seeds: reports are key=value lines on stdout (or one
JSON object with --json), map files are written only to --out, and exit
codes are 0 success, 1 usage or parse error, 2 validation failure,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from fractions import Fraction

from . import mapfile, report
from .errors import BudgetExceededError, TreeQIError, ValidationFailure
from .mixed_builder import MixedPolicy, _number, build_mixed, verify_mixed_structure
from .oracle import oracle_measure
from .qi_map import (
    DEFAULT_MAX_VIOLATIONS,
    PairSource,
    check_geodesic_image,
    check_same_depth,
    compose,
    finish_report,
    is_order_preserving,
    measure_qi,
    sup_distance,
)
from .report import JSON, TEXT, Rows
from .tree_core import DEFAULT_VERTEX_BUDGET, TreeShape
from .transforms import (
    PromiseWarning,
    approximate_by_mixed,
    constants,
    normalize_order_preserving,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _parse_C(text: str) -> Fraction:
    try:
        c = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--C must be a rational like 2 or 5/2 or 2.5, got {text!r}") from None
    if c < 1:
        raise UsageError("--C must be >= 1")
    return c


def _parse_pairs(text: str, seed: int) -> PairSource:
    if text == "exhaustive":
        return PairSource.exhaustive()
    if text.startswith("sampled:"):
        count = text.removeprefix("sampled:")
        try:  # an optional '-' and ASCII digits, read like a trace field
            n = _number(count.removeprefix("-"), "sampled")
        except ValueError:
            raise UsageError(f"bad --pairs value {text!r}") from None
        return PairSource.sampled(-n if count.startswith("-") else n, seed)
    raise UsageError(f"--pairs must be 'exhaustive' or 'sampled:<n>', got {text!r}")


def _policy(args) -> MixedPolicy:
    if args.policy == "minimal":
        return MixedPolicy.minimal()
    if args.policy == "deepest":
        return MixedPolicy.deepest_feasible()
    return MixedPolicy.random(args.seed)


def _warned(transform, *args):
    """Run a transform; return its result and the PromiseWarnings it raised."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always", PromiseWarning)
        result = transform(*args)
    messages = [str(w.message) for w in record if issubclass(w.category, PromiseWarning)]
    return result, Rows("warning", messages)


def cmd_gen_mixed(args) -> int:
    shape = TreeShape(args.degree)
    m, trace = build_mixed(shape, args.D, args.levels, _policy(args), budget=args.max_vertices)
    mapfile.write_map_file(m, args.out)
    if args.trace_out:
        mapfile.write_trace_file(trace, args.trace_out)
    fields = [
        ("wrote", args.out),
        ("degree", shape.degree),
        ("D", args.D),
        ("levels", args.levels),
        ("radius", m.domain_radius),
        ("policy", trace.policy),
        ("vertices", len(m.depths)),
    ]
    report.emit(fields, args.json)
    return EXIT_OK


def cmd_verify(args) -> int:
    m = mapfile.parse_map_file(args.infile, args.max_vertices)
    source = _parse_pairs(args.pairs, args.seed)
    candidate = _parse_C(args.C) if args.C is not None else None
    rep = finish_report(
        measure_qi(m, source, candidate_C=candidate), m, args.target_radius, args.max_vertices
    )
    if candidate is not None:
        # the candidate constant also gates the geodesic-image coverage and,
        # for order-preserving maps, the same-depth nesting property; every
        # violation is counted, the first DEFAULT_MAX_VIOLATIONS are listed
        checks = [check_geodesic_image(m, candidate, source)]
        if rep.order_preserving:
            checks.append(check_same_depth(m, candidate))
        for found in checks:
            room = max(DEFAULT_MAX_VIOLATIONS - len(rep.violations), 0)
            rep.violations.extend(found[:room])
            rep.violations_total += found.total
    report.emit(rep.report_fields("verify"), args.json)
    return EXIT_OK


def cmd_verify_mixed(args) -> int:
    m = mapfile.parse_map_file(args.infile, args.max_vertices)
    rep = verify_mixed_structure(m, args.D)
    report.emit(rep.report_fields(), args.json)
    return EXIT_OK if rep.passed else EXIT_VALIDATION


def cmd_normalize(args) -> int:
    f = mapfile.parse_map_file(args.infile, args.max_vertices)
    c = _parse_C(args.C)
    g, warned = _warned(normalize_order_preserving, f, c)
    mapfile.write_map_file(g, args.out)
    bound = 3 * c**3 + 2 * c
    sup = sup_distance(f, g)
    ok, _ = is_order_preserving(g)
    fields = [
        ("wrote", args.out),
        ("C", c),
        ("bound", bound),
        ("sup_distance", sup),
        ("order_preserving", ok),
        ("warnings", warned),
    ]
    report.emit(fields, args.json)
    return EXIT_OK


def cmd_approximate(args) -> int:
    g = mapfile.parse_map_file(args.infile, args.max_vertices)
    c = _parse_C(args.C)
    (f, bundle, trace), warned = _warned(approximate_by_mixed, g, c, args.D_override)
    mapfile.write_map_file(f, args.out)
    if args.trace_out:
        mapfile.write_trace_file(trace, args.trace_out)
    sup = sup_distance(f, g)
    fields = [
        ("wrote", args.out),
        ("C", bundle.C, TEXT),
        ("K", bundle.K_samedepth, TEXT),
        ("D_guaranteed", bundle.D_guaranteed, TEXT),
        ("D_used", bundle.D_used, TEXT),
        ("levels", f.domain_radius // bundle.D_used, TEXT),
        ("bundle", bundle, JSON),
        ("covered_radius", f.domain_radius),
        ("final_bound", bundle.final_bound, TEXT),
        ("sup_distance", sup),
        ("validation", "pass"),
        ("warnings", warned),
    ]
    report.emit(fields, args.json)
    return EXIT_OK


def cmd_compose(args) -> int:
    outer = mapfile.parse_map_file(args.a, args.max_vertices)
    inner = mapfile.parse_map_file(args.b, args.max_vertices)
    m = compose(outer, inner)
    mapfile.write_map_file(m, args.out)
    report.emit([("wrote", args.out), ("effective_radius", m.domain_radius)], args.json)
    return EXIT_OK


def cmd_distance(args) -> int:
    a = mapfile.parse_map_file(args.a, args.max_vertices)
    b = mapfile.parse_map_file(args.b, args.max_vertices)
    radius = min(a.domain_radius, b.domain_radius)
    report.emit([("sup_distance", sup_distance(a, b)), ("radius", radius)], args.json)
    return EXIT_OK


def cmd_constants(args) -> int:
    c = _parse_C(args.C)
    bundle = constants(c, args.D_override)
    report.emit(bundle.report_fields(), args.json, one_line=True)
    return EXIT_OK


def cmd_oracle(args) -> int:
    m = mapfile.parse_map_file(args.infile, args.max_vertices)
    candidate = _parse_C(args.C) if args.C is not None else None
    rep = finish_report(
        oracle_measure(m, candidate_C=candidate), m, args.target_radius, args.max_vertices
    )
    report.emit(rep.report_fields("oracle"), args.json)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="treeqi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, infile=False, out=False, ab=False):
        p.add_argument("--max-vertices", type=int, default=DEFAULT_VERTEX_BUDGET)
        p.add_argument("--json", action="store_true")
        if infile:
            p.add_argument("--in", dest="infile", required=True)
        if out:
            p.add_argument("--out", required=True)
        if ab:
            p.add_argument("--a", required=True)
            p.add_argument("--b", required=True)

    p = sub.add_parser("gen-mixed", help="build a mixed-subtree map")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--policy", choices=["minimal", "random", "deepest"], default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace-out", dest="trace_out")
    common(p, out=True)
    p.set_defaults(func=cmd_gen_mixed)

    p = sub.add_parser("verify", help="measure constants and coarse surjectivity")
    p.add_argument("--pairs", default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--C", default=None)
    p.add_argument("--target-radius", dest="target_radius", type=int, default=None)
    common(p, infile=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("verify-mixed", help="check the mixed-construction invariants")
    p.add_argument("--D", type=int, required=True)
    common(p, infile=True)
    p.set_defaults(func=cmd_verify_mixed)

    p = sub.add_parser("normalize", help="order-preserving normalization")
    p.add_argument("--C", required=True)
    common(p, infile=True, out=True)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("approximate", help="approximate by a mixed-subtree map")
    p.add_argument("--C", required=True)
    p.add_argument("--D-override", dest="D_override", type=int, default=None)
    p.add_argument("--trace-out", dest="trace_out")
    common(p, infile=True, out=True)
    p.set_defaults(func=cmd_approximate)

    p = sub.add_parser("compose", help="compose two maps (a after b)")
    common(p, ab=True, out=True)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("distance", help="sup distance between two maps")
    common(p, ab=True)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("constants", help="derived constants for a promised C")
    p.add_argument("--C", required=True)
    p.add_argument("--D-override", dest="D_override", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("oracle", help="brute-force reference measurement")
    p.add_argument("--C", default=None)
    p.add_argument("--target-radius", dest="target_radius", type=int, default=None)
    common(p, infile=True)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ValidationFailure as e:
        fields = [("validation", "fail"), ("kind", e.kind), ("level", e.level), ("class", e.image)]
        if e.value is not None:  # the distance checks state their margin
            fields += [("value", e.value), ("bound", e.bound)]
        report.emit(fields, args.json, one_line=True)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    # ValueError: an argument out of range; OSError: a file that cannot be
    # read or written
    except (UsageError, ValueError, OSError, TreeQIError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main_exit() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_exit()
