"""Seeded input generator for the treeqi benchmark.

    python perfbench/gen.py --workload <name> --seed <n>

Run from the directory that should receive the inputs, with treeqi on
PYTHONPATH.  Writes the workload's map files and `manifest.json`: the job
list (CLI arguments, files each job writes, and the report lines its output
must contain), the constants measured here with `measure_qi`, and the
workload's fixed work counts.  The same seed writes byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import warnings
from pathlib import Path

import treeqi as tq

SHAPE = tq.TreeShape(3)

VERIFY_RADIUS = 10
GEODESIC_RADIUS = 7
MIXED_STEP, MIXED_LEVELS = 2, 5
# The random policy's deepest image varies with the seed (15 to 21 at
# radius 10), and the pair kernel's time and memory grow with that depth.
# Builds are drawn until one reaches the most common depth, so every seed
# gives the kernel the same amount of work.
MIXED_IMAGE_DEPTH = 18
MIXED_DRAWS = 500
SAMPLED_PAIRS = 20_000

CONVERT_RADIUS = 14
NORMALIZE_C = 3
APPROXIMATE_C = 1
PROMISE_SAMPLE = 50_000

CONSTRUCT_SHAPES = ((3, 2, 4), (4, 2, 3), (5, 2, 2), (3, 3, 3))
CONSTRUCT_RANDOM_SEEDS = 6


def _pairs(radius: int) -> int:
    n = tq.ball_size(SHAPE, radius)
    return n * (n - 1) // 2


def _normalized_perturbed(radius: int, rng: random.Random) -> tq.FiniteTreeMap:
    auto = tq.random_automorphism_map(SHAPE, radius, rng.randrange(2**31))
    perturbed = tq.perturb_map_in_subtree(auto, rng.randrange(2**31))
    with warnings.catch_warnings():
        warnings.simplefilter("error", tq.PromiseWarning)
        return tq.normalize_order_preserving(perturbed, NORMALIZE_C)


def _deep_mixed_build(rng: random.Random) -> tq.FiniteTreeMap:
    for _ in range(MIXED_DRAWS):
        policy = tq.MixedPolicy.random(rng.randrange(2**31))
        m, _ = tq.build_mixed(SHAPE, MIXED_STEP, MIXED_LEVELS, policy)
        if max(len(w) for w in m.table.values()) == MIXED_IMAGE_DEPTH:
            return m
    raise SystemExit(f"no build reached image depth {MIXED_IMAGE_DEPTH} in {MIXED_DRAWS} draws")


def _job(name, argv, *, lines=(), le=(), same_as=(), outputs=()) -> dict:
    """One CLI job and its output gate: required report lines, `key <= bound`
    checks (bound is a number or another key), and keys whose value must equal
    the same key in an earlier job's report."""
    return {
        "name": name,
        "argv": list(argv),
        "outputs": list(outputs),
        "lines": list(lines),
        "le": [list(x) for x in le],
        "same_as": [list(x) for x in same_as],
    }


def gen_verify(seed: int) -> dict:
    rng = random.Random(seed)
    auto = _normalized_perturbed(VERIFY_RADIUS, rng)
    mixed = _deep_mixed_build(rng)
    small = _normalized_perturbed(GEODESIC_RADIUS, rng)
    sample_seed = rng.randrange(2**31)
    inputs = {"auto10.qi": auto, "mixed10.qi": mixed, "auto7.qi": small}
    C = {name: tq.measure_qi(m).best_single_C for name, m in inputs.items()}
    for name, m in inputs.items():
        tq.write_map_file(m, name)

    big, geo = _pairs(VERIFY_RADIUS), _pairs(GEODESIC_RADIUS)
    jobs = []
    for name in ("auto10.qi", "mixed10.qi"):
        stem = name.removesuffix(".qi")
        jobs.append(_job(
            f"verify-{stem}-exhaustive",
            ["verify", "--in", name, "--pairs", "exhaustive"],
            lines=[f"pairs_checked={big}", f"best_single_C={C[name]}", "violations=0"],
        ))
    for name in ("auto10.qi", "mixed10.qi"):
        stem = name.removesuffix(".qi")
        jobs.append(_job(
            f"verify-{stem}-sampled",
            ["verify", "--in", name, "--pairs", f"sampled:{SAMPLED_PAIRS}",
             "--seed", str(sample_seed), "--C", str(C[name])],
            lines=[f"pairs_checked={SAMPLED_PAIRS}", "violations=0"],
            le=[("best_single_C", str(C[name]))],
        ))
    jobs.append(_job(
        "verify-auto7-geodesic",
        ["verify", "--in", "auto7.qi", "--pairs", "exhaustive", "--C", str(C["auto7.qi"])],
        lines=[f"pairs_checked={geo}", f"best_single_C={C['auto7.qi']}", "violations=0"],
    ))
    vertices = sum(len(inputs[j["argv"][2]].domain) for j in jobs)
    return {
        "jobs": jobs,
        "measured_C": {k: str(v) for k, v in C.items()},
        "counts": {
            "jobs": len(jobs),
            "pairs_measured": 2 * big + 2 * SAMPLED_PAIRS + geo,
            "pairs_geodesic": 2 * SAMPLED_PAIRS + geo,
            "vertices_read": vertices,
            "label_columns_mixed": MIXED_IMAGE_DEPTH,
        },
    }


def gen_convert(seed: int) -> dict:
    rng = random.Random(seed)
    auto = tq.random_automorphism_map(SHAPE, CONVERT_RADIUS, rng.randrange(2**31))
    perturbed = tq.perturb_map_in_subtree(auto, rng.randrange(2**31))
    sample = tq.PairSource.sampled(PROMISE_SAMPLE, rng.randrange(2**31))
    C = {
        "auto14.qi": tq.measure_qi(auto, sample).best_single_C,
        "pert14.qi": tq.measure_qi(perturbed, sample).best_single_C,
    }
    if C["auto14.qi"] > APPROXIMATE_C or C["pert14.qi"] > NORMALIZE_C:
        raise SystemExit(f"sampled constants {C} break the promised C values")
    tq.write_map_file(auto, "auto14.qi")
    tq.write_map_file(perturbed, "pert14.qi")

    r = CONVERT_RADIUS
    D = tq.constants(APPROXIMATE_C).D_guaranteed
    jobs = [
        _job(
            "normalize",
            ["normalize", "--in", "pert14.qi", "--C", str(NORMALIZE_C), "--out", "norm14.qi"],
            lines=["order_preserving=true"],
            le=[("sup_distance", "bound")],
            outputs=["norm14.qi"],
        ),
        _job(
            "approximate",
            ["approximate", "--in", "auto14.qi", "--C", str(APPROXIMATE_C),
             "--out", "approx14.qi", "--trace-out", "approx14.trace"],
            lines=["validation=pass", f"D_used={D}", f"levels={r // D}", f"covered_radius={r}"],
            le=[("sup_distance", "final_bound")],
            outputs=["approx14.qi", "approx14.trace"],
        ),
        _job(
            "verify-mixed",
            ["verify-mixed", "--in", "approx14.qi", "--D", str(D)],
            lines=["passed=true", f"radius={r}"],
        ),
        _job(
            "distance",
            ["distance", "--a", "approx14.qi", "--b", "auto14.qi"],
            lines=[f"radius={r}"],
            same_as=[("sup_distance", "approximate")],
        ),
        _job(
            "compose",
            ["compose", "--a", "norm14.qi", "--b", "approx14.qi", "--out", "comp14.qi"],
            lines=[f"effective_radius={r}"],
            outputs=["comp14.qi"],
        ),
    ]
    n = len(auto.domain)
    return {
        "jobs": jobs,
        "measured_C": {k: str(v) for k, v in C.items()},
        "counts": {
            "jobs": len(jobs),
            "vertices_read": 7 * n,
            "vertices_written": 3 * n,
            "promise_pairs": 2 * PROMISE_SAMPLE,
        },
    }


def gen_construct(seed: int) -> dict:
    rng = random.Random(seed)
    builds = []
    for degree, step, levels in CONSTRUCT_SHAPES:
        policies = [["minimal", None], ["deepest", None]]
        policies += [["random", rng.randrange(2**31)] for _ in range(CONSTRUCT_RANDOM_SEEDS)]
        for policy, policy_seed in policies:
            builds.append({
                "degree": degree, "step": step, "levels": levels,
                "policy": policy, "seed": policy_seed,
            })
    vertices = sum(tq.ball_size(tq.TreeShape(b["degree"]), b["step"] * b["levels"]) for b in builds)
    return {
        "builds": builds,
        "counts": {"builds": len(builds), "vertices_written": vertices},
    }


GENERATORS = {"verify-r10": gen_verify, "convert-r14": gen_convert, "construct": gen_construct}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    manifest = {"workload": args.workload, "seed": args.seed, **GENERATORS[args.workload](args.seed)}
    Path("manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
