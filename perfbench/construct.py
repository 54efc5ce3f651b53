"""Construct workload: many small mixed-subtree builds in one process.

    python perfbench/construct.py <manifest.json> --seconds <s> [--trace <spans-out>]

Run from the inputs directory, with treeqi on PYTHONPATH.  Each build runs
`build_mixed`, writes the map and trace files, parses the trace back,
replays it with `MixedPolicy.explicit`, requires the replay to dump
byte-identically to the written map, and requires `verify_mixed_structure`
to pass.  One untimed pass over the build list fills the caches; then
passes repeat until <s> seconds have gone by (at least two).  With --trace,
a single traced pass follows the warm-up instead, and its spans are written
to <spans-out>.  Prints one JSON object: each build's wall time per pass,
attempted and failed builds, work counts and output digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import treeqi as tq

import tracer

MIN_PASSES = 2


def _policy(build: dict) -> tq.MixedPolicy:
    if build["policy"] == "minimal":
        return tq.MixedPolicy.minimal()
    if build["policy"] == "deepest":
        return tq.MixedPolicy.deepest_feasible()
    return tq.MixedPolicy.random(build["seed"])


def run_build(build: dict, index: int) -> tuple[bool, int]:
    """One build; returns whether its output gate passed and its class count."""
    shape = tq.TreeShape(build["degree"])
    step, levels = build["step"], build["levels"]
    m, trace = tq.build_mixed(shape, step, levels, _policy(build))
    map_path, trace_path = Path(f"build{index}.qi"), Path(f"build{index}.trace")
    tq.write_map_file(m, map_path)
    tq.write_trace_file(trace, trace_path)
    replayed, _ = tq.build_mixed(
        shape, step, levels, tq.MixedPolicy.explicit(tq.parse_trace_file(trace_path))
    )
    same = tq.dump_map_text(replayed) == map_path.read_text(encoding="ascii")
    return same and tq.verify_mixed_structure(m, step).passed, len(trace.classes)


def run_pass(builds: list, rec: tracer.Tracer | None) -> dict:
    """Every build once; a build that raises counts as failed."""
    oks, walls = [], []
    classes = 0
    for i, build in enumerate(builds):
        if rec is not None:
            rec.job = f"build{i}"
        start = time.perf_counter()
        try:
            ok, n = run_build(build, i)
        except Exception as exc:  # one failed build must not stop the pass
            print(f"build{i}: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok, n = False, 0
        walls.append(time.perf_counter() - start)
        oks.append(ok)
        classes += n
    digests = [_digest(i) for i in range(len(builds))]
    return {"walls": walls, "oks": oks, "classes": classes, "digests": digests}


def _digest(index: int) -> str:
    digest = hashlib.sha256()
    for path in (Path(f"build{index}.qi"), Path(f"build{index}.trace")):
        digest.update(path.read_bytes() if path.exists() else b"missing")
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    builds = json.loads(Path(args.manifest).read_text())["builds"]

    passes = [run_pass(builds, None)]
    if args.trace:
        rec = tracer.Tracer("build")
        tracer.install(rec)
        passes.append(run_pass(builds, rec))
        rec.write(args.trace)
    else:
        start = time.perf_counter()
        while len(passes) <= MIN_PASSES or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(builds, None))
    warmup, timed = passes[0], passes[1:]
    print(json.dumps({
        "walls": [p["walls"] for p in timed],
        "attempted": len(builds) * len(passes),
        "failed": sum(
            not ok or digest != first
            for p in passes
            for ok, digest, first in zip(p["oks"], p["digests"], warmup["digests"])
        ),
        "classes": [p["classes"] for p in passes],
        "digest": hashlib.sha256("".join(warmup["digests"]).encode()).hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
