"""treeqi benchmark: set-up, timed passes, output gate and metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the program is imported from ./src.  Steps:

1. Set-up: `gen.py` writes the workload's seeded inputs in a fresh process,
   three times with --trace 0 (once with --trace 1); every repetition must
   write identical files.  `setup_s` is the median wall time of one.
2. Timed passes over the workload's fixed job list, repeated until <s>
   seconds have gone by and at least twice.  CLI jobs run one at a time as
   fresh `python -m treeqi` processes; `construct` runs in one library
   process (`construct.py`).  `wall_s` sums each job's median time over the
   passes; `peak_rss_mb` is the highest `ru_maxrss` of any job process.  Every job passes an output
   gate (exit code, report lines, files identical across passes); a job that
   fails it counts in `failed` without stopping the run.
3. With --trace 1, one more pass runs with treeqi's public functions wrapped
   (`tracer.py`), and the per-layer metrics named in BENCHMARK.json are
   computed from its spans, which are kept in .perfbench_work/spans/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

from tracer import now_ns

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("verify-r10", "convert-r14", "construct")
SETUP_REPEATS = 3
MIN_PASSES = 2
# A run that cannot finish inside this budget reports no result.
RUN_DEADLINE_S = 170.0


class DeadlineExceeded(Exception):
    pass


def sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "big"))
        digest.update(chunk)
    return digest.hexdigest()


class Bench:
    """State of one benchmark run: failure counts, peak memory, spans."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.dir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.inputs: Path | None = None  # the first successful set-up's directory
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )}
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0
        self.counts: dict = {}
        self.digests: dict = {}

    # -- processes -------------------------------------------------------

    def spawn(self, argv: list[str], name: str, *, job: bool,
              cwd: Path | None = None) -> tuple[int, float, bytes]:
        """Run one child to completion, by default in the inputs directory;
        returns its exit code, wall seconds and stdout.  Job processes count
        toward peak_rss_mb."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise DeadlineExceeded(f"no time left to start {name}")
        out_path, err_path = self.dir / "stdout", self.dir / f"{name}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd or self.inputs, env=self.env,
                                    stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise DeadlineExceeded(f"{name} ran past the run's time budget")
        if job:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
        return proc.returncode, wall, out_path.read_bytes()

    def fail(self, what: str, problem: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {problem}", file=sys.stderr)

    # -- set-up ----------------------------------------------------------

    def setup(self) -> tuple[dict, list[float]]:
        """Generate the inputs, each repetition in its own directory; the jobs
        use the first that succeeds.  Returns the manifest and the time of
        each successful repetition."""
        walls, reference, manifest = [], None, None
        for rep in range(1 if self.trace else SETUP_REPEATS):
            out = self.dir / f"setup{rep}"
            out.mkdir(parents=True)
            self.attempted += 1
            rc, wall, _ = self.spawn(
                [sys.executable, str(BENCH / "gen.py"), "--workload", self.workload,
                 "--seed", str(self.seed)],
                "setup", job=False, cwd=out,
            )
            if rc != 0:
                self.fail(f"setup {rep}", f"exit code {rc}")
                continue
            walls.append(wall)
            digest = sha256(*(p.name.encode() + p.read_bytes() for p in sorted(out.iterdir())))
            if reference is None:
                reference = digest
                self.inputs = out
                manifest = json.loads((out / "manifest.json").read_text())
            elif digest != reference:
                self.fail(f"setup {rep}", "inputs differ from the first set-up")
        if manifest is None:
            raise RuntimeError("set-up never succeeded; no inputs to run")
        self.counts.update(manifest["counts"])
        return manifest, walls

    # -- CLI workloads -----------------------------------------------------

    def cli_pass(self, jobs: list[dict], spans: list | None) -> list[float]:
        """Every job once; returns each job's wall time.  With `spans`, jobs
        run traced and their spans are appended to it."""
        reports: dict[str, dict] = {}
        walls = []
        classes = 0
        for job in jobs:
            self.attempted += 1
            if spans is None:
                argv = [sys.executable, "-m", "treeqi", *job["argv"]]
            else:
                span_file = self.dir / f"{job['name']}.spans"
                argv = [sys.executable, str(BENCH / "cli_trace.py"), str(span_file),
                        job["name"], str(now_ns()), "--", *job["argv"]]
            rc, wall, stdout = self.spawn(argv, job["name"], job=True)
            walls.append(wall)
            lines = stdout.decode("ascii", "replace").splitlines()
            # `key=value` report fields; the first occurrence of a key wins
            reports[job["name"]] = dict(
                ln.split("=", 1) for ln in reversed(lines) if "=" in ln and " " not in ln
            )
            problems = [] if rc == 0 else [f"exit code {rc}"]
            problems += gate(job, lines, reports)
            outputs = [self.inputs / name for name in job["outputs"]]
            digest = sha256(stdout, *(p.read_bytes() if p.exists() else b"" for p in outputs))
            if self.digests.setdefault(job["name"], digest) != digest:
                problems.append("stdout or written files differ from the first pass")
            for p in outputs:
                if p.suffix == ".trace" and p.exists():
                    classes += sum(ln.startswith("class ") for ln in p.read_text().splitlines())
            if spans is not None:
                job_spans = read_spans(span_file)
                if sum(s["self_ns"] for s in job_spans) > wall * 1e9 + 1e6:
                    problems.append("spans cover more time than the job took")
                spans.extend(job_spans)
            if problems:
                self.fail(job["name"], "; ".join(problems))
        if classes:
            if self.counts.setdefault("classes", classes) != classes:
                self.fail("work counts", f"class count {classes} changed between passes")
        return walls

    def run_cli(self, manifest: dict) -> tuple[list[list[float]], list[float] | None, list]:
        """Timed passes (job wall times per pass), then the traced pass."""
        passes = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < self.seconds:
            passes.append(self.cli_pass(manifest["jobs"], None))
        if not self.trace:
            return passes, None, []
        spans: list = []
        traced = self.cli_pass(manifest["jobs"], spans)
        return passes, traced, spans

    # -- library workload --------------------------------------------------

    def construct_worker(self, trace_file: Path | None) -> dict:
        argv = [sys.executable, str(BENCH / "construct.py"), "manifest.json",
                "--seconds", str(self.seconds)]
        if trace_file is not None:
            argv += ["--trace", str(trace_file)]
        rc, _, stdout = self.spawn(argv, "construct", job=True)
        if rc != 0:
            raise RuntimeError(f"construct worker exited with code {rc}")
        result = json.loads(stdout.decode().splitlines()[-1])
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        if result["failed"]:
            print(f"FAILED construct: {result['failed']} builds", file=sys.stderr)
        if len(set(result["classes"])) != 1:
            self.fail("work counts", f"class counts changed between passes: {result['classes']}")
        return result

    def run_construct(self) -> tuple[list[list[float]], list[float] | None, list]:
        plain = self.construct_worker(None)
        self.counts["classes"] = plain["classes"][0]
        self.digests["construct"] = plain["digest"]
        if not self.trace:
            return plain["walls"], None, []
        span_file = self.dir / "construct.spans"
        traced = self.construct_worker(span_file)
        if (traced["digest"], traced["classes"][0]) != (plain["digest"], plain["classes"][0]):
            self.fail("construct", "traced pass wrote different files")
        spans = read_spans(span_file)
        if sum(s["self_ns"] for s in spans) > sum(traced["walls"][0]) * 1e9 + 1e6:
            self.fail("construct", "spans cover more time than the pass took")
        return plain["walls"], traced["walls"][0], spans

    # -- cross-run record ----------------------------------------------------

    def check_record(self) -> None:
        """Work counts and output digests must repeat in every run of one seed."""
        record = {"counts": self.counts, "digests": self.digests}
        path = WORK / "records" / f"{self.workload}-seed{self.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        self.attempted += 1
        if path.exists():
            if json.loads(path.read_text()) != record:
                self.fail("record", f"counts or outputs differ from an earlier run ({path.name})")
        else:
            path.write_text(json.dumps(record, sort_keys=True))


def gate(job: dict, lines: list[str], reports: dict) -> list[str]:
    """Problems with one CLI job's report lines against the manifest's
    expectations; `reports` maps job names to their `key=value` fields."""
    report = reports[job["name"]]
    problems = [f"missing '{ln}'" for ln in job["lines"] if ln not in lines]
    problems += [f"unexpected '{ln}'" for ln in lines if ln.startswith("warning=")]
    for key, bound in job["le"]:
        try:
            value = Fraction(report[key])
            limit = Fraction(report[bound]) if bound in report else Fraction(bound)
        except (KeyError, ValueError) as exc:
            problems.append(f"cannot compare {key} <= {bound}: {exc!r}")
            continue
        if value > limit:
            problems.append(f"{key}={value} exceeds {bound}={limit}")
    for key, other in job["same_as"]:
        if report.get(key) is None or report.get(key) != reports.get(other, {}).get(key):
            problems.append(f"{key} differs from the {other} job")
    return problems


def read_spans(path: Path) -> list[dict]:
    """Spans of one process, each with its self time (duration minus children)."""
    spans = [json.loads(ln) for ln in path.read_text().splitlines()] if path.exists() else []
    child_ns: dict = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end"] - s["start"]
    for s in spans:
        s["self_ns"] = s["end"] - s["start"] - child_ns.get(s["id"], 0)
    return spans


def layer_metric(name: str, spans: list[dict], trace_wall: float, plain_wall: float) -> float:
    """One per-layer metric: `<module>.<function>.<quantity>` over the spans
    of the traced pass, or one of the run-level `cli.startup_s` and
    `trace.{wall_s,overhead_s,unspanned_s}`."""
    if name == "cli.startup_s":
        return sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.startup") / 1e9
    if name == "trace.wall_s":
        return trace_wall
    if name == "trace.overhead_s":
        return trace_wall - plain_wall
    if name == "trace.unspanned_s":
        return trace_wall - sum(s["self_ns"] for s in spans) / 1e9
    span_name, _, quantity = name.rpartition(".")
    mine = [s for s in spans if s["name"] == span_name]
    if quantity == "self_s":
        return sum(s["self_ns"] for s in mine) / 1e9
    if quantity == "calls":
        return len(mine)
    if quantity == "rss_raise_mb":
        return max((s["rss_raise_kb"] for s in mine), default=0) / 1024
    return sum(s["counts"].get(quantity, 0) for s in mine)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "treeqi" / "__init__.py").is_file():
        print(f"error: no treeqi package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # on SIGTERM, unwind through spawn(), which kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(bench.dir, ignore_errors=True)
    try:
        manifest, setup_walls = bench.setup()
        if args.workload == "construct":
            passes, traced, spans = bench.run_construct()
        else:
            passes, traced, spans = bench.run_cli(manifest)
        bench.digests["manifest"] = sha256((bench.inputs / "manifest.json").read_bytes())
        bench.check_record()
    except (DeadlineExceeded, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)

    # each job's median over the passes, summed over the job list
    wall = sum(statistics.median(job) for job in zip(*passes))
    if args.trace:
        span_dir = WORK / "spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        with open(span_dir / f"{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
        metrics = {
            m["name"]: {"value": layer_metric(m["name"], spans, sum(traced), wall),
                        "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        values = {
            "setup_s": statistics.median(setup_walls),
            "wall_s": wall,
            "peak_rss_mb": bench.peak_rss_kb / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, metric in metrics.items():
        value = metric["value"]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<48} {shown} {metric['unit']}")
    print(f"  {'fail_frac':<48} {bench.failed / bench.attempted:>14.6g} ratio"
          f"  ({bench.failed} of {bench.attempted} operations)")
    print(f"  passes: {len(passes)}, pass walls (s): "
          f"{', '.join(f'{sum(p):.3f}' for p in passes)}")
    print(f"  work counts: {json.dumps(bench.counts, sort_keys=True)}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
