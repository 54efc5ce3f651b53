"""Measure the memory that compiling treeqi costs a CLI job with no bytecode cache.

    python tools/import_peak.py [src-dir ...]

For each source directory (default: the repository's src) print, from fresh
processes run with PYTHONDONTWRITEBYTECODE=1 as the benchmark's CLI jobs
run:

- the median peak resident set (`ru_maxrss`, read with `os.wait4`) of 8
  `python -m treeqi verify` jobs on a one-vertex map, in MB: each compiles
  every module that `verify` imports and does almost no other work;
- the median peak of 5 runs of each job of the radius-14 conversions, in
  MB, in the order they run: `normalize` at C = 3 of a perturbed copy of
  a degree-3 radius-14 random automorphism (49,150 vertices, seed 7),
  `approximate --trace-out` at C = 1 of the automorphism, `verify-mixed`
  of the approximation, `distance` between the automorphism and the
  approximation and `compose` of the normalized map after the
  approximation (two map reads each).  The largest of these is the peak
  of the radius-14 conversions.  The two maps are generated in a
  temporary directory by the first source directory's treeqi;
- the median peak of 5 library processes that each run the seed-7
  construct builds in 3 passes, as the benchmark's construct process runs
  a warm-up and at least two timed passes: shapes (degree, D, levels)
  (3, 2, 4), (4, 2, 3), (5, 2, 2) and (3, 3, 3), each with the minimal, the
  deepest and six random policies, whose seeds are drawn from
  `random.Random(7)` as the benchmark's construct generator draws them (32
  builds).  Each build's map and trace are written, the trace is read back
  and replayed to the same map text, and the map's structure is verified.
  A process's peak still rises with each further pass (by 0.05-0.15 MB a
  pass past the third on a 2-core host), so the figure compares two
  checkouts, and reads below the benchmark's `peak_rss_mb`, which repeats
  passes for its run time;
- for each module of the package, the median of 5 processes of how much
  compiling its source raises the peak of a process that has imported
  numpy, in MB.  The largest such step of the modules a job loads is what
  the compile adds to the job's peak.

Module size moves these figures in steps of about 0.12-0.25 MB, and the
whole-ball tables of a job move its peak by megabytes, so two checkouts can
be compared before the benchmark is run.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

_RUNS = 8
_CONVERT_RUNS = 5
_CONSTRUCT_RUNS = 5
_MODULE_RUNS = 5
_ONE_VERTEX_MAP = "tree-qi v1 degree=3 radius=0\n. .\n"
# run in a fresh process inside the directory argv[1]: 3 passes of the seed-7
# construct builds
_CONSTRUCT = (
    "import os, random, sys\n"
    "import treeqi as tq\n"
    "os.chdir(sys.argv[1])\n"
    "builds = []\n"
    "rng = random.Random(7)\n"
    "for d, step, levels in ((3, 2, 4), (4, 2, 3), (5, 2, 2), (3, 3, 3)):\n"
    "    policies = [tq.MixedPolicy.minimal(), tq.MixedPolicy.deepest_feasible()]\n"
    "    policies += [tq.MixedPolicy.random(rng.randrange(2**31)) for _ in range(6)]\n"
    "    builds += [(tq.TreeShape(d), step, levels, policy) for policy in policies]\n"
    "for _ in range(3):\n"
    "    for shape, step, levels, policy in builds:\n"
    "        m, trace = tq.build_mixed(shape, step, levels, policy)\n"
    "        tq.write_map_file(m, 'build.qi')\n"
    "        tq.write_trace_file(trace, 'build.trace')\n"
    "        replay = tq.MixedPolicy.explicit(tq.parse_trace_file('build.trace'))\n"
    "        replayed, _ = tq.build_mixed(shape, step, levels, replay)\n"
    "        assert tq.dump_map_text(replayed) == open('build.qi').read()\n"
    "        assert tq.verify_mixed_structure(m, step).passed\n"
)
# run in a fresh process: write the radius-14 automorphism to argv[1] and a
# perturbed copy to argv[2], and print the step depth that the
# approximation at C = 1 uses
_GENERATE = (
    "import sys\n"
    "import treeqi as tq\n"
    "auto = tq.random_automorphism_map(tq.TreeShape(3), 14, 7)\n"
    "tq.write_map_file(auto, sys.argv[1])\n"
    "tq.write_map_file(tq.perturb_map_in_subtree(auto, 7), sys.argv[2])\n"
    "print(tq.constants(1).D_used)\n"
)
# run in a fresh process: the rise of ru_maxrss (KB) across compiling argv[1]
_COMPILE = (
    "import resource, sys\n"
    "import numpy\n"
    "source = open(sys.argv[1], encoding='utf-8').read()\n"
    "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "compile(source, sys.argv[1], 'exec', dont_inherit=True)\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
)


def _env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")


def _peak_mb(src: Path, name: str, *args: str) -> float:
    """ru_maxrss of one fresh `python <args>` process, named `name` if it fails, in MB."""
    proc = subprocess.Popen([sys.executable, *args], env=_env(src), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"{name} from {src} exited {proc.returncode}")
    return usage.ru_maxrss / 1024


def _median_peak_mb(src: Path, runs: int, name: str, *args: str) -> float:
    return statistics.median(_peak_mb(src, name, *args) for _ in range(runs))


def _compile_rise_mb(src: Path, module: Path) -> float:
    """How much compiling `module` raises the peak of a process with numpy, in MB."""
    cmd = [sys.executable, "-c", _COMPILE, str(module)]
    out = subprocess.run(cmd, env=_env(src), capture_output=True, text=True, check=True)
    return int(out.stdout) / 1024


def main(argv: list[str]) -> None:
    dirs = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent / "src"]
    with tempfile.TemporaryDirectory() as tmp:
        map_path, auto, pert, norm, approx = (
            os.path.join(tmp, f) for f in ("one.qi", "auto.qi", "pert.qi", "norm.qi", "approx.qi")
        )
        Path(map_path).write_text(_ONE_VERTEX_MAP, encoding="ascii")
        cmd = [sys.executable, "-c", _GENERATE, auto, pert]
        out = subprocess.run(cmd, env=_env(dirs[0]), capture_output=True, text=True, check=True)
        step = out.stdout.strip()
        jobs = {
            "normalize": ["--in", pert, "--C", "3", "--out", norm],
            "approximate --trace-out": [
                "--in", auto, "--C", "1", "--out", approx, "--trace-out", approx + ".trace"
            ],
            "verify-mixed": ["--in", approx, "--D", step],
            "distance": ["--a", auto, "--b", approx],
            "compose": ["--a", norm, "--b", approx, "--out", os.path.join(tmp, "comp.qi")],
        }
        for src in dirs:
            peak = _median_peak_mb(src, _RUNS, "verify", "-m", "treeqi", "verify", "--in", map_path)
            print(f"{peak:.2f} MB  {src}  (verify job)")
            for name, argv in jobs.items():
                job = ["-m", "treeqi", name.split()[0], *argv]
                peak = _median_peak_mb(src, _CONVERT_RUNS, name, *job)
                print(f"{peak:.2f} MB  {src}  (radius-14 {name} job)")
            peak = _median_peak_mb(src, _CONSTRUCT_RUNS, "construct", "-c", _CONSTRUCT, tmp)
            print(f"{peak:.2f} MB  {src}  (seed-7 construct process, 3 passes)")
            for module in sorted((src / "treeqi").glob("*.py")):
                rises = [_compile_rise_mb(src, module) for _ in range(_MODULE_RUNS)]
                print(f"  {statistics.median(rises):.2f} MB  {module.name}")


if __name__ == "__main__":
    main(sys.argv[1:])
