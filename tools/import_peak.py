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
_MODULE_RUNS = 5
_ONE_VERTEX_MAP = "tree-qi v1 degree=3 radius=0\n. .\n"
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


def _job_peak_mb(src: Path, *argv: str) -> float:
    """ru_maxrss of one fresh `python -m treeqi <argv>` job, in MB."""
    args = [sys.executable, "-m", "treeqi", *argv]
    proc = subprocess.Popen(args, env=_env(src), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"treeqi {argv[0]} from {src} exited {proc.returncode}")
    return usage.ru_maxrss / 1024


def _median_peak_mb(src: Path, runs: int, *argv: str) -> float:
    return statistics.median(_job_peak_mb(src, *argv) for _ in range(runs))


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
            peak = _median_peak_mb(src, _RUNS, "verify", "--in", map_path)
            print(f"{peak:.2f} MB  {src}  (verify job)")
            for name, argv in jobs.items():
                peak = _median_peak_mb(src, _CONVERT_RUNS, name.split()[0], *argv)
                print(f"{peak:.2f} MB  {src}  (radius-14 {name} job)")
            for module in sorted((src / "treeqi").glob("*.py")):
                rises = [_compile_rise_mb(src, module) for _ in range(_MODULE_RUNS)]
                print(f"  {statistics.median(rises):.2f} MB  {module.name}")


if __name__ == "__main__":
    main(sys.argv[1:])
