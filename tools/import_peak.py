"""Measure the memory that compiling treeqi costs a CLI job with no bytecode cache.

    python tools/import_peak.py [src-dir ...]

For each source directory (default: the repository's src) print, from fresh
processes run with PYTHONDONTWRITEBYTECODE=1 as the benchmark's CLI jobs
run:

- the median peak resident set (`ru_maxrss`, read with `os.wait4`) of 8
  `python -m treeqi verify` jobs on a one-vertex map, in MB: each compiles
  every module that `verify` imports and does almost no other work;
- for each module of the package, the median of 5 processes of how much
  compiling its source raises the peak of a process that has imported
  numpy, in MB.  The largest such step of the modules a job loads is what
  the compile adds to the job's peak.

Module size moves these figures in steps of about 0.12-0.25 MB, so two
checkouts can be compared before the benchmark is run.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

_RUNS = 8
_MODULE_RUNS = 5
_ONE_VERTEX_MAP = "tree-qi v1 degree=3 radius=0\n. .\n"
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


def _job_peak_mb(src: Path, map_path: str) -> float:
    """ru_maxrss of one fresh `verify` job on the map at map_path, in MB."""
    args = [sys.executable, "-m", "treeqi", "verify", "--in", map_path]
    proc = subprocess.Popen(args, env=_env(src), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"treeqi verify from {src} exited {proc.returncode}")
    return usage.ru_maxrss / 1024


def _compile_rise_mb(src: Path, module: Path) -> float:
    """How much compiling `module` raises the peak of a process with numpy, in MB."""
    cmd = [sys.executable, "-c", _COMPILE, str(module)]
    out = subprocess.run(cmd, env=_env(src), capture_output=True, text=True, check=True)
    return int(out.stdout) / 1024


def main(argv: list[str]) -> None:
    dirs = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent / "src"]
    with tempfile.TemporaryDirectory() as tmp:
        map_path = os.path.join(tmp, "one.qi")
        Path(map_path).write_text(_ONE_VERTEX_MAP, encoding="ascii")
        for src in dirs:
            peaks = [_job_peak_mb(src, map_path) for _ in range(_RUNS)]
            print(f"{statistics.median(peaks):.2f} MB  {src}  (verify job)")
            for module in sorted((src / "treeqi").glob("*.py")):
                rises = [_compile_rise_mb(src, module) for _ in range(_MODULE_RUNS)]
                print(f"  {statistics.median(rises):.2f} MB  {module.name}")


if __name__ == "__main__":
    main(sys.argv[1:])
