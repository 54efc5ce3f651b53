"""Measure the peak memory of importing the CLI with no bytecode cache.

    python tools/import_peak.py [src-dir ...]

For each source directory (default: the repository's src) start 8 fresh
`python -c "import treeqi.cli"` processes with PYTHONDONTWRITEBYTECODE=1,
so each one compiles the package as a CLI job of the benchmark does, and
print the median of their peak resident sets (`ru_maxrss`, read with
`os.wait4`) in MB.  Module size moves this figure in steps of about
0.25 MB, so two checkouts can be compared before the benchmark is run.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

_RUNS = 8


def _peak_mb(src: Path) -> float:
    """ru_maxrss of one fresh process that imports treeqi.cli from src, in MB."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen([sys.executable, "-c", "import treeqi.cli"], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"import treeqi.cli from {src} exited {proc.returncode}")
    return usage.ru_maxrss / 1024


def main(argv: list[str]) -> None:
    dirs = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent / "src"]
    for src in dirs:
        peaks = [_peak_mb(src) for _ in range(_RUNS)]
        print(f"{statistics.median(peaks):.2f} MB  {src}")


if __name__ == "__main__":
    main(sys.argv[1:])
