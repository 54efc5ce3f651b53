"""Run one treeqi CLI command with its public functions traced.

    python perfbench/cli_trace.py <spans-out> <job-id> <spawn-ns> -- <treeqi args>

<spawn-ns> is the CLOCK_MONOTONIC time at which the caller started this
process; the span `cli.startup` runs from it to the entry of
`treeqi.cli.main`.  The spans are written to <spans-out> when main returns,
and the process exits with main's exit code.
"""

from __future__ import annotations

import sys

import tracer


def main() -> int:
    spans_out, job, spawn_ns, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    rec = tracer.Tracer(job)
    tracer.install(rec)
    import treeqi.cli

    rec.record("cli.startup", int(spawn_ns), tracer.now_ns())
    try:
        return treeqi.cli.main(argv)
    finally:
        rec.write(spans_out)


if __name__ == "__main__":
    sys.exit(main())
