"""Tracing overhead: alternate untraced and traced jobs in one process.

    python3 perfbench/overhead.py --workload recover-9q --pairs 10

Prints the median job time without and with tracing, and their difference.
Pairing adjacent jobs keeps slow phases of a shared machine out of the
difference, which two separate runs would not.
"""

from __future__ import annotations

import run  # pins BLAS threads before numpy loads

import argparse
import statistics
import sys

import tracing
import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    cli, cycle = run.setup(args.workload, args.seed, run.OUT / f"work-{args.workload}")
    run.run_loop(cli, cycle, None, jobs=1)  # warm-up
    plain, traced = [], []
    for i in range(args.pairs):
        job = [cycle[i % len(cycle)]]
        tally, _ = run.run_loop(cli, job, None, jobs=1)
        plain += tally.times
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tally, _ = run.run_loop(cli, job, tracer, jobs=1)
        finally:
            tracer.uninstall()
        traced += tally.times
    off, on = statistics.median(plain), statistics.median(traced)
    print(f"{args.workload}: untraced {off:.4f} s, traced {on:.4f} s, "
          f"overhead {on - off:+.4f} s ({(on - off) / off:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
