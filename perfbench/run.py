"""losskit benchmark: one workload, one closed-loop client, one JSON result.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
Generated configs, job outputs and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy can load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3
TAIL_BEYOND = 10       # the tail percentile keeps at least this many jobs beyond it

END_TO_END_UNITS = {"job_p50_s": "s", "jobs_per_s": "1/s", "job_tail_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = (
    "qsim.measure.calls", "qsim.measure.self_s",
    "qsim.state_check.calls", "qsim.state_check.self_s",
    "qsim.density.self_s", "qsim.apply_channel.self_s", "qsim.partial_trace.self_s",
    "qsim.apply_gate.calls", "qsim.apply_gate.self_s", "qsim.fidelity_pure.self_s",
    "qsim.expectation.calls", "qsim.expectation.self_s",
    "codes.encode.self_s",
    "recovery.execute_recovery.calls", "recovery.execute_recovery.self_s",
    "recovery.execute_recovery.zero_prob", "recovery.erase.self_s",
    "recovery.plan_recovery.self_s", "recovery.measures_per_branch", "recovery.branch_rows",
    "cluster.loss_tolerant_rotation.calls", "cluster.loss_tolerant_rotation.self_s",
    "cluster.run_pattern.self_s",
    "tomography.decompose_projector.self_s", "tomography.group_settings.self_s",
    "tomography.simulate_counts.self_s", "tomography.estimate_fidelity.self_s",
    "tomography.settings",
    "cli.config.self_s", "cli.runner.self_s", "cli.render_output.self_s",
    "trace.job_p50_s",
)


def load_losskit():
    """Import the CLI from this checkout's ``src``; exit with an error if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from losskit import cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import losskit from {src}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: losskit was imported from {cli.__file__}, not {src}")
    return cli


def setup(workload: str, seed: int, work: Path):
    """What every run pays before its first job: import losskit, write configs."""
    cli = load_losskit()
    return cli, workloads.build(workload, seed, work)


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that only set up."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                        "--workload", workload, "--seed", str(seed)],
                       cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       check=True)  # no timeout: Popen.wait(timeout) polls in 50 ms steps
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


@dataclass
class Tally:
    """Jobs run by one loop and what came of them."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True          # no job produced a wrong output
    times: list[float] = field(default_factory=list)
    stats: Counter = field(default_factory=Counter)


def run_call(cli, call) -> tuple[float, bool, list[str], Counter]:
    """One CLI call, then its check; returns (call seconds, raised, problems, row stats)."""
    start = time.perf_counter()
    try:
        cli.main(call.argv(), standalone_mode=False)
    except Exception:  # a job that raises is counted as failed; the run goes on
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return seconds, True, [], Counter()
    seconds = time.perf_counter() - start
    problems, counts = call.check(call.out.read_text())
    return seconds, False, problems, Counter({f"{call.command}.{k}": v
                                              for k, v in counts.items()})


def run_loop(cli, cycle, tracer: tracing.Tracer | None, *, seconds: float | None = None,
             jobs: int | None = None) -> tuple[Tally, float]:
    """Run jobs from ``cycle`` back to back, for ``seconds`` or ``jobs`` jobs.

    Only the CLI calls are timed per job; checks run between them.  Returns
    the tally and the loop's wall time.
    """
    tally = Tally()
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds if jobs is None
           else tally.attempted < jobs):
        job = cycle[tally.attempted % len(cycle)]
        if tracer is not None:
            tracer.job = tally.attempted
        elapsed, ok = 0.0, True
        for call in job:
            if tracer is not None:
                tracer.command = call.command
            call_s, raised, problems, counts = run_call(cli, call)
            elapsed += call_s
            tally.stats.update(counts)
            if problems:
                print(f"perfbench: {call.command} output is wrong:", *problems[:5],
                      sep="\n  ", file=sys.stderr)
                tally.correct = False
            if raised or problems:
                ok = False
                break
        tally.attempted += 1
        tally.failed += not ok
        tally.times.append(elapsed)
    return tally, time.perf_counter() - start


def job_tail(times: list[float]) -> float:
    """The highest percentile with at least TAIL_BEYOND jobs beyond it.

    When that percentile would not lie above the median (fewer than
    2 * TAIL_BEYOND + 2 jobs) there is no tail, and the median is reported.
    """
    if len(times) < 2 * TAIL_BEYOND + 2:
        return statistics.median(times)
    return sorted(times)[len(times) - TAIL_BEYOND - 1]


def layer_metrics(tracer: tracing.Tracer, stats: Counter, jobs: int,
                  times: list[float]) -> dict[str, float]:
    per_job = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "self_s":
            per_job[name] = tracer.self_s[layer] / jobs
        elif kind in ("calls", "zero_prob"):
            key = layer if kind == "calls" else f"{layer}.zero_prob"
            per_job[name] = tracer.calls[key] / jobs
    rows = stats["recover.branch_rows"]
    per_job["recovery.branch_rows"] = rows / jobs
    per_job["recovery.measures_per_branch"] = (
        tracer.calls["qsim.measure@recover"] / rows if rows else 0.0)
    per_job["tomography.settings"] = (stats["encode.settings"]
                                      + stats["cluster-fidelity.settings"]) / jobs
    per_job["trace.job_p50_s"] = statistics.median(times)
    return per_job


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup(args.workload, args.seed, OUT / f"probe-{args.workload}")
        return 0

    cli, cycle = setup(args.workload, args.seed, OUT / f"work-{args.workload}")
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    warm, _ = run_loop(cli, cycle, tracer, jobs=1)  # not timed
    if tracer is not None:
        tracer.reset()
    tally, wall = run_loop(cli, cycle, tracer, seconds=args.seconds)
    times = tally.times

    if tracer is not None:
        tracer.uninstall()
        tracer.write(OUT / f"trace-{args.workload}.jsonl")
        values = layer_metrics(tracer, tally.stats, len(times), times)
        metrics = {name: {"value": values[name], "unit": _layer_unit(name)}
                   for name in PER_LAYER}
    else:
        values = {
            "job_p50_s": statistics.median(times),
            "jobs_per_s": (tally.attempted - tally.failed) / wall,
            "job_tail_s": job_tail(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "setup_s": setup_s,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": warm.correct and tally.correct,
                      "attempted": warm.attempted + tally.attempted,
                      "failed": warm.failed + tally.failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
