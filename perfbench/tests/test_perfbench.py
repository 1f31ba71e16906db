"""Tests of the benchmark itself: its checker, its job loop and its tracer.

Run from the repository root with ``python -m pytest perfbench/tests``.
The count tests run one job of each large workload (about 15 s, 1.5 GB peak
for the 12-qubit job).
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLI = run.load_losskit()


def _traced(workload: str, seed: int, jobs: int, work: Path) -> dict[str, float]:
    cycle = workloads.build(workload, seed, work)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tally, _ = run.run_loop(CLI, cycle, tracer, jobs=jobs)
    finally:
        tracer.uninstall()
    assert tally.failed == 0 and tally.correct
    return run.layer_metrics(tracer, tally.stats, jobs, tally.times)


def _recover_csv(tmp_path: Path) -> tuple[str, workloads.Call]:
    (call,) = workloads.build("recover-9q", 3, tmp_path)[4]
    CLI.main(call.argv(), standalone_mode=False)
    return call.out.read_text(), call


def test_checker_accepts_program_output(tmp_path):
    for job in workloads.build("paper", 5, tmp_path):
        for call in job:
            CLI.main(call.argv(), standalone_mode=False)
            problems, _ = call.check(call.out.read_text())
            assert problems == [], call.command


def test_checker_rejects_moved_fidelity(tmp_path):
    text, call = _recover_csv(tmp_path)
    assert call.check(text)[0] == []
    lines = text.splitlines(keepends=True)
    i = next(k for k, line in enumerate(lines) if line.startswith("recover,") and ",avg," not in line)
    cells = lines[i].split(",")
    cells[7] = f"{float(cells[7]) + 1e-6:.9f}"
    lines[i] = ",".join(cells)
    problems, _ = call.check("".join(lines))
    assert len(problems) == 1 and "fidelity" in problems[0]


def test_checker_rejects_missing_branch_row(tmp_path):
    text, call = _recover_csv(tmp_path)
    lines = text.splitlines(keepends=True)
    i = next(k for k, line in enumerate(lines) if line.startswith("recover,"))
    del lines[i]
    problems, stats = call.check("".join(lines))
    assert stats["branch_rows"] == 127
    assert any("127 branch rows, expected 128" in p for p in problems)


def test_branch_fidelity_closed_form():
    # (2, 6), lost 0: 9 Z bits in 5 blocks and 1 X bit; p = 2^-6, q = 2^-10.
    assert checks.branch_fidelity(2, 6, 0, "0" * 10, 0.9) == pytest.approx(0.996551724, abs=1e-9)
    assert checks.branch_fidelity(3, 3, 4, "0100000", 0.9) == 0.5


def test_traced_calls_repeat(tmp_path):
    first = _traced("paper", 7, 2, tmp_path / "a")
    second = _traced("paper", 7, 2, tmp_path / "b")
    calls = [name for name in run.PER_LAYER if not name.endswith("_s")]
    assert {k: first[k] for k in calls} == {k: second[k] for k in calls}


def test_traced_counts_match_code_sizes(tmp_path):
    rec = _traced("recover-9q", 1, 2, tmp_path / "rec")
    # 2^7 branches of 7 forced measurements each, every branch enumerated from the root
    assert rec["qsim.measure.calls"] == 896
    assert rec["recovery.branch_rows"] == 128
    assert rec["recovery.measures_per_branch"] == 7.0
    enc = _traced("encode-6q", 1, 1, tmp_path / "enc")
    assert enc["qsim.expectation.calls"] == 4 * 4 ** 6   # four states, every 6-qubit Pauli
    assert enc["qsim.measure.calls"] == 0
    cap = _traced("cap-12q", 1, 1, tmp_path / "cap")
    assert cap["qsim.measure.calls"] == 10
    assert cap["recovery.branch_rows"] == 1


def test_run_loop_counts_failures(tmp_path):
    class FakeCli:
        @staticmethod
        def main(argv, standalone_mode):
            if argv[0] == "raise":
                raise ValueError("boom")
            Path(argv[-1]).write_text("out")

    def call(command, problems):
        return workloads.Call(command, tmp_path / "x.cfg", tmp_path / "x.csv",
                              lambda text: (problems, Counter()))

    cycle = [(call("ok", []),), (call("wrong", ["bad"]),), (call("raise", []),)]
    tally, _ = run.run_loop(FakeCli, cycle, None, jobs=6)
    assert (tally.attempted, tally.failed, tally.correct) == (6, 4, False)
    tally, _ = run.run_loop(FakeCli, [cycle[0], cycle[2]], None, jobs=2)
    assert (tally.failed, tally.correct) == (1, True)


def test_run_loop_runs_for_the_given_seconds(tmp_path):
    tally, wall = run.run_loop(CLI, workloads.build("paper", 2, tmp_path), None, seconds=1.0)
    assert tally.attempted >= 2 and tally.failed == 0 and wall >= 1.0


def test_tracer_restores_originals():
    before = (CLI.RUNNERS["recover"], CLI.apply_channel)
    tracer = tracing.Tracer()
    tracer.install()
    assert CLI.RUNNERS["recover"] is not before[0]
    tracer.uninstall()
    assert (CLI.RUNNERS["recover"], CLI.apply_channel) == before
