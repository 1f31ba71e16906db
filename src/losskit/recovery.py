"""Detected-loss erasure, recoverability, and feedforward recovery plans.

A detected loss is modeled as a partial trace: the position is known, the
polarization is not.  ``recovery_sweep`` holds each post-loss state as a
``qsim.LossState`` D = v (F o A A^dagger) + u I, with A the codeword's
amplitudes as survivors x lost qubits and F the Z-type noise terms.  The Z
steps keep that form: F scales entry (r, c) by a factor of r ^ c alone, so
a Z projection keeps rows of A and leaves the noise on them as it was.  The
first X step forms the only matrix, 2^n x 2^n on the target block; ``erase``
traces the lost qubits out of a density matrix that a caller already holds.

A recovery plan is a ``cluster.MeasurementPattern`` on the survivors, so it
runs on the same engine as the one-way rotation: ``execute_recovery`` runs
the one branch its forced outcome bits name through ``cluster.run_pattern``,
and ``recovery_sweep`` runs every branch through
``cluster.pattern_branches``.  The plan measures every surviving qubit
except one target, and the feedforward word is the pattern's output frame
on the target:

- every non-target block is removed by Z-measuring all of its survivors;
  each such block contributes one representative outcome (its survivors are
  perfectly correlated in the noiseless code), and the representatives feed
  the X of the frame;
- the target block is collapsed onto the target qubit by X-measuring its
  other qubits, and those outcomes feed the Z of the frame;
- the frame applies Z, then X, then the fixed output gate H, which
  reproduces the (2, 2) single-loss feedforward table
  {(0,0): H, (1,0): HX, (0,1): HZ, (1,1): HXZ} keyed on (z-parity, x-parity).

``recovery_sweep`` returns a ``cluster.BranchRow`` per nonzero branch, and
``loss_average`` reduces one input's rows to the CLI's ``avg`` row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cluster import (BranchRow, MeasurementPattern, OneWayResult, PatternStep, pattern_branches,
                      run_pattern)
from .codes import CodeParams, LogicalInput, encode
from .qsim import DensityMatrix, LossState, NoiseSpec, partial_trace


@dataclass(frozen=True)
class LossPattern:
    """Set of detected-lost physical qubit indices."""

    lost: frozenset[int]

    def __init__(self, lost: Iterable[int] = ()) -> None:
        object.__setattr__(self, "lost", frozenset(int(q) for q in lost))

    def validate(self, params: CodeParams) -> None:
        for q in self.lost:
            if not 0 <= q < params.total:
                raise ValueError(f"lost qubit {q} out of range for {params.total} qubits")


def erase(rho: DensityMatrix, pattern: LossPattern) -> DensityMatrix:
    """Trace out the lost qubits; survivors are renumbered in ascending order."""
    if not pattern.lost:
        return rho
    if len(pattern.lost) >= rho.n_qubits:
        raise ValueError("cannot erase every qubit")
    return partial_trace(rho, pattern.lost)


def recoverable(params: CodeParams, pattern: LossPattern) -> bool:
    """True iff every block keeps a survivor and at least one block is intact."""
    pattern.validate(params)
    lost = [len(pattern.lost.intersection(params.block_qubits(b))) for b in range(params.m)]
    return params.n not in lost and 0 in lost


def _survivors(plan: MeasurementPattern) -> tuple[int, ...]:
    """A plan's qubits, ascending: it measures every survivor but its output."""
    return tuple(sorted([step.qubit for step in plan.steps] + [plan.output]))


def _build_plan(params: CodeParams, loss: LossPattern, target: int | None) -> MeasurementPattern:
    intact = [b for b in range(params.m) if not loss.lost.intersection(params.block_qubits(b))]
    if not intact:
        raise ValueError("no intact block to host the output qubit")
    if target is None:
        target = params.block_qubits(min(intact))[-1]
    target_block = params.block_of(target)
    if target_block not in intact:
        raise ValueError(f"target qubit {target} lies in a damaged block")
    z_blocks = []
    for b in range(params.m):
        survivors = tuple(q for q in params.block_qubits(b) if q not in loss.lost)
        if b != target_block and survivors:
            z_blocks.append(survivors)
    x_list = tuple(q for q in params.block_qubits(target_block) if q != target)
    plan = MeasurementPattern(
        steps=tuple(PatternStep(q, "z") for block in z_blocks for q in block)
        + tuple(PatternStep(q, "x") for q in x_list),
        output=target,
        output_x_from=tuple(block[0] for block in z_blocks),
        output_z_from=x_list,
        output_gate="H",
    )
    if set(_survivors(plan)) | loss.lost != set(range(params.total)):
        raise ValueError("plan does not partition the physical qubits")
    return plan


def plan_recovery(params: CodeParams, pattern: LossPattern,
                  target: int | None = None) -> MeasurementPattern:
    """Measurement pattern decoding the logical qubit onto ``target``.

    The target defaults to the highest-index qubit of the lowest-index intact
    block.  Raises if the pattern is not recoverable.
    """
    if not recoverable(params, pattern):
        raise ValueError(f"loss pattern {sorted(pattern.lost)} is not recoverable")
    return _build_plan(params, pattern, target)


def best_effort_plan(params: CodeParams, pattern: LossPattern,
                     target: int | None = None) -> MeasurementPattern:
    """Decoding pattern for unrecoverable patterns (fully lost blocks allowed).

    Fully lost blocks contribute no z-parity information; their sign is
    assumed 0, so the output is generally mixed.
    """
    pattern.validate(params)
    return _build_plan(params, pattern, target)


def execute_recovery(rho: DensityMatrix, plan: MeasurementPattern, *, forced: Sequence[int],
                     reference: LogicalInput | None = None) -> OneWayResult:
    """Run one branch of a recovery plan on the post-loss state.

    ``rho`` must hold exactly the surviving qubits, ascending by original
    index.  ``forced`` gives the branch's outcome bits in step order (all Z
    measurements, then all X measurements).  The result's ``byproduct`` is
    the feedforward word and its ``fidelity`` is taken against ``reference``.
    """
    target = reference.statevector() if reference is not None else None
    return run_pattern(rho, plan, _survivors(plan), forced=forced, target=target)


def shot_sigma(fidelity: float, shots: int) -> float:
    """Shot noise of estimating F from ``shots`` two-outcome target projections."""
    f = min(max(fidelity, 0.0), 1.0)
    if f < 1e-9 or f > 1.0 - 1e-9:  # suppress roundoff residue at the endpoints
        return 0.0
    return math.sqrt(f * (1.0 - f) / shots)


def recovery_sweep(inputs: Sequence[LogicalInput], params: CodeParams,
                   noise: NoiseSpec | None = None, *,
                   losses: Sequence[int] | None = None,
                   forced: Sequence[int] | None = None) -> list[BranchRow]:
    """Exhaustive branch table over (input, single lost qubit, outcome branch).

    Every branch is executed with forced outcomes, so each ``BranchRow``
    (``lost`` the qubit index as text) carries the exact branch probability
    and output fidelity.  Zero-probability branches are omitted, and the
    kept probabilities of each (input, loss) must sum to 1.  ``forced`` runs
    that one branch per (input, loss) instead, and raises if it has zero
    probability.  Rows are ordered by input (as given), loss (as given,
    default ascending), then branch bits lexicographically.
    """
    loss_positions = list(losses) if losses is not None else list(range(params.total))
    rows: list[BranchRow] = []
    for inp in inputs:
        name = inp.name or "custom"
        psi, target = encode(inp, params), inp.statevector()
        for lost_q in loss_positions:
            loss = LossPattern({lost_q})
            plan = plan_recovery(params, loss)
            reduced = LossState.after_loss(psi, loss.lost, noise)
            branches = pattern_branches(reduced, plan, _survivors(plan), target=target,
                                        forced=forced, where=f"input {name}, lost qubit {lost_q}")
            rows.extend(BranchRow(name, str(lost_q), None, "".join(map(str, bits)),
                                  res.probability, res.fidelity) for bits, res in branches)
    return rows


def loss_average(rows: Sequence[BranchRow], shots: int) -> tuple[float, float]:
    """Mean over losses of one input's probability-weighted branch fidelity, and its sigma.

    The sigma propagates every branch's ``shot_sigma(fidelity, shots)``.
    Losses are summed in the order their rows first appear.
    """
    if not rows or len({r.input for r in rows}) > 1:
        raise ValueError("loss_average needs the rows of exactly one input")
    cells: dict[str, list[BranchRow]] = {}
    for r in rows:
        cells.setdefault(r.lost, []).append(r)
    mean = sum(sum(r.probability * r.fidelity for r in c) for c in cells.values()) / len(cells)
    var = sum(sum((r.probability * shot_sigma(r.fidelity, shots)) ** 2 for r in c)
              for c in cells.values())
    return mean, math.sqrt(var) / len(cells)
