"""Detected-loss erasure, recoverability, and feedforward recovery plans.

A detected loss is modeled as a partial trace: the position is known, the
polarization is not.  ``recovery_sweep`` builds each post-loss state with
``qsim.post_loss_state``, straight from the codeword's amplitudes and the
noise spec, so it never forms the full 2^n x 2^n density matrix; ``erase``
traces the lost qubits out of a density matrix that a caller already holds.

Recovery is a one-way measurement pattern on the survivors: it measures
every surviving qubit except one target, and the feedforward word is the
pattern's output frame on the target:

- every non-target block is removed by Z-measuring all of its survivors;
  each such block contributes one representative outcome (its survivors are
  perfectly correlated in the noiseless code), and the representatives feed
  the X of the frame;
- the target block is collapsed onto the target qubit by X-measuring its
  other qubits, and those outcomes feed the Z of the frame;
- the frame applies Z, then X, then the fixed output gate H, which
  reproduces the (2, 2) single-loss feedforward table
  {(0,0): H, (1,0): HX, (0,1): HZ, (1,1): HXZ} keyed on (z-parity, x-parity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cluster import MeasurementPattern, OneWayResult, PatternStep, run_pattern
from .codes import CodeParams, LogicalInput, encode
from .qsim import DensityMatrix, NoiseSpec, forced_branches, partial_trace, post_loss_state


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


@dataclass(frozen=True)
class RecoveryPlan:
    """Measurement schedule for a given loss pattern.

    ``z_measurements`` lists the Z-measured qubits in execution order,
    grouped per block in ``z_blocks`` for parity bookkeeping;
    ``x_measurements`` lists the X-measured qubits of the target block.
    """

    params: CodeParams
    pattern: LossPattern
    z_measurements: tuple[int, ...]
    x_measurements: tuple[int, ...]
    target: int
    z_blocks: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        measured = set(self.z_measurements) | set(self.x_measurements)
        if self.target in measured:
            raise ValueError("target qubit may not be measured")
        if set(self.z_measurements) & set(self.x_measurements):
            raise ValueError("z and x measurement lists overlap")
        everything = measured | {self.target} | set(self.pattern.lost)
        if everything != set(range(self.params.total)):
            raise ValueError("plan does not partition the physical qubits")

    @property
    def measurement_order(self) -> tuple[int, ...]:
        return self.z_measurements + self.x_measurements

    @property
    def survivors(self) -> tuple[int, ...]:
        return tuple(sorted(set(range(self.params.total)) - self.pattern.lost))

    @property
    def measurement_pattern(self) -> MeasurementPattern:
        """The plan as a one-way pattern: Z steps, X steps, then the H X^z Z^x frame."""
        return MeasurementPattern(
            steps=tuple(PatternStep(q, "z") for q in self.z_measurements)
            + tuple(PatternStep(q, "x") for q in self.x_measurements),
            output=self.target,
            output_x_from=tuple(block[0] for block in self.z_blocks),
            output_z_from=self.x_measurements,
            output_gate="H",
        )


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
    losses_per_block = [0] * params.m
    for q in pattern.lost:
        losses_per_block[params.block_of(q)] += 1
    if any(lost == params.n for lost in losses_per_block):
        return False
    return any(lost == 0 for lost in losses_per_block)


def _default_target(params: CodeParams, intact_blocks: Sequence[int]) -> int:
    return params.block_qubits(min(intact_blocks))[-1]


def _build_plan(params: CodeParams, pattern: LossPattern, target: int | None,
                intact_blocks: Sequence[int]) -> RecoveryPlan:
    if target is None:
        target = _default_target(params, intact_blocks)
    target_block = params.block_of(target)
    if target_block not in intact_blocks:
        raise ValueError(f"target qubit {target} lies in a damaged block")
    lost = pattern.lost
    z_blocks = []
    z_list: list[int] = []
    for b in range(params.m):
        if b == target_block:
            continue
        survivors = tuple(q for q in params.block_qubits(b) if q not in lost)
        if survivors:
            z_blocks.append(survivors)
            z_list.extend(survivors)
    x_list = tuple(q for q in params.block_qubits(target_block) if q != target)
    return RecoveryPlan(
        params=params,
        pattern=pattern,
        z_measurements=tuple(z_list),
        x_measurements=x_list,
        target=target,
        z_blocks=tuple(z_blocks),
    )


def plan_recovery(params: CodeParams, pattern: LossPattern,
                  target: int | None = None) -> RecoveryPlan:
    """Measurement-and-correction plan decoding the logical qubit onto ``target``.

    The target defaults to the highest-index qubit of the lowest-index intact
    block.  Raises if the pattern is not recoverable.
    """
    if not recoverable(params, pattern):
        raise ValueError(f"loss pattern {sorted(pattern.lost)} is not recoverable")
    intact = [b for b in range(params.m)
              if not any(q in pattern.lost for q in params.block_qubits(b))]
    return _build_plan(params, pattern, target, intact)


def best_effort_plan(params: CodeParams, pattern: LossPattern,
                     target: int | None = None) -> RecoveryPlan:
    """Decoding plan for unrecoverable patterns (fully lost blocks allowed).

    Fully lost blocks contribute no z-parity information; their sign is
    assumed 0, so the output is generally mixed.
    """
    pattern.validate(params)
    intact = [b for b in range(params.m)
              if not any(q in pattern.lost for q in params.block_qubits(b))]
    if not intact:
        raise ValueError("no intact block to host the output qubit")
    return _build_plan(params, pattern, target, intact)


def execute_recovery(rho: DensityMatrix, plan: RecoveryPlan, *,
                     reference: LogicalInput | None = None,
                     forced: Sequence[int] | None = None,
                     rng: np.random.Generator | None = None) -> OneWayResult:
    """Run the plan's measurement pattern on the post-loss state.

    ``rho`` must hold exactly the surviving qubits, ascending by original
    index.  ``forced`` selects outcome bits in plan order (all Z
    measurements, then all X measurements); otherwise outcomes are sampled
    from ``rng``.  The result's ``byproduct`` is the feedforward word and
    its ``fidelity`` is taken against ``reference``.
    """
    target = reference.statevector() if reference is not None else None
    return run_pattern(rho, plan.measurement_pattern, plan.survivors,
                       forced=forced, rng=rng, target=target)


@dataclass(frozen=True)
class SweepRow:
    """One (input, loss, branch) cell of a recovery sweep."""

    input_name: str
    lost: int
    branch: str
    probability: float
    fidelity: float
    sigma: float


def shot_sigma(fidelity: float, shots: int) -> float:
    """Shot noise of estimating F from ``shots`` two-outcome target projections."""
    f = min(max(fidelity, 0.0), 1.0)
    if f < 1e-9 or f > 1.0 - 1e-9:  # suppress roundoff residue at the endpoints
        return 0.0
    return math.sqrt(f * (1.0 - f) / shots)


def recovery_sweep(inputs: Sequence[LogicalInput], params: CodeParams,
                   noise: NoiseSpec | None = None, shots: int = 10000, *,
                   losses: Sequence[int] | None = None,
                   pairs: Sequence[tuple[int, int]] = (),
                   forced: Sequence[int] | None = None,
                   ) -> list[SweepRow]:
    """Exhaustive branch table over (input, single lost qubit, outcome branch).

    Every branch is executed with forced outcomes, so each row carries the
    exact branch probability and output fidelity; ``sigma`` is the shot
    noise a ``shots``-sample estimate of that fidelity would carry.
    ``pairs`` places the interfering pairs of the ``noise`` channel.
    Zero-probability branches are omitted, and the kept probabilities of
    each (input, loss) must sum to 1.  ``forced`` runs that one branch per
    (input, loss) instead, and raises if it has zero probability.  Rows are
    ordered by input (as given), loss (as given, default ascending), then
    branch bits lexicographically.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    loss_positions = list(losses) if losses is not None else list(range(params.total))
    rows: list[SweepRow] = []
    for inp in inputs:
        name = inp.name or "custom"
        psi = encode(inp, params)
        for lost_q in loss_positions:
            pattern = LossPattern({lost_q})
            plan = plan_recovery(params, pattern)
            reduced = post_loss_state(psi, pattern.lost, noise, pairs)
            branches = list(forced_branches(
                len(plan.measurement_order),
                lambda bits: execute_recovery(reduced, plan, reference=inp, forced=bits),
                forced, where=f"input {name}, lost qubit {lost_q}, "))
            total = sum(res.probability for _, res in branches)
            if forced is None and abs(total - 1.0) > 1e-9:
                raise ValueError(f"input {name}, lost qubit {lost_q}: branch "
                                 f"probabilities sum to {total:.12g}, not 1")
            rows.extend(SweepRow(
                input_name=name,
                lost=lost_q,
                branch="".join(str(b) for b in bits),
                probability=res.probability,
                fidelity=res.fidelity,
                sigma=shot_sigma(res.fidelity, shots),
            ) for bits, res in branches)
    return rows
