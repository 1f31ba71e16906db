"""One-way measurement patterns and the loss-tolerant one-way rotation.

The five-photon resource state used for the loss-tolerant rotation circuit is
stored in the lab (polarization) basis; it equals the linear cluster state on
the photon chain 3-2-1-4-5 up to Hadamards on photons 1, 3 and 5.  The
rotation protocol measures in lab bases throughout and targets

    target(alpha) = (|0> + e^{-i alpha}|1>)/sqrt2,

so alpha in {0, -pi/2, -pi/3} produces |+>, |R>, |S>.  ``run_pattern`` runs
the one branch its ``forced`` outcome bits name; ``rotation_sweep`` and
``recovery.recovery_sweep`` both return a ``BranchRow`` per nonzero branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Hashable, Sequence

import numpy as np

from .qsim import (
    HADAMARD,
    DensityMatrix,
    LossState,
    NoiseSpec,
    NumericalError,
    StateVector,
    ZeroProbabilityBranch,
    fidelity_pure,
    measure,
    partial_trace,
    post_loss_state,
)

_Z_SIGNS = np.array([[1, -1], [-1, 1]])

Vertex = Hashable


# --------------------------------------------------------------------------
# one-way measurement patterns


@dataclass(frozen=True)
class PatternStep:
    """One adaptive measurement: optional X/Z pre-corrections, then a basis."""

    qubit: Vertex
    basis: str                      # "z", "x" or "b"
    alpha: float | None = None
    x_from: tuple = ()
    z_from: tuple = ()


@dataclass(frozen=True)
class MeasurementPattern:
    """Ordered adaptive measurements plus the output qubit's byproduct frame.

    The frame is Z^z X^x from the listed outcome parities, applied Z first;
    ``output_gate = "H"`` applies a fixed Hadamard after it.
    """

    steps: tuple[PatternStep, ...]
    output: Vertex
    output_x_from: tuple = ()
    output_z_from: tuple = ()
    output_gate: str = ""

    def __post_init__(self) -> None:
        if self.output_gate not in ("", "H"):
            raise ValueError(f"unknown output gate {self.output_gate!r}")
        seen: set = set()
        for step in self.steps:
            if step.qubit in seen:
                raise ValueError(f"qubit {step.qubit!r} measured twice")
            if step.basis not in ("z", "x", "b"):
                raise ValueError(f"unknown basis {step.basis!r}")
            if step.basis == "b" and step.alpha is None:
                raise ValueError("B(alpha) step needs alpha")
            for dep in step.x_from + step.z_from:
                if dep not in seen:
                    raise ValueError(f"step on {step.qubit!r} depends on unmeasured {dep!r}")
            seen.add(step.qubit)
        if self.output in seen:
            raise ValueError("output qubit may not be measured")
        for dep in self.output_x_from + self.output_z_from:
            if dep not in seen:
                raise ValueError(f"output frame depends on unmeasured {dep!r}")


@dataclass(frozen=True)
class OneWayResult:
    """Outcome record of a one-way pattern execution."""

    outcomes: dict
    output_state: DensityMatrix
    byproduct: str
    probability: float
    target: StateVector | None = None
    fidelity: float | None = None


def _parity(outcomes: dict, sources: tuple) -> int:
    bit = 0
    for src in sources:
        bit ^= outcomes[src]
    return bit


def run_pattern(state: DensityMatrix | LossState, pattern: MeasurementPattern,
                labels: Sequence[Vertex], *, forced: Sequence[int],
                target: StateVector | None = None) -> OneWayResult:
    """Run one branch of an adaptive measurement pattern on a labeled state.

    ``labels`` gives the vertex label of each qubit in order.  ``forced``
    gives the branch's outcome bits in step order.  Pre-corrections X^x Z^z
    derived from earlier outcomes act before each measurement; the output
    qubit receives its byproduct frame and then the output gate at the end.  The result's
    ``byproduct`` names the applied word, leftmost applied last (``HXZ``: Z,
    then X, then H).
    """
    current = list(labels)
    if state.n_qubits != len(current):
        raise ValueError("state size does not match the label list")
    for step in pattern.steps:
        if step.qubit not in current:
            raise ValueError(f"pattern step qubit {step.qubit!r} is not present")
    if pattern.output not in current:
        raise ValueError("pattern output qubit is not present")
    if len(forced) != len(pattern.steps):
        raise ValueError(f"expected {len(pattern.steps)} forced outcomes")

    outcomes: dict = {}
    probability = 1.0
    for i, step in enumerate(pattern.steps):
        # X^x Z^z before a measurement only relabels it: X swaps the Z
        # outcomes and turns B(alpha) into B(-alpha); Z swaps the X and the
        # B(alpha) outcomes.
        flip_x = _parity(outcomes, step.x_from)
        alpha = -step.alpha if flip_x and step.basis == "b" else step.alpha
        flip = flip_x if step.basis == "z" else _parity(outcomes, step.z_from)
        want = forced[i] ^ flip
        try:
            state, p = measure(state, current.index(step.qubit), step.basis,
                               forced=want, alpha=alpha)
        except ZeroProbabilityBranch:
            # name the requested bit, not the relabelled one measure saw
            relabel = f" (measured as {want} after feedforward)" if flip else ""
            raise ZeroProbabilityBranch(f"forced outcome {forced[i]} on qubit {step.qubit!r} "
                                        f"has zero probability{relabel}") from None
        current.remove(step.qubit)
        outcomes[step.qubit] = forced[i]
        probability *= p

    if isinstance(state, LossState):   # the pattern had no X or B(alpha) step
        state = state.density()
    if len(current) > 1:
        out_idx = current.index(pattern.output)
        state = partial_trace(state, [q for q in range(len(current)) if q != out_idx])
    # the output frame on the one-qubit matrix: Z negates the coherences,
    # X reverses both axes, and H conjugates
    mat = state.matrix
    byproduct = ""
    if _parity(outcomes, pattern.output_z_from):
        mat = mat * _Z_SIGNS
        byproduct += "Z"
    if _parity(outcomes, pattern.output_x_from):
        mat = mat[::-1, ::-1]
        byproduct = "X" + byproduct
    if pattern.output_gate:
        mat = HADAMARD @ mat @ HADAMARD
        byproduct = pattern.output_gate + byproduct
    if byproduct:
        state = DensityMatrix._trusted(1, np.array(mat))
    fid = fidelity_pure(target, state) if target is not None else None
    return OneWayResult(outcomes, state, byproduct or "I", probability, target, fid)


def pattern_branches(state: DensityMatrix | LossState, pattern: MeasurementPattern,
                     labels: Sequence[Vertex], *,
                     target: StateVector | None = None,
                     forced: Sequence[int] | None = None,
                     where: str = "pattern") -> list[tuple[tuple[int, ...], OneWayResult]]:
    """``(bits, run_pattern(...))`` for every nonzero forced branch of ``pattern``.

    Branches run in ascending bit order, each from ``state``; one whose
    forced outcome has zero probability is skipped, and the kept
    probabilities must sum to 1.  With ``forced`` only that branch runs, and
    a zero probability raises :class:`ZeroProbabilityBranch`.  Any
    :class:`NumericalError` that a branch raises names ``where`` and the bits.
    """
    def run(bits: tuple[int, ...]) -> OneWayResult:
        try:
            return run_pattern(state, pattern, labels, forced=bits, target=target)
        except NumericalError as exc:
            raise type(exc)(f"{where}, branch {''.join(map(str, bits))}: {exc}") from None

    if forced is not None:
        return [(tuple(forced), run(tuple(forced)))]
    branches = []
    for bits in product((0, 1), repeat=len(pattern.steps)):
        try:
            branches.append((bits, run(bits)))
        except ZeroProbabilityBranch:
            continue
    total = sum(result.probability for _, result in branches)
    if not abs(total - 1.0) <= 1e-9:
        raise NumericalError(f"{where}: branch probabilities sum to {total:.12g}, not 1")
    return branches


@dataclass(frozen=True)
class BranchRow:
    """One (input, loss, alpha, branch) cell of a sweep; ``alpha`` is ``None`` for recovery."""

    input: str
    lost: str
    alpha: float | None
    branch: str
    probability: float
    fidelity: float


# --------------------------------------------------------------------------
# the five-photon resource state and the Fig-style loss cases

PHI5_BASIS_KETS = ("00000", "01111", "10011", "11100")
PHI5_PAIRS = ((0, 1),)   # the lab's imperfect pair source, on photons 1 and 2


def phi5() -> StateVector:
    """Five-photon lab-basis resource state, amplitude 1/2 on four basis kets."""
    amps = np.zeros(32, dtype=complex)
    for bits in PHI5_BASIS_KETS:
        amps[int(bits, 2)] = 0.5
    return StateVector(5, amps)


def rotation_target(alpha: float) -> StateVector:
    """Ideal rotation output (|0> + e^{-i alpha}|1>)/sqrt2 in the lab basis."""
    return StateVector.from_amplitudes([1.0, np.exp(-1j * alpha)], normalize=True)


# Each supported loss case: photon to erase, H/V-measured helper (the indirect
# Z partner of the loss), +/- measured redundant photon, rotation photon, and
# readout photon.  Feedforward: X^{s_helper} Z^{s_redundant} on the rotation
# photon before its B(alpha) measurement, then Z^{s_rotation} on the readout.
LOSS_CASES: dict[str, dict[str, int]] = {
    "photon2": {"erase": 2, "helper": 3, "redundant": 5, "rotate": 4, "readout": 1},
    "photon4": {"erase": 4, "helper": 5, "redundant": 3, "rotate": 2, "readout": 1},
}


def loss_case_pattern(lost: str, alpha: float) -> MeasurementPattern:
    """Lab-basis adaptive pattern completing the rotation after one loss."""
    try:
        case = LOSS_CASES[lost]
    except KeyError:
        raise ValueError(f"unsupported loss case {lost!r}; "
                         f"expected one of {sorted(LOSS_CASES)}") from None
    return MeasurementPattern(
        steps=(
            PatternStep(case["helper"], "z"),
            PatternStep(case["redundant"], "x"),
            PatternStep(case["rotate"], "b", alpha,
                        x_from=(case["helper"],), z_from=(case["redundant"],)),
        ),
        output=case["readout"],
        output_z_from=(case["rotate"],),
    )


def _rotation_setup(lost: str, alpha: float, noise: NoiseSpec | None,
                    ) -> tuple[DensityMatrix, MeasurementPattern, tuple[int, ...]]:
    """phi5 after the case's loss, the case's pattern, and the survivors' photon labels."""
    pattern = loss_case_pattern(lost, alpha)
    erase_photon = LOSS_CASES[lost]["erase"]   # photon k lives on qubit k-1
    rho = post_loss_state(phi5(), [erase_photon - 1], noise)
    labels = tuple(p for p in range(1, 6) if p != erase_photon)
    return rho, pattern, labels


def loss_tolerant_rotation(lost: str, alpha: float, noise: NoiseSpec | None = None, *,
                           forced: Sequence[int]) -> OneWayResult:
    """Run one branch of the single-qubit rotation on phi5 with one photon lost.

    Erases the lost photon, runs the adaptive lab-basis pattern for the case,
    and compares the readout photon against ``rotation_target(alpha)``.
    ``forced`` fixes the (helper, redundant, rotation) outcome bits.
    """
    rho, pattern, labels = _rotation_setup(lost, alpha, noise)
    return run_pattern(rho, pattern, labels, forced=forced, target=rotation_target(alpha))


def rotation_sweep(cases: Sequence[str], alphas: Sequence[float],
                   noise: NoiseSpec | None = None, *,
                   forced: Sequence[int] | None = None) -> list[BranchRow]:
    """Exhaustive branch table over (loss case, alpha, outcome branch).

    Each ``BranchRow`` (input ``phi5``, ``lost`` the case) carries the exact
    branch probability and the fidelity against ``rotation_target(alpha)``.
    Zero-probability branches are omitted, and the kept probabilities of
    each (case, alpha) must sum to 1.  ``forced`` runs that one branch per
    (case, alpha) instead, and raises if it has zero probability.  Rows are
    ordered by case and alpha (as given), then branch bits lexicographically.
    """
    rows = []
    for case in cases:
        for alpha in alphas:
            rho, pattern, labels = _rotation_setup(case, alpha, noise)
            branches = pattern_branches(rho, pattern, labels, target=rotation_target(alpha),
                                        forced=forced, where=f"loss case {case}, alpha {alpha:.9f}")
            rows.extend(BranchRow("phi5", case, alpha, "".join(map(str, bits)), res.probability,
                                  res.fidelity) for bits, res in branches)
    return rows
