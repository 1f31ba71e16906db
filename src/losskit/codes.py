"""Parity/redundancy erasure codewords and their stabilizers.

A logical qubit a0|0>_l + a1|1>_l is stored in m blocks of n physical qubits:

    |0>_l ~ (|0...0> + |1...1>)^(x m)        |1>_l ~ (|0...0> - |1...1>)^(x m)

Block b occupies the contiguous qubit range [b*n, (b+1)*n).  The (n=2, m=2)
member is the four-qubit code realized by the two-Hadamard/three-CNOT
circuit in :func:`encode_circuit_22`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qsim import PauliString, StateVector, apply_gate

MAX_TOTAL_QUBITS = 12


@dataclass(frozen=True)
class CodeParams:
    """Code layout: m blocks of n qubits each."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"block size n must be >= 2, got {self.n}")
        if self.m < 1:
            raise ValueError(f"block count m must be >= 1, got {self.m}")

    @property
    def total(self) -> int:
        return self.n * self.m

    def block_qubits(self, b: int) -> tuple[int, ...]:
        if not 0 <= b < self.m:
            raise ValueError(f"block {b} out of range")
        return tuple(range(b * self.n, (b + 1) * self.n))

    def block_of(self, qubit: int) -> int:
        if not 0 <= qubit < self.total:
            raise ValueError(f"qubit {qubit} out of range")
        return qubit // self.n


@dataclass(frozen=True)
class LogicalInput:
    """Single-qubit input amplitudes, |a0|^2 + |a1|^2 = 1."""

    a0: complex
    a1: complex
    name: str = ""

    def __post_init__(self) -> None:
        norm = abs(self.a0) ** 2 + abs(self.a1) ** 2
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"input amplitudes are not normalized (|.|^2 = {norm})")

    @classmethod
    def normalized(cls, a0: complex, a1: complex, name: str = "") -> "LogicalInput":
        norm = math.sqrt(abs(a0) ** 2 + abs(a1) ** 2)
        if norm < 1e-15:
            raise ValueError("cannot normalize the zero vector")
        return cls(a0 / norm, a1 / norm, name)

    def statevector(self) -> StateVector:
        return StateVector(1, np.array([self.a0, self.a1], dtype=complex))


_SQ2 = math.sqrt(2.0)

PRESETS: dict[str, LogicalInput] = {
    "V": LogicalInput(0.0, 1.0, "V"),
    "PLUS": LogicalInput(1 / _SQ2, 1 / _SQ2, "PLUS"),
    "R": LogicalInput(1 / _SQ2, 1j / _SQ2, "R"),
    "S": LogicalInput(1 / _SQ2, complex(np.exp(1j * math.pi / 3)) / _SQ2, "S"),
}


def _check_size(params: CodeParams) -> None:
    if params.total > MAX_TOTAL_QUBITS:
        raise ValueError(
            f"code uses {params.total} qubits, beyond the dense-simulation "
            f"limit of {MAX_TOTAL_QUBITS}"
        )


def logical_basis(params: CodeParams) -> tuple[StateVector, StateVector]:
    """Normalized logical basis states (|0>_l, |1>_l) for the (n, m) code."""
    _check_size(params)
    n = params.n
    block_plus = np.zeros(2 ** n, dtype=complex)
    block_minus = np.zeros(2 ** n, dtype=complex)
    block_plus[0] = block_plus[-1] = 1 / _SQ2
    block_minus[0], block_minus[-1] = 1 / _SQ2, -1 / _SQ2
    zero = np.array([1.0], dtype=complex)
    one = np.array([1.0], dtype=complex)
    for _ in range(params.m):
        zero = np.kron(zero, block_plus)
        one = np.kron(one, block_minus)
    return (StateVector(params.total, zero), StateVector(params.total, one))


def encode(inp: LogicalInput, params: CodeParams) -> StateVector:
    """Codeword a0|0>_l + a1|1>_l."""
    zero_l, one_l = logical_basis(params)
    return StateVector(params.total, inp.a0 * zero_l.amplitudes + inp.a1 * one_l.amplitudes)


def encode_circuit_22(inp: LogicalInput) -> StateVector:
    """Four-qubit encoder as an explicit gate sequence on |psi>|0>|0>|0>.

    The placement CNOT(0->2), H(0), H(2), CNOT(0->1), CNOT(2->3) uses two
    Hadamards and three CNOTs and reproduces encode(inp, (2, 2)) exactly.
    """
    state = inp.statevector().tensor(StateVector.basis_state(3, 0))
    state = apply_gate(state, "CNOT", [0, 2])
    state = apply_gate(state, "H", [0])
    state = apply_gate(state, "H", [2])
    state = apply_gate(state, "CNOT", [0, 1])
    state = apply_gate(state, "CNOT", [2, 3])
    return state


def lab_pairs(params: CodeParams, name: str) -> tuple[tuple[int, int], ...]:
    """The lab's interfering pairs for input ``name``: neighbours along the qubit chain.

    At (2, 2) the V input skips the first pair, so it meets two beam splitters, not three.
    """
    chain = tuple((q, q + 1) for q in range(params.total - 1))
    return chain[1:] if (params.n, params.m) == (2, 2) and name == "V" else chain


def stabilizers(params: CodeParams) -> list[PauliString]:
    """Generators fixing both logical basis states.

    X-type: X^(x n) on each pair of consecutive blocks (an X block-flip
    negates a minus-block, so flips must come in pairs).  Z-type: Z_i Z_{i+1}
    on adjacent qubits inside each block.  For (2, 2) this is exactly
    [XXXX, ZZII, IIZZ]; note that for a single block (m = 1) no X-type
    generator exists and <X...X> = |a0|^2 - |a1|^2 distinguishes the basis
    states instead of stabilizing them.
    """
    gens: list[PauliString] = []
    total = params.total
    for b in range(params.m - 1):
        support = {q: "X" for q in params.block_qubits(b) + params.block_qubits(b + 1)}
        gens.append(PauliString.from_support(total, support))
    for b in range(params.m):
        qubits = params.block_qubits(b)
        for i in range(params.n - 1):
            gens.append(PauliString.from_support(total, {qubits[i]: "Z", qubits[i + 1]: "Z"}))
    return gens
