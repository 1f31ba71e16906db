"""Dense state-vector and density-matrix engine for few-qubit protocol simulation.

Conventions used throughout the package:

- qubit 0 is the most significant bit of a basis index, i.e. the basis ket
  ``|q0 q1 ... q_{n-1}>`` sits at index ``sum(q_k * 2**(n-1-k))``;
- the computational basis identifies ``|0> = |H>`` (horizontal polarization)
  and ``|1> = |V>`` (vertical);
- measurement outcome 0 always corresponds to the first basis vector of the
  chosen basis (``|0>``, ``|+>`` or ``|+alpha>``);
- ``Rz(alpha) = diag(exp(-i alpha/2), exp(+i alpha/2))``.

All state objects are immutable; every operation returns a new value, so
values can be shared freely across threads.  ``measure`` is told its outcome
(``forced``); only ``tomography``'s count sampling draws random numbers, from
a generator of :class:`Seed`.  Every check is written so that a NaN fails it.

Validation happens once, at the boundary.  The public ``StateVector(...)``
and ``DensityMatrix(...)`` constructors copy their input and check its
shape, normalization and (for density matrices) Hermiticity and trace.
Density matrices returned by this module's operations (``density``,
``apply_gate``, ``partial_trace``, ``measure``, ``apply_channel``,
``post_loss_state``) are Hermitian by construction; they skip the copy and
the O(d^2) Hermiticity check and keep only the O(d) trace check.

A detected loss is held in amplitude form, as a ``LossState``
D = v (F o A A^dagger) + u I: A is the amplitudes as survivors x lost
qubits, u = (1-v)/2^s is the white noise on the s survivors, and F is the
elementwise factor of the Z-type terms (pair dephasing, pair-source
visibility), each of which keeps its weight and drops its lost qubits,
since Tr_L[Z rho Z] = Z' Tr_L[rho] Z' (a term left with no support drops
out).  A term scales entry (r, c) by a factor of r ^ c alone, and the
entries a Z projection keeps agree on the measured bit, so a Z outcome keeps
the rows of A that read it, cuts that bit from each mask and divides v and
u by its probability; only an X or B(alpha) outcome forms the matrix.

The two hot kernels work on basis indices rather than tensor axes:

- ``expectation`` reads a Pauli string as its X-mask x, Z-mask z (its Y
  and Z positions) and i^ny for ny Y letters, which ``PauliString`` parses
  once, so ``P|c> = i^ny (-1)^popcount(c & z) |c ^ x>``.  A state vector
  costs one gather ``psi[c ^ x]`` times a sign table; a density matrix
  costs one gather of ``rho[c, c ^ x]``, O(2^n) instead of an O(8^n)
  matrix product.  The index and sign tables are built once per qubit
  count, on first use.
- ``measure`` views ``rho`` as blocks ``t[a, i, b, c, j, d]`` with ``i, j``
  the measured qubit.  A Z outcome is the slice ``t[:, o, :, :, o, :]``; an
  X or B(alpha) outcome is ``0.5 (diag +- coh)`` with ``diag = t00 + t11``
  and ``coh = e^{i alpha} t01 + e^{-i alpha} t10``.  Both sums pair each
  entry with its conjugate partner, so the kept block of an exactly
  Hermitian ``rho`` is exactly Hermitian and needs no symmetrising pass.
  The kept block is normalised by one in-place multiply of its float64
  view by ``w * (1 / p)``, where the weight w (1 for Z, 0.5 for X and
  B(alpha)) is folded in rather than applied in a pass of its own, and
  ``p = w * trace``.  numpy divides by a complex with zero imaginary part
  as ``(re + im * 0) * (1 / p)``, and a power-of-two weight scales
  exactly, so the result has the bits of ``w * block / p``, the sign of
  a zero aside, at a fraction of the cost of a complex division.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

_ZERO_PROB = 1e-12

_SQ2 = math.sqrt(2.0)

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / _SQ2
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CZ_MATRIX = np.diag([1, 1, 1, -1]).astype(complex)

_PAULI_MATRICES = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
_PAULI_LETTERS = frozenset("IXYZ")
_I_POWERS = (1, 1j, -1, -1j)          # i^k for k mod 4; also the allowed phases
# letter -> bit of the X-mask and of the Z-mask; Y = i X Z sets both
_X_BITS = str.maketrans("IXYZ", "0110")
_Z_BITS = str.maketrans("IXYZ", "0011")

def rz_matrix(alpha: float) -> np.ndarray:
    """Rotation about Z: diag(exp(-i alpha/2), exp(+i alpha/2))."""
    return np.array(
        [[np.exp(-0.5j * alpha), 0.0], [0.0, np.exp(0.5j * alpha)]], dtype=complex
    )


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=complex)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Pure n-qubit state as a dense complex amplitude vector."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != 2 ** self.n_qubits:
            raise ValueError(
                f"amplitude vector has length {amps.shape[0]}, "
                f"expected {2 ** self.n_qubits}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= 1e-8:
            raise ValueError(f"state vector is not normalized (norm {norm})")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @classmethod
    def from_amplitudes(cls, amps: Iterable[complex], normalize: bool = False) -> "StateVector":
        arr = np.asarray(list(amps) if not isinstance(amps, np.ndarray) else amps,
                         dtype=complex).reshape(-1)
        n = int(round(math.log2(arr.shape[0])))
        if 2 ** n != arr.shape[0]:
            raise ValueError("amplitude vector length must be a power of two")
        if normalize:
            norm = np.linalg.norm(arr)
            if not 1e-15 <= norm < math.inf:
                raise ValueError(f"cannot normalize a vector of norm {norm}")
            arr = arr / norm
        return cls(n, arr)

    @classmethod
    def basis_state(cls, n_qubits: int, bits: Union[int, str, Sequence[int]]) -> "StateVector":
        """Computational basis ket of an index in [0, 2^n), or of n bits (bitstring or list)."""
        if not isinstance(bits, int):
            digits = list(bits)
            if len(digits) != n_qubits or any(b not in (0, 1, "0", "1") for b in digits):
                raise ValueError(f"basis bits {bits!r} are not {n_qubits} bits of 0 or 1")
            bits = sum(int(b) << (n_qubits - 1 - k) for k, b in enumerate(digits))
        if not 0 <= bits < 2 ** n_qubits:
            raise ValueError(f"basis index {bits} out of range for {n_qubits} qubits")
        amps = np.zeros(2 ** n_qubits, dtype=complex)
        amps[bits] = 1.0
        return cls(n_qubits, amps)

    def amplitude(self, bits: Union[int, str]) -> complex:
        index = int(bits, 2) if isinstance(bits, str) else bits
        return complex(self.amplitudes[index])

    def tensor(self, other: "StateVector") -> "StateVector":
        return StateVector(self.n_qubits + other.n_qubits,
                           np.kron(self.amplitudes, other.amplitudes))

    def density(self) -> "DensityMatrix":
        return DensityMatrix._trusted(self.n_qubits,
                                      np.outer(self.amplitudes, self.amplitudes.conj()))

    def inner(self, other: "StateVector") -> complex:
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit counts differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


class NumericalError(ValueError):
    """A zero-probability branch, a trace or probability sum off 1, or a complex expectation."""


def _check_trace(mat: np.ndarray) -> None:
    tr = complex(mat.trace())
    if not abs(tr - 1.0) <= 1e-8:
        raise NumericalError(f"density matrix has trace {tr}, expected 1")


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed n-qubit state as a dense Hermitian, trace-one matrix."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        dim = 2 ** self.n_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({dim}, {dim})")
        if not np.allclose(mat, mat.conj().T, atol=1e-8):
            raise ValueError("density matrix is not Hermitian")
        _check_trace(mat)
        object.__setattr__(self, "matrix", _freeze(mat))

    @classmethod
    def _trusted(cls, n_qubits: int, mat: np.ndarray) -> "DensityMatrix":
        """Wrap a fresh complex ``mat`` that is Hermitian by construction, without a copy.

        The caller hands over ownership: ``mat`` is frozen in place.  Only
        the trace is checked.
        """
        _check_trace(mat)
        mat.setflags(write=False)
        rho = object.__new__(cls)
        object.__setattr__(rho, "n_qubits", n_qubits)
        object.__setattr__(rho, "matrix", mat)
        return rho


State = Union[StateVector, DensityMatrix]


@dataclass(frozen=True, slots=True)
class PauliString:
    """A signed tensor product of single-qubit Pauli operators.

    The letters are parsed once, into the X-mask ``x_mask`` (X and Y
    positions), the Z-mask ``z_mask`` (Z and Y positions), with qubit q at
    bit n-1-q, and ``y_phase`` = i^ny for ny Y letters, since Y = i X Z.
    """

    letters: str
    phase: complex = 1 + 0j
    x_mask: int = field(init=False, repr=False, compare=False)
    z_mask: int = field(init=False, repr=False, compare=False)
    y_phase: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not set(self.letters) <= _PAULI_LETTERS:
            raise ValueError(f"invalid Pauli letters: {self.letters!r}")
        phase = complex(self.phase)
        if phase not in _I_POWERS and not any(abs(phase - p) < 1e-12 for p in _I_POWERS):
            raise ValueError(f"phase must be one of +-1, +-i, got {phase}")
        object.__setattr__(self, "phase", phase)
        # the "0" parses the empty string too
        object.__setattr__(self, "x_mask", int("0" + self.letters.translate(_X_BITS), 2))
        object.__setattr__(self, "z_mask", int("0" + self.letters.translate(_Z_BITS), 2))
        object.__setattr__(self, "y_phase", _I_POWERS[self.letters.count("Y") % 4])

    def __len__(self) -> int:
        return len(self.letters)

    @classmethod
    def from_support(cls, n_qubits: int, assignments: dict[int, str],
                     phase: complex = 1) -> "PauliString":
        letters = ["I"] * n_qubits
        for q, letter in assignments.items():
            letters[q] = letter
        return cls("".join(letters), phase)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.letters) if c != "I")

    @property
    def weight(self) -> int:
        return len(self.support)

    def is_hermitian(self) -> bool:
        return abs(self.phase.imag) < 1e-12

    def matrix(self) -> np.ndarray:
        out = np.array([[self.phase]], dtype=complex)
        for c in self.letters:
            out = np.kron(out, _PAULI_MATRICES[c])
        return out


@dataclass(frozen=True)
class NoiseSpec:
    """Phenomenological noise knobs for state preparation, and where they act.

    ``white_noise_v`` keeps the state with weight v and admixes the maximally
    mixed state with weight 1-v.  ``pairs`` lists the interfering pairs
    (i, j) of qubit indices.  ``pair_dephasing_d`` applies, per pair,
    ``rho -> (1-d) rho + d (Z@Z) rho (Z@Z)``.  ``epr_visibility`` models an
    imperfect pair source: per pair it phase-flips the first member with
    probability (1-V)/2, which on a Bell pair leaves <XX> = V.  A pair's
    range is checked against the state the channel is applied to.
    """

    white_noise_v: float = 1.0
    pair_dephasing_d: float = 0.0
    epr_visibility: float = 1.0
    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for name in ("white_noise_v", "pair_dephasing_d", "epr_visibility"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        pairs = tuple((operator.index(i), operator.index(j)) for i, j in self.pairs)
        for i, j in pairs:
            if i == j:
                raise ValueError(f"invalid interfering pair ({i}, {j})")
        object.__setattr__(self, "pairs", pairs)

    def is_noiseless(self) -> bool:
        return (self.white_noise_v == 1.0 and self.pair_dephasing_d == 0.0
                and self.epr_visibility == 1.0)


@dataclass(frozen=True)
class Seed:
    """Master seed with counter-based stream derivation.

    ``stream(*key)`` returns a generator that depends only on the master seed
    and the key tuple, so independent sub-computations draw from independent,
    reproducible streams regardless of execution order.
    """

    master_seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")

    def stream(self, *key: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.master_seed, spawn_key=tuple(key))
        return np.random.default_rng(ss)


# --------------------------------------------------------------------------
# tensor helpers


def _apply_on_axes(tensor: np.ndarray, u: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Apply the 2^k x 2^k matrix ``u`` to the listed tensor axes."""
    k = len(axes)
    nd = tensor.ndim
    tensor = np.moveaxis(tensor, axes, range(k))
    rest = tensor.shape[k:]
    tensor = tensor.reshape(2 ** k, -1)
    tensor = u @ tensor
    tensor = tensor.reshape((2,) * k + rest)
    return np.moveaxis(tensor, range(k), axes)


def _gate_matrix(gate: str, alpha: float | None) -> np.ndarray:
    name = gate.upper()
    if name in ("RZ", "RZ(ALPHA)"):
        if alpha is None:
            raise ValueError("Rz requires an alpha angle")
        return rz_matrix(alpha)
    try:
        return {
            "H": HADAMARD, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z,
            "CNOT": CNOT_MATRIX, "CZ": CZ_MATRIX,
        }[name]
    except KeyError:
        raise ValueError(f"unknown gate {gate!r}") from None


def _check_targets(n: int, targets: Sequence[int], arity: int) -> None:
    if len(targets) != arity:
        raise ValueError(f"gate expects {arity} target(s), got {len(targets)}")
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate targets {tuple(targets)}")
    for t in targets:
        if not 0 <= t < n:
            raise ValueError(f"target {t} out of range for {n} qubits")


def apply_gate(state: State, gate: str, targets: Sequence[int], *,
               alpha: float | None = None) -> State:
    """Apply a named unitary (H, X, Y, Z, Rz(alpha), CNOT, CZ) to a state.

    For a density matrix the map is rho -> U rho U^dagger.  For CNOT the
    first target is the control.
    """
    u = _gate_matrix(gate, alpha)
    arity = int(round(math.log2(u.shape[0])))
    targets = list(targets)
    _check_targets(state.n_qubits, targets, arity)
    if isinstance(state, StateVector):
        n = state.n_qubits
        psi = state.amplitudes.reshape((2,) * n)
        psi = _apply_on_axes(psi, u, targets)
        return StateVector(n, psi.reshape(-1))
    n = state.n_qubits
    t = state.matrix.reshape((2,) * (2 * n))
    t = _apply_on_axes(t, u, targets)
    t = _apply_on_axes(t, u.conj(), [n + q for q in targets])
    return DensityMatrix._trusted(n, t.reshape(2 ** n, 2 ** n))


def partial_trace(rho: DensityMatrix, discard: Iterable[int]) -> DensityMatrix:
    """Trace out the listed qubits; survivors keep their relative order."""
    discard = sorted(set(discard))
    n = rho.n_qubits
    if not discard:
        raise ValueError("discard set is empty")
    for q in discard:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n} qubits")
    if len(discard) == n:
        raise ValueError("cannot discard every qubit")
    t = rho.matrix.reshape((2,) * (2 * n))
    cur = n
    for q in reversed(discard):
        t = np.trace(t, axis1=q, axis2=q + cur)
        cur -= 1
    dim = 2 ** cur
    return DensityMatrix._trusted(cur, t.reshape(dim, dim))


class ZeroProbabilityBranch(NumericalError):
    """A forced measurement outcome has (numerically) zero probability."""


class MeasurementResult(NamedTuple):
    state: DensityMatrix | LossState
    probability: float


def basis_vectors(basis: str, alpha: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Return the (outcome 0, outcome 1) single-qubit basis kets.

    ``"z"`` is {|0>, |1>}, ``"x"`` is {|+>, |->}, and ``"b"`` is
    {(|0> + e^{i alpha}|1>)/sqrt2, (|0> - e^{i alpha}|1>)/sqrt2}.
    """
    name = basis.lower()
    if name == "z":
        return (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex))
    if name == "x":
        return (np.array([1, 1], dtype=complex) / _SQ2,
                np.array([1, -1], dtype=complex) / _SQ2)
    if name == "b":
        if alpha is None:
            raise ValueError("B(alpha) basis requires alpha")
        phase = np.exp(1j * alpha)
        return (np.array([1, phase], dtype=complex) / _SQ2,
                np.array([1, -phase], dtype=complex) / _SQ2)
    raise ValueError(f"unknown basis {basis!r}")


def _kept_block(rho: DensityMatrix, qubit: int, basis: str, alpha: float | None,
                outcome: int) -> tuple[float, np.ndarray, float]:
    """The kept state <o|rho|o> of ``outcome`` as ``weight * block``, and its trace.

    ``block`` is a fresh matrix.  ``rho`` is viewed as ``t[a, i, b, c, j, d]``
    with ``i``, ``j`` the measured qubit, so a Z outcome is the slice
    ``t[:, o, :, :, o, :]`` with weight 1.  For the kets
    (|0> +- e^{i alpha}|1>)/sqrt2 the block is ``diag +- coh`` with weight
    0.5, left unapplied so that ``measure`` folds it into its normalising
    multiply; both terms are sums of conjugate pairs, so a Hermitian ``rho``
    gives an exactly Hermitian block.
    """
    n = rho.n_qubits
    high, low = 2 ** qubit, 2 ** (n - qubit - 1)
    dim = high * low
    t = rho.matrix.reshape(high, 2, low, high, 2, low)
    if basis == "z":
        weight = 1.0
        block = np.array(t[:, outcome, :, :, outcome, :])
    else:
        weight = 0.5
        diag = t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :]
        if basis == "x":
            coh = t[:, 0, :, :, 1, :] + t[:, 1, :, :, 0, :]
        else:
            phase = np.exp(1j * alpha)
            coh = phase * t[:, 0, :, :, 1, :]
            coh += np.conj(phase) * t[:, 1, :, :, 0, :]
        block = (np.add, np.subtract)[outcome](diag, coh, out=diag)
    block = block.reshape(dim, dim)
    # a power-of-two weight scales every partial sum of the trace exactly
    return weight, block, weight * float(block.trace().real)


def measure(rho: DensityMatrix | LossState, qubit: int, basis: str = "z", *,
            forced: int, alpha: float | None = None) -> MeasurementResult:
    """Project one qubit onto the ``forced`` outcome and remove it from the state.

    Outcome 0 corresponds to the first basis vector.  Forcing an outcome of
    (numerically) zero probability raises :class:`ZeroProbabilityBranch`.
    A ``LossState`` stays factored through a Z outcome; an X or B(alpha)
    outcome forms its matrix.
    """
    if not 0 <= qubit < rho.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {rho.n_qubits} qubits")
    name = basis.lower()
    if name not in ("z", "x", "b"):
        raise ValueError(f"unknown basis {basis!r}")
    if name == "b" and alpha is None:
        raise ValueError("B(alpha) basis requires alpha")
    if forced not in (0, 1):
        raise ValueError("forced outcome must be 0 or 1")
    if isinstance(rho, LossState) and name != "z":
        rho = rho.density()
    factored = isinstance(rho, LossState)
    weight, mat, prob = ((1.0, *rho._z_rows(qubit, forced)) if factored
                         else _kept_block(rho, qubit, name, alpha, forced))
    if not prob >= _ZERO_PROB:
        raise ZeroProbabilityBranch(f"forced outcome {forced} has zero probability ({prob:.3e})")
    if factored:
        return MeasurementResult(rho._without(qubit, mat, prob), prob)
    # One real multiply of the float64 view.  numpy divides by a complex
    # with zero imaginary part as (re + im * 0) * (1 / prob), so this gives
    # the bits of ``weight * block / prob`` up to the sign of a zero.  The
    # view needs a contiguous last axis: a block sliced from an F-ordered
    # rho keeps that order, so it is copied to C order first (a no-op for
    # the usual C block).
    mat = np.ascontiguousarray(mat)
    real = mat.view(np.float64)
    real *= weight * (1.0 / prob)
    return MeasurementResult(DensityMatrix._trusted(rho.n_qubits - 1, mat), prob)


@lru_cache(maxsize=None)
def _bit_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices 0..2^n-1 and the signs (-1)^popcount(c) at each index c."""
    signs = np.ones(1)
    for _ in range(n):
        signs = np.concatenate((signs, -signs))
    idx = np.arange(2 ** n)
    for table in (idx, signs):
        table.setflags(write=False)
    return idx, signs


def expectation(state: State, obs: PauliString) -> float:
    """Expectation value Tr(rho P) (or <psi|P|psi>) of a Hermitian Pauli string.

    With the string's X-mask x, Z-mask z (the Y and Z positions) and ny Y
    letters, P|c> = i^ny (-1)^popcount(c & z) |c ^ x>, so one gather
    evaluates it.  The masks and i^ny are read from the string, not parsed.
    """
    n = state.n_qubits
    if len(obs) != n:
        raise ValueError(f"Pauli string length {len(obs)} does not match {n} qubits")
    x, z, i_power = obs.x_mask, obs.z_mask, obs.y_phase
    idx, signs = _bit_tables(n)
    flipped = idx ^ x
    if isinstance(state, StateVector):
        psi = state.amplitudes
        phi = psi[flipped] * signs[flipped & z]   # P|psi>, up to the factor i^ny
        if i_power != 1:
            phi *= i_power
        val = obs.phase * np.vdot(psi, phi)
    else:
        terms = state.matrix[idx, flipped]        # rho[c, c ^ x]
        val = obs.phase * i_power * np.dot(terms, signs[idx & z])
    if abs(val.imag) > 1e-8:
        raise NumericalError(f"expectation of non-Hermitian observable (got {val})")
    return float(val.real)


def fidelity_pure(psi: StateVector, rho: Union[DensityMatrix, StateVector]) -> float:
    """Overlap F = <psi| rho |psi> of a pure target with a (possibly mixed) state."""
    if rho.n_qubits != psi.n_qubits:
        raise ValueError("dimension mismatch between target and state")
    if isinstance(rho, StateVector):
        return float(abs(psi.inner(rho)) ** 2)
    val = np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes)
    return float(val.real)


def _z_masks(spec: NoiseSpec, n: int, kept: Sequence[int]) -> list[tuple[float, int]]:
    """The Z-type mixing terms of ``spec`` as ``(weight, Z-mask)`` on the qubits ``kept``.

    Each of the spec's pairs (i, j) of the ``n`` qubits gives the dephasing
    term (d, {i, j}) and the visibility term ((1-V)/2, {i}); terms of weight
    zero are left out.  Qubits not in ``kept`` leave the support, ``kept``
    is renumbered in order, and a term with no qubit left drops out.
    """
    for i, j in spec.pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"invalid interfering pair ({i}, {j})")
    bit = [0] * n   # each qubit's bit in a Z-mask on ``kept``; 0 if it is not kept
    for k, q in enumerate(kept):
        bit[q] = 1 << (len(kept) - 1 - k)
    masks = []
    if spec.pair_dephasing_d > 0.0:
        masks += [(spec.pair_dephasing_d, bit[i] | bit[j]) for i, j in spec.pairs]
    if spec.epr_visibility < 1.0:
        masks += [((1.0 - spec.epr_visibility) / 2.0, bit[i]) for i, _ in spec.pairs]
    return [(w, z) for w, z in masks if z]


_MIX_CHUNK = 1 << 15   # matrix entries per row chunk of the Z-mixing gather


def _add_noise(mat: np.ndarray, n: int, v: float, u: float,
               masks: Sequence[tuple[float, int]]) -> None:
    """In place: scale by v and every Z-type mixing term, then add u times the identity.

    A term (w, z) maps rho -> (1-w) rho + w Z rho Z with Z on the qubits of
    mask z, which scales entry (r, c) by (1-w) + w (-1)^popcount((r ^ c) & z).
    So all terms together, times v, scale entry (r, c) by one factor
    f[r ^ c], applied in a single pass.
    """
    idx, signs = _bit_tables(n)
    if masks:
        f = np.full(2 ** n, v)
        for w, z in masks:
            f *= (1.0 - w) + w * signs[idx & z]
        rows = max(1, _MIX_CHUNK >> n)
        for a in range(0, 2 ** n, rows):
            mat[a:a + rows] *= f[idx[a:a + rows, None] ^ idx]
    elif v != 1.0:
        mat *= v
    if u:
        mat[idx, idx] += u


def apply_channel(rho: DensityMatrix, spec: NoiseSpec) -> DensityMatrix:
    """Apply the preparation-noise channel described by ``spec``.

    Components compose in the listed order: white noise first, then for each
    of the spec's pairs the ZZ dephasing map, then the pair-source visibility
    map (a phase flip on the first member of each pair with probability (1-V)/2).
    All three maps are unital and mutually commuting, so the order is a
    documentation choice rather than a physical one.  A noiseless ``spec``
    returns ``rho`` itself.
    """
    n = rho.n_qubits
    masks = _z_masks(spec, n, range(n))
    if spec.is_noiseless():
        return rho
    mat = rho.matrix.copy()   # C order, whatever the layout of rho.matrix
    v = spec.white_noise_v
    _add_noise(mat, n, v, (1.0 - v) / 2 ** n, masks)
    return DensityMatrix._trusted(n, mat)


@dataclass(frozen=True)
class LossState:
    """A detected-loss state D = v (F o A A^dagger) + u I (see the module docstring).

    ``amplitudes`` is A, survivors x lost qubits, and F[r, c] is the product
    over the Z-type ``masks`` (w, z) of (1-w) + w (-1)^popcount((r ^ c) & z).
    """

    n_qubits: int
    amplitudes: np.ndarray
    v: float
    u: float
    masks: tuple[tuple[float, int], ...]

    @classmethod
    def after_loss(cls, psi: StateVector, lost: Iterable[int],
                   spec: NoiseSpec | None = None) -> "LossState":
        """``psi`` prepared with noise ``spec``, once the qubits ``lost`` are lost."""
        n = psi.n_qubits
        lost = sorted(set(lost))
        for q in lost:
            if not 0 <= q < n:
                raise ValueError(f"qubit {q} out of range for {n} qubits")
        if len(lost) == n:
            raise ValueError("cannot discard every qubit")
        spec = spec if spec is not None else NoiseSpec()
        survivors = [q for q in range(n) if q not in lost]
        s, v = len(survivors), spec.white_noise_v
        a = psi.amplitudes.reshape((2,) * n).transpose(survivors + lost).reshape(2 ** s, -1)
        return cls(s, a, v, (1.0 - v) / 2 ** s, tuple(_z_masks(spec, n, survivors)))

    def density(self) -> DensityMatrix:
        mat = self.amplitudes @ self.amplitudes.conj().T
        _add_noise(mat, self.n_qubits, self.v, self.u, self.masks)
        return DensityMatrix._trusted(self.n_qubits, mat)

    def _z_rows(self, qubit: int, outcome: int) -> tuple[np.ndarray, float]:
        """The rows of A where ``qubit`` reads ``outcome``, and that outcome's probability."""
        half = 2 ** (self.n_qubits - 1)
        a = self.amplitudes.reshape(2 ** qubit, 2, -1)[:, outcome].reshape(half, -1)
        return a, self.v * float(np.vdot(a, a).real) + self.u * half

    def _without(self, qubit: int, rows: np.ndarray, prob: float) -> "LossState":
        """The state on ``rows`` over ``prob``, with ``qubit``'s bit cut out of each mask."""
        b = self.n_qubits - 1 - qubit
        cut = ((w, (z >> (b + 1) << b) | (z & ((1 << b) - 1))) for w, z in self.masks)
        return LossState(self.n_qubits - 1, rows, self.v / prob, self.u / prob,
                         tuple((w, z) for w, z in cut if z))


def post_loss_state(psi: StateVector, lost: Iterable[int],
                    spec: NoiseSpec | None = None) -> DensityMatrix:
    """The survivors' state after ``psi`` is prepared with noise ``spec`` and ``lost`` is lost.

    Equal to ``partial_trace(apply_channel(psi.density(), spec), lost)``
    (survivors keep their relative order), without the 2^n x 2^n matrix.
    """
    return LossState.after_loss(psi, lost, spec).density()
