"""Core engine tests: gates, measurement, channels, and algebraic invariants."""

import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import losskit.cluster
import losskit.qsim
from losskit.cluster import MeasurementPattern, PatternStep, pattern_branches
from losskit.qsim import (
    CNOT_MATRIX,
    CZ_MATRIX,
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    LossState,
    NoiseSpec,
    PauliString,
    Seed,
    StateVector,
    ZeroProbabilityBranch,
    apply_channel,
    apply_gate,
    basis_vectors,
    expectation,
    fidelity_pure,
    measure,
    partial_trace,
    post_loss_state,
    rz_matrix,
)
from losskit.qsim import _PAULI_MATRICES, _apply_on_axes

SQ2 = math.sqrt(2.0)


def ket(*amps):
    return StateVector.from_amplitudes(list(amps), normalize=True)


def bell_phi_plus():
    return ket(1, 0, 0, 1)


def maximally_mixed(n):
    return DensityMatrix(n, np.eye(2 ** n) / 2 ** n)


def random_state(rng, n):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return StateVector.from_amplitudes(amps, normalize=True)


class TestDensityMatrixBoundary:
    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError, match="shape"):
            DensityMatrix(2, np.eye(2) / 2)

    def test_non_hermitian_raises(self):
        mat = np.eye(2, dtype=complex) / 2
        mat[0, 1] = 1e-7   # 1e-7 away from its Hermitian conjugate
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(1, mat)

    def test_trace_not_one_raises(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(2, np.eye(4))

    def test_caller_array_is_copied(self):
        mat = np.eye(2, dtype=complex) / 2
        rho = DensityMatrix(1, mat)
        mat[0, 0] = 0.9
        mat[0, 1] = 0.3
        np.testing.assert_array_equal(rho.matrix, np.eye(2) / 2)
        assert not rho.matrix.flags.writeable


class TestNaNFailsTheChecks:
    """Every guard is written so that a NaN fails it: ``abs(nan - 1) > tol`` is False."""

    def test_nan_amplitude_raises(self):
        for amps in ([math.nan, 0.0], [1.0, math.nan]):
            with pytest.raises(ValueError, match="not normalized"):
                StateVector(1, amps)
            with pytest.raises(ValueError, match="norm nan"):
                StateVector.from_amplitudes(amps, normalize=True)

    def test_nan_trace_raises(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix._trusted(1, np.array([[math.nan, 0], [0, 1]], dtype=complex))

    def test_nan_probability_is_a_zero_probability_branch(self):
        state = LossState(1, np.array([[math.nan], [0.0]], dtype=complex), 1.0, 0.0, ())
        with pytest.raises(ZeroProbabilityBranch, match="zero probability"):
            measure(state, 0, forced=0)


class TestBasisState:
    def test_index_bitstring_and_bit_list_agree(self):
        for index in range(8):
            bits = format(index, "03b")
            want = np.eye(8)[index]
            for spec in (index, bits, [int(b) for b in bits]):
                np.testing.assert_array_equal(StateVector.basis_state(3, spec).amplitudes, want)

    @pytest.mark.parametrize("bits", [-1, 4, [2], [0, 1, 1], [0.5, 1], "111", "1", "12", ""])
    def test_out_of_range_raises(self, bits):
        with pytest.raises(ValueError, match="basis"):
            StateVector.basis_state(2, bits)


INVARIANTS = settings(max_examples=50, deadline=None, derandomize=True)


@st.composite
def pure_states(draw, min_qubits=2):
    n = draw(st.integers(min_qubits, 6))
    return random_state(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), n)


def check_internal_result(op, source):
    """``op()`` gives a fresh, frozen, Hermitian trace-one state and leaves ``source`` as it was."""
    before = source.copy()
    mat = op().matrix
    assert not mat.flags.writeable
    assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
    assert abs(np.trace(mat) - 1) <= 1e-10
    assert not np.shares_memory(mat, source)
    np.testing.assert_array_equal(source, before)


class TestInternalResults:
    """Internal results skip the Hermiticity check, so it is asserted here."""

    @INVARIANTS
    @given(pure_states(min_qubits=1))
    def test_density(self, psi):
        check_internal_result(psi.density, psi.amplitudes)

    @INVARIANTS
    @given(pure_states(), st.sampled_from(["H", "X", "Y", "Z", "RZ", "CNOT", "CZ"]),
           st.data())
    def test_apply_gate(self, psi, gate, data):
        rho = psi.density()
        arity = 2 if gate in ("CNOT", "CZ") else 1
        targets = data.draw(st.permutations(range(psi.n_qubits)))[:arity]
        alpha = data.draw(st.floats(-4, 4))
        check_internal_result(lambda: apply_gate(rho, gate, targets, alpha=alpha), rho.matrix)

    @INVARIANTS
    @given(pure_states(), st.data())
    def test_partial_trace(self, psi, data):
        rho = psi.density()
        order = data.draw(st.permutations(range(psi.n_qubits)))
        discard = order[:data.draw(st.integers(1, psi.n_qubits - 1))]
        check_internal_result(lambda: partial_trace(rho, discard), rho.matrix)

    @INVARIANTS
    @given(pure_states(), st.sampled_from(["z", "x", "b"]), st.integers(0, 1), st.data())
    def test_forced_measure(self, psi, basis, forced, data):
        rho = psi.density()
        qubit = data.draw(st.integers(0, psi.n_qubits - 1))
        alpha = data.draw(st.floats(-4, 4))
        check_internal_result(
            lambda: measure(rho, qubit, basis, alpha=alpha, forced=forced).state, rho.matrix)

    @INVARIANTS
    @given(pure_states(), st.floats(0, 0.999), st.floats(0, 1), st.floats(0, 1), st.data())
    def test_noisy_channel(self, psi, v, d, visibility, data):
        rho = psi.density()
        order = data.draw(st.permutations(range(psi.n_qubits)))
        pairs = [(order[0], order[1])]
        spec = NoiseSpec(v, d, visibility, pairs=pairs)
        check_internal_result(lambda: apply_channel(rho, spec), rho.matrix)

    @INVARIANTS
    @given(pure_states(), st.floats(0, 0.999), st.floats(0, 1), st.floats(0, 1), st.data())
    def test_post_loss_state(self, psi, v, d, visibility, data):
        order = data.draw(st.permutations(range(psi.n_qubits)))
        lost = order[:data.draw(st.integers(1, psi.n_qubits - 1))]
        pairs = [(order[0], order[-1])]
        spec = NoiseSpec(v, d, visibility, pairs=pairs)
        check_internal_result(lambda: post_loss_state(psi, lost, spec), psi.amplitudes)


class TestGates:
    def test_hadamard_on_zero(self):
        out = apply_gate(StateVector.basis_state(1, 0), "H", [0])
        np.testing.assert_allclose(out.amplitudes, [1 / SQ2, 1 / SQ2], atol=1e-12)

    def test_cnot_builds_bell_pair(self):
        plus0 = apply_gate(StateVector.basis_state(2, 0), "H", [0])
        out = apply_gate(plus0, "CNOT", [0, 1])
        np.testing.assert_allclose(out.amplitudes, bell_phi_plus().amplitudes, atol=1e-12)

    def test_rz_on_plus_matches_matrix_exponential(self):
        # oracle: exp(-i alpha Z / 2) evaluated elementwise
        alpha = -math.pi / 2
        oracle = np.diag([np.exp(-0.5j * alpha), np.exp(0.5j * alpha)])
        expected = oracle @ np.array([1, 1]) / SQ2
        out = apply_gate(ket(1, 1), "RZ", [0], alpha=alpha)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)
        # proportional to |0> - i|1>
        ratio = out.amplitudes[1] / out.amplitudes[0]
        assert abs(ratio - (-1j)) < 1e-12

    def test_gate_application_on_density_matrix(self):
        rho = apply_gate(StateVector.basis_state(1, 0).density(), "H", [0])
        np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-12)

    @pytest.mark.parametrize("gate,targets,alpha", [
        ("H", [0], None), ("X", [1], None), ("Y", [2], None), ("Z", [0], None),
        ("RZ", [1], 0.7), ("CNOT", [0, 2], None), ("CZ", [2, 1], None),
    ])
    def test_unitarity_roundtrip(self, gate, targets, alpha):
        rng = np.random.default_rng(3)
        psi = random_state(rng, 3)
        out = apply_gate(psi, gate, targets, alpha=alpha)
        # apply the inverse
        if gate == "RZ":
            out = apply_gate(out, "RZ", targets, alpha=-alpha)
        else:
            out = apply_gate(out, gate, targets, alpha=alpha)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-10)

    def test_gate_errors(self):
        psi = StateVector.basis_state(2, 0)
        with pytest.raises(ValueError):
            apply_gate(psi, "H", [2])
        with pytest.raises(ValueError):
            apply_gate(psi, "CNOT", [1, 1])
        with pytest.raises(ValueError):
            apply_gate(psi, "CNOT", [0])
        with pytest.raises(ValueError):
            apply_gate(psi, "FOO", [0])

    def test_purity_consistency_statevector_vs_density(self):
        rng = np.random.default_rng(8)
        psi = random_state(rng, 3)
        seq = [("H", [1], None), ("CNOT", [1, 2], None), ("RZ", [0], 1.1), ("CZ", [0, 2], None)]
        sv, dm = psi, psi.density()
        for gate, tg, alpha in seq:
            sv = apply_gate(sv, gate, tg, alpha=alpha)
            dm = apply_gate(dm, gate, tg, alpha=alpha)
        np.testing.assert_allclose(dm.matrix, sv.density().matrix, atol=1e-10)

    def test_hzh_equals_x(self):
        np.testing.assert_allclose(HADAMARD @ PAULI_Z @ HADAMARD, PAULI_X, atol=1e-12)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = partial_trace(bell_phi_plus().density(), [0])
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_marginal(self):
        rho = partial_trace(StateVector.basis_state(2, "01").density(), [1])
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_ghz_two_qubit_marginal(self):
        ghz = ket(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)
        rho = partial_trace(ghz.density(), [0, 1])
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)

    def test_trace_preserved_and_errors(self):
        rng = np.random.default_rng(11)
        rho = random_state(rng, 3).density()
        out = partial_trace(rho, [1])
        assert abs(np.trace(out.matrix) - 1) < 1e-10
        with pytest.raises(ValueError):
            partial_trace(rho, [0, 1, 2])
        with pytest.raises(ValueError):
            partial_trace(rho, [])
        with pytest.raises(ValueError):
            partial_trace(rho, [5])


class TestMeasure:
    def test_bell_z_measurement(self):
        state, p = measure(bell_phi_plus().density(), 0, "z", forced=0)
        assert abs(p - 0.5) < 1e-12
        np.testing.assert_allclose(state.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_x_measurement_of_product_factor(self):
        psi = ket(1, 1).tensor(ket(0.3, 0.954))
        state, p = measure(psi.density(), 0, "x", forced=0)
        assert abs(p - 1.0) < 1e-10
        np.testing.assert_allclose(state.matrix, ket(0.3, 0.954).density().matrix, atol=1e-10)

    def test_equatorial_basis_on_circular_state(self):
        # |<-alpha|R>|^2 with alpha = -pi/2: |-alpha> = (|0>+i|1>)/sqrt2 = |R>
        r_state = ket(1, 1j)
        _, p = measure(r_state.density(), 0, "b", alpha=-math.pi / 2, forced=1)
        assert abs(p - 1.0) < 1e-12

    def test_forced_zero_probability_raises(self):
        with pytest.raises(ValueError, match="zero probability"):
            measure(StateVector.basis_state(1, 0).density(), 0, "z", forced=1)
        with pytest.raises(ZeroProbabilityBranch):
            measure(StateVector.basis_state(1, 0).density(), 0, "z", forced=1)

    def test_outcome_probabilities_sum_to_one(self):
        rng = np.random.default_rng(4)
        rho = random_state(rng, 3).density()
        for basis, alpha in (("z", None), ("x", None), ("b", 0.9)):
            _, p0 = measure(rho, 1, basis, alpha=alpha, forced=0)
            _, p1 = measure(rho, 1, basis, alpha=alpha, forced=1)
            assert abs(p0 + p1 - 1.0) < 1e-10

    def test_branch_average_reproduces_partial_trace(self):
        rng = np.random.default_rng(5)
        rho = random_state(rng, 3).density()
        s0, p0 = measure(rho, 2, "z", forced=0)
        s1, p1 = measure(rho, 2, "z", forced=1)
        averaged = p0 * s0.matrix + p1 * s1.matrix
        np.testing.assert_allclose(averaged, partial_trace(rho, [2]).matrix, atol=1e-10)

    def test_basis_vector_conventions(self):
        b0, b1 = basis_vectors("b", alpha=0.0)
        x0, x1 = basis_vectors("x")
        np.testing.assert_allclose(b0, x0)
        np.testing.assert_allclose(b1, x1)


# Reference kernels: the generic tensor code that ``expectation`` and
# ``measure`` replaced, kept here to pin the bit-index kernels against.


def reference_expectation_sv(psi, pauli):
    """<psi|P|psi> applying P one letter at a time on the state's tensor axes."""
    t = psi.amplitudes.reshape((2,) * psi.n_qubits)
    for q, letter in enumerate(pauli.letters):
        if letter != "I":
            t = _apply_on_axes(t, _PAULI_MATRICES[letter], [q])
    return float((pauli.phase * np.vdot(psi.amplitudes, t.reshape(-1))).real)


def reference_project(rho, qubit, vec):
    """(normalised state, probability) of projecting ``qubit`` onto ``vec`` by einsum."""
    n = rho.n_qubits
    t = np.moveaxis(rho.matrix.reshape((2,) * (2 * n)), (qubit, n + qubit), (0, 1))
    collapsed = np.einsum("i,ij...,j->...", vec.conj(), t, vec).reshape(2 ** (n - 1), -1)
    prob = float(np.real(np.trace(collapsed)))
    mat = collapsed / prob
    return 0.5 * (mat + mat.conj().T), prob


def reference_slice_measure(rho, qubit, basis, alpha, forced):
    """The slice kernel that divided by the probability: kept block, ``*= 0.5``, ``/= prob``."""
    n = rho.n_qubits
    high, low = 2 ** qubit, 2 ** (n - qubit - 1)
    dim = high * low
    t = rho.matrix.reshape(high, 2, low, high, 2, low)
    if basis == "z":
        block = np.array(t[:, forced, :, :, forced, :])
    else:
        diag = t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :]
        if basis == "x":
            coh = t[:, 0, :, :, 1, :] + t[:, 1, :, :, 0, :]
        else:
            phase = np.exp(1j * alpha)
            coh = phase * t[:, 0, :, :, 1, :]
            coh += np.conj(phase) * t[:, 1, :, :, 0, :]
        block = (np.add, np.subtract)[forced](diag, coh, out=diag)
        block *= 0.5
    mat = block.reshape(dim, dim)
    prob = float(np.real(np.trace(mat)))
    mat /= prob
    return mat, prob


def assert_measure_bitwise(rho, qubit, basis, alpha):
    """``measure`` equals ``reference_slice_measure`` bit for bit, on both outcomes."""
    for forced in (0, 1):
        state, prob = measure(rho, qubit, basis, alpha=alpha, forced=forced)
        ref_mat, ref_prob = reference_slice_measure(rho, qubit, basis, alpha, forced)
        assert prob == ref_prob, (qubit, basis, forced)
        assert np.array_equal(state.matrix, ref_mat), (qubit, basis, forced)


def mixed_state(rng, n):
    """A full-rank state with no special structure: a noisy, rotated random pure state."""
    rho = apply_gate(random_state(rng, n).density(), "RZ", [n - 1], alpha=0.37)
    return apply_channel(rho, NoiseSpec(white_noise_v=0.8))


def reference_conjugate_mix(rho_mat, n, weight, paulis):
    """(1-w) rho + w P rho P for a product P of single-qubit Paulis, on tensor axes."""
    t = rho_mat.reshape((2,) * (2 * n))
    for q, letter in paulis.items():
        u = _PAULI_MATRICES[letter]
        t = _apply_on_axes(t, u, [q])
        t = _apply_on_axes(t, u.conj(), [n + q])
    return (1.0 - weight) * rho_mat + weight * t.reshape(rho_mat.shape)


def reference_channel(rho, spec):
    """The noise channel as a white-noise step and one conjugation pass per term."""
    n = rho.n_qubits
    v = spec.white_noise_v
    mat = v * rho.matrix
    mat[np.diag_indices(2 ** n)] += (1.0 - v) / 2 ** n
    if spec.pair_dephasing_d > 0.0:
        for i, j in spec.pairs:
            mat = reference_conjugate_mix(mat, n, spec.pair_dephasing_d, {i: "Z", j: "Z"})
    if spec.epr_visibility < 1.0:
        for i, _ in spec.pairs:
            mat = reference_conjugate_mix(mat, n, (1.0 - spec.epr_visibility) / 2.0, {i: "Z"})
    return DensityMatrix(n, mat)


def reference_post_loss(psi, lost, spec):
    """density(), then the reference channel on all n qubits, then the partial trace."""
    return partial_trace(reference_channel(psi.density(), spec), lost)


class TestKernelsAgainstReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_statevector_expectation_bitwise_on_every_string(self, n):
        psi = random_state(np.random.default_rng(20 + n), n)
        for letters in product("IXYZ", repeat=n):
            for phase in (1, -1):
                pauli = PauliString("".join(letters), phase)
                assert expectation(psi, pauli) == reference_expectation_sv(psi, pauli), letters

    @INVARIANTS
    @given(pure_states(min_qubits=1), st.data())
    def test_statevector_expectation_bitwise_on_drawn_strings(self, psi, data):
        letters = data.draw(st.text("IXYZ", min_size=psi.n_qubits, max_size=psi.n_qubits))
        pauli = PauliString(letters, data.draw(st.sampled_from([1, -1])))
        assert expectation(psi, pauli) == reference_expectation_sv(psi, pauli)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_density_expectation_matches_trace(self, n):
        rho = mixed_state(np.random.default_rng(30 + n), n)
        for letters in product("IXYZ", repeat=n):
            pauli = PauliString("".join(letters), -1)
            oracle = np.trace(rho.matrix @ pauli.matrix()).real
            assert abs(expectation(rho, pauli) - oracle) <= 1e-12, letters

    def test_non_hermitian_observable_raises_on_both_paths(self):
        psi = ket(1, 1)
        for state in (psi, psi.density()):
            with pytest.raises(ValueError, match="non-Hermitian"):
                expectation(state, PauliString("X", 1j))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_measure_matches_einsum_projection(self, n):
        rng = np.random.default_rng(40 + n)
        rho = mixed_state(rng, n)
        for qubit, basis in product(range(n), ("z", "x", "b")):
            alpha = rng.uniform(-4, 4) if basis == "b" else None
            kets = basis_vectors(basis, alpha)
            for forced in (0, 1):
                state, prob = measure(rho, qubit, basis, alpha=alpha, forced=forced)
                ref_mat, ref_prob = reference_project(rho, qubit, kets[forced])
                assert abs(prob - ref_prob) <= 1e-12
                assert np.max(np.abs(state.matrix - ref_mat)) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_measure_bitwise_equals_division_kernel(self, n):
        # array_equal counts -0.0 equal to 0.0: a sign of zero is the only
        # place a multiply by 1/prob and numpy's complex division can differ
        rng = np.random.default_rng(60 + n)
        rho = mixed_state(rng, n)
        for qubit, basis in product(range(n), ("z", "x", "b")):
            alpha = rng.uniform(-4, 4) if basis == "b" else None
            assert_measure_bitwise(rho, qubit, basis, alpha)

    @INVARIANTS
    @given(pure_states(min_qubits=1), st.sampled_from(["z", "x", "b"]), st.data())
    def test_measure_bitwise_on_drawn_states(self, psi, basis, data):
        rho = psi.density()
        qubit = data.draw(st.integers(0, psi.n_qubits - 1))
        alpha = data.draw(st.floats(-4, 4)) if basis == "b" else None
        assert_measure_bitwise(rho, qubit, basis, alpha)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_measure_bitwise_on_non_c_ordered_states(self, n):
        # a transposed matrix stays F-ordered through DensityMatrix, and a
        # two-qubit gate on two qubits returns a non-C view; blocks sliced
        # from either keep that layout
        rng = np.random.default_rng(80 + n)
        rho = mixed_state(rng, n)
        states = [DensityMatrix(n, rho.matrix.T)]
        if n == 2:
            states.append(apply_gate(rho, "CNOT", [0, 1]))
        for state in states:
            assert not state.matrix.flags.c_contiguous
            for qubit, basis in product(range(n), ("z", "x", "b")):
                alpha = rng.uniform(-4, 4) if basis == "b" else None
                assert_measure_bitwise(state, qubit, basis, alpha)

    def test_exact_hermiticity_survives_a_measurement_chain(self):
        # measure has no output scrub: each kept block is a sum of conjugate
        # pairs, so an exactly Hermitian input stays exactly Hermitian.  The
        # input is density() made exactly Hermitian at the boundary, because
        # a fused multiply-add in the complex outer product can leave
        # density() off by one rounding.
        rng = np.random.default_rng(50)
        mat = random_state(rng, 6).density().matrix
        rho = DensityMatrix(6, 0.5 * (mat + mat.conj().T))
        for basis in ("z", "x", "b", "x", "z"):
            qubit = int(rng.integers(rho.n_qubits))
            rho = measure(rho, qubit, basis, alpha=rng.uniform(-4, 4),
                          forced=int(rng.integers(2))).state
            assert np.array_equal(rho.matrix, rho.matrix.conj().T), basis

    def test_index_tables_are_built_on_first_use(self):
        code = ("import losskit.qsim as q; before = q._bit_tables.cache_info().currsize; "
                "q.expectation(q.StateVector.basis_state(3, 0), q.PauliString('ZZZ')); "
                "print(before, q._bit_tables.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=str(Path(losskit.qsim.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["0", "1"]


@st.composite
def noisy_losses(draw):
    """(psi, lost, spec): 1-2 lost qubits and spec pairs with 0, 1 and 2 members lost."""
    psi = draw(pure_states())
    n = psi.n_qubits
    order = draw(st.permutations(range(n)))
    lost = order[:draw(st.integers(1, min(2, n - 1)))]
    survivor = order[-1]
    pairs = [(lost[0], survivor), (survivor, lost[-1])]
    if len(lost) == 2:
        pairs.append((lost[1], lost[0]))
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                           .filter(lambda p: p[0] != p[1]), max_size=3))
    pairs = draw(st.permutations(pairs))
    spec = NoiseSpec(draw(st.floats(0, 1)), draw(st.floats(0, 1)), draw(st.floats(0, 1)),
                     pairs=pairs)
    return psi, lost, spec


class TestPostLossState:
    @INVARIANTS
    @given(noisy_losses())
    def test_matches_trace_of_full_noisy_matrix(self, case):
        psi, lost, spec = case
        out = post_loss_state(psi, lost, spec)
        ref = reference_post_loss(psi, lost, spec)
        assert out.n_qubits == ref.n_qubits
        assert np.max(np.abs(out.matrix - ref.matrix)) <= 1e-12

    @INVARIANTS
    @given(noisy_losses())
    def test_apply_channel_matches_reference(self, case):
        psi, _, spec = case
        rho = psi.density()
        out = apply_channel(rho, spec)
        assert np.max(np.abs(out.matrix - reference_channel(rho, spec).matrix)) <= 1e-12

    def test_noiseless_and_no_loss(self):
        psi = random_state(np.random.default_rng(60), 4)
        np.testing.assert_allclose(post_loss_state(psi, [2]).matrix,
                                   partial_trace(psi.density(), [2]).matrix, atol=1e-15)
        np.testing.assert_allclose(post_loss_state(psi, []).matrix, psi.density().matrix,
                                   atol=1e-15)

    def test_survivors_keep_their_order(self):
        psi = StateVector.basis_state(4, "0110")
        out = post_loss_state(psi, [3, 0, 3])
        np.testing.assert_array_equal(out.matrix, StateVector.basis_state(2, "11").density().matrix)

    def test_errors_match_the_full_path(self):
        psi = random_state(np.random.default_rng(61), 3)
        with pytest.raises(ValueError, match=r"invalid interfering pair \(0, 3\)"):
            post_loss_state(psi, [0], NoiseSpec(pairs=[(0, 3)]))
        with pytest.raises(ValueError, match=r"invalid interfering pair \(1, 1\)"):
            post_loss_state(psi, [0], NoiseSpec(pair_dephasing_d=0.1, pairs=[(1, 1)]))
        with pytest.raises(ValueError, match="qubit 3 out of range for 3 qubits"):
            post_loss_state(psi, [3])
        with pytest.raises(ValueError, match="qubit -1 out of range for 3 qubits"):
            post_loss_state(psi, [-1])
        with pytest.raises(ValueError, match="cannot discard every qubit"):
            post_loss_state(psi, [0, 1, 2])


@st.composite
def loss_cases(draw, v=None):
    """(psi, lost, spec): n <= 8 qubits, one or two lost, and the whole noise model.

    The pairs are random non-self pairs over all n qubits, so a term may lose
    none, one or both members.  ``v`` fixes the white-noise weight.
    """
    n = draw(st.integers(2, 8))
    psi = random_state(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), n)
    lost = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(2, n - 1),
                         unique=True))
    qubit = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(qubit, qubit).filter(lambda p: p[0] != p[1]),
                          max_size=2 * n))
    v = draw(st.floats(0, 1)) if v is None else v
    return psi, lost, NoiseSpec(v, draw(st.floats(0, 1)), draw(st.floats(0, 1)), pairs=pairs)


def assert_same_result(got, ref):
    """A factored and a dense ``MeasurementResult`` agree to 1e-12."""
    assert abs(got.probability - ref.probability) <= 1e-12
    mat = got.state.density().matrix if isinstance(got.state, LossState) else got.state.matrix
    assert mat.shape == ref.state.matrix.shape
    assert np.max(np.abs(mat - ref.state.matrix)) <= 1e-12


class TestLossState:
    """``LossState`` keeps D = v (F o A A^dagger) + u I through Z outcomes; ``measure`` on
    its ``density()`` is the reference at every step."""

    @INVARIANTS
    @given(loss_cases())
    def test_density_matches_trace_of_full_noisy_matrix(self, case):
        psi, lost, spec = case
        out = LossState.after_loss(psi, lost, spec).density()
        ref = reference_post_loss(psi, lost, spec)
        assert out.n_qubits == ref.n_qubits
        assert np.max(np.abs(out.matrix - ref.matrix)) <= 1e-12
        assert np.array_equal(out.matrix, post_loss_state(psi, lost, spec).matrix)

    @INVARIANTS
    @given(loss_cases(), st.data())
    def test_z_outcomes_then_an_x_or_b_step_match_the_dense_path(self, case, data):
        state = LossState.after_loss(*case)
        for _ in range(data.draw(st.integers(0, state.n_qubits - 1))):
            rho = state.density()
            qubit = data.draw(st.integers(0, state.n_qubits - 1))
            forced = data.draw(st.sampled_from([0, 1]))
            result = measure(state, qubit, forced=forced)
            assert isinstance(result.state, LossState)
            assert_same_result(result, measure(rho, qubit, forced=forced))
            state = result.state
        rho = state.density()
        qubit = data.draw(st.integers(0, state.n_qubits - 1))
        basis = data.draw(st.sampled_from(["x", "b"]))
        alpha = data.draw(st.floats(-4, 4)) if basis == "b" else None
        for forced in (0, 1):
            result = measure(state, qubit, basis, alpha=alpha, forced=forced)
            assert isinstance(result.state, DensityMatrix)
            assert_same_result(result, measure(rho, qubit, basis, alpha=alpha, forced=forced))

    @INVARIANTS
    @given(loss_cases(v=1.0), st.data())
    def test_zero_probability_z_outcome_raises_the_dense_text(self, case, data):
        # a basis state under Z-type noise alone: every survivor's Z outcome is certain
        n, lost, spec = case[0].n_qubits, case[1], case[2]
        index = data.draw(st.integers(0, 2 ** n - 1))
        state = LossState.after_loss(StateVector.basis_state(n, index), lost, spec)
        qubit = data.draw(st.integers(0, state.n_qubits - 1))
        survivor = [q for q in range(n) if q not in lost][qubit]
        impossible = 1 - (index >> (n - 1 - survivor) & 1)
        with pytest.raises(ZeroProbabilityBranch) as dense:
            measure(state.density(), qubit, forced=impossible)
        with pytest.raises(ZeroProbabilityBranch) as factored:
            measure(state, qubit, forced=impossible)
        assert str(factored.value) == str(dense.value)
        assert measure(state, qubit, forced=1 - impossible).probability == 1.0

    def test_a_pattern_of_z_steps_only_ends_on_the_matrix(self):
        # no X step forms the matrix, so run_pattern forms it before the partial trace
        psi = random_state(np.random.default_rng(63), 5)
        spec = NoiseSpec(0.8, 0.1, 0.9, pairs=[(0, 2), (3, 4)])
        state = LossState.after_loss(psi, [1], spec)
        pattern = MeasurementPattern(steps=(PatternStep(0, "z"), PatternStep(3, "z")), output=4)
        got = pattern_branches(state, pattern, (0, 2, 3, 4))
        ref = pattern_branches(state.density(), pattern, (0, 2, 3, 4))
        assert [bits for bits, _ in got] == [bits for bits, _ in ref]
        assert len(got) == 4
        for (_, g), (_, r) in zip(got, ref):
            assert abs(g.probability - r.probability) <= 1e-12
            assert np.max(np.abs(g.output_state.matrix - r.output_state.matrix)) <= 1e-12

    def test_checks_run_before_the_matrix_is_formed(self, monkeypatch):
        state = LossState.after_loss(random_state(np.random.default_rng(62), 4), [1])
        monkeypatch.setattr(LossState, "density", None)   # any call would fail
        for kwargs, message in (({"qubit": 3, "forced": 0}, "out of range"),
                                ({"qubit": 0, "basis": "y", "forced": 0}, "unknown basis"),
                                ({"qubit": 0, "basis": "b", "forced": 0}, "requires alpha"),
                                ({"qubit": 0, "basis": "x", "forced": 2}, "0 or 1")):
            with pytest.raises(ValueError, match=message):
                measure(state, **kwargs)


class TestForcedBranches:
    """``cluster.pattern_branches``, the one enumerator of a pattern's forced branches."""

    # Z-measure two qubits of a GHZ state: branches 01 and 10 never occur
    GHZ = ket(1, 0, 0, 0, 0, 0, 0, 1).density()
    ZZ = MeasurementPattern(steps=(PatternStep(0, "z"), PatternStep(1, "z")), output=2)

    def branches(self, **kwargs):
        return pattern_branches(self.GHZ, self.ZZ, (0, 1, 2), **kwargs)

    def test_ascending_order_skips_zero_probability(self):
        got = self.branches()
        assert [bits for bits, _ in got] == [(0, 0), (1, 1)]
        assert [r.probability for _, r in got] == pytest.approx([0.5, 0.5])

    def test_forced_branch_runs_alone(self):
        ((bits, result),) = self.branches(forced=(1, 1))
        assert bits == (1, 1) and result.probability == pytest.approx(0.5)

    def test_forced_zero_probability_propagates_with_context(self):
        with pytest.raises(ZeroProbabilityBranch, match="pair A, branch 01: forced outcome 1"):
            self.branches(forced=[0, 1], where="pair A")

    def test_zero_probability_names_the_requested_bit_after_a_relabel(self):
        # the X outcome 1 of qubit 0 relabels the Z measurement of qubit 1,
        # so requesting 0 there measures outcome 1 of |0>
        pattern = MeasurementPattern(
            steps=(PatternStep(0, "x"), PatternStep(1, "z", x_from=(0,))), output=2)
        zero = StateVector.basis_state(3, 0).density()
        with pytest.raises(ZeroProbabilityBranch) as info:
            pattern_branches(zero, pattern, (0, 1, 2), forced=(1, 0))
        assert str(info.value) == ("pattern, branch 10: forced outcome 0 on qubit 1 has zero "
                                   "probability (measured as 1 after feedforward)")

    def test_other_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not a zero-probability branch")

        monkeypatch.setattr(losskit.cluster, "run_pattern", broken)
        with pytest.raises(ValueError, match="not a zero-probability"):
            self.branches()


class TestExpectationAndFidelity:
    def test_ghz_stabilizer_expectations(self):
        ghz = ket(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)
        assert abs(expectation(ghz, PauliString("ZZZZ")) - 1) < 1e-10
        assert abs(expectation(ghz, PauliString("XXXX")) - 1) < 1e-10

    def test_bell_single_qubit_marginal_expectation(self):
        assert abs(expectation(bell_phi_plus(), PauliString("ZI"))) < 1e-12

    def test_expectation_length_mismatch(self):
        with pytest.raises(ValueError):
            expectation(bell_phi_plus(), PauliString("Z"))

    def test_fidelity_identity_and_mixed(self):
        zero = StateVector.basis_state(1, 0)
        assert abs(fidelity_pure(zero, zero.density()) - 1.0) < 1e-12
        rng = np.random.default_rng(6)
        psi = random_state(rng, 4)
        assert abs(fidelity_pure(psi, maximally_mixed(4)) - 1 / 16) < 1e-12

    def test_fidelity_of_half_admixture(self):
        rng = np.random.default_rng(7)
        psi = random_state(rng, 4)
        mat = 0.5 * psi.density().matrix + 0.5 * np.eye(16) / 16
        assert abs(fidelity_pure(psi, DensityMatrix(4, mat)) - 0.53125) < 1e-12

    def test_fidelity_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_pure(StateVector.basis_state(1, 0), maximally_mixed(2))


class TestPauliString:
    def test_validation(self):
        with pytest.raises(ValueError, match="invalid Pauli letters"):
            PauliString("XA")
        with pytest.raises(ValueError, match="phase must be one of"):
            PauliString("X", 0.5)
        minus_one = PauliString("Z", -1).phase
        assert minus_one == -1 and isinstance(minus_one, complex)
        nearly_i = 1j + 1e-13
        assert PauliString("Y", nearly_i).phase == nearly_i   # within tolerance, kept as given

    def test_matrix_matches_kron(self):
        np.testing.assert_allclose(PauliString("XZ").matrix(),
                                   np.kron(PAULI_X, PAULI_Z), atol=1e-12)
        np.testing.assert_allclose(PauliString("Y", phase=-1j).matrix(),
                                   -1j * PAULI_Y, atol=1e-12)

    def test_cached_masks_match_letters(self):
        # every string of length <= 4, the empty one included
        for n in range(5):
            idx = np.arange(2 ** n)
            for letters in map("".join, product("IXYZ", repeat=n)):
                pauli = PauliString(letters)
                bits = [1 << (n - 1 - q) for q in range(n)]
                assert pauli.x_mask == sum(b for b, c in zip(bits, letters) if c in "XY")
                assert pauli.z_mask == sum(b for b, c in zip(bits, letters) if c in "YZ")
                assert pauli.y_phase == 1j ** letters.count("Y")
                # P|c> = i^ny (-1)^popcount(c & z) |c ^ x>
                parity = np.array([bin(c & pauli.z_mask).count("1") & 1 for c in idx])
                expected = np.zeros((2 ** n, 2 ** n), dtype=complex)
                expected[idx ^ pauli.x_mask, idx] = pauli.y_phase * (1 - 2 * parity)
                np.testing.assert_array_equal(pauli.matrix(), expected)


class TestChannels:
    def test_noiseless_limit(self):
        rng = np.random.default_rng(9)
        rho = random_state(rng, 3).density()
        out = apply_channel(rho, NoiseSpec(pairs=[(0, 1)]))
        assert out is rho

    def test_full_depolarization(self):
        rng = np.random.default_rng(10)
        rho = random_state(rng, 4).density()
        out = apply_channel(rho, NoiseSpec(white_noise_v=0.0))
        np.testing.assert_allclose(out.matrix, np.eye(16) / 16, atol=1e-12)

    def test_white_noise_on_transposed_matrix(self):
        # a one-qubit gate leaves a Fortran-ordered matrix, which a reshape copies
        rho = apply_gate(ket(1, 0.5j).density(), "RZ", [0], alpha=0.4)
        out = apply_channel(rho, NoiseSpec(white_noise_v=0.8))
        np.testing.assert_allclose(out.matrix, 0.8 * rho.matrix + 0.1 * np.eye(2), atol=1e-15)

    def test_visibility_on_bell_pair(self):
        spec = NoiseSpec(epr_visibility=0.92, pairs=[(0, 1)])
        out = apply_channel(bell_phi_plus().density(), spec)
        assert abs(expectation(out, PauliString("XX")) - 0.92) < 1e-12
        expected = (0.92 * bell_phi_plus().density().matrix
                    + 0.08 * np.diag([0.5, 0, 0, 0.5]))
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)

    def test_pair_dephasing_map(self):
        rng = np.random.default_rng(12)
        psi = random_state(rng, 2)
        d = 0.3
        out = apply_channel(psi.density(), NoiseSpec(pair_dephasing_d=d, pairs=[(0, 1)]))
        zz = np.kron(PAULI_Z, PAULI_Z)
        expected = (1 - d) * psi.density().matrix + d * zz @ psi.density().matrix @ zz
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)

    def test_channel_output_is_valid_state(self):
        rng = np.random.default_rng(13)
        rho = random_state(rng, 3).density()
        spec = NoiseSpec(white_noise_v=0.6, pair_dephasing_d=0.2, epr_visibility=0.9,
                         pairs=[(0, 1), (1, 2)])
        out = apply_channel(rho, spec)
        assert abs(np.trace(out.matrix) - 1) < 1e-10
        assert np.linalg.eigvalsh(out.matrix)[0] > -1e-9

    def test_spec_pairs_are_int_tuples(self):
        spec = NoiseSpec(pair_dephasing_d=0.1, pairs=[[0, 1], (np.int64(2), 3)])
        assert spec.pairs == ((0, 1), (2, 3))
        assert all(type(q) is int for pair in spec.pairs for q in pair)
        assert spec == NoiseSpec(pair_dephasing_d=0.1, pairs=((0, 1), (2, 3)))
        assert hash(spec) == hash(NoiseSpec(pair_dephasing_d=0.1, pairs=((0, 1), (2, 3))))
        with pytest.raises(ValueError, match=r"invalid interfering pair \(2, 2\)"):
            NoiseSpec(pairs=[(0, 1), (2, 2)])
        with pytest.raises(TypeError):   # a qubit index is an integer, never truncated
            NoiseSpec(pairs=[(0, 1.5)])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NoiseSpec(white_noise_v=1.2)
        rho = maximally_mixed(2)
        with pytest.raises(ValueError):
            apply_channel(rho, NoiseSpec(pairs=[(0, 3)]))


class TestSeed:
    def test_streams_are_reproducible_and_order_independent(self):
        seed = Seed(123456789)
        a1 = seed.stream(0, 5).random(4)
        b1 = seed.stream(1, 7).random(4)
        b2 = Seed(123456789).stream(1, 7).random(4)
        a2 = Seed(123456789).stream(0, 5).random(4)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)
        assert not np.array_equal(a1, b1)

    def test_seed_range_validation(self):
        with pytest.raises(ValueError):
            Seed(-1)
        with pytest.raises(ValueError):
            Seed(2 ** 64)
