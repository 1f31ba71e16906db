"""Codeword construction tests against hand-built reference states."""

import math
from itertools import product

import numpy as np
import pytest

from losskit.codes import CodeParams, LogicalInput, PRESETS, encode, encode_circuit_22, logical_basis, stabilizers
from losskit.qsim import PauliString, StateVector, expectation, fidelity_pure

SQ2 = math.sqrt(2.0)

# hand-built two-qubit blocks
BELL_PLUS = np.array([1, 0, 0, 1], dtype=complex) / SQ2    # (|00> + |11>)/sqrt2
BELL_MINUS = np.array([1, 0, 0, -1], dtype=complex) / SQ2  # (|00> - |11>)/sqrt2


def random_input(rng):
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    return LogicalInput.normalized(a[0], a[1])


class TestLogicalBasis:
    def test_22_basis_states(self):
        zero_l, one_l = logical_basis(CodeParams(2, 2))
        np.testing.assert_allclose(zero_l.amplitudes, np.kron(BELL_PLUS, BELL_PLUS), atol=1e-12)
        np.testing.assert_allclose(one_l.amplitudes, np.kron(BELL_MINUS, BELL_MINUS), atol=1e-12)

    def test_single_block_reduction(self):
        zero_l, one_l = logical_basis(CodeParams(2, 1))
        np.testing.assert_allclose(zero_l.amplitudes, BELL_PLUS, atol=1e-12)
        np.testing.assert_allclose(one_l.amplitudes, BELL_MINUS, atol=1e-12)

    def test_32_orthonormal(self):
        zero_l, one_l = logical_basis(CodeParams(3, 2))
        assert abs(zero_l.inner(one_l)) < 1e-12
        assert abs(np.linalg.norm(zero_l.amplitudes) - 1) < 1e-12
        assert abs(np.linalg.norm(one_l.amplitudes) - 1) < 1e-12

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3),
                                     (2, 4), (5, 2), (2, 5), (4, 3), (6, 2), (2, 6), (12, 1)])
    def test_orthogonality_all_sizes(self, n, m):
        zero_l, one_l = logical_basis(CodeParams(n, m))
        assert abs(zero_l.inner(one_l)) < 1e-10

    def test_size_overflow(self):
        with pytest.raises(ValueError):
            logical_basis(CodeParams(7, 2))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            CodeParams(1, 2)
        with pytest.raises(ValueError):
            CodeParams(2, 0)


class TestEncode:
    def test_v_is_product_of_two_pair_states(self):
        got = encode(PRESETS["V"], CodeParams(2, 2))
        expected = np.kron(BELL_MINUS, BELL_MINUS)
        assert abs(fidelity_pure(StateVector(4, expected), got.density()) - 1) < 1e-12

    def test_plus_is_ghz(self):
        got = encode(PRESETS["PLUS"], CodeParams(2, 2))
        ghz = np.zeros(16, dtype=complex)
        ghz[0] = ghz[15] = 1 / SQ2
        np.testing.assert_allclose(got.amplitudes, ghz, atol=1e-12)

    def test_r_is_cluster_class_combination(self):
        got = encode(PRESETS["R"], CodeParams(2, 2))
        expected = (np.kron(BELL_PLUS, BELL_PLUS) + 1j * np.kron(BELL_MINUS, BELL_MINUS)) / SQ2
        np.testing.assert_allclose(got.amplitudes, expected, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(21)
        params = CodeParams(2, 2)
        zero_enc = encode(LogicalInput(1, 0), params).amplitudes
        one_enc = encode(LogicalInput(0, 1), params).amplitudes
        for _ in range(20):
            inp = random_input(rng)
            direct = encode(inp, params).amplitudes
            np.testing.assert_allclose(direct, inp.a0 * zero_enc + inp.a1 * one_enc, atol=1e-10)

    def test_input_normalization_enforced(self):
        with pytest.raises(ValueError):
            LogicalInput(1.0, 1.0)


class TestEncodeCircuit:
    def test_zero_input_matches_logical_zero(self):
        out = encode_circuit_22(LogicalInput(1, 0))
        zero_l, _ = logical_basis(CodeParams(2, 2))
        assert abs(fidelity_pure(zero_l, out.density()) - 1) < 1e-12

    def test_plus_input_gives_ghz(self):
        out = encode_circuit_22(PRESETS["PLUS"])
        assert abs(fidelity_pure(encode(PRESETS["PLUS"], CodeParams(2, 2)), out.density()) - 1) < 1e-12

    def test_v_input_stabilizer_expectations(self):
        out = encode_circuit_22(PRESETS["V"])
        assert abs(expectation(out, PauliString("XXXX")) - 1) < 1e-10
        assert abs(expectation(out, PauliString("ZZZZ")) - 1) < 1e-10

    def test_agrees_with_direct_encoding_for_random_inputs(self):
        rng = np.random.default_rng(22)
        params = CodeParams(2, 2)
        for _ in range(100):
            inp = random_input(rng)
            circuit = encode_circuit_22(inp)
            direct = encode(inp, params)
            # equality up to global phase
            assert abs(fidelity_pure(direct, circuit.density()) - 1) < 1e-10


class TestStabilizers:
    def test_22_generators_exact(self):
        gens = stabilizers(CodeParams(2, 2))
        assert [g.letters for g in gens] == ["XXXX", "ZZII", "IIZZ"]

    def test_generators_fix_both_basis_states(self):
        for n, m in [(2, 2), (3, 2), (2, 3), (3, 3)]:
            params = CodeParams(n, m)
            zero_l, one_l = logical_basis(params)
            for gen in stabilizers(params):
                assert abs(expectation(zero_l, gen) - 1) < 1e-10
                assert abs(expectation(one_l, gen) - 1) < 1e-10

    def test_codespace_membership_random_inputs(self):
        rng = np.random.default_rng(23)
        params = CodeParams(2, 2)
        gens = stabilizers(params)
        for _ in range(25):
            state = encode(random_input(rng), params)
            for gen in gens:
                assert abs(expectation(state, gen) - 1) < 1e-10

    def test_zzzz_product_is_in_group(self):
        gens = stabilizers(CodeParams(2, 2))
        np.testing.assert_array_equal(gens[1].matrix() @ gens[2].matrix(),
                                      PauliString("ZZZZ").matrix())

    def test_single_block_stabilizer_is_zz(self):
        # for one block the Z-parity fixes both basis states while the X
        # block-flip distinguishes them: <XX> = |a0|^2 - |a1|^2
        params = CodeParams(2, 1)
        gens = stabilizers(params)
        assert [g.letters for g in gens] == ["ZZ"]
        xx = PauliString("XX")
        assert abs(expectation(encode(LogicalInput(1, 0), params), xx) - 1) < 1e-10
        assert abs(expectation(encode(LogicalInput(0, 1), params), xx) + 1) < 1e-10
        for a0 in (0.3, 0.8):
            a1 = math.sqrt(1 - a0 ** 2)
            state = encode(LogicalInput(a0, a1), params)
            assert abs(expectation(state, xx) - (a0 ** 2 - a1 ** 2)) < 1e-10
            assert abs(expectation(state, gens[0]) - 1) < 1e-10
