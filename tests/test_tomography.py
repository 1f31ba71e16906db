"""Decomposition, setting grouping, counts simulation, and estimator tests."""

import math
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings, strategies as st

from losskit import tomography
from losskit.codes import CodeParams, PRESETS, encode
from losskit.cluster import phi5
from losskit.qsim import (DensityMatrix, NoiseSpec, PauliString, Seed, StateVector,
                          _apply_on_axes, _bit_tables, apply_channel, apply_gate,
                          fidelity_pure)
from losskit.tomography import (
    CountsTable,
    Setting,
    basis_matrix,
    decompose_projector,
    estimate_fidelity,
    exact_counts,
    group_settings,
    read_counts_csv,
    setting_probabilities,
    simulate_counts,
    write_counts_csv,
)

P22 = CodeParams(2, 2)


def random_state(rng, n):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return StateVector.from_amplitudes(amps, normalize=True)


def random_full_rank(rng, n):
    g = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    m = g @ g.conj().T
    return DensityMatrix(n, m / np.trace(m))


def assert_exact_tables_estimate(psi, decomp, settings):
    """Exact tables of ``settings`` cover every term and reproduce fidelity_pure."""
    rho = random_full_rank(np.random.default_rng(78), psi.n_qubits)
    fid, _ = estimate_fidelity([exact_counts(rho, s, 1000) for s in settings], decomp)
    assert abs(fid - fidelity_pure(psi, rho)) < 1e-10


class TestDecomposeProjector:
    def test_single_qubit_zero(self):
        decomp = decompose_projector(StateVector.basis_state(1, 0))
        got = {p.letters: c for c, p in decomp.terms}
        assert got == pytest.approx({"I": 0.5, "Z": 0.5})

    def test_bell_pair(self):
        bell = StateVector.from_amplitudes([1, 0, 0, 1], normalize=True)
        got = {p.letters: c for c, p in decompose_projector(bell).terms}
        assert got == pytest.approx({"II": 0.25, "XX": 0.25, "YY": -0.25, "ZZ": 0.25})

    def test_ghz_term_structure(self):
        decomp = decompose_projector(encode(PRESETS["PLUS"], P22))
        assert len(decomp.terms) == 16
        diagonal = [p.letters for _, p in decomp.terms if set(p.letters) <= {"I", "Z"}]
        coherence = [p.letters for _, p in decomp.terms if set(p.letters) <= {"X", "Y"}]
        assert len(diagonal) == 8      # even-Z-weight strings, identity included
        assert len(coherence) == 8     # full-weight X/Y strings
        for letters in diagonal:
            assert letters.count("Z") % 2 == 0

    def test_reconstruction_random_states(self):
        rng = np.random.default_rng(51)
        for n in (1, 2, 3, 4, 5):
            for _ in (0, 1):
                psi = random_state(rng, n)
                rec = decompose_projector(psi).reconstruct()
                np.testing.assert_allclose(
                    rec, np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-10)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            decompose_projector(StateVector.basis_state(7, 0))


def reference_decompose_projector(psi):
    """The per-term loop: build every Pauli string, parse its letters, one gather each."""
    n = psi.n_qubits
    idx, signs = _bit_tables(n)
    amps = psi.amplitudes
    scale = 1.0 / 2 ** n
    terms = []
    for letters in product("IXYZ", repeat=n):
        pauli = PauliString("".join(letters))
        x = int("0" + pauli.letters.translate(str.maketrans("IXYZ", "0110")), 2)
        z = int("0" + pauli.letters.translate(str.maketrans("IXYZ", "0011")), 2)
        i_power = (1, 1j, -1, -1j)[pauli.letters.count("Y") % 4]
        flipped = idx ^ x
        phi = amps[flipped] * signs[flipped & z]
        if i_power != 1:
            phi *= i_power
        coeff = float((pauli.phase * np.vdot(amps, phi)).real) * scale
        if abs(coeff) >= 1e-12:
            terms.append((coeff, pauli))
    return terms


def term_bits(terms):
    return [(pauli.letters, pauli.phase, coeff.hex()) for coeff, pauli in terms]


class TestGroupSettings:
    def test_pair_product_input_needs_nine(self):
        settings = group_settings(decompose_projector(encode(PRESETS["V"], P22)))
        assert len(settings) == 9
        labels = [s.label() for s in settings]
        assert labels == sorted(labels)
        assert "Z.Z.Z.Z" in labels

    def test_ghz_needs_five_with_equatorial_settings(self):
        psi = encode(PRESETS["PLUS"], P22)
        decomp = decompose_projector(psi)
        settings = group_settings(decomp)
        assert len(settings) == 5
        labels = {s.label() for s in settings}
        assert labels == {"Z.Z.Z.Z", "X.X.X.X", "M45.M45.M45.M45",
                          "Y.Y.Y.Y", "M135.M135.M135.M135"}
        assert_exact_tables_estimate(psi, decomp, settings)

    def test_cluster_class_input_needs_nine(self):
        settings = group_settings(decompose_projector(encode(PRESETS["R"], P22)))
        assert len(settings) == 9

    def test_phi5_full_coverage_and_determinism(self):
        decomp = decompose_projector(phi5())
        settings = group_settings(decomp)
        again = group_settings(decomp)
        assert [s.label() for s in settings] == [s.label() for s in again]
        assert_exact_tables_estimate(phi5(), decomp, settings)
        # 11 Pauli settings plus 4 Z-conditioned equatorial settings; 17 is
        # the minimum only for covers made of Pauli product settings
        assert len(settings) == 15

    def test_phi5_sector_conditioned_equatorial_settings(self):
        decomp = decompose_projector(phi5())
        settings = group_settings(decomp)
        family = [s for s in settings if "M" in s.label()]
        assert [s.label() for s in family] == [
            "Z.M135.M135.M135.M135", "Z.M135.M135.M45.M45",
            "Z.M45.M45.M135.M135", "Z.M45.M45.M45.M45"]
        # without any one of them the coherence terms {I,Z} x {X,Y}^4 on
        # photons 2-5 are read by no setting
        rho = phi5().density()
        for missing in family:
            tables = [exact_counts(rho, s, 100) for s in settings if s != missing]
            with pytest.raises(ValueError, match=r"term [IZ][XY]{4} is not covered"):
                estimate_fidelity(tables, decomp)

    def test_every_covered_term_is_compatible(self):
        psi = encode(PRESETS["R"], P22)
        decomp = decompose_projector(psi)
        settings = group_settings(decomp)
        for _, pauli in decomp.terms:
            assert any(all(letter in ("I", basis) for letter, basis in zip(pauli.letters, s.bases))
                       for s in settings), pauli.letters
        assert_exact_tables_estimate(psi, decomp, settings)


def reference_greedy_cover(n, targets):
    """The greedy cover as a plain loop: every Pauli setting against every target."""
    def compatible(support, tokens):
        return all(tokens[q] == c for q, c in support)

    remaining = [[(q, c) for q, c in enumerate(p.letters) if c != "I"] for p in targets]
    picks = []
    while remaining:
        best, best_new = None, 0
        for tokens in product("XYZ", repeat=n):
            new = sum(1 for p in remaining if compatible(p, tokens))
            if new > best_new:   # ascending order: the first maximum is the smallest
                best, best_new = tokens, new
        picks.append(best)
        remaining = [p for p in remaining if not compatible(p, best)]
    return picks


def _greedy_cases():
    cases = {}
    for n, m in [(n, m) for n in range(2, 7) for m in range(1, 4) if n * m <= 6]:
        for name in sorted(PRESETS):
            cases[f"{name}-{n}x{m}"] = lambda name=name, n=n, m=m: encode(
                PRESETS[name], CodeParams(n, m))
    cases["phi5"] = phi5
    for n, seed in ((2, 1), (3, 2), (4, 3), (4, 4)):
        cases[f"random{n}-{seed}"] = lambda n=n, seed=seed: random_state(
            np.random.default_rng(seed), n)
    return cases


GREEDY_CASES = _greedy_cases()
CODE_CASES = [name for name in sorted(GREEDY_CASES) if not name.startswith("random")]


@lru_cache(maxsize=None)
def noisy_case(name):
    """The state of ``name``, its noisy density matrix and its grouped settings."""
    psi = GREEDY_CASES[name]()
    chain = [(q, q + 1) for q in range(psi.n_qubits - 1)]
    rho = apply_channel(psi.density(), NoiseSpec(0.9, 0.04, 0.93, pairs=chain))
    return psi, rho, group_settings(decompose_projector(psi))


class TestDecompositionReference:
    @pytest.mark.parametrize("name", sorted(GREEDY_CASES) + ["random5-6", "random6-7"])
    def test_terms_match_reference_loop(self, name):
        if name in GREEDY_CASES:
            psi = GREEDY_CASES[name]()
        else:
            n, seed = map(int, name.removeprefix("random").split("-"))
            psi = random_state(np.random.default_rng(seed), n)
        decomp = decompose_projector(psi)
        assert term_bits(decomp.terms) == term_bits(reference_decompose_projector(psi))

    def test_families_found_once_per_decomposition(self, monkeypatch):
        calls = []
        real = tomography._coherence_families
        monkeypatch.setattr(tomography, "_coherence_families",
                            lambda decomp: calls.append(decomp) or real(decomp))
        psi = phi5()
        decomp = decompose_projector(psi)
        settings = group_settings(decomp)
        estimate_fidelity([exact_counts(psi.density(), s, 100) for s in settings], decomp)
        assert group_settings(decomp) == settings
        assert len(calls) == 1


class TestGreedyCover:
    @pytest.mark.parametrize("name", sorted(GREEDY_CASES))
    def test_matches_reference_loop(self, name, monkeypatch):
        decomp = decompose_projector(GREEDY_CASES[name]())
        settings = group_settings(decomp)
        monkeypatch.setattr(tomography, "_greedy_pauli_cover", reference_greedy_cover)
        assert group_settings(decomp) == settings

    def test_pick_order_matches_reference_loop(self):
        decomp = decompose_projector(random_state(np.random.default_rng(5), 4))
        targets = [p for _, p in decomp.terms if p.weight > 0]
        picks = tomography._greedy_pauli_cover(4, targets)
        assert picks == reference_greedy_cover(4, targets)


def reference_setting_probabilities(rho, setting):
    """Rotate every row and column axis of the full matrix, then read its diagonal."""
    n = rho.n_qubits
    t = rho.matrix.reshape((2,) * (2 * n))
    for q, token in enumerate(setting.bases):
        u = basis_matrix(token)
        t = _apply_on_axes(t, u.conj().T, [q])
        t = _apply_on_axes(t, u.T, [n + q])
    probs = np.real(np.diag(t.reshape(2 ** n, 2 ** n))).copy()
    probs[probs < 0] = 0.0
    return probs / probs.sum()


BASIS_TOKENS = st.one_of(st.sampled_from(["Z", "X", "Y"]),
                         st.integers(0, 359).map(lambda deg: f"M{deg}"))


class TestProbabilityReference:
    @pytest.mark.parametrize("name", CODE_CASES)
    def test_grouped_settings_match_reference(self, name):
        _, rho, settings = noisy_case(name)
        for setting in settings:
            assert np.array_equal(setting_probabilities(rho, setting),
                                  reference_setting_probabilities(rho, setting)), setting

    @hypothesis_settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_random_states_and_bases_match_reference(self, n, seed, data):
        rho = random_full_rank(np.random.default_rng(seed), n)
        setting = Setting(tuple(data.draw(st.lists(BASIS_TOKENS, min_size=n, max_size=n))))
        assert np.array_equal(setting_probabilities(rho, setting),
                              reference_setting_probabilities(rho, setting))

    def test_basis_matrices_are_cached_and_read_only(self):
        u = basis_matrix("M45")
        assert u is basis_matrix("M45")
        assert not u.flags.writeable


class TestSimulateCounts:
    def test_ghz_diagonal_setting_probabilities(self):
        rho = encode(PRESETS["PLUS"], P22).density()
        setting = Setting(("Z", "Z", "Z", "Z"))
        probs = setting_probabilities(rho, setting)
        expected = np.zeros(16)
        expected[0] = expected[15] = 0.5
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_phi5_diagonal_outcomes(self):
        probs = setting_probabilities(phi5().density(), Setting(("Z",) * 5))
        support = {int(b, 2) for b in ("00000", "01111", "10011", "11100")}
        for outcome, p in enumerate(probs):
            assert abs(p - (0.25 if outcome in support else 0.0)) < 1e-12

    def test_sampling_matches_exact_within_3_sigma(self):
        psi = phi5()
        rho = apply_channel(psi.density(), NoiseSpec(white_noise_v=0.8))
        setting = Setting(("Z", "X", "Y", "M45", "M135"))
        probs = setting_probabilities(rho, setting)
        shots = 10 ** 6
        table = simulate_counts(rho, setting, shots, Seed(5))
        for outcome, p in enumerate(probs):
            sigma = math.sqrt(max(p * (1 - p) * shots, 1.0))
            assert abs(table.counts[outcome] - p * shots) < 5 * sigma

    def test_deterministic_for_fixed_seed(self):
        rho = encode(PRESETS["R"], P22).density()
        setting = Setting(("X", "X", "Y", "Y"))
        a = simulate_counts(rho, setting, 1000, Seed(9))
        b = simulate_counts(rho, setting, 1000, Seed(9))
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_counts_sum_validation(self):
        with pytest.raises(ValueError):
            CountsTable(Setting(("Z",)), 10, np.array([3.0, 4.0]))


REFERENCE_STATES = {
    "V": lambda: encode(PRESETS["V"], P22),
    "PLUS": lambda: encode(PRESETS["PLUS"], P22),
    "R": lambda: encode(PRESETS["R"], P22),
    "phi5": phi5,
}


# name -> (state, number of settings); an X on one flip qubit of PLUS or phi5
# turns M(t) into -M(pi - t) there an odd number of times per setting
EXACTNESS_CASES = {
    "V": (REFERENCE_STATES["V"], 9),
    "PLUS": (REFERENCE_STATES["PLUS"], 5),
    "R": (REFERENCE_STATES["R"], 9),
    "phi5": (phi5, 15),
    "PLUS-X4": (lambda: apply_gate(encode(PRESETS["PLUS"], P22), "X", [3]), 5),
    "phi5-X5": (lambda: apply_gate(phi5(), "X", [4]), 15),
}


class TestEstimateFidelity:
    @pytest.mark.parametrize("name", sorted(EXACTNESS_CASES))
    def test_exact_tables_reproduce_fidelity(self, name):
        state, n_settings = EXACTNESS_CASES[name]
        psi = state()
        decomp = decompose_projector(psi)
        settings = group_settings(decomp)
        assert len(settings) == n_settings
        rng = np.random.default_rng(77)
        for _ in range(5):
            rho = random_full_rank(rng, psi.n_qubits)
            tables = [exact_counts(rho, s, 1000) for s in settings]
            fid, _ = estimate_fidelity(tables, decomp)
            assert abs(fid - fidelity_pure(psi, rho)) < 1e-10

    def tables_for(self, rho, decomp, exact=True, shots=10 ** 6, seed=0):
        settings = group_settings(decomp)
        if exact:
            return [exact_counts(rho, s, shots) for s in settings]
        master = Seed(seed)
        return [simulate_counts(rho, s, shots, master.stream(i))
                for i, s in enumerate(settings)]

    def test_pure_target_estimates_one(self):
        psi = phi5()
        decomp = decompose_projector(psi)
        fid, sigma = estimate_fidelity(self.tables_for(psi.density(), decomp), decomp)
        assert abs(fid - 1) < 1e-10
        assert sigma < 1e-3

    def test_maximally_mixed(self):
        decomp = decompose_projector(phi5())
        tables = self.tables_for(DensityMatrix.maximally_mixed(5), decomp)
        fid, _ = estimate_fidelity(tables, decomp)
        assert abs(fid - 1 / 32) < 1e-10

    def test_white_noise_admixture_value(self):
        psi = phi5()
        rho = apply_channel(psi.density(), NoiseSpec(white_noise_v=0.55))
        decomp = decompose_projector(psi)
        fid, _ = estimate_fidelity(self.tables_for(rho, decomp), decomp)
        assert abs(fid - (0.55 + 0.45 / 32)) < 1e-10
        assert abs(fid - 0.5640625) < 1e-10

    def test_equatorial_path_exact_on_ghz(self):
        psi = encode(PRESETS["PLUS"], P22)
        rho = apply_channel(psi.density(), NoiseSpec(white_noise_v=0.7))
        decomp = decompose_projector(psi)
        fid, _ = estimate_fidelity(self.tables_for(rho, decomp), decomp)
        assert abs(fid - (0.7 + 0.3 / 16)) < 1e-10

    def test_sampled_estimates_are_consistent(self):
        psi = encode(PRESETS["R"], P22)
        rho = apply_channel(psi.density(), NoiseSpec(white_noise_v=0.8))
        decomp = decompose_projector(psi)
        exact_fid = 0.8 + 0.2 / 16
        misses = 0
        for trial in range(20):
            tables = self.tables_for(rho, decomp, exact=False, shots=10 ** 4, seed=trial)
            fid, sigma = estimate_fidelity(tables, decomp)
            if abs(fid - exact_fid) >= 5 * sigma:
                misses += 1
        assert misses == 0

    def test_sigma_scales_with_shots(self):
        psi = encode(PRESETS["PLUS"], P22)
        rho = apply_channel(psi.density(), NoiseSpec(white_noise_v=0.8))
        decomp = decompose_projector(psi)
        sigmas = {}
        for shots in (10 ** 2, 10 ** 4, 10 ** 6):
            _, sigma = estimate_fidelity(self.tables_for(rho, decomp, shots=shots), decomp)
            sigmas[shots] = sigma
        anchor = sigmas[10 ** 6] * 10 ** 3
        for shots, sigma in sigmas.items():
            assert abs(sigma * math.sqrt(shots) / anchor - 1) < 0.2

    def test_uncovered_term_raises(self):
        decomp = decompose_projector(encode(PRESETS["V"], P22))
        settings = group_settings(decomp)
        tables = [exact_counts(encode(PRESETS["V"], P22).density(), s, 100)
                  for s in settings[:3]]
        with pytest.raises(ValueError, match="not covered"):
            estimate_fidelity(tables, decomp)


# (fidelity, sigma) of exact 1000-shot tables of every noisy_case, as float.hex():
# GHZ families at n x 1, Z-conditioned families and phi5's delegated parts.
ESTIMATE_BITS = {
    "PLUS-2x1": ("0x1.d999999999996p-1", "0x1.776793ed35a42p-6"),
    "PLUS-2x2": ("0x1.a2ec819dfa516p-1", "0x1.f8fd21ad5caadp-7"),
    "PLUS-2x3": ("0x1.66f5a67248864p-1", "0x1.2357982e7a570p-7"),
    "PLUS-3x1": ("0x1.d333333333330p-1", "0x1.b17ada62cc3b8p-6"),
    "PLUS-3x2": ("0x1.877c91d61dafcp-1", "0x1.04e7033a11f80p-6"),
    "PLUS-4x1": ("0x1.cffffffffffffp-1", "0x1.ce80e68b4d018p-6"),
    "PLUS-5x1": ("0x1.ce66666666663p-1", "0x1.dd0337cab2024p-6"),
    "PLUS-6x1": ("0x1.cd99999999996p-1", "0x1.e44437f2d6d99p-6"),
    "R-2x1": ("0x1.c978d4fdf3b62p-1", "0x1.c0b1bee5a6d80p-7"),
    "R-2x2": ("0x1.914ae85b9e8c3p-1", "0x1.5794928f9019fp-7"),
    "R-2x3": ("0x1.653ba19c14419p-1", "0x1.9e9d430fa0166p-8"),
    "R-3x1": ("0x1.b412ad81adea7p-1", "0x1.c81c7b500f801p-7"),
    "R-3x2": ("0x1.750ece360949ap-1", "0x1.0426708f9d567p-7"),
    "R-4x1": ("0x1.a2ec819dfa515p-1", "0x1.d69835def1fe9p-7"),
    "R-5x1": ("0x1.9459e722ca968p-1", "0x1.e04c6f553bdd7p-7"),
    "R-6x1": ("0x1.877c91d61dafdp-1", "0x1.e5b9d136c6d95p-7"),
    "S-2x1": ("0x1.cd810624dd2f2p-1", "0x1.0e265647a1a9dp-6"),
    "S-2x2": ("0x1.95b34eac357d8p-1", "0x1.5ee93e72fcf85p-7"),
    "S-2x3": ("0x1.65aa22d1a152ap-1", "0x1.a003f77449970p-8"),
    "S-3x1": ("0x1.bbdaceee0f3c9p-1", "0x1.253a9e2157141p-6"),
    "S-3x2": ("0x1.79aa3f1e0e632p-1", "0x1.2da2f13bfe7d5p-7"),
    "S-4x1": ("0x1.ae3161367bbd1p-1", "0x1.3438e896510b1p-6"),
    "S-5x1": ("0x1.a2dd06f3b18a7p-1", "0x1.3c728e17434c6p-6"),
    "S-6x1": ("0x1.9903d3c6fcaa4p-1", "0x1.40b9e949eb1cfp-6"),
    "V-2x1": ("0x1.c978d4fdf3b64p-1", "0x1.c0b1bee5a6d82p-7"),
    "V-2x2": ("0x1.914ae85b9e8c4p-1", "0x1.462c0365ae3b6p-7"),
    "V-2x3": ("0x1.653ba19c1441dp-1", "0x1.969efa25140d7p-8"),
    "V-3x1": ("0x1.b412ad81adea8p-1", "0x1.e001e4abe08d6p-7"),
    "V-3x2": ("0x1.750ece3609498p-1", "0x1.1c781165c2ebcp-7"),
    "V-4x1": ("0x1.a2ec819dfa517p-1", "0x1.f8fd21ad5caafp-7"),
    "V-5x1": ("0x1.9459e722ca96ap-1", "0x1.02a6110cb89c8p-6"),
    "V-6x1": ("0x1.877c91d61dafcp-1", "0x1.04e7033a11f80p-6"),
    "phi5": ("0x1.73a158cd1818bp-1", "0x1.21d5aac2a4bebp-7"),
    "random2-1": ("0x1.baf6f0555a431p-1", "0x1.e34b72b2c198ap-7"),
    "random3-2": ("0x1.9fed720fe8debp-1", "0x1.80c8b4847a3fcp-7"),
    "random4-3": ("0x1.82075c01c4163p-1", "0x1.20c6b5ac62610p-7"),
    "random4-4": ("0x1.74bbd86371247p-1", "0x1.2a060d3ce9b0fp-7"),
}


@pytest.mark.parametrize("name", sorted(GREEDY_CASES))
def test_exact_estimate_bits_are_pinned(name):
    psi, rho, settings = noisy_case(name)
    fid, sigma = estimate_fidelity([exact_counts(rho, s, 1000) for s in settings],
                                   decompose_projector(psi))
    assert (fid.hex(), sigma.hex()) == ESTIMATE_BITS[name]


class TestCountsCsv:
    def test_round_trip(self, tmp_path):
        for name in ("V", "PLUS", "phi5"):
            psi = REFERENCE_STATES[name]()
            rho = apply_channel(psi.density(), NoiseSpec(white_noise_v=0.8))
            decomp = decompose_projector(psi)
            settings = group_settings(decomp)
            master = Seed(3)
            tables = [simulate_counts(rho, s, 500, master.stream(i))
                      for i, s in enumerate(settings)]
            path = tmp_path / f"counts_{name}.csv"
            write_counts_csv(tables, str(path))
            loaded = read_counts_csv(str(path))
            by_label = {t.setting.label(): t for t in loaded}
            assert set(by_label) == {t.setting.label() for t in tables}
            for table in tables:
                np.testing.assert_allclose(by_label[table.setting.label()].counts,
                                           table.counts)
            # the estimator matches reloaded tables by their bases alone
            assert estimate_fidelity(loaded, decomp) == estimate_fidelity(tables, decomp)
