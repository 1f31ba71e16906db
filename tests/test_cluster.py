"""Graph-state tests: rewrite rules, byproducts, and the loss-tolerant rotation."""

import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from losskit import cluster
from losskit.cluster import (
    LOSS_CASES,
    MeasurementPattern,
    PatternStep,
    loss_tolerant_rotation,
    pattern_branches,
    phi5,
    rotation_sweep,
    rotation_target,
    run_pattern,
)
from losskit.qsim import (
    DensityMatrix,
    NoiseSpec,
    PauliString,
    StateVector,
    ZeroProbabilityBranch,
    apply_gate,
    expectation,
    fidelity_pure,
    measure,
    partial_trace,
)
from losskit.recovery import LossPattern, erase

from graph_rules import (
    Graph,
    cluster_z_measure,
    graph_cluster_state,
    graph_xx_contract,
    graph_z_remove,
    indirect_z,
    phi5_graph,
    rewrite_rule_failures,
    vertex_stabilizer,
)

SQ2 = math.sqrt(2.0)


class TestGraph:
    def test_construction_and_neighbors(self):
        g = Graph.line([1, 2, 3])
        assert g.vertices == (1, 2, 3)
        assert g.neighbors(2) == (1, 3)
        assert g.degree(1) == 1

    def test_invalid_edges(self):
        with pytest.raises(ValueError):
            Graph([1, 2], [(1, 1)])
        with pytest.raises(ValueError):
            Graph([1, 2], [(1, 3)])

    def test_z_remove(self):
        g = graph_z_remove(Graph.line([1, 2, 3]), 2)
        assert g.vertices == (1, 3)
        assert not g.edges

    def test_z_remove_isolated_and_star(self):
        g = Graph([1, 2], [(1, 2)])
        g2 = graph_z_remove(g, 2)
        assert g2.vertices == (1,)
        star = Graph.star(0, [1, 2, 3])
        leaves = graph_z_remove(star, 0)
        assert leaves.vertices == (1, 2, 3)
        assert not leaves.edges

    def test_xx_contract_line(self):
        g = graph_xx_contract(Graph.line([1, 2, 3, 4]), 2, 3)
        assert g.vertices == (1, 4)
        assert g.has_edge(1, 4)

    def test_xx_contract_one_sided(self):
        g = graph_xx_contract(Graph.line([1, 2, 3]), 2, 3)
        assert g.vertices == (1,)
        assert not g.edges

    def test_seven_line_reduces_to_five_line(self):
        g = graph_xx_contract(Graph.line([1, 2, 3, 4, 5, 6, 7]), 3, 4)
        assert len(g.vertices) == 5
        assert g.has_edge(2, 5)

    def test_xx_contract_preconditions(self):
        star = Graph.star(0, [1, 2, 3])
        with pytest.raises(ValueError, match="linear segments"):
            graph_xx_contract(star, 0, 1)
        with pytest.raises(ValueError, match="not adjacent"):
            graph_xx_contract(Graph.line([1, 2, 3]), 1, 3)


class TestClusterStates:
    def test_two_vertex_line(self):
        st = graph_cluster_state(Graph.line([1, 2]))
        expected = np.array([1, 1, 1, -1], dtype=complex) / 2  # (|0+> + |1->)/sqrt2
        np.testing.assert_allclose(st.amplitudes, expected, atol=1e-12)
        assert abs(expectation(st, PauliString("XZ")) - 1) < 1e-12

    def test_single_vertex_is_plus(self):
        st = graph_cluster_state(Graph([7]))
        np.testing.assert_allclose(st.amplitudes, [1 / SQ2, 1 / SQ2], atol=1e-12)

    def test_five_line_stabilizers(self):
        g = Graph.line([1, 2, 3, 4, 5])
        st = graph_cluster_state(g)
        for v in g.vertices:
            assert abs(expectation(st, vertex_stabilizer(g, v)) - 1) < 1e-10


class TestPhi5:
    def test_amplitudes(self):
        st = phi5()
        for bits in ("00000", "01111", "10011", "11100"):
            assert abs(st.amplitude(bits) - 0.5) < 1e-12
        assert abs(np.abs(st.amplitudes).sum() - 2.0) < 1e-12  # nothing else

    def test_local_equivalence_to_chain_cluster(self):
        st = graph_cluster_state(phi5_graph())
        for photon in (1, 3, 5):
            st = apply_gate(st, "H", [photon - 1])
        assert abs(fidelity_pure(phi5(), st.density()) - 1) < 1e-10

    def test_decomposition_terms_all_saturate(self):
        # every nonzero Pauli term of the projector evaluates to +-1/32
        from losskit.tomography import decompose_projector

        st = phi5()
        decomp = decompose_projector(st)
        assert len(decomp.terms) == 32
        total = 0.0
        for coeff, pauli in decomp.terms:
            val = expectation(st, pauli)
            assert abs(abs(val) - 1) < 1e-10
            total += coeff * val
        assert abs(total - 1) < 1e-10


class TestRewriteRuleAgreement:
    def sample_graphs(self):
        graphs = [Graph.line(list(range(n))) for n in (2, 3, 4, 5, 6, 7)]
        graphs += [Graph.star(0, list(range(1, n))) for n in (3, 4, 5, 6, 7)]
        graphs += [
            Graph.from_edges([(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)]),        # caterpillar
            Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]),  # spider
        ]
        return graphs

    def test_z_removal_agrees_with_measurement(self):
        checks, failures = rewrite_rule_failures(self.sample_graphs(), rules=("z",), tol=1e-9)
        assert checks > 0
        assert failures == []

    def test_xx_contraction_agrees_with_measurement(self):
        checks, failures = rewrite_rule_failures(self.sample_graphs(), rules=("xx",), tol=1e-9)
        assert checks > 0
        assert failures == []

    def test_stabilizers_persist_after_z_removal(self):
        g = Graph.line([1, 2, 3, 4, 5])
        rho = graph_cluster_state(g).density()
        for v in (1, 3, 5):
            for branch in (0, 1):
                state, g2 = cluster_z_measure(rho, g, v, forced=branch)
                for w in g2.vertices:
                    val = expectation(state, vertex_stabilizer(g2, w))
                    assert abs(val - 1) < 1e-9


class TestIndirectZ:
    def test_two_line_inference_both_branches(self):
        g = Graph.line([1, 2])
        rho = graph_cluster_state(g).density()
        for forced in (0, 1):
            res = indirect_z(rho, g, lost=2, helper=1, forced=forced)
            assert res.labels == () and res.residual_z == ()
        # direct correlation: X on 1 then Z on 2 always agree
        for forced in (0, 1):
            rest, _ = measure(rho, 0, "x", forced=forced)
            _, p = measure(rest, 0, "z", forced=forced)
            assert abs(p - 1.0) < 1e-10

    def test_phi5_loss_region_removed_leaves_pure_state(self):
        g = phi5_graph()
        cluster_frame = graph_cluster_state(g).density()
        damaged = erase(cluster_frame, LossPattern({1}))  # photon 2 sits on qubit 1
        res = indirect_z(damaged, g, lost=2, helper=3, labels=(1, 3, 4, 5), forced=0)
        assert res.labels == (1, 4, 5)
        purity = np.real(np.trace(res.state.matrix @ res.state.matrix))
        assert abs(purity - 1) < 1e-9

    def test_stabilizer_check_rejects_bad_state(self):
        g = Graph.line([1, 2])
        rho = StateVector.basis_state(2, 0).density()  # not a cluster state
        with pytest.raises(ValueError, match="stabilizer"):
            indirect_z(rho, g, lost=2, helper=1, forced=0)

    def test_non_adjacent_helper_rejected(self):
        g = Graph.line([1, 2, 3])
        rho = graph_cluster_state(g).density()
        with pytest.raises(ValueError, match="not adjacent"):
            indirect_z(rho, g, lost=3, helper=1, forced=0)


def projection_oracle(alpha, outcome):
    """Direct <+-alpha| projection of the two-vertex cluster, normalized."""
    cluster = graph_cluster_state(Graph.line([0, 1]))
    bra = np.array([1, (1 if outcome == 0 else -1) * np.exp(-1j * alpha)]) / SQ2
    amps = cluster.amplitudes.reshape(2, 2)
    reduced = bra @ amps
    return StateVector.from_amplitudes(reduced, normalize=True)


class TestRunPattern:
    def test_two_line_b0_outcome0_gives_zero_ket(self):
        pattern = MeasurementPattern(steps=(PatternStep(0, "b", 0.0),), output=1)
        rho = graph_cluster_state(Graph.line([0, 1])).density()
        result = run_pattern(rho, pattern, labels=(0, 1), forced=(0,),
                             target=StateVector.basis_state(1, 0))
        assert abs(result.fidelity - 1) < 1e-10

    @pytest.mark.parametrize("alpha,outcome", [
        (0.0, 0), (0.0, 1), (-math.pi / 2, 0), (-math.pi / 2, 1), (0.9, 1),
    ])
    def test_two_line_matches_projection_oracle(self, alpha, outcome):
        pattern = MeasurementPattern(steps=(PatternStep(0, "b", alpha),), output=1)
        rho = graph_cluster_state(Graph.line([0, 1])).density()
        result = run_pattern(rho, pattern, labels=(0, 1), forced=(outcome,),
                             target=projection_oracle(alpha, outcome))
        assert abs(result.fidelity - 1) < 1e-10

    def test_product_state_marginal_returned(self):
        psi = StateVector.from_amplitudes([1, 1], normalize=True).tensor(
            StateVector.from_amplitudes([0.6, 0.8], normalize=True))
        pattern = MeasurementPattern(steps=(PatternStep("a", "x"),), output="b")
        result = run_pattern(psi.density(), pattern, labels=("a", "b"), forced=(0,))
        np.testing.assert_allclose(
            result.output_state.matrix,
            StateVector.from_amplitudes([0.6, 0.8]).density().matrix, atol=1e-10)

    @pytest.mark.parametrize("bits,word", [((0, 0), "H"), ((1, 0), "HX"),
                                           ((0, 1), "HZ"), ((1, 1), "HXZ")])
    def test_output_gate_follows_frame(self, bits, word):
        # a feeds the X of the frame and c its Z; Z-measuring |+> leaves b alone
        plus = StateVector.from_amplitudes([1, 1], normalize=True)
        psi = StateVector.from_amplitudes([0.6, 0.8])
        pattern = MeasurementPattern(steps=(PatternStep("a", "z"), PatternStep("c", "z")),
                                     output="b", output_x_from=("a",), output_z_from=("c",),
                                     output_gate="H")
        frame_first = psi
        for gate in reversed(word):
            frame_first = apply_gate(frame_first, gate, [0])
        result = run_pattern(plus.tensor(psi).tensor(plus).density(), pattern,
                             labels=("a", "b", "c"), forced=bits, target=frame_first)
        assert result.byproduct == word
        assert abs(result.fidelity - 1) < 1e-12
        gate_first = apply_gate(psi, "H", [0])
        for gate in reversed(word[1:]):
            gate_first = apply_gate(gate_first, gate, [0])
        if word in ("HX", "HZ"):   # here the two orders give orthogonal outputs
            assert fidelity_pure(gate_first, result.output_state) < 1e-12

    def test_pattern_validation(self):
        with pytest.raises(ValueError, match="unknown output gate"):
            MeasurementPattern(steps=(PatternStep(1, "z"),), output=2, output_gate="S")
        with pytest.raises(ValueError, match="measured twice"):
            MeasurementPattern(steps=(PatternStep(1, "z"), PatternStep(1, "x")), output=2)
        with pytest.raises(ValueError, match="unmeasured"):
            MeasurementPattern(steps=(PatternStep(1, "b", 0.0, x_from=(2,)),), output=3)
        with pytest.raises(ValueError, match="output qubit"):
            MeasurementPattern(steps=(PatternStep(1, "z"),), output=1)


def gate_applying_run_pattern(state, pattern, labels, forced):
    """Reference executor: apply Z^z, X^x before each measurement, then Z, X, H on the output.

    Returns ``(outcomes, output matrix, byproduct, probability)``.
    """
    current = list(labels)
    outcomes, probability = {}, 1.0

    def parity(sources):
        return sum(outcomes[src] for src in sources) % 2

    for bit, step in zip(forced, pattern.steps):
        idx = current.index(step.qubit)
        if parity(step.z_from):
            state = apply_gate(state, "Z", [idx])
        if parity(step.x_from):
            state = apply_gate(state, "X", [idx])
        state, p = measure(state, idx, step.basis, alpha=step.alpha, forced=bit)
        current.remove(step.qubit)
        outcomes[step.qubit] = bit
        probability *= p
    out_idx = current.index(pattern.output)
    word = ""
    if parity(pattern.output_z_from):
        state = apply_gate(state, "Z", [out_idx])
        word += "Z"
    if parity(pattern.output_x_from):
        state = apply_gate(state, "X", [out_idx])
        word = "X" + word
    if pattern.output_gate:
        state = apply_gate(state, pattern.output_gate, [out_idx])
        word = pattern.output_gate + word
    if len(current) > 1:
        state = partial_trace(state, [q for q in range(len(current)) if q != out_idx])
    return outcomes, state.matrix, word or "I", probability


@st.composite
def patterns_on_states(draw):
    """A state on 2..5 qubits (mixed, or a basis state with zero-probability
    Z branches) and a random adaptive pattern over some of its qubits."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        state = StateVector.basis_state(n, int(rng.integers(2 ** n))).density()
    else:
        kets = rng.normal(size=(2, 2 ** n)) + 1j * rng.normal(size=(2, 2 ** n))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        weight = draw(st.floats(0.5, 1.0))
        state = DensityMatrix(n, weight * np.outer(kets[0], kets[0].conj())
                              + (1 - weight) * np.outer(kets[1], kets[1].conj()))
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(1, n - 1))
    measured, steps = order[:k], []

    def sources(pool):
        return tuple(q for q in pool if draw(st.booleans()))

    for i, q in enumerate(measured):
        basis = draw(st.sampled_from(["z", "x", "b"]))
        alpha = draw(st.floats(-4, 4)) if basis == "b" else None
        steps.append(PatternStep(q, basis, alpha, x_from=sources(measured[:i]),
                                 z_from=sources(measured[:i])))
    pattern = MeasurementPattern(steps=tuple(steps), output=order[k],
                                 output_x_from=sources(measured),
                                 output_z_from=sources(measured),
                                 output_gate=draw(st.sampled_from(["", "H"])))
    return state, pattern


class TestRunPatternMatchesGateReference:
    """run_pattern relabels measurements instead of applying the byproduct gates."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(patterns_on_states())
    def test_every_forced_branch(self, case):
        state, pattern = case
        labels = tuple(range(state.n_qubits))
        for bits in product((0, 1), repeat=len(pattern.steps)):
            try:
                want = gate_applying_run_pattern(state, pattern, labels, bits)
            except ZeroProbabilityBranch:
                with pytest.raises(ZeroProbabilityBranch):
                    run_pattern(state, pattern, labels, forced=bits)
                continue
            got = run_pattern(state, pattern, labels, forced=bits)
            outcomes, matrix, word, probability = want
            assert got.outcomes == outcomes
            assert got.byproduct == word
            assert abs(got.probability - probability) <= 1e-12
            assert np.max(np.abs(got.output_state.matrix - matrix)) <= 1e-12


def reference_forced_branches(k, run, forced=None, *, where=""):
    """The flat enumerator that ``pattern_branches`` replaced: ``run`` is opaque."""
    if forced is not None:
        bits = tuple(forced)
        try:
            result = run(bits)
        except ZeroProbabilityBranch as exc:
            raise ZeroProbabilityBranch(
                f"{where}branch {''.join(map(str, bits))}: {exc}") from None
        yield bits, result
        return
    for bits in product((0, 1), repeat=k):
        try:
            result = run(bits)
        except ZeroProbabilityBranch:
            continue
        yield bits, result


class TestPatternBranchesMatchFlatLoop:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(patterns_on_states())
    def test_same_branches_as_the_flat_loop(self, case):
        state, pattern = case
        labels = tuple(range(state.n_qubits))
        target = StateVector.from_amplitudes([0.6, 0.8j])

        def run(bits):
            return run_pattern(state, pattern, labels, forced=bits, target=target)

        def same(got, want):
            assert [bits for bits, _ in got] == [bits for bits, _ in want]
            for (_, a), (_, b) in zip(got, want):
                assert (a.outcomes, a.byproduct, a.probability, a.fidelity) == (
                    b.outcomes, b.byproduct, b.probability, b.fidelity)
                assert np.array_equal(a.output_state.matrix, b.output_state.matrix)

        k = len(pattern.steps)
        same(pattern_branches(state, pattern, labels, target=target),
             list(reference_forced_branches(k, run)))
        for bits in product((0, 1), repeat=k):
            try:
                want = list(reference_forced_branches(k, run, bits, where="case, "))
            except ZeroProbabilityBranch as exc:
                with pytest.raises(ZeroProbabilityBranch) as err:
                    pattern_branches(state, pattern, labels, target=target, forced=bits,
                                     where="case")
                assert str(err.value) == str(exc)
                continue
            same(pattern_branches(state, pattern, labels, target=target, forced=bits), want)


class TestLossTolerantRotation:
    PAPER_ALPHAS = (0.0, -math.pi / 2, -math.pi / 3)

    def test_noiseless_every_branch_hits_target(self):
        for case in LOSS_CASES:
            for alpha in self.PAPER_ALPHAS:
                for bits in product((0, 1), repeat=3):
                    result = loss_tolerant_rotation(case, alpha, forced=bits)
                    assert abs(result.fidelity - 1) < 1e-9

    def test_named_targets(self):
        plus = rotation_target(0.0)
        np.testing.assert_allclose(plus.amplitudes, [1 / SQ2, 1 / SQ2], atol=1e-12)
        r = rotation_target(-math.pi / 2)
        np.testing.assert_allclose(r.amplitudes, [1 / SQ2, 1j / SQ2], atol=1e-12)
        s = rotation_target(-math.pi / 3)
        np.testing.assert_allclose(s.amplitudes,
                                   [1 / SQ2, np.exp(1j * math.pi / 3) / SQ2], atol=1e-12)

    def test_random_alphas(self):
        rng = np.random.default_rng(41)
        for alpha in rng.uniform(-math.pi, math.pi, size=20):
            for case in LOSS_CASES:
                for bits in product((0, 1), repeat=3):
                    result = loss_tolerant_rotation(case, float(alpha), forced=bits)
                    assert abs(result.fidelity - 1) < 1e-9

    def test_white_noise_branches_equal_and_monotone(self):
        fids = set()
        for bits in product((0, 1), repeat=3):
            result = loss_tolerant_rotation("photon2", -math.pi / 2,
                                            NoiseSpec(white_noise_v=0.6), forced=bits)
            fids.add(round(result.fidelity, 10))
        assert len(fids) == 1
        fid = fids.pop()
        assert 0.5 < fid < 1.0
        last = 1.0
        for v in (0.9, 0.8, 0.7, 0.6):
            result = loss_tolerant_rotation("photon4", 0.0,
                                            NoiseSpec(white_noise_v=v), forced=(0, 0, 0))
            assert result.fidelity < last
            last = result.fidelity

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.floats(-4, 4), st.floats(0.5, 1.0), st.floats(0.0, 0.2), st.floats(0.5, 1.0),
           st.sampled_from([(), ((0, 1),), ((1, 3), (2, 4))]))
    def test_noisy_branch_probabilities_sum_to_one(self, alpha, v, d, vis, pairs):
        noise = NoiseSpec(white_noise_v=v, pair_dephasing_d=d, epr_visibility=vis, pairs=pairs)
        for case in LOSS_CASES:
            rows = rotation_sweep([case], [alpha], noise)
            assert abs(sum(row.probability for row in rows) - 1) <= 1e-12

    def test_sweep_rows_match_single_runs(self):
        noise = NoiseSpec(white_noise_v=0.7, pair_dephasing_d=0.1, pairs=((0, 1),))
        rows = rotation_sweep(["photon4", "photon2"], [0.3, -1.1], noise)
        assert [(r.lost, r.alpha) for r in rows[::8]] == [
            ("photon4", 0.3), ("photon4", -1.1), ("photon2", 0.3), ("photon2", -1.1)]
        for row in rows:
            bits = tuple(int(b) for b in row.branch)
            single = loss_tolerant_rotation(row.lost, row.alpha, noise, forced=bits)
            assert (row.probability, row.fidelity) == (single.probability, single.fidelity)
        forced = rotation_sweep(["photon2"], [0.3], noise, forced=(1, 0, 1))
        assert [r.branch for r in forced] == ["101"]

    def test_sweep_checks_probabilities_sum_to_one(self, monkeypatch):
        real = cluster.run_pattern

        def leaky(*args, **kwargs):
            result = real(*args, **kwargs)
            return replace(result, probability=0.5 * result.probability)

        monkeypatch.setattr(cluster, "run_pattern", leaky)
        with pytest.raises(ValueError, match="loss case photon4, alpha 0.250000000: "
                                             "branch probabilities sum to 0.5, not 1"):
            rotation_sweep(["photon4"], [0.25])

    def test_unsupported_case(self):
        with pytest.raises(ValueError, match="unsupported loss case"):
            loss_tolerant_rotation("photon3", 0.0, forced=(0, 0, 0))
