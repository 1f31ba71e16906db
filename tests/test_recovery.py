"""Loss-and-recovery tests: erasure, plans, feedforward execution, sweeps."""

import math
from itertools import product

import numpy as np
import pytest

from losskit.codes import CodeParams, LogicalInput, PRESETS, encode
from losskit import cluster
from losskit.cluster import pattern_branches
from losskit.qsim import (DensityMatrix, NoiseSpec, Seed, StateVector, ZeroProbabilityBranch,
                          apply_channel, apply_gate, fidelity_pure)
from losskit.recovery import (
    LossPattern,
    best_effort_plan,
    erase,
    execute_recovery,
    plan_recovery,
    recoverable,
    recovery_sweep,
)

P22 = CodeParams(2, 2)
SQ2 = math.sqrt(2.0)


def random_input(rng):
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    return LogicalInput.normalized(a[0], a[1])


def all_branches(plan):
    return product((0, 1), repeat=len(plan.steps))


def steps(plan):
    return [(step.qubit, step.basis) for step in plan.steps]


class TestErase:
    def test_erase_one_qubit_of_ghz(self):
        rho = erase(encode(PRESETS["PLUS"], P22).density(), LossPattern({0}))
        expected = np.zeros((8, 8))
        expected[0, 0] = expected[7, 7] = 0.5
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)
        assert abs(sorted(np.linalg.eigvalsh(rho.matrix))[-2] - 0.5) < 1e-12  # rank 2

    def test_empty_pattern_is_identity(self):
        rho = encode(PRESETS["R"], P22).density()
        out = erase(rho, LossPattern())
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_erase_from_pair_product_state(self):
        rho = erase(encode(PRESETS["V"], P22).density(), LossPattern({0}))
        bell_minus = StateVector.from_amplitudes([1, 0, 0, -1], normalize=True)
        expected = np.kron(np.eye(2) / 2, bell_minus.density().matrix)
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)

    def test_erase_everything_raises(self):
        rho = encode(PRESETS["V"], P22).density()
        with pytest.raises(ValueError):
            erase(rho, LossPattern({0, 1, 2, 3}))


class TestRecoverable:
    def test_single_loss_recoverable(self):
        for q in range(4):
            assert recoverable(P22, LossPattern({q}))

    def test_full_block_loss_not_recoverable(self):
        assert not recoverable(P22, LossPattern({0, 1}))
        assert not recoverable(P22, LossPattern({2, 3}))

    def test_multi_loss_with_intact_block(self):
        assert recoverable(CodeParams(3, 2), LossPattern({0, 1}))

    def test_no_intact_block_not_recoverable(self):
        assert not recoverable(CodeParams(3, 2), LossPattern({0, 3}))

    def test_no_loss_recoverable(self):
        assert recoverable(P22, LossPattern())


class TestPlanRecovery:
    def test_first_qubit_lost_plan_matches_feedforward_table(self):
        plan = plan_recovery(P22, LossPattern({0}), target=3)
        assert steps(plan) == [(1, "z"), (2, "x")]
        assert plan.output == 3
        assert (plan.output_x_from, plan.output_z_from) == ((1,), (2,))
        assert plan.output_gate == "H"

    def test_mirrored_block_plan(self):
        plan = plan_recovery(P22, LossPattern({3}), target=1)
        assert steps(plan) == [(2, "z"), (0, "x")]
        assert plan.output == 1

    def test_default_target_choice(self):
        # highest-index qubit of the lowest-index intact block
        assert plan_recovery(P22, LossPattern({0})).output == 3
        assert plan_recovery(P22, LossPattern({2})).output == 1

    def test_no_loss_plan_decodes_every_input(self):
        # redundancy only: the non-target block is removed by Z measurements
        plan = plan_recovery(P22, LossPattern(), target=3)
        assert steps(plan) == [(0, "z"), (1, "z"), (2, "x")]
        rng = np.random.default_rng(31)
        for _ in range(10):
            inp = random_input(rng)
            rho = encode(inp, P22).density()
            # intra-block disagreement has probability zero and is skipped
            branches = pattern_branches(rho, plan, range(4), target=inp.statevector())
            assert len(branches) == 4
            assert abs(sum(rec.probability for _, rec in branches) - 1) < 1e-12
            for _, rec in branches:
                assert abs(rec.fidelity - 1) < 1e-9

    def test_unrecoverable_pattern_raises(self):
        with pytest.raises(ValueError, match="not recoverable"):
            plan_recovery(P22, LossPattern({0, 1}))

    def test_target_in_damaged_block_raises(self):
        with pytest.raises(ValueError, match="damaged block"):
            plan_recovery(P22, LossPattern({0}), target=1)


class TestExecuteRecovery:
    def test_v_input_every_branch_recovers_exactly(self):
        rho = erase(encode(PRESETS["V"], P22).density(), LossPattern({0}))
        plan = plan_recovery(P22, LossPattern({0}))
        for bits in all_branches(plan):
            rec = execute_recovery(rho, plan, reference=PRESETS["V"], forced=bits)
            assert abs(rec.fidelity - 1) < 1e-12
            assert abs(rec.probability - 0.25) < 1e-12

    def test_branch_words_follow_table(self):
        # bits are (Z outcome, X outcome): the (z-parity, x-parity) feedforward table
        for lost in range(4):
            rho = erase(encode(PRESETS["R"], P22).density(), LossPattern({lost}))
            plan = plan_recovery(P22, LossPattern({lost}))
            words = {}
            for bits in all_branches(plan):
                rec = execute_recovery(rho, plan, reference=PRESETS["R"], forced=bits)
                words[bits] = rec.byproduct
                assert abs(rec.fidelity - 1) < 1e-12
            assert words == {(0, 0): "H", (1, 0): "HX", (0, 1): "HZ", (1, 1): "HXZ"}, lost

    def test_r_input_third_qubit_lost(self):
        rho = erase(encode(PRESETS["R"], P22).density(), LossPattern({2}))
        plan = plan_recovery(P22, LossPattern({2}))
        rec = execute_recovery(rho, plan, reference=PRESETS["R"], forced=(0, 0))
        assert abs(rec.fidelity - 1) < 1e-12

    def test_white_noise_recovers_at_half_plus_v_over_two(self):
        spec = NoiseSpec(white_noise_v=0.5)
        for name in ("V", "PLUS", "R"):
            psi = encode(PRESETS[name], P22)
            rho = apply_channel(psi.density(), spec)
            reduced = erase(rho, LossPattern({0}))
            plan = plan_recovery(P22, LossPattern({0}))
            for bits in all_branches(plan):
                rec = execute_recovery(reduced, plan, reference=PRESETS[name], forced=bits)
                assert abs(rec.fidelity - 0.75) < 1e-10

    def test_multi_loss_roundtrip(self):
        params = CodeParams(3, 2)
        pattern = LossPattern({0, 1})
        plan = plan_recovery(params, pattern)
        rng = np.random.default_rng(32)
        for _ in range(5):
            inp = random_input(rng)
            rho = erase(encode(inp, params).density(), pattern)
            branches = pattern_branches(rho, plan, range(2, 6), target=inp.statevector())
            assert len(branches) == 8   # one Z and two X outcomes, all possible
            assert abs(sum(rec.probability for _, rec in branches) - 1) < 1e-12
            for _, rec in branches:
                assert abs(rec.fidelity - 1) < 1e-9

    def test_noiseless_roundtrip_random_sample(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            inp = random_input(rng)
            rho = encode(inp, P22).density()
            for lost in range(4):
                pattern = LossPattern({lost})
                plan = plan_recovery(P22, pattern)
                reduced = erase(rho, pattern)
                for bits in all_branches(plan):
                    rec = execute_recovery(reduced, plan, reference=inp, forced=bits)
                    assert abs(rec.fidelity - 1) < 1e-9

    def test_branch_average_consistency_with_sampling(self):
        # probability-weighted forced-branch average vs rng-sampled estimate
        rng0 = np.random.default_rng(12)
        junk = StateVector.from_amplitudes(
            rng0.normal(size=16) + 1j * rng0.normal(size=16), normalize=True)
        psi = encode(PRESETS["R"], P22)
        mixed = DensityMatrix(4, 0.75 * psi.density().matrix + 0.25 * junk.density().matrix)
        reduced = erase(mixed, LossPattern({0}))
        plan = plan_recovery(P22, LossPattern({0}))
        weighted = 0.0
        for bits in all_branches(plan):
            rec = execute_recovery(reduced, plan, reference=PRESETS["R"], forced=bits)
            weighted += rec.probability * rec.fidelity
        seed = Seed(99)
        shots = 10000
        samples = np.array([
            execute_recovery(reduced, plan, reference=PRESETS["R"],
                             rng=seed.stream(i)).fidelity
            for i in range(shots)
        ])
        stderr = samples.std(ddof=1) / math.sqrt(shots)
        assert abs(weighted - samples.mean()) < max(3 * stderr, 1e-9)

    def test_monotone_in_white_noise(self):
        plan = plan_recovery(P22, LossPattern({1}))
        psi = encode(PRESETS["R"], P22)
        last = 1.1
        for v in (1.0, 0.9, 0.8, 0.7, 0.6, 0.5):
            rho = apply_channel(psi.density(), NoiseSpec(white_noise_v=v))
            rec = execute_recovery(erase(rho, LossPattern({1})), plan,
                                   reference=PRESETS["R"], forced=(0, 0))
            assert rec.fidelity <= last + 1e-12
            assert abs(rec.fidelity - (1 + v) / 2) < 1e-10
            last = rec.fidelity

    def test_wrong_state_size_raises(self):
        plan = plan_recovery(P22, LossPattern({0}))
        with pytest.raises(ValueError):
            execute_recovery(encode(PRESETS["V"], P22).density(), plan,
                             reference=PRESETS["V"], forced=(0, 0))


class TestBestEffort:
    def test_fully_lost_block_bounded_by_classical_limit(self):
        pattern = LossPattern({0, 1})
        plan = best_effort_plan(P22, pattern)
        rng = np.random.default_rng(34)
        total = 0.0
        trials = 200
        for _ in range(trials):
            inp = random_input(rng)
            rho = erase(encode(inp, P22).density(), pattern)
            got = 0.0
            for bits in all_branches(plan):
                rec = execute_recovery(rho, plan, reference=inp, forced=bits)
                got += rec.probability * rec.fidelity
            total += got
        average = total / trials
        assert average <= (1 + 1 / SQ2) / 2 + 0.02
        # the mixture decodes diagonally: expect |a0|^4 + |a1|^4 (mean 2/3)
        assert abs(average - 2 / 3) < 0.05


class TestRecoverySweep:
    def test_noiseless_sweep_shape_and_values(self):
        rows = recovery_sweep([PRESETS[n] for n in ("V", "PLUS", "R")], P22, shots=1000)
        assert len(rows) == 48
        assert all(abs(r.fidelity - 1) < 1e-9 for r in rows)
        assert all(r.sigma < 1e-6 for r in rows)
        # deterministic ordering: input order, lost ascending, branch lexicographic
        key = [(r.input_name, r.lost, r.branch) for r in rows]
        v_rows = [k for k in key if k[0] == "V"]
        assert v_rows == sorted(v_rows, key=lambda k: (k[1], k[2]))
        assert [r.input_name for r in rows[:16]] == ["V"] * 16

    def test_recovered_exceeds_codeword_fidelity_under_white_noise(self):
        v = 0.6
        spec = NoiseSpec(white_noise_v=v)
        rows = recovery_sweep([PRESETS["R"]], P22, noise=spec, shots=100)
        codeword_fid = v + (1 - v) / 16
        for row in rows:
            assert row.fidelity > codeword_fid
            assert abs(row.fidelity - (1 + v) / 2) < 1e-10

    def test_sweep_rows_are_probability_complete(self):
        rows = recovery_sweep([PRESETS["V"]], P22, shots=10)
        by_loss = {}
        for row in rows:
            by_loss.setdefault(row.lost, 0.0)
            by_loss[row.lost] += row.probability
        for total in by_loss.values():
            assert abs(total - 1.0) < 1e-10

    def test_forced_branch_single_row_per_loss(self):
        rows = recovery_sweep([PRESETS["R"]], P22, NoiseSpec(white_noise_v=0.6),
                              shots=100, forced=(1, 0))
        assert [(r.lost, r.branch) for r in rows] == [(q, "10") for q in range(4)]
        assert all(abs(r.fidelity - 0.8) < 1e-10 for r in rows)

    def test_forced_zero_probability_branch_names_input_loss_and_bits(self):
        # noiseless (3, 2): the Z outcomes of block 1 agree, so 0100 never occurs
        with pytest.raises(ZeroProbabilityBranch, match="input V, lost qubit 0, branch 0100"):
            recovery_sweep([PRESETS["V"]], CodeParams(3, 2), losses=[0], forced=(0, 1, 0, 0))

    def test_plain_value_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("broken branch")

        monkeypatch.setattr(cluster, "run_pattern", broken)
        with pytest.raises(ValueError, match="broken branch"):
            recovery_sweep([PRESETS["V"]], P22)

    def test_probabilities_must_sum_to_one(self, monkeypatch):
        def never(*args, **kwargs):
            raise ZeroProbabilityBranch("forced outcome 0 has zero probability")

        monkeypatch.setattr(cluster, "run_pattern", never)
        with pytest.raises(ValueError, match="input PLUS, lost qubit 2: branch probabilities"):
            recovery_sweep([PRESETS["PLUS"]], P22, losses=[2])
