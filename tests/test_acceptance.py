"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are fixed here and are not calibration knobs.
"""

import math
import time
import tracemalloc
from itertools import product

import numpy as np

from losskit.cli import CSV_COLUMNS, main as cli_main
from losskit.cluster import (
    LOSS_CASES,
    cluster_xx_measure,
    cluster_z_measure,
    Graph,
    graph_cluster_state,
    graph_xx_contract,
    graph_z_remove,
    loss_tolerant_rotation,
    phi5,
    phi5_graph,
)
from losskit.codes import CodeParams, LogicalInput, PRESETS, encode
from losskit.qsim import (
    DensityMatrix,
    NoiseSpec,
    PauliString,
    Seed,
    StateVector,
    apply_channel,
    apply_gate,
    expectation,
    fidelity_pure,
)
from losskit.recovery import LossPattern, best_effort_plan, erase, execute_recovery, plan_recovery
from losskit.tomography import decompose_projector, estimate_fidelity, exact_counts, group_settings, simulate_counts

from click.testing import CliRunner
from pathlib import Path

P22 = CodeParams(2, 2)
SQ2 = math.sqrt(2.0)

ALGEBRA_TOL = 1e-10
PROTOCOL_TOL = 1e-9
ROUNDTRIP_CASES = 100
ROUNDTRIP_TIME_LIMIT_S = 10.0
UNRECOVERABLE_SAMPLES = 1000
UNRECOVERABLE_BOUND = (1 + 1 / SQ2) / 2 + 0.02
ESTIMATOR_TRIALS = 100
ESTIMATOR_SHOTS = 10 ** 6
ESTIMATOR_MIN_HITS = 99
SIGMA_SCALING_TOL = 0.20
REFERENCE_SETTING_COUNTS = (9, 5, 9, 15)
CAP_MATRIX_BYTES = 16 * 4096 ** 2   # one 12-qubit complex density matrix
DATA_DIR = Path(__file__).parent / "data"


def report(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} - {name}{suffix}")
    return ok


def random_input(rng):
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    return LogicalInput.normalized(a[0], a[1])


def test_noiseless_roundtrip_all_losses_and_branches():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 1.0
    cases = 0
    for _ in range(ROUNDTRIP_CASES):
        inp = random_input(rng)
        rho = encode(inp, P22).density()
        for lost in range(4):
            pattern = LossPattern({lost})
            plan = plan_recovery(P22, pattern)
            reduced = erase(rho, pattern)
            for bits in product((0, 1), repeat=2):
                rec = execute_recovery(reduced, plan, reference=inp, forced=bits)
                worst = min(worst, rec.fidelity)
                cases += 1
    elapsed = time.monotonic() - start
    ok = (cases == 1600 and worst > 1 - PROTOCOL_TOL
          and elapsed < ROUNDTRIP_TIME_LIMIT_S)
    assert report("noiseless round-trip, 1600 forced branches",
                  ok, f"worst F = {worst:.3e} from 1, {elapsed:.1f} s")


def test_stabilizer_suite_on_codewords():
    ok = True
    details = []
    for name in ("V", "PLUS", "R"):
        state = encode(PRESETS[name], P22)
        for letters in ("XXXX", "ZZZZ"):
            val = expectation(state, PauliString(letters))
            details.append(f"{name}:{letters}={val:+.12f}")
            ok = ok and abs(val - 1) < ALGEBRA_TOL
    assert report("stabilizer expectations on all codewords", ok,
                  "all +1" if ok else "; ".join(details))


def test_codeword_identities():
    bell_plus = np.array([1, 0, 0, 1], dtype=complex) / SQ2
    bell_minus = np.array([1, 0, 0, -1], dtype=complex) / SQ2
    ghz = np.zeros(16, dtype=complex)
    ghz[0] = ghz[15] = 1 / SQ2
    references = {
        "V": np.kron(bell_minus, bell_minus),
        "PLUS": ghz,
        "R": (np.kron(bell_plus, bell_plus) + 1j * np.kron(bell_minus, bell_minus)) / SQ2,
    }
    ok = True
    for name, amps in references.items():
        fid = fidelity_pure(StateVector(4, amps), encode(PRESETS[name], P22).density())
        ok = ok and abs(fid - 1) < ALGEBRA_TOL
    assert report("codeword identities (pair-product / GHZ / cluster-class)", ok)


def test_setting_counts_match_reference():
    counts = []
    for state in (encode(PRESETS["V"], P22), encode(PRESETS["PLUS"], P22),
                  encode(PRESETS["R"], P22), phi5()):
        counts.append(len(group_settings(decompose_projector(state))))
    got = tuple(counts)
    ok = got == REFERENCE_SETTING_COUNTS
    assert report("measurement-setting counts 9/5/9/15", ok,
                  f"got {got}, reference {REFERENCE_SETTING_COUNTS}; "
                  "17 is the minimum only for Pauli product settings; "
                  "Z-conditioned equatorial settings reach 15, see README")


def test_phi5_amplitudes_and_local_equivalence():
    st = phi5()
    support = {"00000", "01111", "10011", "11100"}
    ok = True
    for idx in range(32):
        bits = format(idx, "05b")
        expected = 0.5 if bits in support else 0.0
        ok = ok and abs(st.amplitude(idx) - expected) < ALGEBRA_TOL
    chain = graph_cluster_state(phi5_graph())
    for photon in (1, 3, 5):
        chain = apply_gate(chain, "H", [photon - 1])
    fid = fidelity_pure(st, chain.density())
    ok = ok and abs(fid - 1) < ALGEBRA_TOL
    assert report("phi5 amplitudes and chain-cluster equivalence", ok,
                  f"equivalence F = {fid:.12f}")


def test_one_way_loss_tolerance():
    ok = True
    worst = 1.0
    for case in LOSS_CASES:
        for alpha in (0.0, -math.pi / 2, -math.pi / 3):
            for bits in product((0, 1), repeat=3):
                fid = loss_tolerant_rotation(case, alpha, forced=bits).fidelity
                worst = min(worst, fid)
                ok = ok and abs(fid - 1) < PROTOCOL_TOL
    rng = np.random.default_rng(606)
    for alpha in rng.uniform(-math.pi, math.pi, size=20):
        # oracle target: (|0> + e^{-i alpha}|1>)/sqrt2
        oracle = StateVector.from_amplitudes([1.0, np.exp(-1j * float(alpha))],
                                             normalize=True)
        for case in LOSS_CASES:
            result = loss_tolerant_rotation(case, float(alpha), forced=(0, 1, 1))
            fid = fidelity_pure(oracle, result.output_state)
            worst = min(worst, fid)
            ok = ok and abs(fid - 1) < PROTOCOL_TOL
    assert report("one-way rotation under loss, every branch and angle", ok,
                  f"worst F = {worst:.12f}")


def test_noise_model_magnitudes():
    v = 0.55
    spec = NoiseSpec(white_noise_v=v)
    codeword_target = v + (1 - v) / 16          # 0.578125
    recovered_target = (1 + v) / 2              # 0.775
    ok = True
    details = []
    for name in ("V", "PLUS", "R"):
        psi = encode(PRESETS[name], P22)
        rho = apply_channel(psi.density(), spec)
        cw = fidelity_pure(psi, rho)
        ok = ok and abs(cw - codeword_target) < PROTOCOL_TOL
        for lost in range(4):
            pattern = LossPattern({lost})
            plan = plan_recovery(P22, pattern)
            reduced = erase(rho, pattern)
            for bits in product((0, 1), repeat=2):
                rec = execute_recovery(reduced, plan, reference=PRESETS[name], forced=bits)
                ok = ok and abs(rec.fidelity - recovered_target) < PROTOCOL_TOL
                ok = ok and rec.fidelity > cw
        details.append(f"{name}: codeword {cw:.6f}")
    assert report("white-noise magnitudes: codeword 0.578125, recovered 0.775", ok,
                  "; ".join(details))


def test_tomography_estimator_coverage_and_scaling():
    psi = phi5()
    rho = apply_channel(psi.density(), NoiseSpec(white_noise_v=0.8))
    exact = 0.8 + 0.2 / 32
    decomp = decompose_projector(psi)
    settings = group_settings(decomp)
    hits = 0
    master = Seed(31337)
    for trial in range(ESTIMATOR_TRIALS):
        tables = [simulate_counts(rho, s, ESTIMATOR_SHOTS, master.stream(trial, i))
                  for i, s in enumerate(settings)]
        fid, sigma = estimate_fidelity(tables, decomp)
        if abs(fid - exact) < 5 * sigma:
            hits += 1
    sigmas = {}
    for shots in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        tables = [exact_counts(rho, s, shots) for s in settings]
        _, sigma = estimate_fidelity(tables, decomp)
        sigmas[shots] = sigma
    anchor = sigmas[10 ** 6] * math.sqrt(10 ** 6)
    scaling_ok = all(abs(s * math.sqrt(n) / anchor - 1) < SIGMA_SCALING_TOL
                     for n, s in sigmas.items())
    ok = hits >= ESTIMATOR_MIN_HITS and scaling_ok
    assert report("tomography estimator 5-sigma coverage and 1/sqrt(shots) scaling",
                  ok, f"{hits}/{ESTIMATOR_TRIALS} within 5 sigma; scaling ok = {scaling_ok}")


def test_graph_rule_equivalence():
    graphs = [Graph.line(list(range(n))) for n in (2, 3, 4, 5, 6, 7)]
    graphs += [Graph.star(0, list(range(1, n))) for n in (3, 5, 7)]
    graphs += [
        Graph.from_edges([(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)]),
        Graph.from_edges([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]),
    ]
    ok = True
    checks = 0
    for g in graphs:
        rho = graph_cluster_state(g).density()
        for v in g.vertices:
            target = graph_cluster_state(graph_z_remove(g, v))
            for branch in (0, 1):
                _, corrected, _ = cluster_z_measure(rho, g, v, forced=branch)
                ok = ok and abs(fidelity_pure(target, corrected) - 1) < PROTOCOL_TOL
                checks += 1
        for edge in sorted(g.edges, key=lambda e: tuple(sorted(e))):
            u, v = sorted(edge)
            if g.degree(u) > 2 or g.degree(v) > 2:
                continue
            target = graph_cluster_state(graph_xx_contract(g, u, v))
            for bits in product((0, 1), repeat=2):
                _, state, _ = cluster_xx_measure(rho, g, u, v, forced=bits)
                ok = ok and abs(fidelity_pure(target, state) - 1) < PROTOCOL_TOL
                checks += 1
    assert report("graph rewrite rules agree with direct measurement", ok,
                  f"{checks} rule applications")


def test_unrecoverable_block_loss_bound():
    pattern = LossPattern({0, 1})
    plan = best_effort_plan(P22, pattern)
    rng = np.random.default_rng(505)
    total = 0.0
    for _ in range(UNRECOVERABLE_SAMPLES):
        inp = random_input(rng)
        reduced = erase(encode(inp, P22).density(), pattern)
        value = 0.0
        for bits in product((0, 1), repeat=len(plan.steps)):
            rec = execute_recovery(reduced, plan, reference=inp, forced=bits)
            value += rec.probability * rec.fidelity
        total += value
    average = total / UNRECOVERABLE_SAMPLES
    ok = average <= UNRECOVERABLE_BOUND
    assert report("fully lost block decodes below the classical bound", ok,
                  f"average F = {average:.4f} <= {UNRECOVERABLE_BOUND:.4f}")


def test_cli_determinism_and_golden_schema(tmp_path):
    runner = CliRunner()
    cfg = DATA_DIR / "golden_recover.cfg"
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = runner.invoke(cli_main, ["recover", "--config", str(cfg), "--out", str(out1)])
    r2 = runner.invoke(cli_main, ["recover", "--config", str(cfg), "--out", str(out2)])
    identical = (r1.exit_code == 0 and r2.exit_code == 0
                 and out1.read_bytes() == out2.read_bytes())
    golden = (DATA_DIR / "golden_recover.csv").read_bytes()
    matches_golden = out1.read_bytes() == golden
    header = next(ln for ln in out1.read_text().splitlines() if not ln.startswith("#"))
    schema_ok = header.split(",") == list(CSV_COLUMNS)
    ok = identical and matches_golden and schema_ok
    assert report("CLI determinism: byte-identical reruns and golden schema", ok,
                  f"identical={identical}, golden={matches_golden}, schema={schema_ok}")


def _cap_fidelity(tmp_path, noise: str) -> tuple[int, float]:
    """Exit code and fidelity of recover at (2, 6), input R, lost 0, branch 0..0."""
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("inputs = R\ncode_n = 2\ncode_m = 6\nlost = 0\n"
                   f"force_branch = 0000000000\n{noise}shots = 1000\nseed = 1\n")
    out = tmp_path / "cap.csv"
    result = CliRunner().invoke(cli_main, ["recover", "--config", str(cfg), "--out", str(out)])
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln.startswith("recover,")] if result.exit_code == 0 else []
    fidelity = float(rows[0][CSV_COLUMNS.index("fidelity")]) if len(rows) == 1 else math.nan
    return result.exit_code, fidelity


def test_recover_at_the_twelve_qubit_cap(tmp_path):
    # (2, 6), lost 0, branch 0..0: the 5 intact blocks and the one X-measured
    # survivor give the pure branch p = 2^-6 and the mixed part q = 2^-10 of
    # its 10 bits, so F = (v p + (1 - v) q / 2) / (v p + (1 - v) q) = 0.996551724.
    v, p, q = 0.9, 2.0 ** -6, 2.0 ** -10
    expected = (v * p + (1 - v) * q / 2) / (v * p + (1 - v) * q)
    # With pair dephasing and source visibility on the chain pairs, the same
    # branch gives 0.825787586: the value of building the full 2^12 x 2^12
    # noisy matrix and tracing qubit 0 out of it.
    dephased = 0.825787586
    tracemalloc.start()
    try:
        exit_code, fidelity = _cap_fidelity(tmp_path, "noise_v = 0.9\n")
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        dephased_exit, dephased_f = _cap_fidelity(
            tmp_path, "noise_v = 0.9\nnoise_d = 0.05\nnoise_visibility = 0.9\n"
                      "dephase_pairs = auto\n")
        _, dephased_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ok = abs(fidelity - expected) <= PROTOCOL_TOL and abs(dephased_f - dephased) <= PROTOCOL_TOL
    ok = ok and max(peak, dephased_peak) < CAP_MATRIX_BYTES
    assert report("recover at the 12-qubit cap: right fidelities, below one full-size matrix", ok,
                  f"exit {exit_code}, F = {fidelity:.9f}, expected {expected:.9f}; "
                  f"dephased exit {dephased_exit}, F = {dephased_f:.9f}, expected {dephased:.9f}; "
                  f"peak {peak / 1e6:.0f} and {dephased_peak / 1e6:.0f} MB, "
                  f"limit {CAP_MATRIX_BYTES / 1e6:.0f} MB")
