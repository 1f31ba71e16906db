"""Command-line harness tests: config handling, rows, determinism, golden file."""

import inspect
import json
import math
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import losskit
from losskit import cluster
from losskit.cli import (
    CSV_COLUMNS,
    RUNNERS,
    ConfigError,
    ExperimentConfig,
    main,
    parse_config,
    validate_config,
)
from losskit.cluster import PHI5_PAIRS, phi5, rotation_sweep
from losskit.codes import PRESETS, CodeParams, encode, lab_pairs
from losskit.qsim import NoiseSpec, apply_channel
from losskit.recovery import loss_average, recovery_sweep, shot_sigma
from losskit.tomography import MAX_SHOTS, sampled_fidelity

DATA_DIR = Path(__file__).parent / "data"


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(args):
    return CliRunner().invoke(main, args)


def data_rows(csv_text):
    lines = [ln for ln in csv_text.splitlines() if not ln.startswith("#")]
    header, rows = lines[0], lines[1:]
    return header, [ln.split(",") for ln in rows]


class TestConfigParsing:
    def test_full_round_trip(self, tmp_path):
        path = write_cfg(tmp_path, "c.cfg", "\n".join([
            "# comment", "inputs = V,R", "code_n = 2", "code_m = 2",
            "noise_v = 0.8", "shots = 500", "seed = 42", "format = json",
            "alphas = 0, -pi/2, -pi/3, 0.25",
        ]))
        cfg = parse_config(path)
        assert cfg.inputs == ("V", "R")
        assert cfg.noise_v == 0.8
        assert cfg.format == "json"
        assert cfg.alphas == pytest.approx((0.0, -math.pi / 2, -math.pi / 3, 0.25))

    def test_unknown_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "c.cfg", "wibble = 3\n")
        with pytest.raises(Exception, match="wibble"):
            parse_config(path)

    def test_scalar_keys_parse_as_the_type_of_their_default(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "c.cfg", "seed = 7\nnoise_d = 1\nlost = 3\n"))
        assert (cfg.seed, cfg.noise_d, cfg.lost) == (7, 1.0, "3")
        assert type(cfg.noise_d) is float
        for text, message in (("code_n = 2.5", "expected an integer, got '2.5'"),
                              ("noise_v = high", "expected a number, got 'high'")):
            with pytest.raises(ConfigError) as err:
                parse_config(write_cfg(tmp_path, "bad.cfg", text + "\n"))
            assert err.value.message == f"config field '{text.split()[0]}': {message}"

    def test_commands_come_from_the_runners(self):
        config_fields = {f.name for f in fields(ExperimentConfig)}
        assert list(main.commands) == list(RUNNERS)
        for name, command in main.commands.items():
            assert command.help == inspect.getdoc(RUNNERS[name])
            assert {p.name for p in command.params} - {"config_path"} <= config_fields

    def test_validation_names_offending_field(self):
        cfg = ExperimentConfig(experiment="encode", code_n=1)
        with pytest.raises(Exception, match="code_n"):
            validate_config(cfg)
        cfg = ExperimentConfig(experiment="encode", inputs=("V", "NOPE"))
        with pytest.raises(Exception, match="inputs"):
            validate_config(cfg)
        cfg = ExperimentConfig(experiment="oneway", lost="photon3")
        with pytest.raises(Exception, match="lost"):
            validate_config(cfg)

    @pytest.mark.parametrize("experiment, text, field", [
        ("recover", "lost = 9\n", "lost"),          # (2, 2) has qubits 0..3
        ("recover", "lost = -1\n", "lost"),
        ("recover", "lost = 1,1\n", "lost"),
        ("recover", "lost = photon2\n", "lost"),
        ("recover", "force_branch = 010\n", "force_branch"),   # (2, 2) measures 2 qubits
        ("recover", "code_n = 3\ncode_m = 2\nforce_branch = 01\n", "force_branch"),
        ("oneway", "force_branch = 01\n", "force_branch"),
        ("oneway", "force_branch = 0101\n", "force_branch"),
        ("encode", "force_branch = 0101\n", "force_branch"),   # no outcome branches
        ("cluster-fidelity", "force_branch = 0\n", "force_branch"),
        ("recover", "inputs = V,V\n", "inputs"),   # each row would print twice
        ("encode", "inputs = V,PLUS,V\n", "inputs"),
        ("encode", "inputs = ,\n", "inputs"),
        ("recover", "inputs = ,\n", "inputs"),
        ("oneway", "alphas = ,\n", "alphas"),
        ("oneway", "lost = ,\n", "lost"),
        ("oneway", "lost = photon2,photon2\n", "lost"),   # each row would print twice
        ("recover", "code_m = 1\n", "code_m"),   # no single-block code survives a loss
    ])
    def test_lost_and_branch_width_checked_up_front(self, tmp_path, experiment, text, field):
        cfg = write_cfg(tmp_path, "bad.cfg", "inputs = V\nshots = 10\n" + text)
        result = run_cli([experiment, "--config", cfg])
        assert result.exit_code == 2, result.output
        assert f"config field '{field}'" in result.output
        parsed = replace(parse_config(cfg), experiment=experiment)
        with pytest.raises(ConfigError, match=field):   # caught before any runner starts
            validate_config(parsed)

    @pytest.mark.parametrize("stated, code", [
        ("recover", 0), ("", 0), ("oneway", 2), ("encode", 2), ("nope", 2)])
    def test_config_experiment_must_match_the_subcommand(self, tmp_path, stated, code):
        cfg = write_cfg(tmp_path, "r.cfg",
                        f"experiment = {stated}\ninputs = V\nlost = 0\nshots = 10\n")
        result = run_cli(["recover", "--config", cfg])
        assert result.exit_code == code, result.output
        if code:
            assert "config field 'experiment'" in result.output
            assert isinstance(result.exception, SystemExit)
        else:
            assert "# experiment=recover" in result.output

    @pytest.mark.parametrize("shots, code", [(MAX_SHOTS, 0), (MAX_SHOTS + 1, 2)])
    def test_shots_cap_is_the_exact_float64_count(self, tmp_path, shots, code):
        # 2^53 is the largest count float64 holds exactly, so the counts still sum to shots
        assert MAX_SHOTS == 2 ** 53
        cfg = write_cfg(tmp_path, "s.cfg", f"inputs = V\nshots = {shots}\n")
        for command in ("encode", "cluster-fidelity"):
            result = run_cli([command, "--config", cfg])
            assert result.exit_code == code, result.output
            if code:
                assert "config field 'shots'" in result.output
                assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("angle", ["pi/0", "inf", "nan", "1e400"])
    def test_bad_angle_exits_2(self, tmp_path, angle):
        cfg = write_cfg(tmp_path, "bad.cfg", f"alphas = 0, {angle}\n")
        result = run_cli(["oneway", "--config", cfg])
        assert result.exit_code == 2, result.output
        assert "config field 'alphas'" in result.output


ALL = tuple(RUNNERS)
_INVALID_FLOATS = st.one_of(
    st.floats(allow_nan=False).filter(lambda x: not 0.0 <= x <= 1.0).map(repr),
    st.sampled_from(["high", "nan", "inf", "1e400", "0.5.1", ""]))
# key -> (subcommands that read it, values every one of them must reject)
BAD_VALUES = {
    "code_n": (ALL, st.one_of(st.integers(max_value=1).map(str),
                              st.sampled_from(["2.5", "two", ""]))),
    "code_m": (ALL, st.one_of(st.integers(max_value=0).map(str), st.sampled_from(["1.0", "x"]))),
    "noise_v": (ALL, _INVALID_FLOATS),
    "noise_d": (ALL, _INVALID_FLOATS),
    "noise_visibility": (ALL, _INVALID_FLOATS),
    "shots": (ALL, st.one_of(st.integers(max_value=0), st.integers(MAX_SHOTS + 1, 2 ** 80),
                             st.sampled_from(["1e3", "ten", "1.0"])).map(str)),
    "seed": (ALL, st.one_of(st.integers(max_value=-1), st.integers(min_value=2 ** 64),
                            st.sampled_from(["x", "1.5"])).map(str)),
    "format": (ALL, st.text("acjnosvxCSV ,.", max_size=6).filter(
        lambda t: t.strip() not in ("csv", "json"))),
    "inputs": (ALL, st.sampled_from(["NOPE", "V,X", "v", "PLUS,R,phi5", "V,V", "R,PLUS,R"])),
    "dephase_pairs": (ALL, st.sampled_from(["0:9", "0:0", "a:b", "1-2", "0:1:2", "-1:2"])),
    "alphas": (ALL, st.sampled_from(["pi/0", "inf", "nan", "1e400", "abc", "1/pi", "0,2pi3"])),
    "lost": (("recover", "oneway"),
             st.sampled_from(["9", "-1", "1,1", "photon3", ",", "photon2,photon2"])),
    "force_branch": (ALL, st.sampled_from(["2", "ab", "0101", "0", "0 1 2"])),
    "experiment": (ALL, st.sampled_from(["nope", "Recover", "cluster", "encode,recover"])),
    "out": (ALL, st.sampled_from(["", "missing/x.csv"])),   # the directory, a missing one
}


class TestBadConfigValues:
    @pytest.mark.parametrize("key", sorted(BAD_VALUES))
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_bad_value_exits_2_naming_the_field(self, key, data):
        commands, values = BAD_VALUES[key]
        command, value = data.draw(st.sampled_from(commands)), data.draw(values)
        with tempfile.TemporaryDirectory() as work:
            if key == "out":
                value = str(Path(work, value))
            cfg = Path(work, "bad.cfg")
            cfg.write_text(f"inputs = V\nshots = 10\n{key} = {value}\n")
            result = run_cli([command, "--config", str(cfg)])
        assert result.exit_code == 2, (command, value, result.output)
        assert f"config field '{key}'" in result.output
        assert isinstance(result.exception, SystemExit)   # a usage error, not a traceback

    @pytest.mark.parametrize("target", ["", "missing/x.csv"])
    def test_unwritable_out_exits_2(self, tmp_path, monkeypatch, target):
        def runner(cfg):
            raise AssertionError("the run started before --out was checked")

        monkeypatch.setitem(RUNNERS, "recover", runner)
        cfg = write_cfg(tmp_path, "r.cfg", "inputs = V\nshots = 10\n")
        out = tmp_path / target   # the directory itself, or a file in a missing one
        result = run_cli(["recover", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "config field 'out'" in result.output
        assert isinstance(result.exception, SystemExit)


class TestVersion:
    def test_version_flag_works_from_a_source_checkout(self):
        result = run_cli(["--version"])
        assert result.exit_code == 0, result.output
        assert result.output.split()[-1] == "0.1.0"

    def test_package_version_matches_pyproject(self):
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        assert re.search(r'^version = "(.+)"$', pyproject, re.M).group(1) == losskit.__version__


class TestLibraryCalls:
    """Each row value the CLI prints is one library call's result."""

    NOISE = NoiseSpec(white_noise_v=0.9, pair_dephasing_d=0.05, epr_visibility=0.95)
    CONFIG = ("inputs = V,PLUS,R\nnoise_v = 0.9\nnoise_d = 0.05\nnoise_visibility = 0.95\n"
              "dephase_pairs = auto\nshots = 1000\nseed = 5\nalphas = 0.3, -pi/3\n")

    def rows(self, tmp_path, experiment):
        cfg = replace(parse_config(write_cfg(tmp_path, "c.cfg", self.CONFIG)),
                      experiment=experiment)
        validate_config(cfg)
        return RUNNERS[experiment](cfg)

    def test_encode(self, tmp_path):
        params = CodeParams(2, 2)
        rows = self.rows(tmp_path, "encode")
        for key, (name, row) in enumerate(zip(("V", "PLUS", "R"), rows)):
            psi = encode(PRESETS[name], params)
            noise = replace(self.NOISE, pairs=lab_pairs(params, name))
            rho = apply_channel(psi.density(), noise)
            assert (row.fidelity, row.sigma, row.settings) == sampled_fidelity(
                psi, rho, 1000, 5, key)
        assert len(rows) == 3

    def test_cluster_fidelity(self, tmp_path):
        (row,) = self.rows(tmp_path, "cluster-fidelity")
        rho = apply_channel(phi5().density(), replace(self.NOISE, pairs=PHI5_PAIRS))
        assert (row.fidelity, row.sigma, row.settings) == sampled_fidelity(phi5(), rho, 1000, 5)

    def test_recover_branches_and_avg(self, tmp_path):
        params = CodeParams(2, 2)
        rows = iter(self.rows(tmp_path, "recover"))
        for name in ("V", "PLUS", "R"):
            sweep = recovery_sweep([PRESETS[name]], params,
                                   replace(self.NOISE, pairs=lab_pairs(params, name)))
            for want in sweep:
                got = next(rows)
                assert (got.input, got.lost, got.branch, got.alpha, got.fidelity, got.sigma) == (
                    want.input, want.lost, want.branch, None, want.fidelity,
                    shot_sigma(want.fidelity, 1000))
            avg = next(rows)
            assert (avg.input, avg.branch) == (name, "avg")
            assert (avg.fidelity, avg.sigma) == loss_average(sweep, 1000)
        assert next(rows, None) is None

    def test_oneway(self, tmp_path):
        rows = self.rows(tmp_path, "oneway")
        sweep = rotation_sweep(("photon2", "photon4"), (0.3, -math.pi / 3),
                               replace(self.NOISE, pairs=PHI5_PAIRS))
        assert [(r.input, r.lost, r.branch, r.alpha, r.fidelity, r.sigma) for r in rows] == [
            (w.input, w.lost, w.branch, w.alpha, w.fidelity, shot_sigma(w.fidelity, 1000))
            for w in sweep]


class TestEncodeCommand:
    def test_noiseless_presets(self, tmp_path):
        cfg = write_cfg(tmp_path, "e.cfg", "inputs = V,PLUS,R\nshots = 2000\nseed = 7\n")
        result = run_cli(["encode", "--config", cfg])
        assert result.exit_code == 0, result.output
        header, rows = data_rows(result.output)
        assert header == ",".join(CSV_COLUMNS)
        got = {r[1]: (r[7], r[9]) for r in rows}
        assert got["V"] == ("1.000000000", "9")
        assert got["PLUS"] == ("1.000000000", "5")
        assert got["R"] == ("1.000000000", "9")

    def test_white_noise_admixture_estimate(self, tmp_path):
        cfg = write_cfg(tmp_path, "e.cfg",
                        "inputs = R\nnoise_v = 0.55\nshots = 200000\nseed = 11\n")
        result = run_cli(["encode", "--config", cfg])
        assert result.exit_code == 0, result.output
        _, rows = data_rows(result.output)
        fid, sigma = float(rows[0][7]), float(rows[0][8])
        expected = 0.55 + 0.45 / 16
        assert abs(fid - expected) < 5 * sigma

    def test_invalid_block_size_exits_with_usage_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "bad.cfg", "code_n = 1\n")
        result = run_cli(["encode", "--config", cfg])
        assert result.exit_code == 2
        assert "code_n" in result.output

    def test_visibility_placement_orders_codeword_fidelities(self, tmp_path):
        cfg = write_cfg(tmp_path, "e.cfg", "\n".join([
            "inputs = V,PLUS,R", "noise_visibility = 0.92",
            "dephase_pairs = auto", "shots = 400000", "seed = 5",
        ]))
        result = run_cli(["encode", "--config", cfg])
        assert result.exit_code == 0, result.output
        _, rows = data_rows(result.output)
        fid = {r[1]: float(r[7]) for r in rows}
        assert fid["V"] > fid["PLUS"]
        assert abs(fid["PLUS"] - fid["R"]) < 0.02


class TestRecoverCommand:
    def test_noiseless_full_sweep(self, tmp_path):
        cfg = write_cfg(tmp_path, "r.cfg", "inputs = V,PLUS,R\nshots = 100\nseed = 7\n")
        result = run_cli(["recover", "--config", cfg])
        assert result.exit_code == 0, result.output
        _, rows = data_rows(result.output)
        branch_rows = [r for r in rows if r[5] != "avg"]
        avg_rows = [r for r in rows if r[5] == "avg"]
        assert len(branch_rows) == 48
        assert len(avg_rows) == 3
        assert all(r[7] == "1.000000000" for r in rows)

    def test_forced_branch_single_cell(self, tmp_path):
        cfg = write_cfg(tmp_path, "r.cfg",
                        "inputs = V\nlost = 0\nforce_branch = 10\nshots = 100\nseed = 7\n")
        result = run_cli(["recover", "--config", cfg])
        assert result.exit_code == 0, result.output
        _, rows = data_rows(result.output)
        assert len(rows) == 1
        assert rows[0][4] == "0" and rows[0][5] == "10"
        assert rows[0][7] == "1.000000000"

    def test_zero_probability_forced_branch_exits_3(self, tmp_path):
        # in the noiseless (3, 2) code the two Z outcomes of block 1 agree,
        # so branch 0100 after losing qubit 0 never happens
        cfg = write_cfg(tmp_path, "r.cfg",
                        "inputs = V\ncode_n = 3\ncode_m = 2\nlost = 0\nshots = 10\n")
        result = run_cli(["recover", "--config", cfg, "--force-branch", "0100"])
        assert result.exit_code == 3, result.output
        assert "input V, lost qubit 0, branch 0100" in result.output
        assert "zero probability" in result.output

    def test_white_noise_averages(self, tmp_path):
        cfg = write_cfg(tmp_path, "r.cfg",
                        "inputs = V,PLUS,R\nnoise_v = 0.55\nshots = 100\nseed = 7\n")
        result = run_cli(["recover", "--config", cfg])
        _, rows = data_rows(result.output)
        for row in rows:
            if row[5] == "avg":
                assert abs(float(row[7]) - 0.775) < 1e-9


class TestOnewayCommand:
    def test_noiseless_all_cases(self, tmp_path):
        cfg = write_cfg(tmp_path, "o.cfg", "alphas = 0,-pi/2,-pi/3\nshots = 100\nseed = 7\n")
        result = run_cli(["oneway", "--config", cfg])
        assert result.exit_code == 0, result.output
        _, rows = data_rows(result.output)
        assert len(rows) == 48  # 2 cases x 3 alphas x 8 branches
        assert all(r[7] == "1.000000000" for r in rows)
        assert {r[4] for r in rows} == {"photon2", "photon4"}

    def test_white_noise_branches_equal(self, tmp_path):
        cfg = write_cfg(tmp_path, "o.cfg",
                        "alphas = -pi/2\nlost = photon2\nnoise_v = 0.6\nshots = 100\nseed = 7\n")
        result = run_cli(["oneway", "--config", cfg])
        _, rows = data_rows(result.output)
        fids = {row[7] for row in rows}
        assert len(fids) == 1
        assert abs(float(fids.pop()) - 0.8) < 1e-9

    def test_unsupported_loss_case(self, tmp_path):
        cfg = write_cfg(tmp_path, "o.cfg", "lost = photon5\n")
        result = run_cli(["oneway", "--config", cfg])
        assert result.exit_code == 2
        assert "lost" in result.output


class TestClusterFidelityCommand:
    def test_white_noise_magnitude(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.cfg", "noise_v = 0.55\nshots = 200000\nseed = 11\n")
        result = run_cli(["cluster-fidelity", "--config", cfg])
        assert result.exit_code == 0, result.output
        _, rows = data_rows(result.output)
        fid, sigma = float(rows[0][7]), float(rows[0][8])
        assert abs(fid - (0.55 + 0.45 / 32)) < 5 * sigma


class TestOutputContracts:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, "r.cfg", "inputs = V,R\nshots = 300\nseed = 99\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["recover", "--config", cfg, "--out", str(out1)]).exit_code == 0
        assert run_cli(["recover", "--config", cfg, "--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_golden_file(self, tmp_path):
        out = tmp_path / "golden.csv"
        result = run_cli(["recover", "--config", str(DATA_DIR / "golden_recover.cfg"),
                          "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == (DATA_DIR / "golden_recover.csv").read_bytes()

    def test_second_golden_file(self, tmp_path):
        # noiseless (3, 2) recover sweep (pruned branches) + noisy oneway run
        outs = [tmp_path / "recover.csv", tmp_path / "oneway.csv"]
        for cmd, cfg, out in (("recover", "golden_recover_32.cfg", outs[0]),
                              ("oneway", "golden_recover_32_oneway.cfg", outs[1])):
            result = run_cli([cmd, "--config", str(DATA_DIR / cfg), "--out", str(out)])
            assert result.exit_code == 0, result.output
        got = b"".join(out.read_bytes() for out in outs)
        assert got == (DATA_DIR / "golden_recover_32.csv").read_bytes()

    def test_json_golden_file(self):
        # noisy recover and oneway runs of one config, pinned in --format json
        cfg = str(DATA_DIR / "golden_noisy.cfg")
        got = ""
        for cmd in ("recover", "oneway"):
            result = run_cli([cmd, "--config", cfg, "--format", "json"])
            assert result.exit_code == 0, result.output
            got += result.output
        assert got == (DATA_DIR / "golden_noisy.json").read_text()

    def test_tomography_golden_file(self, tmp_path):
        # noisy encode at (2, 2) and (2, 3) plus noisy cluster-fidelity; with
        # 1000 shots a setting probability off by one bit moves a draw
        got = b""
        for cmd, cfg in (("encode", "golden_tomography_22.cfg"),
                         ("encode", "golden_tomography_23.cfg"),
                         ("cluster-fidelity", "golden_tomography_cluster.cfg")):
            out = tmp_path / "out.csv"
            result = run_cli([cmd, "--config", str(DATA_DIR / cfg), "--out", str(out)])
            assert result.exit_code == 0, result.output
            got += out.read_bytes()
        assert got == (DATA_DIR / "golden_tomography.csv").read_bytes()

    def test_schema_and_config_echo(self, tmp_path):
        cfg = write_cfg(tmp_path, "r.cfg", "inputs = V\nshots = 100\nseed = 1\n")
        result = run_cli(["recover", "--config", cfg])
        lines = result.output.splitlines()
        preamble = [ln for ln in lines if ln.startswith("# ")]
        assert any(ln == "# seed=1" for ln in preamble)
        assert any(ln == "# experiment=recover" for ln in preamble)
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header.split(",") == list(CSV_COLUMNS)
        for ln in lines[lines.index(header) + 1:]:
            if ln:
                assert len(ln.split(",")) == len(CSV_COLUMNS)

    def test_json_format(self, tmp_path):
        cfg = write_cfg(tmp_path, "e.cfg", "inputs = PLUS\nshots = 500\nseed = 3\n")
        result = run_cli(["encode", "--config", cfg, "--format", "json"])
        doc = json.loads(result.output)
        assert doc["config"]["experiment"] == "encode"
        assert doc["rows"][0]["settings"] == 5
        assert doc["rows"][0]["fidelity"] == pytest.approx(1.0)

    def test_flag_overrides_beat_config(self, tmp_path):
        cfg = write_cfg(tmp_path, "e.cfg", "inputs = PLUS\nshots = 500\nseed = 3\n")
        result = run_cli(["encode", "--config", cfg, "--seed", "4", "--shots", "250"])
        assert "# seed=4" in result.output
        assert "# shots=250" in result.output

    def test_module_entry_point(self, tmp_path):
        cfg = write_cfg(tmp_path, "e.cfg", "inputs = PLUS\nshots = 200\nseed = 3\n")
        proc = subprocess.run(
            [sys.executable, "-m", "losskit.cli", "encode", "--config", cfg],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "encode,PLUS" in proc.stdout

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        # branch probabilities that do not sum to 1 are a numerical failure
        real = cluster.run_pattern
        monkeypatch.setattr(cluster, "run_pattern",
                            lambda *args, **kwargs: replace(real(*args, **kwargs), probability=0.5))
        cfg = write_cfg(tmp_path, "o.cfg", "lost = photon2\nalphas = 0\nshots = 10\n")
        result = run_cli(["oneway", "--config", cfg])
        assert result.exit_code == 3
        assert ("loss case photon2, alpha 0.000000000: "
                "branch probabilities sum to 4, not 1") in result.output
