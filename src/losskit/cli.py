"""Reproducible command-line experiments with CSV/JSON output.

Each subcommand loads a flat ``key = value`` config file, applies flag
overrides, runs a seeded simulation, and writes rows in one fixed schema,
the fields of ``ResultRow`` in order.  Non-applicable cells are left empty.
CSV output starts with ``#``-prefixed lines echoing the fully resolved
configuration, so every file is self-describing; the data section uses
RFC-4180 quoting.  Identical config plus seed yields byte-identical output.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (a
``qsim.NumericalError``); any other exception leaves with its traceback.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, fields
from functools import partial
from io import StringIO
from pathlib import Path
from typing import Sequence

import click

from . import __version__
from .codes import MAX_TOTAL_QUBITS, CodeParams, PRESETS, encode, lab_pairs
from .cluster import LOSS_CASES, PHI5_PAIRS, loss_case_pattern, phi5, rotation_sweep
from .qsim import NoiseSpec, NumericalError, apply_channel
from .recovery import loss_average, recovery_sweep, shot_sigma
from .tomography import MAX_DECOMP_QUBITS, MAX_SHOTS, sampled_fidelity


class ConfigError(click.UsageError):
    """Invalid configuration; the message names the offending field."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(f"config field '{field_name}': {message}")
        self.field_name = field_name


class NumericalFailure(click.ClickException):
    exit_code = 3


@dataclass
class ExperimentConfig:
    experiment: str = ""
    inputs: tuple[str, ...] = ("V", "PLUS", "R")
    code_n: int = 2
    code_m: int = 2
    noise_v: float = 1.0
    noise_d: float = 0.0
    noise_visibility: float = 1.0
    dephase_pairs: str = ""
    shots: int = 10000
    seed: int = 1
    format: str = "csv"
    out: str = ""
    alphas: tuple[float, ...] = (0.0, -math.pi / 2, -math.pi / 3)
    lost: str = "all"
    force_branch: str = ""

    def echo_items(self) -> list[tuple[str, str]]:
        out = []
        for f in fields(self):
            if f.name == "out":  # the file should not echo its own location
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(_fmt_number(v) if isinstance(v, float) else str(v)
                                 for v in value)
            out.append((f.name, str(value)))
        return sorted(out)


def _fmt_number(x: float) -> str:
    return format(x, ".9f")


def _parse_angle(token: str, key: str) -> float:
    text = token.strip().lower().replace(" ", "")
    sign = -1.0 if text.startswith("-") else 1.0
    text = text[1:] if text.startswith(("-", "+")) else text
    left, pi, right = text.partition("pi")
    try:
        if text.startswith(("-", "+")):   # at most one leading sign
            raise ValueError
        value = float(left) if left or not pi else 1.0
        if pi:
            if right.startswith("/"):
                value /= float(right[1:])
            elif right:
                raise ValueError
            value *= math.pi
    except (ValueError, ZeroDivisionError):
        raise ConfigError(key, f"cannot parse angle {token!r}") from None
    if not math.isfinite(value):
        raise ConfigError(key, f"angle {token!r} is not a finite number")
    return sign * value


def _parse_pairs(text: str, key: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError(key, f"pair {chunk!r} must look like i:j")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ConfigError(key, f"pair {chunk!r} must be integer indices") from None
    return tuple(pairs)


# scalar keys parse as the type of their default; the tuple keys have their own parsers
_SCALAR_TYPES = {f.name: type(f.default) for f in fields(ExperimentConfig)
                 if not isinstance(f.default, tuple)}
_EXPECTED = {int: "an integer", float: "a number"}


def parse_config(path: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise click.UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "inputs":
            cfg.inputs = tuple(tok.strip() for tok in value.split(",") if tok.strip())
        elif key == "alphas":
            cfg.alphas = tuple(_parse_angle(tok, "alphas")
                               for tok in value.split(",") if tok.strip())
        elif key not in _SCALAR_TYPES:
            raise ConfigError(key, "unknown configuration key")
        else:
            kind = _SCALAR_TYPES[key]
            try:
                setattr(cfg, key, kind(value))
            except ValueError:
                raise ConfigError(key, f"expected {_EXPECTED[kind]}, got {value!r}") from None
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in RUNNERS:
        raise ConfigError("experiment", f"must be one of {tuple(RUNNERS)}, "
                                        f"got {cfg.experiment!r}")
    if cfg.code_n < 2:
        raise ConfigError("code_n", f"block size must be >= 2, got {cfg.code_n}")
    if cfg.code_m < 1:
        raise ConfigError("code_m", f"block count must be >= 1, got {cfg.code_m}")
    for name in cfg.inputs:
        if name not in PRESETS:
            raise ConfigError("inputs", f"unknown input preset {name!r}")
    if len(set(cfg.inputs)) != len(cfg.inputs):
        raise ConfigError("inputs", f"expected distinct input presets, "
                                    f"got {','.join(cfg.inputs)!r}")
    if cfg.experiment in ("encode", "recover") and not cfg.inputs:
        raise ConfigError("inputs", "expected at least one input preset")
    for key, value in (("noise_v", cfg.noise_v), ("noise_d", cfg.noise_d),
                       ("noise_visibility", cfg.noise_visibility)):
        if not 0.0 <= value <= 1.0:
            raise ConfigError(key, f"must lie in [0, 1], got {value}")
    if not 1 <= cfg.shots <= MAX_SHOTS:
        raise ConfigError("shots", f"must lie in [1, {MAX_SHOTS}], got {cfg.shots}")
    if not 0 <= cfg.seed < 2 ** 64:
        raise ConfigError("seed", "must be a 64-bit unsigned integer")
    if cfg.format not in ("csv", "json"):
        raise ConfigError("format", f"must be csv or json, got {cfg.format!r}")
    out = Path(cfg.out)
    if cfg.out and out.is_dir():
        raise ConfigError("out", f"cannot write {cfg.out}: it is a directory")
    if cfg.out and not out.parent.is_dir():
        raise ConfigError("out", f"cannot write {cfg.out}: no directory {out.parent}")
    total = cfg.code_n * cfg.code_m
    if cfg.experiment == "encode" and total > MAX_DECOMP_QUBITS:
        raise ConfigError("code_n", f"encode tomography supports at most {MAX_DECOMP_QUBITS} "
                                    f"physical qubits")
    if cfg.experiment in ("encode", "recover") and total > MAX_TOTAL_QUBITS:
        raise ConfigError("code_n", f"codes are limited to {MAX_TOTAL_QUBITS} physical qubits")
    if cfg.dephase_pairs not in ("", "auto"):
        pairs = _parse_pairs(cfg.dephase_pairs, "dephase_pairs")
        limit = total if cfg.experiment in ("encode", "recover") else phi5().n_qubits
        for i, j in pairs:
            if not (0 <= i < limit and 0 <= j < limit) or i == j:
                raise ConfigError("dephase_pairs", f"pair ({i}, {j}) out of range")
    widths = set()   # outcome bits per branch
    if cfg.experiment == "oneway":
        if not cfg.alphas:
            raise ConfigError("alphas", "expected at least one angle")
        # CSV and JSON print 9 decimals; + 0.0 turns -0 into 0, the same rotation
        if len({_fmt_number(a + 0.0) for a in cfg.alphas}) != len(cfg.alphas):
            raise ConfigError("alphas", f"expected distinct angles to 9 places, got {cfg.alphas}")
        expected = "/".join(sorted(LOSS_CASES))
        cases = _oneway_cases(cfg)
        if not cases:
            raise ConfigError("lost", f"expected {expected}, got {cfg.lost!r}")
        if len(set(cases)) != len(cases):
            raise ConfigError("lost", f"expected distinct loss cases, got {cfg.lost!r}")
        for case in cases:
            if case not in LOSS_CASES:
                raise ConfigError("lost", f"unsupported loss case {case!r}; expected {expected}")
            widths.add(len(loss_case_pattern(case, 0.0).steps))
    if cfg.experiment == "recover":
        if cfg.code_m < 2:   # a single-block code cannot recover any loss
            raise ConfigError("code_m", f"recovery needs at least 2 blocks, got {cfg.code_m}")
        _recover_losses(cfg)
        widths = {total - 2}
    if cfg.force_branch:
        if not widths:
            raise ConfigError("force_branch", f"{cfg.experiment} has no outcome branches")
        bits = _branch_bits(cfg.force_branch)
        if bits is None:
            raise ConfigError("force_branch", f"expected outcome bits, got {cfg.force_branch!r}")
        for width in widths:
            if len(bits) != width:
                raise ConfigError("force_branch", f"{cfg.experiment} branches use {width} "
                                                  f"outcome bits, got {len(bits)}")


def _branch_bits(text: str) -> tuple[int, ...] | None:
    cleaned = text.replace(",", "").replace(" ", "")
    if not cleaned or any(c not in "01" for c in cleaned):
        return None
    return tuple(int(c) for c in cleaned)


def _recover_losses(cfg: ExperimentConfig) -> list[int]:
    total = cfg.code_n * cfg.code_m
    if cfg.lost in ("all", ""):
        return list(range(total))
    try:
        losses = [int(tok) for tok in cfg.lost.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError("lost", f"expected qubit indices, got {cfg.lost!r}") from None
    if not losses or len(set(losses)) != len(losses) or not all(0 <= q < total for q in losses):
        raise ConfigError("lost", f"expected distinct qubit indices in [0, {total}), "
                                  f"got {cfg.lost!r}")
    return losses


def _oneway_cases(cfg: ExperimentConfig) -> tuple[str, ...]:
    if cfg.lost in ("all", "both", ""):
        return tuple(sorted(LOSS_CASES))
    return tuple(tok.strip() for tok in cfg.lost.split(",") if tok.strip())


def _noise(cfg: ExperimentConfig, auto: tuple[tuple[int, int], ...]) -> NoiseSpec:
    """The config's noise channel, on the library's lab placement ``auto`` for
    ``dephase_pairs = auto``, else on the given pairs."""
    pairs = (auto if cfg.dephase_pairs == "auto"
             else _parse_pairs(cfg.dephase_pairs, "dephase_pairs"))
    return NoiseSpec(white_noise_v=cfg.noise_v, pair_dephasing_d=cfg.noise_d,
                     epr_visibility=cfg.noise_visibility, pairs=pairs)


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    input: str = ""
    code_n: int | None = None
    code_m: int | None = None
    lost: str = ""
    branch: str = ""
    alpha: float | None = None
    fidelity: float | None = None
    sigma: float | None = None
    settings: int | None = None
    shots: int | None = None
    seed: int | None = None


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    text = _fmt_number(value) if isinstance(value, float) else str(value)
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_cell(value):
    return round(value, 9) if isinstance(value, float) else value


def render_output(cfg: ExperimentConfig, rows: Sequence[ResultRow]) -> str:
    if cfg.format == "json":
        doc = {"config": dict(cfg.echo_items()),
               "rows": [{col: _json_cell(getattr(row, col)) for col in CSV_COLUMNS}
                        for row in rows]}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    buf = StringIO()
    for key, value in cfg.echo_items():
        buf.write(f"# {key}={value}\n")
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(_csv_cell(getattr(row, col)) for col in CSV_COLUMNS) + "\n")
    return buf.getvalue()


def _row(cfg: ExperimentConfig, **cells) -> ResultRow:
    return ResultRow(experiment=cfg.experiment, shots=cfg.shots, seed=cfg.seed, **cells)


def _tomography_row(cfg: ExperimentConfig, name: str, psi, auto, key: int,
                    **cells) -> ResultRow:
    rho = apply_channel(psi.density(), _noise(cfg, auto))
    fidelity, sigma, settings = sampled_fidelity(psi, rho, cfg.shots, cfg.seed, key)
    return _row(cfg, input=name, fidelity=fidelity, sigma=sigma, settings=settings, **cells)


def _branch_rows(cfg: ExperimentConfig, sweep, **cells) -> list[ResultRow]:
    return [_row(cfg, input=r.input, lost=r.lost, branch=r.branch, alpha=r.alpha,
                 fidelity=r.fidelity, sigma=shot_sigma(r.fidelity, cfg.shots), **cells)
            for r in sweep]


def run_encode(cfg: ExperimentConfig) -> list[ResultRow]:
    """Codeword preparation fidelity via simulated tomography."""
    params = CodeParams(cfg.code_n, cfg.code_m)
    return [_tomography_row(cfg, name, encode(PRESETS[name], params), lab_pairs(params, name),
                            i, code_n=cfg.code_n, code_m=cfg.code_m)
            for i, name in enumerate(cfg.inputs)]


def run_cluster_fidelity(cfg: ExperimentConfig) -> list[ResultRow]:
    """Five-photon cluster-state fidelity estimate."""
    return [_tomography_row(cfg, "phi5", phi5(), PHI5_PAIRS, 0)]


def run_recover(cfg: ExperimentConfig) -> list[ResultRow]:
    """Loss-and-recovery sweep over inputs, losses and branches."""
    params = CodeParams(cfg.code_n, cfg.code_m)
    losses, forced = _recover_losses(cfg), _branch_bits(cfg.force_branch)
    code = dict(code_n=cfg.code_n, code_m=cfg.code_m)
    rows = []
    for name in cfg.inputs:
        sweep = recovery_sweep([PRESETS[name]], params, _noise(cfg, lab_pairs(params, name)),
                               losses=losses, forced=forced)
        rows.extend(_branch_rows(cfg, sweep, **code))
        if forced is None:
            mean, sigma = loss_average(sweep, cfg.shots)
            rows.append(_row(cfg, input=name, branch="avg", fidelity=mean, sigma=sigma, **code))
    return rows


def run_oneway(cfg: ExperimentConfig) -> list[ResultRow]:
    """One-way rotation under photon loss, all forced branches."""
    return _branch_rows(cfg, rotation_sweep(_oneway_cases(cfg), cfg.alphas,
                                            _noise(cfg, PHI5_PAIRS),
                                            forced=_branch_bits(cfg.force_branch)))


RUNNERS = {
    "encode": run_encode,
    "recover": run_recover,
    "cluster-fidelity": run_cluster_fidelity,
    "oneway": run_oneway,
}


def _execute(experiment: str, config_path: str, **overrides) -> None:
    cfg = parse_config(config_path)
    if cfg.experiment not in ("", experiment):
        raise ConfigError("experiment", f"the config is for {cfg.experiment!r}, "
                                        f"not {experiment!r}")
    cfg.experiment = experiment
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    validate_config(cfg)
    try:
        rows = RUNNERS[experiment](cfg)
    except NumericalError as exc:
        raise NumericalFailure(str(exc)) from exc
    text = render_output(cfg, rows)
    if cfg.out:
        try:
            Path(cfg.out).write_bytes(text.encode())
        except OSError as exc:
            raise ConfigError("out", f"cannot write {cfg.out}: {exc.strerror}") from None
    else:
        click.echo(text, nl=False)


def _common_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(exists=False), help="Flat key=value config file.")(fn)
    fn = click.option("--seed", type=int, default=None, help="Override master seed.")(fn)
    fn = click.option("--shots", type=int, default=None, help="Override shot count.")(fn)
    fn = click.option("--noise-v", type=float, default=None,
                      help="Override white-noise weight v.")(fn)
    fn = click.option("--out", type=click.Path(), default=None,
                      help="Output file path (default: stdout).")(fn)
    fn = click.option("--format", type=click.Choice(["csv", "json"]),
                      default=None, help="Output format.")(fn)
    fn = click.option("--force-branch", default=None,
                      help="Restrict to one forced outcome branch (bit string).")(fn)
    return fn


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Loss-tolerant code experiments with seeded, reproducible output."""


# every option's dest is the config field it overrides
for _experiment, _runner in RUNNERS.items():
    main.command(name=_experiment, help=inspect.getdoc(_runner))(
        _common_options(partial(_execute, _experiment)))


if __name__ == "__main__":
    main()
