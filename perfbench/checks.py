"""Closed-form checks of losskit CSV outputs.

Every expected value here is derived from the noise model, not read from the
program: white noise of weight ``v`` is the affine mix
``v |psi><psi| + (1 - v) I / 2^n``, and detected-loss recovery is
trace-preserving and sends the codeword to the input and the maximally mixed
state to ``I/2``.  A branch of probability ``p`` under the pure codeword and
``q`` under the maximally mixed state therefore ends with fidelity
``(v p + (1 - v) q / 2) / (v p + (1 - v) q)``.

Each check returns ``(problems, stats)``: a list of readable problems (empty
when the output is right) and counts taken from the rows (``branch_rows``,
``settings``).
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from itertools import product

EXACT_TOL = 1e-9   # fidelities are printed with 9 decimals
SIGMA_BOUND = 5.0  # sampled estimates must lie within 5 sigma


def parse_rows(text: str) -> list[dict[str, str]]:
    """Data rows of a losskit CSV output; ``#`` config-echo lines are skipped."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.DictReader(lines))


def shot_sigma(fidelity: float, shots: int) -> float:
    """Binomial shot noise of a fidelity; exact 0 and 1 carry none."""
    f = min(max(fidelity, 0.0), 1.0)
    if f < 1e-9 or f > 1.0 - 1e-9:
        return 0.0
    return math.sqrt(f * (1.0 - f) / shots)


def recovery_layout(n: int, m: int, lost: int) -> tuple[list[list[int]], list[int]]:
    """Z-measured survivor blocks and X-measured qubits after losing ``lost``.

    The output qubit is the last qubit of the lowest intact block; that block
    is X-measured down to it, every other block's survivors are Z-measured.
    Outcome bits come in this order: Z blocks ascending, then the X qubits.
    """
    target_block = 1 if lost // n == 0 else 0
    z_blocks = [[q for q in range(b * n, (b + 1) * n) if q != lost]
                for b in range(m) if b != target_block]
    x_qubits = list(range(target_block * n, (target_block + 1) * n - 1))
    return z_blocks, x_qubits


def branch_fidelity(n: int, m: int, lost: int, bits: str, v: float) -> float:
    """Fidelity of one recovery branch of the (n, m) code under white noise ``v``.

    Under the pure codeword the survivors of a Z-measured block agree, each
    block value and each X outcome is uniform, and every agreeing branch is
    recovered exactly; a disagreeing branch has pure probability 0 and so
    holds only the maximally mixed part.
    """
    z_blocks, x_qubits = recovery_layout(n, m, lost)
    pos = 0
    agree = True
    for block in z_blocks:
        chunk = bits[pos:pos + len(block)]
        agree = agree and len(set(chunk)) == 1
        pos += len(block)
    if not agree:
        return 0.5
    p = 2.0 ** -(len(z_blocks) + len(x_qubits))
    q = 2.0 ** -len(bits)
    return (v * p + (1 - v) * q / 2) / (v * p + (1 - v) * q)


def _number(row: dict[str, str], key: str) -> float | None:
    try:
        return float(row[key])
    except (KeyError, TypeError, ValueError):
        return None


def _close(row: dict[str, str], key: str, want: float, where: str,
           problems: list[str]) -> None:
    got = _number(row, key)
    if got is None or abs(got - want) > EXACT_TOL:
        problems.append(f"{where}: {key} {row.get(key)!r}, expected {want:.9f}")


def check_recover(text: str, n: int, m: int, inputs: tuple[str, ...],
                  losses: tuple[int, ...], v: float, shots: int,
                  forced: str = "") -> tuple[list[str], Counter]:
    """Every (input, loss) emits all 2^k branches (or only ``forced``) with the
    closed-form fidelity and sigma; unforced sweeps end each input with an
    ``avg`` row of ``(1 + v) / 2``."""
    problems: list[str] = []
    stats: Counter = Counter()
    rows = parse_rows(text)
    seen: dict[tuple[str, str], set[str]] = {}
    averages: dict[str, dict[str, str]] = {}
    for row in rows:
        name = row.get("input", "")
        if row.get("experiment") != "recover" or name not in inputs:
            problems.append(f"unexpected row {row}")
            continue
        if row.get("branch") == "avg":
            averages[name] = row
            continue
        where = f"recover {name} lost {row.get('lost')} branch {row.get('branch')}"
        try:
            lost = int(row["lost"])
        except (KeyError, ValueError):
            problems.append(f"{where}: bad lost cell")
            continue
        bits = row.get("branch", "")
        want = branch_fidelity(n, m, lost, bits, v)
        _close(row, "fidelity", want, where, problems)
        _close(row, "sigma", shot_sigma(want, shots), where, problems)
        branches = seen.setdefault((name, str(lost)), set())
        if bits in branches:
            problems.append(f"{where}: duplicate row")
        branches.add(bits)
        stats["branch_rows"] += 1
    for name in inputs:
        for lost in losses:
            z_blocks, x_qubits = recovery_layout(n, m, lost)
            k = sum(len(b) for b in z_blocks) + len(x_qubits)
            want = ({forced} if forced else
                    {"".join(b) for b in product("01", repeat=k)})
            got = seen.get((name, str(lost)), set())
            if got != want:
                problems.append(f"recover {name} lost {lost}: {len(got)} branch rows, "
                                f"expected {len(want)} (missing {sorted(want - got)[:4]})")
        if forced:
            if name in averages:
                problems.append(f"recover {name}: forced run emitted an avg row")
        elif name not in averages:
            problems.append(f"recover {name}: no avg row")
        else:
            _close(averages[name], "fidelity", (1 + v) / 2, f"recover {name} avg", problems)
    return problems, stats


def check_oneway(text: str, cases: tuple[str, ...], alphas: tuple[float, ...],
                 v: float) -> tuple[list[str], Counter]:
    """All 8 branches of every (loss case, alpha) reach ``(1 + v) / 2``."""
    problems: list[str] = []
    seen = Counter()
    want = (1 + v) / 2
    for row in parse_rows(text):
        where = f"oneway {row.get('lost')} alpha {row.get('alpha')} branch {row.get('branch')}"
        alpha = _number(row, "alpha")
        match = next((a for a in alphas if alpha is not None and abs(alpha - a) < 1e-8), None)
        if row.get("experiment") != "oneway" or row.get("lost") not in cases or match is None:
            problems.append(f"unexpected row {row}")
            continue
        _close(row, "fidelity", want, where, problems)
        seen[(row["lost"], match, row.get("branch"))] += 1
    expected = {(c, a, "".join(b)) for c in cases for a in alphas
                for b in product("01", repeat=3)}
    if set(seen) != expected or any(k > 1 for k in seen.values()):
        problems.append(f"oneway: {sum(seen.values())} rows, expected {len(expected)} "
                        f"distinct (case, alpha, branch) rows")
    return problems, Counter()


def _check_estimate(row: dict[str, str], want: float, where: str,
                    problems: list[str]) -> None:
    fid, sigma = _number(row, "fidelity"), _number(row, "sigma")
    if fid is None or sigma is None or sigma <= 0:
        problems.append(f"{where}: fidelity/sigma cells {row.get('fidelity')!r}, "
                        f"{row.get('sigma')!r}")
    elif abs(fid - want) > SIGMA_BOUND * sigma:
        problems.append(f"{where}: estimate {fid:.9f} +- {sigma:.9f} is more than "
                        f"{SIGMA_BOUND:g} sigma from {want:.9f}")


def _check_settings(row: dict[str, str], want: int | None, where: str,
                    problems: list[str], stats: Counter) -> None:
    try:
        got = int(row.get("settings", ""))
    except ValueError:
        problems.append(f"{where}: settings cell {row.get('settings')!r}")
        return
    stats["settings"] += got
    if want is not None and got != want:
        problems.append(f"{where}: {got} settings, expected {want}")


def check_encode(text: str, n_qubits: int, inputs: tuple[str, ...], v: float,
                 settings: dict[str, int] | None = None) -> tuple[list[str], Counter]:
    """One row per input with ``|F - (v + (1 - v) / 2^n)| <= 5 sigma``."""
    problems: list[str] = []
    stats: Counter = Counter()
    rows = parse_rows(text)
    if [r.get("input") for r in rows] != list(inputs):
        problems.append(f"encode: rows for {[r.get('input') for r in rows]}, expected {inputs}")
    want = v + (1 - v) / 2 ** n_qubits
    for row in rows:
        where = f"encode {row.get('input')}"
        _check_estimate(row, want, where, problems)
        _check_settings(row, (settings or {}).get(row.get("input", "")), where, problems, stats)
    return problems, stats


def check_cluster(text: str, v: float, d: float,
                  settings: int) -> tuple[list[str], Counter]:
    """phi5 under white noise and ZZ dephasing on photons 1-2.

    <phi5|Z1 Z2|phi5> = 0, so dephasing of weight d keeps 1 - d of the
    fidelity: ``F = v (1 - d) + (1 - v) / 32``.
    """
    problems: list[str] = []
    stats: Counter = Counter()
    rows = parse_rows(text)
    if len(rows) != 1 or rows[0].get("input") != "phi5":
        problems.append(f"cluster-fidelity: {len(rows)} rows, expected one phi5 row")
        return problems, stats
    _check_estimate(rows[0], v * (1 - d) + (1 - v) / 32, "cluster-fidelity phi5", problems)
    _check_settings(rows[0], settings, "cluster-fidelity phi5", problems, stats)
    return problems, stats
