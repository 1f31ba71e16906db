"""Projector decomposition, measurement-setting grouping, and fidelity estimation.

The fidelity F = <psi| rho |psi> is estimated from local measurement
settings.  A setting assigns one basis per qubit, drawn from Z, X, Y or an
equatorial basis M(theta) with kets (|0> +- e^{i theta}|1>)/sqrt2 (X = M(0),
Y = M(90deg)).  Grouping is deterministic:

1. if the decomposition has diagonal (I/Z-only) terms, one all-Z setting
   covers them;
2. if the terms with one X/Y support F (m qubits) and no Z letters sum to a
   single flip coherence g (|a><~a| + h.c.) on F -- for a = 0..0 that is
   all 2^{m-1} even-Y patterns with coefficients c0 * (-1)^{#Y/2} -- the
   family is measured through m equatorial settings M(k pi / m)^(x m) via
   the exact identity  |0..0><1..1| + h.c. = (1/m) sum_k (-1)^k M_k^(x m)
   (Guehne, Lu, Gao & Pan, PRA 76, 030305(R), 2007), with
   M(theta) -> M(-theta) on the 1-bits of a;
3. if such terms also carry Z letters on a set C and, in every Z sector z
   of C, sum to one flip coherence g_z (|a_z><~a_z| + h.c.) on F, the
   identity holds per sector.  Each k then needs Z on C and the sector's
   angles on F; a k-term equal in every sector needs no Z on C, and when it
   is a Pauli pattern it is read as a marginal of a step-4 setting.  Such a
   conditioned family is used only when it needs fewer settings than its
   Pauli patterns (phi5: 4 equatorial settings plus the XXXX and YYYY
   marginals on photons 2-5 replace 8 Pauli patterns);
4. remaining terms are covered greedily by per-qubit Pauli settings, largest
   fresh coverage first with lexicographic tie-breaking.

The estimator rebuilds every outcome weight from the decomposition and the
bases of the tables it is given, so tables reloaded from CSV estimate the
same F.

Error bars propagate per-outcome Poisson variances (var(count) = count)
through the linear estimator; multinomial covariance corrections are
deliberately not applied.

``sampled_fidelity`` runs decompose, group, sample and estimate in one call,
as the ``encode`` and ``cluster-fidelity`` subcommands do.

Each step does only the work the estimate reads:

- ``decompose_projector`` makes one ``expectation`` call per Pauli string,
  walking a table of the 4^n strings in ``product("IXYZ")`` order that is
  built once per qubit count.  Each string parses its letters once, into
  the X-mask, Z-mask and i^ny that ``expectation`` reads.
- ``setting_probabilities`` forms only the diagonal of the rotated state.
  Per qubit it rotates the row bit by u^dagger and the column bit by u^T,
  each as one 2x2 matrix product, and keeps the blocks where the two bits
  agree, so the array halves with each qubit.  Every kept entry goes
  through the same products as a rotation of the whole matrix would, so
  the probabilities, and the multinomial draws, are bitwise the same.
  ``basis_matrix`` results are cached, read-only.
- The coherence families are found once per decomposition and shared by
  ``group_settings`` and ``estimate_fidelity``.  They are read from the
  term masks: a family is the terms sharing one X-mask, its condition
  qubits are Z-mask bits outside it, and its Y letters Z-mask bits inside.
- Every parity, in the Walsh sector split and in the outcome signs, is a
  gather from ``qsim._bit_tables``, and ``basis_matrix`` stacks the kets
  of ``qsim.basis_vectors``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import product
from operator import or_
from typing import Sequence

import numpy as np

from .qsim import (
    DensityMatrix,
    PauliString,
    Seed,
    StateVector,
    _bit_tables,
    _freeze,
    basis_vectors,
    expectation,
)

MAX_DECOMP_QUBITS = 6
MAX_SHOTS = 2 ** 53   # float64 holds every count up to here, so the sum check is exact


@dataclass(frozen=True)
class PauliDecomposition:
    """Real-weighted Pauli expansion of a pure-state projector."""

    n_qubits: int
    terms: tuple[tuple[float, PauliString], ...]

    def __post_init__(self) -> None:
        for coeff, pauli in self.terms:
            if len(pauli) != self.n_qubits:
                raise ValueError("term length does not match qubit count")
            if not pauli.is_hermitian():
                raise ValueError("decomposition terms must be Hermitian")

    @cached_property
    def _families(self) -> tuple[_Family, ...]:
        """The coherence families, found once for grouping and estimation."""
        return _coherence_families(self)


@lru_cache(maxsize=None)
def _pauli_strings(n: int) -> tuple[PauliString, ...]:
    """Every n-qubit Pauli string in ``product("IXYZ")`` order, built on first use."""
    return tuple(PauliString("".join(letters)) for letters in product("IXYZ", repeat=n))


def decompose_projector(psi: StateVector) -> PauliDecomposition:
    """Expand |psi><psi| as sum_P c_P P with c_P = <psi|P|psi> / 2^n.

    Terms with |c_P| < 1e-12 are dropped; the all-identity term is kept (it
    needs no measurement setting).
    """
    n = psi.n_qubits
    if n > MAX_DECOMP_QUBITS:
        raise ValueError(f"decomposition limited to {MAX_DECOMP_QUBITS} qubits, got {n}")
    scale = 1.0 / 2 ** n
    terms = []
    for pauli in _pauli_strings(n):
        coeff = expectation(psi, pauli) * scale
        if abs(coeff) >= 1e-12:
            terms.append((coeff, pauli))
    return PauliDecomposition(n, tuple(terms))


def _equatorial_token(degrees: int) -> str:
    deg = degrees % 360
    if deg == 0:
        return "X"
    if deg == 90:
        return "Y"
    return f"M{deg}"


@lru_cache(maxsize=None)
def basis_matrix(token: str) -> np.ndarray:
    """Unitary whose columns are the (outcome 0, outcome 1) ``basis_vectors``; read-only.

    Z is basis "z"; X, Y and M<deg> are B(alpha) at 0, 90 and deg degrees.
    """
    equatorial = {"X": "M0", "Y": "M90"}.get(token, token)
    if token == "Z":
        kets = basis_vectors("z")
    elif equatorial.startswith("M"):
        kets = basis_vectors("b", math.radians(int(equatorial[1:])))
    else:
        raise ValueError(f"unknown basis token {token!r}")
    return _freeze(np.column_stack(kets))


@dataclass(frozen=True)
class Setting:
    """One per-qubit basis assignment; the estimator reads nothing else."""

    bases: tuple[str, ...]

    def label(self) -> str:
        return ".".join(self.bases)


def _compatible(pauli: PauliString, bases: tuple[str, ...]) -> bool:
    return all(c == "I" or c == b for c, b in zip(pauli.letters, bases))


@dataclass(frozen=True)
class _Part:
    """One GHZ-identity term (index k, ``sign`` = (-1)^k) of a coherence family.

    It contributes ``scale * sign`` times the product of the outcomes on the
    family's flip qubits, restricted to Z sector ``sector`` of the
    conditioning qubits (``None``: every sector).  An explicit part is read
    from the setting ``bases``; a delegated part (``bases`` is ``None``)
    needs only ``pattern`` on the flip qubits and is read as a marginal of a
    Pauli setting.
    """

    pattern: tuple[str, ...]
    sector: int | None
    sign: int
    scale: float
    bases: tuple[str, ...] | None


@dataclass(frozen=True)
class _Family:
    """Terms summing to sum_z P_z (x) g_z (|a_z><~a_z| + h.c.).

    P_z projects the ``conditions`` qubits onto Z sector z, and each sector
    holds at most one coherence between a bit string a_z on the ``flips``
    qubits and its complement.
    """

    flips: tuple[int, ...]
    flip_mask: int          # the X-mask of every term in the family
    conditions: tuple[int, ...]
    indices: tuple[int, ...]
    parts: tuple[_Part, ...]


def _place(n: int, flips: tuple[int, ...], pattern: tuple[str, ...]) -> tuple[str, ...]:
    """Setting with ``pattern`` on the flip qubits and Z everywhere else."""
    bases = ["Z"] * n
    for q, token in zip(flips, pattern):
        bases[q] = token
    return tuple(bases)


def _pack(n: int, mask: int, qubits: tuple[int, ...]) -> int:
    """The bits of ``mask`` on ``qubits``, with qubits[j] moved to bit j."""
    return sum(1 << j for j, q in enumerate(qubits) if mask >> (n - 1 - q) & 1)


def _family_on(decomp: PauliDecomposition, x: int, indices: list[int]) -> _Family | None:
    """The coherence family of the terms with X-mask ``x``, the flip qubits.

    A Z-mask bit outside ``x`` is a Z letter on a condition qubit, one inside
    is a Y letter.  Returns ``None`` if the terms are not a family, or if a
    Z-conditioned family would need no fewer settings than its Pauli patterns.
    """
    n = decomp.n_qubits
    terms = [decomp.terms[i] for i in indices]
    z_out = reduce(or_, (p.z_mask for _, p in terms)) & ~x
    flips = tuple(q for q in range(n) if x >> (n - 1 - q) & 1)
    conditions = tuple(q for q in range(n) if z_out >> (n - 1 - q) & 1)
    m, n_patterns = len(flips), len({p.z_mask & x for _, p in terms})
    if conditions and n_patterns <= m:
        return None  # each of the m identity terms needs a setting of its own
    n_sectors = 2 ** len(conditions)

    # coef[r, y]: coefficient of Z-mask r on the conditions, Y-mask y on the flips
    coef = np.zeros((n_sectors, 2 ** m))
    for c, pauli in terms:
        coef[_pack(n, pauli.z_mask, conditions), _pack(n, pauli.z_mask, flips)] = c
    masks, signs = _bit_tables(len(conditions))
    sector_ops = signs[masks[:, None] & masks] @ coef   # each sector's Pauli coefficients

    # |a><~a| + h.c. = 2^{1-m} sum_{#Y even} (-1)^{#Y/2 + |Y & a|} P
    ys, y_signs = _bit_tables(m)
    ghz = np.array([(1.0, 0.0, -1.0, 0.0)[y.bit_count() % 4] for y in range(2 ** m)])
    norm = 2 ** (m - 1)
    sectors: list[tuple[float, int] | None] = []
    for z in range(n_sectors):
        g = sector_ops[z, 0] * norm
        if abs(g) < 1e-12:
            a, s = 0, None
        else:
            a = sum(1 << j for j in range(1, m) if sector_ops[z, 1 | 1 << j] / g > 0)
            s = (g, a)
        predicted = sector_ops[z, 0] * ghz * y_signs[ys & a]
        if np.max(np.abs(sector_ops[z] - predicted)) > 1e-12:
            return None
        sectors.append(s)
    if all(s is None for s in sectors):
        return None

    # Guehne et al. (PRA 76, 030305): |0..0><1..1| + h.c. =
    # (1/m) sum_k (-1)^k M(k pi/m)^(x m); X on the 1-bits of a_z turns M(t)
    # into M(-t) = -M(pi - t) there.
    parts: list[_Part] = []
    for k in range(m):
        reads: dict[int, tuple[tuple[str, ...], float]] = {}
        for z, s in enumerate(sectors):
            if s is not None:
                g, a = s
                tokens, eps = [], 1
                for j in range(m):
                    deg = round((-1 if a >> j & 1 else 1) * k * 180 / m) % 360
                    if deg >= 180:
                        deg -= 180
                        eps = -eps
                    tokens.append(_equatorial_token(deg))
                reads[z] = (tuple(tokens), g * eps / m)
        pattern, scale = reads[min(reads)]
        if len(reads) == n_sectors and all(
                r[0] == pattern and abs(r[1] - scale) < 1e-12 for r in reads.values()):
            # the same term in every sector: no conditioning needed
            delegate = bool(conditions) and set(pattern) <= {"X", "Y"}
            parts.append(_Part(pattern, None, (-1) ** k, scale,
                               None if delegate else _place(n, flips, pattern)))
        else:
            parts.extend(_Part(p, z, (-1) ** k, w, _place(n, flips, p))
                         for z, (p, w) in reads.items())

    if conditions:
        explicit = {p.bases for p in parts if p.bases is not None}
        delegated = [p for p in parts if p.bases is None]
        if len(explicit) + len(delegated) >= n_patterns:
            return None
    return _Family(flips, x, conditions, tuple(indices), tuple(parts))


def _coherence_families(decomp: PauliDecomposition) -> tuple[_Family, ...]:
    """Coherence families, one per X-mask, in term order."""
    groups: dict[int, list[int]] = {}
    for i, (_, pauli) in enumerate(decomp.terms):
        if pauli.x_mask:
            groups.setdefault(pauli.x_mask, []).append(i)
    families = (_family_on(decomp, x, indices) for x, indices in groups.items())
    return tuple(f for f in families if f is not None)


def _greedy_pauli_cover(n: int, targets: Sequence[PauliString]) -> list[tuple[str, ...]]:
    """Pauli settings covering ``targets``, largest fresh coverage first.

    ``compatible[s, t]`` says whether setting s (in ``product("XYZ")`` order,
    which is lexicographic) measures target t, so ``argmax`` of the fresh
    coverage picks the lexicographically smallest of the best settings.
    """
    settings = np.array(list(product(range(3), repeat=n)), dtype=np.int8)
    letters = np.array([["IXYZ".index(c) - 1 for c in p.letters] for p in targets],
                       dtype=np.int8).reshape(-1, n)   # -1 for I
    compatible = np.ones((len(settings), len(targets)), dtype=bool)
    for q in range(n):
        compatible &= (settings[:, q, None] == letters[:, q]) | (letters[:, q] < 0)
    live = np.ones(len(targets), dtype=bool)
    picks = []
    while live.any():
        fresh = np.count_nonzero(compatible[:, live], axis=1)
        best = int(np.argmax(fresh))
        if fresh[best] == 0:
            raise RuntimeError("greedy cover failed to progress")  # pragma: no cover
        picks.append(tuple("XYZ"[i] for i in settings[best]))
        live &= ~compatible[best]
    return picks


def group_settings(decomp: PauliDecomposition) -> list[Setting]:
    """Deterministic measurement settings covering every non-identity term.

    Output is sorted lexicographically by basis tokens and holds each basis
    tuple once.  Every non-identity term is covered by at least one setting;
    shared terms are later estimated from the lexicographically first
    covering setting.
    """
    n = decomp.n_qubits
    families = decomp._families
    in_family = {i for fam in families for i in fam.indices}
    targets = [p for i, (_, p) in enumerate(decomp.terms)
               if p.weight > 0 and i not in in_family]

    chosen: set[tuple[str, ...]] = set()
    if any(p.x_mask == 0 for p in targets):   # a diagonal (I/Z-only) term
        chosen.add(tuple("Z" for _ in range(n)))
    for fam in families:
        for part in fam.parts:
            if part.bases is None:
                targets.append(PauliString.from_support(n, dict(zip(fam.flips, part.pattern))))
            else:
                chosen.add(part.bases)

    remaining = [p for p in targets if not any(_compatible(p, b) for b in chosen)]
    chosen.update(_greedy_pauli_cover(n, remaining))
    return [Setting(bases) for bases in sorted(chosen)]


def _check_counts(counts: np.ndarray) -> None:
    """Raise unless every count lies in [0, MAX_SHOTS]; a NaN fails both bounds."""
    if not ((counts >= 0) & (counts <= MAX_SHOTS)).all():
        raise ValueError(f"each count must lie in [0, {MAX_SHOTS}], got {counts.tolist()}")


@dataclass(frozen=True)
class CountsTable:
    """Outcome histogram of one measurement setting."""

    setting: Setting
    shots: int
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=float)
        k = len(self.setting.bases)
        if counts.shape != (2 ** k,):
            raise ValueError(f"expected {2 ** k} outcome bins, got {counts.shape}")
        _check_counts(counts)
        if not abs(counts.sum() - self.shots) <= 1e-6:
            raise ValueError("counts do not sum to the shot count")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


def setting_probabilities(rho: DensityMatrix, setting: Setting) -> np.ndarray:
    """Exact outcome probabilities of measuring every qubit in the setting bases.

    Only the diagonal is formed.  Qubit q's row bit i is rotated by u^dagger
    and its column bit j by u^T, each as one ``(2, 2) @ (2, N)`` product, and
    only the blocks with i == j are kept, so the array halves per qubit.
    Each kept entry goes through the same products as in a rotation of the
    whole matrix, so the probabilities, and the sampled counts, are the same
    to the bit; a kernel that sums in another order (einsum) is not.
    """
    n = rho.n_qubits
    if len(setting.bases) != n:
        raise ValueError("setting size does not match the state")
    t = rho.matrix.reshape(1, 1, -1)   # [o, d, (r, c)]: last outcome o, earlier outcomes d
    for q, token in enumerate(setting.bases):
        rest = 2 ** (n - 1 - q)
        u = basis_matrix(token)
        # [o, d, i, r, j, c] -> [i, (d, o, r, j, c)]: qubit q's row bit first
        t = t.reshape(len(t), -1, 2, rest, 2, rest).transpose(2, 1, 0, 3, 4, 5).reshape(2, -1)
        t = u.conj().T @ t
        # [i, d, r, j, c] -> [j, (i, d, r, c)]: its column bit first
        t = t.reshape(2, -1, rest, 2, rest).transpose(3, 0, 1, 2, 4).reshape(2, -1)
        t = u.T @ t
        t = t.reshape(4, 1, -1)[::3]   # [o, d, (r, c)]: the blocks with j == i
    probs = np.real(t.reshape(2, -1)).T.flatten()   # outcome index (d, o)
    probs[probs < 0] = 0.0
    return probs / probs.sum()


def simulate_counts(rho: DensityMatrix, setting: Setting, shots: int,
                    rng: np.random.Generator) -> CountsTable:
    """Multinomially sampled coincidence histogram for one setting."""
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must lie in [1, {MAX_SHOTS}]")
    probs = setting_probabilities(rho, setting)
    counts = rng.multinomial(shots, probs)
    return CountsTable(setting, shots, counts)


def exact_counts(rho: DensityMatrix, setting: Setting, shots: int) -> CountsTable:
    """Infinite-statistics table: fractional counts shots * p(outcome)."""
    probs = setting_probabilities(rho, setting)
    return CountsTable(setting, shots, probs * shots)


def _part_weights(n: int, family: _Family, part: _Part) -> np.ndarray:
    """Outcome weights with which ``part`` adds to the estimate of F."""
    outcomes, signs = _bit_tables(n)
    weights = part.scale * part.sign * signs[outcomes & family.flip_mask]
    if part.sector is not None:
        for j, q in enumerate(family.conditions):
            weights *= ((outcomes >> (n - 1 - q)) & 1) == ((part.sector >> j) & 1)
    return weights


def _part_holder(family: _Family, part: _Part,
                 bases: Sequence[tuple[str, ...]]) -> tuple[str, ...] | None:
    """First of ``bases`` that measures ``part``, or ``None``."""
    if part.bases is not None:
        return part.bases if part.bases in bases else None
    return next((b for b in bases
                 if tuple(b[q] for q in family.flips) == part.pattern), None)


def estimate_fidelity(tables: Sequence[CountsTable],
                      decomp: PauliDecomposition) -> tuple[float, float]:
    """Fidelity estimate and propagated Poisson error from counts tables.

    Tables are matched by their bases alone, so reloaded tables work.  A
    coherence family whose settings are all present is read through the
    GHZ identity; every other term is read from the lexicographically first
    table whose bases match its Pauli letters.  Raises if some term is
    covered by no table.
    """
    n = decomp.n_qubits
    outcomes, signs = _bit_tables(n)
    by_bases = {table.setting.bases: table for table in tables}
    ordered = sorted(by_bases)

    # per-setting accumulated outcome weights: F = sum_s w_s . counts_s + c_id
    weights = {b: np.zeros(2 ** n, dtype=float) for b in ordered}

    claimed: set[int] = set()
    for family in decomp._families:
        holders = [_part_holder(family, part, ordered) for part in family.parts]
        if None in holders:
            continue
        for part, holder in zip(family.parts, holders):
            weights[holder] += _part_weights(n, family, part)
        claimed.update(family.indices)

    fidelity = 0.0
    for idx, (coeff, pauli) in enumerate(decomp.terms):
        if pauli.weight == 0:
            fidelity += coeff
            continue
        if idx in claimed:
            continue
        holder = next((b for b in ordered if _compatible(pauli, b)), None)
        if holder is None:
            raise ValueError(f"term {pauli.letters} is not covered by any table")
        weights[holder] += coeff * signs[outcomes & (pauli.x_mask | pauli.z_mask)]

    variance = 0.0
    for bases in ordered:
        table = by_bases[bases]
        w = weights[bases] / table.shots
        fidelity += float(w @ table.counts)
        variance += float((w ** 2) @ table.counts)
    return fidelity, math.sqrt(variance)


def sampled_fidelity(psi: StateVector, rho: DensityMatrix, shots: int, seed: int,
                     key: int = 0) -> tuple[float, float, int]:
    """(fidelity, sigma, settings) of a simulated tomography of ``rho`` against ``psi``.

    Setting i of ``group_settings`` samples ``shots`` counts from
    ``Seed(seed).stream(key, i)``.
    """
    decomp = decompose_projector(psi)
    settings = group_settings(decomp)
    master = Seed(seed)
    tables = [simulate_counts(rho, setting, shots, master.stream(key, i))
              for i, setting in enumerate(settings)]
    fidelity, sigma = estimate_fidelity(tables, decomp)
    return fidelity, sigma, len(settings)


def write_counts_csv(tables: Sequence[CountsTable], path: str) -> None:
    """Export histograms with columns setting, outcome, count."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["setting", "outcome", "count"])
        for table in tables:
            k = len(table.setting.bases)
            for o, c in enumerate(table.counts):
                writer.writerow([table.setting.label(), format(o, f"0{k}b"),
                                 int(c) if float(c).is_integer() else c])


def read_counts_csv(path: str) -> list[CountsTable]:
    """Reload histograms written by ``write_counts_csv``.

    ``estimate_fidelity`` matches tables by their bases, so the reloaded
    tables give the same estimate as the originals.
    """
    rows: dict[str, dict[str, float]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rows.setdefault(row["setting"], {})[row["outcome"]] = float(row["count"])
    tables = []
    for label, outcome_map in rows.items():
        bases = tuple(label.split("."))
        k = len(bases)
        counts = np.zeros(2 ** k)
        for outcome, count in outcome_map.items():
            counts[int(outcome, 2)] = count
        _check_counts(counts)   # before the shot count is rounded from the sum
        tables.append(CountsTable(Setting(bases), int(round(counts.sum())), counts))
    return tables
