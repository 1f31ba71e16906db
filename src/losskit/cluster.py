"""Graph states, measurement rewrite rules, and loss-tolerant one-way rotation.

Graph conventions: a cluster state prepares |+> per vertex and applies CZ per
edge; qubit order is the sorted vertex-label order.  Every vertex stabilizer
K_v = X_v prod_{w~v} Z_w has eigenvalue +1.

Measurement rewrite rules (with byproduct accounting):

- Z measurement of v with outcome z: apply Z^z to each neighbor of v and the
  remainder is the cluster state of the graph without v.
- two adjacent X measurements on a linear segment u~v (both of degree <= 2)
  with outcomes (s_u, s_v): the outer neighbors of u and v become joined;
  apply Z^{s_v} to u's outer neighbor and Z^{s_u} to v's outer neighbor.

The five-photon resource state used for the loss-tolerant rotation circuit is
stored in the lab (polarization) basis; it equals the linear cluster state on
the photon chain 3-2-1-4-5 up to Hadamards on photons 1, 3 and 5.  The
rotation protocol measures in lab bases throughout and targets

    target(alpha) = (|0> + e^{-i alpha}|1>)/sqrt2,

so alpha in {0, -pi/2, -pi/3} produces |+>, |R>, |S>.  ``rotation_sweep`` and
``recovery.recovery_sweep`` both return a ``BranchRow`` per nonzero branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Hashable, Iterable, Sequence

import numpy as np

from .qsim import (
    HADAMARD,
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
    post_loss_state,
)

MAX_GRAPH_QUBITS = 12
_Z_SIGNS = np.array([[1, -1], [-1, 1]])

Vertex = Hashable


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with hashable vertex labels."""

    vertices: tuple
    edges: frozenset

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[tuple] = ()) -> None:
        verts = tuple(sorted(set(vertices)))
        vert_set = set(verts)
        edge_set = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on vertex {a!r}")
            if a not in vert_set or b not in vert_set:
                raise ValueError(f"edge ({a!r}, {b!r}) references a missing vertex")
            edge_set.add(frozenset((a, b)))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", frozenset(edge_set))

    @classmethod
    def from_edges(cls, edges: Iterable[tuple]) -> "Graph":
        edges = list(edges)
        return cls({v for e in edges for v in e}, edges)

    @classmethod
    def line(cls, labels: Sequence[Vertex]) -> "Graph":
        return cls(labels, list(zip(labels, labels[1:])))

    @classmethod
    def star(cls, center: Vertex, leaves: Sequence[Vertex]) -> "Graph":
        return cls([center, *leaves], [(center, leaf) for leaf in leaves])

    def __contains__(self, v: Vertex) -> bool:
        return v in set(self.vertices)

    def neighbors(self, v: Vertex) -> tuple:
        if v not in self:
            raise ValueError(f"vertex {v!r} not in graph")
        return tuple(sorted(w for e in self.edges if v in e for w in e if w != v))

    def degree(self, v: Vertex) -> int:
        return len(self.neighbors(v))

    def has_edge(self, a: Vertex, b: Vertex) -> bool:
        return frozenset((a, b)) in self.edges

    def qubit_of(self, v: Vertex) -> int:
        return self.vertices.index(v)


def graph_cluster_state(g: Graph) -> StateVector:
    """|+>^(x n) followed by CZ on every edge, qubits ordered by sorted label."""
    n = len(g.vertices)
    if n > MAX_GRAPH_QUBITS:
        raise ValueError(f"graph has {n} vertices, beyond the limit of {MAX_GRAPH_QUBITS}")
    state = StateVector.basis_state(n, 0)
    for q in range(n):
        state = apply_gate(state, "H", [q])
    for edge in sorted(g.edges, key=lambda e: tuple(sorted(e))):
        a, b = sorted(edge)
        state = apply_gate(state, "CZ", [g.qubit_of(a), g.qubit_of(b)])
    return state


def vertex_stabilizer(g: Graph, v: Vertex) -> PauliString:
    """K_v = X_v prod_{w~v} Z_w over the graph's qubit ordering."""
    support = {g.qubit_of(v): "X"}
    for w in g.neighbors(v):
        support[g.qubit_of(w)] = "Z"
    return PauliString.from_support(len(g.vertices), support)


def graph_z_remove(g: Graph, v: Vertex) -> Graph:
    """Graph after a Z measurement: the vertex and all incident edges go away."""
    if v not in g:
        raise ValueError(f"vertex {v!r} not in graph")
    return Graph((w for w in g.vertices if w != v),
                 [tuple(e) for e in g.edges if v not in e])


def graph_xx_contract(g: Graph, u: Vertex, v: Vertex) -> Graph:
    """Graph after two adjacent X measurements on a linear segment.

    Removes u and v and joins their outer neighbors (if both exist).  Only
    defined when u~v and both have degree <= 2.
    """
    if not g.has_edge(u, v):
        raise ValueError(f"vertices {u!r} and {v!r} are not adjacent")
    if g.degree(u) > 2 or g.degree(v) > 2:
        raise ValueError("xx contraction applies to linear segments only (degree <= 2)")
    a = [w for w in g.neighbors(u) if w != v]
    b = [w for w in g.neighbors(v) if w != u]
    edges = [tuple(e) for e in g.edges if u not in e and v not in e]
    if a and b:
        edges.append((a[0], b[0]))
    return Graph((w for w in g.vertices if w not in (u, v)), edges)


def xx_contract_byproduct(s_u: int, s_v: int) -> tuple[str, str]:
    """Byproduct words on (outer neighbor of u, outer neighbor of v)."""
    return ("Z" if s_v else "I", "Z" if s_u else "I")


# --------------------------------------------------------------------------
# state-level rewrites (graph + state kept in lock step)


def cluster_z_measure(state: DensityMatrix, g: Graph, v: Vertex, *,
                      forced: int | None = None,
                      rng: np.random.Generator | None = None,
                      ) -> tuple[int, DensityMatrix, Graph]:
    """Z-measure vertex v, apply the Z^z neighbor corrections, drop v."""
    labels = list(g.vertices)
    out, collapsed, _ = measure(state, labels.index(v), "z", forced=forced, rng=rng)
    labels.remove(v)
    if out:
        for w in g.neighbors(v):
            collapsed = apply_gate(collapsed, "Z", [labels.index(w)])
    return out, collapsed, graph_z_remove(g, v)


def cluster_xx_measure(state: DensityMatrix, g: Graph, u: Vertex, v: Vertex, *,
                       forced: tuple[int, int] | None = None,
                       rng: np.random.Generator | None = None,
                       ) -> tuple[tuple[int, int], DensityMatrix, Graph]:
    """X-measure the adjacent pair (u, v), apply byproducts, contract the graph."""
    new_graph = graph_xx_contract(g, u, v)  # validates the precondition
    labels = list(g.vertices)
    f_u, f_v = forced if forced is not None else (None, None)
    s_u, state, _ = measure(state, labels.index(u), "x", forced=f_u, rng=rng)
    labels.remove(u)
    s_v, state, _ = measure(state, labels.index(v), "x", forced=f_v, rng=rng)
    labels.remove(v)
    word_a, word_b = xx_contract_byproduct(s_u, s_v)
    outer_u = [w for w in g.neighbors(u) if w != v]
    outer_v = [w for w in g.neighbors(v) if w != u]
    if outer_u and word_a != "I":
        state = apply_gate(state, word_a, [labels.index(outer_u[0])])
    if outer_v and word_b != "I":
        state = apply_gate(state, word_b, [labels.index(outer_v[0])])
    return (s_u, s_v), state, new_graph


@dataclass(frozen=True)
class IndirectResult:
    inferred: int
    state: DensityMatrix
    labels: tuple
    residual_z: tuple


def indirect_z(state: DensityMatrix, g: Graph, lost: Vertex, helper: Vertex, *,
               labels: Sequence[Vertex] | None = None,
               forced: int | None = None,
               rng: np.random.Generator | None = None) -> IndirectResult:
    """Read a lost qubit's Z outcome through an adjacent helper's X measurement.

    The graph-state stabilizer X_helper Z_lost (times Z on the helper's other
    neighbors) ties the helper's X outcome to the Z value of the lost vertex,
    so the loss can be excised without its qubit.  ``state`` may still
    contain the lost qubit (the stabilizer is checked, then the qubit is
    erased) or may already have it traced out; ``labels`` names the state's
    qubits (default: all graph vertices, sorted).

    Any neighbors of the helper other than the lost vertex keep a Z^outcome
    byproduct, reported in ``residual_z`` and left for the caller.
    """
    if not g.has_edge(lost, helper):
        raise ValueError(f"helper {helper!r} is not adjacent to lost vertex {lost!r}")
    current = list(labels) if labels is not None else list(g.vertices)
    if state.n_qubits != len(current):
        raise ValueError("state size does not match the label list")
    if lost in current:
        support = {current.index(helper): "X", current.index(lost): "Z"}
        for w in g.neighbors(helper):
            if w != lost:
                support[current.index(w)] = "Z"
        stab = PauliString.from_support(len(current), support)
        val = expectation(state, stab)
        if val < 1.0 - 1e-9:
            raise ValueError(
                f"stabilizer X_{helper} Z_{lost} (x neighbor Zs) not satisfied "
                f"(expectation {val:.6f})"
            )
        state = partial_trace(state, [current.index(lost)])
        current.remove(lost)
    out, state, _ = measure(state, current.index(helper), "x", forced=forced, rng=rng)
    current.remove(helper)
    residual = tuple(w for w in g.neighbors(helper) if w != lost) if out else ()
    return IndirectResult(out, state, tuple(current), residual)


# --------------------------------------------------------------------------
# one-way measurement patterns


@dataclass(frozen=True)
class PatternStep:
    """One adaptive measurement: optional X/Z pre-corrections, then a basis."""

    qubit: Vertex
    basis: str                      # "z", "x" or "b"
    alpha: float | None = None
    x_from: tuple = ()
    z_from: tuple = ()


@dataclass(frozen=True)
class MeasurementPattern:
    """Ordered adaptive measurements plus the output qubit's byproduct frame.

    The frame is Z^z X^x from the listed outcome parities, applied Z first;
    ``output_gate = "H"`` applies a fixed Hadamard after it.
    """

    steps: tuple[PatternStep, ...]
    output: Vertex
    output_x_from: tuple = ()
    output_z_from: tuple = ()
    output_gate: str = ""

    def __post_init__(self) -> None:
        if self.output_gate not in ("", "H"):
            raise ValueError(f"unknown output gate {self.output_gate!r}")
        seen: set = set()
        for step in self.steps:
            if step.qubit in seen:
                raise ValueError(f"qubit {step.qubit!r} measured twice")
            if step.basis not in ("z", "x", "b"):
                raise ValueError(f"unknown basis {step.basis!r}")
            if step.basis == "b" and step.alpha is None:
                raise ValueError("B(alpha) step needs alpha")
            for dep in step.x_from + step.z_from:
                if dep not in seen:
                    raise ValueError(f"step on {step.qubit!r} depends on unmeasured {dep!r}")
            seen.add(step.qubit)
        if self.output in seen:
            raise ValueError("output qubit may not be measured")
        for dep in self.output_x_from + self.output_z_from:
            if dep not in seen:
                raise ValueError(f"output frame depends on unmeasured {dep!r}")


@dataclass(frozen=True)
class OneWayResult:
    """Outcome record of a one-way pattern execution."""

    outcomes: dict
    output_state: DensityMatrix
    byproduct: str
    probability: float
    target: StateVector | None = None
    fidelity: float | None = None


def _parity(outcomes: dict, sources: tuple) -> int:
    bit = 0
    for src in sources:
        bit ^= outcomes[src]
    return bit


def run_pattern(state: DensityMatrix, pattern: MeasurementPattern,
                labels: Sequence[Vertex], *,
                forced: Sequence[int] | None = None,
                rng: np.random.Generator | None = None,
                target: StateVector | None = None) -> OneWayResult:
    """Execute an adaptive measurement pattern on a labeled state.

    ``labels`` gives the vertex label of each qubit in order.  ``forced``
    selects outcome bits in step order.  Pre-corrections X^x Z^z derived from
    earlier outcomes act before each measurement; the output qubit receives
    its byproduct frame and then the output gate at the end.  The result's
    ``byproduct`` names the applied word, leftmost applied last (``HXZ``: Z,
    then X, then H).
    """
    current = list(labels)
    if state.n_qubits != len(current):
        raise ValueError("state size does not match the label list")
    for step in pattern.steps:
        if step.qubit not in current:
            raise ValueError(f"pattern step qubit {step.qubit!r} is not present")
    if pattern.output not in current:
        raise ValueError("pattern output qubit is not present")
    if forced is not None and len(forced) != len(pattern.steps):
        raise ValueError(f"expected {len(pattern.steps)} forced outcomes")

    outcomes: dict = {}
    probability = 1.0
    for i, step in enumerate(pattern.steps):
        # X^x Z^z before a measurement only relabels it: X swaps the Z
        # outcomes and turns B(alpha) into B(-alpha); Z swaps the X and the
        # B(alpha) outcomes.
        flip_x = _parity(outcomes, step.x_from)
        alpha = -step.alpha if flip_x and step.basis == "b" else step.alpha
        flip = flip_x if step.basis == "z" else _parity(outcomes, step.z_from)
        want = forced[i] ^ flip if forced is not None else None
        try:
            out, state, p = measure(state, current.index(step.qubit), step.basis,
                                    alpha=alpha, forced=want, rng=rng)
        except ZeroProbabilityBranch:
            # name the requested bit, not the relabelled one measure saw
            relabel = f" (measured as {want} after feedforward)" if flip else ""
            raise ZeroProbabilityBranch(f"forced outcome {forced[i]} on qubit {step.qubit!r} "
                                        f"has zero probability{relabel}") from None
        current.remove(step.qubit)
        outcomes[step.qubit] = out ^ flip
        probability *= p

    if len(current) > 1:
        out_idx = current.index(pattern.output)
        state = partial_trace(state, [q for q in range(len(current)) if q != out_idx])
    # the output frame on the one-qubit matrix: Z negates the coherences,
    # X reverses both axes, and H conjugates
    mat = state.matrix
    byproduct = ""
    if _parity(outcomes, pattern.output_z_from):
        mat = mat * _Z_SIGNS
        byproduct += "Z"
    if _parity(outcomes, pattern.output_x_from):
        mat = mat[::-1, ::-1]
        byproduct = "X" + byproduct
    if pattern.output_gate:
        mat = HADAMARD @ mat @ HADAMARD
        byproduct = pattern.output_gate + byproduct
    if byproduct:
        state = DensityMatrix._trusted(1, np.array(mat))
    fid = fidelity_pure(target, state) if target is not None else None
    return OneWayResult(outcomes, state, byproduct or "I", probability, target, fid)


def pattern_branches(state: DensityMatrix, pattern: MeasurementPattern,
                     labels: Sequence[Vertex], *,
                     target: StateVector | None = None,
                     forced: Sequence[int] | None = None,
                     where: str = "pattern") -> list[tuple[tuple[int, ...], OneWayResult]]:
    """``(bits, run_pattern(...))`` for every nonzero forced branch of ``pattern``.

    Branches run in ascending bit order, each from ``state``; one whose
    forced outcome has zero probability is skipped, and the kept
    probabilities must sum to 1.  With ``forced`` only that branch runs, and
    a zero probability raises :class:`ZeroProbabilityBranch` naming
    ``where`` and the bits.
    """
    if forced is not None:
        bits = tuple(forced)
        try:
            return [(bits, run_pattern(state, pattern, labels, forced=bits, target=target))]
        except ZeroProbabilityBranch as exc:
            raise ZeroProbabilityBranch(
                f"{where}, branch {''.join(map(str, bits))}: {exc}") from None
    branches = []
    for bits in product((0, 1), repeat=len(pattern.steps)):
        try:
            branches.append((bits, run_pattern(state, pattern, labels, forced=bits,
                                               target=target)))
        except ZeroProbabilityBranch:
            continue
    total = sum(result.probability for _, result in branches)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{where}: branch probabilities sum to {total:.12g}, not 1")
    return branches


@dataclass(frozen=True)
class BranchRow:
    """One (input, loss, alpha, branch) cell of a sweep; ``alpha`` is ``None`` for recovery."""

    input: str
    lost: str
    alpha: float | None
    branch: str
    probability: float
    fidelity: float


# --------------------------------------------------------------------------
# the five-photon resource state and the Fig-style loss cases

PHI5_CHAIN = (3, 2, 1, 4, 5)   # photon order along the underlying linear cluster
PHI5_BASIS_KETS = ("00000", "01111", "10011", "11100")
PHI5_PAIRS = ((0, 1),)   # the lab's imperfect pair source, on photons 1 and 2


def phi5() -> StateVector:
    """Five-photon lab-basis resource state, amplitude 1/2 on four basis kets."""
    amps = np.zeros(32, dtype=complex)
    for bits in PHI5_BASIS_KETS:
        amps[int(bits, 2)] = 0.5
    return StateVector(5, amps)


def phi5_graph() -> Graph:
    """Underlying linear-cluster topology of phi5 (photon labels 1..5)."""
    return Graph.line(PHI5_CHAIN)


def rotation_target(alpha: float) -> StateVector:
    """Ideal rotation output (|0> + e^{-i alpha}|1>)/sqrt2 in the lab basis."""
    return StateVector.from_amplitudes([1.0, np.exp(-1j * alpha)], normalize=True)


# Each supported loss case: photon to erase, H/V-measured helper (the indirect
# Z partner of the loss), +/- measured redundant photon, rotation photon, and
# readout photon.  Feedforward: X^{s_helper} Z^{s_redundant} on the rotation
# photon before its B(alpha) measurement, then Z^{s_rotation} on the readout.
LOSS_CASES: dict[str, dict[str, int]] = {
    "photon2": {"erase": 2, "helper": 3, "redundant": 5, "rotate": 4, "readout": 1},
    "photon4": {"erase": 4, "helper": 5, "redundant": 3, "rotate": 2, "readout": 1},
}


def loss_case_pattern(lost: str, alpha: float) -> MeasurementPattern:
    """Lab-basis adaptive pattern completing the rotation after one loss."""
    try:
        case = LOSS_CASES[lost]
    except KeyError:
        raise ValueError(f"unsupported loss case {lost!r}; "
                         f"expected one of {sorted(LOSS_CASES)}") from None
    return MeasurementPattern(
        steps=(
            PatternStep(case["helper"], "z"),
            PatternStep(case["redundant"], "x"),
            PatternStep(case["rotate"], "b", alpha,
                        x_from=(case["helper"],), z_from=(case["redundant"],)),
        ),
        output=case["readout"],
        output_z_from=(case["rotate"],),
    )


def _rotation_setup(lost: str, alpha: float, noise: NoiseSpec | None,
                    interfering_pairs: Sequence[tuple[int, int]],
                    ) -> tuple[DensityMatrix, MeasurementPattern, tuple[int, ...]]:
    """phi5 after the case's loss, the case's pattern, and the survivors' photon labels."""
    pattern = loss_case_pattern(lost, alpha)
    erase_photon = LOSS_CASES[lost]["erase"]   # photon k lives on qubit k-1
    rho = post_loss_state(phi5(), [erase_photon - 1], noise, interfering_pairs)
    labels = tuple(p for p in range(1, 6) if p != erase_photon)
    return rho, pattern, labels


def loss_tolerant_rotation(lost: str, alpha: float, noise: NoiseSpec | None = None, *,
                           interfering_pairs: Sequence[tuple[int, int]] = (),
                           forced: Sequence[int] | None = None,
                           rng: np.random.Generator | None = None) -> OneWayResult:
    """Run the single-qubit rotation on phi5 with one photon lost.

    Erases the lost photon, runs the adaptive lab-basis pattern for the case,
    and compares the readout photon against ``rotation_target(alpha)``.
    ``forced`` fixes the (helper, redundant, rotation) outcome bits.
    """
    rho, pattern, labels = _rotation_setup(lost, alpha, noise, interfering_pairs)
    return run_pattern(rho, pattern, labels, forced=forced, rng=rng,
                       target=rotation_target(alpha))


def rotation_sweep(cases: Sequence[str], alphas: Sequence[float],
                   noise: NoiseSpec | None = None, *,
                   pairs: Sequence[tuple[int, int]] = (),
                   forced: Sequence[int] | None = None) -> list[BranchRow]:
    """Exhaustive branch table over (loss case, alpha, outcome branch).

    Each ``BranchRow`` (input ``phi5``, ``lost`` the case) carries the exact
    branch probability and the fidelity against ``rotation_target(alpha)``;
    ``pairs`` places the interfering pairs of the ``noise`` channel.
    Zero-probability branches are omitted, and the kept probabilities of
    each (case, alpha) must sum to 1.  ``forced`` runs that one branch per
    (case, alpha) instead, and raises if it has zero probability.  Rows are
    ordered by case and alpha (as given), then branch bits lexicographically.
    """
    rows = []
    for case in cases:
        for alpha in alphas:
            rho, pattern, labels = _rotation_setup(case, alpha, noise, pairs)
            branches = pattern_branches(rho, pattern, labels, target=rotation_target(alpha),
                                        forced=forced, where=f"loss case {case}, alpha {alpha:.9f}")
            rows.extend(BranchRow("phi5", case, alpha, "".join(map(str, bits)), res.probability,
                                  res.fidelity) for bits, res in branches)
    return rows
