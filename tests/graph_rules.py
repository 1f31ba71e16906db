"""Graph states and their measurement rewrite rules, the oracle for the one-way tests.

losskit runs every measurement through ``cluster.run_pattern``.  This module
keeps the graph-state formalism (Hein, Eisert & Briegel, PRA 69, 062311,
2004) beside it, so that tests can check the package's states and patterns
against the rewrite rules without the package shipping a second formalism.

Graph conventions: a cluster state prepares |+> per vertex and applies CZ per
edge; qubit order is the sorted vertex-label order.  Every vertex stabilizer
K_v = X_v prod_{w~v} Z_w has eigenvalue +1.

Measurement rewrite rules (with byproduct accounting):

- Z measurement of v with outcome z: apply Z^z to each neighbor of v and the
  remainder is the cluster state of the graph without v.
- two adjacent X measurements on a linear segment u~v (both of degree <= 2)
  with outcomes (s_u, s_v): the outer neighbors of u and v become joined;
  apply Z^{s_v} to u's outer neighbor and Z^{s_u} to v's outer neighbor.

``indirect_z`` excises a lost vertex by reading its Z value off a neighbor's
X measurement (Varnava, Browne & Rudolph, PRL 97, 120501, 2006).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from losskit.cluster import Vertex
from losskit.qsim import (
    DensityMatrix,
    PauliString,
    StateVector,
    apply_gate,
    expectation,
    fidelity_pure,
    measure,
    partial_trace,
)

MAX_GRAPH_QUBITS = 12
PHI5_CHAIN = (3, 2, 1, 4, 5)   # photon order along the underlying linear cluster


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
                      forced: int) -> tuple[DensityMatrix, Graph]:
    """Z-measure vertex v onto ``forced``, apply the Z^z neighbor corrections, drop v."""
    labels = list(g.vertices)
    collapsed, _ = measure(state, labels.index(v), "z", forced=forced)
    labels.remove(v)
    if forced:
        for w in g.neighbors(v):
            collapsed = apply_gate(collapsed, "Z", [labels.index(w)])
    return collapsed, graph_z_remove(g, v)


def cluster_xx_measure(state: DensityMatrix, g: Graph, u: Vertex, v: Vertex, *,
                       forced: tuple[int, int]) -> tuple[DensityMatrix, Graph]:
    """X-measure the adjacent pair (u, v) onto ``forced``, apply byproducts, contract the graph."""
    new_graph = graph_xx_contract(g, u, v)  # validates the precondition
    labels = list(g.vertices)
    s_u, s_v = forced
    state, _ = measure(state, labels.index(u), "x", forced=s_u)
    labels.remove(u)
    state, _ = measure(state, labels.index(v), "x", forced=s_v)
    labels.remove(v)
    word_a, word_b = xx_contract_byproduct(s_u, s_v)
    outer_u = [w for w in g.neighbors(u) if w != v]
    outer_v = [w for w in g.neighbors(v) if w != u]
    if outer_u and word_a != "I":
        state = apply_gate(state, word_a, [labels.index(outer_u[0])])
    if outer_v and word_b != "I":
        state = apply_gate(state, word_b, [labels.index(outer_v[0])])
    return state, new_graph


@dataclass(frozen=True)
class IndirectResult:
    state: DensityMatrix
    labels: tuple
    residual_z: tuple


def indirect_z(state: DensityMatrix, g: Graph, lost: Vertex, helper: Vertex, *,
               forced: int, labels: Sequence[Vertex] | None = None) -> IndirectResult:
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
    state, _ = measure(state, current.index(helper), "x", forced=forced)
    current.remove(helper)
    residual = tuple(w for w in g.neighbors(helper) if w != lost) if forced else ()
    return IndirectResult(state, tuple(current), residual)


def phi5_graph() -> Graph:
    """Underlying linear-cluster topology of phi5 (photon labels 1..5)."""
    return Graph.line(PHI5_CHAIN)


def rewrite_rule_failures(graphs: Iterable[Graph], rules: Sequence[str] = ("z", "xx"), *,
                          tol: float) -> tuple[int, list[str]]:
    """Check rewrite rules against direct measurement on every forced branch.

    On each graph's cluster state, every Z removal (rule ``"z"``) and every
    XX contraction of an edge whose ends have degree <= 2 (rule ``"xx"``) is
    measured on each forced branch, and the corrected state must be the
    rewritten graph's cluster state, to ``tol`` in fidelity.  Returns the
    number of rule applications and a line for each one that disagrees.
    """
    checks = 0
    failures = []
    for g in graphs:
        rho = graph_cluster_state(g).density()
        cases = [((v,), graph_z_remove(g, v)) for v in g.vertices] if "z" in rules else []
        if "xx" in rules:
            cases += [((u, v), graph_xx_contract(g, u, v))
                      for u, v in sorted(tuple(sorted(e)) for e in g.edges)
                      if g.degree(u) <= 2 and g.degree(v) <= 2]
        for where, rewritten in cases:
            target = graph_cluster_state(rewritten)
            for bits in product((0, 1), repeat=len(where)):
                if len(where) == 1:
                    state, _ = cluster_z_measure(rho, g, where[0], forced=bits[0])
                else:
                    state, _ = cluster_xx_measure(rho, g, *where, forced=bits)
                fid = fidelity_pure(target, state)
                checks += 1
                if abs(fid - 1) >= tol:
                    failures.append(f"{sorted(map(sorted, g.edges))}: measured {where} "
                                    f"forced {bits}, fidelity {fid:.12f}")
    return checks, failures
