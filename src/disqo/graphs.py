"""Undirected communication graphs and doubly stochastic consensus weights.

Agents exchange iterates over a fixed connected undirected graph. Mixing uses a
symmetric doubly stochastic, positive-semidefinite weight matrix with a strictly
positive diagonal whose off-diagonal sparsity pattern equals the edge set (the
lazy-Metropolis construction satisfies all of this on any connected graph).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import index, integer
from .errors import DimensionMismatch, DisconnectedGraph, InvalidEdge

__all__ = [
    "CommGraph",
    "ValidationReport",
    "build_graph",
    "metropolis_weights",
    "validate_weights",
    "random_connected_graph",
]

_MAX_DRAWS = 10000  # Erdős–Rényi draws random_connected_graph tries before giving up


@dataclass(frozen=True)
class CommGraph:
    """Undirected, connected communication topology among ``n_agents`` nodes."""

    n_agents: int
    edges: frozenset[tuple[int, int]]

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency().sum(axis=1)

    def adjacency(self) -> np.ndarray:
        adj = np.zeros((self.n_agents, self.n_agents), dtype=bool)
        for i, j in self.edges:
            adj[i, j] = adj[j, i] = True
        return adj


def _normalize_edges(n_agents: int, edges) -> frozenset[tuple[int, int]]:
    normalized: set[tuple[int, int]] = set()
    for e in edges:
        i, j = e[0], e[1]
        if i == j:
            raise InvalidEdge(f"self-loop at node {i}")
        if not (0 <= i < n_agents and 0 <= j < n_agents):
            raise InvalidEdge(f"edge ({i},{j}) out of range for {n_agents} nodes")
        i, j = (int(integer(v, "edge endpoint", 0)) for v in (i, j))  # in range by now: this rejects 0.9 and true
        key = (min(i, j), max(i, j))
        if key in normalized:
            raise InvalidEdge(f"duplicate edge {key}")
        normalized.add(key)
    return frozenset(normalized)


def _is_connected(n_agents: int, edges: frozenset[tuple[int, int]]) -> bool:
    """Whether a stack search from node 0 over the edges reaches all
    ``n_agents`` nodes (at least one)."""
    adjacent: list[list[int]] = [[] for _ in range(n_agents)]
    for i, j in edges:
        adjacent[i].append(j)
        adjacent[j].append(i)
    reached, stack = {0}, [0]
    while stack:
        for j in adjacent[stack.pop()]:
            if j not in reached:
                reached.add(j)
                stack.append(j)
    return len(reached) == n_agents


def build_graph(n_agents: int, edges) -> CommGraph:
    """Validate an edge list and return the communication graph.

    Raises ``InvalidEdge`` for out-of-range/self-loop/duplicate edges and
    ``DisconnectedGraph`` when the topology is not connected.
    """
    if index(n_agents, "n_agents") < 1:
        raise InvalidEdge("need at least one agent")
    edge_set = _normalize_edges(n_agents, edges)
    if not _is_connected(n_agents, edge_set):
        raise DisconnectedGraph(f"graph on {n_agents} nodes with {len(edge_set)} edges is not connected")
    return CommGraph(n_agents=n_agents, edges=edge_set)


def metropolis_weights(graph: CommGraph) -> np.ndarray:
    """Lazy-Metropolis weight matrix for a connected graph.

    ``w_ij = 1 / (2 * max(deg(i), deg(j)))`` on edges and
    ``w_ii = 1 - sum_j w_ij``. The result is symmetric, doubly stochastic,
    positive semidefinite, has a strictly positive diagonal, and its
    off-diagonal support equals the edge set.
    """
    adj = graph.adjacency()
    deg = adj.sum(axis=1)
    w = np.divide(1.0, 2.0 * np.maximum.outer(deg, deg), out=np.zeros(adj.shape), where=adj)
    w[np.diag_indices(graph.n_agents)] = 1.0 - w.sum(axis=1)
    return w


@dataclass
class ValidationReport:
    """Per-invariant pass/fail record with measured residuals."""

    checks: list[tuple[str, bool, float]] = field(default_factory=list)

    def add(self, name: str, ok: bool, residual: float) -> None:
        self.checks.append((name, bool(ok), float(residual)))

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failures(self) -> list[str]:
        return [name for name, passed, _ in self.checks if not passed]


def validate_weights(w: np.ndarray, graph: CommGraph) -> ValidationReport:
    """Check a candidate weight matrix against every mixing-matrix invariant."""
    w = np.asarray(w, dtype=float)
    n = graph.n_agents
    if w.shape != (n, n):
        raise DimensionMismatch(f"weight matrix shape {w.shape} does not match {n} agents")

    report = ValidationReport()

    sym_res = float(np.max(np.abs(w - w.T))) if n else 0.0
    report.add("symmetric", sym_res <= 1e-12, sym_res)

    row_res = float(np.max(np.abs(w.sum(axis=1) - 1.0)))
    col_res = float(np.max(np.abs(w.sum(axis=0) - 1.0)))
    report.add("rows sum to 1", row_res <= 1e-12, row_res)
    report.add("columns sum to 1", col_res <= 1e-12, col_res)

    neg_res = float(max(0.0, -w.min()))
    report.add("nonnegative entries", neg_res <= 0.0, neg_res)

    diag_min = float(w.diagonal().min())
    report.add("strictly positive diagonal", diag_min > 0.0, diag_min)

    mismatch = (w > 0) != graph.adjacency()
    np.fill_diagonal(mismatch, False)
    report.add("off-diagonal support equals edge set", not mismatch.any(), float(np.abs(w[mismatch]).max(initial=0.0)))

    eigmin = float(np.linalg.eigvalsh((w + w.T) / 2.0).min())
    report.add("positive semidefinite", eigmin >= -1e-10, eigmin)

    return report


def random_connected_graph(n_agents: int, rng: np.random.Generator) -> CommGraph:
    """Erdős–Rényi draw with p = 2 ln N / N (capped at 1), redrawn until connected."""
    if index(n_agents, "n_agents") < 1:
        raise InvalidEdge("need at least one agent")
    p = min(1.0, 2.0 * math.log(n_agents) / n_agents)
    pairs = [(i, j) for i in range(n_agents) for j in range(i + 1, n_agents)]
    for _ in range(_MAX_DRAWS):
        mask = rng.random(len(pairs)) < p
        edge_set = frozenset(pair for pair, keep in zip(pairs, mask) if keep)
        if _is_connected(n_agents, edge_set):
            return CommGraph(n_agents=n_agents, edges=edge_set)
    raise DisconnectedGraph(f"no connected draw in {_MAX_DRAWS} tries (n={n_agents}, p={p})")
