"""Commodity transportation instances over directed networks.

Suppliers ship commodities to demanders along enumerated simple paths. Each
unit of flow on an edge pays a private per-supplier cost plus a congestion
charge proportional to the *total* flow on that edge, so agents' costs couple
through shared edges. The demand-satisfaction rows (one per demander and
commodity) form the coupling constraint; inventories, pair capacities, and
nonnegativity stay local.

Two per-agent decompositions of the same total cost are produced:

* algorithmic — congestion on each edge is attributed to agents in proportion
  to how many of their paths use the edge (weights kappa), which makes each
  agent's share convex;
* actual — each agent pays the congestion its own flow actually experiences,
  which is the cost mechanisms must price and evaluate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._checks import finite, floats, integer, vector
from .errors import DimensionMismatch, Infeasible, InvalidEdge, NoPathExists
from .graphs import CommGraph, build_graph, random_connected_graph
from .problem import CoupledProblem, ReportedProblem, _Market, assemble_problem

__all__ = [
    "TransportNetwork",
    "PathSet",
    "IncidenceData",
    "TransportInstance",
    "enumerate_paths",
    "build_incidence",
    "to_coupled_problem",
    "build_instance",
    "star_network",
    "random_network",
    "random_instance",
    "network_to_dict",
    "network_from_dict",
    "save_instance",
    "load_instance",
]

SCHEMA_VERSION = 1
_MAX_DRAWS = 50  # network draws random_network tries before giving up


@dataclass(frozen=True)
class TransportNetwork:
    """Directed transport graph plus the economic data attached to it."""

    n_nodes: int
    edges: tuple[tuple[int, int], ...]  # directed (tail, head); parallel edges allowed
    suppliers: tuple[int, ...]
    demanders: tuple[int, ...]
    inventories: np.ndarray  # (N, K)
    demands: np.ndarray  # (M, K)
    edge_costs: np.ndarray  # (N, E): supplier i's private cost per unit on edge e
    c0: float
    pair_capacity: np.ndarray  # (N, M); np.inf disables the row

    @property
    def n_suppliers(self) -> int:
        return len(self.suppliers)

    @property
    def n_demanders(self) -> int:
        return len(self.demanders)

    @property
    def n_commodities(self) -> int:
        return int(self.demands.shape[1])

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def validate(self) -> None:
        for t, h in self.edges:
            if not (0 <= t < self.n_nodes and 0 <= h < self.n_nodes) or t == h:
                raise InvalidEdge(f"bad edge ({t},{h})")
        outside = [v for v in (*self.suppliers, *self.demanders) if not 0 <= v < self.n_nodes]
        if outside:
            raise DimensionMismatch(f"supplier or demander node(s) {outside} outside [0, {self.n_nodes})")
        for v in (*self.suppliers, *self.demanders, *(v for edge in self.edges for v in edge)):
            integer(v, "a node index", 0)  # each is in range by now: this rejects 1.5 and true
        for name, shape in (("inventories", self.n_commodities), ("edge_costs", self.n_edges), ("pair_capacity", self.n_demanders)):
            if getattr(self, name).shape != (self.n_suppliers, shape):
                raise DimensionMismatch(f"{name} has shape {getattr(self, name).shape}, expected ({self.n_suppliers}, {shape})")
        for name in ("edge_costs", "demands", "inventories", "c0"):
            finite(getattr(self, name), name)
        if not (np.all(self.demands >= 0) and np.all(self.inventories >= 0) and np.all(self.pair_capacity >= 0)):  # NaN fails >= 0
            raise DimensionMismatch("demands, inventories and pair capacities must be at least 0 (a capacity may be inf)")


@dataclass(frozen=True)
class PathSet:
    """paths[(i, j)] = ordered tuple of paths; each path is a tuple of edge indices."""

    paths: dict[tuple[int, int], tuple[tuple[int, ...], ...]]

    def count(self, i: int, j: int) -> int:
        return len(self.paths.get((i, j), ()))


@dataclass(frozen=True)
class IncidenceData:
    """Edge-usage structure of the enumerated paths.

    ``Q`` is the one description of the routes that assembly reads.
    ``used_edges`` are the edge indices touched by at least one path, in
    increasing order; ``Q[i]`` is agent i's 0/1 incidence, whose column t is
    the route of its variable t over those edges. ``Q[i] @ x_i`` are the loads
    agent i puts on the used edges, from which both Hessians are built, and
    agent i's linear costs are psi_i = Q[i]' c_i[used_edges].
    ``kappa[i]`` holds agent i's share of each used edge: its routes through
    the edge over all routes through it. Shares count routes, not variables
    (a route carries one variable per commodity), and sum to one over each
    used edge.
    """

    used_edges: tuple[int, ...]
    Q: tuple[np.ndarray, ...]  # per agent: (len(used_edges), n_i) 0/1
    kappa: tuple[np.ndarray, ...]  # per agent: (len(used_edges),)


def enumerate_paths(network: TransportNetwork, R: int, L: int = 4) -> PathSet:
    """R shortest simple paths per (supplier, demander) pair, at most L edges,
    ordered by edge count then lexicographic edge indices. Parallel edges give
    distinct paths. A supplier on its demander's node has the one empty route
    ``()``: its flow reaches the demander over no edge.

    Raises ``DimensionMismatch`` unless R and L are integers of at least 1,
    and ``NoPathExists`` when some demander cannot be reached from any
    supplier.
    """
    integer(R, "R", 1)
    integer(L, "L", 1)
    out: dict[int, list[tuple[int, int]]] = {v: [] for v in range(network.n_nodes)}  # node -> (head, edge index)
    for idx, (t, h) in enumerate(network.edges):
        out.setdefault(h, [])
        out.setdefault(t, []).append((h, idx))
    paths: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}
    for i, s in enumerate(network.suppliers):
        for j, t in enumerate(network.demanders):
            found = _simple_edge_paths(out, s, t, L) if s in out and t in out else []
            found.sort(key=lambda p: (len(p), p))
            paths[(i, j)] = tuple(found[:R])
    for j in range(network.n_demanders):
        if all(len(paths[(i, j)]) == 0 for i in range(network.n_suppliers)):
            raise NoPathExists(f"demander {j} (node {network.demanders[j]}) unreachable from every supplier")
    return PathSet(paths=paths)


def _simple_edge_paths(out: dict[int, list[tuple[int, int]]], s: int, t: int, L: int) -> list[tuple[int, ...]]:
    """Every path from s to t of at most L edges that visits no node twice,
    as a tuple of edge indices, by a depth-first search over ``out[v]``, the
    (head, edge index) pairs leaving node v. From s to s that is ``()``."""
    if s == t:
        return [()]
    found, stack = [], [((s,), ())]  # (nodes visited, edges taken) of each open path
    while stack:
        nodes, edges = stack.pop()
        for h, idx in out[nodes[-1]]:
            if h == t:
                found.append((*edges, idx))
            elif h not in nodes and len(edges) + 1 < L:
                stack.append(((*nodes, h), (*edges, idx)))
    return found


def _var_layout(network: TransportNetwork, paths: PathSet) -> list[np.ndarray]:
    """Per agent, the (3, n_i) (demander j, commodity k, route r) labels of
    its block's variables, ordered by j, then k, then r."""
    N, M = network.n_suppliers, network.n_demanders
    counts = np.array([[paths.count(i, j) for j in range(M)] for i in range(N)], dtype=int)
    jkr = np.indices((M, network.n_commodities, counts.max(initial=0))).reshape(3, -1)
    return [jkr[:, jkr[2] < counts[i, jkr[0]]] for i in range(N)]


def build_incidence(paths: PathSet, network: TransportNetwork) -> IncidenceData:
    used = sorted({e for plist in paths.paths.values() for p in plist for e in p})
    pos = {e: row for row, e in enumerate(used)}
    Q, route_counts = [], []
    for i, (j, _, r) in enumerate(_var_layout(network, paths)):
        per_demander = [paths.paths[(i, jj)] for jj in range(network.n_demanders)]
        routes = [p for rs in per_demander for p in rs]
        on_route = np.zeros((len(used), len(routes)))  # column t: the edges of agent i's route t
        on_route[[pos[e] for p in routes for e in p], [t for t, p in enumerate(routes) for _ in p]] = 1.0
        # Variable (j, k, r) rides agent i's r-th route to demander j.
        first = np.cumsum([0] + [len(rs) for rs in per_demander])
        Q.append(on_route.take(first[j] + r, axis=1))
        route_counts.append(on_route.sum(axis=1))
    # Every used edge lies on some route, so every total is positive.
    counts = np.array(route_counts)
    return IncidenceData(used_edges=tuple(used), Q=tuple(Q), kappa=tuple(counts / counts.sum(axis=0)))


def to_coupled_problem(network: TransportNetwork, paths: PathSet, incidence: IncidenceData) -> CoupledProblem:
    """Assemble the coupled problem with both objective decompositions.

    Each Hessian is passed as factors sigma = F' D F over the rows U_i of
    ``Q``, the stacked route incidence, for the edges agent i's routes use;
    no n x n matrix is formed. With M_i agent i's column mask:

    * algorithmic: F = Q[U_i], D = 2 c0 diag(kappa_i[U_i]), so
      sigma = 2 c0 Q' diag(kappa_i) Q;
    * actual: F = [Q[U_i]; (Q M_i)[U_i]], D = c0 [[0, I], [I, 0]], so
      sigma = c0 (Q' Q M_i + M_i Q' Q).
    """
    N, M, K = network.n_suppliers, network.n_demanders, network.n_commodities
    layout = _var_layout(network, paths)
    dims = [labels.shape[1] for labels in layout]
    owner = np.repeat(np.arange(N), dims)  # the agent of each stacked variable
    Q_total = np.hstack(incidence.Q)  # edge loads of the stacked vector
    c0 = float(network.c0)
    agents, actual, A_blocks = [], [], []
    for i, (j, k, _) in enumerate(layout):
        # Coupling rows (j, k): demand satisfaction.
        A_blocks.append((np.arange(M * K)[:, None] == j * K + k).astype(float))
        # Local polyhedron: nonnegativity, inventories per commodity,
        # pair capacities per demander (rows with infinite capacity dropped).
        capped = np.flatnonzero(np.isfinite(network.pair_capacity[i]))
        B_i = np.vstack([-np.eye(dims[i]), np.arange(K)[:, None] == k, capped[:, None] == j])
        m_i = np.concatenate([np.zeros(dims[i]), network.inventories[i], network.pair_capacity[i, capped]])

        psi = np.zeros(len(owner))
        psi[owner == i] = _route_costs(incidence, i, network.edge_costs[i])
        used = np.flatnonzero(incidence.kappa[i])
        loads = Q_total[used]
        F_act = np.vstack([loads, loads * (owner == i)])  # all loads, then agent i's own, on its edges
        agents.append(((F_act[: len(used)], np.diag(2.0 * c0 * incidence.kappa[i][used])), psi, B_i, m_i))
        actual.append(((F_act, np.kron([[0.0, c0], [c0, 0.0]], np.eye(len(used)))), psi))
    return assemble_problem(agents, A_blocks, network.demands.reshape(-1), actual=actual)  # d is (j, k) j-major


def _route_costs(incidence: IncidenceData, i: int, edge_costs: np.ndarray) -> np.ndarray:
    """Agent i's linear cost of each variable of its block: its per-edge
    ``edge_costs`` summed along the variable's route."""
    return incidence.Q[i].T @ edge_costs[list(incidence.used_edges)]


@dataclass(frozen=True)
class TransportInstance:
    """A network, its enumerated paths/incidence, and the assembled problem."""

    network: TransportNetwork
    paths: PathSet
    incidence: IncidenceData
    problem: CoupledProblem
    R: int
    L: int

    @property
    def var_labels(self) -> list[list[tuple[int, int, int]]]:
        return [list(zip(*labels.tolist())) for labels in _var_layout(self.network, self.paths)]

    def used_edge_indices(self, i: int) -> list[int]:
        """Edge indices (original numbering) that agent i's routes traverse.
        An agent outside [0, N) raises ``UnknownAgent``, as ``block`` does."""
        self.problem.block(i)
        return [e for e, share in zip(self.incidence.used_edges, self.incidence.kappa[i]) if share > 0]

    def with_reported_costs(self, reports: dict[int, np.ndarray]) -> ReportedProblem:
        """Reported problem where each agent in ``reports`` declares the given
        private edge-cost vector (length n_edges) instead of its true one.

        Edge costs enter only the linear terms ``psi``, so the reported
        problem is the true one with each reporting agent's ``psi`` swapped
        (``CoupledProblem.with_linear_terms``): its Hessian factors,
        coupling and local rows are the true problem's arrays.
        """
        p = self.problem
        linear = {}
        for i, c in reports.items():
            blk = p.block(i)  # an unknown agent is rejected first
            c = vector(c, f"reported cost vector of agent {i}", self.network.n_edges)
            linear[i] = np.zeros(p.n_total)
            linear[i][blk] = _route_costs(self.incidence, i, c)
        return ReportedProblem(true=p, reported=p.with_linear_terms(linear))

    def perturbed_reports(self, deltas: dict[int, float]) -> ReportedProblem:
        """Each listed agent shifts every edge cost on its used edges by its delta
        (reported costs are floored at zero)."""
        reports = {}
        for i, delta in deltas.items():
            used = self.used_edge_indices(i)  # an unknown agent is rejected first
            c = np.array(self.network.edge_costs[i], dtype=float)
            c[used] = np.maximum(c[used] + delta, 0.0)
            reports[i] = c
        return self.with_reported_costs(reports)


def build_instance(network: TransportNetwork, R: int, L: int = 4) -> TransportInstance:
    network.validate()
    paths = enumerate_paths(network, R, L)
    incidence = build_incidence(paths, network)
    problem = to_coupled_problem(network, paths, incidence)
    return TransportInstance(network=network, paths=paths, incidence=incidence, problem=problem, R=R, L=L)


def star_network(c_norms, c0: float = 1.0, d: float = 5.0, spoke_costs=None) -> TransportNetwork:
    """N suppliers, one demander, one shared trunk edge into it.

    Supplier i's single route is (spoke_i, trunk); its private per-unit route
    cost is c_norms[i], placed on the spoke unless explicit per-edge splits are
    given via ``spoke_costs`` (one pair of spoke/trunk entries per supplier).
    """
    c_norms = vector(c_norms, "route costs")
    N = c_norms.shape[0]
    junction = N + 1
    demander = N
    edges = [(i, junction) for i in range(N)] + [(junction, demander)]
    costs = np.zeros((N, N + 1))
    if spoke_costs is None:
        for i in range(N):
            costs[i, i] = c_norms[i]
    else:
        if len(spoke_costs) != N:
            raise DimensionMismatch(f"{len(spoke_costs)} spoke/trunk pairs for {N} suppliers")
        for i, pair in enumerate(spoke_costs):
            on_spoke, on_trunk = vector(pair, f"spoke_costs[{i}]", 2)
            if abs(on_spoke + on_trunk - c_norms[i]) > 1e-12:
                raise DimensionMismatch("spoke/trunk split must sum to the route cost")
            costs[i, i] = on_spoke
            costs[i, N] = on_trunk
    return TransportNetwork(
        n_nodes=N + 2,
        edges=tuple(edges),
        suppliers=tuple(range(N)),
        demanders=(demander,),
        inventories=np.full((N, 1), float(d)),  # redundant cap keeps each local set bounded
        demands=np.array([[float(d)]]),
        edge_costs=costs,
        c0=float(c0),
        pair_capacity=np.full((N, 1), np.inf),
    )


def random_network(scale: tuple[int, int, int, int], rng: np.random.Generator, c0: float = 1.0) -> TransportInstance:
    """Seeded random layered network at scale (N suppliers, M demanders,
    K commodities, R routes), returned as the instance built to screen it.
    Redraws (deterministically) until every demander is reachable by at
    least two suppliers and the instance stays feasible even after removing
    any single supplier: N is an integer of at least 2, M, K and R of at least 1."""
    N, M, K, R = (integer(v, f"scale {name}", least) for v, name, least in zip(scale, "NMKR", (2, 1, 1, 1), strict=True))
    for _ in range(_MAX_DRAWS):
        network = _draw_network(scale, rng, c0)
        try:
            instance = build_instance(network, R=R, L=4)
        except NoPathExists:
            continue
        # Coverage: every demand row needs at least two contributing suppliers,
        # or dropping one supplier could strand demand.
        paths = instance.paths
        if any(sum(1 for i in range(N) if paths.count(i, j) > 0) < 2 for j in range(M)):
            continue
        # One market per draw; each drop-one screen starts from the full
        # optimum's tight rows.
        market = _Market(instance.problem)
        try:
            full = market.solve()
            for i in range(N):
                market.solve_without(i, full)
        except Infeasible:
            continue
        return instance
    raise Infeasible(f"no feasible draw at scale {scale} in {_MAX_DRAWS} tries")


def _draw_network(scale: tuple[int, int, int, int], rng: np.random.Generator, c0: float) -> TransportNetwork:
    N, M, K, R = scale
    n_hubs = max(2, (N + M) // 3)
    suppliers = tuple(range(N))
    demanders = tuple(range(N, N + M))
    hubs = list(range(N + M, N + M + n_hubs))
    n_nodes = N + M + n_hubs

    edge_set: set[tuple[int, int]] = set()
    for s in suppliers:
        chosen = rng.choice(n_hubs, size=max(1, int(rng.integers(1, n_hubs + 1))), replace=False)
        for hub_idx in np.sort(chosen):
            edge_set.add((s, hubs[hub_idx]))
    for hub in hubs:
        for t in demanders:
            if rng.random() < 0.8:
                edge_set.add((hub, t))
    for s in suppliers:
        for t in demanders:
            if rng.random() < 0.25:
                edge_set.add((s, t))
    # Guarantee every hub feeds someone and every demander is fed twice.
    for hub in hubs:
        if not any(t for (a, t) in edge_set if a == hub):
            edge_set.add((hub, demanders[int(rng.integers(0, M))]))
    for t in demanders:
        feeders = {a for (a, b) in edge_set if b == t}
        while len(feeders) < 2:
            s = suppliers[int(rng.integers(0, N))]
            edge_set.add((s, t))
            feeders.add(s)
    edges = tuple(sorted(edge_set))

    demands = rng.uniform(1.0, 5.0, size=(M, K))
    per_commodity = demands.sum(axis=0)  # (K,)
    inventories = np.outer(np.ones(N), per_commodity) * rng.uniform(0.6, 1.0, size=(N, K))
    pair_capacity = np.outer(np.ones(N), demands.sum(axis=1)) * rng.uniform(0.8, 1.5, size=(N, M))
    edge_costs = rng.uniform(0.5, 3.0, size=(N, len(edges)))
    return TransportNetwork(
        n_nodes=n_nodes,
        edges=edges,
        suppliers=suppliers,
        demanders=demanders,
        inventories=inventories,
        demands=demands,
        edge_costs=edge_costs,
        c0=c0,
        pair_capacity=pair_capacity,
    )


def random_instance(scale: tuple[int, int, int, int], seed: int, c0: float = 1.0) -> TransportInstance:
    return random_network(scale, np.random.default_rng(integer(seed, "seed", 0)), c0=c0)


def default_comm_graph(n_agents: int, seed: int) -> CommGraph:
    return random_connected_graph(n_agents, np.random.default_rng(integer(seed, "seed", 0)))


# ---------------------------------------------------------------------------
# Serialization


def network_to_dict(network: TransportNetwork, R: int, L: int, comm_edges=None) -> dict:
    cap = [[None if not np.isfinite(v) else float(v) for v in row] for row in network.pair_capacity]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "transport",
        "n_nodes": network.n_nodes,
        "edges": [list(e) for e in network.edges],
        "suppliers": list(network.suppliers),
        "demanders": list(network.demanders),
        "inventories": network.inventories.tolist(),
        "demands": network.demands.tolist(),
        "edge_costs": network.edge_costs.tolist(),
        "c0": float(network.c0),
        "pair_capacity": cap,
        "R": int(R),
        "L": int(L),
        "comm_edges": [list(e) for e in comm_edges] if comm_edges is not None else None,
    }


def network_from_dict(data: dict) -> tuple[TransportNetwork, int, int, CommGraph | None]:
    if data.get("schema_version") != SCHEMA_VERSION:
        raise DimensionMismatch(f"unsupported schema_version {data.get('schema_version')!r}")
    cap = [[np.inf if v is None else v for v in row] for row in data["pair_capacity"]]
    network = TransportNetwork(
        n_nodes=integer(data["n_nodes"], "n_nodes", 0),
        edges=tuple(tuple(e) for e in data["edges"]),
        suppliers=tuple(data["suppliers"]),
        demanders=tuple(data["demanders"]),
        inventories=floats(data["inventories"], "inventories"),
        demands=floats(data["demands"], "demands"),
        edge_costs=floats(data["edge_costs"], "edge_costs"),
        c0=float(finite(data["c0"], "c0")),
        pair_capacity=floats(cap, "pair_capacity"),
    )
    comm = None
    if data.get("comm_edges") is not None:
        comm = build_graph(network.n_suppliers, [tuple(e) for e in data["comm_edges"]])
    return network, integer(data["R"], "R", 1), integer(data["L"], "L", 1), comm


def save_instance(path, network: TransportNetwork, R: int, L: int, comm_edges=None) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_dict(network, R, L, comm_edges), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> tuple[TransportInstance, CommGraph | None]:
    with open(path) as fh:
        data = json.load(fh)
    network, R, L, comm = network_from_dict(data)
    return build_instance(network, R=R, L=L), comm
