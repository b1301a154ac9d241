"""Seeded transport networks for the ``consensus`` workload.

``disqo.transport.random_instance`` is not used here. At N >= 12 it spends
minutes per instance in its feasibility screens: every draw is checked with
N+1 cold centralized solves, and each one runs the dense active-set polish.
The networks below are feasible by construction instead, so they need no
screen:

* every supplier's inventory covers the total demand of each commodity,
* pair capacities are infinite,
* every supplier has at least one route, and every demander has at least two
  feeders (suppliers with a route to it).

Any one supplier can therefore serve the whole market, and the market stays
feasible after any single supplier is removed. Only the public
``TransportNetwork`` and ``build_instance`` are used.
"""

from __future__ import annotations

import numpy as np

from disqo.graphs import CommGraph, build_graph, random_connected_graph
from disqo.transport import TransportNetwork

ROUTES = 2  # R: shortest routes kept per (supplier, demander) pair
MAX_HOPS = 4  # L: longest route, in edges


def build_network(n_suppliers: int, n_demanders: int, n_commodities: int, seed: int) -> TransportNetwork:
    """Layered supplier -> hub -> demander network, deterministic per seed."""
    rng = np.random.default_rng(seed)
    N, M, K = n_suppliers, n_demanders, n_commodities
    n_hubs = max(2, (N + M) // 3)
    suppliers = tuple(range(N))
    demanders = tuple(range(N, N + M))
    hubs = tuple(range(N + M, N + M + n_hubs))

    edges: set[tuple[int, int]] = set()
    for s in suppliers:
        for h in np.sort(rng.choice(n_hubs, size=int(rng.integers(1, 3)), replace=False)):
            edges.add((s, hubs[h]))
    for h in hubs:
        fed = [t for t in demanders if rng.random() < 0.6]
        for t in fed or [demanders[int(rng.integers(0, M))]]:
            edges.add((h, t))
    for t in demanders:
        feeders = {s for s in suppliers if (s, t) in edges or any((s, h) in edges and (h, t) in edges for h in hubs)}
        while len(feeders) < 2:
            s = suppliers[int(rng.integers(0, N))]
            edges.add((s, t))
            feeders.add(s)
    edge_list = tuple(sorted(edges))

    demands = rng.uniform(1.0, 5.0, size=(M, K))
    inventories = np.outer(np.ones(N), demands.sum(axis=0)) * rng.uniform(1.0, 1.5, size=(N, K))
    return TransportNetwork(
        n_nodes=N + M + n_hubs,
        edges=edge_list,
        suppliers=suppliers,
        demanders=demanders,
        inventories=inventories,
        demands=demands,
        edge_costs=rng.uniform(0.5, 3.0, size=(N, len(edge_list))),
        c0=1.0,
        pair_capacity=np.full((N, M), np.inf),
    )


def comm_graph(n_agents: int, seed: int) -> CommGraph:
    return random_connected_graph(n_agents, np.random.default_rng(seed))


def relabel(network: TransportNetwork, graph: CommGraph, perm) -> tuple[TransportNetwork, CommGraph]:
    """The same market with supplier ``perm[p]`` renamed to supplier ``p``.

    Edge order is kept, so route enumeration picks the same routes and the
    problem is a block permutation of the original one: same optimum, and
    the same number of distributed rounds up to floating-point summation
    order.
    """
    perm = np.asarray(perm, dtype=int)
    N = network.n_suppliers
    if sorted(perm.tolist()) != list(range(N)) or network.suppliers != tuple(range(N)):
        raise ValueError("perm must permute suppliers 0..N-1, which must be nodes 0..N-1")
    new_of_old = np.empty(N, dtype=int)
    new_of_old[perm] = np.arange(N)

    def node(v: int) -> int:
        return int(new_of_old[v]) if v < N else v

    relabelled = TransportNetwork(
        n_nodes=network.n_nodes,
        edges=tuple((node(t), node(h)) for t, h in network.edges),
        suppliers=network.suppliers,
        demanders=network.demanders,
        inventories=network.inventories[perm],
        demands=network.demands,
        edge_costs=network.edge_costs[perm],
        c0=network.c0,
        pair_capacity=network.pair_capacity[perm],
    )
    edges = [(int(new_of_old[a]), int(new_of_old[b])) for a, b in sorted(graph.edges)]
    return relabelled, build_graph(graph.n_agents, edges)
