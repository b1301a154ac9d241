"""Transport-instance layer: path enumeration, incidence/kappa structure,
objective decompositions, generators, and serialization."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from disqo.errors import DimensionMismatch, InvalidEdge, NoPathExists, UnknownAgent
from disqo.mechanisms import misreport_sweep
from disqo.problem import centralized_solve, eval_cost, exclude_agent
from disqo.transport import (
    TransportNetwork,
    build_incidence,
    build_instance,
    default_comm_graph,
    enumerate_paths,
    load_instance,
    network_from_dict,
    network_to_dict,
    random_instance,
    random_network,
    save_instance,
    star_network,
    to_coupled_problem,
)


def three_star():
    return build_instance(star_network([2.0, 3.0, 4.0], c0=1.0, d=5.0), R=1, L=2)


# ---------------------------------------------------------------------------
# Path enumeration


def diamond_network():
    """One supplier (0), one demander (3), two relays (1, 2), and two parallel
    direct edges. Edge list order is deliberately not sorted by endpoints."""
    edges = ((0, 3), (0, 1), (1, 3), (0, 2), (2, 3), (0, 3))
    return TransportNetwork(
        n_nodes=4,
        edges=edges,
        suppliers=(0,),
        demanders=(3,),
        inventories=np.array([[10.0]]),
        demands=np.array([[4.0]]),
        edge_costs=np.ones((1, len(edges))),
        c0=1.0,
        pair_capacity=np.array([[np.inf]]),
    )


def test_paths_ordered_by_length_then_edge_indices():
    net = diamond_network()
    ps = enumerate_paths(net, R=10, L=4)
    assert ps.paths[(0, 0)] == ((0,), (5,), (1, 2), (3, 4))


def test_paths_truncated_to_r():
    net = diamond_network()
    ps = enumerate_paths(net, R=3, L=4)
    assert ps.paths[(0, 0)] == ((0,), (5,), (1, 2))


def test_paths_respect_length_cutoff():
    net = diamond_network()
    ps = enumerate_paths(net, R=10, L=1)
    assert ps.paths[(0, 0)] == ((0,), (5,))


def test_parallel_edges_are_distinct_paths():
    net = diamond_network()
    ps = enumerate_paths(net, R=2, L=1)
    assert ps.count(0, 0) == 2


def test_unreachable_demander_raises():
    net = TransportNetwork(
        n_nodes=3,
        edges=((0, 1),),
        suppliers=(0,),
        demanders=(2,),
        inventories=np.array([[1.0]]),
        demands=np.array([[1.0]]),
        edge_costs=np.ones((1, 1)),
        c0=1.0,
        pair_capacity=np.array([[np.inf]]),
    )
    with pytest.raises(NoPathExists):
        enumerate_paths(net, R=1)


def test_bad_r_rejected():
    for R in (0, 1.5, True):
        with pytest.raises(DimensionMismatch):
            enumerate_paths(diamond_network(), R=R)


def chain_network(n_nodes):
    """One supplier at node 0, one demander at the last node, one edge per hop."""
    return TransportNetwork(
        n_nodes=n_nodes,
        edges=tuple((v, v + 1) for v in range(n_nodes - 1)),
        suppliers=(0,),
        demanders=(n_nodes - 1,),
        inventories=np.array([[1.0]]),
        demands=np.array([[1.0]]),
        edge_costs=np.ones((1, n_nodes - 1)),
        c0=1.0,
        pair_capacity=np.array([[np.inf]]),
    )


@pytest.mark.parametrize("L", [0, -1, np.nan, True, 2.5])
def test_bad_hop_limit_rejected(L):
    # Each was passed on to the path search: 0, -1, NaN and True found no path
    # (NoPathExists), and 2.5 found the chain's 3-edge path.
    with pytest.raises(DimensionMismatch, match="L must be an integer"):
        enumerate_paths(random_instance((4, 2, 3, 2), seed=0).network, R=2, L=L)
    with pytest.raises(DimensionMismatch, match="L must be an integer"):
        enumerate_paths(chain_network(4), R=1, L=L)


def test_hop_limit_bounds_the_chain():
    assert enumerate_paths(chain_network(4), R=1, L=3).paths == {(0, 0): ((0, 1, 2),)}
    with pytest.raises(NoPathExists):
        enumerate_paths(chain_network(4), R=1, L=2)


def test_a_supplier_on_its_demanders_node_has_the_empty_route():
    # Supplier 1 sits on demander node 2: its one route uses no edge, so its
    # flow is free, and the market needs only 2 of the 4 units from supplier 0.
    net = TransportNetwork(
        n_nodes=3,
        edges=((0, 2), (1, 2), (0, 1)),
        suppliers=(0, 2),
        demanders=(2,),
        inventories=np.array([[10.0], [2.0]]),
        demands=np.array([[4.0]]),
        edge_costs=np.array([[1.0, 0.5, 0.5], [1.0, 1.0, 1.0]]),
        c0=0.5,
        pair_capacity=np.full((2, 1), np.inf),
    )
    inst = build_instance(net, R=2, L=2)
    assert inst.paths.paths == {(0, 0): ((0,), (2, 1)), (1, 0): ((),)}
    assert inst.problem.dims == (2, 1)
    assert inst.incidence.used_edges == (0, 1, 2)
    np.testing.assert_array_equal(inst.incidence.Q[1], np.zeros((3, 1)))
    sol = centralized_solve(inst.problem)
    np.testing.assert_allclose(sol.value, 10.0 / 3.0, rtol=1e-9)
    np.testing.assert_allclose(sol.x[2], 2.0, atol=1e-9)


def random_multigraph_network(rng, n_nodes, n_edges):
    """Every node both a supplier and a demander, on random directed edges
    (parallel edges likely, no self-loops)."""
    tails = rng.integers(0, n_nodes, n_edges)
    heads = (tails + rng.integers(1, n_nodes, n_edges)) % n_nodes
    nodes = tuple(range(n_nodes))
    return TransportNetwork(
        n_nodes=n_nodes,
        edges=tuple(zip(tails.tolist(), heads.tolist())),
        suppliers=nodes,
        demanders=nodes,
        inventories=np.ones((n_nodes, 1)),
        demands=np.ones((n_nodes, 1)),
        edge_costs=np.ones((n_nodes, n_edges)),
        c0=1.0,
        pair_capacity=np.full((n_nodes, n_nodes), np.inf),
    )


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_paths_match_networkx_on_random_multigraphs(L):
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(L)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        net = random_multigraph_network(rng, n, int(rng.integers(1, 3 * n)))
        g = nx.MultiDiGraph()
        g.add_nodes_from(range(n))
        for idx, (t, h) in enumerate(net.edges):
            g.add_edge(t, h, key=idx)
        ps = enumerate_paths(net, R=10**6, L=L)
        for (i, j), got in ps.paths.items():
            want = sorted((tuple(key for *_, key in p) for p in nx.all_simple_edge_paths(g, i, j, cutoff=L)), key=lambda p: (len(p), p))
            assert got == tuple(want), (net.edges, i, j)


def test_network_numbers_that_are_not_finite_are_rejected():
    # Each reached the user as a kernel error, and a NaN c0 as numpy's LinAlgError.
    with pytest.raises(DimensionMismatch, match="c0 must be finite"):
        random_instance((3, 2, 2, 2), seed=0, c0=np.nan)
    net = dataclasses.replace(star_network([1.0, 2.0]), pair_capacity=np.array([[np.inf], [3.0]]))
    build_instance(net, R=1)  # an infinite capacity is no limit
    for field, bad in (("edge_costs", np.nan), ("demands", np.inf), ("inventories", np.nan), ("c0", np.inf), ("pair_capacity", np.nan), ("pair_capacity", -np.inf)):
        value = np.array(getattr(net, field), float)
        value.flat[-1] = bad
        with pytest.raises(DimensionMismatch):
            build_instance(dataclasses.replace(net, **{field: value if value.ndim else float(value)}), R=1)


class _NoDraws:
    """An rng that fails on any draw: a scale check must come before the first."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the rng ({name}) before checking the scale")


def test_a_scale_that_cannot_work_is_rejected_before_the_first_draw():
    # One supplier spun forever looking for a second feeder; M = 0 and a float
    # N reached numpy's errors, and K = 0 returned an empty market.
    for scale, message in (
        ((1, 2, 3, 2), "scale N must be an integer of at least 2"),
        ((4, 0, 3, 2), "scale M must be an integer of at least 1"),
        ((4.0, 2, 3, 2), "scale N must be an integer"),
        ((4, 2, 0, 2), "scale K must be an integer of at least 1"),
        ((4, 2, 3, 0), "scale R must be an integer of at least 1"),
        ((4, True, 3, 2), "scale M must be an integer"),
    ):
        with pytest.raises(DimensionMismatch, match=message):
            random_network(scale, _NoDraws())
    assert random_network((np.int64(4), 2, 3, 2), np.random.default_rng(0)).problem.n_agents == 4


def test_library_seeds_are_nonnegative_integers():
    for seed in (-1, True, 2.5):
        with pytest.raises(DimensionMismatch, match="seed must be an integer of at least 0"):
            random_instance((4, 2, 3, 2), seed)
        with pytest.raises(DimensionMismatch, match="seed must be an integer of at least 0"):
            default_comm_graph(4, seed)
    assert default_comm_graph(4, np.int64(3)).edges == default_comm_graph(4, 3).edges


def test_star_takes_one_spoke_cost_pair_per_supplier():
    # Too few pairs left the missing suppliers shipping at zero cost; too
    # many died with an IndexError.
    for pairs in ([(1.0, 1.0)], [(1.0, 1.0), (2.0, 1.0), (0.0, 1.0)]):
        with pytest.raises(DimensionMismatch, match=f"{len(pairs)} spoke/trunk pairs for 2 suppliers"):
            star_network([2.0, 3.0], spoke_costs=pairs)
    with pytest.raises(DimensionMismatch, match="spoke_costs\\[1\\] has length 3"):
        star_network([2.0, 3.0], spoke_costs=[(1.0, 1.0), (1.0, 1.0, 1.0)])
    net = star_network([2.0, 3.0], spoke_costs=[(1.0, 1.0), (3.0, 0.0)])
    assert net.edge_costs.tolist() == [[1.0, 0.0, 1.0], [0.0, 3.0, 0.0]]


# ---------------------------------------------------------------------------
# Star structure (three suppliers, route costs 2/3/4, congestion weight 1, demand 5)


def test_star_paths_and_incidence():
    inst = three_star()
    assert inst.paths.paths[(0, 0)] == ((0, 3),)
    assert inst.paths.paths[(2, 0)] == ((2, 3),)
    assert inst.incidence.used_edges == (0, 1, 2, 3)
    np.testing.assert_allclose(inst.incidence.kappa[0], [1.0, 0.0, 0.0, 1.0 / 3.0])
    np.testing.assert_allclose(inst.incidence.kappa[1], [0.0, 1.0, 0.0, 1.0 / 3.0])
    np.testing.assert_allclose(inst.incidence.Q[0].ravel(), [1.0, 0.0, 0.0, 1.0])


def test_kappa_sums_to_one_per_used_edge():
    inst = three_star()
    total = sum(inst.incidence.kappa)
    np.testing.assert_allclose(total, np.ones(4), atol=1e-15)


def test_star_objective_matrices():
    inst = three_star()
    p = inst.problem
    e1 = np.zeros(3)
    e1[0] = 1.0
    expected_alg = 2.0 * np.outer(e1, e1) + (2.0 / 3.0) * np.ones((3, 3))
    np.testing.assert_allclose(p.algorithmic[0].sigma, expected_alg, atol=1e-12)
    expected_act = np.array([[4.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    np.testing.assert_allclose(p.actual[0].sigma, expected_act, atol=1e-12)
    np.testing.assert_allclose(p.algorithmic[0].psi, [2.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(p.actual[2].psi, [0.0, 0.0, 4.0], atol=1e-15)


def test_star_local_rows_bound_each_agent():
    inst = three_star()
    poly = inst.problem.local[0]
    # nonnegativity plus the inventory cap at the total demand
    np.testing.assert_allclose(poly.B, [[-1.0], [1.0]])
    np.testing.assert_allclose(poly.m, [0.0, 5.0])


def test_star_centralized_solution():
    inst = three_star()
    sol = centralized_solve(inst.problem)
    np.testing.assert_allclose(sol.x, [13.0 / 6.0, 5.0 / 3.0, 7.0 / 6.0], atol=1e-8)
    np.testing.assert_allclose(sol.lam, [49.0 / 3.0], atol=1e-8)
    assert abs(sol.value - 287.0 / 6.0) < 1e-7


def test_star_split_costs_change_nothing_but_split():
    inst = build_instance(star_network([2.0, 3.0, 4.0], c0=1.0, d=5.0, spoke_costs=[(1.0, 1.0), (3.0, 0.0), (0.5, 3.5)]), R=1, L=2)
    sol = centralized_solve(inst.problem)
    np.testing.assert_allclose(sol.x, [13.0 / 6.0, 5.0 / 3.0, 7.0 / 6.0], atol=1e-8)


def test_star_bad_split_rejected():
    with pytest.raises(DimensionMismatch):
        star_network([2.0, 3.0], spoke_costs=[(1.0, 0.5), (3.0, 0.0)])


# ---------------------------------------------------------------------------
# Assembly on a hand-built network: a 3-edge route, parallel edges, two
# commodities, finite and infinite pair capacities


def relay_network():
    """Suppliers 0, 1; demanders 2, 3; relays 4, 5. Edges 3 and 4 both run
    0 -> 2, and supplier 0's route (0, 1, 2) to node 2 has three edges."""
    edges = ((0, 4), (4, 5), (5, 2), (0, 2), (0, 2), (1, 4), (4, 3), (1, 3), (4, 2))
    return TransportNetwork(
        n_nodes=6,
        edges=edges,
        suppliers=(0, 1),
        demanders=(2, 3),
        inventories=np.array([[6.0, 5.0], [4.0, 7.0]]),
        demands=np.array([[2.0, 1.5], [1.0, 3.0]]),
        edge_costs=np.random.default_rng(5).uniform(0.5, 3.0, size=(2, len(edges))),
        c0=0.7,
        pair_capacity=np.array([[np.inf, 6.0], [4.0, 7.0]]),
    )


def route_sums(inst, i, costs):
    return [sum(costs[e] for e in inst.paths.paths[(i, j)][r]) for j, _, r in inst.var_labels[i]]


def test_relay_psi_sums_edge_costs_along_each_route():
    inst = build_instance(relay_network(), R=4, L=3)
    assert inst.paths.paths[(0, 0)] == ((3,), (4,), (0, 8), (0, 1, 2))
    p, costs = inst.problem, inst.network.edge_costs
    for i in range(2):
        for obj in (p.algorithmic[i], p.actual[i]):
            np.testing.assert_allclose(obj.psi[p.block(i)], route_sums(inst, i, costs[i]), rtol=1e-15)
            assert not np.delete(obj.psi, range(p.n_total)[p.block(i)]).any()
    reported = costs[1] * np.linspace(0.5, 2.0, costs.shape[1])
    rp = inst.with_reported_costs({1: reported}).reported
    np.testing.assert_allclose(rp.algorithmic[1].psi[p.block(1)], route_sums(inst, 1, reported), rtol=1e-15)
    np.testing.assert_array_equal(rp.actual[0].psi, p.actual[0].psi)


def test_relay_coupling_and_local_rows_follow_the_labels():
    inst = build_instance(relay_network(), R=4, L=3)
    p, net = inst.problem, inst.network
    for i, labels in enumerate(inst.var_labels):
        j, k, _ = np.array(labels).T
        n_i = len(labels)
        np.testing.assert_array_equal(p.A[i], (np.arange(4)[:, None] == 2 * j + k).astype(float))
        finite = [jj for jj in range(2) if np.isfinite(net.pair_capacity[i, jj])]
        B, m = p.local[i].B, p.local[i].m
        assert B.shape == (n_i + 2 + len(finite), n_i)
        np.testing.assert_array_equal(B[:n_i], -np.eye(n_i))
        for kk in range(2):
            np.testing.assert_array_equal(B[n_i + kk], k == kk)
        for row, jj in enumerate(finite):
            np.testing.assert_array_equal(B[n_i + 2 + row], j == jj)
        np.testing.assert_array_equal(m, np.concatenate([np.zeros(n_i), net.inventories[i], net.pair_capacity[i, finite]]))
    assert len(p.local[0].m) == len(inst.var_labels[0]) + 3 and len(p.local[1].m) == len(inst.var_labels[1]) + 4


# ---------------------------------------------------------------------------
# Decomposition identities


def test_decompositions_agree_with_total_congestion_cost():
    inst = three_star()
    p = inst.problem
    rng = np.random.default_rng(7)
    Q = np.zeros((4, 3))
    for i in range(3):
        Q[:, i] = inst.incidence.Q[i].ravel()
    for _ in range(10):
        x = rng.uniform(0.0, 3.0, size=3)
        loads = Q @ x
        total = float(loads @ loads) + np.dot([2.0, 3.0, 4.0], x)
        assert abs(p.total_value(x, "actual") - total) < 1e-10
        assert abs(p.total_value(x, "algorithmic") - total) < 1e-10
        per_agent = sum(eval_cost(p, i, x) for i in range(3))
        assert abs(per_agent - total) < 1e-10


def test_per_agent_algorithmic_hessians_psd():
    inst = random_instance((4, 2, 3, 2), seed=3)
    for obj in inst.problem.algorithmic:
        eigmin = float(np.linalg.eigvalsh(obj.sigma).min())
        assert eigmin >= -1e-10


def test_objectives_hold_factors_of_the_route_incidence():
    # 2N dense n x n Hessians took 26.4 MB here; factors over each agent's
    # used edges take about 1.2 MB.
    p = random_instance((16, 4, 3, 2), seed=7).problem
    held = sum(a.nbytes for obj in p.algorithmic + p.actual for a in vars(obj).values())
    assert held <= 2e6


def test_random_instance_decomposition_identity():
    inst = random_instance((4, 2, 3, 2), seed=3)
    p = inst.problem
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(0.0, 1.0, size=p.n_total)
        a = p.total_value(x, "actual")
        b = p.total_value(x, "algorithmic")
        c = sum(eval_cost(p, i, x) for i in range(p.n_agents))
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))
        assert abs(a - c) < 1e-10 * max(1.0, abs(a))


# ---------------------------------------------------------------------------
# Random generator


def test_random_instance_feasible_and_covered():
    inst = random_instance((4, 2, 3, 2), seed=3)
    net, p = inst.network, inst.problem
    assert p.n_coupling == net.n_demanders * net.n_commodities
    for j in range(net.n_demanders):
        assert sum(1 for i in range(net.n_suppliers) if inst.paths.count(i, j) > 0) >= 2
    sol = centralized_solve(p)
    assert sol.value > 0
    for i in range(net.n_suppliers):
        centralized_solve(exclude_agent(p, i))


def test_random_instance_deterministic():
    a = random_instance((3, 2, 2, 2), seed=42)
    b = random_instance((3, 2, 2, 2), seed=42)
    c = random_instance((3, 2, 2, 2), seed=43)
    da = network_to_dict(a.network, a.R, a.L)
    db = network_to_dict(b.network, b.R, b.L)
    dc = network_to_dict(c.network, c.R, c.L)
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    assert json.dumps(da, sort_keys=True) != json.dumps(dc, sort_keys=True)


def test_generator_draws_are_pinned():
    # random_instance screens each draw with N+1 centralized solves; only
    # their feasible/infeasible answers matter, and a change in the QP kernel
    # must not change which draws are accepted.
    digest = hashlib.sha256()
    for s in range(10):
        inst = random_instance((4, 2, 3, 2), seed=s)
        digest.update(json.dumps(network_to_dict(inst.network, inst.R, inst.L), sort_keys=True).encode())
    assert digest.hexdigest() == "161e1095fbdce733c7361e4b2e240294cb6d2ec2f21f9737807745cf55ad922f"


def test_saved_instances_are_pinned(tmp_path):
    # The drop-one screens start warm; the files they accept must not move.
    digest = hashlib.sha256()
    for scale, s in [((4, 2, 3, 2), 0), ((4, 2, 3, 2), 1), ((4, 2, 3, 2), 2), ((6, 3, 3, 2), 0), ((6, 3, 3, 2), 1), ((8, 3, 3, 2), 7)]:
        inst = random_instance(scale, seed=s)
        save_instance(tmp_path / "inst.json", inst.network, inst.R, inst.L)
        digest.update((tmp_path / "inst.json").read_bytes())
    assert digest.hexdigest() == "8b805bce0fa2e4f61297f4085c9323483c63bbc616d4b575ea63f73b176177b8"


def test_coupling_rows_match_demand_layout():
    inst = random_instance((3, 2, 2, 2), seed=5)
    p, net = inst.problem, inst.network
    sol = centralized_solve(p)
    shipped = p.stacked_A() @ sol.x
    np.testing.assert_allclose(shipped, net.demands.reshape(-1), atol=1e-6)


# ---------------------------------------------------------------------------
# Reported problems


def test_reported_costs_rebuild_matches_known_optimum():
    inst = three_star()
    fake = np.zeros(4)
    fake[0] = 1.0  # route cost 2 -> 1 on agent 0's spoke
    rp = inst.with_reported_costs({0: fake})
    sol = centralized_solve(rp.pick("reported"))
    np.testing.assert_allclose(sol.x, [2.5, 1.5, 1.0], atol=1e-8)
    np.testing.assert_allclose(sol.lam, [16.0], atol=1e-8)
    truth = centralized_solve(rp.pick("true"))
    np.testing.assert_allclose(truth.x, [13.0 / 6.0, 5.0 / 3.0, 7.0 / 6.0], atol=1e-8)


def test_reported_problem_swaps_only_psi():
    inst = random_instance((4, 2, 3, 2), seed=1)
    net, p = inst.network, inst.problem
    reports = {0: 0.5 * net.edge_costs[0], 2: net.edge_costs[2] + 1.0}
    reported = inst.with_reported_costs(reports).reported
    costs = net.edge_costs.copy()
    for i, c in reports.items():
        costs[i] = c
    rebuilt = to_coupled_problem(dataclasses.replace(net, edge_costs=costs), inst.paths, inst.incidence)
    same = lambda a, b: a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    for side in ("algorithmic", "actual"):
        for new, ref, true in zip(getattr(reported, side), getattr(rebuilt, side), getattr(p, side)):
            assert same(new.sigma, ref.sigma) and same(new.psi, ref.psi)
            assert new.F is true.F and new.D is true.D
    assert reported.dims == rebuilt.dims and same(reported.d, rebuilt.d)
    assert all(same(a, b) for a, b in zip(reported.A, rebuilt.A))
    assert all(same(a.B, b.B) and same(a.m, b.m) for a, b in zip(reported.local, rebuilt.local))


def test_perturbed_reports_shift_used_edges_and_clip():
    inst = three_star()
    rp = inst.perturbed_reports({1: -1.0})
    # route cost 3 spread as 3 on the spoke, 0 on the trunk: spoke drops to 2,
    # trunk clips at 0, so the reported route cost is 2.
    np.testing.assert_allclose(rp.reported.algorithmic[1].psi, [0.0, 2.0, 0.0], atol=1e-15)
    rp2 = inst.perturbed_reports({0: -100.0})
    np.testing.assert_allclose(rp2.reported.algorithmic[0].psi, [0.0, 0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("agent", [-1, 4])
def test_used_edges_of_an_unknown_agent_are_rejected(agent):
    inst = random_instance((4, 2, 3, 2), 1)
    with pytest.raises(UnknownAgent, match=f"agent {agent} of 4"):
        inst.used_edge_indices(agent)


@pytest.mark.parametrize("agent", [3, 99, -1])
def test_reports_of_an_unknown_agent_are_rejected(agent):
    inst = three_star()
    with pytest.raises(UnknownAgent, match=f"agent {agent} of 3"):
        inst.perturbed_reports({agent: 1.0})
    with pytest.raises(UnknownAgent):
        inst.with_reported_costs({agent: np.zeros(inst.network.n_edges)})
    with pytest.raises(UnknownAgent):
        misreport_sweep(inst, agent, [0.1])


def test_reported_costs_dimension_check():
    inst = three_star()
    with pytest.raises(DimensionMismatch):
        inst.with_reported_costs({0: np.zeros(3)})
    for bad in (np.nan, np.inf, -np.inf):
        costs = np.array(inst.network.edge_costs[0], float)
        costs[0] = bad
        with pytest.raises(DimensionMismatch, match="not finite"):
            inst.with_reported_costs({0: costs})


# ---------------------------------------------------------------------------
# Serialization


def test_round_trip_through_dict_and_file(tmp_path):
    inst = random_instance((3, 2, 2, 2), seed=9)
    data = network_to_dict(inst.network, inst.R, inst.L, comm_edges=[(0, 1), (1, 2)])
    net2, r2, l2, comm = network_from_dict(data)
    assert r2 == inst.R and l2 == inst.L
    assert comm is not None and comm.edges == frozenset({(0, 1), (1, 2)})
    np.testing.assert_array_equal(net2.edge_costs, inst.network.edge_costs)
    np.testing.assert_array_equal(net2.demands, inst.network.demands)

    path = tmp_path / "instance.json"
    save_instance(path, inst.network, inst.R, inst.L, comm_edges=[(0, 1), (1, 2)])
    inst2, comm2 = load_instance(path)
    assert inst2.problem.dims == inst.problem.dims
    sol1 = centralized_solve(inst.problem)
    sol2 = centralized_solve(inst2.problem)
    np.testing.assert_allclose(sol1.x, sol2.x, atol=1e-9)
    assert comm2 is not None

    # byte stability: same dict serializes identically
    s1 = json.dumps(network_to_dict(inst.network, inst.R, inst.L), sort_keys=True)
    s2 = json.dumps(network_to_dict(inst.network, inst.R, inst.L), sort_keys=True)
    assert s1 == s2


def test_infinite_capacity_round_trips_as_null():
    net = star_network([1.0, 2.0], c0=0.5, d=2.0)
    data = network_to_dict(net, 1, 2)
    assert data["pair_capacity"][0][0] is None
    net2, _, _, _ = network_from_dict(data)
    assert np.isinf(net2.pair_capacity).all()


@pytest.mark.parametrize("field, nodes", [("suppliers", (0, 99)), ("suppliers", (-1, 1)), ("demanders", (4,))])
def test_nodes_outside_the_network_are_rejected(tmp_path, field, nodes):
    # Left unchecked, supplier 99 of a 4-node star had no routes and 0 variables.
    net = dataclasses.replace(star_network([1.0, 2.0]), **{field: nodes})
    with pytest.raises(DimensionMismatch, match="outside"):
        build_instance(net, R=1)
    path = tmp_path / "instance.json"
    save_instance(path, net, 1, 4)
    with pytest.raises(DimensionMismatch, match="outside"):
        load_instance(path)


@pytest.mark.parametrize("edge", [(0, 0), (0, 4), (-1, 3), (0, 1, 3), (2,), ()])  # an edge that is not a pair failed to unpack
def test_self_loops_and_edges_outside_the_network_are_invalid_edges(edge):
    net = star_network([1.0, 2.0])  # nodes 0-3
    with pytest.raises(InvalidEdge, match=f"bad edge \\({','.join(map(str, edge))}\\)"):
        build_instance(dataclasses.replace(net, edges=(edge, *net.edges[1:])), R=1)


def test_unsupported_schema_rejected():
    net = star_network([1.0, 2.0])
    data = network_to_dict(net, 1, 2)
    data["schema_version"] = 99
    with pytest.raises(DimensionMismatch):
        network_from_dict(data)
