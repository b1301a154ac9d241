"""Distributed solver: initialization invariants, exchange rounds, subproblem
behavior, per-iteration identities, convergence against the centralized
oracle, mode equivalence, and trace output."""

import copy
import csv
import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disqo.admm import (
    IterTrace,
    SolverParams,
    _finish_round,
    _linear_terms,
    _own_couplings,
    _reductions,
    _row,
    _schur_lift,
    _solve_agent,
    _subproblem_hessian,
    communication_round_tracking,
    init_state,
    iterate,
    metrics,
    solve,
)
from disqo.errors import DecompositionMismatch, DimensionMismatch, InfeasibleInitialPoint, MaxIterReached
from disqo.graphs import build_graph, metropolis_weights, random_connected_graph
from disqo.problem import assemble_problem, centralized_solve, reconcile_dual
from disqo.qp import RepeatedQp
from disqo.star import StarInstance, to_transport
from disqo.transport import build_instance, random_instance, star_network

K3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
P3 = build_graph(3, [(0, 1), (1, 2)])


def agent_step(state, i, gamma, ell):
    """Agent i's subproblem solved on its own from the mixed estimates (one row per agent, or one row for all): its new full copy."""
    return _solve_agent(state, i, _linear_terms(state, gamma, ell, _own_couplings(state.A_pad, state.Y))[i])


def star_problem():
    return to_transport(StarInstance([2.0, 3.0, 4.0], 1.0, 5.0)).problem


def single_agent_problem(sigma=2.0, psi=0.0, d=1.0):
    return assemble_problem(
        agents=[(np.array([[sigma]]), np.array([psi]), np.array([[-1.0]]), np.array([0.0]))],
        A=[np.array([[1.0]])],
        d=np.array([d]),
    )


def twin_agent_problem():
    """Two agents with literally identical objectives and local sets."""
    sigma = np.array([[2.0, 0.5], [0.5, 2.0]])
    psi = np.array([1.0, 1.0])
    B = np.array([[-1.0]])
    m = np.array([0.0])
    return assemble_problem(
        agents=[(sigma, psi, B, m), (sigma, psi, B, m)],
        A=[np.array([[1.0]]), np.array([[1.0]])],
        d=np.array([3.0]),
    )


def dense_coupling_problem():
    """Three agents on a box each, coupled by dense blocks of non-unit entries."""
    rng = np.random.default_rng(3)
    dims = (3, 4, 3)
    n = sum(dims)
    agents = []
    for dim in dims:
        M = rng.normal(size=(n, n))
        agents.append((M.T @ M / n + np.eye(n), rng.normal(size=n), np.vstack([np.eye(dim), -np.eye(dim)]), np.ones(2 * dim)))
    return assemble_problem(agents, [rng.uniform(0.3, 2.0, size=(3, dim)) for dim in dims], rng.uniform(-1.0, 1.0, size=3))


# ---------------------------------------------------------------------------
# Parameters


def test_params_validation():
    with pytest.raises(DimensionMismatch):
        SolverParams(sigma=0.0)
    with pytest.raises(DimensionMismatch):
        SolverParams(rho=-1.0)
    with pytest.raises(DimensionMismatch):
        SolverParams(max_iter=0)
    with pytest.raises(DimensionMismatch):
        SolverParams(mode="fast")


@pytest.mark.parametrize("field", ["sigma", "rho", "max_iter", "violation_tol", "step_tol"])
def test_params_reject_a_value_that_is_not_a_finite_number(field):
    # An infinite tolerance would call the first round converged.
    for bad in (np.nan, np.inf, -np.inf, True):
        with pytest.raises(DimensionMismatch, match=f"{field} must be"):
            SolverParams(**{field: bad})
    assert getattr(SolverParams(**{field: 1}), field) == 1


@pytest.mark.parametrize("max_iter", [1e3, 2.5, "100", True])
def test_params_reject_a_round_budget_that_is_not_an_integer(max_iter):
    with pytest.raises(DimensionMismatch, match="max_iter must be an integer"):
        SolverParams(max_iter=max_iter)
    assert SolverParams(max_iter=np.int64(3)).max_iter == 3


# ---------------------------------------------------------------------------
# Initialization


def test_default_init_from_zero():
    p = star_problem()
    state = init_state(p, K3, SolverParams())
    np.testing.assert_array_equal(state.Y, 0.0)
    np.testing.assert_array_equal(state.Lam, 0.0)
    np.testing.assert_allclose(state.H, -5.0 / 3.0, atol=1e-15)
    np.testing.assert_array_equal(state.V, 0.0)


def test_init_from_replicated_optimum_has_zero_mean_tracking():
    p = star_problem()
    ref = centralized_solve(p)
    y0 = np.tile(ref.x, (3, 1))
    state = init_state(p, K3, SolverParams(), y0=y0)
    assert float(np.abs(state.H.mean(axis=0)).max()) < 1e-9
    # v starts at the average of incident edge midpoints = the common copy
    np.testing.assert_allclose(state.V, y0, atol=1e-12)


def test_init_rejects_infeasible_start():
    p = star_problem()
    y0 = np.zeros((3, 3))
    y0[1, 1] = -0.5  # violates x >= 0 on agent 1's own block
    with pytest.raises(InfeasibleInitialPoint):
        init_state(p, K3, SolverParams(), y0=y0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_init_rejects_a_start_that_is_not_finite(bad):
    # A NaN passed the local-rows test, and the run failed in round 1 naming
    # the linear term; an infinity set off numpy warnings first.
    y0 = np.zeros((3, 3))
    y0[1, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match=r"y0\[1\] must be finite"):
            init_state(star_problem(), K3, SolverParams(), y0=y0)


def test_default_init_when_origin_infeasible():
    # local set x >= 1 excludes the origin; the minimum-norm point is 1
    p = assemble_problem(
        agents=[(np.array([[2.0]]), np.array([0.0]), np.array([[-1.0]]), np.array([-1.0]))],
        A=[np.array([[1.0]])],
        d=np.array([2.0]),
    )
    g1 = build_graph(1, [])
    state = init_state(p, g1, SolverParams())
    np.testing.assert_allclose(state.Y[0], [1.0], atol=1e-8)
    np.testing.assert_allclose(state.H[0], [1.0 - 2.0], atol=1e-8)


def test_init_tracking_identity_holds():
    inst = random_instance((3, 2, 2, 2), seed=5)
    g = random_connected_graph(3, np.random.default_rng(1))
    state = init_state(inst.problem, g, SolverParams())
    lhs = 3 * state.H.mean(axis=0)
    rhs = state.coupling_values() - inst.problem.d
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("mode", ["plain", "accelerated"])
def test_first_estimates_are_the_rounds_own_products(mode):
    # eta_0 is the round's coupling product less d/N, and v_0 (y_i/2 plus
    # half the neighbours' mean) comes from the round's anchor arrays, bit for
    # bit. Dense non-unit couplings tell the product from other sum orders.
    p = dense_coupling_problem()
    y0 = np.tile(np.concatenate([np.full(3, 0.5), np.full(4, -0.25), np.full(3, 0.75)]), (3, 1))
    y0 += np.random.default_rng(5).uniform(-0.2, 0.2, size=y0.shape)
    state = init_state(p, P3, SolverParams(mode=mode), y0=y0)
    np.testing.assert_array_equal(state.H, _own_couplings(state.A_pad, state.Y) - p.d / 3)
    adj_mean = (state.adjacency @ state.Y) / state._anchor_deg
    np.testing.assert_array_equal(state.V, state.Y + state._anchor_half * (adj_mean - state.Y))
    np.testing.assert_allclose(state.V[1], (state.Y[0] + 2 * state.Y[1] + state.Y[2]) / 4, rtol=1e-15, atol=1e-15)


def test_init_graph_size_mismatch():
    with pytest.raises(DimensionMismatch):
        init_state(star_problem(), build_graph(2, [(0, 1)]), SolverParams())


@pytest.mark.parametrize("actual_sigma, actual_psi", [((8.0, 2.0), (0.0, 0.0)), ((2.0, 2.0), (1.0, 0.0))], ids=["hessian", "linear-term"])
def test_init_rejects_decompositions_with_different_totals(actual_sigma, actual_psi):
    # x0 + x1 = 2 with algorithmic total diag(2, 2): the distributed solver
    # would settle at [1, 1], while the actual costs put the optimum elsewhere
    # (at [0.4, 1.6] for the actual Hessian diag(8, 2)).
    e = np.eye(2)
    p = assemble_problem(
        agents=[(2.0 * np.outer(e[i], e[i]), np.zeros(2), None, None) for i in range(2)],
        A=[np.array([[1.0]]), np.array([[1.0]])],
        d=np.array([2.0]),
        actual=[(actual_sigma[i] * np.outer(e[i], e[i]), actual_psi[i] * e[i]) for i in range(2)],
    )
    g = build_graph(2, [(0, 1)])
    with pytest.raises(DecompositionMismatch, match="differ by"):
        init_state(p, g, SolverParams())
    with pytest.raises(DecompositionMismatch):
        solve(p, g, SolverParams())


# ---------------------------------------------------------------------------
# Exchange round


def test_exchange_on_two_agents_averages():
    g = build_graph(2, [(0, 1)])
    W = metropolis_weights(g)
    eta = np.array([[2.0], [4.0]])
    lam = np.array([[1.0], [3.0]])
    gamma, ell = communication_round_tracking(eta, lam, W)
    np.testing.assert_allclose(gamma, [[3.0], [3.0]])
    np.testing.assert_allclose(ell, [[2.0], [2.0]])


def test_exchange_on_path_graph():
    W = metropolis_weights(P3)
    eta = np.array([[1.0], [0.0], [0.0]])
    gamma, _ = communication_round_tracking(eta, eta, W)
    np.testing.assert_allclose(gamma.ravel(), [0.75, 0.25, 0.0])


# ---------------------------------------------------------------------------
# Subproblem


def test_subproblem_single_agent_hand_computed():
    # f(y) = y^2 + y, coupling A = [1], d = 3, start y=0:
    # gamma = eta(0) = -3, l = 0, no consensus term (no neighbors), so the
    # step minimizes y^2 + y + 0.5 (y - 3)^2 -> 3y = 2 -> y = 2/3.
    p = assemble_problem(
        agents=[(np.array([[2.0]]), np.array([1.0]), None, None)],
        A=[np.array([[1.0]])],
        d=np.array([3.0]),
    )
    g1 = build_graph(1, [])
    state = init_state(p, g1, SolverParams())
    y = agent_step(state, 0, state.H, state.Lam)
    np.testing.assert_allclose(y, [2.0 / 3.0], atol=1e-10)
    iterate(state)
    np.testing.assert_allclose(state.Y[0], [2.0 / 3.0], atol=1e-10)
    np.testing.assert_allclose(state.H[0], [-3.0 + 2.0 / 3.0], atol=1e-10)
    np.testing.assert_allclose(state.Lam[0], [-7.0 / 3.0], atol=1e-10)


def test_subproblem_vanishing_penalties_recover_local_minimum():
    # strictly convex objective, no local rows: as sigma, rho -> 0 the step
    # approaches the plain minimizer of the agent objective
    sigma = np.array([[2.0, 0.5], [0.5, 2.0]])
    psi = np.array([1.0, 1.0])
    p = assemble_problem(
        agents=[(sigma, psi, None, None), (sigma, psi, None, None)],
        A=[np.array([[1.0]]), np.array([[1.0]])],
        d=np.array([3.0]),
    )
    g = build_graph(2, [(0, 1)])
    params = SolverParams(sigma=1e-9, rho=1e-9)
    state = init_state(p, g, params)
    y = agent_step(state, 0, np.zeros(1), np.zeros(1))
    expected = np.linalg.solve(sigma, -psi)
    np.testing.assert_allclose(y, expected, atol=1e-6)


def test_subproblem_larger_rho_pulls_toward_anchor():
    p = star_problem()
    target = np.array([1.0, 2.0, 3.0])
    dists = []
    for rho in (1.0, 10.0, 100.0):
        state = init_state(p, K3, SolverParams(rho=rho))
        state.V[0] = target
        y = agent_step(state, 0, state.H, state.Lam)
        dists.append(float(np.linalg.norm(y - target)))
    assert dists[0] > dists[1] > dists[2]


def test_accelerated_subproblem_matches_plain():
    inst = random_instance((3, 2, 2, 2), seed=5)
    g = random_connected_graph(3, np.random.default_rng(2))
    plain = init_state(inst.problem, g, SolverParams(mode="plain"))
    accel = init_state(inst.problem, g, SolverParams(mode="accelerated"))
    rng = np.random.default_rng(0)
    for i in range(3):
        gamma = rng.normal(size=inst.problem.n_coupling)
        ell = rng.normal(size=inst.problem.n_coupling)
        plain.V[i] = accel.V[i] = rng.normal(size=inst.problem.n_total) * 0.1
        y_plain = agent_step(plain, i, gamma, ell)
        y_acc = agent_step(accel, i, gamma, ell)
        np.testing.assert_allclose(y_acc, y_plain, atol=1e-8)
        blk = inst.problem.block(i)
        w, z = y_acc[blk], np.delete(y_acc, blk)
        np.testing.assert_allclose(w, y_plain[blk], atol=1e-8)
        assert w.shape[0] == inst.problem.dims[i]
        assert z.shape[0] == inst.problem.n_total - inst.problem.dims[i]


@pytest.mark.parametrize("mode, stacks", [("plain", 1), ("accelerated", 0)])
def test_only_plain_set_up_stacks_the_local_rows(mode, stacks, monkeypatch):
    # Accelerated subproblems keep each agent's own rows B_i; only plain ones
    # take their rows from the block-diagonal stack over the full vector.
    p = random_instance((4, 2, 3, 2), seed=1).problem
    calls = []
    stacked = type(p).local_stacked
    monkeypatch.setattr(type(p), "local_stacked", lambda self: calls.append(self) or stacked(self))
    init_state(p, random_connected_graph(4, np.random.default_rng(1)), SolverParams(mode=mode))
    assert len(calls) == stacks


def test_accelerated_unconstrained_step_is_schur_solve():
    p = twin_agent_problem()
    g = build_graph(2, [(0, 1)])
    state = init_state(p, g, SolverParams(mode="accelerated"))
    state.V[0] = np.array([0.4, 0.6])
    gamma = np.array([-1.0])
    ell = np.array([0.5])
    w = agent_step(state, 0, gamma, ell)[p.block(0)]
    S_wz = _subproblem_hessian(state, 0)[:1, 1:]
    q = p.algorithmic[0].psi - 1.0 * state.V[0]
    q[0] += 1.0 * (ell[0] + 1.0 * (gamma[0] - 0.0))
    phi = state._batch.qps[0].P
    psi_red = q[0] - S_wz @ np.linalg.solve(np.array([[3.0]]), q[1:])
    expected_w = -psi_red / phi[0, 0]
    if expected_w < 0:  # own-block row x >= 0
        expected_w = 0.0
    np.testing.assert_allclose(w, [expected_w], atol=1e-9)


@pytest.mark.parametrize("blk", [slice(0, 3), slice(2, 5), slice(4, 7)], ids=["first", "middle", "last"])
def test_schur_lift_is_partial_minimization(blk):
    # y = R' w + Kq q keeps w on the own block and minimizes over the rest,
    # and the reduced gradient Phi w + R q is the full gradient on the block.
    rng = np.random.default_rng(11)
    n = 7
    M = rng.normal(size=(n, n))
    P = M.T @ M + np.eye(n)
    Phi, R, Kq = _schur_lift(P, blk)
    rest = np.setdiff1d(np.arange(n), np.arange(blk.start, blk.stop))
    for _ in range(5):
        q, w = rng.normal(size=n), rng.normal(size=blk.stop - blk.start)
        y = R.T @ w + Kq @ q
        grad = P @ y + q
        np.testing.assert_allclose(y[blk], w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad[rest], 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(Phi @ w + R @ q, grad[blk], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Iteration identities and symmetry


def test_identities_hold_along_the_run():
    inst = random_instance((3, 2, 2, 2), seed=5)
    g = random_connected_graph(3, np.random.default_rng(7))
    state = init_state(inst.problem, g, SolverParams())
    for _ in range(50):
        lam_mean_before = state.Lam.mean(axis=0)
        iterate(state)
        lhs = 3 * state.H.mean(axis=0)
        rhs = state.coupling_values() - inst.problem.d
        assert float(np.abs(lhs - rhs).max()) <= 1e-10
        expected = lam_mean_before + state.params.sigma * state.H.mean(axis=0)
        assert float(np.abs(state.Lam.mean(axis=0) - expected).max()) <= 1e-10


def test_identical_twin_agents_stay_mirror_images():
    # the two agents are exchangeable up to swapping the two coordinates, so
    # their copies stay mirror images and their duals stay equal at every k
    p = twin_agent_problem()
    g = build_graph(2, [(0, 1)])
    state = init_state(p, g, SolverParams())
    for _ in range(25):
        iterate(state)
        np.testing.assert_allclose(state.Y[0], state.Y[1][::-1], atol=1e-14)
        np.testing.assert_allclose(state.Lam[0], state.Lam[1], atol=1e-14)
        np.testing.assert_allclose(state.H[0], state.H[1], atol=1e-14)


# ---------------------------------------------------------------------------
# Metrics


def test_metrics_zero_violation_at_consensus_feasible_point():
    p = star_problem()
    ref = centralized_solve(p)
    state = init_state(p, K3, SolverParams(), y0=np.tile(ref.x, (3, 1)))
    row = metrics(state)
    assert row["violation"] < 1e-8
    assert math.isnan(row["rel_error"])


def test_metrics_counts_both_ordered_pairs():
    p = twin_agent_problem()
    g = build_graph(2, [(0, 1)])
    state = init_state(p, g, SolverParams())
    v = np.array([0.3, -0.4])
    state.Y[0] = np.zeros(2)
    state.Y[1] = v
    row = metrics(state)
    coupling = float(np.linalg.norm(state.coupling_values() - p.d))
    assert abs(row["violation"] - (coupling + 2 * 0.5)) < 1e-12


def _metrics_from_arrays(state, reference_value):
    """The trace row, by the textbook formula on each of the state's arrays."""
    p, Y = state.problem, state.Y
    first, second = np.triu_indices(state.n_agents, 1)
    # The coupling gap is summed over the agents' rows A~_i y_i, one batched
    # product, as admm sums it: einsum's own order of the sum differs in the
    # last bits once a coupling row has several non-unit entries.
    gap = np.add.reduce((state.A_pad @ Y[..., None])[..., 0], 0) - p.d
    violation = float(np.linalg.norm(gap)) + 2.0 * float(np.linalg.norm(Y[first] - Y[second], axis=1).sum())
    total = sum(p.algorithmic[i].value(Y[i]) for i in range(state.n_agents))
    lambda_bar = state.Lam.mean(axis=0)
    eps1 = float(np.linalg.norm(state.H - state.H.mean(axis=0)))
    eps2 = float(np.linalg.norm(state.Lam - lambda_bar))
    return [state.k, abs(total - reference_value) / abs(reference_value), violation, eps1, eps2, *lambda_bar.tolist()]


@pytest.mark.parametrize("name", ["Y", "H", "Lam"])
def test_metrics_reflect_an_in_place_edit_after_a_round(name):
    # the round hands metrics the reductions of its identity checks; an edit
    # of an array they came from must still show in the row
    p = random_instance((4, 2, 3, 2), seed=1).problem
    state = init_state(p, random_connected_graph(4, np.random.default_rng(1)), SolverParams())
    for _ in range(3):
        iterate(state)
    getattr(state, name)[0] += 0.25
    ref = centralized_solve(p).value
    row = metrics(state, ref)
    keys = ("iter", "rel_error", "violation", "eps1_norm", "eps2_norm")
    assert [row[key] for key in keys] + row["lambda_bar"].tolist() == _metrics_from_arrays(state, ref)


@pytest.mark.parametrize("mode", ["plain", "accelerated"])
def test_every_trace_row_is_the_metrics_of_its_state(mode):
    # the round may share work with metrics only if every row solve records
    # is, bit for bit, what the state's own arrays give; on the dense market
    # the coupling rows have non-unit entries, so a sum's order shows
    params = SolverParams(mode=mode, max_iter=50, violation_tol=0.0, step_tol=0.0)
    for p in (random_instance((4, 2, 3, 2), seed=1).problem, dense_coupling_problem()):
        g = random_connected_graph(p.n_agents, np.random.default_rng(1))
        ref = centralized_solve(p).value
        res = solve(p, g, params, reference_value=ref)
        rows = [row[:-1] for row in res.trace.rows()]  # without wall_ms
        assert len(rows) == 51
        state = init_state(p, g, params)
        assert rows[0] == _metrics_from_arrays(state, ref)
        for row in rows[1:]:
            iterate(state)
            assert row == _metrics_from_arrays(state, ref)


def test_metrics_initial_violation_is_demand_norm():
    p = star_problem()
    state = init_state(p, K3, SolverParams())
    row = metrics(state, reference_value=287.0 / 6.0)
    assert abs(row["violation"] - 5.0) < 1e-12
    assert abs(row["rel_error"] - 1.0) < 1e-12


def test_metrics_reports_absolute_error_when_reference_is_zero():
    p = star_problem()
    ref = centralized_solve(p)
    state = init_state(p, K3, SolverParams(), y0=np.tile(ref.x, (3, 1)))
    total = sum(p.algorithmic[i].value(state.Y[i]) for i in range(3))
    assert total != 0.0
    assert metrics(state, reference_value=0.0)["rel_error"] == pytest.approx(abs(total), rel=1e-12)


# ---------------------------------------------------------------------------
# End-to-end solves


def test_accelerated_solve_with_a_supplier_without_routes():
    # Supplier 2 loses its spoke, so its block is empty.
    net = star_network([2.0, 3.0, 4.0])
    keep = [0, 1, 3]
    net = dataclasses.replace(net, edges=tuple(net.edges[e] for e in keep), edge_costs=net.edge_costs[:, keep])
    p = build_instance(net, R=1).problem
    assert p.block(2).stop == p.block(2).start
    ref = centralized_solve(p)
    params = SolverParams(mode="accelerated", max_iter=2000, violation_tol=1e-8, step_tol=1e-8)
    res = solve(p, P3, params)
    assert res.converged
    assert abs(p.total_value(res.x, "actual") - ref.value) <= 1e-6 * abs(ref.value)


@pytest.mark.parametrize("mode", ["plain", "accelerated"])
def test_solve_agents_without_local_rows_and_a_large_linear_term(mode):
    # No agent has local rows, so each subproblem is a QP without rows whose
    # solution is large (|psi| ~ 1e5): its round-off must not read as an
    # objective unbounded below.
    g = build_graph(2, [(0, 1)])
    for seed in range(5):
        rng = np.random.default_rng(seed)
        agents = []
        for _ in range(2):
            M = rng.normal(size=(4, 4))
            agents.append((M.T @ M + np.eye(4), 1e5 * rng.normal(size=4), None, None))
        p = assemble_problem(agents=agents, A=[rng.normal(size=(1, 2)) for _ in range(2)], d=np.array([1.0]))
        ref = centralized_solve(p)
        res = solve(p, g, SolverParams(mode=mode, max_iter=1000))
        assert res.converged, f"seed {seed}"
        np.testing.assert_allclose(res.x, ref.x, rtol=0, atol=1e-9 * np.abs(ref.x).max())


@pytest.mark.parametrize("mode", ["plain", "accelerated"])
def test_identity_checks_scale_with_the_data(mode):
    # At psi ~ 1e6 the copies are ~1e6, so the identities' round-off exceeds
    # 1e-10 in absolute terms: the checks must not abort a well-posed solve.
    g = build_graph(2, [(0, 1)])
    for seed in range(5):
        rng = np.random.default_rng(seed)
        agents = []
        for _ in range(2):
            M = rng.normal(size=(4, 4))
            agents.append((M.T @ M + np.eye(4), 1e6 * rng.normal(size=4), None, None))
        p = assemble_problem(agents=agents, A=[rng.normal(size=(1, 2)) for _ in range(2)], d=np.array([1.0]))
        ref = centralized_solve(p)
        res = solve(p, g, SolverParams(mode=mode, max_iter=1000))
        assert res.converged, f"seed {seed}"
        np.testing.assert_allclose(res.x, ref.x, rtol=0, atol=1e-9 * np.abs(ref.x).max())


@pytest.mark.parametrize("mode", ["plain", "accelerated"])
def test_iterate_returns_the_reductions_of_the_new_state(mode):
    state = _desk_state(1, mode)
    for _ in range(10):
        reduced = iterate(state)
        for got, want in zip(reduced, _reductions(state), strict=True):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["plain", "accelerated"])
def test_an_edit_of_lam_between_rounds_is_no_mean_dual_violation(mode):
    # The next round's mean-dual check must start from the edited mean, not
    # from the mean the previous round reduced.
    state = _desk_state(1, mode)
    for _ in range(5):
        iterate(state)
    state.Lam[0] += 0.25
    lam_mean_before = state.Lam.mean(axis=0)
    iterate(state)
    expected = lam_mean_before + state.params.sigma * state.H.mean(axis=0)
    assert float(np.abs(state.Lam.mean(axis=0) - expected).max()) <= 1e-10


@pytest.mark.parametrize("mode", ["plain", "accelerated"])
def test_identity_check_catches_a_corrupted_tracking_estimate(mode):
    inst = random_instance((3, 2, 2, 2), seed=5)
    state = init_state(inst.problem, random_connected_graph(3, np.random.default_rng(7)), SolverParams(mode=mode))
    for _ in range(5):
        iterate(state)
    state.H[0] += 1e-6
    with pytest.raises(AssertionError, match="tracking identity violated"):
        iterate(state)


def test_star_solve_matches_centralized():
    p = star_problem()
    ref = centralized_solve(p)
    res = solve(p, K3, SolverParams(max_iter=500, violation_tol=1e-8, step_tol=1e-8), reference_value=ref.value)
    assert res.converged
    assert res.iterations <= 500
    np.testing.assert_allclose(res.x, ref.x, atol=1e-4)
    assert res.trace.rel_error[-1] <= 1e-4
    # every agent's dual approaches the same vector, the mirror of the
    # centralized one; reconciliation maps it back
    for i in range(3):
        np.testing.assert_allclose(res.lam[i], -ref.lam, atol=1e-4)
    fixed = reconcile_dual(p, res.x, res.lambda_bar)
    np.testing.assert_allclose(fixed, ref.lam, atol=1e-4)


def test_transport_solve_converges_with_consensus_errors_vanishing():
    inst = random_instance((3, 2, 2, 2), seed=5)
    p = inst.problem
    g = random_connected_graph(3, np.random.default_rng(7))
    ref = centralized_solve(p)
    res = solve(p, g, SolverParams(max_iter=3000, violation_tol=1e-8, step_tol=1e-8), reference_value=ref.value)
    assert res.converged
    # the optimal x is not unique on this instance (parallel routes can trade
    # flow at equal cost), so compare value, feasibility, and duals instead
    assert abs(p.total_value(res.x, "actual") - ref.value) <= 1e-6 * abs(ref.value)
    assert res.trace.rel_error[-1] <= 1e-8
    assert res.trace.eps1_norm[-1] <= 1e-6
    assert res.trace.eps2_norm[-1] <= 1e-6
    assert float(np.abs(res.lam - (-ref.lam)).max()) <= 1e-4


def test_plain_and_accelerated_produce_same_iterates():
    inst = random_instance((3, 2, 2, 2), seed=5)
    g = random_connected_graph(3, np.random.default_rng(7))
    sa = init_state(inst.problem, g, SolverParams(mode="plain"))
    sb = init_state(inst.problem, g, SolverParams(mode="accelerated"))
    for _ in range(40):
        iterate(sa)
        iterate(sb)
        assert float(np.abs(sa.Y - sb.Y).max()) <= 1e-8
        assert float(np.abs(sa.Lam - sb.Lam).max()) <= 1e-8


@pytest.mark.parametrize("mode", ["plain", "accelerated"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_round_matches_per_agent_loops(mode, seed):
    inst = random_instance((4, 2, 3, 2), seed=seed)
    p = inst.problem
    g = random_connected_graph(4, np.random.default_rng(seed))
    state = init_state(p, g, SolverParams(mode=mode))

    def close(actual, expected):
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12)

    for _ in range(5):
        Y_old, V_old, Gamma = state.Y.copy(), state.V.copy(), state.W @ state.H
        iterate(state)
        H_ref = np.array([Gamma[i] + p.A[i] @ (state.Y[i, p.block(i)] - Y_old[i, p.block(i)]) for i in range(4)])
        Delta = state.Y - 0.5 * Y_old
        V_ref = V_old.copy()
        for i in range(4):
            nbrs = np.flatnonzero(g.adjacency()[i])
            V_ref[i] += sum(Delta[j] for j in nbrs) / len(nbrs) - 0.5 * Y_old[i]
        close(state.H, H_ref)
        close(state.V, V_ref)
        coupling = sum(p.A[i] @ state.Y[i, p.block(i)] for i in range(4))
        close(state.coupling_values(), coupling)
        close(state.own_block_x(), np.concatenate([state.Y[i, p.block(i)] for i in range(4)]))
        gap = sum(np.linalg.norm(state.Y[i] - state.Y[j]) for i in range(4) for j in range(4) if i != j)
        close(metrics(state)["violation"], np.linalg.norm(coupling - p.d) + gap)


def _per_agent_round(state):
    """One round with every subproblem solved on its own."""
    gamma, ell = communication_round_tracking(state.H, state.Lam, state.W)
    own = _own_couplings(state.A_pad, state.Y)
    Y_new = np.array([agent_step(state, i, gamma, ell) for i in range(state.n_agents)])
    _finish_round(state, gamma, ell, Y_new, own)


def _desk_state(seed, mode="accelerated"):
    inst = random_instance((4, 2, 3, 2), seed=seed)
    return init_state(inst.problem, random_connected_graph(4, np.random.default_rng(seed)), SolverParams(mode=mode))


def _twin_state(mode):
    return init_state(twin_agent_problem(), build_graph(2, [(0, 1)]), SolverParams(mode=mode))


_ROUND_CASES = {"seed0": lambda mode: _desk_state(0, mode), "seed1": lambda mode: _desk_state(1, mode), "seed2": lambda mode: _desk_state(2, mode), "twin": _twin_state}


@pytest.mark.parametrize(
    "mode,make",
    [pytest.param(mode, make, id=name if mode == "accelerated" else f"{name}-plain") for mode in ("accelerated", "plain") for name, make in _ROUND_CASES.items()],
)
def test_batched_round_matches_per_agent_solves(mode, make):
    batched, looped = make(mode), make(mode)
    for _ in range(50):
        iterate(batched)
        _per_agent_round(looped)
        for name in ("Y", "H", "Lam"):
            np.testing.assert_allclose(getattr(batched, name), getattr(looped, name), rtol=1e-12, atol=1e-12)
        assert batched._batch.guess == looped._batch.guess
    assert batched.warm_hits > batched.repairs
    assert batched.warm_hits + batched.repairs == 50 * batched.n_agents


@settings(max_examples=25, derandomize=True, deadline=None)
@given(seed=st.integers(0, 40), mode=st.sampled_from(["plain", "accelerated"]))
def test_the_stacked_round_is_the_per_agent_round(seed, mode):
    # One product certifies the batch, one applies the Schur lift, and each
    # copy's coupling is formed once: none of it may move the round off the
    # per-agent one, or a trace row off the metrics of its state.
    batched, looped = _desk_state(seed, mode), _desk_state(seed, mode)
    for _ in range(30):
        row = _row(batched, iterate(batched), 1.0)
        _per_agent_round(looped)
        for name in ("Y", "H", "Lam"):
            np.testing.assert_allclose(getattr(batched, name), getattr(looped, name), rtol=1e-12, atol=1e-12)
        assert batched._batch.guess == looped._batch.guess
        want = metrics(batched, 1.0)
        assert row.keys() == want.keys()
        assert all(np.asarray(row[key]).tobytes() == np.asarray(want[key]).tobytes() for key in row)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_an_accelerated_copy_keeps_the_batchs_certified_block(seed):
    # The lift writes w on the own block through identity columns of R and
    # zero rows of Kq, so a certified candidate comes back bit for bit.
    state = _desk_state(seed)
    p, batch = state.problem, state._batch
    solve_batch, seen = batch.solve, []

    def spy(Q):
        W, ok = solve_batch(Q)
        seen.append((W.copy(), ok.copy()))
        return W, ok

    batch.solve = spy
    for _ in range(30):
        iterate(state)
        W, ok = seen[-1]
        for i in np.flatnonzero(ok):
            np.testing.assert_array_equal(state.Y[i, p.block(i)], W[i, : p.dims[i]])
    assert sum(int(ok.sum()) for _, ok in seen) == state.warm_hits > 0


def test_the_accelerated_state_holds_each_lift_once():
    state = _desk_state(0)
    p = state.problem
    N, n, b = p.n_agents, p.n_total, max(p.dims)
    lift = state._lift
    assert lift.shape == (N, b + n, n)
    for i in range(N):
        _, R, Kq = _schur_lift(_subproblem_hessian(state, i), p.block(i))
        b_i = p.dims[i]
        np.testing.assert_array_equal(lift[i, :b_i], R)
        assert not lift[i, b_i:b].any()
        np.testing.assert_array_equal(lift[i, b:], Kq)
    # No second copy of R (its transpose lifts w back), Kq or the copies Y,
    # and the batch keeps its KKT matrices in place of P and G.
    shapes = [a.shape for a in vars(state).values() if isinstance(a, np.ndarray)]
    assert not [s for s in shapes if s in {(N, b, n), (N, n, b), (N, n, n)}] and shapes.count((N, n)) == 3  # Y, V, psi
    assert not hasattr(state, "Y_prev")
    assert not hasattr(state._batch, "P") and not hasattr(state._batch, "G")


def test_batched_round_repairs_an_agent_whose_active_set_changes():
    state = _desk_state(0)
    for _ in range(20):
        iterate(state)
    before = state._batch.guess[0]
    state.V[0] -= 50.0  # pulls agent 0's whole copy down onto its bounds
    twin = copy.deepcopy(state)
    repairs = state.repairs
    iterate(state)
    assert state.repairs > repairs
    assert state._batch.guess[0] != before

    gamma, ell = communication_round_tracking(twin.H, twin.Lam, twin.W)
    np.testing.assert_array_equal(state.Y[0], agent_step(twin, 0, gamma, ell))
    assert state._batch.guess[0] == twin._batch.guess[0]


@pytest.mark.parametrize("mode", ["plain", "accelerated"])
def test_an_uncertified_subproblem_answer_stops_the_round(mode, monkeypatch):
    # The max_iter answers used to enter the round as if certified.
    state = _desk_state(0, mode)
    monkeypatch.setattr(RepeatedQp, "_polish", lambda self, q, active: None)  # no solve certifies a point
    for qp in state._batch.qps:
        qp.max_iter = 30
    Y = state.Y.copy()
    with pytest.raises(MaxIterReached, match="agent 0's subproblem in round 1 ended max_iter"):
        iterate(state)
    assert state.k == 0
    np.testing.assert_array_equal(state.Y, Y)


@pytest.mark.parametrize("mode", ["plain", "accelerated"])
@pytest.mark.parametrize("seed,rounds", [(0, 564), (1, 537), (2, 512)])
def test_pinned_round_counts(mode, seed, rounds):
    p = random_instance((4, 2, 3, 2), seed=seed).problem
    g = random_connected_graph(4, np.random.default_rng(0))
    res = solve(p, g, SolverParams(mode=mode, violation_tol=1e-7, step_tol=1e-7))
    assert res.converged
    assert res.iterations == rounds
    assert res.stats["warm_hits"] + res.stats["repairs"] == res.iterations * p.n_agents
    assert res.stats["warm_hits"] > res.stats["repairs"]


@pytest.mark.parametrize("mode", ["plain", "accelerated"])
def test_solve_reports_seconds_per_phase(mode):
    p = random_instance((4, 2, 3, 2), seed=0).problem
    g = random_connected_graph(4, np.random.default_rng(0))
    t0 = time.perf_counter()
    res = solve(p, g, SolverParams(mode=mode, max_iter=100))
    wall = time.perf_counter() - t0
    phases = [res.stats[name] for name in ("mix_s", "batch_s", "repair_s", "finish_s", "metrics_s")]
    assert all(seconds >= 0.0 for seconds in phases)
    assert sum(phases) <= wall
    assert res.stats["warm_hits"] + res.stats["repairs"] == res.iterations * p.n_agents


def test_warm_start_from_optimum_converges_to_same_point():
    # duals always start at zero, so a primal-only warm start still has to
    # rebuild the dual trajectory; it must converge to the same solution in a
    # comparable number of iterations and start with zero violation
    p = star_problem()
    ref = centralized_solve(p)
    params = SolverParams(max_iter=1000, violation_tol=1e-6, step_tol=1e-6)
    cold = solve(p, K3, params)
    warm = solve(p, K3, params, y0=np.tile(ref.x, (3, 1)))
    assert warm.converged and cold.converged
    assert warm.trace.violation[0] < 1e-8
    assert warm.iterations <= cold.iterations + 25
    np.testing.assert_allclose(warm.x, ref.x, atol=1e-4)


def test_max_iter_returns_flagged_trace():
    p = star_problem()
    res = solve(p, K3, SolverParams(max_iter=3, violation_tol=0.0, step_tol=0.0))
    assert not res.converged
    assert res.iterations == 3
    assert len(res.trace) == 4  # initial row plus three iterations


def test_deterministic_traces():
    inst = random_instance((3, 2, 2, 2), seed=5)
    g = random_connected_graph(3, np.random.default_rng(7))
    params = SolverParams(max_iter=60, violation_tol=0.0, step_tol=0.0)
    r1 = solve(inst.problem, g, params)
    r2 = solve(inst.problem, g, params)
    assert r1.trace.iters == r2.trace.iters
    assert r1.trace.violation == r2.trace.violation
    assert r1.trace.eps1_norm == r2.trace.eps1_norm
    assert r1.trace.eps2_norm == r2.trace.eps2_norm
    for a, b in zip(r1.trace.lambda_bar, r2.trace.lambda_bar):
        np.testing.assert_array_equal(a, b)


def test_single_agent_solve_reduces_to_centralized():
    p = single_agent_problem()
    g1 = build_graph(1, [])
    ref = centralized_solve(p)
    res = solve(p, g1, SolverParams(max_iter=500, violation_tol=1e-10, step_tol=1e-10))
    assert res.converged
    np.testing.assert_allclose(res.x, ref.x, atol=1e-8)
    np.testing.assert_allclose(res.lam[0], -ref.lam, atol=1e-6)


@pytest.mark.parametrize("mode", ["plain", "accelerated"])
def test_an_agent_without_neighbours_keeps_its_anchor(mode):
    state = init_state(single_agent_problem(), build_graph(1, []), SolverParams(mode=mode))
    V0 = state.V.copy()
    for _ in range(5):
        iterate(state)
        np.testing.assert_array_equal(state.V, V0)
    assert not np.array_equal(state.Y, V0)  # the copy moved, the anchor did not


@pytest.mark.parametrize("mode", ["plain", "accelerated"])
def test_solve_without_coupling_rows(mode):
    # no coupling rows leaves only the consensus of the copies; the identity
    # checks reduce over empty vectors
    agents = [
        (np.diag([2.0, 1.0]), np.array([-1.0, 1.0]), np.array([[-1.0]]), np.array([0.0])),
        (np.diag([1.0, 3.0]), np.array([1.0, -2.0]), np.array([[-1.0]]), np.array([0.0])),
    ]
    p = assemble_problem(agents=agents, A=[np.zeros((0, 1))] * 2, d=np.zeros(0))
    res = solve(p, build_graph(2, [(0, 1)]), SolverParams(mode=mode, violation_tol=1e-9, step_tol=1e-9))
    assert res.converged
    np.testing.assert_allclose(res.x, centralized_solve(p).x, atol=1e-8)


def test_own_block_and_average_extractions_agree_at_convergence():
    p = star_problem()
    res = solve(p, K3, SolverParams(max_iter=1000, violation_tol=1e-9, step_tol=1e-9))
    np.testing.assert_allclose(res.x, res.consensus_x, atol=1e-7)


# ---------------------------------------------------------------------------
# Trace CSV


def test_trace_csv_layout(tmp_path):
    p = star_problem()
    res = solve(p, K3, SolverParams(max_iter=5, violation_tol=0.0, step_tol=0.0))
    path = tmp_path / "trace.csv"
    res.trace.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "rel_error", "violation", "eps1_norm", "eps2_norm", "lambda_bar_0", "wall_ms"]
    assert len(rows) == 1 + len(res.trace)
    assert rows[1][0] == "0"
    assert rows[1][1] == "nan"  # no reference supplied
    assert abs(float(rows[1][2]) - 5.0) < 1e-12
    # full-precision round trip of a later violation entry
    assert float(rows[3][2]) == res.trace.violation[2]
