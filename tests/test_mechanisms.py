"""Mechanism layer: shadow prices, settlement, best-response optimality, VCG
payments, incentive checks, and the misreport experiment drivers."""

import csv
import dataclasses

import numpy as np
import pytest
import scipy.optimize

from disqo.admm import SolverParams, solve as admm_solve
from disqo.errors import ConventionMismatch, DimensionMismatch, InfeasibleWithoutAgent, MaxIterReached, Unbounded
from disqo.graphs import build_graph, random_connected_graph
from disqo.mechanisms import (
    _vcg,
    misreport_portfolio,
    misreport_sweep,
    payments_csv,
    settle,
    shadow_prices,
    sp_equilibrium_check,
    sp_for_problem,
    sp_outcome,
    vcg_ic_check,
    vcg_payments,
)
from disqo.problem import ReportedProblem, assemble_problem, centralized_solve, dual_residual, reconcile_dual
from disqo.qp import RepeatedQp
from disqo.star import StarInstance, random_star, star_misreport, star_prices_utilities, to_transport
from disqo.transport import build_instance, random_instance, star_network

EX3 = StarInstance(c_norms=[2.0, 3.0, 4.0], c0=1.0, d=5.0)


def ex3_instance():
    return to_transport(EX3)


def ex3_solved():
    inst = ex3_instance()
    sol = centralized_solve(inst.problem)
    return inst, sol


# ---------------------------------------------------------------------------
# Shadow prices


def test_prices_on_three_supplier_market():
    inst, sol = ex3_solved()
    prices = shadow_prices(inst.problem, sol.x, sol.lam)
    np.testing.assert_allclose([p[0] for p in prices], [13.5, 13.0, 12.5], atol=1e-8)


def test_prices_after_misreport():
    inst = ex3_instance()
    fake = np.array(inst.network.edge_costs[0], copy=True)
    fake[0] = 1.0
    reported = inst.with_reported_costs({0: fake})
    sol = centralized_solve(reported, which="reported")
    prices = shadow_prices(reported, sol.x, sol.lam)
    np.testing.assert_allclose([p[0] for p in prices], [13.5, 12.5, 12.0], atol=1e-8)


def test_prices_reduce_to_dual_without_cross_terms():
    # interaction-free objectives: every agent prices at A_i' lam exactly
    p = assemble_problem(
        agents=[
            (np.diag([2.0, 0.0]), np.array([1.0, 0.0]), np.array([[-1.0]]), np.array([0.0])),
            (np.diag([0.0, 2.0]), np.array([0.0, 1.5]), np.array([[-1.0]]), np.array([0.0])),
        ],
        A=[np.array([[1.0]]), np.array([[1.0]])],
        d=np.array([2.0]),
    )
    sol = centralized_solve(p)
    prices = shadow_prices(p, sol.x, sol.lam)
    for pi in prices:
        np.testing.assert_allclose(pi, sol.lam, atol=1e-8)


def test_prices_reject_mirrored_dual():
    inst, sol = ex3_solved()
    with pytest.raises(ConventionMismatch):
        shadow_prices(inst.problem, sol.x, -sol.lam)


def test_sp_rejects_a_mirrored_solution():
    inst, sol = ex3_solved()
    with pytest.raises(ConventionMismatch):
        sp_for_problem(inst.problem, solution=dataclasses.replace(sol, lam=-sol.lam))


def test_a_valid_dual_is_kept_in_the_sign_given_when_its_mirror_is_valid_too():
    # x = (1, 0) is forced and both local rows are tight there, so every lam
    # in [-2, 1] is a valid dual. lam = 1 + 1e-8 passes within tolerance,
    # and -lam, inside the interval, passes with a smaller residual.
    p = assemble_problem(
        [(np.zeros((2, 2)), np.array([-2.0, 1.0]), np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 0.0]))],
        [np.ones((1, 2))],
        [1.0],
    )
    x, lam = np.array([1.0, 0.0]), np.array([1.0 + 1e-8])
    resid, bound, grad = dual_residual(p, x, lam)
    assert 0.0 < resid <= bound and dual_residual(p, x, -lam)[0] < resid
    assert grad.tolist() == [-2.0, 1.0]
    (price,) = shadow_prices(p, x, lam)
    assert price.tolist() == [lam[0], lam[0]]
    assert reconcile_dual(p, x, lam).tolist() == lam.tolist()
    assert reconcile_dual(p, x, np.array([2.0])).tolist() == [-2.0]


def test_sp_settlement_reads_the_solve_certificate_and_reconcile_makes_one_nnls_call(monkeypatch):
    inst = random_instance((4, 2, 3, 2), seed=1)
    sol = centralized_solve(inst.problem)
    assert inst.problem.tight_rows(sol.x).any()  # a market without tight rows needs no NNLS
    calls = []
    nnls = scipy.optimize.nnls
    monkeypatch.setattr(scipy.optimize, "nnls", lambda *args, **kwargs: calls.append(1) or nnls(*args, **kwargs))
    settled = sp_for_problem(inst.problem, solution=sol)
    assert len(calls) == 0
    reconcile_dual(inst.problem, sol.x, sol.lam)
    assert len(calls) == 1
    prices = shadow_prices(inst.problem, sol.x, sol.lam)  # the public entry, without alpha
    assert len(calls) == 2
    assert [v.tobytes() for v in prices] == [v.tobytes() for v in settled.prices]


def test_sp_rejects_a_solution_whose_alpha_does_not_certify_its_lam():
    inst = random_instance((4, 2, 3, 2), seed=1)
    sol = centralized_solve(inst.problem)
    assert sol.alpha.any()
    for alpha in (np.zeros_like(sol.alpha), 2.0 * sol.alpha):
        with pytest.raises(ConventionMismatch):
            sp_for_problem(inst.problem, solution=dataclasses.replace(sol, alpha=alpha))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_settlement_tests_its_dual_by_dual_residual_with_the_certificate(seed):
    # With alpha, the one dual test is |g - A' lam + G' alpha|_2, block by
    # block over the local rows, to the bit; a negative alpha certifies nothing.
    p = random_instance((4, 2, 3, 2), seed=seed).problem
    sol = centralized_solve(p)
    resid = sum((o.gradient(sol.x) for o in p.actual), np.zeros(p.n_total)) - p.stacked_A().T @ sol.lam
    for i, poly in enumerate(p.local):
        resid[p.block(i)] += poly.B.T @ sol.alpha[p.rows(i)]
    certified, bound, _ = dual_residual(p, sol.x, sol.lam, sol.alpha)
    assert certified == float(np.linalg.norm(resid)) and certified <= bound
    alpha = sol.alpha.copy()
    alpha[0] = -1e-12
    assert dual_residual(p, sol.x, sol.lam, alpha)[0] == np.inf
    with pytest.raises(ConventionMismatch):
        sp_for_problem(p, solution=dataclasses.replace(sol, alpha=alpha))
    with pytest.raises(DimensionMismatch, match="alpha has length"):
        dual_residual(p, sol.x, sol.lam, sol.alpha[:-1])


@pytest.mark.parametrize("mechanisms, cost_basis", [(("SP",), "true"), (("sp", "foo"), "true"), (("sp",), "Reported")])
def test_settle_rejects_an_unknown_name_before_any_solve(monkeypatch, mechanisms, cost_basis):
    # Once an upper-case name settled nothing and an unknown one was dropped,
    # each after the market was solved.
    solves = []
    solve = RepeatedQp.solve
    monkeypatch.setattr(RepeatedQp, "solve", lambda *args, **kwargs: solves.append(1) or solve(*args, **kwargs))
    p = ex3_instance().problem
    with pytest.raises(DimensionMismatch, match="must be 'sp' or 'vcg'|must be 'true' or 'reported'"):
        settle(p, mechanisms, cost_basis)
    assert solves == []
    assert settle(p, ()) == [] and len(solves) == 1  # an empty selection still solves the market


def test_agentless_market_is_priced_empty():
    p = assemble_problem([], [], np.zeros(1))
    sol = centralized_solve(p)
    assert shadow_prices(p, sol.x, sol.lam) == ()
    out = sp_for_problem(p)
    assert out.prices == () and out.payments.shape == out.costs.shape == (0,)


def test_prices_from_distributed_duals_match_centralized():
    inst, sol = ex3_solved()
    graph = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    res = admm_solve(inst.problem, graph, SolverParams(max_iter=1500, violation_tol=1e-9, step_tol=1e-9))
    assert res.converged
    lam = reconcile_dual(inst.problem, res.x, res.lambda_bar)
    got = shadow_prices(inst.problem, res.x, lam)
    want = shadow_prices(inst.problem, sol.x, sol.lam)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, atol=1e-5)


# ---------------------------------------------------------------------------
# Shadow-pricing settlement


def test_truthful_settlement_benefits():
    inst, sol = ex3_solved()
    prices = shadow_prices(inst.problem, sol.x, sol.lam)
    out = sp_outcome(inst.problem, sol.x, prices)
    np.testing.assert_allclose(out.benefits, [169.0 / 18.0, 100.0 / 18.0, 49.0 / 18.0], atol=1e-8)
    np.testing.assert_allclose(out.payments, [13.5 * 13.0 / 6.0, 13.0 * 5.0 / 3.0, 12.5 * 7.0 / 6.0], atol=1e-8)
    assert np.all(out.net_costs <= 1e-8)
    assert out.mechanism == "ShadowPricing"
    # matches the closed-form star oracle
    pi_star, u_star = star_prices_utilities(EX3)
    np.testing.assert_allclose([p[0] for p in out.prices], pi_star, atol=1e-8)
    np.testing.assert_allclose(out.benefits, u_star, atol=1e-8)


def test_misreport_settlement_true_and_reported_bases():
    inst = ex3_instance()
    fake = np.array(inst.network.edge_costs[0], copy=True)
    fake[0] = 1.0
    reported = inst.with_reported_costs({0: fake})
    true_eval = sp_for_problem(reported, cost_basis="true")
    np.testing.assert_allclose(true_eval.benefits, [10.0, 4.5, 2.0], atol=1e-8)
    reported_eval = sp_for_problem(reported, cost_basis="reported")
    assert abs(reported_eval.benefits[0] - 12.5) < 1e-8
    assert abs(reported_eval.payments[0] - 33.75) < 1e-8
    # the oracle's single-misreport outcome agrees
    oracle = star_misreport(EX3, 0, -1.0)
    np.testing.assert_allclose(true_eval.benefits, oracle.benefits, atol=1e-8)


def test_truthful_settlement_is_individually_rational_across_instances():
    rng = np.random.default_rng(20240818)
    for _ in range(10):
        inst = to_transport(random_star(rng))
        out = sp_for_problem(ReportedProblem.truthful(inst.problem))
        assert np.all(out.net_costs <= 1e-8)
    for seed in (3, 5):
        inst = random_instance((3, 2, 2, 2), seed=seed)
        out = sp_for_problem(ReportedProblem.truthful(inst.problem))
        assert np.all(out.net_costs <= 1e-8)


# ---------------------------------------------------------------------------
# Best-response optimality


def test_equilibrium_residuals_small_at_optimum():
    inst, sol = ex3_solved()
    prices = shadow_prices(inst.problem, sol.x, sol.lam)
    res = sp_equilibrium_check(inst.problem, sol.x, prices)
    assert np.all(res <= 1e-6)


def test_equilibrium_residuals_flag_non_optimal_point():
    # needs an agent with more variables than coupling rows: on a star the
    # coupling pins the best response completely and every point is stationary
    inst = random_instance((3, 2, 2, 2), seed=3)
    sol = centralized_solve(inst.problem)
    prices = shadow_prices(inst.problem, sol.x, sol.lam)
    res_opt = sp_equilibrium_check(inst.problem, sol.x, prices)
    assert np.all(res_opt <= 1e-6)
    x_bad = np.array(sol.x)
    blk = inst.problem.block(0)
    x_bad[blk.start + 1] += 0.4  # push extra flow onto one of agent 0's routes
    res = sp_equilibrium_check(inst.problem, x_bad, prices)
    assert float(res.max()) > 0.01


def _qr_equilibrium_residuals(p, x, prices) -> np.ndarray:
    """Best-response residuals by the projection route: project the span of
    A_i' out with a QR basis, then NNLS over the projected tight normals."""
    tight = p.tight_rows(x)
    out = []
    for i in range(p.n_agents):
        assert np.linalg.matrix_rank(p.A[i]) == p.A[i].shape[0]  # the QR basis spans exactly range(A_i')
        Q, _ = np.linalg.qr(p.A[i].T)
        proj = lambda v: v - Q @ (Q.T @ v)
        own = p.actual[i]
        g = proj((own.sigma @ x + own.psi)[p.block(i)] - prices[i])
        C = proj(p.local[i].B[tight[p.rows(i)]].T)
        out.append(np.linalg.norm(g) if C.size == 0 else scipy.optimize.nnls(C, -g)[1])
    return np.array(out)


@pytest.mark.parametrize("inst", [ex3_instance(), random_instance((4, 2, 3, 2), seed=1)], ids=["star", "4-2-3-2"])
def test_equilibrium_residuals_match_the_projection_route(inst):
    sol = centralized_solve(inst.problem)
    prices = shadow_prices(inst.problem, sol.x, sol.lam)
    x_off = np.array(sol.x)
    x_off[inst.problem.block(0).start] += 0.4
    for x in (sol.x, x_off):
        got = sp_equilibrium_check(inst.problem, x, prices)
        np.testing.assert_allclose(got, _qr_equilibrium_residuals(inst.problem, x, prices), rtol=0, atol=1e-10)


def test_equilibrium_residual_counts_a_coupling_row_the_agent_does_not_touch():
    # Agent 0 has no variable in coupling row 1, so A_0' has a zero column
    # and frees only its first variable; the gradient (0, 1) of its second
    # variable is a residual of 1. A QR basis of A_0' spans both axes and
    # would project that residual away.
    agents = [(np.zeros((3, 3)), np.array([0.0, 1.0, 0.0]), None, None), (np.zeros((3, 3)), np.zeros(3), None, None)]
    p = assemble_problem(agents, [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])], np.ones(2))
    res = sp_equilibrium_check(p, np.zeros(3), [np.zeros(2), np.zeros(1)])
    assert res.tolist() == [1.0, 0.0]


def test_equilibrium_residual_single_agent():
    p = assemble_problem(
        agents=[(np.array([[2.0]]), np.array([0.0]), np.array([[-1.0]]), np.array([0.0]))],
        A=[np.array([[1.0]])],
        d=np.array([1.0]),
    )
    sol = centralized_solve(p)
    prices = shadow_prices(p, sol.x, sol.lam)
    res = sp_equilibrium_check(p, sol.x, prices)
    assert float(res.max()) <= 1e-8


def test_market_without_coupling_rows_is_priced():
    # Two agents with one cross term and x_i >= 0, sharing no coupling row:
    # agent 0 ships 1, agent 1 nothing, and agent 1's price is minus the
    # marginal cost 0.5 x_0 its flow puts on agent 0.
    agents = [
        (np.array([[2.0, 0.5], [0.5, 0.0]]), np.array([-2.0, 0.0]), -np.eye(1), np.zeros(1)),
        (np.array([[0.0, 0.5], [0.5, 2.0]]), np.array([0.0, 1.0]), -np.eye(1), np.zeros(1)),
    ]
    p = assemble_problem(agents, [np.zeros((0, 1))] * 2, np.zeros(0))
    sol = centralized_solve(p)
    assert sol.lam.shape == (0,) and sol.x == pytest.approx([1.0, 0.0], abs=1e-9)
    out = sp_for_problem(p, solution=sol)
    assert [float(v) for v in out.prices[0]] == pytest.approx([0.0], abs=1e-9)
    assert [float(v) for v in out.prices[1]] == pytest.approx([-0.5], abs=1e-9)
    assert out.benefits == pytest.approx([1.0, 0.0], abs=1e-9)
    assert np.all(sp_equilibrium_check(p, sol.x, out.prices) <= 1e-9)


def test_equilibrium_residuals_across_instances():
    rng = np.random.default_rng(77)
    for _ in range(10):
        inst = to_transport(random_star(rng))
        sol = centralized_solve(inst.problem)
        prices = shadow_prices(inst.problem, sol.x, sol.lam)
        assert np.all(sp_equilibrium_check(inst.problem, sol.x, prices) <= 1e-6)


# ---------------------------------------------------------------------------
# VCG


def test_vcg_payments_three_supplier_market():
    inst = ex3_instance()
    out = vcg_payments(inst.problem)
    np.testing.assert_allclose(out.payments, [1937.0 / 72.0, 365.0 / 18.0, 1001.0 / 72.0], atol=1e-7)
    np.testing.assert_allclose(out.benefits, [169.0 / 24.0, 25.0 / 6.0, 49.0 / 24.0], atol=1e-7)
    assert np.all(out.net_costs <= 1e-8)
    assert out.mechanism == "VCG"


def test_vcg_silent_agent_pays_nothing_and_gains_nothing():
    inst = build_instance(star_network([2.0, 3.0, 100.0], c0=1.0, d=1.0), R=1, L=2)
    out = vcg_payments(inst.problem)
    assert abs(out.payments[2]) < 1e-8
    assert abs(out.net_costs[2]) < 1e-8


def test_vcg_zero_demand_is_all_zero():
    for c in ([2.0, 3.0], [3.0]):  # one supplier: the drop-one market has no agents
        inst = build_instance(star_network(c, c0=1.0, d=0.0), R=1, L=2)
        out = vcg_payments(inst.problem)
        np.testing.assert_allclose(out.payments, 0.0, atol=1e-9)
        np.testing.assert_allclose(out.net_costs, 0.0, atol=1e-9)


def test_vcg_infeasible_without_agent():
    net = star_network([1.0, 1.0], c0=1.0, d=4.0)
    net = dataclasses.replace(net, inventories=np.array([[3.0], [3.0]]))
    inst = build_instance(net, R=1, L=2)
    with pytest.raises(InfeasibleWithoutAgent):
        vcg_payments(inst.problem)
    with pytest.raises(InfeasibleWithoutAgent, match="without agent 0"):
        vcg_payments(build_instance(star_network([3.0], c0=1.0, d=4.0), R=1, L=2).problem)


def test_vcg_reports_an_unbounded_drop_one_as_unbounded():
    # Only an infeasible drop-one market means the market needs the agent.
    p = ex3_instance().problem
    full = centralized_solve(p)

    def unbounded(i):
        raise Unbounded("objective is unbounded below")

    with pytest.raises(Unbounded):
        _vcg(p, "true", full.x, full.value, unbounded)


def test_vcg_truthful_ir_across_instances():
    rng = np.random.default_rng(4)
    for _ in range(10):
        inst = to_transport(random_star(rng))
        out = vcg_payments(inst.problem)
        assert np.all(out.net_costs <= 1e-8)
    inst = random_instance((3, 2, 2, 2), seed=3)
    out = vcg_payments(inst.problem)
    assert np.all(out.net_costs <= 1e-8)


def test_vcg_truth_dominates_fake_report():
    inst = ex3_instance()
    fake_costs = np.array(inst.network.edge_costs[0], copy=True)
    fake_costs[0] = 1.0
    fake = inst.with_reported_costs({0: fake_costs})
    report = vcg_ic_check(inst.problem, [(0, fake)])
    assert report.ok
    (agent, u_true, u_fake, margin) = report.rows[0]
    assert agent == 0 and margin >= -1e-8
    # reporting the truth reproduces the truthful utilities exactly
    same = vcg_ic_check(inst.problem, [(1, ReportedProblem.truthful(inst.problem))])
    assert abs(same.rows[0][3]) < 1e-9


def test_vcg_distributed_solves_match_centralized():
    inst = ex3_instance()
    central = vcg_payments(inst.problem)
    graph = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    params = SolverParams(max_iter=2000, violation_tol=1e-9, step_tol=1e-9)
    dist = vcg_payments(inst.problem, distributed=(graph, params))
    np.testing.assert_allclose(dist.payments, central.payments, atol=1e-4)
    np.testing.assert_allclose(dist.benefits, central.benefits, atol=1e-4)


def test_vcg_distributed_drop_one_solves_match_centralized_on_a_network():
    # Unlike ex3's star, the agents share edges whose load moves when one of
    # them leaves, so the drop-one market's algorithmic split must still sum
    # to its actual total.
    p = random_instance((3, 2, 2, 2), seed=0).problem
    central = vcg_payments(p)
    graph = random_connected_graph(3, np.random.default_rng(0))
    dist = vcg_payments(p, distributed=(graph, SolverParams(violation_tol=1e-9, step_tol=1e-9)))
    np.testing.assert_allclose(dist.payments, central.payments, atol=1e-6)


def test_vcg_distributed_one_supplier_market_is_infeasible_without_it():
    inst = build_instance(star_network([2.0], d=3.0), R=1, L=2)
    with pytest.raises(InfeasibleWithoutAgent):
        vcg_payments(inst.problem, distributed=(build_graph(1, []), SolverParams()))


def test_vcg_distributed_rejects_a_graph_of_another_size():
    inst = ex3_instance()
    graph = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(DimensionMismatch):
        vcg_payments(inst.problem, distributed=(graph, SolverParams()))


def test_vcg_distributed_solve_out_of_rounds_is_not_infeasible():
    inst = ex3_instance()
    graph = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(MaxIterReached):
        vcg_payments(inst.problem, distributed=(graph, SolverParams(max_iter=3)))


# ---------------------------------------------------------------------------
# Misreport experiments


def test_sweep_example_grid():
    inst = ex3_instance()
    sweep = misreport_sweep(inst, 0, [-1.0, 0.0])
    np.testing.assert_allclose(sweep.benefits[0], [10.0, 4.5, 2.0], atol=1e-8)
    np.testing.assert_allclose(sweep.benefits[1], [169.0 / 18.0, 100.0 / 18.0, 49.0 / 18.0], atol=1e-8)
    assert sweep.benefits[0, 0] > sweep.benefits[1, 0]


def test_sweep_zero_grid_equals_truthful_settlement():
    inst = ex3_instance()
    sweep = misreport_sweep(inst, 1, [0.0])
    out = sp_for_problem(ReportedProblem.truthful(inst.problem))
    np.testing.assert_allclose(sweep.benefits[0], out.benefits, atol=1e-10)


def test_sweep_small_understatement_sign_pattern():
    inst = ex3_instance()
    delta = -0.05
    sweep = misreport_sweep(inst, 2, [delta, 0.0])
    assert sweep.benefits[0, 2] > sweep.benefits[1, 2]
    assert sweep.benefits[0, 0] < sweep.benefits[1, 0]
    assert sweep.benefits[0, 1] < sweep.benefits[1, 1]
    oracle = star_misreport(EX3, 2, delta)
    np.testing.assert_allclose(sweep.benefits[0], oracle.benefits, atol=1e-8)


def test_sweep_csv_layout(tmp_path):
    inst = ex3_instance()
    sweep = misreport_sweep(inst, 0, [-0.5, 0.0])
    path = tmp_path / "sweep.csv"
    sweep.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["delta", "agent", "benefit"]
    assert len(rows) == 1 + 2 * 3
    assert float(rows[1][0]) == -0.5 and rows[1][1] == "0"


def test_misreport_inputs_that_cannot_work_are_rejected():
    inst = ex3_instance()
    for delta in (np.nan, np.inf, -np.inf):
        with pytest.raises(DimensionMismatch, match="sweep deltas must be finite"):
            misreport_sweep(inst, 0, [0.5, delta])
    for n_cases in (-2, 1.5, True):
        with pytest.raises(DimensionMismatch, match="n_cases must be an integer of at least 0"):
            misreport_portfolio(inst, n_cases, seed=1)
    for magnitude in (-1.0, np.nan, np.inf, float("1e400"), True):
        with pytest.raises(DimensionMismatch, match="magnitude must be a finite number"):
            misreport_portfolio(inst, 1, seed=1, magnitude=magnitude)
    for seed in (-3, True, 1.5):
        with pytest.raises(DimensionMismatch, match="seed must be an integer of at least 0"):
            misreport_portfolio(inst, 1, seed)
    assert misreport_portfolio(inst, np.int64(2), seed=1, magnitude=0).benefits.shape == (2, 3)


def test_portfolio_deterministic_and_baseline_only_case(tmp_path):
    inst = ex3_instance()
    a = misreport_portfolio(inst, n_cases=5, seed=11)
    b = misreport_portfolio(inst, n_cases=5, seed=11)
    np.testing.assert_array_equal(a.benefits, b.benefits)
    np.testing.assert_array_equal(a.baseline, b.baseline)
    c = misreport_portfolio(inst, n_cases=5, seed=12)
    assert not np.array_equal(a.benefits, c.benefits)

    empty = misreport_portfolio(inst, n_cases=0, seed=1)
    assert empty.benefits.shape == (0, 3)
    path = tmp_path / "portfolio.csv"
    empty.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["case", "agent", "benefit"]
    assert len(rows) == 1 + 3  # baseline only


def test_portfolio_can_reduce_benefits_below_baseline():
    inst = to_transport(StarInstance([2.0, 2.0, 2.0, 2.0], c0=1.0, d=5.0))
    result = misreport_portfolio(inst, n_cases=30, seed=7)
    assert np.any(result.benefits < result.baseline[None, :] - 1e-9)


# ---------------------------------------------------------------------------
# Payment CSV


def test_payments_csv_layout(tmp_path):
    inst = ex3_instance()
    sp = sp_for_problem(ReportedProblem.truthful(inst.problem))
    vcg = vcg_payments(inst.problem)
    path = tmp_path / "payments.csv"
    payments_csv([sp, vcg], path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["agent", "mechanism", "payment", "true_cost", "net_cost", "benefit"]
    assert len(rows) == 1 + 6 + 3
    assert rows[1][1] == "ShadowPricing" and rows[4][1] == "VCG"
    assert abs(float(rows[1][5]) - 169.0 / 18.0) < 1e-8
    assert abs(float(rows[4][2]) - 1937.0 / 72.0) < 1e-7
    # benefit column = payment - true_cost
    assert abs(float(rows[2][2]) - float(rows[2][3]) - float(rows[2][5])) < 1e-12
    # one total row per mechanism (column sums), then their difference
    assert [r[:2] for r in rows[7:]] == [["total", "ShadowPricing"], ["total", "VCG"], ["total", "SP-VCG"]]
    for col in range(2, 6):
        sp_total = sum(float(r[col]) for r in rows[1:4])
        vcg_total = sum(float(r[col]) for r in rows[4:7])
        assert abs(float(rows[7][col]) - sp_total) < 1e-9
        assert abs(float(rows[8][col]) - vcg_total) < 1e-9
        assert abs(float(rows[9][col]) - (float(rows[7][col]) - float(rows[8][col]))) < 1e-9
