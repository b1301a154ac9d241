import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disqo import problem as problem_module
from disqo.admm import SolverParams, init_state
from disqo.errors import (
    ConventionMismatch,
    DimensionMismatch,
    EmptyLocalSet,
    Infeasible,
    NonConvexObjective,
    UnknownAgent,
)
from disqo.graphs import random_connected_graph
from disqo.mechanisms import sp_for_problem
from disqo.problem import (
    CoupledProblem,
    LocalPolyhedron,
    QuadObjective,
    ReportedProblem,
    assemble_problem,
    centralized_solve,
    convert_inequality_coupling,
    dual_residual,
    eval_cost,
    exclude_agent,
    reconcile_dual,
)
from disqo.qp import solve_qp
from disqo.star import random_star, to_transport
from disqo.transport import random_instance


def three_supplier_problem(costs=(2.0, 3.0, 4.0), c0=1.0, d=5.0) -> CoupledProblem:
    """One scalar decision per agent, shared congestion, one demand row.

    Algorithmic split gives each agent c0*x_i^2 + (c0/N)(sum x)^2 + cost_i*x_i;
    actual split gives c0*x_i*(x_i + sum x) + cost_i*x_i. Both sum to the same
    total.
    """
    n = 3
    ones = np.ones((n, n))
    agents = []
    actual = []
    for i in range(n):
        e = np.zeros((n, n))
        e[i, i] = 1.0
        sigma_alg = 2 * c0 * e + (2 * c0 / n) * ones
        psi = np.zeros(n)
        psi[i] = costs[i]
        col = np.zeros((n, n))
        col[i, :] = 1.0
        sigma_act = 2 * c0 * e + c0 * (col + col.T)
        agents.append((sigma_alg, psi, -np.eye(1), np.zeros(1)))
        actual.append((sigma_act, psi))
    A = [np.ones((1, 1))] * n
    return assemble_problem(agents, A, [d], actual=actual)


X_STAR = np.array([13 / 6, 5 / 3, 7 / 6])


def test_centralized_three_supplier():
    p = three_supplier_problem()
    sol = centralized_solve(p)
    assert sol.x == pytest.approx(X_STAR, abs=1e-9)
    assert sol.lam == pytest.approx([49 / 3], abs=1e-9)
    assert sol.alpha == pytest.approx(np.zeros(3), abs=1e-9)
    assert sol.value == pytest.approx(287 / 6, abs=1e-9)
    assert sol.value == p.total_value(sol.x)


def test_eval_cost_three_supplier():
    p = three_supplier_problem()
    assert eval_cost(p, 0, X_STAR) == pytest.approx(715 / 36, abs=1e-12)
    assert eval_cost(p, 1, X_STAR) == pytest.approx(145 / 9, abs=1e-12)
    assert eval_cost(p, 2, X_STAR) == pytest.approx(427 / 36, abs=1e-12)
    assert eval_cost(p, 0, np.zeros(3)) == 0.0
    with pytest.raises(UnknownAgent):
        eval_cost(p, 5, X_STAR)


def test_total_value_rejects_a_point_of_the_wrong_length():
    p = random_instance((4, 2, 3, 2), seed=0).problem
    for which in ("actual", "algorithmic"):
        with pytest.raises(DimensionMismatch, match="x has length 3, expected 27"):
            p.total_value(np.zeros(3), which)


def test_factor_pairs_are_checked_like_dense_hessians():
    # One agent over two variables, its Hessian given as (F, D).
    def assemble(F, D):
        return assemble_problem([((F, D), np.zeros(2), None, None)], [np.ones((1, 2))], [1.0])

    assert assemble(np.eye(2)[:1], np.eye(1)).algorithmic[0].sigma.tolist() == [[1.0, 0.0], [0.0, 0.0]]
    for bad in (np.nan, np.inf):
        with pytest.raises(DimensionMismatch, match="F\\[0\\] must be finite"):
            assemble(np.array([[1.0, bad]]), np.eye(1))
        with pytest.raises(DimensionMismatch, match="D\\[0\\] must be finite"):
            assemble(np.eye(2), np.array([[1.0, bad], [bad, 1.0]]))
    with pytest.raises(DimensionMismatch, match="not symmetric"):
        assemble(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))
    for F, D in ((np.eye(3), np.eye(3)), (np.eye(2), np.eye(3)), (np.ones(2), np.eye(1))):
        with pytest.raises(DimensionMismatch, match="objective\\[0\\] has factors"):
            assemble(F, D)


def test_a_report_checks_the_linear_terms_it_swaps_in():
    p = three_supplier_problem()
    reported = p.with_linear_terms({1: np.array([0.0, 1.0, 0.0])})
    assert reported.actual[1].psi.tolist() == reported.algorithmic[1].psi.tolist() == [0.0, 1.0, 0.0]
    assert reported.actual[0] is p.actual[0] and reported.actual[1].F is p.actual[1].F
    with pytest.raises(UnknownAgent):
        p.with_linear_terms({3: np.zeros(3)})
    with pytest.raises(DimensionMismatch, match="psi\\[1\\] has length 2, expected 3"):
        p.with_linear_terms({1: np.zeros(2)})
    with pytest.raises(DimensionMismatch, match="psi\\[1\\] must be finite"):
        p.with_linear_terms({1: np.array([0.0, np.nan, 0.0])})


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(0, 5), st.integers(1, 3))
def test_factored_objective_matches_its_dense_hessian(seed, n, r, parts):
    # sigma = F' D F for random F and symmetric D: value, gradient, column
    # restriction and sum agree with the dense sigma to 1e-12, relative to
    # the same quantities over |F|, |D|, |psi| and |x|.
    rng = np.random.default_rng(seed)
    magnitude = lambda o: QuadObjective(np.abs(o.F), np.abs(o.D), np.abs(o.psi))

    def draw():
        M = rng.normal(size=(r, r))
        return QuadObjective(F=rng.normal(size=(r, n)), D=M + M.T, psi=rng.normal(size=n))

    def agree(obj, x):
        sigma, mag = obj.sigma, magnitude(obj)
        assert sigma.shape == (x.shape[0],) * 2
        assert abs(obj.value(x) - (0.5 * x @ sigma @ x + obj.psi @ x)) <= 1e-12 * mag.value(np.abs(x))
        assert np.all(np.abs(obj.gradient(x) - (sigma @ x + obj.psi)) <= 1e-12 * mag.gradient(np.abs(x)))
        return sigma

    objs = [draw() for _ in range(parts)]
    x = rng.normal(size=n)
    for obj in objs:
        sigma = agree(obj, x)
        cols = np.sort(rng.permutation(n)[: rng.integers(0, n + 1)])
        cut = np.ix_(cols, cols)
        assert np.all(np.abs(agree(obj.take(cols), x[cols]) - sigma[cut]) <= 1e-12 * magnitude(obj).sigma[cut])
    total = QuadObjective.summed(objs, n)
    assert np.all(np.abs(agree(total, x) - sum(o.sigma for o in objs)) <= 1e-12 * magnitude(total).sigma)
    assert np.array_equal(total.psi, sum(o.psi for o in objs))


@pytest.mark.parametrize("last, convex", [(2.0, True), (0.5, False)])
def test_convexity_is_proved_on_the_summed_hessian(last, convex):
    # Agent 0's D is indefinite, so the n x n total is checked: diag(1, -1)
    # plus agent 1's (last) on x_1 is PSD exactly when last >= 1.
    agents = [((np.eye(2), np.diag([1.0, -1.0])), np.zeros(2), None, None), ((np.array([[0.0, 1.0]]), np.array([[last]])), np.zeros(2), None, None)]
    A = [np.ones((1, 1))] * 2
    if convex:
        p = assemble_problem(agents, A, [1.0])
        assert p.total_quadratic("algorithmic")[0].tolist() == [[1.0, 0.0], [0.0, 1.0]]
    else:
        with pytest.raises(NonConvexObjective):
            assemble_problem(agents, A, [1.0])


def test_decompositions_sum_to_total():
    p = three_supplier_problem()
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.normal(size=3)
        total = p.total_value(x, "actual")
        assert sum(eval_cost(p, i, x) for i in range(3)) == pytest.approx(total, abs=1e-12)
        assert sum(p.algorithmic[i].value(x) for i in range(3)) == pytest.approx(total, abs=1e-12)


@pytest.mark.parametrize("which", ["true", "reported", "Actual", ""])
def test_total_rejects_unknown_decomposition(which):
    # "true"/"reported" name the sides of a ReportedProblem, not decompositions.
    p = three_supplier_problem()
    with pytest.raises(DimensionMismatch, match="'actual' or 'algorithmic'"):
        p.total_value(X_STAR, which)
    with pytest.raises(DimensionMismatch, match="'actual' or 'algorithmic'"):
        p.total_quadratic(which)


def test_plain_problem_rejects_an_unknown_side():
    # A plain problem is both sides of a truthful report, and only those.
    p = three_supplier_problem()
    with pytest.raises(DimensionMismatch, match="'true' or 'reported'"):
        eval_cost(p, 0, X_STAR, which="nonsense")
    with pytest.raises(DimensionMismatch, match="'true' or 'reported'"):
        centralized_solve(p, which="actual")
    assert eval_cost(p, 0, X_STAR, which="reported") == eval_cost(p, 0, X_STAR, which="true")


def test_single_agent_forced_allocation():
    agents = [(np.array([[2.0]]), np.zeros(1), np.array([[1.0], [-1.0]]), np.array([2.0, 0.0]))]
    p = assemble_problem(agents, [np.ones((1, 1))], [1.0])
    sol = centralized_solve(p)
    assert sol.x == pytest.approx([1.0], abs=1e-9)
    assert sol.lam == pytest.approx([2.0], abs=1e-9)


def test_nonconvex_total_rejected():
    agents = [(np.array([[-1.0]]), np.zeros(1), None, None)]
    with pytest.raises(NonConvexObjective):
        assemble_problem(agents, [np.ones((1, 1))], [1.0])


def test_dimension_mismatch_rejected():
    agents = [(np.eye(2), np.zeros(2), None, None)]
    with pytest.raises(DimensionMismatch):
        assemble_problem(agents, [np.ones((1, 1))], [1.0])


def test_arrays_that_are_not_finite_are_rejected():
    # One agent over two variables. A bad Hessian entry off the diagonal has
    # a finite mirror (asymmetry inf) or, set in both cells, a bad one (NaN).
    def parts(name=None, cells=(), bad=0.0):
        a = {"sigma": 2.0 * np.eye(2), "psi": np.zeros(2), "B": -np.eye(2), "m": np.zeros(2), "A": np.ones((1, 2)), "d": np.ones(1)}
        if name:
            a[name].flat[list(cells)] = bad
        return [(a["sigma"], a["psi"], a["B"], a["m"])], [a["A"]], a["d"]

    cases = [("sigma", (0,)), ("sigma", (1,)), ("sigma", (1, 2)), ("psi", (0,)), ("B", (0,)), ("m", (1,)), ("A", (0,)), ("d", (0,))]
    for bad in (np.nan, np.inf, -np.inf):
        for name, cells in cases:
            with pytest.raises(DimensionMismatch, match="must be finite"):
                assemble_problem(*parts(name, cells, bad))
            if name in ("sigma", "psi"):
                (sigma, psi, _, _), *_ = parts(name, cells, bad)[0]
                with pytest.raises(DimensionMismatch, match="must be finite"):
                    assemble_problem(*parts(), actual=[(sigma, psi)])


def test_empty_local_set_detected():
    agents = [(np.array([[2.0]]), np.zeros(1), np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0]))]
    with pytest.raises(EmptyLocalSet):
        assemble_problem(agents, [np.ones((1, 1))], [0.0])


def test_a_large_bound_hides_no_violation_on_another_row():
    # x1 <= -1e-4 and x1 >= 0 leave the set empty; the 1e12 bound on x2 widens
    # only its own row's tolerance, so the origin is not taken as a member.
    B, m = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), np.array([-1e-4, 0.0, 1e12])
    assert not LocalPolyhedron(B, m).contains(np.zeros(2))
    with pytest.raises(EmptyLocalSet):
        assemble_problem([(np.eye(2), np.zeros(2), B, m)], [np.ones((1, 2))], [0.0])


def test_coupling_map_supported_on_own_block():
    # The solver's A~_i is A_i on agent i's block and zero elsewhere, bit for bit.
    for p in (three_supplier_problem(), random_instance((4, 2, 3, 2), seed=0).problem):
        graph = random_connected_graph(p.n_agents, np.random.default_rng(0))
        A_pad = init_state(p, graph, SolverParams()).A_pad
        assert A_pad.shape == (p.n_agents, p.n_coupling, p.n_total)
        for i in range(p.n_agents):
            expected = np.zeros((p.n_coupling, p.n_total))
            expected[:, p.block(i)] = p.A[i]
            assert A_pad[i].tobytes() == expected.tobytes()
            assert np.any(A_pad[i][:, p.block(i)] != 0)
        assert p.owner.tolist() == [i for i in range(p.n_agents) for _ in range(p.dims[i])]


def test_convert_inequality_coupling_interior_optimum():
    # min (x1-1)^2 + (x2-1)^2 with sum x <= 5 (slack positive at optimum).
    agents = []
    for i in range(2):
        sigma = np.zeros((2, 2))
        sigma[i, i] = 2.0
        psi = np.zeros(2)
        psi[i] = -2.0
        agents.append((sigma, psi, np.array([[-1.0]]), np.array([5.0])))
    ineq_problem = assemble_problem(agents, [np.ones((1, 1))] * 2, [5.0])
    converted, smap = convert_inequality_coupling(ineq_problem)
    sol = centralized_solve(converted)
    assert smap.strip(sol.x) == pytest.approx([1.0, 1.0], abs=1e-7)
    assert sol.lam == pytest.approx([0.0], abs=1e-7)

    direct = solve_qp(
        P=np.diag([2.0, 2.0]),
        q=np.array([-2.0, -2.0]),
        G=np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        u=np.array([5.0, 5.0, 5.0]),
    )
    assert abs(sol.value - (0.5 * direct.x @ np.diag([2.0, 2.0]) @ direct.x + np.array([-2.0, -2.0]) @ direct.x)) <= 1e-8


def test_convert_inequality_coupling_single_agent_slack():
    agents = [(np.array([[2.0]]), np.zeros(1), None, None)]
    ineq_problem = assemble_problem(agents, [np.ones((1, 1))], [1.0])
    converted, smap = convert_inequality_coupling(ineq_problem)
    assert converted.dims == (2,)
    sol = centralized_solve(converted)
    # Unconstrained minimum x=0 is feasible for x <= 1; slack fills the rest.
    assert smap.strip(sol.x) == pytest.approx([0.0], abs=1e-8)
    assert sol.x[1] == pytest.approx(1.0, abs=1e-8)


def test_convert_inequality_coupling_infeasible_downstream():
    # Local set forces x >= 2 but the inequality coupling demands x <= 1.
    agents = [(np.array([[2.0]]), np.zeros(1), np.array([[-1.0]]), np.array([-2.0]))]
    ineq_problem = assemble_problem(agents, [np.ones((1, 1))], [1.0])
    converted, _ = convert_inequality_coupling(ineq_problem)
    with pytest.raises(Infeasible):
        centralized_solve(converted)


def test_exclude_agent_values():
    p = three_supplier_problem()
    drop0 = centralized_solve(exclude_agent(p, 0))
    assert drop0.x == pytest.approx([2.75, 2.25], abs=1e-9)
    assert drop0.value == pytest.approx(54.875, abs=1e-9)
    drop1 = centralized_solve(exclude_agent(p, 1))
    assert drop1.x == pytest.approx([3.0, 2.0], abs=1e-9)
    assert drop1.value == pytest.approx(52.0, abs=1e-9)
    drop2 = centralized_solve(exclude_agent(p, 2))
    assert drop2.x == pytest.approx([2.75, 2.25], abs=1e-9)
    assert drop2.value == pytest.approx(49.875, abs=1e-9)


def test_exclude_agent_restricts_costs():
    p = three_supplier_problem()
    sub = exclude_agent(p, 1)
    x = np.array([1.0, 2.0])
    lifted = np.array([1.0, 0.0, 2.0])
    assert eval_cost(sub, 0, x) == pytest.approx(eval_cost(p, 0, lifted), abs=1e-12)
    assert eval_cost(sub, 1, x) == pytest.approx(eval_cost(p, 2, lifted), abs=1e-12)


def blocks_problem(dims=(2, 3, 1), rows=(2, 0, 1)) -> CoupledProblem:
    """By default three agents with blocks of 2, 3 and 1 and random dense
    objectives; agent 1 has no local rows. Agent i owns rows[i] rows."""
    rng = np.random.default_rng(8)
    n = sum(dims)

    def psd():
        M = rng.normal(size=(n, n))
        return M.T @ M

    agents = [(psd(), rng.normal(size=n), -np.eye(k, ni), np.zeros(k)) for ni, k in zip(dims, rows)]
    A = [rng.normal(size=(2, ni)) for ni in dims]
    return assemble_problem(agents, A, np.ones(2), actual=[(psd(), rng.normal(size=n)) for _ in dims])


def test_exclude_agent_restricts_by_blocks_bitwise():
    # Actual objectives are restricted as they are: the kept columns of F,
    # the same D. Each algorithmic one also takes an equal share of agent i's
    # algorithmic minus actual objective, as stacked factors.
    # With four agents each share is a third, which no multiplication by
    # 1/3 reproduces bit for bit.
    for p in (blocks_problem(), blocks_problem((2, 3, 1, 2), (2, 0, 1, 1)), random_instance((4, 2, 3, 2), seed=1).problem):
        for i in range(p.n_agents):
            keep = np.concatenate([np.arange(p.block(j).start, p.block(j).stop) for j in range(p.n_agents) if j != i])
            cut = np.ix_(keep, keep)
            sub = exclude_agent(p, i)
            others = [j for j in range(p.n_agents) if j != i]
            for j, r in zip(others, sub.actual, strict=True):
                assert r.F.tobytes() == p.actual[j].F[:, keep].tobytes() and r.D is p.actual[j].D
                assert r.psi.tobytes() == p.actual[j].psi[keep].tobytes()
            alg, act = p.algorithmic[i], p.actual[i]
            share_psi = (alg.psi - act.psi)[keep] / len(others)
            for j, r in zip(others, sub.algorithmic, strict=True):
                own = p.algorithmic[j]
                assert r.F.tobytes() == np.vstack([own.F, alg.F, act.F])[:, keep].tobytes()
                k, a = own.D.shape[0], alg.D.shape[0]
                assert r.D[:k, :k].tobytes() == own.D.tobytes()
                assert r.D[k : k + a, k : k + a].tobytes() == (alg.D / len(others)).tobytes()
                assert r.D[k + a :, k + a :].tobytes() == (-act.D / len(others)).tobytes()
                assert not r.D[:k, k:].any() and not r.D[k:, :k].any() and not r.D[k : k + a, k + a :].any()
                assert r.psi.tobytes() == (own.psi[keep] + share_psi).tobytes()
                dense = own.sigma[cut] + (alg.sigma - act.sigma)[cut] / len(others)
                assert np.allclose(r.sigma, dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max())


def test_exclude_agent_keeps_both_totals_equal():
    # Transport markets split edge congestion by kappa shares, so the
    # algorithmic and actual objectives of one agent differ.
    p = random_instance((4, 2, 3, 2), seed=1).problem
    for i in range(p.n_agents):
        sub = exclude_agent(p, i)
        alg, act = sub.total_quadratic("algorithmic"), sub.total_quadratic("actual")
        for a, b in zip(alg, act):
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


def test_dense_totals_add_the_dense_hessians():
    # A dense Hessian is stored as F = I, D = sigma, and the dense total adds
    # the objectives' n x n Hessians from a zero start, bit for bit.
    p = blocks_problem()
    for which in ("actual", "algorithmic"):
        objs = getattr(p, which)
        assert all(np.array_equal(o.F, np.eye(p.n_total)) for o in objs)
        assert p.total_quadratic(which)[0].tobytes() == sum((o.D for o in objs), np.zeros((p.n_total,) * 2)).tobytes()


def test_totals_from_the_factors_match_the_dense_forms():
    # total_value and the total gradient add the objectives' own values and
    # gradients; they agree with the dense total's to 1e-12 relative.
    problems = [random_instance((4, 2, 3, 2), seed=s).problem for s in range(3)] + [blocks_problem()]
    rng = np.random.default_rng(3)
    for p in problems:
        for x in (centralized_solve(p).x, rng.normal(size=p.n_total)):
            for which in ("actual", "algorithmic"):
                sigma, psi = p.total_quadratic(which)
                dense = 0.5 * x @ sigma @ x + psi @ x
                scale = 0.5 * np.abs(x) @ np.abs(sigma) @ np.abs(x) + np.abs(psi) @ np.abs(x)
                assert abs(p.total_value(x, which) - dense) <= 1e-12 * scale
            sigma, psi = p.total_quadratic("actual")
            grad, _ = problem_module._total_gradient(p, x)
            assert np.all(np.abs(grad - (sigma @ x + psi)) <= 1e-12 * (np.abs(sigma) @ np.abs(x) + np.abs(psi)).max())


def test_only_the_market_qp_forms_a_dense_hessian(monkeypatch):
    # A settlement, the dual test and a total value read the factors alone;
    # building a market forms its total from each agent's sigma once.
    inst = random_instance((4, 2, 3, 2), seed=0)
    report = inst.perturbed_reports({1: 0.5})
    sol = centralized_solve(report, which="reported")
    reads = []
    dense = QuadObjective.sigma.fget
    monkeypatch.setattr(QuadObjective, "sigma", property(lambda o: reads.append(o) or dense(o)))
    sp_for_problem(report, solution=sol)
    dual_residual(report, sol.x, sol.lam)
    report.reported.total_value(sol.x)
    assert reads == []
    problem_module._Market(inst.problem)
    assert len(reads) == inst.problem.n_agents and all(r is o for r, o in zip(reads, inst.problem.actual))


def test_market_without_agents_has_empty_arrays():
    # The one-agent market with agent 0 removed: demand d is met only when d = 0.
    empty = lambda d: exclude_agent(assemble_problem([(2.0 * np.eye(1), [3.0], -np.eye(1), np.zeros(1))], [np.ones((1, 1))], [d]), 0)
    assert empty(5.0).stacked_A().shape == (1, 0)
    assert [a.shape for a in empty(5.0).total_quadratic()] == [(0, 0), (0,)]
    assert [a.shape for a in empty(5.0).local_stacked()] == [(0, 0), (0,)]
    with pytest.raises(Infeasible):
        centralized_solve(empty(5.0))
    sol = centralized_solve(empty(0.0))
    assert sol.x.shape == (0,) and sol.value == 0.0


def test_excluding_the_only_agent_divides_nothing():
    # No agent is left to take a share of the removed agent's gap, so no
    # share is formed (it had been 0/0, with two RuntimeWarnings).
    p = assemble_problem([(2.0 * np.eye(1), [3.0], -np.eye(1), np.zeros(1))], [np.ones((1, 1))], [5.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        empty = exclude_agent(p, 0)
    assert empty.dims == () and empty.algorithmic == () and empty.actual == ()


def test_exclude_agent_rows_renumbers_the_rest(monkeypatch):
    # solve_without starts the drop-one solve from the full optimum's tight
    # rows, renumbered as in the market without the agent.
    p = blocks_problem()  # local rows: agent 0 owns 0-1, agent 2 owns 2
    starts = []
    optimum = problem_module._optimum
    monkeypatch.setattr(problem_module, "_optimum", lambda qp, psi, active: starts.append(active) or optimum(qp, psi, active))
    full = lambda rows: dataclasses.replace(centralized_solve(p), active=rows)
    for i, rows, kept in ((0, (0, 1, 2), (0,)), (1, (1, 2), (1, 2)), (2, (0, 2), (0,))):
        sol = problem_module._Market(p).solve_without(i, full(rows))
        assert starts.pop() == kept
        ref = centralized_solve(exclude_agent(p, i))
        assert sol.value == pytest.approx(ref.value, rel=1e-9, abs=1e-9)
    G, _ = p.local_stacked()
    for i in range(p.n_agents):
        problem_module._Market(p).solve_without(i, full(tuple(range(G.shape[0]))))
        assert starts.pop() == tuple(range(exclude_agent(p, i).local_stacked()[0].shape[0]))
    with pytest.raises(UnknownAgent):
        problem_module._Market(p).solve_without(3, full((0,)))


def test_market_qp_holds_its_rows_once(monkeypatch):
    # The market QP keeps the coupling rows over the local rows as one array
    # C, and so does each drop-one restriction: E and G are views of it, not
    # copies (nor the caller's local_stacked() array).
    p = random_instance((4, 2, 3, 2), seed=0).problem
    market, full = problem_module._Market(p), centralized_solve(p)
    restricted = []
    optimum = problem_module._optimum
    monkeypatch.setattr(problem_module, "_optimum", lambda qp, psi, active: restricted.append(qp) or optimum(qp, psi, active))
    market.solve_without(1, full)
    (qp,) = restricted
    G, _ = p.local_stacked()
    cols, rows = np.r_[0 : p.block(1).start, p.block(1).stop : p.n_total], np.r_[0 : p.rows(1).start, p.rows(1).stop : G.shape[0]]
    np.testing.assert_array_equal(market.qp.E, p.stacked_A())
    np.testing.assert_array_equal(market.qp.G, G)
    np.testing.assert_array_equal(qp.E, p.stacked_A()[:, cols])
    np.testing.assert_array_equal(qp.G, G[rows][:, cols])
    for kernel in (market.qp, qp):
        assert np.shares_memory(kernel.E, kernel.C) and np.shares_memory(kernel.G, kernel.C)


def layout_problems():
    """blocks_problem, whose middle agent has no local rows, and random (4,2,3,2) markets."""
    return [blocks_problem()] + [random_instance((4, 2, 3, 2), seed=s).problem for s in (0, 1, 2)]


def test_rows_slice_the_stacked_local_rows():
    for p in layout_problems():
        G, u = p.local_stacked()
        assert p.row_offsets[0] == 0 and p.row_offsets[-1] == G.shape[0] == u.shape[0]
        for i, poly in enumerate(p.local):
            rows, blk = p.rows(i), p.block(i)
            assert rows.stop - rows.start == poly.n_rows
            assert G[rows, blk].tobytes() == poly.B.tobytes() and u[rows].tobytes() == poly.m.tobytes()
            assert not np.delete(G[rows], np.arange(blk.start, blk.stop), axis=1).any()
        for i in (-1, p.n_agents):
            with pytest.raises(UnknownAgent):
                p.rows(i)
    assert blocks_problem().row_offsets == (0, 2, 2, 3)


def test_tight_rows_apply_each_agents_slack_rule():
    rng = np.random.default_rng(3)
    for p in layout_problems():
        for x in (centralized_solve(p).x, np.maximum(rng.normal(size=p.n_total), 0.0)):
            tight = p.tight_rows(x)
            assert tight.dtype == bool and tight.shape == (p.row_offsets[-1],)
            for i, poly in enumerate(p.local):
                slack = poly.m - poly.B @ x[p.block(i)]
                scale = max(1.0, float(np.max(np.abs(poly.m)))) if poly.n_rows else 1.0
                assert np.array_equal(tight[p.rows(i)], slack <= 1e-6 * scale)
    # blocks_problem's rows are -x_0, -x_1 (agent 0) and -x_5 (agent 2) <= 0.
    x = np.array([0.0, 1.0, -3.0, 4.0, 5.0, 5e-7])
    assert blocks_problem().tight_rows(x).tolist() == [True, False, True]


def test_solve_without_remaps_rows_onto_the_same_rows(monkeypatch):
    # Each start row handed to the drop-one solve is the same row of the
    # market without the agent: its coefficients on the kept columns and its bound.
    starts = []
    for p in layout_problems():
        G, u = p.local_stacked()
        sol = centralized_solve(p)
        market = problem_module._Market(p)
        for full in (sol, dataclasses.replace(sol, active=tuple(range(G.shape[0])))):
            for i in range(p.n_agents):
                with monkeypatch.context() as m:
                    m.setattr(problem_module, "_optimum", lambda qp, psi, active: starts.append(active))
                    market.solve_without(i, full)
                G_without, u_without = exclude_agent(p, i).local_stacked()
                kept = [r for r in full.active if r not in range(p.rows(i).start, p.rows(i).stop)]
                cols = np.delete(np.arange(p.n_total), p.block(i))
                remapped = list(starts.pop())
                assert len(remapped) == len(kept) and len(set(remapped)) == len(kept)
                assert G_without[remapped].tobytes() == G[kept][:, cols].tobytes()
                assert u_without[remapped].tobytes() == u[kept].tobytes()


def test_drop_one_restriction_equals_the_built_market_bitwise(monkeypatch):
    # On a transport market (a star's P is definite, a layered one's is not)
    # the drop-one QP is a principal restriction of the market's, and
    # solves to the bits of the market exclude_agent builds, with and
    # without a start. blocks_problem's dense actual objectives reach the
    # others' columns, so there the market without the agent is built.
    star = to_transport(random_star(np.random.default_rng(4))).problem
    built = []
    exclude, optimum = problem_module.exclude_agent, problem_module._optimum
    monkeypatch.setattr(problem_module, "exclude_agent", lambda p, i: built.append(i) or exclude(p, i))
    for p in [star] + layout_problems():
        full = centralized_solve(p)
        market = problem_module._Market(p)
        built.clear()
        for i in range(p.n_agents):
            own = range(p.rows(i).start, p.rows(i).stop)
            start = tuple(r - len(own) if r >= own.stop else r for r in full.active if r not in own)
            pairs = [(market.solve_without(i, full), problem_module._Market(exclude(p, i)).solve(active=start))]
            with monkeypatch.context() as m:  # every solve without its start
                m.setattr(problem_module, "_optimum", lambda qp, psi, active: optimum(qp, psi, None))
                pairs.append((market.solve_without(i, full), centralized_solve(exclude(p, i))))
            for got, ref in pairs:
                for name in ("x", "lam", "alpha"):
                    assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
                assert got.value == ref.value and got.active == ref.active
        assert built == ([] if p is star or p.n_agents == 4 else [0, 0, 1, 1, 2, 2])


def test_a_report_solves_on_its_market_from_its_linear_term():
    # A report changes only the linear terms, so the market's QP solves it
    # from the report's total linear term, to the bits of the report's own
    # solve (``centralized_solve``), with and without the truthful start.
    inst = random_instance((4, 2, 3, 2), seed=0)
    market, n = problem_module._Market(inst.problem), inst.problem.n_total
    costs = inst.network.edge_costs
    for report in (inst.perturbed_reports({1: 0.5}), inst.perturbed_reports({0: -0.3, 3: 0.2}), inst.with_reported_costs({2: 0.5 * costs[2]})):
        for active in (None, centralized_solve(inst.problem).active):
            ref = centralized_solve(report, which="reported") if active is None else problem_module._Market(report.reported).solve(active=active)
            got = market.solve(problem_module._linear_total(report.reported.actual, n), active=active)
            for name in ("x", "lam", "alpha"):
                assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
            assert got.value == ref.value and got.active == ref.active


def test_reported_problem_selection():
    p = three_supplier_problem()
    fake = three_supplier_problem(costs=(1.0, 3.0, 4.0))
    rp = ReportedProblem(true=p, reported=fake)
    x = np.array([1.0, 1.0, 1.0])
    assert eval_cost(rp, 0, x, which="true") > eval_cost(rp, 0, x, which="reported")
    sol = centralized_solve(rp, which="reported")
    assert sol.x == pytest.approx([2.5, 1.5, 1.0], abs=1e-9)
    assert sol.lam == pytest.approx([16.0], abs=1e-9)


def test_reconcile_dual_sign_detection():
    p = three_supplier_problem()
    sol = centralized_solve(p)
    assert reconcile_dual(p, sol.x, sol.lam) == pytest.approx([49 / 3], abs=1e-9)
    assert reconcile_dual(p, sol.x, -sol.lam) == pytest.approx([49 / 3], abs=1e-9)
    with pytest.raises(ConventionMismatch):
        reconcile_dual(p, sol.x, sol.lam + 7.0)


def test_agentless_market_dual_passes_as_given():
    p = assemble_problem([], [], np.zeros(1))
    x, lam = np.zeros(0), np.array([2.0])
    resid, bound, grad = dual_residual(p, x, lam)
    assert (resid, bound, grad.shape) == (0.0, 1e-5, (0,))
    assert reconcile_dual(p, x, lam).tolist() == [2.0]


def test_reconcile_dual_with_active_bound():
    # Costs spread enough that the cheap agent takes everything: x = (d, 0, 0).
    p = three_supplier_problem(costs=(1.0, 30.0, 40.0), d=1.0)
    sol = centralized_solve(p)
    assert sol.x == pytest.approx([1.0, 0.0, 0.0], abs=1e-8)
    assert reconcile_dual(p, sol.x, -sol.lam) == pytest.approx(sol.lam, abs=1e-8)
