"""The index and vector rules of ``disqo._checks`` at every entry point that
takes an agent, a set of rows or a vector from its caller: a bool or a
fractional index, a vector of the wrong length and a non-finite entry are
``DimensionMismatch``; an agent out of range is ``UnknownAgent``. Each check
runs before any solve. The symmetric-matrix rule holds alike at both entry
points of a Hessian, and a local set admits a start by one rule."""

import numpy as np
import pytest

from disqo import problem as problem_module
from disqo.admm import SolverParams, init_state
from disqo.errors import DimensionMismatch, InfeasibleInitialPoint, UnknownAgent
from disqo.graphs import build_graph, random_connected_graph
from disqo.mechanisms import misreport_sweep, shadow_prices, sp_equilibrium_check, sp_outcome, vcg_ic_check
from disqo.problem import ReportedProblem, assemble_problem, centralized_solve, dual_residual, eval_cost, exclude_agent, reconcile_dual
from disqo.qp import RepeatedQp
from disqo.star import StarInstance, star_misreport
from disqo.transport import random_instance

BOOL, FRACTION, OUT_OF_RANGE, SHORT, NAN = "bool index", "fractional index", "index out of range", "vector one short", "vector with NaN"


@pytest.fixture(scope="module")
def market():
    """(instance, its problem, the problem's optimum) of a four-agent market."""
    inst = random_instance((4, 2, 3, 2), seed=0)
    return inst, inst.problem, centralized_solve(inst.problem)


@pytest.fixture
def no_solve(monkeypatch):
    """Make building a market's QP fail, so a check must come before it."""

    def solved(*args, **kwargs):
        raise AssertionError("a market was built before the arguments were checked")

    monkeypatch.setattr(problem_module._Market, "__init__", solved)


def spoiled(kind: str, i: int, v, n: int):
    """(i, v, error): the valid index i and vector v with one spoiled as
    ``kind`` says, and the error that must follow. ``n`` is the index range."""
    v = np.array(v, float)
    if kind == BOOL:
        return True, v, DimensionMismatch
    if kind == FRACTION:
        return 1.5, v, DimensionMismatch
    if kind == OUT_OF_RANGE:
        return n, v, UnknownAgent
    if kind == SHORT:
        return i, v[:-1], DimensionMismatch
    v[-1] = np.nan
    return i, v, DimensionMismatch


@pytest.mark.parametrize("kind", [BOOL, FRACTION])
@pytest.mark.parametrize("layout", ["block", "rows"])
def test_block_and_rows_take_an_integer_agent(market, layout, kind):
    _, p, _ = market
    i, _, error = spoiled(kind, 0, [], p.n_agents)
    with pytest.raises(error, match="agent must be an integer"):
        getattr(p, layout)(i)


def test_total_value_takes_a_finite_point(market):
    _, p, sol = market
    _, x, error = spoiled(NAN, 0, sol.x, 0)
    with pytest.raises(error, match="x must be finite"):
        p.total_value(x)


@pytest.mark.parametrize("kind", [BOOL, FRACTION, NAN])
def test_eval_cost_takes_an_agent_and_a_finite_point(market, kind):
    _, p, sol = market
    i, x, error = spoiled(kind, 0, sol.x, p.n_agents)
    with pytest.raises(error):
        eval_cost(p, i, x)


@pytest.mark.parametrize("kind", [BOOL, FRACTION])
def test_with_linear_terms_takes_an_integer_agent(market, kind):
    _, p, _ = market
    i, psi, error = spoiled(kind, 0, p.actual[0].psi, p.n_agents)
    with pytest.raises(error):
        p.with_linear_terms({i: psi})


@pytest.mark.parametrize("kind", [BOOL, FRACTION])
def test_exclude_agent_takes_an_integer_agent(market, kind):
    _, p, _ = market
    i, _, error = spoiled(kind, 0, [], p.n_agents)
    with pytest.raises(error):
        exclude_agent(p, i)


@pytest.mark.parametrize("kind", [SHORT, NAN])
@pytest.mark.parametrize("spoil", ["x", "lam"])
def test_dual_residual_takes_a_point_and_a_dual(market, spoil, kind):
    _, p, sol = market
    args = {"x": sol.x, "lam": sol.lam}
    _, args[spoil], error = spoiled(kind, 0, args[spoil], 0)
    with pytest.raises(error, match=spoil):
        dual_residual(p, **args)


@pytest.mark.parametrize("kind", [SHORT, NAN])
@pytest.mark.parametrize("spoil", ["x", "lam"])
def test_reconcile_dual_takes_a_point_and_a_dual(market, spoil, kind):
    _, p, sol = market
    args = {"x": sol.x, "lam": -sol.lam}
    _, args[spoil], error = spoiled(kind, 0, args[spoil], 0)
    with pytest.raises(error, match=spoil):
        reconcile_dual(p, **args)


@pytest.mark.parametrize("kind", [SHORT, NAN])
@pytest.mark.parametrize("spoil", ["x", "lam"])
def test_shadow_prices_takes_a_point_and_a_dual(market, spoil, kind):
    _, p, sol = market
    args = {"x": sol.x, "lam": sol.lam}
    _, args[spoil], error = spoiled(kind, 0, args[spoil], 0)
    with pytest.raises(error, match=spoil):
        shadow_prices(p, **args)


def spoiled_prices(kind: str, x, prices):
    """(x, prices, error) with x, agent 1's price vector or the count of
    price vectors spoiled as ``kind`` says."""
    prices = list(prices)
    if kind == "one price vector missing":
        return x, prices[:-1], DimensionMismatch
    if kind.startswith("x "):
        _, x, error = spoiled(kind[2:], 0, x, 0)
        return x, prices, error
    _, prices[1], error = spoiled(kind, 0, prices[1], 0)
    return x, prices, error


PRICE_KINDS = ["x " + SHORT, "x " + NAN, SHORT, NAN, "one price vector missing"]


@pytest.mark.parametrize("kind", PRICE_KINDS)
def test_sp_outcome_takes_a_point_and_one_price_vector_per_agent(market, kind):
    _, p, sol = market
    x, prices, error = spoiled_prices(kind, sol.x, shadow_prices(p, sol.x, sol.lam))
    with pytest.raises(error):
        sp_outcome(p, x, prices)


@pytest.mark.parametrize("kind", PRICE_KINDS)
def test_sp_equilibrium_check_takes_a_point_and_one_price_vector_per_agent(market, kind):
    _, p, sol = market
    x, prices, error = spoiled_prices(kind, sol.x, shadow_prices(p, sol.x, sol.lam))
    with pytest.raises(error):
        sp_equilibrium_check(p, x, prices)


@pytest.mark.parametrize("kind", [BOOL, FRACTION, OUT_OF_RANGE])
def test_misreport_sweep_checks_its_agent_before_any_solve(market, no_solve, kind):
    inst, p, _ = market
    agent, _, error = spoiled(kind, 0, [], p.n_agents)
    with pytest.raises(error):
        misreport_sweep(inst, agent, [0.1])


@pytest.mark.parametrize("kind", [BOOL, FRACTION, OUT_OF_RANGE])
def test_vcg_ic_check_checks_every_agent_before_any_solve(market, no_solve, kind):
    _, p, _ = market
    agent, _, error = spoiled(kind, 0, [], p.n_agents)
    with pytest.raises(error):
        vcg_ic_check(p, [(0, ReportedProblem.truthful(p)), (agent, ReportedProblem.truthful(p))])


@pytest.mark.parametrize("extra", [-1, 1], ids=["one start missing", "one start too many"])
def test_init_state_takes_one_start_per_agent(market, extra):
    _, p, _ = market
    graph = random_connected_graph(p.n_agents, np.random.default_rng(0))
    y0 = np.zeros((p.n_agents + extra, p.n_total))
    with pytest.raises(DimensionMismatch, match="y0 has"):
        init_state(p, graph, SolverParams(), y0=y0)


@pytest.mark.parametrize("kind", [BOOL, FRACTION])
def test_repeated_qp_takes_integer_guess_rows(kind):
    qp = RepeatedQp(np.eye(2), G=-np.eye(2), u=np.zeros(2))
    row, _, error = spoiled(kind, 0, [], 2)
    with pytest.raises(error, match="active rows must be an integer"):
        qp.solve(np.ones(2), active=(row,))


@pytest.mark.parametrize("guess", [(0, True), [np.int64(0), np.True_], frozenset({True, 0})], ids=["bool", "numpy bool", "set"])
def test_repeated_qp_takes_no_bool_among_integer_guess_rows(guess):
    # np.array reads (0, True) as the integer rows (0, 1)
    qp = RepeatedQp(np.eye(2), G=-np.eye(2), u=np.zeros(2))
    with pytest.raises(DimensionMismatch, match="active rows must be an integer"):
        qp.solve(np.ones(2), active=guess)


@pytest.mark.parametrize("kind", [BOOL, FRACTION, OUT_OF_RANGE])
def test_star_misreport_takes_an_agent(kind):
    inst = StarInstance([2.0, 3.0, 4.0], 1.0, 5.0)
    i, _, error = spoiled(kind, 0, [], inst.n)
    with pytest.raises(error):
        star_misreport(inst, i, -0.1)


@pytest.mark.parametrize("kind", [BOOL, FRACTION])
def test_with_reported_costs_takes_an_integer_agent(market, kind):
    inst, p, _ = market
    i, costs, error = spoiled(kind, 0, inst.network.edge_costs[0], p.n_agents)
    with pytest.raises(error):
        inst.with_reported_costs({i: costs})


@pytest.mark.parametrize("wrong", [True, np.False_, "1.5"])
def test_a_vector_from_a_list_holds_numbers_only(market, wrong):
    # numpy reads a bool as 1.0 or 0.0 and parses a numeric string; an
    # ndarray is taken as it is typed.
    inst, p, sol = market
    costs = inst.network.edge_costs[0].tolist()
    costs[1] = wrong
    with pytest.raises(DimensionMismatch, match="reported cost vector of agent 0 must hold numbers"):
        inst.with_reported_costs({0: costs})
    with pytest.raises(DimensionMismatch, match="x must hold numbers"):
        eval_cost(p, 0, [wrong, *sol.x[1:]])
    with pytest.raises(DimensionMismatch, match="route costs must hold numbers"):
        StarInstance([2.0, wrong, 4.0], 1.0, 5.0)
    assert StarInstance(np.array([2, 1, 4]), 1.0, 5.0).c_norms.tobytes() == np.array([2.0, 1.0, 4.0]).tobytes()


def test_numpy_integers_and_lists_are_accepted_with_the_same_bits(market):
    inst, p, sol = market
    assert p.block(np.int64(2)) == p.block(2) and p.rows(np.int32(1)) == p.rows(1)
    assert eval_cost(p, np.int64(1), list(sol.x)) == eval_cost(p, 1, sol.x)
    assert dual_residual(p, list(sol.x), list(sol.lam))[0] == dual_residual(p, sol.x, sol.lam)[0]
    assert reconcile_dual(p, list(sol.x), list(-sol.lam)).tobytes() == sol.lam.tobytes()
    prices = shadow_prices(p, list(sol.x), list(sol.lam))
    assert [v.tobytes() for v in prices] == [v.tobytes() for v in shadow_prices(p, sol.x, sol.lam)]
    listed = sp_outcome(p, list(sol.x), [v.tolist() for v in prices])
    assert listed.payments.tobytes() == sp_outcome(p, sol.x, prices).payments.tobytes()
    assert sp_equilibrium_check(p, list(sol.x), [v.tolist() for v in prices]).tobytes() == sp_equilibrium_check(p, sol.x, prices).tobytes()
    reported = inst.with_reported_costs({np.int64(1): inst.network.edge_costs[1].tolist()}).reported
    assert reported.actual[1].psi.tobytes() == p.actual[1].psi.tobytes()
    qp = RepeatedQp(np.eye(2), G=-np.eye(2), u=np.zeros(2))
    for guess in ((0, 1), [np.int64(0), 1], np.array([0, 1]), frozenset({0, 1}), ()):
        assert qp.solve([1.0, 1.0], active=guess).x.tobytes() == qp.solve(np.ones(2)).x.tobytes()
    assert star_misreport(StarInstance([2.0, 3.0, 4.0], 1.0, 5.0), np.int64(0), -0.1).active == (0, 1, 2)


def _hessian_entry(entry: str, M: np.ndarray) -> np.ndarray:
    """M passed in as a QP's P or as a problem's D, and the matrix kept."""
    if entry == "qp P":
        return RepeatedQp(M).P
    return assemble_problem([((np.eye(2), M), np.zeros(2), None, None)], [np.ones((1, 2))], [1.0]).algorithmic[0].D


@pytest.mark.parametrize("entry", ["qp P", "problem D"])
def test_a_symmetric_matrix_passes_by_one_rule_at_every_entry(entry):
    # Asymmetry is measured against max(1, max |M|) = 4: 5e-10 of it fails
    # and 5e-11 passes, as a QP's P and as an objective's D alike.
    for relative, passes in ((5e-10, False), (5e-11, True)):
        M = np.array([[4.0, 1.0], [1.0, 4.0]])
        M[0, 1] += relative * 4.0
        if not passes:
            with pytest.raises(DimensionMismatch, match="not symmetric"):
                _hessian_entry(entry, M)
            continue
        kept = _hessian_entry(entry, M)
        assert kept.tobytes() == ((M + M.T) / 2.0).tobytes() and np.array_equal(kept, kept.T)


def test_a_local_set_and_a_start_agree_on_both_sides_of_the_bound():
    # Agent 0's one row x <= 10 admits 1e-9 max(1, 10) above it, for
    # ``contains`` and for a start alike.
    p = assemble_problem([(np.eye(2), np.zeros(2), [[1.0]], [10.0]), (np.eye(2), np.zeros(2), None, None)], [[[1.0]], [[1.0]]], [1.0])
    poly = p.local[0]
    for above, inside in ((5e-9, True), (2e-8, False)):
        y0 = np.zeros((2, 2))
        y0[0, 0] = 10.0 + above
        assert poly.contains(y0[0, :1]) is inside
        if inside:
            init_state(p, build_graph(2, [(0, 1)]), SolverParams(), y0=y0)
        else:
            with pytest.raises(InfeasibleInitialPoint, match="violates the local rows by 2.00e-08"):
                init_state(p, build_graph(2, [(0, 1)]), SolverParams(), y0=y0)
