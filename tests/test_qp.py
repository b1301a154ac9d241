from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from disqo import qp as qp_module
from disqo.errors import DimensionMismatch, Infeasible, NonPsdHessian, Unbounded
from disqo.qp import RepeatedQp, WarmBatch, _solve_reduced, _step_verdict, solve_qp

from oracles import enumerate_box_qp, enumerate_qp, qp_value


def box_rows(n, lo, hi):
    """Stack x <= hi and -x <= -lo as inequality rows."""
    G = np.vstack([np.eye(n), -np.eye(n)])
    u = np.concatenate([hi, -np.asarray(lo, float)])
    return G, u


def assert_kkt(spec, sol, tol=1e-8):
    assert sol.optimal, sol.residuals
    for name, val in sol.residuals.items():
        assert val <= tol, f"{name}={val:.3e}"


def test_scalar_box_interior_optimum():
    spec = dict(P=np.array([[1.0]]), q=np.array([-1.0]), G=np.array([[1.0], [-1.0]]), u=np.array([10.0, 0.0]))
    sol = solve_qp(**spec)
    assert_kkt(spec, sol)
    assert sol.x == pytest.approx([1.0], abs=1e-9)
    assert sol.alpha == pytest.approx([0.0, 0.0], abs=1e-9)


def test_equality_symmetric_split():
    spec = dict(P=2 * np.eye(2), q=np.zeros(2), E=np.array([[1.0, 1.0]]), h=np.array([5.0]))
    sol = solve_qp(**spec)
    assert_kkt(spec, sol)
    assert sol.x == pytest.approx([2.5, 2.5], abs=1e-9)
    # Stationarity 2x + lam*1 = 0 pins the equality dual at -5.
    assert sol.lam == pytest.approx([-5.0], abs=1e-9)


def test_three_agent_reduced_allocation():
    # One scalar decision per agent, congestion-style coupling, demand 5:
    # min sum(x_i^2) + (sum x)^2 + (2,3,4).x  s.t. sum x = 5, x >= 0.
    P = 2.0 * (np.eye(3) + np.ones((3, 3)))
    q = np.array([2.0, 3.0, 4.0])
    spec = dict(P=P, q=q, E=np.ones((1, 3)), h=np.array([5.0]), G=-np.eye(3), u=np.zeros(3))
    sol = solve_qp(**spec)
    assert_kkt(spec, sol)
    assert sol.x == pytest.approx([13 / 6, 5 / 3, 7 / 6], abs=1e-9)
    assert sol.lam == pytest.approx([-49 / 3], abs=1e-9)


def test_active_bound_with_dual():
    # min (x-3)^2 on [0,1]: active upper bound, alpha = -grad = 4.
    spec = dict(P=np.array([[2.0]]), q=np.array([-6.0]), G=np.array([[1.0], [-1.0]]), u=np.array([1.0, 0.0]))
    sol = solve_qp(**spec)
    assert_kkt(spec, sol)
    assert sol.x == pytest.approx([1.0], abs=1e-9)
    assert sol.alpha == pytest.approx([4.0, 0.0], abs=1e-9)


def test_infeasible_box_detected():
    spec = dict(P=np.eye(1), q=np.zeros(1), G=np.array([[1.0], [-1.0]]), u=np.array([-1.0, 0.0]))
    with pytest.raises(Infeasible):
        solve_qp(**spec)


def test_infeasible_equalities_detected():
    spec = dict(P=np.eye(2), q=np.zeros(2), E=np.array([[1.0, 1.0], [1.0, 1.0]]), h=np.array([1.0, 2.0]))
    with pytest.raises(Infeasible):
        solve_qp(**spec)


def test_non_psd_rejected():
    spec = dict(P=np.diag([1.0, -1.0]), q=np.zeros(2))
    with pytest.raises(NonPsdHessian):
        solve_qp(**spec)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        solve_qp(P=np.eye(2), q=np.zeros(3))


def test_unconstrained_solve():
    P = np.diag([1.0, 4.0])
    q = np.array([-1.0, -8.0])
    sol = solve_qp(P=P, q=q)
    assert_kkt(None, sol)
    assert sol.x == pytest.approx([1.0, 2.0], abs=1e-10)

    # Singular P: bounded below exactly when q lies in its range.
    P = np.diag([1.0, 0.0])
    with pytest.raises(Unbounded, match="unbounded"):
        solve_qp(P=P, q=np.array([-1.0, 1.0]))
    sol = solve_qp(P=P, q=np.array([-1.0, 0.0]))
    assert_kkt(None, sol)
    assert sol.x == pytest.approx([1.0, 0.0], abs=1e-10)

    # Ill-conditioned P with a large linear term.
    rng = np.random.default_rng(8)
    M = rng.normal(size=(6, 6))
    sol = solve_qp(P=M.T @ M + 1e-3 * np.eye(6), q=1e3 * rng.normal(size=6))
    assert sol.optimal, sol.residuals
    # Worse conditioned: P is positive definite, so each solve has a
    # stationary point, found to a round-off that grows with |q|.
    for seed in range(200):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(6, 6))
        sol = solve_qp(P=M.T @ M + 1e-5 * np.eye(6), q=1e3 * rng.normal(size=6))
        assert sol.optimal, f"seed {seed}"


def test_max_iter_reports_partial_result():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(6, 6))
    P = M.T @ M + 0.5 * np.eye(6)
    G, u = box_rows(6, -np.ones(6), np.ones(6))
    sol = solve_qp(P=P, q=rng.normal(size=6), G=G, u=u, tol=1e-300, max_iter=60)  # a tolerance no polish meets
    assert sol.status == "max_iter"
    assert np.all(np.isfinite(sol.x))
    assert "stationarity" in sol.residuals


@pytest.mark.parametrize("budget", [1, 5, 7])
def test_budgets_before_the_first_check_end_at_their_last_iteration(budget):
    # The periodic checks start at iteration 8; the last iteration of any
    # budget is polished and scored too.
    G, u = box_rows(2, -np.ones(2), np.ones(2))
    sol = solve_qp(np.eye(2), np.array([0.3, -0.2]), G=G, u=u, max_iter=budget)
    assert sol.status == "optimal" and sol.iterations == budget
    assert sol.x == pytest.approx([-0.3, 0.2], abs=1e-12)
    rng = np.random.default_rng(0)
    M = rng.normal(size=(6, 6))
    G, u = box_rows(6, -np.ones(6), np.ones(6))
    sol = solve_qp(P=M.T @ M + 0.5 * np.eye(6), q=rng.normal(size=6), G=G, u=u, tol=1e-300, max_iter=budget)
    assert sol.status == "max_iter" and sol.iterations == budget


def test_zero_budget_rejected():
    with pytest.raises(DimensionMismatch, match="max_iter"):
        RepeatedQp(np.eye(2), G=np.eye(2), u=np.ones(2), max_iter=0)


def test_a_budget_that_is_not_an_integer_is_rejected():
    for budget in (2.5, 1e3, True):  # a bool is an int, but not a budget
        with pytest.raises(DimensionMismatch, match="max_iter must be an integer"):
            solve_qp(np.eye(2), np.array([0.3, -0.2]), G=np.eye(2), u=np.ones(2), max_iter=budget)


def test_box_qps_match_enumeration_oracle():
    rng = np.random.default_rng(42)
    dims = [int(rng.integers(1, 9)) for _ in range(90)] + [9, 9, 9, 9, 9, 10, 10, 10, 10, 10]
    for case, n in enumerate(dims):
        M = rng.normal(size=(n, n))
        P = M.T @ M + 0.2 * np.eye(n)
        q = 3.0 * rng.normal(size=n)
        lo = rng.uniform(-2, 0, size=n)
        hi = rng.uniform(0.1, 2, size=n)
        ref = enumerate_box_qp(P, q, lo, hi)
        assert ref is not None
        x_ref, val_ref = ref
        G, u = box_rows(n, lo, hi)
        spec = dict(P=P, q=q, G=G, u=u)
        sol = solve_qp(**spec, tol=1e-9)
        assert_kkt(spec, sol)
        assert np.max(np.abs(sol.x - x_ref)) <= 1e-7, f"case {case} (n={n})"
        assert abs(qp_value(P, q, sol.x) - val_ref) <= 1e-7


def test_general_qps_match_enumeration_oracle():
    rng = np.random.default_rng(7)
    for case in range(40):
        n = int(rng.integers(2, 6))
        M = rng.normal(size=(n, n))
        P = M.T @ M + 0.3 * np.eye(n)
        q = rng.normal(size=n)
        # One equality through a feasible anchor point, plus a handful of
        # inequality rows that the anchor satisfies strictly.
        anchor = rng.uniform(-0.5, 0.5, size=n)
        E = rng.normal(size=(1, n))
        h = E @ anchor
        mi = int(rng.integers(2, 7))
        G = rng.normal(size=(mi, n))
        u = G @ anchor + rng.uniform(0.1, 1.0, size=mi)
        ref = enumerate_qp(P, q, E, h, G, u)
        assert ref is not None
        x_ref, _, _, val_ref = ref
        spec = dict(P=P, q=q, E=E, h=h, G=G, u=u)
        sol = solve_qp(**spec, tol=1e-9)
        assert_kkt(spec, sol)
        assert np.max(np.abs(sol.x - x_ref)) <= 1e-6, f"case {case}"
        assert abs(qp_value(P, q, sol.x) - val_ref) <= 1e-7


def test_repeated_qp_warm_start_matches_fresh_solves():
    rng = np.random.default_rng(11)
    n = 5
    M = rng.normal(size=(n, n))
    P = M.T @ M + 0.5 * np.eye(n)
    G, u = box_rows(n, np.zeros(n), np.ones(n))
    kernel = RepeatedQp(P, G=G, u=u)
    guess = None
    for _ in range(25):
        q = rng.normal(size=n) * 2.0
        warm = kernel.solve(q, active=guess)  # the last answer's tight set
        fresh = solve_qp(P=P, q=q, G=G, u=u)
        assert warm.optimal and fresh.optimal
        assert np.max(np.abs(warm.x - fresh.x)) <= 1e-8
        guess = warm.active


def test_a_solve_depends_only_on_its_arguments():
    # A box QP with a sum row. After solves of other linear terms on the same
    # QP, a solve without a guess and one whose guess misses both return a
    # new QP's answer bit for bit, after as many splitting iterations.
    rng = np.random.default_rng(57)
    n = 6
    M = rng.normal(size=(n, n))
    G, u = box_rows(n, -np.ones(n), np.ones(n))
    spec = dict(P=M.T @ M + 0.1 * np.eye(n), E=np.ones((1, n)), h=np.ones(1), G=G, u=u)
    q = rng.normal(size=n) * 10
    new = RepeatedQp(**spec).solve(q)
    kernel = RepeatedQp(**spec)
    for _ in range(3):
        assert kernel.solve(q + rng.normal(size=n)).optimal
    assert kernel._polish(q, frozenset({7})) is None
    for sol in (kernel.solve(q), kernel.solve(q, active=(7,))):
        assert sol.optimal and sol.iterations == new.iterations > 0 and sol.active == new.active
        for name in ("x", "lam", "alpha"):
            assert getattr(sol, name).tobytes() == getattr(new, name).tobytes()


def test_singular_hessian_with_pinning_constraints():
    # P singular along (1,-1); the equality pins that direction.
    P = np.array([[1.0, 1.0], [1.0, 1.0]])
    E = np.array([[1.0, -1.0]])
    spec = dict(P=P, q=np.array([1.0, 1.0]), E=E, h=np.array([2.0]))
    sol = solve_qp(**spec)
    assert_kkt(spec, sol)
    assert sol.x[0] - sol.x[1] == pytest.approx(2.0, abs=1e-9)


def test_empty_block_qp_returns_empty_point():
    sol = RepeatedQp(np.zeros((0, 0)), G=np.zeros((3, 0)), u=[1.0, 2.0, 0.0]).solve(np.zeros(0))
    assert sol.optimal and sol.x.shape == (0,)
    assert sol.alpha == pytest.approx([0.0, 0.0, 0.0])
    sol = solve_qp(P=np.zeros((0, 0)), q=np.zeros(0), E=np.zeros((1, 0)), h=np.zeros(1))
    assert sol.optimal and sol.x.shape == (0,) and sol.lam.shape == (1,)


def test_empty_block_qp_infeasible_when_zero_violates_constraints():
    with pytest.raises(Infeasible):
        RepeatedQp(np.zeros((0, 0)), G=np.zeros((3, 0)), u=[1.0, -2.0, 0.0]).solve(np.zeros(0))
    with pytest.raises(Infeasible):
        solve_qp(P=np.zeros((0, 0)), q=np.zeros(0), E=np.zeros((1, 0)), h=np.ones(1))


@pytest.mark.parametrize("c", [0.0, 0.7])
def test_polish_with_both_bounds_of_a_column_active(c):
    # Column 0 lies in [0, c]; the guess holds every bound row, so the first
    # bound on each column fixes it and the second enters as an ordinary row.
    rng = np.random.default_rng(5)
    n = 4
    dropped = 0
    for case in range(20):
        M = rng.normal(size=(n, n))
        P = M.T @ M + 0.2 * np.eye(n)
        q = 3.0 * rng.normal(size=n)
        lo = rng.uniform(-2, 0, size=n)
        hi = rng.uniform(0.1, 2, size=n)
        lo[0], hi[0] = 0.0, c
        x_ref, val_ref = enumerate_box_qp(P, q, lo, hi)
        G, u = box_rows(n, lo, hi)
        kernel = RepeatedQp(P, G=G, u=u)
        sol = kernel._polish(q, frozenset(range(2 * n)))
        assert sol is not None, f"case {case}"
        assert_kkt(None, sol)
        assert np.max(np.abs(sol.x - x_ref)) <= 1e-7, f"case {case}"
        assert abs(qp_value(P, q, sol.x) - val_ref) <= 1e-7
        # The solution's active set is the guess rows that stay tight, not the
        # guess. When the two bounds of column 0 meet (c = 0), a repair step
        # may drop the fixing row although it stays tight, so there the set
        # only lies between the positive multipliers and the tight rows.
        tight = tuple(np.flatnonzero((sol.alpha > 0) | (u - G @ sol.x <= kernel.tol)).tolist())
        if c:
            assert sol.active == tight, f"case {case}"
        else:
            assert set(np.flatnonzero(sol.alpha > 0).tolist()) <= set(sol.active) <= set(tight), f"case {case}"
        dropped += len(sol.active) < 2 * n
    assert dropped


@pytest.fixture
def kernel_calls(monkeypatch):
    """Names of the dense KKT kernels called while the test runs, in order."""
    calls = []

    def counted(name, kernel):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return kernel(*args, **kwargs)

        return wrapper

    for name in ("solve", "lu_factor", "lu_solve", "lstsq"):
        monkeypatch.setattr(scipy.linalg, name, counted(name, getattr(scipy.linalg, name)))
    monkeypatch.setattr(scipy.linalg.lapack, "dgelsy", counted("dgelsy", scipy.linalg.lapack.dgelsy))  # the least-squares kernel
    monkeypatch.setattr(np.linalg, "lstsq", counted("np.linalg.lstsq", np.linalg.lstsq))  # no longer the kernel's
    return calls


def test_warm_solves_factor_each_active_set_once(kernel_calls):
    rng = np.random.default_rng(3)
    n = 5
    M = rng.normal(size=(n, n))
    P = np.eye(n) + 0.05 * M.T @ M
    G, u = box_rows(n, np.zeros(n), np.ones(n))
    kernel = RepeatedQp(P, G=G, u=u)

    def linear_term(x, active):
        alpha = np.zeros(2 * n)
        alpha[list(active)] = 1.0
        return -P @ x - G.T @ alpha

    # Optimum with x3 at its upper and x4 at its lower bound (rows 3 and 9).
    guess = kernel.solve(linear_term(np.array([0.5, 0.3, 0.6, 1.0, 0.0]), (3, 9))).active
    assert guess == (3, 9)
    # x2 now also sits at its upper bound: the first solve, guessing (3, 9),
    # adds row 2 and factors (2, 3, 9); the other k - 1, each guessing the
    # last answer's tight set, reuse it.
    q = linear_term(np.array([0.5, 0.3, 1.0, 1.0, 0.0]), (2, 3, 9))
    k = 4
    kernel_calls.clear()
    for _ in range(k):
        sol = kernel.solve(q + 1e-3 * rng.normal(size=n), active=guess)
        assert sol.optimal and sol.iterations == 0 and sol.active == (2, 3, 9)
        guess = sol.active
    assert kernel_calls.count("lu_factor") == 1
    assert kernel_calls.count("lu_solve") == k + 1
    assert "solve" not in kernel_calls and "lstsq" not in kernel_calls


def test_a_guess_that_holds_needs_no_splitting_system(kernel_calls):
    rng = np.random.default_rng(5)
    n = 4
    M = rng.normal(size=(n, n))
    G, u = box_rows(n, np.zeros(n), np.ones(n))
    spec, q = dict(P=np.eye(n) + 0.05 * M.T @ M, E=np.ones((1, n)), h=np.array([2.0]), G=G, u=u), np.array([5.0, -5.0, 0.0, 0.1])
    cold = solve_qp(q=q, **spec)
    assert cold.iterations > 0 and cold.active == (1, n)  # x1 at its upper, x0 at its lower bound
    kernel_calls.clear()
    warm = RepeatedQp(**spec).solve(q, active=cold.active)
    assert warm.optimal and warm.iterations == 0 and warm.active == cold.active
    np.testing.assert_allclose(warm.x, cold.x, atol=1e-12)
    assert kernel_calls == ["lu_factor", "lu_solve"]  # the reduced system's, and nothing else
    with pytest.raises(DimensionMismatch):
        RepeatedQp(**spec).solve(q, active=[2 * n])


def test_singular_reduced_system_goes_straight_to_lstsq(kernel_calls):
    # Duplicate equality rows make the KKT matrix singular: its LU has an exact zero pivot.
    E = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    kernel = RepeatedQp(np.eye(3), E=E, h=np.array([1.0, 1.0]))
    kernel_calls.clear()
    sol = kernel.solve(np.zeros(3))
    assert sol.optimal and sol.iterations == 0
    np.testing.assert_allclose(sol.x, np.full(3, 1.0 / 3.0), atol=1e-12)
    assert kernel_calls == ["lu_factor", "dgelsy"]


def test_semidefinite_hessian_polishes_by_least_squares_alone(kernel_calls):
    # P is singular, so no reduced system is LU-factored, even one (here x2
    # fixed at its lower bound) whose KKT matrix is nonsingular.
    G, u = box_rows(3, np.zeros(3), np.ones(3))
    kernel = RepeatedQp(np.diag([1.0, 1.0, 0.0]), G=G, u=u)
    kernel_calls.clear()
    sol = kernel.solve(np.array([-0.5, -0.25, 1.0]), active=(5,))
    assert sol.optimal and sol.iterations == 0 and sol.active == (5,)
    np.testing.assert_allclose(sol.x, [0.5, 0.25, 0.0], atol=1e-12)
    np.testing.assert_allclose(sol.alpha, [0.0, 0.0, 0.0, 0.0, 0.0, 1.0], atol=1e-12)
    assert kernel_calls == ["dgelsy"]


@pytest.mark.parametrize("nrhs", [None, 5], ids=["one right-hand side", "several, as step_map passes"])
def test_least_squares_step_is_scipy_gelsy_bit_for_bit(nrhs):
    # Symmetric rank-deficient systems, as a semidefinite P gives; the direct
    # LAPACK call leaves its inputs as they were.
    rng = np.random.default_rng(11)
    for k, rank in ((7, 4), (30, 21), (47, 40), (30, 21)):
        F = rng.normal(size=(rank, k))
        kkt = F.T @ F
        rhs = rng.normal(size=(k,) if nrhs is None else (k, nrhs))
        kept = kkt.copy(), rhs.copy()
        want, *_ = scipy.linalg.lstsq(kkt, rhs, cond=k * np.finfo(float).eps, lapack_driver="gelsy", check_finite=False)
        got = _solve_reduced(SimpleNamespace(lu=None, kkt=kkt), rhs)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert kkt.tobytes() == kept[0].tobytes() and rhs.tobytes() == kept[1].tobytes()


@pytest.mark.parametrize("decades", [-1, 1])
def test_least_squares_rank_cutoff_is_n_eps(decades):
    # One singular value a decade below or above n eps (the largest is 1):
    # below, its direction is dropped and the answer is the minimum-norm one;
    # above, it is kept and dominates the answer, as np.linalg.lstsq has it.
    rng = np.random.default_rng(0)
    n = 6
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    small = 10.0**decades * n * np.finfo(float).eps
    kkt = (Q * [1.0, 0.7, 0.5, 0.3, 0.2, small]) @ Q.T
    rhs = Q[:, 0] + Q[:, -1]
    sol = _solve_reduced(SimpleNamespace(lu=None, kkt=kkt), rhs)
    want, _, rank, _ = np.linalg.lstsq(kkt, rhs, rcond=None)
    assert rank == (n if decades > 0 else n - 1)
    assert Q[:, 0] @ sol == pytest.approx(1.0, rel=1e-2)
    if decades > 0:
        assert Q[:, -1] @ sol == pytest.approx(1.0 / small, rel=1e-2)
        assert Q[:, -1] @ sol == pytest.approx(Q[:, -1] @ want, rel=1e-2)
    else:
        assert abs(Q[:, -1] @ sol) < 1e-12
        np.testing.assert_allclose(sol, want, atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_least_squares_matches_numpy_on_rank_deficient_kkt_systems(seed):
    # A rank-4 Hessian over 8 columns and a repeated equality row: the KKT
    # matrix is symmetric and singular, the rank of a transport polish system.
    rng = np.random.default_rng(seed)
    n = 8
    M = rng.normal(size=(n, 4))
    E = rng.normal(size=(3, n))
    E = np.vstack([E, E[:1]])
    kkt = np.block([[M @ M.T, E.T], [E, np.zeros((4, 4))]])
    red = SimpleNamespace(lu=None, kkt=kkt)
    for rhs in (kkt @ rng.normal(size=n + 4), rng.normal(size=n + 4), rng.normal(size=(n + 4, 3))):
        sol = _solve_reduced(red, rhs)
        want = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        assert np.linalg.norm(sol - want) <= 1e-12 * np.linalg.norm(want)


def test_solution_on_a_bound_in_every_column_needs_no_kernel(kernel_calls):
    G, u = box_rows(3, np.zeros(3), np.ones(3))
    kernel = RepeatedQp(np.eye(3), G=G, u=u)
    guess = kernel.solve(np.array([5.0, 5.0, -5.0])).active
    assert guess == (2, 3, 4)
    kernel_calls.clear()
    sol = kernel.solve(np.array([4.0, 6.0, -3.0]), active=guess)
    assert sol.optimal and sol.iterations == 0
    np.testing.assert_allclose(sol.x, [0.0, 0.0, 1.0])
    np.testing.assert_allclose(sol.alpha, [0.0, 0.0, 2.0, 4.0, 6.0, 0.0])
    assert not kernel_calls


def _bounded_sum_qp():
    """Unit box plus a row on the sum: solutions fix some columns at a bound
    and keep the sum row active."""
    rng = np.random.default_rng(5)
    S = rng.normal(size=(5, 5)) * 0.1
    P = np.eye(5) + S @ S.T
    G, u = box_rows(5, np.zeros(5), np.ones(5))
    return P, np.vstack([G, np.ones((1, 5))]), np.append(u, 2.0)


def test_step_map_is_the_warm_polish_step():
    P, G, u = _bounded_sum_qp()
    kernel = RepeatedQp(P, G=G, u=u)
    q0 = np.array([-3.0, -3.0, -3.0, 4.0, 4.0])
    first = kernel.solve(q0)
    assert {3 + 5, 4 + 5, 10} <= set(first.active)  # two lower bounds and the sum row
    L, c = kernel.step_map(frozenset(first.active))
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = q0 + rng.normal(size=5) * 1e-2
        sol = kernel.solve(q)
        assert sol.active == first.active
        np.testing.assert_allclose(L @ q + c, np.concatenate([sol.x, sol.alpha]), rtol=1e-12, atol=1e-12)


def test_step_verdict_judges_a_batch_like_each_candidate_alone():
    P, G, u = _bounded_sum_qp()
    rng = np.random.default_rng(1)
    k, (m, n) = 6, G.shape
    sol = solve_qp(P=P, q=np.array([-3.0, -3.0, -3.0, 4.0, 4.0]), G=G, u=u)
    act = rng.random((k, m)) < 0.4
    act[0] = np.isin(np.arange(m), sol.active)
    x = rng.random((k, n))
    x[0] = sol.x
    q = rng.normal(size=(k, n))
    q[0] = [-3.0, -3.0, -3.0, 4.0, 4.0]
    alpha = np.where(act, rng.normal(size=(k, m)), 0.0)
    alpha[0] = sol.alpha
    # Candidate 1 is the solution of a shifted q: nothing to repair, but not stationary.
    act[1], x[1], q[1], alpha[1] = act[0], x[0], q[0] + 1e-3, alpha[0]
    calls = []

    def verdict(x, q, alpha, act):  # the stationarity product counts its calls
        return _step_verdict(alpha, act, x @ G.T - u, 0.0, 1e-9, lambda a: calls.append(x.ndim) or x @ P + q + a @ G)

    batch = verdict(x, q, alpha, act)
    assert batch[0][0] and not batch[0][1:].any() and (batch[1] | batch[2]).any()
    assert not (batch[1][1] or batch[2][1]) and batch[4]["stationarity"][1] > 1e-4
    for j in range(k):
        alone = verdict(x[j], q[j], alpha[j], act[j])
        for got, want in zip(batch[:4], alone[:4]):
            np.testing.assert_array_equal(got[j], want)
        if alone[4] is None:  # a lone candidate due a repair step skips the rest, its stationarity product too
            assert alone[1] or alone[2]
            continue
        for name in alone[4]:
            np.testing.assert_allclose(np.broadcast_to(batch[4][name], (k,))[j], alone[4][name], rtol=1e-14, atol=1e-300)
    assert calls == [2] + [1] * (k - int(np.sum(batch[1] | batch[2])))


def _box_qp(n):
    rng = np.random.default_rng(n)
    S = rng.normal(size=(n, n)) * 0.3
    return (np.eye(n) + S @ S.T, *box_rows(n, np.zeros(n), np.ones(n)))


def test_warm_batch_takes_each_qps_own_first_step():
    P, G, u = _bounded_sum_qp()
    # Box QPs of four sizes, one more left without a guess, and the sum QP
    # with its sum row twice, so that its guess set is singular: its step is
    # the least-squares one, as in that QP's own polish.
    specs = [_box_qp(n) for n in (2, 3, 4, 6)] + [_box_qp(3), (P, np.vstack([G, G[-1:]]), np.append(u, u[-1]))]
    qps = [RepeatedQp(P, G=G, u=u) for P, G, u in specs]
    batch = WarmBatch(qps)
    rng = np.random.default_rng(0)
    q0 = [rng.normal(size=qp.n) * 2 for qp in qps]
    q0[-1] = np.array([-3.0, -3.0, -3.0, 4.0, 4.0])
    for i in (0, 1, 2, 3, 5):
        assert batch.solve_one(i, q0[i]).optimal
    assert batch.guess[4] is None and qps[-1]._reduced_system(batch.guess[-1]).lu is None
    assert qps[-1].step_map(batch.guess[-1]) is not None
    q = [qi + rng.normal(size=qi.size) * 1e-3 for qi in q0]
    q[3] = -q0[3]  # moves QP 3 off its active set
    before = list(batch.guess)
    Q = np.zeros((len(qps), batch.n))
    for i, qi in enumerate(q):
        Q[i, : qi.size] = qi
    X, ok = batch.solve(Q)
    assert ok.tolist() == [True, True, True, False, False, True]
    for i, qp in enumerate(qps):
        if ok[i]:
            own = qp.solve(q[i], active=before[i])
            np.testing.assert_allclose(X[i, : qp.n], own.x, rtol=1e-12, atol=1e-12)
            assert own.iterations == 0 and batch.guess[i] == frozenset(own.active)
        else:
            assert batch.guess[i] == before[i]


def test_warm_batch_judges_each_candidate_as_it_would_alone():
    # The batch forms P x + G'alpha and G x in one product with its padded
    # KKT matrices; its verdict must still be what _step_verdict gives each
    # candidate on its own from P and G, and every QP keeps its guess.
    P, G, u = _bounded_sum_qp()
    specs = [
        (np.diag([1.0, 2.0]), *box_rows(2, np.zeros(2), np.ones(2))),  # x_1 at its upper bound, x_2 inside
        (np.eye(3), *box_rows(3, np.zeros(3), np.ones(3))),  # every column inside
        (np.diag([1.0, 0.0, 2.0]), *box_rows(3, -np.ones(3), np.ones(3))),  # no curvature on column 2
        _box_qp(6),
        (P, G, u),
        _box_qp(4),  # left without a guess
    ]
    qps = [RepeatedQp(P, G=G, u=u) for P, G, u in specs]
    batch = WarmBatch(qps)
    rng = np.random.default_rng(2)
    q0 = [np.array([-3.0, -1.0]), np.full(3, -0.5), np.array([-0.5, 0.0, 0.5]), rng.normal(size=6), np.array([-3.0, -3.0, -3.0, 4.0, 4.0])]
    for i, qi in enumerate(q0):
        assert batch.solve_one(i, qi).optimal
    assert batch.has_guess.tolist() == [True] * 5 + [False]
    q = [
        np.array([0.5, -1.0]),  # the bound's multiplier turns negative
        np.array([-0.5, -2.0, -0.5]),  # x_2 leaves its box
        np.array([-0.5, 0.3, 0.5]),  # column 2 has no stationary point: the residual fails
        q0[3] + rng.normal(size=6) * 1e-3,
        q0[4] + rng.normal(size=5) * 1e-3,
        rng.normal(size=4),
    ]
    before = list(batch.guess)
    Q = np.zeros((len(qps), batch.n))
    for i, qi in enumerate(q):
        Q[i, : qi.size] = qi
    X, ok = batch.solve(Q)
    assert ok.tolist() == [False, False, False, True, True, False]
    reasons = []
    for i, qp in enumerate(qps[:5]):
        L, c = qp.step_map(before[i])
        x, alpha = np.split(L @ q[i] + c, [qp.n])
        act = np.isin(np.arange(qp.mi), sorted(before[i]))
        alone = _step_verdict(alpha, act, qp.G @ x - qp.u, 0.0, batch.tol, lambda a: qp.P @ x + q[i] + a @ qp.G)
        np.testing.assert_allclose(X[i, : qp.n], x, rtol=1e-12, atol=1e-12)
        assert ok[i] == alone[0]
        reasons.append(alone)
    assert batch.guess == before  # a hit keeps its guess; only solve_one sets one
    assert reasons[0][1] and not reasons[0][2]  # drop only
    assert reasons[1][2] and not reasons[1][1]  # add only
    assert not (reasons[2][1] or reasons[2][2]) and reasons[2][4]["stationarity"] > 0.1  # a failed residual


def test_a_nan_multiplier_is_rejected(monkeypatch):
    # Clamping keeps alpha >= 0 and lets a NaN through; complementarity
    # rejects it, in a polish and in a batch alike.
    G, u = box_rows(3, -np.ones(3), np.ones(3))
    q = np.array([-2.0, 0.2, 0.1])  # x_0 rests on its upper bound, row 0
    qps = [RepeatedQp(np.eye(3), G=G, u=u) for _ in range(2)]
    guess = frozenset(qps[0].solve(q).active)
    assert guess == {0} and qps[0]._polish(q, guess) is not None
    step = RepeatedQp._step

    def nan_on_row_0(self, red, q, s):
        x, lam, alpha = step(self, red, q, s)
        alpha[0] = np.nan
        return x, lam, alpha

    monkeypatch.setattr(RepeatedQp, "_step", nan_on_row_0)
    assert qps[0]._polish(q, guess) is None
    monkeypatch.undo()
    batch = WarmBatch(qps)
    for i in range(2):
        assert batch.solve_one(i, q).optimal
    Q = np.stack([q, q])
    assert batch.solve(Q)[1].tolist() == [True, True]
    batch.c[0, batch.n] = np.nan  # QP 0's multiplier of row 0
    assert batch.solve(Q)[1].tolist() == [False, True]


def test_residuals_are_the_four_kkt_maxima():
    # alpha >= 0 holds by clamping, so no residual measures it: a polished
    # answer, a spent budget and a QP without variables report the same four.
    rng = np.random.default_rng(0)
    M = rng.normal(size=(6, 6))
    spec = dict(P=M.T @ M + 0.5 * np.eye(6), q=rng.normal(size=6), E=np.ones((1, 6)), h=np.ones(1))
    spec["G"], spec["u"] = box_rows(6, -np.ones(6), np.ones(6))
    polished, spent = solve_qp(**spec), solve_qp(**spec, tol=1e-300, max_iter=60)
    empty = solve_qp(np.zeros((0, 0)), np.zeros(0), G=np.zeros((1, 0)), u=np.ones(1))
    assert polished.optimal and spent.status == "max_iter" and empty.optimal
    for sol in (polished, spent, empty):
        assert list(sol.residuals) == ["stationarity", "eq_feasibility", "ineq_feasibility", "comp_slack"]


def test_warm_batch_rejects_equality_rows():
    with pytest.raises(DimensionMismatch):
        WarmBatch([RepeatedQp(np.eye(2), G=np.eye(2), u=np.ones(2)), RepeatedQp(np.eye(2), E=np.ones((1, 2)), h=np.ones(1))])


def test_only_a_certified_polish_is_optimal(monkeypatch):
    # With every polish failing, the splitting iterates converge, but the
    # solve never calls them optimal: the budget ends it as max_iter.
    monkeypatch.setattr(RepeatedQp, "_polish", lambda self, *args: None)
    G, u = box_rows(3, -np.ones(3), np.ones(3))
    sol = solve_qp(np.eye(3), np.array([0.5, -0.2, 0.1]), G=G, u=u, max_iter=100)
    assert sol.status == "max_iter" and sol.iterations <= 100
    np.testing.assert_allclose(sol.x, [-0.5, 0.2, -0.1], atol=1e-8)
    assert max(sol.residuals.values()) <= 1e-8


def test_splitting_update_is_the_block_systems_with_nu_eliminated(monkeypatch):
    # The x-update by the n x n matrix K = P + sigma I + C' diag(rho) C gives
    # the iterate of the (n + m)-square block system it replaces, and a
    # splitting solve factors only K.
    rng = np.random.default_rng(11)
    n = 6
    M = rng.normal(size=(n, n))
    G, u = box_rows(n, -np.ones(n), np.ones(n))
    kernel = RepeatedQp(M.T @ M + np.eye(n), E=rng.normal(size=(2, n)), h=rng.normal(size=2), G=G, u=u)
    C, rho, m, sigma = kernel.C, kernel.rho, kernel.C.shape[0], qp_module._SIGMA_REG
    block = np.block([[kernel.P + sigma * np.eye(n), C.T], [C, -np.diag(1.0 / rho)]])
    for _ in range(5):
        x, z, y, q = rng.normal(size=n), rng.normal(size=m), rng.normal(size=m), rng.normal(size=n)
        sol = np.linalg.solve(block, np.concatenate([sigma * x - q, z - y / rho]))
        x_old, z_old = sol[:n], z + (sol[n:] - y) / rho
        x_new = kernel._x_update(x, z, y, q)
        np.testing.assert_allclose(x_new, x_old, rtol=0, atol=1e-12 * np.abs(x_old).max())
        np.testing.assert_allclose(C @ x_new, z_old, rtol=0, atol=1e-12 * np.abs(z_old).max())
    shapes = []
    lu_factor = scipy.linalg.lu_factor
    monkeypatch.setattr(scipy.linalg, "lu_factor", lambda a, **kw: shapes.append(a.shape) or lu_factor(a, **kw))
    monkeypatch.setattr(RepeatedQp, "_polish", lambda self, *args: None)
    cold = RepeatedQp(kernel.P, E=kernel.E, h=kernel.h, G=G, u=u, max_iter=60)
    assert cold.solve(rng.normal(size=n)).status == "max_iter"
    assert shapes == [(n, n)]


def test_repeated_solves_share_the_splitting_factor_and_start_cold(kernel_calls):
    G, u = box_rows(3, -np.ones(3), np.ones(3))
    kernel = RepeatedQp(np.diag([1.0, 2.0, 0.0]), G=G, u=u, max_iter=400)
    q = np.array([0.5, -0.2, 0.1])
    first = kernel.solve(q)
    assert first.iterations > 0 and kernel_calls.count("lu_factor") == 1
    again = kernel.solve(q)  # no guess: it splits again from zero, on the kept factor
    assert kernel_calls.count("lu_factor") == 1
    assert again.iterations == first.iterations and again.x.tobytes() == first.x.tobytes()
    assert again.x.tobytes() == solve_qp(np.diag([1.0, 2.0, 0.0]), q, G=G, u=u, max_iter=400).x.tobytes()


def test_numbers_that_cannot_work_are_rejected():
    G, u = box_rows(2, -np.ones(2), np.ones(2))
    spec = dict(P=np.eye(2), q=np.zeros(2), E=np.ones((1, 2)), h=np.ones(1), G=G, u=u)
    for tol in (0.0, -1e-9, float("nan"), float("inf"), True, "1e-9"):
        with pytest.raises(DimensionMismatch, match="tol must be a finite positive number"):
            solve_qp(**spec, tol=tol)
        with pytest.raises(DimensionMismatch, match="tol must be a finite positive number"):
            RepeatedQp(np.eye(2), tol=tol)
    for name in spec:
        for bad in (np.nan, np.inf, -np.inf):
            broken = {**spec, name: np.array(spec[name], float)}
            broken[name].flat[0] = bad
            with pytest.raises(DimensionMismatch, match="not finite"):
                solve_qp(**broken)


def test_a_polish_walk_ends_at_a_candidate_that_misses_the_equality_rows(monkeypatch):
    # The guess fixes both columns at zero, so x1 + x2 = 1 is out of reach of
    # its reduced system. The least-squares multipliers of that step would
    # drop the bound on x2, but the walk stops there, and the splitting
    # certifies the optimum (0, 1).
    kernel = RepeatedQp(np.eye(2), E=np.ones((1, 2)), h=np.array([1.0]), G=-np.eye(2), u=np.zeros(2))
    built, walks = [], []
    reduced, polish = RepeatedQp._reduced_system, RepeatedQp._polish
    monkeypatch.setattr(RepeatedQp, "_reduced_system", lambda self, active: built.append(active) or reduced(self, active))

    def walk(self, q, active):
        start = len(built)
        out = polish(self, q, active)
        walks.append((len(built) - start, out))
        return out

    monkeypatch.setattr(RepeatedQp, "_polish", walk)
    sol = kernel.solve(np.array([-1.0, -2.0]), active=(0, 1))
    assert walks[0] == (1, None) and built[0] == frozenset({0, 1})
    assert sol.optimal and sol.iterations > 0
    np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-9)
