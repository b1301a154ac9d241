"""Convex quadratic programming over polyhedra, with exact duals.

    minimize   1/2 x'Px + q'x
    subject to Ex = h,  Gx <= u

The solver runs an operator-splitting (ADMM) iteration and, at regular
intervals, "polishes" the current active-set guess by solving the reduced KKT
equality system directly. A polished point is accepted only when every KKT
residual (stationarity, primal feasibility, dual nonnegativity, complementary
slackness) passes the requested tolerance, which is what makes the returned
duals reliable enough to price with.

Rows of ``G`` with a single nonzero entry are simple bounds. An active bound
fixes its variable instead of adding a multiplier row, so the polish solves a
KKT system over the free variables only and reads each bound's multiplier off
the stationarity residual of its column. The reduced KKT matrix of an active
set does not depend on the linear term, so it is LU-factored when a polish
moves to that set and kept: warm solves that keep the active set cost one
pair of triangular solves each. An exact zero pivot marks the system
singular, as it is whenever x is not unique on the free columns, and such a
system goes straight to least squares. Within one solve the linear term is
fixed and the polish is deterministic, so every active set on a repair
trajectory that failed is remembered, and later polishes of the same solve
that reach one stop without solving anything.

Dual convention: a solution satisfies ``Px + q + E'lam + G'alpha = 0`` with
``alpha >= 0``. Callers that need the opposite sign on the equality dual flip
it themselves (see ``problem.centralized_solve``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, Infeasible, NonPsdHessian

__all__ = ["QpSpec", "QpSolution", "solve_qp", "RepeatedQp"]

_CHECK_EVERY = 25
_RELAX = 1.6
_SIGMA_REG = 1e-6
_RHO_INEQ = 1.0
_RHO_EQ_FACTOR = 1e3
_CERT_TOL = 1e-9


@dataclass(frozen=True)
class QpSpec:
    """Problem data. ``E``/``h`` and ``G``/``u`` may be ``None`` (empty)."""

    P: np.ndarray
    q: np.ndarray
    E: np.ndarray | None = None
    h: np.ndarray | None = None
    G: np.ndarray | None = None
    u: np.ndarray | None = None


@dataclass
class QpSolution:
    """Primal/dual result of a QP solve.

    ``lam`` are the equality duals and ``alpha >= 0`` the inequality duals in
    the ``Px + q + E'lam + G'alpha = 0`` convention. ``active`` lists the
    inequality rows treated as tight at the solution.
    """

    x: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray
    status: str  # "optimal" | "max_iter"
    iterations: int
    active: tuple[int, ...]
    residuals: dict[str, float] = field(default_factory=dict)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class _ReducedSystem(NamedTuple):
    """What a polish needs of one active set, independent of ``q`` and ``h``.

    The first active simple bound on a column fixes it (``fix_*``, ``x_fixed``
    holds the fixed values and zeros elsewhere); the other active rows are
    ``rows``. ``kkt`` is the KKT matrix over the free columns, the equality
    rows and ``rows``, ``lu`` its LU factors (``None`` when it is empty or
    has an exact zero pivot), and ``rhs_fixed`` the fixed columns' share of
    its right-hand side.
    """

    act: np.ndarray  # sorted active rows
    inactive: np.ndarray  # sorted inactive rows
    fix_rows: np.ndarray
    fix_cols: np.ndarray
    fix_coef: np.ndarray
    x_fixed: np.ndarray
    rows: np.ndarray
    G_rows: np.ndarray
    free: np.ndarray  # mask of the free columns
    n_free: int
    kkt: np.ndarray
    lu: tuple[np.ndarray, np.ndarray] | None
    rhs_fixed: np.ndarray


def _empty(n: int) -> np.ndarray:
    return np.zeros((0, n))


def _normalize(P, E, h, G, u) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise DimensionMismatch(f"P is not square: {P.shape}")
    n = P.shape[0]
    E = _empty(n) if E is None else np.atleast_2d(np.asarray(E, dtype=float))
    h = np.zeros(0) if h is None else np.asarray(h, dtype=float).ravel()
    G = _empty(n) if G is None else np.atleast_2d(np.asarray(G, dtype=float))
    u = np.zeros(0) if u is None else np.asarray(u, dtype=float).ravel()
    if E.shape != (h.shape[0], n):
        raise DimensionMismatch(f"E shape {E.shape} vs h length {h.shape[0]}, n={n}")
    if G.shape != (u.shape[0], n):
        raise DimensionMismatch(f"G shape {G.shape} vs u length {u.shape[0]}, n={n}")
    asym = float(np.max(np.abs(P - P.T))) if n else 0.0
    if asym > 1e-10 * max(1.0, float(np.max(np.abs(P))) if n else 1.0):
        raise DimensionMismatch(f"P is not symmetric (asymmetry {asym:.3e})")
    return (P + P.T) / 2.0, E, h, G, u


def _check_psd(P: np.ndarray) -> None:
    if P.shape[0] == 0:
        return
    eigmin = float(np.linalg.eigvalsh(P).min())
    scale = max(1.0, float(np.max(np.abs(P))))
    if eigmin < -1e-8 * scale:
        raise NonPsdHessian(f"Hessian has eigenvalue {eigmin:.3e}")


def _kkt_residuals(P, q, E, h, G, u, x, lam, alpha) -> dict[str, float]:
    stat = P @ x + q
    if E.shape[0]:
        stat = stat + E.T @ lam
    if G.shape[0]:
        stat = stat + G.T @ alpha
    res = {
        "stationarity": float(np.max(np.abs(stat))) if stat.size else 0.0,
        "eq_feasibility": float(np.max(np.abs(E @ x - h))) if E.shape[0] else 0.0,
        "ineq_feasibility": float(np.max(G @ x - u)) if G.shape[0] else 0.0,
        "dual_nonneg": float(max(0.0, -alpha.min())) if alpha.size else 0.0,
        "comp_slack": float(np.max(np.abs(alpha * (G @ x - u)))) if G.shape[0] else 0.0,
    }
    return res


def _residuals_pass(res: dict[str, float], tol: float) -> bool:
    return (
        res["stationarity"] <= tol
        and res["eq_feasibility"] <= tol
        and res["ineq_feasibility"] <= tol
        and res["dual_nonneg"] <= tol
        and res["comp_slack"] <= tol
    )


class RepeatedQp:
    """A QP family sharing (P, E, G, u) with a varying linear term.

    Factors the splitting system once; subsequent solves warm-start from the
    previous solution and try its active set first, which usually reduces a
    solve to one small KKT factorization.
    """

    def __init__(
        self,
        P: np.ndarray,
        E: np.ndarray | None = None,
        h_template: np.ndarray | None = None,
        G: np.ndarray | None = None,
        u: np.ndarray | None = None,
        tol: float = 1e-9,
        max_iter: int = 200000,
    ):
        self.P, self.E, self.h, self.G, self.u = _normalize(P, E, h_template, G, u)
        _check_psd(self.P)
        self.tol = tol
        self.max_iter = max_iter
        n = self.P.shape[0]
        self.n = n
        me, mi = self.E.shape[0], self.G.shape[0]
        self.me, self.mi = me, mi
        m = me + mi
        self.C = np.vstack([self.E, self.G]) if m else _empty(n)
        self.rho = np.concatenate([np.full(me, _RHO_EQ_FACTOR * _RHO_INEQ), np.full(mi, _RHO_INEQ)])
        if m:
            kkt = np.zeros((n + m, n + m))
            kkt[:n, :n] = self.P + _SIGMA_REG * np.eye(n)
            kkt[:n, n:] = self.C.T
            kkt[n:, :n] = self.C
            kkt[n:, n:] = -np.diag(1.0 / self.rho)
            self._lu = scipy.linalg.lu_factor(kkt)
        else:
            self._lu = None
        # Column of each simple-bound row (one nonzero entry in G), -1 elsewhere.
        nonzero = self.G != 0
        single = nonzero.sum(axis=1) == 1
        self._bound_col = np.where(single, nonzero.argmax(axis=1), -1) if n else np.full(mi, -1)
        self._last_x: np.ndarray | None = None
        self._last_active: frozenset[int] | None = None
        self._system: tuple[frozenset[int], _ReducedSystem] | None = None  # the last active set's

    def solve(self, q: np.ndarray, h: np.ndarray | None = None) -> QpSolution:
        q = np.asarray(q, dtype=float).ravel()
        h = self.h if h is None else np.asarray(h, dtype=float).ravel()
        if q.shape[0] != self.n or h.shape[0] != self.me:
            raise DimensionMismatch("linear term / equality rhs size mismatch")

        if self.n == 0:
            return self._solve_empty(h)
        # Unconstrained: direct solve.
        if self.me + self.mi == 0:
            return self._solve_unconstrained(q)

        # Active sets whose repair failed for this (q, h); shared by every polish below.
        failed: set[frozenset[int]] = set()
        # Warm active-set guess: the previous solve's.
        guess = self._last_active
        if guess is None and self.mi == 0:
            guess = frozenset()
        if guess is not None:
            polished = self._polish(q, h, guess, failed)
            if polished is not None:
                self._remember(polished)
                return polished

        sol = self._admm(q, h, failed)
        if sol.optimal:
            self._remember(sol)
        return sol

    def _remember(self, sol: QpSolution) -> None:
        self._last_x = sol.x.copy()
        self._last_active = frozenset(sol.active)

    def _solve_empty(self, h: np.ndarray) -> QpSolution:
        """No variables: the empty point is optimal when it is feasible (h = 0, u >= 0)."""
        x, lam, alpha = np.zeros(0), np.zeros(self.me), np.zeros(self.mi)
        res = _kkt_residuals(self.P, x, self.E, h, self.G, self.u, x, lam, alpha)
        if not _residuals_pass(res, self.tol):
            raise Infeasible("a QP without variables needs h = 0 and u >= 0")
        return QpSolution(x=x, lam=lam, alpha=alpha, status="optimal", iterations=0, active=(), residuals=res)

    def _solve_unconstrained(self, q: np.ndarray) -> QpSolution:
        try:
            x = scipy.linalg.solve(self.P, -q, assume_a="sym")
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
            x, *_ = np.linalg.lstsq(self.P, -q, rcond=None)
        res = _kkt_residuals(self.P, q, self.E, np.zeros(0), self.G, self.u, x, np.zeros(0), np.zeros(0))
        if not _residuals_pass(res, max(self.tol, 1e-9 * max(1.0, float(np.max(np.abs(q)) if q.size else 0.0)))):
            raise Infeasible("objective is unbounded below (no constraints, gradient not in range of P)")
        return QpSolution(x=x, lam=np.zeros(0), alpha=np.zeros(0), status="optimal", iterations=0, active=(), residuals=res)

    def _polish(self, q: np.ndarray, h: np.ndarray, active: frozenset[int], failed: set[frozenset[int]]) -> QpSolution | None:
        """Solve the KKT equality system for a candidate active set, then repair it.

        An active simple bound fixes its column at ``u_i / G_ij``; the first
        active bound on a column (in row order) is the fix, and a later one on
        the same column is an ordinary row. The system is built over the free
        columns, the equality rows and the ordinary active rows, and a fixed
        column's multiplier is read off its stationarity residual.

        Violated inactive rows are added and negative-multiplier rows dropped,
        one at a time, until the candidate is KKT-consistent or the attempt
        fails. Failure by a cycle, by a singular system without a finite
        least-squares answer or by the final residual check records every
        active set of the trajectory in ``failed``, which must only be shared
        between polishes with the same ``q`` and ``h``; a polish that reaches a
        recorded set stops at once. A trajectory cut by the iteration budget is
        not recorded, since a polish started further along it has budget left.
        """
        P, E, G, u, tol = self.P, self.E, self.G, self.u, self.tol
        n, me, mi = self.n, self.me, self.mi
        drop_tol = max(tol, 1e-11)
        seen: set[frozenset[int]] = set()
        for _ in range(2 * mi + 8):
            if active in seen or active in failed:
                failed.update(seen)
                return None
            seen.add(active)
            red = self._reduced_system(active)
            act, inactive, nf, fixed = red.act, red.inactive, red.n_free, red.rhs_fixed
            rhs = np.concatenate([-(q[red.free] + fixed[:nf]), h - fixed[nf : nf + me], fixed[nf + me :]])
            sol = _solve_reduced(red, rhs)
            if sol is None:
                failed.update(seen)
                return None
            x = red.x_fixed.copy()
            x[red.free] = sol[:nf]
            lam = sol[nf : nf + me]
            alpha = np.zeros(mi)
            alpha[red.rows] = sol[nf + me :]
            # A fixed column's stationarity residual is its bound's multiplier.
            grad = P @ x + q + E.T @ lam + red.G_rows.T @ sol[nf + me :]
            alpha[red.fix_rows] = -grad[red.fix_cols] / red.fix_coef
            alpha_act = alpha[act]

            if alpha_act.size and alpha_act.min() < -drop_tol:
                active = active - {int(act[np.argmin(alpha_act)])}
                continue
            slack = u - G @ x
            if inactive.size and slack[inactive].min() < -drop_tol:
                active = active | {int(inactive[np.argmin(slack[inactive])])}
                continue

            alpha[act] = np.maximum(alpha_act, 0.0)
            res = _kkt_residuals(P, q, E, h, G, u, x, lam, alpha)
            if _residuals_pass(res, tol):
                tight = tuple(act[(alpha[act] > 0) | (slack[act] <= tol)].tolist())
                return QpSolution(x=x, lam=lam, alpha=alpha, status="optimal", iterations=0, active=tight, residuals=res)
            failed.update(seen)
            return None
        return None

    def _reduced_system(self, active: frozenset[int]) -> _ReducedSystem:
        """The reduced system of an active set; the last one is kept, since
        warm solves polish the same set again and again."""
        if self._system is not None and self._system[0] == active:
            return self._system[1]
        P, E, G, u = self.P, self.E, self.G, self.u
        n, me, mi = self.n, self.me, self.mi
        act = np.array(sorted(active), dtype=int)
        inactive = np.ones(mi, dtype=bool)
        inactive[act] = False
        cols = self._bound_col[act]
        bounds = np.flatnonzero(cols >= 0)
        _, first = np.unique(cols[bounds], return_index=True)
        fixes = np.zeros(act.size, dtype=bool)
        fixes[bounds[first]] = True
        fix_rows, fix_cols, rows = act[fixes], cols[fixes], act[~fixes]
        fix_coef = G[fix_rows, fix_cols]
        free = np.ones(n, dtype=bool)
        free[fix_cols] = False
        x_fixed = np.zeros(n)
        x_fixed[fix_cols] = u[fix_rows] / fix_coef

        nf, mo = n - fix_cols.size, rows.size
        Gr = G[rows]
        kkt = np.zeros((nf + me + mo, nf + me + mo))
        kkt[:nf, :nf] = P[np.ix_(free, free)]
        if me:
            kkt[:nf, nf : nf + me] = E[:, free].T
            kkt[nf : nf + me, :nf] = E[:, free]
        if mo:
            kkt[:nf, nf + me :] = Gr[:, free].T
            kkt[nf + me :, :nf] = Gr[:, free]
        lu = None
        if kkt.size:
            with warnings.catch_warnings():
                # An exact zero pivot only warns; it marks the system singular.
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                lu = scipy.linalg.lu_factor(kkt, check_finite=False)
            if not np.all(np.diagonal(lu[0])):
                lu = None
        rhs_fixed = np.concatenate([(P @ x_fixed)[free], E @ x_fixed, u[rows] - Gr @ x_fixed])
        red = _ReducedSystem(act, np.flatnonzero(inactive), fix_rows, fix_cols, fix_coef, x_fixed, rows, Gr, free, nf, kkt, lu, rhs_fixed)
        self._system = (active, red)
        return red

    def _admm(self, q: np.ndarray, h: np.ndarray, failed: set[frozenset[int]]) -> QpSolution:
        n, me, mi = self.n, self.me, self.mi
        m = me + mi
        C, rho = self.C, self.rho
        lower = np.concatenate([h, np.full(mi, -np.inf)])
        upper = np.concatenate([h, self.u])

        x = np.zeros(n) if self._last_x is None else self._last_x.copy()
        z = np.clip(C @ x, lower, upper)
        y = np.zeros(m)
        y_mark = y.copy()
        best: QpSolution | None = None
        best_res = np.inf

        for k in range(1, self.max_iter + 1):
            rhs = np.concatenate([_SIGMA_REG * x - q, z - y / rho])
            sol = scipy.linalg.lu_solve(self._lu, rhs)
            x_t = sol[:n]
            nu = sol[n:]
            z_t = z + (nu - y) / rho
            x = _RELAX * x_t + (1.0 - _RELAX) * x
            z_pre = _RELAX * z_t + (1.0 - _RELAX) * z
            z = np.clip(z_pre + y / rho, lower, upper)
            y = y + rho * (z_pre - z)

            if k % _CHECK_EVERY == 0 or k == 8:
                cx = C @ x
                r_prim = float(np.max(np.abs(cx - z))) if m else 0.0
                grad = self.P @ x + q + C.T @ y
                r_dual = float(np.max(np.abs(grad)))

                act_tol = max(10.0 * r_prim, 1e-8)
                near = (self.u - cx[me:] <= act_tol) | (y[me:] > act_tol)
                polished = self._polish(q, h, frozenset(np.flatnonzero(near).tolist()), failed)
                if polished is not None:
                    polished.iterations = k
                    return polished

                if r_prim <= self.tol and r_dual <= self.tol:
                    lam = y[:me]
                    alpha = np.maximum(y[me:], 0.0)
                    res = _kkt_residuals(self.P, q, self.E, h, self.G, self.u, x, lam, alpha)
                    cand = QpSolution(
                        x=x.copy(), lam=lam.copy(), alpha=alpha, status="optimal", iterations=k,
                        active=tuple(i for i in range(mi) if alpha[i] > self.tol), residuals=res,
                    )
                    if _residuals_pass(res, 10.0 * self.tol):
                        return cand
                score = r_prim + r_dual
                if score < best_res:
                    best_res = score
                    lam = y[:me]
                    alpha = np.maximum(y[me:], 0.0)
                    best = QpSolution(
                        x=x.copy(), lam=lam.copy(), alpha=alpha, status="max_iter", iterations=k,
                        active=tuple(i for i in range(mi) if alpha[i] > act_tol),
                        residuals=_kkt_residuals(self.P, q, self.E, h, self.G, self.u, x, lam, alpha),
                    )

                if k >= 200:
                    self._certify_infeasible(y - y_mark, h)
                y_mark = y.copy()

        assert best is not None
        return best

    def _certify_infeasible(self, dy: np.ndarray, h: np.ndarray) -> None:
        """Raise ``Infeasible`` when the dual drift is a primal-infeasibility certificate."""
        vn = float(np.max(np.abs(dy))) if dy.size else 0.0
        if vn <= 1e-13:
            return
        v = dy / vn
        me = self.me
        if self.mi and float(v[me:].min()) < -_CERT_TOL:
            return  # rows without lower bounds need nonnegative certificate entries
        if float(np.max(np.abs(self.C.T @ v))) > _CERT_TOL * max(1.0, float(np.max(np.abs(self.C)))):
            return
        scale = max(1.0, float(np.max(np.abs(h))) if h.size else 1.0, float(np.max(np.abs(self.u))) if self.u.size else 1.0)
        support = float(h @ v[:me]) if me else 0.0
        if self.mi:
            support += float(self.u @ np.maximum(v[me:], 0.0))
        if support < -1e-7 * scale:
            raise Infeasible("constraints admit no common point (certificate found)")


def _solve_reduced(red: _ReducedSystem, rhs: np.ndarray) -> np.ndarray | None:
    """Solve ``red.kkt @ sol = rhs``: by its LU factors when it is nonsingular,
    else (or when the LU answer is not finite) by least squares. ``None`` when
    neither gives a finite answer. An empty system (every column fixed, no
    rows) needs no kernel at all."""
    if not rhs.size:
        return rhs
    if red.lu is not None:
        sol = scipy.linalg.lu_solve(red.lu, rhs, check_finite=False)
        if np.all(np.isfinite(sol)):
            return sol
    sol, *_ = np.linalg.lstsq(red.kkt, rhs, rcond=None)
    return sol if np.all(np.isfinite(sol)) else None


def solve_qp(spec: QpSpec, tol: float = 1e-9, max_iter: int = 200000) -> QpSolution:
    """Solve one QP. See module docstring for the dual convention.

    Raises ``NonPsdHessian`` for an indefinite Hessian and ``Infeasible`` when a
    primal-infeasibility certificate is found; returns ``status="max_iter"``
    (with the best iterate and its residuals) when the budget runs out.
    """
    return RepeatedQp(spec.P, spec.E, spec.h, spec.G, spec.u, tol=tol, max_iter=max_iter).solve(spec.q)
