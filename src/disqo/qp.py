"""Convex quadratic programming over polyhedra, with exact duals.

    minimize   1/2 x'Px + q'x
    subject to Ex = h,  Gx <= u

The solver runs an operator-splitting (ADMM) iteration and, at regular
intervals, "polishes" the current active-set guess by solving the reduced KKT
equality system directly. A polished point is accepted only when every KKT
residual (stationarity, primal feasibility, complementary slackness) passes
the requested tolerance, which is what makes the returned duals reliable
enough to price with; ``alpha >= 0`` holds by the polish dropping each row
with a negative multiplier and by clamping. That is the one acceptance rule:
a solve is ``optimal`` only by a polish step that ``_step_verdict``
certified (or, without variables, by a feasible empty point), never by a
splitting iterate. The last iteration of a budget is polished too; a spent
budget returns ``max_iter`` with the best iterate.

Rows of ``G`` with a single nonzero entry are simple bounds. An active bound
fixes its variable instead of adding a multiplier row, so the polish solves a
KKT system over the free variables only and reads each bound's multiplier off
the stationarity residual of its column. The reduced KKT matrix of an active
set does not depend on the linear term. When P is definite, it is LU-factored
when a polish moves to that set and kept: warm solves that keep the active set
cost one pair of triangular solves each. When P is only semidefinite, or the
LU meets an exact zero pivot, the system is solved by one complete orthogonal
decomposition (a column-pivoted QR) with rank cutoff ``n eps``: the
minimum-norm least-squares answer, with no factor kept: one direct call of
LAPACK ``dgelsy``, with its workspace size kept per shape.

A polish walk adds a violated row or drops a negative multiplier, one at a
time: it moves only inequality rows. So it ends, as a failed polish, at the
first candidate that misses the equality rows by more than the tolerance,
whose multipliers are a least-squares compromise no such move repairs.

The splitting iteration's x-update is solved through the n x n matrix
``K = P + sigma I + C' diag(rho) C``, with ``C`` the equality rows over the
inequality rows (OSQP's reduced system: Stellato et al., Math. Prog. Comp.
12, 2020, section 3.1): ``x~ = K^-1 (sigma x - q + C'(rho z - y))`` and
``z~ = C x~``. K is LU-factored when a solve first needs it, so a hit pays
no factorization of it. ``C`` is the only copy of the rows: ``E`` and ``G``
are its row views.

A solve is a function of its arguments: the linear term and an optional
first guess at the active set, such as the tight rows of a nearby problem's
optimum; a QP keeps no earlier answer, only caches that change none. The
polish tries the guess before any splitting iteration. A guess that ends in
a certified point is a hit. A miss leaves the solve as it is without a
guess: the splitting iteration runs from zero with the same polishes, so it
returns the unguessed answer bit for bit.

The checked constructor validates its numbers (finite arrays, a positive
tolerance, an integer budget), normalizes P and runs one ``eigvalsh`` to
prove it PSD. ``_restrict`` reuses that work for the QP over a principal
restriction (kept columns, kept inequality rows): it checks nothing, since a
principal submatrix of a PSD matrix is PSD, and it is definite when its
parent is.

With the active set fixed, a polish step is affine in the linear term:
``RepeatedQp.step_map`` writes it out as a matrix by taking the polish's
own step on the columns of the identity, and ``_step_verdict``, the rule a
polish step is accepted by, judges a whole batch of candidates at once from
the products its caller forms: a polish forms the stationarity only when no
row must move. ``WarmBatch`` uses both to take the first polish steps of many
QPs as one batch, each from its own guess; the batch owns those guesses (see
``admm``). It keeps each QP's stacked KKT matrix ``M = [[P, G'], [G, 0]]``
(the form of OSQP's polish), so that one batched product ``M [x; alpha]``
gives the two products the rule reads, ``P x + G'alpha`` and ``G x``.

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

from ._checks import finite, index, integer, positive, symmetric, vector
from .errors import DimensionMismatch, Infeasible, NonPsdHessian, Unbounded

__all__ = ["QpSolution", "solve_qp", "RepeatedQp", "WarmBatch"]

_CHECK_EVERY = 25
_RELAX = 1.6
_SIGMA_REG = 1e-6
_RHO_INEQ = 1.0
_RHO_EQ_FACTOR = 1e3
_CERT_TOL = 1e-9
# The ufuncs' own reductions: ndarray.max and .min wrap them in Python, which
# costs as much as the reduction on the small arrays of a batched polish step.
_max, _min = np.maximum.reduce, np.minimum.reduce
_GELSY_LWORK: dict[tuple[int, int], int] = {}  # dgelsy's workspace size per (rows, right-hand sides)


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

    def __post_init__(self):
        self.residuals = {name: float(value) for name, value in self.residuals.items()}

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class _ReducedSystem(NamedTuple):
    """What a polish needs of one active set, independent of ``q``.

    The first active simple bound on a column fixes it (``fix_*``, ``x_fixed``
    holds the fixed values and zeros elsewhere); the other active rows are
    ``rows``. ``kkt`` is the KKT matrix over the free columns, the equality
    rows and ``rows``, ``lu`` its LU factors (``None`` when it is empty, P is
    not definite or the LU has an exact zero pivot), and ``rhs_fixed`` the
    fixed columns' share of its right-hand side.
    """

    act_mask: np.ndarray  # the active rows as a mask over all rows
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
    P = symmetric(P, "P")
    n = P.shape[0]
    E = _empty(n) if E is None else np.atleast_2d(np.asarray(E, dtype=float))
    h = np.zeros(0) if h is None else np.asarray(h, dtype=float).ravel()
    G = _empty(n) if G is None else np.atleast_2d(np.asarray(G, dtype=float))
    u = np.zeros(0) if u is None else np.asarray(u, dtype=float).ravel()
    if E.shape != (h.shape[0], n):
        raise DimensionMismatch(f"E shape {E.shape} vs h length {h.shape[0]}, n={n}")
    if G.shape != (u.shape[0], n):
        raise DimensionMismatch(f"G shape {G.shape} vs u length {u.shape[0]}, n={n}")
    for name, a in (("E", E), ("h", h), ("G", G), ("u", u)):
        finite(a, name)
    return P, E, h, G, u


def _check_psd(P: np.ndarray) -> bool:
    """Raise ``NonPsdHessian`` for an indefinite P; else whether P is definite,
    both by the margin ``1e-8 * scale`` on its least eigenvalue."""
    if P.shape[0] == 0:
        return True
    eigmin = float(np.linalg.eigvalsh(P).min())
    margin = 1e-8 * max(1.0, float(np.max(np.abs(P))))
    if eigmin < -margin:
        raise NonPsdHessian(f"Hessian has eigenvalue {eigmin:.3e}")
    return eigmin > margin


def _kkt_residuals(stat, eq, viol, alpha) -> dict[str, np.ndarray]:
    """Maxima of the KKT residuals of a point, given its stationarity
    ``stat = P x + q + E'lam + G'alpha``, its largest equality miss ``eq =
    max |E x - h|``, its row violations ``viol = G x - u`` and its
    multipliers ``alpha``, clamped at zero: one value, or one per candidate
    when the arguments carry a leading axis of candidates (see
    ``_step_verdict``)."""
    return {
        "stationarity": _max(np.abs(stat), -1, initial=0.0),
        "eq_feasibility": eq,
        "ineq_feasibility": _max(viol, -1, initial=0.0),
        "comp_slack": _max(np.abs(alpha * viol), -1, initial=0.0),
    }


def _residuals_pass(res: dict[str, np.ndarray], tol: float) -> np.ndarray:
    """Every residual at most ``tol``: as they are nonnegative, their
    maximum is (a NaN residual fails)."""
    worst, *rest = res.values()
    for value in rest:
        worst = np.maximum(worst, value)
    return worst <= tol


def _step_verdict(alpha, act: np.ndarray, viol, eq, tol: float, stationarity):
    """The acceptance rule of one polish step on its candidate.

    The candidate is given by its multipliers ``alpha``, zero off the active
    rows that ``act`` masks, its row violations ``viol = G x - u`` (minus
    the slack) and its largest equality miss ``eq``; ``stationarity(alpha)``
    forms ``P x + q + E'lam + G'alpha`` at the clamped ``alpha``. The
    arguments may carry a leading axis of candidates, so one call judges a
    whole batch. Returns (ok, drop, add, alpha, res):

    - ``drop``: an active row's multiplier is below ``-drop_tol``;
    - ``add``: an inactive row's slack is below ``-drop_tol``;
    - ``ok``: neither, and every KKT residual of the point with its
      multipliers clamped at zero passes ``tol``;
    - ``alpha`` clamped, and its residuals ``res``.

    A single candidate that must drop or add a row gets ``None`` for
    ``res`` without a call of ``stationarity``: a repair step does not need
    it. A NaN multiplier survives the clamp and fails complementarity.
    """
    drop_tol = max(tol, 1e-11)
    drop = _min(alpha, -1, initial=0.0) < -drop_tol  # alpha is zero off the active rows
    add = _max(np.where(act, -np.inf, viol), -1, initial=-np.inf) > drop_tol
    alpha = np.maximum(alpha, 0.0)
    if drop.ndim == 0 and (drop or add):
        return False, drop, add, alpha, None
    res = _kkt_residuals(stationarity(alpha), eq, viol, alpha)
    return _residuals_pass(res, tol) & ~(drop | add), drop, add, alpha, res


class RepeatedQp:
    """A QP family sharing (P, E, h, G, u) with a varying linear term. A
    solve depends only on its arguments, the linear term and an optional
    active-set guess (a guess that holds makes it one small KKT solve). The
    QP keeps only caches that change no answer: the splitting system's
    factor and the last active set's reduced system."""

    def __init__(
        self,
        P: np.ndarray,
        E: np.ndarray | None = None,
        h: np.ndarray | None = None,
        G: np.ndarray | None = None,
        u: np.ndarray | None = None,
        tol: float = 1e-9,
        max_iter: int = 200000,
    ):
        integer(max_iter, "max_iter", 1)
        positive(tol, "tol")
        P, E, h, G, u = _normalize(P, E, h, G, u)
        self._setup(P, np.vstack([E, G]), h, u, _check_psd(P), tol, max_iter)

    def _setup(self, P, C, h, u, definite: bool, tol: float, max_iter: int) -> None:
        """The set-up of checked arrays that ``__init__`` and ``_restrict``
        share: ``C`` is the equality rows over the inequality rows."""
        n, me, mi = P.shape[0], h.shape[0], u.shape[0]
        self.P, self.C, self.h, self.u = P, C, h, u
        self.E, self.G = C[:me], C[me:]
        self._definite = definite  # reduced systems are LU-factored only then
        self.tol = tol
        self.max_iter = max_iter
        self.n, self.me, self.mi = n, me, mi
        self.rho = np.concatenate([np.full(me, _RHO_EQ_FACTOR * _RHO_INEQ), np.full(mi, _RHO_INEQ)])
        self._K_lu: tuple[np.ndarray, np.ndarray] | None = None  # see _x_update
        # Column of each simple-bound row (one nonzero entry in G), -1 elsewhere.
        nonzero = self.G != 0
        single = nonzero.sum(axis=1) == 1
        self._bound_col = np.where(single, nonzero.argmax(axis=1), -1) if n else np.full(mi, -1)
        self._system: tuple[frozenset[int], _ReducedSystem] | None = None  # the last active set's

    def _restrict(self, cols: np.ndarray, rows: np.ndarray) -> RepeatedQp:
        """The QP with only the columns ``cols`` (the others fixed at zero),
        every equality row and the inequality rows ``rows``. Nothing is
        checked again: a principal submatrix of a PSD matrix is PSD, and of
        a definite one definite. A restriction of a semidefinite P that
        happens to be definite keeps the least-squares polish."""
        qp = object.__new__(RepeatedQp)
        P = self.P.take(cols, 0).take(cols, 1)
        C = self.C.take(np.concatenate([np.arange(self.me), self.me + rows]), 0).take(cols, 1)
        qp._setup(P, C, self.h, self.u[rows], self._definite, self.tol, self.max_iter)
        return qp

    def solve(self, q: np.ndarray, active=None) -> QpSolution:
        """Solve for the linear term ``q``. The polish first tries
        ``active``, a collection of inequality rows, when it is given. When
        that guess does not end in a certified point, the solve goes on to
        the splitting iteration as if it had had no guess (see the module
        docstring)."""
        q = vector(q, "linear term", self.n)

        if self.n == 0:
            return self._solve_empty()

        if active is None and self.mi == 0:
            active = ()  # without inequality rows the only set is the empty one
        if active is not None:
            guess = [*active]
            if {bool, np.bool_} & {*map(type, guess)}:  # np.array would read True as row 1
                raise DimensionMismatch(f"active rows must be an integer, got {active!r}")
            rows = index(np.array(guess or np.zeros(0, int)), "active rows")  # an empty list would read as float
            if rows.size and not (rows.min() >= 0 and rows.max() < self.mi):
                raise DimensionMismatch(f"active rows must lie in [0, {self.mi})")
            polished = self._polish(q, frozenset(rows.tolist()))
            if polished is not None:
                return polished
        if self.me + self.mi == 0:  # no solution of P x = -q passed the check
            raise Unbounded("objective is unbounded below (no constraints, gradient not in range of P)")
        return self._admm(q)

    def _solve_empty(self) -> QpSolution:
        """No variables: the empty point is optimal when it is feasible (h = 0, u >= 0)."""
        x, lam, alpha = np.zeros(0), np.zeros(self.me), np.zeros(self.mi)
        res = _kkt_residuals(np.zeros(0), _max(np.abs(self.h), initial=0.0), -self.u, alpha)
        if not _residuals_pass(res, self.tol):
            raise Infeasible("a QP without variables needs h = 0 and u >= 0")
        return QpSolution(x=x, lam=lam, alpha=alpha, status="optimal", iterations=0, active=(), residuals=res)

    def _polish(self, q: np.ndarray, active: frozenset[int]) -> QpSolution | None:
        """Solve the KKT equality system for a candidate active set, then repair it.

        An active simple bound fixes its column at ``u_i / G_ij``; the first
        active bound on a column (in row order) is the fix, and a later one on
        the same column is an ordinary row. The system is built over the free
        columns, the equality rows and the ordinary active rows, and a fixed
        column's multiplier is read off its stationarity residual.

        Violated inactive rows are added and negative-multiplier rows dropped,
        one at a time, until the candidate is KKT-consistent, or the attempt
        fails: by a cycle, by a singular system without a finite
        least-squares answer, by a candidate that misses the equality rows,
        by the final residual check or by the step budget.
        """
        P, E, h, G, u, tol = self.P, self.E, self.h, self.G, self.u, self.tol
        if self.me + self.mi == 0:  # P x = -q: the round-off in x grows with |q|
            tol = max(tol, 1e-9 * max(1.0, float(np.max(np.abs(q)))))
        seen: set[frozenset[int]] = set()
        for _ in range(2 * self.mi + 8):
            if active in seen:
                return None
            seen.add(active)
            red = self._reduced_system(active)
            step = self._step(red, q, 1.0)
            if step is None:
                return None
            x, lam, alpha = step
            eq = _max(np.abs(E @ x - h), initial=0.0)
            if eq > tol:  # no drop or add reaches the equality rows
                return None

            viol = G @ x - u
            ok, drop, add, alpha_c, res = _step_verdict(alpha, red.act_mask, viol, eq, tol, lambda a: P @ x + q + a @ G + lam @ E)
            if drop:  # the most negative multiplier
                active = active - {int(np.argmin(alpha))}
                continue
            if add:  # the most violated inactive row
                active = active | {int(np.argmax(np.where(red.act_mask, -np.inf, viol)))}
                continue
            if ok:  # its tight rows: the active ones with a positive multiplier or a zero slack
                tight = red.act_mask & ((alpha_c > 0) | (viol >= -tol))
                return QpSolution(x=x, lam=lam, alpha=alpha_c, status="optimal", iterations=0, active=tuple(np.flatnonzero(tight).tolist()), residuals=res)
            return None
        return None

    def _step(self, red: _ReducedSystem, q: np.ndarray, s: float | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """A polish step on ``red``'s set: (x, lam, alpha) from its reduced KKT
        system, or ``None`` when that has no finite answer. The step is linear
        in ``(q, s h, s u)``, so ``q`` and ``s`` may also carry a trailing
        axis of columns, one step each (see ``step_map``)."""
        P, E, me, mi = self.P, self.E, self.me, self.mi
        nf, fixed = red.n_free, np.multiply.outer(red.rhs_fixed, s)
        rhs = np.concatenate([-(q[red.free] + fixed[:nf]), np.multiply.outer(self.h, s) - fixed[nf : nf + me], fixed[nf + me :]])
        sol = _solve_reduced(red, rhs)
        if sol is None:
            return None
        x = np.multiply.outer(red.x_fixed, s)
        x[red.free] = sol[:nf]
        lam = sol[nf : nf + me]
        alpha = np.zeros((mi,) + np.shape(s))
        alpha[red.rows] = sol[nf + me :]
        # A fixed column's stationarity residual is its bound's multiplier.
        grad = P @ x + q + E.T @ lam + red.G_rows.T @ sol[nf + me :]
        alpha[red.fix_rows] = (-grad[red.fix_cols].T / red.fix_coef).T
        return x, lam, alpha

    def step_map(self, active: frozenset[int]) -> tuple[np.ndarray, np.ndarray]:
        """The polish's first step on ``active`` as an affine map of the linear
        term: the step's candidate is ``[x; alpha] = L @ q + c``. Returns
        (L, c), solved as the polish solves that set: by its LU factors, or by
        least squares, whose minimum-norm answer is linear in the right-hand
        side too. Like a polish of ``active``, it keeps that reduced system."""
        red = self._reduced_system(active)
        # Column 0 is the constant part, column 1 + j the response to q_j.
        e0 = np.eye(1, 1 + self.n)[0]
        x, _, alpha = self._step(red, np.eye(self.n, 1 + self.n, 1), e0)
        step = np.vstack([x, alpha])
        return step[:, 1:], step[:, 0]

    def _reduced_system(self, active: frozenset[int]) -> _ReducedSystem:
        """The reduced system of an active set; the last one is kept, since
        warm solves polish the same set again and again."""
        if self._system is not None and self._system[0] == active:
            return self._system[1]
        P, E, G, u = self.P, self.E, self.G, self.u
        n, me, mi = self.n, self.me, self.mi
        act = np.array(sorted(active), dtype=int)
        act_mask = np.zeros(mi, dtype=bool)
        act_mask[act] = True
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
        cut = np.flatnonzero(free)  # index takes copy faster than boolean or np.ix_ indexing
        kkt = np.zeros((nf + me + mo, nf + me + mo))
        kkt[:nf, :nf] = P.take(cut, 0).take(cut, 1)
        if me:
            kkt[nf : nf + me, :nf] = E.take(cut, 1)
            kkt[:nf, nf : nf + me] = kkt[nf : nf + me, :nf].T
        if mo:
            kkt[nf + me :, :nf] = Gr.take(cut, 1)
            kkt[:nf, nf + me :] = kkt[nf + me :, :nf].T
        lu = None
        if kkt.size and self._definite:
            with warnings.catch_warnings():
                # An exact zero pivot only warns; it marks the system singular.
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                lu = scipy.linalg.lu_factor(kkt, check_finite=False)
            if not np.all(np.diagonal(lu[0])):
                lu = None
        rhs_fixed = np.concatenate([(P @ x_fixed)[free], E @ x_fixed, u[rows] - Gr @ x_fixed])
        red = _ReducedSystem(act_mask, fix_rows, fix_cols, fix_coef, x_fixed, rows, Gr, free, nf, kkt, lu, rhs_fixed)
        self._system = (active, red)
        return red

    def _admm(self, q: np.ndarray) -> QpSolution:
        n, me, mi = self.n, self.me, self.mi
        m = me + mi
        C, rho, h = self.C, self.rho, self.h
        lower = np.concatenate([h, np.full(mi, -np.inf)])
        upper = np.concatenate([h, self.u])
        x = np.zeros(n)
        z = np.clip(C @ x, lower, upper)
        y = np.zeros(m)
        y_mark = y.copy()
        best, best_score = None, np.inf  # best: (k, x, y, act_tol) of the best iterate so far

        for k in range(1, self.max_iter + 1):
            x_t = self._x_update(x, z, y, q)
            z_t = C @ x_t
            x = _RELAX * x_t + (1.0 - _RELAX) * x
            z_pre = _RELAX * z_t + (1.0 - _RELAX) * z
            z = np.clip(z_pre + y / rho, lower, upper)
            y = y + rho * (z_pre - z)

            if k % _CHECK_EVERY == 0 or k == 8 or k == self.max_iter:
                cx = C @ x
                r_prim = float(np.max(np.abs(cx - z))) if m else 0.0
                grad = self.P @ x + q + C.T @ y
                r_dual = float(np.max(np.abs(grad)))

                act_tol = max(10.0 * r_prim, 1e-8)
                near = (self.u - cx[me:] <= act_tol) | (y[me:] > act_tol)
                polished = self._polish(q, frozenset(np.flatnonzero(near).tolist()))
                if polished is not None:
                    polished.iterations = k
                    return polished

                score = r_prim + r_dual
                if score < best_score:
                    best, best_score = (k, x, y, act_tol), score  # x and y are rebound, never updated in place

                if k >= 200:
                    self._certify_infeasible(y - y_mark)
                y_mark = y.copy()

        assert best is not None
        k, x, y, act_tol = best
        lam, alpha = y[:me], np.maximum(y[me:], 0.0)
        res = _kkt_residuals(self.P @ x + q + alpha @ self.G + lam @ self.E, _max(np.abs(self.E @ x - h), initial=0.0), self.G @ x - self.u, alpha)
        return QpSolution(x=x, lam=lam, alpha=alpha, status="max_iter", iterations=k, active=tuple(np.flatnonzero(alpha > act_tol).tolist()), residuals=res)

    def _x_update(self, x: np.ndarray, z: np.ndarray, y: np.ndarray, q: np.ndarray) -> np.ndarray:
        """The splitting iteration's ``x~ = K^-1 (sigma x - q + C'(rho z - y))``
        by the n x n matrix ``K = P + sigma I + C' diag(rho) C``, LU-factored
        when first needed. Each update is one LAPACK ``getrs`` on the factor:
        the checks ``lu_solve`` wraps it in cost twice the solve at market
        scale."""
        if self._K_lu is None:
            K = self.P + _SIGMA_REG * np.eye(self.n) + self.C.T @ (self.rho[:, None] * self.C)
            self._K_lu = scipy.linalg.lu_factor(K)
        x_t, _ = scipy.linalg.lapack.dgetrs(*self._K_lu, _SIGMA_REG * x - q + self.C.T @ (self.rho * z - y))
        return x_t

    def _certify_infeasible(self, dy: np.ndarray) -> None:
        """Raise ``Infeasible`` when the dual drift is a primal-infeasibility certificate."""
        vn = float(np.max(np.abs(dy))) if dy.size else 0.0
        if vn <= 1e-13:
            return
        v = dy / vn
        h, me = self.h, self.me
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


class WarmBatch:
    """``RepeatedQp``s whose first polish steps are taken as one batch.

    The batch owns each QP's guess, ``guess[i]`` (``None``, and
    ``has_guess[i]`` false, before the first), and the step map
    (``RepeatedQp.step_map``) of that guess; it keeps the KKT matrix ``M`` in
    place of P and G, all padded to the largest QP. ``solve`` then evaluates
    every candidate with one batched matmul and its products with one more,
    and judges them all at once by the rule a polish accepts its first step
    by, at the smallest tolerance of the QPs; ``solve_one`` solves one QP on
    its own from its guess. A hit keeps its guess; a repair sets it. Only
    inequality rows are judged, so QPs with equality rows are rejected.
    """

    def __init__(self, qps: list[RepeatedQp]):
        self.qps = list(qps)
        if any(qp.me for qp in self.qps):
            raise DimensionMismatch("WarmBatch takes QPs without equality rows")
        N = len(self.qps)
        n, m = max(qp.n for qp in self.qps), max(qp.mi for qp in self.qps)
        self.n, self.tol = n, min(qp.tol for qp in self.qps)
        self.L, self.c = np.zeros((N, n + m, n)), np.zeros((N, n + m))  # [x; alpha] = L q + c
        self.M, self.u = np.zeros((N, n + m, n + m)), np.zeros((N, m))
        self._floor = np.concatenate([np.full(n, -np.inf), np.zeros(m)])  # clamps the alpha of [x; alpha]
        self.act = np.zeros((N, m), dtype=bool)
        self.guess: list[frozenset[int] | None] = [None] * N  # set with its map by _set_guess
        self.has_guess = np.zeros(N, dtype=bool)
        for i, qp in enumerate(self.qps):
            self.M[i, : qp.n, : qp.n] = qp.P
            self.M[i, : qp.n, n : n + qp.mi] = qp.G.T
            self.M[i, n : n + qp.mi, : qp.n] = qp.G
            self.u[i, : qp.mi] = qp.u

    def _set_guess(self, i: int, active: frozenset[int]) -> None:
        """Make ``active`` QP i's guess, and its step map QP i's map."""
        if active == self.guess[i]:
            return
        qp, n = self.qps[i], self.n
        L, c = qp.step_map(active)
        self.guess[i] = active
        self.has_guess[i] = True
        self.L[i, : qp.n, : qp.n], self.c[i, : qp.n] = L[: qp.n], c[: qp.n]
        self.L[i, n : n + qp.mi, : qp.n], self.c[i, n : n + qp.mi] = L[qp.n :], c[qp.n :]
        self.act[i] = False
        self.act[i, list(active)] = True

    def solve(self, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Take every QP's first polish step from its guess for its linear
        term, row i of ``Q`` zero-padded to the largest QP. Returns (X, ok):
        the candidate points, padded the same way, and the mask of the
        accepted ones. Every QP keeps its guess: an accepted candidate solved
        its guess's rows as equalities, so they are its tight set. A QP
        without a guess is rejected."""
        n = self.n
        out = (self.L @ Q[..., None])[..., 0] + self.c
        kkt = (self.M @ np.maximum(out, self._floor)[..., None])[..., 0]  # [P x + G'alpha; G x] at the clamped alpha
        # No equality rows, and the product already holds the clamped alpha's stationarity.
        ok = _step_verdict(out[:, n:], self.act, kkt[:, n:] - self.u, 0.0, self.tol, lambda _: kkt[:, :n] + Q)[0]
        return out[:, :n], ok & self.has_guess

    def solve_one(self, i: int, q: np.ndarray) -> QpSolution:
        """QP i's own solve for the linear term ``q``, from its guess. An
        optimal answer's tight set is its next guess."""
        sol = self.qps[i].solve(q, active=self.guess[i])
        if sol.optimal:
            self._set_guess(i, frozenset(sol.active))
        return sol


def _solve_reduced(red: _ReducedSystem, rhs: np.ndarray) -> np.ndarray | None:
    """Solve ``red.kkt @ sol = rhs``: by its LU factors when it has them,
    else (or when the LU answer is not finite) by one LAPACK ``dgelsy`` call,
    the minimum-norm least-squares answer with rank cutoff ``n eps``, as
    ``np.linalg.lstsq`` takes it. ``None`` when neither gives a finite
    answer. An empty system (every column fixed, no rows) needs no kernel.
    The call is ``scipy.linalg.lstsq``'s, bit for bit, without its checks
    and workspace query per call."""
    if not rhs.size:
        return rhs
    if red.lu is not None:
        sol = scipy.linalg.lu_solve(red.lu, rhs, check_finite=False)
        if np.all(np.isfinite(sol)):
            return sol
    k, nrhs = red.kkt.shape[0], rhs.shape[1] if rhs.ndim == 2 else 1
    cond = k * np.finfo(float).eps
    lwork = _GELSY_LWORK.get((k, nrhs))
    if lwork is None:
        lwork = _GELSY_LWORK[k, nrhs] = int(scipy.linalg.lapack.dgelsy_lwork(k, k, nrhs, cond)[0])
    _, sol, _, _, _ = scipy.linalg.lapack.dgelsy(red.kkt, rhs, np.zeros(k, np.int32), cond, lwork)
    return sol if np.all(np.isfinite(sol)) else None


def solve_qp(P, q, E=None, h=None, G=None, u=None, *, tol: float = 1e-9, max_iter: int = 200000) -> QpSolution:
    """Solve one QP. See module docstring for the dual convention.

    ``E``/``h`` and ``G``/``u`` may be ``None`` or have no rows. Raises
    ``NonPsdHessian`` for an indefinite Hessian, ``Infeasible`` when a
    primal-infeasibility certificate is found and ``Unbounded`` for a QP
    without rows whose gradient is outside the range of P; returns
    ``status="max_iter"`` (with the best iterate and its residuals) when the
    budget runs out.
    """
    return RepeatedQp(P, E, h, G, u, tol=tol, max_iter=max_iter).solve(q)
