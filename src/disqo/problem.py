"""Constraint-coupled quadratic problems.

N agents each own a block x_i of the stacked decision vector x. They share one
linear coupling constraint  sum_i A_i x_i = d  and keep private polyhedral sets
B_i x_i <= m_i. Every agent carries a quadratic objective over the *full*
vector, its Hessian held as factors sigma = F' D F (``QuadObjective``; a
dense sigma is the case F = I, D = sigma; a transport agent's F is its
used-edge rows of the route incidence), stored twice:

* ``algorithmic`` — a per-agent convex decomposition of the total cost, the one
  the distributed solver optimizes;
* ``actual`` — the cost the agent genuinely pays, the one mechanisms price and
  evaluate utilities with.

Both decompositions sum to the same total objective; they differ only in how
cross-terms are attributed to agents. ``exclude_agent`` keeps that so: the
others keep their actual objectives, and take equal shares of the cross-terms
the algorithmic split had charged the agent that left.

One layout table places each agent: ``block(i)`` is its slice of x,
``rows(i)`` its slice of the ``local_stacked()`` rows, ``owner`` the agent of
each column, and ``tight_rows(x)`` marks the rows tight at x by one rule. A
coupling dual has the one sign of ``centralized_solve``, and
``dual_residual`` is the one test of it, in the sign given. A settlement
passes the solve's own certificate, its inequality multipliers, and the test
is a product (``mechanisms.sp_for_problem``); NNLS (``stationarity_residual``,
a free multiplier entering as columns a, -a) remains only where no such
multipliers are at hand: in ``shadow_prices`` and ``reconcile_dual``, through
``dual_residual``, and in the best-response check. A local set admits a
point by ``LocalPolyhedron.contains`` alone; a symmetric matrix and a named
choice pass by the rules of ``_checks``.

A problem holds only its objectives' factors: a total value or gradient adds
the objectives' own, and only the market QP forms the dense n x n total
(``total_quadratic``, on each call). The centralized solves of one market
share that QP (``_Market``): its total Hessian is proved PSD once, and
``centralized_solve`` and the mechanisms (the generator's VCG too) run on it.
A report (``with_linear_terms``) reaches it as its total linear term alone.
A drop-one solve restricts the market's arrays to the other agents instead
of building ``exclude_agent``, with bit-identical answers.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._checks import choice, finite, index, symmetric, vector
from .errors import (
    ConventionMismatch,
    DimensionMismatch,
    EmptyLocalSet,
    Infeasible,
    MaxIterReached,
    NonConvexObjective,
    UnknownAgent,
)
from .qp import RepeatedQp, solve_qp

__all__ = [
    "QuadObjective",
    "LocalPolyhedron",
    "CoupledProblem",
    "ReportedProblem",
    "resolve",
    "CentralSolution",
    "assemble_problem",
    "convert_inequality_coupling",
    "SlackMap",
    "eval_cost",
    "centralized_solve",
    "exclude_agent",
    "reconcile_dual",
    "dual_residual",
    "stationarity_residual",
    "feasible_point",
]


@dataclass(frozen=True)
class QuadObjective:
    """f(x) = 1/2 x' sigma x + psi' x over the full stacked vector, with
    sigma = F' D F held as its factors: F of shape (r, n), D symmetric of
    shape (r, r). A dense sigma is the case F = I, D = sigma. A transport
    agent's F holds only the rows of the edges its routes use, so r is a few
    dozen while n runs to thousands. No other module reads F or D."""

    F: np.ndarray
    D: np.ndarray
    psi: np.ndarray

    @property
    def sigma(self) -> np.ndarray:
        """The dense n x n Hessian F' D F, formed on each read."""
        return self.F.T @ (self.D @ self.F)

    def value(self, x: np.ndarray) -> float:
        y = self.F @ x
        return float(0.5 * y @ self.D @ y + self.psi @ x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.F.T @ (self.D @ (self.F @ x)) + self.psi

    def take(self, cols: np.ndarray) -> QuadObjective:
        """The objective over the coordinates ``cols`` alone, the others fixed at zero."""
        return QuadObjective(self.F[:, cols], self.D, self.psi[cols])

    def scaled(self, c: float) -> QuadObjective:
        return QuadObjective(self.F, c * self.D, c * self.psi)

    def vanishes(self) -> bool:
        """Whether f is zero by its factors: psi is zero, and D is zero
        between the nonzero rows of F. (A D whose terms cancel in F' D F
        reads as nonzero.)"""
        rows = np.flatnonzero(np.any(self.F, axis=1))
        return not (np.any(self.psi) or np.any(self.D[np.ix_(rows, rows)]))

    @staticmethod
    def summed(objectives, n: int) -> QuadObjective:
        """The sum of ``objectives`` over n coordinates, kept factored: their
        F stacked, their D placed block-diagonally, their psi added in order.
        Without objectives it is zero."""
        F = np.vstack([o.F for o in objectives] + [np.zeros((0, n))])
        D, at = np.zeros((F.shape[0], F.shape[0])), 0
        for o in objectives:
            D[at : at + o.D.shape[0], at : at + o.D.shape[0]] = o.D
            at += o.D.shape[0]
        return QuadObjective(F, D, _linear_total(objectives, n))


@dataclass(frozen=True)
class LocalPolyhedron:
    """Private feasible set {x_i : B x_i <= m}."""

    B: np.ndarray
    m: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.B.shape[0]

    def contains(self, x_i: np.ndarray) -> bool:
        """Whether each row of B x_i <= m holds to 1e-9 max(1, |m_r|) of its own
        bound: a large bound on one row hides no violation on another."""
        return bool(np.all(self.B @ x_i - self.m <= 1e-9 * np.maximum(1.0, np.abs(self.m))))


@dataclass(frozen=True)
class CoupledProblem:
    dims: tuple[int, ...]
    A: tuple[np.ndarray, ...]
    d: np.ndarray
    local: tuple[LocalPolyhedron, ...]
    algorithmic: tuple[QuadObjective, ...]
    actual: tuple[QuadObjective, ...]

    @property
    def n_agents(self) -> int:
        return len(self.dims)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Start of each agent's block in the stacked vector, then its length."""
        return tuple(int(o) for o in itertools.accumulate(self.dims, initial=0))

    @cached_property
    def row_offsets(self) -> tuple[int, ...]:
        """Start of each agent's rows in ``local_stacked()``, then their count."""
        return tuple(int(o) for o in itertools.accumulate((poly.n_rows for poly in self.local), initial=0))

    @property
    def n_total(self) -> int:
        return self.offsets[-1]

    @property
    def n_coupling(self) -> int:
        return int(self.d.shape[0])

    def block(self, i: int) -> slice:
        """Agent i's coordinates in the stacked vector."""
        return self._span(self.offsets, i)

    def rows(self, i: int) -> slice:
        """Agent i's rows of ``local_stacked()``."""
        return self._span(self.row_offsets, i)

    def _span(self, offsets: tuple[int, ...], i: int) -> slice:
        if not 0 <= index(i, "agent") < self.n_agents:
            raise UnknownAgent(f"agent {i} of {self.n_agents}")
        return slice(offsets[i], offsets[i + 1])

    @cached_property
    def owner(self) -> np.ndarray:
        """The agent of each column of the stacked vector."""
        return np.repeat(np.arange(self.n_agents), self.dims)

    def stacked_A(self) -> np.ndarray:
        return np.hstack(self.A) if self.A else np.zeros((self.n_coupling, 0))

    def _objectives(self, which: str) -> tuple[QuadObjective, ...]:
        return self.actual if choice(which, "which", ("actual", "algorithmic")) == "actual" else self.algorithmic

    def total_quadratic(self, which: str = "actual") -> tuple[np.ndarray, np.ndarray]:
        """(sigma, psi) of the ``which`` decomposition's total objective,
        dense, formed on each call."""
        objs = self._objectives(which)
        sigma = np.zeros((self.n_total, self.n_total))
        for o in objs:  # one n x n term at a time: never a D over all the objectives' ranks
            sigma += o.sigma
        return sigma, _linear_total(objs, self.n_total)

    def total_value(self, x: np.ndarray, which: str = "actual") -> float:
        """The ``which`` decomposition's total objective at x, summed over its objectives."""
        objs, x = self._objectives(which), vector(x, "x", self.n_total)
        return sum((o.value(x) for o in objs), 0.0)

    def with_linear_terms(self, psi: dict[int, np.ndarray]) -> CoupledProblem:
        """The problem with agent i's linear term, in both decompositions,
        replaced by ``psi[i]``. Every other array is this problem's, the
        Hessian factors included."""
        algorithmic, actual = list(self.algorithmic), list(self.actual)
        for i, v in psi.items():
            self.block(i)  # an unknown agent raises UnknownAgent
            v = vector(v, f"psi[{i}]", self.n_total)
            algorithmic[i] = dataclasses.replace(algorithmic[i], psi=v)
            actual[i] = dataclasses.replace(actual[i], psi=v)
        return dataclasses.replace(self, algorithmic=tuple(algorithmic), actual=tuple(actual))

    def local_stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """Block-diagonal stack of all local inequality rows over the full vector."""
        G, u = np.zeros((self.row_offsets[-1], self.n_total)), np.zeros(self.row_offsets[-1])
        for i, poly in enumerate(self.local):
            G[self.rows(i), self.block(i)] = poly.B
            u[self.rows(i)] = poly.m
        return G, u

    def tight_rows(self, x: np.ndarray) -> np.ndarray:
        """Mask of the ``local_stacked()`` rows tight at the stacked point x:
        agent i's row is tight when its slack is at most 1e-6 max(1, max |m_i|)."""
        tight = np.zeros(self.row_offsets[-1], dtype=bool)
        for i, poly in enumerate(self.local):
            slack = poly.m - poly.B @ x[self.block(i)]
            tight[self.rows(i)] = slack <= 1e-6 * max(1.0, float(np.abs(poly.m).max(initial=0.0)))
        return tight


@dataclass(frozen=True)
class ReportedProblem:
    """A problem together with the version the agents reported.

    ``true`` and ``reported`` share dimensions, coupling, and local sets; they
    may differ in the objective coefficients.
    """

    true: CoupledProblem
    reported: CoupledProblem

    @classmethod
    def truthful(cls, problem: CoupledProblem) -> "ReportedProblem":
        return cls(true=problem, reported=problem)

    def pick(self, which: str) -> CoupledProblem:
        return self.true if choice(which, "which", ("true", "reported")) == "true" else self.reported


def resolve(problem, which: str) -> CoupledProblem:
    """The ``which`` side ("true" or "reported") of a ``ReportedProblem``; a
    plain ``CoupledProblem`` is both sides of a truthful report."""
    return (problem if isinstance(problem, ReportedProblem) else ReportedProblem.truthful(problem)).pick(which)


def _linear_total(objectives, n: int) -> np.ndarray:
    """The summed linear terms, from a zero start (a market without agents has (0,))."""
    return sum((o.psi for o in objectives), np.zeros(n))


def assemble_problem(agents, A, d, actual=None) -> CoupledProblem:
    """Build and validate a coupled problem.

    ``agents`` is a list of (sigma_i, psi_i, B_i, m_i) with the quadratics over
    the full stacked vector; ``A`` the list of coupling blocks, ``d`` the
    target. ``actual``, when given, is a list of (sigma_i, psi_i) used for the
    mechanism-facing cost decomposition (defaults to the same objectives).
    Each sigma_i is a dense n x n matrix or a tuple (F_i, D_i) of its factors,
    sigma_i = F_i' D_i F_i; only the r x r D_i are checked for symmetry.
    The algorithmic total is proved PSD: by its D_i when each is PSD, else by
    one n x n ``eigvalsh`` (``NonConvexObjective`` otherwise). Each local set
    is proved nonempty (``EmptyLocalSet`` otherwise).
    """
    d = vector(d, "d")
    n0 = d.shape[0]
    A_list = [finite(np.atleast_2d(np.asarray(a, float)), f"A[{i}]") for i, a in enumerate(A)]
    if len(A_list) != len(agents):
        raise DimensionMismatch(f"{len(agents)} agents but {len(A_list)} coupling blocks")
    dims = tuple(a.shape[1] for a in A_list)
    n = sum(dims)

    def objective(sigma, psi, label: str) -> QuadObjective:
        if isinstance(sigma, tuple):
            F, D = finite(np.asarray(sigma[0], float), f"F{label}"), symmetric(sigma[1], f"D{label}")
        else:
            D = symmetric(sigma, f"sigma{label}")
            F = np.eye(D.shape[0])
        obj = QuadObjective(F=F, D=D, psi=vector(psi, f"psi{label}"))
        if F.shape != (D.shape[0], n) or obj.psi.shape != (n,):
            raise DimensionMismatch(f"objective{label} has factors {F.shape}/{D.shape} and psi {obj.psi.shape}, expected n={n}")
        return obj

    algorithmic, local = [], []
    for i, (sigma, psi, B, m) in enumerate(agents):
        algorithmic.append(objective(sigma, psi, f"[{i}]"))
        if A_list[i].shape != (n0, dims[i]):
            raise DimensionMismatch(f"A[{i}] shape {A_list[i].shape}, expected ({n0},{dims[i]})")
        B = finite(np.zeros((0, dims[i])) if B is None else np.atleast_2d(np.asarray(B, float)), f"B[{i}]")
        m = np.zeros(0) if m is None else vector(m, f"m[{i}]")
        if B.shape != (m.shape[0], dims[i]):
            raise DimensionMismatch(f"local rows of agent {i}: B {B.shape} vs m {m.shape}")
        local.append(LocalPolyhedron(B=B, m=m))
    actual_objs = tuple(algorithmic) if actual is None else tuple(objective(s, p, f"[{i}] (actual)") for i, (s, p) in enumerate(actual))

    problem = CoupledProblem(
        dims=dims,
        A=tuple(A_list),
        d=d,
        local=tuple(local),
        algorithmic=tuple(algorithmic),
        actual=actual_objs,
    )

    # A sum of F_i' D_i F_i with every D_i PSD is PSD.
    if n and not all(np.all(np.linalg.eigvalsh(o.D) >= 0.0) for o in problem.algorithmic):
        sigma_total, _ = problem.total_quadratic("algorithmic")
        eigmin = float(np.linalg.eigvalsh(sigma_total).min())
        if eigmin < -1e-8 * max(1.0, float(np.max(np.abs(sigma_total)))):
            raise NonConvexObjective(f"summed Hessian has eigenvalue {eigmin:.3e}")

    for i, poly in enumerate(problem.local):
        try:
            feasible_point(poly)
        except Infeasible as exc:
            raise EmptyLocalSet(f"agent {i} local set is empty") from exc
    return problem


def feasible_point(poly: LocalPolyhedron) -> np.ndarray:
    """Minimum-norm point of {x : Bx <= m}; raises ``Infeasible`` if empty."""
    n = poly.B.shape[1]
    x0 = np.zeros(n)
    if poly.contains(x0):  # always so without rows
        return x0
    sol = solve_qp(np.eye(n), np.zeros(n), G=poly.B, u=poly.m, tol=1e-9)
    if not sol.optimal:
        raise Infeasible("could not certify local set nonempty")
    return sol.x


@dataclass(frozen=True)
class SlackMap:
    """Coordinate bookkeeping for the inequality-to-equality conversion:
    ``lift[j]`` is where original coordinate j sits in the converted vector.
    Library-only, like ``convert_inequality_coupling``."""

    lift: np.ndarray

    def strip(self, x: np.ndarray) -> np.ndarray:
        """Drop the slack coordinates from a stacked solution of the converted problem."""
        return x[self.lift]


def convert_inequality_coupling(problem: CoupledProblem) -> tuple[CoupledProblem, SlackMap]:
    """Reinterpret the coupling of ``problem`` as sum_i A_i x_i <= d and return
    the equivalent equality-coupled problem.

    Each agent's block is extended with a nonnegative slack vector s_i (one per
    coupling row) so that sum_i (A_i x_i + s_i) = d. Objectives are zero on the
    slacks, so optimal x parts coincide with the inequality problem's optimum;
    the split of total slack across agents is not unique and carries no cost.
    Library-only: the CLI's configs describe equality-coupled instances.
    """
    n0 = problem.n_coupling
    n_new = problem.n_total + problem.n_agents * n0
    # Agent i's block moves right by the i slack vectors in front of it.
    lift = np.arange(problem.n_total) + n0 * problem.owner

    def lift_quad(obj: QuadObjective) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
        """The objective over the converted vector, as ``assemble_problem``'s (factors, psi)."""
        F, psi = np.zeros((obj.F.shape[0], n_new)), np.zeros(n_new)
        F[:, lift], psi[lift] = obj.F, obj.psi
        return (F, obj.D), psi

    agents = []
    A_new = []
    for i in range(problem.n_agents):
        ni = problem.dims[i]
        poly = problem.local[i]
        B = np.zeros((poly.n_rows + n0, ni + n0))
        m = np.zeros(poly.n_rows + n0)
        B[: poly.n_rows, :ni], m[: poly.n_rows] = poly.B, poly.m
        B[poly.n_rows :, ni:] = -np.eye(n0)  # s_i >= 0
        agents.append((B, m))
        A_new.append(np.hstack([problem.A[i], np.eye(n0)]))

    converted = assemble_problem(
        agents=[(*lift_quad(o), B, m) for o, (B, m) in zip(problem.algorithmic, agents)],
        A=A_new,
        d=problem.d,
        actual=[lift_quad(o) for o in problem.actual],
    )
    return converted, SlackMap(lift=lift)


def eval_cost(problem, i: int, x: np.ndarray, which: str = "true") -> float:
    """Agent i's own (``actual`` decomposition) cost at the stacked point x."""
    p = resolve(problem, which)
    p.block(i)  # an unknown agent raises UnknownAgent
    return p.actual[i].value(vector(x, "x", p.n_total))


@dataclass(frozen=True)
class CentralSolution:
    """Primal/dual optimum of the coupled problem.

    ``lam`` follows the convention  grad f(x*) = A' lam - B_active' alpha,
    i.e. the gradient of the total cost equals A' lam minus the active local
    rows weighted by alpha >= 0. ``active`` lists the local rows tight at
    x*, numbered as the rows of ``local_stacked()``.
    """

    x: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray
    value: float
    active: tuple[int, ...]


class _Market:
    """One market's centralized QP, built once at the kernel's tolerance 1e-9:
    its total Hessian normalized and proved PSD by one ``eigvalsh``. Every
    solve of a mechanism call (the generator's screen is one) runs on it:
    ``solve`` the market or a report, given its total linear term, each with
    its own guess; ``solve_without`` the market without one agent, as a
    principal restriction of the market's arrays."""

    def __init__(self, p: CoupledProblem):
        self.p = p
        sigma, self.psi = p.total_quadratic("actual")
        self.qp = RepeatedQp(sigma, p.stacked_A(), p.d, *p.local_stacked())

    def solve(self, psi: np.ndarray | None = None, active=None) -> CentralSolution:
        """The optimum of the market with the total linear term ``psi``: a
        report's (``_linear_total`` of its actual objectives), or the
        market's own when None."""
        return _optimum(self.qp, self.psi if psi is None else psi, active)

    def solve_without(self, i: int, full: CentralSolution) -> CentralSolution:
        """The optimum of ``exclude_agent(p, i)``, started from the tight
        local rows of ``full``, the optimum with everyone: agent i's rows are
        dropped and the rows after them move up. Where agent i's actual
        Hessian and linear term vanish off its own block, as on every
        transport market, the restricted totals are the totals of that market
        bit for bit, and its QP is a principal restriction of this one's.
        Otherwise that market is built."""
        p = self.p
        blk, own = p.block(i), p.rows(i)
        active = tuple(r - (own.stop - own.start) if r >= own.stop else r for r in full.active if not own.start <= r < own.stop)
        cols = np.r_[0 : blk.start, blk.stop : p.n_total]
        if not p.actual[i].take(cols).vanishes():
            return _Market(exclude_agent(p, i)).solve(active=active)
        rows = np.r_[0 : own.start, own.stop : p.row_offsets[-1]]
        return _optimum(self.qp._restrict(cols, rows), self.psi[cols], active)


def _optimum(qp: RepeatedQp, psi: np.ndarray, active) -> CentralSolution:
    sol = qp.solve(psi, active=active)
    if sol.status == "max_iter":
        raise MaxIterReached(f"centralized solve stopped at residuals {sol.residuals}")
    lam = -sol.lam  # flip from the Px+q+E'lam+G'alpha=0 convention
    value = float(0.5 * sol.x @ qp.P @ sol.x + psi @ sol.x)
    return CentralSolution(x=sol.x, lam=lam, alpha=sol.alpha, value=value, active=sol.active)


def centralized_solve(problem, which: str = "true") -> CentralSolution:
    """Solve the coupled problem as one QP."""
    return _Market(resolve(problem, which)).solve()


def exclude_agent(p: CoupledProblem, i: int) -> CoupledProblem:
    """The same market without agent i: its block is removed (fixed at zero).
    The others' algorithmic objectives share agent i's algorithmic minus
    actual objective equally, so both decompositions keep the same total (on
    a transport market, the kappa shares on agent i's edges sum to one again).
    The centralized drop-one solve does not build it
    (``_Market.solve_without``); distributed VCG does."""
    cols = np.delete(np.arange(p.n_total), p.block(i))
    keep = [j for j in range(p.n_agents) if j != i]
    algorithmic = ()
    if keep:  # without another agent there is no one to share the gap
        gap = QuadObjective.summed((p.algorithmic[i], p.actual[i].scaled(-1.0)), p.n_total).take(cols)
        gap = QuadObjective(gap.F, gap.D / len(keep), gap.psi / len(keep))  # one of the len(keep) equal shares
        algorithmic = tuple(QuadObjective.summed((p.algorithmic[j].take(cols), gap), len(cols)) for j in keep)
    return CoupledProblem(
        dims=tuple(p.dims[j] for j in keep),
        A=tuple(p.A[j] for j in keep),
        d=p.d,
        local=tuple(p.local[j] for j in keep),
        algorithmic=algorithmic,
        actual=tuple(p.actual[j].take(cols) for j in keep),
    )


def stationarity_residual(grad: np.ndarray, cols: np.ndarray) -> float:
    """min over alpha >= 0 of || grad + cols @ alpha ||_2: zero when -grad is
    a conic combination of the columns. A free multiplier on a column a
    enters as the column pair a, -a."""
    import scipy.optimize  # loaded on first use: a command that certifies no dual never pays its start-up

    g = np.asarray(grad, float).ravel()
    C = np.atleast_2d(np.asarray(cols, float))
    if C.size == 0:
        return float(np.linalg.norm(g))
    _, resid = scipy.optimize.nnls(C, -g)
    return float(resid)


def dual_residual(problem, x: np.ndarray, lam: np.ndarray, alpha=None) -> tuple[float, float, np.ndarray]:
    """(residual, bound, g) of the coupling dual lam in the sign given, on the
    reported side at x: g = grad f(x) must be A' lam - G' alpha with
    alpha >= 0 (the convention of ``centralized_solve``), and lam passes when
    the residual is at most the bound 1e-5 max(1, |g|). Given a solve's
    certificate ``alpha``, one multiplier per ``local_stacked()`` row G, the
    residual is |g - A' lam + G' alpha|_2 (inf when an alpha is negative: it
    certifies nothing); else it is the least over alpha >= 0 on the rows
    tight at x, by one NNLS (``stationarity_residual``)."""
    p = resolve(problem, "reported")
    x, lam = vector(x, "x", p.n_total), vector(lam, "lam", p.n_coupling)
    grad, bound = _total_gradient(p, x)
    resid = grad - p.stacked_A().T @ lam
    if alpha is None:
        return stationarity_residual(resid, p.local_stacked()[0][p.tight_rows(x)].T), bound, grad
    alpha = vector(alpha, "alpha", p.row_offsets[-1])
    for i, poly in enumerate(p.local):
        resid[p.block(i)] += poly.B.T @ alpha[p.rows(i)]
    return (float(np.linalg.norm(resid)) if alpha.min(initial=0.0) >= 0 else np.inf), bound, grad


def _total_gradient(p: CoupledProblem, x: np.ndarray) -> tuple[np.ndarray, float]:
    """(g, bound): g = grad f(x) of p's actual total, and the bound
    1e-5 max(1, |g|) a stationarity residual of a coupling dual must meet."""
    grad = sum((o.gradient(x) for o in p.actual), np.zeros(p.n_total))
    return grad, 1e-5 * max(1.0, float(np.abs(grad).max(initial=0.0)))


def reconcile_dual(problem, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Map a coupling dual of unknown sign onto the convention of
    ``centralized_solve``: lam when it passes ``dual_residual``, else -lam
    when that passes; raises ``ConventionMismatch`` otherwise."""
    lam = vector(lam, "lam")  # dual_residual checks both lengths
    resid, bound, _ = dual_residual(problem, x, lam)
    if resid <= bound:
        return lam
    mirrored, _, _ = dual_residual(problem, x, -lam)
    if mirrored <= bound:
        return -lam
    raise ConventionMismatch(f"stationarity residuals {resid:.2e} (lam) and {mirrored:.2e} (-lam) exceed tolerance {bound:.2e}")
