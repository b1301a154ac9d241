"""Distributed consensus–tracking ADMM for coupled quadratic problems.

Each agent keeps a full-dimension copy ``y_i`` of the decision vector, a dual
estimate ``lam_i`` and a tracking estimate ``eta_i`` for the coupling rows,
and a consensus anchor ``v_i``. One iteration is bulk-synchronous:

1. exchange round — every agent mixes its neighbors' (eta, lam) through the
   symmetric doubly stochastic weight matrix: gamma_i = sum_s w_is eta_s,
   l_i = sum_s w_is lam_s (self weight included);
2. local subproblem — agent i minimizes, over its own constraint set,
   f_i(y) + (rho/2) deg_i ||y - v_i||^2 + l_i' A~_i y
   + (sigma/2) ||A~_i y - A~_i y_i + gamma_i||^2,
   where A~_i is its coupling block zero-padded to the full vector;
3. recursion updates — eta_i += own coupling move, lam_i = l_i + sigma*eta_i,
   delta_i = y_i(new) - y_i(old)/2;
4. second exchange — v_i += mean of neighbors' delta minus y_i(old)/2.

Two exact identities hold at every iteration and are enforced at 1e-10:
the tracking identity N*mean(eta) = sum_i A~_i y_i - d, and the mean-dual
recursion mean(lam)(k+1) = mean(lam)(k) + sigma*mean(eta)(k+1).

The accelerated mode solves each subproblem in the agent's own block only:
the rest of the copy is unconstrained, so it is eliminated by partial
minimization (a Schur complement), which shrinks the per-iteration QP from
the full dimension to the block dimension while producing the same iterates.

The state is stacked by agent: Y and V are (N, n), eta and lam (N, n0), and
the zero-padded couplings A~_i form one (N, n0, n) array. Every step of a
round is one array expression over these: the mixing is W @ (eta, lam), the
subproblems' linear terms q_i one expression for all agents, the eta update
an A~ contraction of the copies' change, and the anchor update an adjacency
product.

In accelerated mode the subproblems themselves are batched too. Nearly every
agent's QP keeps its active set from one round to the next, and with the
active set fixed its solution is affine in q_i. So each agent keeps one
affine map, for the set its last solve ended on: from q_i to its new copy
(own block and eliminated rest) and to its local rows' multipliers. A round
applies every map in one contraction and judges all candidates at once by
the rule a polish accepts its first step by (multipliers and slacks
nonnegative, every KKT residual recomputed from the candidate within the
subproblem tolerance). Each accepted agent's QP records the point and tight
set its own solve would have. An agent that fails the check, has no map for
its guess yet, or whose active set has a singular reduced system is solved
on its own by the usual warm-started, repairing QP solve, so every returned
point is KKT-certified. ``SolveResult.stats`` counts both kinds.

Plain mode keeps one QP solve per agent and round: it is the reference the
accelerated mode is checked against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.spatial.distance import pdist

from ._csv import write_csv
from .errors import DimensionMismatch, InfeasibleInitialPoint
from .graphs import CommGraph, metropolis_weights
from .problem import CoupledProblem, feasible_point
from .qp import RepeatedQp, _step_verdict

__all__ = [
    "SolverParams",
    "IterTrace",
    "SolverState",
    "SolveResult",
    "init_state",
    "communication_round_tracking",
    "subproblem",
    "accelerated_subproblem",
    "iterate",
    "metrics",
    "solve",
]

_IDENTITY_TOL = 1e-10
_SUBPROBLEM_TOL = 1e-10


@dataclass(frozen=True)
class SolverParams:
    sigma: float = 1.0
    rho: float = 1.0
    max_iter: int = 2000
    violation_tol: float = 1e-6
    step_tol: float = 1e-6
    rel_error_tol: float | None = None
    mode: str = "plain"

    def __post_init__(self):
        if self.sigma <= 0 or self.rho <= 0:
            raise DimensionMismatch("sigma and rho must be strictly positive")
        if self.max_iter < 1:
            raise DimensionMismatch("max_iter must be at least 1")
        if self.violation_tol < 0 or self.step_tol < 0:
            raise DimensionMismatch("tolerances must be nonnegative")
        if self.mode not in ("plain", "accelerated"):
            raise DimensionMismatch(f"mode must be 'plain' or 'accelerated', got {self.mode!r}")


@dataclass
class IterTrace:
    """Per-iteration convergence record with a stable CSV layout."""

    n_coupling: int
    iters: list[int] = field(default_factory=list)
    rel_error: list[float] = field(default_factory=list)
    violation: list[float] = field(default_factory=list)
    eps1_norm: list[float] = field(default_factory=list)
    eps2_norm: list[float] = field(default_factory=list)
    lambda_bar: list[np.ndarray] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)

    def append(self, it, rel, viol, e1, e2, lbar, wall):
        self.iters.append(int(it))
        self.rel_error.append(float(rel))
        self.violation.append(float(viol))
        self.eps1_norm.append(float(e1))
        self.eps2_norm.append(float(e2))
        self.lambda_bar.append(np.array(lbar, float))
        self.wall_ms.append(float(wall))

    def __len__(self) -> int:
        return len(self.iters)

    def header(self) -> list[str]:
        lam_cols = [f"lambda_bar_{j}" for j in range(self.n_coupling)]
        return ["iter", "rel_error", "violation", "eps1_norm", "eps2_norm", *lam_cols, "wall_ms"]

    def rows(self):
        for idx in range(len(self.iters)):
            yield [
                self.iters[idx],
                self.rel_error[idx],
                self.violation[idx],
                self.eps1_norm[idx],
                self.eps2_norm[idx],
                *self.lambda_bar[idx].tolist(),
                self.wall_ms[idx],
            ]

    def to_csv(self, path) -> None:
        write_csv(path, self.header(), self.rows())


class _AcceleratedCache:
    """Per-agent reduction of the subproblem to the agent's own block.

    The subproblem Hessian P never changes, so its partition into the own
    block (w) and the rest (z) is reduced once: with S = P and
    T = S_zz^-1 S_zw, the reduced Hessian is Phi = S_ww - S_wz T. Per
    iteration the reduced linear term is Psi = q_w - T' q_z and then
    z = -(T w + S_zz^-1 q_z); both are kept as maps of the full linear term
    q (``R`` and ``Zq``), which the warm map composes with the QP's step.
    """

    def __init__(self, P: np.ndarray, blk: slice, B, m):
        n = P.shape[0]
        self.blk = blk
        own = self.own = np.arange(blk.start, blk.stop)
        self.rest = np.array([j for j in range(n) if not (blk.start <= j < blk.stop)], dtype=int)
        self.S_wz = P[np.ix_(own, self.rest)]
        self.T = np.zeros((self.rest.size, own.size))
        self.R = np.zeros((own.size, n))  # Psi = R q
        self.R[:, own] = np.eye(own.size)
        self.Zq = np.zeros((self.rest.size, n))  # S_zz^-1 q_z = Zq q
        if self.rest.size:
            cho = scipy.linalg.cho_factor(P[np.ix_(self.rest, self.rest)])
            self.T = scipy.linalg.cho_solve(cho, self.S_wz.T)
            self.R[:, self.rest] = -self.T.T
            self.Zq[:, self.rest] = scipy.linalg.cho_solve(cho, np.eye(self.rest.size))
        phi = P[np.ix_(own, own)] - self.S_wz @ self.T
        phi = (phi + phi.T) / 2.0
        self.qp = RepeatedQp(phi, G=B, u=m, tol=_SUBPROBLEM_TOL)

    def solve(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The own block w and the eliminated rest z for the full linear term q."""
        w = self.qp.solve(self.R @ q).x
        return w, -(self.T @ w + self.Zq @ q)

    def warm_map(self, active: frozenset[int]):
        """The agent's warm update when its QP keeps the active set ``active``,
        as one affine map of its full linear term q: the new copy is
        y = My @ q + cy and the local rows' multipliers alpha = Ma @ q + ca.
        Returns (My, cy, Ma, ca), or ``None`` when the set's reduced system
        is singular."""
        step = self.qp.step_map(active)
        if step is None:
            return None
        L, c = step
        b, n = self.R.shape
        Lw, cw = L[:b] @ self.R, c[:b]
        My, cy = np.empty((n, n)), np.empty(n)
        My[self.own], cy[self.own] = Lw, cw
        My[self.rest], cy[self.rest] = -(self.T @ Lw) - self.Zq, -(self.T @ cw)
        return My, cy, L[b:] @ self.R, c[b:]


class _WarmPass:
    """The accelerated round's certified batch over every agent.

    Each agent keeps one affine map, for the active set its QP will try
    first (the set its last solve ended on), stacked here with the others
    and padded: rows [0, n) give the new copy y, the next ``r`` the
    multipliers of the agent's local rows and the last ``b`` its reduced
    linear term Psi. One contraction with the linear terms gives every
    candidate, and ``qp._step_verdict``, the rule a polish accepts its first
    step by, judges them all at once from the reduced Hessians and local
    rows. An agent that fails it, has no map for its guess, or whose
    reduced system is singular is solved on its own.
    """

    def __init__(self, caches: list[_AcceleratedCache], n: int):
        N = len(caches)
        b = max(cache.R.shape[0] for cache in caches)
        r = max(cache.qp.mi for cache in caches)
        self.n, self.r = n, r
        self.M = np.zeros((N, n + r + b, n))
        self.c = np.zeros((N, n + r + b))
        self.Phi = np.zeros((N, b, b))
        self.B = np.zeros((N, r, b))
        self.u = np.zeros((N, r))
        self.E, self.h, self.lam = np.zeros((0, b)), np.zeros(0), np.zeros((N, 0))  # no equality rows
        self.act = np.zeros((N, r), dtype=bool)
        self.own = np.zeros((N, b), dtype=int)
        self.is_own = np.zeros((N, b), dtype=bool)
        self.sets: list[frozenset[int] | None] = [None] * N
        for i, cache in enumerate(caches):
            bi, ri = cache.R.shape[0], cache.qp.mi
            self.M[i, n + r : n + r + bi] = cache.R
            self.Phi[i, :bi, :bi] = cache.qp.P
            self.B[i, :ri, :bi] = cache.qp.G
            self.u[i, :ri] = cache.qp.u
            self.own[i, :bi] = cache.own
            self.is_own[i, :bi] = True

    def _load(self, i: int, cache: _AcceleratedCache, active: frozenset[int]) -> bool:
        """Replace agent i's map by the one for ``active``; False when singular."""
        built = cache.warm_map(active)
        if built is None:
            self.sets[i] = None
            return False
        My, cy, Ma, ca = built
        n, ri = self.n, cache.qp.mi
        self.M[i, :n], self.c[i, :n] = My, cy
        self.M[i, n : n + ri], self.c[i, n : n + ri] = Ma, ca
        self.act[i] = False
        self.act[i, list(active)] = True
        self.sets[i] = active
        return True

    def run(self, caches: list[_AcceleratedCache], Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every agent's candidate copy from its linear term (row of Q), and the
        mask of the certified ones; each certified agent's QP keeps its point
        and tight set, as its own solve would have."""
        N, n, r = len(caches), self.n, self.r
        warm = np.zeros(N, dtype=bool)
        for i, cache in enumerate(caches):
            guess = cache.qp._last_active
            if guess is not None:
                warm[i] = guess == self.sets[i] or self._load(i, cache, guess)
        out = (self.M @ Q[..., None])[..., 0] + self.c
        Y, alpha, psi = out[:, :n].copy(), out[:, n : n + r], out[:, n + r :]
        w = np.where(self.is_own, Y[np.arange(N)[:, None], self.own], 0.0)
        ok, _, _, _, _, tight = _step_verdict(self.Phi, psi, self.E, self.h, self.B, self.u, w, self.lam, alpha, self.act, _SUBPROBLEM_TOL)
        ok &= warm
        same = (tight == self.act).all(axis=1)
        for i in np.flatnonzero(ok):
            qp = caches[i].qp
            qp._remember(w[i, : qp.n], self.sets[i] if same[i] else np.flatnonzero(tight[i]).tolist())
        return Y, ok


@dataclass
class SolverState:
    problem: CoupledProblem
    graph: CommGraph
    params: SolverParams
    W: np.ndarray
    degrees: np.ndarray
    Y: np.ndarray  # (N, n) full copies
    Y_prev: np.ndarray
    H: np.ndarray  # (N, n0) tracking estimates
    Lam: np.ndarray  # (N, n0) dual estimates
    V: np.ndarray  # (N, n) consensus anchors
    A_pad: np.ndarray  # (N, n0, n) couplings A~_i, zero outside agent i's block
    psi: np.ndarray  # (N, n) the agents' linear objective terms
    owner: np.ndarray  # (n,) agent owning each column
    adjacency: np.ndarray  # (N, N) 1.0 where two agents are neighbours
    k: int = 0
    Gamma: np.ndarray | None = None
    warm_hits: int = 0  # subproblems the batched warm pass certified
    repairs: int = 0  # subproblems solved one agent at a time
    # One subproblem cache per agent: a RepeatedQp over the full copy in plain
    # mode, an _AcceleratedCache over the own block in accelerated mode, whose
    # warm maps the accelerated round's batch stacks.
    _caches: list = field(default_factory=list, repr=False)
    _warm: _WarmPass | None = field(default=None, repr=False)

    @property
    def n_agents(self) -> int:
        return self.problem.n_agents

    def coupling_values(self) -> np.ndarray:
        """sum_i A~_i y_i over the agents' own copies."""
        return np.einsum("ikn,in->k", self.A_pad, self.Y)

    def own_block_x(self) -> np.ndarray:
        """Each agent's own block, taken from its own copy."""
        return self.Y[self.owner, np.arange(self.problem.n_total)]


def init_state(problem: CoupledProblem, graph: CommGraph, params: SolverParams, y0=None) -> SolverState:
    """Initial state: lam = 0, eta_i = A~_i y_i - d/N, v_i the average of the
    edge midpoints at agent i. Default start is y_i = 0 when feasible for the
    agent's own set, else a minimum-norm feasible point on the own block."""
    if graph.n_agents != problem.n_agents:
        raise DimensionMismatch(f"graph has {graph.n_agents} agents, problem has {problem.n_agents}")
    N, n = problem.n_agents, problem.n_total
    Y = np.zeros((N, n))
    for i in range(N):
        poly = problem.local[i]
        blk = problem.block(i)
        if y0 is not None:
            yi = np.asarray(y0[i], float).ravel()
            if yi.shape != (n,):
                raise DimensionMismatch(f"y0[{i}] has shape {yi.shape}, expected ({n},)")
            gap = poly.B @ yi[blk] - poly.m if poly.n_rows else np.zeros(0)
            if gap.size and float(gap.max()) > 1e-9 * max(1.0, float(np.abs(poly.m).max())):
                raise InfeasibleInitialPoint(f"y0[{i}] violates the local rows by {float(gap.max()):.2e}")
            Y[i] = yi
        else:
            Y[i, blk] = feasible_point(poly)  # the origin whenever it is feasible

    A_pad = np.stack([problem.coupling_map(i) for i in range(N)])
    H = np.einsum("ikn,in->ik", A_pad, Y) - problem.d / N

    V = np.zeros((N, n))
    deg = graph.degrees.astype(float)
    for i, j in sorted(graph.edges):
        mid = 0.5 * (Y[i] + Y[j])
        V[i] += mid
        V[j] += mid
    for i in range(N):
        if deg[i] > 0:
            V[i] /= deg[i]
        else:
            V[i] = Y[i]

    state = SolverState(
        problem=problem,
        graph=graph,
        params=params,
        W=metropolis_weights(graph),
        degrees=deg,
        Y=Y,
        Y_prev=np.array(Y),
        H=H,
        Lam=np.zeros((N, problem.n_coupling)),
        V=V,
        A_pad=A_pad,
        psi=np.stack([problem.algorithmic[i].psi for i in range(N)]),
        owner=np.repeat(np.arange(N), problem.dims),
        adjacency=graph.adjacency().astype(float),
    )
    _build_subproblem_caches(state)
    _check_tracking_identity(state)
    return state


def _build_subproblem_caches(state: SolverState) -> None:
    p = state.problem
    for i in range(p.n_agents):
        blk = p.block(i)
        P = _subproblem_hessian(state, i)
        poly = p.local[i]
        B = poly.B if poly.n_rows else None
        m = poly.m if poly.n_rows else None
        if state.params.mode == "accelerated":
            state._caches.append(_AcceleratedCache(P, blk, B, m))
        else:
            G = None
            if poly.n_rows:
                G = np.zeros((poly.n_rows, p.n_total))
                G[:, blk] = poly.B
            state._caches.append(RepeatedQp(P, G=G, u=m, tol=_SUBPROBLEM_TOL))
    if state.params.mode == "accelerated":
        state._warm = _WarmPass(state._caches, p.n_total)


def communication_round_tracking(eta: np.ndarray, lam: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mix tracking and dual estimates through the weight matrix: row i of the
    results is agent i's aggregate including its self weight."""
    return W @ eta, W @ lam


def _linear_terms(state: SolverState, Gamma: np.ndarray, L: np.ndarray, agents=slice(None)) -> np.ndarray:
    """The subproblem linear terms q_i of the listed agents, one row each, from
    their mixed tracking and dual estimates (rows of Gamma and L)."""
    params = state.params
    A = state.A_pad[agents]
    own_coupling = (A @ state.Y[agents, :, None])[..., 0]
    mixed = L + params.sigma * (Gamma - own_coupling)
    anchor = params.rho * state.degrees[agents, None] * state.V[agents]
    return state.psi[agents] - anchor + (mixed[:, None] @ A)[:, 0]


def subproblem(state: SolverState, i: int, gamma_i: np.ndarray, l_i: np.ndarray) -> np.ndarray:
    """Plain full-dimension subproblem solve for agent i (plain-mode state)."""
    q = _linear_terms(state, gamma_i[None], l_i[None], slice(i, i + 1))[0]
    return state._caches[i].solve(q).x


def accelerated_subproblem(state: SolverState, i: int, gamma_i: np.ndarray, l_i: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block-reduced subproblem for agent i (accelerated-mode state): returns
    (own block w, eliminated rest z, reassembled full copy y)."""
    cache = state._caches[i]
    q = _linear_terms(state, gamma_i[None], l_i[None], slice(i, i + 1))[0]
    blk = state.problem.block(i)
    w, z = cache.solve(q)
    y = np.empty(state.problem.n_total)
    y[blk] = w
    y[cache.rest] = z
    return w, z, y


def _subproblem_hessian(state: SolverState, i: int) -> np.ndarray:
    """Agent i's subproblem Hessian: its own quadratic plus the anchor penalty
    rho*deg_i*I and the coupling penalty sigma*A~_i'A~_i."""
    p, params = state.problem, state.params
    blk = p.block(i)
    P = np.array(p.algorithmic[i].sigma)
    P[np.diag_indices_from(P)] += params.rho * state.degrees[i]
    P[blk, blk] += params.sigma * (p.A[i].T @ p.A[i])
    return (P + P.T) / 2.0


def _check_tracking_identity(state: SolverState) -> None:
    lhs = state.n_agents * state.H.mean(axis=0)
    rhs = state.coupling_values() - state.problem.d
    res = float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0
    if res > _IDENTITY_TOL:
        raise AssertionError(f"tracking identity violated by {res:.3e} at iteration {state.k}")


def iterate(state: SolverState) -> None:
    """Advance the state by one synchronous round (two exchanges), enforcing
    the tracking identity and the mean-dual recursion at 1e-10."""
    params = state.params
    N = state.n_agents

    gamma_all, l_all = communication_round_tracking(state.H, state.Lam, state.W)
    state.Gamma = gamma_all

    if params.mode == "accelerated":
        Y_new, certified = state._warm.run(state._caches, _linear_terms(state, gamma_all, l_all))
        repair = np.flatnonzero(~certified)
        for i in repair:
            _, _, Y_new[i] = accelerated_subproblem(state, i, gamma_all[i], l_all[i])
    else:
        repair = range(N)
        Y_new = np.array([subproblem(state, i, gamma_all[i], l_all[i]) for i in repair])
    state.repairs += len(repair)
    state.warm_hits += N - len(repair)
    _finish_round(state, gamma_all, l_all, Y_new)


def _finish_round(state: SolverState, gamma_all: np.ndarray, l_all: np.ndarray, Y_new: np.ndarray) -> None:
    """The round after the subproblems: recursion updates, the second exchange
    and the identity checks."""
    params = state.params
    H_new = gamma_all + np.einsum("ikn,in->ik", state.A_pad, Y_new - state.Y)
    lam_old_mean = state.Lam.mean(axis=0)
    Lam_new = l_all + params.sigma * H_new

    Delta = Y_new - 0.5 * state.Y
    V_new = np.array(state.V)
    mixed = state.degrees > 0
    V_new[mixed] += (state.adjacency[mixed] @ Delta) / state.degrees[mixed, None] - 0.5 * state.Y[mixed]

    state.Y_prev = state.Y
    state.Y, state.H, state.Lam, state.V = Y_new, H_new, Lam_new, V_new
    state.k += 1

    _check_tracking_identity(state)
    dual_res = float(np.max(np.abs(state.Lam.mean(axis=0) - (lam_old_mean + params.sigma * state.H.mean(axis=0)))))
    if dual_res > _IDENTITY_TOL:
        raise AssertionError(f"mean-dual recursion violated by {dual_res:.3e} at iteration {state.k}")


def metrics(state: SolverState, reference_value: float | None = None) -> dict:
    """Convergence metrics of the current state.

    violation = ||sum_i A~_i y_i - d||_2 + sum over ordered pairs i != j of
    ||y_i - y_j||_2; rel_error = |sum_i f_i(y_i) - f*| / |f*| when a reference
    objective value f* is supplied (NaN otherwise), and the absolute error
    |sum_i f_i(y_i)| when f* = 0; eps1/eps2 are the norms of the tracking and
    dual disagreement with their means.
    """
    p = state.problem
    N = state.n_agents
    coupling_gap = float(np.linalg.norm(state.coupling_values() - p.d))
    consensus_gap = 2.0 * float(pdist(state.Y).sum())  # each unordered pair twice
    violation = coupling_gap + consensus_gap

    if reference_value is None:
        rel = float("nan")
    else:
        total = sum(p.algorithmic[i].value(state.Y[i]) for i in range(N))
        rel = abs(total - reference_value)
        if reference_value != 0:
            rel /= abs(reference_value)

    eps1 = float(np.linalg.norm(state.H - state.H.mean(axis=0)))
    eps2 = float(np.linalg.norm(state.Lam - state.Lam.mean(axis=0)))
    return {
        "iter": state.k,
        "rel_error": rel,
        "violation": violation,
        "eps1_norm": eps1,
        "eps2_norm": eps2,
        "lambda_bar": state.Lam.mean(axis=0),
    }


@dataclass
class SolveResult:
    x: np.ndarray  # each agent's own block taken from its own copy
    lam: np.ndarray  # (N, n0) final per-agent dual estimates
    trace: IterTrace
    converged: bool
    iterations: int
    consensus_x: np.ndarray  # average of all copies (diagnostic)
    state: SolverState
    # Subproblems the batched warm pass certified ("warm_hits") and those
    # solved one agent at a time ("repairs"); they add up to iterations * N.
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def lambda_bar(self) -> np.ndarray:
        return self.lam.mean(axis=0)


def solve(
    problem: CoupledProblem,
    graph: CommGraph,
    params: SolverParams | None = None,
    y0=None,
    reference_value: float | None = None,
) -> SolveResult:
    """Run the distributed iteration to the stopping rule: both the violation
    metric <= violation_tol and the max-norm iterate change <= step_tol (plus
    rel_error <= rel_error_tol when both a reference value and that tolerance
    are given). Hitting max_iter returns the trace flagged unconverged."""
    params = params or SolverParams()
    state = init_state(problem, graph, params, y0=y0)
    trace = IterTrace(n_coupling=problem.n_coupling)
    row = metrics(state, reference_value)
    trace.append(row["iter"], row["rel_error"], row["violation"], row["eps1_norm"], row["eps2_norm"], row["lambda_bar"], 0.0)

    converged = False
    for _ in range(params.max_iter):
        t0 = time.perf_counter()
        iterate(state)
        wall = (time.perf_counter() - t0) * 1e3
        row = metrics(state, reference_value)
        trace.append(row["iter"], row["rel_error"], row["violation"], row["eps1_norm"], row["eps2_norm"], row["lambda_bar"], wall)
        step = float(np.max(np.abs(state.Y - state.Y_prev)))
        ok = row["violation"] <= params.violation_tol and step <= params.step_tol
        if ok and params.rel_error_tol is not None and reference_value is not None:
            ok = row["rel_error"] <= params.rel_error_tol
        if ok:
            converged = True
            break

    return SolveResult(
        x=state.own_block_x(),
        lam=np.array(state.Lam),
        trace=trace,
        converged=converged,
        iterations=state.k,
        consensus_x=state.Y.mean(axis=0),
        state=state,
        stats={"warm_hits": state.warm_hits, "repairs": state.repairs},
    )
