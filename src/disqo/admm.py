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

Two exact identities hold at every iteration and are enforced at 1e-10,
scaled by the size of the terms compared (exactly 1e-10 at unit scale): the
tracking identity N*mean(eta) = sum_i A~_i y_i - d, and the mean-dual
recursion mean(lam)(k+1) = mean(lam)(k) + sigma*mean(eta)(k+1).

The accelerated mode solves each subproblem in the agent's own block only:
the rest of the copy is unconstrained, so it is eliminated by partial
minimization (a Schur complement), which shrinks the per-iteration QP from
the full dimension to the block dimension while producing the same iterates.

The state is stacked by agent: Y and V are (N, n), eta and lam (N, n0), and
the zero-padded couplings A~_i form one (N, n0, n) array. Every step of a
round is one array expression over these: the mixing is W @ (eta, lam), the
subproblems' linear terms q_i one expression for all agents, and the anchor
update an adjacency product.

The subproblems themselves are batched too, in both modes. A round computes
every agent's linear term q_i and hands them to one ``qp.WarmBatch``. The
batch owns each agent's guess: a hit keeps its guess; a repair sets it, to the
tight set of the agent's certified answer. The batch takes every guessed first
polish step together, certifies each by the rule the agent's own solve would
apply, and keeps the accepted points.
Plain mode batches the full-copy QPs on q_i directly: it stays the reference
the accelerated mode is checked against. In accelerated mode each agent's
Schur reduction is one static lift of q_i: Psi_i = R_i q_i is the reduced QP's
linear term, and y_i = Kw_i w_i + Kq_i q_i its new copy from the own-block
solution w_i, so the batch solves the reduced QPs on Psi_i and the accepted
w_i are lifted back to copies. An agent the batch rejects (the check fails, or
it has no guess yet) is solved on its own from its guess by the usual
repairing QP solve (``WarmBatch.solve_one``), so every returned point is
KKT-certified: a repair that ends uncertified raises ``MaxIterReached``.
``SolverState`` and ``SolveResult.stats`` count both kinds.

A round does each piece of work once, in five batched subproblem and
coupling products in plain mode: each copy's coupling A~_i y_i, the linear
terms' A~_i' contraction, the batch's candidates and its one KKT product, and
the new copies' couplings A~_i y_i', which give the eta update
gamma_i + (A~_i y_i' - A~_i y_i) and the coupling gap sum_i A~_i y_i' - d.
Accelerated mode adds the stacked lift [R_i; Kq_i] q_i and Kw_i w_i. Nothing
is carried across rounds. ``iterate`` returns the checks' reductions, and
``solve`` builds each round's trace row from them; ``metrics`` reduces the
arrays as they stand by the same float operations (a mean is a sum over
agents divided by N), so each trace row is bitwise ``metrics`` of its state,
and the iterates agree with per-agent solves to 1e-12. ``SolveResult.stats``
also holds the seconds per phase.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._checks import choice, integer, nonnegative, positive, vector
from ._csv import write_csv
from .errors import DecompositionMismatch, DimensionMismatch, InfeasibleInitialPoint, MaxIterReached
from .graphs import CommGraph, metropolis_weights
from .problem import CoupledProblem, feasible_point
from .qp import RepeatedQp, WarmBatch

__all__ = [
    "SolverParams",
    "IterTrace",
    "SolverState",
    "SolveResult",
    "init_state",
    "communication_round_tracking",
    "iterate",
    "metrics",
    "solve",
]

_IDENTITY_TOL = 1e-10
_SUBPROBLEM_TOL = 1e-10
PHASES = ("mix_s", "batch_s", "repair_s", "finish_s", "metrics_s")
_max = np.maximum.reduce  # the ufunc itself: ndarray.max's wrapper costs as much as the reduction here


def _norm(r: np.ndarray) -> float:
    """The 2-norm of all of r, by the dot product ``np.linalg.norm`` takes."""
    r = r.ravel()
    return math.sqrt(r.dot(r))


@dataclass(frozen=True)
class SolverParams:
    sigma: float = 1.0
    rho: float = 1.0
    max_iter: int = 2000
    violation_tol: float = 1e-6
    step_tol: float = 1e-6
    mode: str = "plain"

    def __post_init__(self):
        positive(self.sigma, "sigma")
        positive(self.rho, "rho")
        integer(self.max_iter, "max_iter", 1)
        nonnegative(self.violation_tol, "violation_tol")  # 0 runs the whole budget
        nonnegative(self.step_tol, "step_tol")
        choice(self.mode, "mode", ("plain", "accelerated"))


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

    def append(self, row: dict, wall: float) -> None:
        """Record a ``metrics`` row and its round's wall time in ms."""
        self.iters.append(int(row["iter"]))
        for name in ("rel_error", "violation", "eps1_norm", "eps2_norm"):
            getattr(self, name).append(float(row[name]))
        self.lambda_bar.append(np.array(row["lambda_bar"], float))
        self.wall_ms.append(float(wall))

    def __len__(self) -> int:
        return len(self.iters)

    def header(self) -> list[str]:
        lam_cols = [f"lambda_bar_{j}" for j in range(self.n_coupling)]
        return ["iter", "rel_error", "violation", "eps1_norm", "eps2_norm", *lam_cols, "wall_ms"]

    def rows(self):
        columns = (self.iters, self.rel_error, self.violation, self.eps1_norm, self.eps2_norm, self.lambda_bar, self.wall_ms)
        for *head, lbar, wall in zip(*columns):
            yield [*head, *lbar.tolist(), wall]

    def to_csv(self, path) -> None:
        write_csv(path, self.header(), self.rows())


@dataclass
class SolverState:
    problem: CoupledProblem
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
    adjacency: np.ndarray  # (N, N) 1.0 where two agents are neighbours
    pair_diff: np.ndarray  # (N(N-1)/2, N) row p is e_i - e_j for the p-th pair i < j: pair_diff @ Y subtracts exactly
    k: int = 0
    warm_hits: int = 0  # subproblems the batched warm pass certified
    repairs: int = 0  # subproblems solved one agent at a time
    # Seconds per phase: exchange and linear terms, batched warm pass and lifts,
    # repairs, recursions and checks, and solve's trace rows.
    phase_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    # One subproblem QP per agent, batched by one WarmBatch in both modes: over
    # the full copy in plain mode, over the own block in accelerated mode.
    # There the agents' Schur lifts (see _schur_lift) are kept once, as
    # ([R; Kq], Kw) zero-padded to the largest block b, so one product gives
    # R q and Kq q: the round lifts all agents, and a repair agent i's slice.
    _batch: WarmBatch | None = field(default=None, repr=False)
    _lift: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    # Per-agent columns of the anchor update, fixed by the graph: deg_i and
    # 1/2, and 1 and 0 for an agent without neighbours, whose anchor then
    # stays put.
    _anchor_deg: np.ndarray | None = field(default=None, repr=False)
    _anchor_half: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_agents(self) -> int:
        return self.problem.n_agents

    def coupling_values(self) -> np.ndarray:
        """sum_i A~_i y_i over the agents' own copies."""
        return np.add.reduce(_own_couplings(self, self.Y), 0)

    def own_block_x(self) -> np.ndarray:
        """Each agent's own block, taken from its own copy."""
        return self.Y[self.problem.owner, np.arange(self.problem.n_total)]


def init_state(problem: CoupledProblem, graph: CommGraph, params: SolverParams, y0=None) -> SolverState:
    """Initial state: lam = 0, eta_i = A~_i y_i - d/N, v_i the average of the
    edge midpoints at agent i. Default start is y_i = 0 when feasible for the
    agent's own set, else a minimum-norm feasible point on the own block.
    The solver optimizes the algorithmic decomposition, so it must sum to the
    actual total objective (``DecompositionMismatch`` otherwise)."""
    if graph.n_agents != problem.n_agents:
        raise DimensionMismatch(f"graph has {graph.n_agents} agents, problem has {problem.n_agents}")
    for name, alg, act in zip(("Hessian", "linear term"), problem.total_quadratic("algorithmic"), problem.total_quadratic("actual")):
        gap = float(np.abs(alg - act).max(initial=0.0))
        if gap > 1e-9 * max(np.abs(alg).max(initial=0.0), np.abs(act).max(initial=0.0)):
            raise DecompositionMismatch(f"algorithmic and actual total {name}s differ by {gap:.3e}")
    N, n = problem.n_agents, problem.n_total
    if y0 is not None and len(y0) != N:
        raise DimensionMismatch(f"y0 has {len(y0)} rows, expected {N}")
    Y = np.zeros((N, n))
    for i in range(N):
        poly = problem.local[i]
        blk = problem.block(i)
        if y0 is not None:
            yi = vector(y0[i], f"y0[{i}]", n)  # a NaN is DimensionMismatch, not outside the local set
            if not poly.contains(yi[blk]):
                raise InfeasibleInitialPoint(f"y0[{i}] violates the local rows by {float((poly.B @ yi[blk] - poly.m).max()):.2e}")
            Y[i] = yi
        else:
            Y[i, blk] = feasible_point(poly)  # the origin whenever it is feasible

    A_pad = np.zeros((N, problem.n_coupling, n))  # A~_i: A_i zero-padded to the full vector
    A_pad[problem.owner, :, np.arange(n)] = problem.stacked_A().T
    H = np.einsum("ikn,in->ik", A_pad, Y) - problem.d / N

    V = np.zeros((N, n))
    deg = graph.degrees.astype(float)
    for i, j in sorted(graph.edges):
        mid = 0.5 * (Y[i] + Y[j])
        V[i] += mid
        V[j] += mid
    anchor_deg = np.where(deg > 0, deg, 1.0)[:, None]
    V = np.where(deg[:, None] > 0, V / anchor_deg, Y)  # an agent without neighbours anchors at its copy

    first, second = np.triu_indices(N, 1)
    state = SolverState(
        problem=problem,
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
        adjacency=graph.adjacency().astype(float),
        pair_diff=np.eye(N)[first] - np.eye(N)[second],
        _anchor_deg=anchor_deg,
        _anchor_half=np.where(deg > 0, 0.5, 0.0)[:, None],
    )
    _build_subproblems(state)
    _check_identities(state)
    return state


def _build_subproblems(state: SolverState) -> None:
    p = state.problem
    accelerated = state.params.mode == "accelerated"
    if accelerated:
        N, n, b = p.n_agents, p.n_total, max(p.dims)
        state._lift = RKq, Kw = np.zeros((N, b + n, n)), np.zeros((N, n, b))
    else:
        G_full, _ = p.local_stacked()
    qps = []
    for i, poly in enumerate(p.local):
        blk, b_i = p.block(i), p.dims[i]
        P = _subproblem_hessian(state, i)
        if accelerated:
            P, RKq[i, :b_i], Kw[i, :, :b_i], RKq[i, b:] = _schur_lift(P, blk)
        G = poly.B if accelerated else G_full[p.rows(i)]
        qps.append(RepeatedQp(P, G=G, u=poly.m, tol=_SUBPROBLEM_TOL))
    state._batch = WarmBatch(qps)


def _schur_lift(P: np.ndarray, blk: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Agent i's subproblem reduced to its own block by partial minimization.

    The subproblem Hessian P never changes, so its partition into the own
    block (w) and the rest (z) is reduced once: with T = P_zz^-1 P_zw, the
    reduced Hessian is Phi = P_ww - P_wz T. The rest of the copy is then a
    static lift of w and the full linear term q: the reduced linear term is
    R q = q_w - T' q_z, and the full copy y = Kw w + Kq q, which is w on the
    own block and z = -(T w + P_zz^-1 q_z) on the rest. Returns (Phi, R, Kw, Kq).
    """
    n = P.shape[0]
    own = np.arange(blk.start, blk.stop)
    rest = np.setdiff1d(np.arange(n), own)
    R, Kw, Kq = np.zeros((own.size, n)), np.zeros((n, own.size)), np.zeros((n, n))
    R[:, own] = Kw[own] = np.eye(own.size)
    phi = P[np.ix_(own, own)]
    if rest.size:
        P_wz = P[np.ix_(own, rest)]
        cho = scipy.linalg.cho_factor(P[np.ix_(rest, rest)])
        T = scipy.linalg.cho_solve(cho, P_wz.T)
        R[:, rest], Kw[rest] = -T.T, -T
        Kq[np.ix_(rest, rest)] = -scipy.linalg.cho_solve(cho, np.eye(rest.size))
        phi = phi - P_wz @ T
    return (phi + phi.T) / 2.0, R, Kw, Kq  # computed here: its rounding is no asymmetric input


def communication_round_tracking(eta: np.ndarray, lam: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mix tracking and dual estimates through the weight matrix: row i of the
    results is agent i's aggregate including its self weight."""
    return W @ eta, W @ lam


def _own_couplings(state: SolverState, Y: np.ndarray) -> np.ndarray:
    """A~_i y_i for every agent, one row each, of the copies Y: one product."""
    return (state.A_pad @ Y[..., None])[..., 0]


def _linear_terms(state: SolverState, Gamma: np.ndarray, L: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Every agent's subproblem linear term q_i, one row each, from their
    mixed tracking and dual estimates (rows of Gamma and L) and their own
    couplings A~_i y_i (rows of ``own``)."""
    params = state.params
    mixed = L + params.sigma * (Gamma - own)
    anchor = params.rho * state.degrees[:, None] * state.V
    return state.psi - anchor + (mixed[:, None] @ state.A_pad)[:, 0]


def _solve_agent(state: SolverState, i: int, q: np.ndarray) -> np.ndarray:
    """Agent i's new full copy from its own QP solve on its linear term q.
    Raises ``MaxIterReached`` when that solve ends without a certified point."""
    lift = state._lift
    b_i = state.problem.dims[i]
    sol = state._batch.solve_one(i, q if lift is None else lift[0][i, :b_i] @ q)
    if not sol.optimal:
        raise MaxIterReached(f"agent {i}'s subproblem in round {state.k + 1} ended {sol.status}, without a certified point")
    if lift is None:
        return sol.x
    RKq, Kw = lift
    return Kw[i, :, :b_i] @ sol.x + RKq[i, Kw.shape[2] :] @ q


def _subproblem_hessian(state: SolverState, i: int) -> np.ndarray:
    """Agent i's subproblem Hessian: its own quadratic plus the anchor penalty
    rho*deg_i*I and the coupling penalty sigma*A~_i'A~_i."""
    p, params = state.problem, state.params
    blk = p.block(i)
    P = p.algorithmic[i].sigma
    P[np.diag_indices_from(P)] += params.rho * state.degrees[i]
    P[blk, blk] += params.sigma * (p.A[i].T @ p.A[i])
    return (P + P.T) / 2.0


def _reductions(state: SolverState, own: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sum_i A~_i y_i - d, mean eta, mean lam) of the state's arrays, each
    mean a sum over agents divided by N: what the identity checks compare and
    metrics reports. ``own`` holds the rows A~_i y_i when the caller has them."""
    N = state.n_agents
    own = _own_couplings(state, state.Y) if own is None else own
    return np.add.reduce(own, 0) - state.problem.d, np.add.reduce(state.H, 0) / N, np.add.reduce(state.Lam, 0) / N


def _check_identities(state: SolverState, own: np.ndarray | None = None, lam_old_mean: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tracking identity N*mean(eta) = sum_i A~_i y_i - d and, given the
    mean dual before the round, the mean-dual recursion, each at 1e-10 scaled
    by the size of its terms (read only past 1e-10). Returns the reductions
    it compared (``_reductions``, of ``own`` when given)."""
    reduced = gap, H_mean, lam_mean = _reductions(state, own)
    res = float(_max(np.abs(state.n_agents * H_mean - gap), initial=0.0))
    if res > _IDENTITY_TOL:  # the bound is 1e-10 max(1, |A~||Y|, |d|); read the scale only past 1e-10
        scale = max(np.abs(state.A_pad).max(initial=0.0) * np.abs(state.Y).max(initial=0.0), np.abs(state.problem.d).max())
        if res > _IDENTITY_TOL * scale:
            raise AssertionError(f"tracking identity violated by {res:.3e} at iteration {state.k}")
    if lam_old_mean is not None:
        dual_res = float(_max(np.abs(lam_mean - (lam_old_mean + state.params.sigma * H_mean)), initial=0.0))
        if dual_res > _IDENTITY_TOL and dual_res > _IDENTITY_TOL * np.abs(state.Lam).max():  # 1e-10 max(1, |Lam|)
            raise AssertionError(f"mean-dual recursion violated by {dual_res:.3e} at iteration {state.k}")
    return reduced


def iterate(state: SolverState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance the state by one synchronous round (two exchanges), enforcing
    the tracking identity and the mean-dual recursion at a scaled 1e-10.
    Returns what the checks reduced the new arrays to: (sum_i A~_i y_i - d,
    mean eta, mean lam)."""
    clock = time.perf_counter
    t0 = clock()
    gamma_all, l_all = communication_round_tracking(state.H, state.Lam, state.W)
    own = _own_couplings(state, state.Y)
    Q = _linear_terms(state, gamma_all, l_all, own)
    t1 = clock()
    if state._lift is None:
        Y_new, certified = state._batch.solve(Q)
    else:
        RKq, Kw = state._lift
        b = Kw.shape[2]
        lifted = (RKq @ Q[..., None])[..., 0]  # [R q; Kq q]
        W, certified = state._batch.solve(lifted[:, :b])
        Y_new = (Kw @ W[..., None])[..., 0] + lifted[:, b:]
    t2 = clock()
    repair = np.flatnonzero(~certified)
    for i in repair:
        Y_new[i] = _solve_agent(state, i, Q[i])
    state.repairs += len(repair)
    state.warm_hits += state.n_agents - len(repair)
    t3 = clock()
    reduced = _finish_round(state, gamma_all, l_all, Y_new, own)
    spent = state.phase_s
    spent["mix_s"] += t1 - t0
    spent["batch_s"] += t2 - t1
    spent["repair_s"] += t3 - t2
    spent["finish_s"] += clock() - t3
    return reduced


def _finish_round(state: SolverState, gamma_all: np.ndarray, l_all: np.ndarray, Y_new: np.ndarray, own: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The round after the subproblems from the old copies' couplings ``own``:
    recursion updates, the second exchange and the identity checks, whose
    reductions it returns."""
    Y = state.Y
    own_new = _own_couplings(state, Y_new)
    H_new = gamma_all + (own_new - own)
    lam_old_mean = np.add.reduce(state.Lam, 0) / state.n_agents
    Lam_new = l_all + state.params.sigma * H_new
    # v_i += mean over neighbours of (y_j(new) - y_j/2) - y_i/2; an agent
    # without neighbours adds 0/1 - 0*y_i, so its anchor stays where it is.
    V_new = state.V + ((state.adjacency @ (Y_new - 0.5 * Y)) / state._anchor_deg - state._anchor_half * Y)

    state.Y_prev = Y
    state.Y, state.H, state.Lam, state.V = Y_new, H_new, Lam_new, V_new
    state.k += 1
    return _check_identities(state, own_new, lam_old_mean)


def metrics(state: SolverState, reference_value: float | None = None) -> dict:
    """Convergence metrics of the current state.

    violation = ||sum_i A~_i y_i - d||_2 + sum over ordered pairs i != j of
    ||y_i - y_j||_2; rel_error = |sum_i f_i(y_i) - f*| / |f*| when a reference
    objective value f* is supplied (NaN otherwise), and the absolute error
    |sum_i f_i(y_i)| when f* = 0; eps1/eps2 are the norms of the tracking and
    dual disagreement with their means. The arrays are reduced as they stand.
    """
    return _row(state, _reductions(state), reference_value)


def _row(state: SolverState, reduced: tuple[np.ndarray, np.ndarray, np.ndarray], reference_value: float | None) -> dict:
    """The ``metrics`` row of the state, given its ``_reductions``."""
    p, N, Y = state.problem, state.n_agents, state.Y
    gap, H_mean, lambda_bar = reduced
    diff = state.pair_diff @ Y
    consensus_gap = 2.0 * float(np.add.reduce(np.sqrt(np.add.reduce(diff * diff, axis=1))))  # each unordered pair twice
    rel = float("nan")
    if reference_value is not None:
        rel = abs(sum(p.algorithmic[i].value(Y[i]) for i in range(N)) - reference_value)
        rel /= abs(reference_value) or 1.0  # the absolute error when f* = 0
    return {
        "iter": state.k,
        "rel_error": rel,
        "violation": _norm(gap) + consensus_gap,
        "eps1_norm": _norm(state.H - H_mean),
        "eps2_norm": _norm(state.Lam - lambda_bar),
        "lambda_bar": lambda_bar,
    }


@dataclass
class SolveResult:
    """Outcome of ``solve``. Dual sign: ``lam`` and ``lambda_bar`` estimate
    the negative of ``CentralSolution.lam``; at convergence ``-lambda_bar``
    approaches ``centralized_solve(problem).lam``.

    The trace's first row is ``metrics`` of the initial state, which reduces
    the arrays as they stand; each later row is built from the reductions
    its round's ``iterate`` returned, and is bitwise what ``metrics`` gives
    on that round's state."""

    x: np.ndarray  # each agent's own block taken from its own copy
    lam: np.ndarray  # (N, n0) final per-agent dual estimates
    trace: IterTrace
    converged: bool
    iterations: int
    consensus_x: np.ndarray  # average of all copies (diagnostic)
    # Subproblems the batched warm pass certified ("warm_hits") and those
    # solved one agent at a time ("repairs"), in either mode; they add up to
    # iterations * N. Then the seconds spent per phase (``PHASES``, see
    # ``SolverState.phase_s``), which add up to at most the solve's wall time.
    stats: dict[str, float] = field(default_factory=dict)

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
    metric <= violation_tol and the max-norm iterate change <= step_tol.
    Hitting max_iter returns the trace flagged unconverged."""
    params = params or SolverParams()
    state = init_state(problem, graph, params, y0=y0)
    trace = IterTrace(n_coupling=problem.n_coupling)
    clock = time.perf_counter
    t0 = clock()
    row = metrics(state, reference_value)
    state.phase_s["metrics_s"] += clock() - t0
    trace.append(row, 0.0)

    converged = False
    for _ in range(params.max_iter):
        t0 = clock()
        reduced = iterate(state)
        t1 = clock()
        row = _row(state, reduced, reference_value)
        state.phase_s["metrics_s"] += clock() - t1
        trace.append(row, (t1 - t0) * 1e3)
        # The step is read only once the violation passes: until then it cannot stop the run.
        if row["violation"] <= params.violation_tol and float(np.max(np.abs(state.Y - state.Y_prev))) <= params.step_tol:
            converged = True
            break

    return SolveResult(
        x=state.own_block_x(),
        lam=np.array(state.Lam),
        trace=trace,
        converged=converged,
        iterations=state.k,
        consensus_x=state.Y.mean(axis=0),
        stats={"warm_hits": state.warm_hits, "repairs": state.repairs, **state.phase_s},
    )
