"""Incentive payments on top of solved coupled problems.

Two mechanisms are provided. Shadow pricing pays each agent a per-unit price
vector built from the coupling dual and the congestion externality its flow
imposes on everyone else; the administrator computes it from one solve. The
VCG payment is a lump sum equal to the cost the rest of the market saves by
agent i's presence; it needs one solve per agent plus one with everyone.

Each step has one path. A mechanism call builds its market's QP once
(``problem._Market``: one Hessian sum, one PSD check, at most one factor of
the splitting system) and runs every solve of the call on it; ``settle``
prices both mechanisms from one such market and one solve of it. ``_vcg`` is
the one drop-one loop (the generator's screen is a ``vcg_payments`` call):
a centralized drop-one is the market's ``solve_without`` from the full
optimum's tight rows; a distributed one runs consensus on ``exclude_agent``.
Both mechanisms settle through ``_costs``, every agent's own cost on one
side. The sweep and the portfolio price their reported problems through
``_misreport_benefits``, which solves the truthful market once and each
report from its total linear term on the same QP, started from the truthful
tight rows. A start that does not polish to a certified optimum is a miss,
and its solve runs as one without a start (see ``qp``). No start is kept
between solves. Both prices test the coupling dual by the one test,
``problem.dual_residual``, in the sign it is given, and raise
``ConventionMismatch`` when it fails: a settlement (``sp_for_problem``)
passes the solve's own certificate alpha, so its test is a product and no
NNLS; ``shadow_prices``, which is given no alpha, tests by one NNLS. The
best-response check enters each agent's free coupling multiplier as the
column pair A_i', -A_i'.

Conventions: mechanisms only ever see *reported* objectives — prices,
allocations, and payments are computed from reports, while net costs evaluate
each agent's *true* objective at the implemented allocation (a reported-cost
evaluation mode exists for comparison). Net cost is u_i = cost_i - payment_i;
benefit is its negation, so individually rational outcomes have u_i <= 0 and
benefit >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import admm
from ._checks import choice, integer, nonnegative, vector
from ._csv import write_csv
from .errors import ConventionMismatch, DimensionMismatch, Infeasible, InfeasibleWithoutAgent, MaxIterReached
from .graphs import random_connected_graph
from .problem import (
    CentralSolution,
    CoupledProblem,
    ReportedProblem,
    _linear_total,
    _Market,
    centralized_solve,
    dual_residual,
    eval_cost,
    exclude_agent,
    resolve,
    stationarity_residual,
)

__all__ = [
    "MechanismOutcome",
    "shadow_prices",
    "sp_outcome",
    "sp_for_problem",
    "sp_equilibrium_check",
    "vcg_payments",
    "settle",
    "vcg_ic_check",
    "ICReport",
    "misreport_sweep",
    "misreport_portfolio",
    "SweepResult",
    "PortfolioResult",
    "payments_csv",
]


@dataclass(frozen=True)
class MechanismOutcome:
    mechanism: str  # "ShadowPricing" or "VCG"
    x: np.ndarray
    prices: tuple[np.ndarray, ...] | None  # per-agent unit prices (shadow pricing only)
    payments: np.ndarray  # per-agent transfer: prices . x_i, or the VCG lump sum
    costs: np.ndarray  # per-agent cost of the implemented allocation
    cost_basis: str  # "true" or "reported" evaluation of the costs column

    @property
    def net_costs(self) -> np.ndarray:
        """u_i = costs - payments."""
        return self.costs - self.payments

    @property
    def benefits(self) -> np.ndarray:
        """-u_i, the payment net of the cost (a zero benefit is +0)."""
        return self.payments - self.costs

    @property
    def total_payout(self) -> float:
        return float(self.payments.sum())

    @property
    def n_agents(self) -> int:
        return int(self.payments.shape[0])


# ---------------------------------------------------------------------------
# Shadow pricing


def shadow_prices(problem, x: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-agent unit price vectors pi_i = A_i' lam - sum_{s != i} grad_i f_s(x).

    The gradients use the (reported) interaction objectives, so the price both
    relays the coupling dual and charges each agent the marginal cost its flow
    imposes on the others. ``lam`` must be in the convention of
    ``centralized_solve`` (grad f = A' lam on free directions) and is tested
    in the sign given; a dual that fails raises ``ConventionMismatch``.
    """
    return _prices(resolve(problem, "reported"), x, lam)


def _prices(p: CoupledProblem, x: np.ndarray, lam: np.ndarray, alpha=None) -> tuple[np.ndarray, ...]:
    """The price formula of ``shadow_prices`` on p (reported side) at x, its
    dual tested by ``dual_residual``: by a solve's certificate ``alpha`` when
    given, else by one NNLS."""
    x, lam = vector(x, "x", p.n_total), vector(lam, "lam", p.n_coupling)
    resid, bound, grad_tot = dual_residual(p, x, lam, alpha)
    if resid > bound:
        raise ConventionMismatch(f"coupling dual fails stationarity in the sign given ({resid:.2e} > {bound:.2e}); reconcile it first")
    prices = []
    for i in range(p.n_agents):
        blk = p.block(i)
        cross = grad_tot[blk] - p.actual[i].gradient(x)[blk]
        prices.append(p.A[i].T @ lam - cross)
    return tuple(prices)


def _price_vectors(p: CoupledProblem, prices) -> list[np.ndarray]:
    """``prices`` checked as one vector per agent, agent i's of length dims[i]."""
    if len(prices) != p.n_agents:
        raise DimensionMismatch(f"{len(prices)} price vectors for {p.n_agents} agents")
    return [vector(v, f"prices[{i}]", p.dims[i]) for i, v in enumerate(prices)]


def _costs(problem, x: np.ndarray, which: str) -> np.ndarray:
    """Every agent's own cost at x, on the ``which`` side ("true" or "reported")."""
    return np.array([eval_cost(problem, i, x, which=which) for i in range(resolve(problem, which).n_agents)])


def sp_outcome(problem, x: np.ndarray, prices, cost_basis: str = "true") -> MechanismOutcome:
    """Settlement under shadow pricing: each agent is paid prices_i . x_i and
    bears its own cost at the implemented allocation."""
    p = resolve(problem, cost_basis)
    x, prices = vector(x, "x", p.n_total), _price_vectors(p, prices)
    payments = np.array([float(prices[i] @ x[p.block(i)]) for i in range(p.n_agents)])
    return MechanismOutcome("ShadowPricing", x, tuple(np.array(v) for v in prices), payments, _costs(problem, x, cost_basis), cost_basis)


def sp_for_problem(problem, cost_basis: str = "true", solution: CentralSolution | None = None) -> MechanismOutcome:
    """Solve (reported), price, and settle in one step."""
    sol = solution or centralized_solve(problem, which="reported")
    return sp_outcome(problem, sol.x, _prices(resolve(problem, "reported"), sol.x, sol.lam, sol.alpha), cost_basis=cost_basis)


def sp_equilibrium_check(problem, x: np.ndarray, prices) -> np.ndarray:
    """Best-response optimality residuals at x under the given prices.

    Agent i's game problem is: minimize f_i(x_i, x_-i) - prices_i . x_i over
    its local set and the coupling rows, with everyone else frozen. The
    returned entry i is the KKT stationarity residual of that problem at x_i,
    over the normals [A_i', -A_i', B_tight'] (the coupling rows' are free).
    """
    p = resolve(problem, "reported")
    x, prices = vector(x, "x", p.n_total), _price_vectors(p, prices)
    out = np.empty(p.n_agents)
    tight = p.tight_rows(x)
    for i in range(p.n_agents):
        grad = p.actual[i].gradient(x)[p.block(i)] - prices[i]
        out[i] = stationarity_residual(grad, np.hstack([p.A[i].T, -p.A[i].T, p.local[i].B[tight[p.rows(i)]].T]))
    return out


# ---------------------------------------------------------------------------
# VCG


def _distributed_value(p: CoupledProblem, graph, params) -> tuple[np.ndarray, float]:
    """(x, total cost) of ``p`` by the consensus solver on ``graph`` (None: the
    seeded draw); a market without agents is solved centrally."""
    if not p.n_agents:
        sol = centralized_solve(p)
        return sol.x, sol.value
    if graph is None:
        graph = random_connected_graph(p.n_agents, np.random.default_rng(0))
    res = admm.solve(p, graph, params)
    if not res.converged:
        raise MaxIterReached(f"distributed VCG solve did not converge in {res.iterations} rounds")
    return res.x, p.total_value(res.x, "actual")


def vcg_payments(problem, cost_basis: str = "true", distributed=None) -> MechanismOutcome:
    """Lump-sum payments Pi_i = (optimal cost without i) - (everyone else's
    reported cost at the full optimum). Requires the market to stay feasible
    after removing any single agent; raises ``InfeasibleWithoutAgent`` if not.

    Each drop-one solve starts from the full optimum's tight rows.
    ``distributed`` may be a (graph, SolverParams) pair to run the N+1
    solves with the consensus algorithm instead of the centralized oracle:
    the full market on ``graph`` (``DimensionMismatch`` if it does not
    match), each drop-one market on the seeded draw
    ``random_connected_graph(N - 1, default_rng(0))``. A solve that does not
    converge raises ``MaxIterReached``.
    """
    if distributed is None:
        return settle(problem, ("vcg",), cost_basis)[0]
    p, (graph, params) = resolve(problem, "reported"), distributed
    return _vcg(problem, cost_basis, *_distributed_value(p, graph, params), lambda i: _distributed_value(exclude_agent(p, i), None, params)[1])


def settle(problem, mechanisms=("sp", "vcg"), cost_basis: str = "true") -> list[MechanismOutcome]:
    """The selected ``mechanisms`` ("sp", "vcg"), shadow pricing first, on one
    market: one solve of the reported market prices both, and VCG's drop-one
    solves restrict its QP and start from that optimum's tight rows. An
    unknown mechanism or cost basis raises ``DimensionMismatch`` before any
    solve."""
    for name in mechanisms:
        choice(name, "mechanism", ("sp", "vcg"))
    choice(cost_basis, "cost_basis", ("true", "reported"))
    market = _Market(resolve(problem, "reported"))
    full = market.solve()
    outcomes = []
    if "sp" in mechanisms:
        outcomes.append(sp_for_problem(problem, cost_basis, solution=full))
    if "vcg" in mechanisms:
        outcomes.append(_vcg(problem, cost_basis, full.x, full.value, lambda i: market.solve_without(i, full).value))
    return outcomes


def _vcg(problem, cost_basis: str, x_hat: np.ndarray, total_hat: float, value_without) -> MechanismOutcome:
    """VCG at the full optimum ``x_hat``, of total cost ``total_hat``, given ``value_without(i)``."""
    p = resolve(problem, "reported")
    without_i = np.empty(p.n_agents)
    for i in range(p.n_agents):
        try:
            without_i[i] = value_without(i)
        except Infeasible as exc:
            raise InfeasibleWithoutAgent(f"market infeasible without agent {i}") from exc
    own_i = _costs(problem, x_hat, "reported")
    return MechanismOutcome("VCG", x_hat, None, without_i - (total_hat - own_i), _costs(problem, x_hat, cost_basis), cost_basis)


@dataclass(frozen=True)
class ICReport:
    """Truth-versus-fake comparison rows: (agent, net cost truthful, net cost
    under the fake report, margin = fake - truthful)."""

    rows: tuple[tuple[int, float, float, float], ...]
    tol: float

    @property
    def violations(self) -> tuple[tuple[int, float, float, float], ...]:
        return tuple(r for r in self.rows if r[3] < -self.tol)

    @property
    def ok(self) -> bool:
        return not self.violations


def vcg_ic_check(true_problem: CoupledProblem, cases, tol: float = 1e-8) -> ICReport:
    """For each (agent i, fake ReportedProblem) case, verify that truthful
    reporting gives agent i a net cost no worse than the fake report does
    (both evaluated with the true objective)."""
    cases = list(cases)
    for i, _ in cases:
        true_problem.block(i)  # an unknown agent raises UnknownAgent before any solve
    truthful = vcg_payments(ReportedProblem.truthful(true_problem)).net_costs
    faked = [(i, vcg_payments(fake).net_costs[i]) for i, fake in cases]
    return ICReport(rows=tuple((int(i), float(truthful[i]), float(u), float(u - truthful[i])) for i, u in faked), tol=tol)


# ---------------------------------------------------------------------------
# Misreport experiments (transport instances)


def _misreport_benefits(instance, reports) -> tuple[CentralSolution, np.ndarray]:
    """The truthful optimum of ``instance``, solved once, and everyone's
    true-cost benefit under shadow pricing of each reported problem in
    ``reports``, one row each. Every solve runs on one market; each reported
    solve starts from the truthful optimum's tight rows."""
    market, n = _Market(instance.problem), instance.problem.n_total
    truthful = market.solve()
    rows = [sp_for_problem(r, solution=market.solve(_linear_total(r.reported.actual, n), active=truthful.active)).benefits for r in reports]
    return truthful, np.array(rows).reshape(len(rows), instance.problem.n_agents)


@dataclass(frozen=True)
class SweepResult:
    agent: int
    deltas: np.ndarray
    benefits: np.ndarray  # (n_deltas, n_agents) true-cost benefits under shadow pricing

    def to_csv(self, path) -> None:
        rows = ((delta, j, b) for delta, row in zip(self.deltas, self.benefits) for j, b in enumerate(row))
        write_csv(path, ["delta", "agent", "benefit"], rows)


def misreport_sweep(instance, agent: int, deltas) -> SweepResult:
    """Shift every edge cost on the agent's routes by each delta (reported
    costs floor at zero), re-solve, price, and record everyone's true-cost
    benefit under shadow pricing."""
    instance.problem.block(agent)  # an unknown agent raises UnknownAgent before any solve
    deltas = vector(deltas, "sweep deltas")
    _, benefits = _misreport_benefits(instance, (instance.perturbed_reports({agent: float(delta)}) for delta in deltas))
    return SweepResult(agent=int(agent), deltas=deltas, benefits=benefits)


@dataclass(frozen=True)
class PortfolioResult:
    baseline: np.ndarray  # truthful benefits
    benefits: np.ndarray  # (n_cases, n_agents)

    def to_csv(self, path) -> None:
        """Case 0 is the truthful baseline, cases 1.. the misreport cases."""
        table = [self.baseline, *self.benefits]
        rows = ((case, j, b) for case, row in enumerate(table) for j, b in enumerate(row))
        write_csv(path, ["case", "agent", "benefit"], rows)


def misreport_portfolio(instance, n_cases: int, seed: int, magnitude: float = 0.5) -> PortfolioResult:
    """Seeded batch of simultaneous misreports: per case, every agent shifts a
    random nonempty subvector of its route-edge costs by a random magnitude
    (reported costs floor at zero); everyone's true-cost benefit under shadow
    pricing is recorded next to the truthful baseline. ``n_cases`` and ``seed``
    are nonnegative integers, ``magnitude`` a finite number of at least 0."""
    integer(n_cases, "n_cases", 0)
    nonnegative(magnitude, "magnitude")
    rng = np.random.default_rng(integer(seed, "seed", 0))

    def shifted(i: int) -> np.ndarray:
        used = instance.used_edge_indices(i)
        costs = np.array(instance.network.edge_costs[i], dtype=float)
        scale = float(np.mean(np.abs(costs[used]))) if used else 1.0
        delta = float(rng.uniform(-magnitude, magnitude)) * max(scale, 1e-9)
        k = int(rng.integers(1, len(used) + 1)) if used else 0
        chosen = rng.choice(len(used), size=k, replace=False) if used else []
        for e_idx in np.sort(np.asarray(chosen, int)):
            e = used[int(e_idx)]
            costs[e] = max(costs[e] + delta, 0.0)
        return costs

    n = instance.problem.n_agents
    cases = (instance.with_reported_costs({i: shifted(i) for i in range(n)}) for _ in range(n_cases))
    truthful, benefits = _misreport_benefits(instance, cases)
    baseline = sp_for_problem(ReportedProblem.truthful(instance.problem), solution=truthful).benefits
    return PortfolioResult(baseline=baseline, benefits=benefits)


# ---------------------------------------------------------------------------
# CSV


def payments_csv(outcomes, path) -> None:
    """Payment table of the list ``outcomes``, with columns agent, mechanism,
    payment, true_cost, net_cost, benefit; ``true_cost`` holds the costs at
    the outcome's ``cost_basis``. Rows: every agent of each outcome in order,
    then one ``total`` row per outcome (column sums), then, when both
    ShadowPricing and VCG are present, a ``total,SP-VCG`` row of their
    differences."""
    columns = lambda out: (out.payments, out.costs, out.net_costs, out.benefits)
    rows = [(i, out.mechanism, *(c[i] for c in columns(out))) for out in outcomes for i in range(out.n_agents)]
    rows += [("total", out.mechanism, *(c.sum() for c in columns(out))) for out in outcomes]
    by_name = {out.mechanism: out for out in outcomes}
    if "ShadowPricing" in by_name and "VCG" in by_name:
        pairs = zip(columns(by_name["ShadowPricing"]), columns(by_name["VCG"]))
        rows.append(("total", "SP-VCG", *(sp.sum() - vcg.sum() for sp, vcg in pairs)))
    write_csv(path, ["agent", "mechanism", "payment", "true_cost", "net_cost", "benefit"], rows)
