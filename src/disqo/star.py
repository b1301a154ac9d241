"""Closed-form ground truth for single-demander star networks.

N suppliers each own one fixed route (their spoke plus the shared trunk) into
a single demander, one commodity, demand d, congestion coefficient c0, and
private per-unit route costs ``c_norms``. Everything about this family —
allocation, shadow price, prices, benefits, single-agent misreports, and the
misreporting fixed point — has a closed form, so this module serves as an
independent oracle for the numeric pipeline.

All formulas work on the *reported* costs for the allocation and prices while
benefits are evaluated against the *true* costs, matching how a mechanism only
ever sees reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import index, positive, vector
from .errors import ActiveSetChanged, DimensionMismatch, UnknownAgent

__all__ = [
    "StarInstance",
    "StarOptimum",
    "StarReportOutcome",
    "star_active_set",
    "star_optimum",
    "star_prices_utilities",
    "star_reported_outcome",
    "star_misreport",
    "star_misreport_equilibrium",
    "random_star",
    "to_transport",
]


@dataclass(frozen=True)
class StarInstance:
    c_norms: np.ndarray  # per-supplier cost per unit shipped along its route
    c0: float  # congestion coefficient on every edge
    d: float  # demand at the single demander

    def __post_init__(self):
        object.__setattr__(self, "c_norms", vector(self.c_norms, "route costs"))
        positive(self.c0, "c0")
        positive(self.d, "d")
        if not np.all(self.c_norms >= 0):
            raise DimensionMismatch("route costs must be nonnegative")

    @property
    def n(self) -> int:
        return int(self.c_norms.shape[0])


@dataclass(frozen=True)
class StarOptimum:
    x: np.ndarray
    lam: float
    alpha: np.ndarray  # multipliers of the x_i >= 0 rows (zero on the active set)
    active: tuple[int, ...]  # suppliers shipping a positive amount


@dataclass(frozen=True)
class StarReportOutcome:
    """Allocation/prices under reported costs, benefits under true costs."""

    deltas: np.ndarray
    x: np.ndarray
    lam: float
    pi: np.ndarray
    benefits: np.ndarray
    active: tuple[int, ...]


def star_active_set(costs: np.ndarray, c0: float, d: float) -> tuple[int, ...]:
    """Suppliers who ship in the optimum: the largest prefix of the cost-sorted
    agents whose costs stay strictly below the water level
    (2*c0*d + sum of prefix costs) / prefix size. Ties break by agent index."""
    costs = vector(costs, "costs")
    n = costs.shape[0]
    order = sorted(range(n), key=lambda i: (costs[i], i))
    sorted_costs = costs[order]
    prefix = np.concatenate([[0.0], np.cumsum(sorted_costs)])
    for t in range(n, 0, -1):
        theta = (2.0 * c0 * d + prefix[t]) / t
        if sorted_costs[t - 1] < theta and (t == n or sorted_costs[t] >= theta):
            return tuple(sorted(order[:t]))
    raise ActiveSetChanged("no consistent active set (should be impossible for d > 0)")


def _optimum_for_costs(inst: StarInstance, costs: np.ndarray) -> StarOptimum:
    active = star_active_set(costs, inst.c0, inst.d)
    t = len(active)
    sum_active = float(costs[list(active)].sum())
    lam = 2.0 * (t + 1) / t * inst.c0 * inst.d + sum_active / t
    x = np.zeros(inst.n)
    alpha = np.zeros(inst.n)
    theta = (2.0 * inst.c0 * inst.d + sum_active) / t
    for i in range(inst.n):
        if i in active:
            x[i] = inst.d / t + (sum_active / t - costs[i]) / (2.0 * inst.c0)
        else:
            alpha[i] = costs[i] - theta
    return StarOptimum(x=x, lam=lam, alpha=alpha, active=active)


def star_optimum(inst: StarInstance) -> StarOptimum:
    return _optimum_for_costs(inst, inst.c_norms)


def _priced(inst: StarInstance, opt: StarOptimum) -> tuple[np.ndarray, np.ndarray]:
    """(prices, benefits) at ``opt``: each benefit is the price revenue minus
    the agent's true cost."""
    pi = np.empty(inst.n)
    for i in range(inst.n):
        shipped = opt.x[i] if i in opt.active else 0.0
        pi[i] = opt.lam - inst.c0 * (inst.d - shipped)
    return pi, np.array([pi[i] * opt.x[i] - _true_cost(inst, opt.x, i) for i in range(inst.n)])


def _true_cost(inst: StarInstance, x: np.ndarray, i: int) -> float:
    """Agent i's cost at allocation x: route cost plus the congestion its own
    flow experiences (own spoke load x_i plus shared trunk load sum(x))."""
    total = float(np.sum(x))
    return float(inst.c_norms[i] * x[i] + inst.c0 * x[i] * (total + x[i]))


def star_prices_utilities(inst: StarInstance) -> tuple[np.ndarray, np.ndarray]:
    return _priced(inst, star_optimum(inst))


def star_reported_outcome(inst: StarInstance, deltas: np.ndarray) -> StarReportOutcome:
    """Outcome when each agent reports its cost shifted by deltas[i].

    The allocation, shadow price, and prices come from the reported costs; the
    benefits are each agent's price revenue minus its *true* cost. Raises
    ``ActiveSetChanged`` when the reports alter who ships, because then the
    closed forms for misreports stop applying and callers must fall back to
    the numeric pipeline.
    """
    deltas = vector(deltas, "deltas", inst.n)
    reported = inst.c_norms + deltas
    truthful_active = star_active_set(inst.c_norms, inst.c0, inst.d)
    opt = _optimum_for_costs(inst, reported)
    if opt.active != truthful_active:
        raise ActiveSetChanged(f"reports change the shipping set {truthful_active} -> {opt.active}")
    pi, benefits = _priced(inst, opt)
    return StarReportOutcome(deltas=deltas, x=opt.x, lam=opt.lam, pi=pi, benefits=benefits, active=opt.active)


def star_misreport(inst: StarInstance, i: int, delta: float) -> StarReportOutcome:
    """Single misreporter i shifting its reported cost by delta, all others
    truthful. Requires i to ship both before and after the shift."""
    if not 0 <= index(i, "agent") < inst.n:
        raise UnknownAgent(f"agent {i} of {inst.n}")
    truthful_active = star_active_set(inst.c_norms, inst.c0, inst.d)
    if i not in truthful_active:
        raise ActiveSetChanged(f"agent {i} ships nothing; misreport closed form needs i active")
    deltas = np.zeros(inst.n)
    deltas[i] = float(delta)
    return star_reported_outcome(inst, deltas)


def star_misreport_equilibrium(inst: StarInstance) -> StarReportOutcome:
    """Fixed point of simultaneous best-response misreporting by the shipping
    agents (non-shippers stay truthful).

    With T shippers (T > 2), agent i's equilibrium shift is
    -(T-2)/(T(T-1)) * [2*c0*d + (T-1)*(sum of shipping costs - T*c_i)], and the
    shifts sum to -(T-2)/(T-1) * 2*c0*d. For T <= 2 the incentive vanishes and
    everyone stays truthful.
    """
    active = star_active_set(inst.c_norms, inst.c0, inst.d)
    t = len(active)
    deltas = np.zeros(inst.n)
    if t > 2:
        sum_active = float(inst.c_norms[list(active)].sum())
        for i in active:
            deltas[i] = -(t - 2) / (t * (t - 1)) * (2.0 * inst.c0 * inst.d + (t - 1) * (sum_active - t * inst.c_norms[i]))
    return star_reported_outcome(inst, deltas)


def random_star(rng: np.random.Generator) -> StarInstance:
    """Seeded random instance of 3 to 8 suppliers; costs are drawn well inside
    [0.5, 5] so active sets are stable under the small perturbations tests apply."""
    n = int(rng.integers(3, 8 + 1))
    return StarInstance(
        c_norms=rng.uniform(0.5, 5.0, size=n),
        c0=float(rng.uniform(0.5, 2.0)),
        d=float(rng.uniform(1.0, 6.0)),
    )


def to_transport(inst: StarInstance):
    """Equivalent transport instance (one route per supplier into one demander)."""
    from .transport import build_instance, star_network

    return build_instance(star_network(inst.c_norms, c0=inst.c0, d=inst.d), R=1, L=2)
