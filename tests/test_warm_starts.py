"""Warm-started mechanism solves.

VCG's drop-one solves, the misreport sweep's and the portfolio's reported
solves start from the full or truthful optimum's tight local rows. A guess
that polishes to a certified optimum is a hit; a miss goes on exactly as a
solve without a guess. These tests pin both halves: warm answers agree with
the unguessed ones, and a miss gives the unguessed answer bit for bit.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from disqo import problem, qp, transport
from disqo.mechanisms import misreport_portfolio, misreport_sweep, sp_for_problem, vcg_payments
from disqo.problem import ReportedProblem, centralized_solve
from disqo.star import StarInstance, random_star, to_transport
from disqo.transport import random_instance

MARKETS = [pytest.param((4, 2, 3, 2), s, id=f"4232-seed{s}") for s in (0, 1, 2)]
MARKETS += [pytest.param((6, 3, 3, 2), s, id=f"6332-seed{s}") for s in (0, 1)]
MARKETS += [pytest.param("star", k, id=f"star{k}") for k in range(10)]
MARKETS += [pytest.param("single", 0, id="single-shipper")]  # the coupling dual is an interval


def market(scale, seed):
    if scale == "single":
        return to_transport(StarInstance(c_norms=[2.0], c0=1.0, d=3.0))
    if scale == "star":
        return to_transport(random_star(np.random.default_rng(100 + seed)))
    return random_instance(scale, seed)


def run_mechanisms(inst, monkeypatch, warm: bool):
    """VCG (when every drop-one market is feasible), a sweep and a portfolio,
    with the value of every centralized solve they make on their market;
    ``warm=False`` drops each solve's active-set guess."""
    values = []

    optimum = problem._optimum

    def solve(qp, psi, active):
        sol = optimum(qp, psi, active if warm else None)
        values.append(sol.value)
        return sol

    with monkeypatch.context() as m:
        m.setattr(problem, "_optimum", solve)
        vcg = vcg_payments(inst.problem) if inst.problem.n_agents > 1 else None
        sweep = misreport_sweep(inst, 0, [-0.5, 0.25, 1.0])
        portfolio = misreport_portfolio(inst, 3, seed=5)
    return vcg, sweep, portfolio, np.array(values)


@pytest.mark.parametrize("scale,seed", MARKETS)
def test_warm_solves_match_unguessed_solves(scale, seed, monkeypatch):
    inst = market(scale, seed)
    vcg_w, sweep_w, port_w, values_w = run_mechanisms(inst, monkeypatch, warm=True)
    vcg_c, sweep_c, port_c, values_c = run_mechanisms(inst, monkeypatch, warm=False)
    close = lambda a, b: np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)
    if vcg_w is not None:
        close(vcg_w.payments, vcg_c.payments)
        close(vcg_w.benefits, vcg_c.benefits)
    close(sweep_w.benefits, sweep_c.benefits)
    close(port_w.baseline, port_c.baseline)
    close(port_w.benefits, port_c.benefits)
    assert values_w.shape == values_c.shape == ((inst.problem.n_agents + 1 if vcg_w is not None else 0) + 8,)
    close(values_w, values_c)


def test_sp_benefits_agree_across_optimal_active_sets():
    # At (4,2,3,2) seed 1 the optimum is not unique: a tiny per-commodity
    # tilt of the linear terms picks other optimal points, and their tight
    # rows polish the untilted market to optima far from the unguessed one.
    inst = random_instance((4, 2, 3, 2), seed=1)
    p = inst.problem
    truthful = ReportedProblem.truthful(p)
    base = centralized_solve(p)
    benefits = sp_for_problem(truthful, solution=base).benefits
    tilt = np.concatenate([[k for _, k, _ in labels] for labels in inst.var_labels]) / p.n_agents
    for eps in (1e-3, -1e-3):
        objs = tuple(dataclasses.replace(o, psi=o.psi + eps * tilt) for o in p.actual)
        tilted = centralized_solve(dataclasses.replace(p, algorithmic=objs, actual=objs))
        other = problem._Market(p).solve(active=tilted.active)
        assert set(other.active) != set(base.active) and np.max(np.abs(other.x - base.x)) > 1e-2
        assert abs(other.value - base.value) <= 1e-9
        np.testing.assert_allclose(sp_for_problem(truthful, solution=other).benefits, benefits, rtol=0, atol=1e-9)


def test_vcg_splits_only_for_the_full_solve(monkeypatch):
    # Every drop-one solve is a polish hit: only the full solve iterates.
    p = random_instance((6, 3, 3, 2), seed=0).problem
    sizes = []
    admm = qp.RepeatedQp._admm
    monkeypatch.setattr(qp.RepeatedQp, "_admm", lambda self, *args: sizes.append(self.n) or admm(self, *args))
    vcg_payments(p)
    assert sizes == [p.n_total]


def test_a_missed_guess_gives_the_unguessed_answer_bitwise(monkeypatch):
    p = random_instance((6, 3, 3, 2), seed=0).problem
    G, u = p.local_stacked()
    # Every flow at its zero bound ships nothing, so no demand row can hold.
    nothing = np.flatnonzero((G.min(axis=1) == -1.0) & (u == 0.0)).tolist()
    cold = centralized_solve(p)
    entered = []
    admm = qp.RepeatedQp._admm
    monkeypatch.setattr(qp.RepeatedQp, "_admm", lambda self, *args: entered.append(1) or admm(self, *args))
    missed = problem._Market(p).solve(active=nothing)
    assert entered == [1]
    for name in ("x", "lam", "alpha"):
        assert getattr(missed, name).tobytes() == getattr(cold, name).tobytes(), name
    assert missed.active == cold.active and missed.value == cold.value


def test_one_psd_check_per_mechanism_call_and_per_screening_draw(monkeypatch):
    # A call builds its market's QP once: one eigvalsh proves the total
    # Hessian PSD for the full solve, every drop-one and every report.
    inst = random_instance((6, 3, 3, 2), 0)
    n = inst.problem.n_total
    checks = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: checks.append(a.shape) or eigvalsh(a))
    for call in (lambda: vcg_payments(inst.problem), lambda: misreport_sweep(inst, 1, [-0.5, 0.5]), lambda: misreport_portfolio(inst, 3, seed=5)):
        checks.clear()
        call()
        assert checks == [(n, n)]
    # Each draw the generator screens (after its assembly's convexity
    # check) makes one more: the full screen and the N drop-ones share it.
    marks = []
    build = transport.build_instance
    monkeypatch.setattr(transport, "build_instance", lambda *args, **kw: (built := build(*args, **kw), marks.append(len(checks)))[0])
    checks.clear()
    random_instance((6, 3, 3, 2), 0)
    screens = [end - start for start, end in zip(marks, [*marks[1:], len(checks)])]
    assert screens[-1] == 1 and set(screens) <= {0, 1}


def test_reported_solves_make_no_factorization_of_their_own(monkeypatch):
    # The truthful solve factors the splitting system; every report, hit or
    # miss, runs on that factor, and a market with a singular Hessian
    # LU-factors no polish system.
    inst = random_instance((6, 3, 3, 2), 1)
    factors = []
    lu_factor = scipy.linalg.lu_factor
    monkeypatch.setattr(scipy.linalg, "lu_factor", lambda a, **kw: factors.append(a.shape) or lu_factor(a, **kw))
    problem._Market(inst.problem).solve()
    truthful = list(factors)
    assert truthful == [(inst.problem.n_total,) * 2]
    factors.clear()
    misreport_sweep(inst, 0, [-2.0, -0.5, 0.5, 2.0])
    misreport_portfolio(inst, 4, seed=3, magnitude=2.0)
    assert factors == 2 * truthful
