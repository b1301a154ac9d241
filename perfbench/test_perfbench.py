"""Self-tests of the benchmark's checks, network builder and tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np
import pytest

import checks
import netgen
import tracing
import workloads
from disqo import mechanisms, problem, star, transport


@pytest.fixture(scope="module")
def solved():
    inst = transport.random_instance((4, 2, 3, 2), 7)
    return inst.problem, problem.centralized_solve(inst.problem)


def test_kkt_accepts_central_solution(solved):
    p, sol = solved
    assert checks.check_kkt(p, sol.x, sol.lam, "central") == []
    assert checks.check_kkt(p, sol.x, -sol.lam, "mirrored dual sign") == []


def test_kkt_rejects_perturbed_x(solved):
    p, sol = solved
    x = sol.x.copy()
    x[np.argmax(x)] += 1e-3
    assert checks.check_kkt(p, x, sol.lam, "perturbed x")


def test_kkt_rejects_scaled_dual(solved):
    p, sol = solved
    assert checks.check_kkt(p, sol.x, 1.01 * sol.lam, "scaled dual")


def test_benefit_check_rejects_negative_benefit():
    assert checks.check_benefits([0.5, 0.0], [1.0, 1.0], "ok") == []
    assert checks.check_benefits([0.5, -1e-3], [1.0, 1.0], "negative")
    assert checks.check_benefits([0.5, -1e-3], [1.0, 1.0], "skipped liar", skip=(1,)) == []


def test_agree_check():
    assert checks.check_agree(100.0, 100.0 + 1e-5, "close") == []
    assert checks.check_agree(100.0, 100.001, "far")


def test_csv_check_ignores_wall_ms_and_catches_a_changed_byte():
    a = b"iter,violation,wall_ms\n0,1.5,0\n1,0.25,0.81\n"
    b = b"iter,violation,wall_ms\n0,1.5,0\n1,0.25,0.93\n"
    assert checks.check_same_csvs({"trace.csv": a}, {"trace.csv": b}, "rerun") == []
    c = b"iter,violation,wall_ms\n0,1.5,0\n1,0.26,0.81\n"
    assert checks.check_same_csvs({"trace.csv": a}, {"trace.csv": c}, "rerun")
    assert checks.check_same_csvs({"payments.csv": b"a,b\n1,2\n"}, {"payments.csv": b"a,b\n1,3\n"}, "rerun")
    assert checks.check_same_csvs({"x.csv": a}, {}, "rerun")


def _star_payments_csv(st):
    inst = transport.build_instance(transport.star_network(st.c_norms, c0=st.c0, d=st.d), R=1, L=2)
    sp = mechanisms.sp_for_problem(inst.problem)
    vcg = mechanisms.vcg_payments(inst.problem)
    fmt = lambda v: format(float(v), ".17g")
    rows = ["agent,mechanism,payment,true_cost,net_cost,benefit"]
    for out in (sp, vcg):
        for i in range(out.n_agents):
            rows.append(f"{i},{out.mechanism},{fmt(out.payments[i])},{fmt(out.costs[i])},{fmt(out.net_costs[i])},{fmt(out.benefits[i])}")
    return ("\n".join(rows) + "\n").encode(), sp, fmt


def test_star_payment_check_rejects_a_wrong_payment():
    st = star.StarInstance(c_norms=np.array([2.0, 3.0, 4.0]), c0=1.0, d=5.0)
    good, sp, fmt = _star_payments_csv(st)
    check = workloads._star_payments_check(st)
    assert check(workloads.CliRun(0, "", {"payments.csv": good}), "star") == []
    bad = good.replace(fmt(sp.payments[0]).encode(), fmt(sp.payments[0] * 1.001).encode(), 1)
    assert bad != good
    assert check(workloads.CliRun(0, "", {"payments.csv": bad}), "star")


def test_star_payment_check_with_one_shipper_takes_the_dual_interval():
    # Agent 0 ships all of d, so its cap d binds and lam may rise from
    # c_0 + 4 c0 d = 3 to c_1 + 2 c0 d = 5, where agent 1 would start shipping.
    st = star.StarInstance(c_norms=np.array([1.0, 4.0, 5.0]), c0=0.5, d=1.0)
    assert star.star_optimum(st).active == (0,)
    good, sp, fmt = _star_payments_csv(st)
    check = workloads._star_payments_check(st)
    assert check(workloads.CliRun(0, "", {"payments.csv": good}), "star") == []
    head, row0, rest = good.split(b"\n", 2)
    assert row0.startswith(b"0,ShadowPricing,")
    cost = sp.costs[0]
    for pay, benefit in ((3.0, 3.0 - cost), (4.0, 4.0 - cost), (2.9, 2.9 - cost), (5.1, 5.1 - cost), (4.0, 4.01 - cost)):
        row = f"0,ShadowPricing,{fmt(pay)},{fmt(cost)},{fmt(-benefit)},{fmt(benefit)}".encode()
        errs = check(workloads.CliRun(0, "", {"payments.csv": b"\n".join([head, row, rest])}), "star")
        assert (errs == []) == (3.0 <= pay <= 5.0 and benefit == pay - cost), (pay, benefit, errs)


def test_network_builder_is_deterministic_per_seed():
    a, b = netgen.build_network(8, 3, 2, seed=4), netgen.build_network(8, 3, 2, seed=4)
    assert a.edges == b.edges
    for field in ("inventories", "demands", "edge_costs"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    c = netgen.build_network(8, 3, 2, seed=5)
    assert (c.edges, c.edge_costs.tolist()) != (a.edges, a.edge_costs.tolist())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_built_networks_are_feasible_by_construction(seed):
    net = netgen.build_network(6, 3, 2, seed=seed)
    inst = transport.build_instance(net, R=netgen.ROUTES, L=netgen.MAX_HOPS)
    assert all(inventory >= demand for inventory, demand in zip(net.inventories.min(axis=0), net.demands.sum(axis=0)))
    assert all(d > 0 for d in inst.problem.dims)
    for j in range(net.n_demanders):
        assert sum(1 for i in range(net.n_suppliers) if inst.paths.count(i, j) > 0) >= 2
    value = problem.centralized_solve(inst.problem).value
    for i in range(net.n_suppliers):
        problem.centralized_solve(problem.exclude_agent(inst.problem, i))  # stays feasible
    graph = netgen.comm_graph(6, seed)
    relabelled, graph2 = netgen.relabel(net, graph, np.random.default_rng(seed).permutation(6))
    inst2 = transport.build_instance(relabelled, R=netgen.ROUTES, L=netgen.MAX_HOPS)
    assert len(graph2.edges) == len(graph.edges)
    assert checks.check_agree(problem.centralized_solve(inst2.problem).value, value, "relabelled optimum", tol=1e-9) == []


def test_tracer_wraps_every_binding_and_restores_it():
    inst = transport.random_instance((4, 2, 3, 2), 3)
    originals = (problem.centralized_solve, mechanisms.centralized_solve, transport.centralized_solve)
    tr = tracing.Tracer()
    tr.mark("setup")
    tr.install()
    try:
        assert mechanisms.centralized_solve is not originals[1]
        assert transport.centralized_solve is not originals[2]
        out = mechanisms.vcg_payments(inst.problem)
    finally:
        tr.uninstall()
    assert (problem.centralized_solve, mechanisms.centralized_solve, transport.centralized_solve) == originals
    tr.mark("cycle")
    m = tracing.layer_metrics(tr, 1)
    assert m["mechanisms.vcg_inner_solves"] == inst.problem.n_agents + 1
    assert m["problem.centralized_solve_calls"] == inst.problem.n_agents + 1
    assert m["qp.kkt_solves"] > 0 and m["qp.cold_solves"] == inst.problem.n_agents + 1
    assert np.array_equal(out.payments, mechanisms.vcg_payments(inst.problem).payments)
