"""Closed-form star oracle: optima, prices, misreports, and the misreporting
fixed point, cross-checked against first-order conditions and the numeric
pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disqo.errors import ActiveSetChanged, DimensionMismatch
from disqo.problem import centralized_solve
from disqo.star import (
    StarInstance,
    random_star,
    star_active_set,
    star_misreport,
    star_misreport_equilibrium,
    star_optimum,
    star_prices_utilities,
    star_reported_outcome,
    to_transport,
)

EX3 = StarInstance(c_norms=[2.0, 3.0, 4.0], c0=1.0, d=5.0)


# ---------------------------------------------------------------------------
# Optimum


def test_three_supplier_optimum():
    opt = star_optimum(EX3)
    np.testing.assert_allclose(opt.x, [13.0 / 6.0, 5.0 / 3.0, 7.0 / 6.0], atol=1e-12)
    assert abs(opt.lam - 49.0 / 3.0) < 1e-12
    assert opt.active == (0, 1, 2)
    np.testing.assert_allclose(opt.alpha, 0.0, atol=1e-15)


def test_small_demand_drops_expensive_supplier():
    inst = StarInstance(c_norms=[2.0, 3.0, 4.0], c0=1.0, d=1.0)
    opt = star_optimum(inst)
    assert opt.active == (0, 1)
    np.testing.assert_allclose(opt.x, [0.75, 0.25, 0.0], atol=1e-12)
    assert abs(opt.lam - 5.5) < 1e-12
    np.testing.assert_allclose(opt.alpha, [0.0, 0.0, 0.5], atol=1e-12)


def test_equal_costs_split_evenly():
    inst = StarInstance(c_norms=[1.5] * 4, c0=2.0, d=3.0)
    opt = star_optimum(inst)
    np.testing.assert_allclose(opt.x, 0.75, atol=1e-12)
    assert opt.active == (0, 1, 2, 3)


def test_bad_instance_rejected():
    with pytest.raises(DimensionMismatch):
        StarInstance(c_norms=[1.0], c0=1.0, d=0.0)
    with pytest.raises(DimensionMismatch):
        StarInstance(c_norms=[-1.0], c0=1.0, d=1.0)
    for costs, c0, d in (([np.nan], 1.0, 1.0), ([np.inf], 1.0, 1.0), ([1.0], np.nan, 1.0), ([1.0], 1.0, np.inf), ([1.0], True, 1.0)):
        with pytest.raises(DimensionMismatch):
            StarInstance(c_norms=costs, c0=c0, d=d)


@settings(max_examples=60, deadline=None)
@given(
    costs=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=9),
    c0=st.floats(0.1, 5.0),
    d=st.floats(0.1, 10.0),
)
def test_optimum_satisfies_first_order_conditions(costs, c0, d):
    inst = StarInstance(c_norms=costs, c0=c0, d=d)
    opt = star_optimum(inst)
    assert np.all(opt.x >= -1e-12)
    assert abs(opt.x.sum() - d) < 1e-9 * max(1.0, d)
    total = opt.x.sum()
    for i in range(inst.n):
        grad = inst.c_norms[i] + 2.0 * c0 * opt.x[i] + 2.0 * c0 * total
        if i in opt.active:
            assert abs(grad - opt.lam) < 1e-8 * max(1.0, abs(opt.lam))
        else:
            assert grad - opt.lam >= -1e-8
            assert abs(opt.alpha[i] - (grad - opt.lam)) < 1e-8


def test_active_set_matches_direct_threshold():
    costs = np.array([1.0, 2.0, 6.0, 7.0])
    active = star_active_set(costs, c0=1.0, d=1.0)
    # water level with the first two: (2 + 3)/2 = 2.5; 2 < 2.5 <= 6
    assert active == (0, 1)


# ---------------------------------------------------------------------------
# Prices and benefits


def test_three_supplier_prices_and_benefits():
    pi, u = star_prices_utilities(EX3)
    np.testing.assert_allclose(pi, [13.5, 13.0, 12.5], atol=1e-12)
    np.testing.assert_allclose(u, [169.0 / 18.0, 100.0 / 18.0, 49.0 / 18.0], atol=1e-12)


def test_nonshipping_supplier_gets_zero_benefit():
    inst = StarInstance(c_norms=[2.0, 3.0, 4.0], c0=1.0, d=1.0)
    pi, u = star_prices_utilities(inst)
    np.testing.assert_allclose(u, [ated := 9.0 / 8.0, 1.0 / 8.0, 0.0], atol=1e-12)
    assert ated > 0
    np.testing.assert_allclose(pi, [5.25, 4.75, 4.5], atol=1e-12)


def test_equal_costs_equal_prices_and_benefits():
    inst = StarInstance(c_norms=[2.0] * 5, c0=1.0, d=5.0)
    pi, u = star_prices_utilities(inst)
    assert np.ptp(pi) < 1e-12 and np.ptp(u) < 1e-12
    assert np.all(u > 0)


def test_benefit_matches_squared_margin_formula():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        inst = random_star(rng)
        opt = star_optimum(inst)
        _, u = star_prices_utilities(inst)
        t = len(opt.active)
        s = inst.c_norms[list(opt.active)].sum()
        for i in range(inst.n):
            if i in opt.active:
                expected = (2.0 * inst.c0 * inst.d + s - t * inst.c_norms[i]) ** 2 / (2.0 * inst.c0 * t * t)
            else:
                expected = 0.0
            assert abs(u[i] - expected) < 1e-9 * max(1.0, expected)


# ---------------------------------------------------------------------------
# Single misreporter


def test_misreport_example_values():
    out = star_misreport(EX3, 0, -1.0)
    np.testing.assert_allclose(out.x, [2.5, 1.5, 1.0], atol=1e-12)
    assert abs(out.lam - 16.0) < 1e-12
    np.testing.assert_allclose(out.pi, [13.5, 12.5, 12.0], atol=1e-12)
    np.testing.assert_allclose(out.benefits, [10.0, 4.5, 2.0], atol=1e-12)


def test_zero_shift_reproduces_truthful_outcome():
    out = star_misreport(EX3, 1, 0.0)
    pi, u = star_prices_utilities(EX3)
    opt = star_optimum(EX3)
    np.testing.assert_allclose(out.x, opt.x, atol=1e-14)
    np.testing.assert_allclose(out.pi, pi, atol=1e-14)
    np.testing.assert_allclose(out.benefits, u, atol=1e-14)


def test_misreport_matches_quadratic_benefit_formula():
    rng = np.random.default_rng(7)
    for _ in range(20):
        inst = random_star(rng)
        opt = star_optimum(inst)
        t = len(opt.active)
        if t < 2:
            continue
        s = inst.c_norms[list(opt.active)].sum()
        _, u_true = star_prices_utilities(inst)
        i = opt.active[int(rng.integers(0, t))]
        delta = float(rng.uniform(-0.05, 0.05))
        try:
            out = star_misreport(inst, i, delta)
        except ActiveSetChanged:
            continue
        margin_i = 2.0 * inst.c0 * inst.d + s - t * inst.c_norms[i]
        expected_i = u_true[i] - (t - 2) / (2.0 * inst.c0 * t * t) * delta * margin_i - (t - 1) / (2.0 * inst.c0 * t * t) * delta**2
        assert abs(out.benefits[i] - expected_i) < 1e-8
        for j in opt.active:
            if j == i:
                continue
            margin_j = 2.0 * inst.c0 * inst.d + s - t * inst.c_norms[j]
            expected_j = u_true[j] + delta * margin_j / (inst.c0 * t * t) + delta**2 / (2.0 * inst.c0 * t * t)
            assert abs(out.benefits[j] - expected_j) < 1e-8


def test_misreport_that_changes_shippers_is_refused():
    with pytest.raises(ActiveSetChanged):
        star_misreport(EX3, 0, 50.0)  # prices itself out
    inst = StarInstance(c_norms=[2.0, 3.0, 4.0], c0=1.0, d=1.0)
    with pytest.raises(ActiveSetChanged):
        star_misreport(inst, 2, -0.1)  # agent 2 ships nothing
    with pytest.raises(ActiveSetChanged):
        star_misreport(inst, 0, 10.0)


@pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
def test_a_delta_that_is_not_finite_is_rejected(delta):
    inst = StarInstance([2.0, 3.0, 4.0], 1.0, 5.0)
    with pytest.raises(DimensionMismatch, match="deltas must be finite"):
        star_reported_outcome(inst, [delta, 0.0, 0.0])
    with pytest.raises(DimensionMismatch, match="deltas must be finite"):
        star_misreport(inst, 0, delta)


def test_misreport_matches_numeric_pipeline():
    transport = to_transport(EX3)
    fake = np.array(transport.network.edge_costs[0], copy=True)
    fake[0] = 1.0
    sol = centralized_solve(transport.with_reported_costs({0: fake}).pick("reported"))
    out = star_misreport(EX3, 0, -1.0)
    np.testing.assert_allclose(sol.x, out.x, atol=1e-8)
    np.testing.assert_allclose(sol.lam, [out.lam], atol=1e-8)


# ---------------------------------------------------------------------------
# Misreporting fixed point


def test_equilibrium_example_values():
    out = star_misreport_equilibrium(EX3)
    np.testing.assert_allclose(out.deltas, [-8.0 / 3.0, -5.0 / 3.0, -2.0 / 3.0], atol=1e-12)
    assert abs(out.deltas.sum() + 5.0) < 1e-12
    np.testing.assert_allclose(out.x, [8.0 / 3.0, 5.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    assert abs(out.lam - 44.0 / 3.0) < 1e-12
    np.testing.assert_allclose(out.benefits, [64.0 / 9.0, 25.0 / 9.0, 4.0 / 9.0], atol=1e-12)


def test_equilibrium_two_shippers_stays_truthful():
    inst = StarInstance(c_norms=[2.0, 3.0, 4.0], c0=1.0, d=1.0)
    out = star_misreport_equilibrium(inst)
    np.testing.assert_allclose(out.deltas, 0.0, atol=1e-15)
    _, u = star_prices_utilities(inst)
    np.testing.assert_allclose(out.benefits, u, atol=1e-12)


def test_equilibrium_symmetric_costs_symmetric_shifts():
    inst = StarInstance(c_norms=[2.0] * 4, c0=1.0, d=4.0)
    out = star_misreport_equilibrium(inst)
    assert np.ptp(out.deltas) < 1e-12
    assert out.deltas[0] < 0


def test_equilibrium_shift_sum_rule():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(40):
        inst = random_star(rng)
        active = star_optimum(inst).active
        t = len(active)
        if t <= 2:
            continue
        try:
            out = star_misreport_equilibrium(inst)
        except ActiveSetChanged:
            continue
        expected = -(t - 2) / (t - 1) * 2.0 * inst.c0 * inst.d
        assert abs(out.deltas.sum() - expected) < 1e-8 * max(1.0, abs(expected))
        checked += 1
    assert checked >= 10


def test_equilibrium_benefit_formula_and_decrease():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(80):
        inst = random_star(rng)
        opt = star_optimum(inst)
        t = len(opt.active)
        if t <= 2:
            continue
        try:
            out = star_misreport_equilibrium(inst)
        except ActiveSetChanged:
            continue
        _, u_true = star_prices_utilities(inst)
        s = inst.c_norms[list(opt.active)].sum()
        for i in opt.active:
            gap = s - t * inst.c_norms[i]
            expected = u_true[i] - (t - 2) / (2.0 * inst.c0 * t * t * (t - 1)) * (4.0 * inst.c0**2 * inst.d**2 - (t - 1) * gap**2)
            assert abs(out.benefits[i] - expected) < 1e-8 * max(1.0, abs(expected))
            if 4.0 * inst.c0**2 * inst.d**2 > (t - 1) * gap**2:
                assert out.benefits[i] <= u_true[i] + 1e-10
        checked += 1
    assert checked >= 10


def test_equilibrium_is_stationary_for_each_agent():
    out = star_misreport_equilibrium(EX3)
    h = 1e-5
    for i in range(3):
        up = np.array(out.deltas)
        down = np.array(out.deltas)
        up[i] += h
        down[i] -= h
        b_up = star_reported_outcome(EX3, up).benefits[i]
        b_down = star_reported_outcome(EX3, down).benefits[i]
        assert abs((b_up - b_down) / (2.0 * h)) < 1e-4


def test_equilibrium_matches_numeric_pipeline():
    out = star_misreport_equilibrium(EX3)
    transport = to_transport(EX3)
    reports = {}
    for i in range(3):
        c = np.array(transport.network.edge_costs[i], copy=True)
        c[i] += out.deltas[i]
        reports[i] = c
    sol = centralized_solve(transport.with_reported_costs(reports).pick("reported"))
    np.testing.assert_allclose(sol.x, out.x, atol=1e-8)
    np.testing.assert_allclose(sol.lam, [out.lam], atol=1e-8)


# ---------------------------------------------------------------------------
# Agreement with the numeric pipeline across seeds


def test_hundred_random_stars_match_centralized_qp():
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        inst = random_star(rng)
        opt = star_optimum(inst)
        sol = centralized_solve(to_transport(inst).problem)
        np.testing.assert_allclose(sol.x, opt.x, atol=1e-8)
        assert abs(abs(sol.lam[0]) - abs(opt.lam)) < 1e-8 * max(1.0, abs(opt.lam))
