"""Output checks computed by the benchmark itself, independent of the
verifiers inside ``disqo``. Each check returns a list of failure messages;
an empty list means the output passed."""

from __future__ import annotations

import csv
import io

import numpy as np
import scipy.optimize

KKT_TOL = 1e-6  # relative
BENEFIT_TOL = 1e-6
AGREE_TOL = 1e-6  # relative objective agreement between solver modes


def kkt_residuals(problem, x, lam) -> dict[str, float]:
    """Relative KKT residuals of (x, coupling dual lam) for a coupled problem.

    Stationarity asks that grad f(x) - A'(s lam) be minus a nonnegative
    combination of the active local rows, for either dual sign s; the
    combination comes from ``scipy.optimize.nnls`` over the rows whose slack
    is within tolerance. Complementarity weighs those multipliers by the
    slack they leave.
    """
    x = np.asarray(x, float).ravel()
    lam = np.asarray(lam, float).ravel()
    sigma, psi = problem.total_quadratic("actual")
    grad = sigma @ x + psi
    A = problem.stacked_A()
    G, u = problem.local_stacked()
    slack = u - G @ x
    feas_scale = max(1.0, float(np.max(np.abs(problem.d))), float(np.max(np.abs(u))) if u.size else 1.0)
    grad_scale = max(1.0, float(np.linalg.norm(grad)))

    active = np.flatnonzero(slack <= KKT_TOL * feas_scale)
    G_act = G[active]
    best = (np.inf, np.zeros(0))
    for sign in (1.0, -1.0):
        r = grad - A.T @ (sign * lam)
        if active.size:
            alpha, resid = scipy.optimize.nnls(G_act.T, -r)
        else:
            alpha, resid = np.zeros(0), float(np.linalg.norm(r))
        if resid < best[0]:
            best = (resid, alpha)
    resid, alpha = best
    comp = float(np.max(alpha * np.abs(slack[active]))) if active.size else 0.0
    return {
        "coupling": float(np.max(np.abs(A @ x - problem.d))) / feas_scale,
        "local": max(0.0, -float(slack.min())) / feas_scale if slack.size else 0.0,
        "stationarity": float(resid) / grad_scale,
        "complementarity": comp / (grad_scale * feas_scale),
    }


def check_kkt(problem, x, lam, what: str) -> list[str]:
    res = kkt_residuals(problem, x, lam)
    bad = {k: v for k, v in res.items() if not v <= KKT_TOL}
    return [f"{what}: KKT residuals above {KKT_TOL:g}: " + ", ".join(f"{k}={v:.3e}" for k, v in bad.items())] if bad else []


def check_benefits(benefits, costs, what: str, skip=()) -> list[str]:
    """Individual rationality: benefit_i >= -tol * max(1, |cost_i|)."""
    benefits = np.asarray(benefits, float).ravel()
    costs = np.asarray(costs, float).ravel()
    out = []
    if not np.all(np.isfinite(benefits)):
        out.append(f"{what}: non-finite benefits")
    for i, b in enumerate(benefits):
        if i not in skip and b < -BENEFIT_TOL * max(1.0, abs(float(costs[i]))):
            out.append(f"{what}: agent {i} benefit {b:.3e} < 0")
    return out


def check_agree(a: float, b: float, what: str, tol: float = AGREE_TOL) -> list[str]:
    if abs(a - b) <= tol * max(1.0, abs(a), abs(b)):
        return []
    return [f"{what}: {a!r} vs {b!r} differ by more than {tol:g} relative"]


def csv_without_columns(data: bytes, drop: tuple[str, ...] = ("wall_ms",)) -> bytes:
    """CSV bytes with the named (measured, non-reproducible) columns removed."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or not any(c in rows[0] for c in drop):
        return data
    keep = [j for j, name in enumerate(rows[0]) if name not in drop]
    return "\n".join(",".join(row[j] for j in keep) for row in rows).encode() + b"\n"


def check_same_csvs(first: dict[str, bytes], second: dict[str, bytes], what: str) -> list[str]:
    """Two runs of one command must write byte-identical CSVs (minus wall_ms)."""
    if sorted(first) != sorted(second):
        return [f"{what}: rerun wrote {sorted(second)}, first run {sorted(first)}"]
    return [
        f"{what}: {name} differs on rerun"
        for name in sorted(first)
        if csv_without_columns(first[name]) != csv_without_columns(second[name])
    ]
