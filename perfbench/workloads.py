"""The benchmark's three workloads.

Each workload has a set-up step, which builds its inputs, and a cycle: a
fixed script of timed operations over those inputs. A run repeats the cycle.
Every operation's output is checked by ``checks`` after its timer stops.

The cost of an operation can swing with its inputs far more than the
run-to-run noise the benchmark must resolve. Measured on a 2-vCPU x86-64
sandbox: a
misreport case at (8,3,3,2) seed 7 takes 0.1-0.5 s or 1.6-2.7 s depending
on whether the cold QP polish settles early, whatever the size of the
misreport; generation at (6,3,3,2) takes 0.2-0.9 s and VCG 0.23-1.05 s
depending on the generator seed; distributed rounds to 1e-6 vary by +-30%
between comm graphs or under 2% cost jitter. Seeded versions of these
inputs gave run-to-run spreads of 24-31%. So the inputs that set the amount
of work are pinned, and ``--seed`` drives only inputs that change it little:
the order of the market script, an agent relabelling in ``consensus`` (same
rounds), and the star markets and misreport specs in ``desk_cli``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

from disqo import admm, cli, mechanisms, problem, star, transport

import checks
import netgen


@dataclass
class Op:
    """One timed operation: ``run`` is timed; ``finish`` (untimed) turns its
    raw result into what ``check`` and ``fingerprint`` look at."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    fingerprint: Callable[[object], object]
    cases: int = 1
    finish: Callable[[object], object] = lambda raw: raw


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, str], object]  # (seed, work dir) -> inputs
    cycle: Callable[[object, np.random.Generator, str], list]  # (inputs, rng, work dir) -> ops
    warmup: Callable[[object, str], None] | None = None  # untimed, before the first cycle


def _rel_close(a, b, tol=1e-12) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))


def same_fingerprint(a, b) -> bool:
    """Traced and untraced outputs of one operation must agree."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(same_fingerprint(x, y) for x, y in zip(a, b))
    if isinstance(a, (bytes, str)) or isinstance(b, (bytes, str)):
        return a == b
    return _rel_close(a, b)


# ---------------------------------------------------------------------------
# market: centralized solve, VCG and misreport experiments on generated markets

MARKET_PANEL = (((6, 3, 3, 2), 0), ((6, 3, 3, 2), 1), ((8, 3, 3, 2), 7))  # (8,3,3,2) seed 7: ROADMAP anchor
MARKET_REPORT_SEED = 0  # pinned misreports, see the module docstring
SWEEP_DELTAS = 2
PORTFOLIO_CASES = 2


@dataclass(frozen=True)
class MarketCase:
    label: str
    instance: object
    sweep_agent: int
    sweep_deltas: tuple
    portfolio_seed: int


def market_setup(seed: int, workdir: str) -> list[MarketCase]:
    reports = np.random.default_rng(MARKET_REPORT_SEED)
    cases = []
    for scale, s in MARKET_PANEL:
        inst = transport.random_instance(scale, s)
        cases.append(
            MarketCase(
                label=f"{','.join(map(str, scale))}/seed{s}",
                instance=inst,
                sweep_agent=int(reports.integers(inst.problem.n_agents)),
                sweep_deltas=tuple(float(v) for v in reports.uniform(-1.0, 1.0, size=SWEEP_DELTAS)),
                portfolio_seed=int(reports.integers(2**31)),
            )
        )
    return cases


def _market_ops(case: MarketCase) -> list[Op]:
    label, inst, agent, deltas = case.label, case.instance, case.sweep_agent, case.sweep_deltas
    p = inst.problem

    def check_central(sol):
        return checks.check_kkt(p, sol.x, sol.lam, f"central {label}")

    def check_vcg(out):
        bad = [] if np.all(np.isfinite(out.payments)) else [f"VCG {label}: non-finite payments"]
        return bad + checks.check_benefits(out.benefits, out.costs, f"VCG {label}")

    def check_sweep(res):
        # Only the swept agent lies; everyone else is truthful and must keep
        # a nonnegative benefit under shadow pricing.
        return [
            msg
            for row, delta in zip(res.benefits, res.deltas)
            for msg in checks.check_benefits(row, np.zeros_like(row), f"sweep {label} agent {agent} delta {delta:.6g}", skip=(agent,))
        ]

    def check_portfolio(res):
        out = checks.check_benefits(res.baseline, np.zeros_like(res.baseline), f"portfolio {label} truthful baseline")
        if not np.all(np.isfinite(res.benefits)) or res.benefits.shape != (PORTFOLIO_CASES, p.n_agents):
            out.append(f"portfolio {label}: bad benefits table {res.benefits.shape}")
        return out

    return [
        Op("central", label, lambda: problem.centralized_solve(p), check_central, lambda sol: sol.value),
        Op("vcg", label, lambda: mechanisms.vcg_payments(p), check_vcg, lambda out: out.payments),
        Op(
            "sweep", label, lambda: mechanisms.misreport_sweep(inst, agent, deltas), check_sweep,
            lambda res: res.benefits, cases=SWEEP_DELTAS,
        ),
        Op(
            "portfolio", label, lambda: mechanisms.misreport_portfolio(inst, PORTFOLIO_CASES, case.portfolio_seed),
            check_portfolio, lambda res: res.benefits, cases=PORTFOLIO_CASES,
        ),
    ]


def market_cycle(cases: list[MarketCase], rng: np.random.Generator, workdir: str) -> list[Op]:
    ops = [op for case in cases for op in _market_ops(case)]
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# consensus: distributed solves on benchmark-built networks

CONSENSUS_NETWORKS = (("N8", 8), ("N12", 12))
CONSENSUS_SHAPE = (3, 2)  # demanders, commodities
NETWORK_SEED = 0
CONSENSUS_SCRIPT = (("solve_plain", "N8", "plain"), ("solve_accel", "N8", "accelerated"), ("solve_accel", "N12", "accelerated"))
SOLVER = dict(max_iter=20000, violation_tol=1e-6, step_tol=1e-6)


def consensus_setup(seed: int, workdir: str):
    rng = np.random.default_rng(seed)
    out = {}
    for label, n in CONSENSUS_NETWORKS:
        network = netgen.build_network(n, *CONSENSUS_SHAPE, seed=NETWORK_SEED)
        graph = netgen.comm_graph(n, NETWORK_SEED)
        network, graph = netgen.relabel(network, graph, rng.permutation(n))
        inst = transport.build_instance(network, R=netgen.ROUTES, L=netgen.MAX_HOPS)
        out[label] = (inst.problem, graph)
    return out


def consensus_cycle(inputs, rng: np.random.Generator, workdir: str) -> list[Op]:
    objectives: dict[tuple[str, str], float] = {}

    def make(kind: str, label: str, mode: str) -> Op:
        p, graph = inputs[label]
        params = admm.SolverParams(mode=mode, **SOLVER)

        def check(res):
            what = f"{mode} solve {label}"
            out = [] if res.converged else [f"{what}: not converged after {res.iterations} rounds"]
            out += checks.check_kkt(p, res.x, res.lambda_bar, what)
            value = p.total_value(res.x, "actual")
            objectives[(label, mode)] = value
            for (other_label, other_mode), other in objectives.items():
                if other_label == label and other_mode != mode:
                    out += checks.check_agree(value, other, f"{label} plain vs accelerated objective")
            return out

        return Op(kind, label, lambda: admm.solve(p, graph, params), check, lambda res: (res.iterations, p.total_value(res.x, "actual")))

    return [make(*step) for step in CONSENSUS_SCRIPT]


# ---------------------------------------------------------------------------
# desk_cli: a scripted session through disqo.cli.main, in-process

DESK_SCALE = "4,2,3,2"
DESK_SEEDS = (0, 1, 2)
DESK_STARS = 5
# The stopping rule bounds primal violation and step, and the dual residual
# trails them: at 1e-6, 1 of 48 random stars stopped with KKT stationarity
# 1.01e-6. Solving to 1e-7 lets the 1e-6 certificate test the answer rather
# than the stopping rule.
DESK_SOLVER = {"max_iter": 20000, "violation_tol": 1e-7, "step_tol": 1e-7}


@dataclass
class CliRun:
    code: int
    stdout: str
    csvs: dict  # file name -> bytes


def _run_cli(argv: list[str], out_dir: str | None) -> tuple[int, str, str | None]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), out_dir


def _collect(raw) -> CliRun:
    code, stdout, out_dir = raw
    csvs = {}
    if out_dir and os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                csvs[name] = fh.read()
        shutil.rmtree(out_dir)
    return CliRun(code, stdout, csvs)


def _rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _write_json(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)


def desk_setup(seed: int, workdir: str):
    """Config files for the session: the pinned (4,2,3,2) seeds with seeded
    misreport specs, plus seeded star markets."""
    rng = np.random.default_rng(seed)
    sessions = []
    for s in DESK_SEEDS:
        d = os.path.join(workdir, f"seed{s}")
        os.makedirs(d, exist_ok=True)
        cfg = {
            "schema_version": 1,
            "instance": "inst.json",
            "solver": DESK_SOLVER,
            "mechanisms": ["sp", "vcg"],
            "sweep": {"agent": int(rng.integers(4)), "deltas": [float(v) for v in rng.uniform(-1.0, 1.0, size=3)]},
            "portfolio": {"cases": 3, "seed": int(rng.integers(2**31)), "magnitude": 0.5},
        }
        _write_json(os.path.join(d, "cfg.json"), cfg)
        sessions.append(("instance", s, d, cfg))
    for k in range(DESK_STARS):
        st = star.random_star(rng)
        d = os.path.join(workdir, f"star{k}")
        os.makedirs(d, exist_ok=True)
        cfg = {
            "schema_version": 1,
            "generator": {"star": {"c": st.c_norms.tolist(), "c0": st.c0, "d": st.d}},
            "solver": DESK_SOLVER,
            "mechanisms": ["sp", "vcg"],
        }
        _write_json(os.path.join(d, "cfg.json"), cfg)
        sessions.append(("star", st, d, cfg))
    return sessions


def desk_warmup(sessions, workdir: str) -> None:
    """The first solve in a process runs slower (one-off lazy set-up), so one
    star market is solved before timing starts."""
    _, _, d, _ = next(s for s in sessions if s[0] == "star")
    cfg_path = os.path.join(d, "cfg.json")
    for argv in (["validate", "--config", cfg_path], ["solve", "--config", cfg_path], ["mechanism", "--config", cfg_path]):
        out = None if argv[0] == "validate" else os.path.join(d, "warmup")
        _collect(_run_cli(argv if out is None else [*argv, "--out", out], out))


def desk_cycle(sessions, rng: np.random.Generator, workdir: str) -> list[Op]:
    ops: list[Op] = []
    runs = itertools.count()
    first_csvs: dict = {}  # (command, label) -> CSVs of its first run in this cycle
    problems: dict = {}  # label -> problem loaded from the generated instance file

    def cli_op(name: str, label: str, argv: list[str], d: str | None, check, rerun: bool = False) -> Op:
        """One command. A rerun must write the same CSVs as the first run."""

        def run():
            out = None if d is None else os.path.join(d, f"out{next(runs)}")
            return _run_cli(argv if out is None else [*argv, "--out", out], out)

        def check_all(res: CliRun):
            what = f"disqo {name} {label}{' (rerun)' if rerun else ''}"
            if res.code != 0:
                return [f"{what}: exit code {res.code}: {res.stdout.strip()[-300:]}"]
            out = check(res, what)
            if rerun:
                first = first_csvs.get((name, label))
                out += [f"{what}: first run wrote nothing"] if first is None else checks.check_same_csvs(first, res.csvs, what)
            else:
                first_csvs[(name, label)] = res.csvs
            return out

        def fingerprint(res: CliRun):
            return (float(res.code), res.stdout, tuple((k, checks.csv_without_columns(v)) for k, v in sorted(res.csvs.items())))

        return Op(f"cli:{name}", label, run, check_all, fingerprint, finish=_collect)

    for kind, key, d, cfg in sessions:
        cfg_path = os.path.join(d, "cfg.json")
        label = os.path.basename(d)
        if kind == "instance":
            inst_path = os.path.join(d, "inst.json")

            def check_gen(res, what, inst_path=inst_path, label=label):
                inst, comm = transport.load_instance(inst_path)
                problems[label] = inst.problem
                if inst.problem.n_agents != 4 or comm is None:
                    return [f"{what}: {inst.problem.n_agents} agents, comm graph {comm}"]
                return []

            ops.append(cli_op("gen", label, ["gen", "--scale", DESK_SCALE, "--seed", str(key), "--out", inst_path], None, check_gen))
            steps = [
                ("solve", label, ["solve", "--config", cfg_path], _solution_check(problems, label, None)),
                ("solve", f"{label} accelerated", ["solve", "--config", cfg_path, "--mode", "accelerated"],
                 _solution_check(problems, label, first_csvs)),
                ("mechanism", label, ["mechanism", "--config", cfg_path], _check_payments),
                ("misreport-sweep", label, ["misreport-sweep", "--config", cfg_path], _sweep_check(cfg["sweep"]["agent"])),
                ("misreport-portfolio", label, ["misreport-portfolio", "--config", cfg_path], _check_portfolio_csv),
            ]
        else:
            steps = [("mechanism", label, ["mechanism", "--config", cfg_path], _star_payments_check(key))]
        ops.append(cli_op("validate", label, ["validate", "--config", cfg_path], None, _check_validate))
        for name, tag, argv, check in steps:
            ops.append(cli_op(name, tag, argv, d, check))
            ops.append(cli_op(name, tag, argv, d, lambda res, what: [], rerun=True))
    return ops


def _check_validate(res: CliRun, what: str) -> list[str]:
    lines = [ln for ln in res.stdout.splitlines() if ln.strip()]
    bad = [ln for ln in lines if not ln.startswith("ok:")]
    return [f"{what}: {bad}"] if bad or not lines else []


def _read_solution(data: bytes):
    x, lam, scalars = {}, {}, {}
    for row in _rows(data):
        if row["kind"] == "x":
            x[int(row["index"])] = float(row["value"])
        elif row["kind"] == "lambda":
            lam[int(row["index"])] = float(row["value"])
        else:
            scalars[row["kind"]] = float(row["value"])
    return np.array([x[i] for i in range(len(x))]), np.array([lam[i] for i in range(len(lam))]), scalars


def _solution_check(problems: dict, label: str, keep: dict | None):
    """KKT certificate of the CLI's solution.csv against the generated instance;
    the accelerated run's objective must agree with the plain run's."""

    def check(res: CliRun, what: str) -> list[str]:
        if "solution.csv" not in res.csvs or "trace.csv" not in res.csvs:
            return [f"{what}: missing CSVs {sorted(res.csvs)}"]
        x, lam, scalars = _read_solution(res.csvs["solution.csv"])
        out = [] if scalars.get("converged") == 1.0 else [f"{what}: converged={scalars.get('converged')}"]
        p = problems.get(label)
        if p is None:
            return out + [f"{what}: no instance loaded"]
        out += checks.check_kkt(p, x, lam, what)
        if keep is not None:
            plain = keep.get(("solve", label), {}).get("solution.csv")
            if plain is None:
                out.append(f"{what}: no plain solve to compare")
            else:
                out += checks.check_agree(scalars["objective"], _read_solution(plain)[2]["objective"], f"{what} vs plain objective")
        return out

    return check


def _payments(data: bytes, mechanism: str) -> list[dict]:
    return [r for r in _rows(data) if r["mechanism"] == mechanism and r["agent"].isdigit()]


def _check_payments(res: CliRun, what: str) -> list[str]:
    if "payments.csv" not in res.csvs:
        return [f"{what}: no payments.csv"]
    out = []
    for mech in ("ShadowPricing", "VCG"):
        rows = _payments(res.csvs["payments.csv"], mech)
        if not rows:
            out.append(f"{what}: no {mech} rows")
        out += checks.check_benefits(
            [float(r["benefit"]) for r in rows], [float(r["true_cost"]) for r in rows], f"{what} {mech}"
        )
    return out


def _sweep_check(agent: int):
    def check(res: CliRun, what: str) -> list[str]:
        rows = _rows(res.csvs.get("sweep.csv", b""))
        if not rows:
            return [f"{what}: empty sweep.csv"]
        others = [float(r["benefit"]) for r in rows if int(r["agent"]) != agent]
        return checks.check_benefits(others, np.zeros(len(others)), f"{what} truthful agents")

    return check


def _check_portfolio_csv(res: CliRun, what: str) -> list[str]:
    rows = _rows(res.csvs.get("portfolio.csv", b""))
    if not rows or not all(np.isfinite(float(r["benefit"])) for r in rows):
        return [f"{what}: empty or non-finite portfolio.csv"]
    baseline = [float(r["benefit"]) for r in rows if r["case"] == "0"]
    return checks.check_benefits(baseline, np.zeros(len(baseline)), f"{what} truthful baseline")


def _star_payments_check(st):
    """Shadow-pricing payments and benefits must match the closed form.

    The closed form is the unique answer only while no capacity row binds.
    ``star_network`` caps each supplier at the demand d, and when one
    supplier ships all of it the cap binds: the coupling dual is then any
    lam in [closed-form lam, closed-form lam + smallest non-shipper alpha]
    (up to where the cheapest idle supplier would start shipping), all of
    which pass the KKT conditions. There the shipper's payment is checked to
    lie in that interval, and its cost and benefit to agree with it."""

    def check(res: CliRun, what: str) -> list[str]:
        out = _check_payments(res, what)
        rows = _payments(res.csvs.get("payments.csv", b""), "ShadowPricing")
        prices, benefits = star.star_prices_utilities(st)
        opt = star.star_optimum(st)
        x = opt.x
        idle = [j for j in range(st.n) if j not in opt.active]
        slack = float(min(opt.alpha[idle])) if len(opt.active) == 1 and idle else 0.0
        if len(rows) != st.n:
            return out + [f"{what}: {len(rows)} shadow-pricing rows for {st.n} agents"]
        for i, r in enumerate(rows):
            payment, benefit = float(r["payment"]), float(r["benefit"])
            cost = prices[i] * x[i] - benefits[i]
            lo, hi = prices[i] * x[i], (prices[i] + slack) * x[i]
            if slack == 0.0:
                out += checks.check_agree(payment, lo, f"{what} agent {i} payment vs closed form")
            elif not lo - checks.AGREE_TOL * max(1.0, abs(lo)) <= payment <= hi + checks.AGREE_TOL * max(1.0, abs(hi)):
                out.append(f"{what} agent {i} payment {payment!r} outside the closed-form interval [{lo!r}, {hi!r}]")
            out += checks.check_agree(float(r["true_cost"]), cost, f"{what} agent {i} cost vs closed form")
            out += checks.check_agree(benefit, payment - cost, f"{what} agent {i} benefit vs payment minus cost")
        return out

    return check


WORKLOADS = {
    w.name: w
    for w in (
        Workload("market", market_setup, market_cycle),
        Workload("consensus", consensus_setup, consensus_cycle),
        Workload("desk_cli", desk_setup, desk_cycle, desk_warmup),
    )
}
