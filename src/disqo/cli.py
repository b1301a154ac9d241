"""Command-line front end.

Subcommands: ``gen`` (seeded instance files), ``solve`` (distributed run with
trace/solution CSVs), ``mechanism`` (payment tables), ``misreport-sweep`` and
``misreport-portfolio`` (misreport experiments), ``validate`` (runs the
commands' own reader of every config section they read, ``out`` included but
not created, one ``ok:``/``FAIL:`` line each).  Exit codes: 0 success, 1
input error, 2 the iterative solver hit its budget without converging.

Config files are JSON with a ``schema_version`` field::

    {
      "schema_version": 1,
      "instance": "inst.json",                      # or a generator spec:
      "generator": {"scale": [4, 2, 3, 2], "seed": 7, "c0": 1.0},
      "graph": {"edges": [[0, 1], [1, 2]]},         # optional; or {"seed": 3}, a seeded draw
      "solver": {"sigma": 1.0, "rho": 1.0, "max_iter": 2000,
                 "violation_tol": 1e-6, "step_tol": 1e-6, "mode": "plain"},
      "report_deltas": {"0": -1.0},                 # optional misreports, or (never both)
      "reports": {"0": [per-edge costs...]},        #   explicit reported costs
      "mechanisms": ["sp", "vcg"],
      "cost_basis": "true",                         # or "reported": the costs payments.csv's true_cost holds
      "sweep": {"agent": 0, "deltas": [-1.0, 0.0]},
      "portfolio": {"cases": 30, "seed": 11, "magnitude": 0.5},
      "out": "results"
    }

The generator spec may instead be a star template with explicit costs:
``{"star": {"c": [3, 4, 5], "c0": 1.0, "d": 5.0}}``.

One rule picks every seed: ``--seed`` when given, else the section's own
``seed``, else the default (the generator's seed for the graph draw, else 0).
Explicit ``graph.edges`` and an instance file's graph are data, not seeds; an
edge is a pair of nodes. A report key is an agent index as JSON writes it
(``"1"``, never ``"01"``, ``" 1"`` or ``"+1"``). Integer values (scale, seeds,
``sweep.agent``, ``portfolio.cases``, an instance file's ``n_nodes``, ``R``,
``L`` and nodes) must be JSON integers, never a float or a bool; a seed is at
least 0, a scale's N at least 2 and its M, K and R at least 1. A delta, a star
cost or spoke/trunk entry, ``c0`` and ``d`` are finite JSON numbers, never a
bool or a string; a star's ``c`` is a list, with one ``spoke_costs`` pair per
cost when given. Every other number (an instance file's arrays and ``c0``, a
``reports`` cost list) is finite and never a bool or a string (a ``null`` pair
capacity is no limit). Commands and ``validate`` apply the library's rules.

All emitted CSVs are byte-stable across reruns of the same config and seed,
except the ``wall_ms`` trace column, which records measured time. The
``lambda`` rows of ``solution.csv`` hold ``-lambda_bar``, the coupling dual
in the sign of ``CentralSolution.lam``, whether or not the run converged;
the ``lambda_bar_*`` columns of ``trace.csv`` keep the consensus sign.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from ._checks import choice, index, integer, nonnegative, number
from ._csv import write_csv
from .admm import SolverParams, solve as distributed_solve
from .errors import DimensionMismatch, DisqoError, InvalidConfig, MaxIterReached
from .graphs import CommGraph, build_graph, metropolis_weights, validate_weights
from .mechanisms import misreport_portfolio, misreport_sweep, payments_csv, settle
from .problem import CoupledProblem, centralized_solve, resolve
from .transport import (
    TransportInstance,
    build_instance,
    default_comm_graph,
    load_instance,
    random_instance,
    save_instance,
    star_network,
)

CONFIG_SCHEMA_VERSION = 1

_SOLVER_FIELDS = {f.name for f in dataclasses.fields(SolverParams)}


# ---------------------------------------------------------------------------
# Config handling


def _reads_config(fn):
    """Report a malformed config file or value that a reader trips over (not
    JSON, a missing key, a value or section of the wrong type) as
    ``InvalidConfig``. Only the readers below convert these errors; anywhere
    else they are bugs and surface as such."""

    @functools.wraps(fn)
    def reader(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidConfig(f"{type(exc).__name__}: {exc}") from exc

    return reader


@_reads_config
def _load_config(path: str) -> tuple[dict, str]:
    """Return (config dict, directory for resolving relative paths).

    A bare instance file (``"kind": "transport"``) is accepted and wrapped as
    a minimal config pointing at itself.
    """
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InvalidConfig(f"{path}: top level must be a JSON object")
    base = os.path.dirname(os.path.abspath(path))
    if data.get("kind") == "transport":
        return {"schema_version": CONFIG_SCHEMA_VERSION, "instance": os.path.abspath(path)}, base
    if data.get("schema_version") != CONFIG_SCHEMA_VERSION:
        raise InvalidConfig(f"{path}: unsupported schema_version {data.get('schema_version')!r}")
    return data, base


def _seed(args, spec: dict, section: str, default: int | None = 0) -> int | None:
    """The one seed rule: ``--seed`` when given, else the section's own
    ``seed``, else ``default``. A seed the section sets must be a
    nonnegative integer even when ``--seed`` overrides it."""
    seed = spec.get("seed")
    seed = default if seed is None else integer(seed, f"{section}.seed", 0)
    return seed if args.seed is None else integer(args.seed, "--seed", 0)


def _scale_tuple(raw) -> tuple[int, int, int, int]:
    """(N, M, K, R) from JSON integers, or from the strings ``--scale`` splits;
    their ranges are the generator's rule (``transport.random_network``)."""
    try:
        parts = [int(v) if isinstance(v, str) else index(v, "scale") for v in raw]
    except (TypeError, ValueError, DimensionMismatch) as exc:
        raise InvalidConfig(f"scale must be four integers, got {raw!r}") from exc
    if not isinstance(raw, list) or len(parts) != 4:  # a string iterates as digits
        raise InvalidConfig(f"scale must be four positive integers (N,M,K,R), got {raw!r}")
    return tuple(parts)


@_reads_config
def _instance_from_generator(gen: dict, args) -> TransportInstance:
    """The spec's instance; ``gen --scale``/``--c0`` override a random spec's own."""
    if "star" in gen:
        star = gen["star"]
        if not isinstance(star.get("c"), list):
            raise InvalidConfig("star generator needs a cost list 'c'")
        pairs = star.get("spoke_costs")
        network = star_network(
            [number(v, f"star c[{i}]") for i, v in enumerate(star["c"])],
            c0=number(star.get("c0", 1.0), "star c0"),
            d=number(star.get("d", 5.0), "star d"),
            spoke_costs=None if pairs is None else [[number(v, f"star spoke_costs[{i}]") for v in pair] for i, pair in enumerate(pairs)],
        )
        return build_instance(network, R=1, L=2)  # a star's one route per supplier has two edges
    scale, c0 = getattr(args, "scale", None), getattr(args, "c0", None)
    if not (scale or "scale" in gen):
        raise InvalidConfig("generator spec needs 'scale' or 'star'")
    scale = _scale_tuple(scale.split(",") if scale else gen["scale"])
    seed = _seed(args, gen, "generator", default=None)
    if seed is None:
        raise InvalidConfig("generator spec needs a seed (config 'seed' or --seed)")
    return random_instance(scale, seed, c0=number(gen.get("c0", 1.0) if c0 is None else c0, "generator c0"))


@_reads_config
def _resolve_instance(config: dict, base: str, args) -> tuple[TransportInstance, CommGraph | None]:
    if "instance" in config:
        path = os.path.join(base, config["instance"])  # an absolute path stays as it is
        if not os.path.exists(path):
            raise InvalidConfig(f"instance file not found: {path}")
        return load_instance(path)
    if "generator" in config:
        return _instance_from_generator(config["generator"], args), None
    raise InvalidConfig("config needs an 'instance' path or a 'generator' spec")


@_reads_config
def _resolve_graph(config: dict, instance: TransportInstance, embedded: CommGraph | None, args) -> CommGraph:
    """``graph.edges``, else the instance file's graph, else a draw by the seed rule."""
    spec = config.get("graph") or {}
    seed = _seed(args, spec, "graph", default=_seed(args, config.get("generator") or {}, "generator"))
    n = instance.problem.n_agents
    if "edges" in spec:
        return build_graph(n, [tuple(e) for e in spec["edges"]])
    if embedded is not None:
        return embedded
    return default_comm_graph(n, seed)


@_reads_config
def _solver_params(config: dict, args) -> SolverParams:
    spec = dict(config.get("solver") or {})
    unknown = set(spec) - _SOLVER_FIELDS
    if unknown:
        raise InvalidConfig(f"unknown solver option(s): {sorted(unknown)}")
    if getattr(args, "mode", None):
        spec["mode"] = args.mode
    if getattr(args, "max_iter", None) is not None:
        spec["max_iter"] = args.max_iter
    if getattr(args, "tol", None) is not None:
        spec["violation_tol"] = args.tol
        spec["step_tol"] = args.tol
    return SolverParams(**spec)


@_reads_config
def _apply_reports(config: dict, instance: TransportInstance):
    """Plain problem, or the reported version when the config declares one
    report section, keyed by agent indices as JSON writes them."""
    if "reports" in config and "report_deltas" in config:
        raise InvalidConfig("a config holds reports or report_deltas, not both")
    section = config.get("reports", config.get("report_deltas", {}))
    bad = [i for i in section if not (i.isascii() and i.isdigit() and str(int(i)) == i)]  # no sign, space or leading 0
    if bad:
        raise InvalidConfig(f"report keys {bad} are not agent indices")
    if "reports" in config:
        return instance.with_reported_costs({int(i): c for i, c in section.items()})
    if "report_deltas" in config:
        return instance.perturbed_reports({int(i): number(v, f"report_deltas[{i}]") for i, v in section.items()})
    return instance.problem


@_reads_config
def _sweep_spec(config: dict, instance: TransportInstance) -> tuple[int, list[float]]:
    """(agent, deltas) of the config's sweep spec; no deltas means [0.0]."""
    spec = config.get("sweep") or {}
    if "agent" not in spec:
        raise InvalidConfig("sweep spec needs an 'agent'")
    agent = index(spec["agent"], "sweep.agent")
    instance.problem.block(agent)  # an unknown agent raises UnknownAgent
    return agent, [number(v, "sweep delta") for v in spec.get("deltas", [])] or [0.0]


@_reads_config
def _portfolio_spec(config: dict, args) -> tuple[int, int, float]:
    """(cases, seed, magnitude) of the config's portfolio spec."""
    spec = config.get("portfolio") or {}
    return integer(spec.get("cases", 0), "portfolio.cases", 0), _seed(args, spec, "portfolio"), nonnegative(spec.get("magnitude", 0.5), "portfolio.magnitude")


@_reads_config
def _mechanism_spec(config: dict) -> tuple[list[str], str]:
    """(selected mechanisms, cost basis) of the config; both by default."""
    selected = [choice(str(m).lower(), "mechanism", ("sp", "vcg")) for m in config.get("mechanisms", ["sp", "vcg"])]
    return selected, choice(config.get("cost_basis", "true"), "cost_basis", ("true", "reported"))


@_reads_config
def _out_path(config: dict, args) -> str:
    """The output directory, not created here: ``--out``, else ``out``, else '.'."""
    return os.fspath(getattr(args, "out", None) or config.get("out") or ".")


def _output(config: dict, args, name: str) -> str:
    """The path of the output file ``name``, its directory created."""
    out = _out_path(config, args)
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


# ---------------------------------------------------------------------------
# Output writers


def _write_solution_csv(path: str, instance: TransportInstance, problem: CoupledProblem, result) -> None:
    lam = -result.lambda_bar  # the sign of CentralSolution.lam (see SolveResult)
    labels = [f"s{i}:d{j}:k{k}:r{r}" for i, agent_vars in enumerate(instance.var_labels) for (j, k, r) in agent_vars]
    K = instance.network.n_commodities
    rows = [("x", pos, label, result.x[pos]) for pos, label in enumerate(labels)]
    rows += [("lambda", row, f"d{row // K}:k{row % K}", lam[row]) for row in range(problem.n_coupling)]
    rows += [
        ("objective", 0, "total", problem.total_value(result.x, "actual")),
        ("iterations", 0, "", result.iterations),
        ("converged", 0, "", int(result.converged)),
    ]
    write_csv(path, ["kind", "index", "label", "value"], rows)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args) -> int:
    if not (args.config or args.scale):
        raise InvalidConfig("provide --scale or --config with a generator spec")
    if not args.out:
        raise InvalidConfig("--out file path is required")
    config = _load_config(args.config)[0] if args.config else {}
    gen = config.get("generator") or {}
    instance = _instance_from_generator(gen, args)
    comm = _resolve_graph(config, instance, None, args)
    save_instance(args.out, instance.network, instance.R, instance.L, comm_edges=sorted(comm.edges))
    print(f"wrote {args.out}: {instance.problem.n_agents} agents, {instance.problem.n_total} variables, {instance.problem.n_coupling} coupling rows")
    return 0


def cmd_solve(args) -> int:
    config, base = _load_config(args.config)
    instance, embedded = _resolve_instance(config, base, args)
    graph = _resolve_graph(config, instance, embedded, args)
    params = _solver_params(config, args)
    problem = resolve(_apply_reports(config, instance), "reported")
    reference = centralized_solve(problem).value
    result = distributed_solve(problem, graph, params, reference_value=reference)
    result.trace.to_csv(_output(config, args, "trace.csv"))
    _write_solution_csv(_output(config, args, "solution.csv"), instance, problem, result)
    print(f"converged={result.converged} iterations={result.iterations} mode={params.mode}")
    return 0 if result.converged else 2


def cmd_mechanism(args) -> int:
    config, base = _load_config(args.config)
    instance, _ = _resolve_instance(config, base, args)
    problem = _apply_reports(config, instance)
    outcomes = settle(problem, *_mechanism_spec(config))
    payments_csv(outcomes, _output(config, args, "payments.csv"))
    for outc in outcomes:
        print(f"{outc.mechanism}: total payout {outc.total_payout:.6g}")
    return 0


def cmd_misreport_sweep(args) -> int:
    config, base = _load_config(args.config)
    instance, _ = _resolve_instance(config, base, args)
    agent, deltas = _sweep_spec(config, instance)
    result = misreport_sweep(instance, agent, deltas)
    result.to_csv(_output(config, args, "sweep.csv"))
    print(f"swept agent {agent} over {len(deltas)} delta(s)")
    return 0


def cmd_misreport_portfolio(args) -> int:
    config, base = _load_config(args.config)
    instance, _ = _resolve_instance(config, base, args)
    cases, seed, magnitude = _portfolio_spec(config, args)
    result = misreport_portfolio(instance, cases, seed, magnitude=magnitude)
    result.to_csv(_output(config, args, "portfolio.csv"))
    print(f"ran {cases} misreport case(s), seed {seed}")
    return 0


class _Checks:
    """The checks of one ``validate`` run; ``failed`` says whether any failed."""

    failed = False

    def line(self, name: str, ok: bool, detail: str) -> None:
        print(f"{'ok' if ok else 'FAIL'}: {name} ({detail})")
        self.failed = self.failed or not ok

    def run(self, name: str, reader, *args):
        """The reader's value, or None after printing the check's ``FAIL:`` line."""
        try:
            return reader(*args)
        except (DisqoError, OSError) as exc:
            self.line(name, False, f"{type(exc).__name__}: {exc}")


def cmd_validate(args) -> int:
    config, base = _load_config(args.config)
    checks = _Checks()
    instance, embedded = checks.run("instance", _resolve_instance, config, base, args) or (None, None)
    if instance:
        p = instance.problem
        checks.line("instance", True, f"{p.n_agents} agents, {p.n_total} variables, {p.n_coupling} coupling rows")
        if graph := checks.run("communication graph", _resolve_graph, config, instance, embedded, args):
            checks.line("communication graph", True, f"{graph.n_agents} nodes, {len(graph.edges)} edges, connected")
            weights = validate_weights(metropolis_weights(graph), graph)
            checks.line("mixing weights", weights.ok, "doubly stochastic, symmetric, spectrum in range" if weights.ok else "; ".join(weights.failures()))
    if params := checks.run("solver params", _solver_params, config, args):
        checks.line("solver params", True, str(params))
    if instance and ("reports" in config or "report_deltas" in config):
        if problem := checks.run("reported costs", _apply_reports, config, instance):
            checks.line("reported costs", True, type(problem).__name__)
    if instance and "sweep" in config:
        if sweep := checks.run("sweep spec", _sweep_spec, config, instance):
            checks.line("sweep spec", True, f"agent {sweep[0]}, {len(sweep[1])} delta(s)")
    if "portfolio" in config:
        if portfolio := checks.run("portfolio spec", _portfolio_spec, config, args):
            checks.line("portfolio spec", True, f"{portfolio[0]} case(s)")
    if "mechanisms" in config or "cost_basis" in config:
        if mechanisms := checks.run("mechanism spec", _mechanism_spec, config):
            checks.line("mechanism spec", True, "{}, cost basis {}".format(*mechanisms))
    if "out" in config:
        if out := checks.run("output directory", _out_path, config, args):
            checks.line("output directory", True, out)
    return 1 if checks.failed else 0


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="disqo", description="Distributed coupled-QP solver and incentive mechanisms.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, with_mode=False, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON config file (or a bare instance file)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory (default from config, else '.')")
        if with_mode:
            p.add_argument("--mode", choices=("plain", "accelerated"), default=None, help="subproblem mode")
            p.add_argument("--max-iter", type=int, default=None, help="iteration budget override")
            p.add_argument("--tol", type=float, default=None, help="sets both violation and step tolerances")

    p_gen = sub.add_parser("gen", help="generate a seeded instance file")
    common(p_gen, config_required=False)
    p_gen.add_argument("--scale", help="N,M,K,R (e.g. 4,2,3,2); alternative to a generator config")
    p_gen.add_argument("--c0", type=float, default=None, help="congestion coefficient")
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="run the distributed solver; writes trace.csv and solution.csv")
    common(p_solve, with_mode=True)
    p_solve.set_defaults(func=cmd_solve)

    p_mech = sub.add_parser("mechanism", help="settle payments; writes payments.csv")
    common(p_mech)
    p_mech.set_defaults(func=cmd_mechanism)

    p_sweep = sub.add_parser("misreport-sweep", help="single-agent misreport grid; writes sweep.csv")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_misreport_sweep)

    p_port = sub.add_parser("misreport-portfolio", help="seeded simultaneous misreports; writes portfolio.csv")
    common(p_port)
    p_port.set_defaults(func=cmd_misreport_portfolio)

    p_val = sub.add_parser("validate", help="check a config or instance file")
    p_val.add_argument("--config", required=True, help="JSON config file (or a bare instance file)")
    p_val.add_argument("--seed", type=int, default=None)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0; argument errors exit 1
        return int(exc.code or 0)
    try:
        return int(args.func(args))
    except MaxIterReached as exc:  # the budget ran out: not an input error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DisqoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # unreadable input files
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
