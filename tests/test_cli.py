"""End-to-end checks of the command-line interface: subcommands, exit codes,
and the layout/determinism of every emitted file."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import disqo
from disqo.cli import main
from disqo.errors import MaxIterReached
from disqo.mechanisms import misreport_sweep, sp_for_problem
from disqo.problem import ReportedProblem, centralized_solve, eval_cost
from disqo.qp import RepeatedQp
from disqo.transport import build_instance, default_comm_graph, load_instance, random_instance, star_network

STAR_GEN = {"star": {"c": [2.0, 3.0, 4.0], "c0": 1.0, "d": 5.0}}
STAR_X = np.array([13 / 6, 5 / 3, 7 / 6])


def star_instance():
    return build_instance(star_network([2.0, 3.0, 4.0], c0=1.0, d=5.0), R=1, L=2)


def write_config(path, **overrides):
    data = {"schema_version": 1, **overrides}
    path.write_text(json.dumps(data))
    return str(path)


def star_config(path, **overrides):
    return write_config(
        path,
        generator=STAR_GEN,
        solver={"max_iter": 3000, "violation_tol": 1e-8, "step_tol": 1e-8},
        **overrides,
    )


def read_solution(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    x = np.array([float(r["value"]) for r in rows if r["kind"] == "x"])
    lam = np.array([float(r["value"]) for r in rows if r["kind"] == "lambda"])
    obj = next(float(r["value"]) for r in rows if r["kind"] == "objective")
    converged = next(int(float(r["value"])) for r in rows if r["kind"] == "converged")
    return x, lam, obj, converged


def read_payments(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# gen


def test_gen_is_deterministic_and_loadable(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--scale", "4,2,3,2", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["gen", "--scale", "4,2,3,2", "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    inst, comm = load_instance(out1)
    assert inst.problem.n_agents == 4
    assert comm is not None and comm.n_agents == 4
    data = json.loads(out1.read_text())
    assert data["schema_version"] == 1
    assert data["comm_edges"]


def test_gen_different_seeds_differ(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "--scale", "4,2,3,2", "--seed", "7", "--out", str(out1)])
    main(["gen", "--scale", "4,2,3,2", "--seed", "8", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_gen_star_template_reproduces_known_optimum(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", generator=STAR_GEN, seed=0)
    out = tmp_path / "star.json"
    assert main(["gen", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
    inst, _ = load_instance(out)
    sol = centralized_solve(inst.problem)
    np.testing.assert_allclose(sol.x, STAR_X, atol=1e-8)
    assert sol.lam[0] == pytest.approx(49 / 3, abs=1e-8)


def test_gen_writes_the_configs_graph_edges(tmp_path, capsys):
    edges = [[0, 1], [1, 2], [2, 3]]
    cfg = write_config(tmp_path / "cfg.json", generator={"scale": [4, 2, 3, 2], "seed": 7}, graph={"edges": edges})
    out = tmp_path / "inst.json"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["comm_edges"] == edges
    for bad in ([[0, 0], [1, 2], [2, 3]], [[0, 1], [2, 3]], [[0, 9]]):  # self-loop, disconnected, out of range
        cfg = write_config(tmp_path / "bad.json", generator={"scale": [4, 2, 3, 2], "seed": 7}, graph={"edges": bad})
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "bad-inst.json")]) == 1
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "bad-inst.json").exists()


def test_gen_rejects_bad_scale(tmp_path):
    assert main(["gen", "--scale", "4,2", "--seed", "1", "--out", str(tmp_path / "z.json")]) == 1
    assert main(["gen", "--scale", "0,2,3,2", "--seed", "1", "--out", str(tmp_path / "z.json")]) == 1


@pytest.mark.parametrize(
    "generator, message",
    [
        ({"star": {"c": "345"}}, "star generator needs a cost list 'c'"),  # a string iterated as digits
        ({"star": {"c": [True, 4, 5]}}, "star c[0] must be a finite number, got True"),
        ({"star": {"c": [3, "4", 5]}}, "star c[1] must be a finite number, got '4'"),
        ({"star": {"c": [3, 4, 5], "d": "5"}}, "star d must be a finite number, got '5'"),
        ({"star": {"c": [3, 4, 5], "c0": True}}, "star c0 must be a finite number, got True"),
        ({"star": {"c": [3, 4, 5], "c0": "1.5"}}, "star c0 must be a finite number, got '1.5'"),
        ({"scale": [4, 2, 3, 2], "seed": 0, "c0": True}, "generator c0 must be a finite number, got True"),
        ({"scale": [4, 2, 3, 2], "seed": 0, "c0": "1.5"}, "generator c0 must be a finite number, got '1.5'"),
        ({"star": {"c": [3, 4, 5], "spoke_costs": [[1, 2], [2, 2]]}}, "2 spoke/trunk pairs for 3 suppliers"),
        ({"star": {"c": [3, 4], "spoke_costs": [[1, 2], [2, 2], [1, 1]]}}, "3 spoke/trunk pairs for 2 suppliers"),
        ({"star": {"c": [3, 4], "spoke_costs": [[True, 2], [2, 2]]}}, "star spoke_costs[0] must be a finite number, got True"),
        ({"star": {"c": [3, 4], "spoke_costs": [[1, 2], ["2", 2]]}}, "star spoke_costs[1] must be a finite number, got '2'"),
    ],
)
def test_generator_numbers_that_cannot_work_fail_validate_and_exit_one(tmp_path, capsys, generator, message):
    cfg = write_config(tmp_path / "cfg.json", generator=generator)
    assert main(["validate", "--config", cfg]) == 1
    assert "FAIL: instance" in capsys.readouterr().out
    assert main(["mechanism", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert message in capsys.readouterr().err


def test_gen_requires_seed_and_spec(tmp_path, capsys):
    assert main(["gen", "--scale", "4,2,3,2", "--out", str(tmp_path / "z.json")]) == 1
    assert main(["gen", "--seed", "1", "--out", str(tmp_path / "z.json")]) == 1
    capsys.readouterr()


def test_gen_c0_sets_the_congestion_coefficient(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--scale", "3,2,2,2", "--seed", "3", "--out", str(out1)]) == 0
    assert main(["gen", "--scale", "3,2,2,2", "--seed", "3", "--c0", "2.5", "--out", str(out2)]) == 0
    assert load_instance(out1)[0].network.c0 == 1.0
    assert load_instance(out2)[0].network.c0 == 2.5
    assert out1.read_bytes() != out2.read_bytes()


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("solve", [1, 2], "top level must be a JSON object"),
        ("solve", {"generator": {"scale": [4, 2, "x", 2], "seed": 1}}, "scale must be four integers"),
        ("solve", {"generator": {"star": {"c0": 1.0}}}, "star generator needs a cost list 'c'"),
        ("solve", {"generator": {"seed": 1}}, "generator spec needs 'scale' or 'star'"),
        ("mechanism", {"instance": "nowhere.json"}, "instance file not found"),
        ("misreport-portfolio", {"generator": STAR_GEN, "portfolio": {"cases": -1}}, "portfolio.cases must be an integer of at least 0"),
        ("mechanism", {"generator": {"star": {"c": [3.0]}}}, "error: market infeasible without agent 0"),
        ("solve", {"generator": STAR_GEN, "solver": {"max_iter": 1e3}}, "error: max_iter must be an integer"),
        ("solve", {"generator": STAR_GEN, "report_deltas": {"9": 1.0}}, "error: agent 9 of 3"),
        # integer values are JSON integers, never truncated
        ("solve", {"generator": {"scale": [4.7, 2, 3, 2], "seed": 1}}, "scale must be four integers"),
        ("solve", {"generator": {"scale": "4232", "seed": 1}}, "scale must be four positive integers"),
        ("solve", {"generator": {"scale": [4, 2, 3, 2], "seed": 1.9}}, "generator.seed must be an integer"),
        ("solve", {"generator": STAR_GEN, "graph": {"seed": 2.5}}, "graph.seed must be an integer"),
        ("misreport-portfolio", {"generator": STAR_GEN, "portfolio": {"cases": 2.7}}, "portfolio.cases must be an integer"),
        ("misreport-portfolio", {"generator": STAR_GEN, "portfolio": {"cases": True}}, "portfolio.cases must be an integer"),
        ("misreport-portfolio", {"generator": STAR_GEN, "portfolio": {"seed": 1.5}}, "portfolio.seed must be an integer"),
        ("misreport-sweep", {"generator": STAR_GEN, "sweep": {"agent": True}}, "sweep.agent must be an integer"),
        ("solve", {"generator": STAR_GEN, "solver": {"max_iter": True}}, "error: max_iter must be an integer"),
        ("misreport-portfolio", {"generator": STAR_GEN, "portfolio": {"seed": -1}}, "portfolio.seed must be an integer of at least 0"),
        ("solve", {"generator": {"scale": [4, 2, 3, 2], "seed": -1}}, "generator.seed must be an integer of at least 0"),
    ],
)
def test_config_input_errors_exit_one_with_their_message(tmp_path, capsys, command, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config if isinstance(config, list) else {"schema_version": 1, **config}))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert message in capsys.readouterr().err


def test_gen_without_out_exits_one(capsys):
    assert main(["gen", "--scale", "4,2,3,2", "--seed", "1"]) == 1
    assert "--out file path is required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section, value",
    [
        ("solve", "graph", [[0, 1]]),
        ("misreport-portfolio", "portfolio", [2]),
        ("mechanism", "reports", [1]),
        ("mechanism", "report_deltas", 5),
        ("gen", "generator", 5),
    ],
)
def test_a_section_of_the_wrong_json_type_is_an_input_error(tmp_path, capsys, command, section, value):
    config = {"generator": STAR_GEN, section: value}
    cfg = write_config(tmp_path / "cfg.json", **config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err
    assert main(["validate", "--config", cfg]) == 1
    assert "FAIL: " in capsys.readouterr().out


def test_out_of_the_wrong_type_is_an_input_error_and_validate_creates_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "cfg.json", generator=STAR_GEN, sweep={"agent": 0}, out=5)
    for command in ("mechanism", "solve", "misreport-sweep", "misreport-portfolio"):
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err
    assert main(["validate", "--config", cfg]) == 1
    assert "FAIL: output directory (" in capsys.readouterr().out
    cfg = write_config(tmp_path / "cfg.json", generator=STAR_GEN, out="results")
    assert main(["validate", "--config", cfg]) == 0
    assert "ok: output directory (results)" in capsys.readouterr().out
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_a_negative_seed_flag_is_an_input_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", generator=STAR_GEN, portfolio={"cases": 1, "seed": 1})
    for command in ("misreport-portfolio", "solve"):
        assert main([command, "--config", cfg, "--seed", "-1", "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "error: --seed must be an integer of at least 0" in err and "Traceback" not in err
    assert main(["validate", "--config", cfg, "--seed", "-1"]) == 1
    assert "FAIL: portfolio spec" in capsys.readouterr().out
    assert not (tmp_path / "run").exists()


def test_seed_flag_beats_every_section_seed(tmp_path, monkeypatch):
    # --seed, else the section's own seed, else the default; graph.seed too.
    graphs = []
    solve = disqo.cli.distributed_solve

    def recorded(problem, graph, *args, **kwargs):
        graphs.append(graph)
        return solve(problem, graph, *args, **kwargs)

    monkeypatch.setattr(disqo.cli, "distributed_solve", recorded)
    cfg = write_config(tmp_path / "cfg.json", generator={"scale": [4, 2, 3, 2], "seed": 1}, graph={"seed": 5})
    for flags in ([], ["--seed", "3"]):
        main(["solve", "--config", cfg, "--max-iter", "1", "--out", str(tmp_path / "run"), *flags])
    assert [g.edges for g in graphs] == [default_comm_graph(4, 5).edges, default_comm_graph(4, 3).edges]


# ---------------------------------------------------------------------------
# solve


def test_solve_star_reaches_reference(tmp_path):
    cfg = star_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    x, lam, obj, converged = read_solution(out / "solution.csv")
    assert converged == 1
    np.testing.assert_allclose(x, STAR_X, atol=1e-4)
    assert lam[0] == pytest.approx(49 / 3, abs=1e-4)
    assert obj == pytest.approx(287 / 6, abs=1e-4)
    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[-1]["rel_error"]) <= 1e-4
    assert float(rows[-1]["violation"]) <= 1e-4


def test_solve_on_instance_file(tmp_path):
    inst_file = tmp_path / "inst.json"
    main(["gen", "--scale", "3,2,2,2", "--seed", "3", "--out", str(inst_file)])
    cfg = write_config(tmp_path / "cfg.json", instance="inst.json")  # relative to config dir
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    x, lam, obj, converged = read_solution(out / "solution.csv")
    assert converged == 1
    inst, _ = load_instance(inst_file)
    sol = centralized_solve(inst.problem)
    assert obj == pytest.approx(sol.value, rel=1e-5)
    np.testing.assert_allclose(lam, sol.lam, atol=1e-3)


def test_solve_exit_two_when_budget_exhausted(tmp_path):
    cfg = star_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--tol", "0", "--max-iter", "10", "--out", str(out)]) == 2
    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["iter"]) for r in rows] == list(range(11))  # initial point plus 10 iterations
    *_, converged = read_solution(out / "solution.csv")
    assert converged == 0


def test_solve_modes_agree(tmp_path):
    inst_file = tmp_path / "inst.json"
    main(["gen", "--scale", "3,2,2,2", "--seed", "5", "--out", str(inst_file)])
    cfg = write_config(tmp_path / "cfg.json", instance="inst.json")
    out_p, out_a = tmp_path / "plain", tmp_path / "acc"
    assert main(["solve", "--config", cfg, "--mode", "plain", "--out", str(out_p)]) == 0
    assert main(["solve", "--config", cfg, "--mode", "accelerated", "--out", str(out_a)]) == 0
    xp, lp, op, _ = read_solution(out_p / "solution.csv")
    xa, la, oa, _ = read_solution(out_a / "solution.csv")
    np.testing.assert_allclose(xp, xa, atol=1e-8)
    np.testing.assert_allclose(lp, la, atol=1e-8)
    assert op == pytest.approx(oa, abs=1e-8)


def test_solve_outputs_are_stable_and_finite(tmp_path):
    inst_file = tmp_path / "inst.json"
    main(["gen", "--scale", "3,2,2,2", "--seed", "3", "--out", str(inst_file)])
    cfg = write_config(tmp_path / "cfg.json", instance="inst.json")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    for run in (out1, out2):
        with open(run / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            for key, val in row.items():
                assert np.isfinite(float(val)), f"{key} not finite at iter {row['iter']}"
    strip = lambda p: [r[:-1] for r in csv.reader(p.read_text().splitlines())]  # all but wall_ms
    assert strip(out1 / "trace.csv") == strip(out2 / "trace.csv")


def test_solution_lambda_rows_are_the_negated_consensus_dual(tmp_path, monkeypatch):
    # Converged or not, the lambda rows are -lambda_bar, in the sign of
    # CentralSolution.lam; this run stops at its budget.
    results = []
    solve = disqo.cli.distributed_solve

    def recorded(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(disqo.cli, "distributed_solve", recorded)
    cfg = write_config(tmp_path / "cfg.json", generator={"scale": [4, 2, 3, 2], "seed": 0})
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--max-iter", "50", "--out", str(out)]) == 2
    _, lam, _, converged = read_solution(out / "solution.csv")
    assert converged == 0
    np.testing.assert_array_equal(lam, -results[0].lambda_bar)


def test_solve_reported_config_solves_the_reported_problem(tmp_path):
    cfg = star_config(tmp_path / "cfg.json", report_deltas={"0": -1.0})
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    x, _, _, converged = read_solution(out / "solution.csv")
    assert converged == 1
    reported = star_instance().perturbed_reports({0: -1.0})
    np.testing.assert_allclose(x, centralized_solve(reported, which="reported").x, atol=1e-6)


@pytest.mark.parametrize("command", ["solve", "mechanism"])
def test_central_solve_budget_exhaustion_exits_two(tmp_path, monkeypatch, capsys, command):
    def exhausted(*args, **kwargs):
        raise MaxIterReached("budget spent")

    monkeypatch.setattr(disqo.problem, "_optimum", exhausted)  # every centralized solve ends there
    cfg = star_config(tmp_path / "cfg.json")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "budget spent" in capsys.readouterr().err


def test_uncertified_subproblem_answer_exits_two(tmp_path, monkeypatch, capsys):
    class Stalling(RepeatedQp):
        """An agent QP whose every solve ends ``max_iter`` after 30 iterations."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs, max_iter=30)

        def _polish(self, q, active):
            return None

    monkeypatch.setattr(disqo.admm, "RepeatedQp", Stalling)
    cfg = write_config(tmp_path / "cfg.json", generator={"scale": [4, 2, 3, 2], "seed": 0})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "agent 0's subproblem in round 1 ended max_iter" in capsys.readouterr().err


def test_solve_input_errors(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["solve", "--config", str(bad)]) == 1
    bad.write_text(json.dumps({"schema_version": 99}))
    assert main(["solve", "--config", str(bad)]) == 1
    cfg = write_config(tmp_path / "cfg.json", generator=STAR_GEN, solver={"bogus": 1})
    assert main(["solve", "--config", cfg]) == 1
    cfg2 = write_config(tmp_path / "cfg2.json")  # neither instance nor generator
    assert main(["solve", "--config", cfg2]) == 1
    cfg3 = write_config(tmp_path / "cfg3.json", generator=STAR_GEN)
    assert main(["solve", "--config", cfg3, "--tol", "inf", "--out", str(tmp_path / "run")]) == 1  # not a one-round "converged=True"
    assert main(["solve"]) == 1  # --config required
    capsys.readouterr()


def test_malformed_config_values_exit_one(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", generator=STAR_GEN, solver={"sigma": "high"})
    assert main(["solve", "--config", cfg]) == 1
    cfg2 = write_config(tmp_path / "cfg2.json", generator={"star": {"c": [2.0, "x"]}})
    assert main(["solve", "--config", cfg2]) == 1
    cfg3 = write_config(tmp_path / "cfg3.json", generator=STAR_GEN, cost_basis="imagined")
    assert main(["mechanism", "--config", cfg3, "--out", str(tmp_path / "run")]) == 1
    assert "error: " in capsys.readouterr().err


def test_program_errors_escape_main(tmp_path, monkeypatch):
    # An error raised past the config readers is a bug, not bad input: it
    # must not be reported as an input error with exit 1.
    def broken(*args, **kwargs):
        raise ValueError("a bug in the solver")

    monkeypatch.setattr(disqo.cli, "distributed_solve", broken)
    cfg = star_config(tmp_path / "cfg.json")
    with pytest.raises(ValueError, match="a bug in the solver"):
        main(["solve", "--config", cfg, "--out", str(tmp_path / "run")])


def test_cli_flag_and_command_errors(capsys):
    assert main(["bogus"]) == 1
    assert main(["--help"]) == 0
    assert main(["solve", "--config", "x.json", "--mode", "bogus"]) == 1
    capsys.readouterr()


def python_process(*args, timeout=300):
    """A fresh interpreter run on ``args``, importing this checkout's disqo."""
    src = str(Path(disqo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


def run_python(*args):
    proc = python_process(*args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("scale, message", [("0,2,3,2", "scale N must be an integer of at least 2"), ("4,0,3,2", "scale M must be an integer of at least 1")])
def test_gen_scale_ranges_are_the_generators_rule(tmp_path, capsys, scale, message):
    assert main(["gen", "--scale", scale, "--seed", "0", "--out", str(tmp_path / "z.json")]) == 1
    assert message in capsys.readouterr().err and not (tmp_path / "z.json").exists()


def test_gen_at_one_supplier_exits_one_instead_of_spinning(tmp_path):
    # Coverage needs two suppliers, and the draw once looked for a second
    # feeder forever; a regression fails here instead of hanging.
    proc = python_process("-m", "disqo.cli", "gen", "--scale", "1,2,3,2", "--seed", "0", "--out", str(tmp_path / "z.json"), timeout=60)
    assert proc.returncode == 1 and "scale N must be an integer of at least 2" in proc.stderr
    assert "Traceback" not in proc.stderr and not (tmp_path / "z.json").exists()


def test_module_entry_point_runs_without_warning():
    # The package must not import ``cli`` itself, or runpy warns when
    # ``python -m disqo.cli`` finds it already in sys.modules.
    assert "usage" in run_python("-W", "error::RuntimeWarning", "-m", "disqo.cli", "--help")


def test_start_up_loads_neither_networkx_nor_scipy_optimize():
    script = "import sys, disqo.cli; print(sorted(m for m in ('networkx', 'scipy.optimize') if m in sys.modules))"
    assert run_python("-c", script).strip() == "[]"


def test_commands_run_without_networkx(tmp_path):
    # networkx is a test dependency only: an install without it runs every command.
    script = """
import sys
sys.modules["networkx"] = None  # makes ``import networkx`` raise ImportError
from disqo.cli import main
inst, out = sys.argv[1:]
print([
    main(["gen", "--scale", "4,2,3,2", "--seed", "7", "--out", inst]),
    main(["solve", "--config", inst, "--out", out]),
    main(["mechanism", "--config", inst, "--out", out]),
])
"""
    stdout = run_python("-c", script, str(tmp_path / "inst.json"), str(tmp_path / "run"))
    assert stdout.strip().splitlines()[-1] == "[0, 0, 0]"
    assert (tmp_path / "run" / "solution.csv").stat().st_size and (tmp_path / "run" / "payments.csv").stat().st_size


# ---------------------------------------------------------------------------
# mechanism


def test_mechanism_table_for_star(tmp_path):
    cfg = star_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    assert main(["mechanism", "--config", cfg, "--out", str(out)]) == 0
    rows = read_payments(out / "payments.csv")
    sp = {r["agent"]: r for r in rows if r["mechanism"] == "ShadowPricing"}
    vcg = {r["agent"]: r for r in rows if r["mechanism"] == "VCG"}
    for i, want in enumerate([9.39, 5.56, 2.72]):
        assert float(sp[str(i)]["benefit"]) == pytest.approx(want, abs=1e-2)
    for i, want in enumerate([7.04, 4.17, 2.04]):
        assert float(vcg[str(i)]["benefit"]) == pytest.approx(want, abs=1e-2)
    assert float(sp["total"]["payment"]) == pytest.approx(65.5, abs=1e-2)
    diff = next(r for r in rows if r["mechanism"] == "SP-VCG")
    assert diff["agent"] == "total"
    want_diff = float(sp["total"]["payment"]) - float(vcg["total"]["payment"])
    assert float(diff["payment"]) == pytest.approx(want_diff, abs=1e-10)


def test_mechanism_zero_demand_pays_nothing(tmp_path):
    for c in ([2.0, 3.0, 4.0], [3.0]):  # one supplier: the drop-one market has no agents
        cfg = write_config(tmp_path / "cfg.json", generator={"star": {"c": c, "d": 0.0}})
        out = tmp_path / f"run{len(c)}"
        assert main(["mechanism", "--config", cfg, "--out", str(out)]) == 0
        for row in read_payments(out / "payments.csv"):
            assert float(row["payment"]) == pytest.approx(0.0, abs=1e-8)
        with open(out / "payments.csv") as fh:
            assert "-0" not in [cell for row in csv.reader(fh) for cell in row]  # a zero benefit reads 0


def test_mechanism_respects_reported_costs_and_basis(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path / "cfg.json",
        generator=STAR_GEN,
        report_deltas={"0": -1.0},
        cost_basis="reported",
        mechanisms=["sp"],
    )
    assert main(["mechanism", "--config", cfg, "--out", str(out)]) == 0
    rows = read_payments(out / "payments.csv")
    assert {r["mechanism"] for r in rows} == {"ShadowPricing"}
    assert float(rows[0]["benefit"]) == pytest.approx(12.5, abs=1e-2)

    cfg_true = write_config(
        tmp_path / "cfg_true.json",
        generator=STAR_GEN,
        report_deltas={"0": -1.0},
        cost_basis="true",
    )
    assert main(["mechanism", "--config", cfg_true, "--out", str(out)]) == 0
    rows = read_payments(out / "payments.csv")
    sp = [r for r in rows if r["mechanism"] == "ShadowPricing" and r["agent"] != "total"]
    benefits = [float(r["benefit"]) for r in sp]
    assert benefits == pytest.approx([10.0, 4.5, 2.0], abs=1e-2)


def test_mechanism_cost_basis_sets_only_the_cost_columns(tmp_path):
    # The true_cost column holds each agent's cost at the configured basis;
    # payments are priced from the reports either way.
    tables = {}
    for basis in ("true", "reported"):
        cfg = write_config(tmp_path / f"{basis}.json", generator={"scale": [4, 2, 3, 2], "seed": 1}, report_deltas={"0": -1.0}, cost_basis=basis)
        assert main(["mechanism", "--config", cfg, "--out", str(tmp_path / basis)]) == 0
        tables[basis] = read_payments(tmp_path / basis / "payments.csv")
    assert [r["payment"] for r in tables["reported"]] == [r["payment"] for r in tables["true"]]

    rp = random_instance((4, 2, 3, 2), 1).perturbed_reports({0: -1.0})
    x = centralized_solve(rp, which="reported").x
    for mech in ("ShadowPricing", "VCG"):
        true_row, rep_row = ({r["mechanism"]: r for r in tables[b] if r["agent"] == "0"}[mech] for b in ("true", "reported"))
        assert float(rep_row["true_cost"]) == eval_cost(rp, 0, x, which="reported")
        assert float(true_row["true_cost"]) == eval_cost(rp, 0, x, which="true")
        assert float(rep_row["true_cost"]) < float(true_row["true_cost"])


def test_explicit_reports_match_the_same_shift_as_deltas(tmp_path, capsys):
    # Agent 0 uses its spoke (edge 0, cost 2) and the trunk (edge 3, cost 0):
    # a delta of -1 reports costs (1, 0, 0, 0), the trunk floored at zero.
    runs = {"deltas": {"report_deltas": {"0": -1.0}}, "reports": {"reports": {"0": [1.0, 0.0, 0.0, 0.0]}}}
    for name, section in runs.items():
        cfg = write_config(tmp_path / f"{name}.json", generator=STAR_GEN, **section)
        assert main(["mechanism", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        assert main(["validate", "--config", cfg]) == 0
        assert "ok: reported costs" in capsys.readouterr().out
    assert (tmp_path / "deltas" / "payments.csv").read_bytes() == (tmp_path / "reports" / "payments.csv").read_bytes()


def test_mechanism_solves_the_reported_market_once(tmp_path, monkeypatch):
    # Both mechanisms settle on one market: one unguessed solve of it, whose
    # tight rows start VCG's drop-one solves, and one n x n PSD check of it
    # after the instance's own convexity check, which reads only each
    # agent's 2 x 2 algorithmic factor D_i (spoke and trunk).
    markets, unguessed, checks = [], [], []
    init, optimum, eigvalsh = disqo.problem._Market.__init__, disqo.problem._optimum, np.linalg.eigvalsh
    monkeypatch.setattr(disqo.problem._Market, "__init__", lambda market, p, *args: markets.append(p.n_agents) or init(market, p, *args))
    monkeypatch.setattr(disqo.problem, "_optimum", lambda qp, psi, active: (active is None and unguessed.append(qp.n)) or optimum(qp, psi, active))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: checks.append(a.shape) or eigvalsh(a))
    cfg = star_config(tmp_path / "cfg.json", report_deltas={"0": -1.0})
    assert main(["mechanism", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert markets == [3] and unguessed == [3] and checks == [(2, 2)] * 3 + [(3, 3)]


def test_mechanism_rejects_unknown_selection(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", generator=STAR_GEN, mechanisms=["sp", "auction"])
    assert main(["mechanism", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# misreport commands


def test_sweep_matches_library_and_handles_empty_grid(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", generator=STAR_GEN, sweep={"agent": 0, "deltas": [-1.0, 0.0]})
    out = tmp_path / "run"
    assert main(["misreport-sweep", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    inst = star_instance()
    want = misreport_sweep(inst, 0, [-1.0, 0.0])
    got = np.array([float(r["benefit"]) for r in rows]).reshape(2, 3)
    np.testing.assert_allclose(got, want.benefits, atol=1e-10)
    assert [float(r["delta"]) for r in rows[:3]] == [-1.0, -1.0, -1.0]

    cfg_empty = write_config(tmp_path / "cfg2.json", generator=STAR_GEN, sweep={"agent": 0, "deltas": []})
    assert main(["misreport-sweep", "--config", cfg_empty, "--out", str(out)]) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 and all(float(r["delta"]) == 0.0 for r in rows)
    truthful = sp_for_problem(ReportedProblem.truthful(inst.problem)).benefits
    np.testing.assert_allclose([float(r["benefit"]) for r in rows], truthful, atol=1e-10)



def test_sweep_rejects_bad_agent(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", generator=STAR_GEN, sweep={"agent": 7, "deltas": [0.0]})
    assert main(["misreport-sweep", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    cfg2 = write_config(tmp_path / "cfg2.json", generator=STAR_GEN, sweep={})
    assert main(["misreport-sweep", "--config", cfg2, "--out", str(tmp_path / "run")]) == 1
    capsys.readouterr()


def test_portfolio_deterministic_and_seed_sensitive(tmp_path):
    inst_file = tmp_path / "inst.json"
    main(["gen", "--scale", "3,2,2,2", "--seed", "3", "--out", str(inst_file)])
    cfg = write_config(tmp_path / "cfg.json", instance="inst.json", portfolio={"cases": 5, "seed": 11})
    out1, out2, out3 = tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"
    assert main(["misreport-portfolio", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["misreport-portfolio", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "portfolio.csv").read_bytes() == (out2 / "portfolio.csv").read_bytes()
    assert main(["misreport-portfolio", "--config", cfg, "--seed", "12", "--out", str(out3)]) == 0
    assert (out1 / "portfolio.csv").read_bytes() != (out3 / "portfolio.csv").read_bytes()
    with open(out1 / "portfolio.csv") as fh:
        rows = list(csv.DictReader(fh))
    inst, _ = load_instance(inst_file)
    baseline = sp_for_problem(ReportedProblem.truthful(inst.problem)).benefits
    case0 = [float(r["benefit"]) for r in rows if r["case"] == "0"]
    np.testing.assert_allclose(case0, baseline, atol=1e-10)
    assert {r["case"] for r in rows} == {"0", "1", "2", "3", "4", "5"}


def test_portfolio_zero_cases_writes_baseline_only(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", generator=STAR_GEN, portfolio={"cases": 0, "seed": 1})
    out = tmp_path / "run"
    assert main(["misreport-portfolio", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "portfolio.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 and all(r["case"] == "0" for r in rows)


# ---------------------------------------------------------------------------
# validate


def test_validate_accepts_good_config(tmp_path, capsys):
    cfg = star_config(tmp_path / "cfg.json", sweep={"agent": 0, "deltas": [0.0]}, portfolio={"cases": 2}, mechanisms=["sp"], cost_basis="reported")
    assert main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "ok: instance" in out and "ok: mixing weights" in out and "ok: mechanism spec" in out
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "section, value, check",
    [
        ("solver", {"max_iter": 1e3}, "solver params"),
        ("reports", {"0": [1.0]}, "reported costs"),
        ("report_deltas", {"9": 1.0}, "reported costs"),
        ("mechanisms", ["foo"], "mechanism spec"),
        ("cost_basis", "imagined", "mechanism spec"),
        ("sweep", {"agent": 9}, "sweep spec"),
        ("portfolio", {"cases": -1}, "portfolio spec"),
        ("solver", {"max_iter": True}, "solver params"),
        # a report key is an agent index as JSON writes it; int() read each of these as agent 1
        ("report_deltas", {"01": 1.0}, "reported costs (InvalidConfig: report keys ['01']"),
        ("report_deltas", {"1": 2.0, "+1": 0.0}, "reported costs (InvalidConfig: report keys ['+1']"),  # the later key won
        ("report_deltas", {"\u0661": 1.0}, "reported costs (InvalidConfig: report keys"),
        ("reports", {" 1": [1.0, 1.0, 1.0, 1.0]}, "reported costs (InvalidConfig: report keys [' 1']"),
    ],
)
def test_validate_fails_on_a_bad_value_in_any_section_a_command_reads(tmp_path, capsys, section, value, check):
    cfg = write_config(tmp_path / "cfg.json", generator=STAR_GEN, **{section: value})
    assert main(["validate", "--config", cfg]) == 1
    assert f"FAIL: {check}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, section, text, check",
    [
        ("misreport-sweep", "sweep", '{"agent": 0, "deltas": [0.5, NaN]}', "sweep spec"),
        ("misreport-sweep", "sweep", '{"agent": 0, "deltas": [Infinity]}', "sweep spec"),
        ("misreport-sweep", "sweep", '{"agent": 0, "deltas": [-Infinity]}', "sweep spec"),
        ("misreport-sweep", "sweep", '{"agent": 0, "deltas": [true, 0.5]}', "sweep spec"),  # was read as 1.0
        ("mechanism", "report_deltas", '{"0": true}', "reported costs"),  # was read as 1.0
        ("misreport-portfolio", "portfolio", '{"cases": 1, "seed": -1}', "portfolio spec"),  # numpy rejected it mid-run
        ("misreport-portfolio", "portfolio", '{"cases": 2, "magnitude": -1}', "portfolio spec"),
        ("misreport-portfolio", "portfolio", '{"cases": 2, "magnitude": NaN}', "portfolio spec"),
        ("misreport-portfolio", "portfolio", '{"cases": 2, "magnitude": 1e400}', "portfolio spec"),
        ("mechanism", "reports", '{"0": [NaN, 0.0, 0.0, 0.0]}', "reported costs"),
        ("mechanism", "reports", '{"0": [true, 0.0, 0.0, 0.0]}', "reported costs"),  # was read as the cost 1.0
        ("mechanism", "reports", '{"0": ["1.5", 0.0, 0.0, 0.0]}', "reported costs"),  # was parsed as 1.5
        ("solve", "solver", '{"violation_tol": Infinity, "step_tol": Infinity}', "solver params"),
        ("solve", "solver", '{"violation_tol": NaN}', "solver params"),
        ("solve", "solver", '{"sigma": NaN}', "solver params"),
        ("solve", "solver", '{"sigma": true}', "solver params"),
        ("solve", "solver", '{"rho": Infinity}', "solver params"),
        ("solve", "graph", '{"edges": [[0.9, 1], [1, 2]]}', "communication graph"),  # was read as the edge (0, 1)
        ("solve", "graph", '{"edges": [[0, 1, 3], [1, 2]]}', "communication graph (InvalidEdge: edge (0, 1, 3) is not a pair"),  # was (0, 1)
        ("solve", "graph", '{"edges": [[0], [1, 2]]}', "communication graph (InvalidEdge: edge (0,) is not a pair"),  # was an IndexError
        ("mechanism", "report_deltas", '{"01": -0.5}', "reported costs (InvalidConfig: report keys"),  # was agent 1
        ("mechanism", "report_deltas", '{"1_0": -0.5}', "reported costs (InvalidConfig: report keys"),  # was agent 10
        ("mechanism", "reports", '{"+1": [1.0, 1.0, 1.0, 1.0]}', "reported costs (InvalidConfig: report keys"),  # was agent 1
        # a later "generator" key replaces the star default
        ("mechanism", "generator", '{"star": {"c": [3, NaN, 5]}}', "instance"),
        ("mechanism", "generator", '{"star": {"c": [3, 4, 5], "d": Infinity}}', "instance"),
    ],
)
def test_misreport_numbers_that_cannot_work_fail_validate_and_exit_one(tmp_path, capsys, command, section, text, check):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"schema_version": 1, "generator": {json.dumps(STAR_GEN)}, "{section}": {text}}}')
    assert main(["validate", "--config", str(cfg)]) == 1
    assert f"FAIL: {check}" in capsys.readouterr().out
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda d: d["suppliers"].__setitem__(0, d["n_nodes"]), "outside", id="supplier-outside"),
        pytest.param(lambda d: d["edge_costs"][0].__setitem__(0, math.nan), "edge_costs must be finite", id="nan-edge-cost"),
        pytest.param(lambda d: d["demands"][0].__setitem__(0, math.inf), "demands must be finite", id="infinite-demand"),
        pytest.param(lambda d: d.update(c0=math.nan), "c0 must be finite", id="nan-c0"),
        # a bool was read as 1.0 and a numeric string parsed
        pytest.param(lambda d: d.update(c0="1.5"), "c0 must hold numbers", id="string-c0"),
        pytest.param(lambda d: d.update(c0=True), "c0 must hold numbers", id="bool-c0"),
        pytest.param(lambda d: d["demands"][0].__setitem__(0, "1"), "demands must hold numbers", id="string-demand"),
        pytest.param(lambda d: d["edge_costs"][1].__setitem__(2, True), "edge_costs must hold numbers", id="bool-edge-cost"),
        pytest.param(lambda d: d["pair_capacity"][0].__setitem__(0, False), "pair_capacity must hold numbers", id="bool-pair-capacity"),
        pytest.param(lambda d: d.update(R=2.9), "R must be an integer", id="fractional-R"),  # was truncated to 2
        pytest.param(lambda d: d.update(R=True), "R must be an integer", id="bool-R"),  # was a one-route market
        pytest.param(lambda d: d["comm_edges"][0].__setitem__(0, 0.9), "edge endpoint must be an integer", id="fractional-comm-edge"),
        # each ended in an IndexError traceback or in Python's TypeError or ValueError text
        pytest.param(lambda d: d.update(demands=[1.0, 2.0]), "demands must be a (demander, commodity) table", id="flat-demands"),
        pytest.param(lambda d: d.update(demands=None), "demands must be a (demander, commodity) table", id="null-demands"),
        pytest.param(lambda d: d["suppliers"].__setitem__(0, "0"), "a node index must be an integer, got '0'", id="string-supplier"),
        pytest.param(lambda d: d["demanders"].__setitem__(0, None), "a node index must be an integer, got None", id="null-demander"),
        pytest.param(lambda d: d["edges"].__setitem__(0, ["0", "1"]), "a node index must be an integer, got '0'", id="string-edge"),
        pytest.param(lambda d: d["comm_edges"].__setitem__(0, [True, 1]), "edge endpoint must be an integer, got True", id="bool-comm-edge"),
        pytest.param(lambda d: d["comm_edges"].__setitem__(0, ["0", "1"]), "edge endpoint must be an integer, got '0'", id="string-comm-edge"),
        pytest.param(lambda d: d.update(pair_capacity=[1.0, 2.0]), "pair_capacity has shape (2,), expected (4, 2)", id="flat-pair-capacity"),
        pytest.param(lambda d: d["edge_costs"].__setitem__(0, [1.0]), "edge_costs must be a number or a rectangular array", id="ragged-edge-costs"),
        pytest.param(lambda d: d.update(c0=[]), "c0 must be a finite number, got []", id="list-c0"),
    ],
)
def test_instance_with_a_supplier_outside_the_network_exits_one(tmp_path, capsys, edit, message):
    inst_file = tmp_path / "inst.json"
    main(["gen", "--scale", "4,2,3,2", "--seed", "7", "--out", str(inst_file)])
    data = json.loads(inst_file.read_text())
    edit(data)
    inst_file.write_text(json.dumps(data))  # NaN and Infinity as JSON literals, which json reads
    assert main(["validate", "--config", str(inst_file)]) == 1
    assert "FAIL: instance (DimensionMismatch" in capsys.readouterr().out
    assert main(["solve", "--config", str(inst_file), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_instance_with_a_bad_edge_fails_validate(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    main(["gen", "--scale", "4,2,3,2", "--seed", "7", "--out", str(inst_file)])
    text = inst_file.read_text()
    # An edge is a pair: a comm edge (0, 1, 3) ran as (0, 1), and a network edge of 3 entries failed to unpack.
    for field, edge, message in [
        ("edges", [0, 0], "bad edge (0,0))"),
        ("edges", [0, 1, 3], "bad edge (0,1,3))"),
        ("comm_edges", [0, 1, 3], "edge (0, 1, 3) is not a pair of nodes)"),
        ("comm_edges", [2], "edge (2,) is not a pair of nodes)"),
    ]:
        data = json.loads(text)
        data[field][0] = edge
        inst_file.write_text(json.dumps(data))
        assert main(["validate", "--config", str(inst_file)]) == 1
        assert f"FAIL: instance (InvalidEdge: {message}" in capsys.readouterr().out
        assert main(["solve", "--config", str(inst_file), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert message[:-1] in err and "Traceback" not in err


def test_a_config_holds_one_report_section(tmp_path, capsys):
    # With both, the deltas were dropped without a word.
    cfg = write_config(tmp_path / "cfg.json", generator=STAR_GEN, reports={"0": [1.0, 1.0, 1.0, 1.0]}, report_deltas={"1": 0.5})
    assert main(["validate", "--config", cfg]) == 1
    assert "FAIL: reported costs (InvalidConfig: a config holds reports or report_deltas, not both)" in capsys.readouterr().out
    assert main(["mechanism", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "not both" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_validate_accepts_bare_instance_file(tmp_path, capsys):
    inst_file = tmp_path / "inst.json"
    main(["gen", "--scale", "3,2,2,2", "--seed", "3", "--out", str(inst_file)])
    assert main(["validate", "--config", str(inst_file)]) == 0
    capsys.readouterr()


def test_validate_flags_broken_sections(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        generator=STAR_GEN,
        graph={"edges": [[0, 1]]},  # node 2 isolated
    )
    assert main(["validate", "--config", cfg]) == 1
    assert "FAIL: communication graph" in capsys.readouterr().out
    cfg2 = write_config(tmp_path / "cfg2.json", generator=STAR_GEN, solver={"sigma": -1.0})
    assert main(["validate", "--config", cfg2]) == 1
    assert "FAIL: solver params" in capsys.readouterr().out
