"""Span tracing around the public functions of each ``disqo`` module.

The program is not changed: while a ``Tracer`` is installed, every public
function of the traced modules is replaced, at each module attribute that is
bound to it, by a wrapper that records a span (name, parent, start, end).
``centralized_solve`` for example is bound in ``problem``, ``transport``,
``mechanisms`` and ``cli`` and is replaced in all four. Methods named in
``METHODS`` are patched on their class. The dense kernels the QP layer calls
(``scipy.linalg`` solve/LU/Cholesky routines and ``numpy.linalg.lstsq``) are
counted, not spanned, since they run up to once per splitting iteration.

Spans stay in memory until ``write_spans``; ``uninstall`` puts every original
binding back and checks that it did.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.linalg

LAYERS = ("transport", "problem", "qp", "admm", "mechanisms", "graphs", "cli")
METHODS = (("qp", "RepeatedQp", "solve"), ("transport", "TransportInstance", "with_reported_costs"))
KERNELS = (
    (scipy.linalg, "solve"),
    (scipy.linalg, "lu_factor"),
    (scipy.linalg, "lu_solve"),
    (scipy.linalg, "cho_factor"),
    (scipy.linalg, "cho_solve"),
    (np.linalg, "lstsq"),
)


def _solve_cost(args, kwargs) -> tuple[float, float]:
    """Flops and bytes of one dense LU solve, computed from the matrix shape."""
    a = args[0] if args else kwargs.get("a")
    b = args[1] if len(args) > 1 else kwargs.get("b")
    n = a.shape[0]
    nrhs = 1 if b.ndim == 1 else b.shape[1]
    flops = 2.0 / 3.0 * n**3 + 2.0 * n * n * nrhs
    moved = 8.0 * (n * n + 2 * n * nrhs)  # read A and b, write x
    return flops, moved


class Tracer:
    def __init__(self, extra_modules=()):
        import disqo

        self.layer_modules = {name: getattr(disqo, name) for name in LAYERS}
        self.extra_modules = tuple(extra_modules)
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list = []  # (name index, parent span id or -1, start ns, end ns)
        self.info: dict[int, object] = {}
        self.kernels: dict[str, list] = defaultdict(lambda: [0, 0, 0.0, 0.0])  # calls, ns, flops, bytes
        self.kkt_calls: dict[int, int] = defaultdict(int)  # span id -> KKT solves (solve, lstsq) made directly in it
        self.phase_marks: list[tuple[str, int, dict]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.installed = False

    # -- naming ---------------------------------------------------------
    def _intern(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    # -- wrappers -------------------------------------------------------
    def _wrap(self, fn, name: str):
        idx = self._intern(name)
        spans, stack, info = self.spans, self._stack, self.info
        pre = _PRE_HOOKS.get(name)
        post = _POST_HOOKS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            if pre is not None:
                info[sid] = pre(args, kwargs)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (idx, parent, t0, t1)
            if post is not None:
                info[sid] = post(result)
            return result

        return wrapper

    def _count(self, fn, name: str):
        counter = self.kernels[name]
        clock = time.perf_counter_ns
        cost = _solve_cost if name == "solve" else None
        stack, per_span = self._stack, self.kkt_calls if name in ("solve", "lstsq") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counter[0] += 1
                counter[1] += clock() - t0
                if per_span is not None and stack:
                    per_span[stack[-1]] += 1
                if cost is not None:
                    flops, moved = cost(args, kwargs)
                    counter[2] += flops
                    counter[3] += moved

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- install / uninstall --------------------------------------------
    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, module in self.layer_modules.items():
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        bound = [m for name, m in sys.modules.items() if name == "disqo" or name.startswith("disqo.")]
        for module in bound + list(self.extra_modules):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(module, attr, wrappers[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(self.layer_modules[layer], cls_name)
            self._set(cls, meth, self._wrap(vars(cls)[meth], f"{layer}.{cls_name}.{meth}"))
        for module, name in KERNELS:
            self._set(module, name, self._count(getattr(module, name), name))
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        leftovers = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._saved
            if getattr(owner, attr) is not original
        ]
        self._saved.clear()
        self.installed = False
        if leftovers:
            raise RuntimeError(f"tracer left wrapped bindings: {leftovers}")

    def mark(self, phase: str) -> None:
        """Start a phase: spans and kernel counts after this belong to it."""
        self.phase_marks.append((phase, len(self.spans), {k: list(v) for k, v in self.kernels.items()}))

    # -- output -----------------------------------------------------------
    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid, (idx, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{self.names[idx]},{t0},{t1}\n")


# Small facts recorded with a span, used by the per-layer metrics.
def _solve_mode(args, kwargs):
    params = args[2] if len(args) > 2 else kwargs.get("params")
    return "plain" if params is None else params.mode


def _network_shape(args, kwargs):
    problem, graph = args[0], args[1]
    return (problem.n_total, problem.n_coupling, len(graph.edges))


def _qp_outcome(sol):
    return (sol.iterations, sol.status)


_PRE_HOOKS = {"admm.solve": _solve_mode, "admm.init_state": _network_shape}
_POST_HOOKS = {"qp.RepeatedQp.solve": _qp_outcome}


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans

_SUBPROBLEMS = ("admm.subproblem", "admm.accelerated_subproblem")
_CLI_COMMANDS = {
    "gen": "cli.cmd_gen",
    "validate": "cli.cmd_validate",
    "solve": "cli.cmd_solve",
    "mechanism": "cli.cmd_mechanism",
    "sweep": "cli.cmd_misreport_sweep",
    "portfolio": "cli.cmd_misreport_portfolio",
}


def layer_metrics(tr: Tracer, n_cycles: int) -> dict[str, float]:
    """Per-layer counts and times. Spans recorded before the ``cycle`` mark
    (one traced set-up) count once; later ones are averaged over the
    ``n_cycles`` traced cycles. Times are in seconds unless named ``_ms``."""
    spans, names = tr.spans, tr.names
    cycle_start = next((pos for phase, pos, _ in tr.phase_marks if phase == "cycle"), len(spans))
    n = len(spans)
    name = [names[s[0]] for s in spans]
    parent = [s[1] for s in spans]
    dur = [(s[3] - s[2]) * 1e-9 for s in spans]
    child = [0.0] * n
    for sid in range(n):
        if parent[sid] >= 0:
            child[parent[sid]] += dur[sid]
    weight = [1.0 if sid < cycle_start else 1.0 / n_cycles for sid in range(n)]

    def nearest(targets) -> list[int]:
        """Nearest strict ancestor whose name is in ``targets``, else -1."""
        out = [-1] * n
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                out[sid] = p if name[p] in targets else out[p]
        return out

    def total(pred, value=None) -> float:
        return sum(weight[s] * (dur[s] if value is None else value(s)) for s in range(n) if pred(s))

    def count(pred) -> float:
        return sum(weight[s] for s in range(n) if pred(s))

    def named(*wanted):
        return lambda s: name[s] in wanted

    in_random_network = nearest({"transport.random_network"})
    in_vcg = nearest({"mechanisms.vcg_payments"})
    in_subproblem = nearest(set(_SUBPROBLEMS))
    in_iterate = nearest({"admm.iterate"})
    in_solve = nearest({"admm.solve"})
    qp_solve = named("qp.RepeatedQp.solve")
    cold = lambda s: qp_solve(s) and parent[s] >= 0 and name[parent[s]] == "qp.solve_qp"
    warm = lambda s: qp_solve(s) and not cold(s)

    # Kernel counters, split into the set-up part and the per-cycle part.
    setup_k = next((k for phase, _, k in tr.phase_marks if phase == "cycle"), {})

    def kernel(kname: str, field: int) -> float:
        end = tr.kernels.get(kname, [0, 0, 0.0, 0.0])[field]
        start = setup_k.get(kname, [0, 0, 0.0, 0.0])[field]
        return start + (end - start) / n_cycles

    m: dict[str, float] = {}
    # transport
    draws = count(lambda s: name[s] == "transport.build_instance" and in_random_network[s] >= 0)
    m["transport.random_instance_s"] = total(named("transport.random_instance"))
    m["transport.draws"] = draws
    m["transport.draw_accept_ratio"] = count(named("transport.random_network")) / draws if draws else 0.0
    screens = lambda s: name[s] == "problem.centralized_solve" and in_random_network[s] >= 0
    m["transport.screen_solves"] = count(screens)
    m["transport.screen_solve_s"] = total(screens)
    m["transport.build_instance_s"] = total(named("transport.build_instance"))
    m["transport.reported_rebuilds"] = count(named("transport.TransportInstance.with_reported_costs"))
    m["transport.reported_rebuild_s"] = total(named("transport.TransportInstance.with_reported_costs"))
    # problem
    m["problem.centralized_solve_calls"] = count(named("problem.centralized_solve"))
    m["problem.centralized_solve_s"] = total(named("problem.centralized_solve"))
    m["problem.reconcile_dual_s"] = total(named("problem.reconcile_dual"))
    m["problem.exclude_agent_s"] = total(named("problem.exclude_agent"))
    # qp
    warm_n = count(warm)
    m["qp.cold_solves"] = count(named("qp.solve_qp"))
    m["qp.cold_solve_s"] = total(named("qp.solve_qp"))
    m["qp.splitting_iters"] = total(qp_solve, lambda s: tr.info[s][0])
    m["qp.kkt_solves"] = kernel("solve", 0)
    m["qp.kkt_solve_s"] = kernel("solve", 1) * 1e-9
    cold_n = count(cold)
    m["qp.kkt_solves_per_result"] = total(cold, lambda s: tr.kkt_calls.get(s, 0)) / cold_n if cold_n else 0.0
    m["qp.lstsq_fallbacks"] = kernel("lstsq", 0)
    m["qp.lstsq_s"] = kernel("lstsq", 1) * 1e-9
    m["qp.lu_factors"] = kernel("lu_factor", 0)
    m["qp.lu_solves"] = kernel("lu_solve", 0)
    m["qp.kkt_gflop_computed"] = kernel("solve", 2) * 1e-9
    m["qp.kkt_mbytes_computed"] = kernel("solve", 3) * 1e-6
    m["qp.max_iter_results"] = count(lambda s: qp_solve(s) and tr.info[s][1] == "max_iter")
    m["qp.warm_solves"] = warm_n
    m["qp.warm_solve_s"] = total(warm)
    m["qp.warm_hit_ratio"] = count(lambda s: warm(s) and tr.info[s][0] == 0) / warm_n if warm_n else 0.0
    # admm
    rounds = [s for s in range(n) if name[s] == "admm.iterate"]
    m["admm.rounds"] = count(named("admm.iterate"))
    m["admm.round_ms.p50"] = 1e3 * float(np.median([dur[s] for s in rounds])) if rounds else 0.0
    m["admm.init_state_s"] = total(named("admm.init_state"))
    m["admm.mix_s"] = total(named("admm.communication_round_tracking"))
    m["admm.subproblem_s"] = total(lambda s: name[s] in _SUBPROBLEMS and in_subproblem[s] < 0)
    m["admm.subproblem_qp_s"] = total(lambda s: qp_solve(s) and in_subproblem[s] >= 0)
    m["admm.recursion_s"] = total(named("admm.iterate"), lambda s: dur[s] - child[s])
    m["admm.metrics_s"] = total(named("admm.metrics"))
    accel_rounds = {s for s in rounds if in_solve[s] >= 0 and tr.info.get(in_solve[s]) == "accelerated"}
    accel_time = sum(weight[s] * dur[s] for s in accel_rounds)
    accel_qp = total(lambda s: qp_solve(s) and in_iterate[s] in accel_rounds)
    m["admm.nonqp_round_share"] = 1.0 - accel_qp / accel_time if accel_time else 0.0
    shapes = {in_solve[s]: tr.info[s] for s in range(n) if name[s] == "admm.init_state"}
    msgs = bytes_ = 0.0
    for s in rounds:
        n_total, n_coupling, n_edges = shapes.get(in_solve[s], (0, 0, 0))
        # Per round every agent sends (eta, lam) and then delta to each neighbour.
        msgs += weight[s] * 4 * n_edges
        bytes_ += weight[s] * 2 * n_edges * 8 * (2 * n_coupling + n_total)
    m["admm.msgs_per_round_computed"] = msgs / m["admm.rounds"] if rounds else 0.0
    m["admm.bytes_per_round_computed"] = bytes_ / m["admm.rounds"] if rounds else 0.0
    # mechanisms
    m["mechanisms.vcg_s"] = total(named("mechanisms.vcg_payments"))
    m["mechanisms.vcg_inner_solves"] = count(lambda s: name[s] == "problem.centralized_solve" and in_vcg[s] >= 0)
    m["mechanisms.sp_for_problem_calls"] = count(named("mechanisms.sp_for_problem"))
    m["mechanisms.sp_for_problem_s"] = total(named("mechanisms.sp_for_problem"))
    m["mechanisms.shadow_prices_s"] = total(named("mechanisms.shadow_prices"))
    # graphs
    m["graphs.build_s"] = total(named("graphs.random_connected_graph", "graphs.metropolis_weights"))
    # cli
    for short, fn in _CLI_COMMANDS.items():
        m[f"cli.{short}_s"] = total(named(fn))
    m["cli.self_s"] = total(lambda s: name[s].startswith("cli."), lambda s: dur[s] - child[s])
    m["trace.spans"] = float(count(lambda s: True))
    return m
