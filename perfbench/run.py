"""Benchmark for disqo: end-to-end metrics from an untraced run, per-layer
metrics from a traced one.

    python3 perfbench/run.py --workload market --seed 1 --seconds 15 --trace 0

Workloads are ``market``, ``consensus`` and ``desk_cli`` (see NOTES.md), or
``all`` to run the three in turn. The program is imported from ``src/`` of
the checkout this file sits in; nothing else is used. The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it are a readable summary. A full record
(provenance, every operation, every failed check) is written to
``.bench_out/`` at the checkout root.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import gc
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

# One BLAS thread for this process only (at most nproc): the matrices are
# small, and threads would add scheduling noise to every timing.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
P90_MIN_SAMPLES = 100  # report a p90 only with >= 10 samples beyond it


def _percentile(values, q: float) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]) if len(values) > 1 else float(values[0])


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# Provenance


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _openblas() -> list[dict]:
    """Config string and thread count of each OpenBLAS loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    out = []
    for path in libs:
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            entry["error"] = str(exc)
            out.append(entry)
            continue
        for key, stem, restype in (("config", "get_config", ctypes.c_char_p), ("threads", "get_num_threads", ctypes.c_int)):
            for prefix in ("scipy_openblas_", "openblas_"):
                for suffix in ("64_", ""):
                    fn = getattr(lib, f"{prefix}{stem}{suffix}", None)
                    if fn is not None and key not in entry:
                        fn.restype = restype
                        fn.argtypes = []
                        value = fn()
                        entry[key] = value.decode() if isinstance(value, bytes) else value
        out.append(entry)
    return out


def provenance() -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "openblas": _openblas(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Running operations


class Log:
    """Timings and check results of the operations of one run."""

    def __init__(self):
        self.ops: list[dict] = []
        self.failures: list[str] = []

    def record(self, op, seconds: float, errors: list[str]) -> None:
        self.ops.append({"kind": op.kind, "label": op.label, "s": seconds, "cases": op.cases, "ok": not errors})
        self.failures.extend(errors)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.ops if not o["ok"])

    def times(self, *kinds) -> list[float]:
        return [o["s"] for o in self.ops if not kinds or o["kind"] in kinds or o["kind"].split(":")[0] in kinds]


def _timed(op):
    """Run one operation; return (seconds, result or None, errors)."""
    t0 = time.perf_counter()
    try:
        raw = op.run()
    except Exception as exc:  # a failed operation is counted, and the run goes on
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return seconds, None, [f"{op.kind} {op.label}: {type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - t0
    try:
        return seconds, op.finish(raw), []
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return seconds, None, [f"{op.kind} {op.label}: output unreadable: {type(exc).__name__}: {exc}"]


def _check(op, result, errors: list[str]) -> list[str]:
    if errors:
        return errors
    try:
        return list(op.check(result))
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return [f"{op.kind} {op.label}: check raised {type(exc).__name__}: {exc}"]


def kind_metrics(log: Log) -> dict[str, tuple[float, str, int]]:
    """The per-operation-kind numbers: name -> (value, unit, samples)."""
    out: dict[str, tuple[float, str, int]] = {}

    def p50(name, kinds):
        t = log.times(*kinds)
        out[name] = (_median(t), "s", len(t))

    p50("central_solve_s.p50", ("central",))
    p50("vcg_s.p50", ("vcg",))
    cases = [o for o in log.ops if o["kind"] in ("sweep", "portfolio")]
    per_case = [o["s"] / o["cases"] for o in cases for _ in range(o["cases"])]
    out["misreport_case_s.p50"] = (_median(per_case), "s", len(per_case))
    busy = sum(o["s"] for o in cases)
    out["misreport_cases_per_s"] = (len(per_case) / busy if busy else 0.0, "1/s", len(per_case))
    p50("solve_plain_s.p50", ("solve_plain",))
    p50("solve_accel_s.p50", ("solve_accel",))
    cmds = log.times("cli")
    p50("cli_cmd_s.p50", ("cli",))
    if len(cmds) >= P90_MIN_SAMPLES:
        out["cli_cmd_s.p90"] = (_percentile(cmds, 90), "s", len(cmds))
    out["cli_cmds_per_s"] = (len(cmds) / sum(cmds) if cmds else 0.0, "1/s", len(cmds))
    attempted = len(log.ops)
    out["ops_failed_frac"] = (log.failed / attempted if attempted else 0.0, "ratio", attempted)
    return out


def _setup(wl, seed: int, workdir: str, reps: int) -> tuple[object, list[float]]:
    times, inputs, first = [], None, None
    for _ in range(reps):
        t0 = time.perf_counter()
        got = wl.setup(seed, workdir)
        times.append(time.perf_counter() - t0)
        blob = pickle.dumps(got)
        if first is None:
            inputs, first = got, blob
        elif blob != first:
            raise RuntimeError(f"{wl.name}: set-up is not deterministic for seed {seed}")
    return inputs, times


def _settle() -> None:
    """Collect, then freeze the objects made so far (modules, inputs) so the
    collector's full passes during timing scan only what operations allocate."""
    gc.collect()
    gc.freeze()


def run_untraced(wl, seed: int, seconds: float, workdir: str, import_s: float):
    import numpy as np

    inputs, setup_times = _setup(wl, seed, workdir, SETUP_REPS)
    if wl.warmup is not None:
        wl.warmup(inputs, workdir)
    rng = np.random.default_rng([seed, 1])
    log, cycle_times = Log(), []
    _settle()
    t_start = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        busy = 0.0
        for op in wl.cycle(inputs, rng, workdir):
            dt, result, errors = _timed(op)
            log.record(op, dt, _check(op, result, errors))
            busy += dt
        cycle_times.append(busy)
        if len(cycle_times) == 1:  # later cycles repeat the same work
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        if (now - t_start) + (now - t_cycle) > seconds:
            break
    e2e = {
        "setup_s": (import_s + _median(setup_times), "s", len(setup_times)),
        "cycle_s": (_median(cycle_times), "s", len(cycle_times)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    detail = {"import_s": import_s, "setup_reps_s": setup_times, "cycles": len(cycle_times), "cycle_s": cycle_times}
    return log, e2e, kind_metrics(log), detail


def run_traced(wl, seed: int, seconds: float, workdir: str, modules, span_path: Path):
    """Each set-up and operation runs untraced, then traced; outputs must agree."""
    import numpy as np

    import tracing
    from workloads import same_fingerprint

    tracer = tracing.Tracer(extra_modules=modules)
    inputs, (untraced_setup,) = _setup(wl, seed, workdir, 1)
    if wl.warmup is not None:
        wl.warmup(inputs, workdir)
    tracer.mark("setup")
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced_inputs = wl.setup(seed, workdir)
        traced_setup = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    log = Log()
    if pickle.dumps(traced_inputs) != pickle.dumps(inputs):
        log.failures.append("traced set-up built different inputs")
    tracer.mark("cycle")
    rng = np.random.default_rng([seed, 1])
    _settle()
    untraced_total, traced_total, cycles, csv_bytes = untraced_setup, traced_setup, 0, 0
    t_start = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        for op in wl.cycle(inputs, rng, workdir):
            dt, result, errors = _timed(op)
            errors = _check(op, result, errors)
            tracer.install()
            try:
                dt_traced, traced, traced_errors = _timed(op)
            finally:
                tracer.uninstall()
            if not errors and not traced_errors and not same_fingerprint(op.fingerprint(result), op.fingerprint(traced)):
                errors.append(f"{op.kind} {op.label}: traced and untraced outputs differ")
            log.record(op, dt, errors + traced_errors)
            untraced_total += dt
            traced_total += dt_traced
            csv_bytes += sum(len(v) for v in getattr(traced, "csvs", {}).values())
        cycles += 1
        now = time.perf_counter()
        if (now - t_start) + (now - t_cycle) > seconds:
            break
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(span_path)
    layers = tracing.layer_metrics(tracer, cycles)
    layers["cli.csv_bytes"] = csv_bytes / cycles
    layers["trace.overhead_frac"] = traced_total / untraced_total - 1.0
    detail = {"cycles": cycles, "untraced_s": untraced_total, "traced_s": traced_total, "spans_file": str(span_path.relative_to(ROOT))}
    return log, layers, kind_metrics(log), detail


# ---------------------------------------------------------------------------
# Entry point


def _load_benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float) -> tuple[dict, list[str]]:
    import checks
    import netgen
    import workloads

    spec = _load_benchmark_spec()
    wl = workloads.WORKLOADS[name]
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    try:
        if trace:
            log, layers, kinds, detail = run_traced(wl, seed, seconds, str(workdir), (workloads, netgen, checks), OUT / f"spans-{tag}.csv.gz")
            layers.update({k: v[0] for k, v in kinds.items()})
            metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]} for m in spec["per_layer"]}
            samples = {k: v[2] for k, v in kinds.items()}
        else:
            log, e2e, kinds, detail = run_untraced(wl, seed, seconds, str(workdir), import_s)
            metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
            samples = {k: v[2] for k, v in {**e2e, **kinds}.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": not log.failures and log.failed == 0, "attempted": len(log.ops), "failed": log.failed, "metrics": metrics}
    lines = [f"# {name} seed={seed} trace={int(trace)}: {len(log.ops)} ops, {log.failed} failed, {detail['cycles']} cycle(s)"]
    shown = dict(metrics)
    if not trace:
        shown.update({k: {"value": v[0], "unit": v[1]} for k, v in kinds.items() if v[2]})
    for key, m in shown.items():
        n = samples.get(key)
        lines.append(f"#   {key:34s} {m['value']:>14.6g} {m['unit']:6s}" + (f" n={n}" if n is not None else ""))
    by_op: dict = {}
    for o in log.ops:
        by_op.setdefault((o["kind"], o["label"]), []).append(o["s"])
    if len(by_op) <= 16:  # market and consensus: one line per scripted operation
        for (kind, label), t in sorted(by_op.items(), key=lambda item: (item[0][1], item[0][0])):
            lines.append(f"#   op {kind:12s} {label:20s} {_median(t):>14.6g} s      n={len(t)}")
    for msg in log.failures[:20]:
        lines.append(f"# FAILED: {msg}")
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "result": result,
        "kind_metrics": {k: {"value": v[0], "unit": v[1], "samples": v[2]} for k, v in kinds.items()},
        "samples": samples,
        "detail": detail,
        "provenance": provenance(),
        "failures": log.failures,
        "ops": log.ops,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("market", "consensus", "desk_cli", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "disqo" / "__init__.py").is_file():
        print(f"perfbench: no disqo sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import disqo  # noqa: F401  (timed as part of set-up)
    import workloads  # noqa: F401

    if Path(disqo.__file__).resolve().parent != (SRC / "disqo").resolve():
        print(f"perfbench: imported disqo from {disqo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0

    names = ("market", "consensus", "desk_cli") if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace), import_s)
        print("\n".join(lines), flush=True)
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}/{k}": v for n, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
