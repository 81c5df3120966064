"""Workload process: runs one workload for a time budget and prints its metrics.

Started by run.py in a fresh interpreter, so that import cost, set-up and
peak memory belong to this workload alone.  Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --out-dir DIR [--scale full|smoke] [--setup-only]

The last line of standard output is one JSON object (see ``main``).
"""
from __future__ import annotations

import argparse
import cmath
import contextlib
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402  (benchmark-local modules, found through sys.path[0])
import workloads  # noqa: E402
from tracer import LAYERS, NUMPY_FAMILIES, Tracer  # noqa: E402

# (function, metric) pairs reported from the traced run, besides per-layer totals.
FUNCTION_METRICS = (
    ("linalg.resolvent_solve", "calls"),
    ("linalg.resolvent_solve", "self_ms"),
    ("determinants.determining_det", "calls"),
    ("determinants.determining_det", "self_ms"),
    ("homogeneity.resolvent_norm_probe", "self_ms"),
    ("traceforms.tracial_form", "self_ms"),
    ("traceforms.eval_poly_at_operator", "calls"),
    ("traceforms.eval_poly_at_operator", "self_ms"),
    ("mobius.apply_to_operator", "self_ms"),
    ("mobius.mobius_eval", "calls"),
    ("homogeneity.transformed_symbol_curve", "self_ms"),
    ("principal.winding_number", "calls"),
    ("principal.winding_number", "self_ms"),
    ("principal.disc_cauchy_exponential", "self_ms"),
    ("shifts.materialize", "calls"),
    ("shifts.materialize", "self_ms"),
    ("cli.parse_config", "self_ms"),
)
COUNTER_METRICS = (
    ("shifts.weights_generated", "count"),
    ("shifts.dense_bytes", "B"),
    ("numpy.dense_bytes", "B"),
    ("principal.curve_points", "count"),
    ("reporting.bytes_written", "B"),
)


class Library:
    """The package's public modules, looked up by attribute at every call so that
    the tracer's patches apply."""

    def __init__(self):
        self.cli = importlib.import_module("hyposhift.cli")
        self.reporting = importlib.import_module("hyposhift.reporting")
        self.shifts = importlib.import_module("hyposhift.shifts")
        self.mobius = importlib.import_module("hyposhift.mobius")
        self.principal = importlib.import_module("hyposhift.principal")

    def model(self, weights):
        wrap = getattr(self.shifts, "shift_model", None)
        return wrap(weights) if wrap is not None else weights

    def dense_shift(self, dim: int):
        materialize = getattr(self.shifts, "materialize", None)
        if materialize is None:
            import numpy as np

            return np.eye(dim, k=-1, dtype=np.complex128)
        return materialize(self.model(self.shifts.unilateral()), dim)


def execute(op: workloads.Op, lib: Library, out_dir: Path, index: int):
    """Run one operation through the public API; return what verify() needs."""
    p = op.payload
    if op.kind == "config":
        json_path, csv_path = str(out_dir / f"op{index}.json"), str(out_dir / f"op{index}.csv")
        report = lib.cli.run_experiment(lib.cli.parse_config(p["config"]))
        lib.reporting.write_report(report, json_path)
        lib.reporting.write_checks_csv(report, csv_path)
        return json_path, csv_path
    if op.kind == "grid":
        path = str(out_dir / f"op{index}.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            code = lib.cli.main(p["argv"] + ["--out", path])
        return code, path
    if op.kind == "mobius_window":
        phi = lib.mobius.MobiusMap(beta=cmath.exp(1j * p["beta_arg"]), a=workloads.unpair(p["a"]))
        t = lib.dense_shift(p["dim"])
        return lib.mobius.transformed_commutator_window(phi, t, p["window"])
    if op.kind == "commutator_diagonal":
        model = lib.model(lib.shifts.rational_family(p["lambda"]))
        return lib.shifts.exact_commutator_diagonal(model, p["n"])
    if op.kind == "disc_cauchy":
        grid = lib.principal.constant_grid(1.0, p["n"], p["n"])
        z, w = workloads.unpair(p["z"]), workloads.unpair(p["w"])
        return lib.principal.disc_cauchy_exponential(grid, z, w)
    raise ValueError(f"unknown operation kind {op.kind!r}")


def verify(op: workloads.Op, result) -> list[str]:
    p, ref = op.payload, op.reference
    if op.kind == "config":
        return checks.check_written_report(p["config"], *result)
    if op.kind == "grid":
        return checks.check_grid(*result, ref["g"])
    if op.kind == "mobius_window":
        return checks.check_mobius_window(
            result, workloads.unpair(p["a"]), p["window"], ref["tolerance"]
        )
    if op.kind == "commutator_diagonal":
        return checks.check_commutator_diagonal(result, p["lambda"], p["n"], ref["tolerance"])
    if op.kind == "disc_cauchy":
        return checks.check_disc_cauchy(
            result, workloads.unpair(p["z"]), workloads.unpair(p["w"]), ref["tolerance"]
        )
    raise ValueError(f"unknown operation kind {op.kind!r}")


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_pass(ops, lib, out_dir):
    """One pass over every operation: (op seconds, problems per op, cpu seconds).

    Only ``execute`` is timed; the benchmark's own checks run outside the clock.
    """
    times, problems = [], []
    cpu0 = cpu_seconds()
    for index, op in enumerate(ops):
        start = time.perf_counter()
        try:
            result = execute(op, lib, out_dir, index)
        except Exception as exc:  # a raising operation is a failed operation
            times.append(time.perf_counter() - start)
            tb = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            problems.append([f"raised {type(exc).__name__}: {tb}"])
            continue
        times.append(time.perf_counter() - start)
        try:
            problems.append(verify(op, result))
        except Exception as exc:  # unreadable output also fails the operation
            problems.append([f"verification raised {type(exc).__name__}: {exc}"])
    return times, problems, cpu_seconds() - cpu0


def measure(ops, lib, out_dir, budget_s: float, tracer: Tracer | None = None):
    """Rounds of passes until the next round would overrun the budget; at least one.

    A round is one untraced pass, followed by one traced pass when a tracer is
    given, so drift in the host's speed falls on both sides of
    trace.overhead_ratio alike.  Returns (untraced passes, traced passes).
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(ops, lib, out_dir))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(ops, lib, out_dir))
            finally:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(untraced) > budget_s:
            return untraced, traced


def pass_seconds(passes) -> list[float]:
    return [sum(times) for times, _, _ in passes]


def tally(passes) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    examples = []
    for _, problems, _ in passes:
        for op_problems in problems:
            attempted += 1
            if op_problems:
                failed += 1
                if len(examples) < 5:
                    examples.extend(op_problems[:1])
    return attempted, failed, examples


def latency_metrics(ops, passes, quantile: float) -> tuple[dict, dict]:
    """End-to-end timings, robust to bursts that slow one operation of one pass.

    pass_s: sum over operations of each operation's median latency.
    op_p50_ms: median over operations of each operation's median latency.
    op_tail_ms: nearest-rank ``quantile`` of every sample, stated with the
    number of samples beyond it.
    """
    per_op = [statistics.median(p[0][i] for p in passes) for i in range(len(ops))]
    samples = sorted(t for times, _, _ in passes for t in times)
    rank = min(len(samples), max(1, math.ceil(round(quantile * len(samples), 9)))) - 1
    metrics = {
        "pass_s": (sum(per_op), "s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_tail_ms": (samples[rank] * 1e3, "ms"),
    }
    detail = {
        "tail_percentile": quantile * 100,
        "op_samples": len(samples),
        "samples_beyond_tail": len(samples) - rank - 1,
    }
    return metrics, detail


def layer_metrics(tracer: Tracer, traced_passes: int) -> dict:
    per = 1.0 / traced_passes
    out = {}
    for layer in LAYERS:
        calls, busy, own, errors = tracer.layer_stat(layer)
        out[f"{layer}.calls"] = (calls * per, "count")
        out[f"{layer}.busy_ms"] = (busy * 1e3 * per, "ms")
        out[f"{layer}.self_ms"] = (own * 1e3 * per, "ms")
        out[f"{layer}.errors"] = (errors * per, "count")
    for key, metric in FUNCTION_METRICS:
        calls, _total, own, _errors = tracer.function_stat(key)
        out[f"{key}.{metric}"] = (
            (calls * per, "count") if metric == "calls" else (own * 1e3 * per, "ms")
        )
    for family, names in NUMPY_FAMILIES.items():
        if family == "other":
            continue
        stats = [tracer.function_stat(f"numpy.{family}.{name}") for name in names]
        out[f"numpy.{family}.calls"] = (sum(s[0] for s in stats) * per, "count")
        out[f"numpy.{family}.ms"] = (sum(s[1] for s in stats) * 1e3 * per, "ms")
    for name, unit in COUNTER_METRICS:
        out[name] = (tracer.counters[name] * per, unit)
    computed = tracer.counters["traceforms.computed_entries"]
    used = tracer.counters["traceforms.useful_entries"]
    out["traceforms.useful_entry_ratio"] = (used / computed if computed else 0.0, "ratio")
    solves = out["numpy.solve.calls"][0]
    out["numpy.svd_per_solve"] = (out["numpy.svd.calls"][0] / solves if solves else 0.0, "ratio")
    return out


def metric_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"blas": blas.get("name"), "blas_version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"blas": "unknown", "blas_version": "unknown"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import hyposhift

    src = (ROOT / "src").resolve()
    if src not in Path(hyposhift.__file__).resolve().parents:
        print(f"error: imported hyposhift from {hyposhift.__file__}, not {src}", file=sys.stderr)
        return 2
    lib = Library()
    ops = workloads.build(args.workload, args.seed, args.scale, ROOT / "configs")
    if args.setup_only:
        return 0

    out_dir = Path(args.out_dir)
    # warm-up at smoke scale: lazy imports, BLAS start-up and first-touch pages
    warm = workloads.build(args.workload, args.seed, "smoke", ROOT / "configs")
    _, warm_failed, warm_examples = tally([run_pass(warm, lib, out_dir)])

    if args.trace:
        tracer = Tracer()
        untraced, measured = measure(ops, lib, out_dir, args.seconds, tracer)
        traced_pass = statistics.median(pass_seconds(measured))
        untraced_pass = statistics.median(pass_seconds(untraced))
        metrics = layer_metrics(tracer, len(measured))
        metrics["process.cpu_s"] = (statistics.median(c for _, _, c in untraced), "s")
        metrics["trace.overhead_ratio"] = (traced_pass / untraced_pass, "ratio")
        metrics["trace.coverage_ratio"] = (
            tracer.top_level_s() / sum(pass_seconds(measured)), "ratio"
        )
        tracer.write_spans(str(out_dir / "spans.csv"))
        detail = {"traced_passes": len(measured), "untraced_passes": len(untraced),
                  "notes": tracer.notes}
        all_passes = untraced + measured
    else:
        measured, _ = measure(ops, lib, out_dir, args.seconds)
        all_passes = measured
        metrics, detail = latency_metrics(ops, measured, workloads.TAIL_QUANTILE)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        detail["pass_times_s"] = pass_seconds(measured)
        (out_dir / "op_times_s.json").write_text(json.dumps({
            "labels": [op.label for op in ops], "passes": [t for t, _, _ in measured],
        }))

    attempted, failed, examples = tally(all_passes)
    failed_ratio = failed / attempted
    if args.trace:
        metrics["process.failed_op_ratio"] = (failed_ratio, "ratio")
    detail.update({
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "ops_per_pass": len(ops), "input_sha256": workloads.input_hash(ops),
        "failed_op_ratio": failed_ratio, "failures": examples + warm_examples,
        "warmup_failed": warm_failed, **blas_info(),
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and warm_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metric_json(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
