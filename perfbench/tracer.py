"""In-memory span tracer that wraps the package's public functions by name.

Every public function defined in a layer module is replaced by a wrapper, and
the same function object is replaced wherever another ``hyposhift`` module
re-imported it, so nested calls produce nested spans and self time is
computable.  The numpy pseudo-layer wraps the ``numpy.linalg`` attributes the
modules look up at call time.  Nothing is written until ``write_spans``.

Missing symbols are not errors: a named function that a refactor deleted
records zero calls and a note, so the benchmark survives the refactor.
Per-element scalars (``WeightSequence.weight``, ``BivariatePolynomial.eval``)
are never wrapped; their work is counted from the argument sizes of the
vector-level callers through ``COUNT_HOOKS``.
"""
from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

PACKAGE = "hyposhift"
LAYERS = (
    "cli",
    "reporting",
    "shifts",
    "linalg",
    "determinants",
    "mobius",
    "principal",
    "traceforms",
    "homogeneity",
    "numpy",
)
# Methods wrapped on top of the module-level public functions.
METHODS = {"shifts": (("WeightSequence", "weights"),)}
# numpy.linalg entry points forming the numpy pseudo-layer, grouped into the
# kernel families the per-layer metrics name.
NUMPY_FAMILIES = {
    "svd": ("svd",),
    "solve": ("solve", "inv", "lstsq"),
    "eig": ("eig", "eigvals", "eigh", "eigvalsh"),
    "other": ("det", "slogdet", "norm", "qr", "cholesky", "pinv", "matrix_power"),
}


def _poly_degree(poly) -> int:
    """Combined z / conj(z) degree, read from the (j, k) coefficient keys."""
    keys = [jk for jk, _ in getattr(poly, "coeffs", ())]
    return max((j for j, _ in keys), default=0) + max((k for _, k in keys), default=0)


class Tracer:
    """Spans and counters for one traced run; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.stats = {}  # "layer.func" -> [calls, total_s, self_s, errors]
        self.layer_busy = defaultdict(float)
        self.layer_errors = defaultdict(int)
        self.counters = defaultdict(float)
        self.notes = []
        self.spans = []  # (span_id, parent_id, key, start, end, error)
        self._stack = []  # frames: [key, layer, start, child_s, span_id]
        self._depth = defaultdict(int)
        self._counting_weights = 0
        self._patches = []  # (owner, attr, original)

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, layer: str, key: str, fn):
        hook = COUNT_HOOKS.get(key)
        signature = None
        if hook is not None:
            try:
                signature = inspect.signature(fn)
            except (TypeError, ValueError):
                self._note(f"{key}: no signature, counters skipped")
                hook = None
        self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack, depth, clock, spans = self._stack, self._depth, time.perf_counter, self.spans

        def traced(*args, **kwargs):
            bound = None
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                except TypeError:
                    bound = None
                if bound is not None:
                    hook.before(self, bound)
            parent = stack[-1][4] if stack else -1
            span_id = len(spans) + len(stack)
            frame = [key, layer, clock(), 0.0, span_id]
            stack.append(frame)
            depth[layer] += 1
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                depth[layer] -= 1
                duration = end - frame[2]
                stat = self.stats[key]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[3]
                stat[3] += failed
                if stack:
                    stack[-1][3] += duration
                if depth[layer] == 0:
                    self.layer_busy[layer] += duration
                    self.layer_errors[layer] += failed
                spans.append((span_id, parent, key, frame[2], end, failed))
                if bound is not None:
                    hook.after(self, bound, failed)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and re-point every alias."""
        replacements = {}
        for layer in LAYERS:
            if layer == "numpy":
                continue
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self._note(f"layer {layer}: module missing")
                continue
            for name, obj in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                wrapper = self._wrap(layer, f"{layer}.{name}", obj)
                replacements[id(obj)] = (obj, wrapper)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(module, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if not inspect.isfunction(fn):
                    self._note(f"{layer}.{cls_name}.{meth}: missing")
                    continue
                self._patch(cls, meth, self._wrap(layer, f"{layer}.{cls_name}.{meth}", fn))
        linalg = importlib.import_module("numpy.linalg")
        for family, names in NUMPY_FAMILIES.items():
            for name in names:
                fn = getattr(linalg, name, None)
                if fn is None:
                    self._note(f"numpy.linalg.{name}: missing")
                    continue
                wrapper = self._wrap("numpy", f"numpy.{family}.{name}", fn)
                replacements[id(fn)] = (fn, wrapper)
                self._patch(linalg, name, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _note(self, note: str) -> None:
        if note not in self.notes:
            self.notes.append(note)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------
    def function_stat(self, key: str):
        """(calls, total_s, self_s, errors); zeros plus a note when never wrapped."""
        stat = self.stats.get(key)
        if stat is None:
            self._note(f"{key}: not found, reported as zero")
            return (0, 0.0, 0.0, 0)
        return tuple(stat)

    def layer_stat(self, layer: str):
        """(calls, busy_s, self_s, errors) summed over the layer's functions."""
        calls = self_s = 0.0
        prefix = layer + "."
        for key, (n, _total, own, _err) in self.stats.items():
            if key.startswith(prefix):
                calls += n
                self_s += own
        return calls, self.layer_busy[layer], self_s, self.layer_errors[layer]

    def top_level_s(self) -> float:
        return sum(end - start for _sid, parent, _k, start, end, _f in self.spans if parent == -1)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span_id,parent_id,name,start_us,end_us,error\n")
            t0 = self.spans[0][3] if self.spans else 0.0
            for sid, parent, key, start, end, failed in sorted(self.spans):
                fh.write(
                    f"{sid},{parent},{key},{(start - t0) * 1e6:.1f},"
                    f"{(end - t0) * 1e6:.1f},{int(failed)}\n"
                )


class _Hook:
    def before(self, tracer: Tracer, args: dict) -> None:
        pass

    def after(self, tracer: Tracer, args: dict, failed: bool) -> None:
        pass


class _WeightsHook(_Hook):
    """Weights generated, counted once at the outermost weight-producing call."""

    def __init__(self, size_arg: str, offset: int = 0, dense: bool = False):
        self.size_arg, self.offset, self.dense = size_arg, offset, dense

    def before(self, tracer, args):
        n = args.get(self.size_arg)
        if isinstance(n, int):
            if tracer._counting_weights == 0:
                tracer.counters["shifts.weights_generated"] += max(n + self.offset, 0)
            if self.dense:
                tracer.counters["shifts.dense_bytes"] += 16 * n * n
        tracer._counting_weights += 1

    def after(self, tracer, args, failed):
        tracer._counting_weights -= 1


class _NumpyHook(_Hook):
    def before(self, tracer, args):
        tracer.counters["numpy.dense_bytes"] += sum(
            int(v.nbytes) for v in args.values() if hasattr(v, "nbytes")
        )


class _TracialHook(_Hook):
    """Windowed diagonal entries used against the n^2 entries of the dense commutator."""

    def before(self, tracer, args):
        n = args.get("n")
        if isinstance(n, int):
            margin = _poly_degree(args.get("p")) + _poly_degree(args.get("q"))
            tracer.counters["traceforms.useful_entries"] += max(n - margin, 0)
            tracer.counters["traceforms.computed_entries"] += n * n


class _CurveHook(_Hook):
    def before(self, tracer, args):
        tracer.counters["principal.curve_points"] += len(args.get("curve", ()))


class _WrittenHook(_Hook):
    def after(self, tracer, args, failed):
        path = args.get("path")
        if not failed and isinstance(path, str) and os.path.exists(path):
            tracer.counters["reporting.bytes_written"] += os.path.getsize(path)


COUNT_HOOKS = {
    "shifts.materialize": _WeightsHook("n", offset=-1, dense=True),
    "shifts.WeightSequence.weights": _WeightsHook("n"),
    "traceforms.tracial_form": _TracialHook(),
    "principal.winding_number": _CurveHook(),
    "reporting.write_report": _WrittenHook(),
    "reporting.write_checks_csv": _WrittenHook(),
    "reporting.write_grid_csv": _WrittenHook(),
}
for _family, _names in NUMPY_FAMILIES.items():
    for _name in _names:
        COUNT_HOOKS[f"numpy.{_family}.{_name}"] = _NumpyHook()
