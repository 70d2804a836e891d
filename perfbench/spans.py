"""Span tracing from outside the program.

The tracer replaces the public functions of foldcast's modules with wrappers
that record one span per call: the layer name, the thread, start and end in
nanoseconds, and the span that caused it.  Spans are kept in memory and
written out once, when the run ends.  Nothing under ``src/`` is touched: a
function imported by name into another module (``forecaster`` imports
``render`` and ``reconstruct`` that way) is wrapped at every module attribute
bound to it, so each call site is seen.
"""

from __future__ import annotations

import sys
import threading
import time

# Layer table: the public functions whose calls the traced run times, by the
# module that defines them.  A class method is written "Class.method".
LAYERS = {
    "data": ("load_csv", "windows"),
    "rendering": (
        "render", "reconstruct", "reconstruct_backward",
        "resize_bilinear", "resize_bilinear_backward",
    ),
    "sma": ("sma_forward", "sma_backward"),
    "adapter": ("tga_forward", "tga_backward", "lora_project", "lora_project_backward"),
    "backbone": (
        "autoencode", "autoencode_backward", "embed", "encode", "encode_backward",
        "decode_with_mask_tokens", "decode_backward", "save_weights", "read_weights",
    ),
    "forecaster": (
        "ForecastModel.forward", "ForecastModel.loss_and_grads", "adam_step", "evaluate",
    ),
    "spectral": (
        "power_centered", "radial_average", "fit_power_law",
        "synth_power_law_image", "pss_of_series",
    ),
}

# Functions that call other wrapped functions; they also report total time.
PARENTS = (
    "rendering.render", "rendering.reconstruct", "rendering.reconstruct_backward",
    "backbone.autoencode", "backbone.autoencode_backward", "backbone.encode",
    "backbone.encode_backward", "backbone.decode_with_mask_tokens", "backbone.decode_backward",
    "forecaster.ForecastModel.forward", "forecaster.ForecastModel.loss_and_grads",
    "forecaster.evaluate", "spectral.pss_of_series",
)


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    out = []
    for name in span_names():
        out += [f"{name}.self_s", f"{name}.calls"]
        if name in PARENTS:
            out.append(f"{name}.total_s")
    return out + ["trace.overhead_s", "trace.overhead_pct", "trace.spans"]


class Tracer:
    """Wraps foldcast's public functions and records spans while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, thread, start_ns, end_ns, parent span]
        self._stacks: dict[int, list] = {}
        self._main = threading.main_thread().ident
        self._undo: list[tuple] = []

    # -- wrapping --------------------------------------------------------

    def install(self) -> None:
        import importlib

        modules = {m: importlib.import_module(f"foldcast.{m}") for m in LAYERS}
        package_modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "foldcast" or key.startswith("foldcast.")
        ]
        for mod_name, fns in LAYERS.items():
            for fn in fns:
                name = f"{mod_name}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(modules[mod_name], cls_name)
                    self._replace(cls, meth, getattr(cls, meth), name)
                    continue
                target = getattr(modules[mod_name], fn)
                for mod in package_modules:
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            self._replace(mod, attr, target, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr, original, name) -> None:
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = [name, threading.get_ident(), clock(), 0, tracer._parent(stack)]
            tracer.spans.append(span)
            stack.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _stack(self) -> list:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks.setdefault(tid, [])
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A worker thread's outermost span was caused by the call that is
        # open on the main thread (the one that started the pool).
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    # -- results ---------------------------------------------------------

    def take(self) -> list[list]:
        """Return the spans recorded since the last call and start afresh."""
        spans, self.spans = self.spans, []
        return spans

    def write(self, path, phases: list[tuple[str, list[list]]]) -> None:
        """Write spans as tab-separated lines: phase, index, name, thread,
        start_ns, end_ns, parent index (-1 for none)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("phase\tindex\tname\tthread\tstart_ns\tend_ns\tparent\n")
            for phase, spans in phases:
                index = {id(s): i for i, s in enumerate(spans)}
                for i, (name, tid, t0, t1, parent) in enumerate(spans):
                    p = index.get(id(parent), -1) if parent is not None else -1
                    fh.write(f"{phase}\t{i}\t{name}\t{tid}\t{t0}\t{t1}\t{p}\n")


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the part of its interval that its
    child spans cover (children on worker threads may overlap each other, so
    the union of their intervals is subtracted, not their sum).
    """
    children: dict[int, list] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(id(s[4]), []).append(s)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        name, _, t0, t1, _ = s
        covered = 0
        cursor = t0
        for c in sorted(children.get(id(s), ()), key=lambda c: c[2]):
            lo, hi = max(c[2], cursor), min(c[3], t1)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["total_s"] += (t1 - t0) * 1e-9
        rec["self_s"] += (t1 - t0 - covered) * 1e-9
    return out


def per_pass(setup_spans: list[list], round_spans: list[list[list]]) -> dict:
    """Per-layer metrics for one pass: the traced set-up plus the mean of the
    traced rounds.  Functions the workload never calls read 0."""
    totals: dict[str, float] = {}
    weighted = [(setup_spans, 1.0)] + [(s, 1.0 / len(round_spans)) for s in round_spans]
    for spans, weight in weighted:
        for name, rec in aggregate(spans).items():
            for key, value in rec.items():
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0.0) + weight * value
    out = {}
    for k in metric_names():
        if not k.startswith("trace."):
            unit = "count" if k.endswith(".calls") else "s"
            out[k] = {"value": totals.get(k, 0.0), "unit": unit}
    out["trace.spans"] = {"value": sum(len(s) * w for s, w in weighted), "unit": "count"}
    return out
