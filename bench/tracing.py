"""In-memory spans around the public functions of cspdclink.

A :class:`Tracer` wraps a function so that each call appends one span
(layer name, operation id, parent span, start, end, error) to an in-memory
list.  Nothing is written until the benchmark summarises the list at the end.
Spans are recorded only by these wrappers; the package itself is unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import time

# Layer name -> (module, function name) of the public function it wraps.
LAYERS = {
    "config.load_config": ("cspdclink.config", "load_config"),
    "cavity.find_main_cluster": ("cspdclink.cavity", "find_main_cluster"),
    "spectral.mode_table": ("cspdclink.spectral", "mode_table"),
    "spectral.jsi_approx": ("cspdclink.spectral", "jsi_approx"),
    "spectral.signal_spectrum_samples": ("cspdclink.spectral", "signal_spectrum_samples"),
    "tmsv.mean_photon_number": ("cspdclink.tmsv", "mean_photon_number"),
    "link.evaluate_link": ("cspdclink.link", "evaluate_link"),
    "link.solve_mu0_for_fidelity": ("cspdclink.link", "solve_mu0_for_fidelity"),
    "cli.main": ("cspdclink.cli", "main"),
}

# Modules whose import-time bindings of the functions above get patched, so
# that calls made inside the CLI (and find_main_cluster inside load_config)
# are traced too.
PATCHED_MODULES = ("cspdclink.cli", "cspdclink.config")


def _function(layer: str):
    import importlib

    module, name = LAYERS[layer]
    return getattr(importlib.import_module(module), name)


class Tracer:
    """Collects spans; ``op`` tags every span with the current operation."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"layer": layer, "op": self.op,
                    "parent": self._stack[-1] if self._stack else -1,
                    "start": time.perf_counter(), "end": None, "error": None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if layer == "spectral.mode_table":
                span["modes"] = int(result.k.size)
            return result

        return traced

    def functions(self) -> dict:
        """Wrapped versions of every layer function, keyed by layer name."""
        return {layer: self.wrap(layer, _function(layer)) for layer in LAYERS}

    @contextlib.contextmanager
    def patched(self):
        """Replace the CLI's and config's bindings of layer functions with
        wrapped ones for the duration of the block."""
        import importlib

        originals = {id(_function(layer)): layer for layer in LAYERS}
        wrapped = self.functions()
        restore = []
        for module_name in PATCHED_MODULES:
            module = importlib.import_module(module_name)
            for attr, obj in list(vars(module).items()):
                layer = originals.get(id(obj))
                if layer is not None:
                    restore.append((module, attr, obj))
                    setattr(module, attr, wrapped[layer])
        try:
            yield
        finally:
            for module, attr, obj in restore:
                setattr(module, attr, obj)

    def merge(self, spans: list[dict], op: int) -> None:
        """Append spans recorded by another process under operation ``op``."""
        offset = len(self.spans)
        for span in spans:
            parent = span["parent"]
            self.spans.append(dict(span, op=op,
                                   parent=parent + offset if parent >= 0 else -1))


def untraced_functions() -> dict:
    return {layer: _function(layer) for layer in LAYERS}


def summarise(spans: list[dict]) -> dict:
    """Per-layer totals: busy seconds, calls, failures, plus the CLI's self
    time (``cli.main`` minus the time its child spans cover), the number of
    modes built by ``mode_table`` and the number of quadrature errors."""
    totals = {layer: {"s": 0.0, "calls": 0, "failures": 0} for layer in LAYERS}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    cli_self = 0.0
    modes = 0
    quadrature_errors = 0
    for i, span in enumerate(spans):
        duration = span["end"] - span["start"]
        entry = totals[span["layer"]]
        entry["s"] += duration
        entry["calls"] += 1
        entry["failures"] += span["error"] is not None
        if span["layer"] == "cli.main":
            cli_self += duration - child_time[i]
        modes += span.get("modes", 0)
        quadrature_errors += span["error"] == "QuadratureError"
    return {"layers": totals, "cli_self_s": cli_self, "modes": modes,
            "quadrature_errors": quadrature_errors}
