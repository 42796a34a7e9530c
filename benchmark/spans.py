"""Span tracing of cfmimo's public functions, installed from outside.

`Tracer.install()` replaces each function listed in `TRACED` with a wrapper
that records one span per call: name, start, end, parent span and the
snapshot id the benchmark has set for the current decision.  The wrapper is
bound in every cfmimo module that imported the function by name, so calls
between modules are traced as well.  A few functions also record a count
taken from their result or arguments (fixed-point iterations, bytes
written).  Spans stay in memory until `write()` at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

LAYERS = ("geometry", "datasets", "rates", "solver", "mlp", "training",
          "checkpoints", "reports", "cli")

# module -> traced attributes: a function, or "Class.method"
TRACED = {
    "geometry": ["generate_realization"],
    "datasets": ["generate_static_dataset", "generate_splits",
                 "save_dataset", "load_dataset"],
    "rates": ["rate_context", "sinr_coefficients", "batch_sinr_coefficients",
              "batch_rates"],
    "solver": ["solve_maxmin_bisection", "feasibility_fixed_point",
               "direct_feasibility"],
    "mlp": ["Mlp.forward", "Mlp.forward_cached", "Mlp.backward", "Mlp.clone",
            "Normalizer.transform", "adam_step", "fit_normalizer"],
    "training": ["train_model", "batch_loss", "batch_loss_and_grad",
                 "online_finetune"],
    "checkpoints": ["save_checkpoint", "load_checkpoint"],
    "reports": ["evaluate", "save_report", "load_report", "audit_report"],
    "cli": ["main"],
}


def _path_bytes(path) -> int:
    p = Path(path)
    if p.is_dir():
        return sum(f.stat().st_size for f in p.iterdir() if f.is_file())
    return p.stat().st_size


# span name -> function(args, result) giving the count stored on the span
_COUNTS = {
    "solver.feasibility_fixed_point": lambda args, res: res.iterations,
    "solver.solve_maxmin_bisection": lambda args, res: res.bisection_iterations,
    "datasets.save_dataset": lambda args, res: _path_bytes(args[0]),
    "checkpoints.save_checkpoint": lambda args, res: _path_bytes(args[0]),
    "reports.save_report": lambda args, res: _path_bytes(args[0]),
}


class Tracer:
    """In-memory span recorder; spans are tuples
    (id, parent, name, start, end, snapshot, count)."""

    def __init__(self):
        self.spans = []
        self.snapshot = None
        self._stack = []
        self._patches = None   # (owner, name, original, wrapper)

    # -- recording ---------------------------------------------------------
    def span(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end, self.snapshot, None)
        counter = _COUNTS.get(name)
        if counter is not None:
            self.spans[sid] = self.spans[sid][:6] + (counter(args, result),)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    # -- installation ------------------------------------------------------
    def _find_patches(self):
        loaded = {layer: importlib.import_module(f"cfmimo.{layer}")
                  for layer in LAYERS}
        modules = [m for m in list(sys.modules.values())
                   if getattr(m, "__name__", "").startswith("cfmimo")]
        patches = []
        for layer, names in TRACED.items():
            mod = loaded[layer]
            for name in names:
                span_name = f"{layer}.{name.split('.')[-1]}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    patches.append((cls, meth, orig, self._wrap(span_name, orig)))
                    continue
                orig = getattr(mod, name)
                wrapped = self._wrap(span_name, orig)
                patches += [(m, name, orig, wrapped) for m in modules
                            if getattr(m, name, None) is orig]
        return patches

    def install(self):
        if self._patches is None:
            self._patches = self._find_patches()
        for owner, name, _, wrapped in self._patches:
            setattr(owner, name, wrapped)
        return self

    def uninstall(self):
        for owner, name, orig, _ in reversed(self._patches or []):
            setattr(owner, name, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ----------------------------------------------------------
    def self_times(self):
        """Per span id: duration minus the time covered by child spans."""
        self_s = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                self_s[s[1]] -= s[4] - s[3]
        return self_s

    def write(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for sid, parent, name, start, end, snap, count in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start_us": round((start - t0) * 1e6, 3),
                    "end_us": round((end - t0) * 1e6, 3),
                    "snapshot": snap, "count": count,
                }) + "\n")
        return os.path.getsize(path)
