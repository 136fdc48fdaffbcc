"""Span tracing of the package's layers from outside the package.

``Tracer.install`` wraps the public functions and kernel methods listed
in ``TARGETS`` and rebinds every ``accspec`` module attribute that names
one of them, so callers inside the package that imported a name with
``from .x import y`` see the wrapper too. ``Tracer.restore`` puts the
originals back. Spans (name, start, end, parent) are kept in memory
while ``active`` is set and written out at the end of the run; counts
are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("discretize", "kernels", "spectrogram", "variance", "geometry",
          "quadrature", "cli")


def _n_nodes(grid):
    return grid.n_nodes


def _operator_mb(operator):
    return operator.matrix.nbytes / 1e6


# (span name, module, attribute or Class.method, counters). Each counter
# is (metric, reduction, function of the call's result).
TARGETS = (
    ("discretize.build_grid", "accspec.discretize", "build_grid",
     [("discretize.nodes_max", max, _n_nodes)]),
    ("discretize.assemble_operator", "accspec.discretize", "assemble_operator",
     [("discretize.operator_mb", max, _operator_mb)]),
    ("discretize.spectral_decompose", "accspec.discretize",
     "spectral_decompose",
     [("discretize.spectral_decompose.calls", sum, lambda r: 1)]),
    ("kernels.eval_matrix", "accspec.kernels", "GinibreKernel.eval_matrix",
     [("kernels.eval_matrix.entries", sum, np.size)]),
    ("kernels.eval_matrix", "accspec.kernels", "PaleyWienerKernel.eval_matrix",
     [("kernels.eval_matrix.entries", sum, np.size)]),
    ("kernels.radial_profile", "accspec.kernels",
     "GinibreKernel.radial_profile",
     [("kernels.radial_profile.points", sum, np.size)]),
    ("kernels.radial_profile", "accspec.kernels",
     "PaleyWienerKernel.radial_profile",
     [("kernels.radial_profile.points", sum, np.size)]),
    ("spectrogram.build_eval_grid", "accspec.spectrogram", "build_eval_grid",
     [("spectrogram.eval_nodes", sum, lambda g: g.nodes.shape[0])]),
    ("spectrogram.compute_psi", "accspec.spectrogram", "compute_psi", []),
    ("spectrogram.accumulated_spectrogram", "accspec.spectrogram",
     "accumulated_spectrogram", []),
    ("spectrogram.defect_g", "accspec.spectrogram", "defect_g", []),
    ("spectrogram.inequality_report", "accspec.spectrogram",
     "inequality_report", []),
    ("spectrogram.dilation_snapshot", "accspec.spectrogram",
     "dilation_snapshot", []),
    ("variance.variance_radial", "accspec.variance", "variance_radial",
     [("variance.variance_radial.calls", sum, lambda r: 1)]),
    ("variance.hyperuniformity_curve", "accspec.variance",
     "hyperuniformity_curve", []),
    ("variance.fit_asymptotics", "accspec.variance", "fit_asymptotics", []),
    ("geometry.lens_volume_exact_many", "accspec.geometry",
     "lens_volume_exact_many", [("geometry.lens_points", sum, np.size)]),
    ("geometry.lens_volume_series", "accspec.geometry", "lens_volume_series",
     []),
    ("quadrature.panel_nodes", "accspec.quadrature", "panel_nodes",
     [("quadrature.nodes", sum, lambda r: np.size(r[0]))]),
    ("cli.main", "accspec.cli", "main", []),
    ("cli.write_csv", "accspec.cli", "write_csv", []),
    ("cli.write_json", "accspec.cli", "write_json", []),
)
CLI_SUBCOMMANDS = ("spectrogram", "variance", "check")

# every per-layer metric: name -> unit
TIMES = sorted({t[0] for t in TARGETS if t[0] != "cli.main"}
               | {f"cli.main.{c}" for c in CLI_SUBCOMMANDS})
COUNTS = {c[0]: ("MB" if c[0].endswith("_mb") else "count")
          for t in TARGETS for c in t[3]}
COUNTS["cli.bytes_out"] = "bytes"
# the span whose calls a count is taken from
COUNT_SPAN = {c[0]: t[0] for t in TARGETS for c in t[3]}
COUNT_SPAN["cli.bytes_out"] = "cli.write_csv"
METRICS = {**{f"{name}.s": "s" for name in TIMES}, **COUNTS,
           **{f"{layer}.self_s": "s" for layer in LAYERS},
           "trace.wall_s": "s", "trace.overhead_s": "s"}


def _subcommand(argv):
    return next((a for a in argv or () if not a.startswith("-")), "none")


class Tracer:
    """Installs span wrappers; collects spans and counts while active."""

    def __init__(self):
        self.active = False
        self.spans = []          # (name, start, end, parent index)
        self.counts = {}
        self.absent = set()
        self._stack = []
        self._restore = []

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "accspec" or name.startswith("accspec.")]
        installed = set()
        for span, module_name, attr, counters in TARGETS:
            owner = sys.modules.get(module_name)
            cls_name, _, func_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = vars(owner).get(func_name) if owner is not None else None
            if not callable(original):
                continue
            installed.add(span)
            wrapper = self._wrap(span, original, counters)
            if cls_name:
                self._rebind(owner, func_name, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)
        self.absent = {t[0] for t in TARGETS} - installed
        return self

    def _rebind(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def restore(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, span, func, counters):
        tracer = self
        is_main = span == "cli.main"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            name = span
            if is_main:
                name += "." + _subcommand(args[0] if args else kwargs.get("argv"))
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            tracer.spans.append([name, time.perf_counter(), None, parent])
            tracer._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.spans[index][2] = time.perf_counter()
                tracer._stack.pop()
            for metric, reduce, measure in counters:
                try:
                    value = measure(result)
                except (AttributeError, TypeError, IndexError):
                    continue  # a later result type without this quantity
                old = tracer.counts.get(metric)
                tracer.counts[metric] = value if old is None else reduce((old, value))
            if span.startswith("cli.write_"):
                tracer._count_bytes(args, kwargs)
            return result

        return wrapper

    def _count_bytes(self, args, kwargs):
        """Size of the file a CLI writer produced (stdout is not counted)."""
        path = args[0] if args else kwargs.get("path")
        if path is not None:
            self.counts["cli.bytes_out"] = (self.counts.get("cli.bytes_out", 0)
                                            + Path(path).stat().st_size)

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values by metric name; absent names map to None."""
        inclusive = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            self_s[name.split(".")[0]] += (end - start) - child[index]
        out = {}
        for name in TIMES:
            span = "cli.main" if name.startswith("cli.main.") else name
            out[f"{name}.s"] = None if span in self.absent else inclusive[name]
        for metric, span in COUNT_SPAN.items():
            out[metric] = None if span in self.absent \
                else self.counts.get(metric, 0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"absent": sorted(self.absent),
             "spans": [{"name": n, "start": s, "end": e, "parent": p}
                       for n, s, e, p in self.spans]}), encoding="utf-8")

