"""Per-layer tracing of the defock CLI, from outside the program.

The tracer replaces each traced function by a wrapper at every name a defock
module looks it up under (``cli`` calls ``states.nlcs``, ``beamsplitter``
calls its own imported ``nlcs``; both names get the same wrapper).  A wrapper
records one span: name, start, end, parent span and job id.  Spans stay in
memory and are written out when the run ends.  A layer's self time is its
span minus the part covered by its child spans.

The two hot leaf functions of ``specfun`` are counted without spans:
``log_gamma`` runs ~10^5 times per scan job, so it gets a bare counter, and
``bessel_k_log`` gets a counter and an accumulated time.  ``deform`` is
measured by the ``cache_info()`` of its two lru-cached tables.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

# module -> traced functions; "__all__" means every function the module exports
SPANNED = {
    "cli": ("main", "build_parser"),
    "fock_io": ("write_csv", "write_svg_lineplot"),
    "states": "__all__",
    "beamsplitter": "__all__",
    "measure": "__all__",
    "metrics": "__all__",
}

# per-layer metric -> spans it sums; a span nested inside another span of
# the same group is not counted twice
_GROUPS = {
    "cli.parser_ms": ("cli.build_parser",),
    "fock_io.write_ms": ("fock_io.write_csv", "fock_io.write_svg_lineplot"),
    "states.build_ms": "states.",
    "beamsplitter.apply_ms": ("beamsplitter.apply_beamsplitter",),
    "beamsplitter.closed_form_ms": ("beamsplitter.linear_entropy_closed_form",),
    "beamsplitter.partial_trace_ms": ("beamsplitter.partial_trace",),
    "beamsplitter.entropy_ms": ("beamsplitter.linear_entropy",
                                "beamsplitter.von_neumann_entropy"),
    "measure.calibrate_ms": ("measure.calibrate",),
    "measure.moment_ms": ("measure.moment_table", "measure.moment_check"),
    "metrics.report_ms": ("metrics.nonclassicality_report",),
    "metrics.autocorr_ms": ("metrics.gk_autocorrelation",),
    "metrics.peaks_ms": ("metrics.detect_peaks",),
}

# every per-layer metric, in the order BENCHMARK.json lists them
LAYER_METRICS = (
    ("cli.parser_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("fock_io.write_ms", "ms"),
    ("fock_io.bytes_written", "bytes"),
    ("states.build_ms", "ms"),
    ("states.builds", "count"),
    ("states.doublings", "count"),
    ("deform.table_misses", "count"),
    ("specfun.log_gamma_calls", "count"),
    ("specfun.bessel_k_log_calls", "count"),
    ("specfun.bessel_k_log_ms", "ms"),
    ("beamsplitter.apply_ms", "ms"),
    ("beamsplitter.closed_form_ms", "ms"),
    ("beamsplitter.partial_trace_ms", "ms"),
    ("beamsplitter.entropy_ms", "ms"),
    ("measure.calibrate_ms", "ms"),
    ("measure.moment_ms", "ms"),
    ("metrics.report_ms", "ms"),
    ("metrics.autocorr_ms", "ms"),
    ("metrics.peaks_ms", "ms"),
)


def _defock_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "defock" or name.startswith("defock."))]


def _patch(original, replacement):
    """Rebind every defock module global that refers to ``original``."""
    for module in _defock_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """Spans and counters of one traced run; create it after importing
    ``defock.cli`` and call :meth:`install` once."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id]
        self._stack = []
        self.job = None
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)
        self._misses0 = 0
        self._cold_misses = 0

    # -- installation -------------------------------------------------------

    def install(self):
        from defock import deform, specfun
        from defock.states import FockState

        self._deform = deform
        self._misses0 = self._table_misses()
        for short, names in SPANNED.items():
            module = sys.modules[f"defock.{short}"]
            if names == "__all__":
                names = [n for n in module.__all__
                         if inspect.isfunction(getattr(module, n))]
            for name in names:
                fn = getattr(module, name)
                after = None
                if short == "states":
                    after = self._state_hook(fn, FockState)
                elif short == "fock_io":
                    after = self._bytes_hook(fn)
                _patch(fn, self._spanned(f"{short}.{name}", fn, after))
        _patch(specfun.log_gamma, self._counted("specfun.log_gamma_calls",
                                                specfun.log_gamma))
        _patch(specfun.bessel_k_log, self._timed("specfun.bessel_k_log",
                                                 specfun.bessel_k_log))

    def _spanned(self, name, fn, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, clock(), None, parent, self.job]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, parent)
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, key, fn):
        counts, seconds, clock = self.counts, self.seconds, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += clock() - start
                counts[key + "_calls"] += 1

        return wrapper

    def _state_hook(self, fn, state_type):
        signature = inspect.signature(fn)
        takes_n_max = "n_max" in signature.parameters

        def after(args, kwargs, result, parent):
            if not isinstance(result, state_type):
                return
            if parent >= 0 and self.spans[parent][0].startswith("states."):
                return  # a constructor delegating to another one
            self.counts["states.builds"] += 1
            if takes_n_max:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                requested = int(bound.arguments["n_max"])
                self.counts["states.doublings"] += round(math.log2(result.n_max / requested))

        return after

    def _bytes_hook(self, fn):
        signature = inspect.signature(fn)

        def after(args, kwargs, result, parent):
            path = signature.bind(*args, **kwargs).arguments["path"]
            self.counts["fock_io.bytes_written"] += Path(path).stat().st_size

        return after

    # -- measurement ----------------------------------------------------------

    def _table_misses(self) -> int:
        d = self._deform
        return d.log_f_factorial_table.cache_info().misses + d.log_rho_table.cache_info().misses

    def reset(self):
        """Call after the warm-up pass: keep its table misses, the ones the
        job list causes while the caches start empty, and forget the rest."""
        self.spans.clear()
        self.counts.clear()
        self.seconds.clear()
        self._cold_misses = self._table_misses() - self._misses0

    def _outermost_total(self, members) -> float:
        spans = self.spans

        def member(name):
            return name.startswith(members) if isinstance(members, str) else name in members

        total = 0.0
        for name, start, end, parent, _ in spans:
            if not member(name):
                continue
            while parent >= 0 and not member(spans[parent][0]):
                parent = spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def metrics(self, jobs: int, jobs_per_pass: int) -> dict:
        """Every per-layer metric, per job of the timed passes; the table
        misses are per job of the warm-up pass, since warm caches miss none."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        cli_self = sum(end - start - child[i]
                       for i, (name, start, end, _, _) in enumerate(self.spans)
                       if name == "cli.main")
        values = {name: 1000.0 * self._outermost_total(members) / jobs
                  for name, members in _GROUPS.items()}
        values["cli.self_ms"] = 1000.0 * cli_self / jobs
        values["specfun.bessel_k_log_ms"] = 1000.0 * self.seconds["specfun.bessel_k_log"] / jobs
        values["deform.table_misses"] = self._cold_misses / jobs_per_pass
        for key in ("fock_io.bytes_written", "states.builds", "states.doublings",
                    "specfun.log_gamma_calls", "specfun.bessel_k_log_calls"):
            values[key] = self.counts[key] / jobs
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}

    def write(self, path: Path):
        """Write the spans as JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
