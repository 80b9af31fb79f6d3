"""Spans recorded from outside the program, by wrapping the names callers look up.

A span is ``[id, name, start_ns, end_ns, parent_id, op_id, size]``: ``name``
is ``layer.function``, times come from ``time.perf_counter_ns`` (the
monotonic clock, shared by every process on the machine), ``parent_id`` is
the enclosing span or -1, and ``size`` is the length of a returned string
(artifact bytes) or -1. Spans stay in memory until the run writes them out.
Per-step functions (``feedback_step``, ``Rng.normal``) are never wrapped: a
wrapper would cost more than the step it measures.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name). The CLI names are the ones cli/runner/
# artifacts/svgplot/stochastic look up at call time inside one CLI run.
CLI_TARGETS = (
    ("gammafeedback.cli", "parse_config", "config.parse_config"),
    ("gammafeedback.cli", "run_subcommand", "runner.run_subcommand"),
    ("gammafeedback.runner", "render_config", "config.render_config"),
    ("gammafeedback.runner", "stability_grid", "analysis.stability_grid"),
    ("gammafeedback.runner", "amplification_grid", "analysis.amplification_grid"),
    ("gammafeedback.runner", "extract_contour", "analysis.extract_contour"),
    ("gammafeedback.runner", "critical_exposure", "analysis.critical_exposure"),
    ("gammafeedback.runner", "simulate_recursive", "dynamics.simulate_recursive"),
    ("gammafeedback.runner", "simulate_stochastic", "stochastic.simulate_stochastic"),
    ("gammafeedback.runner", "simulate_event_driven", "stochastic.simulate_event_driven"),
    ("gammafeedback.stochastic", "generate_event_spikes", "stochastic.generate_event_spikes"),
    ("gammafeedback.runner", "grid_csv", "artifacts.grid_csv"),
    ("gammafeedback.runner", "contour_csv", "artifacts.contour_csv"),
    ("gammafeedback.runner", "curve_csv", "artifacts.curve_csv"),
    ("gammafeedback.runner", "trajectory_csv", "artifacts.trajectory_csv"),
    ("gammafeedback.artifacts", "sha256_hex", "artifacts.sha256_hex"),
    ("gammafeedback.svgplot", "heatmap_svg", "svgplot.heatmap_svg"),
    ("gammafeedback.svgplot", "timeseries_svg", "svgplot.timeseries_svg"),
    ("gammafeedback.svgplot", "event_series_svg", "svgplot.event_series_svg"),
    ("gammafeedback.runner", "line_chart_svg", "svgplot.line_chart_svg"),
)

# The library names the sweep worker calls through its module references.
LIBRARY_TARGETS = (
    ("gammafeedback.model", "stability_denominator", "model.stability_denominator"),
    ("gammafeedback.model", "static_response", "model.static_response"),
    ("gammafeedback.analysis", "critical_exposure", "analysis.critical_exposure"),
    ("gammafeedback.analysis", "analyze_fixed_point", "analysis.analyze_fixed_point"),
    ("gammafeedback.analysis", "linearized_feedback", "analysis.linearized_feedback"),
    ("gammafeedback.dynamics", "simulate_recursive", "dynamics.simulate_recursive"),
    ("gammafeedback.dynamics", "simulate_one_shot", "dynamics.simulate_one_shot"),
    ("gammafeedback.stochastic", "simulate_stochastic", "stochastic.simulate_stochastic"),
    ("gammafeedback.stochastic", "simulate_event_driven", "stochastic.simulate_event_driven"),
    ("gammafeedback.stochastic", "generate_event_spikes", "stochastic.generate_event_spikes"),
    ("gammafeedback.rng.Rng", "u64_array", "rng.u64_array"),
    ("gammafeedback.rng.Rng", "uniforms", "rng.uniforms"),
    ("gammafeedback.rng.Rng", "normals", "rng.normals"),
)


def _resolve(path: str):
    """A module, or a class inside one (``pkg.mod.Class``)."""
    try:
        return importlib.import_module(path)
    except ImportError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


class Tracer:
    """Records spans around wrapped callables; ``install``/``uninstall`` swap them."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def record(self, name: str, start: int, end: int, parent: int = -1, size: int = -1) -> None:
        self.spans.append([len(self.spans), name, start, end, parent, self.op, size])

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, name, 0, 0, stack[-1] if stack else -1, self.op, -1]
            spans.append(span)
            stack.append(sid)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if isinstance(result, str):
                span[6] = len(result)
            return result

        return traced

    def install(self, targets) -> None:
        for path, attr, name in targets:
            owner = _resolve(path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ------------------------------------------------------------ aggregation

def self_times(spans: list[list]) -> dict[int, int]:
    """Span id -> duration minus the durations of its direct children (ns)."""
    out = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] >= 0 and s[4] in out:
            out[s[4]] -= s[3] - s[2]
    return out


def totals(spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """Per span name: summed self time (ms) and summed returned-string size."""
    selfs = self_times(spans)
    ms: dict[str, float] = {}
    size: dict[str, int] = {}
    for s in spans:
        ms[s[1]] = ms.get(s[1], 0.0) + selfs[s[0]] / 1e6
        if s[6] >= 0:
            size[s[1]] = size.get(s[1], 0) + s[6]
    return ms, size
