"""Layer trace taken from outside curv4.

The tracer replaces public callables in the namespace where their caller
looks them up (for example `curv4.cli.harmonicity_report`, which `cli.main`
reads from its own module globals) and restores them on `uninstall`.
Coarse calls become spans: name, start, end, parent and the operation they
belong to. Hot leaf calls (metric evaluations, finite differences, curvature
lookups, tensor algebra) only bump counters, and some add up their time,
because a span per call would cost more than the call.

Spans of a thread-pool worker get the enclosing `parallel_map` span as
parent, so a layer's self time is its span minus the union of its
children's spans, in whichever thread they ran.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import statistics
import threading
import time

# The per-layer metrics, in the order they are reported.
LAYER_METRICS = (
    ("examples.builds", "count"),
    ("examples.build_s", "s"),
    ("chart.metric_evals_per_point", "count"),
    ("chart.christoffel_calls", "count"),
    ("chart.curvature_lookups", "count"),
    ("chart.harmonicity_s", "s"),
    ("numerics.central_diff_calls", "count"),
    ("tensor4.calls", "count"),
    ("tensor4.s", "s"),
    ("frames.extract_frame_s", "s"),
    ("frames.skw_s", "s"),
    ("frames.structure_s", "s"),
    ("frames.degenerate_points", "count"),
    ("variety.lsq_calls", "count"),
    ("variety.lsq_nfev", "count"),
    ("variety.sample_s", "s"),
    ("variety.membership_s", "s"),
    ("parallel.map_calls", "count"),
    ("parallel.items", "count"),
    ("parallel.map_s", "s"),
    ("cli.self_s", "s"),
)

# span name -> per-layer metric holding the summed span durations
_SPAN_TIMES = {
    "examples.build_example": "examples.build_s",
    "chart.harmonicity_report": "chart.harmonicity_s",
    "frames.extract_frame": "frames.extract_frame_s",
    "frames.skw_residuals": "frames.skw_s",
    "frames.structure_data": "frames.structure_s",
    "variety.sample_variety": "variety.sample_s",
    "variety.system_residuals": "variety.membership_s",
}
# span name -> per-layer metric counting the spans
_SPAN_COUNTS = {
    "examples.build_example": "examples.builds",
    "variety.least_squares": "variety.lsq_calls",
    "parallel.parallel_map": "parallel.map_calls",
}


class Tracer:
    """Spans and counters of one benchmark process, kept in memory."""

    def __init__(self):
        self.spans = []  # (span id, parent id, op id, name, start, end)
        self.op = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        # one (counts, busy seconds) pair per thread: a shared lock in the
        # hot wrappers convoys pool threads behind the interpreter lock
        self._tallies = []
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tally(self):
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = (collections.Counter(), collections.Counter())
            with self._lock:
                self._tallies.append(tally)
        return tally

    def add(self, name, n=1):
        self._tally()[0][name] += n

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, self.op, name, start, end))

    # -- wrappers -----------------------------------------------------------

    def spanned(self, fn, name, on_result=None, on_error=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(exc)
                    raise
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, fn, name, timed=False):
        tally = self._tally
        if not timed:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tally()[0][name] += 1
                return fn(*args, **kwargs)

            return wrapper

        @functools.wraps(fn)
        def timed_wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts, busy = tally()
                counts[name] += 1
                busy[name] += time.perf_counter() - start

        return timed_wrapper

    def _parallel(self, fn):
        tracer = self

        @functools.wraps(fn)
        def parallel_map(work, items):
            items = list(items)
            tracer.add("parallel.items", len(items))
            with tracer.span("parallel.parallel_map"):
                parent = list(tracer._stack())

                def seeded(item):
                    # a pool thread starts with an empty stack: hang its
                    # spans under this parallel_map span
                    stack = tracer._stack()
                    if stack:
                        return work(item)
                    tracer._local.stack = list(parent)
                    try:
                        return work(item)
                    finally:
                        tracer._local.stack = []

                return fn(seeded, items)

        return parallel_map

    def _build_wrapper(self, fn):
        tracer = self

        def with_counted_evals(chart):
            chart.eval_fn = tracer.counted(chart.eval_fn, "chart.metric_evals")
            return chart

        return self.spanned(fn, "examples.build_example", on_result=with_counted_evals)

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        import curv4
        import curv4.chart as chart
        import curv4.cli as cli
        import curv4.frames as frames
        import curv4.variety as variety
        from curv4.errors import DegenerateFrameError

        def degenerate(exc):
            if isinstance(exc, DegenerateFrameError):
                self.add("frames.degenerate_points")

        def nfev(result):
            self.add("variety.lsq_nfev", int(result.nfev))

        spans = {
            "frames.extract_frame": ("extract_frame", degenerate),
            "frames.skw_residuals": ("skw_residuals", None),
            "frames.structure_data": ("structure_data", None),
            "frames.curvature_from_structure": ("curvature_from_structure", None),
            "variety.from_frame": ("from_frame", None),
            "variety.system_residuals": ("system_residuals", None),
            "variety.sample_variety": ("sample_variety", None),
            "chart.harmonicity_report": ("harmonicity_report", None),
        }
        for owner in (cli, curv4, variety):
            for name, (attr, on_error) in spans.items():
                if hasattr(owner, attr):
                    self._patch(
                        owner, attr, self.spanned(getattr(owner, attr), name, on_error=on_error)
                    )
            if hasattr(owner, "build_example"):
                self._patch(owner, "build_example", self._build_wrapper(owner.build_example))
        self._patch(
            variety,
            "least_squares",
            self.spanned(variety.least_squares, "variety.least_squares", on_result=nfev),
        )
        for owner in (cli, chart):
            self._patch(owner, "parallel_map", self._parallel(owner.parallel_map))
        self._patch(chart, "christoffel", self.counted(chart.christoffel, "chart.christoffel_calls"))
        self._patch(
            chart.CurvatureField, "at", self.counted(chart.CurvatureField.at, "chart.curvature_lookups")
        )
        for owner in (chart, frames):
            self._patch(
                owner, "central_diff", self.counted(owner.central_diff, "numerics.central_diff_calls")
            )
        for owner, attrs in (
            (chart, ("curvature_symmetrize", "ricci_contract", "weyl_from_curv")),
            (frames, ("frame_components", "sd_split")),
        ):
            for attr in attrs:
                self._patch(owner, attr, self.counted(getattr(owner, attr), "tensor4", timed=True))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self):
        """(counts, busy seconds) summed over threads; call between operations,
        when no pool thread is running."""
        counts, busy = collections.Counter(), collections.Counter()
        with self._lock:
            for c, b in self._tallies:
                counts.update(c)
                busy.update(b)
        return dict(counts), dict(busy)


def _union(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """span id -> its duration minus the union of its children's spans."""
    children = collections.defaultdict(list)
    for sid, parent, _, _, start, end in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, _, _, start, end in spans:
        clipped = [(max(a, start), min(b, end)) for a, b in children.get(sid, ()) if b > start and a < end]
        out[sid] = (end - start) - _union(clipped)
    return out


def round_layer_values(spans, counts, busy, points):
    """Per-layer metric values of one round, from its spans and counter deltas."""
    vals = {name: 0 if unit == "count" else 0.0 for name, unit in LAYER_METRICS}
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    for sid, parent, _, name, start, end in spans:
        if name in _SPAN_TIMES:
            vals[_SPAN_TIMES[name]] += end - start
        if name in _SPAN_COUNTS:
            vals[_SPAN_COUNTS[name]] += 1
        if name == "cli.main":
            vals["cli.self_s"] += selfs[sid]
        if name == "parallel.parallel_map":
            # time inside a pool: outermost parallel_map spans only
            p = by_id.get(parent)
            while p is not None and p[3] != "parallel.parallel_map":
                p = by_id.get(p[1])
            if p is None:
                vals["parallel.map_s"] += end - start
    vals["chart.metric_evals_per_point"] = counts.get("chart.metric_evals", 0) / points
    for name in (
        "chart.christoffel_calls",
        "chart.curvature_lookups",
        "numerics.central_diff_calls",
        "frames.degenerate_points",
        "variety.lsq_nfev",
        "parallel.items",
    ):
        vals[name] = counts.get(name, 0)
    vals["tensor4.calls"] = counts.get("tensor4", 0)
    vals["tensor4.s"] = busy.get("tensor4", 0.0)
    return vals


def layer_metrics(rounds):
    """Per-layer metrics of a run. Times are medians over its rounds. Counts
    are those of the first round, whose inputs depend on the seed alone, so
    they repeat exactly between runs with the same seed."""
    out = {}
    for name, unit in LAYER_METRICS:
        if unit == "count":
            value = rounds[0][name]
        else:
            value = statistics.median(r[name] for r in rounds)
        out[name] = {"value": value, "unit": unit}
    return out
