"""Layer spans recorded from outside the package.

The package's modules import each other's functions by name, so a function
is wrapped in every namespace that calls it (``shade_bids`` is bound in
``dualbid.bidding``, ``dualbid.oracle`` and ``dualbid.pacing``).  Spans are
kept in memory as (name, start, end, parent, rows, flag) and written out by
the caller when the run ends.  A span's self time is its duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    rows: int = 0
    flag: bool = False


def _n_log(args, kwargs, result) -> int:
    return len(args[0])


def _n_result(args, kwargs, result) -> int:
    return len(result)


def _n_adjusted(args, kwargs, result) -> int:
    adjusted = args[1] if len(args) > 1 else kwargs["adjusted"]
    return int(getattr(adjusted, "size", 1))


def _n_ftl_scope(args, kwargs, result) -> int:
    entries = args[0]
    window = kwargs.get("window", args[3] if len(args) > 3 else None)
    return len(entries) if window is None else min(window, len(entries))


def _fell_back(args, kwargs, result) -> bool:
    return bool(result[1])


# (module, attribute, span name, rows, flag): every namespace that calls the
# layer's public function.  Shading inside oracle._Columns.shade is private
# and stays in oracle.replay self time.
SPAN_TARGETS = (
    ("dualbid.cli", "load_scenario", "scenario.load", None, None),
    ("dualbid.cli", "parse_scenario", "scenario.load", None, None),
    ("dualbid.simulate", "solve_lambda0_multi", "coldstart.solve", None, None),
    ("dualbid.cli", "generate_stream", "simulate.stream", _n_result, None),
    ("dualbid.simulate", "generate_stream", "simulate.stream", _n_result, None),
    ("dualbid.cli", "realized_log", "simulate.log", _n_result, None),
    ("dualbid.cli", "distributional_log", "simulate.log", _n_result, None),
    ("dualbid.simulate", "distributional_log", "simulate.log", _n_result, None),
    ("dualbid.cli", "run_episode", "simulate.episode", None, None),
    ("dualbid.simulate", "optimal_bids", "bidding.optimal_bids", _n_adjusted, None),
    ("dualbid.bidding", "shade_bids", "bidding.shade", _n_adjusted, _fell_back),
    ("dualbid.oracle", "shade_bids", "bidding.shade", _n_adjusted, _fell_back),
    ("dualbid.pacing", "shade_bids", "bidding.shade", _n_adjusted, _fell_back),
    ("dualbid.simulate", "apply_batch_update", "pacing.update", None, None),
    ("dualbid.pacing", "ftl_update", "pacing.ftl", _n_ftl_scope, None),
    ("dualbid.cli", "replay", "oracle.replay", _n_log, None),
    ("dualbid.oracle", "replay", "oracle.replay", _n_log, None),
    ("dualbid.cli", "solve_lambda_star", "oracle.lambda_star", _n_log, None),
    ("dualbid.cli", "fixed_bid_baseline", "oracle.baseline", _n_log, None),
    ("dualbid.cli", "marginal_roi", "oracle.roi", _n_log, None),
    ("dualbid.simulate", "marginal_roi", "oracle.roi", _n_log, None),
)

# Called tens of thousands of times per episode inside the shading
# bisection, so counted without a span.
COUNT_TARGETS = (
    ("dualbid.bidding", "win_prob", "mechanisms.curve_calls"),
    ("dualbid.bidding", "win_density", "mechanisms.curve_calls"),
    ("dualbid.bidding", "expected_cost", "mechanisms.curve_calls"),
)


class Tracer:
    """Spans and counters for one traced cycle; install() patches the
    package, uninstall() restores it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of its own (for the benchmark's CLI calls)."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _span_wrapper(self, fn, name, rows, flag):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            span = self.spans[index]
            if rows is not None:
                span.rows = rows(args, kwargs, result)
            if flag is not None:
                span.flag = flag(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module_name: str, attr: str, wrapper_of) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper_of(original))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, rows, flag in SPAN_TARGETS:
            self._patch(module, attr, lambda fn: self._span_wrapper(fn, name, rows, flag))
        for module, attr, name in COUNT_TARGETS:
            self._patch(module, attr, lambda fn: self._count_wrapper(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (s.end - s.start) - covered_length(kids, s.start, s.end)
        for s, kids in zip(spans, children)
    ]


def _ancestors(spans: list[Span], index: int):
    parent = spans[index].parent
    while parent >= 0:
        yield spans[parent].name
        parent = spans[parent].parent


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced cycle.  Inclusive times count only the
    outermost span of a name, so recursion is not counted twice."""
    spans = tracer.spans
    own = self_times(spans)
    incl: Counter = Counter()
    self_s: Counter = Counter()
    calls: Counter = Counter()
    rows: Counter = Counter()
    flags: Counter = Counter()
    under: Counter = Counter()  # (name, ancestor name) -> calls
    for i, span in enumerate(spans):
        above = set(_ancestors(spans, i))
        calls[span.name] += 1
        rows[span.name] += span.rows
        flags[span.name] += span.flag
        self_s[span.name] += own[i]
        if span.name not in above:
            incl[span.name] += span.end - span.start
        for name in above:
            under[(span.name, name)] += 1
    compare_children = sum(
        s.end - s.start for s in spans if s.parent >= 0 and spans[s.parent].name == "cli.compare"
    )
    return {
        "scenario.load_s": incl["scenario.load"],
        "coldstart.solve_s": incl["coldstart.solve"],
        "coldstart.calls": calls["coldstart.solve"],
        "simulate.stream_s": incl["simulate.stream"],
        "simulate.stream_calls": calls["simulate.stream"],
        "simulate.opportunities": rows["simulate.stream"],
        "simulate.log_s": incl["simulate.log"],
        "simulate.episode_s": incl["simulate.episode"],
        "simulate.episode_self_s": self_s["simulate.episode"],
        "bidding.shade_s": incl["bidding.shade"],
        "bidding.shade_calls": calls["bidding.shade"],
        "bidding.shade_rows": rows["bidding.shade"],
        "bidding.fallback_calls": flags["bidding.shade"],
        "bidding.optimal_bids_s": incl["bidding.optimal_bids"],
        "mechanisms.curve_calls": tracer.counts["mechanisms.curve_calls"],
        "pacing.update_s": incl["pacing.update"],
        "pacing.updates": calls["pacing.update"],
        "pacing.ftl_s": incl["pacing.ftl"],
        "pacing.ftl_calls": calls["pacing.ftl"],
        "pacing.ftl_rows": rows["pacing.ftl"],
        "oracle.replay_s": incl["oracle.replay"],
        "oracle.replay_calls": calls["oracle.replay"],
        "oracle.replay_rows": rows["oracle.replay"],
        "oracle.lambda_star_s": incl["oracle.lambda_star"],
        "oracle.lambda_star_replays": under[("oracle.replay", "oracle.lambda_star")],
        "oracle.baseline_s": incl["oracle.baseline"],
        "oracle.roi_s": incl["oracle.roi"],
        "oracle.roi_replays": under[("oracle.replay", "oracle.roi")],
        "cli.self_s": self_s["cli.run"] + self_s["cli.compare"],
        "cli.run_traced_s": incl["cli.run"],
        "cli.compare_traced_s": incl["cli.compare"],
        "cli.compare_children_s": compare_children,
    }


def median_metrics(per_cycle: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_cycle) for k in per_cycle[0]}
