"""Per-layer metrics from the spans and counters of one traced run.

A span's self time is its duration minus the durations of its direct child
spans; the traced run is single-threaded, so children never overlap. A
layer's `_s` metric is inclusive busy time summed over its outermost calls.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

# name -> unit, in print order. `fusion.eval_ms_p99` is only a true p99 when
# `fusion.evals` is at least 1000 (ten samples beyond it): greedy-sweep.
PER_LAYER = {
    "baselines.fit_s": "s",
    "baselines.fit_calls": "count",
    "baselines.predict_s": "s",
    "baselines.lists_scored": "count",
    "baselines.predict_us_per_list": "us",
    "data.load_s": "s",
    "data.load_rows_per_s": "1/s",
    "data.split_s": "s",
    "data.write_splits_s": "s",
    "data.input_s": "s",
    "data.read_matrix_s": "s",
    "data.read_matrix_self_s": "s",
    "data.read_matrix_rows_per_s": "1/s",
    "core.from_entries_s": "s",
    "harness.merge_s": "s",
    "harness.merge_self_s": "s",
    "synthetic.generate_s": "s",
    "fusion.normalize_s": "s",
    "fusion.fuser_build_s": "s",
    "fusion.fuser_builds": "count",
    "fusion.eval_s": "s",
    "fusion.evals": "count",
    "fusion.eval_ms_p50": "ms",
    "fusion.eval_ms_p99": "ms",
    "selection.weights_s": "s",
    "selection.weights_self_s": "s",
    "selection.search_s": "s",
    "selection.search_self_s": "s",
    "selection.candidates": "count",
    "selection.memo_hits": "count",
    "selection.accepted_steps": "count",
    "selection.accept_ratio": "ratio",
    "metrics.ndcg_model_s": "s",
    "metrics.ndcg_model_calls": "count",
    "harness.model_ndcg_s": "s",
    "harness.model_ndcg_self_s": "s",
    "harness.model_ndcg_redundancy": "ratio",
    "harness.prepare_s": "s",
    "harness.prepare_self_s": "s",
    "harness.prepare_peak_rss_mb": "MB",
    "harness.selection_s": "s",
    "harness.selection_self_s": "s",
    "harness.selection_cache_hits": "count",
    "harness.write_s": "s",
    "harness.write_self_s": "s",
    "harness.run_s": "s",
    "harness.run_self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_frac": "ratio",
}

# Printed and recorded, but left out of the result line, because on some
# workload they read exactly 0 on every run or time nothing but a call:
# - layers that only some workloads run; `data.input_s` covers them;
# - `harness.merge`, which returns its single part at once on workloads
#   without external matrices; `data.input_s` includes it;
# - `selection.memo_hits`, 0 everywhere: each search gets a new
#   `MemoizedEval`, and neither search scores a member set twice;
# - `selection.accepted_steps` and `accept_ratio`, 0 for exhaustive search.
RECORD_ONLY = ("data.load_s", "data.load_rows_per_s", "data.read_matrix_s",
               "data.read_matrix_self_s", "data.read_matrix_rows_per_s",
               "core.from_entries_s", "harness.merge_s", "harness.merge_self_s",
               "synthetic.generate_s", "selection.memo_hits",
               "selection.accepted_steps", "selection.accept_ratio")
RESULT_LINE = {name: unit for name, unit in PER_LAYER.items()
               if name not in RECORD_ONLY}

WRITERS = ("data.write_splits", "harness.write_weights", "harness.write_table",
           "harness.write_trace", "harness.write_sweep")


class SpanTotals:
    """Calls, inclusive time, self time and per-call durations per name."""

    def __init__(self, spans: list[list]):
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.child_names: dict[int, set] = defaultdict(set)
        covered = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name, parent, start, end) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.durations[name].append(duration)
            self.self_time[name] += duration - covered[index]
            if parent >= 0:
                self.child_names[parent].add(name)
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][1]
            if ancestor < 0:
                self.inclusive[name] += duration
        self._spans = spans

    def childless(self, name: str, child: str) -> int:
        """Calls of `name` that made no direct `child` call."""
        return sum(1 for i, span in enumerate(self._spans)
                   if span[0] == name and child not in self.child_names[i])


def _p(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(trace: dict, traced_run_s: float,
                  untraced_run_s: float) -> dict[str, float]:
    totals = SpanTotals(trace["spans"])
    counts = trace["counts"]
    inc, own, calls = totals.inclusive, totals.self_time, totals.calls

    def per(numer: float, denom: float) -> float:
        return numer / denom if denom else 0.0

    evals_ms = [d * 1e3 for d in totals.durations["fusion.eval"]]
    lists = counts.get("baselines.lists_scored", 0)
    candidates = counts.get("selection.candidates", 0)
    out = {
        "baselines.fit_s": inc["baselines.fit"],
        "baselines.fit_calls": calls["baselines.fit"],
        "baselines.predict_s": inc["baselines.predict"],
        "baselines.lists_scored": lists,
        "baselines.predict_us_per_list": per(inc["baselines.predict"] * 1e6,
                                             lists),
        "data.load_s": inc["data.load"],
        "data.load_rows_per_s": per(counts.get("data.load_rows", 0),
                                    inc["data.load"]),
        "data.split_s": inc["data.split"],
        "data.write_splits_s": inc["data.write_splits"],
        "data.input_s": (inc["data.load"] + inc["data.read_matrix"]
                         + inc["harness.merge"] + inc["synthetic.generate"]),
        "data.read_matrix_s": inc["data.read_matrix"],
        "data.read_matrix_self_s": own["data.read_matrix"],
        "data.read_matrix_rows_per_s": per(
            counts.get("data.read_matrix_rows", 0), inc["data.read_matrix"]),
        "core.from_entries_s": inc["core.from_entries"],
        "harness.merge_s": inc["harness.merge"],
        "harness.merge_self_s": own["harness.merge"],
        "synthetic.generate_s": inc["synthetic.generate"],
        "fusion.normalize_s": inc["fusion.normalize"],
        "fusion.fuser_build_s": inc["fusion.fuser_build"],
        "fusion.fuser_builds": calls["fusion.fuser_build"],
        "fusion.eval_s": inc["fusion.eval"],
        "fusion.evals": calls["fusion.eval"],
        "fusion.eval_ms_p50": statistics.median(evals_ms) if evals_ms else 0.0,
        "fusion.eval_ms_p99": _p(evals_ms, 0.99) if evals_ms else 0.0,
        "selection.weights_s": inc["selection.weights"],
        "selection.weights_self_s": own["selection.weights"],
        "selection.search_s": inc["selection.search"],
        "selection.search_self_s": own["selection.search"],
        "selection.candidates": candidates,
        "selection.memo_hits": counts.get("selection.memo_hits", 0),
        "selection.accepted_steps": counts.get("selection.accepted_steps", 0),
        "selection.accept_ratio": per(
            counts.get("selection.accepted_steps", 0), candidates),
        "metrics.ndcg_model_s": inc["metrics.ndcg_model"],
        "metrics.ndcg_model_calls": calls["metrics.ndcg_model"],
        "harness.model_ndcg_s": inc["harness.model_ndcg"],
        "harness.model_ndcg_self_s": own["harness.model_ndcg"],
        "harness.model_ndcg_redundancy": per(
            calls["harness.model_ndcg"],
            counts.get("harness.model_ndcg_distinct", 0)),
        "harness.prepare_s": inc["harness.prepare"],
        "harness.prepare_self_s": own["harness.prepare"],
        "harness.prepare_peak_rss_mb": counts.get(
            "harness.prepare_peak_rss_mb", 0.0),
        "harness.selection_s": inc["harness.selection"],
        "harness.selection_self_s": own["harness.selection"],
        "harness.selection_cache_hits": totals.childless(
            "harness.selection", "selection.search"),
        "harness.write_s": sum(inc[w] for w in WRITERS),
        "harness.write_self_s": sum(own[w] for w in WRITERS),
        "harness.run_s": inc["harness.run"],
        "harness.run_self_s": own["harness.run"],
        "trace.run_s": traced_run_s,
        "trace.overhead_frac": per(traced_run_s, untraced_run_s) - 1.0,
    }
    if list(out) != list(PER_LAYER):
        raise RuntimeError("layer_metrics and PER_LAYER list different names")
    return out


def span_summary(trace: dict) -> dict[str, dict]:
    """Calls, inclusive and self seconds per span name; p50/p99 in ms where
    a name has at least 1000 calls."""
    totals = SpanTotals(trace["spans"])
    summary = {}
    for name in sorted(totals.calls):
        entry = {"calls": totals.calls[name],
                 "inclusive_s": totals.inclusive[name],
                 "self_s": totals.self_time[name]}
        durations = totals.durations[name]
        if len(durations) >= 1000:
            entry["p50_ms"] = statistics.median(durations) * 1e3
            entry["p99_ms"] = _p(durations, 0.99) * 1e3
        summary[name] = entry
    return summary
