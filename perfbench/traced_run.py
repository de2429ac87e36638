"""One traced, in-process `recfuse run` for the benchmark's per-layer metrics.

Wraps the program's public functions from the outside, at the names through
which `harness` and `selection` look them up, then calls
`harness.run_experiment` with threads=1 so every span nests on one thread.
Spans stay in memory and are written as JSON when the run ends. The program
itself is not modified and its `timings.json` is not read.

After the run, and outside every span, the oracle check recomputes fold 0's
ensemble score of every (dataset, n) cell with `selection.evaluate_ensemble`
on the run's own normalized matrix and compares it with the tables CSV.

Usage (from the repository root):
    PYTHONPATH=src python3 perfbench/traced_run.py CONFIG OUT_DIR RESULT_JSON
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import inspect
import json
import resource
import sys
import time
from pathlib import Path

from recfuse import core, fusion, harness, selection

ORACLE_TOLERANCE = 1e-12

# (owner, attribute, span name). Owners are the modules whose globals the
# pipeline resolves at call time, so patching there catches every call.
PATCHES = (
    (harness, "run_experiment", "harness.run"),
    (harness, "prepare_dataset", "harness.prepare"),
    (harness, "generate_interactions", "synthetic.generate"),
    (harness, "load_interactions", "data.load"),
    (harness, "split_folds", "data.split"),
    (harness, "fit", "baselines.fit"),
    (harness, "generate_matrix", "baselines.predict"),
    (harness, "read_matrix", "data.read_matrix"),
    (core.PredictionMatrix, "from_entries", "core.from_entries"),
    (harness, "_merge_matrices", "harness.merge"),
    (harness, "normalize_scores", "fusion.normalize"),
    (harness, "compute_weights", "selection.weights"),
    (harness, "ndcg_model", "metrics.ndcg_model"),
    (selection, "ndcg_model", "metrics.ndcg_model"),
    (harness, "model_fold_ndcg", "harness.model_ndcg"),
    (harness, "run_selection", "harness.selection"),
    (fusion.FoldFuser, "__init__", "fusion.fuser_build"),
    (fusion.FoldFuser, "ndcg", "fusion.eval"),
    (harness, "greedy_select", "selection.search"),
    (harness, "exhaustive_select", "selection.search"),
    (harness, "write_splits", "data.write_splits"),
    (harness, "write_weights", "harness.write_weights"),
    (harness, "_write_table_csv", "harness.write_table"),
    (harness, "_write_trace_csv", "harness.write_trace"),
    (harness, "_write_sweep_csv", "harness.write_sweep"),
)


class Tracer:
    """Spans as [name, parent index, start, end] plus plain counters."""

    def __init__(self):
        self.active = True
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self.bundles: list = []
        self.model_ndcg_keys: set = set()
        self._hooks = {
            "data.load": self._on_load,
            "data.read_matrix": self._on_read_matrix,
            "baselines.predict": self._on_predict,
            "selection.search": self._on_search,
            "harness.model_ndcg": self._on_model_ndcg,
            "harness.prepare": self._on_prepare,
        }

    def add(self, key: str, value: float = 1):
        self.counts[key] = self.counts.get(key, 0) + value

    # -- installation ------------------------------------------------------

    def install(self):
        for owner, attr, name in PATCHES:
            raw = (owner.__dict__.get(attr) if isinstance(owner, type)
                   else getattr(owner, attr, None))
            label = f"{getattr(owner, '__name__', owner)}.{attr}"
            if raw is None:
                self.missing.append(label)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(owner, attr, self._wrap(raw, name))
        memo = selection.MemoizedEval.__dict__.get("__call__")
        if memo is None:
            self.missing.append("MemoizedEval.__call__")
        else:
            selection.MemoizedEval.__call__ = self._wrap_memo(memo)

    def _wrap(self, fn, name):
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                span[2] = start
                self._stack.pop()
            if hook is not None:
                hook(result, signature.bind(*args, **kwargs).arguments)
            return result

        return traced

    def _wrap_memo(self, fn):
        @functools.wraps(fn)
        def counted(memo, members):
            before = memo.calls
            result = fn(memo, members)
            if self.active:
                self.add("selection.memo_calls")
                if memo.calls == before:
                    self.add("selection.memo_hits")
            return result

        return counted

    # -- counters read from arguments and results --------------------------

    def _on_load(self, dataset, args):
        self.add("data.load_rows", len(dataset))

    def _on_read_matrix(self, matrix, args):
        # From the blocks' row pointers: building the lists with
        # `entries()` would add time to the enclosing prepare span.
        self.add("data.read_matrix_rows", sum(
            int(matrix.block(fold, model).indptr[-1])
            for fold in matrix.folds() for model in matrix.models(fold)))

    def _on_predict(self, matrix, args):
        self.add("baselines.lists_scored", matrix.n_lists())

    def _on_search(self, trace, args):
        self.add("selection.candidates", len(trace.steps))
        if trace.mode == "greedy":
            # Models added to the starting singleton.
            self.add("selection.accepted_steps", len(trace.chosen_members) - 1)

    def _on_model_ndcg(self, value, args):
        self.model_ndcg_keys.add((args["bundle"].name, args["model"],
                                  args["fold"], args["n"]))

    def _on_prepare(self, bundle, args):
        self.bundles.append(bundle)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.counts["harness.prepare_peak_rss_mb"] = max(
            peak, self.counts.get("harness.prepare_peak_rss_mb", 0.0))


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def oracle_check(config, out: Path, bundles) -> list[dict]:
    """Fold 0's ensemble row of each cell against the reference fusion."""
    checks = []
    for bundle in bundles:
        split = next(s for s in bundle.splits if s.fold_index == 0)
        for n in config.n_values:
            entry = {"dataset": bundle.name, "n": n, "ok": False}
            checks.append(entry)
            try:
                table = _read_csv(out / f"tables_{bundle.name}_{n}.csv")
                trace = _read_csv(out / f"trace_{bundle.name}_{n}.csv")
            except OSError as exc:
                entry["error"] = str(exc)
                continue
            row = next((r for r in table if r["model"] == "ensemble"), None)
            chosen = next((r for r in trace if r["mode"].endswith("-chosen")
                           and r["fold"] == "0" and r["split"] == "test"),
                          None)
            if row is None or chosen is None:
                entry["error"] = "no ensemble row or no chosen fold-0 row"
                continue
            k = int(row["selection"].rsplit("k=", 1)[1])
            members = chosen["members"].split("+")
            reference = selection.evaluate_ensemble(
                members, bundle.norm, bundle.weights[n], split, k, n, "test",
                include_empty_holdout_users=config.include_empty_holdout_users)
            diff = abs(reference - float(row["ndcg_fold0"]))
            entry.update(k=k, members=chosen["members"], table=row["ndcg_fold0"],
                         reference=repr(reference), abs_diff=diff,
                         ok=diff <= ORACLE_TOLERANCE)
    return checks


def main(argv: list[str]) -> int:
    config_path, out, result_path = argv
    config = dataclasses.replace(
        harness.ExperimentConfig.from_file(config_path), output_dir=out)
    tracer = Tracer()
    tracer.install()
    result = harness.run_experiment(config, 1)
    tracer.active = False
    finished = time.perf_counter()

    oracle = oracle_check(config, Path(out), tracer.bundles)
    tracer.counts["harness.model_ndcg_distinct"] = len(tracer.model_ndcg_keys)
    record = {
        "spans": tracer.spans,
        "counts": tracer.counts,
        "missing": tracer.missing,
        "failed_cells": result.failed_cells,
        "oracle": oracle,
        # The oracle and this dump are not part of the traced run's time.
        "post_run_s": time.perf_counter() - finished,
    }
    with Path(result_path).open("w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 2 if result.failed_cells else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
