"""A whole run checked against the per-user oracles.

A tiny config is run end to end. Its own split file, read back with
`read_splits`, is the only input the reference takes from the bundle: each
fold's models are refitted and every train user's list comes from
`FittedModel.recommend`; the lists are min-max normalized one at a time,
weighted by `ndcg_model` on the validation holdout, searched with
`greedy_select` or `exhaustive_select` over `evaluate_ensemble`, and the
picks scored on the test holdout, per fold or, in fixed-subset scope, on
the cross-fold mean. The weights files, the tables with their means and
percent columns, the traces, and every sweep row with its confidence
interval must hold exactly these numbers.
"""

import csv

import numpy as np
from hypothesis import given, settings, strategies as st

from recfuse.baselines import MODEL_KINDS, fit, train_incidence
from recfuse.core import IdIndex, ModelWeights, PredictionMatrix
from recfuse.data import format_score, read_splits, read_weights
from recfuse.harness import (
    ExperimentConfig,
    confidence_interval,
    pct_vs_ppl,
    run_experiment,
)
from recfuse.metrics import left_sum, ndcg_model
from recfuse.selection import (
    evaluate_ensemble,
    exhaustive_select,
    greedy_select,
)


@st.composite
def tiny_configs(draw):
    """Up to 30 users and 25 items over 2-3 folds, every model kind. Every
    user holds five or more items on average, so some user in each fold
    has validation and test items and no population is empty."""
    n_users, n_items = draw(st.integers(4, 30)), draw(st.integers(10, 25))
    n_values = sorted(draw(st.sets(st.sampled_from((5, 10)), min_size=1)))
    k_values = draw(st.sets(st.integers(5, 14), max_size=2)) | {n_values[-1]}
    nn = draw(st.integers(1, 6))
    table_k = draw(st.none() | st.integers(n_values[-1], 14))
    return ExperimentConfig.from_dict({
        "seed": draw(st.integers(0, 2**32)),
        "output_dir": "",
        "datasets": [{"name": "tiny", "synthetic": {
            "n_users": n_users, "n_items": n_items,
            "n_interactions": draw(st.integers(
                5 * n_users, n_users * n_items * 3 // 5))}}],
        "models": [{"kind": kind, "id": kind, "params": {"nn": nn}}
                   for kind in MODEL_KINDS],
        "n_values": n_values,
        "k_values": sorted(k_values),
        "table_k": table_k,
        "n_folds": draw(st.integers(2, 3)),
        "normalization": draw(st.sampled_from(
            ("global-minmax", "per-user-minmax"))),
        "selection": {
            "mode": draw(st.sampled_from(("greedy", "exhaustive"))),
            "split": draw(st.sampled_from(("validation", "paper-faithful"))),
            "scope": draw(st.sampled_from(("per-fold", "fixed-subset")))},
        "include_empty_holdout_users": draw(st.booleans()),
    })


def reference_lists(config, splits):
    """{(fold, model, user): recommend() list} for every train user."""
    lists = {}
    for split in splits:
        train = train_incidence(split.indexed_subset("train"))
        for m in config.models:
            model = fit(m.kind, train, m.params, m.model_id)
            for user, items in split.train.items():
                lists[split.fold_index, m.model_id, user] = model.recommend(
                    user, max(*config.k_values, config.table_k or 0), items)
    return lists


def minmax(lists, mode):
    """Each list rescaled one score at a time over its (fold, model) block's
    scores (global) or its own (per user), a minimum to +0.0. Rounding may
    tie two scores out of item order, so the lists are not checked."""
    blocks = {}
    for (fold, model, _), lst in lists.items():
        blocks.setdefault((fold, model), []).extend(si.score for si in lst)
    scores = []
    for key, lst in lists.items():
        span = ([si.score for si in lst] if mode == "per-user-minmax"
                else blocks[key[:2]])
        lo, hi = min(span, default=0.0), max(span, default=0.0)
        scores += [(si.score - lo) / (hi - lo) + 0.0 if hi > lo else 1.0
                   for si in lst]
    items = IdIndex(si.item_id for lst in lists.values() for si in lst)
    return PredictionMatrix._from_lists(
        list(lists), [len(lst) for lst in lists.values()],
        items.indices(si.item_id for lst in lists.values() for si in lst),
        np.array(scores), items)


def model_ndcg(lists, split, model, kind, n, incl):
    return ndcg_model({user: [si.item_id for si in lst]
                       for (fold, m, user), lst in lists.items()
                       if (fold, m) == (split.fold_index, model)},
                      split.holdout(kind), n, incl)


def mean(values):
    return left_sum(values) / len(values)


def reference_cell(config, splits, norm, weights, k, n):
    """The (n, k) selection from the oracles: its trace rows as the trace
    file holds them, and each fold's test score of its pick."""
    sel, incl = config.selection, config.include_empty_holdout_users
    search = greedy_select if sel.mode == "greedy" else exhaustive_select
    ids = [m.model_id for m in config.models]

    def score(members, split, holdout):
        return evaluate_ensemble(members, norm, weights, split, k, n,
                                 holdout, incl)

    if sel.scope == "per-fold":
        traces = [(s.fold_index, search(ids, lambda members, s=s: score(
            members, s, sel.holdout))) for s in splits]
        picks = [trace for _, trace in traces]
    else:
        traces = [("all", search(ids, lambda members: mean(
            [score(members, s, sel.holdout) for s in splits])))]
        picks = [traces[0][1]] * len(splits)
    tests = [score(pick.chosen_members, s, "test")
             for s, pick in zip(splits, picks)]
    chosen = f"{sel.mode}-chosen"
    rows = [(sel.mode, fold, step.members, sel.holdout, step.ndcg)
            for fold, trace in traces for step in trace.steps]
    if sel.holdout != "test":
        rows += [(chosen, fold, trace.chosen_members, sel.holdout,
                  trace.chosen_ndcg) for fold, trace in traces]
    rows += [(chosen, s.fold_index, pick.chosen_members, "test", test)
             for s, pick, test in zip(splits, picks, tests)]
    return [[mode, str(fold), "+".join(sorted(members)), str(k), str(n),
             split, format_score(ndcg)]
            for mode, fold, members, split, ndcg in rows], tests


def _rows(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@given(tiny_configs())
@settings(max_examples=30, deadline=None)
def test_bundle_equals_the_oracle_pipeline(tmp_path_factory, config):
    out = tmp_path_factory.mktemp("run")
    config = ExperimentConfig.from_dict({**config.canonical_dict(),
                                         "output_dir": str(out)})
    assert run_experiment(config).failed_cells == []
    splits = read_splits(out / "splits_tiny.csv")
    assert [s.fold_index for s in splits] == list(range(config.n_folds))
    lists = reference_lists(config, splits)
    norm = minmax(lists, config.normalization)
    ids = [m.model_id for m in config.models]
    incl = config.include_empty_holdout_users
    for n in config.n_values:
        weights = ModelWeights({
            (s.fold_index, m): model_ndcg(lists, s, m, "validation", n, incl)
            for s in splits for m in ids}, n)
        assert read_weights(out / f"weights_tiny_{n}.csv") == weights
        ks = [k for k in config.k_values if k >= n]
        table_k = max(ks) if config.table_k is None else config.table_k
        cells = {k: reference_cell(config, splits, norm, weights, k, n)
                 for k in {table_k, *ks}}
        scores = {m: [model_ndcg(lists, s, m, "test", n, incl)
                      for s in splits] for m in ids}
        means = {m: mean(v) for m, v in scores.items()}
        trace, scores["ensemble"] = cells[table_k]
        table = {row["model"]: row
                 for row in _rows(out / f"tables_tiny_{n}.csv")}
        assert list(table) == [*ids, "ensemble"]
        for m, row in table.items():
            assert [float(row[f"ndcg_fold{s.fold_index}"])
                    for s in splits] == scores[m], m
            assert float(row["mean"]) == mean(scores[m]), m
            pct = pct_vs_ppl(mean(scores[m]), means["popularity"])
            assert row["pct_vs_ppl"] == ("n/a" if pct is None else str(pct))
        assert [list(row.values())
                for row in _rows(out / f"trace_tiny_{n}.csv")] == trace
        best = min(means, key=lambda m: (-means[m], m))
        assert [list(row.values())
                for row in _rows(out / f"sweep_tiny_{n}.csv")] == [
            ["tiny", str(n), str(k), *map(format_score, (
                mean(cells[k][1]), *confidence_interval(cells[k][1]))),
             best, format_score(means[best])]
            for k in ks]
