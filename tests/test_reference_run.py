"""A whole run checked against the per-user oracles.

A tiny config is run end to end. Its own split file, read back with
`read_splits`, is the only input the reference takes from the bundle: each
fold's models are refitted and every train user's list comes from
`FittedModel.recommend`; the lists are min-max normalized one at a time,
weighted by `ndcg_model` on the validation holdout, searched with
`greedy_select` or `exhaustive_select` over `evaluate_ensemble`, and the
picks scored on the test holdout. The weights files, the tables and the
traces must hold exactly these numbers.
"""

import csv

import numpy as np
from hypothesis import given, settings, strategies as st

from recfuse.baselines import MODEL_KINDS, fit, train_incidence
from recfuse.core import IdIndex, ModelWeights, PredictionMatrix
from recfuse.data import format_score, read_splits, read_weights
from recfuse.harness import ExperimentConfig, run_experiment
from recfuse.metrics import ndcg_model
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
        "n_folds": draw(st.integers(2, 3)),
        "normalization": draw(st.sampled_from(
            ("global-minmax", "per-user-minmax"))),
        "selection": {
            "mode": draw(st.sampled_from(("greedy", "exhaustive"))),
            "split": draw(st.sampled_from(("validation", "paper-faithful")))},
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
                    user, config.max_k(), items)
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
    sel, incl = config.selection, config.include_empty_holdout_users
    search = greedy_select if sel.mode == "greedy" else exhaustive_select
    for n in config.n_values:
        weights = ModelWeights({
            (s.fold_index, m): model_ndcg(lists, s, m, "validation", n, incl)
            for s in splits for m in ids}, n)
        assert read_weights(out / f"weights_tiny_{n}.csv") == weights
        k = config.cell_table_k(n)
        table = {row["model"]: [float(row[f"ndcg_fold{s.fold_index}"])
                                for s in splits]
                 for row in _rows(out / f"tables_tiny_{n}.csv")}
        for m in ids:
            assert table[m] == [model_ndcg(lists, s, m, "test", n, incl)
                                for s in splits], m
        chosen = f"{sel.mode}-chosen"
        steps, picks, tests = [], [], []
        for s in splits:
            trace = search(ids, lambda members, s=s: evaluate_ensemble(
                members, norm, weights, s, k, n, sel.holdout, incl))
            steps += [(sel.mode, s.fold_index, step.members, sel.holdout,
                       step.ndcg) for step in trace.steps]
            picks.append((chosen, s.fold_index, trace.chosen_members,
                          sel.holdout, trace.chosen_ndcg))
            tests.append((chosen, s.fold_index, trace.chosen_members, "test",
                          evaluate_ensemble(trace.chosen_members, norm,
                                            weights, s, k, n, "test", incl)))
        assert table["ensemble"] == [row[-1] for row in tests]
        want = steps + (picks if sel.holdout != "test" else []) + tests
        assert [list(row.values())
                for row in _rows(out / f"trace_tiny_{n}.csv")] == [
            [mode, str(fold), "+".join(sorted(members)), str(k), str(n),
             split, format_score(ndcg)]
            for mode, fold, members, split, ndcg in want]
