"""Release gate: one test per numbered acceptance criterion.

Each test exercises a stated contract end to end at its stated tolerance
and runtime budget, and records a PASS/FAIL verdict line that the terminal
summary prints after the run.
"""

import csv
import hashlib
import itertools
import json
import random
from collections import Counter
from time import perf_counter

import pytest

from conftest import ACCEPTANCE_LINES
from recfuse.cli import main as cli_main
from recfuse.core import ScoredItem
from recfuse.data import read_splits, split_folds, write_splits
from recfuse.fusion import fuse_user
from recfuse.harness import (
    DEFAULT_K_VALUES,
    ExperimentConfig,
    pct_vs_ppl,
    run_experiment,
)
from recfuse.metrics import ndcg_user
from recfuse.selection import (
    GREEDY_TOLERANCE,
    MemoizedEval,
    exhaustive_select,
    greedy_select,
)
from recfuse.synthetic import generate_interactions


def verdict(num: int, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


SIX_MODELS = [
    {"kind": "popularity", "id": "ppl"},
    {"kind": "user-knn", "id": "uknn"},
    {"kind": "item-knn", "id": "iknn"},
    {"kind": "item-item-cosine", "id": "cos"},
    {"kind": "item-item-tfidf", "id": "tfidf"},
    {"kind": "item-item-bm25", "id": "bm25"},
]


def test_criterion_1_metric_fidelity():
    t0 = perf_counter()
    value = ndcg_user(["a", "b", "c"], {"a", "c"}, 3)
    exact_ok = abs(value - 0.70392) <= 1e-5

    rng = random.Random(11)
    bounded = monotone = discounted = True
    for _ in range(1000):
        pool = [f"i{j}" for j in range(rng.randint(1, 30))]
        rng.shuffle(pool)
        n = rng.randint(1, 25)
        holdout = {i for i in pool if rng.random() < 0.3}
        v = ndcg_user(pool, holdout, n)
        if not 0.0 <= v <= 1.0:
            bounded = False
        head = pool[:n]
        # marking one more listed item relevant never lowers the score
        unrewarded = [i for i in head if i not in holdout]
        if unrewarded:
            v_up = ndcg_user(pool, holdout | {rng.choice(unrewarded)}, n)
            if v_up < v:
                monotone = False
        # moving a relevant item strictly earlier strictly raises the score
        swaps = [(p, q)
                 for q, hit in enumerate(head) if hit in holdout
                 for p in range(q) if head[p] not in holdout]
        if swaps:
            p, q = rng.choice(swaps)
            moved = list(pool)
            moved[p], moved[q] = moved[q], moved[p]
            if ndcg_user(moved, holdout, n) <= v:
                discounted = False
    elapsed = perf_counter() - t0
    verdict(1, exact_ok and bounded and monotone and discounted
            and elapsed < 1.0,
            f"ndcg_user fixture {value:.5f} (want 0.70392 +-1e-5), "
            f"1000 randomized lists bounded/monotone/rank-discounted, "
            f"{elapsed:.2f}s < 1s")


def _naive_fuse(per_model_lists, weights, k, n):
    """Accumulate-and-sort reference, no shared code with fuse_user."""
    acc: dict[str, float] = {}
    for model, lst in per_model_lists.items():
        for si in list(lst)[:k]:
            acc[si.item_id] = acc.get(si.item_id, 0.0) + weights[model] * si.score
    order = sorted(acc, key=lambda item: (-acc[item], item))
    return [(item, acc[item]) for item in order[:n]]


def test_criterion_2_fusion_oracle_equivalence():
    t0 = perf_counter()
    rng = random.Random(23)
    pool = [f"it{j:02d}" for j in range(20)]
    ok = True
    for _ in range(500):
        models = [f"m{j}" for j in range(rng.randint(1, 5))]
        lists = {}
        for m in models:
            size = rng.randint(1, 20)
            chosen = rng.sample(pool, size)
            scored = sorted(((i, rng.random()) for i in chosen),
                            key=lambda pair: (-pair[1], pair[0]))
            lists[m] = [ScoredItem(i, s) for i, s in scored]
        weights = {m: rng.random() for m in models}
        k = rng.randint(1, 20)
        n = rng.randint(1, k)
        got = fuse_user(lists, weights, k, n)
        want = _naive_fuse(lists, weights, k, n)
        if [si.item_id for si in got.items] != [i for i, _ in want]:
            ok = False
        if any(abs(si.score - s) > 1e-12
               for si, (_, s) in zip(got.items, want)):
            ok = False
    elapsed = perf_counter() - t0
    verdict(2, ok and elapsed < 5.0,
            f"500 random instances: ordering identical, scores within "
            f"1e-12 of the naive reference, {elapsed:.2f}s < 5s")


def _simulate_greedy(models, table):
    """Reference forward search: best singleton, then best strict addition."""
    roster = sorted(models)
    accepted = []
    current = max(((frozenset([m]), table[frozenset([m])]) for m in roster),
                  key=lambda pair: pair[1])
    # max() keeps the first maximum, which is the earliest in sorted order
    accepted.append(current[1])
    while len(current[0]) < len(roster):
        best = None
        for m in roster:
            if m in current[0]:
                continue
            cand = current[0] | {m}
            score = table[cand]
            if best is None or score > best[1]:
                best = (cand, score)
        if best[1] <= current[1] + GREEDY_TOLERANCE:
            break
        current = best
        accepted.append(current[1])
    return current, accepted


def test_criterion_3_selection_soundness():
    t0 = perf_counter()
    models = ["m1", "m2", "m3", "m4"]
    subsets = [frozenset(c) for size in range(1, 5)
               for c in itertools.combinations(models, size)]
    rng = random.Random(37)
    dominance = monotone = count_ok = True
    for _ in range(200):
        table = {s: rng.random() for s in subsets}
        ex_eval = MemoizedEval(lambda m, _t=table: _t[m])
        ex = exhaustive_select(models, ex_eval)
        gr = greedy_select(models, MemoizedEval(lambda m, _t=table: _t[m]))
        if ex.chosen_ndcg < gr.chosen_ndcg:
            dominance = False
        if ex_eval.calls != 15:
            count_ok = False
        sim, accepted = _simulate_greedy(models, table)
        if sim[0] != gr.chosen_members or sim[1] != gr.chosen_ndcg:
            monotone = False
        if any(b < a for a, b in zip(accepted, accepted[1:])):
            monotone = False
    elapsed = perf_counter() - t0
    verdict(3, dominance and monotone and count_ok and elapsed < 5.0,
            f"200 random 4-model tables: exhaustive >= greedy, greedy "
            f"accepted steps non-decreasing, exhaustive evaluated exactly "
            f"15 candidates, {elapsed:.2f}s < 5s")


@pytest.fixture(scope="module")
def midsize_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept4") / "run"
    cfg = ExperimentConfig.from_dict({
        "seed": 77,
        "output_dir": str(out),
        "datasets": [{"name": "mid", "synthetic": {
            "n_users": 500, "n_items": 350, "n_interactions": 15000}}],
        "models": SIX_MODELS,
        "n_values": [5, 10, 20],
        "k_values": [20],
        "n_folds": 5,
    })
    t0 = perf_counter()
    result = run_experiment(cfg, threads=None)
    return cfg, result, perf_counter() - t0


def _trace_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_criterion_4_greedy_construction_guarantee(midsize_run):
    cfg, result, elapsed = midsize_run
    ok = result.failed_cells == []
    cells = 0
    for n in (5, 10, 20):
        rows = _trace_rows(result.output_dir / f"trace_mid_{n}.csv")
        for fold in range(cfg.n_folds):
            singles = [float(r["ndcg"]) for r in rows
                       if r["mode"] == "greedy" and r["fold"] == str(fold)
                       and "+" not in r["members"]]
            chosen = [float(r["ndcg"]) for r in rows
                      if r["mode"] == "greedy-chosen"
                      and r["fold"] == str(fold)
                      and r["split"] == "validation"]
            if len(singles) != 6 or len(chosen) != 1:
                ok = False
                continue
            if chosen[0] < max(singles):
                ok = False
            cells += 1
    verdict(4, ok and cells == 15 and elapsed < 120.0,
            f"500-user end-to-end run: chosen validation NDCG >= best "
            f"singleton in all {cells} (fold, n) cells from the traces, "
            f"{elapsed:.1f}s < 120s")


# Published aggregate means at cutoff 5 and their printed percent columns
# relative to the popularity baseline (mean 0.0832).
REFERENCE_ROWS_AT_5 = [
    ("als", 0.1566, 88),
    ("bpr", 0.0864, 4),
    ("improved-mf", 0.1462, 76),
    ("item-item-bm25", 0.1704, 105),
    ("item-item-cosine", 0.1546, 86),
    ("item-item-tfidf", 0.1624, 95),
    ("item-knn", 0.1616, 94),
    ("logistic-mf", 0.123, 48),
    ("popularity", 0.0832, 0),
    ("user-knn", 0.1704, 105),
    ("ensemble", 0.1854, 123),
]


def test_criterion_5_reference_table_mechanics():
    ppl_mean = 0.0832
    worst = 0
    for _, mean, printed in REFERENCE_ROWS_AT_5:
        got = pct_vs_ppl(mean, ppl_mean)
        worst = max(worst, abs(got - printed))
    verdict(5, worst <= 1,
            f"all {len(REFERENCE_ROWS_AT_5)} published percent columns "
            f"reproduced from the published means, max deviation "
            f"{worst}pp <= 1pp")


@pytest.fixture(scope="module")
def desk_scale_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept6") / "run"
    cfg = ExperimentConfig.from_dict({
        "seed": 13,
        "output_dir": str(out),
        "datasets": [{"name": "desk", "synthetic": {
            "n_users": 943, "n_items": 1682, "n_interactions": 100000}}],
        "models": SIX_MODELS,
        "n_values": [5, 10],
        "k_values": list(DEFAULT_K_VALUES),
        "n_folds": 5,
    })
    t0 = perf_counter()
    result = run_experiment(cfg, threads=None)
    return cfg, result, perf_counter() - t0


def test_criterion_6_ensemble_wins_at_desk_scale(desk_scale_run):
    cfg, result, elapsed = desk_scale_run
    ok = result.failed_cells == []

    with open(result.output_dir / "sweep_desk_5.csv", newline="",
              encoding="utf-8") as fh:
        ks = [int(r["k"]) for r in csv.DictReader(fh)]
    sweep_ok = tuple(ks) == DEFAULT_K_VALUES

    with open(result.output_dir / "tables_desk_10.csv", newline="",
              encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    fold_cols = [f"ndcg_fold{i}" for i in range(5)]
    per_model = {r["model"]: [float(r[c]) for c in fold_cols] for r in rows}
    singles = {m: v for m, v in per_model.items() if m != "ensemble"}
    best = max(sorted(singles), key=lambda m: sum(singles[m]))
    wins = sum(e >= b for e, b in zip(per_model["ensemble"], singles[best]))

    verdict(6, ok and sweep_ok and wins >= 4 and elapsed < 600.0,
            f"943x1682 run: ensemble test NDCG@10 >= best single "
            f"({best}) on {wins}/5 folds (need >= 4), sweep covers all "
            f"{len(DEFAULT_K_VALUES)} k values, {elapsed:.0f}s < 600s")


def _bundle_digests(out_dir):
    digests = {}
    for p in sorted(out_dir.iterdir()):
        if p.name == "timings.json":
            continue
        digests[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


def test_criterion_7_byte_identical_reruns(tmp_path):
    raw = {
        "seed": 4242,
        "output_dir": "unused",
        "datasets": [{"name": "toy", "synthetic": {
            "n_users": 60, "n_items": 80, "n_interactions": 1800}}],
        "models": SIX_MODELS[:3],
        "n_values": [5],
        "k_values": [5, 10],
        "n_folds": 3,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    for out, threads in zip(dirs, ("1", "4", "2")):
        code = cli_main(["run", "--config", str(config_path),
                         "--threads", threads, "--out", str(out)])
        assert code == 0
    first = _bundle_digests(dirs[0])
    same = all(_bundle_digests(d) == first for d in dirs[1:])
    verdict(7, same and len(first) == 6,
            f"three runs (threads 1/4/2) produced byte-identical bundles "
            f"({len(first)} files compared, timings excluded)")


def test_criterion_8_split_contract(tmp_path):
    dataset = generate_interactions(400, 200, 8000, seed=21)
    items_of: dict[str, set[str]] = {}
    for u, i in dataset.pairs():
        items_of.setdefault(u, set()).add(i)
    counts = Counter({u: len(s) for u, s in items_of.items()})
    folds = split_folds(dataset, seed=9, n_folds=5)
    proportions = coverage = True
    for split in folds:
        for user, cnt in counts.items():
            train = split.train.get(user, frozenset())
            val = split.validation.get(user, frozenset())
            test = split.test.get(user, frozenset())
            if cnt >= 5:
                if not (len(val) == cnt // 5 == len(test)
                        and len(train) == cnt - 2 * (cnt // 5)):
                    proportions = False
            elif not (len(train) == cnt and not val and not test):
                proportions = False
            if len(train) + len(val) + len(test) != cnt:
                coverage = False
            if (train | val | test) != items_of[user]:
                coverage = False
    path = tmp_path / "splits.csv"
    write_splits(folds, path)
    roundtrip = read_splits(path) == folds
    verdict(8, proportions and coverage and roundtrip,
            f"floor-rule 60/20/20 proportions hold for all "
            f"{len(counts)} users x {len(folds)} folds, subsets disjoint "
            f"and covering, audit CSV round-trips")
