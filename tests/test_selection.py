import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from recfuse.baselines import fit, generate_matrix, train_incidence
from recfuse.core import FoldSplit, ModelWeights, PredictionMatrix, ScoredItem
from recfuse.fusion import FoldFuser, normalize_scores
from recfuse.metrics import holdout_keys
from recfuse.selection import (
    EXHAUSTIVE_LIMIT,
    GREEDY_TOLERANCE,
    MemoizedEval,
    SelectionTrace,
    compute_weights,
    evaluate_ensemble,
    exhaustive_select,
    greedy_select,
)


def table_eval(table):
    """Candidate evaluator backed by a {frozenset: score} dict."""
    return lambda members: table[frozenset(members)]


def full_table(scores_by_subset):
    return {frozenset(k): v for k, v in scores_by_subset.items()}


class TestGreedy:
    def test_no_improving_superset_keeps_best_singleton(self):
        table = full_table({
            ("a",): 0.3, ("b",): 0.25, ("c",): 0.2,
            ("a", "b"): 0.3, ("a", "c"): 0.28,
            ("a", "b", "c"): 0.29,
        })
        trace = greedy_select(["a", "b", "c"], table_eval(table))
        assert trace.chosen_members == frozenset(["a"])
        assert trace.chosen_ndcg == 0.3

    def test_accepts_improving_pair_then_stops(self):
        table = full_table({
            ("a",): 0.3, ("b",): 0.2, ("c",): 0.1,
            ("a", "b"): 0.35, ("a", "c"): 0.15,
            ("a", "b", "c"): 0.34,
        })
        trace = greedy_select(["a", "b", "c"], table_eval(table))
        assert trace.chosen_members == frozenset(["a", "b"])
        assert trace.chosen_ndcg == 0.35

    def test_single_model(self):
        trace = greedy_select(["only"], table_eval(full_table({("only",): 0.5})))
        assert trace.chosen_members == frozenset(["only"])
        assert len(trace.steps) == 1

    def test_tolerance_blocks_sub_noise_improvements(self):
        base = {("a",): 0.3, ("b",): 0.1}
        below = full_table({**base, ("a", "b"): 0.3 + GREEDY_TOLERANCE / 2})
        above = full_table({**base, ("a", "b"): 0.3 + 1e-9})
        assert greedy_select(["a", "b"], table_eval(below)).chosen_members == \
            frozenset(["a"])
        assert greedy_select(["a", "b"], table_eval(above)).chosen_members == \
            frozenset(["a", "b"])

    def test_round_tie_resolves_to_earlier_candidate(self):
        table = full_table({
            ("a",): 0.5, ("b",): 0.2, ("c",): 0.2,
            ("a", "b"): 0.7, ("a", "c"): 0.7,
            ("a", "b", "c"): 0.7,
        })
        trace = greedy_select(["a", "b", "c"], table_eval(table))
        assert trace.chosen_members == frozenset(["a", "b"])

    def test_trace_records_every_candidate(self):
        table = full_table({
            ("a",): 0.3, ("b",): 0.2, ("c",): 0.1,
            ("a", "b"): 0.35, ("a", "c"): 0.15,
            ("a", "b", "c"): 0.34,
        })
        trace = greedy_select(["c", "a", "b"], table_eval(table))
        evaluated = [step.members for step in trace.steps]
        assert evaluated == [frozenset(["a"]), frozenset(["b"]),
                             frozenset(["c"]),
                             frozenset(["a", "b"]), frozenset(["a", "c"]),
                             frozenset(["a", "b", "c"])]

    def test_no_models_rejected(self):
        with pytest.raises(ValueError, match="no models"):
            greedy_select([], table_eval({}))


class TestExhaustive:
    def test_single_model(self):
        trace = exhaustive_select(["m"], table_eval(full_table({("m",): 0.4})))
        assert trace.chosen_members == frozenset(["m"])
        assert len(trace.steps) == 1

    def test_three_models_evaluate_seven_candidates(self):
        table = {frozenset(c): 0.1 * len(c)
                 for size in (1, 2, 3)
                 for c in itertools.combinations("abc", size)}
        trace = exhaustive_select(["a", "b", "c"], table_eval(table))
        assert len(trace.steps) == 7
        assert len({step.members for step in trace.steps}) == 7
        assert trace.chosen_members == frozenset("abc")

    def test_tie_resolves_to_lexicographically_smallest(self):
        table = full_table({
            ("a",): 0.3, ("b",): 0.3, ("c",): 0.1,
            ("a", "b"): 0.3, ("a", "c"): 0.3, ("b", "c"): 0.3,
            ("a", "b", "c"): 0.3,
        })
        trace = exhaustive_select(["a", "b", "c"], table_eval(table))
        assert trace.chosen_members == frozenset(["a"])

    def test_limit_enforced(self):
        roster = [f"m{i:02d}" for i in range(EXHAUSTIVE_LIMIT + 1)]
        with pytest.raises(ValueError, match="exhaustive limit exceeded"):
            exhaustive_select(roster, lambda m: 0.0)

    def test_four_model_fixture_matches_second_enumeration(self):
        rng_scores = [(i * 2654435761 % 1000) / 1000.0 for i in range(15)]
        roster = ["w", "x", "y", "z"]
        subsets = [frozenset(c) for size in (1, 2, 3, 4)
                   for c in itertools.combinations(roster, size)]
        table = dict(zip(subsets, rng_scores))
        trace = exhaustive_select(roster, table_eval(table))
        # independent enumeration in a different order
        best = None
        for members in sorted(table, key=lambda m: tuple(sorted(m)),
                              reverse=True):
            key = (-table[members], tuple(sorted(members)))
            if best is None or key < best[0]:
                best = (key, members)
        assert trace.chosen_members == best[1]
        assert trace.chosen_ndcg == table[best[1]]

    def test_no_models_rejected(self):
        with pytest.raises(ValueError, match="no models"):
            exhaustive_select([], lambda m: 0.0)


# -- properties over random 4-model tables --------------------------------------

ROSTER4 = ("a", "b", "c", "d")
SUBSETS4 = [frozenset(c) for size in (1, 2, 3, 4)
            for c in itertools.combinations(ROSTER4, size)]


@st.composite
def random_tables(draw):
    scores = draw(st.lists(st.floats(0.0, 1.0, allow_nan=False),
                           min_size=15, max_size=15))
    return dict(zip(SUBSETS4, scores))


@given(random_tables())
@settings(max_examples=150, deadline=None)
def test_exhaustive_dominates_greedy(table):
    greedy = greedy_select(ROSTER4, table_eval(table))
    exhaustive = exhaustive_select(ROSTER4, table_eval(table))
    assert exhaustive.chosen_ndcg >= greedy.chosen_ndcg
    assert exhaustive.chosen_ndcg == max(table.values())
    assert len(exhaustive.steps) == 2 ** len(ROSTER4) - 1


@given(random_tables())
@settings(max_examples=150, deadline=None)
def test_greedy_never_below_best_singleton(table):
    trace = greedy_select(ROSTER4, table_eval(table))
    best_single = max(table[frozenset([m])] for m in ROSTER4)
    assert trace.chosen_ndcg >= best_single
    assert trace.chosen_ndcg == table[trace.chosen_members]


@given(random_tables())
@settings(max_examples=100, deadline=None)
def test_greedy_matches_independent_simulation(table):
    trace = greedy_select(ROSTER4, table_eval(table))
    current = None
    current_score = None
    for m in ROSTER4:
        s = table[frozenset([m])]
        if current_score is None or s > current_score:
            current, current_score = frozenset([m]), s
    while len(current) < len(ROSTER4):
        round_best, round_score = None, None
        for m in ROSTER4:
            if m in current:
                continue
            s = table[current | {m}]
            if round_score is None or s > round_score:
                round_best, round_score = current | {m}, s
        if round_score > current_score + GREEDY_TOLERANCE:
            current, current_score = round_best, round_score
        else:
            break
    assert trace.chosen_members == current
    assert trace.chosen_ndcg == current_score


def test_determinism_same_table_same_trace():
    table = {s: (hash(tuple(sorted(s))) % 997) / 997.0 for s in SUBSETS4}
    a = greedy_select(ROSTER4, table_eval(table))
    b = greedy_select(ROSTER4, table_eval(table))
    assert a == b
    c = exhaustive_select(ROSTER4, table_eval(table))
    d = exhaustive_select(ROSTER4, table_eval(table))
    assert c == d


class TestMemoizedEval:
    def test_counts_only_underlying_calls(self):
        table = full_table({
            ("a",): 0.5, ("b",): 0.4, ("c",): 0.3,
            ("a", "b"): 0.6, ("a", "c"): 0.55,
            ("a", "b", "c"): 0.7,
        })
        memo = MemoizedEval(table_eval(table))
        trace = greedy_select(["a", "b", "c"], memo)
        assert trace.chosen_members == frozenset("abc")
        assert memo.calls == 6
        greedy_select(["a", "b", "c"], memo)
        assert memo.calls == 6

    def test_exhaustive_then_greedy_reuses_cache(self):
        table = {s: len(s) / 10 for s in SUBSETS4}
        memo = MemoizedEval(table_eval(table))
        exhaustive_select(ROSTER4, memo)
        assert memo.calls == 15
        greedy_select(ROSTER4, memo)
        assert memo.calls == 15


class TestSelectionTrace:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown selection mode"):
            SelectionTrace("backward", (), frozenset(["a"]), 0.1)

    def test_empty_chosen_rejected(self):
        with pytest.raises(ValueError, match="chosen_members must be nonempty"):
            SelectionTrace("greedy", (), frozenset(), 0.1)


def validation_keys(matrix, splits):
    """Each split's validation holdout over the matrix's indexes."""
    return {s.fold_index: holdout_keys(s.indexed_subset("validation"),
                                       matrix.user_index, matrix.item_index)
            for s in splits}


class TestComputeWeights:
    def holdout_fixture(self):
        matrix = PredictionMatrix.from_entries({
            (0, "M", "u1"): [ScoredItem("i1", 0.9), ScoredItem("i2", 0.5)],
            (0, "M", "u2"): [ScoredItem("i3", 0.9), ScoredItem("i1", 0.5)],
            (0, "M", "u3"): [ScoredItem("i2", 0.9), ScoredItem("i3", 0.5)],
        })
        split = FoldSplit(
            fold_index=0,
            train={"u1": frozenset(["t1"]), "u2": frozenset(["t1"]),
                   "u3": frozenset(["t1"])},
            validation={"u1": frozenset(["i1"]), "u2": frozenset(["i1"]),
                        "u3": frozenset(["i9"])},
            test={},
        )
        return matrix, split

    def test_three_user_oracle(self):
        matrix, split = self.holdout_fixture()
        weights = compute_weights(matrix, validation_keys(matrix, [split]), n=2)
        idcg2 = 1.0 + 1.0 / math.log2(3)
        expected = ((1.0 / idcg2) + ((1.0 / math.log2(3)) / idcg2) + 0.0) / 3
        assert weights.weight(0, "M") == pytest.approx(expected, abs=1e-12)
        assert weights.cutoff_n == 2

    def test_model_that_never_hits_gets_zero(self):
        matrix = PredictionMatrix.from_entries({
            (0, "M", "u1"): [ScoredItem("i1", 0.9)],
        })
        split = FoldSplit(0, {"u1": frozenset(["t1"])},
                          {"u1": frozenset(["other"])}, {})
        weights = compute_weights(matrix, validation_keys(matrix, [split]), n=1)
        assert weights.weight(0, "M") == 0.0

    def test_half_hit_rate_gives_half(self):
        matrix = PredictionMatrix.from_entries({
            (0, "M", "u1"): [ScoredItem("i1", 0.9)],
            (0, "M", "u2"): [ScoredItem("i1", 0.9)],
        })
        split = FoldSplit(0, {"u1": frozenset(["t1"]), "u2": frozenset(["t1"])},
                          {"u1": frozenset(["i1"]), "u2": frozenset(["i7"])}, {})
        weights = compute_weights(matrix, validation_keys(matrix, [split]), n=1)
        assert weights.weight(0, "M") == 0.5

    def test_missing_split_rejected(self):
        matrix, split = self.holdout_fixture()
        with pytest.raises(ValueError, match="no holdout provided for fold 0"):
            compute_weights(matrix, {}, n=2)

    def test_holdout_over_another_matrix_rejected(self):
        matrix, split = self.holdout_fixture()
        other = PredictionMatrix.from_entries({
            (0, "M", "u1"): [ScoredItem("i1", 0.9)],
        })
        with pytest.raises(ValueError,
                           match="fold 0's holdout is over 1 users, not 3"):
            compute_weights(matrix, validation_keys(other, [split]), n=2)

    def test_missing_model_block_rejected(self):
        matrix = PredictionMatrix.from_entries({
            (0, "A", "u1"): [ScoredItem("i1", 0.9)],
            (1, "B", "u1"): [ScoredItem("i1", 0.9)],
        })
        splits = [FoldSplit(f, {"u1": frozenset(["t1"])},
                            {"u1": frozenset(["i1"])}, {}) for f in (0, 1)]
        with pytest.raises(ValueError, match="no lists for model 'B' in fold 0"):
            compute_weights(matrix, validation_keys(matrix, splits), n=1)

    def test_weights_identical_on_normalized_matrix(self):
        matrix, split = self.holdout_fixture()
        holdouts = validation_keys(matrix, [split])
        raw = compute_weights(matrix, holdouts, n=2)
        normalized = compute_weights(normalize_scores(matrix), holdouts, n=2)
        assert raw.weights == normalized.weights


class TestEvaluateEnsemble:
    def test_singleton_equals_model_ndcg(self):
        matrix, split = TestComputeWeights().holdout_fixture()
        normalized = normalize_scores(matrix)
        weights = ModelWeights({(0, "M"): 0.75}, 2)
        from recfuse.metrics import ndcg_model
        lists = {u: matrix.ranked_ids(0, "M", u, limit=2)
                 for u in matrix.users(0, "M")}
        direct = ndcg_model(lists, split.holdout("validation"), 2)
        fused = evaluate_ensemble(["M"], normalized, weights, split, k=2, n=2,
                                  holdout_kind="validation")
        assert fused == pytest.approx(direct, abs=1e-12)


@pytest.fixture(scope="module")
def small_bundle(small_folds):
    folds = small_folds[:2]
    by_fold = {}
    for fold in folds:
        train = train_incidence(fold.indexed_subset("train"))
        by_fold[fold.fold_index] = [
            fit("popularity", train, model_id="ppl"),
            fit("item-item-cosine", train, params={"nn": 5}, model_id="cos"),
            fit("user-knn", train, params={"nn": 5}, model_id="uknn"),
        ]
    raw = generate_matrix(by_fold, k_max=10)
    normalized = normalize_scores(raw)
    weights = compute_weights(raw, validation_keys(raw, folds), n=5)
    return normalized, weights, folds


ALL_SUBSETS = [frozenset(c) for size in (1, 2, 3)
               for c in itertools.combinations(("cos", "ppl", "uknn"), size)]


def test_fold_fuser_matches_reference(small_bundle):
    normalized, weights, folds = small_bundle
    for split in folds:
        fuser = FoldFuser(normalized, split.fold_index, 10)
        for holdout in ("validation", "test"):
            keys = holdout_keys(split.indexed_subset(holdout),
                                normalized.user_index, normalized.item_index)
            for members in ALL_SUBSETS:
                reference = evaluate_ensemble(
                    sorted(members), normalized, weights, split, k=10, n=5,
                    holdout_kind=holdout)
                assert fuser.ndcg(sorted(members), weights, keys, 5) \
                    == reference, (split.fold_index, holdout, sorted(members))
