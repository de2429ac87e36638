import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import indexed_pairs
from recfuse.core import FoldSplit, ModelWeights, PredictionMatrix, ScoredItem
from recfuse.fusion import (
    NORMALIZATION_MODES,
    FoldFuser,
    FusedList,
    fuse_all,
    fuse_user,
    normalize_scores,
)
from recfuse.metrics import holdout_keys, idcg, ndcg_model
from recfuse.selection import evaluate_ensemble


def naive_fuse(per_model_lists, weights, k, n):
    """Reference implementation: dict accumulation then sort."""
    acc = {}
    for model, lst in per_model_lists.items():
        for si in lst[:k]:
            acc[si.item_id] = acc.get(si.item_id, 0.0) + weights[model] * si.score
    ranked = sorted(acc.items(), key=lambda p: (-p[1], p[0]))
    return ranked[:n]


class TestNormalize:
    def test_affine_endpoints(self, tiny_matrix):
        m = PredictionMatrix.from_entries({
            (0, "A", "u1"): [ScoredItem("a", 6.0), ScoredItem("b", 4.0),
                             ScoredItem("c", 2.0)],
        })
        normed = normalize_scores(m)
        scores = [si.score for si in normed.scored_list(0, "A", "u1")]
        assert scores == [1.0, 0.5, 0.0]

    def test_already_unit_range_unchanged(self):
        m = PredictionMatrix.from_entries({
            (0, "A", "u1"): [ScoredItem("a", 1.0), ScoredItem("b", 0.25),
                             ScoredItem("c", 0.0)],
        })
        normed = normalize_scores(m)
        assert normed.scored_list(0, "A", "u1") == m.scored_list(0, "A", "u1")

    def test_constant_scores_map_to_one(self):
        m = PredictionMatrix.from_entries({
            (0, "A", "u1"): [ScoredItem("a", 3.0), ScoredItem("b", 3.0)],
        })
        normed = normalize_scores(m)
        assert [si.score for si in normed.scored_list(0, "A", "u1")] == [1.0, 1.0]

    def test_global_mode_uses_fold_model_range(self):
        m = PredictionMatrix.from_entries({
            (0, "A", "u1"): [ScoredItem("a", 10.0)],
            (0, "A", "u2"): [ScoredItem("a", 0.0)],
        })
        normed = normalize_scores(m, "global-minmax")
        assert normed.scored_list(0, "A", "u1")[0].score == 1.0
        assert normed.scored_list(0, "A", "u2")[0].score == 0.0

    def test_per_user_mode_rescales_each_list(self):
        m = PredictionMatrix.from_entries({
            (0, "A", "u1"): [ScoredItem("a", 10.0), ScoredItem("b", 5.0)],
            (0, "A", "u2"): [ScoredItem("a", 2.0), ScoredItem("b", 1.0)],
        })
        normed = normalize_scores(m, "per-user-minmax")
        for user in ("u1", "u2"):
            assert [si.score for si in normed.scored_list(0, "A", user)] == [1.0, 0.0]

    def test_order_never_changes(self, tiny_matrix):
        normed = normalize_scores(tiny_matrix)
        for (fold, model, user), lst in tiny_matrix.entries():
            got = [si.item_id for si in normed.scored_list(fold, model, user)]
            assert got == [si.item_id for si in lst]

    def test_unknown_mode(self, tiny_matrix):
        with pytest.raises(ValueError, match="normalization mode"):
            normalize_scores(tiny_matrix, "zscore")


@st.composite
def minmax_instances(draw):
    """One or two folds of one or two models. Lists may be empty (before,
    between or after filled ones), hold one entry or one repeated score, and
    mix magnitudes from 5e-324 to 1e308, -0.0 beside 0.0, and ranges wider
    than a float64 holds."""
    values = st.one_of(st.floats(-1e9, 1e9), st.floats(-1e-12, 1e-12),
                       st.sampled_from((0.0, -0.0, 0.5, 3.0, 5e-324, 1e308,
                                        -1e308)))
    entries = {}
    for f in range(draw(st.integers(1, 2))):
        for m in range(draw(st.integers(1, 2))):
            for u in range(draw(st.integers(1, 5))):
                scores = sorted(draw(st.lists(values, max_size=4)),
                                reverse=True)
                entries[(f, f"m{m}", f"u{u}")] = [
                    ScoredItem(f"i{j}", s) for j, s in enumerate(scores)]
    return PredictionMatrix.from_entries(entries)


def minmax_by_loop(matrix, mode):
    """Each list rescaled, one score at a time, over its (fold, model)
    block's scores (global) or its own (per user), a minimum to +0.0; and
    the first (fold, model) whose max - min overflows, or None."""
    lists = dict(matrix.entries())
    expected, overflow = {}, []
    for key, lst in lists.items():
        span = [si.score for other, scored in lists.items()
                if other == key or (mode == "global-minmax"
                                    and other[:2] == key[:2])
                for si in scored]
        lo, hi = (min(span), max(span)) if span else (0.0, 0.0)
        if not math.isfinite(hi - lo):
            overflow.append(key[:2])
        expected[key] = [(si.score - lo) / (hi - lo) + 0.0 if hi > lo else 1.0
                         for si in lst]
    return expected, min(overflow, default=None)


@given(minmax_instances(), st.sampled_from(NORMALIZATION_MODES))
# A range wider than a float64: max - min overflows.
@example(PredictionMatrix.from_entries({(0, "ext", "u1"): [
    ScoredItem("a", 1e308), ScoredItem("b", 0.0), ScoredItem("c", -1e308)]}),
    "global-minmax")
@example(PredictionMatrix.from_entries({(0, "ext", "u1"): [
    ScoredItem("a", 1e308), ScoredItem("b", 0.0), ScoredItem("c", -1e308)]}),
    "per-user-minmax")
# -0.0 tied with a later 0.0 at the minimum: both map to +0.0.
@example(PredictionMatrix.from_entries({(0, "ext", "u1"): [
    ScoredItem("a", 1.0), ScoredItem("b", -0.0), ScoredItem("c", 0.0)]}),
    "per-user-minmax")
@settings(max_examples=300)
@pytest.mark.filterwarnings("ignore:overflow encountered in subtract")
def test_normalize_matches_per_list_loop(matrix, mode):
    expected, overflow = minmax_by_loop(matrix, mode)
    if overflow is not None:
        fold, model = overflow
        with pytest.raises(ValueError, match=f"scores of model '{model}' in "
                                             f"fold {fold} span more than"):
            normalize_scores(matrix, mode)
        return
    normed = normalize_scores(matrix, mode)
    got = {key: [float.hex(si.score) for si in lst]
           for key, lst in normed.entries()}
    assert got == {key: [float.hex(v) for v in values]
                   for key, values in expected.items()}


def test_normalized_zeros_fuse():
    # A -0.0 tied with 0.0 at a list's minimum must normalize to +0.0, as
    # FoldFuser rejects a negative sign.
    matrix = normalize_scores(PredictionMatrix.from_entries({
        (0, "ext", "u1"): [ScoredItem("a", 1.0), ScoredItem("b", -0.0),
                           ScoredItem("c", 0.0)]}), "per-user-minmax")
    weights = ModelWeights({(0, "ext"): 1.0}, 3)
    _, items, scores = FoldFuser(matrix, 0, 3).top_n(["ext"], weights, 3)
    assert items.tolist() == [0, 1, 2]
    assert [float.hex(s) for s in scores] == [float.hex(v)
                                              for v in (1.0, 0.0, 0.0)]


class TestFuseUser:
    def test_worked_example(self):
        lists = {
            "A": [ScoredItem("i1", 0.9), ScoredItem("i2", 0.8)],
            "B": [ScoredItem("i2", 1.0), ScoredItem("i3", 0.6)],
        }
        weights = {"A": 0.5, "B": 0.25}
        fused = fuse_user(lists, weights, k=2, n=2)
        assert [(si.item_id, si.score) for si in fused.items] == [
            ("i2", pytest.approx(0.65, abs=1e-12)),
            ("i1", pytest.approx(0.45, abs=1e-12)),
        ]

    def test_single_model_order_preserved(self):
        lst = [ScoredItem("a", 0.9), ScoredItem("b", 0.5), ScoredItem("c", 0.1)]
        fused = fuse_user({"M": lst}, {"M": 0.7}, k=3, n=3)
        assert fused.item_ids() == ["a", "b", "c"]

    def test_tie_breaks_by_item_id(self):
        lists = {
            "A": [ScoredItem("i2", 0.5), ScoredItem("i1", 0.5)],
        }
        fused = fuse_user(lists, {"A": 1.0}, k=2, n=2)
        assert fused.item_ids() == ["i1", "i2"]

    def test_k_truncates_input_lists(self):
        lists = {"A": [ScoredItem("a", 1.0), ScoredItem("b", 0.9)]}
        fused = fuse_user(lists, {"A": 1.0}, k=1, n=1)
        assert fused.item_ids() == ["a"]

    def test_no_models(self):
        with pytest.raises(ValueError, match="no models"):
            fuse_user({}, {}, k=5, n=5)

    def test_k_below_n(self):
        with pytest.raises(ValueError, match="k must be ≥ N"):
            fuse_user({"A": []}, {"A": 1.0}, k=2, n=3)


class TestFuseAll:
    def test_single_member_matches_model_lists(self, tiny_matrix):
        normed = normalize_scores(tiny_matrix)
        weights = ModelWeights({(0, "A"): 0.4, (0, "B"): 0.6,
                                (1, "A"): 0.4, (1, "B"): 0.6}, 3)
        fused = fuse_all(normed, weights, {"A"}, fold=0, k=3, n=3)
        for user in ("u1", "u2"):
            want = [si.item_id for si in normed.scored_list(0, "A", user)]
            assert fused[user].item_ids() == want

    def test_union_of_user_coverage(self):
        m = PredictionMatrix.from_entries({
            (0, "A", "u1"): [ScoredItem("a", 1.0)],
            (0, "B", "u2"): [ScoredItem("b", 1.0)],
        })
        weights = ModelWeights({(0, "A"): 0.5, (0, "B"): 0.5}, 1)
        fused = fuse_all(m, weights, {"A", "B"}, fold=0, k=1, n=1)
        assert sorted(fused) == ["u1", "u2"]

    def test_empty_members(self, tiny_matrix):
        weights = ModelWeights({}, 3)
        with pytest.raises(ValueError, match="no models"):
            fuse_all(tiny_matrix, weights, set(), fold=0, k=3, n=3)

    def test_missing_member(self, tiny_matrix):
        weights = ModelWeights({(0, "Z"): 0.5}, 3)
        with pytest.raises(ValueError, match="no lists for model"):
            fuse_all(tiny_matrix, weights, {"Z"}, fold=0, k=3, n=3)


# -- properties ----------------------------------------------------------------

@st.composite
def fusion_instances(draw, floor=0.0):
    n_models = draw(st.integers(1, 5))
    n_items = draw(st.integers(1, 20))
    items = [f"i{j:02d}" for j in range(n_items)]
    lists = {}
    weights = {}
    for m in range(n_models):
        chosen = draw(st.permutations(items))
        size = draw(st.integers(0, n_items))
        scores = sorted(
            draw(st.lists(st.floats(floor, 1, allow_nan=False),
                          min_size=size, max_size=size)),
            reverse=True)
        ranked = sorted(zip(chosen[:size], scores),
                        key=lambda p: (-p[1], p[0]))
        lists[f"m{m}"] = [ScoredItem(i, s) for i, s in ranked]
        weights[f"m{m}"] = draw(st.floats(floor, 1, allow_nan=False))
    n = draw(st.integers(1, 10))
    k = draw(st.integers(n, 25))
    return lists, weights, k, n


@given(fusion_instances())
@settings(max_examples=150)
def test_fuse_user_matches_naive_reference(instance):
    lists, weights, k, n = instance
    fused = fuse_user(lists, weights, k, n)
    want = naive_fuse(lists, weights, k, n)
    assert [(si.item_id, si.score) for si in fused.items] == want


# Scale invariance of the fused order holds exactly only for power-of-two
# factors on non-tiny inputs: those commute with IEEE rounding, while an
# arbitrary factor can re-round a hairline tie (and a subnormal weight can
# underflow to zero outright), reordering items legitimately.
@given(fusion_instances(floor=2.0 ** -20),
       st.sampled_from([0.25, 0.5, 2.0, 8.0]))
@settings(max_examples=60)
def test_weight_scaling_preserves_order(instance, c):
    lists, weights, k, n = instance
    base = fuse_user(lists, weights, k, n)
    scaled = fuse_user(lists, {m: w * c for m, w in weights.items()}, k, n)
    assert base.item_ids() == scaled.item_ids()
    for a, b in zip(base.items, scaled.items):
        assert b.score == a.score * c


@given(fusion_instances())
@settings(max_examples=60)
def test_item_count_bound(instance):
    lists, weights, k, n = instance
    fused = fuse_user(lists, weights, k, n)
    distinct = {si.item_id for lst in lists.values() for si in lst[:k]}
    assert len(fused.items) <= n
    assert len(fused.items) <= len(distinct)


@given(fusion_instances(), st.floats(0.01, 1.0, allow_nan=False))
@settings(max_examples=60)
def test_adding_a_model_never_decreases_an_items_score(instance, w_new):
    lists, weights, k, n = instance
    target = "i00"
    extra = dict(lists)
    extra["zz_new"] = [ScoredItem(target, 1.0)]
    new_weights = dict(weights)
    new_weights["zz_new"] = w_new

    def fused_score(per_model, ws):
        acc = naive_fuse(per_model, ws, k, max(n, 25))
        return dict(acc).get(target, 0.0)

    assert fused_score(extra, new_weights) >= fused_score(lists, weights)


class TestFoldFuser:
    def test_matches_public_path(self, tiny_matrix):
        normed = normalize_scores(tiny_matrix)
        weights = ModelWeights({(0, "A"): 0.3, (0, "B"): 0.9,
                                (1, "A"): 0.6, (1, "B"): 0.2}, 2)
        holdouts = {"u1": frozenset({"i2"}), "u2": frozenset({"i1", "i3"})}
        for fold in (0, 1):
            fuser = FoldFuser(normed, fold, k=3)
            keys = holdout_keys(indexed_pairs(holdouts),
                                normed.user_index, normed.item_index)
            for members in ({"A"}, {"B"}, {"A", "B"}):
                fused = fuse_all(normed, weights, members, fold, k=3, n=2)
                lists = {u: fl.item_ids() for u, fl in fused.items()}
                want = ndcg_model(lists, holdouts, 2)
                got = fuser.ndcg(sorted(members), weights, keys, 2)
                assert got == want

    def test_k_below_n_rejected(self, tiny_matrix):
        normed = normalize_scores(tiny_matrix)
        weights = ModelWeights({(0, "A"): 0.3, (0, "B"): 0.9}, 2)
        fuser = FoldFuser(normed, 0, k=1)
        keys = holdout_keys(indexed_pairs({"u1": frozenset({"i1"})}),
                            normed.user_index, normed.item_index)
        with pytest.raises(ValueError, match="k must be ≥ N"):
            fuser.ndcg(["A"], weights, keys, 2)

    def test_user_with_only_empty_lists_counts_as_zero(self):
        m = PredictionMatrix.from_entries({
            (0, "A", "u1"): [ScoredItem("a", 1.0)],
            (0, "A", "u2"): [],
        })
        weights = ModelWeights({(0, "A"): 1.0}, 1)
        holdouts = {"u1": frozenset({"a"}), "u2": frozenset({"a"})}
        fuser = FoldFuser(m, 0, k=1)
        keys = holdout_keys(indexed_pairs(holdouts),
                            m.user_index, m.item_index)
        got = fuser.ndcg(["A"], weights, keys, 1)
        fused = fuse_all(m, weights, {"A"}, 0, k=1, n=1)
        lists = {u: fl.item_ids() for u, fl in fused.items()}
        assert got == ndcg_model(lists, holdouts, 1)
        assert got == 0.5

    def test_cut_inside_a_cross_member_tie_keeps_the_lower_item_id(self):
        # u1 fuses to p 1.0, then b and z tied at exactly 0.5, one from each
        # member (1.0 * 0.5 == 0.5 * 1.0), then q 0.1, so the n=2 cut falls
        # inside the tie and keeps b. u2's row is narrower than n.
        m = PredictionMatrix.from_entries({
            (0, "A", "u1"): [ScoredItem("p", 1.0), ScoredItem("z", 0.5)],
            (0, "B", "u1"): [ScoredItem("b", 1.0), ScoredItem("q", 0.2)],
            (0, "A", "u2"): [ScoredItem("z", 1.0)],
        })
        weights = ModelWeights({(0, "A"): 1.0, (0, "B"): 0.5}, 2)
        fused = fuse_all(m, weights, {"A", "B"}, 0, k=2, n=2)
        assert fused["u1"].item_ids() == ["p", "b"]
        fuser = FoldFuser(m, 0, k=2)
        for held, want in (("b", 1 / math.log2(3) / idcg(2)), ("z", 0.0)):
            holdouts = {"u1": frozenset({held})}
            split = FoldSplit(0, train={}, validation={}, test=holdouts)
            keys = holdout_keys(indexed_pairs(holdouts),
                                m.user_index, m.item_index)
            got = fuser.ndcg(["A", "B"], weights, keys, 2)
            assert got == want
            assert got == evaluate_ensemble(["A", "B"], m, weights, split,
                                            2, 2, "test")

    def test_fused_sums_add_in_member_order(self):
        # b fuses to (0.1 + 0.2) + 0.3 == 0.6000000000000001 and so ranks
        # above a's 0.6; summed in reverse member order it would tie a at
        # 0.6 and lose the tie on item id.
        m = PredictionMatrix.from_entries({
            (0, "A", "u1"): [ScoredItem("b", 0.1)],
            (0, "B", "u1"): [ScoredItem("b", 0.2)],
            (0, "C", "u1"): [ScoredItem("a", 0.6), ScoredItem("b", 0.3)],
        })
        weights = ModelWeights({(0, "A"): 1.0, (0, "B"): 1.0, (0, "C"): 1.0},
                               1)
        keys = holdout_keys(indexed_pairs({"u1": frozenset({"b"})}),
                            m.user_index, m.item_index)
        assert FoldFuser(m, 0, k=2).ndcg(["A", "B", "C"], weights, keys,
                                         1) == 1.0

    def test_items_fused_to_zero_still_take_their_rank(self):
        # Global min-max maps A's lowest score (z) to 0.0, and B has weight
        # 0.0, so y fuses to 0.0 too. Both are covered, so they rank after
        # x, tied at 0.0 and in item id order, inside the top n.
        m = normalize_scores(PredictionMatrix.from_entries({
            (0, "A", "u1"): [ScoredItem("x", 3.0), ScoredItem("z", 1.0)],
            (0, "B", "u1"): [ScoredItem("y", 5.0)],
        }))
        weights = ModelWeights({(0, "A"): 1.0, (0, "B"): 0.0}, 3)
        fuser = FoldFuser(m, 0, k=3)
        for held, rank in (("y", 2), ("z", 3)):
            holdouts = {"u1": frozenset({held})}
            split = FoldSplit(0, train={}, validation={}, test=holdouts)
            keys = holdout_keys(indexed_pairs(holdouts),
                                m.user_index, m.item_index)
            got = fuser.ndcg(["A", "B"], weights, keys, 3)
            assert got == 1 / math.log2(rank + 1) / idcg(3)
            assert got == evaluate_ensemble(["A", "B"], m, weights, split,
                                            3, 3, "test")

    def test_member_without_lists_rejected(self, tiny_matrix):
        weights = ModelWeights({(0, "A"): 0.3, (0, "Z"): 0.9}, 2)
        fuser = FoldFuser(tiny_matrix, 0, k=3)
        keys = holdout_keys(indexed_pairs({"u1": frozenset({"i1"})}),
                            tiny_matrix.user_index, tiny_matrix.item_index)
        with pytest.raises(ValueError, match="no lists for model 'Z' in fold 0"):
            fuser.ndcg(["A", "Z"], weights, keys, 2)

    @pytest.mark.parametrize("score", [-0.25, -0.0])
    def test_negative_score_rejected_at_build(self, score):
        m = PredictionMatrix.from_entries({
            (0, "A", "u1"): [ScoredItem("a", 0.5), ScoredItem("b", score)],
        })
        with pytest.raises(ValueError,
                           match="negative score for model 'A' in fold 0"):
            FoldFuser(m, 0, k=2)

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_rejected(self, tiny_matrix, n):
        weights = ModelWeights({(0, "A"): 0.3}, 2)
        fuser = FoldFuser(tiny_matrix, 0, k=3)
        keys = holdout_keys(indexed_pairs({"u1": frozenset({"i1"})}),
                            tiny_matrix.user_index, tiny_matrix.item_index)
        with pytest.raises(ValueError, match="invalid length"):
            fuser.ndcg(["A"], weights, keys, n)



def fuse_all_rows(matrix, weights, members, fold, k, n):
    """fuse_all's lists as (user index, item index, score bits) rows."""
    return [(matrix.user_index.index(user),
             matrix.item_index.index(si.item_id), si.score.hex())
            for user, fused in fuse_all(matrix, weights, members, fold, k,
                                        n).items()
            for si in fused.items]


def top_n_rows(fuser, members, weights, n):
    users, items, scores = fuser.top_n(members, weights, n)
    return list(zip(users.tolist(), items.tolist(),
                    map(float.hex, scores.tolist())))


@st.composite
def fold_fuser_instances(draw):
    """One fold of up to three models, normalized global-minmax.

    Lists may be empty and users may have a list in only some models, so
    some users are covered only by empty lists. Each model's lowest score
    normalizes to 0 and weights may be 0, so covered items can fuse to 0.
    """
    catalog = [f"i{j:02d}" for j in range(12)]
    entries = {}
    for m in range(draw(st.integers(1, 3))):
        users = draw(st.lists(st.integers(0, 6), min_size=1, max_size=7,
                              unique=True), label=f"users_m{m}")
        for u in users:
            items = draw(st.lists(st.sampled_from(catalog), unique=True,
                                  max_size=12), label=f"items_m{m}_u{u}")
            scores = draw(st.lists(st.sampled_from((0.0, 0.25, 1.0, 3.0)),
                                   min_size=len(items), max_size=len(items)),
                          label=f"scores_m{m}_u{u}")
            ranked = sorted(zip(items, scores), key=lambda p: (-p[1], p[0]))
            entries[(0, f"m{m}", f"u{u}")] = [ScoredItem(i, s)
                                              for i, s in ranked]
    matrix = normalize_scores(PredictionMatrix.from_entries(entries))
    models = matrix.models(0)
    weights = ModelWeights(
        {(0, m): draw(st.sampled_from((0.0, 0.3, 1.0)), label=f"w_{m}")
         for m in models}, 1)
    members = draw(st.lists(st.sampled_from(models), min_size=1, unique=True))
    holdouts = {
        f"u{u}": frozenset(draw(st.lists(st.sampled_from(catalog + ["x0"]),
                                         max_size=5), label=f"holdout_u{u}"))
        for u in range(8) if draw(st.booleans(), label=f"has_holdout_u{u}")}
    n = draw(st.integers(1, 6))
    # Up to 3n (and at least n + 3), so fused rows are often wider than n
    # and the top-n prefilter drops entries; at k near n the lists are
    # usually truncated.
    k = draw(st.integers(n, max(3 * n, n + 3)))
    return matrix, weights, members, holdouts, k, n


def rounding_tie(k):
    """A global-minmax block whose raw scores for q and b normalize to one
    score, 0.6708203932499368, with q still stored ahead of b against item
    id order. Cut at k=2, the list keeps q; at k=3 the fused tie puts b,
    the lower item id, in the top 2. Only u0's hit on q tells them apart."""
    matrix = normalize_scores(PredictionMatrix.from_entries({
        (0, "m0", "u0"): [ScoredItem("a", 0.7071067811865476),
                          ScoredItem("q", 0.4743416490252569),
                          ScoredItem("b", 0.47434164902525683),
                          ScoredItem("c", 0.0)]}))
    weights = ModelWeights({(0, "m0"): 1.0}, 1)
    return matrix, weights, ["m0"], {"u0": frozenset({"q"})}, k, 2


@pytest.mark.parametrize("k,top", [(2, ["a", "q"]), (3, ["a", "b"])])
def test_normalized_ties_cut_in_stored_order_and_fuse_by_item_id(k, top):
    matrix, weights, members, _, k, n = rounding_tie(k)
    assert matrix.ranked_ids(0, "m0", "u0") == ["a", "q", "b", "c"]
    with pytest.raises(ValueError, match="list not sorted"):
        matrix._validate()
    _, items, _ = FoldFuser(matrix, 0, k).top_n(members, weights, n)
    assert [matrix.item_index.id(i) for i in items.tolist()] == top
    assert fuse_all(matrix, weights, set(members), 0, k, n)["u0"].item_ids() \
        == top


@given(fold_fuser_instances(), st.booleans())
@example(rounding_tie(2), False)
@example(rounding_tie(3), False)
@settings(max_examples=200)
def test_fold_fuser_matches_evaluate_ensemble(instance, include_empty):
    matrix, weights, members, holdouts, k, n = instance
    split = FoldSplit(0, train={}, validation={}, test=holdouts)
    keys = holdout_keys(indexed_pairs(holdouts),
                        matrix.user_index, matrix.item_index)
    fuser = FoldFuser(matrix, 0, k)
    assert (top_n_rows(fuser, members, weights, n)
            == fuse_all_rows(matrix, weights, members, 0, k, n))

    def got():
        return fuser.ndcg(sorted(members), weights, keys, n, include_empty)

    try:
        want = evaluate_ensemble(members, matrix, weights, split, k, n,
                                 "test", include_empty)
    except ValueError:
        with pytest.raises(ValueError, match="empty evaluation population"):
            got()
        return
    assert got() == want


@given(fold_fuser_instances(), st.data())
@settings(max_examples=100)
def test_fold_fuser_carries_no_state_between_calls(instance, data):
    # One fuser answers a drawn sequence of (members, n, population rule)
    # calls with repeats and in any order exactly as a fresh fuser and the
    # oracle do. The calls alternate between two holdouts built before the fuser, then
    # three more use holdouts built after it, a new object per call, so a
    # hit mask cached for one holdout is never read for another.
    matrix, weights, _, holdouts, k, _ = instance
    catalog = [f"i{j:02d}" for j in range(12)] + ["x0"]
    other = {f"u{u}": frozenset(data.draw(
                 st.lists(st.sampled_from(catalog), max_size=5),
                 label=f"other_u{u}"))
             for u in range(8) if data.draw(st.booleans(), label=f"other_{u}")}

    def keyed(held):
        return holdout_keys(indexed_pairs(held),
                            matrix.user_index, matrix.item_index)

    before = [(holdouts, keyed(holdouts)), (other, keyed(other))]
    fuser = FoldFuser(matrix, 0, k)
    calls = data.draw(st.lists(st.tuples(
        st.lists(st.sampled_from(matrix.models(0)), min_size=1, unique=True),
        st.integers(1, k), st.booleans()), min_size=1, max_size=4),
        label="calls")
    order = data.draw(st.lists(st.integers(0, len(calls) - 1), min_size=1,
                               max_size=10), label="order")
    steps = [(before[i % 2], calls[c]) for i, c in enumerate(order)]
    steps += [((held, None), calls[c])
              for held, c in zip((holdouts, other, holdouts), order * 3)]
    for (held, keys), (members, n, include_empty) in steps:
        keys = keyed(held) if keys is None else keys
        split = FoldSplit(0, train={}, validation={}, test=held)
        try:
            want = evaluate_ensemble(members, matrix, weights, split, k, n,
                                     "test", include_empty)
        except ValueError:
            with pytest.raises(ValueError, match="empty evaluation population"):
                fuser.ndcg(sorted(members), weights, keys, n, include_empty)
            continue
        fresh = FoldFuser(matrix, 0, k).ndcg(sorted(members), weights, keys,
                                             n, include_empty)
        assert fuser.ndcg(sorted(members), weights, keys, n,
                          include_empty) == fresh == want


@st.composite
def grid_edge_instances(draw):
    """Fold 0 of members a, b and non-member z, laid out so that a fuser at
    k = n has a grid at most n wide and one at a deeper k a grid wider than
    n; fold 1 holds only empty lists.

    - w0, w1: only in a, with n + extra and n + deeper entries (extra <
      deeper), so at k = n + deeper row w0 holds more than n entries and
      padded cells; its n-th and (n+1)-th raw scores are equal, a tie at
      the n-th fused score.
    - s, t: lists in a and b over one item set of at most n items; t's top
      raw score is each model's highest value and all of s's are its lowest,
      so s's entries normalize to 0.0 and rank in its fused top n.
    - e: empty lists in a and b, entries in z: in the universe, covered
      only by empty lists.
    - x: only in z, so in the universe but never covered.
    - h: an empty list in a and n + extra entries in b, so at the deeper k
      a member holds no cell of a covered, padded row in which another
      holds more than n; at b's weight 0.0 those all fuse to 0.0.
    """
    catalog = [f"i{j:02d}" for j in range(12)]
    values = (0.0, 0.25, 1.0, 3.0)
    n = draw(st.integers(1, 5))
    extra = draw(st.integers(1, 3))
    deeper = draw(st.integers(extra + 1, 4))

    def ranked(items, scores):
        return [ScoredItem(i, sc) for i, sc in
                sorted(zip(items, scores), key=lambda p: (-p[1], p[0]))]

    def drawn_scores(size, label):
        return draw(st.lists(st.sampled_from(values), min_size=size,
                             max_size=size), label=label)

    entries = {}
    for u, length in (("w0", n + extra), ("w1", n + deeper)):
        items = draw(st.permutations(catalog), label=f"items_{u}")[:length]
        scores = sorted(drawn_scores(length, f"scores_{u}"), reverse=True)
        scores[n] = scores[n - 1]
        entries[(0, "a", u)] = ranked(items, scores)
    for u in ("s", "t"):
        items = draw(st.lists(st.sampled_from(catalog), min_size=1,
                              max_size=n, unique=True), label=f"items_{u}")
        for m in ("a", "b"):
            scores = ([0.0] * len(items) if u == "s" else
                      [values[-1]] + drawn_scores(len(items) - 1,
                                                  f"scores_{m}_{u}"))
            entries[(0, m, u)] = ranked(items, scores)
    entries[(0, "a", "e")] = entries[(0, "b", "e")] = []
    entries[(0, "a", "h")] = []
    entries[(0, "b", "h")] = ranked(
        draw(st.permutations(catalog), label="items_h")[:n + extra],
        drawn_scores(n + extra, "scores_b_h"))
    for u in ("e", "x"):
        items = draw(st.lists(st.sampled_from(catalog), max_size=n,
                              unique=True), label=f"items_z_{u}")
        entries[(0, "z", u)] = ranked(items, drawn_scores(len(items),
                                                          f"scores_z_{u}"))
    for m in ("a", "b"):
        entries[(1, m, "s")] = entries[(1, m, "e")] = []
    matrix = normalize_scores(PredictionMatrix.from_entries(entries))
    weights = ModelWeights({(f, m): draw(st.sampled_from((0.0, 0.3, 1.0)),
                                         label=f"w_{f}_{m}")
                            for f in (0, 1) for m in matrix.models(f)}, 1)
    members = draw(st.sampled_from((["a"], ["b"], ["a", "b"])),
                   label="members")
    holdouts = {u: frozenset(draw(st.lists(st.sampled_from(catalog + ["x0"]),
                                           max_size=5), label=f"holdout_{u}"))
                for u in ("w0", "w1", "s", "t", "e", "x", "h")
                if draw(st.booleans(), label=f"has_holdout_{u}")}
    return matrix, weights, members, holdouts, n, deeper


@given(grid_edge_instances(), st.booleans())
@settings(max_examples=150)
def test_fold_fuser_grid_edge_cases(instance, include_empty):
    matrix, weights, members, holdouts, n, deeper = instance
    narrow = FoldFuser(matrix, 0, n)
    wide = FoldFuser(matrix, 0, n + deeper)
    empty = FoldFuser(matrix, 1, n + deeper)
    assert narrow._width <= n < wide._width and empty._keys.size == 0
    for fold, fuser, k in ((0, narrow, n), (0, wide, n + deeper),
                           (1, empty, n + deeper)):
        assert (top_n_rows(fuser, members, weights, n)
                == fuse_all_rows(matrix, weights, members, fold, k, n))
        split = FoldSplit(fold, train={}, validation={}, test=holdouts)
        keys = holdout_keys(indexed_pairs(holdouts),
                            matrix.user_index, matrix.item_index)
        try:
            want = evaluate_ensemble(members, matrix, weights, split, k, n,
                                     "test", include_empty)
        except ValueError:
            with pytest.raises(ValueError, match="empty evaluation population"):
                fuser.ndcg(members, weights, keys, n, include_empty)
            continue
        assert fuser.ndcg(members, weights, keys, n, include_empty) == want


def test_fused_list_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        FusedList("u", (ScoredItem("a", 0.5), ScoredItem("a", 0.4)))


def test_fused_list_rejects_wrong_order():
    with pytest.raises(ValueError, match="sorted"):
        FusedList("u", (ScoredItem("a", 0.4), ScoredItem("b", 0.5)))
