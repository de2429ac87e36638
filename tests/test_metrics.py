import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import indexed_pairs
from recfuse.core import IdIndex, IndexedPairs, PredictionMatrix, ScoredItem
from recfuse.metrics import (
    HoldoutKeys,
    dcg,
    holdout_keys,
    idcg,
    left_sum,
    ndcg_model,
    ndcg_rows,
    ndcg_user,
)

# Frozen outputs of an independent high-precision script (mpmath, 50 digits).
IDCG_2 = 1.6309297535714574
IDCG_3 = 2.1309297535714574
NDCG_1_0_1 = 0.70391808903413475


def test_idcg_and_left_sum_add_left_to_right():
    # Builtin sum() is compensated from Python 3.12 on; these must not be.
    for n in range(1, 201):
        terms = [1.0 / math.log2(i + 1) for i in range(1, n + 1)]
        total = 0.0
        for term in terms:
            total += term
        assert idcg(n) == total
        assert left_sum(terms) == total
        assert dcg([1.0] * n) == total


class TestDcg:
    def test_all_irrelevant(self):
        assert dcg([0, 0, 0]) == 0.0

    def test_single_hit(self):
        assert dcg([1]) == 1.0

    def test_hit_miss_hit(self):
        assert dcg([1, 0, 1]) == pytest.approx(1.5, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty list"):
            dcg([])


class TestIdcg:
    def test_length_one(self):
        assert idcg(1) == 1.0

    def test_length_two(self):
        assert idcg(2) == pytest.approx(IDCG_2, abs=1e-12)

    def test_length_three(self):
        assert idcg(3) == pytest.approx(IDCG_3, abs=1e-12)

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_rejected(self, n):
        with pytest.raises(ValueError, match="invalid length"):
            idcg(n)


class TestNdcgUser:
    def test_all_hits(self):
        assert ndcg_user(["a", "b", "c"], {"a", "b", "c"}, 3) == pytest.approx(1.0)

    def test_no_hits(self):
        assert ndcg_user(["a", "b", "c"], set(), 3) == 0.0

    def test_partial_hits(self):
        got = ndcg_user(["a", "b", "c"], {"a", "c"}, 3)
        assert got == pytest.approx(NDCG_1_0_1, abs=1e-12)

    def test_only_first_n_count(self):
        # d is a hit but sits beyond the cutoff
        full = ndcg_user(["a", "b", "c", "d"], {"d"}, 3)
        assert full == 0.0

    def test_short_list_keeps_full_denominator(self):
        # one relevant item at rank 1, but the list cannot fill 3 slots
        got = ndcg_user(["a"], {"a"}, 3)
        assert got == pytest.approx(1.0 / IDCG_3, abs=1e-12)

    def test_invalid_n(self):
        with pytest.raises(ValueError, match="invalid length"):
            ndcg_user(["a"], {"a"}, 0)


class TestNdcgModel:
    def test_mean_of_extremes(self):
        lists = {"u1": ["a", "b"], "u2": ["c", "d"]}
        holdouts = {"u1": {"a", "b"}, "u2": {"x"}}
        assert ndcg_model(lists, holdouts, 2) == pytest.approx(0.5)

    def test_single_user_equals_ndcg_user(self):
        lists = {"u1": ["a", "b", "c"]}
        holdouts = {"u1": {"a", "c"}}
        assert ndcg_model(lists, holdouts, 3) == pytest.approx(
            NDCG_1_0_1, abs=1e-12)

    def test_fully_relevant(self):
        lists = {f"u{i}": ["a", "b"] for i in range(4)}
        holdouts = {f"u{i}": {"a", "b"} for i in range(4)}
        assert ndcg_model(lists, holdouts, 2) == pytest.approx(1.0)

    def test_empty_holdout_users_excluded_by_default(self):
        lists = {"u1": ["a"], "u2": ["a"]}
        holdouts = {"u1": {"a"}}
        assert ndcg_model(lists, holdouts, 1) == pytest.approx(1.0)

    def test_empty_holdout_users_counted_when_asked(self):
        lists = {"u1": ["a"], "u2": ["a"]}
        holdouts = {"u1": {"a"}}
        got = ndcg_model(lists, holdouts, 1, include_empty_holdout_users=True)
        assert got == pytest.approx(0.5)

    def test_no_evaluable_users(self):
        with pytest.raises(ValueError, match="empty evaluation population"):
            ndcg_model({"u1": ["a"]}, {}, 1)


# -- properties ----------------------------------------------------------------

rel_vectors = st.lists(st.integers(min_value=0, max_value=1), min_size=1,
                       max_size=30)


@given(rel_vectors)
def test_ndcg_bounded(rel):
    value = dcg(rel) / idcg(len(rel))
    assert 0.0 <= value <= 1.0 + 1e-12


@given(rel_vectors.filter(lambda r: 0 in r))
def test_flipping_a_miss_strictly_increases(rel):
    pos = rel.index(0)
    flipped = list(rel)
    flipped[pos] = 1
    assert dcg(flipped) > dcg(rel)


@given(st.data())
def test_moving_a_hit_earlier_strictly_increases(data):
    rel = data.draw(rel_vectors.filter(lambda r: 0 in r and 1 in r),
                    label="rel")
    hits = [i for i, r in enumerate(rel) if r == 1]
    misses = [i for i, r in enumerate(rel) if r == 0]
    j = data.draw(st.sampled_from(misses), label="miss_pos")
    later_hits = [i for i in hits if i > j]
    if not later_hits:
        return
    i = data.draw(st.sampled_from(later_hits), label="hit_pos")
    swapped = list(rel)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    n = len(rel)
    assert dcg(swapped) / idcg(n) > dcg(rel) / idcg(n)


@given(st.integers(min_value=1, max_value=50))
def test_all_ones_dcg_equals_idcg(n):
    assert dcg([1] * n) == idcg(n)


@given(st.data())
def test_ndcg_model_matches_bruteforce(data):
    n_users = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 6))
    items = [f"i{j}" for j in range(10)]
    lists = {}
    holdouts = {}
    for u in range(n_users):
        ranked = data.draw(st.permutations(items), label=f"list_{u}")
        lists[f"u{u}"] = ranked[:n]
        holdouts[f"u{u}"] = set(
            data.draw(st.lists(st.sampled_from(items), max_size=5),
                      label=f"holdout_{u}"))

    def brute(ranked, holdout, n):
        total = 0.0
        for pos, item in enumerate(ranked[:n], start=1):
            if item in holdout:
                total += 1.0 / math.log2(pos + 1)
        ideal = sum(1.0 / math.log2(p + 1) for p in range(1, n + 1))
        return total / ideal

    evaluable = {u for u in lists if holdouts[u]}
    if not evaluable:
        with pytest.raises(ValueError):
            ndcg_model(lists, holdouts, n)
        return
    expect = sum(brute(lists[u], holdouts[u], n) for u in sorted(evaluable))
    expect /= len(evaluable)
    assert ndcg_model(lists, holdouts, n) == pytest.approx(expect, abs=1e-12)


# -- the integer kernel against the string-id reference -------------------------

@st.composite
def ranked_blocks(draw):
    """One (fold, model) block plus a holdout mapping.

    Scores come from three values, so ties straddle every cut-off n. Lists
    may be empty. The holdout spans u0..u41, so it names users the matrix
    lacks, skips others, gives some an empty set, and uses items no list
    contains (every x item, and any i item nobody recommends).
    """
    catalog = [f"i{j:02d}" for j in range(25)]
    entries = {}
    for u in range(draw(st.integers(1, 40))):
        items = draw(st.lists(st.sampled_from(catalog), unique=True,
                              max_size=25), label=f"items_u{u}")
        scores = draw(st.lists(st.sampled_from((0.0, 0.5, 1.0)),
                               min_size=len(items), max_size=len(items)),
                      label=f"scores_u{u}")
        ranked = sorted(zip(items, scores), key=lambda p: (-p[1], p[0]))
        entries[(0, "M", f"u{u}")] = [ScoredItem(i, s) for i, s in ranked]
    matrix = PredictionMatrix.from_entries(entries)
    pool = catalog + ["x0", "x1"]
    holdouts = {
        f"u{u}": frozenset(draw(st.lists(st.sampled_from(pool), max_size=10),
                                label=f"holdout_u{u}"))
        for u in range(42) if draw(st.booleans(), label=f"has_holdout_u{u}")}
    return matrix, holdouts


@given(ranked_blocks(), st.integers(1, 20), st.booleans())
@settings(max_examples=150)
def test_ndcg_rows_equals_ndcg_model_exactly(instance, n, include_empty):
    matrix, holdouts = instance
    block = matrix.block(0, "M")
    keys = holdout_keys(indexed_pairs(holdouts),
                        matrix.user_index, matrix.item_index)
    lists = {u: matrix.ranked_ids(0, "M", u, limit=n)
             for u in matrix.users(0, "M")}

    def kernel():
        return ndcg_rows(block.user_rows, block.indptr, block.items,
                         len(matrix.item_index), keys, n, include_empty)

    try:
        want = ndcg_model(lists, holdouts, n, include_empty)
    except ValueError:
        with pytest.raises(ValueError, match="empty evaluation population"):
            kernel()
        return
    assert kernel() == want


def test_holdout_keys_flag_users_whose_items_are_all_outside_the_catalog():
    matrix = PredictionMatrix.from_entries({
        (0, "M", "u1"): [ScoredItem("a", 1.0)],
        (0, "M", "u2"): [ScoredItem("a", 1.0)],
    })
    keys = holdout_keys(indexed_pairs({"u1": frozenset({"a", "zz"}),
                                       "u2": frozenset({"zz"}),
                                       "u3": frozenset({"a"})}),
                        matrix.user_index, matrix.item_index)
    assert keys.keys.tolist() == [0]
    assert keys.nonempty.tolist() == [True, True]
    block = matrix.block(0, "M")
    assert ndcg_rows(block.user_rows, block.indptr, block.items, 1, keys,
                     1) == 0.5


def _reference_holdout_keys(holdouts, users, items):
    """holdout_keys pair by pair, with Python ints."""
    keys, nonempty = set(), [False] * len(users)
    for user, held in holdouts.items():
        if held and user in users:
            row = users.index(user)
            nonempty[row] = True
            keys |= {row * len(items) + items.index(i)
                     for i in held if i in items}
    return sorted(keys), nonempty


_IDS = st.sampled_from([f"x{i}" for i in range(8)])


@given(st.sets(_IDS), st.sets(_IDS),
       st.dictionaries(_IDS, st.frozensets(_IDS, max_size=6), max_size=8),
       st.sets(_IDS))
@settings(max_examples=200)
def test_holdout_keys_equal_a_per_pair_reference(user_ids, item_ids,
                                                 holdouts, extra):
    # Ids are drawn from one pool, so holdouts name users and items on
    # either side of each index, and may be empty. The holdout's pairs lie
    # over indexes that may hold ids no pair holds, as a fold's subset does.
    users, items = IdIndex(user_ids), IdIndex(item_ids)
    held = indexed_pairs(holdouts)
    own_users, own_items = (IdIndex(index.ids + tuple(extra))
                            for index in (held.users, held.items))
    got = holdout_keys(IndexedPairs(
        own_users, own_items,
        own_users.indices(held.users.ids)[held.user_rows],
        own_items.indices(held.items.ids)[held.item_cols]), users, items)
    keys, nonempty = _reference_holdout_keys(holdouts, users, items)
    assert got.keys.dtype == np.int64
    assert got.keys.tolist() == keys
    assert got.nonempty.tolist() == nonempty


def test_holdout_keys_do_not_overflow_past_two_to_the_31():
    # 50000 x 50000 > 2**31: an int32 key for the last pair would wrap.
    users = IdIndex(f"u{i:05d}" for i in range(50000))
    items = IdIndex(f"i{i:05d}" for i in range(50000))
    holdouts = {"u49999": frozenset({"i49999", "i00000"}),
                "u00001": frozenset({"i00002"})}
    got = holdout_keys(indexed_pairs(holdouts), users, items)
    keys, _ = _reference_holdout_keys(holdouts, users, items)
    assert keys[-1] == 50000**2 - 1 > 2**31
    assert got.keys.tolist() == keys


def test_ndcg_rows_with_no_holdout_keys_or_queries_past_the_last_key():
    # Two users, three items; each ranks items 2 then 0.
    user_rows = np.array([0, 1])
    indptr = np.array([0, 2, 4])
    items = np.array([2, 0, 2, 0])
    nonempty = np.array([True, True])
    none = HoldoutKeys(np.array([], dtype=np.int64), nonempty)
    assert ndcg_rows(user_rows, indptr, items, 3, none, 2) == 0.0
    # The only key is user 0's item 0 (key 0): every query of user 1
    # (keys 5 and 3) lies past it, and user 0's item 2 (key 2) too.
    first = HoldoutKeys(np.array([0], dtype=np.int64), nonempty)
    assert ndcg_rows(user_rows, indptr, items, 3, first, 2) == (
        (1 / math.log2(3)) / idcg(2) / 2)
