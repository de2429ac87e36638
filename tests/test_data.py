import csv
import math
import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from recfuse.core import (
    FoldSplit,
    IdIndex,
    Interaction,
    InteractionDataset,
    PredictionMatrix,
    ScoredItem,
)
from recfuse.data import (
    MATRIX_HEADER,
    MIN_SPLIT_INTERACTIONS,
    _below_draws,
    _read_matrix_rows,
    _read_plain_matrix,
    _shuffled,
    fnv1a64,
    format_score,
    load_interactions,
    read_matrix,
    read_splits,
    read_weights,
    split_folds,
    splitmix64_stream,
    write_interactions,
    write_matrix,
    write_splits,
    write_weights,
)
from recfuse.core import ModelWeights
from recfuse.synthetic import _top_quota, generate_interactions


class TestPinnedRng:
    """The generators are hand-rolled for portability; these are the
    published reference vectors, so any drift in the algorithm fails here."""

    def test_splitmix64_reference_vectors(self):
        g = SplitMix64(0)
        assert [g.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_splitmix64_seed_1234567(self):
        g = SplitMix64(1234567)
        assert g.next_u64() == 6457827717110365317
        assert g.next_u64() == 3203168211198807973

    @pytest.mark.parametrize("seed", [0, 1234567, 99, 2**64 - 1, -3,
                                      2**64 + 5])
    def test_vectorized_splitmix64_is_the_same_generator(self, seed):
        g = SplitMix64(seed)
        assert (splitmix64_stream(seed, 5).tolist()
                == [g.next_u64() for _ in range(5)])

    def test_fnv1a64_reference_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_below_is_unbiased_range(self):
        g = SplitMix64(99)
        draws = [_below(g, 7) for _ in range(2000)]
        assert set(draws) == set(range(7))


# -- the scalar split: the oracle of the flat draws ---------------------------

_MASK64 = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


class SplitMix64:
    """SplitMix64 generator (Steele, Lea & Flood 2014), one 64-bit output at
    a time, its seed taken mod 2**64."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX[0]) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX[1]) & _MASK64
        return z ^ (z >> 31)


def _below(rng: SplitMix64, bound: int) -> int:
    """Uniform integer in [0, bound) via rejection sampling."""
    limit = (2**64 // bound) * bound
    while True:
        v = rng.next_u64()
        if v < limit:
            return v % bound


def _shuffle(items: list, rng: SplitMix64):
    for i in range(len(items) - 1, 0, -1):
        j = _below(rng, i + 1)
        items[i], items[j] = items[j], items[i]


def _reference_split(dataset, seed, n_folds):
    """split_folds one user and one draw at a time."""
    user_items = dataset.user_items()
    seed_stream = SplitMix64(seed)
    fold_seeds = [seed_stream.next_u64() for _ in range(n_folds)]
    folds = []
    for fold_index, fold_seed in enumerate(fold_seeds):
        subsets = {"train": {}, "validation": {}, "test": {}}
        for user in sorted(user_items):
            items = list(user_items[user])
            if len(items) < MIN_SPLIT_INTERACTIONS:
                subsets["train"][user] = frozenset(items)
                continue
            _shuffle(items, SplitMix64(fold_seed ^ fnv1a64(user.encode())))
            n_val = len(items) // 5
            n_train = len(items) - 2 * n_val
            subsets["train"][user] = frozenset(items[:n_train])
            subsets["validation"][user] = frozenset(
                items[n_train:n_train + n_val])
            subsets["test"][user] = frozenset(items[n_train + n_val:])
        folds.append(FoldSplit(fold_index, **subsets))
    return folds


def _unxorshift(y: int, shift: int) -> int:
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _seed_whose_output_is(target: int, counter: int) -> int:
    """A seed whose SplitMix64 output `counter` (from 1) is target: the
    finalizer inverted, less counter gammas."""
    z = _unxorshift(target, 31)
    z = _unxorshift(z * pow(_MIX[1], -1, 2**64) & _MASK64, 27)
    z = _unxorshift(z * pow(_MIX[0], -1, 2**64) & _MASK64, 30)
    return (z - counter * _GAMMA) & _MASK64


# At bound 3, below rejects exactly 2**64 - 1: a lane of 3 items whose
# first draw is rejected, a lane of 5 whose third draw (bound 3) is, and a
# lane of 3 whose first draw is the largest output accepted.
_FIRST_REJECTED = _seed_whose_output_is(_MASK64, 1)
_THIRD_REJECTED = _seed_whose_output_is(_MASK64, 3)
_FIRST_AT_LIMIT = _seed_whose_output_is(_MASK64 - 1, 1)


def test_crafted_lanes_are_rejected_where_they_should_be():
    first, third = SplitMix64(_FIRST_REJECTED), SplitMix64(_THIRD_REJECTED)
    assert first.next_u64() == _MASK64
    assert [third.next_u64() for _ in range(3)][2] == _MASK64
    assert SplitMix64(_FIRST_AT_LIMIT).next_u64() == _MASK64 - 1


_counts = st.one_of(st.integers(0, 5), st.sampled_from([8, 16, 32, 64]),
                    st.integers(0, 40))


@given(st.lists(st.tuples(st.integers(0, _MASK64), _counts), max_size=12))
@example([(_FIRST_REJECTED, 3), (7, 5), (_THIRD_REJECTED, 5), (9, 3)])
@example([(_THIRD_REJECTED, 5)] * 3)
@example([(_FIRST_AT_LIMIT, 3), (_FIRST_REJECTED, 3)])
@settings(max_examples=300)
def test_flat_shuffle_matches_the_scalar_oracle(lanes):
    expected = []
    for seed, count in lanes:
        items = list(range(count))
        _shuffle(items, SplitMix64(seed))
        expected += items
    got = _shuffled(np.array([seed for seed, _ in lanes], dtype=np.uint64),
                    np.array([count for _, count in lanes], dtype=np.int64))
    assert got.tolist() == expected


# Bounds above 2**63 reject about half the outputs, powers of two none.
_bounds = st.one_of(st.integers(0, 63).map(lambda e: 2**e),
                    st.integers(1, _MASK64), st.integers(2**63, _MASK64))


@given(st.lists(st.tuples(st.integers(0, _MASK64),
                          st.lists(_bounds, max_size=8)), max_size=6))
@settings(max_examples=300)
def test_flat_draws_match_below_one_draw_at_a_time(lanes):
    expected, lane_of, steps, bounds = [], [], [], []
    for lane, (seed, lane_bounds) in enumerate(lanes):
        rng = SplitMix64(seed)
        expected += [_below(rng, bound) for bound in lane_bounds]
        lane_of += [lane] * len(lane_bounds)
        steps += range(len(lane_bounds))
        bounds += lane_bounds
    got = _below_draws(np.array([seed for seed, _ in lanes], dtype=np.uint64),
                       np.array(lane_of, dtype=np.int64),
                       np.array(steps, dtype=np.int64),
                       np.array(bounds, dtype=np.uint64))
    assert got.astype(np.uint64).tolist() == expected


@pytest.mark.parametrize("n_users,n_items,n_interactions,seed", [
    (10, 4, 5, 3),      # fewer events than users: some users get none
    (7, 3, 21, 1),      # every user full
    (6, 5, 29, 2),      # one short of full
    (1, 1, 1, 0),
    (25, 40, 333, 9),
    (40, 2, 41, 4),     # quotas clipped at the catalog size
])
def test_generate_interactions_meets_the_total_exactly(
        n_users, n_items, n_interactions, seed):
    ds = generate_interactions(n_users, n_items, n_interactions, seed=seed)
    assert len(ds) == n_interactions
    assert len(ds.pairs()) == n_interactions
    per_user = ds.user_items()
    assert len(per_user) <= min(n_users, n_interactions)
    assert all(1 <= len(items) <= n_items for items in per_user.values())


def test_generate_interactions_allows_users_without_events():
    assert len(generate_interactions(10, 4, 5, seed=3).user_items()) == 5


@st.composite
def quota_cuts(draw):
    """Small integer scores, so ties are many, and quotas from 0 to the
    catalog size."""
    n_users, n_items = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    scores = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=n_items, max_size=n_items),
        min_size=n_users, max_size=n_users))
    return scores, draw(st.lists(st.integers(0, n_items), min_size=n_users,
                                 max_size=n_users))


@given(quota_cuts())
@example(([[0, 0, 0, 0]] * 3, [0, 4, 2]))  # all tied; none and all kept
@example(([[1, 1], [0, 1]], [0, 0]))       # no user keeps an item
@settings(max_examples=300, deadline=None)
def test_quota_cut_is_each_users_stable_argsort_head(cut):
    """A user's events are the head of a stable argsort of the negated
    scores (ties to the lower item index), in item order, users end to end."""
    scores, quotas = np.array(cut[0], dtype=np.float64), cut[1]
    want = [np.sort(np.argsort(-row, kind="stable")[:q]).tolist()
            for row, q in zip(scores, quotas)]
    got = _top_quota(scores, np.array(quotas)).tolist()
    assert got == [item for head in want for item in head]


@pytest.mark.parametrize("recipe,message", [
    ({"n_users": 0}, "need at least one user and one item"),
    ({"n_items": 0}, "need at least one user and one item"),
    ({"n_interactions": 0}, r"n_interactions must be in \[1, n_users \* n_items\]"),
    ({"n_interactions": 41}, r"n_interactions must be in \[1, n_users \* n_items\]"),
    ({"n_factors": 0}, "n_factors must be >= 1"),
    ({"noise_scale": -math.inf}, "noise_scale must be finite, got -inf"),
    ({"popularity_weight": math.nan}, "popularity_weight must be finite"),
    ({"popularity_weight": 10**400}, "popularity_weight must be finite"),
], ids=["users", "items", "no-events", "too-many-events", "factors",
        "noise-inf", "weight-nan", "weight-huge-int"])
def test_generate_interactions_rejects_out_of_range_recipes(recipe, message):
    args = {"n_users": 5, "n_items": 8, "n_interactions": 20, **recipe}
    with pytest.raises(ValueError, match=message):
        generate_interactions(**args, seed=3)


@given(st.lists(st.text(min_size=1, max_size=3), max_size=12),
       st.lists(st.text(min_size=1, max_size=3), max_size=30))
@settings(max_examples=200)
def test_id_index_indices_match_index_in_input_order(known, queries):
    index = IdIndex(known)
    present = [q for q in queries if q in index] + known
    got = index.indices(iter(present))
    assert got.dtype == np.int32
    assert got.tolist() == [index.index(x) for x in present]
    missing = [q for q in queries if q not in index]
    if missing:
        with pytest.raises(KeyError):
            index.indices(present + missing[:1])


def test_id_index_indices_of_no_ids_is_empty_int32():
    got = IdIndex(["a"]).indices([])
    assert got.dtype == np.int32 and got.size == 0


def test_scored_list_finds_rows_by_user_and_leaves_the_block_as_built():
    m = PredictionMatrix.from_entries({
        (0, "A", "u1"): [ScoredItem("i1", 2.0)],
        (0, "A", "u3"): [ScoredItem("i2", 1.0), ScoredItem("i1", 0.5)],
        (0, "B", "u2"): []})
    block = m.block(0, "A")
    before = {name: getattr(block, name) for name in type(block).__slots__}
    for (fold, model, user), items in m.entries():
        assert m.scored_list(fold, model, user) == items
    assert all(getattr(block, name) is value for name, value in before.items())
    # Before the first stored user, between two, and after the last.
    for model, user in (("B", "u1"), ("A", "u2"), ("B", "u3")):
        with pytest.raises(KeyError, match=f"no list for user '{user}' in "
                                           f"fold 0, model '{model}'"):
            m.scored_list(0, model, user)
    with pytest.raises(KeyError):
        m.scored_list(0, "A", "zz")


def test_dataset_and_fold_constructors_reject_bad_pairs():
    with pytest.raises(ValueError, match="must be non-empty strings"):
        InteractionDataset([Interaction("u1", "a"), Interaction("", "b")])
    # The first record that repeats an earlier pair is named.
    with pytest.raises(ValueError, match=r"duplicate interaction \('u2', 'b'\)"):
        InteractionDataset([Interaction(u, i) for u, i in (
            ("u2", "b"), ("u1", "a"), ("u1", "c"), ("u2", "b"), ("u1", "a"))])
    with pytest.raises(ValueError, match="subsets overlap for user 'u2' in "
                                         "fold 3"):
        FoldSplit(3, {"u1": frozenset("ab"), "u2": frozenset("c")},
                  {"u1": frozenset("c")}, {"u2": frozenset("dc")})
    with pytest.raises(ValueError, match="fold_index must be non-negative"):
        FoldSplit(-1, {}, {}, {})


class TestSplitFolds:
    # (train, validation, test) sizes of one user's interactions per count:
    # validation and test get count // 5 each, train the rest; under five
    # interactions everything stays in train.
    SIZES = {4: (4, 0, 0), 5: (3, 1, 1), 9: (7, 1, 1), 10: (6, 2, 2),
             14: (10, 2, 2), 15: (9, 3, 3), 24: (16, 4, 4), 25: (15, 5, 5)}

    @pytest.mark.parametrize("count", sorted(SIZES))
    def test_split_sizes(self, count):
        records = tuple(Interaction("u1", f"i{j}") for j in range(count))
        folds = split_folds(InteractionDataset(records), seed=1)
        n_train, n_val, n_test = self.SIZES[count]
        for fold in folds:
            assert len(fold.train["u1"]) == n_train
            assert len(fold.validation.get("u1", ())) == n_val
            assert len(fold.test.get("u1", ())) == n_test
            assert ("u1" in fold.validation) == (n_val > 0)
            assert ("u1" in fold.test) == (n_test > 0)

    def test_disjoint_and_covering(self, small_dataset, small_folds):
        pairs = small_dataset.pairs()
        for fold in small_folds:
            got = (fold.pairs("train") | fold.pairs("validation")
                   | fold.pairs("test"))
            assert got == pairs

    @pytest.mark.parametrize("n_folds", [1, 0, -3])
    def test_fewer_than_two_folds_rejected(self, small_dataset, n_folds):
        with pytest.raises(ValueError, match="n_folds must be >= 2"):
            split_folds(small_dataset, seed=1, n_folds=n_folds)

    def test_same_seed_reproduces(self, small_dataset):
        a = split_folds(small_dataset, seed=77)
        b = split_folds(small_dataset, seed=77)
        for fa, fb in zip(a, b):
            assert fa == fb

    def test_matches_the_scalar_reference(self, small_dataset, small_folds):
        assert small_folds == _reference_split(small_dataset, 202, 5)

    @given(st.dictionaries(st.text(min_size=1, max_size=3),
                           st.sets(st.text(min_size=1, max_size=2),
                                   min_size=1, max_size=12),
                           min_size=1, max_size=8),
           st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_random_datasets_match_the_scalar_reference(self, held, seed):
        dataset = InteractionDataset(Interaction(user, item)
                                     for user, items in held.items()
                                     for item in items)
        assert (split_folds(dataset, seed, n_folds=2)
                == _reference_split(dataset, seed, 2))

    def test_folds_differ_from_each_other(self, small_folds):
        assignments = [fold.pairs("test") for fold in small_folds]
        assert len({frozenset(a) for a in assignments}) > 1

    def test_whole_dataset_proportions(self):
        ds = generate_interactions(1000, 400, 60000, seed=5)
        folds = split_folds(ds, seed=6)
        total = len(ds)
        for fold in folds:
            train = sum(len(v) for v in fold.train.values())
            val = sum(len(v) for v in fold.validation.values())
            test = sum(len(v) for v in fold.test.values())
            assert train + val + test == total
            # remainder items always land in train, so train >= 60% exactly
            assert 0.6 <= train / total < 0.62
            assert abs(val / total - 0.2) < 0.02
            assert abs(test / total - 0.2) < 0.02


class TestInteractionFiles:
    def test_load_well_formed(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("user,item,rating,timestamp\n"
                     "u1,a,1,100\nu2,b,1,200\nu1,c,1,300\n")
        ds = load_interactions(p, "csv", {"user": "user", "item": "item",
                                          "rating": "rating",
                                          "timestamp": "timestamp"})
        assert len(ds) == 3

    def test_duplicates_keep_latest_timestamp(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("user,item,rating,timestamp\n"
                     "u1,a,2,100\nu1,a,5,900\nu1,a,3,200\n")
        ds = load_interactions(p, "csv", {"user": "user", "item": "item",
                                          "rating": "rating",
                                          "timestamp": "timestamp"})
        assert len(ds) == 1
        assert ds.records[0].rating == 5.0
        assert ds.records[0].timestamp == 900

    def test_positional_tsv_without_header(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_text("196\t242\t3\t881250949\n186\t302\t3\t891717742\n")
        ds = load_interactions(p, "tsv", {"user": 0, "item": 1, "rating": 2,
                                          "timestamp": 3})
        assert len(ds) == 2
        assert ds.records[0].user_id == "196"

    @pytest.mark.parametrize("column_map", [
        {"user": -1, "item": 0},
        {"user": True, "item": False},
        {"user": 0, "item": 1, "rating": -2},
    ])
    def test_bad_positions_rejected(self, tmp_path, column_map):
        p = tmp_path / "x.csv"
        p.write_text("196,242,3\n186,302,3\n")
        with pytest.raises(ValueError, match="non-negative integers"):
            load_interactions(p, "csv", column_map)

    def test_malformed_rows_skipped_and_counted(self, tmp_path, caplog):
        p = tmp_path / "x.csv"
        p.write_text("user,item,rating\nu1,a,1\nu2,,1\nbroken\nu3,c,notanumber\n")
        with caplog.at_level("WARNING"):
            ds = load_interactions(p, "csv", {"user": "user", "item": "item",
                                              "rating": "rating"})
        assert len(ds) == 1
        assert "3 malformed" in caplog.text

    @pytest.mark.parametrize("stamp", ["inf", "-inf", "1e400", "nan"])
    def test_non_finite_timestamp_is_malformed(self, tmp_path, caplog, stamp):
        # int(float("inf")) raises OverflowError, not ValueError: the row is
        # still skipped and counted.
        p = tmp_path / "x.csv"
        p.write_text(f"user,item,timestamp\nu1,a,5\nu2,b,{stamp}\n")
        with caplog.at_level("WARNING"):
            ds = load_interactions(p, "csv", {"user": "user", "item": "item",
                                              "timestamp": "timestamp"})
        assert [(r.user_id, r.timestamp) for r in ds.records] == [("u1", 5)]
        assert "1 malformed" in caplog.text

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="not in header"):
            load_interactions(p, "csv", {"user": "user", "item": "item"})

    def test_zero_valid_rows_rejected(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("user,item\n,\n")
        with pytest.raises(ValueError, match="no valid interaction rows"):
            load_interactions(p, "csv")

    def test_roundtrip_through_writer(self, tmp_path, small_dataset):
        p = tmp_path / "x.csv"
        write_interactions(small_dataset, p)
        back = load_interactions(p, "csv", {"user": "user", "item": "item",
                                            "rating": "rating",
                                            "timestamp": "timestamp"})
        assert back.pairs() == small_dataset.pairs()


class TestColumnLoader:
    """Edges of the column loader: its dedup, its malformed-row rule and the
    split file it leads to must match the per-row rules they replaced."""

    def test_huge_and_missing_timestamps_keep_the_latest_wins_rule(
            self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("user,item,rating,timestamp\n"
                     "u1,a,1,1e30\nu2,b,1,\nu1,a,2,\nu1,a,3,5\n"
                     "u2,b,2,\n"                      # both missing: last wins
                     "u3,c,1,7\nu3,c,2,\n"            # missing loses
                     "u4,d,1,2e30\nu4,d,2,2e30\n"     # equal and huge: last
                     "u5,e,1,1e19\nu5,e,2,9223372036854775807\n"
                     "u6,f,1,\nu6,f,2,-1e30\n"        # missing loses to -1e30
                     "u7,g,1,5.9\nu7,g,2,5.1\n")      # both truncate to 5
        ds = load_interactions(p, "csv", {"user": "user", "item": "item",
                                          "rating": "rating",
                                          "timestamp": "timestamp"})
        assert [(r.user_id, r.item_id, r.rating, r.timestamp)
                for r in ds.records] == [
            ("u1", "a", 1.0, int(1e30)), ("u2", "b", 2.0, None),
            ("u3", "c", 1.0, 7), ("u4", "d", 2.0, int(2e30)),
            ("u5", "e", 1.0, int(1e19)), ("u6", "f", 2.0, int(-1e30)),
            ("u7", "g", 2.0, 5)]
        assert len(ds) == 7

    def test_every_malformed_kind_is_counted_once(self, tmp_path, caplog):
        p = tmp_path / "x.csv"
        p.write_text("user,item,rating,timestamp\n"
                     "u1,a,1,1\n"
                     "u2,b,1\n"           # too few fields
                     ",c,1,1\n"           # blank user
                     "u3, ,1,1\n"         # blank item after strip
                     "u4,d,x,1\n"         # bad rating
                     "u5,e,1,y\n"         # bad timestamp
                     "u6,f,1,nan\n"       # timestamp int() rejects
                     ",g,x,inf\n"         # three faults, one row
                     "u8,h, ,\n"          # blank rating and timestamp: fine
                     " u9 ,i,nan,3.5\n")  # ids stripped, NaN rating kept
        with caplog.at_level("WARNING"):
            ds = load_interactions(p, "csv", {"user": "user", "item": "item",
                                              "rating": "rating",
                                              "timestamp": "timestamp"})
        assert "skipped 7 malformed row(s)" in caplog.text
        got = [(r.user_id, r.item_id, r.rating, r.timestamp)
               for r in ds.records]
        assert got[:2] == [("u1", "a", 1.0, 1), ("u8", "h", None, None)]
        assert got[2][:2] == ("u9", "i") and math.isnan(got[2][2])
        assert got[2][3] == 3

    @pytest.mark.parametrize("through_file", [True, False])
    def test_ids_that_need_quoting_write_the_csv_writer_bytes(
            self, tmp_path, through_file):
        # The split file of ids holding a comma, a quote, a line break, a CR
        # and non-ASCII text equals csv.writer's rows under CRLF line ends,
        # which quote a CR, each written with an LF end instead, for a
        # dataset loaded from a file and one built from records. Ids with
        # edge spaces, which the loader strips, go in only by records.
        users = ["plain", "a,b", 'q"x', "line\nbreak", "caf\u00e9", "cr\rx"]
        items = ["i,1", '"i2"', "i\n3", "\u00e9t\u00e9", "i5", "i 6", "i7"]
        if not through_file:
            users += [" lead"]
        records = tuple(Interaction(u, i) for n, u in enumerate(users)
                        for i in items[:5 + n % 3])
        dataset = InteractionDataset(records)
        if through_file:
            events = tmp_path / "events.csv"
            write_interactions(dataset, events)
            dataset = load_interactions(events)
            assert dataset.pairs() == InteractionDataset(records).pairs()
        folds = split_folds(dataset, seed=3, n_folds=2)
        got = tmp_path / "splits.csv"
        write_splits(folds, got)
        rows = []
        writer = csv.writer(SimpleNamespace(write=rows.append),
                            lineterminator="\r\n")
        writer.writerow(["fold", "user", "item", "subset"])
        writer.writerows(sorted(
            (fold.fold_index, user, item, subset)
            for fold in folds
            for subset in ("train", "validation", "test")
            for user, held in fold.subset(subset).items()
            for item in held))
        assert all(row.endswith("\r\n") for row in rows)
        expected = "".join(row[:-2] + "\n" for row in rows)
        assert got.read_bytes() == expected.encode("utf-8")
        # Folds read back hold mappings; they write the same bytes.
        assert read_splits(got) == folds
        write_splits(read_splits(got), tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == got.read_bytes()


class TestMatrixFiles:
    def test_roundtrip(self, tmp_path, tiny_matrix):
        p = tmp_path / "m.csv"
        write_matrix(tiny_matrix, p)
        assert read_matrix(p) == tiny_matrix

    def test_written_bytes(self, tmp_path):
        p = tmp_path / "m.csv"
        write_matrix(PredictionMatrix.from_entries({
            (1, "B", "u2"): [ScoredItem("i1", 0.5), ScoredItem("i2", 0.5)],
            (0, "A", "u1"): [ScoredItem("i1", 2.0)]}), p)
        assert p.read_bytes() == (b"fold,model,user,item,score\n"
                                  b"0,A,u1,i1,2\n"
                                  b"1,B,u2,i1,0.5\n1,B,u2,i2,0.5\n")

    def test_nan_rejected_with_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("fold,model,user,item,score\n0,A,u1,a,1.0\n0,A,u1,b,nan\n")
        with pytest.raises(ValueError, match="line 3.*non-finite"):
            read_matrix(p)

    def test_out_of_order_scores_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("fold,model,user,item,score\n0,A,u1,a,0.5\n0,A,u1,b,0.9\n")
        with pytest.raises(ValueError, match="line 3.*non-increasing"):
            read_matrix(p)

    def test_tie_order_enforced(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("fold,model,user,item,score\n0,A,u1,b,0.5\n0,A,u1,a,0.5\n")
        with pytest.raises(ValueError, match="line 3.*item id ascending"):
            read_matrix(p)

    def test_duplicate_item_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("fold,model,user,item,score\n0,A,u1,a,0.9\n0,A,u1,a,0.5\n")
        with pytest.raises(ValueError, match="line 3.*duplicate item"):
            read_matrix(p)

    def test_non_contiguous_group_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("fold,model,user,item,score\n"
                     "0,A,u1,a,0.9\n0,A,u2,a,0.9\n0,A,u1,b,0.5\n")
        with pytest.raises(ValueError, match="line 4.*not contiguous"):
            read_matrix(p)

    def test_min_length_enforced(self, tmp_path, tiny_matrix):
        p = tmp_path / "m.csv"
        write_matrix(tiny_matrix, p)
        read_matrix(p, min_length=3)
        with pytest.raises(ValueError, match="k=4 was requested"):
            read_matrix(p, min_length=4)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="line 1: expected header"):
            read_matrix(p)


class TestSplitsFiles:
    def test_roundtrip(self, tmp_path, small_folds):
        p = tmp_path / "s.csv"
        write_splits(small_folds, p)
        assert read_splits(p) == small_folds

    def test_unknown_subset_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("fold,user,item,subset\n0,u1,a,bogus\n")
        with pytest.raises(ValueError, match="line 2.*unknown subset"):
            read_splits(p)

    @pytest.mark.parametrize("row,reason", [
        ("-1,u1,b,train", "fold must be >= 0"),
        ("0,u1,a,test", "subsets overlap for user 'u1' in fold 0"),
        ("0,,b,train", "empty id field"),
        ("0,u1,,train", "empty id field"),
        ("x,u1,b,train", "fold 'x' is not an integer"),
        ("0,u1,b", "expected 4 fields"),
    ], ids=["negative-fold", "two-subsets", "empty-user", "empty-item",
            "text-fold", "short-row"])
    def test_bad_row_named_by_its_line(self, tmp_path, row, reason):
        p = tmp_path / "s.csv"
        p.write_text(f"fold,user,item,subset\n0,u1,a,train\n{row}\n"
                     "1,u1,a,test\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: line 3: {reason}")):
            read_splits(p)


class TestWeightsFiles:
    def test_roundtrip(self, tmp_path):
        w = ModelWeights({(0, "A"): 0.123456789012345678, (0, "B"): 1.0,
                          (1, "A"): 0.0, (1, "B"): 0.5}, 10)
        p = tmp_path / "w.csv"
        write_weights(w, p)
        back = read_weights(p)
        assert back.cutoff_n == 10
        assert back.weights == w.weights

    def test_duplicate_rejected(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("fold,model,n,weight\n0,A,5,0.5\n0,A,5,0.6\n")
        with pytest.raises(ValueError, match="duplicate weight"):
            read_weights(p)

    @pytest.mark.parametrize("row,reason", [
        ("0,B,5,1.5", "weight '1.5' must be in [0, 1]"),
        ("0,B,5,nan", "weight 'nan' must be in [0, 1]"),
        ("0,B,0,0.5", "n must be >= 1"),
        ("-1,B,5,0.5", "fold must be >= 0"),
        ("0,,5,0.5", "empty id field"),
        ("0,B,10,0.5", "mixed cutoff n"),
        ("0,A,5,0.6", "duplicate weight for fold 0, model 'A'"),
    ], ids=["weight-above-one", "weight-nan", "zero-n", "negative-fold",
            "empty-model", "mixed-n", "duplicate"])
    def test_bad_row_named_by_its_line(self, tmp_path, row, reason):
        p = tmp_path / "w.csv"
        p.write_text(f"fold,model,n,weight\n0,A,5,0.5\n{row}\n1,A,5,0.5\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: line 3: {reason}")):
            read_weights(p)


# -- property: lossless matrix round trip over generated matrices ---------------

@st.composite
def matrices(draw):
    entries = {}
    n_folds = draw(st.integers(1, 2))
    models = draw(st.lists(st.sampled_from(["A", "B", "C"]), min_size=1,
                           max_size=2, unique=True))
    users = draw(st.lists(st.sampled_from(["u1", "u2", "u3"]), min_size=1,
                          max_size=3, unique=True))
    items = [f"i{j}" for j in range(8)]
    for fold in range(n_folds):
        for model in models:
            for user in users:
                perm = draw(st.permutations(items))
                size = draw(st.integers(1, 8))
                scores = sorted(
                    draw(st.lists(
                        st.floats(-1e6, 1e6, allow_nan=False,
                                  allow_infinity=False),
                        min_size=size, max_size=size)),
                    reverse=True)
                ranked = sorted(zip(perm[:size], scores),
                                key=lambda p: (-p[1], p[0]))
                entries[(fold, model, user)] = [
                    ScoredItem(i, s) for i, s in ranked]
    return PredictionMatrix.from_entries(entries)


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_matrix_roundtrip_lossless(tmp_path_factory, m):
    p = tmp_path_factory.mktemp("rt") / "m.csv"
    write_matrix(m, p)
    assert read_matrix(p) == m


# -- property: the first list-contract fault is reported, with its location ----

CONTRACT_FAULTS = ("not contiguous", "non-increasing", "tie order",
                   "duplicate item")
# Each field fault rewrites one CSV row; the message read_matrix gives for it.
FIELD_FAULTS = (
    (lambda r: r[:4], "expected 5 fields, got 4"),
    (lambda r: ["x"] + r[1:], "fold 'x' is not an integer"),
    (lambda r: ["-1"] + r[1:], "fold must be >= 0"),
    (lambda r: r[:2] + [""] + r[3:], "empty id field"),
    (lambda r: r[:4] + ["abc"], "score 'abc' is not a number"),
    (lambda r: r[:4] + ["nan"], "non-finite score"),
)


@st.composite
def ranked_lists(draw, min_length):
    """Valid lists keyed (fold, model, user), in a drawn order: scores from a
    small set so ties are common, ties ordered by item id, and items shared
    across lists. Entries are mutable [item, score] pairs. Item ids start
    with 'i', so the injected id 'h' sorts before all of them."""
    keys = draw(st.lists(st.tuples(st.integers(0, 1), st.sampled_from("AB"),
                                   st.sampled_from(["u1", "u2", "u3", "u4"])),
                         min_size=2, max_size=8, unique=True))
    lists = {}
    for key in keys:
        items = draw(st.lists(st.sampled_from([f"i{j}" for j in range(10, 18)]),
                              min_size=min_length, max_size=5, unique=True))
        scores = [draw(st.sampled_from([0.0, 0.5, 1.0, 1.5])) for _ in items]
        lists[key] = [[i, s] for s, i in sorted(zip(scores, items),
                                                key=lambda p: (-p[0], p[1]))]
    return lists


def _inject_in_place(draw, entries, kind):
    """Break entry j >= 1 of one list, and nothing before it; return j."""
    j = draw(st.integers(1, len(entries) - 1))
    prev_score = entries[j - 1][1]
    if kind == "non-increasing":
        entries[j][1] = prev_score + 1.0
    elif kind == "tie order":   # a smaller fresh id, or the same item again
        entries[j] = [draw(st.sampled_from(["h", entries[j - 1][0]])), prev_score]
    else:   # duplicate item: an earlier item, adjacent or not, scored lower
        entries[j] = [entries[draw(st.integers(0, j - 1))][0], prev_score - 1.0]
    return j


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_read_matrix_reports_the_first_faulty_line(tmp_path_factory, data):
    draw = data.draw
    lists = draw(ranked_lists(min_length=1))
    order = list(lists)
    targets = draw(st.lists(st.sampled_from(range(len(order))), min_size=1,
                            max_size=2, unique=True))
    faulty: dict[int, str] = {}     # id() of a faulty row -> its message
    appended: dict[int, list] = {}  # list position -> rows put after it
    for t in targets:
        key = order[t]
        entries = lists[key]
        kinds = CONTRACT_FAULTS if len(entries) >= 2 else CONTRACT_FAULTS[:1]
        kind = draw(st.sampled_from(kinds))
        if kind == "not contiguous":
            if t == len(order) - 1:
                continue
            after = draw(st.integers(t + 1, len(order) - 1))
            row = [*key, "h", 0.0]
            appended.setdefault(after, []).append(row)
            faulty[id(row)] = (f"rows for fold {key[0]}, model {key[1]!r}, "
                               f"user {key[2]!r} are not contiguous")
            continue
        j = _inject_in_place(draw, entries, kind)
        faulty[id(entries[j])] = {
            "non-increasing": "scores must be non-increasing within a list",
            "tie order": "tied scores must be ordered by item id ascending",
            "duplicate item": f"duplicate item {entries[j][0]!r} in list",
        }[kind]
    # Rows in file order, each tagged with the id() its fault is keyed by.
    rows = []
    for pos, key in enumerate(order):
        rows += [(id(e), [*key, *e]) for e in lists[key]]
        rows += [(id(r), r) for r in appended.get(pos, [])]
    lines = [[str(fold), model, user, item, format_score(score)]
             for _, (fold, model, user, item, score) in rows]
    expected = [(n + 2, faulty[tag]) for n, (tag, _) in enumerate(rows)
                if tag in faulty]
    if draw(st.booleans()):   # a field fault, before or after the others
        n = draw(st.sampled_from([n for n, (tag, _) in enumerate(rows)
                                  if tag not in faulty]))
        rewrite, message = draw(st.sampled_from(FIELD_FAULTS))
        lines[n] = rewrite(lines[n])
        expected.append((n + 2, message))
    p = tmp_path_factory.mktemp("faults") / "m.csv"
    p.write_text("fold,model,user,item,score\n"
                 + "".join(",".join(line) + "\n" for line in lines))
    if not expected:
        read_matrix(p)
        return
    line, message = min(expected)
    with pytest.raises(ValueError) as err:
        read_matrix(p)
    assert str(err.value) == f"{p}: line {line}: {message}"


# -- property: the column reader gives the row reader's matrix or error --------

# Ids whose order as padded bytes is easy to get wrong: prefixes of each
# other, non-ASCII, and longer than the 8 bytes of one packed word.
MATRIX_ITEMS = ["i1", "i10", "i2", "e", "é", "中文", "item-over-8-a",
                "item-over-8-b"]
MATRIX_USERS = ["u1", "ü", "user-over-8"]


def _with_field(f, value):
    return lambda line: ",".join(value(v) if i == f else v
                                 for i, v in enumerate(line.split(",")))


# Rewrites of one data line, valid or not, by name.
LINE_EDITS = {
    "nan score": _with_field(4, lambda v: "nan"),
    "inf score": _with_field(4, lambda v: "inf"),
    "1_0 score": _with_field(4, lambda v: "1_0"),
    "spaced score": _with_field(4, lambda v: " " + v),
    "split score": _with_field(4, lambda v: "1 5"),
    "6 fields": _with_field(4, lambda v: v + ",x"),
    "6 fields, one empty": _with_field(3, lambda v: v + ","),
    "4 fields": lambda line: line.rsplit(",", 1)[0],
    "fold 0-prefixed": _with_field(0, lambda v: "0" + v),
    "negative fold": _with_field(0, lambda v: "-1"),
    "empty user": _with_field(2, lambda v: ""),
    "quoted user": _with_field(2, lambda v: f'"{v}"'),
    "CR in user": _with_field(2, lambda v: v + "\r"),
    "NUL in model": _with_field(1, lambda v: v + "\0"),
    "line over _MAX_LINE": _with_field(3, lambda v: v + "z" * 130),
}
FILE_EDITS = ("none", "move a line", "CRLF", "BOM", "blank last line",
              "no final newline", "invalid UTF-8")


def _matrix_outcome(read, path, min_length):
    """('ok', matrix) or ('error', exception type, message) of one read."""
    try:
        return ("ok", read(path, min_length))
    except Exception as exc:    # the row reader can raise csv.Error too
        return ("error", type(exc), str(exc))


def _read_by_rows(path, min_length):
    matrix = _read_matrix_rows(path)
    if min_length is not None:
        matrix.ensure_supports_k(min_length)
    return matrix


def _assert_same_matrix(a, b):
    assert a._users.ids == b._users.ids and a._items.ids == b._items.ids
    assert list(a._blocks) == list(b._blocks)
    for key, block in a._blocks.items():
        for name in ("user_rows", "indptr", "items", "scores"):
            x, y = getattr(block, name), getattr(b._blocks[key], name)
            assert x.dtype == y.dtype and np.array_equal(x, y), (key, name)


@pytest.mark.parametrize("edit", [*FILE_EDITS, *LINE_EDITS])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_column_reader_matches_row_reader(tmp_path_factory, edit, data):
    """read_matrix gives the row reader's matrix, or its error, on plain and
    on adversarial files, with lists and faults across block boundaries.
    Each edit is made once, alone or with one more drawn edit."""
    draw = data.draw
    keys = draw(st.lists(st.tuples(st.sampled_from("01"),
                                   st.sampled_from(["A", "bm"]),
                                   st.sampled_from(MATRIX_USERS)),
                         min_size=1, max_size=5, unique=True))
    lines = []
    for key in keys:
        items = draw(st.lists(st.sampled_from(MATRIX_ITEMS), min_size=1,
                              max_size=5, unique=True))
        # Few distinct scores, so ties at any cut-off are common.
        scores = [draw(st.sampled_from([0.0, 0.5, 1.5])) for _ in items]
        lines += [",".join((*key, item, format_score(score)))
                  for score, item in sorted(zip(scores, items),
                                            key=lambda p: (-p[0], p[1]))]
    edits = [edit, draw(st.sampled_from([*FILE_EDITS, *LINE_EDITS]))
             if edit != "none" and draw(st.booleans()) else "none"]
    for name in edits:
        at = draw(st.integers(0, len(lines) - 1))
        if name in LINE_EDITS:
            lines[at] = LINE_EDITS[name](lines[at])
        elif name == "move a line":
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(at))
    header = ",".join(MATRIX_HEADER) + "\n"
    raw = ("\ufeff" * ("BOM" in edits) + header
           + "".join(line + "\n" for line in lines)).encode("utf-8")
    if "CRLF" in edits:
        raw = raw.replace(b"\n", b"\r\n")
    if "invalid UTF-8" in edits:
        cut = draw(st.integers(len(header), len(raw) - 1))
        raw = raw[:cut] + b"\xff" + raw[cut:]
    if "blank last line" in edits:
        raw += b"\n"
    if "no final newline" in edits:
        raw = raw[:-1]
    p = tmp_path_factory.mktemp("plain") / "m.csv"
    p.write_bytes(raw)
    min_length = draw(st.sampled_from([None, 1, 3]))
    with mock.patch("recfuse.data._BLOCK_ROWS",
                    draw(st.sampled_from([1, 2, 3, 7, 8192]))):
        if edits == ["none", "none"]:   # a plain file takes the column path
            assert _read_plain_matrix(raw) is not None
        got = _matrix_outcome(read_matrix, p, min_length)
    want = _matrix_outcome(_read_by_rows, p, min_length)
    if got[0] == want[0] == "ok":
        _assert_same_matrix(got[1], want[1])
    else:
        assert got == want


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_from_entries_names_the_faulty_list(data):
    draw = data.draw
    lists = draw(ranked_lists(min_length=1))
    faults = []
    for key in draw(st.lists(st.sampled_from(list(lists)), min_size=1,
                             max_size=2, unique=True)):
        kinds = ("non-finite",) + (CONTRACT_FAULTS[1:] if len(lists[key]) >= 2
                                   else ())
        kind = draw(st.sampled_from(kinds))
        if kind == "non-finite":
            j = draw(st.integers(0, len(lists[key]) - 1))
            lists[key][j][1] = draw(st.sampled_from([math.nan, math.inf]))
        else:
            j = _inject_in_place(draw, lists[key], kind)
        faults.append((key, j, kind))
    # Empty lists, some ahead of the faulty ones in their block.
    for key in draw(st.lists(st.tuples(st.integers(0, 1), st.sampled_from("AB"),
                                       st.sampled_from(["u0", "u5"])),
                             max_size=3)):
        lists[key] = []
    # Blocks are checked in (fold, model) order; within a block, non-finite
    # scores first, then the first faulty entry in user order.
    block = min(key[:2] for key, _, _ in faults)
    in_block = sorted((kind != "non-finite", key[2], j, kind)
                      for key, j, kind in faults if key[:2] == block)
    _, user, _, kind = in_block[0]
    what = {"non-finite": "non-finite score",
            "non-increasing": "list not sorted (score desc, ties by item id)",
            "tie order": "list not sorted (score desc, ties by item id)",
            "duplicate item": "duplicate item within a list"}[kind]
    with pytest.raises(ValueError) as err:
        PredictionMatrix.from_entries(
            {k: [ScoredItem(*e) for e in v] for k, v in lists.items()})
    assert str(err.value) == (f"{what} in fold {block[0]}, model {block[1]!r}, "
                              f"user {user!r}")


# -- property: every file a writer makes reads back, whatever its ids ---------

# Ids drawn from characters that need quoting or decoding care: CR, LF, a
# quote, a comma, a tab, a space, NUL, a BOM and non-ASCII letters, between
# plain ones.
_ID_CHARS = "ab\r\n\",\t \0\ufeff\u00e9\u4e2d"
_any_id = st.text(st.sampled_from(_ID_CHARS), min_size=1, max_size=5)
# load_interactions strips edge whitespace from ids; the other readers keep
# every character.
_unpadded_id = _any_id.filter(lambda text: text == text.strip())
_ALL_COLUMNS = {"user": "user", "item": "item", "rating": "rating",
                "timestamp": "timestamp"}


@given(st.lists(st.tuples(_unpadded_id, _unpadded_id,
                          st.none() | st.floats(allow_nan=False),
                          st.none() | st.integers(-2**53, 2**53)),
                min_size=1, max_size=8, unique_by=lambda row: row[:2]),
       st.sampled_from(["csv", "tsv"]))
@example([("cr\rx", "a", None, None), ("b", "i\rj", 1.5, 7)], "csv")
@example([("cr\rx", "a", None, None), ("b", "i\rj", 1.5, 7)], "tsv")
@settings(max_examples=150, deadline=None)
def test_interaction_files_round_trip_any_ids(tmp_path_factory, rows, format):
    dataset = InteractionDataset(Interaction(*row) for row in rows)
    path = tmp_path_factory.mktemp("rt") / f"events.{format}"
    write_interactions(dataset, path, format)
    back = load_interactions(path, format, _ALL_COLUMNS)

    def by_pair(records):
        return sorted(records, key=lambda r: (r.user_id, r.item_id))
    assert by_pair(back.records) == by_pair(dataset.records)


@st.composite
def _matrices_of_any_ids(draw):
    """Lists of drawn ids, with scores from a small set so ties are common,
    ties in item id order."""
    ids = st.lists(_any_id, min_size=1, max_size=3, unique=True)
    models, users = draw(ids), draw(ids)
    items = draw(st.lists(_any_id, min_size=1, max_size=5, unique=True))
    entries = {}
    for fold in range(draw(st.integers(1, 2))):
        for model in models:
            for user in users:
                held = draw(st.lists(st.sampled_from(items), min_size=1,
                                     unique=True))
                scored = [(item, draw(st.sampled_from([0.25, 0.5, 1.0])))
                          for item in held]
                entries[(fold, model, user)] = [
                    ScoredItem(*pair)
                    for pair in sorted(scored, key=lambda p: (-p[1], p[0]))]
    return PredictionMatrix.from_entries(entries)


@given(_matrices_of_any_ids())
@example(PredictionMatrix.from_entries(
    {(0, "m\rx", "u\r"): [ScoredItem("a\rb", 1.0), ScoredItem("c", 0.5)]}))
@settings(max_examples=150, deadline=None)
def test_matrix_files_round_trip_any_ids(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("rt") / "m.csv"
    write_matrix(m, path)
    # The column reader takes plain files and declines the rest.
    assert _read_plain_matrix(path.read_bytes()) in (None, m)
    assert read_matrix(path) == m
    assert _read_matrix_rows(path) == m


@given(st.lists(st.tuples(st.integers(0, 1), _any_id, _any_id,
                          st.sampled_from(["train", "validation", "test"])),
                min_size=1, max_size=12, unique_by=lambda row: row[:3]))
@example([(0, "cr\rx", "a", "train"), (1, "b", "i\r", "test")])
@settings(max_examples=150, deadline=None)
def test_split_files_round_trip_any_ids(tmp_path_factory, rows):
    held = {}
    for fold, user, item, subset in rows:
        subsets = held.setdefault(fold, {"train": {}, "validation": {},
                                         "test": {}})
        subsets[subset][user] = subsets[subset].get(user, frozenset()) | {item}
    folds = [FoldSplit(fold, **held[fold]) for fold in sorted(held)]
    path = tmp_path_factory.mktemp("rt") / "splits.csv"
    write_splits(folds, path)
    assert read_splits(path) == folds


@given(st.dictionaries(st.tuples(st.integers(0, 3), _any_id),
                       st.floats(0.0, 1.0), min_size=1, max_size=6),
       st.integers(1, 50))
@example({(0, "m\rx"): 0.5, (1, "a"): 1.0}, 5)
@settings(max_examples=150, deadline=None)
def test_weight_files_round_trip_any_ids(tmp_path_factory, table, n):
    path = tmp_path_factory.mktemp("rt") / "weights.csv"
    write_weights(ModelWeights(table, n), path)
    back = read_weights(path)
    assert (back.weights, back.cutoff_n) == (table, n)
