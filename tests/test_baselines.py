import dataclasses
import itertools
import math
import random
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import common_items, indexed_pairs, train_of
from recfuse import baselines
from recfuse.baselines import (
    DEFAULT_PARAMS,
    MODEL_KINDS,
    _sparse_row_sums,
    _top_k,
    fit,
    generate_matrix,
    train_incidence,
)
from recfuse.core import IdIndex, IndexedPairs, PredictionMatrix
from recfuse.data import SplitSpec, split_folds


THREE_USERS = [("u1", "a"), ("u1", "b"), ("u2", "a"), ("u3", "b"), ("u3", "c")]


def brute_similarity(pairs, kind, nn=20, k1=1.2, b=0.75):
    """Loop-based reference for every similarity the package uses."""
    users = sorted({u for u, _ in pairs})
    items = sorted({i for _, i in pairs})
    upos = {u: r for r, u in enumerate(users)}
    ipos = {i: c for c, i in enumerate(items)}
    inc = [[0.0] * len(items) for _ in users]
    for u, i in pairs:
        inc[upos[u]][ipos[i]] = 1.0

    if kind == "user-knn":
        vectors = inc
    else:
        vectors = [[inc[r][c] for r in range(len(users))]
                   for c in range(len(items))]

    if kind in ("item-item-tfidf", "item-item-bm25"):
        n_users = len(users)
        df = [sum(col) for col in vectors]
        idf = [math.log(n_users / d) if d > 0 else 0.0 for d in df]
        if kind == "item-item-tfidf":
            for c, col in enumerate(vectors):
                vectors[c] = [v * idf[c] for v in col]
        else:
            lengths = [sum(row) for row in inc]
            avg = sum(lengths) / len(lengths)
            factor = [(k1 + 1.0) / (1.0 + k1 * (1.0 - b + b * L / avg))
                      for L in lengths]
            for c, col in enumerate(vectors):
                vectors[c] = [v * idf[c] * factor[r] for r, v in enumerate(col)]

    def cos(x, y):
        dot = sum(a * bb for a, bb in zip(x, y))
        nx = math.sqrt(sum(a * a for a in x))
        ny = math.sqrt(sum(a * a for a in y))
        if nx == 0 or ny == 0:
            return 0.0
        return dot / (nx * ny)

    n = len(vectors)
    sim = [[cos(vectors[i], vectors[j]) for j in range(n)] for i in range(n)]

    if kind in ("user-knn", "item-knn"):
        kept = [[0.0] * n for _ in range(n)]
        for r in range(n):
            order = sorted((j for j in range(n) if j != r),
                           key=lambda j: (-sim[r][j], j))
            for j in order[:min(nn, n - 1)]:
                if sim[r][j] != 0.0:
                    kept[r][j] = sim[r][j]
        sim = kept
    return users, items, sim


class TestPopularity:
    def test_counts(self):
        m = fit("popularity", train_of([("u1", "a"), ("u2", "a"), ("u1", "b")]))
        assert m.popularity_scores().tolist() == [2.0, 1.0]
        assert m.recommend("u1", 2) == [("a", 2.0), ("b", 1.0)]

    def test_count_tie_broken_by_item_id(self):
        m = fit("popularity", train_of([("u1", "b"), ("u2", "a")]))
        assert [si.item_id for si in m.recommend("u1", 2)] == ["a", "b"]


class TestCosineSimilarity:
    def test_hand_computed_three_users(self):
        m = fit("item-item-cosine", train_of(THREE_USERS))
        # columns: a=(1,1,0), b=(1,0,1), c=(0,0,1) over users u1,u2,u3
        assert m.similarity[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert m.similarity[0, 2] == pytest.approx(0.0, abs=1e-12)
        assert m.similarity[1, 2] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_identical_columns_have_similarity_one(self):
        m = fit("item-item-cosine", train_of([("u1", "a"), ("u1", "b"),
                                              ("u2", "a"), ("u2", "b")]))
        assert m.similarity[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_with_unit_diagonal(self):
        m = fit("item-item-cosine", train_of(THREE_USERS))
        assert np.array_equal(m.similarity, m.similarity.T)
        assert np.max(np.abs(np.diag(m.similarity) - 1.0)) <= 1e-12


@pytest.mark.parametrize("kind", [k for k in MODEL_KINDS if k != "popularity"])
def test_similarity_matches_bruteforce(kind):
    rng = np.random.default_rng(42)
    pairs = sorted({(f"u{int(u)}", f"i{int(i)}")
                    for u, i in zip(rng.integers(0, 25, 160),
                                    rng.integers(0, 30, 160))})
    _, _, ref = brute_similarity(pairs, kind, nn=5)
    sim = fit(kind, train_of(pairs), params={"nn": 5}).similarity
    if kind in ("user-knn", "item-knn"):
        # Exactly tied neighbors at the nn boundary may resolve differently
        # under Gram vs loop arithmetic, moving a value to another column.
        # The kept values per row are still the same multiset.
        ref = np.array(ref)
        for row in range(ref.shape[0]):
            got = np.sort(sim[row][sim[row] != 0.0])
            want = np.sort(ref[row][ref[row] != 0.0])
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=0, atol=1e-12)
    else:
        assert np.allclose(sim, np.array(ref), rtol=0, atol=1e-12)


@st.composite
def adversarial_pairs(draw):
    """Random (user, item) pairs plus, when drawn, the cases a Gram can get
    wrong: an item every user holds, a second item held by the same users
    as another, and a user and an item with a single interaction."""
    n_users = draw(st.integers(1, 8))
    pool = [(f"u{u}", f"i{i}") for u in range(n_users) for i in range(8)]
    pairs = set(draw(st.lists(st.sampled_from(pool), min_size=1,
                              max_size=40)))
    if draw(st.booleans()):
        pairs.add(("u_one", draw(st.sampled_from(sorted(i for _, i in pairs)))))
    if draw(st.booleans()):
        pairs.add((draw(st.sampled_from(sorted(u for u, _ in pairs))), "i_one"))
    if draw(st.booleans()):
        twin = draw(st.sampled_from(sorted({i for _, i in pairs})))
        pairs |= {(u, "i_twin") for u, i in pairs if i == twin}
    if draw(st.booleans()):
        pairs |= {(u, "i_all") for u, _ in pairs}
    return sorted(pairs)


@given(adversarial_pairs(), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_shared_cosine_matches_bruteforce(pairs, nn):
    train = train_of(pairs)
    items, incidence = train.items, train.rows.dense()
    cosine = train.item_cosine()
    assert not cosine.flags.writeable
    user_cosine = baselines._cosine(train.columns, train.rows)
    for sim in (cosine, user_cosine):
        assert np.array_equal(sim, sim.T)
    every = common_items(train)
    for kind in [k for k in MODEL_KINDS if k != "popularity"]:
        model = fit(kind, train, params={"nn": nn})
        sim = model.similarity  # a kNN kind's is made on each access
        _, _, ref = brute_similarity(pairs, kind, nn=nn)
        ref = np.array(ref)
        if kind in ("user-knn", "item-knn"):
            for row in range(ref.shape[0]):
                got = np.sort(sim[row][sim[row] != 0])
                want = np.sort(ref[row][ref[row] != 0.0])
                assert got.shape == want.shape
                assert np.allclose(got, want, rtol=0, atol=1e-12)
            continue
        assert np.allclose(sim, ref, rtol=0, atol=1e-12)
        assert np.array_equal(sim, sim.T)
        if kind == "item-item-cosine":
            assert sim is cosine
            assert np.all(np.diag(cosine)[every] > 0.0)
        else:
            assert not sim[every].any()
            assert not sim[:, every].any()
    if "i_twin" in items:
        twin, other = items.index("i_twin"), None
        for i in range(len(items)):
            if i != twin and np.array_equal(incidence[:, i],
                                            incidence[:, twin]):
                other = i
        lo, hi = sorted((twin, other))
        assert np.array_equal(cosine[lo], cosine[hi])
        kept = fit("item-knn", train, params={"nn": nn}).similarity
        for row in set(range(len(items))) - {lo, hi}:
            assert kept[row, lo] != 0.0 or kept[row, hi] == 0.0


def test_item_cosine_is_built_once_and_only_when_needed():
    rng = np.random.default_rng(5)
    pairs = sorted({(f"u{int(u)}", f"i{int(i)}")
                    for u, i in zip(rng.integers(0, 40, 400),
                                    rng.integers(0, 60, 400))})
    train = train_of(pairs)
    builds = []
    real = baselines._cosine

    def counting(source, touched):
        if touched is train.columns:
            builds.append(threading.get_ident())
        return real(source, touched)

    with mock.patch.object(baselines, "_cosine", counting):
        for kind in ("popularity", "user-knn", "item-item-bm25"):
            fit(kind, train)
        assert builds == []
        kinds = ["item-item-cosine", "item-item-tfidf", "item-knn"] * 6
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(fit, kind, train) for kind in kinds]
                models = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
    assert len(builds) == 1
    shared = train.item_cosine()
    assert all(m.similarity is shared for m in models
               if m.kind == "item-item-cosine")


def _truncated(kind, sim, nn):
    """A kNN kind's kept similarity when its cosine is `sim`."""
    n = sim.shape[0]
    train = train_of([(f"u{k}", f"i{k}") for k in range(n)])
    with mock.patch.object(baselines, "_cosine", lambda *_: sim.copy()):
        return fit(kind, train, params={"nn": nn}).similarity


class TestTruncateNeighbors:
    """Exact tie and zero handling of `_kept_neighbors`, checked for both
    kNN kinds on crafted similarity values."""

    KINDS = ("item-knn", "user-knn")

    def test_tie_keeps_lower_index(self):
        sim = np.array([[1.0, 0.5, 0.5, 0.2],
                        [0.5, 1.0, 0.3, 0.0],
                        [0.5, 0.3, 1.0, 0.0],
                        [0.2, 0.0, 0.0, 1.0]])
        for kind in self.KINDS:
            assert _truncated(kind, sim, 1)[0].tolist() == [0.0, 0.5, 0.0, 0.0]

    def test_zero_similarities_never_kept(self):
        sim = np.array([[1.0, 0.0, 0.3],
                        [0.0, 1.0, 0.0],
                        [0.3, 0.0, 1.0]])
        for kind in self.KINDS:
            out = _truncated(kind, sim, 2)
            assert out[1].tolist() == [0.0, 0.0, 0.0]
            assert out[0].tolist() == [0.0, 0.0, 0.3]

    def test_diagonal_always_dropped(self):
        for kind in self.KINDS:
            assert np.all(_truncated(kind, np.eye(3), 2) == 0.0)


def test_bruteforce_scoring_matches():
    rng = np.random.default_rng(7)
    pairs = sorted({(f"u{int(u)}", f"i{int(i)}")
                    for u, i in zip(rng.integers(0, 12, 60),
                                    rng.integers(0, 15, 60))})
    users, items, _ = brute_similarity(pairs, "item-item-cosine")
    consumed = {u: {i for uu, i in pairs if uu == u} for u in users}
    for kind in MODEL_KINDS:
        model = fit(kind, train_of(pairs), params={"nn": 5})
        if kind == "popularity":
            continue
        if kind in ("user-knn", "item-knn"):
            # adds up the model's own truncated similarities, checking the
            # aggregation (orientation, masking) independently of truncation
            sim = model.similarity.tolist()
        else:
            _, _, sim = brute_similarity(pairs, kind, nn=5)
        for u in users:
            got = {si.item_id: si.score
                   for si in model.recommend(u, len(items), consumed[u])}
            for c, item in enumerate(items):
                if item in consumed[u]:
                    assert item not in got
                    continue
                if kind == "user-knn":
                    expect = sum(sim[users.index(u)][r]
                                 for r, uu in enumerate(users)
                                 if item in consumed[uu])
                else:
                    expect = sum(sim[c][items.index(j)] for j in consumed[u])
                assert got[item] == pytest.approx(expect, abs=1e-10), (kind, u, item)


class TestTfidfEqualsCosineOnBinaryData:
    """With binary incidence the idf column scaling cancels inside the cosine,
    so with no item held by every train user the tfidf variant is the plain
    cosine variant, bit for bit."""

    def test_similarities_and_rankings_agree(self):
        rng = np.random.default_rng(3)
        pairs = sorted({(f"u{int(u)}", f"i{int(i)}")
                        for u, i in zip(rng.integers(0, 20, 120),
                                        rng.integers(0, 25, 120))})
        train = train_of(pairs)
        assert not common_items(train).any()
        cos = fit("item-item-cosine", train)
        tfidf = fit("item-item-tfidf", train)
        assert np.array_equal(cos.similarity, tfidf.similarity)
        for u in cos.users.ids:
            assert cos.recommend(u, len(cos.items)) == tfidf.recommend(
                u, len(cos.items))

    @pytest.mark.parametrize("common", [False, True])
    def test_generated_blocks_shared_unless_an_item_is_common(self, common):
        """generate_matrix scores tfidf once, as cosine's read-only block,
        when it holds the shared cosine; an item held by every train user
        gives tfidf its own similarity and so its own lists. The models are
        fitted lazily, so cosine is dropped before tfidf is fitted: the
        shared arrays live on in the train incidence."""
        rng = np.random.default_rng(3)
        pairs = {(f"u{int(u)}", f"i{int(i)}")
                 for u, i in zip(rng.integers(0, 20, 120),
                                 rng.integers(0, 25, 120))}
        if common:
            pairs |= {(u, "every") for u, _ in pairs}
        train = train_of(pairs)
        assert common_items(train).any() == common
        models = (fit(kind, train) for kind in
                  ("item-item-cosine", "item-knn", "item-item-tfidf"))
        blocks = generate_matrix({0: models}, 10)._blocks
        cos, tfidf = blocks[(0, "item-item-cosine")], blocks[(0, "item-item-tfidf")]
        shared = [getattr(cos, name) is getattr(tfidf, name)
                  for name in ("indptr", "scores")]
        equal = [np.array_equal(getattr(cos, name), getattr(tfidf, name))
                 for name in ("user_rows", "indptr", "items", "scores")]
        assert shared == [not common] * 2
        assert all(equal) != common
        assert not any(getattr(block, name).flags.writeable
                       for block in (cos, tfidf)
                       for name in ("indptr", "scores"))


class TestRecommend:
    def test_never_recommends_consumed_items(self):
        m = fit("item-item-cosine", train_of(THREE_USERS))
        got = [si.item_id for si in m.recommend("u1", 3, ["a", "b"])]
        assert "a" not in got and "b" not in got

    def test_all_items_consumed_gives_empty_list(self):
        m = fit("popularity", train_of([("u1", "a"), ("u1", "b")]))
        assert m.recommend("u1", 5, ["a", "b"]) == []

    def test_cold_start_user_gets_popularity_order(self, caplog):
        m = fit("item-item-cosine",
                train_of([("u1", "a"), ("u2", "a"), ("u1", "b")]))
        with caplog.at_level("WARNING"):
            got = m.recommend("stranger", 2)
        assert [si.item_id for si in got] == ["a", "b"]
        assert "cold-start" in caplog.text

    def test_k_below_one_rejected(self):
        m = fit("popularity", train_of([("u1", "a")]))
        with pytest.raises(ValueError, match="k must be >= 1"):
            m.recommend("u1", 0)


class TestFit:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            fit("matrix-factorization", train_of([("u1", "a")]))

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="empty train set"):
            train_incidence(indexed_pairs([]))
        with pytest.raises(ValueError, match="empty train set"):
            train_incidence(IndexedPairs(IdIndex(["u1"]), IdIndex(["a"]),
                                         np.empty(0, np.int32),
                                         np.empty(0, np.int32)))

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            fit("popularity", train_of([("u1", "a")]), params={"gamma": 2})
        with pytest.raises(ValueError, match="nn must be >= 1"):
            fit("user-knn", train_of([("u1", "a")]), params={"nn": 0})
        with pytest.raises(ValueError, match="b must be in"):
            fit("item-item-bm25", train_of([("u1", "a")]), params={"b": 1.5})
        for key, value, name in (("nn", "5", "int"), ("nn", 2.5, "int"),
                                 ("nn", True, "int"), ("k1", "1.2", "number"),
                                 ("b", None, "number")):
            with pytest.raises(ValueError,
                               match=f"{key} must be a JSON {name}, got"):
                fit("item-item-bm25", train_of([("u1", "a")]),
                    params={key: value})

    def test_default_params(self):
        assert DEFAULT_PARAMS == {"nn": 20, "k1": 1.2, "b": 0.75}


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_no_train_leakage_property(data):
    n_users = data.draw(st.integers(3, 8))
    n_items = data.draw(st.integers(4, 10))
    pair_pool = [(f"u{u}", f"i{i}") for u in range(n_users)
                 for i in range(n_items)]
    pairs = data.draw(st.lists(st.sampled_from(pair_pool), min_size=6,
                               max_size=40, unique=True))
    kind = data.draw(st.sampled_from(MODEL_KINDS))
    model = fit(kind, train_of(pairs), params={"nn": 3})
    consumed = {}
    for u, i in pairs:
        consumed.setdefault(u, set()).add(i)
    for u, train_items in consumed.items():
        got = {si.item_id for si in model.recommend(u, n_items, train_items)}
        assert not (got & train_items)


def _fixed_order_sums(source, touched, targets):
    """Reference kernel: row t is 0.0 plus touched[targets[t], r] * source[r]
    over the nonzero touched[targets[t], r], in ascending r."""
    out = np.zeros((len(targets), source.shape[1]))
    for t, target in enumerate(targets):
        for r in np.flatnonzero(touched[target]):
            out[t] += touched[target, r] * source[r]
    return out


def fixed_order_scores(model) -> np.ndarray:
    """Reference: every train user's scores, 0.0 plus each dense row the user
    touches, in ascending index, times its weight."""
    incidence = model._incidence.dense()
    users = np.arange(incidence.shape[0])
    if model.kind == "popularity":
        return _fixed_order_sums(incidence.sum(axis=0)[None, :],
                                 np.ones((users.size, 1)), users)
    sim = model.similarity  # a kNN kind's is made on each access
    if model.kind == "user-knn":
        # each kept neighbor's train row, times its similarity
        return _fixed_order_sums(incidence, sim, users)
    # item-knn adds item j's column of the truncation: the sim(i, j) of
    # every item i that keeps j as a neighbor.
    rows = sim.T if model.kind == "item-knn" else sim
    return _fixed_order_sums(rows, incidence, users)


@st.composite
def fitted_models(draw):
    n_users = draw(st.integers(1, 30))
    n_items = draw(st.integers(1, 40))
    pool = [(f"u{u}", f"i{i}") for u in range(n_users) for i in range(n_items)]
    pairs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=400,
                          unique=True))
    return fit(draw(st.sampled_from(MODEL_KINDS)), train_of(pairs),
               params={"nn": draw(st.integers(1, 5))})


@given(fitted_models())
@settings(max_examples=120, deadline=None)
def test_batch_scores_are_fixed_order_row_sums(model):
    users = np.arange(len(model.users))
    assert np.array_equal(model._scores(users), fixed_order_scores(model))


@given(fitted_models(), st.data())
@settings(max_examples=120, deadline=None)
def test_scores_do_not_depend_on_the_batch(model, data):
    full = model._scores(np.arange(len(model.users)))
    rows = data.draw(st.permutations(range(len(model.users))))
    rows = np.array(rows[:data.draw(st.integers(0, len(rows)))], dtype=np.intp)
    with mock.patch.object(baselines, "_SCORE_CHUNK",
                           data.draw(st.integers(1, 4))):
        got = model._scores(rows)
    assert got.shape == (rows.size, len(model.items))
    assert got.tobytes() == full[rows].tobytes()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_top_k_equals_stable_argsort(data):
    n_rows = data.draw(st.integers(1, 6))
    n_cols = data.draw(st.integers(1, 10))
    # Three finite values force ties across the cut; -inf fills whole rows
    # or leaves fewer finite entries than k.
    values = st.sampled_from([0.25, 0.5, 1.0, -np.inf])
    scores = np.array(data.draw(st.lists(
        st.lists(values, min_size=n_cols, max_size=n_cols),
        min_size=n_rows, max_size=n_rows)))
    if data.draw(st.booleans()):
        scores[data.draw(st.integers(0, n_rows - 1))] = -np.inf
    k = data.draw(st.integers(1, n_cols + 3))
    want = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    got = _top_k(scores, k)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_train_incidence_matches_per_pair_loop(data):
    ids = st.text(alphabet="ab9Z", min_size=1, max_size=3)
    pairs = data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=40))
    repeats = pairs[:data.draw(st.integers(0, len(pairs)))]
    pairs = data.draw(st.permutations(pairs + repeats))
    if data.draw(st.booleans()):
        # By index, over indexes that may hold ids no pair holds.
        extra = data.draw(st.lists(ids, max_size=3))
        users, items = (IdIndex([pair[side] for pair in pairs] + extra)
                        for side in (0, 1))
        got = train_incidence(IndexedPairs(
            users, items, users.indices(u for u, _ in pairs),
            items.indices(i for _, i in pairs)))
    else:
        got = train_of(pairs)
    users = sorted({u for u, _ in pairs})
    items = sorted({i for _, i in pairs})
    rows = [[] for _ in users]
    columns = [[] for _ in items]
    for u, i in sorted(set(pairs)):
        rows[users.index(u)].append(items.index(i))
        columns[items.index(i)].append(users.index(u))
    assert got.users.ids == tuple(users)
    assert got.items.ids == tuple(items)
    for csr, lists, n_cols in ((got.rows, rows, len(items)),
                               (got.columns, columns, len(users))):
        assert csr.indptr.tolist() == [0, *itertools.accumulate(map(len, lists))]
        assert csr.indices.tolist() == [c for held in lists for c in held]
        assert (csr.n_cols, csr.values) == (n_cols, None)
        assert not csr.indptr.flags.writeable
        assert not csr.indices.flags.writeable


class TestGenerateMatrix:
    @pytest.fixture()
    def fold_models(self, small_dataset, small_folds):
        folds = small_folds[:2]
        by_fold = {}
        for fold in folds:
            train = train_incidence(fold.indexed_subset("train"))
            by_fold[fold.fold_index] = [
                fit("popularity", train, model_id="ppl"),
                fit("item-item-cosine", train, params={"nn": 5}, model_id="cos"),
                fit("user-knn", train, params={"nn": 5}, model_id="uknn"),
            ]
        return by_fold, folds

    def test_matches_per_user_recommend(self, fold_models):
        by_fold, folds = fold_models
        matrix = generate_matrix(by_fold, k_max=8)
        split_by_index = {f.fold_index: f for f in folds}
        checked = 0
        for (fold, model_id, user), stored in matrix.entries():
            model = next(m for m in by_fold[fold] if m.model_id == model_id)
            train_items = split_by_index[fold].train[user]
            assert stored == model.recommend(user, 8, train_items)
            checked += 1
        assert checked == matrix.n_lists() > 0

    def test_k_max_caps_list_length(self, fold_models):
        by_fold, folds = fold_models
        matrix = generate_matrix(by_fold, k_max=3)
        for _, stored in matrix.entries():
            assert len(stored) <= 3

    def test_covers_every_train_user(self, fold_models):
        by_fold, folds = fold_models
        matrix = generate_matrix(by_fold, k_max=5)
        for fold in folds:
            expected = sorted(u for u in fold.train if fold.train[u])
            for model in by_fold[fold.fold_index]:
                assert matrix.users(fold.fold_index, model.model_id) == expected

    def test_k_max_below_one_rejected(self, fold_models):
        by_fold, folds = fold_models
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            generate_matrix(by_fold, k_max=0)

    def test_models_of_one_fold_on_different_train_sets_rejected(
            self, small_folds):
        pairs = sorted(small_folds[0].pairs("train"))
        first_user = pairs[0][0]
        fewer_users = [(u, i) for u, i in pairs if u != first_user]
        models = [fit("popularity", train_of(pairs), model_id="ppl"),
                  fit("popularity", train_of(fewer_users), model_id="ppl2")]
        with pytest.raises(ValueError, match="model 'ppl2' was fitted on "
                                             "another train set"):
            generate_matrix({0: models}, k_max=5)

    def test_folds_scored_apart_join_into_the_same_matrix(self, fold_models):
        by_fold, folds = fold_models
        whole = generate_matrix(by_fold, k_max=5)
        per_fold = [generate_matrix({f: by_fold[f]}, k_max=5)
                    for f in sorted(by_fold)]
        assert PredictionMatrix.union(per_fold) == whole
        for part in per_fold:
            fold = part.folds()[0]
            assert list(part.entries()) == [
                (key, lst) for key, lst in whole.entries() if key[0] == fold]

    def test_holds_no_model_while_the_next_is_drawn(self, small_folds):
        train = train_incidence(small_folds[0].indexed_subset("train"))
        live = weakref.WeakSet()
        seen = []

        def models():
            for kind in MODEL_KINDS:
                seen.append(len(live))
                model = fit(kind, train)
                live.add(model)
                yield model
                del model

        lazy = generate_matrix({0: models()}, k_max=5)
        assert seen == [0] * len(MODEL_KINDS)
        eager = generate_matrix({0: [fit(kind, train) for kind in MODEL_KINDS]},
                                k_max=5)
        assert lazy == eager

    def test_arrays_of_a_dropped_model_match_no_later_model(self):
        # Block sharing must compare arrays, not id()s: CPython gives a freed
        # array's id to a new one, so a model drawn after another was dropped
        # can hold arrays with the dropped one's ids and other scores.
        train = train_of([("u1", "a"), ("u2", "b"), ("u3", "c"), ("u4", "d")])
        matched = []
        eye = (np.arange(5), np.arange(4))  # user u touches row u

        def models():
            first = fit("popularity", train, model_id="a")
            first._rows = np.zeros((4, 4))
            first._touched = baselines._Csr(*eye, 4)
            first._rows[:] = [1.0, 2.0, 3.0, 4.0]  # every user: d, c, b, a
            ids = [id(first._rows), id(first._touched)]
            yield first
            del first
            pool = ([np.zeros((4, 4)) for _ in range(64)]
                    + [baselines._Csr(*eye, 4) for _ in range(64)])
            arrays = [next((a for a in pool if id(a) == i), None) for i in ids]
            matched.append(all(a is not None for a in arrays))
            second = fit("popularity", train, model_id="b")
            if matched[0]:
                second._rows, second._touched = arrays
                second._rows[:] = [4.0, 3.0, 2.0, 1.0]  # a, b, c, d
            yield second

        matrix = generate_matrix({0: models()}, k_max=1)
        assert matched == [True]
        assert matrix.block(0, "a").items.tolist() == [3, 3, 3, 2]
        assert matrix.block(0, "b").items.tolist() == [1, 0, 0, 0]


def _whole_cosine(incidence, weights=None):
    """The cosine of the columns of a dense 0/1 incidence, row u weighted by
    weights[u]: the reference Gram, normalized at once."""
    touched = incidence.T if weights is None else incidence.T * weights
    gram = _fixed_order_sums(incidence, touched, np.arange(incidence.shape[1]))
    norms = np.sqrt(np.diag(gram))
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return gram * np.outer(inv, inv)


def _whole_truncation(sim, nn):
    """Each row's top-nn off-diagonal nonzero entries, over the whole matrix
    at once."""
    out = np.zeros_like(sim)
    work = sim.copy()
    np.fill_diagonal(work, -np.inf)
    keep = _top_k(work, nn)
    vals = np.take_along_axis(work, keep, axis=1)
    np.put_along_axis(out, keep, np.where(
        np.isfinite(vals) & (vals != 0.0), vals, 0.0), axis=1)
    return out


def _weighted_columns(train, weights):
    """The train columns with entry u weighted by weights[u]."""
    return dataclasses.replace(train.columns,
                               values=weights[train.columns.indices])


def _whole_block(model, k_max):
    """A model's (indptr, items, scores), from the reference scores of every
    user at once."""
    scores = fixed_order_scores(model)
    scores[model._incidence.dense() != 0] = -np.inf
    top = _top_k(scores, k_max)
    top_scores = np.take_along_axis(scores, top, axis=1)
    valid = np.isfinite(top_scores)
    indptr = np.concatenate(([0], np.cumsum(valid.sum(axis=1))))
    return indptr, top[valid].astype(np.int32), top_scores[valid]


def _same_bytes(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def _hex(values):
    return [float.hex(float(v)) for v in np.ravel(values)]


def _assert_lists_are_the_reference_bits(model, k_max):
    """`_score_block` and `recommend` give the reference's lists, bit for
    bit."""
    block = baselines._score_block(model, k_max)
    indptr, items, scores = _whole_block(model, k_max)
    assert block.indptr.tolist() == indptr.tolist()
    assert block.items.tolist() == items.tolist()
    assert _hex(block.scores) == _hex(scores)
    incidence = model._incidence.dense()
    reference = fixed_order_scores(model)
    reference[incidence != 0] = -np.inf
    ids = model.items.ids
    for user, user_id in enumerate(model.users.ids):
        got = model.recommend(user_id, k_max,
                              [ids[i] for i in np.flatnonzero(incidence[user])])
        top = [i for i in _top_k(reference[user][None, :], k_max)[0]
               if reference[user, i] != -np.inf]
        assert [s.item_id for s in got] == [ids[i] for i in top]
        assert [float.hex(s.score) for s in got] == _hex(reference[user, top])


# Nine users, ten items: i_twin ties with i3 in every similarity row, i_all is
# held by every user, and nn = 11 reaches every row's -inf diagonal.
_BASE = {(f"u{u}", f"i{(u * 3 + j) % 8}") for u in range(9)
         for j in range(u % 3 + 1)}
_TIED = sorted(_BASE | {(u, "i_twin") for u, i in _BASE if i == "i3"}
               | {(f"u{u}", "i_all") for u in range(9)})
# No item keeps i_lone as a neighbor, and i_lone keeps none; u_lone, who
# holds only i_lone, keeps no neighbor and no user keeps u_lone.
_LONE = sorted(_TIED + [("u_lone", "i_lone")])


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
@given(pairs=adversarial_pairs(), nn=st.integers(1, 12),
       k_max=st.integers(1, 12))
@example(pairs=_TIED, nn=11, k_max=12)
@example(pairs=_TIED, nn=2, k_max=3)
@settings(max_examples=40, deadline=None)
def test_row_chunks_cannot_move_a_bit(chunk, pairs, nn, k_max):
    """Truncation, the Grams, the cosine's normalization and scoring run a
    few rows or terms at a time; each must give the bytes of its whole-array
    reference."""
    train = train_of(pairs)
    incidence = train.rows.dense()
    lengths = incidence.sum(axis=1)
    weights = 1.0 + lengths / lengths.max()
    cosine, users = _whole_cosine(incidence), _whole_cosine(incidence.T)
    want = {
        "item": cosine,
        "user": users,
        "weighted": _whole_cosine(incidence, weights),
        "item-knn": _whole_truncation(cosine, nn),
        "user-knn": _whole_truncation(users, nn),
    }
    with mock.patch.object(baselines, "_SCORE_CHUNK", chunk):
        got = {
            "item": baselines._cosine(train.rows, train.columns),
            "user": baselines._cosine(train.columns, train.rows),
            "weighted": baselines._cosine(
                train.rows, _weighted_columns(train, weights)),
        }
        models = [fit(kind, train, params={"nn": nn}) for kind in MODEL_KINDS]
        matrix = generate_matrix({0: models}, k_max)
    for kind in ("item-knn", "user-knn"):
        got[kind] = np.ascontiguousarray(
            models[MODEL_KINDS.index(kind)].similarity)
    for name in want:
        assert _same_bytes(got[name], want[name]), name
    for model in models:
        block = matrix.block(0, model.model_id)
        assert _same_bytes(block.user_rows,
                           np.arange(len(train.users), dtype=np.int32))
        for name, array in zip(("indptr", "items", "scores"),
                               _whole_block(model, k_max)):
            assert _same_bytes(getattr(block, name), array), (model.kind, name)


@given(pairs=adversarial_pairs(), nn=st.integers(1, 12),
       k_max=st.integers(1, 12), empty=st.integers(0, 3))
# i_twin ties with i3 at the nn cut, and i_all is held by every user.
@example(pairs=_TIED, nn=2, k_max=3, empty=1)
@example(pairs=_TIED, nn=9, k_max=12, empty=0)  # nn = items - 1
@example(pairs=_LONE, nn=3, k_max=12, empty=2)
@settings(max_examples=80, deadline=None)
def test_item_knn_lists_score_the_dense_oracle_bits(pairs, nn, k_max, empty):
    """item-knn keeps its neighbors as sparse rows and scores them with the
    ordered `np.bincount` kernel. Its kernel, `_score_block` and `recommend`
    must each give the bits of the reference sum over the dense rows, also
    for users who hold no train item."""
    train = train_of(pairs)
    model = fit("item-knn", train, params={"nn": nn})
    _assert_lists_are_the_reference_bits(model, k_max)
    # Users who hold no train item, scored among the others.
    rows = train.rows
    model._touched = dataclasses.replace(rows, indptr=np.concatenate(
        (rows.indptr, np.full(empty, rows.indptr[-1]))))
    n_users, n_items = len(train.users), len(train.items)
    targets = np.random.default_rng(n_users).permutation(n_users + empty)
    got = model._scores(targets)
    want = _fixed_order_sums(
        model.similarity.T,
        np.vstack([rows.dense(), np.zeros((empty, n_items))]), targets)
    assert _hex(got) == _hex(want) and _same_bytes(got, want)


@given(pairs=adversarial_pairs(), nn=st.integers(1, 12),
       k_max=st.integers(1, 12), picks=st.lists(st.integers(0, 99),
                                                max_size=30),
       chunk=st.integers(1, 4), shuffle=st.integers(0, 2**32 - 1))
# Ties at the nn cut, and an item every user holds.
@example(pairs=_TIED, nn=2, k_max=3, picks=[8, 0, 8, 3, 1], chunk=1,
         shuffle=1)
# nn at or above rows - 1 for both kinds.
@example(pairs=_TIED, nn=11, k_max=12, picks=list(range(20, 0, -1)),
         chunk=2, shuffle=2)
# A row no row keeps, and a user with no kept neighbor.
@example(pairs=_LONE, nn=3, k_max=12, picks=[9, 9, 2, 0, 10], chunk=3,
         shuffle=3)
@settings(max_examples=80, deadline=None)
def test_sparse_kernel_matches_a_dense_fixed_order_sum(pairs, nn, k_max, picks,
                                                       chunk, shuffle):
    """Every use of `_sparse_row_sums` (the item, user and bm25 Grams and
    both kNN kinds' scores) gives the bits of `_fixed_order_sums` over the
    dense operands, for targets out of order, repeated and cut into chunks
    by a small budget; and user-knn's `_score_block` and `recommend` give the
    reference lists. The train set is built from shuffled, repeated pairs."""
    repeated = pairs + pairs[:len(pairs) // 2]
    random.Random(shuffle).shuffle(repeated)
    train = train_of(repeated)
    incidence = train.rows.dense()
    n_users, n_items = incidence.shape
    k1, b = DEFAULT_PARAMS["k1"], DEFAULT_PARAMS["b"]
    lengths = incidence.sum(axis=1)
    factor = (k1 + 1.0) / (1.0 + k1 * (1.0 - b + b * lengths / lengths.mean()))
    weights = factor * factor
    items = np.array([p % n_items for p in picks], dtype=np.intp)
    users = np.array([p % n_users for p in picks], dtype=np.intp)
    with mock.patch.object(baselines, "_SCORE_CHUNK", chunk):
        iknn, uknn = (fit(kind, train, params={"nn": nn})
                      for kind in ("item-knn", "user-knn"))
        bm25 = fit("item-item-bm25", train).similarity
        uses = {  # kernel, its targets, the reference source and touched
            "item Gram": (lambda t: _sparse_row_sums(
                train.rows, train.columns, t), items, incidence, incidence.T),
            "user Gram": (lambda t: _sparse_row_sums(
                train.columns, train.rows, t), users, incidence.T, incidence),
            "bm25 Gram": (lambda t: _sparse_row_sums(
                train.rows, _weighted_columns(train, weights), t), items,
                incidence, incidence.T * weights),
            "item-knn": (iknn._scores, users, iknn.similarity.T, incidence),
            "user-knn": (uknn._scores, users, incidence, uknn.similarity),
        }
        for name, (kernel, targets, source, touched) in uses.items():
            got = kernel(targets)
            want = _fixed_order_sums(source, touched, targets)
            assert _hex(got) == _hex(want) and _same_bytes(got, want), name
        _assert_lists_are_the_reference_bits(uknn, k_max)
    want = _whole_cosine(incidence, weights)
    common = incidence.all(axis=0)
    want[common] = want[:, common] = 0.0
    assert _same_bytes(bm25, want)
