"""Built-in neighborhood and popularity recommenders.

All models operate on the binarized user-item incidence matrix held dense
in float64: every distinct (user, item) train row counts as one
interaction. Ratings are never read after load; a rating only decides
whether its row parses. Dense is a deliberate choice: the target scale is
desk-sized experiment datasets, where the full item-item Gram matrix fits
comfortably in memory. Only the fits call BLAS (the Gram products).
Scoring is a fixed-order row sum: a user's scores add up the score rows the
user touches in ascending index order, so they never depend on how users
are batched (see `FittedModel._score_rows`).

`train_incidence` alone turns (user, item) string pairs into dense indices:
one read-only incidence per fold, shared by every model fitted on the fold.

Similarity conventions, shared by every kind that uses one:
  - vectors are cosine-normalized after any weighting (TF-IDF, BM25), so
    weighting changes the geometry, not the [0, 1] range on nonnegative data;
  - kNN kinds truncate to the top `nn` neighbors excluding self, ties broken
    by index (= id) ascending;
  - item-item kinds keep the full similarity matrix, self included.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from recfuse.core import IdIndex, PredictionMatrix, ScoredItem
from recfuse.core import _Block, _json_typed

log = logging.getLogger(__name__)

MODEL_KINDS = (
    "popularity",
    "user-knn",
    "item-knn",
    "item-item-cosine",
    "item-item-tfidf",
    "item-item-bm25",
)

DEFAULT_PARAMS = {
    "nn": 20,      # neighborhood size for the kNN kinds
    "k1": 1.2,     # BM25 term-frequency saturation
    "b": 0.75,     # BM25 length normalization
}


def _cosine_normalize_columns(matrix: np.ndarray) -> np.ndarray:
    norms = np.sqrt((matrix * matrix).sum(axis=0))
    safe = np.where(norms > 0.0, norms, 1.0)
    return matrix / safe


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Each row's top-k column indices, score descending, index ascending.

    Equal to `np.argsort(-scores, axis=1, kind="stable")[:, :k]`, without
    sorting whole rows: a partition finds each row's k-th largest value,
    the entries above it and the lowest-index entries equal to it make up
    exactly k per row (ties straddling the cut resolve by index), and only
    those k are stable-argsorted.
    """
    n_rows, n_cols = scores.shape
    width = min(k, n_cols)
    if width < 1:
        return np.empty((n_rows, 0), dtype=np.intp)
    cut = np.partition(scores, n_cols - width, axis=1)[:, n_cols - width, None]
    keep = scores > cut
    rows, cols = np.nonzero(scores == cut)
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    fill = rank < width - np.count_nonzero(keep, axis=1)[rows]
    keep[rows[fill], cols[fill]] = True
    top = np.nonzero(keep)[1].reshape(n_rows, width)
    order = np.argsort(-np.take_along_axis(scores, top, axis=1), axis=1,
                       kind="stable")
    return np.take_along_axis(top, order, axis=1)


def _truncate_neighbors(sim: np.ndarray, nn: int) -> np.ndarray:
    """Keep each row's top-nn off-diagonal entries, zero the rest.

    `_top_k` orders by similarity descending with index-ascending ties,
    matching the package-wide tie rule.
    """
    out = np.zeros_like(sim)
    work = sim.copy()
    np.fill_diagonal(work, -np.inf)
    keep = _top_k(work, nn)  # the -inf diagonal only if nn >= n
    vals = np.take_along_axis(work, keep, axis=1)
    np.put_along_axis(out, keep, np.where(
        np.isfinite(vals) & (vals != 0.0), vals, 0.0), axis=1)
    return out


@dataclass(frozen=True, eq=False)
class TrainIncidence:
    """A train set as a read-only (users x items) 0/1 float64 matrix."""

    users: IdIndex
    items: IdIndex
    matrix: np.ndarray


def train_incidence(pairs: Iterable[tuple[str, str]]) -> TrainIncidence:
    """Build the incidence of observed (user, item) pairs; repeats are fine."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty train set")
    users = IdIndex(u for u, _ in pairs)
    items = IdIndex(i for _, i in pairs)
    rows, cols = zip(*[(users.index(u), items.index(i)) for u, i in pairs])
    matrix = np.zeros((len(users), len(items)), dtype=np.float64)
    matrix[rows, cols] = 1.0
    matrix.flags.writeable = False
    return TrainIncidence(users, items, matrix)


# Users per pass of the scorer: small passes keep its buffers in cache (64
# was fastest of 16-1024 at 700 x 1300). No score depends on it.
_SCORE_CHUNK = 64


class FittedModel:
    """A trained recommender bound to one fold's train split.

    A user's scores sum the rows of `_rows` that the nonzero entries of its
    row of `_touched` name, each times that entry (by default: the rows of
    its train items, times 1).
    """

    def __init__(self, model_id: str, kind: str, train: TrainIncidence,
                 params: dict):
        self.model_id = model_id
        self.kind = kind
        self.users = train.users
        self.items = train.items
        self._incidence = train.matrix
        self._touched = train.matrix
        self.params = params

    def _score_rows(self, user_rows: np.ndarray) -> np.ndarray:
        """Dense (len(user_rows), n_items) scores of the given users.

        Each user's sum starts at 0.0 and adds its rows in ascending index
        order. Users advance in lockstep, longest list first. Elementwise
        IEEE adds in a fixed order give the same bits however callers group
        users (batch output == per-user recommend()), and no BLAS call is
        made, so the BLAS thread count changes no score either.
        """
        out = np.empty((user_rows.size, self._rows.shape[1]))
        for start in range(0, user_rows.size, _SCORE_CHUNK):
            touched = self._touched[user_rows[start:start + _SCORE_CHUNK]]
            lengths = np.count_nonzero(touched, axis=1)
            order = np.argsort(-lengths, kind="stable")
            touched, lengths = touched[order], lengths[order]
            users, rows = np.nonzero(touched)  # by user, rows ascending
            weights = touched[users, rows][:, None]
            if np.all(weights == 1.0):
                weights = None  # a product with 1.0 is exact: skip it
            firsts = np.cumsum(lengths) - lengths
            acc = np.zeros((order.size, out.shape[1]))
            # Step t adds a row to each of the first active[t] users.
            active = np.searchsorted(-lengths, -np.arange(lengths[0]))
            for step, n_active in enumerate(active):
                at = firsts[:n_active] + step
                term = self._rows[rows[at]]
                if weights is not None:
                    term *= weights[at]
                acc[:n_active] += term
            out[start + order] = acc
        return out

    def popularity_scores(self) -> np.ndarray:
        """Train interaction count per item; the cold-start fallback ranking."""
        return self._incidence.sum(axis=0)

    def recommend(self, user: str, k: int,
                  train_items: Iterable[str] = ()) -> list[ScoredItem]:
        """Top-k items for one user, excluding the given consumed items.

        Unknown users fall back to the popularity ranking.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if user in self.users:
            scores = self._score_rows(np.array([self.users.index(user)]))[0]
        else:
            log.warning("cold-start user %r: popularity fallback (%s)",
                        user, self.model_id)
            scores = self.popularity_scores().astype(np.float64)
        for item in train_items:
            if item in self.items:
                scores[self.items.index(item)] = -np.inf
        ids = self.items.ids
        out = []
        for idx in _top_k(scores[None, :], k)[0]:
            s = scores[idx]
            if s == -np.inf:
                break
            out.append(ScoredItem(ids[int(idx)], float(s)))
        return out


class _Popularity(FittedModel):
    def __init__(self, model_id, kind, train, params):
        super().__init__(model_id, kind, train, params)
        # Every user touches the one row of train counts.
        self._rows = self._incidence.sum(axis=0)[None, :]
        self._touched = np.ones((len(self.users), 1))


class _ItemItem(FittedModel):
    """Full item-item cosine similarity over (optionally weighted) columns."""

    def __init__(self, model_id, kind, train, params):
        super().__init__(model_id, kind, train, params)
        weighted = self._weight(self._incidence, params)
        normalized = _cosine_normalize_columns(weighted)
        self.similarity = normalized.T @ normalized
        self._rows = self.similarity

    @staticmethod
    def _weight(incidence: np.ndarray, params: dict) -> np.ndarray:
        return incidence


def _idf(incidence: np.ndarray) -> np.ndarray:
    n_users = incidence.shape[0]
    df = incidence.sum(axis=0)
    safe_df = np.where(df > 0.0, df, 1.0)
    idf = np.log(n_users / safe_df)
    return np.where(df > 0.0, idf, 0.0)


class _ItemItemTfidf(_ItemItem):
    @staticmethod
    def _weight(incidence, params):
        return incidence * _idf(incidence)


class _ItemItemBm25(_ItemItem):
    @staticmethod
    def _weight(incidence, params):
        k1 = params["k1"]
        b = params["b"]
        lengths = incidence.sum(axis=1)
        avg_len = lengths.mean() if lengths.size else 1.0
        if avg_len == 0.0:
            avg_len = 1.0
        # Binary tf: the saturation term reduces to (k1+1)/(1 + k1*(1-b+b*L/avg)).
        denom = 1.0 + k1 * (1.0 - b + b * lengths / avg_len)
        row_factor = (k1 + 1.0) / denom
        return incidence * _idf(incidence) * row_factor[:, None]


class _ItemKnn(FittedModel):
    def __init__(self, model_id, kind, train, params):
        super().__init__(model_id, kind, train, params)
        normalized = _cosine_normalize_columns(self._incidence)
        sim = normalized.T @ normalized
        # score(u, i) sums sim(i, j) over the user's train items j that are
        # among i's kept neighbors: row j of the transposed truncation, the
        # one orientation stored (`similarity` is a view of it).
        self._rows = np.ascontiguousarray(
            _truncate_neighbors(sim, params["nn"]).T)
        self.similarity = self._rows.T


class _UserKnn(FittedModel):
    def __init__(self, model_id, kind, train, params):
        super().__init__(model_id, kind, train, params)
        normalized = _cosine_normalize_columns(self._incidence.T)
        sim = normalized.T @ normalized
        self.similarity = _truncate_neighbors(sim, params["nn"])
        # A user adds the train rows of its kept neighbors, each weighted by
        # its similarity.
        self._rows = self._incidence
        self._touched = self.similarity


_CONSTRUCTORS = {
    "popularity": _Popularity,
    "user-knn": _UserKnn,
    "item-knn": _ItemKnn,
    "item-item-cosine": _ItemItem,
    "item-item-tfidf": _ItemItemTfidf,
    "item-item-bm25": _ItemItemBm25,
}


def fit_params(params: Mapping[str, float] | None) -> dict:
    """DEFAULT_PARAMS overridden by `params`, type- and range-checked."""
    merged = dict(DEFAULT_PARAMS)
    if params:
        unknown = set(params) - set(DEFAULT_PARAMS)
        if unknown:
            raise ValueError(f"unknown parameters {sorted(unknown)}")
        merged.update(params)
    for key, kind in (("nn", int), ("k1", float), ("b", float)):
        _json_typed(merged[key], key, kind)
    if merged["nn"] < 1:
        raise ValueError("nn must be >= 1")
    if merged["k1"] <= 0:
        raise ValueError("k1 must be > 0")
    if not 0.0 <= merged["b"] <= 1.0:
        raise ValueError("b must be in [0, 1]")
    return merged


def fit(kind: str, train: TrainIncidence | Iterable[tuple[str, str]],
        params: Mapping[str, float] | None = None,
        model_id: str | None = None) -> FittedModel:
    """Fit one recommender on a train set.

    Args:
        kind: one of MODEL_KINDS.
        train: a shared TrainIncidence, or observed (user, item) pairs.
        params: overrides for DEFAULT_PARAMS (nn, k1, b).
        model_id: defaults to the kind name.
    """
    if kind not in _CONSTRUCTORS:
        raise ValueError(f"unknown model kind {kind!r}")
    if not isinstance(train, TrainIncidence):
        train = train_incidence(train)
    return _CONSTRUCTORS[kind](model_id or kind, kind, train,
                               fit_params(params))


def binarized_pairs(train: Mapping[str, frozenset[str]]) -> list[tuple[str, str]]:
    """Flatten a FoldSplit train mapping into sorted (user, item) pairs."""
    return [(u, i) for u in sorted(train) for i in sorted(train[u])]


def generate_matrix(models_by_fold: Mapping[int, list[FittedModel]],
                    k_max: int) -> PredictionMatrix:
    """Batch-produce the prediction matrix for fitted per-fold models.

    A fold's models must share one train set (and so one index space);
    folds are joined by PredictionMatrix.union. Covers every train user.
    Lists hold the top min(k_max, recommendable) items, identical to
    per-user recommend() output (asserted in tests).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    parts = []
    for fold in sorted(models_by_fold):
        models = models_by_fold[fold]
        users, items = models[0].users, models[0].items
        blocks: dict[tuple[int, str], _Block] = {}
        for model in models:
            if (model.users.ids, model.items.ids) != (users.ids, items.ids):
                raise ValueError(f"fold {fold}: model {model.model_id!r} was "
                                 f"fitted on another train set")
            scores = model._score_rows(np.arange(len(users)))
            # Mask consumed items so they can never be recommended back.
            scores[model._incidence != 0] = -np.inf
            top = _top_k(scores, k_max)
            top_scores = np.take_along_axis(scores, top, axis=1)
            valid = np.isfinite(top_scores)
            # Each row's valid entries are a prefix, so a row-major masked
            # gather lays the lists end to end.
            indptr = np.concatenate(([0], np.cumsum(valid.sum(axis=1))))
            blocks[(fold, model.model_id)] = _Block(
                np.arange(len(users), dtype=np.int32), indptr,
                top[valid].astype(np.int32), top_scores[valid])
        parts.append(PredictionMatrix(users, items, blocks))
    return PredictionMatrix.union(parts)
