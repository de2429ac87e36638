"""Built-in neighborhood and popularity recommenders.

All models operate on the binarized user-item incidence matrix held dense
in float64: every distinct (user, item) train row counts as one
interaction. Ratings are never read after load; a rating only decides
whether its row parses. Dense is a deliberate choice: the target scale is
desk-sized experiment datasets, where the full item-item Gram matrix fits
comfortably in memory and BLAS beats sparse indexing.

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
from recfuse.core import _Block

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


def _truncate_neighbors(sim: np.ndarray, nn: int) -> np.ndarray:
    """Keep each row's top-nn off-diagonal entries, zero the rest.

    Stable argsort on the negated row orders by similarity descending with
    index-ascending ties, matching the package-wide tie rule.
    """
    out = np.zeros_like(sim)
    n = sim.shape[0]
    work = sim.copy()
    np.fill_diagonal(work, -np.inf)
    order = np.argsort(-work, axis=1, kind="stable")
    keep = order[:, :min(nn, n - 1)]
    rows = np.arange(n)[:, None]
    vals = work[rows, keep]
    mask = np.isfinite(vals) & (vals != 0.0)
    out[np.repeat(rows, keep.shape[1], axis=1)[mask], keep[mask]] = vals[mask]
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


class FittedModel:
    """A trained recommender bound to one fold's train split."""

    def __init__(self, model_id: str, kind: str, train: TrainIncidence,
                 params: dict):
        self.model_id = model_id
        self.kind = kind
        self.users = train.users
        self.items = train.items
        self._incidence = train.matrix
        self.params = params

    # Subclasses fill in a dense (len(user_rows), n_items) score array for
    # one batch of user rows.
    def _score_block(self, user_rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _score_rows(self, user_rows: np.ndarray) -> np.ndarray:
        # One BLAS call per row, never one per batch: GEMM results vary at
        # the last ulp with the batch shape, and scoring must not depend on
        # how callers group users (batch output == per-user recommend()).
        out = np.empty((user_rows.size, len(self.items)), dtype=np.float64)
        for pos in range(user_rows.size):
            out[pos] = self._score_block(user_rows[pos:pos + 1])[0]
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
        scores = scores.copy()
        for item in train_items:
            if item in self.items:
                scores[self.items.index(item)] = -np.inf
        order = np.argsort(-scores, kind="stable")
        ids = self.items.ids
        out = []
        for idx in order[:k]:
            s = scores[idx]
            if s == -np.inf:
                break
            out.append(ScoredItem(ids[int(idx)], float(s)))
        return out


class _Popularity(FittedModel):
    def __init__(self, model_id, kind, train, params):
        super().__init__(model_id, kind, train, params)
        self._counts = self._incidence.sum(axis=0)

    def _score_block(self, user_rows):
        return np.tile(self._counts, (user_rows.size, 1))


class _ItemItem(FittedModel):
    """Full item-item cosine similarity over (optionally weighted) columns."""

    def __init__(self, model_id, kind, train, params):
        super().__init__(model_id, kind, train, params)
        weighted = self._weight(self._incidence, params)
        normalized = _cosine_normalize_columns(weighted)
        self.similarity = normalized.T @ normalized

    @staticmethod
    def _weight(incidence: np.ndarray, params: dict) -> np.ndarray:
        return incidence

    def _score_block(self, user_rows):
        return self._incidence[user_rows] @ self.similarity


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
        self.similarity = _truncate_neighbors(sim, params["nn"])

    def _score_block(self, user_rows):
        # score(u, i) sums sim(i, j) over the user's train items j that are
        # among i's kept neighbors.
        return self._incidence[user_rows] @ self.similarity.T


class _UserKnn(FittedModel):
    def __init__(self, model_id, kind, train, params):
        super().__init__(model_id, kind, train, params)
        normalized = _cosine_normalize_columns(self._incidence.T)
        sim = normalized.T @ normalized
        self.similarity = _truncate_neighbors(sim, params["nn"])

    def _score_block(self, user_rows):
        return self.similarity[user_rows] @ self._incidence


_CONSTRUCTORS = {
    "popularity": _Popularity,
    "user-knn": _UserKnn,
    "item-knn": _ItemKnn,
    "item-item-cosine": _ItemItem,
    "item-item-tfidf": _ItemItemTfidf,
    "item-item-bm25": _ItemItemBm25,
}


def fit_params(params: Mapping[str, float] | None) -> dict:
    """DEFAULT_PARAMS overridden by `params`, checked (nn, k1, b)."""
    merged = dict(DEFAULT_PARAMS)
    if params:
        unknown = set(params) - set(DEFAULT_PARAMS)
        if unknown:
            raise ValueError(f"unknown parameters {sorted(unknown)}")
        merged.update(params)
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
            top = np.argsort(-scores, axis=1, kind="stable")[:, :k_max]
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
