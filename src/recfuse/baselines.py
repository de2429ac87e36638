"""Built-in neighborhood and popularity recommenders.

All models operate on the binarized user-item incidence matrix held dense
in float64: every distinct (user, item) train row counts as one
interaction. Ratings are never read after load; a rating only decides
whether its row parses. Dense is a deliberate choice: the target scale is
desk-sized experiment datasets, where a full item-item similarity fits
comfortably in memory. No BLAS call is made: fits and scoring are
fixed-order row sums (`_row_sums`, or for item-knn's sparse rows the same
adds by `np.bincount`), so no value depends on how rows are batched or on
the BLAS thread count. `train_incidence` turns (user, item) string pairs
into dense indices once per fold, as `metrics.holdout_keys` does each
(fold, holdout kind) in `harness.prepare_dataset`: one read-only incidence
per fold, shared with its item cosine by every model fitted on it.

Memory: a model keeps at most one dense similarity, and item-knn none.
Truncation, the Grams (bm25's row weights included), the cosine's
normalization and scoring run `_SCORE_CHUNK` rows at a time, and
`generate_matrix` keeps no model once its lists are built, so a lazily
fitted fold holds one model and no full-size transient at a time.

Similarity conventions, shared by every kind that uses one:
  - the cosine of 0/1 vectors after any weighting (`_cosine`);
  - item-item-tfidf is the item cosine with the rows and columns of items
    held by every train user zeroed: on 0/1 data IDF scales an item's
    column by a constant the cosine cancels, and is log(1) = 0 for those;
  - item-item-bm25 weights user u's row by rf(L_u)^2, where rf(L) =
    (k1 + 1) / (1 + k1 (1 - b + b L / mean L)) is BM25's tf = 1 saturation
    at train length L, and zeroes the same items, as its IDF cancels too;
  - kNN kinds truncate to the top `nn` neighbors excluding self, ties broken
    by index (= id) ascending; item-knn keeps only the kept entries, as
    sparse (CSR) rows of the transposed truncation;
  - item-item kinds keep the full similarity matrix, self included.
"""

from __future__ import annotations

import logging
import threading
import weakref
from dataclasses import dataclass, field
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

# The kinds whose fit reads `TrainIncidence.item_cosine()`.
ITEM_COSINE_KINDS = ("item-knn", "item-item-cosine", "item-item-tfidf")

DEFAULT_PARAMS = {
    "nn": 20,      # neighborhood size for the kNN kinds
    "k1": 1.2,     # BM25 term-frequency saturation
    "b": 0.75,     # BM25 length normalization
}


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


def _kept_neighbors(sim: np.ndarray, nn: int) -> list[np.ndarray]:
    """(rows, columns, values) of each row's top-nn off-diagonal nonzero
    entries, row by row.

    `_top_k` orders by similarity descending with index-ascending ties,
    matching the package-wide tie rule. Rows are taken `_SCORE_CHUNK` at a
    time, so no transient is as large as `sim`.
    """
    parts = []
    for start in range(0, sim.shape[0], _SCORE_CHUNK):
        work = sim[start:start + _SCORE_CHUNK].copy()
        rows = np.arange(work.shape[0])
        work[rows, start + rows] = -np.inf
        keep = _top_k(work, nn)  # the -inf diagonal only if nn >= n
        vals = np.take_along_axis(work, keep, axis=1)
        kept = np.isfinite(vals) & (vals != 0.0)
        parts.append((start + np.nonzero(kept)[0], keep[kept], vals[kept]))
    return [np.concatenate(p) for p in zip(*parts)]


def _truncate_neighbors(sim: np.ndarray, nn: int) -> np.ndarray:
    """Keep each row's top-nn off-diagonal entries, zero the rest."""
    out = np.zeros_like(sim)
    rows, cols, vals = _kept_neighbors(sim, nn)
    out[rows, cols] = vals
    return out


# Rows per `_row_sums` pass, score or Gram: small passes stay in cache (64
# was fastest of 16-1024 scoring 700 x 1300). No value depends on it.
_SCORE_CHUNK = 64


def _row_sums(source: np.ndarray, touched: np.ndarray, targets: np.ndarray,
              scale: np.ndarray | None = None) -> np.ndarray:
    """Row t: 0.0 plus touched[targets[t], r] * scale[r] * source[r] over the
    nonzero touched[targets[t], r] in ascending r, however targets are
    grouped; no `scale` is a scale of 1."""
    out = np.empty((targets.size, source.shape[1]))
    for start in range(0, targets.size, _SCORE_CHUNK):
        chunk = touched[targets[start:start + _SCORE_CHUNK]]
        lengths = np.count_nonzero(chunk, axis=1)
        order = np.argsort(-lengths, kind="stable")
        chunk, lengths = chunk[order], lengths[order]
        owners, rows = np.nonzero(chunk)  # by target, rows ascending
        weights = chunk[owners, rows] * (1.0 if scale is None else scale[rows])
        weights = None if np.all(weights == 1.0) else weights[:, None]
        firsts = np.cumsum(lengths) - lengths
        acc = np.zeros((order.size, out.shape[1]))
        gathered = np.empty_like(acc)
        # Step t adds a row to each of the first active[t] targets.
        active = np.searchsorted(-lengths, -np.arange(lengths[0]))
        for step, n_active in enumerate(active):
            at = firsts[:n_active] + step
            term = np.take(source, rows[at], axis=0, out=gathered[:n_active],
                           mode="clip")  # unbuffered; rows are in range
            if weights is not None:  # a product with 1.0 is exact: skip it
                term *= weights[at]
            acc[:n_active] += term
        out[start + order] = acc
    return out


def _cosine(vectors: np.ndarray, weights=None) -> np.ndarray:
    """Cosine of the columns of 0/1 V, row u weighted by w_u: the Gram
    V^T diag(w) V, whose (i, j) and (j, i) both add w_u over the u holding i
    and j in ascending u, times outer(inv, inv), inv = 1 / norm or 0, which
    is applied `_SCORE_CHUNK` rows at a time."""
    gram = _row_sums(vectors, vectors.T, np.arange(vectors.shape[1]), weights)
    norms = np.sqrt(np.diag(gram))
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    for start in range(0, gram.shape[0], _SCORE_CHUNK):
        gram[start:start + _SCORE_CHUNK] *= np.outer(
            inv[start:start + _SCORE_CHUNK], inv)
    return gram


@dataclass(frozen=True, eq=False)
class TrainIncidence:
    """A train set as a read-only (users x items) 0/1 float64 matrix, and
    the item cosine cached on it until `drop_item_cosine`. While a fold's
    models are fitted one at a time, that cosine and the live model's own
    array (bm25's, or tfidf's copy if an item is held by every train user)
    are the only items x items arrays."""

    users: IdIndex
    items: IdIndex
    matrix: np.ndarray
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False)
    _cache: list = field(default_factory=list, init=False, repr=False)

    def item_cosine(self) -> np.ndarray:
        """The read-only item cosine, built once and shared. The lock is
        for library callers that fit from their own threads on one shared
        incidence; the pipeline itself fits on one thread."""
        with self._lock:
            if not self._cache:
                self._cache.append(_cosine(self.matrix))
                self._cache[0].flags.writeable = False
            return self._cache[0]

    def drop_item_cosine(self):
        """Release the cached cosine; models that hold it keep it."""
        with self._lock:
            self._cache.clear()


def train_incidence(pairs: Iterable[tuple[str, str]]) -> TrainIncidence:
    """Build the incidence of observed (user, item) pairs; repeats are fine."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty train set")
    user_ids, item_ids = zip(*pairs)
    users, items = IdIndex(user_ids), IdIndex(item_ids)
    matrix = np.zeros((len(users), len(items)), dtype=np.float64)
    matrix[users.indices(user_ids), items.indices(item_ids)] = 1.0
    matrix.flags.writeable = False
    return TrainIncidence(users, items, matrix)


class FittedModel:
    """A trained recommender bound to one fold's train split.

    A user's scores (`_scores`) are `_row_sums` of the rows of `_rows` that
    the nonzero entries of its row of `_touched` name, each times that entry
    (by default: the rows of its train items, times 1; item-knn's rows are
    sparse, and it adds them in the same order).
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

    def _scores(self, rows: np.ndarray) -> np.ndarray:
        """The scores of the train users at `rows`, one row each."""
        return _row_sums(self._rows, self._touched, rows)

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
            scores = self._scores(self.users.indices([user]))[0]
        else:
            log.warning("cold-start user %r: popularity fallback (%s)",
                        user, self.model_id)
            scores = self.popularity_scores().astype(np.float64)
        scores[self.items.indices(
            i for i in train_items if i in self.items)] = -np.inf
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
    def __init__(self, model_id, kind, train, params):
        super().__init__(model_id, kind, train, params)
        if kind == "item-item-bm25":
            k1, b = params["k1"], params["b"]
            lengths = self._incidence.sum(axis=1)
            factor = (k1 + 1.0) / (
                1.0 + k1 * (1.0 - b + b * lengths / lengths.mean()))
            sim = _cosine(self._incidence, factor * factor)
        else:
            sim = train.item_cosine()
        common = self._incidence.all(axis=0)  # their IDF is log(1) = 0
        if kind != "item-item-cosine" and common.any():
            if not sim.flags.writeable:
                sim = sim.copy()  # the shared cosine
            sim[common] = 0.0
            sim[:, common] = 0.0
        self.similarity = self._rows = sim


class _ItemKnn(FittedModel):
    def __init__(self, model_id, kind, train, params):
        super().__init__(model_id, kind, train, params)
        # score(u, i) sums sim(i, j) over the user's train items j that are
        # among i's kept neighbors: row j of the transposed truncation, the
        # one orientation stored, in CSR form: entries p in
        # _indptr[j]:_indptr[j + 1] hold i = _neighbors[p], ascending, and
        # sim(i, j) = _rows[p].
        rows, cols, sims = _kept_neighbors(train.item_cosine(), params["nn"])
        order = np.argsort(cols, kind="stable")  # rows stay ascending
        self._neighbors, self._rows = rows[order], sims[order]
        self._indptr = np.searchsorted(cols[order],
                                       np.arange(len(self.items) + 1))

    @property
    def similarity(self) -> np.ndarray:
        """The truncated similarity, made dense on each access."""
        out = np.zeros((len(self.items), len(self.items)))
        out[self._neighbors, np.repeat(np.arange(len(self.items)),
                                       np.diff(self._indptr))] = self._rows
        return out

    def _scores(self, rows: np.ndarray) -> np.ndarray:
        """`_row_sums` of the dense rows over the 0/1 `_touched`, bit for
        bit: one `np.bincount` adds each cell's terms from 0.0 in input
        order, here by user and then by train item ascending, as `_row_sums`
        adds them. It only skips the +0.0 terms, which never move a
        non-negative sum."""
        n = len(self.items)
        users, held = np.nonzero(self._touched[rows])
        counts = np.diff(self._indptr)[held]
        at = np.arange(counts.sum()) + np.repeat(
            self._indptr[held] - np.cumsum(counts) + counts, counts)
        cells = np.repeat(users * n, counts) + self._neighbors[at]
        sums = np.bincount(cells, self._rows[at], rows.size * n)
        return sums.reshape(-1, n).astype(np.float64, copy=False)  # if empty


class _UserKnn(FittedModel):
    def __init__(self, model_id, kind, train, params):
        super().__init__(model_id, kind, train, params)
        sim = _cosine(np.ascontiguousarray(self._incidence.T))
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
    "item-item-tfidf": _ItemItem,
    "item-item-bm25": _ItemItem,
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


def _score_block(model: FittedModel, k_max: int) -> _Block:
    """A model's read-only top-k_max lists of every train user, scored,
    masked and cut `_SCORE_CHUNK` users at a time; `_scores` and `_top_k`
    treat rows apart, so the chunking cannot change a value."""
    counts, items, scores = [], [], []
    for start in range(0, len(model.users), _SCORE_CHUNK):
        rows = np.arange(start, min(start + _SCORE_CHUNK, len(model.users)))
        chunk = model._scores(rows)
        # Mask consumed items so they can never be recommended back.
        chunk[model._incidence[rows] != 0] = -np.inf
        top = _top_k(chunk, k_max)
        top_scores = np.take_along_axis(chunk, top, axis=1)
        valid = np.isfinite(top_scores)
        # Each row's valid entries are a prefix, so a row-major masked
        # gather lays the lists end to end.
        counts.append(valid.sum(axis=1))
        items.append(top[valid].astype(np.int32))
        scores.append(top_scores[valid])
    block = _Block(np.arange(len(model.users), dtype=np.int32),
                   np.concatenate(([0], np.cumsum(np.concatenate(counts)))),
                   np.concatenate(items), np.concatenate(scores))
    for array in (block.user_rows, block.indptr, block.items, block.scores):
        array.flags.writeable = False
    return block


def generate_matrix(models_by_fold: Mapping[int, Iterable[FittedModel]],
                    k_max: int) -> PredictionMatrix:
    """Batch-produce the prediction matrix for fitted per-fold models.

    A fold's models must share one train set (and so one index space);
    folds are joined by PredictionMatrix.union. Covers every train user.
    Lists hold the top min(k_max, recommendable) items, identical to
    per-user recommend() output (asserted in tests).

    A fold's models are drawn from their iterable one at a time, and no
    reference to a model is kept once its block is built: given a lazy
    iterable that fits on demand, a fold holds one fitted model at a time.
    Scoring runs `_SCORE_CHUNK` users at a time, so no users x items array
    is made.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    parts = []
    for fold in sorted(models_by_fold):
        users = items = None
        blocks: dict[tuple[int, str], _Block] = {}
        # Models that hold the same arrays score the same lists, so they
        # share one read-only block. tfidf holds the shared item cosine
        # unless some item is held by every train user. Arrays are compared
        # through weak references: a dead model's arrays match nothing, even
        # where a new array reuses a freed one's id().
        scored: list[tuple[tuple[weakref.ref, ...], _Block]] = []
        for model in models_by_fold[fold]:
            if users is None:
                users, items = model.users, model.items
            if (model.users.ids, model.items.ids) != (users.ids, items.ids):
                raise ValueError(f"fold {fold}: model {model.model_id!r} was "
                                 f"fitted on another train set")
            arrays = (model._rows, model._touched, model._incidence)
            block = next((b for refs, b in scored
                          if all(r() is a for r, a in zip(refs, arrays))), None)
            if block is None:
                block = _score_block(model, k_max)
                scored.append((tuple(map(weakref.ref, arrays)), block))
            blocks[(fold, model.model_id)] = block
            del model, arrays  # let it die before the next fit
        if users is None:
            raise ValueError(f"fold {fold}: no models")
        parts.append(PredictionMatrix(users, items, blocks))
    return PredictionMatrix.union(parts)
