"""Built-in neighborhood and popularity recommenders.

Models read the binarized train set: each distinct (user, item) train row
is one interaction. `train_incidence` takes a fold's train pairs by index
once and keeps them as read-only CSR rows and columns (`_Csr`), shared
with the fold's item cosine by every model fitted on it. The item kinds
keep a dense float64 similarity, as desk-sized catalogs allow; the kNN
kinds keep their kept neighbors as CSR rows.

No BLAS call is made: every fit and score is a fixed-order row sum, of
sparse rows by `np.bincount` (`_sparse_row_sums`: the Grams and the kNN
scores) or of dense similarity rows (`_row_sums`), about `_SCORE_CHUNK`
rows at a time, so no value depends on batching. `generate_matrix` keeps
no model once its lists are built, so a lazily fitted fold holds one
model, no users x items array and no full-size transient at a time.

Similarity conventions, shared by every kind that uses one:
  - the cosine of 0/1 vectors after any weighting (`_cosine`);
  - item-item-tfidf is the item cosine with the rows and columns of items
    held by every train user zeroed: on 0/1 data IDF scales an item's
    column by a constant the cosine cancels, and is log(1) = 0 for those;
  - item-item-bm25 weights user u's row by rf(L_u)^2, where rf(L) =
    (k1 + 1) / (1 + k1 (1 - b + b L / mean L)) is BM25's tf = 1 saturation
    at train length L, and zeroes the same items, as its IDF cancels too;
  - kNN kinds truncate to the top `nn` neighbors excluding self, ties broken
    by index (= id) ascending;
  - item-item kinds keep the full similarity matrix, self included.
"""

from __future__ import annotations

import logging
import threading
import weakref
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

import numpy as np

from recfuse.core import IdIndex, IndexedPairs, PredictionMatrix, ScoredItem
from recfuse.core import _Block, _json_typed, sorted_unique

log = logging.getLogger(__name__)

# The kinds whose fit reads `TrainIncidence.item_cosine()`.
ITEM_COSINE_KINDS = ("item-knn", "item-item-cosine", "item-item-tfidf")

DEFAULT_PARAMS = {
    "nn": 20,      # neighborhood size for the kNN kinds
    "k1": 1.2,     # BM25 term-frequency saturation
    "b": 0.75,     # BM25 length normalization
}


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Each row's top-k column indices, score descending, index ascending:
    `np.argsort(-scores, axis=1, kind="stable")[:, :k]` without sorting
    whole rows. A partition finds each row's k-th largest value; the entries
    above it and the lowest-index entries equal to it make exactly k (ties
    straddling the cut resolve by index), and only those are argsorted."""
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


@dataclass(frozen=True, eq=False)
class _Csr:
    """Sparse rows: row r holds columns indices[indptr[r]:indptr[r + 1]],
    ascending, of n_cols, with the same slice of `values` (None: all 1.0)."""

    indptr: np.ndarray
    indices: np.ndarray
    n_cols: int
    values: np.ndarray | None = None

    def spans(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The positions of the entries of `rows`, row after row, and where
        each row's run starts and the last one ends."""
        counts = self.indptr[rows + 1] - self.indptr[rows]
        firsts = np.concatenate(([0], np.cumsum(counts)))
        at = np.repeat(self.indptr[rows] - firsts[:-1], counts)
        at += np.arange(at.size)
        return at, firsts

    def dense(self) -> np.ndarray:
        out = np.zeros((self.indptr.size - 1, self.n_cols))
        out[np.repeat(np.arange(out.shape[0]), np.diff(self.indptr)),
            self.indices] = 1.0 if self.values is None else self.values
        return out


def _csr(keys: np.ndarray, n_rows: int, n_cols: int,
         values: np.ndarray | None = None) -> _Csr:
    """`_Csr` of the entries with distinct keys row * n_cols + column, in
    any order, and their values; its index arrays are read-only."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    out = _Csr(np.searchsorted(keys, np.arange(n_rows + 1) * n_cols),
               keys % n_cols, n_cols, None if values is None else values[order])
    out.indptr.flags.writeable = out.indices.flags.writeable = False
    return out


def _kept_neighbors(sim: np.ndarray, nn: int, transposed: bool) -> _Csr:
    """Each row's top-nn off-diagonal nonzero entries, ties to the lower
    index as `_top_k` breaks them, as CSR rows of that truncation or of its
    transpose. Rows are taken `_SCORE_CHUNK` at a time."""
    parts = []
    for start in range(0, sim.shape[0], _SCORE_CHUNK):
        work = sim[start:start + _SCORE_CHUNK].copy()
        rows = np.arange(work.shape[0])
        work[rows, start + rows] = -np.inf
        keep = _top_k(work, nn)  # the -inf diagonal only if nn >= n
        vals = np.take_along_axis(work, keep, axis=1)
        kept = np.isfinite(vals) & (vals != 0.0)
        parts.append((start + np.nonzero(kept)[0], keep[kept], vals[kept]))
    rows, cols, vals = map(np.concatenate, zip(*parts))
    n = sim.shape[0]
    return _csr(cols * n + rows if transposed else rows * n + cols, n, n, vals)


# Rows per dense pass, score or Gram: small passes stay in cache (64 was
# fastest of 16-1024 scoring 700 x 1300). The sparse kernel's chunks hold
# about as many floats. No value depends on it.
_SCORE_CHUNK = 64


def _row_sums(source: np.ndarray, touched: _Csr,
              targets: np.ndarray) -> np.ndarray:
    """Row t: 0.0 plus source[r] over the entries r of the 0/1 touched row
    targets[t] in ascending r, however targets are grouped."""
    out = np.empty((targets.size, source.shape[1]))
    for start in range(0, targets.size, _SCORE_CHUNK):
        chunk = targets[start:start + _SCORE_CHUNK]
        lengths = touched.indptr[chunk + 1] - touched.indptr[chunk]
        order = np.argsort(-lengths, kind="stable")
        firsts, lengths = touched.indptr[chunk[order]], lengths[order]
        acc = np.zeros((order.size, out.shape[1]))
        gathered = np.empty_like(acc)
        # Step t adds a row to each of the first active[t] targets.
        active = np.searchsorted(-lengths, -np.arange(lengths[0]))
        for step, n_active in enumerate(active):
            acc[:n_active] += np.take(
                source, touched.indices[firsts[:n_active] + step], axis=0,
                out=gathered[:n_active], mode="clip")  # unbuffered; in range
        out[start + order] = acc
    return out


def _sparse_row_sums(source: _Csr, touched: _Csr,
                     targets: np.ndarray) -> np.ndarray:
    """Row t: 0.0 plus w * v over each entry (r, w) of touched row
    targets[t] in ascending r, then each entry (c, v) of source row r, into
    column c, however targets are grouped; only one of the two has values.
    That is the dense fixed-order sum bit for bit: `np.bincount` adds each
    cell's terms from 0.0 in input order, a product with 1.0 is exact, and
    only +0.0 terms, which never move a non-negative sum, are skipped. A
    chunk of whole targets costs at most `_SCORE_CHUNK` rows (or one
    target): a target's output row plus about four floats per term."""
    n_cols = source.n_cols
    out = np.empty((targets.size, n_cols))
    at, firsts = touched.spans(targets)
    rows = touched.indices[at]
    weights = None if touched.values is None else touched.values[at]
    terms = np.concatenate(([0], np.cumsum(np.diff(source.indptr)[rows])))
    cost = 4 * terms[firsts] + n_cols * np.arange(targets.size + 1)
    start = 0
    while start < targets.size:
        end = max(start + 1, np.searchsorted(
            cost, cost[start] + _SCORE_CHUNK * n_cols, "right") - 1)
        lo, hi = firsts[start], firsts[end]
        at, ends = source.spans(rows[lo:hi])
        lengths = np.diff(ends)
        values = (np.repeat(weights[lo:hi], lengths) if weights is not None
                  else None if source.values is None else source.values[at])
        cells = np.repeat(np.repeat(np.arange(end - start) * n_cols,
                                    np.diff(firsts[start:end + 1])), lengths)
        cells += source.indices[at]
        del at
        out[start:end] = np.bincount(cells, values, (end - start) * n_cols
                                     ).reshape(end - start, n_cols)
        start = end
    return out


def _cosine(source: _Csr, touched: _Csr) -> np.ndarray:
    """Cosine of the columns of 0/1 V, row u weighted by w_u, from V's rows
    and its columns weighted by w: the Gram V^T diag(w) V, whose (i, j) and
    (j, i) both add w_u over the u holding i and j in ascending u, times
    outer(inv, inv), inv = 1 / norm or 0, `_SCORE_CHUNK` rows at a time."""
    gram = _sparse_row_sums(source, touched, np.arange(source.n_cols))
    norms = np.sqrt(np.diag(gram))
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    for start in range(0, gram.shape[0], _SCORE_CHUNK):
        gram[start:start + _SCORE_CHUNK] *= np.outer(
            inv[start:start + _SCORE_CHUNK], inv)
    return gram


@dataclass(frozen=True, eq=False)
class TrainIncidence:
    """A 0/1 train set as read-only CSR rows (users to items) and columns
    (items to users), and the item cosine cached on it until
    `drop_item_cosine`. As a fold fits one model at a time, that cosine and
    the live model's own (bm25's, tfidf's copy if an item is held by every
    train user, user-knn's Gram while it fits) are its only dense squares."""

    users: IdIndex
    items: IdIndex
    rows: _Csr
    columns: _Csr
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False)
    _cache: list = field(default_factory=list, init=False, repr=False)

    def item_cosine(self) -> np.ndarray:
        """The read-only item cosine, built once and shared. The lock is
        for library callers that fit from their own threads on one shared
        incidence; the pipeline itself fits on one thread."""
        with self._lock:
            if not self._cache:
                self._cache.append(_cosine(self.rows, self.columns))
                self._cache[0].flags.writeable = False
            return self._cache[0]

    def drop_item_cosine(self):
        """Release the cached cosine; models that hold it keep it."""
        with self._lock:
            self._cache.clear()


def train_incidence(pairs: IndexedPairs) -> TrainIncidence:
    """Build the incidence of observed (user, item) pairs, in any order;
    repeats are fine. It indexes only the users and items the pairs hold."""
    if not pairs.user_rows.size:
        raise ValueError("empty train set")
    pairs = pairs.compact()
    n_users, n_items = len(pairs.users), len(pairs.items)
    keys = sorted_unique(pairs.keys())
    return TrainIncidence(pairs.users, pairs.items, _csr(keys, n_users, n_items),
                          _csr(keys % n_items * n_users + keys // n_items,
                               n_items, n_users))


class FittedModel:
    """A trained recommender bound to one fold's train split. A user's scores
    (`_scores`) add the rows of `_rows` that the entries of its row of
    `_touched` name, in ascending order: by default the dense similarity
    rows of its train items; the kNN kinds add sparse rows."""

    def __init__(self, model_id: str, kind: str, train: TrainIncidence,
                 params: dict):
        self.model_id = model_id
        self.kind = kind
        self.users = train.users
        self.items = train.items
        self._incidence = self._touched = train.rows
        self.params = params

    def _scores(self, rows: np.ndarray) -> np.ndarray:
        """The scores of the train users at `rows`, one row each."""
        return _row_sums(self._rows, self._touched, rows)

    def popularity_scores(self) -> np.ndarray:
        """Train interaction count per item; the cold-start fallback ranking."""
        return np.bincount(self._incidence.indices,
                           minlength=len(self.items)).astype(np.float64)

    def recommend(self, user: str, k: int,
                  train_items: Iterable[str] = ()) -> list[ScoredItem]:
        """Top-k items for one user, excluding the given consumed items;
        unknown users fall back to the popularity ranking."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if user in self.users:
            scores = self._scores(self.users.indices([user]))[0]
        else:
            log.warning("cold-start user %r: popularity fallback (%s)",
                        user, self.model_id)
            scores = self.popularity_scores()
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
        self._rows = self.popularity_scores()[None, :]
        self._touched = _Csr(np.arange(len(self.users) + 1),
                             np.zeros(len(self.users), dtype=np.intp), 1)


class _ItemItem(FittedModel):
    def __init__(self, model_id, kind, train, params):
        super().__init__(model_id, kind, train, params)
        if kind == "item-item-bm25":
            k1, b = params["k1"], params["b"]
            lengths = np.diff(train.rows.indptr)
            factor = (k1 + 1.0) / (
                1.0 + k1 * (1.0 - b + b * lengths / lengths.mean()))
            sim = _cosine(train.rows, replace(
                train.columns, values=(factor * factor)[train.columns.indices]))
        else:
            sim = train.item_cosine()
        common = np.diff(train.columns.indptr) == len(self.users)  # IDF 0
        if kind != "item-item-cosine" and common.any():
            if not sim.flags.writeable:
                sim = sim.copy()  # the shared cosine
            sim[common] = 0.0
            sim[:, common] = 0.0
        self.similarity = self._rows = sim


class _Knn(FittedModel):
    # A user adds the train rows of its kept neighbors, each times its
    # similarity (user-knn), or for each train item j the sim(i, j) of every
    # item i that keeps j: row j of the transposed truncation (item-knn).
    def __init__(self, model_id, kind, train, params):
        super().__init__(model_id, kind, train, params)
        item = kind == "item-knn"
        sim = train.item_cosine() if item else _cosine(train.columns,
                                                       train.rows)
        kept = _kept_neighbors(sim, params["nn"], transposed=item)
        self._rows, self._touched = (kept, self._touched) if item else (
            train.rows, kept)

    @property
    def similarity(self) -> np.ndarray:
        """The truncated similarity, made dense on each access."""
        return (self._rows.dense().T if self.kind == "item-knn"
                else self._touched.dense())

    def _scores(self, rows: np.ndarray) -> np.ndarray:
        return _sparse_row_sums(self._rows, self._touched, rows)


_CONSTRUCTORS = {
    "popularity": _Popularity,
    "user-knn": _Knn,
    "item-knn": _Knn,
    "item-item-cosine": _ItemItem,
    "item-item-tfidf": _ItemItem,
    "item-item-bm25": _ItemItem,
}
MODEL_KINDS = tuple(_CONSTRUCTORS)


def fit_params(params: Mapping[str, float] | None) -> dict:
    """DEFAULT_PARAMS overridden by `params`, type- and range-checked."""
    merged = {**DEFAULT_PARAMS, **(params or {})}
    unknown = set(merged) - set(DEFAULT_PARAMS)
    if unknown:
        raise ValueError(f"unknown parameters {sorted(unknown)}")
    for key, kind in (("nn", int), ("k1", float), ("b", float)):
        _json_typed(merged[key], key, kind)
    if merged["nn"] < 1:
        raise ValueError("nn must be >= 1")
    if merged["k1"] <= 0:
        raise ValueError("k1 must be > 0")
    if not 0.0 <= merged["b"] <= 1.0:
        raise ValueError("b must be in [0, 1]")
    return merged


def fit(kind: str, train: TrainIncidence,
        params: Mapping[str, float] | None = None,
        model_id: str | None = None) -> FittedModel:
    """Fit one recommender on a train set.

    Args:
        kind: one of MODEL_KINDS.
        train: the fold's train_incidence, shared by its models.
        params: overrides for DEFAULT_PARAMS (nn, k1, b).
        model_id: defaults to the kind name.
    """
    if kind not in _CONSTRUCTORS:
        raise ValueError(f"unknown model kind {kind!r}")
    return _CONSTRUCTORS[kind](model_id or kind, kind, train,
                               fit_params(params))


def _score_block(model: FittedModel, k_max: int) -> _Block:
    """A model's read-only top-k_max lists of every train user, scored,
    masked and cut `_SCORE_CHUNK` users at a time; `_scores` and `_top_k`
    treat rows apart, so the chunking cannot change a value."""
    counts, items, scores = [], [], []
    for start in range(0, len(model.users), _SCORE_CHUNK):
        rows = np.arange(start, min(start + _SCORE_CHUNK, len(model.users)))
        chunk = model._scores(rows)
        # Mask consumed items so they can never be recommended back.
        at, firsts = model._incidence.spans(rows)
        chunk[np.repeat(np.arange(rows.size), np.diff(firsts)),
              model._incidence.indices[at]] = -np.inf
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
    folds are joined by PredictionMatrix.union. Lists cover every train user
    and equal per-user recommend() output: the top min(k_max, recommendable)
    items. A fold's models are drawn one at a time and none is kept once its
    block is built: given a lazy iterable that fits on demand, a fold holds
    one fitted model at a time.
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
