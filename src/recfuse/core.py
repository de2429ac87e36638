"""Shared domain types for the rank-fusion pipeline.

Everything here is immutable after construction, bar caches filled on
first use, and safe to share across parallel workers. String user/item ids
are the external currency; internally ids are mapped to dense integer
indices (sorted by id, so index order equals id order) because the hot
loops fan out over (user x model x k). Ids become indices in one place,
`IdIndex.indices`, at the file and API edges: a dataset and its folds are
`IndexedPairs` arrays, and their `Interaction` records and per-user
mappings are built only when asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np


class ScoredItem(NamedTuple):
    """One item with the score a model assigned to it."""

    item_id: str
    score: float


@dataclass(frozen=True)
class Interaction:
    """A single observed (user, item) event."""

    user_id: str
    item_id: str
    rating: float | None = None
    timestamp: int | None = None


class IdIndex:
    """Bidirectional map between string ids and dense integer indices.

    Indices are assigned in ascending id order, so sorting by index is the
    same as sorting by id. That property is what makes a stable argsort on
    scores break ties by item id for free. `indices` is the one translation
    of many ids; `index` serves the per-user oracles.
    """

    __slots__ = ("_ids", "_pos")

    def __init__(self, ids: Iterable[str]):
        self._ids: tuple[str, ...] = tuple(sorted(set(ids)))
        self._pos: dict[str, int] = {s: i for i, s in enumerate(self._ids)}

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, id_: str) -> bool:
        return id_ in self._pos

    def index(self, id_: str) -> int:
        return self._pos[id_]

    def indices(self, ids: Iterable[str], missing: int | None = None
                ) -> np.ndarray:
        """The int32 index of each id, in input order; an unknown id raises
        KeyError or, when given, maps to `missing`."""
        if missing is None:
            return np.fromiter(map(self._pos.__getitem__, ids), dtype=np.int32)
        get = self._pos.get
        return np.fromiter((get(id_, missing) for id_ in ids), dtype=np.int32)

    def id(self, index: int) -> str:
        return self._ids[index]

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: one sort and a neighbour mask, where
    numpy 2's np.unique hashes integers before it sorts them."""
    out = np.sort(values)
    return out[np.concatenate(([True], out[1:] != out[:-1]))] if out.size else out


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Each row's top-k column indices, score descending, index ascending:
    `np.argsort(-scores, axis=1, kind="stable")[:, :k]` without sorting
    whole rows. A partition finds each row's k-th largest value, and one
    flat pass takes the entries at or above it. A row with more than k of
    them drops its last ties at the cut by index, so ties straddling the
    cut resolve by index. Only the kept entries are argsorted."""
    n_rows, n_cols = scores.shape
    width = min(k, n_cols)
    if width < 1:
        return np.empty((n_rows, 0), dtype=np.intp)
    cut = np.partition(scores, n_cols - width, axis=1)[:, n_cols - width]
    flat = np.flatnonzero(scores >= cut[:, None])
    if flat.size > n_rows * width:
        rows = flat // n_cols
        tie = np.take(scores, flat) == cut[rows]
        counts = np.bincount(rows, minlength=n_rows)
        # Ties from each entry to the end of its row.
        later = np.cumsum(tie[::-1])[::-1]
        later -= np.append(later, 0)[np.cumsum(counts)][rows]
        flat = flat[~tie | (later > (counts - width)[rows])]
    top = (flat % n_cols).reshape(n_rows, width)
    order = np.argsort(-np.take_along_axis(scores, top, axis=1), axis=1,
                       kind="stable")
    return np.take_along_axis(top, order, axis=1)


class IndexedPairs(NamedTuple):
    """(user, item) pairs by index: pair r is (users.id(user_rows[r]),
    items.id(item_cols[r]))."""

    users: IdIndex
    items: IdIndex
    user_rows: np.ndarray
    item_cols: np.ndarray

    @classmethod
    def of(cls, user_ids: Sequence[str], item_ids: Sequence[str]
           ) -> "IndexedPairs":
        """The pairs (user_ids[r], item_ids[r]) over the ids they hold."""
        users, items = IdIndex(user_ids), IdIndex(item_ids)
        return cls(users, items, users.indices(user_ids),
                   items.indices(item_ids))

    def keys(self) -> np.ndarray:
        """user * n_items + item per pair, in int64: an int32 product
        overflows once users x items >= 2**31."""
        return self.user_rows.astype(np.int64) * len(self.items) + self.item_cols

    def compact(self) -> "IndexedPairs":
        """The same pairs over indexes of only the ids they hold."""
        users, user_rows = _held(self.users, self.user_rows)
        items, item_cols = _held(self.items, self.item_cols)
        return IndexedPairs(users, items, user_rows, item_cols)

    def take(self, rows: np.ndarray) -> "IndexedPairs":
        """The pairs at `rows`, over the same indexes."""
        return self._replace(user_rows=self.user_rows[rows],
                             item_cols=self.item_cols[rows])


def _held(index: IdIndex, rows: np.ndarray) -> tuple[IdIndex, np.ndarray]:
    """The ids of `index` that rows name, as an index, and rows over it."""
    held = np.bincount(rows, minlength=len(index)) > 0
    return (IdIndex(index.ids[i] for i in np.flatnonzero(held).tolist()),
            (np.cumsum(held, dtype=np.int32) - 1)[rows])


class InteractionDataset:
    """Deduplicated (user, item) events, held by columns.

    `indexed` holds each event's pair over the ids that occur, sorted by
    (user index, item index), so each user's events are one run in item-id
    order. `records` gives the same events as `Interaction`s, built when
    first asked: in the order given or, from `_latest`, in the order of each
    pair's first row. Building from records checks that ids are non-empty
    strings and that no (user_id, item_id) pair appears twice.
    """

    __slots__ = ("indexed", "_records", "_values")

    def __init__(self, records: Iterable[Interaction]):
        records = tuple(records)
        user_ids = [rec.user_id for rec in records]
        item_ids = [rec.item_id for rec in records]
        if not all(user_ids) or not all(item_ids):
            raise ValueError("user_id and item_id must be non-empty strings")
        pairs = IndexedPairs.of(user_ids, item_ids)
        order, starts = _pair_runs(pairs)
        if starts.size < order.size:  # the first record to repeat a pair
            rec = records[int(np.delete(order, starts).min())]
            raise ValueError(
                f"duplicate interaction {(rec.user_id, rec.item_id)}")
        self.indexed = pairs.take(order)
        self._records = records
        self._values = None

    @classmethod
    def _of(cls, indexed: IndexedPairs, ratings: np.ndarray,
            rated: np.ndarray, timestamps: np.ndarray,
            order: np.ndarray | None = None) -> "InteractionDataset":
        """The dataset of sorted, distinct indexed pairs and each pair's
        rating (where `rated`) and timestamp (where not NaN); `order` lists
        the pairs in record order, None for sorted order."""
        out = cls.__new__(cls)
        out.indexed = indexed
        out._records = None
        out._values = (ratings, rated, timestamps, order)
        return out

    @classmethod
    def _latest(cls, user_ids: Sequence[str], item_ids: Sequence[str],
                ratings: np.ndarray, rated: np.ndarray,
                timestamps: np.ndarray) -> "InteractionDataset":
        """One event per distinct pair of the rows (user_ids[r],
        item_ids[r]): the row with the latest timestamp, where a missing
        (NaN) one loses and among equal ones the last row wins. Records
        follow each pair's first row."""
        pairs = IndexedPairs.of(user_ids, item_ids)
        order, starts = _pair_runs(pairs)
        stamps = np.nan_to_num(timestamps[order], nan=-np.inf)
        latest = np.repeat(np.maximum.reduceat(stamps, starts),
                           np.diff(np.append(starts, order.size)))
        winners = order[np.maximum.reduceat(
            np.where(stamps == latest, np.arange(order.size), -1), starts)]
        firsts = order[starts]
        return cls._of(pairs.take(firsts), ratings[winners], rated[winners],
                       timestamps[winners], np.argsort(firsts))

    @property
    def records(self) -> tuple[Interaction, ...]:
        if self._records is None:
            ratings, rated, timestamps, order = self._values
            take = slice(None) if order is None else order
            users, items = self.indexed.users.ids, self.indexed.items.ids
            self._records = tuple(
                Interaction(users[u], items[i], r if ok else None,
                            None if math.isnan(t) else int(t))
                for u, i, r, ok, t in zip(
                    self.indexed.user_rows[take].tolist(),
                    self.indexed.item_cols[take].tolist(),
                    ratings[take].tolist(), rated[take].tolist(),
                    timestamps[take].tolist()))
        return self._records

    def __len__(self) -> int:
        return self.indexed.user_rows.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InteractionDataset):
            return NotImplemented
        return self.records == other.records

    def pairs(self) -> set[tuple[str, str]]:
        users, items = self.indexed.users.ids, self.indexed.items.ids
        return {(users[u], items[i]) for u, i in zip(
            self.indexed.user_rows.tolist(), self.indexed.item_cols.tolist())}

    def user_items(self) -> dict[str, list[str]]:
        """Items per user, each list in ascending item order."""
        return dict(_runs(self.indexed, np.arange(len(self))))

    def users(self) -> list[str]:
        return list(self.indexed.users.ids)

    def items(self) -> list[str]:
        return list(self.indexed.items.ids)


def _pair_runs(pairs: IndexedPairs) -> tuple[np.ndarray, np.ndarray]:
    """The rows in (user, item) order, equal pairs in row order, and where
    each pair's run starts in that order; one stable sort of the keys."""
    keys = pairs.keys()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.ones(keys.size, dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    return order, np.flatnonzero(starts)


def _runs(indexed: IndexedPairs, rows: np.ndarray
          ) -> Iterator[tuple[str, list[str]]]:
    """(user id, item ids) of each run of one user among the pairs at rows,
    which are sorted by user."""
    if not rows.size:
        return
    users, items = indexed.users.ids, indexed.items.ids
    user_rows = indexed.user_rows[rows]
    bounds = np.flatnonzero(user_rows[1:] != user_rows[:-1]) + 1
    for user, cols in zip(user_rows[np.concatenate(([0], bounds))].tolist(),
                          np.split(indexed.item_cols[rows], bounds)):
        yield users[user], [items[i] for i in cols.tolist()]


SUBSETS = ("train", "validation", "test")


class FoldSplit:
    """One train/validation/test partition of a dataset's (user, item) pairs.

    `indexed` holds the pairs, sorted by (user index, item index) and
    distinct, and `codes` each pair's subset as a uint8 position in SUBSETS.
    The per-user subset mappings are built from these when first asked for;
    the pipeline reads only the codes. Built from three {user_id: frozenset
    of item_ids} mappings, a pair in two subsets is rejected.
    """

    __slots__ = ("fold_index", "indexed", "codes", "_maps")

    def __init__(self, fold_index: int,
                 train: Mapping[str, frozenset[str]],
                 validation: Mapping[str, frozenset[str]],
                 test: Mapping[str, frozenset[str]]):
        if fold_index < 0:
            raise ValueError("fold_index must be non-negative")
        held = [(user, item, code)
                for code, subset in enumerate((train, validation, test))
                for user, items in subset.items() for item in items]
        user_ids, item_ids, codes = zip(*held) if held else ((), (), ())
        pairs = IndexedPairs.of(user_ids, item_ids)
        order, starts = _pair_runs(pairs)
        if starts.size < order.size:
            user = pairs.users.ids[pairs.user_rows[np.delete(order, starts)[0]]]
            raise ValueError(f"subsets overlap for user {user!r} in fold {fold_index}")
        self.fold_index = fold_index
        self.indexed = pairs.take(order)
        self.codes = np.array(codes, dtype=np.uint8)[order]
        self._maps = {"train": train, "validation": validation, "test": test}

    @classmethod
    def _of_codes(cls, fold_index: int, indexed: IndexedPairs,
                  codes: np.ndarray) -> "FoldSplit":
        out = cls.__new__(cls)
        out.fold_index, out.indexed, out.codes = fold_index, indexed, codes
        out._maps = {}
        return out

    def _rows(self, name: str) -> np.ndarray:
        """Where `codes` names subset `name`."""
        if name not in SUBSETS:
            raise ValueError(f"unknown subset {name!r}")
        return np.flatnonzero(self.codes == SUBSETS.index(name))

    def indexed_subset(self, name: str) -> IndexedPairs:
        """The pairs of one subset, over the indexes of `indexed`."""
        return self.indexed.take(self._rows(name))

    def subset(self, name: str) -> Mapping[str, frozenset[str]]:
        if name not in self._maps:
            self._maps[name] = {user: frozenset(items) for user, items
                                in _runs(self.indexed, self._rows(name))}
        return self._maps[name]

    train = property(lambda self: self.subset("train"))
    validation = property(lambda self: self.subset("validation"))
    test = property(lambda self: self.subset("test"))

    def holdout(self, kind: str) -> Mapping[str, frozenset[str]]:
        """The validation or test item sets, keyed by user."""
        if kind not in ("validation", "test"):
            raise ValueError(f"holdout kind must be 'validation' or 'test', got {kind!r}")
        return self.subset(kind)

    def pairs(self, name: str) -> set[tuple[str, str]]:
        return {(u, i) for u, items in self.subset(name).items() for i in items}

    def users(self) -> list[str]:
        return sorted(set(self.train) | set(self.validation) | set(self.test))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FoldSplit):
            return NotImplemented
        return self.fold_index == other.fold_index and all(
            self.subset(name) == other.subset(name) for name in SUBSETS)


LIST_FAULTS = ("not contiguous", "non-increasing", "tie order", "duplicate item")


# JSON type -> (Python types accepted, name in messages). A JSON number may
# be written without a fraction; a list may arrive as a tuple, as
# canonical_dict() writes it.
_JSON_TYPES = {bool: ((bool,), "JSON bool"), int: ((int,), "JSON int"),
               float: ((int, float), "JSON number"), str: ((str,), "JSON string"),
               Mapping: ((Mapping,), "JSON object"), list: ((list, tuple), "list")}


def _json_typed(value, key: str, kind: type):
    # bool is an int subclass: JSON true/false must not pass as 1/0.
    accepted, name = _JSON_TYPES[kind]
    if not isinstance(value, accepted) or (
            kind is not bool and isinstance(value, bool)):
        raise ValueError(f"{key} must be a {name}, got {value!r}")
    return value


def _repeats(values: np.ndarray) -> np.ndarray:
    """Positions, ascending, whose value occurs at an earlier position."""
    repeat = np.ones(values.size, dtype=bool)
    repeat[np.unique(values, return_index=True)[1]] = False
    return np.flatnonzero(repeat)


def list_contract_fault(list_ids: np.ndarray, items: np.ndarray,
                        scores: np.ndarray) -> tuple[int, str] | None:
    """The first (position, reason) at which flat entries break the list
    contract, or None. Entry j ranks item index items[j] (index order is id
    order) with scores[j] in list list_ids[j] (int64). Lists must be
    contiguous, with non-increasing scores, ties in ascending item order and
    no repeated item; at one position, the reason first in LIST_FAULTS wins."""
    if list_ids.size == 0:
        return None
    same = list_ids[1:] == list_ids[:-1]
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    faulty = (starts[_repeats(list_ids[starts])],
              np.flatnonzero(same & (scores[1:] > scores[:-1])) + 1,
              np.flatnonzero(same & (scores[1:] == scores[:-1])
                             & (items[1:] <= items[:-1])) + 1,
              _repeats(list_ids * (int(items.max()) + 1) + items))
    first = min(((int(positions[0]), rank) for rank, positions in enumerate(faulty)
                 if positions.size), default=None)
    return None if first is None else (first[0], LIST_FAULTS[first[1]])


class _Block:
    """Ranked lists of one (fold, model), stored CSR-style over dense indices."""

    __slots__ = ("user_rows", "indptr", "items", "scores")

    def __init__(self, user_rows: np.ndarray, indptr: np.ndarray,
                 items: np.ndarray, scores: np.ndarray):
        self.user_rows = user_rows      # sorted user indices, one per stored list
        self.indptr = indptr            # list r spans items[indptr[r]:indptr[r+1]]
        self.items = items              # dense item indices
        self.scores = scores            # float64, descending within each list


class PredictionMatrix:
    """Ranked, scored item lists per (fold, model, user).

    The central exchange format of the pipeline. Lists are sorted by score
    descending with ties broken by item id ascending, contain no duplicate
    items, and hold only finite scores; each producer of new lists checks
    them once (`_validate`), so downstream code never re-checks them. The
    one exception is `normalize_scores`, whose rounding can tie two items
    out of id order; its lists keep their raw order and are not checked.
    """

    def __init__(self, user_index: IdIndex, item_index: IdIndex,
                 blocks: Mapping[tuple[int, str], _Block]):
        self._users = user_index
        self._items = item_index
        self._blocks = dict(blocks)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_entries(cls, entries: Mapping[tuple[int, str, str], Sequence[ScoredItem]]
                     ) -> "PredictionMatrix":
        """Build from a plain {(fold, model, user): [ScoredItem, ...]} mapping."""
        flat = [si for lst in entries.values() for si in lst]
        items = IdIndex(si.item_id for si in flat)
        return cls._from_lists(
            [(int(fold), model, user) for (fold, model, user) in entries],
            [len(lst) for lst in entries.values()],
            items.indices(si.item_id for si in flat),
            np.array([si.score for si in flat], float), items)._validate()

    @classmethod
    def _from_lists(cls, keys: Sequence[tuple[int, str, str]],
                    lengths: Sequence[int], items: np.ndarray, scores: np.ndarray,
                    item_index: IdIndex) -> "PredictionMatrix":
        """Build from lists laid end to end: list r, with the unique key
        keys[r] = (fold, model, user), owns the next lengths[r] entries of
        the flat item-index and score arrays. Lists may be empty."""
        users = IdIndex(user for (_, _, user) in keys)
        list_users = users.indices(user for (_, _, user) in keys)
        lengths = np.asarray(lengths, dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(lengths)))
        # Sorted keys group each block's lists, in user (= index) order.
        order = sorted(range(len(keys)), key=keys.__getitem__)
        blocks: dict[tuple[int, str], _Block] = {}
        for (fold, model), group in groupby(order, key=lambda r: keys[r][:2]):
            rows = np.fromiter(group, dtype=np.int64)
            indptr = np.concatenate(([0], np.cumsum(lengths[rows])))
            take = (np.repeat(starts[rows] - indptr[:-1], lengths[rows])
                    + np.arange(indptr[-1]))
            blocks[(fold, model)] = _Block(list_users[rows], indptr,
                                           items[take], scores[take])
        return cls(users, item_index, blocks)

    @classmethod
    def union(cls, parts: Sequence["PredictionMatrix"]) -> "PredictionMatrix":
        """Matrices with disjoint (fold, model) blocks as one, re-indexed onto
        the union of their ids. The remaps keep index order, so every list
        stays valid and is not checked again."""
        users = IdIndex(u for part in parts for u in part._users.ids)
        items = IdIndex(i for part in parts for i in part._items.ids)
        blocks: dict[tuple[int, str], _Block] = {}
        for part in parts:
            user_map = users.indices(part._users.ids)
            item_map = items.indices(part._items.ids)
            for (fold, model), block in part.each_block_once(lambda _, b: _Block(
                    user_map[b.user_rows], b.indptr, item_map[b.items], b.scores)):
                if (fold, model) in blocks:
                    raise ValueError(
                        f"duplicate lists for fold {fold}, model {model!r}")
                blocks[(fold, model)] = block
        return cls(users, items, blocks)

    def each_block_once(self, make) -> Iterator[tuple[tuple[int, str], _Block]]:
        """Each (fold, model) key, in order, with make(key, its block). make
        runs once per distinct block: models that share a block share its result."""
        made: dict[int, _Block] = {}    # by id: self keeps every block alive
        for key, block in sorted(self._blocks.items(), key=lambda kb: kb[0]):
            if id(block) not in made:
                made[id(block)] = make(key, block)
            yield key, made[id(block)]

    def _validate(self) -> "PredictionMatrix":
        for (fold, model), block in self._blocks.items():
            if block.user_rows.size and np.any(np.diff(block.user_rows) <= 0):
                raise ValueError(f"duplicate user lists in fold {fold}, model {model!r}")
            rows = np.repeat(np.arange(block.user_rows.size), np.diff(block.indptr))
            non_finite = np.flatnonzero(~np.isfinite(block.scores))
            fault = ((int(non_finite[0]), "non-finite") if non_finite.size
                     else list_contract_fault(rows, block.items, block.scores))
            if fault is not None:
                pos, reason = fault
                what = {"non-finite": "non-finite score",
                        "duplicate item": "duplicate item within a list"}.get(
                    reason, "list not sorted (score desc, ties by item id)")
                user = self._users.id(int(block.user_rows[rows[pos]]))
                raise ValueError(f"{what} in fold {fold}, model {model!r}, user {user!r}")
        return self

    # -- accessors ---------------------------------------------------------

    @property
    def user_index(self) -> IdIndex:
        return self._users

    @property
    def item_index(self) -> IdIndex:
        return self._items

    def folds(self) -> list[int]:
        return sorted({fold for (fold, _) in self._blocks})

    def models(self, fold: int | None = None) -> list[str]:
        if fold is None:
            return sorted({m for (_, m) in self._blocks})
        return sorted({m for (f, m) in self._blocks if f == fold})

    def has_block(self, fold: int, model: str) -> bool:
        return (fold, model) in self._blocks

    def block(self, fold: int, model: str) -> _Block:
        try:
            return self._blocks[(fold, model)]
        except KeyError:
            raise KeyError(f"no lists for model {model!r} in fold {fold}") from None

    def users(self, fold: int, model: str) -> list[str]:
        block = self.block(fold, model)
        return [self._users.id(int(u)) for u in block.user_rows]

    def scored_list(self, fold: int, model: str, user: str) -> list[ScoredItem]:
        block = self.block(fold, model)
        index = self._users.index(user)
        row = int(np.searchsorted(block.user_rows, index))
        if row == block.user_rows.size or block.user_rows[row] != index:
            raise KeyError(f"no list for user {user!r} in fold {fold}, model {model!r}")
        return self._scored_row(block, row)

    def ranked_ids(self, fold: int, model: str, user: str, limit: int | None = None
                   ) -> list[str]:
        """Item ids of a stored list, optionally truncated, scores dropped."""
        return [si.item_id for si in self.scored_list(fold, model, user)[:limit]]

    def entries(self) -> Iterator[tuple[tuple[int, str, str], list[ScoredItem]]]:
        """Iterate ((fold, model, user), list) in (fold, model, user) order."""
        for (fold, model) in sorted(self._blocks):
            block = self._blocks[(fold, model)]
            for row, u in enumerate(block.user_rows):
                yield (fold, model, self._users.id(int(u))), self._scored_row(block, row)

    def _scored_row(self, block: _Block, row: int) -> list[ScoredItem]:
        span = slice(block.indptr[row], block.indptr[row + 1])
        ids = self._items.ids
        return [ScoredItem(ids[i], s) for i, s in zip(block.items[span].tolist(),
                                                      block.scores[span].tolist())]

    def n_lists(self) -> int:
        return sum(len(b.user_rows) for b in self._blocks.values())

    def ensure_supports_k(self, k: int):
        """Raise if any stored list is shorter than k, naming the first gap."""
        for (fold, model) in sorted(self._blocks):
            block = self._blocks[(fold, model)]
            lengths = np.diff(block.indptr)
            short = np.flatnonzero(lengths < k)
            if short.size:
                user = self._users.id(int(block.user_rows[int(short[0])]))
                raise ValueError(
                    f"list for fold {fold}, model {model!r}, user {user!r} has "
                    f"{int(lengths[short[0]])} items but k={k} was requested")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PredictionMatrix):
            return NotImplemented
        return list(self.entries()) == list(other.entries())


@dataclass(frozen=True)
class ModelWeights:
    """Per (fold, model) fusion weights, each a validation NDCG in [0, 1]."""

    weights: Mapping[tuple[int, str], float]
    cutoff_n: int

    def __post_init__(self):
        for key, w in self.weights.items():
            if not (0.0 <= w <= 1.0) or not math.isfinite(w):
                raise ValueError(f"weight for {key} is {w}, must be in [0, 1]")
        if self.cutoff_n < 1:
            raise ValueError("cutoff_n must be >= 1")

    def weight(self, fold: int, model: str) -> float:
        try:
            return self.weights[(fold, model)]
        except KeyError:
            raise KeyError(f"no weight for model {model!r} in fold {fold}") from None

