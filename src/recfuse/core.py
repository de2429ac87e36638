"""Shared domain types for the rank-fusion pipeline.

Everything here is immutable after construction and safe to share across
parallel workers. String user/item ids are the external currency; internally
ids are mapped to dense integer indices (sorted by id, so index order equals
id order) because the hot loops fan out over (user x model x k). Ids become
indices in one place, `IdIndex.indices`, at the file and API edges.
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

    def indices(self, ids: Iterable[str]) -> np.ndarray:
        """The int32 index of each id, in input order; KeyError if unknown."""
        return np.fromiter(map(self._pos.__getitem__, ids), dtype=np.int32)

    def id(self, index: int) -> str:
        return self._ids[index]

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids


@dataclass(frozen=True)
class InteractionDataset:
    """Deduplicated (user, item) events.

    Invariants checked at construction: ids are non-empty strings and no
    (user_id, item_id) pair appears twice. Loaders are responsible for
    collapsing duplicates before building the dataset (see data module).
    """

    records: tuple[Interaction, ...]

    def __post_init__(self):
        seen: set[tuple[str, str]] = set()
        for rec in self.records:
            if not rec.user_id or not rec.item_id:
                raise ValueError("user_id and item_id must be non-empty strings")
            key = (rec.user_id, rec.item_id)
            if key in seen:
                raise ValueError(f"duplicate interaction {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.records)

    def pairs(self) -> set[tuple[str, str]]:
        return {(r.user_id, r.item_id) for r in self.records}

    def user_items(self) -> dict[str, list[str]]:
        """Items per user, each list in ascending item order."""
        out: dict[str, list[str]] = {}
        for rec in self.records:
            out.setdefault(rec.user_id, []).append(rec.item_id)
        for items in out.values():
            items.sort()
        return out

    def users(self) -> list[str]:
        return sorted({r.user_id for r in self.records})

    def items(self) -> list[str]:
        return sorted({r.item_id for r in self.records})


def collapse_duplicates(records: Iterable[Interaction]) -> list[Interaction]:
    """Collapse repeated (user, item) pairs, keeping the latest timestamp.

    Records without timestamps lose to records with one; among equal (or
    absent) timestamps the record seen last wins.
    """
    best: dict[tuple[str, str], Interaction] = {}
    for rec in records:
        key = (rec.user_id, rec.item_id)
        prev = best.get(key)
        if prev is None:
            best[key] = rec
            continue
        prev_ts = prev.timestamp if prev.timestamp is not None else -math.inf
        cur_ts = rec.timestamp if rec.timestamp is not None else -math.inf
        if cur_ts >= prev_ts:
            best[key] = rec
    return list(best.values())


_SUBSETS = ("train", "validation", "test")


@dataclass(frozen=True)
class FoldSplit:
    """One train/validation/test partition of a dataset's (user, item) pairs.

    Each subset maps user_id to a frozen set of item_ids. The three subsets
    are pairwise disjoint per user (checked at construction).
    """

    fold_index: int
    train: Mapping[str, frozenset[str]]
    validation: Mapping[str, frozenset[str]]
    test: Mapping[str, frozenset[str]]

    def __post_init__(self):
        if self.fold_index < 0:
            raise ValueError("fold_index must be non-negative")
        users = set(self.train) | set(self.validation) | set(self.test)
        for user in users:
            tr = self.train.get(user, frozenset())
            va = self.validation.get(user, frozenset())
            te = self.test.get(user, frozenset())
            if tr & va or tr & te or va & te:
                raise ValueError(f"subsets overlap for user {user!r} in fold {self.fold_index}")

    def subset(self, name: str) -> Mapping[str, frozenset[str]]:
        if name not in _SUBSETS:
            raise ValueError(f"unknown subset {name!r}")
        return getattr(self, name)

    def holdout(self, kind: str) -> Mapping[str, frozenset[str]]:
        """The validation or test item sets, keyed by user."""
        if kind not in ("validation", "test"):
            raise ValueError(f"holdout kind must be 'validation' or 'test', got {kind!r}")
        return getattr(self, kind)

    def pairs(self, name: str) -> set[tuple[str, str]]:
        return {(u, i) for u, items in self.subset(name).items() for i in items}

    def users(self) -> list[str]:
        return sorted(set(self.train) | set(self.validation) | set(self.test))


LIST_FAULTS = ("not contiguous", "non-increasing", "tie order", "duplicate item")


_JSON_NAMES = {float: "number", str: "string", Mapping: "object"}


def _json_typed(value, key: str, kind: type):
    # bool is an int subclass: JSON true/false must not pass as 1/0. A JSON
    # number (kind float) may be written without a fraction.
    name = _JSON_NAMES.get(kind, kind.__name__)
    if not isinstance(value, (int, float) if kind is float else kind) or (
            kind is not bool and isinstance(value, bool)):
        raise ValueError(f"{key} must be a JSON {name}, got {value!r}")
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
    items, and hold only finite scores; all three properties are validated
    at construction so downstream code never re-checks them.
    """

    def __init__(self, user_index: IdIndex, item_index: IdIndex,
                 blocks: Mapping[tuple[int, str], _Block], validate: bool = True):
        self._users = user_index
        self._items = item_index
        self._blocks = dict(blocks)
        if validate:
            self._validate()

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
            np.array([si.score for si in flat], dtype=np.float64), items)

    @classmethod
    def _from_lists(cls, keys: Sequence[tuple[int, str, str]],
                    lengths: Sequence[int], items: np.ndarray,
                    scores: np.ndarray, item_index: IdIndex,
                    validate: bool = True) -> "PredictionMatrix":
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
        return cls(users, item_index, blocks, validate=validate)

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
            for (fold, model), block in part._blocks.items():
                if (fold, model) in blocks:
                    raise ValueError(
                        f"duplicate lists for fold {fold}, model {model!r}")
                blocks[(fold, model)] = _Block(
                    user_map[block.user_rows], block.indptr,
                    item_map[block.items], block.scores)
        return cls(users, items, blocks, validate=False)

    def _validate(self):
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

