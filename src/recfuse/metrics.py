"""Ranking quality metrics.

NDCG here uses a fixed-length ideal: idcg(n) always discounts n positions,
regardless of how many holdout items a user actually has. A user with two
holdout items and a perfect length-3 list therefore scores below 1.0. That
is deliberate and every consumer in this package relies on it.

The per-user functions (ndcg_user, ndcg_model) are the reference over string
ids. The pipeline's paths over dense indices (ndcg_rows over CSR blocks,
fusion.FoldFuser over its grid) find hits, then share mean_ndcg, which
repeats ndcg_model's float operations in order: all are bit-identical.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from recfuse.core import IdIndex, IndexedPairs, sorted_unique


def left_sum(values: Iterable[float]) -> float:
    """The values added left to right from 0.0. Builtin sum() compensates
    float adds from Python 3.12 on, so its last bit depends on the version."""
    return functools.reduce(operator.add, values, 0.0)


def dcg(rel: Sequence[float]) -> float:
    """Discounted cumulative gain of a relevance vector.

    Args:
        rel: relevance per rank, position 1 first.

    Returns:
        sum of rel_i / log2(i + 1) over 1-based positions i.
    """
    if len(rel) == 0:
        raise ValueError("empty list")
    return left_sum(r / math.log2(i) for i, r in enumerate(rel, start=2))


def idcg(n: int) -> float:
    """Ideal DCG for a list of length n: every position relevant."""
    if n <= 0:
        raise ValueError("invalid length")
    return left_sum(1.0 / math.log2(i + 1) for i in range(1, n + 1))


def ndcg_user(ranked_items: Sequence[str], holdout: Iterable[str], n: int) -> float:
    """NDCG of one user's ranked list against their holdout items.

    Only the first n entries of ranked_items are scored. A list shorter than
    n contributes gain only for the positions it fills, but the denominator
    stays idcg(n), so short lists are penalized.
    """
    if n <= 0:
        raise ValueError("invalid length")
    holdout_set = holdout if isinstance(holdout, (set, frozenset)) else set(holdout)
    head = ranked_items[:n]
    if len(head) == 0:
        return 0.0
    rel = [1.0 if item in holdout_set else 0.0 for item in head]
    return dcg(rel) / idcg(n)


def ndcg_model(lists: Mapping[str, Sequence[str]],
               holdouts: Mapping[str, Iterable[str]],
               n: int,
               include_empty_holdout_users: bool = False) -> float:
    """Mean per-user NDCG over an evaluation population.

    Users whose holdout is empty (or missing from `holdouts`) are excluded
    by default; with include_empty_holdout_users they count as 0 instead.
    Summation runs in ascending user_id order so the result is reproducible
    regardless of mapping iteration order.

    Raises:
        ValueError: no users survive the population rule.
    """
    if n <= 0:
        raise ValueError("invalid length")
    total = 0.0
    count = 0
    for user in sorted(lists):
        holdout = holdouts.get(user)
        if not holdout:
            if include_empty_holdout_users:
                count += 1
            continue
        total += ndcg_user(lists[user], holdout, n)
        count += 1
    if count == 0:
        raise ValueError("empty evaluation population")
    return total / count


class HoldoutKeys(NamedTuple):
    """A holdout over dense indices: sorted unique user * n_items + item
    keys, and per user index whether the holdout is non-empty."""

    keys: np.ndarray
    nonempty: np.ndarray


def holdout_keys(holdouts: IndexedPairs, users: IdIndex, items: IdIndex
                 ) -> HoldoutKeys:
    """A holdout's (user, item) pairs as HoldoutKeys over these indexes.

    Users outside the user index own no list and are dropped. Items outside
    the item index can never hit, but still make their user's holdout
    non-empty.
    """
    rows = users.indices(holdouts.users.ids, missing=-1)[holdouts.user_rows]
    cols = items.indices(holdouts.items.ids, missing=-1)[holdouts.item_cols]
    nonempty = np.zeros(len(users), dtype=bool)
    nonempty[rows[rows >= 0]] = True
    hits = (rows >= 0) & (cols >= 0)
    keys = rows[hits].astype(np.int64) * len(items) + cols[hits]
    return HoldoutKeys(sorted_unique(keys), nonempty)


def list_ranks(indptr: np.ndarray) -> np.ndarray:
    """0-based position of every entry of a CSR block within its own row."""
    return (np.arange(indptr[-1], dtype=np.int64)
            - np.repeat(indptr[:-1], np.diff(indptr)))


def _holdout_hits(queries: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each query key is in the sorted unique holdout keys."""
    # A query past the last key lands on the sentinel, which cannot hit.
    return np.append(keys, -1)[np.searchsorted(keys, queries)] == queries


def ndcg_rows(user_rows: np.ndarray, indptr: np.ndarray, items: np.ndarray,
              n_items: int, holdout: HoldoutKeys, n: int,
              include_empty_holdout_users: bool = False) -> float:
    """ndcg_model over a CSR block: row r, for user user_rows[r] (ascending),
    ranks items[indptr[r]:indptr[r + 1]]. Every row is a stored list, so it
    takes part in the population rule even when it is empty."""
    if n <= 0:
        raise ValueError("invalid length")
    rank = list_ranks(indptr)
    head = rank < n
    entry_users = np.repeat(user_rows.astype(np.int64), np.diff(indptr))[head]
    hit = _holdout_hits(entry_users * n_items + items[head], holdout.keys)
    return mean_ndcg(user_rows, entry_users[hit], rank[head][hit], holdout, n,
                     include_empty_holdout_users)


@functools.lru_cache(maxsize=None)
def _discounts(n: int) -> np.ndarray:
    """1 / log2(i + 1) for 1-based positions i = 1..n, read-only."""
    out = np.array([1.0 / math.log2(i + 1) for i in range(1, n + 1)])
    out.flags.writeable = False
    return out


def mean_ndcg(population: np.ndarray, hit_users: np.ndarray,
              hit_ranks: np.ndarray, holdout: HoldoutKeys, n: int,
              include_empty_holdout_users: bool = False) -> float:
    """ndcg_model's tail: population holds the ascending user indices of
    the stored lists (empty ones included); hit_users and hit_ranks the user
    and 0-based rank (< n) of every hit, each user's hits in rank order."""
    scored = population[holdout.nonempty[population]]
    count = population.size if include_empty_holdout_users else scored.size
    if count == 0:
        raise ValueError("empty evaluation population")
    # Same float operations in the same order as dcg/ndcg_user/ndcg_model:
    # bincount adds each user's gains in rank order, and cumsum (unlike
    # pairwise np.sum) adds the per-user scores in ascending user order.
    gains = np.bincount(hit_users, weights=_discounts(n)[hit_ranks],
                        minlength=holdout.nonempty.size)
    scores = np.cumsum(gains[scored] / idcg(n))
    return (float(scores[-1]) if scores.size else 0.0) / count
