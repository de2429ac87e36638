"""Score normalization and weighted rank fusion.

The fusion rule: truncate each member model's ranked list to its top k,
then for every item that survives in at least one list, sum
weight(model) * normalized_score(model, item) across the lists that
contain it. The fused top-n is that sum sorted descending, ties broken
by item id ascending. FoldFuser computes it for selection and `recfuse
fuse`; fuse_user and fuse_all are the per-user reference and the API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from recfuse.core import ModelWeights, PredictionMatrix, ScoredItem
from recfuse.core import _Block, sorted_unique
from recfuse.metrics import HoldoutKeys, _holdout_hits, list_ranks, mean_ndcg

NORMALIZATION_MODES = ("global-minmax", "per-user-minmax")


@dataclass(frozen=True)
class FusedList:
    """One user's fused top-n recommendation list."""

    user_id: str
    items: tuple[ScoredItem, ...]

    def __post_init__(self):
        ids = [si.item_id for si in self.items]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate items in fused list for user {self.user_id!r}")
        for a, b in zip(self.items, self.items[1:]):
            if a.score < b.score or (a.score == b.score and a.item_id >= b.item_id):
                raise ValueError(
                    f"fused list for user {self.user_id!r} not sorted by "
                    f"score desc, item id asc")
        if any(si.score < 0 for si in self.items):
            raise ValueError(f"negative fused score for user {self.user_id!r}")

    def item_ids(self) -> list[str]:
        return [si.item_id for si in self.items]


def _normalize_block(matrix: PredictionMatrix, fold: int, model: str,
                     mode: str) -> _Block:
    """One (fold, model) block, its scores min-max rescaled to [0, 1] over
    stretches: the whole block (global) or each non-empty list (per user).
    A constant stretch maps to 1.0: a model that cannot distinguish items
    still gives each its full weight. A minimum maps to +0.0, even a -0.0
    under a +0.0 minimum, as fusion rejects a negative sign."""
    block = matrix.block(fold, model)
    scores = block.scores
    lengths = (np.diff(block.indptr) if mode == "per-user-minmax"
               else np.array([scores.size]))
    lengths = lengths[lengths > 0]
    starts = np.cumsum(lengths) - lengths
    lo = np.minimum.reduceat(scores, starts)
    span = np.maximum.reduceat(scores, starts) - lo
    if not np.isfinite(span).all():
        raise ValueError(f"scores of model {model!r} in fold {fold} span "
                         f"more than a float64 holds: cannot min-max them")
    lo, span = np.repeat([lo, span], lengths, axis=1)
    return _Block(block.user_rows, block.indptr, block.items, np.divide(
        scores - lo + 0.0, span, out=np.ones_like(scores), where=span > 0))


def normalize_scores(matrix: PredictionMatrix, mode: str = "global-minmax"
                     ) -> PredictionMatrix:
    """Rescale every model's scores into [0, 1] without reordering any list.

    Modes: 'global-minmax' rescales over all of a model's scores within a
    fold; 'per-user-minmax' rescales each user's list independently.
    Min-max never decreases along a list, so within-list order never
    changes, though rounding can tie two adjacent scores with their items
    out of id order. Such lists keep their raw order and are not checked
    again: a cut at k follows the stored order, and fusion breaks ties by
    item id. A stretch whose max - min overflows float64 raises ValueError.
    """
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization mode {mode!r}")
    return PredictionMatrix(matrix.user_index, matrix.item_index, {
        (fold, model): _normalize_block(matrix, fold, model, mode)
        for fold in matrix.folds() for model in matrix.models(fold)})


def fuse_user(per_model_lists: Mapping[str, Sequence[ScoredItem]],
              weights: Mapping[str, float],
              k: int, n: int,
              user_id: str = "") -> FusedList:
    """Fuse one user's per-model ranked lists into a weighted top-n.

    Args:
        per_model_lists: normalized ranked list per member model.
        weights: fusion weight per member model, each in [0, 1].
        k: per-model truncation depth; only each list's first k items fuse.
        n: output length cap.
        user_id: carried through to the result, not used in computation.

    Raises:
        ValueError: no models, or k < n.
    """
    if not per_model_lists:
        raise ValueError("no models")
    if n < 1:
        raise ValueError("invalid length")
    if k < n:
        raise ValueError("k must be ≥ N")
    fused: dict[str, float] = {}
    for model in sorted(per_model_lists):
        w = weights[model]
        for si in per_model_lists[model][:k]:
            fused[si.item_id] = fused.get(si.item_id, 0.0) + w * si.score
    ranked = sorted(fused.items(), key=lambda pair: (-pair[1], pair[0]))
    return FusedList(user_id, tuple(ScoredItem(i, s) for i, s in ranked[:n]))


def fuse_all(matrix: PredictionMatrix, weights: ModelWeights,
             members: Iterable[str], fold: int, k: int, n: int
             ) -> dict[str, FusedList]:
    """Fuse every user's lists for one fold and one member subset: the
    per-user reference that FoldFuser is tested against, and the API.

    Covers exactly the users that have a stored list for at least one
    member model. Results are keyed and ordered by ascending user_id.

    Raises:
        ValueError: empty members, or a member has no lists in the fold.
    """
    member_list = sorted(set(members))
    if not member_list:
        raise ValueError("no models")
    for model in member_list:
        if not matrix.has_block(fold, model):
            raise ValueError(f"no lists for model {model!r} in fold {fold}")
    covered: set[str] = set()
    for model in member_list:
        covered.update(matrix.users(fold, model))
    out: dict[str, FusedList] = {}
    for user in sorted(covered):
        lists: dict[str, Sequence[ScoredItem]] = {}
        for model in member_list:
            try:
                lists[model] = matrix.scored_list(fold, model, user)
            except KeyError:
                continue
        w = {m: weights.weight(fold, m) for m in lists}
        out[user] = fuse_user(lists, w, k, n, user_id=user)
    return out


class FoldFuser:
    """Fuse-and-score engine for one (fold, k): selection's ndcg and
    `recfuse fuse`'s top_n.

    The union of every model's top-k (user, item) pairs is laid out as a
    grid: a row per user, items ascending, padded to the widest row. Each
    model keeps a float64 row of its scores over the grid (0.0 where it
    holds nothing) and a bool row marking its cells. A candidate's fused
    grid is its first member's weighted row plus each further one's, in
    sorted member order, over the OR of their marks; one np.partition finds
    each row's n-th best. This equals fuse_all bit for bit (tested): scores
    (checked at build) and weights are non-negative, so an absent cell adds
    +0.0 and the first product equals the reference's 0.0 + a, and an
    absent 0.0 is at or below every fused score at the cut.
    """

    def __init__(self, matrix: PredictionMatrix, fold: int, k: int):
        self._fold, self._k = fold, k
        self._n_items = len(matrix.item_index)
        heads = {}
        universe = np.zeros(len(matrix.user_index) * self._n_items, dtype=bool)
        for m in matrix.models(fold):
            block = matrix.block(fold, m)
            # The sign bit, as a -0.0 would keep it through the first product.
            if np.signbit(block.scores).any():
                raise ValueError(f"negative score for model {m!r} in fold "
                                 f"{fold}: fuse normalized scores")
            top = list_ranks(block.indptr) < k
            users = np.repeat(block.user_rows.astype(np.int64),
                              np.diff(block.indptr))[top]
            keys = users * self._n_items + block.items[top]
            universe[keys] = True
            heads[m] = (keys, block.scores[top], block.user_rows)
        keys = np.flatnonzero(universe)
        _, widths = np.unique(keys // self._n_items, return_counts=True)
        self._width = int(widths.max(initial=1))
        # Slots come grouped by user: cell = row start + rank within the row.
        cells = (np.repeat(np.arange(widths.size) * self._width, widths)
                 + list_ranks(np.append(0, np.cumsum(widths))))
        self._keys = np.zeros(widths.size * self._width, dtype=np.int64)
        self._keys[cells] = keys    # padding cells are never marked
        # int32 halves this U x I transient.
        cell_of = np.empty(universe.size, dtype=np.int32)
        cell_of[keys] = cells
        self._rows = {}
        for m, (model_keys, scores, users) in heads.items():
            at, size = cell_of[model_keys], self._keys.size
            row, held = np.zeros(size), np.zeros(size, dtype=bool)
            row[at], held[at] = scores, True
            self._rows[m] = (row, held, users)
        self._hit_masks: dict[int, tuple[HoldoutKeys, np.ndarray]] = {}

    def _fuse(self, members: Sequence[str], weights: ModelWeights, n: int):
        """(fused grid, kept cells in list order, their ranks in their rows)
        of one member subset; kept holds each row's top n and its ties."""
        member_list = sorted(set(members))
        if not member_list:
            raise ValueError("no models")
        if n < 1:
            raise ValueError("invalid length")
        if self._k < n:
            raise ValueError("k must be ≥ N")
        for i, model in enumerate(member_list):
            if model not in self._rows:
                raise ValueError(
                    f"no lists for model {model!r} in fold {self._fold}")
            row, held, _ = self._rows[model]
            if i == 0:
                fused = row * weights.weight(self._fold, model)
                present = held.copy()
            else:
                fused += row * weights.weight(self._fold, model)
                present |= held
        width = self._width
        if width > n:
            # Clear, through a view of present, every cell below its row's
            # n-th largest fused score (none in a row with fewer than n).
            grid = fused.reshape(-1, width)
            top = present.reshape(-1, width)
            top &= grid >= np.partition(grid, width - n, axis=1)[:, [-n]]
        kept = np.flatnonzero(present)
        rows = kept // width
        # Stable, so equal (row, fused) keep their ascending item order; rows
        # were ascending already, so they stay in step with the sorted cells.
        kept = kept[np.lexsort((-fused[kept], rows))]
        rank = list_ranks(np.append(0, np.cumsum(np.bincount(rows))))
        return fused, kept, rank

    def ndcg(self, members: Sequence[str], weights: ModelWeights,
             holdout: HoldoutKeys, n: int,
             include_empty_holdout_users: bool = False) -> float:
        """Mean NDCG@n of the fused lists for one member subset, against a
        holdout built over this fuser's matrix (metrics.holdout_keys).

        Raises:
            ValueError: no members, n < 1, k < n, or a member has no lists
                in this fold.
        """
        _, kept, rank = self._fuse(members, weights, n)
        if id(holdout) not in self._hit_masks:
            # The entry keeps the holdout alive, so no other takes its id.
            self._hit_masks[id(holdout)] = (
                holdout, _holdout_hits(self._keys, holdout.keys))
        hit = (rank < n) & self._hit_masks[id(holdout)][1][kept]
        # Users covered only by empty lists still count (score 0).
        covered = sorted_unique(np.concatenate(
            [self._rows[m][2] for m in set(members)]))
        return mean_ndcg(covered, self._keys[kept[hit]] // self._n_items,
                         rank[hit], holdout, n, include_empty_holdout_users)

    def top_n(self, members: Sequence[str], weights: ModelWeights, n: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """fuse_all's lists as flat (user index, item index, fused score)
        arrays in list order, users ascending. Raises as ndcg."""
        fused, kept, rank = self._fuse(members, weights, n)
        kept = kept[rank < n]
        return (*np.divmod(self._keys[kept], self._n_items), fused[kept])
