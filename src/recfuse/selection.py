"""Model weighting and ensemble subset search.

compute_weights scores each model against its fold's validation holdout,
given in dense keys (metrics.HoldoutKeys) that the caller builds once.

Both search modes consume an evaluation callable mapping a candidate member
set to its selection-split NDCG, so the same code drives real fold
evaluations (harness.run_selection, over fusion.FoldFuser) and synthetic
score tables in tests. Neither search scores a member set twice; only
acceptance criterion 3 and the tests use the caching MemoizedEval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from recfuse.core import FoldSplit, ModelWeights, PredictionMatrix
from recfuse.fusion import fuse_all
from recfuse.metrics import HoldoutKeys, ndcg_model, ndcg_rows

# Strict-improvement guard: a candidate must beat the incumbent by more than
# this before greedy accepts it, so float noise cannot grow the ensemble.
GREEDY_TOLERANCE = 1e-12

EXHAUSTIVE_LIMIT = 20


@dataclass(frozen=True)
class TraceStep:
    """One evaluated candidate subset."""

    members: frozenset[str]
    ndcg: float


@dataclass(frozen=True)
class SelectionTrace:
    """Every candidate a search evaluated, in evaluation order, plus the pick."""

    mode: str
    steps: tuple[TraceStep, ...]
    chosen_members: frozenset[str]
    chosen_ndcg: float

    def __post_init__(self):
        if self.mode not in ("greedy", "exhaustive"):
            raise ValueError(f"unknown selection mode {self.mode!r}")
        if not self.chosen_members:
            raise ValueError("chosen_members must be nonempty")


def compute_weights(matrix: PredictionMatrix,
                    holdouts: Mapping[int, HoldoutKeys], n: int,
                    include_empty_holdout_users: bool = False) -> ModelWeights:
    """Validation NDCG@n per (fold, model): the fusion weights.

    `holdouts` maps each fold to its validation holdout over the matrix's
    indexes (metrics.holdout_keys). Only the lists' items are read, and
    normalization cannot change a list's order, so a raw and a normalized
    matrix give identical weights; the pipeline passes the normalized one.

    Raises:
        ValueError: a (fold, model) pair has no lists, or a matrix fold has
            no holdout or one over another number of users.
    """
    model_roster = matrix.models()
    n_users, n_items = len(matrix.user_index), len(matrix.item_index)
    table: dict[tuple[int, str], float] = {}
    for fold in matrix.folds():
        holdout = holdouts.get(fold)
        if holdout is None:
            raise ValueError(f"no holdout provided for fold {fold}")
        if holdout.nonempty.size != n_users:
            raise ValueError(f"fold {fold}'s holdout is over "
                             f"{holdout.nonempty.size} users, not {n_users}")
        for model in model_roster:
            if not matrix.has_block(fold, model):
                raise ValueError(f"no lists for model {model!r} in fold {fold}")
            block = matrix.block(fold, model)
            table[(fold, model)] = ndcg_rows(
                block.user_rows, block.indptr, block.items, n_items, holdout,
                n, include_empty_holdout_users)
    return ModelWeights(table, n)


def evaluate_ensemble(members: Sequence[str] | frozenset[str],
                      matrix: PredictionMatrix, weights: ModelWeights,
                      split: FoldSplit, k: int, n: int,
                      holdout_kind: str = "test",
                      include_empty_holdout_users: bool = False) -> float:
    """NDCG@n of the fused member lists against one fold's holdout.

    The matrix must already be normalized (see fusion.normalize_scores);
    this is the reference implementation that fusion.FoldFuser is tested
    against.
    """
    fused = fuse_all(matrix, weights, members, split.fold_index, k, n)
    lists = {user: fl.item_ids() for user, fl in fused.items()}
    return ndcg_model(lists, split.holdout(holdout_kind), n,
                      include_empty_holdout_users=include_empty_holdout_users)


class MemoizedEval:
    """Wrap a candidate evaluator with a by-members cache and a call count."""

    def __init__(self, fn: Callable[[frozenset[str]], float]):
        self._fn = fn
        self._cache: dict[frozenset[str], float] = {}
        self.calls = 0

    def __call__(self, members: frozenset[str]) -> float:
        cached = self._cache.get(members)
        if cached is not None:
            return cached
        self.calls += 1
        value = self._fn(members)
        self._cache[members] = value
        return value


def greedy_select(models: Sequence[str],
                  eval_fn: Callable[[frozenset[str]], float]) -> SelectionTrace:
    """Forward greedy subset search.

    Each round scores the incumbent plus each unused model and keeps the
    best. The first round, from the empty set, is accepted outright, so it
    picks the best singleton; a later one only on strict improvement
    (> GREEDY_TOLERANCE). Candidates are evaluated in sorted model order
    and ties resolve to the earlier candidate, so the trace is deterministic.
    """
    roster = sorted(set(models))
    if not roster:
        raise ValueError("no models")
    steps: list[TraceStep] = []
    current, current_score = frozenset(), None
    while len(current) < len(roster):
        round_best = round_score = None
        for model in roster:
            if model in current:
                continue
            candidate = current | {model}
            score = eval_fn(candidate)
            steps.append(TraceStep(candidate, score))
            if round_score is None or score > round_score:
                round_best, round_score = candidate, score
        if current_score is not None and not (
                round_score > current_score + GREEDY_TOLERANCE):
            break
        current, current_score = round_best, round_score

    return SelectionTrace("greedy", tuple(steps), current, current_score)


def exhaustive_select(models: Sequence[str],
                      eval_fn: Callable[[frozenset[str]], float]) -> SelectionTrace:
    """Evaluate all 2^M - 1 nonempty subsets and keep the maximizer.

    Subsets are enumerated in bitmask order over the sorted roster; score
    ties resolve to the lexicographically smallest sorted member tuple.
    """
    roster = sorted(set(models))
    if not roster:
        raise ValueError("no models")
    if len(roster) > EXHAUSTIVE_LIMIT:
        raise ValueError("exhaustive limit exceeded")
    steps: list[TraceStep] = []
    best_members: frozenset[str] | None = None
    best_key: tuple[float, tuple[str, ...]] | None = None
    for mask in range(1, 1 << len(roster)):
        members = frozenset(roster[i] for i in range(len(roster))
                            if mask & (1 << i))
        score = eval_fn(members)
        steps.append(TraceStep(members, score))
        key = (-score, tuple(sorted(members)))
        if best_key is None or key < best_key:
            best_key, best_members = key, members
    return SelectionTrace("exhaustive", tuple(steps), best_members, -best_key[0])

