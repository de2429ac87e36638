"""Picking the member subset: forward greedy vs exhaustive search.

Greedy starts from the best single model and keeps adding whichever model
improves fused validation NDCG the most, stopping when nothing helps.
Exhaustive scores all 2^M - 1 nonempty subsets. Both log every candidate
they evaluate, so the search is fully auditable after the fact.
"""

from recfuse.baselines import fit, generate_matrix, train_incidence
from recfuse.core import PredictionMatrix
from recfuse.fusion import FoldFuser, normalize_scores
from recfuse.data import split_folds
from recfuse.metrics import holdout_keys
from recfuse.selection import (
    MemoizedEval,
    compute_weights,
    exhaustive_select,
    greedy_select,
)
from recfuse.synthetic import generate_interactions


def main():
    dataset = generate_interactions(n_users=150, n_items=120,
                                    n_interactions=4500, seed=19)
    folds = split_folds(dataset, seed=5, n_folds=2)

    roster = (("popularity", "ppl"), ("item-item-cosine", "cos"),
              ("item-item-bm25", "bm25"), ("user-knn", "uknn"))
    parts = []
    for s in folds:
        train = train_incidence(s.indexed_subset("train"))
        parts.append(generate_matrix(
            s.fold_index, [fit(kind, train, model_id=mid)
                           for kind, mid in roster], 10))
    raw = PredictionMatrix.union(parts)
    norm = normalize_scores(raw)
    # Each validation holdout is translated once: the weights and the
    # selection both score against it.
    validation = {s.fold_index: holdout_keys(s.indexed_subset("validation"),
                                             raw.user_index, raw.item_index)
                  for s in folds}
    weights = compute_weights(raw, validation, n=5)
    model_ids = [mid for _, mid in roster]

    fuser = FoldFuser(norm, fold=0, k=10)
    evaluator = MemoizedEval(
        lambda members: fuser.ndcg(sorted(members), weights, validation[0], 5))

    trace = greedy_select(model_ids, evaluator)
    print("greedy evaluation order (fold 0, validation ndcg@5):")
    for step in trace.steps:
        print(f"  {'+'.join(sorted(step.members)):20s} {step.ndcg:.4f}")
    print(f"greedy chose {'+'.join(sorted(trace.chosen_members))} "
          f"at {trace.chosen_ndcg:.4f} "
          f"({evaluator.calls} evaluations)\n")

    full = exhaustive_select(model_ids, evaluator)
    print(f"exhaustive scored all {len(full.steps)} subsets and chose "
          f"{'+'.join(sorted(full.chosen_members))} at {full.chosen_ndcg:.4f}")
    print(f"evaluator saw {evaluator.calls} distinct subsets in total "
          f"(greedy's work was reused from the cache)")

    agree = full.chosen_ndcg == trace.chosen_ndcg
    print(f"\ngreedy {'matched' if agree else 'fell short of'} "
          f"the exhaustive optimum on this fold")


if __name__ == "__main__":
    main()
