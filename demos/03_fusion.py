"""Weighted rank fusion: how member lists merge into one.

Each model's stored scores are min-max normalized, then every item's
fused score is the sum over members of (weight x normalized score),
where a model's weight is its own validation NDCG. A model that ranks
well on validation therefore pulls the fused order toward its view.
"""

from recfuse.baselines import fit, generate_matrix, train_incidence
from recfuse.core import PredictionMatrix
from recfuse.data import split_folds
from recfuse.fusion import fuse_all, fuse_user, normalize_scores
from recfuse.metrics import holdout_keys
from recfuse.selection import compute_weights
from recfuse.synthetic import generate_interactions


def main():
    dataset = generate_interactions(n_users=120, n_items=100,
                                    n_interactions=3600, seed=3)
    folds = split_folds(dataset, seed=11, n_folds=2)

    # Each fold's models score their lists; the folds join into one matrix.
    parts = []
    for s in folds:
        train = train_incidence(s.indexed_subset("train"))
        parts.append(generate_matrix(s.fold_index, [
            fit(kind, train, model_id=mid)
            for kind, mid in (("popularity", "ppl"),
                              ("item-item-cosine", "cos"),
                              ("user-knn", "uknn"))], k_max=10))
    raw = PredictionMatrix.union(parts)
    norm = normalize_scores(raw, "global-minmax")
    # Weights score each model against its fold's validation holdout,
    # translated once to dense (user, item) keys over the matrix's indexes.
    validation = {s.fold_index: holdout_keys(s.indexed_subset("validation"),
                                             raw.user_index, raw.item_index)
                  for s in folds}
    weights = compute_weights(raw, validation, n=5)

    print("fusion weights (validation ndcg@5 per fold and model):")
    for fold in raw.folds():
        for model in raw.models(fold):
            print(f"  fold {fold}  {model:5s} {weights.weight(fold, model):.4f}")
    print()

    user = norm.users(0, "cos")[0]
    per_model = {m: norm.scored_list(0, m, user) for m in ("cos", "uknn")}
    for model, lst in per_model.items():
        head = ", ".join(f"{si.item_id}:{si.score:.3f}" for si in lst[:5])
        print(f"{model:5s} top-5 for {user!r}: {head}")

    fused = fuse_user(per_model, {m: weights.weight(0, m)
                                  for m in per_model}, k=10, n=5,
                      user_id=user)
    print(f"fused top-5 for {user!r}:")
    for si in fused.items:
        print(f"  {si.item_id}  {si.score:.4f}")
    print()

    # fuse_all covers every user with a stored list in the fold
    everyone = fuse_all(norm, weights, ["cos", "uknn"], fold=0, k=10, n=5)
    print(f"fuse_all produced {len(everyone)} lists for fold 0; "
          f"ties broke by item id, every list sorted by fused score desc")


if __name__ == "__main__":
    main()
