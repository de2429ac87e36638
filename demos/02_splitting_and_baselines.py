"""From raw interactions to fitted per-fold baseline models.

Each fold re-splits every user's items 60/20/20 into train, validation,
and test (users with fewer than 5 items go entirely to train). The six
built-in recommenders fit on the train split only; here we score each one
against the validation holdout to see how they compare before any fusion.
"""

from recfuse.baselines import MODEL_KINDS, fit, train_incidence
from recfuse.data import SplitSpec, split_folds
from recfuse.metrics import ndcg_model
from recfuse.synthetic import generate_interactions


def main():
    dataset = generate_interactions(n_users=200, n_items=150,
                                    n_interactions=6000, seed=7)
    folds = split_folds(dataset, SplitSpec(seed=42, n_folds=3))

    split = folds[0]
    sizes = [(len(split.pairs("train")), len(split.pairs("validation")),
              len(split.pairs("test")))]
    print(f"fold 0 split sizes (train, val, test): {sizes[0]}")

    some_user = split.users()[0]
    print(f"user {some_user!r}: train={len(split.train[some_user])} "
          f"val={len(split.validation.get(some_user, ()))} "
          f"test={len(split.test.get(some_user, ()))}")
    print()

    # The models of a fold share one train incidence, built from the train
    # pairs by index.
    train = train_incidence(split.indexed_subset("train"))
    holdouts = split.holdout("validation")
    print(f"{'model':20s} validation ndcg@5")
    for kind in MODEL_KINDS:
        model = fit(kind, train)
        lists = {u: [si.item_id
                     for si in model.recommend(u, 5, split.train[u])]
                 for u in split.train}
        score = ndcg_model(lists, holdouts, 5)
        print(f"{kind:20s} {score:.4f}")

    print()
    model = fit("item-item-cosine", train)
    consumed = split.train[some_user]
    print(f"item-item-cosine top-5 for {some_user!r} "
          f"(already-consumed items are never recommended):")
    for si in model.recommend(some_user, 5, consumed):
        print(f"  {si.item_id}  score={si.score:.4f}  "
              f"consumed={si.item_id in consumed}")


if __name__ == "__main__":
    main()
