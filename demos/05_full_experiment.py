"""The whole pipeline from one config: folds to report bundle.

run_experiment loads each dataset, fits the roster per fold, computes
validation weights, selects an ensemble per (dataset, n) cell, and writes
CSV artifacts plus a manifest. Everything is a pure function of the
config and its seed, so rerunning reproduces the bundle byte for byte.
"""

import json
import tempfile
from pathlib import Path

from recfuse.harness import ExperimentConfig, run_experiment


def main():
    with tempfile.TemporaryDirectory(prefix="recfuse_demo_") as workdir:
        report(Path(workdir))


def report(workdir):
    config = ExperimentConfig.from_dict({
        "seed": 8,
        "output_dir": str(workdir / "report"),
        "datasets": [
            {"name": "demo", "synthetic": {
                "n_users": 200, "n_items": 150, "n_interactions": 8000,
                "popularity_weight": 0.3}},
        ],
        "models": [
            {"kind": "popularity", "id": "ppl"},
            {"kind": "item-item-cosine", "id": "cos"},
            {"kind": "item-item-bm25", "id": "bm25"},
            {"kind": "user-knn", "id": "uknn"},
        ],
        "n_values": [5, 10],
        "k_values": [10, 25, 50],
        "n_folds": 3,
    })

    result = run_experiment(config)
    print(f"report bundle in {result.output_dir}:")
    for name in result.artifacts:
        print(f"  {name}")
    print()

    for row in result.tables[("demo", 10)]:
        pct = "n/a" if row.pct is None else f"{row.pct:+d}%"
        print(f"  {row.model:10s} test ndcg@10 mean {row.mean:.4f}  "
              f"vs popularity {pct}")
    chosen = result.selections[("demo", 10)]
    members = sorted(frozenset().union(*chosen.members_per_fold))
    print(f"\nselected members per fold: "
          f"{['+'.join(sorted(m)) for m in chosen.members_per_fold]}")
    print(f"union of picks: {'+'.join(members)}")
    print(f"fold-averaged test ndcg@10 {chosen.mean_test:.4f} "
          f"(95% CI {chosen.ci[0]:.4f}..{chosen.ci[1]:.4f})")

    manifest = json.loads((result.output_dir / "manifest.json").read_text())
    print(f"\nmanifest config hash: {manifest['config_sha256'][:16]}... "
          f"(rerun with the same config to get identical bytes)")


if __name__ == "__main__":
    main()
