"""Seeded inputs for the benchmark workloads.

Every input the program sees is written here, before any timing starts:
interaction CSVs, external prediction-matrix CSVs and the experiment config.
The generator is the benchmark's own (numpy PCG64 seeded from the workload
name and `--seed`), not the program's, so a change to the program cannot
change its inputs; the sha256 of every file is recorded to prove it.

Why each workload exists (see README.md for the layer each one stresses):

- fit-wide: the widest catalog and most events. Baseline fit and per-row
  scoring grow with users x items^2, so `baselines` dominates; selection is
  nearly absent (one n, two k, two folds).
- greedy-sweep: three small in-config synthetic datasets, the full
  9-value k sweep at three n over three folds, greedy selection.
  Incumbent-plus-one candidate evaluations (`FoldFuser.ndcg`) dominate;
  prepare is a small share.
- ingest-exhaustive: four external prediction matrices with deliberate
  score ties, read from CSV and merged, then exhaustive subset search. The
  only workload on the external-model route and the only one that scores
  arbitrary subsets.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIX_KINDS = (
    ("popularity", "ppl"),
    ("user-knn", "uknn"),
    ("item-knn", "iknn"),
    ("item-item-cosine", "cos"),
    ("item-item-tfidf", "tfidf"),
    ("item-item-bm25", "bm25"),
)


def _rng(name: str, seed: int, stream: int = 0) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng([seed & 0xFFFFFFFF, tag, stream])


def _user_id(u: int) -> str:
    return f"u{u:04d}"


def _item_id(i: int) -> str:
    return f"i{i:05d}"


@dataclass
class _Population:
    """Latent tastes shared by the interactions and the external models."""

    affinity: np.ndarray      # (users, items) preference score
    events: list[np.ndarray]  # per user: sorted item indices interacted with


def _population(rng: np.random.Generator, n_users: int, n_items: int,
                n_events: int, n_factors: int = 8) -> _Population:
    users = rng.standard_normal((n_users, n_factors))
    items = rng.standard_normal((n_items, n_factors))
    affinity = users @ items.T / np.sqrt(n_factors)
    # Zipf-like popularity over a random item order.
    popularity = np.empty(n_items)
    popularity[rng.permutation(n_items)] = 1.5 * np.arange(1, n_items + 1) ** -0.5
    affinity += popularity

    # Per-user quotas proportional to U(0.5, 1.5), summing to n_events.
    draws = rng.uniform(0.5, 1.5, n_users)
    exact = n_events * draws / draws.sum()
    quotas = np.floor(exact).astype(np.int64)
    short = n_events - int(quotas.sum())
    quotas[np.argsort(quotas - exact, kind="stable")[:short]] += 1
    if quotas.max() >= n_items:
        raise ValueError("a user's quota exceeds the catalog")

    gumbel = -np.log(-np.log(rng.uniform(1e-12, 1.0, (n_users, n_items))))
    noisy = affinity + 0.8 * gumbel
    events = []
    for u in range(n_users):
        top = np.argpartition(-noisy[u], quotas[u] - 1)[:quotas[u]]
        events.append(np.sort(top))
    return _Population(affinity, events)


def _write_interactions(pop: _Population, path: Path) -> int:
    lines = ["user,item,rating,timestamp"]
    ts = 0
    for u, items in enumerate(pop.events):
        uid = _user_id(u)
        for i in items:
            lines.append(f"{uid},{_item_id(int(i))},1,{ts}")
            ts += 1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ts


def _write_external_matrix(pop: _Population, rng: np.random.Generator,
                           model: str, n_folds: int, list_len: int,
                           path: Path, unsorted: bool = False) -> int:
    """One external model's top-`list_len` lists for every user and fold.

    Scores are quantized to steps of 0.05, so equal scores are common inside
    lists and some ties straddle the k cut-offs; ties are ordered by item id
    as the matrix format requires. With `unsorted`, the first list's top two
    rows are swapped, which the program must reject.
    """
    n_users, n_items = pop.affinity.shape
    skill = rng.uniform(0.4, 1.0)
    lines = ["fold,model,user,item,score"]
    for fold in range(n_folds):
        noise = rng.standard_normal((n_users, n_items))
        raw = skill * pop.affinity + (1.0 - skill) * 2.0 * noise
        scores = np.round(raw * 20.0) / 20.0
        for u in range(n_users):
            row = scores[u]
            # The list_len-th best score, then every item at least that good,
            # then the exact (score desc, item asc) order and the cut.
            cut = np.partition(-row, list_len - 1)[list_len - 1]
            cand = np.flatnonzero(-row <= cut)
            cand = cand[np.lexsort((cand, -row[cand]))][:list_len]
            uid = _user_id(u)
            rows = [f"{fold},{model},{uid},{_item_id(int(i))},{float(row[i])!r}"
                    for i in cand]
            if unsorted and fold == 0 and u == 0:
                rows[0], rows[1] = rows[1], rows[0]
            lines.extend(rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return n_folds * n_users * list_len


@dataclass(frozen=True)
class Workload:
    name: str
    n_folds: int
    n_values: tuple[int, ...]
    k_values: tuple[int, ...] | None   # None: the program's default sweep
    mode: str
    builtin: tuple[tuple[str, str], ...]
    csv: tuple[int, int, int] | None = None    # (users, items, events)
    synthetic: tuple[tuple[int, int, int], ...] = ()  # in-config recipes
    external: int = 0                 # external matrix models (need csv)
    external_len: int = 0             # items per external list
    bad_matrix: bool = False

    def cells(self) -> int:
        """(dataset, n) cells one run attempts."""
        datasets = (self.csv is not None) + len(self.synthetic)
        return datasets * len(self.n_values)

    def build(self, inputs: Path, seed: int) -> tuple[Path, list[dict]]:
        """Write every input file; return the config path and a file list
        with each file's kind, size, row count and sha256."""
        inputs.mkdir(parents=True, exist_ok=True)
        rng = _rng(self.name, seed)
        files: list[tuple[Path, str, int]] = []
        datasets = []
        pop = None
        if self.csv is not None:
            pop = _population(rng, *self.csv)
            path = inputs / "interactions.csv"
            rows = _write_interactions(pop, path)
            files.append((path, "interactions", rows))
            datasets.append({"name": "csv", "path": path.as_posix()})
        for j, (users, items, events) in enumerate(self.synthetic):
            datasets.append({"name": f"syn{j}", "synthetic": {
                "n_users": users, "n_items": items, "n_interactions": events,
                "seed": int(rng.integers(0, 2**62))}})

        models = [{"kind": kind, "id": mid} for kind, mid in self.builtin]
        for j in range(self.external):
            model = f"ext{j + 1}"
            path = inputs / f"matrix_{model}.csv"
            rows = _write_external_matrix(
                pop, _rng(self.name, seed, j + 1), model, self.n_folds,
                self.external_len, path,
                unsorted=self.bad_matrix and j == 0)
            files.append((path, "matrix", rows))
            models.append({"id": model, "matrix": path.as_posix()})

        config = {
            "seed": int(rng.integers(0, 2**62)),
            "output_dir": (inputs / "unused-out").as_posix(),
            "datasets": datasets,
            "models": models,
            "n_values": list(self.n_values),
            "n_folds": self.n_folds,
            "selection": {"mode": self.mode},
        }
        if self.k_values is not None:
            config["k_values"] = list(self.k_values)
        config_path = inputs / "config.json"
        config_path.write_text(json.dumps(config, indent=2, sort_keys=True)
                               + "\n", encoding="utf-8")
        files.append((config_path, "config", 0))
        return config_path, [
            {"path": p.as_posix(), "kind": kind, "rows": rows,
             "bytes": p.stat().st_size, "sha256": sha256_file(p)}
            for p, kind, rows in files]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (
    Workload("fit-wide", n_folds=2, n_values=(10,), k_values=(10, 20),
             mode="greedy", builtin=SIX_KINDS, csv=(700, 1300, 35_000)),
    # Three independent synthetic datasets: the greedy path length and the
    # ensemble sizes depend on the data, and summing three paths keeps the
    # evaluation count steady across seeds (sd/median 0.015 over six seeds).
    Workload("greedy-sweep", n_folds=3, n_values=(5, 10, 20), k_values=None,
             mode="greedy", builtin=SIX_KINDS,
             synthetic=((40, 300, 2_000),) * 3),
    Workload("ingest-exhaustive", n_folds=3, n_values=(10,), k_values=(10, 25),
             mode="exhaustive",
             builtin=(("popularity", "ppl"), ("item-item-cosine", "cos")),
             csv=(200, 800, 12_000), external=4, external_len=150),
)}

# Tiny workloads for selftest.py only: every layer at a scale of seconds,
# and the same shape with one external list out of order.
_TINY = dict(n_folds=2, n_values=(5,), k_values=(5, 10), mode="greedy",
             builtin=(("popularity", "ppl"), ("item-item-cosine", "cos")),
             csv=(60, 90, 1200), synthetic=((40, 60, 600),), external=1,
             external_len=12)
SELFTEST = {w.name: w for w in (
    Workload("selftest", **_TINY),
    Workload("selftest-bad", **_TINY, bad_matrix=True),
)}
