"""Config-driven experiment runner.

One run: load or generate each dataset, split it into seeded folds, fit the
built-in models per fold (and ingest any external prediction matrices),
compute validation weights, then per cutoff n produce the per-model score
table, the ensemble selection trace, and the k-sweep aggregate CSV, all
fold-averaged with 95% confidence intervals.

Every artifact is deterministic for a given config and seed: file row
orders are fixed, floats are serialized at 17 significant digits, and all
aggregation loops run in sorted (dataset, fold, model, user) order. The
only non-deterministic output is timings.json, which is excluded from the
reproducibility contract.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import resource
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from recfuse import __version__ as _package_version
from recfuse.baselines import (
    ITEM_COSINE_KINDS,
    MODEL_KINDS,
    FittedModel,
    fit,
    fit_params,
    generate_matrix,
    train_incidence,
)
from recfuse.core import (
    FoldSplit,
    ModelWeights,
    PredictionMatrix,
    _json_typed,
)
from recfuse.data import (
    check_interaction_format,
    csv_writer,
    fnv1a64,
    format_score,
    load_interactions,
    read_matrix,
    split_folds,
    write_splits,
    write_weights,
)
from recfuse.fusion import NORMALIZATION_MODES, FoldFuser, normalize_scores
from recfuse.metrics import HoldoutKeys, holdout_keys, left_sum, ndcg_rows
from recfuse.selection import (
    EXHAUSTIVE_LIMIT,
    SelectionTrace,
    compute_weights,
    exhaustive_select,
    greedy_select,
)
from recfuse.synthetic import check_recipe, generate_interactions

log = logging.getLogger(__name__)

# Two-sided Student t critical values at 95% confidence (0.975 quantile),
# indexed by degrees of freedom. Embedded so the package needs no scipy.
T_TABLE_95 = {
    1: 12.706204736432095, 2: 4.302652729696142, 3: 3.182446305284263,
    4: 2.7764451051977987, 5: 2.570581835636314, 6: 2.4469118511449692,
    7: 2.3646242515927844, 8: 2.306004135204166, 9: 2.2621571628540993,
    10: 2.2281388519649385, 11: 2.200985160082949, 12: 2.1788128296634177,
    13: 2.1603686564610127, 14: 2.1447866879169273, 15: 2.131449545559323,
    16: 2.1199052992210112, 17: 2.1098155778331806, 18: 2.10092204024096,
    19: 2.093024054408263, 20: 2.0859634472658364, 21: 2.079613844727662,
    22: 2.0738730679040147, 23: 2.0686576104190406, 24: 2.0638985616280205,
    25: 2.059538552753294, 26: 2.055529438642871, 27: 2.0518305164802833,
    28: 2.048407141795244, 29: 2.045229642132703, 30: 2.0422724563012373,
}


def confidence_interval(values: Sequence[float], level: float = 0.95
                        ) -> tuple[float, float]:
    """Student-t confidence interval for the mean of a small sample.

    Only the 95% level is supported (the embedded critical-value table);
    degrees of freedom must be 30 or less.
    """
    if len(values) < 2:
        raise ValueError("need at least 2 values")
    if level != 0.95:
        raise ValueError("only level=0.95 is supported")
    df = len(values) - 1
    if df not in T_TABLE_95:
        raise ValueError(f"no critical value embedded for df={df}")
    n = len(values)
    mean = left_sum(values) / n
    var = left_sum((v - mean) ** 2 for v in values) / df
    half = T_TABLE_95[df] * math.sqrt(var) / math.sqrt(n)
    return (mean - half, mean + half)


def pct_vs_ppl(mean: float, ppl_mean: float) -> int | None:
    """Percent gain over the popularity baseline, rounded half away
    from zero. None when the baseline mean is not positive."""
    if ppl_mean <= 0:
        return None
    x = (mean / ppl_mean - 1.0) * 100.0
    if x >= 0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


# -- configuration -------------------------------------------------------------

VALID_N_VALUES = (5, 10, 20)
DEFAULT_K_VALUES = (5, 10, 15, 25, 50, 75, 100, 125, 150)
SELECTION_MODES = ("greedy", "exhaustive")
SELECTION_SPLITS = ("validation", "paper-faithful")
SELECTION_SCOPES = ("per-fold", "fixed-subset")


def _json_object(raw, context: str, types: Mapping[str, type],
                 required: Sequence[str] = (), nullable: Sequence[str] = ()
                 ) -> Mapping:
    """`raw`, checked as a JSON object of `types`' keys, each value of its
    key's JSON type. A null passes only for a `nullable` key, as absent."""
    unknown = sorted(set(_json_typed(raw, context, Mapping)) - set(types))
    if unknown:
        raise ValueError(f"unknown {context} key(s): {', '.join(unknown)}")
    for key in required:
        if key not in raw:
            raise ValueError(f"{context} is missing required key {key!r}")
    for key, value in raw.items():
        if value is not None or key not in nullable:
            _json_typed(value, f"{context} {key}", types[key])
    return raw


@dataclass(frozen=True)
class DatasetConfig:
    """One dataset: either a file to load or a synthetic recipe."""

    name: str
    path: str | None = None
    format: str = "csv"
    columns: Mapping[str, str | int] | None = None
    synthetic: Mapping[str, int | float] | None = None

    _TYPES = {"name": str, "path": str, "format": str, "columns": Mapping,
              "synthetic": Mapping}
    _SYN_TYPES = {"n_users": int, "n_items": int, "n_interactions": int,
                  "seed": int, "n_factors": int, "popularity_weight": float,
                  "noise_scale": float}

    @classmethod
    def from_dict(cls, raw: Mapping) -> "DatasetConfig":
        name = _json_typed(raw, "dataset", Mapping).get("name")
        if not _json_typed(name, "dataset name", str):
            raise ValueError("dataset name must be nonempty")
        context = f"dataset {name!r}"
        cfg = cls(**_json_object(raw, context, cls._TYPES,
                                 nullable=("path", "columns", "synthetic")))
        if (cfg.path is None) == (cfg.synthetic is None):
            raise ValueError(
                f"{context} needs exactly one of 'path' or 'synthetic'")
        if cfg.synthetic is None:
            check_interaction_format(cfg.format, cfg.columns)
            return cfg
        context += " synthetic"
        _json_object(cfg.synthetic, context, cls._SYN_TYPES,
                     required=("n_users", "n_items", "n_interactions"))
        try:
            check_recipe(**{key: value for key, value in cfg.synthetic.items()
                            if key != "seed"})
        except ValueError as exc:
            raise ValueError(f"{context}: {exc}") from None
        return cfg


@dataclass(frozen=True)
class ModelConfig:
    """One roster entry: a built-in kind or an external matrix file."""

    model_id: str
    kind: str | None = None
    params: Mapping[str, float] | None = None
    matrix: str | None = None

    _TYPES = {"id": str, "kind": str, "params": Mapping, "matrix": str}

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ModelConfig":
        _json_object(raw, "model", cls._TYPES, nullable=tuple(cls._TYPES))
        kind, matrix = raw.get("kind"), raw.get("matrix")
        if (kind is None) == (matrix is None):
            raise ValueError("model needs exactly one of 'kind' or 'matrix'")
        if kind is not None and kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        if matrix is not None and "params" in raw:
            raise ValueError("external matrix models take no params")
        if raw.get("params") is not None:
            fit_params(raw["params"])
        model_id = kind if raw.get("id") is None else raw["id"]
        if model_id is None:
            raise ValueError("external matrix model needs an 'id'")
        if not model_id:
            raise ValueError("model id must be nonempty")
        for ch in "+,":
            if ch in model_id:
                raise ValueError(
                    f"model id {model_id!r} must not contain {ch!r}")
        return cls(model_id, kind, raw.get("params") or None, matrix)


@dataclass(frozen=True)
class SelectionConfig:
    mode: str = "greedy"
    split: str = "validation"
    scope: str = "per-fold"

    _TYPES = {"mode": str, "split": str, "scope": str}

    @classmethod
    def from_dict(cls, raw: Mapping) -> "SelectionConfig":
        cfg = cls(**_json_object(raw, "selection", cls._TYPES))
        if cfg.mode not in SELECTION_MODES:
            raise ValueError(f"unknown selection mode {cfg.mode!r}")
        if cfg.split not in SELECTION_SPLITS:
            raise ValueError(f"unknown selection split {cfg.split!r}")
        if cfg.scope not in SELECTION_SCOPES:
            raise ValueError(f"unknown selection scope {cfg.scope!r}")
        return cfg

    @property
    def holdout(self) -> str:
        """The holdout the search scores candidates on: paper-faithful
        selection picks on the test split it is then scored on."""
        return "test" if self.split == "paper-faithful" else "validation"


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment settings; see from_dict for the JSON shape."""

    seed: int
    output_dir: str
    datasets: tuple[DatasetConfig, ...]
    models: tuple[ModelConfig, ...]
    n_values: tuple[int, ...] = (5, 10, 20)
    k_values: tuple[int, ...] = DEFAULT_K_VALUES
    table_k: int | None = None
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    normalization: str = "global-minmax"
    n_folds: int = 5
    include_empty_holdout_users: bool = False

    _TYPES = {"seed": int, "output_dir": str, "datasets": list,
              "models": list, "n_values": list, "k_values": list,
              "table_k": int, "selection": Mapping, "normalization": str,
              "n_folds": int, "include_empty_holdout_users": bool}

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ExperimentConfig":
        """Check and build from parsed JSON; an absent key takes the
        field's default."""
        kwargs = dict(_json_object(
            raw, "config", cls._TYPES, nullable=("table_k",),
            required=("seed", "output_dir", "datasets", "models")))
        kwargs["datasets"] = tuple(
            DatasetConfig.from_dict(d) for d in raw["datasets"])
        kwargs["models"] = tuple(ModelConfig.from_dict(m) for m in raw["models"])
        if "selection" in raw:
            kwargs["selection"] = SelectionConfig.from_dict(raw["selection"])
        for key in ("n_values", "k_values"):
            if key in raw:
                kwargs[key] = tuple(sorted({
                    _json_typed(v, f"config {key} entry", int)
                    for v in raw[key]}))
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        with Path(path).open(encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def validate(self):
        if not self.datasets:
            raise ValueError("config needs at least one dataset")
        if not self.models:
            raise ValueError("config needs at least one model")
        names = [d.name for d in self.datasets]
        if len(set(names)) != len(names):
            raise ValueError("dataset names must be unique")
        ids = [m.model_id for m in self.models]
        if len(set(ids)) != len(ids):
            raise ValueError("model ids must be unique")
        if not self.n_values:
            raise ValueError("n_values must be nonempty")
        bad_n = [n for n in self.n_values if n not in VALID_N_VALUES]
        if bad_n:
            raise ValueError(f"n_values must be within {VALID_N_VALUES}, "
                             f"got {bad_n}")
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ValueError("k_values must be positive integers")
        for n in self.n_values:
            if not self.usable_ks(n):
                raise ValueError(f"no k in k_values is >= n={n}")
        if self.table_k is not None:
            if any(self.table_k < n for n in self.n_values):
                raise ValueError("table_k must be >= every n in n_values")
        if self.normalization not in NORMALIZATION_MODES:
            raise ValueError(
                f"unknown normalization mode {self.normalization!r}")
        if self.n_folds < 2:
            raise ValueError("n_folds must be >= 2")
        if self.n_folds - 1 not in T_TABLE_95:
            raise ValueError("n_folds too large for the embedded t-table")
        if (self.selection.mode == "exhaustive"
                and len(self.models) > EXHAUSTIVE_LIMIT):
            raise ValueError(
                f"exhaustive selection takes at most {EXHAUSTIVE_LIMIT} "
                f"models, got {len(self.models)}")

    def usable_ks(self, n: int) -> tuple[int, ...]:
        return tuple(k for k in self.k_values if k >= n)

    def cell_table_k(self, n: int) -> int:
        if self.table_k is not None:
            return self.table_k
        return max(self.usable_ks(n))

    def max_k(self) -> int:
        k = max(self.k_values)
        if self.table_k is not None:
            k = max(k, self.table_k)
        return k

    def canonical_dict(self) -> dict:
        """Every field but output_dir, which is a destination, not an
        input: runs into two directories must be able to produce identical
        bundles. A model's id keeps its JSON key."""
        canonical = asdict(self)
        del canonical["output_dir"]
        for model in canonical["models"]:
            model["id"] = model.pop("model_id")
        return canonical

    def config_hash(self) -> str:
        canonical = json.dumps(self.canonical_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ReportRow:
    """One line of a per-(dataset, n) score table."""

    dataset: str
    model: str
    n: int
    per_fold: tuple[float, ...]
    mean: float
    pct: int | None


# -- prepared per-dataset state -------------------------------------------------

@dataclass
class DatasetBundle:
    """Everything derivable from one dataset before per-n evaluation."""

    config: ExperimentConfig
    name: str
    splits: list[FoldSplit]
    raw: PredictionMatrix
    norm: PredictionMatrix
    holdouts: dict[tuple[int, str], HoldoutKeys]  # (fold, kind), raw's indexes
    weights: dict[int, ModelWeights]          # keyed by n
    model_ids: list[str]
    input_s: float = 0.0                      # seconds to load and split
    _selections: dict = field(default_factory=dict)  # (n, k) -> result
    _test_tables: dict = field(default_factory=dict)


def split_dataset(config: ExperimentConfig, ds: DatasetConfig
                  ) -> list[FoldSplit]:
    """Load or generate one dataset and split it into the config's folds."""
    if ds.synthetic is not None:
        # Stable per-dataset default stream, decoupled from the split seed.
        seed = (config.seed ^ fnv1a64(ds.name.encode("utf-8"))) & (2**64 - 1)
        dataset = generate_interactions(**{"seed": seed, **ds.synthetic})
    else:
        dataset = load_interactions(ds.path, ds.format, ds.columns)
    return split_folds(dataset, config.seed, config.n_folds)


def fit_roster(split: FoldSplit, models: Sequence[ModelConfig]
               ) -> Iterator[FittedModel]:
    """Fit built-in `models` on one fold's train split in the given order,
    each only when the next is asked for, so a consumer that drops each
    model first holds one at a time. The shared item cosine is dropped once
    its last reader is fitted, so it dies with the last model holding it."""
    train = train_incidence(split.indexed_subset("train"))
    for at, m in enumerate(models):
        model = fit(m.kind, train, m.params, model_id=m.model_id)
        if not any(n.kind in ITEM_COSINE_KINDS for n in models[at + 1:]):
            train.drop_item_cosine()
        yield model
        del model  # before the next fit


def _fit_fold_models(config: ExperimentConfig, split: FoldSplit
                     ) -> Iterator[FittedModel]:
    """`fit_roster` of the config's built-in models, in model-id order."""
    return fit_roster(split, sorted(
        (m for m in config.models if m.kind is not None),
        key=lambda m: m.model_id))


def _merge_matrices(parts: Sequence[PredictionMatrix]) -> PredictionMatrix:
    return PredictionMatrix.union(parts)


def prepare_dataset(config: ExperimentConfig, ds: DatasetConfig
                    ) -> DatasetBundle:
    """Load, split, fit and score, ingest, translate the holdouts, normalize,
    and weight one dataset.

    Folds are fitted one after another, and within a fold each built-in model
    is fitted, scored and dropped before the next. At its peak a fold so
    holds its CSR train incidence, the item cosine until its last reader is
    fitted, one model's arrays (at most one more dense square), the blocks
    already scored and chunk transients: no users x items array."""
    t0 = time.perf_counter()
    splits = split_dataset(config, ds)
    input_s = time.perf_counter() - t0
    parts = []
    if any(m.kind is not None for m in config.models):
        for split in splits:
            parts.append(generate_matrix(
                split.fold_index, _fit_fold_models(config, split),
                config.max_k()))
    for model_cfg in config.models:
        if model_cfg.matrix is not None:
            external = read_matrix(model_cfg.matrix, min_length=config.max_k())
            ext_models = external.models()
            if ext_models != [model_cfg.model_id]:
                raise ValueError(
                    f"{model_cfg.matrix}: expected lists for model "
                    f"{model_cfg.model_id!r} only, found {ext_models}")
            if external.folds() != [s.fold_index for s in splits]:
                raise ValueError(
                    f"{model_cfg.matrix}: folds {external.folds()} do not "
                    f"match the configured {config.n_folds} folds")
            parts.append(external)
    raw = _merge_matrices(parts)
    holdouts = {(s.fold_index, kind): holdout_keys(
                    s.indexed_subset(kind), raw.user_index, raw.item_index)
                for s in splits for kind in ("validation", "test")}
    norm = normalize_scores(raw, config.normalization)
    validation = {f: h for (f, kind), h in holdouts.items()
                  if kind == "validation"}
    weights = {
        n: compute_weights(
            raw, validation, n,
            include_empty_holdout_users=config.include_empty_holdout_users)
        for n in config.n_values
    }
    log.info("prepared dataset %s in %.1fs", ds.name, time.perf_counter() - t0)
    return DatasetBundle(config, ds.name, splits, raw, norm, holdouts, weights,
                         [m.model_id for m in config.models], input_s)


# -- evaluation ------------------------------------------------------------------

def model_fold_ndcg(bundle: DatasetBundle, model: str, fold: int, n: int,
                    holdout_kind: str) -> float:
    """One model's top-n NDCG against one fold's holdout."""
    block = bundle.raw.block(fold, model)
    return ndcg_rows(
        block.user_rows, block.indptr, block.items,
        len(bundle.raw.item_index), bundle.holdouts[fold, holdout_kind], n,
        bundle.config.include_empty_holdout_users)


def per_model_test_ndcg(bundle: DatasetBundle, n: int
                        ) -> dict[str, tuple[float, ...]]:
    """Per-model test NDCG@n per fold, computed once per n and shared by
    the score table and the k sweep."""
    if n not in bundle._test_tables:
        bundle._test_tables[n] = {
            m: tuple(model_fold_ndcg(bundle, m, s.fold_index, n, "test")
                     for s in bundle.splits)
            for m in bundle.model_ids}
    return bundle._test_tables[n]


@dataclass(frozen=True)
class CellSelection:
    """Selection outcome for one (dataset, n, k)."""

    n: int
    k: int
    traces: tuple[tuple[str | int, SelectionTrace], ...]  # (fold | "all", trace)
    members_per_fold: tuple[frozenset[str], ...]
    test_per_fold: tuple[float, ...]
    mean_test: float
    ci: tuple[float, float]


def run_selection(bundle: DatasetBundle, n: int, k: int) -> CellSelection:
    """Search the subset lattice for one (dataset, n, k) context.

    The first call at a k builds that k's FoldFusers, one per fold, selects
    on them for n and every configured n <= k, caches each cell's result or
    exception, and drops them: each (fold, k) is built once per dataset and
    one k's fusers live at a time. An exception is raised by its cell only.
    """
    if (n, k) not in bundle._selections:
        fusers = {s.fold_index: FoldFuser(bundle.norm, s.fold_index, k)
                  for s in bundle.splits}
        for cell_n in {n, *(m for m in bundle.config.n_values if m <= k)}:
            try:
                result = _select(bundle, fusers, cell_n, k)
            except Exception as exc:  # noqa: BLE001 - kept for its own cell
                traceback.clear_frames(exc.__traceback__)  # frees the fusers
                result = exc
            bundle._selections[cell_n, k] = result
    result = bundle._selections[n, k]
    if isinstance(result, Exception):
        raise result
    return result


def _select(bundle: DatasetBundle, fusers: Mapping[int, FoldFuser], n: int,
            k: int) -> CellSelection:
    config = bundle.config
    sel = config.selection
    search = greedy_select if sel.mode == "greedy" else exhaustive_select
    weights = bundle.weights[n]
    incl = config.include_empty_holdout_users

    def score(fold: int, members: frozenset[str], kind: str) -> float:
        return fusers[fold].ndcg(
            sorted(members), weights, bundle.holdouts[fold, kind], n,
            include_empty_holdout_users=incl)

    folds = [s.fold_index for s in bundle.splits]
    traces: list[tuple[str | int, SelectionTrace]]
    if sel.scope == "per-fold":
        traces = [(fold, search(bundle.model_ids,
                                lambda m, _f=fold: score(_f, m, sel.holdout)))
                  for fold in folds]
        picks = [trace for _, trace in traces]
    else:
        # Fixed-subset selection scores are cross-fold means.
        trace = search(bundle.model_ids, lambda m: left_sum(
            score(fold, m, sel.holdout) for fold in folds) / len(folds))
        traces = [("all", trace)]
        picks = [trace] * len(folds)
    members_per_fold = [trace.chosen_members for trace in picks]
    test_scores = [score(fold, members, "test")
                   for fold, members in zip(folds, members_per_fold)]

    return CellSelection(
        n, k, tuple(traces), tuple(members_per_fold), tuple(test_scores),
        left_sum(test_scores) / len(test_scores),
        confidence_interval(test_scores))


def model_table(bundle: DatasetBundle, n: int) -> list[ReportRow]:
    """Per-model test rows plus the chosen ensemble's row."""
    config = bundle.config
    ppl_ids = [m.model_id for m in config.models if m.kind == "popularity"]
    per_model_scores = per_model_test_ndcg(bundle, n)
    means = {m: left_sum(v) / len(v) for m, v in per_model_scores.items()}
    ppl_mean = means[ppl_ids[0]] if ppl_ids else None
    selection = run_selection(bundle, n, config.cell_table_k(n))

    def row(model: str, scores: tuple[float, ...], mean: float) -> ReportRow:
        return ReportRow(bundle.name, model, n, scores, mean, None
                         if ppl_mean is None else pct_vs_ppl(mean, ppl_mean))

    return ([row(m, per_model_scores[m], means[m]) for m in bundle.model_ids]
            + [row("ensemble", selection.test_per_fold, selection.mean_test)])


def sweep_rows(bundle: DatasetBundle, n: int) -> list[dict]:
    """One aggregate row per usable k for the (dataset, n) cell."""
    config = bundle.config
    means = {m: left_sum(v) / len(v)
             for m, v in per_model_test_ndcg(bundle, n).items()}
    best_model = min(means, key=lambda m: (-means[m], m))
    rows = []
    for k in config.usable_ks(n):
        selection = run_selection(bundle, n, k)
        rows.append({
            "dataset": bundle.name, "n": n, "k": k,
            "ens_mean": selection.mean_test,
            "ci_low": selection.ci[0], "ci_high": selection.ci[1],
            "best_model": best_model, "best_mean": means[best_model],
        })
    return rows


# -- artifact writers ------------------------------------------------------------

TABLE_FOLD_PREFIX = "ndcg_fold"
TRACE_HEADER = ["mode", "fold", "members", "k", "n", "split", "ndcg"]


def _write_table_csv(path: Path, rows: Sequence[ReportRow], n_folds: int,
                     selection_label: str):
    header = (["dataset", "model", "n"]
              + [f"{TABLE_FOLD_PREFIX}{i}" for i in range(n_folds)]
              + ["mean", "pct_vs_ppl", "selection"])
    with csv_writer(path, header) as writer:
        for row in rows:
            writer.writerow(
                [row.dataset, row.model, row.n]
                + [format_score(v) for v in row.per_fold]
                + [format_score(row.mean),
                   "n/a" if row.pct is None else str(row.pct),
                   selection_label if row.model == "ensemble" else ""])


def _write_sweep_csv(path: Path, rows: Sequence[dict]):
    header = ["dataset", "n", "k", "ens_mean", "ci_low", "ci_high",
              "best_model", "best_mean"]
    with csv_writer(path, header) as writer:
        writer.writerows(
            (row["dataset"], row["n"], row["k"], format_score(row["ens_mean"]),
             format_score(row["ci_low"]), format_score(row["ci_high"]),
             row["best_model"], format_score(row["best_mean"]))
            for row in rows)


def _write_trace_csv(path: Path, bundle: DatasetBundle, n: int):
    """Selection trace at the table k: every candidate of every trace, then
    each trace's pick with its selection-split score (unless that split is
    test), then each fold's pick with its test score; pick rows carry the
    mode suffixed -chosen."""
    k = bundle.config.cell_table_k(n)
    selection = run_selection(bundle, n, k)
    split = bundle.config.selection.holdout
    chosen = bundle.config.selection.mode + "-chosen"
    rows = [(trace.mode, fold, step.members, split, step.ndcg)
            for fold, trace in selection.traces for step in trace.steps]
    if split != "test":
        rows += [(chosen, fold, trace.chosen_members, split, trace.chosen_ndcg)
                 for fold, trace in selection.traces]
    rows += [(chosen, s.fold_index, members, "test", ndcg)
             for s, members, ndcg in zip(bundle.splits,
                                         selection.members_per_fold,
                                         selection.test_per_fold)]
    with csv_writer(path, TRACE_HEADER) as writer:
        for mode, fold, members, row_split, ndcg in rows:
            writer.writerow([mode, fold, "+".join(sorted(members)), k, n,
                             row_split, format_score(ndcg)])


def selection_label(config: ExperimentConfig, n: int) -> str:
    sel = config.selection
    return (f"mode={sel.mode};split={sel.split};scope={sel.scope};"
            f"k={config.cell_table_k(n)}")


def _tables_artifact(path: Path, bundle: DatasetBundle, n: int
                     ) -> list[ReportRow]:
    rows = model_table(bundle, n)
    _write_table_csv(path, rows, bundle.config.n_folds,
                     selection_label(bundle.config, n))
    return rows


def _sweep_artifact(path: Path, bundle: DatasetBundle, n: int) -> list[dict]:
    rows = sweep_rows(bundle, n)
    _write_sweep_csv(path, rows)
    return rows


def cell_artifact(prefix: str, dataset: str, n: int) -> str:
    """File name of one per-n artifact."""
    return f"{prefix}_{dataset}_{n}.csv"


# The per-n artifacts in the order `run` writes them: prefix ->
# write(path, bundle, n), which returns the rows it wrote, if any. `run` and
# the per-n subcommands both write through this table. Every entry looks its
# writer up in this module when called, so a wrapper set on the module name
# sees each write.
CELL_ARTIFACTS = {
    "weights": lambda path, bundle, n: write_weights(bundle.weights[n], path),
    "tables": _tables_artifact,
    "trace": lambda path, bundle, n: _write_trace_csv(path, bundle, n),
    "sweep": _sweep_artifact,
}


# -- the runner ------------------------------------------------------------------

@dataclass
class RunResult:
    output_dir: Path
    artifacts: list[str]
    failed_cells: list[str]
    tables: dict[tuple[str, int], list[ReportRow]]
    sweeps: dict[tuple[str, int], list[dict]]
    selections: dict[tuple[str, int], CellSelection]


def _peak_rss_mb() -> float:
    """This process's peak RSS so far in MiB; Linux counts it in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_experiment(config: ExperimentConfig, threads: int | None = None
                   ) -> RunResult:
    """Execute every (dataset, n) cell and write the report bundle.

    A failing cell is logged and recorded in the manifest; remaining cells
    still run. Artifacts per dataset: splits_<ds>.csv, and per n one
    <prefix>_<ds>_<n>.csv per CELL_ARTIFACTS entry (weights, tables,
    trace, sweep). Plus manifest.json (deterministic) and timings.json
    (wall-clock seconds and peak RSS, excluded from reproducibility).

    `threads` is ignored, as the run is single-threaded; it is still
    accepted because existing callers pass a thread count.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts: list[str] = []
    failed: list[str] = []
    tables: dict[tuple[str, int], list[ReportRow]] = {}
    sweeps: dict[tuple[str, int], list[dict]] = {}
    selections: dict[tuple[str, int], CellSelection] = {}
    timings: dict[str, float] = {}
    peak_rss: dict[str, float] = {}
    start = time.perf_counter()

    for ds in config.datasets:
        t0 = time.perf_counter()
        try:
            bundle = prepare_dataset(config, ds)
        except Exception as exc:
            log.error("dataset %s failed to prepare: %s", ds.name, exc)
            for n in config.n_values:
                failed.append(f"{ds.name}/n={n}: {exc}")
            continue
        timings[f"prepare_{ds.name}"] = time.perf_counter() - t0
        timings[f"input_{ds.name}"] = bundle.input_s
        peak_rss[f"prepare_{ds.name}"] = _peak_rss_mb()

        t0 = time.perf_counter()
        splits_path = out / f"splits_{ds.name}.csv"
        write_splits(bundle.splits, splits_path)
        timings[f"splits_{ds.name}"] = time.perf_counter() - t0
        artifacts.append(splits_path.name)

        for n in config.n_values:
            t1 = time.perf_counter()
            cell = (ds.name, n)
            try:
                written = {
                    prefix: write(out / cell_artifact(prefix, ds.name, n),
                                  bundle, n)
                    for prefix, write in CELL_ARTIFACTS.items()}
                tables[cell], sweeps[cell] = written["tables"], written["sweep"]
                selections[cell] = run_selection(bundle, n,
                                                 config.cell_table_k(n))
                artifacts.extend(cell_artifact(prefix, ds.name, n)
                                 for prefix in written)
            except Exception as exc:
                log.error("cell %s/n=%d failed: %s", ds.name, n, exc)
                failed.append(f"{ds.name}/n={n}: {exc}")
            timings[f"cell_{ds.name}_n{n}"] = time.perf_counter() - t1
        del bundle      # free it before the next dataset is prepared

    manifest = {
        "config_sha256": config.config_hash(),
        "seed": config.seed,
        "package_version": _package_version,
        "artifacts": sorted(artifacts),
        "failed_cells": failed,
    }
    with (out / "manifest.json").open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    timings["total"] = time.perf_counter() - start
    peak_rss["total"] = _peak_rss_mb()
    with (out / "timings.json").open("w", encoding="utf-8") as fh:
        json.dump({"seconds": timings, "peak_rss_mb": peak_rss}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")

    return RunResult(out, sorted(artifacts), failed, tables, sweeps,
                     selections)

