import dataclasses
import gc
import hashlib
import inspect
import json
import logging
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import common_items, indexed_pairs, traced_peak
from recfuse import baselines, core, harness, metrics
from recfuse.baselines import (
    MODEL_KINDS,
    generate_matrix,
    train_incidence,
)
from recfuse.core import IdIndex, PredictionMatrix, ScoredItem
from recfuse.fusion import FoldFuser
from recfuse.harness import (
    CELL_ARTIFACTS,
    DEFAULT_K_VALUES,
    T_TABLE_95,
    DatasetConfig,
    ExperimentConfig,
    ModelConfig,
    SelectionConfig,
    _fit_fold_models,
    _merge_matrices,
    cell_artifact,
    confidence_interval,
    model_table,
    pct_vs_ppl,
    prepare_dataset,
    run_experiment,
    run_selection,
    selection_label,
    sweep_rows,
)
from recfuse.metrics import holdout_keys
from recfuse.selection import EXHAUSTIVE_LIMIT
from recfuse.synthetic import generate_interactions


class TestConfidenceInterval:
    def test_five_point_sample_frozen_value(self):
        # Student-t interval from an independent reference implementation
        low, high = confidence_interval([0.1, 0.2, 0.3, 0.4, 0.5])
        assert low == pytest.approx(0.1036756838522439, abs=1e-12)
        assert high == pytest.approx(0.4963243161477561, abs=1e-12)

    def test_constant_sample_has_zero_width(self):
        low, high = confidence_interval([0.3, 0.3, 0.3])
        assert low == 0.3 == high

    def test_brackets_mean_symmetrically(self):
        values = [0.12, 0.5, 0.33, 0.08]
        low, high = confidence_interval(values)
        mean = sum(values) / len(values)
        assert high - mean == pytest.approx(mean - low, abs=1e-12)
        assert low < mean < high

    def test_needs_two_values(self):
        with pytest.raises(ValueError, match="need at least 2 values"):
            confidence_interval([0.5])

    def test_only_95_percent_supported(self):
        with pytest.raises(ValueError, match="only level=0.95"):
            confidence_interval([0.1, 0.2], level=0.9)

    def test_df_beyond_table_rejected(self):
        with pytest.raises(ValueError, match="no critical value"):
            confidence_interval([0.0] * 32)

    def test_embedded_critical_values(self):
        assert T_TABLE_95[4] == 2.7764451051977987
        assert T_TABLE_95[1] == 12.706204736432095
        assert T_TABLE_95[30] == 2.0422724563012373


# Aggregate means and their printed percent-vs-baseline columns; the percent
# must reproduce from the means with half-away-from-zero rounding.
PCT_FIXTURES = [
    # baseline mean 0.0832
    (0.1566, 0.0832, 88), (0.0864, 0.0832, 4), (0.1462, 0.0832, 76),
    (0.1704, 0.0832, 105), (0.1546, 0.0832, 86), (0.1624, 0.0832, 95),
    (0.1616, 0.0832, 94), (0.123, 0.0832, 48), (0.0832, 0.0832, 0),
    (0.1854, 0.0832, 123),
    # baseline mean 0.0758
    (0.1398, 0.0758, 84), (0.0828, 0.0758, 9), (0.1326, 0.0758, 75),
    (0.1506, 0.0758, 99), (0.1376, 0.0758, 82), (0.1442, 0.0758, 90),
    (0.1424, 0.0758, 88), (0.1126, 0.0758, 49), (0.0758, 0.0758, 0),
    (0.151, 0.0758, 99), (0.164, 0.0758, 116),
    # baseline mean 0.0634
    (0.1136, 0.0634, 79), (0.0688, 0.0634, 9), (0.1108, 0.0634, 75),
    (0.1208, 0.0634, 91), (0.1098, 0.0634, 73), (0.1156, 0.0634, 82),
    (0.112, 0.0634, 77), (0.0938, 0.0634, 48), (0.0634, 0.0634, 0),
    (0.1202, 0.0634, 90), (0.1398, 0.0634, 121),
]


@pytest.mark.parametrize("mean,ppl,expected", PCT_FIXTURES)
def test_pct_vs_ppl_reproduces_published_columns(mean, ppl, expected):
    assert pct_vs_ppl(mean, ppl) == expected


class TestPctVsPpl:
    def test_zero_baseline_gives_none(self):
        assert pct_vs_ppl(0.5, 0.0) is None
        assert pct_vs_ppl(0.5, -0.1) is None

    def test_halves_round_away_from_zero(self):
        # 9/8 and 7/8 are exact in binary, so x is exactly +-12.5
        assert pct_vs_ppl(9.0, 8.0) == 13
        assert pct_vs_ppl(7.0, 8.0) == -13

    def test_plain_ratios(self):
        assert pct_vs_ppl(3.0, 2.0) == 50
        assert pct_vs_ppl(1.0, 2.0) == -50


# -- configuration --------------------------------------------------------------

def toy_config_dict(**overrides):
    base = {
        "seed": 1234,
        "output_dir": "out",
        "datasets": [{"name": "toy", "synthetic": {
            "n_users": 50, "n_items": 70, "n_interactions": 1500}}],
        "models": [
            {"kind": "popularity", "id": "ppl"},
            {"kind": "item-item-cosine", "id": "cos", "params": {"nn": 5}},
            {"kind": "user-knn", "id": "uknn", "params": {"nn": 5}},
        ],
        "n_values": [5],
        "k_values": [5, 10],
        "n_folds": 3,
    }
    base.update(overrides)
    return base


class TestExperimentConfig:
    def test_minimal_roundtrip(self):
        cfg = ExperimentConfig.from_dict(toy_config_dict())
        assert cfg.seed == 1234
        assert cfg.n_values == (5,)
        assert cfg.k_values == (5, 10)
        assert cfg.n_folds == 3
        assert [m.model_id for m in cfg.models] == ["ppl", "cos", "uknn"]
        assert cfg.selection == SelectionConfig()
        assert cfg.normalization == "global-minmax"

    def test_defaults_and_sorting(self):
        raw = toy_config_dict()
        del raw["n_values"], raw["k_values"], raw["n_folds"]
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.n_values == (5, 10, 20)
        assert cfg.k_values == DEFAULT_K_VALUES
        assert cfg.n_folds == 5
        shuffled = ExperimentConfig.from_dict(toy_config_dict(
            n_values=[20, 5, 10, 5], k_values=[25, 25, 5, 10]))
        assert shuffled.n_values == (5, 10, 20)
        assert shuffled.k_values == (5, 10, 25)

    def test_unknown_keys_rejected_everywhere(self):
        with pytest.raises(ValueError, match="unknown config key"):
            ExperimentConfig.from_dict(toy_config_dict(bogus=1))
        with pytest.raises(ValueError, match="unknown dataset"):
            ExperimentConfig.from_dict(toy_config_dict(
                datasets=[{"name": "x", "bogus": 1}]))
        with pytest.raises(ValueError, match="unknown model"):
            ExperimentConfig.from_dict(toy_config_dict(
                models=[{"kind": "popularity", "bogus": 1}]))
        with pytest.raises(ValueError, match="unknown selection"):
            ExperimentConfig.from_dict(toy_config_dict(
                selection={"bogus": "x"}))
        with pytest.raises(ValueError, match="synthetic key"):
            ExperimentConfig.from_dict(toy_config_dict(
                datasets=[{"name": "x", "synthetic": {
                    "n_users": 5, "n_items": 5, "n_interactions": 5,
                    "zipf": 2}}]))

    def test_missing_required_key(self):
        raw = toy_config_dict()
        del raw["seed"]
        with pytest.raises(ValueError, match="missing required key 'seed'"):
            ExperimentConfig.from_dict(raw)

    def test_dataset_source_exclusivity(self):
        with pytest.raises(ValueError, match="exactly one of"):
            DatasetConfig.from_dict({"name": "x"})
        with pytest.raises(ValueError, match="exactly one of"):
            DatasetConfig.from_dict({"name": "x", "path": "p.csv",
                                     "synthetic": {"n_users": 1,
                                                   "n_items": 1,
                                                   "n_interactions": 1}})

    def test_model_source_exclusivity(self):
        with pytest.raises(ValueError, match="exactly one of"):
            ModelConfig.from_dict({"id": "x"})
        with pytest.raises(ValueError, match="exactly one of"):
            ModelConfig.from_dict({"id": "x", "kind": "popularity",
                                   "matrix": "m.csv"})
        with pytest.raises(ValueError, match="no params"):
            ModelConfig.from_dict({"id": "x", "matrix": "m.csv",
                                   "params": {"nn": 5}})
        # A null counts as absent, as canonical_dict() writes it.
        assert ModelConfig.from_dict({"id": "x", "matrix": "m.csv",
                                      "params": None}).params is None
        with pytest.raises(ValueError, match="needs an 'id'"):
            ModelConfig.from_dict({"matrix": "m.csv"})

    def test_model_id_separator_chars_rejected(self):
        with pytest.raises(ValueError, match="must not contain"):
            ModelConfig.from_dict({"id": "a+b", "kind": "popularity"})
        with pytest.raises(ValueError, match="must not contain"):
            ModelConfig.from_dict({"id": "a,b", "kind": "popularity"})

    def test_duplicate_names_rejected(self):
        raw = toy_config_dict()
        raw["datasets"] = raw["datasets"] * 2
        with pytest.raises(ValueError, match="dataset names must be unique"):
            ExperimentConfig.from_dict(raw)
        raw = toy_config_dict()
        raw["models"] = [{"kind": "popularity", "id": "m"},
                         {"kind": "user-knn", "id": "m"}]
        with pytest.raises(ValueError, match="model ids must be unique"):
            ExperimentConfig.from_dict(raw)

    def test_n_values_whitelist(self):
        with pytest.raises(ValueError, match="n_values must be within"):
            ExperimentConfig.from_dict(toy_config_dict(n_values=[5, 15]))

    def test_k_must_cover_every_n(self):
        with pytest.raises(ValueError, match="no k in k_values is >= n=20"):
            ExperimentConfig.from_dict(toy_config_dict(
                n_values=[5, 20], k_values=[5, 10]))

    def test_table_k_must_cover_n(self):
        with pytest.raises(ValueError, match="table_k must be >="):
            ExperimentConfig.from_dict(toy_config_dict(table_k=3))

    def test_normalization_and_folds_validated(self):
        with pytest.raises(ValueError, match="unknown normalization"):
            ExperimentConfig.from_dict(toy_config_dict(
                normalization="zscore"))
        with pytest.raises(ValueError, match="n_folds must be >= 2"):
            ExperimentConfig.from_dict(toy_config_dict(n_folds=1))
        with pytest.raises(ValueError, match="t-table"):
            ExperimentConfig.from_dict(toy_config_dict(n_folds=32))

    def test_exhaustive_roster_limit_checked_up_front(self):
        def roster(size):
            return [{"kind": "popularity", "id": f"m{i:02d}"} for i in range(size)]

        ok = ExperimentConfig.from_dict(toy_config_dict(
            models=roster(EXHAUSTIVE_LIMIT), selection={"mode": "exhaustive"}))
        assert len(ok.models) == EXHAUSTIVE_LIMIT == 20
        with pytest.raises(ValueError, match="at most 20 models, got 21"):
            ExperimentConfig.from_dict(toy_config_dict(
                models=roster(EXHAUSTIVE_LIMIT + 1),
                selection={"mode": "exhaustive"}))
        # Greedy search has no roster limit.
        ExperimentConfig.from_dict(toy_config_dict(
            models=roster(EXHAUSTIVE_LIMIT + 1)))

    @pytest.mark.parametrize("key,value", [
        ("seed", "1234"), ("seed", 12.0), ("seed", True),
        ("n_folds", "3"), ("n_folds", 3.0), ("n_folds", False),
        ("table_k", "20"), ("table_k", 20.0), ("table_k", True),
        ("n_values", [10.0]), ("n_values", ["10"]), ("n_values", [True]),
        ("n_values", 10),
        ("k_values", ["10"]), ("k_values", [10.5]), ("k_values", "10"),
        ("include_empty_holdout_users", "false"),
        ("include_empty_holdout_users", 0),
        ("include_empty_holdout_users", None),
        ("output_dir", None), ("output_dir", 5),
    ])
    def test_scalar_types_checked(self, key, value):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_dict(toy_config_dict(**{key: value}))

    @pytest.mark.parametrize("overrides,message", [
        ({"datasets": [5]}, "dataset must be a JSON object"),
        ({"datasets": 5}, "datasets must be a list"),
        ({"models": [5]}, "model must be a JSON object"),
        ({"models": 5}, "models must be a list"),
        ({"selection": 5}, "selection must be a JSON object"),
        ({"datasets": [{"name": "s", "synthetic": 5}]},
         "'s' synthetic must be a JSON object"),
        ({"datasets": [{"name": "f", "path": "x.csv", "columns": 5}]},
         "'f' columns must be a JSON object"),
        ({"datasets": [{"name": "f", "path": "x.csv", "format": ["csv"]}]},
         "'f' format must be a JSON string"),
        ({"datasets": [{"name": 7, "path": "x.csv"}]},
         "dataset name must be a JSON string"),
        ({"datasets": [{"path": "x.csv"}]},
         "dataset name must be a JSON string"),
        ({"datasets": [{"name": "f", "path": 12}]},
         "'f' path must be a JSON string"),
        ({"models": [{"kind": "popularity", "params": 5}]},
         "model params must be a JSON object"),
        ({"models": [{"kind": "popularity", "id": 5}]},
         "model id must be a JSON string"),
        ({"models": [{"id": "e", "matrix": 5}]},
         "model matrix must be a JSON string"),
        ({"models": [{"kind": "popularity", "id": ""}]},
         "model id must be nonempty"),
        ({"models": [{"kind": "popularity", "id": 0}]},
         "model id must be a JSON string, got 0"),
        ({"models": [{"kind": "popularity", "id": False}]},
         "model id must be a JSON string, got False"),
    ], ids=["datasets-entry", "datasets", "models-entry", "models",
            "selection", "synthetic", "columns", "format", "name",
            "name-missing", "path", "params", "id", "matrix", "id-empty",
            "id-zero", "id-false"])
    def test_config_shapes_checked(self, overrides, message):
        # Each of these once raised TypeError or loaded a config whose
        # every cell then failed.
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(toy_config_dict(**overrides))

    @pytest.mark.parametrize("value", [0.5, 1, 0])
    def test_synthetic_numbers_accept_ints_and_floats(self, value):
        ExperimentConfig.from_dict(toy_config_dict(datasets=[
            {"name": "s", "synthetic": {"n_users": 30, "n_items": 40,
                                        "n_interactions": 500,
                                        "popularity_weight": value,
                                        "noise_scale": value}}]))

    @pytest.mark.parametrize("key,value", [
        ("seed", 3.0), ("n_factors", "4"), ("n_interactions", True),
        ("popularity_weight", True), ("noise_scale", "0.1"),
    ])
    def test_synthetic_types_checked(self, key, value):
        recipe = {"n_users": 30, "n_items": 40, "n_interactions": 500,
                  key: value}
        with pytest.raises(ValueError, match=f"synthetic {key} must be"):
            ExperimentConfig.from_dict(toy_config_dict(datasets=[
                {"name": "s", "synthetic": recipe}]))

    @pytest.mark.parametrize("key,value,message", [
        ("n_users", 0, "need at least one user and one item"),
        ("n_interactions", 1201,
         r"n_interactions must be in \[1, n_users \* n_items\]"),
        ("n_factors", 0, "n_factors must be >= 1"),
        ("noise_scale", -math.inf, "noise_scale must be finite"),
        ("popularity_weight", math.nan, "popularity_weight must be finite"),
        ("popularity_weight", 10**400, "popularity_weight must be finite"),
    ], ids=["users", "events", "factors", "noise-inf", "weight-nan",
            "weight-huge-int"])
    def test_synthetic_ranges_checked(self, key, value, message):
        # Each of these once loaded; the run then failed, or built a dataset
        # from non-finite scores.
        recipe = {"n_users": 30, "n_items": 40, "n_interactions": 500,
                  key: value}
        with pytest.raises(ValueError,
                           match=f"dataset 's' synthetic: {message}"):
            ExperimentConfig.from_dict(toy_config_dict(datasets=[
                {"name": "s", "synthetic": recipe}]))

    def test_hash_of_valid_configs_unchanged_by_load_checks(self):
        # Pinned values: checking entries at load must not alter what is
        # hashed.
        syn = {"n_users": 30, "n_items": 40, "n_interactions": 500, "seed": 3,
               "n_factors": 4, "popularity_weight": 0.5, "noise_scale": 1}
        file_models = [{"kind": "item-item-bm25", "id": "b",
                        "params": {"k1": 1.5, "b": 0.5, "nn": 3}},
                       {"id": "ext", "matrix": "m.csv"}]
        cases = [
            (toy_config_dict(), "3296ee823b273487"),
            (toy_config_dict(datasets=[{"name": "s", "synthetic": syn}]),
             "eebe10650e8a86b3"),
            (toy_config_dict(datasets=[{
                "name": "f", "path": "x.csv", "format": "tsv",
                "columns": {"user": 0, "item": 1, "rating": 2}}],
                models=file_models), "f0b4df7f4ea22567"),
        ]
        # Empty params hash as no params; a null id as no id.
        empty_params = toy_config_dict()
        empty_params["models"][0]["params"] = {}
        cases.append((empty_params, "3296ee823b273487"))
        null_id = toy_config_dict()
        null_id["models"][0].update(params={}, id=None)
        cases.append((null_id, "7b4039d4dd1006af"))
        for raw, prefix in cases:
            assert ExperimentConfig.from_dict(raw).config_hash()[:16] == prefix

    @pytest.mark.parametrize("extra,ignored,prefix", [
        ({}, None, "9bcf0998474743fe"),
        ({"format": "csv", "columns": None}, None, "9bcf0998474743fe"),
        ({"format": "tsv"}, "format", "85fe28d829429966"),
        ({"columns": {"user": 0, "item": 1}}, "columns", "cd3dc677714c5b68"),
        ({"format": "tsv", "columns": {"user": 0, "item": 1}},
         "columns, format", "3455764480ad5fa1"),
    ])
    def test_synthetic_dataset_warns_of_file_keys_it_ignores(
            self, caplog, extra, ignored, prefix):
        # The keys still load and keep their pinned hash; the warning names
        # those set to anything but their default.
        dataset = {"name": "s", "synthetic": {
            "n_users": 30, "n_items": 40, "n_interactions": 500}, **extra}
        with caplog.at_level(logging.WARNING, logger="recfuse.harness"):
            cfg = ExperimentConfig.from_dict(toy_config_dict(
                datasets=[dataset]))
        assert cfg.config_hash()[:16] == prefix
        assert [r.getMessage() for r in caplog.records] == (
            [] if ignored is None
            else [f"synthetic dataset 's' ignores {ignored}"])

    def test_hash_covers_every_field_but_output_dir(self):
        # A field added to a config class must land in the hash.
        cfg = ExperimentConfig.from_dict(toy_config_dict())
        canonical = cfg.canonical_dict()

        def names(cls, rename=None):
            return {(rename or {}).get(f.name, f.name)
                    for f in dataclasses.fields(cls)}

        assert set(canonical) == names(ExperimentConfig) - {"output_dir"}
        assert set(canonical["selection"]) == names(SelectionConfig)
        for entry in canonical["datasets"]:
            assert set(entry) == names(DatasetConfig)
        for entry in canonical["models"]:
            assert set(entry) == names(ModelConfig, {"model_id": "id"})

    def test_canonical_dict_loads_back(self):
        cfg = ExperimentConfig.from_dict(toy_config_dict(models=[
            {"kind": "popularity"}, {"id": "ext", "matrix": "m.csv"}]))
        again = ExperimentConfig.from_dict(
            {**cfg.canonical_dict(), "output_dir": cfg.output_dir})
        assert again == cfg and again.config_hash() == cfg.config_hash()

    def test_usable_ks_and_table_k(self):
        cfg = ExperimentConfig.from_dict(toy_config_dict(
            n_values=[5, 10], k_values=[5, 10, 25]))
        assert cfg.usable_ks(5) == (5, 10, 25)
        assert cfg.usable_ks(10) == (10, 25)
        assert cfg.cell_table_k(5) == 25
        assert cfg.max_k() == 25
        pinned = ExperimentConfig.from_dict(toy_config_dict(
            n_values=[5, 10], k_values=[5, 10, 25], table_k=10))
        assert pinned.cell_table_k(5) == 10
        assert pinned.max_k() == 25

    def test_hash_ignores_output_dir(self):
        a = ExperimentConfig.from_dict(toy_config_dict(output_dir="x"))
        b = ExperimentConfig.from_dict(toy_config_dict(output_dir="y"))
        c = ExperimentConfig.from_dict(toy_config_dict(seed=99))
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_from_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(toy_config_dict()))
        assert ExperimentConfig.from_file(p) == \
            ExperimentConfig.from_dict(toy_config_dict())


# -- the one JSON checker's rules -----------------------------------------------

RECIPE = {"n_users": 30, "n_items": 40, "n_interactions": 500}
# Every key of every config object, by the object that holds it.
CHECKED_KEYS = [
    (owner, key, kind)
    for owner, types in (("config", ExperimentConfig._TYPES),
                         ("dataset", DatasetConfig._TYPES),
                         ("synthetic", DatasetConfig._SYN_TYPES),
                         ("model", ModelConfig._TYPES),
                         ("selection", SelectionConfig._TYPES))
    for key, kind in types.items()]
CONTEXTS = {"config": "config", "dataset": "dataset 's'",
            "synthetic": "dataset 's' synthetic", "model": "model",
            "selection": "selection"}
NULLABLE = {"table_k", "path", "columns", "synthetic", "id", "kind", "params",
            "matrix"}
# One value of each JSON type, and the types each checked type accepts.
JSON_SAMPLES = {"string": "x", "int": 7, "fraction": 1.5, "bool": True,
                "object": {}, "list": []}
ACCEPTS = {str: {"string"}, int: {"int"}, float: {"int", "fraction"},
           bool: {"bool"}, Mapping: {"object"}, list: {"list"}}


def config_with(owner, key, value):
    """A loadable config but for `value` at `key` of an object of `owner`.
    A key that names one of two sources sits beside the other."""
    if owner == "config":
        return toy_config_dict(**{key: value})
    if owner == "selection":
        return toy_config_dict(selection={key: value})
    if owner == "model":
        base = ({"id": "e", "matrix": "m.csv"} if key == "kind"
                else {"kind": "popularity", "id": "m"})
        return toy_config_dict(models=[{**base, key: value}])
    if owner == "synthetic":
        return toy_config_dict(datasets=[
            {"name": "s", "synthetic": {**RECIPE, key: value}}])
    base = ({"name": "s", "path": "x.csv"} if key == "synthetic"
            else {"name": "s", "synthetic": RECIPE})
    return toy_config_dict(datasets=[{**base, key: value}])


def context_of(owner, key):
    # A dataset's name is checked first, as it names the other keys' context.
    return "dataset" if (owner, key) == ("dataset", "name") else CONTEXTS[owner]


class TestJsonChecker:
    def test_types_tables_name_every_field(self):
        # A field added to a config class must be checked at load.
        def names(cls, rename=None):
            return {(rename or {}).get(f.name, f.name)
                    for f in dataclasses.fields(cls)}

        assert set(ExperimentConfig._TYPES) == names(ExperimentConfig)
        assert set(DatasetConfig._TYPES) == names(DatasetConfig)
        assert set(ModelConfig._TYPES) == names(ModelConfig,
                                                {"model_id": "id"})
        assert set(SelectionConfig._TYPES) == names(SelectionConfig)
        assert set(DatasetConfig._SYN_TYPES) == set(
            inspect.signature(generate_interactions).parameters)

    @pytest.mark.parametrize("owner,key,kind", CHECKED_KEYS,
                             ids=[f"{o}-{k}" for o, k, _ in CHECKED_KEYS])
    def test_a_value_of_another_json_type_is_named(self, owner, key, kind):
        prefix = f"{context_of(owner, key)} {key} must be a "
        for name, value in JSON_SAMPLES.items():
            if name in ACCEPTS[kind]:
                continue
            with pytest.raises(ValueError, match=re.escape(prefix)):
                ExperimentConfig.from_dict(config_with(owner, key, value))

    @pytest.mark.parametrize("owner,key,kind", CHECKED_KEYS,
                             ids=[f"{o}-{k}" for o, k, _ in CHECKED_KEYS])
    def test_null_passes_exactly_where_the_default_is_none(self, owner, key,
                                                           kind):
        raw = config_with(owner, key, None)
        if key in NULLABLE:
            ExperimentConfig.from_dict(raw)
        else:
            with pytest.raises(ValueError, match=re.escape(
                    f"{context_of(owner, key)} {key} must be a")):
                ExperimentConfig.from_dict(raw)


# -- end-to-end runs -------------------------------------------------------------

@pytest.fixture(scope="module")
def toy_bundle():
    cfg = ExperimentConfig.from_dict(toy_config_dict())
    return cfg, prepare_dataset(cfg, cfg.datasets[0])


class TestPreparedBundle:
    def test_matrix_covers_all_models_and_folds(self, toy_bundle):
        cfg, bundle = toy_bundle
        assert bundle.norm.models() == ["cos", "ppl", "uknn"]
        assert bundle.norm.folds() == [0, 1, 2]
        bundle.norm.ensure_supports_k(1)
        assert set(bundle.weights) == {5}

    def test_weights_are_validation_ndcg(self, toy_bundle):
        cfg, bundle = toy_bundle
        from recfuse.metrics import ndcg_model
        w = bundle.weights[5]
        split = bundle.splits[0]
        lists = {u: bundle.norm.ranked_ids(0, "ppl", u, limit=5)
                 for u in bundle.norm.users(0, "ppl")}
        expected = ndcg_model(lists, split.holdout("validation"), 5)
        assert w.weight(0, "ppl") == expected

    def test_holdouts_table_has_every_fold_and_kind(self, toy_bundle):
        cfg, bundle = toy_bundle
        assert sorted(bundle.holdouts) == [
            (f, kind) for f in range(3) for kind in ("test", "validation")]
        for (fold, kind), keys in bundle.holdouts.items():
            expected = holdout_keys(
                indexed_pairs(bundle.splits[fold].holdout(kind)),
                bundle.norm.user_index, bundle.norm.item_index)
            assert np.array_equal(keys.keys, expected.keys)
            assert np.array_equal(keys.nonempty, expected.nonempty)


def test_fold_models_share_one_read_only_incidence(small_folds):
    cfg = ExperimentConfig.from_dict(toy_config_dict())
    by_fold = [list(_fit_fold_models(cfg, split)) for split in small_folds[:2]]
    for models in by_fold:
        assert [m.model_id for m in models] == ["cos", "ppl", "uknn"]
        shared = models[0]._incidence
        assert all(m._incidence is shared for m in models)
        for array in (shared.indptr, shared.indices):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
    assert by_fold[0][0]._incidence is not by_fold[1][0]._incidence


@pytest.mark.parametrize("calls", [1, 2])
def test_prepare_fits_one_fold_at_a_time(monkeypatch, calls):
    # Every fit call records the live models of other folds' incidences and
    # of its own: prepare_dataset must have dropped a fold's models before
    # the next fold's first fit, and each model before the next fit of its
    # own fold, and a bundle it returned keeps none alive into the next call.
    live = weakref.WeakSet()
    seen = []
    real_fit = harness.fit

    def spy(kind, train, params=None, model_id=None):
        own = sum(m._incidence is train.rows for m in live)
        seen.append((len(live) - own, own))
        model = real_fit(kind, train, params, model_id)
        live.add(model)
        return model

    monkeypatch.setattr(harness, "fit", spy)
    cfg = ExperimentConfig.from_dict(toy_config_dict())
    bundles = [prepare_dataset(cfg, cfg.datasets[0]) for _ in range(calls)]
    assert len(bundles) == calls
    assert seen == [(0, 0)] * (3 * 3 * calls)


@pytest.mark.parametrize("split", ["validation", "paper-faithful"])
def test_each_holdout_translated_once_per_fold_and_kind(
        tmp_path, monkeypatch, split):
    # Weights at every n, per-model test scores and selection all read the
    # one table prepare_dataset builds: 2 x n_folds translations a dataset,
    # whichever module would call holdout_keys.
    calls = []
    real = metrics.holdout_keys

    def spy(*args):
        calls.append(args)
        return real(*args)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("recfuse")
                and getattr(module, "holdout_keys", None) is real):
            monkeypatch.setattr(module, "holdout_keys", spy)
    cfg = ExperimentConfig.from_dict(toy_config_dict(
        output_dir=str(tmp_path / "run"), n_values=[5, 10, 20],
        k_values=[20], selection={"split": split},
        datasets=[{"name": name, "synthetic": {
            "n_users": 30, "n_items": 40, "n_interactions": 600}}
            for name in ("one", "two")]))
    result = run_experiment(cfg)
    assert result.failed_cells == []
    assert len(calls) == 2 * 3 * 2


def test_prepare_translates_ids_without_per_id_lookups(tmp_path,
                                                      monkeypatch):
    # Every id -> index translation in prepare goes through
    # IdIndex.indices; IdIndex.index serves only the per-user oracles.
    calls = []
    real = IdIndex.index

    def spy(self, id_):
        calls.append(id_)
        return real(self, id_)

    monkeypatch.setattr(IdIndex, "index", spy)
    cfg = ExperimentConfig.from_dict(_pinned_config(tmp_path, "greedy"))
    cfg = dataclasses.replace(cfg, models=cfg.models + tuple(
        ModelConfig.from_dict({"kind": kind, "id": kind, "params": {"nn": 5}})
        for kind in MODEL_KINDS if kind != "popularity"))
    bundle = prepare_dataset(cfg, cfg.datasets[0])
    assert bundle.norm.models() == sorted(
        ["ppl", "ext1", "ext2", *MODEL_KINDS[1:]])
    assert calls == []
    bundle.norm.scored_list(0, "ext1", "u00")
    assert calls == ["u00"]


def test_prepare_peak_memory_stays_near_two_item_squares():
    # At its peak a fold holds its train incidence, one items x items array
    # (the item cosine, or bm25's own), row-chunk transients and the splits.
    # The peak on this config is 1.85 x n_items**2 * 8 bytes: 1.92 with a
    # dense users x items incidence and user-knn truncation. It was 2.83
    # while item-knn kept a dense truncation beside the cosine, and 5.92
    # while a fold kept all its models and made whole-array transients.
    cfg = ExperimentConfig.from_dict(toy_config_dict(
        datasets=[{"name": "mem", "synthetic": {
            "n_users": 40, "n_items": 500, "n_interactions": 3000}}],
        models=[{"kind": kind, "id": kind} for kind in MODEL_KINDS]))
    splits = harness.split_dataset(cfg, cfg.datasets[0])
    n_items = max(len({i for items in s.train.values() for i in items})
                  for s in splits)
    tracemalloc.start()
    try:
        prepare_dataset(cfg, cfg.datasets[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n_items ** 2 * 8


def test_fold_fits_hold_one_item_square_beside_the_incidence():
    # A fold's lazy fit-and-score holds its train incidence, one items x
    # items array and row-chunk transients: the kNN kinds keep sparse
    # neighbor lists, bm25 weights its Gram inside the kernel, and the item
    # cosine is dropped with its last reader. With no item held by every
    # train user (tfidf then shares the cosine), the peak beyond the CSR
    # incidence reads 1.40 x n_items**2 * 8 bytes here. Beyond a dense
    # incidence it read 1.46, and 2.46 with a dense item-knn truncation
    # and the cosine kept to the end of the fold.
    cfg = ExperimentConfig.from_dict(toy_config_dict(
        datasets=[{"name": "wide", "synthetic": {
            "n_users": 60, "n_items": 600, "n_interactions": 3000}}],
        models=[{"kind": kind, "id": kind} for kind in MODEL_KINDS]))
    split = harness.split_dataset(cfg, cfg.datasets[0])[0]
    train = train_incidence(split.indexed_subset("train"))
    assert not common_items(train).any()
    n_items, incidence = len(train.items), sum(
        array.nbytes for csr in (train.rows, train.columns)
        for array in (csr.indptr, csr.indices))
    del train
    _, peak = traced_peak(lambda: generate_matrix(
        0, _fit_fold_models(cfg, split), cfg.max_k()))
    assert peak - incidence < 2 * n_items ** 2 * 8


def test_long_histories_score_in_small_chunks():
    # The sparse kernel cuts its chunks by term count, so a user who holds
    # many items, each kept by many neighbors, cannot blow up a chunk's
    # transients. Scoring item-knn reads 0.25 x n_items**2 * 8 bytes here
    # (0.755 with 64 users a chunk whatever their terms), and the item
    # Gram's transients 0.16 (0.34 on the dense kernel).
    cfg = ExperimentConfig.from_dict(toy_config_dict(
        datasets=[{"name": "long", "synthetic": {
            "n_users": 60, "n_items": 600, "n_interactions": 6000}}]))
    split = harness.split_dataset(cfg, cfg.datasets[0])[0]
    train = train_incidence(split.indexed_subset("train"))
    n_items = len(train.items)
    model = baselines.fit("item-knn", train)
    _, peak = traced_peak(lambda: baselines._score_block(model, 10))
    assert peak < 0.35 * n_items ** 2 * 8
    gram, peak = traced_peak(lambda: baselines._cosine(train.rows,
                                                        train.columns))
    assert peak - gram.nbytes < 0.25 * n_items ** 2 * 8


def test_fold_fits_make_no_users_by_items_array():
    # Without user-knn, whose Gram is users x users, nothing a fold fits or
    # scores is as large as users x items: the incidence is CSR and scoring
    # runs a few users at a time. The peak reads 0.38 x users x items x 8
    # bytes here, most of it the finished lists; a dense incidence read
    # 1.53.
    cfg = ExperimentConfig.from_dict(toy_config_dict(
        datasets=[{"name": "tall", "synthetic": {
            "n_users": 4000, "n_items": 400, "n_interactions": 24000}}],
        models=[{"kind": kind, "id": kind} for kind in MODEL_KINDS
                if kind != "user-knn"]))
    split = harness.split_dataset(cfg, cfg.datasets[0])[0]
    users = sum(1 for items in split.train.values() if items)
    items = len({i for held in split.train.values() for i in held})
    _, peak = traced_peak(lambda: generate_matrix(
        0, _fit_fold_models(cfg, split), cfg.max_k()))
    assert peak < users * items * 8


def test_fold_cosine_is_built_once_and_dies_with_its_last_reader(
        monkeypatch):
    cfg = ExperimentConfig.from_dict(toy_config_dict())
    split = harness.split_dataset(cfg, cfg.datasets[0])[0]
    # In this order tfidf is the last reader, and bm25 fits between readers.
    roster = [ModelConfig.from_dict({"kind": kind, "id": model_id})
              for kind, model_id in (
                  ("item-item-cosine", "cos"), ("item-item-bm25", "bm25"),
                  ("item-knn", "iknn"), ("item-item-tfidf", "tfidf"),
                  ("popularity", "ppl"), ("user-knn", "uknn"))]
    trains, built, alive = [], [], []
    real_incidence, real_cosine, real_fit = (
        harness.train_incidence, baselines._cosine, harness.fit)

    def incidence(pairs):
        trains.append(real_incidence(pairs))
        return trains[-1]

    def cosine(source, touched):
        out = real_cosine(source, touched)
        if touched is trains[0].columns:
            built.append(weakref.ref(out))
        return out

    def fit(*args, **kwargs):
        alive.append([ref() is not None for ref in built])
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(harness, "train_incidence", incidence)
    monkeypatch.setattr(baselines, "_cosine", cosine)
    monkeypatch.setattr(harness, "fit", fit)
    blocks = generate_matrix(0, harness.fit_roster(split, roster), 5)._blocks
    assert not common_items(trains[0]).any()  # so tfidf shares it
    assert len(built) == 1
    assert alive == [[], [True], [True], [True], [False], [False]]
    assert blocks[(0, "cos")].scores is blocks[(0, "tfidf")].scores


SHARED_ROSTER = [{"kind": "popularity", "id": "ppl"},
                 {"kind": "item-item-cosine", "id": "cos"},
                 {"kind": "item-item-tfidf", "id": "tfidf"}]


@pytest.mark.parametrize("mode", ["global-minmax", "per-user-minmax"])
def test_a_block_two_models_share_stays_one_block(monkeypatch, mode):
    # Wherever generate_matrix gives two models one block (tfidf and cosine
    # when no item is held by every train user), the merged and the
    # normalized matrix map both models to one block, whose scores equal
    # normalizing each model alone.
    scored, normalized = [], []
    real_generate, real_normalize = (harness.generate_matrix,
                                     harness.normalize_scores)

    def generate(*args):
        scored.append(real_generate(*args))
        return scored[-1]

    def normalize(matrix, mode):
        normalized.append((matrix, real_normalize(matrix, mode)))
        return normalized[-1][1]

    monkeypatch.setattr(harness, "generate_matrix", generate)
    monkeypatch.setattr(harness, "normalize_scores", normalize)
    cfg = ExperimentConfig.from_dict(toy_config_dict(models=SHARED_ROSTER,
                                                     normalization=mode))
    assert not any(common_items(train_incidence(s.indexed_subset("train"))).any()
                   for s in harness.split_dataset(cfg, cfg.datasets[0]))
    bundle = prepare_dataset(cfg, cfg.datasets[0])
    [(merged, norm)] = normalized
    assert norm is bundle.norm
    shared = [(a, b) for part in scored for a in part._blocks
              for b in part._blocks if a < b and part.block(*a) is part.block(*b)]
    assert sorted(shared) == [((f, "cos"), (f, "tfidf")) for f in range(3)]
    for a, b in shared:
        assert merged.block(*a) is merged.block(*b)
        assert norm.block(*a) is norm.block(*b)
        for fold, model in (a, b):
            alone = real_normalize(PredictionMatrix(
                merged.user_index, merged.item_index,
                {(fold, model): merged.block(fold, model)}), mode)
            assert np.array_equal(alone.block(fold, model).scores,
                                  norm.block(fold, model).scores)


def _numpy_bytes_held(arrays) -> int:
    """The bytes of the buffers that own these arrays' data, each once."""
    owners = {}
    for array in arrays:
        while isinstance(array.base, np.ndarray):
            array = array.base
        owners[id(array)] = array.nbytes
    return sum(owners.values())


def test_prepared_bundle_keeps_one_float64_per_distinct_stored_entry():
    # Numpy's buffers are traced in their own tracemalloc domain. What a
    # bundle frees when it dies, beyond its index arrays, holdouts and
    # splits, is its scores: one float64 per entry of each distinct block.
    # The raw matrix's scores and a second copy of a shared block are gone.
    numpy_domain = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

    def numpy_bytes():
        gc.collect()
        return sum(stat.size for stat in tracemalloc.take_snapshot()
                   .filter_traces(numpy_domain).statistics("filename"))

    cfg = ExperimentConfig.from_dict(toy_config_dict(models=[
        *SHARED_ROSTER, {"kind": "user-knn", "id": "uknn"}]))
    tracemalloc.start()
    try:
        bundle = prepare_dataset(cfg, cfg.datasets[0])
        blocks = {id(bundle.norm.block(f, m)): bundle.norm.block(f, m)
                  for f in bundle.norm.folds() for m in bundle.norm.models(f)}
        entries = sum(b.scores.size for b in blocks.values())
        others = _numpy_bytes_held(
            [a for b in blocks.values() for a in (b.user_rows, b.indptr, b.items)]
            + [a for h in bundle.holdouts.values() for a in h]
            + [a for s in bundle.splits
               for a in (s.indexed.user_rows, s.indexed.item_cols, s.codes)])
        held = numpy_bytes()
        n_distinct = len(blocks)
        del bundle, blocks
        freed = held - numpy_bytes()
    finally:
        tracemalloc.stop()
    assert freed - others <= 8 * entries
    assert n_distinct == (len(cfg.models) - 1) * cfg.n_folds  # tfidf shares


def test_pipeline_runs_on_one_thread(tmp_path, monkeypatch):
    # The CLI imports no thread pool, and a run that fits models starts no
    # thread.
    src = str(Path(harness.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, recfuse.cli; "
         "print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.strip() == "False", proc.stderr
    started = []
    real_start = threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        return real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    cfg = ExperimentConfig.from_dict(
        toy_config_dict(output_dir=str(tmp_path / "run")))
    assert run_experiment(cfg).failed_cells == []
    assert started == []


class TestRunSelection:
    def test_per_fold_shape(self, toy_bundle):
        cfg, bundle = toy_bundle
        sel = run_selection(bundle, 5, 10)
        assert len(sel.test_per_fold) == 3
        assert len(sel.traces) == 3
        assert [fold for fold, _ in sel.traces] == [0, 1, 2]
        assert sel.mean_test == pytest.approx(
            sum(sel.test_per_fold) / 3, abs=1e-15)
        assert sel.ci[0] <= sel.mean_test <= sel.ci[1]

    def test_memoized_per_cell(self, toy_bundle):
        cfg, bundle = toy_bundle
        assert run_selection(bundle, 5, 10) is run_selection(bundle, 5, 10)

    def test_chosen_at_least_best_singleton_on_selection_split(
            self, toy_bundle):
        cfg, bundle = toy_bundle
        sel = run_selection(bundle, 5, 10)
        for _, trace in sel.traces:
            singles = [s.ndcg for s in trace.steps if len(s.members) == 1]
            assert trace.chosen_ndcg >= max(singles)

    def test_fusers_built_once_per_fold_and_k_grouped_by_k(
            self, tmp_path, monkeypatch):
        # Per-fold scope holds one fold's fuser at a time; fixed-subset
        # scope holds all of a k's together.
        alive = weakref.WeakSet()
        real_init = FoldFuser.__init__

        def spying(self, matrix, fold, k):
            real_init(self, matrix, fold, k)
            alive.add(self)
            builds.append((fold, k, len(alive)))

        monkeypatch.setattr(FoldFuser, "__init__", spying)
        for scope in ("per-fold", "fixed-subset"):
            builds = []
            cfg = ExperimentConfig.from_dict(toy_config_dict(
                output_dir=str(tmp_path / scope), n_values=[5, 10],
                k_values=[5, 10, 15], selection={"scope": scope}))
            assert run_experiment(cfg).failed_cells == []
            assert sorted((fold, k) for fold, k, _ in builds) == [
                (fold, k) for fold in range(3) for k in (5, 10, 15)]
            ks = [k for _, k, _ in builds]
            runs = [k for i, k in enumerate(ks) if i == 0 or ks[i - 1] != k]
            assert sorted(runs) == [5, 10, 15]
            assert [held for _, _, held in builds] == [
                1 if scope == "per-fold" else fold + 1
                for fold, _, _ in builds], scope

    def test_failing_cell_fails_alone(self, tmp_path, monkeypatch):
        # Selection at k=15 runs n=10 while n=5 asks for it; the n=10
        # failure must reach only the n=10 cell.
        real_ndcg = FoldFuser.ndcg

        def failing(self, members, weights, holdout, n, **kwargs):
            if n == 10:
                raise ValueError("no n=10 today")
            return real_ndcg(self, members, weights, holdout, n, **kwargs)

        monkeypatch.setattr(FoldFuser, "ndcg", failing)
        cfg = ExperimentConfig.from_dict(toy_config_dict(
            output_dir=str(tmp_path / "run"), n_values=[5, 10],
            k_values=[5, 10, 15]))
        result = run_experiment(cfg)
        assert result.failed_cells == ["toy/n=10: no n=10 today"]
        assert result.artifacts == sorted(
            ["splits_toy.csv"] + [cell_artifact(prefix, "toy", 5)
                                  for prefix in CELL_ARTIFACTS])
        assert set(result.tables) == {("toy", 5)}


def test_trace_csv_format(toy_bundle, tmp_path):
    # The header, a candidate row with its 17-digit score, the -chosen test
    # rows, and members sorted and joined with "+".
    cfg, bundle = toy_bundle
    path = tmp_path / "trace.csv"
    harness._write_trace_csv(path, bundle, 5)
    sel = run_selection(bundle, 5, cfg.cell_table_k(5))
    lines = path.read_text().splitlines()
    assert lines[0] == "mode,fold,members,k,n,split,ndcg"
    first = sel.traces[0][1].steps[0]
    (member,) = first.members
    prefix = f"greedy,0,{member},10,5,validation,"
    assert lines[1].startswith(prefix)
    score = lines[1][len(prefix):]
    assert float(score) == first.ndcg
    assert len(score.lstrip("0.")) == 17
    # Every score is written at 17 significant digits, not as the shortest
    # repr (two rows here have a shorter repr).
    scores = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert all(f == f"{float(f):.17g}" for f in scores)
    assert any(f != repr(float(f)) for f in scores)
    assert lines[-3:] == [
        f"greedy-chosen,{fold},{'+'.join(sorted(members))},10,5,test,"
        f"{ndcg:.17g}" for fold, members, ndcg in zip(
            (0, 1, 2), sel.members_per_fold, sel.test_per_fold)]
    fields = [line.split(",")[2] for line in lines[1:]]
    assert any("+" in f for f in fields)
    assert all(f.split("+") == sorted(f.split("+")) for f in fields)


class TestModelTable:
    def test_row_count_and_order(self, toy_bundle):
        cfg, bundle = toy_bundle
        rows = model_table(bundle, 5)
        assert [r.model for r in rows] == ["ppl", "cos", "uknn", "ensemble"]
        assert all(r.n == 5 and r.dataset == "toy" for r in rows)

    def test_ppl_row_pct_is_zero(self, toy_bundle):
        cfg, bundle = toy_bundle
        rows = model_table(bundle, 5)
        ppl = next(r for r in rows if r.model == "ppl")
        assert ppl.pct == 0

    def test_ensemble_row_matches_selection(self, toy_bundle):
        cfg, bundle = toy_bundle
        rows = model_table(bundle, 5)
        sel = run_selection(bundle, 5, cfg.cell_table_k(5))
        ens = rows[-1]
        assert ens.per_fold == sel.test_per_fold
        assert ens.mean == sel.mean_test

    def test_means_are_fold_averages(self, toy_bundle):
        cfg, bundle = toy_bundle
        for row in model_table(bundle, 5):
            assert row.mean == pytest.approx(
                sum(row.per_fold) / len(row.per_fold), abs=1e-15)


class TestSweep:
    def test_one_row_per_usable_k(self, toy_bundle):
        cfg, bundle = toy_bundle
        rows = sweep_rows(bundle, 5)
        assert [r["k"] for r in rows] == [5, 10]
        assert len({r["best_model"] for r in rows}) == 1

    def test_best_model_is_test_mean_argmax(self, toy_bundle):
        cfg, bundle = toy_bundle
        rows = sweep_rows(bundle, 5)
        table = {r.model: r.mean for r in model_table(bundle, 5)
                 if r.model != "ensemble"}
        best = min(table, key=lambda m: (-table[m], m))
        assert rows[0]["best_model"] == best
        assert rows[0]["best_mean"] == table[best]

    def test_table_k_row_matches_table_ensemble(self, toy_bundle):
        cfg, bundle = toy_bundle
        rows = sweep_rows(bundle, 5)
        at_table_k = next(r for r in rows if r["k"] == cfg.cell_table_k(5))
        ens = model_table(bundle, 5)[-1]
        assert at_table_k["ens_mean"] == ens.mean


def _bundle_digests(out_dir):
    digests = {}
    for p in sorted(out_dir.iterdir()):
        if p.name == "timings.json":
            continue
        digests[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


class TestRunExperiment:
    def test_artifacts_and_manifest(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            toy_config_dict(output_dir=str(tmp_path / "run")))
        result = run_experiment(cfg)
        assert result.failed_cells == []
        expected = {"splits_toy.csv", "weights_toy_5.csv", "tables_toy_5.csv",
                    "trace_toy_5.csv", "sweep_toy_5.csv"}
        assert set(result.artifacts) == expected
        manifest = json.loads((result.output_dir / "manifest.json").read_text())
        assert manifest["config_sha256"] == cfg.config_hash()
        assert manifest["seed"] == 1234
        assert manifest["artifacts"] == sorted(expected)
        assert manifest["failed_cells"] == []
        assert (result.output_dir / "timings.json").exists()

    def test_timings_record_peak_rss_per_prepare_and_total(self, tmp_path):
        cfg = ExperimentConfig.from_dict(toy_config_dict(
            output_dir=str(tmp_path / "run"),
            datasets=[{"name": name, "synthetic": {
                "n_users": 50, "n_items": 70, "n_interactions": 1500}}
                for name in ("toy", "two")]))
        run_experiment(cfg)
        timings = json.loads((tmp_path / "run" / "timings.json").read_text())
        peaks = timings["peak_rss_mb"]
        assert set(peaks) == {"prepare_toy", "prepare_two", "total"}
        assert set(timings["seconds"]) >= {"prepare_toy", "prepare_two",
                                           "splits_toy", "splits_two",
                                           "total"}
        assert 0 < peaks["prepare_toy"] <= peaks["prepare_two"] <= peaks["total"]

    def test_timings_record_input_seconds_inside_prepare(self, tmp_path):
        # input_<ds> is the load or generation and the split of a dataset,
        # timed inside its prepare.
        _pinned_events(tmp_path)
        cfg = ExperimentConfig.from_dict(toy_config_dict(
            output_dir=str(tmp_path / "run"),
            datasets=[{"name": "syn", "synthetic": {
                "n_users": 50, "n_items": 70, "n_interactions": 1500}},
                {"name": "file", "path": str(tmp_path / "events.csv")}]))
        run_experiment(cfg)
        seconds = json.loads(
            (tmp_path / "run" / "timings.json").read_text())["seconds"]
        for name in ("syn", "file"):
            assert 0 < seconds[f"input_{name}"] < seconds[f"prepare_{name}"]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = ExperimentConfig.from_dict(
            toy_config_dict(output_dir=str(tmp_path / "a")))
        cfg_b = ExperimentConfig.from_dict(
            toy_config_dict(output_dir=str(tmp_path / "b")))
        ra = run_experiment(cfg_a, threads=1)
        rb = run_experiment(cfg_b, threads=4)
        assert _bundle_digests(ra.output_dir) == _bundle_digests(rb.output_dir)

    def test_failed_dataset_isolated(self, tmp_path):
        raw = toy_config_dict(output_dir=str(tmp_path / "run"))
        raw["datasets"] = [raw["datasets"][0],
                           {"name": "ghost", "path": str(tmp_path / "no.csv")}]
        cfg = ExperimentConfig.from_dict(raw)
        result = run_experiment(cfg)
        assert len(result.failed_cells) == 1 * len(cfg.n_values)
        assert all(c.startswith("ghost/") for c in result.failed_cells)
        assert ("toy", 5) in result.tables
        manifest = json.loads((result.output_dir / "manifest.json").read_text())
        assert manifest["failed_cells"] == result.failed_cells

    def test_trace_csv_contains_chosen_rows(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            toy_config_dict(output_dir=str(tmp_path / "run")))
        result = run_experiment(cfg)
        lines = (result.output_dir / "trace_toy_5.csv").read_text().splitlines()
        assert lines[0] == "mode,fold,members,k,n,split,ndcg"
        chosen = [l for l in lines if l.startswith("greedy-chosen,")]
        # one validation row and one test row per fold
        assert len(chosen) == 2 * cfg.n_folds
        assert sum(",validation," in l for l in chosen) == cfg.n_folds
        assert sum(",test," in l for l in chosen) == cfg.n_folds

    def test_selection_label_in_table(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            toy_config_dict(output_dir=str(tmp_path / "run")))
        result = run_experiment(cfg)
        text = (result.output_dir / "tables_toy_5.csv").read_text()
        label = selection_label(cfg, 5)
        assert label == "mode=greedy;split=validation;scope=per-fold;k=10"
        assert text.count(label) == 1


class TestSelectionVariants:
    def test_fixed_subset_scope(self):
        cfg = ExperimentConfig.from_dict(
            toy_config_dict(selection={"scope": "fixed-subset"}))
        bundle = prepare_dataset(cfg, cfg.datasets[0])
        sel = run_selection(bundle, 5, 10)
        assert [fold for fold, _ in sel.traces] == ["all"]
        assert len(set(sel.members_per_fold)) == 1
        assert len(sel.test_per_fold) == cfg.n_folds

    def test_paper_faithful_selects_on_test(self):
        cfg = ExperimentConfig.from_dict(
            toy_config_dict(selection={"split": "paper-faithful"}))
        bundle = prepare_dataset(cfg, cfg.datasets[0])
        sel = run_selection(bundle, 5, 10)
        assert sel.test_per_fold == tuple(trace.chosen_ndcg
                                          for _, trace in sel.traces)

    def test_exhaustive_mode_trace_size(self):
        cfg = ExperimentConfig.from_dict(
            toy_config_dict(selection={"mode": "exhaustive"}))
        bundle = prepare_dataset(cfg, cfg.datasets[0])
        sel = run_selection(bundle, 5, 10)
        for fold, trace in sel.traces:
            assert len(trace.steps) == 2 ** 3 - 1

    def test_single_model_ensemble_row_degenerates(self):
        raw = toy_config_dict(models=[{"kind": "popularity", "id": "ppl"}])
        cfg = ExperimentConfig.from_dict(raw)
        bundle = prepare_dataset(cfg, cfg.datasets[0])
        rows = model_table(bundle, 5)
        ppl, ens = rows
        assert ens.per_fold == pytest.approx(ppl.per_fold, abs=1e-12)


# -- merging matrix parts ----------------------------------------------------------

@st.composite
def matrix_parts(draw):
    """One to three from_entries parts with disjoint (fold, model) blocks.
    Users and items come from a shared pool plus ids private to each part, so
    parts overlap in some ids and not in others; lists may be empty."""
    n_parts = draw(st.integers(1, 3))
    blocks = draw(st.lists(st.tuples(st.integers(0, 2), st.sampled_from("ABCD")),
                           min_size=n_parts, max_size=6, unique=True))
    owner = [draw(st.integers(0, n_parts - 1)) for _ in blocks]
    owner[:n_parts] = range(n_parts)   # no part is empty
    parts: list[dict] = [{} for _ in range(n_parts)]
    for (fold, model), part in zip(blocks, owner):
        users = draw(st.lists(st.sampled_from(["u1", "u2", "u3", f"p{part}u"]),
                              min_size=1, max_size=4, unique=True))
        for user in users:
            items = draw(st.lists(st.sampled_from(["i1", "i2", "i3", "i4",
                                                   f"p{part}i"]),
                                  max_size=5, unique=True))
            scores = [draw(st.sampled_from([0.0, 0.5, 1.0])) for _ in items]
            parts[part][(fold, model, user)] = [
                ScoredItem(i, s) for s, i in sorted(zip(scores, items),
                                                    key=lambda p: (-p[0], p[1]))]
    return parts


@given(matrix_parts())
@settings(max_examples=60, deadline=None)
def test_merge_matches_from_entries_over_the_union(parts):
    merged = _merge_matrices([PredictionMatrix.from_entries(p) for p in parts])
    union = {key: lst for p in parts for key, lst in p.items()}
    assert merged == PredictionMatrix.from_entries(union)
    assert set(merged.user_index.ids) == {u for (_, _, u) in union}
    assert set(merged.item_index.ids) == {si.item_id for lst in union.values()
                                          for si in lst}
    merged._validate()


def test_merge_rejects_a_repeated_block():
    a = PredictionMatrix.from_entries({(0, "A", "u1"): [ScoredItem("i1", 1.0)],
                                       (1, "B", "u1"): []})
    b = PredictionMatrix.from_entries({(1, "B", "u2"): [ScoredItem("i2", 0.5)]})
    with pytest.raises(ValueError, match="duplicate lists for fold 1, model 'B'"):
        _merge_matrices([a, b])


# -- pinned bundle bytes ---------------------------------------------------------

def _pinned_events(root, common=False):
    """An interaction CSV from integer arithmetic: no random stream decides
    a byte. With `common`, every user also holds i_all, and three users in
    four hold too few items to be split, so at the seed `_pinned_config`
    gives, i_all stays in every fold's train set of every user."""
    lines = ["user,item"]
    for u in range(24):
        length = 3 if common and u % 4 else 6 + u % 7
        lines += [f"u{u:02d},i{(u * 7 + j * 5 + j * j) % 40:02d}"
                  for j in range(length)]
        lines += [f"u{u:02d},i_all"] if common else []
    (root / "events.csv").write_text("\n".join(lines) + "\n")


def _pinned_inputs(root):
    """The pinned interaction CSV and two external matrices, all from
    integer arithmetic, with popularity the only fitted model. Scores are
    multiples of 1/4 from a small residue, so ties are common inside lists
    and at the n and k cut-offs."""
    users = [f"u{u:02d}" for u in range(24)]
    items = [f"i{i:02d}" for i in range(40)]
    _pinned_events(root)
    models = [{"kind": "popularity", "id": "ppl"}]
    for m, (a, b, mod) in enumerate([(13, 7, 17), (5, 11, 9)], start=1):
        lines = ["fold,model,user,item,score"]
        for fold in range(3):
            for u in range(24):
                scores = [((u * a + i * b + fold * 3) % mod) / 4
                          for i in range(40)]
                ranked = sorted(range(40), key=lambda i: (-scores[i], i))
                lines += [f"{fold},ext{m},{users[u]},{items[i]},{scores[i]!r}"
                          for i in ranked[:20 + (u + m) % 9]]
        (root / f"ext{m}.csv").write_text("\n".join(lines) + "\n")
        models.append({"id": f"ext{m}", "matrix": str(root / f"ext{m}.csv")})
    return models


PINNED_DIGESTS = {
    "greedy": {
        "splits_pin.csv": "26b475977d8320e98601512fca4d73498dadd022215f55ec2a8c981105f5be77",
        "sweep_pin_10.csv": "5a36b024f80792a507a7220fb0ba9d315c38fdb8ca5dcb19350de930d81da741",
        "sweep_pin_5.csv": "05360e92c22cd8fa8e6c28e4d10874c27f57edad6c2cbf9b978afe20ccfe7d8a",
        "tables_pin_10.csv": "f3621f5f50c2c718f2ce2209048cf18c9ef3c1e3ff84862a6a2f0636220946c9",
        "tables_pin_5.csv": "a8184eec676404cbeae8df859038b6ebed8d08a105bf71b9c963fd1d3b1a9dca",
        "trace_pin_10.csv": "85e6e020edb8b9283439b2ac1b4502e34974c047b859eb66095f949cd4f2d020",
        "trace_pin_5.csv": "39814ee30cf90f43821fc6b1ea97b1cd9699a78231d77e153811f1624d7eac71",
        "weights_pin_10.csv": "768f79b87379d7959d5be68559819f2438a2f28bc0580c05037e1558ae3a70ef",
        "weights_pin_5.csv": "2f605711f4f0c99ed2bc51ac38875c48b4565b8db3dff9c4a1190df8147e0994",
    },
    "exhaustive": {
        "splits_pin.csv": "26b475977d8320e98601512fca4d73498dadd022215f55ec2a8c981105f5be77",
        "sweep_pin_10.csv": "5a36b024f80792a507a7220fb0ba9d315c38fdb8ca5dcb19350de930d81da741",
        "sweep_pin_5.csv": "05360e92c22cd8fa8e6c28e4d10874c27f57edad6c2cbf9b978afe20ccfe7d8a",
        "tables_pin_10.csv": "c03b79c9bbdb1adcea8b9252c568b9d6ddabeab9b08e635500183c2cd262536b",
        "tables_pin_5.csv": "4f1ac178d618507b7ba0ab0ca821884182bb0adf6f8c755cdf1893dd27f40fb4",
        "trace_pin_10.csv": "231d3c3ab142ade2f028d0b1efb65056fb24d05eaa4d15a44855fcc901735d4a",
        "trace_pin_5.csv": "c679426e4803a8f4bd8cb7f9e3b3414d50072fae666d2da68160051d49407223",
        "weights_pin_10.csv": "768f79b87379d7959d5be68559819f2438a2f28bc0580c05037e1558ae3a70ef",
        "weights_pin_5.csv": "2f605711f4f0c99ed2bc51ac38875c48b4565b8db3dff9c4a1190df8147e0994",
    },
    "six-kinds": {
        "splits_pin.csv": "26b475977d8320e98601512fca4d73498dadd022215f55ec2a8c981105f5be77",
        "sweep_pin_10.csv": "76ed6f348c0314e25496d3dbde58e1c1688b018937e76b67b9ccab30040e5d29",
        "sweep_pin_5.csv": "891297b6aecc3d52fdc65eb32ad73de98f32d337f1cf7e6c7a3e7f032279102c",
        "tables_pin_10.csv": "db4d8749dd584dd111361154b964cf55938906eec0f0d511f1fba1d9fa9d9b1c",
        "tables_pin_5.csv": "4beeb0273420d6cde6547933874da444404ac1ddd9afbe1f442230f0f97e4784",
        "trace_pin_10.csv": "90c3b67a221585041cd8a54b253e73a742f6f095fb4d68b5dc8e3fc4e4450cb0",
        "trace_pin_5.csv": "d6d49e0704289eff9a65e1f319cd5526738e587fab3a71f6058e7498fc6cd689",
        "weights_pin_10.csv": "37e070c35fa1acb11b949f0a1f4e870d3d07347f472238f6a31fe52273fa424a",
        "weights_pin_5.csv": "3240986e18e2094c5de42d1a3db88cadd2b7a3e2c6b1fc981635324c204651f7",
    },
    "six-kinds/common-item": {
        "splits_pin.csv": "bb2cc48777e11a4ad037f3986cd57dc4dfb929a50afeed7b4e799820826369ab",
        "sweep_pin_10.csv": "d01a2eedc680a0b33597c62bfff0be9a458acea010994330423774362f128532",
        "sweep_pin_5.csv": "d3a0fd287daa126afe66c90e328f81c53c9f949f33e28447444e22150ad2c713",
        "tables_pin_10.csv": "ddd3e54b01c14a3dba5ba432f49ee40ebdf928410cf59350692a1cf53d1ab3c2",
        "tables_pin_5.csv": "ff5412fdc508e37dc4738f2be801a4f084be4d540c9d8ef47f21852afd4bf115",
        "trace_pin_10.csv": "44a0dafaa0028b2d2c22617eda483790219d73c5752b68d69698eb08305f3f5a",
        "trace_pin_5.csv": "8b35f29e3f82b0c325c1f772c634d7d43fc48aca8b04d55ee8123a676bebc221",
        "weights_pin_10.csv": "b1406e5f5deda93afb63d8b327b1673a03c742ac2a0c996f3ee37d4f99f6691e",
        "weights_pin_5.csv": "7055fe41ba89fa04d4a9be700db10ac364641910835a6a645c5e52405a381c04",
    },
    "greedy/paper-faithful/per-fold": {
        "splits_pin.csv": "26b475977d8320e98601512fca4d73498dadd022215f55ec2a8c981105f5be77",
        "sweep_pin_10.csv": "dac2492ca370d78b5998fbd1351924ae859901cce493d4644ff2cb0deed19d2d",
        "sweep_pin_5.csv": "1e3820f902a22d3a82da48fd2e7fb867e366dff490b2476a3642fe3131ce58fd",
        "tables_pin_10.csv": "6259e623abc1c84b670902c8ce6e5c0df31504bad168510783a45624b81fc9a7",
        "tables_pin_5.csv": "0919dbe75e4a211cecf3bc459ad91630fe8c883ca341842044d12184090ba029",
        "trace_pin_10.csv": "b6120e9f6e7519c173ca13ce8149dbb85879e3705eaaec9199dc6daa2f20c2ee",
        "trace_pin_5.csv": "481488db2f89dea6cd671776e00c3eaf793d2f2b24f71890ab125d9c02a8e663",
        "weights_pin_10.csv": "768f79b87379d7959d5be68559819f2438a2f28bc0580c05037e1558ae3a70ef",
        "weights_pin_5.csv": "2f605711f4f0c99ed2bc51ac38875c48b4565b8db3dff9c4a1190df8147e0994",
    },
    "greedy/validation/fixed-subset": {
        "splits_pin.csv": "26b475977d8320e98601512fca4d73498dadd022215f55ec2a8c981105f5be77",
        "sweep_pin_10.csv": "58bae67f9fc0b1a40b8409d1cec1fa2d27d006255f5b4f2a134fccb2253761e7",
        "sweep_pin_5.csv": "337b717321916635be6ec951ca5b16521a1c3d3376e08a8760db6ee4d2194b0a",
        "tables_pin_10.csv": "3162bf8102804b196ff06b17ed164e2cd3de2fcbef79109a98c0e9d504b61d30",
        "tables_pin_5.csv": "4cf3ef67a9123b53f1bc98c91f89fa8150759355280427d8bb0ddbfa7c01acb7",
        "trace_pin_10.csv": "77a22bc22487c28067dc437d53da0694cb8b5637dc92a3a7d193823dd1a98e48",
        "trace_pin_5.csv": "9112899c9de58d6a44986a8e4e3359dbb9812b1c1ea67f8d7bd71c1f99980908",
        "weights_pin_10.csv": "768f79b87379d7959d5be68559819f2438a2f28bc0580c05037e1558ae3a70ef",
        "weights_pin_5.csv": "2f605711f4f0c99ed2bc51ac38875c48b4565b8db3dff9c4a1190df8147e0994",
    },
    "exhaustive/paper-faithful/fixed-subset": {
        "splits_pin.csv": "26b475977d8320e98601512fca4d73498dadd022215f55ec2a8c981105f5be77",
        "sweep_pin_10.csv": "ff482f397fe94e523eaaaad3d72bf5cccc201100514222d31af0ee471f8675f2",
        "sweep_pin_5.csv": "8d3ccdfb62c45ad7073adf333c62e1100cfd2028b7581a1e2fbafaaa08eaa1cd",
        "tables_pin_10.csv": "8ec9c4ddb8cff8769d2bc7bec305b50eb3b0e50ca281c02526799e5570fea07b",
        "tables_pin_5.csv": "df821f6744d3104e00c47ef143afd93593833a388a36d544d21bf2d97eb94bd1",
        "trace_pin_10.csv": "80031c7784775e0919c7ff8f1e460d1f2fbdf15685e6f71a6d475b0eb730d245",
        "trace_pin_5.csv": "6b090fea328631e437c72b588250921aeaa2a468921043e46ef760e7b16c9d01",
        "weights_pin_10.csv": "768f79b87379d7959d5be68559819f2438a2f28bc0580c05037e1558ae3a70ef",
        "weights_pin_5.csv": "2f605711f4f0c99ed2bc51ac38875c48b4565b8db3dff9c4a1190df8147e0994",
    },
}


def _pinned_config(root, case):
    """The pinned run: greedy over the six built-in kinds, on the pinned
    events or, in "six-kinds/common-item", on events with an item every
    train user holds; or a selection case "mode[/split/scope]" over
    popularity and the external matrices."""
    if case.startswith("six-kinds"):
        _pinned_events(root, common=case == "six-kinds/common-item")
        models = [{"kind": kind, "id": kind, "params": {"nn": 5}}
                  for kind in MODEL_KINDS]
        selection = {"mode": "greedy"}
    else:
        models = _pinned_inputs(root)
        selection = dict(zip(("mode", "split", "scope"), case.split("/")))
    return {
        "seed": 93 if case == "six-kinds/common-item" else 5,
        "output_dir": str(root / "out"),
        "datasets": [{"name": "pin", "path": str(root / "events.csv")}],
        "models": models,
        "n_values": [5, 10],
        "k_values": [5, 10, 15, 20],
        "n_folds": 3,
        "selection": selection,
    }


@pytest.mark.parametrize("case", list(PINNED_DIGESTS))
def test_bundle_bytes_are_pinned(tmp_path, case):
    # A change to fitting, fusion, selection or the writers that moves one
    # byte of these files fails here. The greedy and exhaustive digests were
    # taken before any such change; the six-kind ones once every similarity
    # was built without BLAS; the split and scope cases before the trace
    # writer moved into harness; and every splits_pin.csv digest while the
    # split still drew one scalar SplitMix64 output at a time.
    cfg = ExperimentConfig.from_dict(_pinned_config(tmp_path, case))
    result = run_experiment(cfg, threads=1)
    assert result.failed_cells == []
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(result.output_dir.iterdir())
               if p.name.split("_")[0] in ("splits", "trace", "tables",
                                           "sweep", "weights")}
    assert digests == PINNED_DIGESTS[case]


@pytest.mark.parametrize("seed", [-3, 2**64 + 5])
def test_seeds_outside_uint64_run_as_their_residue(tmp_path, seed):
    # SplitMix64 takes its seed mod 2**64, for the synthetic events and the
    # split alike: every byte of the bundle but the manifest, which records
    # the seed as given, is that of the residue.
    bundles = []
    for name, given in (("given", seed), ("residue", seed % 2**64)):
        cfg = ExperimentConfig.from_dict(toy_config_dict(
            seed=given, output_dir=str(tmp_path / name)))
        result = run_experiment(cfg, threads=1)
        bundles.append({p.name: p.read_bytes()
                        for p in sorted(result.output_dir.iterdir())
                        if p.name not in ("timings.json", "manifest.json")})
    assert "splits_toy.csv" in bundles[0]
    assert bundles[0] == bundles[1]


@pytest.mark.parametrize("case", ["toy", "six-kinds", "greedy/paper-faithful"])
def test_a_run_stays_on_the_index_path(tmp_path, monkeypatch, case):
    # Ids are read and written only at the file edges: a run, loaded,
    # generated or ingested, builds no Interaction record and no per-user
    # subset mapping of a fold.
    calls = {"Interaction": 0, "FoldSplit.subset": 0}

    def counted(owner, name, key):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)

    counted(core.Interaction, "__init__", "Interaction")
    counted(core.FoldSplit, "subset", "FoldSplit.subset")
    raw = (toy_config_dict(output_dir=str(tmp_path / "out")) if case == "toy"
           else _pinned_config(tmp_path, case))
    cfg = ExperimentConfig.from_dict(raw)
    assert run_experiment(cfg, threads=1).failed_cells == []
    assert calls == {"Interaction": 0, "FoldSplit.subset": 0}
    # The counters see the edges that do build them.
    harness.split_dataset(cfg, cfg.datasets[0])[0].holdout("test")
    core.Interaction("u", "i")
    assert calls == {"Interaction": 1, "FoldSplit.subset": 1}


def test_common_item_case_zeroes_an_item_in_every_fold(tmp_path):
    # The "six-kinds/common-item" digests pin the branch where tfidf copies
    # the shared cosine, zeroes the item every train user holds and scores
    # its own lists, and bm25 zeroes that item too.
    cfg = ExperimentConfig.from_dict(
        _pinned_config(tmp_path, "six-kinds/common-item"))
    for split in harness.split_dataset(cfg, cfg.datasets[0]):
        train = train_incidence(split.indexed_subset("train"))
        common = common_items(train)
        assert [train.items.ids[i] for i in np.flatnonzero(common)] == ["i_all"]
        cos, tfidf, bm25 = (baselines.fit(kind, train).similarity for kind in (
            "item-item-cosine", "item-item-tfidf", "item-item-bm25"))
        assert cos[common].all() and tfidf.flags.writeable
        for sim in (tfidf, bm25):
            assert not sim[common].any() and not sim[:, common].any()


def test_builtin_bytes_ignore_blas_and_fit_threads(tmp_path):
    # Every pair of BLAS thread count and --threads writes the same bytes,
    # for every built-in kind.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_pinned_config(tmp_path, "six-kinds")))
    src = str(Path(harness.__file__).resolve().parent.parent)
    bundles = {}
    for blas in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=blas,
                   OMP_NUM_THREADS=blas, MKL_NUM_THREADS=blas)
        for threads in ("1", "2"):
            out = tmp_path / f"blas{blas}-threads{threads}"
            for command in ("predict", "run"):
                proc = subprocess.run(
                    [sys.executable, "-m", "recfuse.cli", command,
                     "--config", str(config), "--threads", threads,
                     "--out", str(out / command)],
                    capture_output=True, text=True, timeout=300, env=env)
                assert proc.returncode == 0, proc.stderr
            bundles[(blas, threads)] = {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "timings.json"}
    first = bundles[("1", "1")]
    assert any(name.startswith("predict/matrix_") for name in first)
    assert all(bundle == first for bundle in bundles.values())
