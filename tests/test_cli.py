import hashlib
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from recfuse import harness
from recfuse.cli import main
from recfuse.core import PredictionMatrix
from recfuse.data import format_score
from recfuse.fusion import fuse_all

ROOT = Path(__file__).resolve().parent.parent


def make_config(tmp_path, **overrides):
    raw = {
        "seed": 4242,
        "output_dir": str(tmp_path / "out"),
        "datasets": [{"name": "toy", "synthetic": {
            "n_users": 40, "n_items": 60, "n_interactions": 1200}}],
        "models": [
            {"kind": "popularity", "id": "ppl"},
            {"kind": "item-item-cosine", "id": "cos"},
            {"kind": "user-knn", "id": "uknn", "params": {"nn": 5}},
        ],
        "n_values": [5],
        "k_values": [5, 10],
        "n_folds": 3,
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path, raw


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run")
    config_path, raw = make_config(tmp)
    code = main(["run", "--config", str(config_path), "--threads", "1"])
    assert code == 0
    return tmp / "out", config_path


class TestRun:
    def test_writes_full_bundle(self, run_dir):
        out, _ = run_dir
        names = {p.name for p in out.iterdir()}
        assert names == {"splits_toy.csv", "weights_toy_5.csv",
                         "tables_toy_5.csv", "trace_toy_5.csv",
                         "sweep_toy_5.csv", "manifest.json", "timings.json"}

    def test_manifest_lists_artifacts(self, run_dir):
        out, _ = run_dir
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed_cells"] == []
        assert "splits_toy.csv" in manifest["artifacts"]

    def test_stdout_stays_clean(self, tmp_path, capsys):
        config_path, _ = make_config(tmp_path)
        assert main(["run", "--config", str(config_path),
                     "--threads", "1"]) == 0
        assert capsys.readouterr().out == ""

    def test_out_flag_overrides_config(self, tmp_path):
        config_path, _ = make_config(tmp_path)
        other = tmp_path / "elsewhere"
        assert main(["run", "--config", str(config_path), "--threads", "1",
                     "--out", str(other)]) == 0
        assert (other / "manifest.json").exists()

    def test_failed_cell_exit_code(self, tmp_path, capsys):
        config_path, _ = make_config(tmp_path, datasets=[
            {"name": "ghost", "path": str(tmp_path / "missing.csv")}])
        assert main(["run", "--config", str(config_path),
                     "--threads", "1"]) == 2


class TestChainedSubcommands:
    def test_matches_run_byte_for_byte(self, tmp_path, run_dir):
        run_out, config_path = run_dir
        chained = tmp_path / "chained"
        for cmd in ("split", "weights", "report", "select", "sweep"):
            code = main([cmd, "--config", str(config_path), "--threads", "1",
                         "--out", str(chained)])
            assert code == 0, cmd
        for name in ("splits_toy.csv", "weights_toy_5.csv", "tables_toy_5.csv",
                     "trace_toy_5.csv", "sweep_toy_5.csv"):
            a = hashlib.sha256((run_out / name).read_bytes()).hexdigest()
            b = hashlib.sha256((chained / name).read_bytes()).hexdigest()
            assert a == b, name

    def test_split_neither_fits_nor_scores(self, tmp_path, run_dir,
                                           monkeypatch):
        run_out, config_path = run_dir

        def boom(*args, **kwargs):
            raise AssertionError("split must not fit or score models")

        monkeypatch.setattr(harness, "fit", boom)
        monkeypatch.setattr(harness, "generate_matrix", boom)
        out = tmp_path / "split"
        assert main(["split", "--config", str(config_path),
                     "--out", str(out)]) == 0
        assert ((out / "splits_toy.csv").read_bytes()
                == (run_out / "splits_toy.csv").read_bytes())

    def test_predict_writes_matrix(self, tmp_path, run_dir):
        _, config_path = run_dir
        out = tmp_path / "pred"
        assert main(["predict", "--config", str(config_path),
                     "--threads", "1", "--out", str(out)]) == 0
        from recfuse.data import read_matrix
        matrix = read_matrix(out / "matrix_toy.csv")
        assert matrix.models() == ["cos", "ppl", "uknn"]
        assert matrix.folds() == [0, 1, 2]

    def test_predict_only_scores(self, tmp_path, run_dir, monkeypatch):
        # predict writes the raw scores: it neither normalizes, translates
        # holdouts nor weights, and its file keeps the pinned bytes.
        _, config_path = run_dir

        def boom(*args, **kwargs):
            raise AssertionError("predict must only score")

        for name in ("normalize_scores", "compute_weights", "holdout_keys"):
            monkeypatch.setattr(harness, name, boom)
        out = tmp_path / "pred"
        assert main(["predict", "--config", str(config_path),
                     "--out", str(out)]) == 0
        assert hashlib.sha256((out / "matrix_toy.csv").read_bytes()).hexdigest(
        ) == "e9efd4fff5d4ad27e851a0a829f1b1ac1e24be7b3bae442e62f32c4c94162104"

    def test_fit_prints_summary(self, run_dir, capsys):
        _, config_path = run_dir
        assert main(["fit", "--config", str(config_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        # one line per (fold, model)
        assert len(lines) == 3 * 3
        assert lines[0].startswith("toy fold=0 model=ppl ")


class TestFuse:
    def test_writes_fused_lists(self, tmp_path, run_dir, monkeypatch):
        # The file must hold fuse_all's lists, byte for byte, with each
        # fold's first uknn list emptied; k=15 is above the config's
        # largest k (10), which caps the scored lists.
        _, config_path = run_dir
        real_generate = harness.generate_matrix

        def one_empty_list(fold, models, k_max):
            entries = dict(real_generate(fold, models, k_max).entries())
            entries[next(key for key in entries if key[1] == "uknn")] = []
            return PredictionMatrix.from_entries(entries)

        monkeypatch.setattr(harness, "generate_matrix", one_empty_list)
        config = harness.ExperimentConfig.from_file(config_path)
        bundle = harness.prepare_dataset(config, config.datasets[0])
        for fold in bundle.norm.folds():
            user = bundle.norm.users(fold, "uknn")[0]
            assert bundle.norm.scored_list(fold, "uknn", user) == []
        for k in (5, 15):
            out = tmp_path / f"fused{k}"
            assert main(["fuse", "--config", str(config_path), "--threads",
                         "1", "--out", str(out), "--dataset", "toy",
                         "--members", "cos+uknn", "--k", str(k), "--n",
                         "5"]) == 0
            lines = ["fold,user,item,score"]
            for fold in bundle.norm.folds():
                fused = fuse_all(bundle.norm, bundle.weights[5],
                                 ["cos", "uknn"], fold, k, 5)
                lines += [f"{fold},{user},{si.item_id},"
                          f"{format_score(si.score)}"
                          for user, fl in fused.items() for si in fl.items]
            assert ((out / "fused_toy_5.csv").read_text()
                    == "\n".join(lines) + "\n")

    def test_k_above_largest_scored_k_warns(self, tmp_path, run_dir, caplog):
        # The config scores lists to k = 10, so --k 15 fuses the same lists
        # as --k 10: the file is unchanged, and a warning names both ks.
        _, config_path = run_dir
        written = {}
        for k in (10, 15):
            caplog.clear()
            out = tmp_path / f"fused{k}"
            assert main(["fuse", "--config", str(config_path), "--out",
                         str(out), "--dataset", "toy", "--members", "cos+ppl",
                         "--k", str(k), "--n", "5"]) == 0
            written[k] = (out / "fused_toy_5.csv").read_bytes()
            warnings = [r.getMessage() for r in caplog.records
                        if r.levelno == logging.WARNING]
            if k == 10:
                assert warnings == []
            else:
                assert len(warnings) == 1
                assert "--k 15" in warnings[0]
                assert "largest scored k 10" in warnings[0]
        assert written[10] == written[15]

    def test_k_below_n_rejected(self, run_dir, capsys):
        _, config_path = run_dir
        code = main(["fuse", "--config", str(config_path), "--dataset", "toy",
                     "--members", "cos", "--k", "3", "--n", "5"])
        assert code == 1
        assert "k must be ≥ N" in capsys.readouterr().err

    def test_unknown_member_rejected(self, run_dir, capsys):
        _, config_path = run_dir
        code = main(["fuse", "--config", str(config_path), "--dataset", "toy",
                     "--members", "cos+nope", "--k", "10", "--n", "5"])
        assert code == 1
        assert "unknown member model(s): nope" in capsys.readouterr().err

    def test_unknown_dataset_rejected(self, run_dir, capsys):
        _, config_path = run_dir
        code = main(["fuse", "--config", str(config_path), "--dataset", "zzz",
                     "--members", "cos", "--k", "10", "--n", "5"])
        assert code == 1
        assert "unknown dataset" in capsys.readouterr().err

    def test_n_outside_n_values_rejected_before_any_work(
            self, tmp_path, monkeypatch, capsys):
        # The config has n_values [5]: --n 10 is a usage error found before
        # a dataset is prepared or the output directory is made.
        config_path, _ = make_config(tmp_path)

        def no_prepare(config, ds):
            raise AssertionError("prepare_dataset was called")

        monkeypatch.setattr(harness, "prepare_dataset", no_prepare)
        out = tmp_path / "fused"
        code = main(["fuse", "--config", str(config_path), "--out", str(out),
                     "--dataset", "toy", "--members", "cos", "--k", "10",
                     "--n", "10"])
        assert code == 1
        assert ("n=10 is not in the configured n_values"
                in capsys.readouterr().err)
        assert not out.exists()


class TestSelect:
    def test_exhaustive_trace_row_count(self, tmp_path):
        config_path, _ = make_config(
            tmp_path, selection={"mode": "exhaustive"})
        assert main(["select", "--config", str(config_path),
                     "--threads", "1"]) == 0
        lines = (tmp_path / "out" / "trace_toy_5.csv").read_text().splitlines()
        candidates = [l for l in lines if l.startswith("exhaustive,")]
        chosen = [l for l in lines if l.startswith("exhaustive-chosen,")]
        # 2^3 - 1 subsets per fold, then a validation and a test row per fold
        assert len(candidates) == 7 * 3
        assert len(chosen) == 2 * 3


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "config file not found" in capsys.readouterr().err

    def test_invalid_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"output_dir": "x"}))
        code = main(["run", "--config", str(bad)])
        assert code == 1
        assert "invalid config" in capsys.readouterr().err

    @pytest.mark.parametrize("dataset,model,message", [
        ({"format": "xlsx"}, None, "unknown format 'xlsx'"),
        ({"columns": {"user": "user"}}, None, "must map 'user' and 'item'"),
        ({"synthetic": {"n_users": 30.5}}, None, "n_users must be a JSON int"),
        ({"synthetic": {"n_users": "30"}}, None, "n_users must be a JSON int"),
        (None, {"params": {"knn": 5}}, r"unknown parameters \['knn'\]"),
        (None, {"params": {"nn": 0}}, "nn must be >= 1"),
        (None, {"params": {"nn": "5"}}, "nn must be a JSON int, got '5'"),
        ({"columns": 5}, None, "'bad' columns must be a JSON object, got 5"),
        (None, {"params": 5}, "model params must be a JSON object, got 5"),
        (None, {"id": 5}, "model id must be a JSON string, got 5"),
        (None, {"id": ""}, "model id must be nonempty"),
    ], ids=["format", "columns", "float-count", "string-count",
            "unknown-param", "bad-param", "string-param", "columns-shape",
            "params-shape", "id-shape", "id-empty"])
    def test_bad_entry_rejected_at_load(self, tmp_path, capsys, dataset,
                                        model, message):
        config_path, raw = make_config(tmp_path)
        if dataset is not None:
            entry = {"name": "bad"}
            if "synthetic" in dataset:
                entry["synthetic"] = {**raw["datasets"][0]["synthetic"],
                                      **dataset["synthetic"]}
            else:
                data = tmp_path / "events.csv"
                data.write_text("user,item\nu1,i1\nu2,i1\n")
                entry.update(path=str(data), **dataset)
            raw["datasets"].append(entry)
        if model is not None:
            raw["models"].append({"kind": "user-knn", "id": "uk2", **model})
        config_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config_path),
                     "--threads", "1"]) == 1
        err = capsys.readouterr().err
        assert "invalid config" in err
        assert re.search(message, err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,text,message", [
        ("n_users", "0", "need at least one user and one item"),
        ("n_interactions", "2401",
         r"n_interactions must be in \[1, n_users \* n_items\]"),
        ("n_factors", "0", "n_factors must be >= 1"),
        ("noise_scale", "-1e309", "noise_scale must be finite, got -inf"),
        ("popularity_weight", "NaN", "popularity_weight must be finite"),
    ], ids=["users", "events", "factors", "noise-inf", "weight-nan"])
    def test_out_of_range_recipe_rejected_at_load(self, tmp_path, capsys, key,
                                                  text, message):
        # JSON reads -1e309 as -inf, and Python's json accepts NaN.
        config_path, raw = make_config(tmp_path)
        raw["datasets"][0]["synthetic"][key] = "@"
        config_path.write_text(json.dumps(raw).replace('"@"', text))
        assert main(["run", "--config", str(config_path),
                     "--threads", "1"]) == 1
        err = capsys.readouterr().err
        assert "invalid config" in err
        assert re.search(f"dataset 'toy' synthetic: {message}", err)
        assert not (tmp_path / "out").exists()

    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "a command is required" in capsys.readouterr().err

    def test_unknown_flag(self, tmp_path, capsys):
        config_path, _ = make_config(tmp_path)
        code = main(["run", "--config", str(config_path), "--bogus"])
        assert code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate", "--config", "x.json"]) == 1


def test_console_script_entry_point(tmp_path):
    # Build the launcher that installing the package would put on PATH, from
    # the project's own declarations, so the test needs no install step.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    module, attr = project["project"]["scripts"]["recfuse"].split(":")
    roots = [ROOT / where for where in
             project["tool"]["setuptools"]["packages"]["find"]["where"]]
    module_file = Path(*module.split(".")).with_suffix(".py")
    assert any((root / module_file).is_file() for root in roots), (
        f"{module} is not under the package roots {roots}")

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "recfuse"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import re\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({attr}())\n")
    launcher.chmod(0o755)
    # The launcher's directory goes first so that a recfuse installed
    # elsewhere cannot stand in for it.
    env = dict(os.environ,
               PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
               PYTHONPATH=os.pathsep.join(str(root) for root in roots))
    exe = shutil.which("recfuse", path=env["PATH"])
    assert exe is not None, "console script not on PATH"

    config_path, _ = make_config(tmp_path)
    proc = subprocess.run(
        [exe, "split", "--config", str(config_path), "--threads", "1"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "splits_toy.csv").exists()
    assert proc.stdout == ""
