"""The benchmark's traced run still sees every layer of the pipeline.

Runs `perfbench/traced_run.py` as a subprocess on a tiny synthetic config.
A rename or a changed call path that hides a layer from the tracer shows
here as a missing span, not as a per-layer metric that silently reads 0.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Every span a synthetic, built-in-only, greedy config reaches. File loads,
# external matrices and the per-user NDCG oracle are not on its path.
EXPECTED_SPANS = {
    "harness.run", "harness.prepare", "synthetic.generate", "data.split",
    "baselines.fit", "baselines.predict", "harness.merge", "fusion.normalize",
    "selection.weights", "harness.model_ndcg", "harness.selection",
    "fusion.fuser_build", "fusion.eval", "selection.search",
    "data.write_splits", "harness.write_weights", "harness.write_table",
    "harness.write_trace", "harness.write_sweep",
}


def test_traced_run_records_every_layer(tmp_path):
    config = {
        "seed": 5,
        "output_dir": str(tmp_path / "unused"),
        "datasets": [{"name": "tiny", "synthetic": {
            "n_users": 30, "n_items": 40, "n_interactions": 500}}],
        "models": [
            {"kind": "popularity", "id": "ppl"},
            {"kind": "item-item-cosine", "id": "cos"},
            {"kind": "item-item-tfidf", "id": "tfidf"},
            {"kind": "user-knn", "id": "uknn", "params": {"nn": 5}},
        ],
        "n_values": [5],
        "k_values": [5, 10],
        "n_folds": 2,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    result_path = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "perfbench/traced_run.py", str(config_path),
         str(tmp_path / "out"), str(result_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(result_path.read_text())

    recorded = {name for name, *_ in record["spans"]}
    assert EXPECTED_SPANS <= recorded, sorted(EXPECTED_SPANS - recorded)
    assert set(record["missing"]) <= {"recfuse.harness.ndcg_model"}
    assert record["failed_cells"] == []
    assert record["oracle"] and all(check["ok"] for check in record["oracle"])
    assert record["counts"]["baselines.lists_scored"] > 0
