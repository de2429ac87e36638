#!/usr/bin/env python3
"""recfuse benchmark: end-to-end and per-layer metrics of `recfuse run`.

Run from the repository root:

    python3 perfbench/run.py --workload fit-wide --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One invocation:

1. writes the workload's inputs from `--seed` (interaction and external
   matrix CSVs, config) and records their sizes and sha256;
2. measures `setup_s`: fresh processes that only import `recfuse.cli` and
   validate the config, median of SETUP_REPEATS;
3. closed loop, one client: fresh `python -m recfuse.cli run --threads 2`
   processes (PYTHONPATH=src, BLAS threads pinned to 2), one at a time, until
   `--seconds` would be exceeded (at least one). Each run's wall time, CPU
   time and peak RSS come from `os.wait4` on that child;
4. with `--trace 1`, first one traced in-process run (traced_run.py,
   threads=1), then the untraced loop for the rest of the time;
5. verifies every bundle (manifest, artifacts, tables vs trace CSV, digest
   equal across runs, traced digest equal, oracle check) and counts failed
   (dataset, n) cells.

The last stdout line is one JSON object: `correct`, `attempted` and `failed`
(cells) and `metrics` (end-to-end with `--trace 0`, the per-layer metrics of
layers.RESULT_LINE with `--trace 1`). The lines above it print every metric.
A full record of the invocation is written under `.perfbench_work/results/`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy

from layers import PER_LAYER, RESULT_LINE, layer_metrics, span_summary
from workloads import SELFTEST, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
THREADS = 2            # the program's --threads; equals nproc on the 2-core
                       # machine the bounds were set on
SETUP_REPEATS = 7
RUN_TIMEOUT_S = 120    # one child; the whole invocation must end in 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_CODE = ("import sys, recfuse.cli; "
              "from recfuse.harness import ExperimentConfig; "
              "ExperimentConfig.from_file(sys.argv[1])")


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    for var in BLAS_VARS:
        env[var] = str(threads)
    return env


def spawn(cmd: list[str], threads: int, log: Path) -> dict:
    """Run one child to completion; wall from spawn to exit, rusage of it."""
    load_before = os.getloadavg()
    with log.open("wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(threads), stdout=fh,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
        "load_before": load_before,
        "load_after": os.getloadavg(),
    }


# -- verification ----------------------------------------------------------

def bundle_digest(out: Path) -> str:
    """sha256 over (name, sha256) of every file but timings.json."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.iterdir() if p.name != "timings.json"):
        h.update(path.name.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _cell_ok(out: Path, dataset: str, n: int, n_folds: int) -> bool:
    """The cell's artifacts exist, and the ensemble's per-fold test scores in
    the table equal the chosen subsets' test rows in the trace."""
    names = [f"weights_{dataset}_{n}.csv", f"tables_{dataset}_{n}.csv",
             f"trace_{dataset}_{n}.csv", f"sweep_{dataset}_{n}.csv"]
    if not all((out / name).is_file() for name in names):
        return False
    try:
        table = _rows(out / names[1])
        trace = _rows(out / names[2])
        ensemble = [r for r in table if r["model"] == "ensemble"]
        chosen = {r["fold"]: r["ndcg"] for r in trace
                  if r["mode"].endswith("-chosen") and r["split"] == "test"}
        if len(ensemble) != 1 or len(chosen) != n_folds:
            return False
        per_fold = [ensemble[0][f"ndcg_fold{i}"] for i in range(n_folds)]
        return (per_fold == [chosen[str(i)] for i in range(n_folds)]
                and all(0.0 <= float(v) <= 1.0 for v in per_fold))
    except (KeyError, ValueError):
        return False


def verify_bundle(out: Path, config: dict, exit_code: int) -> dict:
    """Failed cells of one run: listed in the manifest, all of them on a
    crash, or any whose artifacts fail the checks in _cell_ok."""
    cells = [(d["name"], n) for d in config["datasets"]
             for n in config["n_values"]]
    manifest_path = out / "manifest.json"
    if exit_code not in (0, 2) or not manifest_path.is_file():
        return {"failed": len(cells), "digest": None, "failures": ["crash"]}
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    failures = list(manifest["failed_cells"])
    listed = {c.split(":", 1)[0] for c in failures}
    for dataset, n in cells:
        label = f"{dataset}/n={n}"
        if label not in listed and not _cell_ok(out, dataset, n,
                                                config["n_folds"]):
            failures.append(f"{label}: artifacts fail verification")
    if exit_code != 0 and not failures:
        failures.append("nonzero exit without a failed cell")
    return {"failed": min(len(failures), len(cells)),
            "digest": bundle_digest(out), "failures": failures}


# -- one invocation ----------------------------------------------------------

def git_sha() -> str | None:
    if not Path(".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def run_record() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "blas_env_untraced": {v: str(THREADS) for v in BLAS_VARS},
        "blas_env_traced": {v: "1" for v in BLAS_VARS},
        "platform": platform.platform(),
    }


def untraced_runs(work: Path, config_path: Path, config: dict,
                  budget_s: float) -> list[dict]:
    """Closed loop until the next run would overrun budget_s (at least one)."""
    runs = []
    start = time.perf_counter()
    while True:
        out = work / f"out-{len(runs)}"
        cmd = [sys.executable, "-m", "recfuse.cli", "run", "--config",
               str(config_path), "--out", str(out), "--threads", str(THREADS)]
        run = spawn(cmd, THREADS, work / f"run-{len(runs)}.log")
        run.update(verify_bundle(out, config, run["exit"]))
        shutil.rmtree(out, ignore_errors=True)
        runs.append(run)
        typical = statistics.median(r["wall_s"] for r in runs)
        if time.perf_counter() - start + typical > budget_s:
            return runs


def traced_run(work: Path, config_path: Path, config: dict
               ) -> tuple[dict, dict]:
    out = work / "out-traced"
    result_path = work / "trace.json"
    cmd = [sys.executable, str(HERE / "traced_run.py"), str(config_path),
           str(out), str(result_path)]
    run = spawn(cmd, 1, work / "traced.log")
    run.update(verify_bundle(out, config, run["exit"]))
    shutil.rmtree(out, ignore_errors=True)
    trace = {"spans": [], "counts": {}, "missing": [], "oracle": [],
             "post_run_s": 0.0}
    if result_path.is_file():
        trace = json.loads(result_path.read_text(encoding="utf-8"))
    run["run_s"] = run["wall_s"] - trace["post_run_s"]
    return run, trace


def measure(workload: Workload, seed: int, seconds: float, trace: bool
            ) -> dict:
    work = WORK / f"{workload.name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(workload: Workload, seed: int, seconds: float, trace: bool,
             work: Path) -> dict:
    started = time.perf_counter()
    config_path, inputs = workload.build(work / "inputs", seed)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "run_record": run_record(),
              "inputs": inputs,
              "inputs_sha256": hashlib.sha256("".join(
                  f["sha256"] for f in inputs).encode()).hexdigest()}

    setup = [spawn([sys.executable, "-c", SETUP_CODE, str(config_path)],
                   THREADS, work / "setup.log") for _ in range(SETUP_REPEATS)]
    setup_ok = all(s["exit"] == 0 for s in setup)
    budget = seconds - (time.perf_counter() - started)

    traced = layer_trace = None
    if trace:
        traced, layer_trace = traced_run(work, config_path, config)
        budget -= traced["wall_s"]
    runs = untraced_runs(work, config_path, config, budget)

    # Every bundle of the workload and seed must be byte-identical.
    digests = [r["digest"] for r in runs if r["digest"] is not None]
    reference = max(set(digests), key=digests.count) if digests else None
    cells = workload.cells()
    attempted = cells * len(runs)
    failed = 0
    for run in runs:
        if run["digest"] != reference:
            run["failures"].append("bundle digest differs")
            run["failed"] = cells
        failed += run["failed"]

    median_run = statistics.median(r["wall_s"] for r in runs)
    oracle_ok = True
    if trace:
        attempted += cells
        if traced["digest"] != reference:
            traced["failures"].append("traced bundle digest differs")
            traced["failed"] = cells
        oracle = layer_trace["oracle"]
        oracle_bad = sum(not c["ok"] for c in oracle)
        oracle_ok = oracle_bad == 0 and len(oracle) == cells
        failed += max(traced["failed"], min(cells, oracle_bad))
        metrics = layer_metrics(layer_trace, traced["run_s"], median_run)
        units = PER_LAYER
        record["traced_run"] = traced
        record["layers"] = {"missing": layer_trace["missing"],
                           "oracle": layer_trace["oracle"],
                           "counts": layer_trace["counts"],
                           "spans": span_summary(layer_trace)}
    else:
        metrics = {
            "run_s": median_run,
            "setup_s": statistics.median(s["wall_s"] for s in setup),
            "cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        units = END_TO_END

    correct = setup_ok and failed == 0 and reference is not None and oracle_ok
    record.update(
        setup=setup, runs=runs, bundle_digest=reference, correct=correct,
        attempted=attempted, failed=failed,
        cells_failed_frac=failed / attempted,
        metrics={name: {"value": metrics[name], "unit": unit}
                 for name, unit in units.items()},
        elapsed_s=time.perf_counter() - started)
    return record


# -- output ------------------------------------------------------------------

def save(record: dict) -> Path:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / (f"{record['workload']}-s{record['seed']}"
                      f"-t{record['trace']}-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def report(record: dict, path: Path):
    runs = record["runs"]
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {len(runs)} untraced runs, "
          f"{SETUP_REPEATS} setup samples (medians)")
    print(f"  inputs sha256 {record['inputs_sha256']}  "
          f"bundle sha256 {record['bundle_digest']}")
    for name, m in record["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'cells_failed_frac':34s} {record['cells_failed_frac']:14.6g} "
          f"ratio ({record['failed']}/{record['attempted']} cells)")
    if "layers" in record:
        oracle = record["layers"]["oracle"]
        same = record["traced_run"]["digest"] == record["bundle_digest"]
        print(f"  oracle check: {sum(c['ok'] for c in oracle)}/{len(oracle)} "
              f"cells within 1e-12; traced digest "
              f"{'matches' if same else 'DIFFERS'}")
        if record["layers"]["missing"]:
            print(f"  not traced (missing): {record['layers']['missing']}")
    verdict = "PASS" if record["correct"] else "FAIL"
    print(f"  verification: {verdict}  record: {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, *SELFTEST, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/recfuse/cli.py").is_file():
        print("perfbench: run from the repository root (src/recfuse/cli.py "
              "not found)", file=sys.stderr)
        return 2

    if args.workload == "all":
        jobs = [(w, t) for w in WORKLOADS.values() for t in (False, True)]
    else:
        workload = {**WORKLOADS, **SELFTEST}[args.workload]
        jobs = [(workload, bool(args.trace))]

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in jobs:
        record = measure(workload, args.seed, args.seconds, trace)
        report(record, save(record))
        summary["correct"] &= record["correct"]
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        prefix = f"{workload.name}/" if len(jobs) > 1 else ""
        for name in RESULT_LINE if trace else END_TO_END:
            summary["metrics"][prefix + name] = record["metrics"][name]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
