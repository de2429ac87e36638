#!/usr/bin/env python3
"""Self-test of the benchmark (about 1.5 min).

Run from the repository root:

    python3 perfbench/selftest.py

Checks that
- BENCHMARK.json names exactly the workloads and metrics run.py produces;
- every metric is printed by name with its unit, untraced and traced;
- the tiny workload verifies (digests, oracle) with no failed cell;
- every result-line metric is non-zero on every workload, traced and
  untraced, each at full size but with a single untraced run;
- one bad input (an external list out of order) makes the program exit 2
  with a failed_cells entry, counts in cells_failed_frac and does not crash
  the benchmark;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from layers import PER_LAYER, RESULT_LINE
from run import END_TO_END, WORK
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(workload: str, trace: int, cwd: Path = Path(".")
          ) -> tuple[subprocess.CompletedProcess, dict | None]:
    """One invocation with `--seconds 1`: set-up, the traced run if asked,
    and one untraced run."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done, result


def printed_with_units(stdout: str, units: dict[str, str]) -> bool:
    words = {tuple(line.split()[::2][:2]) for line in stdout.splitlines()
             if len(line.split()) >= 3}
    return all((name, unit) in words for name, unit in units.items())


def record_of(stdout: str) -> dict:
    path = stdout.split("record: ", 1)[1].split()[0]
    return json.loads(Path(path).read_text(encoding="utf-8"))


def main() -> int:
    problems: list[str] = []

    def check(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads match workloads.py")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
          "BENCHMARK.json end_to_end matches run.py")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == RESULT_LINE,
          "BENCHMARK.json per_layer matches layers.py")

    for trace, units, printed in ((0, END_TO_END, END_TO_END),
                                  (1, RESULT_LINE, PER_LAYER)):
        done, result = bench("selftest", trace)
        check(done.returncode == 0 and result is not None
              and set(result) == RESULT_KEYS,
              f"trace {trace}: exit 0 and a result line")
        if result is None:
            continue
        check(result["correct"] and result["failed"] == 0
              and result["attempted"] > 0,
              f"trace {trace}: verified, no failed cell")
        check({k: v["unit"] for k, v in result["metrics"].items()} == units,
              f"trace {trace}: result holds every metric with its unit")
        check(printed_with_units(done.stdout, printed),
              f"trace {trace}: every metric printed by name with its unit")
        check("cells_failed_frac" in done.stdout,
              f"trace {trace}: cells_failed_frac printed")

    for workload in WORKLOADS:
        for trace in (0, 1):
            done, result = bench(workload, trace)
            zero = (["no result"] if result is None else
                    [k for k, v in result["metrics"].items() if v["value"] == 0])
            check(not zero and result["correct"],
                  f"{workload} trace {trace}: verified, no metric is 0 {zero}")

    done, result = bench("selftest-bad", 0)
    check(done.returncode == 0 and result is not None,
          "bad input: benchmark exits 0 with a result")
    if result is not None:
        runs = record_of(done.stdout)["runs"]
        check(not result["correct"] and result["failed"] > 0,
              "bad input: counted as failed cells, result not correct")
        check(all(r["exit"] == 2 and r["failures"] for r in runs),
              "bad input: program exits 2 with a failed_cells entry")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done, result = bench("fit-wide", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and result is None,
          "without the program: non-zero exit, no result")

    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
