#!/usr/bin/env python3
"""Self-test of the benchmark harness (takes about three minutes).

    python3 perfbench/selftest.py

Runs every workload once at its smallest length (``--seconds 1``), untraced
and traced, species-cold included, and checks that:

* the result line has exactly the keys of the contract, the answers are
  correct, and every metric named in BENCHMARK.json is printed with its unit;
* the machine-independent counters agree between the two runs of one seed;
* a planted wrong expectation is counted as a failed op, without ending the
  run;
* in a directory holding only BENCHMARK.json and the benchmark's own files the
  benchmark exits non-zero without printing a result.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from run import WORKLOAD_NAMES  # noqa: E402


def run(cwd: Path, workload: str, trace: int, *extra: str) -> tuple[int, dict | None, str]:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(list(cmd) + list(extra), cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def counters(stderr: str) -> str:
    return next((line.strip() for line in stderr.splitlines() if line.strip().startswith("counters ")), "")


def main() -> int:
    problems: list[str] = []

    def check(ok: bool, message: str) -> None:
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            problems.append(message)

    for name in WORKLOAD_NAMES:
        seen = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, stderr = run(ROOT, name, trace)
            check(code == 0 and result is not None, f"{name} trace={trace}: exit 0 with a result line")
            if result is None:
                print(stderr[-3000:])
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name} trace={trace}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name} trace={trace}: correct, {result['failed']} of {result['attempted']} ops failed")
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(got == want, f"{name} trace={trace}: every {section} metric printed with its unit")
            check(all(isinstance(v.get("value"), (int, float)) for v in result["metrics"].values()),
                  f"{name} trace={trace}: every metric value is a number")
            seen[trace] = counters(stderr)
        if len(seen) == 2:
            check(bool(seen[0]) and seen[0] == seen[1], f"{name}: counters agree between runs of seed 1")

    cheapest = "partition-search"
    code, result, _ = run(ROOT, cheapest, 0, "--plant-failure")
    check(code == 0 and result is not None, f"{cheapest} with a planted failure: the run completes")
    if result is not None:
        ok_ratio = result["metrics"]["ok_ratio"]["value"]
        check(result["failed"] == 1 and not result["correct"], f"{cheapest}: the planted failure is counted")
        check(ok_ratio == (result["attempted"] - 1) / result["attempted"], f"{cheapest}: ok_ratio = 1 - failed_ratio")

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = run(bare, SPEC["workloads"][0]["name"], 0)
        check(code != 0 and result is None, "without the program: non-zero exit and no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
