"""Self-test of the benchmark on tiny configs (about a minute).

Run from the repository root::

    python3 bench/selftest.py [--seed N]

For every workload, in an order drawn from the seed, it runs ``run.py
--tiny`` once untraced and twice traced, then asserts that

* the result line has exactly the keys the benchmark contract names,
  at least one check attempted, and no failed checks;
* the metric names and units are those of ``BENCHMARK.json``;
* every count metric (``metrics.COUNTS``) repeats exactly between the
  two traced runs.

Exits with status 1 and lists the problems when any assertion fails.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_tiny(name: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, check=True, cwd=ROOT)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    if expected[0] != metrics.END_TO_END or expected[1] != metrics.PER_LAYER:
        problems.append("BENCHMARK.json metrics differ from metrics.py")

    order = list(workloads.NAMES)
    random.Random(args.seed).shuffle(order)
    for name in order:
        results = [run_tiny(name, args.seed, trace) for trace in (0, 1, 1)]
        for trace, result in zip((0, 1, 1), results):
            if set(result) != RESULT_KEYS:
                problems.append(f"{name}: result keys {sorted(result)}")
            if result["attempted"] < 1 or result["failed"] or not result["correct"]:
                problems.append(f"{name}: {result['failed']} of "
                                f"{result['attempted']} checks failed")
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{name} trace={trace}: metric names or units "
                                "differ from BENCHMARK.json")
        first, second = (r["metrics"] for r in results[1:])
        for key in metrics.COUNTS:
            if first[key]["value"] != second[key]["value"]:
                problems.append(f"{name}: {key} {first[key]['value']} != "
                                f"{second[key]['value']}")
        print(f"{name}: done", flush=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
