"""Benchmark of the ``equimeasure`` CLI on one named workload.

Run from the repository root::

    python3 bench/run.py --workload ternary-solve --seed 1 --seconds 18 --trace 0

The workload's CLI command (see ``workloads.py``) runs again and again
until ``--seconds`` seconds have passed (at least once), each time in a fresh
interpreter started by ``command.py``, one at a time.  Every run's outputs
are checked against the acceptance suite's references.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": <checks>, "failed": <checks>, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, each the median
over the runs: ``wall_s`` and ``cpu_s`` of the command, ``setup_s`` (from
starting the interpreter to the command: start-up, import and config
write, plus the cache-filling ``solve`` of a warm-cache workload) and
``peak_rss_mb`` of the command's process.  With ``--trace 1`` one more
run is traced and the metrics are the per-layer ones (see ``metrics.py``).
A JSON file with the same metrics, every check, every sample, the
provenance and, when traced, the spans is written to ``.bench_out/``.

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COMMAND_TIMEOUT_S = 150
# start-ups measured on their own, besides the one before each command
EXTRA_STARTUPS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest configs, no reference values (for selftest.py)")
    return p.parse_args(argv)


def command_env() -> dict:
    """Environment of the command processes: BLAS uses every usable core."""
    threads = str(len(os.sched_getaffinity(0)))
    return {**os.environ, **{var: threads for var in BLAS_ENV}}


def run_command(cli_argv, report: Path, trace: bool = False) -> dict:
    """Run one CLI command in a fresh interpreter and return its report.

    ``setup_s`` is the time from starting the interpreter to the start of
    the command.  A command that crashes, times out or writes no report
    comes back with a non-zero ``status``.
    """
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "command.py"), str(report), str(int(trace)),
             *cli_argv],
            env=command_env(), capture_output=True, text=True,
            timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"status": f"timed out after {COMMAND_TIMEOUT_S} s"}
    if not report.exists():
        return {"status": f"no report; exit {proc.returncode}: {proc.stderr[-2000:]}"}
    data = json.loads(report.read_text())
    report.unlink()
    data["setup_s"] = data["command_start"] - t0
    if data["status"] != 0:
        print(f"command {cli_argv} failed: {data['status']}\n{data['output']}",
              file=sys.stderr)
    return data


def provenance(versions: dict) -> dict:
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, check=True)
        top, commit = git.stdout.split()
        commit = commit if Path(top).resolve() == ROOT else None
    except (OSError, subprocess.CalledProcessError, ValueError):
        commit = None  # not a git checkout
    return {
        "git_commit": commit,
        **versions,
        "nproc": os.cpu_count(),
        "blas_threads": int(command_env()["OPENBLAS_NUM_THREADS"]),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "equimeasure" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        workload = workloads.make(args.workload, args.seed, args.tiny)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        result = measure(workload, args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    OUT.mkdir(exist_ok=True)
    size = "-tiny" if args.tiny else ""
    out_file = OUT / f"{workload.name}{size}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1))

    for name, m in result["metrics"].items():
        print(f"{name:56s} {m['value']:.6g} {m['unit']}")
    print(f"checks: {result['attempted']} attempted, {result['failed']} failed; "
          f"details in {out_file.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    return 0


def measure(workload, args) -> dict:
    checks = workloads.Checks()
    fill_s = 0.0
    warm_dir = WORK / "warm"
    if workload.warm:
        t0 = time.monotonic()
        fill = run_command(["solve", "--config",
                            str(workloads.write_config(workload, warm_dir))],
                           WORK / "fill.json")
        fill_s = time.monotonic() - t0
        checks.expect("cache-filling solve exit status 0", fill["status"] == 0,
                      fill["status"])

    def one_run(name, trace=False):
        outdir = warm_dir if workload.warm else WORK / name
        t0 = time.monotonic()
        config = workloads.write_config(workload, outdir)
        write_s = time.monotonic() - t0
        stamps = workloads.record_stamps(outdir)
        report = run_command([*workload.argv, "--config", str(config)],
                             WORK / f"{name}.json", trace)
        report["setup_s"] = report.get("setup_s", math.nan) + write_s
        checks.expect("command exit status 0", report["status"] == 0, report["status"])
        report["edge_dev"] = 0.0
        try:
            report["edge_dev"] = workloads.check(checks, workload, outdir, stamps,
                                                 args.tiny)
        except (OSError, LookupError, ValueError) as exc:  # missing or garbled output
            checks.expect("outputs readable", False, repr(exc))
        if not workload.warm:
            shutil.rmtree(outdir)
        return report

    runs = []
    begin = time.monotonic()
    while not runs or time.monotonic() - begin < args.seconds:
        runs.append(one_run(f"run{len(runs)}"))

    ok_runs = [r for r in runs if r["status"] == 0] or runs
    samples = {key: [r.get(key, math.nan) for r in ok_runs]
               for key in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    startups = [run_command([], WORK / "startup.json") for _ in range(EXTRA_STARTUPS)]
    samples["setup_s"] += [r.get("setup_s", math.nan) for r in startups]
    e2e = {key: statistics.median(values) for key, values in samples.items()}
    e2e["setup_s"] += fill_s
    result = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "config": workload.config, "argv": list(workload.argv),
        "runs": len(runs), "fill_s": fill_s, "samples": samples, "end_to_end": e2e,
        "provenance": provenance(runs[0].get("versions", {})),
    }

    if args.trace:
        traced = one_run("traced", trace=True)
        spans = [tracer.Span.from_list(s) for s in traced.get("spans") or ()]
        if spans:
            values = metrics.per_layer_values(spans, e2e["wall_s"], traced["edge_dev"])
        else:
            values = {name: 0 for name in metrics.PER_LAYER}
        if workload.warm:
            hits = values["cli.SolutionCache.load.hits"]
            checks.expect("traced cache hits == n_max",
                          hits == workload.config["n_max"], hits)
        result["per_layer"] = values
        result["spans"] = traced.get("spans")
        reported = {k: (v, metrics.PER_LAYER[k]) for k, v in values.items()}
    else:
        reported = {k: (v, metrics.END_TO_END[k]) for k, v in e2e.items()}

    failed = sum(not c["ok"] for c in checks.results)
    result.update({
        "correct": failed == 0,
        "attempted": len(checks.results),
        "failed": failed,
        "error_rate": failed / len(checks.results),
        "checks": checks.results,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    })
    return result


if __name__ == "__main__":
    sys.exit(main())
