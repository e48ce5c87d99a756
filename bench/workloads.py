"""The four benchmark workloads: configs, set-up and output checks.

Each workload is one ``equimeasure`` CLI command on a fixed config.  The
reference values and tolerances are those of the acceptance suite
(``tests/test_acceptance.py``); the capacity reference is Ransford &
Rostand, Math. Comp. 76 (2007).

``tiny=True`` gives the smallest configs that still run every code path
of a workload (the capacity fit needs four generations); ``selftest.py``
uses them.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

TERNARY = [[1.0 / 3.0, -1.0], [1.0 / 3.0, 1.0]]
ASYM = [[0.8, -1.0], [0.1, 1.0]]

# on-set point near the left hull end, inside the leftmost band of every
# generation used here
X_STAR = -0.999996236647154
TABLE_MEAN = {1: 0.752051, 5: 0.812210, 6: 0.814392, 7: 0.815509}
CANTOR_CAPACITY = 0.441898204379014
PUBLISHED_CAPACITY_MEAN_PATH = 0.44189726
PUBLISHED_CAPACITY_POINT_PATH = 0.44189238
# closed-form potential on [-1, -1/3] u [1/3, 1]
TWO_BAND_V = -math.log(math.sqrt(8.0 / 9.0) / 2.0)
GRID_COUNT = 51

NAMES = ("ternary-solve", "asym-solve", "ternary-capacity", "figures-small")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple       # CLI arguments before ``--config``
    config: dict      # config JSON, without ``output_dir``
    warm: bool        # cache filled by a ``solve`` during set-up


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    if name == "ternary-solve":
        cfg = {"ifs": TERNARY, "n_max": 3 if tiny else 6, "residual_tol": 1e-13}
        return Workload(name, ("solve",), _small(cfg, tiny), warm=False)
    if name == "asym-solve":
        cfg = {"ifs": ASYM, "n_max": 3 if tiny else 7, "residual_tol": 1e-12}
        return Workload(name, ("solve",), _small(cfg, tiny), warm=False)
    if name == "ternary-capacity":
        cfg = {"ifs": TERNARY, "n_max": 4 if tiny else 7, "residual_tol": 1e-13,
               "sample_count": 64 if tiny else 256, "point_x": X_STAR}
        return Workload(name, ("capacity",), _small(cfg, tiny), warm=True)
    if name == "figures-small":
        # the seed moves both grid ends a little inside the hull [-1, 1]
        rng = random.Random(seed)
        lo = -1.0 + rng.uniform(1e-4, 1e-2)
        hi = 1.0 - rng.uniform(1e-4, 1e-2)
        cfg = {"ifs": TERNARY, "n_max": 4, "residual_tol": 1e-13,
               "sample_count": 64 if tiny else 256,
               "x_grid": {"lo": lo, "hi": hi, "count": GRID_COUNT}}
        return Workload(name, ("figures", "--which", "all"), _small(cfg, tiny),
                        warm=False)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def _small(cfg: dict, tiny: bool) -> dict:
    return {**cfg, "quadrature_order": 256} if tiny else cfg


def write_config(workload: Workload, outdir: Path) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "config.json"
    path.write_text(json.dumps({**workload.config, "output_dir": str(outdir)}))
    return path


def record_stamps(outdir: Path) -> dict:
    """Identity of every cache record; a rewritten record gets a new one."""
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
            for p in outdir.glob("gen_*.json")}


class Checks:
    """Named pass/fail outcomes with the value each one judged."""

    def __init__(self):
        self.results: list[dict] = []

    def expect(self, label: str, ok: bool, value=None) -> None:
        self.results.append({"check": label, "ok": bool(ok), "value": value})


def _records(outdir: Path) -> dict:
    return {int(p.stem.split("_")[1]): json.loads(p.read_text())
            for p in outdir.glob("gen_*.json")}


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check(checks: Checks, workload: Workload, outdir: Path, stamps: dict,
          tiny: bool = False) -> float:
    """Check one finished command's outputs in ``outdir`` into ``checks``.

    ``stamps`` are the cache records' identities before the command.
    Returns the largest deviation of the potential at the hull ends from
    the mean potential on the set (``figures-small`` only, else 0).
    Reference values only apply to the full-size configs.
    """
    cfg = workload.config
    edge_dev = 0.0
    if workload.name in ("ternary-solve", "asym-solve"):
        lam_bound = 1.0 if workload.name == "ternary-solve" else 0.1
        _check_solve(checks, outdir, cfg["n_max"], cfg["residual_tol"], lam_bound)
    elif workload.name == "ternary-capacity":
        hits = sum(record_stamps(outdir).get(name) == stamp
                   for name, stamp in stamps.items())
        checks.expect("cache hits == n_max", hits == cfg["n_max"], hits)
        if not tiny:
            _check_capacity(checks, outdir)
    else:
        edge_dev = _check_figures(checks, outdir, cfg, tiny)
    return edge_dev


def _check_solve(checks, outdir, n_max, tol, lam_bound):
    recs = _records(outdir)
    checks.expect(f"{n_max} records written", sorted(recs) == list(range(1, n_max + 1)),
                  len(recs))
    for n in range(1, n_max + 1):
        rec = recs.get(n)
        if rec is None:
            continue
        worst = max(rec["residuals"], default=0.0)
        checks.expect(f"n={n} max residual <= {tol:g}", worst <= tol, worst)
        mass = abs(math.fsum(rec["omega"]) - 1.0)
        checks.expect(f"n={n} |sum omega - 1| < 1e-9", mass < 1e-9, mass)
        lam = max((abs(v) for v in rec["lambda"]), default=0.0)
        checks.expect(f"n={n} max |lambda| < {lam_bound:g}", lam < lam_bound, lam)


def _check_capacity(checks, outdir):
    rows = _csv_rows(outdir / "capacity_table.csv")
    means = {int(r["n"]): float(r["V_mean"]) for r in rows}
    for n, expected in TABLE_MEAN.items():
        got = means.get(n, math.nan)
        checks.expect(f"V_mean(n={n}) within 5e-4 of {expected}",
                      abs(got - expected) <= 5e-4, got)
    cap_mean = float(rows[-1]["capacity_mean"])
    cap_point = float(rows[-1]["capacity_point"])
    checks.expect("mean-path capacity within 5e-5 of the reference",
                  abs(cap_mean - CANTOR_CAPACITY) <= 5e-5, cap_mean)
    checks.expect("mean-path capacity within 5e-6 of the published value",
                  abs(cap_mean - PUBLISHED_CAPACITY_MEAN_PATH) <= 5e-6, cap_mean)
    checks.expect("point-path capacity within 1e-5 of the published value",
                  abs(cap_point - PUBLISHED_CAPACITY_POINT_PATH) <= 1e-5, cap_point)


def _check_figures(checks, outdir, cfg, tiny):
    from equimeasure import cli
    from equimeasure.analytics import integrated_measure_at, potential_at

    n_max, n_maps = cfg["n_max"], len(cfg["ifs"])
    gaps = sum(n_maps ** n - 1 for n in range(1, n_max + 1))
    expected_rows = {
        "residuals_before_after": gaps, "jacobian_decay": (n_maps ** n_max - 1) ** 2,
        "lambda_vs_n": gaps, "Omega_vs_n": gaps,
        "Omega_of_x": n_max * GRID_COUNT, "gapmeasure_fit": n_max,
        "potential_profile": n_max * GRID_COUNT, "capacity_table": n_max,
    }
    tables = {}
    for name, count in expected_rows.items():
        path = outdir / f"{name}.csv"
        tables[name] = _csv_rows(path) if path.exists() else []
        checks.expect(f"{name}.csv has {count} rows", len(tables[name]) == count,
                      len(tables[name]))

    v_mean = {int(r["n"]): float(r["V_mean"]) for r in tables["capacity_table"]}
    by_gen: dict = {}
    for r in tables["Omega_of_x"]:
        by_gen.setdefault(int(r["generation"]), []).append(float(r["Omega"]))
    for n, omegas in sorted(by_gen.items()):
        steps = [b - a for a, b in zip(omegas, omegas[1:])]
        checks.expect(f"n={n} Omega(x) non-decreasing within 1e-9",
                      min(steps, default=0.0) >= -1e-9, min(steps, default=0.0))
        checks.expect(f"n={n} Omega(x) within [0, 1]",
                      -1e-9 <= min(omegas) and max(omegas) <= 1.0 + 1e-9,
                      [min(omegas), max(omegas)])

    worst_excess = -math.inf
    band1 = []
    for r in tables["potential_profile"]:
        n, x, v = int(r["generation"]), float(r["x"]), float(r["V"])
        worst_excess = max(worst_excess, v - v_mean.get(n, math.nan))
        if n == 1 and (x <= -1.0 / 3.0 or x >= 1.0 / 3.0):
            band1.append(abs(v - TWO_BAND_V))
    checks.expect("V(x) <= V_mean + 5e-4 on the grid", worst_excess <= 5e-4,
                  worst_excess)
    if not tiny:
        checks.expect("n=1 on-band V within 5e-4 of the closed form",
                      bool(band1) and max(band1) <= 5e-4, max(band1, default=None))

    # Hull ends: Omega is 0 and 1 there.  The potential at +-1 deviates
    # from the on-set constant by more than interior points do; that is a
    # known gap, reported as a value, not checked.
    run = cli.RunConfig.from_file(outdir / "config.json")
    edge_dev = 0.0
    for bands, sol in cli.solve_all(run):
        ends = (integrated_measure_at(-1.0, sol, bands),
                integrated_measure_at(1.0, sol, bands))
        checks.expect(f"n={sol.generation} Omega(-1) = 0 and Omega(1) = 1 within 1e-9",
                      abs(ends[0]) <= 1e-9 and abs(ends[1] - 1.0) <= 1e-9, list(ends))
        for x in (-1.0, 1.0):
            v = potential_at(x, sol, bands, run.rule)
            edge_dev = max(edge_dev, abs(v - v_mean.get(sol.generation, math.nan)))
    return edge_dev
