"""Command-line surface: solve, cache, and export figure/table data as CSV.

Subcommands::

    equimeasure solve     --config cfg.json
    equimeasure figures   --config cfg.json --which <name|all>
    equimeasure capacity  --config cfg.json
    equimeasure potential --config cfg.json --points <file|lo:hi:count>

The config is a single JSON document (see ``RunConfig``).  Solving writes
one ``gen_<n>.json`` record per generation into the output directory; a
record is reused on rerun only when its fingerprint (hash of the map
parameters, quadrature order, residual tolerance, step clamp, evaluator
and auto-refine switch) matches the active config exactly.  All files are
written atomically (temp file + rename).  Figure data files are plain CSV
with a header row and 17-digit floats.

Exit codes: 0 success, 2 config error, 3 solver failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analytics import (
    MIN_CAPACITY_GENERATIONS,
    NonMonotoneInput,
    capacity_estimate,
    fit_exponential,
    integrated_measure_at,
    potential_at,
)
from .geometry import (
    WIDTH_FLOOR,
    BandSystem,
    IfsSystem,
    InvalidIfs,
    generate_bands,
    hull,
    validate,
)
from .kernel import GapVariables, QuadratureRule, gap_jacobian_row
from .solver import (
    EquilibriumSolution,
    SolverConfig,
    SolverError,
    solve_generation,
    warm_start,
)

OUTDIR_ENV = "EQUIMEASURE_OUTDIR"

FIGURE_NAMES = (
    "residuals_before_after",
    "jacobian_decay",
    "lambda_vs_n",
    "Omega_vs_n",
    "Omega_of_x",
    "gapmeasure_fit",
    "potential_profile",
    "capacity_table",
)


class ConfigError(ValueError):
    """Invalid run configuration; ``problems`` lists every issue found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(self.problems))


_KNOWN_KEYS = {
    "ifs", "n_max", "quadrature_order", "residual_tol", "max_iterations",
    "step_clamp", "evaluator", "auto_refine", "sample_count", "point_x",
    "x_grid", "fit_window", "output_dir", "cache",
}


@dataclass
class RunConfig:
    """One experiment: the system, depth, tolerances and output options."""

    ifs: IfsSystem
    n_max: int
    quadrature_order: int = 2048
    residual_tol: float = 1e-12
    max_iterations: int = 200
    step_clamp: float = 1e-9
    evaluator: str = "grouped"
    auto_refine: bool = True
    sample_count: int = 4096
    point_x: float | None = None
    x_grid: tuple[float, float, int] | None = None
    fit_window: int = 4
    output_dir: Path = Path("out")
    cache: bool = True
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        problems = []
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
        if not isinstance(raw, dict):
            raise ConfigError(["config must be a JSON object"])

        for key in sorted(set(raw) - _KNOWN_KEYS):
            problems.append(f"unknown key {key!r}")

        ifs = None
        pairs = raw.get("ifs")
        if not isinstance(pairs, list) or len(pairs) < 2:
            problems.append("'ifs' must list at least two (delta, gamma) pairs")
        else:
            try:
                ifs = validate(IfsSystem.from_pairs(pairs))
            except (InvalidIfs, TypeError, ValueError) as exc:
                problems.append(f"'ifs' rejected: {exc}")

        def grab(key, default, kind, check=None, desc=""):
            value = raw.get(key, default)
            try:
                value = kind(value)
            except (TypeError, ValueError):
                problems.append(f"{key!r} must be {kind.__name__}")
                return default
            if check is not None and not check(value):
                problems.append(f"{key!r} {desc}, got {value!r}")
                return default
            return value

        if "n_max" in raw:
            n_max = grab("n_max", 1, int, lambda v: v >= 1, "must be >= 1")
        else:
            problems.append("'n_max' is required")
            n_max = 1
        if ifs is not None:
            # the narrowest band of generation n is min(delta)**n of the hull
            narrowest = float(ifs.deltas.min()) ** n_max
            if narrowest < WIDTH_FLOOR:
                problems.append(
                    f"'n_max' {n_max} is too deep: its narrowest band, {narrowest:.3g} "
                    f"of the hull, is below the width floor {WIDTH_FLOOR:g}")
        order = grab("quadrature_order", 2048, int, lambda v: v >= 1, "must be >= 1")
        tol = grab("residual_tol", 1e-12, float, lambda v: v > 0, "must be positive")
        max_it = grab("max_iterations", 200, int, lambda v: v >= 1, "must be >= 1")
        clamp = grab("step_clamp", 1e-9, float, lambda v: 0 < v < 1, "must be in (0, 1)")
        evaluator = grab("evaluator", "grouped", str,
                         lambda v: v in ("grouped", "log"), "must be 'grouped' or 'log'")
        refine = bool(raw.get("auto_refine", True))
        samples = grab("sample_count", 4096, int, lambda v: v >= 1, "must be >= 1")
        fit_window = grab("fit_window", 4, int, lambda v: v >= 3, "must be >= 3")
        point_x = raw.get("point_x")
        if point_x is not None and not isinstance(point_x, (int, float)):
            problems.append("'point_x' must be a number or null")
            point_x = None

        x_grid = None
        g = raw.get("x_grid")
        if g is not None:
            try:
                x_grid = (float(g["lo"]), float(g["hi"]), int(g["count"]))
                if not (x_grid[0] < x_grid[1] and x_grid[2] >= 2):
                    raise ValueError
            except (KeyError, TypeError, ValueError):
                problems.append("'x_grid' must be {lo < hi, count >= 2}")

        outdir = Path(os.environ.get(OUTDIR_ENV) or raw.get("output_dir", "out"))
        use_cache = bool(raw.get("cache", True))

        if problems:
            raise ConfigError(problems)
        return cls(ifs=ifs, n_max=int(n_max), quadrature_order=order,
                   residual_tol=tol, max_iterations=max_it, step_clamp=clamp,
                   evaluator=evaluator, auto_refine=refine, sample_count=samples,
                   point_x=point_x, x_grid=x_grid, fit_window=fit_window,
                   output_dir=outdir, cache=use_cache, raw=raw)

    @property
    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            residual_tol=self.residual_tol, max_iterations=self.max_iterations,
            step_clamp=self.step_clamp, quadrature_order=self.quadrature_order,
            evaluator=self.evaluator, auto_refine=self.auto_refine,
        )

    @property
    def fingerprint(self) -> str:
        payload = json.dumps({
            "ifs": [[m.delta, m.gamma] for m in self.ifs.maps],
            "quadrature_order": self.quadrature_order,
            "residual_tol": self.residual_tol,
            "step_clamp": self.step_clamp,
            "evaluator": self.evaluator,
            "auto_refine": self.auto_refine,
        }, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    @property
    def rule(self) -> QuadratureRule:
        return QuadratureRule.chebyshev(self.quadrature_order)


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


class SolutionCache:
    """Per-generation JSON records keyed by the config fingerprint."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)

    def path(self, n: int) -> Path:
        return self.directory / f"gen_{n}.json"

    def load(self, n: int, fingerprint: str) -> dict | None:
        path = self.path(n)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if record.get("fingerprint") != fingerprint:
            return None
        return record

    def store(self, record: dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(self.path(record["generation"]),
                           json.dumps(record, indent=1))


def _record_from_solution(cfg: RunConfig, bands: BandSystem,
                          sol: EquilibriumSolution) -> dict:
    return {
        "generation": sol.generation,
        "fingerprint": cfg.fingerprint,
        "config": cfg.raw,
        "bands": [[a, b] for a, b in zip(bands.alphas, bands.betas)],
        "gaps": [[lo, hi] for lo, hi in zip(bands.gap_los, bands.gap_his)],
        "genealogy": list(bands.genealogy),
        "lambda": sol.lambdas.tolist(),
        "residuals": sol.residuals.tolist(),
        "initial_residuals": sol.initial_residuals.tolist(),
        "iterations_used": sol.iterations_used,
        "omega": sol.omegas.tolist(),
        "Omega": sol.Omegas.tolist(),
    }


def _solution_from_record(bands: BandSystem, record: dict) -> EquilibriumSolution:
    return EquilibriumSolution(
        generation=record["generation"],
        vars=GapVariables(bands, np.array(record["lambda"])),
        residuals=np.array(record["residuals"]),
        iterations_used=0,
        omegas=np.array(record["omega"]),
        Omegas=np.array(record["Omega"]),
        initial_residuals=np.array(record["initial_residuals"]),
    )


def solve_all(cfg: RunConfig) -> list[tuple[BandSystem, EquilibriumSolution]]:
    """Solve (or reload) generations ``1..n_max``, writing records as we go.

    On solver failure the records of the completed generations remain on
    disk and the error (with its generation) propagates.
    """
    cache = SolutionCache(cfg.output_dir)
    out: list[tuple[BandSystem, EquilibriumSolution]] = []
    previous = None
    for n in range(1, cfg.n_max + 1):
        bands = generate_bands(cfg.ifs, n)
        record = cache.load(n, cfg.fingerprint) if cfg.cache else None
        if record is not None:
            sol = _solution_from_record(bands, record)
        else:
            sol = solve_generation(bands, warm_start(bands, previous),
                                   cfg.solver_config)
            cache.store(_record_from_solution(cfg, bands, sol))
        out.append((bands, sol))
        previous = sol
    return out


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else v
                             for v in row])
    os.replace(tmp, path)


def _line_id(n: int, g: int, n_maps: int) -> str:
    """Stable id of a gap's genealogy line: birth generation and index."""
    while n > 1 and (g + 1) % n_maps == 0:
        g = (g + 1) // n_maps - 1
        n -= 1
    return f"{n}:{g}"


def _x_grid(cfg: RunConfig) -> np.ndarray:
    if cfg.x_grid is not None:
        lo, hi, count = cfg.x_grid
    else:
        h = hull(cfg.ifs)
        lo, hi, count = h.lo, h.hi, 401
    return np.linspace(lo, hi, count)


def _default_point(solved) -> float:
    bands, _ = solved[-1]
    return float(0.5 * (bands.alphas[0] + bands.betas[0]))


def _capacity_rows(cfg: RunConfig, solved):
    point = cfg.point_x if cfg.point_x is not None else _default_point(solved)
    bands_list = [b for b, _ in solved]
    sols = [s for _, s in solved]
    est_mean = capacity_estimate(sols, bands_list, cfg.rule, cfg.sample_count,
                                 mode="mean", fit_window=cfg.fit_window)
    est_point = capacity_estimate(sols, bands_list, cfg.rule, mode="point",
                                  point=point, fit_window=cfg.fit_window)
    rows = []
    for (n, v_point), (_, v_mean) in zip(est_point.per_generation,
                                         est_mean.per_generation):
        rows.append([n, v_point, v_mean,
                     *est_point.fit, est_point.extrapolated_capacity,
                     *est_mean.fit, est_mean.extrapolated_capacity])
    header = ["n", "V_point", "V_mean",
              "fit_a_point", "fit_b_point", "fit_c_point", "capacity_point",
              "fit_a_mean", "fit_b_mean", "fit_c_mean", "capacity_mean"]
    return header, rows, est_mean, est_point


def write_figure(cfg: RunConfig, which: str, solved) -> Path:
    """Emit one figure's data file; returns the path written."""
    out = cfg.output_dir
    rule = cfg.rule
    if which == "residuals_before_after":
        rows = [[sol.generation, g, sol.initial_residuals[g], sol.residuals[g]]
                for bands, sol in solved for g in range(bands.n_gaps)]
        path = out / "residuals_before_after.csv"
        _write_csv(path, ["generation", "gap_index", "residual_initial",
                          "residual_final"], rows)
    elif which == "jacobian_decay":
        bands, sol = solved[-1]
        rows = []
        for i in range(bands.n_gaps):
            row = gap_jacobian_row(i, bands, sol.vars, rule)
            rows.extend([bands.generation, i, m, i - m, abs(row[m])]
                        for m in range(bands.n_gaps))
        path = out / "jacobian_decay.csv"
        _write_csv(path, ["generation", "i", "m", "i_minus_m", "abs_dKi_dlambda_m"],
                   rows)
    elif which == "lambda_vs_n":
        n_maps = cfg.ifs.n_maps
        rows = [[sol.generation, g, _line_id(sol.generation, g, n_maps),
                 sol.lambdas[g]]
                for bands, sol in solved for g in range(bands.n_gaps)]
        path = out / "lambda_vs_n.csv"
        _write_csv(path, ["generation", "gap_index", "line_id", "lambda"], rows)
    elif which == "Omega_vs_n":
        n_maps = cfg.ifs.n_maps
        rows = [[sol.generation, g, _line_id(sol.generation, g, n_maps),
                 sol.Omegas[g]]
                for bands, sol in solved for g in range(bands.n_gaps)]
        path = out / "Omega_vs_n.csv"
        _write_csv(path, ["generation", "gap_index", "line_id", "Omega"], rows)
    elif which == "Omega_of_x":
        grid = _x_grid(cfg)
        rows = [[sol.generation, float(x),
                 integrated_measure_at(float(x), sol, bands)]
                for bands, sol in solved for x in grid]
        path = out / "Omega_of_x.csv"
        _write_csv(path, ["generation", "x", "Omega"], rows)
    elif which == "gapmeasure_fit":
        n_maps = cfg.ifs.n_maps
        points = []
        for bands, sol in solved:
            g = n_maps ** (sol.generation - 1) - 1  # first gap's line
            if g < bands.n_gaps:
                points.append((sol.generation, float(sol.Omegas[g])))
        if len(points) >= 3:
            window = points[-min(cfg.fit_window, len(points)):]
            try:
                a, b, c = fit_exponential(window)
            except (NonMonotoneInput, ValueError):
                a = b = c = math.nan
        else:
            a = b = c = math.nan
        rows = [[n, n_maps ** (n - 1) - 1, v, a, b, c] for n, v in points]
        path = out / "gapmeasure_fit.csv"
        _write_csv(path, ["generation", "gap_index", "Omega", "fit_a", "fit_b",
                          "fit_c"], rows)
    elif which == "potential_profile":
        grid = _x_grid(cfg)
        rows = [[sol.generation, float(x),
                 potential_at(float(x), sol, bands, rule)]
                for bands, sol in solved for x in grid]
        path = out / "potential_profile.csv"
        _write_csv(path, ["generation", "x", "V"], rows)
    elif which == "capacity_table":
        header, rows, _, _ = _capacity_rows(cfg, solved)
        path = out / "capacity_table.csv"
        _write_csv(path, header, rows)
    else:
        raise ValueError(f"unknown figure {which!r}; choose from "
                         f"{', '.join(FIGURE_NAMES)} or 'all'")
    return path


def cmd_solve(cfg: RunConfig) -> int:
    solved = solve_all(cfg)
    for bands, sol in solved:
        print(f"generation {sol.generation}: {bands.n_bands} bands, "
              f"max residual {sol.max_residual:.3e}, "
              f"{sol.iterations_used} iterations")
    return 0


def _require_capacity_depth(cfg: RunConfig, what: str) -> None:
    if cfg.n_max < MIN_CAPACITY_GENERATIONS:
        raise ConfigError([f"{what} needs n_max >= {MIN_CAPACITY_GENERATIONS}, "
                           f"got {cfg.n_max}"])


def cmd_figures(cfg: RunConfig, which: str) -> int:
    names = FIGURE_NAMES if which == "all" else (which,)
    unknown = [n for n in names if n not in FIGURE_NAMES]
    if unknown:
        raise ConfigError([f"unknown figure {n!r}; choose from "
                           f"{', '.join(FIGURE_NAMES)} or 'all'" for n in unknown])
    if "capacity_table" in names:
        _require_capacity_depth(cfg, "the capacity_table figure")
    solved = solve_all(cfg)
    for name in names:
        path = write_figure(cfg, name, solved)
        print(f"wrote {path}")
    return 0


def cmd_capacity(cfg: RunConfig) -> int:
    _require_capacity_depth(cfg, "capacity")
    solved = solve_all(cfg)
    header, rows, est_mean, est_point = _capacity_rows(cfg, solved)
    path = cfg.output_dir / "capacity_table.csv"
    _write_csv(path, header, rows)
    print(f"wrote {path}")
    a, b, c = est_mean.fit
    print(f"fit over last {cfg.fit_window} generations (mean path): "
          f"a={a:.9f} b={b:.7f} c={c:.8f}")
    print(f"extrapolated capacity (mean path):  {est_mean.extrapolated_capacity:.9f}")
    print(f"extrapolated capacity (point path): {est_point.extrapolated_capacity:.9f}")
    return 0


def _parse_points(spec: str) -> np.ndarray:
    if os.path.exists(spec):
        values = [float(line) for line in Path(spec).read_text().split()]
        return np.array(values)
    parts = spec.split(":")
    if len(parts) == 3:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        return np.linspace(lo, hi, count)
    raise ConfigError([f"--points must be a file or lo:hi:count, got {spec!r}"])


def cmd_potential(cfg: RunConfig, points_spec: str) -> int:
    pts = _parse_points(points_spec)
    solved = solve_all(cfg)
    bands, sol = solved[-1]
    rows = [[float(x), potential_at(float(x), sol, bands, cfg.rule)] for x in pts]
    path = cfg.output_dir / "potential_points.csv"
    _write_csv(path, ["x", "V"], rows)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="equimeasure",
        description="Equilibrium measures of IFS band systems: solve, export, extrapolate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "figures", "capacity", "potential"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config")
        if name == "figures":
            p.add_argument("--which", default="all",
                           help=f"one of {', '.join(FIGURE_NAMES)}, or 'all'")
        if name == "potential":
            p.add_argument("--points", required=True,
                           help="file of x values or grid spec lo:hi:count")
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.from_file(args.config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2

    try:
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "figures":
            return cmd_figures(cfg, args.which)
        if args.command == "capacity":
            return cmd_capacity(cfg)
        return cmd_potential(cfg, args.points)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failed at generation {exc.generation}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
