"""Command-line surface: solve, cache, and export figure/table data as CSV.

Subcommands::

    equimeasure solve     --config cfg.json
    equimeasure figures   --config cfg.json --which <name|all>
    equimeasure capacity  --config cfg.json
    equimeasure potential --config cfg.json --points <file|lo:hi:count>

The config is a single JSON document (see ``RunConfig``).
:func:`~equimeasure.solver.hierarchical_solve` walks the generations, and
:func:`solve_all` connects its load and store hooks to the record cache:
one ``gen_<n>.json`` record per generation in the output directory.  A
record is reused on rerun only when its fingerprint (hash of the map
parameters, residual tolerance, ``solver.STEP_CLAMP`` and the name of the
solver's order rule, ``kernel.ORDER_RULE``) matches the active config exactly.
The record's ``config`` field holds exactly these fingerprinted settings,
so a reused record cannot disagree with the run that reads it.  The solver
sizes its quadrature rules from the geometry, and the potentials,
capacities and integrated measures come from per-band Chebyshev series
sized the same way; ``quadrature_order`` sets only the node table of the
point path (``method="nodes"``), so a run at another order reuses the
stored records.  The Jacobian figure is the solver's
:func:`~equimeasure.solver.jacobian` at the deepest solution, built from
one residual pass as in the Newton loop.  Grids are evaluated in one call
per generation.  All files are written atomically
(temp file + rename).  Figure data files are plain CSV with a header row
and 17-digit floats.

Exit codes, each failure with a one-line message on stderr:

- 0 success;
- 2 config error, including an unknown key (``max_iterations``,
  ``step_clamp``, ``fit_window`` and ``cache`` among them), a number beyond
  the float range (``NaN`` and ``Infinity`` included), a bad
  ``--points`` spec, an ``x_grid`` off the hull for ``Omega_of_x``, an
  ``n_max`` that ``generate_bands`` rejects and a capacity run with fewer
  ``sample_count`` points than bands (all checked before any solve);
- 3 solver or analytics failure: a :class:`~equimeasure.solver.SolverError`
  (no convergence or a singular Jacobian), or a capacity fit
  over non-monotone potentials (``NonMonotoneInput``), a point-path node
  collision that survives every order bump (``PersistentCollision``) or a
  point off the hull or the bands (``OutOfHull``);
- 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import solver
from .analytics import (
    MIN_CAPACITY_GENERATIONS,
    NonMonotoneInput,
    OutOfHull,
    PersistentCollision,
    capacity_estimate,
    fit_exponential,
    integrated_measure_at,
    potential_at,
)
from .geometry import (BandSystem, GenerationTooLarge, IfsSystem, InvalidIfs,
                       generate_bands, hull, validate)
from .kernel import ORDER_RULE, GapVariables, QuadratureRule
from .solver import (
    EquilibriumSolution,
    SolverError,
    hierarchical_solve,
    jacobian,
)
# Not called here: kept as the patch points bench/tracer.py looks up (their
# spans read 0 since the generation loop and the Jacobian run in ``solver``).
from .kernel import gap_jacobian_row  # noqa: F401
from .solver import solve_generation  # noqa: F401

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
        super().__init__("invalid configuration: " + "; ".join(self.problems))


_KNOWN_KEYS = {"ifs", "n_max", "quadrature_order", "residual_tol", "sample_count",
               "point_x", "x_grid", "output_dir"}
_JSON_NAMES = {int: "integer", float: "finite number"}


def _is_json(value, kind) -> bool:
    """Whether ``value`` is a JSON number of ``kind``: ``int`` takes only
    integers, ``float`` any number within the float range (``json`` also
    reads ``NaN``, ``Infinity`` and longer integers), and neither takes a
    boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        return False
    return kind is int or abs(value) <= sys.float_info.max


@dataclass
class RunConfig:
    """One experiment: the system, depth, tolerance and output options.

    ``residual_tol`` is the solver's one setting.  Records in
    ``output_dir`` are always reused when their fingerprint matches, and
    every capacity fit takes the last ``MIN_CAPACITY_GENERATIONS``
    generations.  ``quadrature_order`` is the order of :attr:`rule`, the
    node table of the point path (``potential_at(..., method="nodes")``,
    the ``V_point`` column of the capacity table).  Every other potential,
    capacity and integrated measure comes from per-band Chebyshev series
    sized by the geometry, as are the solver's rules.  Values are typed as
    in JSON: counts are integers, and no boolean is a number.
    """

    ifs: IfsSystem
    n_max: int
    residual_tol: float = 1e-12
    quadrature_order: int = 2048
    sample_count: int = 4096
    point_x: float | None = None
    x_grid: tuple[float, float, int] | None = None
    output_dir: Path = Path("out")

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
            except (InvalidIfs, TypeError, ValueError, OverflowError) as exc:
                problems.append(f"'ifs' rejected: {exc}")

        def grab(key, default, kind, check=None, desc=""):
            value = raw.get(key, default)
            if not _is_json(value, kind):
                problems.append(f"{key!r} must be a JSON {_JSON_NAMES[kind]}, "
                                f"got {value!r}")
                return default
            value = kind(value)
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
            try:
                generate_bands(ifs, n_max)
            except GenerationTooLarge as exc:
                problems.append(f"'n_max' {n_max} rejected: {exc}")
        order = grab("quadrature_order", 2048, int, lambda v: v >= 1, "must be >= 1")
        tol = grab("residual_tol", 1e-12, float, lambda v: v > 0, "must be positive")
        samples = grab("sample_count", 4096, int, lambda v: v >= 1, "must be >= 1")
        point_x = raw.get("point_x")
        if point_x is not None and not _is_json(point_x, float):
            problems.append(f"'point_x' must be a finite number or null, got {point_x!r}")
            point_x = None

        x_grid = None
        g = raw.get("x_grid")
        if g is not None:
            lo, hi, count = (g.get(k) if isinstance(g, dict) else None
                             for k in ("lo", "hi", "count"))
            if (_is_json(lo, float) and _is_json(hi, float) and _is_json(count, int)
                    and lo < hi and count >= 2):
                x_grid = (float(lo), float(hi), count)
            else:
                problems.append("'x_grid' must be {lo < hi numbers, integer count >= 2}")

        outdir = os.environ.get(OUTDIR_ENV) or raw.get("output_dir", "out")
        if not isinstance(outdir, str):
            problems.append(f"'output_dir' must be a string, got {outdir!r}")

        if problems:
            raise ConfigError(problems)
        return cls(ifs=ifs, n_max=n_max, residual_tol=tol, quadrature_order=order,
                   sample_count=samples, point_x=point_x, x_grid=x_grid,
                   output_dir=Path(outdir))

    @property
    def numerics(self) -> dict:
        """Every setting that a stored record depends on."""
        return {
            "ifs": [[m.delta, m.gamma] for m in self.ifs.maps],
            "residual_tol": self.residual_tol,
            "step_clamp": solver.STEP_CLAMP,
            "numerics": ORDER_RULE,
        }

    @property
    def fingerprint(self) -> str:
        """Hash of :attr:`numerics`; records are reused only when it matches."""
        text = json.dumps(self.numerics, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    @property
    def rule(self) -> QuadratureRule:
        return QuadratureRule.chebyshev(self.quadrature_order)


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    tmp.write_text(text, newline="")
    os.replace(tmp, path)


class SolutionCache:
    """Per-generation JSON records keyed by the config fingerprint."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)

    def path(self, n: int) -> Path:
        return self.directory / f"gen_{n}.json"

    def load(self, n: int, fingerprint: str) -> dict | None:
        try:
            record = json.loads(self.path(n).read_text())
        except (OSError, json.JSONDecodeError):  # a missing file included
            return None
        return record if record.get("fingerprint") == fingerprint else None

    def store(self, record: dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(self.path(record["generation"]),
                           json.dumps(record))


def _record_from_solution(cfg: RunConfig, sol: EquilibriumSolution) -> dict:
    bands = sol.vars.bands
    return {
        "generation": sol.generation,
        "fingerprint": cfg.fingerprint,
        "config": cfg.numerics,
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
        vars=GapVariables(bands, np.array(record["lambda"])),
        residuals=np.array(record["residuals"]),
        iterations_used=record["iterations_used"],
        omegas=np.array(record["omega"]),
        Omegas=np.array(record["Omega"]),
        initial_residuals=np.array(record["initial_residuals"]),
    )


def solve_all(cfg: RunConfig) -> list[tuple[BandSystem, EquilibriumSolution]]:
    """Solve (or reload) generations ``1..n_max``, writing records as we go.

    :func:`~equimeasure.solver.hierarchical_solve` with the record cache as
    its load and store hooks.  On solver failure the records of the
    completed generations remain on disk and the error propagates with
    ``generation`` and ``solutions_so_far``.
    """
    cache = SolutionCache(cfg.output_dir)

    def load(bands):
        record = cache.load(bands.generation, cfg.fingerprint)
        return None if record is None else _solution_from_record(bands, record)

    solutions = hierarchical_solve(
        cfg.ifs, cfg.n_max, cfg.residual_tol, load,
        lambda sol: cache.store(_record_from_solution(cfg, sol)))
    return [(sol.vars.bands, sol) for sol in solutions]


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row]
                     for row in rows)
    _atomic_write_text(path, text.getvalue())


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


def _capacity_rows(cfg: RunConfig, solved):
    sols = [sol for _, sol in solved]
    point = cfg.point_x
    if point is None:  # the middle of the deepest generation's first band
        deepest = sols[-1].vars.bands
        point = float(0.5 * (deepest.alphas[0] + deepest.betas[0]))
    est_mean = capacity_estimate(sols, cfg.rule, cfg.sample_count, mode="mean")
    est_point = capacity_estimate(sols, cfg.rule, mode="point", point=point)
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
        jac = jacobian(sol.vars)
        rows = [[bands.generation, i, m, i - m, abs(jac[i, m])]
                for i in range(bands.n_gaps) for m in range(bands.n_gaps)]
        path = out / "jacobian_decay.csv"
        _write_csv(path, ["generation", "i", "m", "i_minus_m", "abs_dKi_dlambda_m"],
                   rows)
    elif which in ("lambda_vs_n", "Omega_vs_n"):  # per gap line: lambda, or Omega left of it
        column = which.removesuffix("_vs_n")
        rows = [[sol.generation, g, _line_id(sol.generation, g, cfg.ifs.n_maps),
                 (sol.lambdas if column == "lambda" else sol.Omegas)[g]]
                for bands, sol in solved for g in range(bands.n_gaps)]
        path = out / f"{which}.csv"
        _write_csv(path, ["generation", "gap_index", "line_id", column], rows)
    elif which == "Omega_of_x":
        grid = _x_grid(cfg)
        rows = [[sol.generation, x, v] for bands, sol in solved
                for x, v in zip(grid.tolist(),
                                integrated_measure_at(grid, sol, bands).tolist())]
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
            try:
                a, b, c = fit_exponential(points[-MIN_CAPACITY_GENERATIONS:])
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
        rows = [[sol.generation, x, v] for bands, sol in solved
                for x, v in zip(grid.tolist(),
                                potential_at(grid, sol, bands, rule).tolist())]
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
    """Reject, before any solve, a capacity run that is too shallow or that
    has fewer sample points than the deepest generation has bands."""
    problems, n_bands = [], cfg.ifs.n_maps ** cfg.n_max
    if cfg.n_max < MIN_CAPACITY_GENERATIONS:
        problems.append(f"{what} needs n_max >= {MIN_CAPACITY_GENERATIONS}, "
                        f"got {cfg.n_max}")
    if cfg.sample_count < n_bands:
        problems.append(f"{what} needs sample_count >= {n_bands}, one point per band "
                        f"of generation {cfg.n_max}, got {cfg.sample_count}")
    if problems:
        raise ConfigError(problems)


def cmd_figures(cfg: RunConfig, which: str) -> int:
    names = FIGURE_NAMES if which == "all" else (which,)
    unknown = [n for n in names if n not in FIGURE_NAMES]
    if unknown:
        raise ConfigError([f"unknown figure {n!r}; choose from "
                           f"{', '.join(FIGURE_NAMES)} or 'all'" for n in unknown])
    if "capacity_table" in names:
        _require_capacity_depth(cfg, "the capacity_table figure")
    h, grid = hull(cfg.ifs), cfg.x_grid  # V is defined off the hull, Omega is not
    if "Omega_of_x" in names and grid and not h.lo <= grid[0] < grid[1] <= h.hi:
        raise ConfigError([f"Omega_of_x needs 'x_grid' inside the hull [{h.lo}, {h.hi}]"])
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
    print(f"fit over last {MIN_CAPACITY_GENERATIONS} generations (mean path): "
          f"a={a:.9f} b={b:.7f} c={c:.8f}")
    print(f"extrapolated capacity (mean path):  {est_mean.extrapolated_capacity:.9f}")
    print(f"extrapolated capacity (point path): {est_point.extrapolated_capacity:.9f}")
    return 0


def _parse_points(spec: str) -> np.ndarray:
    try:
        if os.path.exists(spec):
            return np.array([float(v) for v in Path(spec).read_text().split()])
        lo, hi, count = spec.split(":")
        return np.linspace(float(lo), float(hi), int(count))
    except ValueError as exc:
        raise ConfigError([f"--points must be a file of numbers or lo:hi:count, "
                           f"got {spec!r} ({exc})"]) from exc


def cmd_potential(cfg: RunConfig, points_spec: str) -> int:
    pts = _parse_points(points_spec)
    solved = solve_all(cfg)
    bands, sol = solved[-1]
    values = potential_at(pts, sol, bands, cfg.rule)
    path = cfg.output_dir / "potential_points.csv"
    _write_csv(path, ["x", "V"], zip(pts, values))
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
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--points" in argv[:-1]:  # else argparse takes a grid such as -1:1:5 for an option
        k = argv.index("--points")
        argv[k : k + 2] = [f"--points={argv[k + 1]}"]
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.from_file(args.config)
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
    except (NonMonotoneInput, PersistentCollision, OutOfHull) as exc:
        print(f"analytics failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
