"""Command-line surface: solve, cache, and export figure/table data as CSV.

Usage::

    equimeasure solve     --config FILE
    equimeasure figures   --config FILE [--which NAME|all]
    equimeasure capacity  --config FILE
    equimeasure potential --config FILE --points FILE|LO:HI:COUNT
    equimeasure -h | --help

The command comes first, then its long options in any order, each as
``--name value`` or ``--name=value``: no prefix abbreviations, a value may
begin with ``-`` (``--points -1:1:5``) and the last of a repeated option
counts.  ``-h`` or ``--help`` in place of the command or an option prints
the usage above and exits 0.

The config is a single JSON document (see ``RunConfig``); a non-empty
``EQUIMEASURE_OUTDIR`` in the environment overrides its ``output_dir``.
:func:`solve_all` passes generations ``1..n_max`` to
:func:`~equimeasure.solver.hierarchical_solve` with load and store hooks on
the record cache, :class:`SolutionCache`: one ``gen_<n>.json`` record per
generation in the output directory, holding only what the solver produced.
A record is reused on rerun only when the settings it stores equal
:attr:`RunConfig.numerics`, so a reused record cannot disagree with the run
that reads it.  Before it evaluates, ``capacity`` (every generation),
``figures`` (every generation, when a figure needs the series) and
``potential`` (the deepest) read each band series from its sidecar
``series_<n>.bin`` where that binds, else build it and write its sidecar;
``solve`` writes none, nor does a library call to :func:`write_figure`.
``quadrature_order`` sets only the nodes per band of the point path (see
:class:`RunConfig`), so a run at another order reuses the stored records.
The Jacobian figure is the solver's :func:`~equimeasure.solver.jacobian`
at the deepest solution, built from one residual pass as in the Newton
loop.  Line ids (``"<birth generation>:<gap>"``) follow the band systems'
``parents``.  Grids are evaluated in one call per generation.  All files
are written atomically (temp file + rename).  Figure data files are plain
CSV with a header row and 17-digit floats.

Exit codes, each failure with a one-line message on stderr:

- 0 success;
- 2 usage error, ``equimeasure: error: ...``: no command or an unknown one,
  an option the command does not take or a stray argument (``solve takes
  --config, got '--conf'``), a missing option or value (``potential needs a
  value for --points``);
- 2 config error, all checked before any solve: an unreadable or non-UTF-8
  config, an unknown key (``max_iterations``, ``step_clamp``, ``fit_window``
  and ``cache`` among them), a value that is not a JSON number in the float
  range where one belongs (``NaN``, ``Infinity``, ``"1"`` and ``true``
  included), a point count above ``MAX_POINTS``, a bad ``--points`` spec (no
  points, too many or a non-finite one included), an ``n_max`` that
  ``generations`` rejects, or a run that fails what its figures need
  (``FIGURE_NEEDS``);
- 3 solver or analytics failure: a :class:`~equimeasure.solver.SolverError`
  (no convergence or a singular Jacobian), or an
  :class:`~equimeasure.analytics.AnalyticsError`: a mean-path capacity fit
  over non-monotone potentials (``NonMonotoneInput``), a point-path node
  collision that survives every order bump (``PersistentCollision``) or a
  point off the hull or the bands (``OutOfHull``).  A point-path fit that
  fails is no error: :func:`~equimeasure.analytics.capacity_estimate` keeps
  its ``V_point`` column and gives ``nan`` for its fit and capacity, as
  ``gapmeasure_fit`` writes ``nan`` for a fit that fails;
- 4 I/O error.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import kernel, solver
from .analytics import (
    MIN_CAPACITY_GENERATIONS,
    AnalyticsError,
    capacity_estimate,
    fit_exponential,
    integrated_measure_at,
    potential_at,
)
from .geometry import (BandSystem, GenerationTooLarge, IfsSystem, InvalidIfs,
                       generations, validate)
from .kernel import GapVariables, QuadratureRule
from .solver import (
    EquilibriumSolution,
    SolverError,
    hierarchical_solve,
    jacobian,
)
# Not called here: kept as the patch points bench/tracer.py looks up (their
# spans read 0 since the generation loop and the Jacobian run in ``solver``,
# and since a run's band systems come from one walk, ``generations``).
from .geometry import generate_bands  # noqa: F401
from .kernel import gap_jacobian_row  # noqa: F401
from .solver import solve_generation  # noqa: F401

OUTDIR_ENV = "EQUIMEASURE_OUTDIR"

# What a run of each figure must pass before any solve, checked by ``_require``
FIGURE_NEEDS = {
    "residuals_before_after": (),
    "jacobian_decay": (),
    "lambda_vs_n": (),
    "Omega_vs_n": (),
    "Omega_of_x": ("series", "hull"),  # V is defined off the hull, Omega is not
    "gapmeasure_fit": (),
    "potential_profile": ("series",),
    "capacity_table": ("series", "capacity"),
}
FIGURE_NAMES = tuple(FIGURE_NEEDS)


class ConfigError(ValueError):
    """Invalid run configuration; ``problems`` lists every issue found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration: " + "; ".join(self.problems))


# The most points a run can ask for, per band (``quadrature_order``) or in all
# (``sample_count``, ``x_grid``, ``--points``): 512 times the paper's K = 2048.
# It also caps the coefficients of the band series at n_max (all bands).
MAX_POINTS = 2**20
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

    ``residual_tol`` is the solver's one setting.  Records and band series
    sidecars in ``output_dir`` (see :class:`SolutionCache`) are always
    reused when they bind :attr:`numerics`; :meth:`from_file` takes
    ``output_dir`` from the environment variable ``EQUIMEASURE_OUTDIR``
    (``OUTDIR_ENV``) when that is set and not empty, over the config's.
    Every capacity fit takes the last ``MIN_CAPACITY_GENERATIONS``
    generations.  ``quadrature_order`` is the order of :attr:`rule`, the
    nodes per band of the point path (``potential_at(..., method="nodes")``,
    the ``V_point`` column of the capacity table, at ``point_x`` or, if that
    is ``None``, the middle of the deepest generation's first band), which
    sums them only on the bands that rule cannot resolve to roundoff.  Every
    other potential, capacity and integrated measure comes from per-band
    Chebyshev series sized by the geometry, as are the solver's rules.  Values are typed as in JSON: counts are
    integers, at most ``MAX_POINTS`` points, and no boolean is a number.
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
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        # a missing file, bad UTF-8 or JSON, too deep a nesting or too long an integer
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
        if not isinstance(raw, dict):
            raise ConfigError(["config must be a JSON object"])

        for key in sorted(set(raw) - {f.name for f in fields(cls)}):
            problems.append(f"unknown key {key!r}")

        ifs = None
        pairs = raw.get("ifs")
        if not (isinstance(pairs, list) and len(pairs) >= 2
                and all(isinstance(p, list) and len(p) == 2
                        and all(_is_json(v, float) for v in p) for p in pairs)):
            problems.append("'ifs' must list at least two (delta, gamma) pairs "
                            "of JSON finite numbers")
        else:
            try:
                ifs = validate(IfsSystem.from_pairs(pairs))
            except InvalidIfs as exc:
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
        walk = None
        if ifs is not None:
            try:
                walk = generations(ifs, n_max)[1:]
            except GenerationTooLarge as exc:
                problems.append(f"'n_max' {n_max} rejected: {exc}")
        # an absent key takes its field's default, the class attribute
        in_range = f"must be in 1..{MAX_POINTS}"
        order = grab("quadrature_order", cls.quadrature_order, int,
                     lambda v: 1 <= v <= MAX_POINTS, in_range)
        tol = grab("residual_tol", cls.residual_tol, float, lambda v: v > 0, "must be positive")
        samples = grab("sample_count", cls.sample_count, int,
                       lambda v: 1 <= v <= MAX_POINTS, in_range)
        point_x = None if raw.get("point_x") is None else grab("point_x", None, float)

        x_grid = None
        g = raw.get("x_grid")
        if g is not None:
            lo, hi, count = (g.get(k) if isinstance(g, dict) else None
                             for k in ("lo", "hi", "count"))
            if (_is_json(lo, float) and _is_json(hi, float) and _is_json(count, int)
                    and lo < hi and 2 <= count <= MAX_POINTS):
                x_grid = (float(lo), float(hi), count)
            else:
                problems.append("'x_grid' must be {lo < hi numbers, integer count "
                                f"in 2..{MAX_POINTS}}}")

        outdir = os.environ.get(OUTDIR_ENV) or raw.get("output_dir", str(cls.output_dir))
        if not isinstance(outdir, str):
            problems.append(f"'output_dir' must be a string, got {outdir!r}")

        if problems:
            raise ConfigError(problems)
        cfg = cls(ifs=ifs, n_max=n_max, residual_tol=tol, quadrature_order=order,
                  sample_count=samples, point_x=point_x, x_grid=x_grid,
                  output_dir=Path(outdir))
        cfg.__dict__["band_systems"] = walk  # where cached_property keeps its value
        return cfg

    @cached_property
    def band_systems(self) -> tuple[BandSystem, ...]:
        """The band systems of generations ``1..n_max``, built in one walk
        (by :meth:`from_file`'s depth check, for a config it reads)."""
        return generations(self.ifs, self.n_max)[1:]

    @property
    def numerics(self) -> dict:
        """Every setting a stored record depends on: the IFS, ``residual_tol``
        and :func:`~equimeasure.solver.settings`."""
        return {"ifs": [[m.delta, m.gamma] for m in self.ifs.maps],
                "residual_tol": self.residual_tol, **solver.settings()}

    @property
    def rule(self) -> QuadratureRule:
        return QuadratureRule.chebyshev(self.quadrature_order)


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class SolutionCache:
    """The per-generation records of one output directory, and beside each
    the band series sidecar a command read or wrote before it evaluated.

    A record ``gen_<n>.json`` holds only what the solver produced: the
    ``generation``, the settings it was solved under (``config``), the roots
    (``lambda``), the final and initial ``residuals``, ``iterations_used``
    and the band measures (``omega``); the bands follow from the IFS and Ω
    is the running sum of ω.  A sidecar ``series_<n>.bin`` holds the band
    series derived from the roots (``GapVariables.band_series``): one JSON
    line with the ``generation`` and ``config`` (``numerics`` and
    :func:`~equimeasure.kernel.series_settings`), then the roots and the
    coefficients as little-endian float64 bytes; deleting one is always
    safe.  The cache stamps both with their ``config`` and binds both by one
    rule, :func:`_binds`.
    """

    def __init__(self, directory: Path, numerics: dict):
        self.directory, self.numerics = Path(directory), numerics
        self._series_numerics = {**numerics, **kernel.series_settings()}

    def path(self, n: int) -> Path:
        return self.directory / f"gen_{n}.json"

    def record(self, sol: EquilibriumSolution) -> dict:
        """The record of ``sol``, stamped with ``numerics``."""
        return {"generation": sol.generation, "config": self.numerics,
                "lambda": sol.lambdas.tolist(), "residuals": sol.residuals.tolist(),
                "initial_residuals": sol.initial_residuals.tolist(),
                "iterations_used": sol.iterations_used, "omega": sol.omegas.tolist()}

    def load(self, bands: BandSystem) -> EquilibriumSolution | None:
        """The solution stored for ``bands``, or ``None`` if its record is
        unreadable, does not bind (:func:`_binds`), lacks a key or holds an
        array that does not fit ``bands``, a non-finite value or a
        non-integer ``iterations_used``.  Other keys, such as the band
        endpoints and ``Omega`` of earlier records, are ignored."""
        sizes = {"lambda": bands.n_gaps, "residuals": bands.n_gaps,
                 "initial_residuals": bands.n_gaps, "omega": bands.n_bands}
        try:
            record = json.loads(self.path(bands.generation).read_text())
            if not _binds(record, self.numerics, bands.generation):
                return None
            a = {key: np.array(record[key], dtype=float) for key in sizes}
            if (any(a[key].shape != (size,) or not np.isfinite(a[key]).all()
                    for key, size in sizes.items())
                    or not _is_json(record["iterations_used"], int)):
                return None
            return EquilibriumSolution(
                vars=GapVariables(bands, a["lambda"]), residuals=a["residuals"],
                iterations_used=record["iterations_used"], omegas=a["omega"],
                initial_residuals=a["initial_residuals"])
        # a missing file or key, bad UTF-8 or JSON, or a non-number
        except (OSError, KeyError, TypeError, ValueError, RecursionError):
            return None

    def store(self, record: dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        _atomic_write(self.path(record["generation"]), json.dumps(record).encode())

    def series_path(self, n: int) -> Path:
        return self.directory / f"series_{n}.bin"

    def load_series(self, sol: EquilibriumSolution) -> bool:
        """Seed ``sol``'s band series from its sidecar, if that binds
        (:func:`_binds`), holds exactly these roots and holds coefficients
        the kernel accepts; returns whether it did."""
        roots = sol.lambdas.astype("<f8", copy=False).tobytes()
        try:
            head, _, body = self.series_path(sol.generation).read_bytes().partition(b"\n")
            side = json.loads(head)
            coeffs = np.frombuffer(body, dtype="<f8", offset=len(roots))
            coeffs = coeffs.reshape(sol.vars.bands.n_bands, -1)
        except (OSError, ValueError, RecursionError):  # a missing file or bad bytes
            return False
        return (_binds(side, self._series_numerics, sol.generation) and body[:len(roots)] == roots
                and kernel.restore_band_series(sol.vars, coeffs))

    def store_series(self, sol: EquilibriumSolution) -> None:
        head = json.dumps({"generation": sol.generation, "config": self._series_numerics})
        _atomic_write(self.series_path(sol.generation), b"".join((
            head.encode(), b"\n", sol.lambdas.astype("<f8", copy=False).tobytes(),
            sol.vars.band_series.astype("<f8", copy=False).tobytes())))


def _binds(header, settings: dict, n: int) -> bool:
    """Whether a record or sidecar header was stored for generation ``n``
    (that JSON integer, not ``true`` or ``2.0``) under exactly ``settings``."""
    return (isinstance(header, dict) and header.get("config") == settings
            and _is_json(header.get("generation"), int) and header["generation"] == n)


def solve_all(cfg: RunConfig) -> list[tuple[BandSystem, EquilibriumSolution]]:
    """Solve (or reload) generations ``1..n_max``, writing records as we go.

    The run's band systems, :attr:`RunConfig.band_systems`, go to
    :func:`~equimeasure.solver.hierarchical_solve` with the record cache as
    its load and store hooks.  A record that does not
    load is solved again and overwritten.  On solver failure the records of the completed
    generations remain on disk and the error propagates with
    ``generation`` and ``solutions_so_far``.
    """
    cache = SolutionCache(cfg.output_dir, cfg.numerics)
    solutions = hierarchical_solve(cfg.band_systems, cfg.residual_tol, cache.load,
                                   lambda sol: cache.store(cache.record(sol)))
    return [(sol.vars.bands, sol) for sol in solutions]


def _read_or_build_series(cfg: RunConfig, solved) -> None:
    """Give each solution of ``solved`` its band series before it is
    evaluated: restored from its sidecar where that binds, else built and
    its sidecar written at once."""
    cache = SolutionCache(cfg.output_dir, cfg.numerics)
    for _, sol in solved:
        if not cache.load_series(sol):
            cache.store_series(sol)  # reading ``band_series`` builds it


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row]
                     for row in rows)
    _atomic_write(path, text.getvalue().encode())


def _line_ids(solved) -> list[list[str]]:
    """Line ids of the gaps of generations 1, 2, ...: an old gap's parent's
    id, or ``"<n>:<g>"`` for gap ``g`` new at generation ``n``."""
    ids: list[list[str]] = []
    for bands, _ in solved:
        ids.append([ids[-1][p] if p >= 0 else f"{bands.generation}:{g}"
                    for g, p in enumerate(bands.parents.tolist())])
    return ids


def _capacity_rows(cfg: RunConfig, solved):
    est_mean, est_point = capacity_estimate([sol for _, sol in solved], cfg.rule,
                                            cfg.sample_count, cfg.point_x)
    rows = [[n, v_point, v_mean, *est_point.fit, est_point.extrapolated_capacity,
             *est_mean.fit, est_mean.extrapolated_capacity]
            for (n, v_point), (_, v_mean) in zip(est_point.per_generation,
                                                 est_mean.per_generation)]
    header = ["n", "V_point", "V_mean",
              "fit_a_point", "fit_b_point", "fit_c_point", "capacity_point",
              "fit_a_mean", "fit_b_mean", "fit_c_mean", "capacity_mean"]
    return header, rows


def write_figure(cfg: RunConfig, which: str, solved) -> Path:
    """Write one figure's data to ``<output_dir>/<which>.csv`` and return that
    path; an unknown ``which`` raises ``ValueError`` before anything is written."""
    if which == "residuals_before_after":
        header = ["generation", "gap_index", "residual_initial", "residual_final"]
        rows = [[sol.generation, g, sol.initial_residuals[g], sol.residuals[g]]
                for bands, sol in solved for g in range(bands.n_gaps)]
    elif which == "jacobian_decay":
        bands, sol = solved[-1]
        jac = jacobian(sol.vars)
        header = ["generation", "i", "m", "i_minus_m", "abs_dKi_dlambda_m"]
        rows = [[bands.generation, i, m, i - m, abs(jac[i, m])]
                for i in range(bands.n_gaps) for m in range(bands.n_gaps)]
    elif which in ("lambda_vs_n", "Omega_vs_n"):  # per gap line: lambda, or Omega left of it
        column = which.removesuffix("_vs_n")
        header = ["generation", "gap_index", "line_id", column]
        rows = [[sol.generation, g, line,
                 (sol.lambdas if column == "lambda" else sol.Omegas)[g]]
                for (_, sol), lines in zip(solved, _line_ids(solved))
                for g, line in enumerate(lines)]
    elif which in ("Omega_of_x", "potential_profile"):
        column, at = (("Omega", integrated_measure_at) if which == "Omega_of_x" else
                      ("V", lambda x, sol, bands: potential_at(x, sol, bands, cfg.rule)))
        h = cfg.band_systems[-1].hull
        grid = np.linspace(*(cfg.x_grid or (h.lo, h.hi, 401)))
        header = ["generation", "x", column]
        rows = [[sol.generation, x, v] for bands, sol in solved
                for x, v in zip(grid.tolist(), at(grid, sol, bands).tolist())]
    elif which == "gapmeasure_fit":
        gaps = [lines.index("1:0") for lines in _line_ids(solved)]  # gap 0 of generation 1
        points = [(sol.generation, float(sol.Omegas[g])) for (_, sol), g in zip(solved, gaps)]
        try:
            a, b, c = fit_exponential(points[-MIN_CAPACITY_GENERATIONS:])
        except ValueError:  # under 3 points, or no decay (NonMonotoneInput)
            a = b = c = math.nan
        header = ["generation", "gap_index", "Omega", "fit_a", "fit_b", "fit_c"]
        rows = [[n, g, v, a, b, c] for (n, v), g in zip(points, gaps)]
    elif which == "capacity_table":
        header, rows = _capacity_rows(cfg, solved)
    else:
        raise _unknown_figure(which)
    path = cfg.output_dir / f"{which}.csv"
    _write_csv(path, header, rows)
    return path


def cmd_solve(cfg: RunConfig) -> int:
    solved = solve_all(cfg)
    for bands, sol in solved:
        print(f"generation {sol.generation}: {bands.n_bands} bands, "
              f"max residual {sol.max_residual:.3e}, "
              f"{sol.iterations_used} iterations")
    return 0


def _unknown_figure(which: str) -> ConfigError:
    return ConfigError([f"unknown figure {which!r}; choose from "
                        f"{', '.join(FIGURE_NAMES)} or 'all'"])


def _require(cfg: RunConfig, needs: dict[str, str]) -> None:
    """Reject, before any solve, a run that fails one of ``needs``, reported as
    needed by the name it maps to.  ``"series"``: the band series at ``n_max``
    hold at most ``MAX_POINTS`` coefficients in all; ``"capacity"``: the fit
    has its generations, each band of the deepest a sample point and
    ``point_x`` lies on its bands (so on every one's); ``"hull"``: ``x_grid``
    lies inside the hull."""
    problems, deepest, x, grid = [], cfg.band_systems[-1], cfg.point_x, cfg.x_grid
    if "series" in needs:
        size = deepest.n_bands * kernel.series_width(deepest)
        if size > MAX_POINTS:
            problems.append(f"{needs['series']} needs at most {MAX_POINTS} band series "
                            f"coefficients at generation {cfg.n_max}, got {size}")
    what = needs.get("capacity")
    if what and cfg.n_max < MIN_CAPACITY_GENERATIONS:
        problems.append(f"{what} needs n_max >= {MIN_CAPACITY_GENERATIONS}, "
                        f"got {cfg.n_max}")
    if what and cfg.sample_count < deepest.n_bands:
        problems.append(f"{what} needs sample_count >= {deepest.n_bands}, one point per band "
                        f"of generation {cfg.n_max}, got {cfg.sample_count}")
    if what and x is not None and not np.any((deepest.alphas <= x) & (x <= deepest.betas)):
        problems.append(f"{what} needs 'point_x' on the bands of generation "
                        f"{cfg.n_max}, got {x!r}")
    h = deepest.hull
    if "hull" in needs and grid and not h.lo <= grid[0] < grid[1] <= h.hi:
        problems.append(f"{needs['hull']} needs 'x_grid' inside the hull [{h.lo}, {h.hi}]")
    if problems:
        raise ConfigError(problems)


def cmd_figures(cfg: RunConfig, which: str) -> int:
    if which != "all" and which not in FIGURE_NEEDS:
        raise _unknown_figure(which)
    names = FIGURE_NAMES if which == "all" else (which,)
    needs = {need: f"the {name} figure" for name in names for need in FIGURE_NEEDS[name]}
    _require(cfg, needs)
    solved = solve_all(cfg)
    _read_or_build_series(cfg, solved if "series" in needs else [])
    for name in names:
        path = write_figure(cfg, name, solved)
        print(f"wrote {path}")
    return 0


def cmd_capacity(cfg: RunConfig) -> int:
    _require(cfg, dict.fromkeys(FIGURE_NEEDS["capacity_table"], "capacity"))
    solved = solve_all(cfg)
    _read_or_build_series(cfg, solved)
    header, rows = _capacity_rows(cfg, solved)
    path = cfg.output_dir / "capacity_table.csv"
    _write_csv(path, header, rows)
    print(f"wrote {path}")
    *_, capacity_point, a, b, c, capacity_mean = rows[-1]
    print(f"fit over last {MIN_CAPACITY_GENERATIONS} generations (mean path): "
          f"a={a:.9f} b={b:.7f} c={c:.8f}")
    print(f"extrapolated capacity (mean path):  {capacity_mean:#.9g}")
    print(f"extrapolated capacity (point path): {capacity_point:#.9g}")
    return 0


def _parse_points(spec: str) -> np.ndarray:
    """The points of ``--points``: a file of numbers or ``lo:hi:count``,
    with 1 to ``MAX_POINTS`` points, every one finite, else :class:`ConfigError`."""
    try:
        if os.path.exists(spec):
            pts = np.array([float(v) for v in Path(spec).read_text().split()])
        else:
            lo, hi, count = spec.split(":")
            ends, count = np.array([float(lo), float(hi)]), int(count)
            if not 1 <= count <= MAX_POINTS:
                raise ValueError(f"count {count} is not in 1..{MAX_POINTS}")
            # a non-finite end is reported below, not spread over a grid
            pts = np.linspace(*ends, count) if np.all(np.isfinite(ends)) else ends
        if not 1 <= pts.size <= MAX_POINTS:
            raise ValueError(f"{pts.size} points, not 1..{MAX_POINTS}")
        if not np.all(np.isfinite(pts)):
            raise ValueError(f"{pts[~np.isfinite(pts)][0]} is not finite")
    except ValueError as exc:
        raise ConfigError([f"--points must be a file of finite numbers or lo:hi:count, "
                           f"got {spec!r} ({exc})"]) from exc
    return pts


def cmd_potential(cfg: RunConfig, points_spec: str) -> int:
    pts = _parse_points(points_spec)
    _require(cfg, dict.fromkeys(FIGURE_NEEDS["potential_profile"], "potential"))
    solved = solve_all(cfg)
    _read_or_build_series(cfg, solved[-1:])
    bands, sol = solved[-1]
    values = potential_at(pts, sol, bands, cfg.rule)
    path = cfg.output_dir / "potential_points.csv"
    _write_csv(path, ["x", "V"], zip(pts, values))
    print(f"wrote {path}")
    return 0


# Each command's options and their defaults; None marks a required one.
COMMANDS = {"solve": {"--config": None}, "figures": {"--config": None, "--which": "all"},
            "capacity": {"--config": None}, "potential": {"--config": None, "--points": None}}


def _usage_error(message: str):
    print(f"equimeasure: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse_args(argv) -> tuple[str, dict[str, str]]:
    """The command of ``argv`` and its options, defaults filled in, by the
    grammar of the module docstring."""
    command, options, args = None, {}, iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            # ``python -OO`` strips the docstring: then the block is empty
            print("usage:\n" + (__doc__ or "").partition("Usage::\n\n")[2].partition("\n\n")[0])
            raise SystemExit(0)
        if command is None:
            if arg not in COMMANDS:
                _usage_error(f"unknown command {arg!r}; choose from {', '.join(COMMANDS)}")
            command, options = arg, dict(COMMANDS[arg])
            continue
        name, eq, value = arg.partition("=")
        if name not in options:
            _usage_error(f"{command} takes {', '.join(options)}, got {arg!r}")
        options[name] = value if eq else next(args, None)
    if command is None:
        _usage_error(f"no command; choose from {', '.join(COMMANDS)}")
    missing = [name for name, value in options.items() if value is None]
    if missing:
        _usage_error(f"{command} needs a value for {' and '.join(missing)}")
    return command, options


def main(argv=None) -> int:
    command, opts = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        cfg = RunConfig.from_file(opts["--config"])
        if command == "solve":
            return cmd_solve(cfg)
        if command == "figures":
            return cmd_figures(cfg, opts["--which"])
        if command == "capacity":
            return cmd_capacity(cfg)
        return cmd_potential(cfg, opts["--points"])
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failed at generation {exc.generation}: {exc}", file=sys.stderr)
        return 3
    except AnalyticsError as exc:
        print(f"analytics failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
