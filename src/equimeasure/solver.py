"""Newton solution of the gap-root equations, generation by generation.

At generation ``n`` the ``N - 1`` normalized gap roots solve the coupled
system ``K_i(lambda_1, ..., lambda_{N-1}) = 0`` where ``K_i`` is the
quadrature value of the signed density integral over gap ``i``.  The
system has a unique solution and is strongly diagonally dominant (remote
gaps barely influence each other), so a damped Newton iteration with the
analytic Jacobian and GMRES converges in a handful of steps.  Steps are
scaled, never projected, so every iterate keeps each root inside its gap.

Gaps (and bands) that share a quadrature rule form a rule group
(:func:`_rules`), and each group is one batched kernel call: a residual
pass makes one :func:`~equimeasure.kernel.gap_integral` call per group, the
Jacobian one :func:`~equimeasure.kernel.gap_jacobian_row` call per group
from the reduced kernels the residual pass kept, and the band measures one
:func:`~equimeasure.kernel.band_integral` call per band rule.  Kernel
calls and :func:`solve_generation` read the band system from the roots
(``vars.bands``).

Across generations the gap genealogy provides warm starts: a gap that
already existed at generation ``n - 1`` inherits its converged root, while
newly created gaps start from the gap midpoint (``lambda = 0``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import BandSystem, IfsSystem, generate_bands, validate
from .kernel import (
    GapVariables,
    band_integral,
    gap_integral,
    gap_jacobian_row,
    refined_rules,
)

_GMRES_RTOL = 1e-14  # relative residual of the Jacobi-scaled Newton system

MAX_ITERATIONS = 200  # Newton iterations per generation before NoConvergence
# Margin kept between any iterate and the ends of (-1, 1): a root reaching
# its gap boundary would flip the sign of the density and void the equations.
STEP_CLAMP = 1e-9  # hashed into cache fingerprints (cli.RunConfig.numerics)


class SolverError(RuntimeError):
    """Base class for solver failures; carries the best iterate seen."""

    def __init__(self, message, lambdas=None, residuals=None, iterations=None,
                 generation=None):
        super().__init__(message)
        self.lambdas = lambdas
        self.residuals = residuals
        self.iterations = iterations
        self.generation = generation


class NoConvergence(SolverError):
    """Iteration budget exhausted before reaching the residual tolerance."""


class SingularJacobian(SolverError):
    """The Newton linear solve failed at some iterate."""


@dataclass(frozen=True)
class EquilibriumSolution:
    """Converged roots and derived measure data for one generation.

    ``vars`` holds the roots and their band system, whose generation is
    :attr:`generation`.  ``_band_series`` and ``_density_tables`` are memos
    owned by :mod:`~equimeasure.analytics`, built on first use and read-only:
    ``_band_series`` holds the per-band Chebyshev coefficients of the
    density, from which every potential and integrated measure on this
    solution is evaluated; ``_density_tables`` holds, per quadrature order,
    the node positions and weighted densities of the plain node sum
    (``method="nodes"``), filled from those coefficients.
    """

    vars: GapVariables
    residuals: np.ndarray
    iterations_used: int
    omegas: np.ndarray
    Omegas: np.ndarray
    initial_residuals: np.ndarray = field(repr=False, default=None)
    _density_tables: dict = field(default_factory=dict, init=False, repr=False,
                                  compare=False)
    _band_series: np.ndarray = field(default=None, init=False, repr=False,
                                     compare=False)

    @property
    def generation(self) -> int:
        return self.vars.bands.generation

    @property
    def lambdas(self) -> np.ndarray:
        return self.vars.lambdas

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else 0.0


def _rules(bands: BandSystem, kind: str) -> list[tuple]:
    """Rule groups ``(rule, indices)`` over the gaps (``kind="gap"``) or the
    bands (``kind="band"``): ``indices`` is an ascending tuple of Python
    ints, every frame of the generation is in exactly one group, and the
    frames of a group share one memoised rule."""
    groups: dict = {}
    for i, rule in enumerate(refined_rules(bands, kind)):
        groups.setdefault(id(rule), (rule, []))[1].append(i)
    return [(rule, tuple(idx)) for rule, idx in groups.values()]


def _residual_vector(vars: GapVariables, groups):
    """Residuals at ``vars`` and the reduced kernels built on the way.

    One :func:`gap_integral` call per rule group.  The second value maps
    each group's tuple of gaps to ``(rule, g)``: its rule and the reduced
    kernels there, which the Jacobian at the same ``vars`` reuses.
    """
    kept = {}
    r = np.empty(vars.bands.n_gaps)
    for rule, idx in groups:
        r[list(idx)] = gap_integral(idx, vars, rule, kept)
    return r, kept


def _jacobian(vars: GapVariables, kept) -> np.ndarray:
    """The Jacobian from the reduced kernels a residual pass at ``vars``
    kept, one :func:`gap_jacobian_row` call per kept block."""
    jac = np.empty((vars.bands.n_gaps, vars.bands.n_gaps))
    for idx, (rule, g) in kept.items():
        jac[list(idx)] = gap_jacobian_row(idx, vars, rule, g)
    return jac


def jacobian(vars: GapVariables) -> np.ndarray:
    """The dense Jacobian ``d K_i / d lambda_m`` at ``vars``, as the Newton
    loop builds it: the rows from the reduced kernels of one residual pass
    over the solver's rule groups."""
    return _jacobian(vars, _residual_vector(vars, _rules(vars.bands, "gap"))[1])


def _gmres(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``jac @ x = rhs`` by unrestarted GMRES on the Jacobi-scaled system
    (Saad & Schultz, 1986): classical Gram-Schmidt twice, Givens rotations on
    Python floats, every product an ``einsum``, so no BLAS call wakes
    OpenBLAS's threads.  The diagonal dominates, so a dozen steps suffice.
    Raises ``LinAlgError`` for a non-finite Jacobian, a zero diagonal entry
    or no convergence within ``N`` steps."""
    n, diag = rhs.size, jac.diagonal()
    if not (np.isfinite(jac).all() and diag.all()):
        raise np.linalg.LinAlgError("the Jacobian is not finite or has a zero diagonal entry")
    a, b = jac / diag[:, None], rhs / diag
    beta = math.sqrt(np.einsum("i,i->", b, b))
    basis = np.empty((n + 1, n))  # pages are touched only as rows are filled
    basis[0] = b / beta
    g, rotations, cols = [beta], [], []
    for k in range(n):
        w, v, col = np.einsum("ij,j->i", a, basis[k]), basis[: k + 1], 0.0
        for _ in range(2):
            h = np.einsum("ij,j->i", v, w)
            w -= np.einsum("i,ij->j", h, v)
            col = col + h
        col, h_next = col.tolist(), math.sqrt(np.einsum("i,i->", w, w))
        for j, (c, s) in enumerate(rotations):
            col[j], col[j + 1] = c * col[j] + s * col[j + 1], c * col[j + 1] - s * col[j]
        rho = math.hypot(col[k], h_next)
        if rho == 0.0:
            break
        c, s = col[k] / rho, h_next / rho
        rotations.append((c, s))
        col[k] = rho
        cols.append(col)
        g[k:] = [c * g[k], -s * g[k]]
        if abs(g[k + 1]) <= _GMRES_RTOL * beta:
            y = [0.0] * (k + 1)
            for j in reversed(range(k + 1)):
                y[j] = (g[j] - sum(cols[m][j] * y[m] for m in range(j + 1, k + 1))
                        ) / cols[j][j]
            return np.einsum("i,ij->j", np.array(y), basis[: k + 1])
        basis[k + 1] = w / h_next
    raise np.linalg.LinAlgError(f"GMRES stopped at relative residual {abs(g[-1]) / beta:.1e}")


def solve_generation(initial: GapVariables, residual_tol: float = 1e-12
                     ) -> EquilibriumSolution:
    """Drive all gap equations of ``initial.bands`` below ``residual_tol`` in
    max norm, starting from the roots ``initial``.

    Newton directions come from the analytic Jacobian by :func:`_gmres`;
    steps are shortened first to keep every root ``STEP_CLAMP`` inside
    (-1, 1) and then halved until the residual norm decreases.  Raises
    :class:`NoConvergence` (with the best iterate attached) after
    ``MAX_ITERATIONS`` iterations and :class:`SingularJacobian` when the
    linear solve breaks down.
    """
    if not 0.0 < residual_tol < math.inf:
        raise ValueError("residual_tol must be positive and finite")
    vars, bands = initial, initial.bands
    groups = _rules(bands, "gap")
    hi_bound = 1.0 - STEP_CLAMP

    r, kept = _residual_vector(vars, groups)
    initial_abs = np.abs(r)
    norm = initial_abs.max() if r.size else 0.0
    iterations = 0

    def failure(kind, message):
        return kind(message, lambdas=vars.lambdas, residuals=np.abs(r),
                    iterations=iterations, generation=bands.generation)

    while norm > residual_tol:
        if iterations >= MAX_ITERATIONS:
            raise failure(NoConvergence, f"no convergence after {iterations} "
                                         f"iterations (residual {norm:.3e})")
        jac = _jacobian(vars, kept)
        try:
            step = _gmres(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise failure(SingularJacobian,
                          f"singular Jacobian at iteration {iterations}: {exc}") from exc

        # Largest multiple of the Newton step keeping all components inside
        # [-1 + clamp, 1 - clamp]; shrinking the whole step preserves the
        # direction.
        lam = vars.lambdas
        with np.errstate(divide="ignore"):
            room = np.where(step > 0.0, (hi_bound - lam) / step,
                            np.where(step < 0.0, (-hi_bound - lam) / step, np.inf))
        t = min(1.0, float(np.min(room))) if room.size else 1.0

        while t > 2.0 ** -30:
            trial = GapVariables(bands, lam + t * step)
            r_trial, kept_trial = _residual_vector(trial, groups)
            if np.max(np.abs(r_trial)) <= (1.0 - 1e-4 * t) * norm:
                break
            t *= 0.5
        else:
            raise failure(NoConvergence, f"line search stalled at iteration "
                                         f"{iterations} (residual {norm:.3e})")
        vars, r, kept = trial, r_trial, kept_trial
        norm = float(np.max(np.abs(r)))
        iterations += 1

    omegas = np.empty(bands.n_bands)
    for rule, idx in _rules(bands, "band"):
        omegas[list(idx)] = band_integral(idx, vars, rule)
    return EquilibriumSolution(
        vars=vars,
        residuals=np.abs(r),
        iterations_used=iterations,
        omegas=omegas,
        Omegas=np.cumsum(omegas),
        initial_residuals=initial_abs,
    )


def warm_start(bands: BandSystem, previous: EquilibriumSolution | None) -> GapVariables:
    """Initial roots for one generation from the previous solution.

    Old gaps (per the genealogy) inherit the parent's converged root; new
    gaps start at the midpoint.  With no previous solution all roots start
    at zero.
    """
    lam = np.zeros(bands.n_gaps)
    if previous is not None:
        for g, parent in enumerate(bands.genealogy):
            if parent is not None:
                lam[g] = previous.lambdas[parent]
    return GapVariables(bands, lam)


def hierarchical_solve(ifs: IfsSystem, n_max: int, residual_tol: float = 1e-12,
                       load=None, store=None) -> list[EquilibriumSolution]:
    """Solve generations ``1 .. n_max`` to ``residual_tol``, with warm starts.

    This is the one loop over generations.  ``load(bands)`` may return a
    stored :class:`EquilibriumSolution` of ``bands``, which is used as is
    and warm-starts the next generation; ``store(solution)`` receives each
    newly solved generation.  Solver failures carry the failing generation
    (``generation``) and are re-raised with the solutions of all earlier
    generations (``solutions_so_far``) recorded on the exception.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    ifs = validate(ifs)
    solutions: list[EquilibriumSolution] = []
    for n in range(1, n_max + 1):
        bands = generate_bands(ifs, n)
        sol = load(bands) if load else None
        if sol is None:
            try:
                sol = solve_generation(
                    warm_start(bands, solutions[-1] if solutions else None), residual_tol)
            except SolverError as exc:
                exc.solutions_so_far = solutions
                raise
            if store:
                store(sol)
        solutions.append(sol)
    return solutions
