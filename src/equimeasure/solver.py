"""Newton solution of the gap-root equations, generation by generation.

At generation ``n`` the ``N - 1`` normalized gap roots solve the coupled
system ``K_i(lambda_1, ..., lambda_{N-1}) = 0`` where ``K_i`` is the
Gauss-Chebyshev value of the signed density integral over gap ``i``.  The
system has a unique solution and is strongly diagonally dominant (remote
gaps barely influence each other), so a damped Newton iteration with the
analytic Jacobian converges in a handful of steps.  Steps are scaled, never
projected, so every iterate keeps each root strictly inside its gap.

Across generations the gap genealogy provides warm starts: a gap that
already existed at generation ``n - 1`` inherits its converged root, while
newly created gaps start from the gap midpoint (``lambda = 0``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import BandSystem, IfsSystem, generate_bands, validate
from .kernel import (
    ExactNodeCollision,
    GapVariables,
    QuadratureRule,
    band_integral,
    gap_integral,
    gap_jacobian_row,
    refined_gap_order,
)

_MAX_COLLISION_BUMPS = 4


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
class SolverConfig:
    """Tolerances and quadrature choices for one solve.

    ``step_clamp`` is the margin kept between any iterate and the ends of
    (-1, 1); a root reaching its gap boundary would flip the sign of the
    density and void the equations.  When ``auto_refine`` is set, gaps
    whose adjacent bands are orders of magnitude narrower than the gap get
    their quadrature order raised (see ``refined_gap_order``); this never
    triggers for mildly contractive systems at the default order.
    """

    residual_tol: float = 1e-12
    max_iterations: int = 200
    step_clamp: float = 1e-9
    quadrature_order: int = 2048
    evaluator: str = "grouped"
    auto_refine: bool = True
    refine_safety: float = 14.0

    def __post_init__(self):
        if not self.residual_tol > 0.0:
            raise ValueError("residual_tol must be positive")
        if not 0.0 < self.step_clamp < 1.0:
            raise ValueError("step_clamp must lie in (0, 1)")


@dataclass(frozen=True)
class EquilibriumSolution:
    """Converged roots and derived measure data for one generation."""

    generation: int
    vars: GapVariables
    residuals: np.ndarray
    iterations_used: int
    omegas: np.ndarray
    Omegas: np.ndarray
    initial_residuals: np.ndarray = field(repr=False, default=None)

    @property
    def lambdas(self) -> np.ndarray:
        return self.vars.lambdas

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else 0.0


def _gap_rules(bands: BandSystem, cfg: SolverConfig) -> list[QuadratureRule]:
    cache: dict[int, QuadratureRule] = {}
    rules = []
    for i in range(bands.n_gaps):
        order = cfg.quadrature_order
        if cfg.auto_refine:
            order = refined_gap_order(bands, i, order, cfg.refine_safety)
        if order not in cache:
            cache[order] = QuadratureRule.chebyshev(order)
        rules.append(cache[order])
    return rules


def _integral_with_bumps(i, bands, vars, rule, evaluator, keep):
    for bump in range(_MAX_COLLISION_BUMPS):
        try:
            return gap_integral(i, bands, vars, rule, evaluator, keep)
        except ExactNodeCollision:
            rule = QuadratureRule.chebyshev(rule.order + 1)
    return gap_integral(i, bands, vars, rule, evaluator, keep)


def _jacobian_row_with_bumps(i, bands, vars, rule):
    for bump in range(_MAX_COLLISION_BUMPS):
        try:
            return gap_jacobian_row(i, bands, vars, rule)
        except ExactNodeCollision:
            rule = QuadratureRule.chebyshev(rule.order + 1)
    return gap_jacobian_row(i, bands, vars, rule)


def _residual_vector(bands, lambdas, rules, evaluator):
    """Residuals at ``lambdas`` and the reduced kernels built on the way.

    The second value maps gap ``i`` to ``(rule, g)``: the rule left after
    any collision bumps and the reduced kernel there, which the Jacobian at
    the same ``lambdas`` reuses.  The log-space evaluator keeps none.
    """
    vars = GapVariables(bands, lambdas)
    kept: dict = {}
    r = np.array(
        [_integral_with_bumps(i, bands, vars, rules[i], evaluator, kept)
         for i in range(bands.n_gaps)]
    )
    return r, kept


def _jacobian(bands, lambdas, rules, kept) -> np.ndarray:
    vars = GapVariables(bands, lambdas)
    rows = []
    for i in range(bands.n_gaps):
        if i in kept:
            rule, g = kept[i]
            rows.append(gap_jacobian_row(i, bands, vars, rule, g))
        else:
            rows.append(_jacobian_row_with_bumps(i, bands, vars, rules[i]))
    return np.vstack(rows)


def solve_generation(bands: BandSystem, initial: GapVariables,
                     cfg: SolverConfig | None = None) -> EquilibriumSolution:
    """Drive all gap equations below ``cfg.residual_tol`` in max norm.

    Newton directions come from the analytic Jacobian via dense LU; steps
    are shortened first to respect the (-1, 1) clamp and then halved until
    the residual norm decreases.  Raises :class:`NoConvergence` (with the
    best iterate attached) when the iteration budget runs out and
    :class:`SingularJacobian` when the linear solve breaks down.
    """
    cfg = cfg or SolverConfig()
    if initial.lambdas.shape != (bands.n_gaps,):
        raise ValueError("initial variables do not match the band system")
    rules = _gap_rules(bands, cfg)
    lam = initial.lambdas.copy()
    hi_bound = 1.0 - cfg.step_clamp

    r, kept = _residual_vector(bands, lam, rules, cfg.evaluator)
    initial_abs = np.abs(r)
    norm = initial_abs.max() if r.size else 0.0
    iterations = 0

    while norm > cfg.residual_tol:
        if iterations >= cfg.max_iterations:
            raise NoConvergence(
                f"no convergence after {iterations} iterations (residual {norm:.3e})",
                lambdas=lam, residuals=np.abs(r), iterations=iterations,
                generation=bands.generation,
            )
        jac = _jacobian(bands, lam, rules, kept)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(
                f"singular Jacobian at iteration {iterations}: {exc}",
                lambdas=lam, residuals=np.abs(r), iterations=iterations,
                generation=bands.generation,
            ) from exc

        # Largest multiple of the Newton step keeping all components inside
        # [-1 + clamp, 1 - clamp]; shrinking the whole step preserves the
        # direction.
        with np.errstate(divide="ignore"):
            room = np.where(step > 0.0, (hi_bound - lam) / step,
                            np.where(step < 0.0, (-hi_bound - lam) / step, np.inf))
        t = min(1.0, float(np.min(room))) if room.size else 1.0

        accepted = False
        while t > 2.0 ** -30:
            trial = lam + t * step
            r_trial, kept_trial = _residual_vector(bands, trial, rules,
                                                   cfg.evaluator)
            if np.max(np.abs(r_trial)) <= (1.0 - 1e-4 * t) * norm:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise NoConvergence(
                f"line search stalled at iteration {iterations} (residual {norm:.3e})",
                lambdas=lam, residuals=np.abs(r), iterations=iterations,
                generation=bands.generation,
            )
        lam, r, kept = trial, r_trial, kept_trial
        norm = float(np.max(np.abs(r)))
        iterations += 1

    vars = GapVariables(bands, lam)
    omega_rule = QuadratureRule.chebyshev(cfg.quadrature_order)
    omegas = np.array([band_integral(i, bands, vars, omega_rule)
                       for i in range(bands.n_bands)])
    return EquilibriumSolution(
        generation=bands.generation,
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


def hierarchical_solve(ifs: IfsSystem, n_max: int,
                       cfg: SolverConfig | None = None) -> list[EquilibriumSolution]:
    """Solve generations ``1 .. n_max`` with genealogy warm starts.

    Solver failures are re-raised with the failing generation recorded on
    the exception (``generation`` attribute) along with the solutions of
    all earlier generations (``solutions_so_far``).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    cfg = cfg or SolverConfig()
    ifs = validate(ifs)
    solutions: list[EquilibriumSolution] = []
    previous = None
    for n in range(1, n_max + 1):
        bands = generate_bands(ifs, n)
        try:
            sol = solve_generation(bands, warm_start(bands, previous), cfg)
        except SolverError as exc:
            exc.solutions_so_far = solutions
            raise
        solutions.append(sol)
        previous = sol
    return solutions
