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
:func:`~equimeasure.kernel.band_integral` call per band rule.  A collision
moves only the gaps it names to a bumped rule (:func:`_with_bumps`).

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
    ExactNodeCollision,
    GapVariables,
    QuadratureRule,
    band_integral,
    gap_integral,
    gap_jacobian_row,
    refined_rules,
)

_MAX_COLLISION_BUMPS = 4
_GMRES_RTOL = 1e-14  # relative residual of the Jacobi-scaled Newton system


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


class NodeCollision(SolverError):
    """Quadrature nodes of gap ``gap`` kept hitting a root after every bump."""

    def __init__(self, message, gap, **kwargs):
        super().__init__(message, **kwargs)
        self.gap = gap


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and quadrature choices for one solve.

    ``step_clamp`` is the margin kept between any iterate and the ends of
    (-1, 1); a root reaching its gap boundary would flip the sign of the
    density and void the equations.  With ``auto_refine`` set (the
    default) every gap equation and every band measure gets its own
    quadrature rule, sized from the geometry by
    :func:`~equimeasure.kernel.refined_rules`, and ``quadrature_order`` is
    not used.  ``evaluator`` and ``auto_refine`` are library-only reference
    switches that no CLI config sets: ``evaluator="log"`` sums in log space,
    and with ``auto_refine`` off every gap and band uses one rule of
    ``quadrature_order`` nodes, the paper's uniform choice.
    """

    residual_tol: float = 1e-12
    max_iterations: int = 200
    step_clamp: float = 1e-9
    quadrature_order: int = 2048
    evaluator: str = "grouped"
    auto_refine: bool = True

    def __post_init__(self):
        if not self.residual_tol > 0.0:
            raise ValueError("residual_tol must be positive")
        if not 0.0 < self.step_clamp < 1.0:
            raise ValueError("step_clamp must lie in (0, 1)")


@dataclass(frozen=True)
class EquilibriumSolution:
    """Converged roots and derived measure data for one generation.

    ``_band_series`` and ``_density_tables`` are memos owned by
    :mod:`~equimeasure.analytics`, built on first use and read-only:
    ``_band_series`` holds the per-band Chebyshev coefficients of the
    density, from which every potential and integrated measure on this
    solution is evaluated; ``_density_tables`` holds, per quadrature order,
    the node positions and weighted densities of the plain node sum
    (``method="nodes"``), filled from those coefficients.
    """

    generation: int
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
    def lambdas(self) -> np.ndarray:
        return self.vars.lambdas

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else 0.0


def _rules(bands: BandSystem, cfg: SolverConfig, kind: str) -> list[tuple]:
    """Rule groups ``(rule, indices)`` over the gaps (``kind="gap"``) or the
    bands (``kind="band"``): ``indices`` is an ascending tuple of Python
    ints, every frame of the generation is in exactly one group, and the
    frames of a group share one memoised rule."""
    count = bands.n_gaps if kind == "gap" else bands.n_bands
    if not cfg.auto_refine:
        return [(QuadratureRule.chebyshev(cfg.quadrature_order), tuple(range(count)))
                ] if count else []
    groups: dict = {}
    for i, rule in enumerate(refined_rules(bands, kind)):
        groups.setdefault(id(rule), (rule, []))[1].append(i)
    return [(rule, tuple(idx)) for rule, idx in groups.values()]


def _with_bumps(evaluate, indices, vars, rule, out: np.ndarray) -> np.ndarray:
    """``out[indices] = evaluate(indices, rule)``, one value (or row) per index.

    The frames an :class:`ExactNodeCollision` names (all of the call's, if
    it names none) are evaluated again with ``rule.bumped()``; the others
    keep ``rule``.  Raises :class:`NodeCollision` for the first gap whose
    nodes still hit a root or an endpoint after ``_MAX_COLLISION_BUMPS``
    bumps.
    """
    pending = tuple(indices)
    for _ in range(_MAX_COLLISION_BUMPS + 1):
        bump = ()
        while pending:
            try:
                out[list(pending)] = evaluate(pending, rule)
                pending = ()
            except ExactNodeCollision as exc:
                hit = tuple(i for i in pending if i in exc.frames) or pending
                bump += hit
                pending = tuple(i for i in pending if i not in hit)
        if not bump:
            return out
        pending, rule = tuple(sorted(bump)), rule.bumped()
    raise NodeCollision(
        f"quadrature nodes of gap {pending[0]} still hit a root or endpoint after "
        f"{_MAX_COLLISION_BUMPS} order bumps", gap=pending[0], lambdas=vars.lambdas,
        generation=vars.bands.generation,
    )


def _residual_vector(bands, lambdas, groups, evaluator):
    """Residuals at ``lambdas`` and the reduced kernels built on the way.

    One :func:`gap_integral` call per rule group.  The second value maps
    each tuple of gaps evaluated together to ``(rule, g)``: the rule left
    after any collision bumps and the reduced kernels there, which the
    Jacobian at the same ``lambdas`` reuses.  The log-space evaluator keeps
    none.
    """
    vars = GapVariables(bands, lambdas)
    kept: dict = {}
    r = np.empty(bands.n_gaps)
    for rule, idx in groups:
        _with_bumps(lambda i, rule: gap_integral(i, bands, vars, rule, evaluator, kept),
                    idx, vars, rule, r)
    return r, kept


def _jacobian(bands, lambdas, groups, kept) -> np.ndarray:
    """The dense Jacobian: one :func:`gap_jacobian_row` call per kept block,
    or per rule group when the residual pass kept none."""
    vars = GapVariables(bands, lambdas)
    jac = np.empty((bands.n_gaps, bands.n_gaps))
    for idx, (rule, g) in kept.items():
        jac[list(idx)] = gap_jacobian_row(idx, bands, vars, rule, g)
    for rule, idx in groups if not kept else ():
        _with_bumps(lambda i, rule: gap_jacobian_row(i, bands, vars, rule),
                    idx, vars, rule, jac)
    return jac


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


def solve_generation(bands: BandSystem, initial: GapVariables,
                     cfg: SolverConfig | None = None) -> EquilibriumSolution:
    """Drive all gap equations below ``cfg.residual_tol`` in max norm.

    Newton directions come from the analytic Jacobian by :func:`_gmres`;
    steps are shortened first to respect the (-1, 1) clamp and then halved
    until the residual norm decreases.  Raises :class:`NoConvergence` (with
    the best iterate attached) when the iteration budget runs out and
    :class:`SingularJacobian` when the linear solve breaks down.
    """
    cfg = cfg or SolverConfig()
    if initial.lambdas.shape != (bands.n_gaps,):
        raise ValueError("initial variables do not match the band system")
    groups = _rules(bands, cfg, "gap")
    lam = initial.lambdas.copy()
    hi_bound = 1.0 - cfg.step_clamp

    r, kept = _residual_vector(bands, lam, groups, cfg.evaluator)
    initial_abs = np.abs(r)
    norm = initial_abs.max() if r.size else 0.0
    iterations = 0

    def failure(kind, message):
        return kind(message, lambdas=lam, residuals=np.abs(r), iterations=iterations,
                    generation=bands.generation)

    while norm > cfg.residual_tol:
        if iterations >= cfg.max_iterations:
            raise failure(NoConvergence, f"no convergence after {iterations} "
                                         f"iterations (residual {norm:.3e})")
        jac = _jacobian(bands, lam, groups, kept)
        try:
            step = _gmres(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise failure(SingularJacobian,
                          f"singular Jacobian at iteration {iterations}: {exc}") from exc

        # Largest multiple of the Newton step keeping all components inside
        # [-1 + clamp, 1 - clamp]; shrinking the whole step preserves the
        # direction.
        with np.errstate(divide="ignore"):
            room = np.where(step > 0.0, (hi_bound - lam) / step,
                            np.where(step < 0.0, (-hi_bound - lam) / step, np.inf))
        t = min(1.0, float(np.min(room))) if room.size else 1.0

        while t > 2.0 ** -30:
            trial = lam + t * step
            r_trial, kept_trial = _residual_vector(bands, trial, groups,
                                                   cfg.evaluator)
            if np.max(np.abs(r_trial)) <= (1.0 - 1e-4 * t) * norm:
                break
            t *= 0.5
        else:
            raise failure(NoConvergence, f"line search stalled at iteration "
                                         f"{iterations} (residual {norm:.3e})")
        lam, r, kept = trial, r_trial, kept_trial
        norm = float(np.max(np.abs(r)))
        iterations += 1

    vars = GapVariables(bands, lam)
    omegas = np.empty(bands.n_bands)
    for rule, idx in _rules(bands, cfg, "band"):
        omegas[list(idx)] = band_integral(idx, bands, vars, rule)
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


def hierarchical_solve(ifs: IfsSystem, n_max: int, cfg: SolverConfig | None = None,
                       load=None, store=None) -> list[EquilibriumSolution]:
    """Solve generations ``1 .. n_max`` with genealogy warm starts.

    This is the one loop over generations.  ``load(bands)`` may return a
    stored :class:`EquilibriumSolution` of ``bands``, which is used as is
    and warm-starts the next generation; ``store(solution)`` receives each
    newly solved generation.  Solver failures carry the failing generation
    (``generation``) and are re-raised with the solutions of all earlier
    generations (``solutions_so_far``) recorded on the exception.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    cfg = cfg or SolverConfig()
    ifs = validate(ifs)
    solutions: list[EquilibriumSolution] = []
    for n in range(1, n_max + 1):
        bands = generate_bands(ifs, n)
        sol = load(bands) if load else None
        if sol is None:
            try:
                sol = solve_generation(
                    bands, warm_start(bands, solutions[-1] if solutions else None), cfg)
            except SolverError as exc:
                exc.solutions_so_far = solutions
                raise
            if store:
                store(sol)
        solutions.append(sol)
    return solutions
