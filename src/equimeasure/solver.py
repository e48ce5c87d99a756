"""Newton solution of the gap-root equations, one band system at a time.

At generation ``n`` the ``N - 1`` normalized gap roots solve the coupled
system ``K_i(lambda_1, ..., lambda_{N-1}) = 0`` where ``K_i`` is the
quadrature value of the signed density integral over gap ``i``.  The
system has a unique solution and is strongly diagonally dominant (remote
gaps barely influence each other), so a damped Newton iteration with the
analytic Jacobian and GMRES converges in a handful of steps.  Steps are
scaled, never projected, so every iterate keeps each root inside its gap.

Gaps (and bands) that share a quadrature rule form a rule group
(:func:`~equimeasure.kernel.rule_groups`), and each group is one batched
kernel call: a residual pass makes one
:func:`~equimeasure.kernel.gap_integral` call per group, the Jacobian one
:func:`~equimeasure.kernel.gap_jacobian_row` call per group from the
reduced kernels the residual pass kept, and the band measures one
:func:`~equimeasure.kernel.band_integral` call per band rule.  Kernel
calls and :func:`solve_generation` read the band system from the roots
(``vars.bands``).

:func:`hierarchical_solve` walks the nested band systems it is given.  The
IFS addresses provide warm starts (Hutchinson, 1981): every gap of
generation ``n`` but those of generation 1 is the image, under its
outermost map, of a gap of generation ``n - 1``, its preimage.  A new gap
starts from its preimage's converged root, and an old gap from its
parent's root moved as its preimage last moved (:func:`warm_start`); both
come from ``BandSystem.parents`` and ``.preimages``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernel
from .geometry import BandSystem
from .kernel import (
    GapVariables,
    band_integral,
    gap_integral,
    gap_jacobian_row,
    rule_groups,
)

MAX_ITERATIONS = 200  # Newton iterations per generation before NoConvergence
# Margin kept between any iterate and the ends of (-1, 1): a root reaching
# its gap boundary would flip the sign of the density and void the equations.
STEP_CLAMP = 1e-9  # in settings(), as every constant here that moves a result
START_RULE = "self-similar"  # warm_start's rule: initial residuals depend on it
_GMRES_RTOL = 1e-14  # relative residual of the Jacobi-scaled Newton system


def settings() -> dict:
    """The settings that a stored solution binds, read at each call: the
    solver's and the kernel's (:func:`~equimeasure.kernel.settings`)."""
    return {"step_clamp": STEP_CLAMP, "start_rule": START_RULE,
            "gmres_rtol": _GMRES_RTOL, **kernel.settings()}


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
    :attr:`generation`; ``omegas`` are the band measures and ``Omegas``
    their running sums, memoised read-only on first use.
    """

    vars: GapVariables
    residuals: np.ndarray
    iterations_used: int
    omegas: np.ndarray
    initial_residuals: np.ndarray = field(repr=False)

    @cached_property
    def Omegas(self) -> np.ndarray:
        Omegas = np.cumsum(self.omegas)
        Omegas.flags.writeable = False
        return Omegas

    @property
    def generation(self) -> int:
        return self.vars.bands.generation

    @property
    def lambdas(self) -> np.ndarray:
        return self.vars.lambdas

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else 0.0


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
    kept, one :func:`gap_jacobian_row` call per block of at most
    ``kernel.BLOCK_ELEMS`` elements of a kept group's rows, so no second
    N x N array is formed."""
    n = vars.bands.n_gaps
    jac = np.empty((n, n))
    per = max(1, kernel.BLOCK_ELEMS // max(n, 1))
    for idx, (rule, g) in kept.items():
        for k in range(0, len(idx), per):
            block = idx[k : k + per]
            jac[list(block)] = gap_jacobian_row(block, vars, rule, g[k : k + per])
    return jac


def jacobian(vars: GapVariables) -> np.ndarray:
    """The dense Jacobian ``d K_i / d lambda_m`` at ``vars``, as the Newton
    loop builds it: the rows from the reduced kernels of one residual pass
    over the gaps' :func:`rule_groups`."""
    return _jacobian(vars, _residual_vector(vars, rule_groups(vars.bands, "gap"))[1])


def _gmres(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``jac @ x = rhs`` by unrestarted GMRES on the Jacobi-scaled system
    (Saad & Schultz, 1986): classical Gram-Schmidt twice, Givens rotations on
    Python floats, every product an ``einsum``, so no BLAS call wakes
    OpenBLAS's threads.  The diagonal dominates, so a dozen steps suffice.
    ``jac`` is scaled in place, so it holds the scaled matrix afterwards, and
    the basis holds only the vectors built.  Raises ``LinAlgError`` for a
    non-finite Jacobian, a zero diagonal entry or no convergence within
    ``N`` steps; the first two leave ``jac`` as it was."""
    n, diag = rhs.size, jac.diagonal().copy()  # a copy: jac is divided by it in place
    # min and max propagate NaN: both are finite exactly when every entry is
    if not (math.isfinite(jac.min()) and math.isfinite(jac.max()) and diag.all()):
        raise np.linalg.LinAlgError("the Jacobian is not finite or has a zero diagonal entry")
    a, b = np.divide(jac, diag[:, None], out=jac), rhs / diag
    beta = math.sqrt(np.einsum("i,i->", b, b))
    v = (b / beta)[None]  # the Krylov basis, one row per vector built
    g, rotations, cols = [beta], [], []
    for k in range(n):
        w, col = np.einsum("ij,j->i", a, v[k]), 0.0
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
            return np.einsum("i,ij->j", np.array(y), v)
        v = np.vstack([v, w / h_next])
    raise np.linalg.LinAlgError(f"GMRES stopped at relative residual {abs(g[-1]) / beta:.1e}")


def solve_generation(initial: GapVariables, residual_tol: float = 1e-12
                     ) -> EquilibriumSolution:
    """Drive all gap equations of ``initial.bands`` below ``residual_tol`` in
    max norm, starting from the roots ``initial``.

    Newton directions come from the analytic Jacobian by :func:`_gmres`;
    steps are shortened first to keep every root ``STEP_CLAMP`` inside
    (-1, 1) and then halved until the residual norm decreases.  Raises
    :class:`NoConvergence` (with the best iterate attached) after
    ``MAX_ITERATIONS`` iterations or at a residual norm that is not finite,
    and :class:`SingularJacobian` when the linear solve breaks down.
    """
    if not 0.0 < residual_tol < math.inf:
        raise ValueError("residual_tol must be positive and finite")
    vars, bands = initial, initial.bands
    groups = rule_groups(bands, "gap")
    hi_bound = 1.0 - STEP_CLAMP

    r, kept = _residual_vector(vars, groups)
    initial_abs = np.abs(r)
    norm = initial_abs.max() if r.size else 0.0
    iterations = 0

    def failure(kind, message):
        return kind(message, lambdas=vars.lambdas, residuals=np.abs(r),
                    iterations=iterations, generation=bands.generation)

    while not norm <= residual_tol:  # a NaN norm included
        if iterations >= MAX_ITERATIONS or not math.isfinite(norm):
            raise failure(NoConvergence, f"no convergence after {iterations} "
                                         f"iterations (residual {norm:.3e})")
        try:  # the Jacobian lives for this step only: _gmres scales it in place
            step = _gmres(_jacobian(vars, kept), -r)
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
    for rule, idx in rule_groups(bands, "band"):
        omegas[list(idx)] = band_integral(idx, vars, rule)
    return EquilibriumSolution(
        vars=vars,
        residuals=np.abs(r),
        iterations_used=iterations,
        omegas=omegas,
        initial_residuals=initial_abs,
    )


def _check_start(bands: BandSystem, sol: EquilibriumSolution, name: str):
    """Raise ``ValueError`` unless ``sol`` is the generation before ``bands``
    of the same system: the genealogy of ``bands`` indexes gaps of ``sol``,
    and every old gap has its parent's endpoints bitwise."""
    n, prior = bands.generation, sol.vars.bands
    old = bands.parents >= 0
    parents = bands.parents[old]
    if (prior.generation != n - 1
            or np.any(np.maximum(bands.parents, bands.preimages) >= prior.n_gaps)
            or not np.array_equal(bands.gap_los[old], prior.gap_los[parents])
            or not np.array_equal(bands.gap_his[old], prior.gap_his[parents])):
        raise ValueError(
            f"{name} must be generation {n - 1} of this system, got generation "
            f"{prior.generation} with {prior.n_bands} bands whose gaps the "
            f"{bands.n_bands} bands of generation {n} do not continue")


def warm_start(bands: BandSystem, previous: EquilibriumSolution | None = None,
               before: EquilibriumSolution | None = None) -> GapVariables:
    """Initial roots for generation ``n`` from the solutions of generations
    ``n - 1`` (``previous``) and ``n - 2`` (``before``).

    Gap ``g``'s parent and preimage (the same gap with its outermost map
    dropped) are gaps ``bands.parents[g]`` and ``bands.preimages[g]`` of
    ``previous``, -1 for none.  A new gap starts at its preimage's root (at
    the midpoint if it has none).  An old gap starts at its parent's root
    plus, given ``before``, its preimage's last move (the preimage's root at
    ``n - 1`` minus its parent's root at ``n - 2``).  Starts are kept
    ``STEP_CLAMP`` inside (-1, 1).  With no previous solution all roots
    start at zero.  Raises ``ValueError`` for a ``previous`` or ``before``
    that is not the generation before of the same system.
    """
    lam = np.zeros(bands.n_gaps)
    if previous is None:
        return GapVariables(bands, lam)
    _check_start(bands, previous, "previous")
    parent, pre = bands.parents, bands.preimages
    new, old = (parent < 0) & (pre >= 0), parent >= 0
    lam[new] = previous.lambdas[pre[new]]
    lam[old] = previous.lambdas[parent[old]]
    if before is not None:
        _check_start(previous.vars.bands, before, "before")
        moved = old & (pre >= 0)
        lam[moved] += (previous.lambdas[pre[moved]]
                       - before.lambdas[previous.vars.bands.parents[pre[moved]]])
    hi = 1.0 - STEP_CLAMP
    return GapVariables(bands, np.clip(lam, -hi, hi))


def hierarchical_solve(band_systems, residual_tol: float = 1e-12, load=None, store=None
                       ) -> list[EquilibriumSolution]:
    """Solve the band systems of ``band_systems`` in order to ``residual_tol``;
    each must refine the one before (else ``ValueError``, loaded or not).

    ``load(bands)`` may return a stored :class:`EquilibriumSolution` of
    ``bands``, used as is.  Only a band system that does not load is started,
    by :func:`warm_start` from the two solutions before it, and solved;
    ``store(solution)`` receives each one solved.  Solver failures carry the
    failing generation (``generation``) and are re-raised with the solutions
    before it (``solutions_so_far``) on them.
    """
    solutions: list[EquilibriumSolution] = []
    for bands in band_systems:
        sol = load(bands) if load else None
        if sol is None:
            try:
                sol = solve_generation(warm_start(bands, *reversed(solutions[-2:])), residual_tol)
            except SolverError as exc:
                exc.solutions_so_far = solutions
                raise
            if store:
                store(sol)
        elif solutions:
            _check_start(bands, solutions[-1], "previous")
        solutions.append(sol)
    return solutions
