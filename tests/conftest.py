import math
from contextlib import contextmanager

import numpy as np
import pytest

from equimeasure import analytics, kernel, solver
from equimeasure import (
    BandSystem,
    GapVariables,
    IfsSystem,
    QuadratureRule,
    generate_bands,
    generations,
    hierarchical_solve,
    mean_potential_on_attractor_points,
    potential_at,
    solve_generation,
    validate,
)

TERNARY_PAIRS = [(1.0 / 3.0, -1.0), (1.0 / 3.0, 1.0)]
ASYM_PAIRS = [(4.0 / 5.0, -1.0), (1.0 / 10.0, 1.0)]
THREE_MAP_PAIRS = [(0.3, -1.0), (0.1, 0.0), (0.2, 1.0)]


def log_space_gap_integral(i, vars, rule, keep=None):
    """:func:`~equimeasure.kernel.gap_integral` from the log-space reference
    kernel, one frame at a time and summed as the paired product is, so the
    two differ only by the kernel values.  ``keep`` receives the reduced
    kernels of the paired product, so a solver using it builds the same
    Jacobian rows as with :func:`~equimeasure.kernel.gap_integral`."""
    idx, scalar = kernel._frames(i)
    f = np.array([sign * np.exp(log_mag) for sign, log_mag in (
        kernel.kernel_log_magnitude(rule.nodes, vars, ("gap", k))
        for k in idx.tolist())])
    if keep is not None:
        keep[i if scalar else tuple(idx.tolist())] = (
            rule, kernel._grouped_reduced(rule.nodes, idx, vars))
    values = kernel._weighted_sums(f, rule.weights)
    return float(values[0]) if scalar else values


def nan_in_gap_0(i, vars, rule, keep=None):
    """:func:`~equimeasure.kernel.gap_integral` with gap 0's residual
    replaced by NaN."""
    values = kernel.gap_integral(i, vars, rule, keep)
    values[np.asarray(i) == 0] = np.nan
    return values


def frame_rules(bands, kind):
    """One rule per gap (``kind="gap"``) or band (``"band"``) of ``bands``,
    in frame order, read from :func:`~equimeasure.kernel.rule_groups`."""
    rules = [None] * (bands.n_gaps if kind == "gap" else bands.n_bands)
    for rule, idx in kernel.rule_groups(bands, kind):
        for i in idx:
            rules[i] = rule
    return rules


def density_table(solution, rule):
    """Node positions and weighted densities of every band of the solution,
    arrays of shape ``(n_bands, rule.order)``: the whole-generation node
    table of the plain node sum, with densities from the per-band series."""
    bands = solution.vars.bands
    positions = kernel._from_frame(rule.nodes, bands.alphas[:, None], bands.betas[:, None])
    weighted = analytics._values_at_nodes(solution.vars.band_series, rule.order)
    return positions, weighted * rule.weights


def node_sum_potentials(zs, solution, rule):
    """Oracle of the point path: ``-sum w * log|z - s|`` over the whole node
    table of every band at each point of ``zs``, bumping the order to
    ``K+1`` then ``K+3`` when a real point lies within
    ``analytics.NODE_COLLISION_RTOL`` of a band width from any node, and
    raising :class:`~equimeasure.analytics.PersistentCollision` when all
    three collide."""
    zs = np.asarray(zs).ravel()
    tol = analytics.NODE_COLLISION_RTOL * solution.vars.bands.band_widths[:, None]
    values, todo = np.empty(zs.size), list(range(zs.size))
    for bump in (0, 1, 3):
        positions, weighted = density_table(
            solution, QuadratureRule.chebyshev(rule.order + bump))
        collided = []
        for k in todo:
            z = complex(zs[k])
            if z.imag == 0.0 and np.any(np.abs(z.real - positions) < tol):
                collided.append(k)
                continue
            dist_sq = (z.real - positions) ** 2 + z.imag * z.imag
            values[k] = -0.5 * np.sum(weighted * np.log(dist_sq))
        todo = collided
        if not todo:
            return values
    raise analytics.PersistentCollision(f"point {complex(zs[todo[0]])} collides")


# The numpy.linalg routines that call LAPACK; the package calls none of them.
LAPACK_ROUTINES = ("lstsq", "solve", "qr", "svd", "pinv", "inv", "eig")


def forbid_lapack(monkeypatch):
    """Make each of ``LAPACK_ROUTINES`` raise ``AssertionError`` for the rest
    of the test."""
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} called")
        return call

    for name in LAPACK_ROUTINES:
        monkeypatch.setattr(np.linalg, name, forbidden(name))


def solve_generations(ifs, n_max, residual_tol=1e-12):
    """:func:`~equimeasure.solver.hierarchical_solve` over generations
    ``1..n_max`` of ``ifs``, built in one walk as the CLI builds them."""
    return hierarchical_solve(generations(ifs, n_max)[1:], residual_tol)


def julia_beta(c):
    """The fixed point ``beta > 0`` of ``p(x) = x**2 - c``: ``p(+-beta) = beta``."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * c))


def inverse_images(c, ys):
    """The sorted points ``x`` with ``p(x)`` in ``ys``, by the inverse branches
    ``+-sqrt(c + y)`` of ``p(x) = x**2 - c``."""
    r = np.sqrt(c + np.asarray(ys))
    return np.sort(np.concatenate([-r, r]))


def julia_bands(c, n_max):
    """The band systems ``E_1 .. E_n_max`` of the real Julia set of ``p(x) =
    x**2 - c``, ``c > 2``: ``E_n = p**-n([-beta, beta])``, ``2**n`` bands.

    ``E_n`` keeps the endpoints of ``E_{n-1}`` bitwise and adds ``p**-n(-beta)``,
    the ends of one new gap in each band, so the gaps nest as those of a
    two-map IFS do.  ``p`` sends gap ``g`` onto its preimage: the right half's
    gaps onto ``E_{n-1}``'s in order, the left half's in reverse, and the
    central gap off ``E_0`` (-1).  The measure is the pull-back of the arcsine
    measure of ``E_0``: every band has mass ``2**-n``, the roots are the
    points where ``p**k = 0`` for some ``k < n`` and the potential on ``E_n``
    is ``-2**-n log(beta / 2)`` (Brolin, Ark. Mat. 6, 1965).
    """
    beta = julia_beta(c)
    ends, new = np.array([-beta, beta]), np.array([-beta])
    for n in range(1, n_max + 1):
        new = inverse_images(c, new)
        ends = np.sort(np.concatenate([ends, new]))
        half = 2 ** (n - 1)
        step = np.arange(1, 2 * half, dtype=np.intp)  # g + 1 for every gap g
        right = np.arange(half - 1, dtype=np.intp)
        yield BandSystem(n, ends[0::2].copy(), ends[1::2].copy(),
                         np.where(step % 2 == 0, step // 2 - 1, -1),
                         np.concatenate([right[::-1], [-1], right]).astype(np.intp))


@contextmanager
def log_space_residuals():
    """Within the block the solver sums its gap residuals in log space, the
    paper's guard against over- and underflow."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "gap_integral", log_space_gap_integral)
        yield


@contextmanager
def uniform_rules(order):
    """Within the block every gap and band of the solver takes one shared
    Gauss-Chebyshev rule of ``order`` nodes, the paper's uniform choice."""
    rule = QuadratureRule.chebyshev(order)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "rule_groups", lambda bands, kind: [(rule, tuple(range(
            bands.n_gaps if kind == "gap" else bands.n_bands)))])
        yield


# Fixed on-set evaluation point close to the left hull endpoint, inside the
# leftmost band of every generation up to ~12.
X_STAR = -0.999996236647154


@pytest.fixture(scope="session")
def ternary():
    return validate(IfsSystem.from_pairs(TERNARY_PAIRS))


@pytest.fixture(scope="session")
def asym():
    return validate(IfsSystem.from_pairs(ASYM_PAIRS))


@pytest.fixture(scope="session")
def rule2048():
    return QuadratureRule.chebyshev(2048)


@pytest.fixture(scope="session")
def ternary_run(ternary):
    """Bands and converged solutions for the middle-third system, n=1..7."""
    solutions = solve_generations(ternary, 7, 1e-13)
    bands = [s.vars.bands for s in solutions]
    return bands, solutions


@pytest.fixture(scope="session")
def asym_run(asym):
    """Bands and converged solutions for the 4/5, 1/10 system, n=1..9."""
    solutions = solve_generations(asym, 9, 1e-12)
    bands = [s.vars.bands for s in solutions]
    return bands, solutions


@pytest.fixture(scope="session")
def three_map_run():
    """Bands and converged solutions for the 0.3, 0.1, 0.2 system, n=1..4."""
    solutions = solve_generations(validate(IfsSystem.from_pairs(THREE_MAP_PAIRS)), 4, 1e-12)
    bands = [s.vars.bands for s in solutions]
    return bands, solutions


@pytest.fixture(scope="session")
def julia_runs():
    """Converged solutions of the Julia band systems for c = 3 and 2.2, n=1..10."""
    return {c: hierarchical_solve(julia_bands(c, 10), 1e-12) for c in (3.0, 2.2)}


@pytest.fixture(scope="session")
def julia_near_run():
    """Converged solutions of the Julia band systems for c = 2 + 1e-6, n=1..8,
    whose gaps close to 1.6e-7 of the hull at n = 8."""
    return hierarchical_solve(julia_bands(2.0 + 1e-6, 8), 1e-12)


@pytest.fixture(scope="session")
def trivial_band(ternary):
    """Generation 0: the single band [-1, 1] with the Chebyshev measure."""
    b0 = generate_bands(ternary, 0)
    s0 = solve_generation(GapVariables(b0, np.zeros(0)))
    return b0, s0


@pytest.fixture(scope="session")
def ternary_potentials(ternary_run, rule2048):
    """Plain-node point potentials and accurate mean potentials, n=1..7."""
    bands, solutions = ternary_run
    deepest = bands[-1]
    points, means = [], []
    for b, s in zip(bands, solutions):
        points.append(potential_at(X_STAR, s, b, rule2048, method="nodes"))
        means.append(mean_potential_on_attractor_points(s, b, 4096, rule2048,
                                                        sample_bands=deepest))
    return points, means
