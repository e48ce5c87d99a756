from contextlib import contextmanager

import numpy as np
import pytest

from equimeasure import kernel, solver
from equimeasure import (
    GapVariables,
    IfsSystem,
    QuadratureRule,
    generate_bands,
    hierarchical_solve,
    mean_potential_on_attractor_points,
    potential_at,
    solve_generation,
    validate,
)

TERNARY_PAIRS = [(1.0 / 3.0, -1.0), (1.0 / 3.0, 1.0)]
ASYM_PAIRS = [(4.0 / 5.0, -1.0), (1.0 / 10.0, 1.0)]


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
        m.setattr(solver, "refined_rules", lambda bands, kind: [rule] * (
            bands.n_gaps if kind == "gap" else bands.n_bands))
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
    solutions = hierarchical_solve(ternary, 7, 1e-13)
    bands = [s.vars.bands for s in solutions]
    return bands, solutions


@pytest.fixture(scope="session")
def asym_run(asym):
    """Bands and converged solutions for the 4/5, 1/10 system, n=1..9."""
    solutions = hierarchical_solve(asym, 9, 1e-12)
    bands = [s.vars.bands for s in solutions]
    return bands, solutions


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
