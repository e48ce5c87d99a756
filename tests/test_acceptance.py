"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Reference values are the published 6-digit table and fit
parameters for the middle-third system plus the independently published
high-accuracy capacity of its attractor.
"""

import math

import numpy as np
import pytest

from equimeasure.analytics import (
    capacity_estimate,
    fit_exponential,
    integrated_measure_at,
    potential_at,
)
from equimeasure.geometry import generate_bands
from equimeasure.kernel import (
    QuadratureRule,
    band_integral,
    gap_integral,
    gap_jacobian_row,
    kernel_grouped,
    kernel_log_magnitude,
)
from equimeasure.solver import GapVariables, solve_generation, warm_start
from tests.conftest import X_STAR, log_space_residuals

# -- published reference data (middle-third Cantor system) ------------------
# mean potential over 4096 on-set points, K = 2048 nodes
TABLE_MEAN = {1: 0.752051, 5: 0.812210, 6: 0.814392, 7: 0.815509}
# the printed n=3 table row; it repeats the n=4 values (see the xfail below)
TABLE_MEAN_N3 = 0.807941
# independent high-accuracy capacity of the attractor (Ransford-Rostand
# style computation, scaled to the hull [-1, 1])
CANTOR_CAPACITY = 0.441898204379014
# extrapolations published for this method's two evaluation paths
PUBLISHED_CAPACITY_MEAN_PATH = 0.44189726
PUBLISHED_CAPACITY_POINT_PATH = 0.44189238
# exponential-fit parameters published for the point path, n = 4..7
FIT_A, FIT_B, FIT_C = 0.81668890, -0.1278376, 0.66927525

# closed-form interior potential of [-1,-1/3] u [1/3,1]:
# capacity of [-1,-a] u [a,1] is sqrt(1-a^2)/2
TWO_BAND_V = -math.log(math.sqrt(1.0 - (1.0 / 3.0) ** 2) / 2.0)


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_table_means(ternary_potentials):
    _, means = ternary_potentials
    for n, expected in TABLE_MEAN.items():
        assert means[n - 1] == pytest.approx(expected, abs=5e-4), f"n={n}"
    report(1, "mean potentials match the published table for n in {1,5,6,7} "
              "within 5e-4 (K=2048, L=4096)")


@pytest.mark.xfail(
    strict=True,
    reason="the published n=3 row (0.807941) repeats the n=4 values; the "
           "computed generation-3 mean is ~0.79961, consistent with the "
           "geometric trend of the remaining rows and with the stray point "
           "value 0.799586 printed in the n=2 row, so no correct "
           "implementation can land within 2e-3 of the printed row",
)
def test_criterion_1_table_mean_n3(ternary_potentials):
    _, means = ternary_potentials
    assert means[2] == pytest.approx(TABLE_MEAN_N3, abs=2e-3)


def test_criterion_2_capacity_extrapolation(ternary_potentials):
    _, means = ternary_potentials
    a, b, c = fit_exponential([(n, means[n - 1]) for n in range(4, 8)])
    cap = math.exp(-a)
    assert cap == pytest.approx(CANTOR_CAPACITY, abs=5e-5)
    assert cap == pytest.approx(PUBLISHED_CAPACITY_MEAN_PATH, abs=5e-6)
    report(2, f"extrapolated capacity {cap:.8f} is within 5e-5 of the "
              f"reference {CANTOR_CAPACITY} and 5e-6 of the published "
              f"mean-path value {PUBLISHED_CAPACITY_MEAN_PATH}")


def test_criterion_3_two_interval_oracle(ternary_run, rule2048):
    bands, sols = ternary_run
    b, s = bands[0], sols[0]
    v_accurate = potential_at(X_STAR, s, b, rule2048)
    v_nodes = potential_at(X_STAR, s, b, rule2048, method="nodes")
    assert v_accurate == pytest.approx(TWO_BAND_V, abs=5e-4)
    assert v_nodes == pytest.approx(TWO_BAND_V, abs=5e-4)
    report(3, f"generation-1 interior potential {v_accurate:.8f} matches the "
              f"closed form -log(sqrt(2)/3) = {TWO_BAND_V:.8f} within 5e-4")


def test_criterion_4_trivial_interval(trivial_band, rule2048):
    b0, s0 = trivial_band
    assert s0.omegas[0] == 1.0
    for x in np.linspace(-1.0, 1.0, 101):
        expected = 0.5 + math.asin(float(x)) / math.pi
        assert integrated_measure_at(float(x), s0, b0) == pytest.approx(
            expected, abs=1e-9)
    assert potential_at(0.0, s0, b0, rule2048) == pytest.approx(
        math.log(2.0), abs=1e-8)
    report(4, "single band [-1,1]: omega = 1 exactly, arcsine law to 1e-9 "
              "on a 101-point grid, V(0) = log 2 to 1e-8")


def test_criterion_5_residuals_and_dominance(ternary_run, rule2048):
    bands, sols = ternary_run
    b, s = bands[6], sols[6]
    residuals = np.array([abs(gap_integral(i, s.vars, rule2048))
                          for i in range(b.n_gaps)])
    assert residuals.max() < 1e-12
    jac = np.vstack([gap_jacobian_row(i, s.vars, rule2048)
                     for i in range(b.n_gaps)])
    for i in range(b.n_gaps):
        off = np.abs(jac[i]).copy()
        off[i] = 0.0
        assert abs(jac[i, i]) > off.max()
    report(5, f"generation 7: max |K_i| = {residuals.max():.2e} < 1e-12 and "
              "the Jacobian diagonal dominates every row")


def test_criterion_6_jacobian_vs_finite_differences(ternary):
    b = generate_bands(ternary, 4)
    rng = np.random.default_rng(42)
    lam = rng.uniform(-0.2, 0.2, b.n_gaps)
    rule = QuadratureRule.chebyshev(512)
    gv = GapVariables(b, lam)
    jac = np.vstack([gap_jacobian_row(i, gv, rule) for i in range(b.n_gaps)])
    step = 1e-6
    worst = 0.0
    for m in range(b.n_gaps):
        up, dn = lam.copy(), lam.copy()
        up[m] += step
        dn[m] -= step
        r_up = np.array([gap_integral(i, GapVariables(b, up), rule)
                         for i in range(b.n_gaps)])
        r_dn = np.array([gap_integral(i, GapVariables(b, dn), rule)
                         for i in range(b.n_gaps)])
        fd = (r_up - r_dn) / (2.0 * step)
        worst = max(worst, float(np.max(np.abs(jac[:, m] - fd) / np.abs(fd))))
    assert worst < 1e-5
    report(6, f"analytic Jacobian matches central differences to {worst:.2e} "
              "relative over all entries at generation 4")


def test_criterion_7_asymmetric_bounds(asym_run):
    bands, sols = asym_run
    for s in sols:
        assert np.max(np.abs(s.lambdas)) < 0.1, f"generation {s.generation}"
        assert abs(float(np.sum(s.omegas)) - 1.0) < 1e-9, f"generation {s.generation}"
    worst_lam = max(np.max(np.abs(s.lambdas)) for s in sols)
    worst_mass = max(abs(float(np.sum(s.omegas)) - 1.0) for s in sols)
    report(7, f"asymmetric system n<=9: max |lambda| = {worst_lam:.4f} < 0.1 "
              f"and |sum omega - 1| <= {worst_mass:.2e} < 1e-9")


def test_criterion_8_evaluator_equivalence(ternary_run, rule2048):
    bands, sols = ternary_run
    b, s = bands[4], sols[4]
    worst = 0.0
    for i in range(b.n_gaps):
        grouped = kernel_grouped(rule2048.nodes, i, s.vars)
        sign, logmag = kernel_log_magnitude(rule2048.nodes, s.vars, ("gap", i))
        reference = sign * np.exp(logmag)
        worst = max(worst, float(np.max(np.abs(grouped - reference)
                                        / np.abs(reference))))
    assert worst < 1e-12

    init = warm_start(b, sols[3])
    sol_grouped = solve_generation(init, 1e-13)
    with log_space_residuals():
        sol_log = solve_generation(init, 1e-13)
    root_gap = float(np.max(np.abs(sol_grouped.lambdas - sol_log.lambdas)))
    assert root_gap < 1e-10
    report(8, f"grouped and log-space kernels agree to {worst:.2e} on all "
              f"generation-5 nodes; solver roots agree to {root_gap:.2e}")


def test_criterion_9_warm_start_economy(ternary_run):
    bands, sols = ternary_run
    pairs = []
    for n in range(2, 7):
        b = bands[n - 1]
        warm = solve_generation(warm_start(b, sols[n - 2]), 1e-13)
        cold = solve_generation(GapVariables(b, np.zeros(b.n_gaps)), 1e-13)
        assert warm.iterations_used <= cold.iterations_used, f"n={n}"
        pairs.append((warm.iterations_used, cold.iterations_used))
    report(9, "hierarchical warm starts never need more iterations than "
              f"cold starts for n=2..6 (warm, cold) = {pairs}")


def test_criterion_10_fit_round_trip():
    points = [(n, FIT_A + FIT_B * math.exp(-FIT_C * n)) for n in range(4, 8)]
    a, b, c = fit_exponential(points)
    assert abs(a - FIT_A) < 1e-9
    assert abs(b - FIT_B) < 1e-9
    assert abs(c - FIT_C) < 1e-9
    report(10, "exponential fit recovers (a, b, c) = "
               f"({FIT_A}, {FIT_B}, {FIT_C}) to 1e-9 from its own samples")


def test_point_path_capacity_matches_published(ternary_potentials):
    # companion to criterion 2: the plain single-point path reproduces the
    # published coarse extrapolation
    points, _ = ternary_potentials
    a, _, _ = fit_exponential([(n, points[n - 1]) for n in range(4, 8)])
    cap = math.exp(-a)
    assert cap == pytest.approx(PUBLISHED_CAPACITY_POINT_PATH, abs=1e-5)


def test_point_vs_mean_discrepancy_shrinks(ternary_potentials):
    # the single-point node sum drifts from the accurate mean by the
    # quadrature coarseness, which fades from ~2e-4 at n=1 to ~2e-6 at n=7;
    # the fade is not strictly monotone at every step
    points, means = ternary_potentials
    gaps = {n: abs(points[n - 1] - means[n - 1]) for n in (1, 3, 5, 7)}
    assert gaps[1] > gaps[3] > gaps[7]
    assert gaps[5] > gaps[7]
    assert gaps[1] == pytest.approx(2e-4, abs=1e-4)
    assert gaps[7] < 1e-5
