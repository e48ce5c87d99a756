import math

import mpmath
import numpy as np
import pytest

from equimeasure.analytics import (
    CapacityEstimate,
    NonMonotoneInput,
    OutOfHull,
    PotentialSample,
    _clausen2,
    capacity_estimate,
    energy,
    fit_exponential,
    integrated_measure_at,
    mean_potential_on_attractor_points,
    potential_at,
    sample_points,
)
from equimeasure.geometry import generate_bands
from equimeasure.kernel import QuadratureRule
from tests.conftest import X_STAR

TWO_BAND_POTENTIAL = -math.log(math.sqrt(2.0) / 3.0)  # interior potential of
# [-1,-1/3] u [1/3,1]: the capacity of symmetric two-interval sets
# [-1,-a] u [a,1] is sqrt(1-a^2)/2


class TestClausen:
    @pytest.mark.parametrize("t", [0.0, 1e-8, 0.1, 0.5, math.pi / 2, 1.7, 2.9, math.pi])
    def test_against_mpmath(self, t):
        assert _clausen2(t) == pytest.approx(float(mpmath.clsin(2, t)), abs=5e-15)

    def test_catalan_value(self):
        assert _clausen2(math.pi / 2) == pytest.approx(0.9159655941772190, abs=1e-15)

    def test_vectorized(self):
        t = np.array([0.0, 0.3, 2.0])
        got = _clausen2(t)
        assert got.shape == (3,)
        assert got[0] == 0.0


class TestIntegratedMeasure:
    def test_arcsine_law_single_band(self, trivial_band):
        b0, s0 = trivial_band
        for x in np.linspace(-1.0, 1.0, 101):
            expected = 0.5 + math.asin(float(x)) / math.pi
            assert integrated_measure_at(float(x), s0, b0) == pytest.approx(
                expected, abs=1e-9)

    def test_total_mass_at_right_endpoint(self, ternary_run):
        bands, sols = ternary_run
        for b, s in zip(bands[:4], sols[:4]):
            assert integrated_measure_at(1.0, s, b) == pytest.approx(1.0, abs=1e-9)

    def test_gap_plateaus(self, ternary_run):
        bands, sols = ternary_run
        b, s = bands[0], sols[0]
        assert integrated_measure_at(0.0, s, b) == pytest.approx(0.5, abs=1e-12)
        # constant across the whole gap
        values = [integrated_measure_at(x, s, b) for x in (-0.3, -0.1, 0.2, 0.33)]
        assert max(values) - min(values) == 0.0

    def test_continuity_at_band_boundaries(self, ternary_run):
        bands, sols = ternary_run
        b, s = bands[2], sols[2]
        for i in range(b.n_bands):
            left = integrated_measure_at(float(b.alphas[i]), s, b)
            right = integrated_measure_at(float(b.betas[i]), s, b)
            expect_left = float(s.Omegas[i - 1]) if i else 0.0
            assert left == pytest.approx(expect_left, abs=1e-9)
            assert right == pytest.approx(float(s.Omegas[i]), abs=1e-9)

    def test_staircase_monotone(self, ternary_run):
        bands, sols = ternary_run
        b, s = bands[1], sols[1]
        grid = np.linspace(-1, 1, 101)
        values = [integrated_measure_at(float(x), s, b) for x in grid]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))

    def test_out_of_hull(self, ternary_run):
        bands, sols = ternary_run
        with pytest.raises(OutOfHull):
            integrated_measure_at(1.5, sols[0], bands[0])


class TestPotential:
    def test_single_band_log2_at_origin(self, trivial_band, rule2048):
        b0, s0 = trivial_band
        assert potential_at(0.0, s0, b0, rule2048) == pytest.approx(
            math.log(2.0), abs=1e-8)

    def test_single_band_constant_on_set(self, trivial_band, rule2048):
        b0, s0 = trivial_band
        for x in (-0.99, -0.5, 0.25, 0.9):
            assert potential_at(x, s0, b0, rule2048) == pytest.approx(
                math.log(2.0), abs=1e-8)

    def test_two_band_closed_form(self, ternary_run, rule2048):
        bands, sols = ternary_run
        b, s = bands[0], sols[0]
        # accurate on-set path against the closed form
        for z in (X_STAR, -0.7, 0.5, 0.999):
            assert potential_at(z, s, b, rule2048) == pytest.approx(
                TWO_BAND_POTENTIAL, abs=1e-9)
        # plain node path carries the O(1/K) on-set coarseness
        v_nodes = potential_at(X_STAR, s, b, rule2048, method="nodes")
        assert v_nodes == pytest.approx(TWO_BAND_POTENTIAL, abs=5e-4)
        assert abs(v_nodes - TWO_BAND_POTENTIAL) > 1e-5

    def test_band_endpoints_closed_form(self, ternary_run, rule2048):
        # at theta_z = 0 or pi the mirrored log term is singular as well
        bands, sols = ternary_run
        b, s = bands[0], sols[0]
        ends = [b.alphas[0], b.betas[0], b.alphas[1], b.betas[1]]
        for z in [float(e) for e in ends] + [-1.0 + 1e-8]:
            assert potential_at(z, s, b, rule2048) == pytest.approx(
                TWO_BAND_POTENTIAL, abs=1e-9), z

    def test_complex_conjugate_symmetry(self, ternary_run, rule2048):
        bands, sols = ternary_run
        b, s = bands[1], sols[1]
        z = 0.4 + 0.3j
        assert potential_at(z, s, b, rule2048) == potential_at(
            np.conj(z), s, b, rule2048)

    def test_gap_value_converges_geometrically(self, ternary_run, rule2048):
        bands, sols = ternary_run
        values = [potential_at(0.0, s, b, rule2048)
                  for b, s in zip(bands[:6], sols[:6])]
        diffs = [abs(v2 - v1) for v1, v2 in zip(values, values[1:])]
        assert all(d2 < 0.7 * d1 for d1, d2 in zip(diffs, diffs[1:]))

    def test_node_collision_retry(self, ternary_run):
        bands, sols = ternary_run
        b, s = bands[0], sols[0]
        rule = QuadratureRule.chebyshev(64)
        # place z exactly on a quadrature node image inside band 1
        lo, hi = b.alphas[1], b.betas[1]
        z = float(0.5 * (rule.nodes[10] * (hi - lo) + (hi + lo)))
        v = potential_at(z, s, b, rule, method="nodes")
        assert np.isfinite(v)
        assert v == pytest.approx(TWO_BAND_POTENTIAL, abs=5e-3)

    def test_unknown_method(self, trivial_band, rule2048):
        b0, s0 = trivial_band
        with pytest.raises(ValueError):
            potential_at(0.0, s0, b0, rule2048, method="best")


class TestSamples:
    def test_deterministic_and_on_set(self, ternary_run):
        bands, _ = ternary_run
        deepest = bands[-1]
        pts = sample_points(deepest, 4096)
        assert pts.shape == (4096,)
        assert np.array_equal(pts, sample_points(deepest, 4096))
        inside = [
            np.any((deepest.alphas <= x) & (x <= deepest.betas)) for x in pts[:64]
        ]
        assert all(inside)

    def test_uneven_split(self, ternary_run):
        bands, _ = ternary_run
        pts = sample_points(bands[1], 9)  # 4 bands, 9 points
        assert pts.shape == (9,)

    def test_too_few_points(self, ternary_run):
        bands, _ = ternary_run
        with pytest.raises(ValueError):
            sample_points(bands[2], 3)


class TestMeanPotential:
    def test_matches_constant_on_trivial_band(self, trivial_band, rule2048):
        b0, s0 = trivial_band
        mean = mean_potential_on_attractor_points(s0, b0, 64, rule2048)
        assert mean == pytest.approx(math.log(2.0), abs=1e-9)

    def test_spread_is_tiny(self, ternary_run, rule2048):
        # the potential is constant on the bands: sampled values agree with
        # their mean far below the coarse single-point gauge
        bands, sols = ternary_run
        b, s = bands[2], sols[2]
        pts = sample_points(bands[-1], 128)
        values = np.array([potential_at(float(z), s, b, rule2048) for z in pts])
        assert values.std() < 1e-8


class TestFitExponential:
    def test_roundtrip_published_parameters(self):
        a, b, c = 0.81668890, -0.1278376, 0.66927525
        pts = [(n, a + b * math.exp(-c * n)) for n in range(4, 8)]
        fa, fb, fc = fit_exponential(pts)
        assert abs(fa - a) < 1e-9 and abs(fb - b) < 1e-9 and abs(fc - c) < 1e-9

    def test_three_point_closed_form_geometric(self):
        pts = [(n, 1.0 + 2.0**-n) for n in (1, 2, 3)]
        a, b, c = fit_exponential(pts)
        assert a == pytest.approx(1.0, abs=1e-12)
        assert c == pytest.approx(math.log(2.0), abs=1e-12)
        assert b == pytest.approx(1.0, abs=1e-12)

    def test_constant_sequence_rejected(self):
        with pytest.raises(NonMonotoneInput):
            fit_exponential([(1, 5.0), (2, 5.0), (3, 5.0)])

    def test_sign_change_rejected(self):
        with pytest.raises(NonMonotoneInput):
            fit_exponential([(1, 0.0), (2, 1.0), (3, 0.5)])

    def test_growth_rejected(self):
        with pytest.raises(NonMonotoneInput):
            fit_exponential([(1, 1.0), (2, 2.0), (3, 4.0)])

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_exponential([(1, 1.0), (2, 0.5)])

    def test_duplicate_n_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential([(1, 1.0), (1, 0.9), (2, 0.5)])


class TestCapacityEstimate:
    def test_trivial_constant_capacity_is_half(self, trivial_band, rule2048):
        b0, s0 = trivial_band
        est = capacity_estimate([s0] * 4, [b0] * 4, rule2048, sample_count=32)
        assert est.extrapolated_capacity == pytest.approx(0.5, abs=1e-9)
        assert est.fit[2] > 0
        assert isinstance(est, CapacityEstimate)

    def test_requires_four_generations(self, ternary_run, rule2048):
        bands, sols = ternary_run
        with pytest.raises(ValueError):
            capacity_estimate(sols[:3], bands[:3], rule2048)

    def test_point_mode_needs_point(self, ternary_run, rule2048):
        bands, sols = ternary_run
        with pytest.raises(ValueError):
            capacity_estimate(sols[:4], bands[:4], rule2048, mode="point")


def test_potential_sample_record():
    s = PotentialSample(point=0.5 + 0j, generation=3, value=0.81)
    assert s.generation == 3 and s.value == 0.81


def test_energy_equals_constant_potential(trivial_band, ternary_run):
    rule = QuadratureRule.chebyshev(96)
    b0, s0 = trivial_band
    assert energy(s0, b0, rule) == pytest.approx(math.log(2.0), abs=1e-8)
    bands, sols = ternary_run
    assert energy(sols[0], bands[0], rule) == pytest.approx(
        TWO_BAND_POTENTIAL, abs=1e-6)
