import dataclasses
import gc
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from equimeasure import analytics
from equimeasure import kernel
from equimeasure.analytics import (
    CapacityEstimate,
    NonMonotoneInput,
    OutOfHull,
    PersistentCollision,
    _potentials,
    _band_shares,
    _least_squares,
    _Stack,
    _theta_of,
    _values_at_nodes,
    capacity_estimate,
    fit_exponential,
    integrated_measure_at,
    mean_potential_on_attractor_points,
    potential_at,
    sample_points,
)
from equimeasure.geometry import GenerationTooLarge, IfsSystem, generate_bands, validate
from equimeasure.kernel import (
    GapVariables,
    SERIES_OVERSAMPLING,
    QuadratureRule,
    _chebyshev_series,
    _from_frame,
    kernel_band,
    restore_band_series,
    series_width,
)
from tests.conftest import (TERNARY_PAIRS, THREE_MAP_PAIRS, X_STAR, density_table,
                            forbid_lapack, frame_rules, node_sum_potentials,
                            solve_generations)

TWO_BAND_POTENTIAL = -math.log(math.sqrt(2.0) / 3.0)  # interior potential of
# [-1,-1/3] u [1/3,1]: the capacity of symmetric two-interval sets
# [-1,-a] u [a,1] is sqrt(1-a^2)/2


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

    @pytest.mark.parametrize("run,gen", [("ternary_run", 3), ("asym_run", 4)])
    def test_matches_angular_quadrature(self, request, run, gen):
        # inside band i the partial measure is (1/pi) int_{theta_x}^pi F
        # dtheta; a 64-node Gauss-Legendre rule on [theta_x, pi] is an
        # independent route to it
        bands, sols = request.getfixturevalue(run)
        b, s = bands[gen - 1], sols[gen - 1]
        nodes, weights = leggauss(64)
        for i in (0, b.n_bands // 2, b.n_bands - 1):
            lo, hi = float(b.alphas[i]), float(b.betas[i])
            below = float(s.Omegas[i - 1]) if i else 0.0
            for t in (0.01, 0.3, 0.5, 0.77, 0.99):
                x = lo + t * (hi - lo)
                theta = float(_theta_of(x, lo, hi))
                half = 0.5 * (math.pi - theta)
                f = kernel_band(np.cos(theta + half * (nodes + 1.0)), i, s.vars)
                want = below + half * float(weights @ f) / math.pi
                assert integrated_measure_at(x, s, b) == pytest.approx(want, abs=1e-14), (i, t)

    def test_out_of_hull(self, ternary_run):
        bands, sols = ternary_run
        with pytest.raises(OutOfHull):
            integrated_measure_at(1.5, sols[0], bands[0])

    @pytest.mark.parametrize("run,depth", [("ternary_run", 4), ("asym_run", 3)])
    def test_exactly_non_decreasing_at_band_ends(self, request, run, depth):
        # a band's c_0 and its measure omega differ at roundoff, so the
        # closed form alone can step down from a band's right end into the
        # next gap; each band's values stay between its two plateaus
        bands, sols = request.getfixturevalue(run)
        for b, s in zip(bands[:depth], sols[:depth]):
            ends = np.concatenate([b.alphas, b.betas])
            xs = np.sort(np.concatenate([ends, np.nextafter(ends, -np.inf),
                                         np.nextafter(ends, np.inf)]))
            xs = xs[(b.hull.lo <= xs) & (xs <= b.hull.hi)]
            omega = integrated_measure_at(xs, s, b)
            assert np.min(np.diff(omega)) >= 0.0, (b.generation, np.min(np.diff(omega)))
            host = analytics._hosts(b, xs)
            on = host >= 0
            below = np.where(host > 0, s.Omegas[host - 1], 0.0)
            assert np.all(omega[on] >= below[on])
            assert np.all(omega[on] <= below[on] + s.omegas[host[on]])


class TestPotential:
    def test_single_band_log2_at_origin(self, trivial_band, rule2048):
        b0, s0 = trivial_band
        assert potential_at(0.0, s0, b0, rule2048) == pytest.approx(
            math.log(2.0), abs=1e-14)

    @pytest.mark.parametrize("z", [0.3 + 0.2j, -0.7 + 1e-12j, 0.5 - 1e-8j, 1.5j,
                                   1.0 + 1e-10j, -2.0 + 0j, -1.0 - 1e-10, 1.0 + 1e-13,
                                   3.0, 1e3 + 1e3j])
    def test_single_band_closed_form_off_the_set(self, trivial_band, rule2048, z):
        # the arcsine measure of [-1, 1] has V(z) = log 2 - Re arccosh(z)
        b0, s0 = trivial_band
        want = math.log(2.0) - float(np.arccosh(complex(z)).real)
        assert potential_at(z, s0, b0, rule2048) == pytest.approx(want, abs=1e-14)

    def test_single_band_constant_on_set(self, trivial_band, rule2048):
        # the singular term's moment is the constant 2 pi log 2 for every
        # point of the band, its ends included
        b0, s0 = trivial_band
        for x in (-1.0, -(1.0 - 1e-12), -0.99, -0.5, 0.0, 0.25, 0.9, 1.0 - 1e-12, 1.0):
            assert potential_at(x, s0, b0, rule2048) == pytest.approx(
                math.log(2.0), abs=1e-14), x

    def test_two_band_closed_form(self, ternary_run, rule2048):
        bands, sols = ternary_run
        b, s = bands[0], sols[0]
        # accurate on-set path against the closed form
        for z in (X_STAR, -0.7, 0.5, 0.999):
            assert potential_at(z, s, b, rule2048) == pytest.approx(
                TWO_BAND_POTENTIAL, abs=1e-14)
        # plain node path carries the O(1/K) on-set coarseness
        v_nodes = potential_at(X_STAR, s, b, rule2048, method="nodes")
        assert v_nodes == pytest.approx(TWO_BAND_POTENTIAL, abs=5e-4)
        assert abs(v_nodes - TWO_BAND_POTENTIAL) > 1e-5

    def test_band_endpoints_closed_form(self, ternary_run, rule2048):
        bands, sols = ternary_run
        b, s = bands[0], sols[0]
        ends = [b.alphas[0], b.betas[0], b.alphas[1], b.betas[1]]
        for z in [float(e) for e in ends] + [-1.0 + 1e-8, math.nextafter(ends[2], 1.0)]:
            assert potential_at(z, s, b, rule2048) == pytest.approx(
                TWO_BAND_POTENTIAL, abs=1e-14), z

    @pytest.mark.parametrize("y", [1e-12, 1e-8])
    def test_complex_point_next_to_a_band(self, ternary_run, rule2048, y):
        # V(x + iy) = V_c - g, and the Green's function g grows like
        # pi * density(x) * y, below 2y at x = -0.7 on generation 1
        bands, sols = ternary_run
        v = potential_at(-0.7 + 1j * y, sols[0], bands[0], rule2048)
        assert 0.0 < TWO_BAND_POTENTIAL - v <= 2.0 * y

    def test_far_points_match_the_node_sum(self, asym_run, rule2048):
        # far from every band the plain node sum converges geometrically;
        # on either side of the hull the series must not lose digits
        bands, sols = asym_run
        for b, s in zip(bands[:5], sols[:5]):
            for z in (-4.0, -1.5, 1.5, 4.0, 0.2 + 2.0j):
                nodes = potential_at(z, s, b, rule2048, method="nodes")
                assert potential_at(z, s, b, rule2048) == pytest.approx(
                    nodes, abs=1e-14), (b.generation, z)

    @pytest.mark.parametrize("z", [1e307, 1e308, -1.7e308, 1e308j, 1.7e308 + 1.7e308j])
    @pytest.mark.parametrize("method", ["auto", "nodes"])
    def test_huge_points_give_minus_log_z(self, ternary_run, rule2048, z, method):
        # every band's frame coordinate leaves the float range, where the
        # unit measure's potential is -log|z| to roundoff (|z| itself may
        # exceed the largest float)
        bands, sols = ternary_run
        v = potential_at(z, sols[-1], bands[-1], rule2048, method=method)
        assert v == pytest.approx(-math.log(abs(z / 2)) - math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("d", [0.0, 1e-16, 1e-13, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2])
    def test_just_outside_a_band_matches_green_function(self, ternary_run, rule2048, d):
        # off the set V = V_c - g, with g the Green's function; g(x) is the
        # integral of |Z|/sqrt|Y| from the nearest band end e, taken with
        # s = e +- u**2 so that the end's inverse square root cancels; d = 0
        # stands for one ulp
        bands, sols = ternary_run
        b, s = bands[0], sols[0]
        ends = [(float(b.betas[0]), 1.0), (float(b.alphas[1]), -1.0),
                (float(b.betas[1]), 1.0), (float(b.alphas[0]), -1.0)]
        for end, side in ends:
            x = end + side * max(d, math.ulp(end))
            assert potential_at(x, s, b, rule2048) == pytest.approx(
                TWO_BAND_POTENTIAL - _green(x, end, b, s), abs=1e-12), x

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

    @pytest.mark.parametrize("order", [7, 64])
    def test_collision_check_matches_the_full_scan(self, asym_run, order, monkeypatch):
        # only the bands the rule cannot resolve are scanned; a point's order
        # is bumped exactly when a scan over every node finds a collision
        bands, sols = asym_run
        b, s = bands[3], sols[3]
        rule = QuadratureRule.chebyshev(order)
        positions, _ = density_table(s, rule)
        tol = analytics.NODE_COLLISION_RTOL * b.band_widths[:, None]
        points = [b.alphas, b.betas, 0.5 * (b.gap_los + b.gap_his), [-1.5, 1.5, -1e3]]
        for factor in (0.0, 0.5, 0.999, 1.001, 2.0):
            points += [(positions + factor * tol).ravel(), (positions - factor * tol).ravel()]

        def marking(coeffs, attempt_order):
            # the densities of a bumped order are NaN, so a bumped point reads NaN
            values = _values_at_nodes(coeffs, attempt_order)
            return values if attempt_order == order else np.full_like(values, np.nan)

        monkeypatch.setattr(analytics, "_values_at_nodes", marking)
        xs = np.concatenate(points)
        bumped = np.isnan(potential_at(xs, s, b, rule, method="nodes"))
        for x, got in zip(xs.tolist(), bumped.tolist()):
            assert got == bool(np.any(np.abs(x - positions).min(axis=1) < tol[:, 0])), x
        assert set(bumped.tolist()) == {True, False}

    def test_unknown_method(self, trivial_band, rule2048):
        b0, s0 = trivial_band
        with pytest.raises(ValueError):
            potential_at(0.0, s0, b0, rule2048, method="best")

    def test_point_path_needs_a_rule(self, ternary_run, monkeypatch):
        # without a rule both calls gave the series value: 0.80794 on ternary
        # n = 4 at -0.99, where 64 nodes give 0.80682.  They evaluate nothing
        sols = ternary_run[1][:4]
        s = sols[-1]
        monkeypatch.setattr(analytics, "_potentials", lambda *a: pytest.fail("evaluated"))
        with pytest.raises(ValueError, match="needs a quadrature rule"):
            potential_at(-0.99, s, s.vars.bands, None, method="nodes")
        with pytest.raises(ValueError, match="needs a quadrature rule"):
            capacity_estimate(sols, None, point=-0.99)

    @pytest.mark.parametrize("method", ["auto", "nodes"])
    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_arrays_give_empty_results(self, ternary_run, rule2048, method, shape):
        s = ternary_run[1][2]
        got = potential_at(np.zeros(shape), s, s.vars.bands, rule2048, method=method)
        assert got.shape == shape and got.dtype == np.float64


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


class TestSpectralSeries:
    def test_on_set_spread(self, ternary_run, asym_run):
        # V is constant on the bands: sampled values and every band end
        # agree to roundoff (ternary) or to the solve tolerance (asym)
        for (bands, sols), depth, bound in ((ternary_run, 7, 1e-13), (asym_run, 9, 2e-11)):
            pts = sample_points(bands[depth - 1], 1024)
            for b, s in zip(bands[:depth], sols[:depth]):
                xs = np.concatenate([pts, b.alphas, b.betas])
                v = _potentials(xs, [s])[0]
                assert v.max() - v.min() <= bound, (b.generation, v.max() - v.min())

    def test_doubling_the_order_moves_no_mean(self, asym_run, monkeypatch):
        bands, sols = asym_run
        pts = sample_points(bands[-1], 1024)
        base = [np.mean(_potentials(pts, [s])[0]) for s in sols]
        monkeypatch.setattr(kernel, "SERIES_OVERSAMPLING", 2 * kernel.SERIES_OVERSAMPLING)
        for b, s, v in zip(bands, sols, base):
            fine = _fresh(s)
            assert fine.vars.band_series.shape[1] == 2 * s.vars.band_series.shape[1]
            finer = np.mean(_potentials(pts, [fine])[0])
            assert abs(finer - v) <= 1e-14, (b.generation, finer - v)

    def test_leading_coefficient_is_the_band_measure(self, asym_run):
        bands, sols = asym_run
        for b, s in zip(bands[:6], sols[:6]):
            assert np.max(np.abs(s.vars.band_series[:, 0] - s.omegas)) <= 1e-15


class TestOwnBands:
    # the analytics read the band system from the solution; a caller's
    # ``bands`` with other endpoints would pair the solution's series with
    # the wrong bands and give a wrong number, so it is refused
    def test_another_systems_bands_are_refused(self, ternary_run, asym_run, rule2048):
        s, other = ternary_run[1][2], asym_run[0][2]
        assert other.n_bands == s.vars.bands.n_bands
        assert potential_at(-0.999, s, s.vars.bands, rule2048) == pytest.approx(
            0.79961, abs=1e-5)
        assert integrated_measure_at(-0.5, s, s.vars.bands) == pytest.approx(
            0.35936, abs=1e-5)
        with pytest.raises(ValueError, match="own band system"):
            potential_at(-0.999, s, other, rule2048)
        with pytest.raises(ValueError, match="own band system"):
            integrated_measure_at(-0.5, s, other)
        with pytest.raises(ValueError, match="own band system"):
            mean_potential_on_attractor_points(s, other, 64, rule2048)

    def test_equal_bands_generated_again_are_accepted(self, ternary, ternary_run,
                                                      rule2048):
        s = ternary_run[1][2]
        again = generate_bands(ternary, 3)
        assert again is not s.vars.bands
        assert potential_at(-0.999, s, again, rule2048) == potential_at(
            -0.999, s, s.vars.bands, rule2048)
        assert integrated_measure_at(-0.5, s, again) == integrated_measure_at(
            -0.5, s, s.vars.bands)
        assert mean_potential_on_attractor_points(s, again, 64, rule2048) == (
            mean_potential_on_attractor_points(s, s.vars.bands, 64, rule2048))


def _must_not_build(vars):
    raise AssertionError("band series built")


def _fresh(solution):
    """The solution on new roots of the same values: no series built yet."""
    return dataclasses.replace(solution, vars=GapVariables(solution.vars.bands,
                                                           solution.lambdas))


class TestDensityTableMemo:
    def test_second_call_builds_no_table(self, ternary_run, rule2048, monkeypatch):
        # the coefficients take one kernel call per series length, for all
        # bands of that length; after that no potential or integrated
        # measure evaluates the kernel again
        bands, sols = ternary_run
        b, s = bands[2], _fresh(sols[2])
        calls = []

        def counting(*args):
            calls.append((len(args[0]), list(args[1])))
            return kernel_band(*args)

        monkeypatch.setattr(kernel, "kernel_band", counting)
        first = potential_at(0.0, s, b, rule2048)
        lengths = SERIES_OVERSAMPLING * np.array([rule.order for rule in frame_rules(b, "band")])
        assert sorted(m for m, _ in calls) == sorted(set(lengths.tolist()))
        assert sorted(i for _, rows in calls for i in rows) == list(range(b.n_bands))
        assert all((lengths[rows] == m).all() for m, rows in calls)
        calls.clear()
        assert potential_at(0.0, s, b, rule2048) == first
        potential_at(X_STAR, s, b, rule2048)
        potential_at(0.4 + 0.3j, s, b, rule2048)
        potential_at(X_STAR, s, b, rule2048, method="nodes")
        potential_at(X_STAR, s, b, QuadratureRule.chebyshev(64), method="nodes")
        mean_potential_on_attractor_points(s, b, 64, rule2048)
        for x in (-1.0, X_STAR, 0.0, 0.5, 1.0):
            integrated_measure_at(x, s, b)
        assert calls == []

    def test_read_only_and_one_entry_per_order(self, ternary_run, rule2048):
        bands, sols = ternary_run
        b, s = bands[1], _fresh(sols[1])
        assert not s.vars.band_series.flags.writeable
        with pytest.raises(ValueError):
            s.vars.band_series[0, 0] = 0.0
        coarse = density_table(s, QuadratureRule.chebyshev(64))
        assert coarse[0].shape == coarse[1].shape == (b.n_bands, 64)

    def test_table_sits_on_the_solutions_own_bands(self, ternary_run, asym_run):
        # a call passing another system's bands of the same count is refused
        # and leaves no node table on those bands for later calls to read
        rule = QuadratureRule.chebyshev(64)
        s, other = ternary_run[1][2], asym_run[0][2]
        assert other.n_bands == s.vars.bands.n_bands
        fresh = _fresh(s)
        want = potential_at(-0.999, fresh, s.vars.bands, rule, method="nodes")
        assert want == pytest.approx(0.79846, abs=1e-5)
        s = _fresh(s)
        with pytest.raises(ValueError):
            potential_at(-0.999, s, other, rule, method="nodes")
        assert potential_at(-0.999, s, s.vars.bands, rule, method="nodes") == want

    def test_point_path_refuses_graded_rules(self, ternary_run, monkeypatch):
        # the table holds densities at Chebyshev nodes: with a graded rule's
        # positions and weights, ternary n = 3 at z = 0 gave 0.41539790,
        # where Chebyshev-64 and the series give 0.41539755.  The capacity
        # estimate refuses one before it evaluates either gauge
        bands, sols = ternary_run
        b, s = bands[2], _fresh(sols[2])
        graded = QuadratureRule.graded((2, 2))
        assert graded.order == 64
        with pytest.raises(ValueError, match="Gauss-Chebyshev"):
            potential_at(0.0, s, b, graded, method="nodes")
        with monkeypatch.context() as m:
            m.setattr(analytics, "_potentials", lambda *a: pytest.fail("evaluated"))
            with pytest.raises(ValueError, match="Gauss-Chebyshev"):
                capacity_estimate([s, *sols[3:6]], graded, point=0.0)
        cheb = potential_at(0.0, s, b, QuadratureRule.chebyshev(64), method="nodes")
        assert cheb == pytest.approx(0.41539755, abs=1e-8)
        assert potential_at(0.0, s, b, graded) == pytest.approx(cheb, abs=1e-8)

    def test_rows_do_not_depend_on_the_other_rows(self, ternary_run, rule2048):
        # one stacked product over every row gives each row's own call bit for bit
        bands, sols = ternary_run
        b, s = bands[-1], sols[-1]
        coeffs = _Stack.of([s]).coeffs
        values = _values_at_nodes(coeffs, rule2048.order)
        for r in range(b.n_bands):
            own = _values_at_nodes(coeffs[r : r + 1], rule2048.order)
            assert np.array_equal(own[0], values[r]), r

    @pytest.mark.parametrize("order", [1, 5, 8, 63, 64, 65, 67, 2048])
    def test_table_densities_match_the_kernel(self, asym_run, order):
        # orders below the series length take every m-th node of an odd
        # multiple m of the order
        bands, sols = asym_run
        b, s = bands[3], _fresh(sols[3])
        rule = QuadratureRule.chebyshev(order)
        _, weighted = density_table(s, rule)
        want = np.array([rule.weights * kernel_band(rule.nodes, i, s.vars)
                         for i in range(b.n_bands)])
        assert np.max(np.abs(weighted - want) / want) <= 1e-13

    def test_series_is_memoised_on_the_roots(self, ternary_run, monkeypatch):
        vars = ternary_run[1][2].vars
        series = vars.band_series
        assert vars.band_series is series
        assert not series.flags.writeable
        with pytest.raises(ValueError):
            series[0, 0] = 0.0
        assert np.array_equal(series, _chebyshev_series(vars))
        built = []
        monkeypatch.setattr(kernel, "_chebyshev_series",
                            lambda v: built.append(v) or _chebyshev_series(v))
        fresh = GapVariables(vars.bands, vars.lambdas)
        assert fresh.band_series is not series
        assert np.array_equal(fresh.band_series, series)
        assert len(built) == 1 and built[0] is fresh

    def test_a_restored_series_is_the_built_one(self, asym_run, monkeypatch):
        # coefficients stored as float64 bytes seed the memo bit for bit,
        # read-only, with no kernel evaluated; what does not fit is refused
        vars = asym_run[1][3].vars
        stored = np.frombuffer(vars.band_series.tobytes()).reshape(vars.band_series.shape)
        monkeypatch.setattr(kernel, "_chebyshev_series", _must_not_build)
        fresh = GapVariables(vars.bands, vars.lambdas)
        assert restore_band_series(fresh, stored)
        assert fresh.band_series.tobytes() == vars.band_series.tobytes()
        assert not fresh.band_series.flags.writeable
        nan = stored.copy()
        nan[0, 1] = math.nan
        for bad in (stored[:-1], stored[:, :-1], np.hstack([stored, stored[:, :1]]),
                    stored.ravel(), nan, stored.astype(np.float32), stored.astype(complex)):
            refused = GapVariables(vars.bands, vars.lambdas)
            assert not restore_band_series(refused, bad)
            with pytest.raises(AssertionError, match="built"):
                refused.band_series
        # the shape follows SERIES_OVERSAMPLING at each call
        monkeypatch.setattr(kernel, "SERIES_OVERSAMPLING", 2 * kernel.SERIES_OVERSAMPLING)
        assert not restore_band_series(GapVariables(vars.bands, vars.lambdas), stored)

    def test_point_path_retains_no_tables(self, ternary_run, rule2048):
        # the point path's node rows, positions and weighted densities,
        # live for one call
        sols = [_fresh(s) for s in ternary_run[1]]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, est = capacity_estimate(sols, rule2048, 256, X_STAR)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert est.extrapolated_capacity == pytest.approx(0.44189238, abs=1e-5)
        assert retained < 2 << 20, retained

    def test_array_builds_each_bumped_table_once(self, ternary_run, monkeypatch):
        # at order 2047 the first band's midpoint is a node of generation
        # 5's table, so the order is bumped to 2048 for that point alone
        bands, sols = ternary_run
        b, s = bands[4], sols[4]
        rule = QuadratureRule.chebyshev(2047)
        mid = float(0.5 * (b.alphas[0] + b.betas[0]))
        pts = np.array([X_STAR, mid, 0.0, mid, 1.5, float(b.betas[3])])
        want = [potential_at(p, s, b, rule, method="nodes") for p in pts.tolist()]
        built = []

        def counting(coeffs, order):
            built.append(order)
            return _values_at_nodes(coeffs, order)

        monkeypatch.setattr(analytics, "_values_at_nodes", counting)
        assert potential_at(pts, s, b, rule, method="nodes").tolist() == want
        assert built == [2047, 2048]


def _point_path_probes(b):
    """X_STAR, every band's midpoint, both ends of the first and last bands,
    every gap's midpoint, a point 1e-9 outside the first band's right end
    and the last band's left end, and -1.7 and 1.7."""
    return np.concatenate([
        [X_STAR], 0.5 * (b.alphas + b.betas), b.alphas[[0, -1]], b.betas[[0, -1]],
        0.5 * (b.gap_los + b.gap_his), [b.betas[0] + 1e-9, b.alphas[-1] - 1e-9, -1.7, 1.7]])


def _or_collision(f, *args):
    """``f(*args)``, or ``None`` if it raises :class:`PersistentCollision`."""
    try:
        return f(*args)
    except PersistentCollision:
        return None


class TestPointPath:
    # the point path sums nodes only on the bands its rule cannot resolve;
    # the whole-table node sum is its oracle.  The largest gap, 8.5e-13, is
    # 1e-9 outside asym n = 7's last band (2e-7 wide), where the table's node
    # positions, rounded next to 1, move its log; no input here collides at
    # all three orders on either path
    @pytest.mark.parametrize("order", [7, 64, 2047, 2048])
    @pytest.mark.parametrize("run,depth", [("ternary_run", 7), ("asym_run", 7),
                                           ("three_map_run", 4)])
    def test_matches_the_whole_table(self, request, run, depth, order):
        rule = QuadratureRule.chebyshev(order)
        bands, sols = request.getfixturevalue(run)
        for b, s in zip(bands[:depth], sols[:depth]):
            for pts in (_point_path_probes(b), np.array([0.3 + 0.2j])):
                want = _or_collision(node_sum_potentials, pts, s, rule)
                got = _or_collision(potential_at, pts, s, b, rule, "nodes")
                assert (got is None) == (want is None), (b.generation, pts)
                if want is not None:
                    assert np.max(np.abs(got - want)) <= 1e-12, (b.generation, got - want)

    def test_peak_memory(self, ternary_run, rule2048, monkeypatch):
        # the whole-generation tables peaked at 8.0 MB over n <= 7; the
        # first call builds the series and the shared node cosines.  The
        # peak is the point gauge's, from its pass on: the mean gauge's
        # blocks of 64 points by 254 bands come before it
        sols = ternary_run[1]
        want = capacity_estimate(sols, rule2048, 256, X_STAR)
        potentials = analytics._potentials

        def point_gauge_peak(zs, solutions, rule=None):
            if rule is not None:
                tracemalloc.reset_peak()
            return potentials(zs, solutions, rule)

        monkeypatch.setattr(analytics, "_potentials", point_gauge_peak)
        gc.collect()
        tracemalloc.start()
        try:
            est = capacity_estimate(sols, rule2048, 256, X_STAR)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est == want
        assert peak < 1 << 20, peak

    def test_peak_memory_of_both_gauges(self, ternary_run, rule2048):
        # the mean gauge's blocks of 64 points by 254 bands set the peak:
        # measured 1.05 MB with each block's arrays built in place, against
        # 1.62 MB with one array per operation
        sols = ternary_run[1]
        want = capacity_estimate(sols, rule2048, 256, X_STAR)
        gc.collect()
        tracemalloc.start()
        try:
            est = capacity_estimate(sols, rule2048, 256, X_STAR)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est == want
        assert peak < 1.25 * (1 << 20), peak

    def test_peak_memory_at_a_large_order(self, ternary_run):
        # the node cosines are built a block at a time and kept by no call:
        # measured 4.8 MB, where a memoised table of 32 x 2**16 cosines alone
        # held 16.8 MB and its first call peaked at 21 MB
        s = ternary_run[1][3]
        s.vars.band_series
        gc.collect()
        tracemalloc.start()
        try:
            potential_at(X_STAR, s, s.vars.bands, QuadratureRule.chebyshev(2**16),
                         method="nodes")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20, peak

    def test_peak_memory_of_many_points(self, ternary_run, rule2048):
        # the points take blocks of BLOCK_ELEMS // (bands) on the point path
        # too: 20 000 points on ternary n = 7 peaked at 164 MB with
        # (points x bands) arrays built whole, and at 2.0 MB in blocks
        s = ternary_run[1][6]
        s.vars.band_series
        xs = np.linspace(-1.2, 1.2, 20000)
        gc.collect()
        tracemalloc.start()
        try:
            potential_at(xs, s, s.vars.bands, rule2048, method="nodes")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak

    @pytest.mark.parametrize("run", ["ternary_run", "asym_run"])
    def test_real_points_take_the_complex_values(self, request, run):
        bands, sols = request.getfixturevalue(run)
        pts = sample_points(bands[6], 512)
        for b, s in zip(bands[:7], sols[:7]):
            ends = np.concatenate([b.alphas, b.betas])
            xs = np.concatenate([pts, np.linspace(-1.2, 1.2, 301), ends,
                                 np.nextafter(ends, -2.0), np.nextafter(ends, 2.0)])
            assert np.isrealobj(xs)
            real = _potentials(xs, [s])[0]
            complex_ = _potentials(xs + 0j, [s])[0]
            assert np.max(np.abs(real - complex_)) <= 1e-15, b.generation


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
def test_both_paths_are_scale_covariant(ternary_run, rule2048, scale):
    # the system scaled by s carries the measure scaled by s, whose potential
    # at s z is V(z) - log s; the point path takes no squared distance, which
    # would leave the double range here (worst 3.7e-13, the mean at 1e300)
    ternary = validate(IfsSystem.from_pairs([(d, g * scale) for d, g in TERNARY_PAIRS]))
    scaled, unit = solve_generations(ternary, 4, 1e-13), ternary_run[1][:4]
    pts, shift = np.array([X_STAR, 0.0, 0.5, 0.3 + 0.2j, -2.0, 1e3j]), math.log(scale)
    for a, b in zip(unit, scaled):
        for method in ("auto", "nodes"):
            want = potential_at(pts, a, a.vars.bands, rule2048, method)
            got = potential_at(pts * scale, b, b.vars.bands, rule2048, method) + shift
            assert np.max(np.abs(got - want)) <= 1e-12, (a.generation, method)
        want = mean_potential_on_attractor_points(a, a.vars.bands, 256, rule2048,
                                                  unit[-1].vars.bands)
        got = mean_potential_on_attractor_points(b, b.vars.bands, 256, rule2048,
                                                 scaled[-1].vars.bands)
        assert abs(got + shift - want) <= 1e-12, a.generation


def _sample_points_per_band(bands, count):
    """Reference: the per-band loop that ``sample_points`` replaces."""
    base, extra = divmod(count, bands.n_bands)
    chunks = []
    for i in range(bands.n_bands):
        c = base + (1 if i < extra else 0)
        k = np.arange(1, c + 1)
        nodes = np.cos((2 * k - 1) * np.pi / (2 * c))
        chunks.append(_from_frame(nodes, bands.alphas[i], bands.betas[i]))
    return np.concatenate(chunks)


def _integrated_measure_per_point(x, solution, bands):
    """Reference: the one-point closed form with its coefficient dot product."""
    i = int(np.searchsorted(bands.alphas, x, side="right")) - 1
    if i < 0 or x > bands.betas[i]:
        g = int(np.searchsorted(bands.gap_los, x, side="right")) - 1
        return float(solution.Omegas[g])
    below = float(solution.Omegas[i - 1]) if i > 0 else 0.0
    theta = float(_theta_of(x, bands.alphas[i], bands.betas[i]))
    c = solution.vars.band_series[i]
    j = np.arange(1, c.size)
    return below + (c[0] * (math.pi - theta) - float((c[1:] / j) @ np.sin(j * theta))) / math.pi


def _probe_points(bands):
    """A real grid over and beyond the hull, every band end and the points
    one ulp to either side of it."""
    ends = np.concatenate([bands.alphas, bands.betas])
    return np.concatenate([np.linspace(-1.2, 1.2, 301), ends,
                           np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])


@pytest.mark.parametrize("run,depth", [("ternary_run", 5), ("asym_run", 4)])
class TestWholeArrays:
    # an array call gives what one call per point gives, bit for bit for
    # the potential; scalars still come back as float
    def test_potential_matches_per_point_calls(self, request, rule2048, run, depth):
        bands, sols = request.getfixturevalue(run)
        for b, s in zip(bands[:depth], sols[:depth]):
            xs = _probe_points(b)
            zs = np.concatenate([xs[::7] + 1e-9j, xs[::11] - 0.3j, [0.4 + 0.3j, 2j, -0.5]])
            for pts in (xs, zs):
                want = np.array([potential_at(p, s, b, rule2048) for p in pts.tolist()])
                assert np.array_equal(potential_at(pts, s, b, rule2048), want), b.generation

    def test_node_potential_matches_per_point_calls(self, request, run, depth):
        bands, sols = request.getfixturevalue(run)
        b, s = bands[depth - 1], sols[depth - 1]
        rule = QuadratureRule.chebyshev(64)
        pts = np.array([-1.5, X_STAR, 0.0, float(b.betas[0]), 0.2 + 2.0j])
        want = [potential_at(p, s, b, rule, method="nodes") for p in pts.tolist()]
        assert potential_at(pts, s, b, rule, method="nodes").tolist() == want

    def test_blocks_do_not_move_values(self, request, rule2048, run, depth, monkeypatch):
        bands, sols = request.getfixturevalue(run)
        b, s = bands[depth - 1], sols[depth - 1]
        xs = _probe_points(b)
        whole = potential_at(xs, s, b, rule2048)
        monkeypatch.setattr(kernel, "BLOCK_ELEMS", 3 * b.n_bands)
        assert np.array_equal(potential_at(xs, s, b, rule2048), whole)

    def test_integrated_measure_matches_per_point_reference(self, request, run, depth):
        bands, sols = request.getfixturevalue(run)
        for b, s in zip(bands[:depth], sols[:depth]):
            xs = np.sort(_probe_points(b))
            xs = xs[(xs >= b.hull.lo) & (xs <= b.hull.hi)]
            got = integrated_measure_at(xs, s, b)
            want = np.array([_integrated_measure_per_point(x, s, b) for x in xs.tolist()])
            assert np.max(np.abs(got - want)) <= 2.2e-16, b.generation
            assert np.array_equal(got, [integrated_measure_at(x, s, b) for x in xs.tolist()])
            # non-decreasing: each band's values are clamped to the plateaus
            # on either side of it
            assert np.min(np.diff(got)) >= 0.0, b.generation

    def test_scalars_give_floats(self, request, rule2048, run, depth):
        bands, sols = request.getfixturevalue(run)
        b, s = bands[depth - 1], sols[depth - 1]
        for x in (0.5, np.float64(X_STAR), 0.3 + 0.1j, -2.0 + 0j, 3):
            assert type(potential_at(x, s, b, rule2048)) is float
        assert type(potential_at(X_STAR, s, b, rule2048, method="nodes")) is float
        for x in (-1.0, np.float64(0.0), 1):
            assert type(integrated_measure_at(x, s, b)) is float
        with pytest.raises(OutOfHull):
            integrated_measure_at(np.array([0.0, 1.5]), s, b)


class TestNearTouching:
    # Gaps 4e-7 of the hull: at n = 1 the bands are [-1, -a] and [a, 1] with
    # a = 2e-7, and each band series has M = 28 464 coefficients, more than
    # kernel.BLOCK_ELEMS, so the on-band sums split their coefficients.  The
    # bands are the preimage of [a**2, 1] under x**2, so the potential on them
    # is -log(sqrt(1 - a**2) / 2).
    @pytest.fixture(scope="class")
    def near(self):
        ifs = validate(IfsSystem.from_pairs([[0.4999999, -1.0], [0.4999999, 1.0]]))
        (solution,) = solve_generations(ifs, 1)
        assert solution.vars.band_series.shape[1] > kernel.BLOCK_ELEMS
        return solution

    def test_on_set_potential_is_the_closed_form(self, near, rule2048):
        b = near.vars.bands
        a = float(b.alphas[1])
        want = -math.log(0.5 * math.sqrt(1.0 - a * a))
        # measured: 5.6e-16 for the mean and 3.9e-15 at the inner band ends
        mean = mean_potential_on_attractor_points(near, b, 256, rule2048)
        assert abs(mean - want) <= 1e-15
        grid = np.concatenate([np.linspace(-1.0, -a, 201), np.linspace(a, 1.0, 201)])
        assert np.max(np.abs(potential_at(grid, near, b, rule2048) - want)) <= 5e-15

    def test_mean_path_is_one_pass(self, near, rule2048, monkeypatch):
        # point blocks are sized by the band count, not by the series length
        calls, original = [], analytics._band_shares

        def counting(z, stack, host):
            calls.append(z.size)
            return original(z, stack, host)

        monkeypatch.setattr(analytics, "_band_shares", counting)
        mean_potential_on_attractor_points(near, near.vars.bands, 256, rule2048)
        assert calls == [256]

    def test_array_calls_match_per_point_calls(self, near, rule2048):
        b = near.vars.bands
        xs = np.array([-1.0, -0.7, -0.3, 1e-7, float(b.betas[0]), 0.0,
                       float(b.alphas[1]), 1e-6, 0.5, 0.999, 1.0])
        for pts in (xs, np.concatenate([xs, [1.5, 0.3 + 1e-3j, -2j]])):
            got = potential_at(pts, near, b, rule2048)
            want = np.array([potential_at(p, near, b, rule2048) for p in pts.tolist()])
            np.testing.assert_array_max_ulp(got, want, maxulp=1)
        got = integrated_measure_at(xs, near, b)
        want = np.array([integrated_measure_at(x, near, b) for x in xs.tolist()])
        np.testing.assert_array_max_ulp(got, want, maxulp=1)


@pytest.mark.parametrize("count", [129, 250, 256, 4096])
def test_sample_points_match_the_per_band_loop(ternary_run, asym_run, count):
    for bands in (ternary_run[0][6], asym_run[0][6]):
        assert np.array_equal(sample_points(bands, count),
                              _sample_points_per_band(bands, count))


def _green(x, end, bands, solution):
    """Green's function at ``x`` off the set, integrated from band end ``end``."""
    ends = np.concatenate([bands.alphas, bands.betas])
    others = np.delete(ends, np.argmin(np.abs(ends - end)))
    zetas = solution.vars.zetas
    side = 1.0 if x > end else -1.0

    def integrand(u):
        s = end + side * u * u
        return 2.0 * np.prod(np.abs(s - zetas)) / math.sqrt(np.prod(np.abs(s - others)))

    value, _ = quad(integrand, 0.0, math.sqrt(abs(x - end)), epsabs=1e-15, epsrel=1e-13)
    return value


_PANEL_NODES, _PANEL_WEIGHTS = leggauss(128)


def _panel(a, b):
    mid, half = 0.5 * (b + a), 0.5 * (b - a)
    return mid + half * _PANEL_NODES, half * _PANEL_WEIGHTS


def _reference_singular(z, b, solution, bands):
    """The on-band term of one point by singularity subtraction on Legendre
    panels split at the point (oracle; good to a few 1e-10)."""
    lo, hi = bands.alphas[b], bands.betas[b]
    theta_z = _theta_of(float(z), lo, hi)
    c = math.cos(theta_z)
    pieces = [(a, bb) for a, bb in ((0.0, theta_z), (theta_z, math.pi)) if bb - a > 1e-300]
    thetas = np.concatenate([_panel(a, bb)[0] for a, bb in pieces])
    wts = np.concatenate([_panel(a, bb)[1] for a, bb in pieces])
    f_nodes = kernel_band(np.cos(thetas), b, solution.vars)
    f_z = float(kernel_band(np.array([c]), b, solution.vars)[0])
    log2 = math.log(2.0)
    i_const = (math.log(2.0 / (hi - lo)) - log2) * float(wts @ f_nodes)
    i_plus = float(
        wts @ ((f_nodes - f_z) * (-np.log(np.abs(np.sin(0.5 * (thetas + theta_z))))))
    )
    i_minus = float(
        wts @ ((f_nodes - f_z) * (-np.log(np.abs(np.sin(0.5 * (thetas - theta_z))))))
    )
    return (i_const + i_plus + i_minus + f_z * (2.0 * math.pi * log2)) / math.pi


def _reference_potentials(pts, solution, bands, rule):
    """Potentials at on-set points: plain node sums of a fresh table over the
    other bands, the panel term over the host band (oracle)."""
    positions = np.array([_from_frame(rule.nodes, lo, hi)
                          for lo, hi in zip(bands.alphas, bands.betas)])
    weighted = np.array([rule.weights * kernel_band(rule.nodes, i, solution.vars)
                         for i in range(bands.n_bands)])
    hosts = np.searchsorted(bands.alphas, pts, side="right") - 1
    values = []
    for z, b in zip(pts, hosts):
        shares = -np.sum(weighted * np.log(np.maximum(np.abs(z - positions), 1e-300)), axis=1)
        shares[b] = _reference_singular(z, int(b), solution, bands)
        values.append(float(np.sum(shares)))
    return np.array(values)


class TestPanelOracle:
    # the panels converge only algebraically at the split point: per point
    # they are off by up to 9.5e-10 (asym n=1), in the mean by up to 1.9e-10
    @pytest.mark.parametrize("run,depth", [("ternary_run", 5), ("asym_run", 4)])
    def test_matches_per_point_reference(self, request, rule2048, run, depth):
        bands, sols = request.getfixturevalue(run)
        pts = sample_points(bands[depth - 1], 250)
        for b, s in zip(bands[:depth], sols[:depth]):
            lo, hi = b.alphas[[0, -1]], b.betas[[0, -1]]
            xs = np.concatenate([pts, lo, hi])
            want = _reference_potentials(xs, s, b, rule2048)
            got = _potentials(xs, [s])[0]
            assert np.max(np.abs(got - want)) <= 2e-9, (b.generation, got - want)
            mean = mean_potential_on_attractor_points(s, b, 250, rule2048,
                                                      sample_bands=bands[depth - 1])
            assert abs(mean - np.mean(want[:pts.size])) <= 5e-10


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
        # three distinct n, but the closed form needs them equally spaced
        with pytest.raises(ValueError, match="equally spaced"):
            fit_exponential([(1, 1.0), (2, 0.5), (4, 0.3)])


def lstsq_fit(points):
    """:func:`fit_exponential` with each Gauss-Newton step solved by
    ``numpy.linalg.lstsq``, its SVD least-squares driver: the reference of
    the Givens step."""
    def lstsq(a):
        a = np.array(a)
        return np.linalg.lstsq(a[:, :3], a[:, 3], rcond=None)[0].tolist()

    with pytest.MonkeyPatch.context() as m:
        m.setattr(analytics, "_least_squares", lstsq)
        return fit_exponential(points)


def decaying_samples(rng, count):
    """``count`` equally spaced samples from n = 4 of ``a + b exp(-c n)``,
    each with relative noise 1e-3 on its decaying part, for random ``0.5 <=
    |a| <= 1``, ``1e-3 <= |b| <= 1`` and ``0.1 <= c <= 2``."""
    a = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0)
    b = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 0.0)
    ns = np.arange(4, 4 + count)
    ys = a + b * np.exp(-rng.uniform(0.1, 2.0) * ns) * (1.0 + 1e-3 * rng.standard_normal(count))
    return list(zip(ns.tolist(), ys.tolist()))


class TestGivensStep:
    # fit_exponential solves each Gauss-Newton step by Givens rotations on
    # Python floats; numpy.linalg.lstsq (SVD) is the reference
    def test_fits_match_the_lstsq_steps(self):
        # over 8000 such fits (4 seeds) the largest difference was 2.4e-14
        # relative, none at three points (the closed form takes no step);
        # on the published parameters one ulp of b and c
        rng = np.random.default_rng(2024)
        cases = [decaying_samples(rng, count) for count in range(3, 9) for _ in range(50)]
        cases.append([(n, 0.81668890 - 0.1278376 * math.exp(-0.66927525 * n))
                      for n in range(4, 8)])
        for pts in cases:
            want, got = lstsq_fit(pts), fit_exponential(pts)
            assert max(abs(g - w) / abs(w) for g, w in zip(got, want)) <= 1e-13, pts
            if len(pts) == 3:
                assert got == want

    @pytest.mark.parametrize("b", [1e-1, 1e-4, 1e-8, 1e-12, 1e-16, 1e-300, 0.0])
    def test_a_vanishing_third_column_gives_a_finite_step(self, b):
        # the third Jacobian column, -b n exp(-c n), vanishes as b -> 0: its
        # pivot is then taken as zero, and the step keeps the least residual
        ns = np.arange(4.0, 8.0)
        e = np.exp(-0.7 * ns)
        rows = np.column_stack([np.ones_like(ns), e, -b * ns * e])
        rhs = np.array([3e-3, -1e-3, 2e-4, 5e-4])
        step = np.array(_least_squares(np.column_stack([rows, rhs]).tolist()))
        want = np.linalg.lstsq(rows, rhs, rcond=None)[0]
        assert np.all(np.isfinite(step))
        residual, least = (np.linalg.norm(rows @ x - rhs) for x in (step, want))
        assert residual <= least * (1.0 + 1e-12)
        if b == 0.0:
            assert step[2] == 0.0
            assert np.max(np.abs(step - want)) <= 1e-12 * np.max(np.abs(want))

    def test_fits_call_no_lapack(self, monkeypatch):
        rng = np.random.default_rng(5)
        cases = [decaying_samples(rng, count) for count in range(3, 9)]
        want = [fit_exponential(pts) for pts in cases]
        forbid_lapack(monkeypatch)
        assert [fit_exponential(pts) for pts in cases] == want


def expression_band_shares(z, stack, host):
    """:func:`~equimeasure.analytics._band_shares` with every (points x
    bands) array a new expression's result: the reference of the arrays
    built in place."""
    alphas, betas, coeffs = stack.alphas, stack.betas, stack.coeffs
    width = betas - alphas
    d = coeffs[:, 1:] / np.arange(1, coeffs.shape[1])
    on, g = np.nonzero(host >= 0)
    b = host[on, g]
    with np.errstate(over="ignore", invalid="ignore"):
        wm1 = 2.0 * (z[:, None] - betas) / width
        wp1 = 2.0 * (z[:, None] - alphas) / width
        w = 0.5 * (wm1 + wp1)
        if np.isrealobj(z):
            s = w + np.copysign(np.sqrt(np.abs(wm1)) * np.sqrt(np.abs(wp1)), w)
        else:
            r = np.sqrt(wm1 + 0j) * np.sqrt(wp1 + 0j)
            s = np.where(np.abs(w + r) >= np.abs(w - r), w + r, w - r)
        s[on, b] = 1.0
        log_s = np.log(np.abs(s))
        rho = 1.0 / s
    rho[on, b] = 0.0
    if not np.isfinite(log_s.sum()):
        far = np.nonzero(~np.isfinite(log_s))
        half = 0.5 * (z[far[0]] - 0.5 * (alphas + betas)[far[1]])
        log_s[far] = np.log(np.abs(half)) + np.log(8.0 / width[far[1]])
        rho[far] = 0.125 * width[far[1]] / half
    shares = coeffs[:, 0] * (np.log(2.0 / width) + (math.log(2.0) - log_s))
    shares += analytics._horner(rho, d).real
    theta = _theta_of(z[on].real, alphas[b], betas[b])
    j = np.arange(1, d.shape[1] + 1)
    shares[on, b] += np.sum(np.cos(np.outer(theta, j)) * d[b], axis=1)
    return shares, log_s


class TestBandSharesInPlace:
    # each block's arrays are built in place by the ufuncs of the expressions,
    # so every share and log|s| keeps its bits
    @pytest.mark.parametrize("run,depth", [("ternary_run", 7), ("asym_run", 7),
                                           ("three_map_run", 4)])
    def test_bitwise_the_expressions(self, request, run, depth):
        bands, sols = request.getfixturevalue(run)
        stack = _Stack.of(sols[:depth])
        rng = np.random.default_rng(depth)
        real = np.concatenate([sample_points(bands[depth - 1], 256), rng.uniform(-1.5, 1.5, 200),
                               stack.alphas, stack.betas, [1e307, -1e307, 1.7e308, -1.7e308]])
        other = np.concatenate([rng.uniform(-1.5, 1.5, 40) + 1j * rng.uniform(-1.0, 1.0, 40),
                                [1e308j, 1.7e308 + 1.7e308j, -1e307 + 1e-3j, 0.3 + 0.2j]])
        for z in (real, np.concatenate([real + 0j, other])):
            host = stack.hosts(z)
            got, want = _band_shares(z, stack, host), expression_band_shares(z, stack, host)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_node_values_and_fits_do_not_depend_on_the_blas_thread_count():
    # one table of every cosine moved the values of a random 3 x 2475 series
    # at order 2051 between one and two threads; tables of at most
    # BLOCK_ELEMS cosines do not.  A 4-point fit takes Gauss-Newton steps
    src = str(Path(analytics.__file__).resolve().parents[1])
    script = (
        "import sys, numpy as np\n"
        "from equimeasure.analytics import _values_at_nodes, fit_exponential\n"
        "c = np.random.default_rng(0).standard_normal((3, 2475))\n"
        "fit = fit_exponential([(4, 0.8077), (5, 0.81221), (6, 0.814392), (7, 0.815509)])\n"
        "sys.stdout.buffer.write(_values_at_nodes(c, 2051).tobytes() + np.array(fit).tobytes())\n")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert len(outputs[0]) == 8 * (3 * 2051 + 3)
    assert outputs[0] == outputs[1]


class TestCapacityEstimate:
    def test_trivial_constant_capacity_is_half(self, trivial_band, rule2048):
        _, s0 = trivial_band
        mean, point = capacity_estimate([s0] * 4, rule2048, sample_count=32)
        assert mean.extrapolated_capacity == pytest.approx(0.5, abs=1e-9)
        # the K-node sum at 0 is ((K - 1) log 2 - log|T_K(0)|) / K, and |T_2048(0)| = 1
        assert point.extrapolated_capacity == pytest.approx(0.5 * 2.0 ** (1 / 2048), abs=1e-12)
        for est in (mean, point):
            assert est.fit[2] > 0
            assert isinstance(est, CapacityEstimate)

    def test_requires_four_generations(self, ternary_run, rule2048):
        _, sols = ternary_run
        with pytest.raises(ValueError):
            capacity_estimate(sols[:3], rule2048)

    def test_default_point_is_the_middle_of_the_deepest_first_band(self, ternary_run,
                                                                     rule2048):
        sols = ternary_run[1][:4]
        b = sols[-1].vars.bands
        mid = float(0.5 * (b.alphas[0] + b.betas[0]))
        mean, point = capacity_estimate(sols, rule2048, 64)
        assert (mean, point) == capacity_estimate(sols, rule2048, 64, mid)
        assert point.per_generation == tuple(
            (s.generation, potential_at(mid, s, s.vars.bands, rule2048, method="nodes"))
            for s in sols)

    @pytest.mark.parametrize("point", [0.0, 5.0])
    def test_a_point_off_the_deepest_bands_is_refused(self, ternary_run, rule2048,
                                                      monkeypatch, point):
        # off the bands the potential is not the set's: its node sums in the
        # middle gap give capacity 0.659 against 0.4419 on ternary n <= 4, and
        # off the hull they do not decay.  Neither point is evaluated
        sols = ternary_run[1][:4]
        monkeypatch.setattr(analytics, "_potentials", lambda *a: pytest.fail("evaluated"))
        with pytest.raises(OutOfHull, match="lies on no band of generation 4"):
            capacity_estimate(sols, rule2048, 64, point)

    def test_a_failed_mean_fit_raises_the_fits_error(self, ternary_run, rule2048,
                                                     monkeypatch):
        # the error the fit raised, message and all; the point gauge is not read
        sols = ternary_run[1][:4]
        error = NonMonotoneInput("difference ratio 1.5 is not a decay")
        potentials, fits = analytics._potentials, []

        def fails(points):
            fits.append(points)
            raise error

        monkeypatch.setattr(analytics, "fit_exponential", fails)
        monkeypatch.setattr(analytics, "_potentials", lambda zs, sols, rule=None: (
            pytest.fail("point gauge evaluated") if rule is not None else potentials(zs, sols)))
        with pytest.raises(NonMonotoneInput) as info:
            capacity_estimate(sols, rule2048, 64)
        assert info.value is error and len(fits) == 1
        assert not hasattr(error, "per_generation")


class TestStackedGenerations:
    # capacity_estimate evaluates every generation in one pass; each value is
    # its own generation's call to the bit

    @pytest.fixture(scope="class")
    def runs(self, ternary_run, asym_run):
        three = solve_generations(validate(IfsSystem.from_pairs(THREE_MAP_PAIRS)), 5, 1e-12)
        near = solve_generations(
            validate(IfsSystem.from_pairs([[0.4999999, -1.0], [0.4999999, 1.0]])), 4)
        assert near[-1].vars.band_series.shape[1] > kernel.BLOCK_ELEMS
        return {"ternary": ternary_run[1], "asym": asym_run[1][:8], "three": three,
                "near": near}

    @pytest.mark.parametrize("system", ["ternary", "asym", "three", "near"])
    def test_capacity_matches_per_generation_calls(self, runs, rule2048, system):
        sols = runs[system]
        deepest = sols[-1].vars.bands
        point = float(0.5 * (deepest.alphas[0] + deepest.betas[0]))
        assert len({s.vars.band_series.shape[1] for s in sols}) == 1  # one stack
        mean, nodes = capacity_estimate(sols, rule2048, 256, point)
        assert mean.per_generation == tuple(
            (s.generation, mean_potential_on_attractor_points(
                s, s.vars.bands, 256, rule2048, sample_bands=deepest)) for s in sols)
        assert nodes.per_generation == tuple(
            (s.generation, potential_at(point, s, s.vars.bands, rule2048, method="nodes"))
            for s in sols)

    def test_a_failed_point_fit_leaves_its_values(self, runs, rule2048):
        # the CI nearcap config: 2048 nodes per band cannot resolve gaps 4e-7
        # of the hull, so the point gauge's potentials do not decay and its fit
        # fails; its values stand, and the mean gauge finds the capacity 1/2
        # of [-1, 1], which the attractor nearly fills
        sols = runs["near"]
        b = sols[-1].vars.bands
        mid = float(0.5 * (b.alphas[0] + b.betas[0]))
        with pytest.raises(NonMonotoneInput):
            fit_exponential([(s.generation, potential_at(mid, s, s.vars.bands, rule2048,
                                                         method="nodes")) for s in sols])
        mean, point = capacity_estimate(sols, rule2048, 256)
        assert point.per_generation == tuple(
            (s.generation, potential_at(mid, s, s.vars.bands, rule2048, method="nodes"))
            for s in sols)
        assert all(math.isnan(v) for v in (*point.fit, point.extrapolated_capacity))
        assert mean.extrapolated_capacity == pytest.approx(0.5, abs=1e-9)

    def test_bumps_the_same_generations_as_per_generation_calls(self, ternary_run,
                                                                monkeypatch):
        # the CI node config: at order 2047 the middle of generation 5's first
        # band is a node of that generation's table, and of no other's
        sols = ternary_run[1][:5]
        rule = QuadratureRule.chebyshev(2047)
        b = sols[-1].vars.bands
        point = float(0.5 * (b.alphas[0] + b.betas[0]))
        seen = []

        def counting(coeffs, order):
            # a row belongs to the generation whose series holds it
            seen.extend((order, s.generation) for s in sols for row in coeffs
                        if (s.vars.band_series == row).all(axis=1).any())
            return _values_at_nodes(coeffs, order)

        monkeypatch.setattr(analytics, "_values_at_nodes", counting)
        want = [potential_at(point, s, s.vars.bands, rule, method="nodes") for s in sols]
        per_call = sorted(set(seen))
        seen.clear()
        got = capacity_estimate(sols, rule, 256, point)[1].per_generation
        assert sorted(set(seen)) == per_call
        assert (2048, 5) in per_call and not any(g < 5 for o, g in per_call if o != 2047)
        assert [v for _, v in got] == want

    @pytest.mark.parametrize("pairs", [TERNARY_PAIRS, [(0.8, -1.0), (0.1, 1.0)],
                                       THREE_MAP_PAIRS, [(0.9, -1.0), (0.001, 1.0)],
                                       [(0.4999999, -1.0), (0.4999999, 1.0)]])
    def test_a_run_has_one_series_width(self, pairs):
        # every generation of an affine IFS has the same longest series, so
        # the stack of a run's generations pads no row: the bench and CI
        # systems for n <= 8, where the width floor allows
        ifs, widths = validate(IfsSystem.from_pairs(pairs)), set()
        for n in range(1, 9):
            try:
                widths.add(series_width(generate_bands(ifs, n)))
            except GenerationTooLarge:
                assert n > 4
                break
        assert len(widths) == 1, widths

    def test_mixed_widths_take_one_stack_each(self, ternary_run, asym_run, rule2048):
        # series tables of two widths share one stack, the narrower rows
        # zero-padded: padding may reorder a sum, so values agree to within
        # 2 eps (measured: the series path bitwise, one point-path value
        # 1.4e-16 relative)
        t, a = ternary_run[1][3], asym_run[1][3]
        assert t.vars.band_series.shape[1] != a.vars.band_series.shape[1]
        pts = np.concatenate([sample_points(t.vars.bands, 64), [X_STAR, 0.5, 1.5, 0.3 + 0.2j]])
        for rule in (None, rule2048):
            both = _potentials(pts, [t, a, t], rule)
            for row, s in zip(both, (t, a, t)):
                own = _potentials(pts, [s], rule)[0]
                assert np.max(np.abs(row - own) / np.abs(own)) <= 2 * np.finfo(float).eps

    def test_capacity_run_passes(self, ternary_run, rule2048, monkeypatch):
        # the ternary-capacity benchmark's config: one mean-path pass in 4
        # point blocks over all 254 bands, one point-path pass and one node table
        shares, tables = [], []
        band_shares, values_at_nodes = analytics._band_shares, analytics._values_at_nodes
        monkeypatch.setattr(analytics, "_band_shares",
                            lambda z, *a: shares.append(z.size) or band_shares(z, *a))
        monkeypatch.setattr(analytics, "_values_at_nodes",
                            lambda c, order: tables.append(c.shape) or values_at_nodes(c, order))
        sols = ternary_run[1]
        capacity_estimate(sols, rule2048, 256, X_STAR)
        assert shares == [64, 64, 64, 64, 1]
        assert tables == [(7, 32)]  # the point's host band in each generation
