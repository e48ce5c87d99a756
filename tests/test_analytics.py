import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from equimeasure import analytics
from equimeasure.analytics import (
    SERIES_OVERSAMPLING,
    CapacityEstimate,
    NonMonotoneInput,
    OutOfHull,
    _band_series,
    _chebyshev_series,
    _density_table,
    _series_potentials,
    _theta_of,
    capacity_estimate,
    fit_exponential,
    integrated_measure_at,
    mean_potential_on_attractor_points,
    potential_at,
    sample_points,
)
from equimeasure.geometry import generate_bands
from equimeasure.kernel import QuadratureRule, _from_frame, kernel_band, refined_orders
from tests.conftest import X_STAR

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
                f = kernel_band(np.cos(theta + half * (nodes + 1.0)), i, b, s.vars)
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
    def test_collision_check_matches_the_full_scan(self, asym_run, order):
        # only bands whose node range comes within the tolerance of x are
        # scanned; the answer is the one of a scan over every node
        bands, sols = asym_run
        b, s = bands[3], sols[3]
        positions, _ = _density_table(s, b, QuadratureRule.chebyshev(order))
        tol = analytics.NODE_COLLISION_RTOL * b.band_widths[:, None]
        points = [b.alphas, b.betas, 0.5 * (b.gap_los + b.gap_his), [-1.5, 1.5, -1e3]]
        for factor in (0.0, 0.5, 0.999, 1.001, 2.0):
            points += [(positions + factor * tol).ravel(), (positions - factor * tol).ravel()]
        outcomes = set()
        for x in np.concatenate(points).tolist():
            full = bool(np.any(np.abs(x - positions).min(axis=1) < tol[:, 0]))
            assert analytics._collides(x, positions, b) == full, x
            outcomes.add(full)
        assert outcomes == {True, False}

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


class TestSpectralSeries:
    def test_on_set_spread(self, ternary_run, asym_run):
        # V is constant on the bands: sampled values and every band end
        # agree to roundoff (ternary) or to the solve tolerance (asym)
        for (bands, sols), depth, bound in ((ternary_run, 7, 1e-13), (asym_run, 9, 2e-11)):
            pts = sample_points(bands[depth - 1], 1024)
            for b, s in zip(bands[:depth], sols[:depth]):
                xs = np.concatenate([pts, b.alphas, b.betas])
                v = _series_potentials(xs, _band_series(s), b)
                assert v.max() - v.min() <= bound, (b.generation, v.max() - v.min())

    def test_doubling_the_order_moves_no_mean(self, asym_run, monkeypatch):
        bands, sols = asym_run
        pts = sample_points(bands[-1], 1024)
        base = [np.mean(_series_potentials(pts, _band_series(s), b))
                for b, s in zip(bands, sols)]
        monkeypatch.setattr(analytics, "SERIES_OVERSAMPLING", 2 * analytics.SERIES_OVERSAMPLING)
        for b, s, v in zip(bands, sols, base):
            finer = np.mean(_series_potentials(pts, _chebyshev_series(b, s.vars), b))
            assert abs(finer - v) <= 1e-14, (b.generation, finer - v)

    def test_leading_coefficient_is_the_band_measure(self, asym_run):
        bands, sols = asym_run
        for b, s in zip(bands[:6], sols[:6]):
            assert np.max(np.abs(_band_series(s)[:, 0] - s.omegas)) <= 1e-15


class TestDensityTableMemo:
    def test_second_call_builds_no_table(self, ternary_run, rule2048, monkeypatch):
        # the coefficients take one kernel call per series length, for all
        # bands of that length; after that no potential or integrated
        # measure evaluates the kernel again
        bands, sols = ternary_run
        b, s = bands[2], dataclasses.replace(sols[2])  # same roots, empty memo
        calls = []

        def counting(*args):
            calls.append((len(args[0]), list(args[1])))
            return kernel_band(*args)

        monkeypatch.setattr(analytics, "kernel_band", counting)
        first = potential_at(0.0, s, b, rule2048)
        lengths = SERIES_OVERSAMPLING * refined_orders(b, "band")
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
        b, s = bands[1], dataclasses.replace(sols[1])
        positions, weighted = _density_table(s, b, rule2048)
        for arr in (positions, weighted, _band_series(s)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0
        coarse = _density_table(s, b, QuadratureRule.chebyshev(64))
        assert coarse[0].shape == coarse[1].shape == (b.n_bands, 64)
        assert _density_table(s, b, rule2048)[1] is weighted
        assert sorted(s._density_tables) == [64, 2048]

    @pytest.mark.parametrize("order", [1, 5, 8, 63, 64, 65, 67, 2048])
    def test_table_densities_match_the_kernel(self, asym_run, order):
        # orders below the series length take every m-th node of an odd
        # multiple m of the order
        bands, sols = asym_run
        b, s = bands[3], dataclasses.replace(sols[3])
        rule = QuadratureRule.chebyshev(order)
        _, weighted = _density_table(s, b, rule)
        want = np.array([rule.weights * kernel_band(rule.nodes, i, b, s.vars)
                         for i in range(b.n_bands)])
        assert np.max(np.abs(weighted - want) / want) <= 1e-13


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
    c = _band_series(solution)[i]
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
        monkeypatch.setattr(analytics, "_BLOCK_ELEMS", 3 * b.n_bands)
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
    f_nodes = kernel_band(np.cos(thetas), b, bands, solution.vars)
    f_z = float(kernel_band(np.array([c]), b, bands, solution.vars)[0])
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
    weighted = np.array([rule.weights * kernel_band(rule.nodes, i, bands, solution.vars)
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
            got = _series_potentials(xs, _band_series(s), b)
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


class TestCapacityEstimate:
    def test_trivial_constant_capacity_is_half(self, trivial_band, rule2048):
        _, s0 = trivial_band
        est = capacity_estimate([s0] * 4, rule2048, sample_count=32)
        assert est.extrapolated_capacity == pytest.approx(0.5, abs=1e-9)
        assert est.fit[2] > 0
        assert isinstance(est, CapacityEstimate)

    def test_requires_four_generations(self, ternary_run, rule2048):
        _, sols = ternary_run
        with pytest.raises(ValueError):
            capacity_estimate(sols[:3], rule2048)

    def test_point_mode_needs_point(self, ternary_run, rule2048):
        _, sols = ternary_run
        with pytest.raises(ValueError):
            capacity_estimate(sols[:4], rule2048, mode="point")
