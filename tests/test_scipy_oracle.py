"""The package's numpy transforms and exponential fit against scipy.

The package needs numpy alone.  scipy, a test dependency, checks it here:
``scipy.fft.dct`` for the batched DCT-II of the band series and for the
folded node table, and ``scipy.optimize.least_squares`` for the Gauss-Newton
fit of ``a + b exp(-c n)``.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.fft import dct
from scipy.optimize import least_squares

from equimeasure import kernel
from equimeasure.analytics import (
    NonMonotoneInput,
    _values_at_nodes,
    fit_exponential,
)
from equimeasure.kernel import (
    SERIES_OVERSAMPLING,
    QuadratureRule,
    _chebyshev_series,
    _dct2,
    kernel_band,
)
from tests.conftest import frame_rules

EPS = np.finfo(float).eps


def _scipy_series(bands, vars):
    """One scipy DCT-II per band, as the package computed its series before."""
    orders = [SERIES_OVERSAMPLING * rule.order for rule in frame_rules(bands, "band")]
    coeffs = np.zeros((bands.n_bands, max(orders)))
    for b, m in enumerate(orders):
        samples = kernel_band(QuadratureRule.chebyshev(m).nodes, b, vars)
        coeffs[b, :m] = dct(samples, type=2) / m
    coeffs[:, 0] *= 0.5
    return coeffs


def _scipy_values_at_nodes(coeffs, order):
    """The series at the nodes of ``order`` by a scipy DCT-III: for odd ``m``
    those nodes are every ``m``-th node of ``m * order``."""
    m = -(-coeffs.shape[1] // order)
    m += 1 - m % 2
    padded = np.zeros((coeffs.shape[0], m * order))
    padded[:, : coeffs.shape[1]] = 0.5 * coeffs
    padded[:, 0] = coeffs[:, 0]
    return dct(padded, type=3, axis=1)[:, (m - 1) // 2 :: m]


def _relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestChebyshevTransforms:
    @pytest.mark.parametrize("m", [1, 2, 7, 63, 64, 65, 128, 2475, 4096])
    def test_dct2_matches_scipy(self, m):
        rng = np.random.default_rng(m)
        for x in (rng.standard_normal((5, m)),
                  np.exp(-0.1 * np.arange(m)) * rng.standard_normal((3, m)) + 1.0):
            assert _relative_error(_dct2(x), dct(x, type=2)) <= 1e-15, m

    def test_band_series_match_per_band_scipy(self, ternary_run, asym_run):
        for bands, sols in (ternary_run, asym_run):
            for b, s in zip(bands, sols):
                want = _scipy_series(b, s.vars)
                assert _relative_error(_chebyshev_series(s.vars), want) <= 1e-15, \
                    b.generation

    # M = 64 on every band here.  Orders 31, 33 and 48 fold M > order with
    # m = 3; the odd M = 63 takes the first 63 coefficients.  (At order 2049,
    # 3 x 683, scipy's own DCT-III is off by 1.5e-15 of the values, against
    # 3e-16 for the folded table, so that order is left out.)  The cosines
    # are built in blocks of every node at once, or of 4 to 7 nodes.
    @pytest.mark.parametrize("order", [2048, 2051, 65, 64, 48, 33, 31, 25])
    @pytest.mark.parametrize("budget", [1 << 18, 1])
    def test_node_values_match_scipy(self, ternary_run, asym_run, order, budget,
                                     monkeypatch):
        monkeypatch.setattr(kernel, "BLOCK_ELEMS", budget)
        for bands, sols in (ternary_run, asym_run):
            for b, s in zip(bands[::3], sols[::3]):
                coeffs = s.vars.band_series
                for c in (coeffs, coeffs[:, :63]):
                    got = _values_at_nodes(c, order)
                    want = _scipy_values_at_nodes(c, order)
                    assert _relative_error(got, want) <= 1e-15, (b.generation, order)

    @pytest.mark.parametrize("m", [32, 52])
    def test_node_blocks_do_not_move_values(self, m, monkeypatch):
        # each block of nodes is summed as the whole table sums it, to the bit,
        # at the series lengths and orders of the ternary and 4/5, 1/10 runs,
        # and at orders 3 x 528 + 1 and 6 x 320 + 1, whose last node would
        # make a block of its own at M = 32 and 52.
        # A threaded BLAS splits a long product its own way, so a whole table
        # is not the reference there: with two threads, one table of M = 2475
        # at order 2051 moved values, and the blocks do not
        # (test_node_values_and_fits_do_not_depend_on_the_blas_thread_count)
        c = np.exp(-0.01 * np.arange(m)) * np.random.default_rng(m).standard_normal((3, m))
        for order in (256, 1585, 1921, 2047, 2048):
            monkeypatch.setattr(kernel, "BLOCK_ELEMS", 1 << 40)
            whole = _values_at_nodes(c, order)
            monkeypatch.undo()
            assert np.array_equal(_values_at_nodes(c, order), whole), (m, order)

    def test_longer_series_fold_like_scipy(self):
        # M = 128 and 191 over orders with m = 3 and m = 5
        rng = np.random.default_rng(7)
        for m, order in ((128, 50), (128, 64), (191, 64), (191, 40)):
            c = np.exp(-0.05 * np.arange(m)) * rng.standard_normal((4, m))
            got, want = _values_at_nodes(c, order), _scipy_values_at_nodes(c, order)
            assert _relative_error(got, want) <= 1e-15, (m, order)

    def test_node_values_of_unit_series_are_the_cosines(self):
        # the series c_j = 1 at one j alone is T_j, cos(j theta_k) at the nodes
        table = _values_at_nodes(np.eye(64), 2048)
        assert table.shape == (64, 2048)
        # cos of the unreduced angles, up to 198 rad, is itself off by up to 3e-14
        theta = (2 * np.arange(2048) + 1) * np.pi / 4096
        assert np.max(np.abs(table - np.cos(np.outer(np.arange(64), theta)))) <= 1e-13


def _exact_rss(points, fit):
    """Residual sum of squares of ``fit`` on ``points`` in 40-digit decimals."""
    a, b, c = (Decimal(float(v)) for v in fit)
    with localcontext() as ctx:
        ctx.prec = 40
        return sum((Decimal(float(y)) - a - b * (-c * Decimal(float(n))).exp()) ** 2
                   for n, y in points)


def _least_squares(points, x0):
    """The fit the package made with scipy before, given the analytic Jacobian:
    with the default finite-difference one, least_squares itself stops up to
    ~1e-10 away from the optimum in ``a``."""
    ns, ys = np.array(points, dtype=float).T

    def jacobian(p):
        e = np.exp(-p[2] * ns)
        return -np.column_stack([np.ones_like(ns), e, -p[1] * ns * e])

    fit = least_squares(lambda p: ys - (p[0] + p[1] * np.exp(-p[2] * ns)), x0=x0,
                        jac=jacobian,
                        bounds=([-np.inf, -np.inf, 1e-12], [np.inf, np.inf, np.inf]),
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return fit.x


def _exact_optimum(points, start):
    """Least-squares optimum of ``a + b exp(-c n)`` on ``points``: Gauss-Newton
    from ``start`` in 40-digit decimals, until the step is below 1e-30."""
    with localcontext() as ctx:
        ctx.prec = 40
        data = [(Decimal(int(n)), Decimal(float(y))) for n, y in points]
        p = [Decimal(float(v)) for v in start]
        for _ in range(100):
            rows = []
            for n, y in data:
                e = (-p[2] * n).exp()
                rows.append(([Decimal(1), e, -p[1] * n * e], y - p[0] - p[1] * e))
            # normal equations [J^T J | J^T r], solved by Gauss-Jordan
            m = [[sum(j[r] * j[c] for j, _ in rows) for c in range(3)]
                 + [sum(j[r] * res for j, res in rows)] for r in range(3)]
            for col in range(3):
                pivot = max(range(col, 3), key=lambda r: abs(m[r][col]))
                m[col], m[pivot] = m[pivot], m[col]
                for r in range(3):
                    if r != col:
                        f = m[r][col] / m[col][col]
                        m[r] = [u - f * v for u, v in zip(m[r], m[col])]
            step = [m[r][3] / m[r][r] for r in range(3)]
            p = [u + v for u, v in zip(p, step)]
            if max(abs(v) for v in step) < Decimal("1e-30"):
                return p
    raise AssertionError("the decimal Gauss-Newton did not converge")


def _check_against_least_squares(points):
    """The fit's exact residual is no larger than scipy's from the same seed
    (up to a floor of one rounding of each ``y``), and scipy started at the
    fit leaves ``a`` where it is."""
    fit = fit_exponential(points)
    seeded = _least_squares(points, fit_exponential(points[-3:]))
    floor = Decimal(len(points) * (4 * EPS * max(abs(y) for _, y in points)) ** 2)
    assert _exact_rss(points, fit) <= _exact_rss(points, seeded) * Decimal(1 + 1e-12) + floor
    assert abs(_least_squares(points, fit)[0] - fit[0]) <= 1e-11
    assert fit[2] >= 1e-12


class TestFitAgainstLeastSquares:
    def test_ternary_capacity_windows(self, ternary_potentials):
        # judged against the exact optimum, not against where least_squares
        # stops from the 3-point seed: that point moves by 1e-11 in a when
        # the data move in their last bits
        points, means = ternary_potentials
        for values in (points, means):
            window = [(n, values[n - 1]) for n in range(4, 8)]
            _check_against_least_squares(window)
            fit = fit_exponential(window)
            assert abs(fit[0] - float(_exact_optimum(window, fit)[0])) <= 1e-13

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(-1.0, 1.0), b=st.floats(0.1, 1.0), sign=st.sampled_from([-1, 1]),
           ratio=st.floats(0.1, 0.8), first=st.integers(0, 4),
           noise=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=8),
           level=st.floats(-8.0, -3.0))
    def test_noisy_decaying_sequences(self, a, b, sign, ratio, first, noise, level):
        # noise of up to 1e-3 of each point's distance from the limit a
        ns = range(first, first + len(noise))
        points = [(n, a + sign * b * ratio**n * (1.0 + 10.0**level * e))
                  for n, e in zip(ns, noise)]
        try:
            fit_exponential(points)
        except NonMonotoneInput:
            assume(False)
        _check_against_least_squares(points)

    def test_three_points_stay_closed_form(self):
        pts = [(4, 0.80789909801392112), (5, 0.81218464158534609), (6, 0.81438838237822331)]
        r = (pts[2][1] - pts[1][1]) / (pts[1][1] - pts[0][1])
        assert fit_exponential(pts)[2] == -math.log(r)
