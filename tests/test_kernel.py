import math

import numpy as np
import pytest
from scipy.integrate import quad

from equimeasure.geometry import generate_bands
from equimeasure.kernel import (
    COLLISION_RTOL,
    ExactNodeCollision,
    GapVariables,
    QuadratureRule,
    band_integral,
    gap_integral,
    gap_jacobian,
    gap_jacobian_row,
    kernel_band,
    kernel_grouped,
    kernel_log_magnitude,
    refined_gap_order,
    _check_collision,
    _frame_points,
    _paired_product,
)


def double_factorial_moment(p):
    """Exact Chebyshev-weight moment of x**p: (p-1)!!/p!! for even p."""
    if p % 2:
        return 0.0
    num = den = 1
    for k in range(p, 0, -2):
        num *= k - 1 if k > 1 else 1
        den *= k
    return num / den


class TestQuadratureRule:
    def test_nodes_and_weights(self):
        rule = QuadratureRule.chebyshev(8)
        k = np.arange(1, 9)
        assert np.allclose(rule.nodes, np.cos((2 * k - 1) * np.pi / 16), atol=1e-15)
        assert np.all(rule.weights == 1 / 8)
        assert abs(rule.weights.sum() - 1.0) < 1e-15

    @pytest.mark.parametrize("order", [8, 64, 2048])
    def test_weight_normalization(self, order):
        rule = QuadratureRule.chebyshev(order)
        assert abs(rule.weights.sum() - 1.0) < 1e-15

    def test_monomial_exactness(self):
        rule = QuadratureRule.chebyshev(8)
        for p in range(16):  # exact through degree 2K-1 = 15
            got = float(rule.weights @ rule.nodes**p)
            assert got == pytest.approx(double_factorial_moment(p), abs=1e-14)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            QuadratureRule.chebyshev(0)


class TestGapVariables:
    def test_zetas_are_gap_midpoint_offsets(self, ternary):
        b = generate_bands(ternary, 2)
        gv = GapVariables(b, np.array([0.0, 0.5, -0.5]))
        lo, hi = b.gap_los, b.gap_his
        assert np.allclose(gv.zetas, 0.5 * (lo + hi) + np.array([0, 0.25, -0.25]) * (hi - lo))
        assert np.all(gv.zetas > lo) and np.all(gv.zetas < hi)

    def test_bounds_enforced(self, ternary):
        b = generate_bands(ternary, 1)
        with pytest.raises(ValueError):
            GapVariables(b, np.array([1.0]))
        with pytest.raises(ValueError):
            GapVariables(b, np.array([0.1, 0.2]))


class TestLogMagnitude:
    def test_single_band_empty_products(self, trivial_band):
        b0, _ = trivial_band
        gv = GapVariables(b0, np.zeros(0))
        for x in (-0.9, 0.0, 0.77):
            sign, logmag = kernel_log_magnitude(x, b0, gv, ("band", 0))
            assert sign == 1.0 and logmag == 0.0

    def test_matches_direct_product_small_system(self, ternary):
        # generation 1, root at zero, evaluated in the frame of band 1
        b = generate_bands(ternary, 1)
        gv = GapVariables(b, np.array([0.0]))
        lo, hi = b.alphas[1], b.betas[1]
        scale = 2.0 / (hi - lo)
        to_frame = lambda y: scale * (y - 0.5 * (lo + hi))
        x = 0.9

        naive = abs(x - to_frame(gv.zetas[0]))
        naive /= math.sqrt(abs(x - to_frame(b.alphas[0])) * abs(x - to_frame(b.betas[0])))
        sign, logmag = kernel_log_magnitude(x, b, gv, ("band", 1))
        assert sign == 1.0
        assert math.exp(logmag) == pytest.approx(naive, rel=1e-13)

        # gap frame: same construction, excluding the gap's own endpoints
        gsign, glogmag = kernel_log_magnitude(0.25, b, gv, ("gap", 0))
        glo, ghi = b.gap_los[0], b.gap_his[0]
        gscale = 2.0 / (ghi - glo)
        gframe = lambda y: gscale * (y - 0.5 * (glo + ghi))
        gnaive = (0.25 - gframe(gv.zetas[0])) / math.sqrt(
            abs(0.25 - gframe(b.alphas[0])) * abs(0.25 - gframe(b.betas[1]))
        )
        assert gsign * math.exp(glogmag) == pytest.approx(gnaive, rel=1e-13)

    def test_collision_detection(self, ternary):
        b = generate_bands(ternary, 1)
        gv = GapVariables(b, np.array([0.25]))
        with pytest.raises(ExactNodeCollision):
            kernel_log_magnitude(0.25, b, gv, ("gap", 0))


class TestGroupedEvaluator:
    def test_two_band_reduction(self, ternary):
        # one gap: no pairings remain, only the root factor over the two
        # leftover endpoint factors
        b = generate_bands(ternary, 1)
        gv = GapVariables(b, np.array([0.17]))
        glo, ghi = b.gap_los[0], b.gap_his[0]
        scale = 2.0 / (ghi - glo)
        frame = lambda y: scale * (y - 0.5 * (glo + ghi))
        for x in (-0.8, 0.0, 0.9):
            expected = (x - frame(gv.zetas[0])) / math.sqrt(
                abs(x - frame(b.alphas[0])) * abs(x - frame(b.betas[1]))
            )
            assert kernel_grouped(x, 0, b, gv) == pytest.approx(expected, rel=1e-13)

    def test_agreement_with_log_evaluator(self, ternary_run, rule2048):
        bands, sols = ternary_run
        b, s = bands[2], sols[2]  # generation 3
        x = rule2048.nodes
        for i in range(b.n_gaps):
            grouped = kernel_grouped(x, i, b, s.vars)
            sign, logmag = kernel_log_magnitude(x, b, s.vars, ("gap", i))
            reference = sign * np.exp(logmag)
            rel = np.abs(grouped - reference) / np.abs(reference)
            assert np.max(rel) < 1e-12

    def test_remote_ratio_near_one(self, ternary_run, rule2048):
        # the most distant pairing of the deepest generation: the grouped
        # ratio deviates from 1 by ~|zeta - band centre| / distance, a few
        # parts in 1e4 here
        bands, sols = ternary_run
        b, s = bands[6], sols[6]
        i, m = 0, b.n_gaps - 1
        p, a_t, b_t = _frame_points(b, s.vars.zetas, ("gap", i))
        x = rule2048.nodes
        ratio = np.abs(x - p[m]) / np.sqrt(np.abs((x - a_t[m + 1]) * (x - b_t[m + 1])))
        assert np.max(np.abs(ratio - 1.0)) < 1e-3

    def test_collision(self, ternary):
        b = generate_bands(ternary, 1)
        gv = GapVariables(b, np.array([0.25]))
        with pytest.raises(ExactNodeCollision):
            kernel_grouped(0.25, 0, b, gv)


class TestBandKernel:
    @pytest.mark.parametrize("run, n, bound", [("ternary_run", 5, 1e-12),
                                               ("asym_run", 7, 2e-12)])
    def test_agrees_with_log_path_on_every_band(self, run, n, bound, rule2048, request):
        bands, sols = request.getfixturevalue(run)
        b, s = bands[n - 1], sols[n - 1]
        x = rule2048.nodes
        worst = 0.0
        for i in range(b.n_bands):
            paired = kernel_band(x, i, b, s.vars)
            _, logmag = kernel_log_magnitude(x, b, s.vars, ("band", i))
            reference = np.exp(logmag)
            worst = max(worst, float(np.max(np.abs(paired - reference) / reference)))
        assert worst < bound

    def test_scalar_and_collision(self, ternary):
        b = generate_bands(ternary, 1)
        gv = GapVariables(b, np.array([0.0]))
        assert isinstance(kernel_band(0.3, 1, b, gv), float)
        # the root (at 0) sits at -2 in the frame of band 1 = [1/3, 1]
        with pytest.raises(ExactNodeCollision):
            kernel_band(np.array([0.5, -2.0]), 1, b, gv)


def unchunked_paired_product(x, frame, p, a_t, b_t, block=256):
    """The paired product over whole row blocks, without column chunks."""
    kind, i = frame
    skip = 2 if kind == "gap" else 1
    p_pair = np.delete(p, i) if kind == "gap" else p
    pair_a = np.concatenate([a_t[:i], a_t[i + skip:]])
    pair_b = np.concatenate([b_t[:i], b_t[i + skip:]])
    prod = np.ones_like(x)
    for start in range(0, p_pair.size, block):
        sl = slice(start, start + block)
        num = x[None, :] - p_pair[sl, None]
        den = (x[None, :] - pair_a[sl, None]) * (x[None, :] - pair_b[sl, None])
        prod *= np.sqrt(np.prod(num * num / den, axis=0))
    return prod


@pytest.mark.parametrize("frame", [("gap", 0), ("gap", 300), ("band", 0), ("band", 511)])
def test_paired_product_chunks_are_exact(ternary, frame):
    # 511 roots span two row blocks; column chunks must not change a bit
    b = generate_bands(ternary, 9)
    gv = GapVariables(b, np.random.default_rng(3).uniform(-0.5, 0.5, b.n_gaps))
    x = QuadratureRule.chebyshev(700).nodes
    p, a_t, b_t = _frame_points(b, gv.zetas, frame)
    assert np.array_equal(_paired_product(x, frame, p, a_t, b_t),
                          unchunked_paired_product(x, frame, p, a_t, b_t))


def dense_collision(x, points):
    """The all-pairs collision predicate the sort-based check must match."""
    diff = np.abs(x[:, None] - points[None, :])
    scale = np.maximum(1.0, np.maximum(np.abs(x)[:, None], np.abs(points)[None, :]))
    return bool(np.any(diff < COLLISION_RTOL * scale))


def sorted_collision(x, points):
    try:
        _check_collision(x, points)
    except ExactNodeCollision:
        return True
    return False


class TestCollisionCheck:
    def test_matches_dense_check(self):
        rng = np.random.default_rng(11)
        nodes = QuadratureRule.chebyshev(257).nodes
        outcomes = set()
        for trial in range(300):
            x = nodes if trial % 2 else rng.uniform(-3.0, 3.0, 64)
            points = rng.uniform(-3.0, 3.0, 12)
            kind = trial % 5
            if kind:
                j = rng.integers(x.size)
                offset = (0.0, 0.5e-15, 2e-15, -0.5e-15)[kind - 1]
                points[rng.integers(points.size)] = x[j] * (1.0 + offset) + (
                    offset if abs(x[j]) < 1.0 else 0.0)
            expected = dense_collision(x, points)
            assert sorted_collision(x, points) == expected
            outcomes.add(expected)
        assert outcomes == {True, False}


def adaptive_gap_oracle(i, bands, gv, tol=1e-13):
    """Independent value of the gap equation: adaptive quadrature in the
    angular variable, log-space kernel."""

    def integrand(theta):
        try:
            sign, logmag = kernel_log_magnitude(math.cos(theta), bands, gv, ("gap", i))
        except ExactNodeCollision:
            return 0.0
        return sign * math.exp(logmag)

    value, _ = quad(integrand, 0.0, math.pi, limit=400, epsabs=tol, epsrel=tol)
    return value / math.pi


class TestGapIntegral:
    def test_symmetric_root_gives_zero(self, ternary):
        b = generate_bands(ternary, 1)
        gv = GapVariables(b, np.array([0.0]))
        rule = QuadratureRule.chebyshev(512)
        assert abs(gap_integral(0, b, gv, rule)) < 1e-15

    def test_against_adaptive_oracle(self, ternary):
        b = generate_bands(ternary, 1)
        gv = GapVariables(b, np.array([0.3]))
        rule = QuadratureRule.chebyshev(2048)
        value = gap_integral(0, b, gv, rule)
        oracle = adaptive_gap_oracle(0, b, gv)
        assert value != 0.0
        assert value == pytest.approx(oracle, abs=1e-10)

    def test_order_convergence_generation_seven(self, ternary_run):
        bands, sols = ternary_run
        b, s = bands[6], sols[6]
        r1, r2 = QuadratureRule.chebyshev(1024), QuadratureRule.chebyshev(2048)
        for i in range(b.n_gaps):
            d = abs(gap_integral(i, b, s.vars, r1) - gap_integral(i, b, s.vars, r2))
            assert d < 1e-12

    def test_evaluator_choice_is_cosmetic(self, ternary):
        b = generate_bands(ternary, 2)
        gv = GapVariables(b, np.array([0.05, -0.1, 0.2]))
        rule = QuadratureRule.chebyshev(256)
        for i in range(3):
            a = gap_integral(i, b, gv, rule, evaluator="grouped")
            c = gap_integral(i, b, gv, rule, evaluator="log")
            assert a == pytest.approx(c, rel=1e-12, abs=1e-15)

    def test_unknown_evaluator(self, ternary):
        b = generate_bands(ternary, 1)
        gv = GapVariables(b, np.array([0.0]))
        with pytest.raises(ValueError):
            gap_integral(0, b, gv, QuadratureRule.chebyshev(8), evaluator="fast")


class TestBandIntegral:
    def test_single_band_is_unit_mass(self, trivial_band):
        b0, _ = trivial_band
        gv = GapVariables(b0, np.zeros(0))
        assert band_integral(0, b0, gv, QuadratureRule.chebyshev(16)) == 1.0

    def test_symmetric_halves(self, ternary):
        b = generate_bands(ternary, 1)
        gv = GapVariables(b, np.array([0.0]))
        rule = QuadratureRule.chebyshev(2048)
        assert band_integral(0, b, gv, rule) == pytest.approx(0.5, abs=1e-12)
        assert band_integral(1, b, gv, rule) == pytest.approx(0.5, abs=1e-12)

    def test_total_mass_at_solution(self, ternary_run):
        bands, sols = ternary_run
        b, s = bands[2], sols[2]
        assert float(np.sum(s.omegas)) == pytest.approx(1.0, abs=1e-10)


class TestJacobian:
    def test_matches_central_differences(self, ternary):
        b = generate_bands(ternary, 4)
        rng = np.random.default_rng(42)
        lam = rng.uniform(-0.2, 0.2, b.n_gaps)
        rule = QuadratureRule.chebyshev(512)
        gv = GapVariables(b, lam)
        jac = np.vstack([gap_jacobian_row(i, b, gv, rule) for i in range(b.n_gaps)])

        step = 1e-6
        for m in range(b.n_gaps):
            up, dn = lam.copy(), lam.copy()
            up[m] += step
            dn[m] -= step
            r_up = np.array([gap_integral(i, b, GapVariables(b, up), rule)
                             for i in range(b.n_gaps)])
            r_dn = np.array([gap_integral(i, b, GapVariables(b, dn), rule)
                             for i in range(b.n_gaps)])
            fd = (r_up - r_dn) / (2 * step)
            assert np.max(np.abs(jac[:, m] - fd) / np.abs(fd)) < 1e-6

    def test_single_entry_matches_row(self, ternary):
        b = generate_bands(ternary, 2)
        gv = GapVariables(b, np.array([0.1, -0.05, 0.02]))
        rule = QuadratureRule.chebyshev(128)
        row = gap_jacobian_row(1, b, gv, rule)
        for m in range(3):
            assert gap_jacobian(1, m, b, gv, rule) == row[m]

    def test_diagonal_dominance_and_decay(self, ternary_run, rule2048):
        bands, sols = ternary_run
        b, s = bands[4], sols[4]  # generation 5
        jac = np.vstack([gap_jacobian_row(i, b, s.vars, rule2048)
                         for i in range(b.n_gaps)])
        n = b.n_gaps
        for i in range(n):
            off = max(abs(jac[i, m]) for m in range(n) if m != i)
            assert abs(jac[i, i]) > off
        # decay of the mean off-diagonal magnitude, octave-averaged: the
        # raw per-distance means wiggle at the self-similar scales
        dist_means = []
        for d in range(1, n):
            vals = [abs(jac[i, i + d]) for i in range(n - d)]
            vals += [abs(jac[i + d, i]) for i in range(n - d)]
            dist_means.append(np.mean(vals))
        octaves = []
        k = 0
        while 2**k < n:
            octaves.append(np.mean(dist_means[2**k - 1:min(2 ** (k + 1) - 1, n - 1)]))
            k += 1
        assert all(b2 < a2 for a2, b2 in zip(octaves, octaves[1:]))
        assert octaves[-1] < 1e-2 * octaves[0]


def test_refined_gap_order_targets_thin_neighbours(asym, ternary):
    b = generate_bands(asym, 9)
    orders = [refined_gap_order(b, i, 2048) for i in range(b.n_gaps)]
    # only old gaps flanked by deep bands need refinement
    assert max(orders) > 10000
    assert sum(1 for o in orders if o > 2048) == 7
    tern_b = generate_bands(ternary, 7)
    assert all(refined_gap_order(tern_b, i, 2048) == 2048 for i in range(tern_b.n_gaps))
