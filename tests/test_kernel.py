import math

import numpy as np
import pytest
from scipy.integrate import quad

from equimeasure import kernel as kernel_module
from equimeasure import solver
from equimeasure.geometry import IfsSystem, generate_bands, validate
from equimeasure.kernel import (
    COLLISION_RTOL,
    MIN_ORDER,
    ExactNodeCollision,
    GapVariables,
    QuadratureRule,
    band_integral,
    gap_integral,
    gap_jacobian_row,
    kernel_band,
    kernel_grouped,
    kernel_log_magnitude,
    PANEL_NODES,
    REFINE_SAFETY,
    refined_orders,
    _frame_points,
    _gauss_legendre,
    _paired_product,
)
from tests.conftest import frame_rules, log_space_gap_integral, solve_generations


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

    def test_zetas_memoised_read_only(self, ternary):
        gv = GapVariables(generate_bands(ternary, 2), np.array([0.0, 0.5, -0.5]))
        assert gv.zetas is gv.zetas
        with pytest.raises(ValueError):
            gv.zetas[0] = 0.0

    def test_bounds_enforced(self, ternary):
        b = generate_bands(ternary, 1)
        for bad in (1.0, np.nan):
            with pytest.raises(ValueError):
                GapVariables(b, np.array([bad]))
        with pytest.raises(ValueError):
            GapVariables(b, np.array([0.1, 0.2]))


class TestLogMagnitude:
    def test_single_band_empty_products(self, trivial_band):
        b0, _ = trivial_band
        gv = GapVariables(b0, np.zeros(0))
        for x in (-0.9, 0.0, 0.77):
            sign, logmag = kernel_log_magnitude(x, gv, ("band", 0))
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
        sign, logmag = kernel_log_magnitude(x, gv, ("band", 1))
        assert sign == 1.0
        assert math.exp(logmag) == pytest.approx(naive, rel=1e-13)

        # gap frame: same construction, excluding the gap's own endpoints
        gsign, glogmag = kernel_log_magnitude(0.25, gv, ("gap", 0))
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
        # the own root, a point within COLLISION_RTOL of it and, in a batch,
        # a point within COLLISION_RTOL * 3 (not COLLISION_RTOL) of the outer
        # endpoint near -3
        end = _frame_points(gv, ("gap", 0))[1][0]
        for x in (0.25, 0.25 + 0.5 * COLLISION_RTOL,
                  np.array([0.0, end * (1.0 + 0.5 * COLLISION_RTOL)])):
            with pytest.raises(ExactNodeCollision):
                kernel_log_magnitude(x, gv, ("gap", 0))
        sign, _ = kernel_log_magnitude(0.25 + 4.0 * COLLISION_RTOL, gv, ("gap", 0))
        assert sign == 1.0


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
            assert kernel_grouped(x, 0, gv) == pytest.approx(expected, rel=1e-13)

    def test_agreement_with_log_evaluator(self, ternary_run, rule2048):
        bands, sols = ternary_run
        b, s = bands[2], sols[2]  # generation 3
        x = rule2048.nodes
        for i in range(b.n_gaps):
            grouped = kernel_grouped(x, i, s.vars)
            sign, logmag = kernel_log_magnitude(x, s.vars, ("gap", i))
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
        p, a_t, b_t = _frame_points(s.vars, ("gap", i))
        x = rule2048.nodes
        ratio = np.abs(x - p[m]) / np.sqrt(np.abs((x - a_t[m + 1]) * (x - b_t[m + 1])))
        assert np.max(np.abs(ratio - 1.0)) < 1e-3

    def test_collision(self, ternary):
        # a point on the own root: the numerator factor gives the kernel's
        # true value there, 0, alone or in a batch of frames
        b = generate_bands(ternary, 1)
        gv = GapVariables(b, np.array([0.25]))
        assert kernel_grouped(0.25, 0, gv) == 0.0
        b = generate_bands(ternary, 3)
        gv = GapVariables(b, 0.3 * np.cos(np.arange(b.n_gaps)))
        values = kernel_grouped(np.array([-0.5, gv.lambdas[2]]), (1, 2, 3), gv)
        assert values[1, 1] == 0.0 and np.all(values[[0, 2]] != 0.0)


class TestBandKernel:
    @pytest.mark.parametrize("run, n, bound", [("ternary_run", 5, 1e-12),
                                               ("asym_run", 7, 2e-12)])
    def test_agrees_with_log_path_on_every_band(self, run, n, bound, rule2048, request):
        bands, sols = request.getfixturevalue(run)
        b, s = bands[n - 1], sols[n - 1]
        x = rule2048.nodes
        worst = 0.0
        for i in range(b.n_bands):
            paired = kernel_band(x, i, s.vars)
            _, logmag = kernel_log_magnitude(x, s.vars, ("band", i))
            reference = np.exp(logmag)
            worst = max(worst, float(np.max(np.abs(paired - reference) / reference)))
        assert worst < bound

    def test_scalar_and_band_ends(self, ternary):
        b = generate_bands(ternary, 1)
        gv = GapVariables(b, np.array([0.0]))
        assert isinstance(kernel_band(0.3, 1, gv), float)
        # no root or endpoint lies in [-1, 1], the band's own ends included
        ends = kernel_band(np.array([-1.0, 1.0]), (0, 1), gv)
        assert np.all(np.isfinite(ends)) and np.all(ends > 0.0)


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
    # 511 roots span two row blocks; chunks of frames and of nodes must not
    # change a bit, alone or in a block of frames
    b = generate_bands(ternary, 9)
    gv = GapVariables(b, np.random.default_rng(3).uniform(-0.5, 0.5, b.n_gaps))
    x = QuadratureRule.chebyshev(700).nodes
    kind, i = frame
    want = unchunked_paired_product(x, frame, *_frame_points(gv, frame))
    for block in ([i], [i, 1, 200, 510, i]):
        got = _paired_product(x, kind, np.array(block), gv)
        assert np.array_equal(got[0], want) and np.array_equal(got[-1], want)


def adaptive_gap_oracle(i, bands, gv, tol=1e-13):
    """Independent value of the gap equation: adaptive quadrature in the
    angular variable, log-space kernel."""

    def integrand(theta):
        try:
            sign, logmag = kernel_log_magnitude(math.cos(theta), gv, ("gap", i))
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
        assert abs(gap_integral(0, gv, rule)) < 1e-15

    def test_against_adaptive_oracle(self, ternary):
        b = generate_bands(ternary, 1)
        gv = GapVariables(b, np.array([0.3]))
        rule = QuadratureRule.chebyshev(2048)
        value = gap_integral(0, gv, rule)
        oracle = adaptive_gap_oracle(0, b, gv)
        assert value != 0.0
        assert value == pytest.approx(oracle, abs=1e-10)

    def test_order_convergence_generation_seven(self, ternary_run):
        bands, sols = ternary_run
        b, s = bands[6], sols[6]
        r1, r2 = QuadratureRule.chebyshev(1024), QuadratureRule.chebyshev(2048)
        for i in range(b.n_gaps):
            d = abs(gap_integral(i, s.vars, r1) - gap_integral(i, s.vars, r2))
            assert d < 1e-12

    def test_evaluator_choice_is_cosmetic(self, ternary):
        b = generate_bands(ternary, 2)
        gv = GapVariables(b, np.array([0.05, -0.1, 0.2]))
        rule = QuadratureRule.chebyshev(256)
        for i in range(3):
            a = gap_integral(i, gv, rule)
            c = log_space_gap_integral(i, gv, rule)
            assert a == pytest.approx(c, rel=1e-12, abs=1e-15)


class TestBandIntegral:
    def test_single_band_is_unit_mass(self, trivial_band):
        b0, _ = trivial_band
        gv = GapVariables(b0, np.zeros(0))
        assert band_integral(0, gv, QuadratureRule.chebyshev(16)) == 1.0

    def test_symmetric_halves(self, ternary):
        b = generate_bands(ternary, 1)
        gv = GapVariables(b, np.array([0.0]))
        rule = QuadratureRule.chebyshev(2048)
        assert band_integral(0, gv, rule) == pytest.approx(0.5, abs=1e-12)
        assert band_integral(1, gv, rule) == pytest.approx(0.5, abs=1e-12)

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
        jac = np.vstack([gap_jacobian_row(i, gv, rule) for i in range(b.n_gaps)])

        step = 1e-6
        for m in range(b.n_gaps):
            up, dn = lam.copy(), lam.copy()
            up[m] += step
            dn[m] -= step
            r_up = np.array([gap_integral(i, GapVariables(b, up), rule)
                             for i in range(b.n_gaps)])
            r_dn = np.array([gap_integral(i, GapVariables(b, dn), rule)
                             for i in range(b.n_gaps)])
            fd = (r_up - r_dn) / (2 * step)
            assert np.max(np.abs(jac[:, m] - fd) / np.abs(fd)) < 1e-6

    def test_diagonal_dominance_and_decay(self, ternary_run, rule2048):
        bands, sols = ternary_run
        b, s = bands[4], sols[4]  # generation 5
        jac = np.vstack([gap_jacobian_row(i, s.vars, rule2048)
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


def test_refined_order_targets_thin_neighbours(asym, ternary):
    b = generate_bands(asym, 9)
    gaps, bands = refined_orders(b, "gap").tolist(), refined_orders(b, "band").tolist()
    # only old gaps flanked by deep bands need thousands of nodes
    assert max(gaps) > 10000
    assert sum(1 for o in gaps if o > 2048) == 7
    assert np.median(gaps) == MIN_ORDER
    # a band goes above the floor only beside a gap narrower than it: every
    # left child (0.8 of its parent, the even bands) has its parent's new
    # gap (0.1 of the parent) on its right, eps = 2 * 0.1 / 0.8 = 1/4, so
    # it takes ceil(18 / sqrt(1/2)) = 26; a right child (0.1 of its
    # parent) has gaps at least as wide as itself on both sides, eps >= 2,
    # and stays at the floor
    assert set(bands) == {MIN_ORDER, 26}
    assert [i for i, o in enumerate(bands) if o > MIN_ORDER] == list(range(0, b.n_bands, 2))
    ratio = b.gap_widths[::2] / b.band_widths[:-1:2]
    assert np.allclose(ratio, 0.125, rtol=1e-6, atol=0)  # widths down to 1e-9
    # middle thirds: each order grows by sqrt(3) per generation of the
    # gap's age, and the paper's uniform 2048 nodes are far more than needed
    tern_b = generate_bands(ternary, 7)
    tern_gaps = refined_orders(tern_b, "gap").tolist()
    assert max(tern_gaps) == 244 and sorted(set(tern_gaps)) == [16, 28, 48, 82, 142, 244]
    assert set(refined_orders(tern_b, "band").tolist()) == {MIN_ORDER}


# the systems of the batching tests: ternary, 4/5 with 1/10, and three with
# a band 1e-3 or 1e-2 of its neighbour's width
BATCH_SYSTEMS = [([[1 / 3, -1.0], [1 / 3, 1.0]], 7), ([[0.8, -1.0], [0.1, 1.0]], 9),
                 ([[0.9, -1.0], [0.001, 1.0]], 4), ([[0.5, -1.0], [0.001, 1.0]], 4),
                 ([[0.8, -1.0], [0.01, 1.0]], 5)]


def per_frame_order(bands, frame):
    """Reference: one frame's Gauss-Chebyshev order by scalar arithmetic,
    the per-index loop that the array pass of ``refined_orders`` replaces."""
    kind, i = frame
    if kind == "gap":
        own, neighbours = bands.gap_widths[i], bands.band_widths[i : i + 2]
    else:
        own, neighbours = bands.band_widths[i], bands.gap_widths[max(i - 1, 0) : i + 1]
    order = MIN_ORDER
    if neighbours.size:
        eps = 2.0 * float(neighbours.min()) / own
        order = max(order, int(math.ceil(REFINE_SAFETY / math.sqrt(2.0 * eps))))
    return order + order % 2


def per_frame_rule(bands, frame):
    """Reference: one frame's rule, graded panels sized by scalar arithmetic."""
    kind, i = frame
    order, panels = per_frame_order(bands, frame), []
    for b in (i + 1, i) if kind == "gap" else ():
        t = 2.0 * bands.band_widths[b] / bands.gap_widths[i]
        distance = math.log1p(t + math.sqrt(t * (2.0 + t)))
        panels.append(max(1, math.ceil(math.log2(2.0 * math.pi / distance))))
    if panels and PANEL_NODES * sum(panels) < order:
        return QuadratureRule.graded(tuple(panels))
    return QuadratureRule.chebyshev(order)


@pytest.mark.parametrize("pairs, n_max",
                         [*BATCH_SYSTEMS, ([[0.3, -1.0], [0.1, 0.0], [0.2, 1.0]], 6)])
def test_rules_of_all_frames_match_the_per_frame_loop(pairs, n_max):
    system = validate(IfsSystem.from_pairs(pairs))
    for n in range(n_max + 1):
        b = generate_bands(system, n)
        for kind, count in (("gap", b.n_gaps), ("band", b.n_bands)):
            assert refined_orders(b, kind).tolist() == [
                per_frame_order(b, (kind, i)) for i in range(count)], (n, kind)
            rules = frame_rules(b, kind)
            assert len(rules) == count
            assert all(rule is per_frame_rule(b, (kind, i)) for i, rule in enumerate(rules))


def test_refined_order_formula_and_parity(asym, trivial_band, monkeypatch):
    # generation 1 of the 4/5, 1/10 system: bands [-1, 0.6], [0.8, 1] and
    # the gap (0.6, 0.8); band 0 sees eps = 2 * 0.2 / 1.6 = 0.25
    b = generate_bands(asym, 1)
    assert refined_orders(b, "gap")[0] == MIN_ORDER
    with monkeypatch.context() as m:
        m.setattr(kernel_module, "MIN_ORDER", 1)
        assert refined_orders(b, "band")[0] == 26  # ceil(18 / sqrt(0.5))
        assert refined_orders(b, "band")[1] == 10  # eps = 2: 9, made even
        m.setattr(kernel_module, "MIN_ORDER", 2047)
        assert refined_orders(b, "gap")[0] == 2048
    b0, _ = trivial_band
    assert refined_orders(b0, "band")[0] == MIN_ORDER
    with pytest.raises(ValueError):
        refined_orders(b, "hole")


THIN_PAIRS = [[0.9, -1.0], [0.001, 1.0]]


def graded_gaps(system, n_max):
    """``(bands, i, rule)`` for every gap that takes a graded rule, n <= n_max."""
    for n in range(1, n_max + 1):
        b = generate_bands(system, n)
        for i, rule in enumerate(frame_rules(b, "gap")):
            if rule.panels:
                yield b, i, rule


class TestGradedRule:
    @pytest.mark.parametrize("m", [16, 17, 18])
    def test_gauss_legendre_matches_numpy(self, m):
        from numpy.polynomial.legendre import leggauss

        x, w = _gauss_legendre(m)
        ref_x, ref_w = leggauss(m)
        assert np.max(np.abs(x - ref_x)) <= 2e-16
        assert np.max(np.abs(w - ref_w)) <= 2e-15
        assert not x.flags.writeable and not w.flags.writeable

    def test_chebyshev_moments(self, asym):
        # (1/pi) int T_j / sqrt(1 - x^2) = delta_j0.  The pi/4-wide panels
        # next to pi/2 resolve cos(j theta) to roundoff up to j = 23 (j = 30
        # is off by 3e-12); the gap integrands, whose singularities all lie
        # at Re theta = 0 or pi, need far less of them
        rules = {rule.panels: rule for _, _, rule in graded_gaps(asym, 9)}
        assert len(rules) >= 3
        for rule in rules.values():
            theta = np.arccos(rule.nodes)
            for j in range(24):
                assert abs(rule.weights @ np.cos(j * theta) - (j == 0)) <= 1e-15, \
                    (rule.panels, rule.order, j)

    def test_layout(self):
        rule = QuadratureRule.graded((3, 2))
        assert rule.order == 5 * 16 and rule.panels == (3, 2)
        theta = np.arccos(rule.nodes)
        # panels [0, pi/8], [pi/8, pi/4], [pi/4, pi/2], [pi/2, 3pi/4], [3pi/4, pi]
        assert np.all(np.diff(theta) > 0)
        per_panel = rule.weights.reshape(5, 16).sum(axis=1)
        assert np.allclose(per_panel, [1 / 8, 1 / 8, 1 / 4, 1 / 4, 1 / 4], rtol=0, atol=1e-16)
        assert QuadratureRule.graded((3, 2)) is rule

    def test_picks_the_smaller_rule(self, asym, ternary):
        for system, n in ((asym, 9), (ternary, 9)):
            b = generate_bands(system, n)
            for rule, order in zip(frame_rules(b, "gap"), refined_orders(b, "gap")):
                assert rule.order <= order
                assert (rule.order == order) == (not rule.panels)
            assert [rule.order for rule in frame_rules(b, "band")] == \
                refined_orders(b, "band").tolist()
        # asym n=9: 89 316 Gauss-Chebyshev nodes on the gaps, 17 200 mixed
        b = generate_bands(asym, 9)
        assert refined_orders(b, "gap").sum() == 89316
        assert sum(rule.order for rule in frame_rules(b, "gap")) == 17200
        # the middle thirds keep Gauss-Chebyshev on every gap up to n = 6
        b = generate_bands(ternary, 6)
        assert not any(rule.panels for rule in frame_rules(b, "gap"))

    @pytest.mark.parametrize("pairs, n_max, tol", [([[0.8, -1.0], [0.1, 1.0]], 7, 1e-15),
                                                   (THIN_PAIRS, 4, 1e-12)])
    def test_matches_adaptive_oracle(self, pairs, n_max, tol):
        # away from the solution, so the integrals are O(0.1).  Beside a
        # band 9e-9 of its gap's width (thin system, n = 4) the node
        # positions' rounding alone moves any rule's value by ~5e-13
        system = validate(IfsSystem.from_pairs(pairs))
        seen = 0
        for b, i, rule in graded_gaps(system, n_max):
            gv = GapVariables(b, 0.5 * np.sin(np.arange(b.n_gaps) + 1.0))
            value = gap_integral(i, gv, rule)
            assert abs(value - adaptive_gap_oracle(i, b, gv)) <= tol, (b.generation, i)
            seen += 1
        assert seen >= 4

    def test_root_on_a_node_needs_no_other_rule(self, asym):
        # the root of the first graded gap on a node of its own rule: the
        # integrand there is 0, its true value, and the rule keeps its accuracy
        b, i, rule = next(graded_gaps(asym, 7))
        assert (b.generation, i, rule.order, rule.panels) == (5, 15, 160, (3, 7))
        lam = np.zeros(b.n_gaps)
        lam[i] = rule.nodes[rule.order // 3]
        gv = GapVariables(b, lam)
        assert abs(gap_integral(i, gv, rule) - adaptive_gap_oracle(i, b, gv)) <= 1e-15


@pytest.mark.parametrize("pairs, n", [([[1 / 3, -1.0], [1 / 3, 1.0]], 4),
                                      ([[0.8, -1.0], [0.1, 1.0]], 7)])
def test_jacobian_rows_reuse_the_residual_pass_bitwise(pairs, n):
    # per gap and per rule group: what the residual pass keeps is the
    # reduced kernel, and rows from it equal rows built afresh
    b = generate_bands(validate(IfsSystem.from_pairs(pairs)), n)
    gv = GapVariables(b, 0.3 * np.cos(np.arange(b.n_gaps)))
    keep = {}
    calls = list(enumerate(frame_rules(b, "gap")))
    calls += [(idx, rule) for rule, idx in kernel_module.rule_groups(b, "gap")]
    for i, rule in calls:
        gap_integral(i, gv, rule, keep=keep)
        kept_rule, reduced = keep[i]
        assert kept_rule is rule
        assert np.array_equal((rule.nodes - gv.lambdas[i, None]) * reduced.reshape(-1, rule.order),
                              np.reshape(kernel_grouped(rule.nodes, i, gv), (-1, rule.order)))
        assert np.array_equal(gap_jacobian_row(i, gv, rule, reduced),
                              gap_jacobian_row(i, gv, rule))


def group_values(b, gv, residual=gap_integral):
    """Residuals (by ``residual``), Jacobian rows and band measures by one
    call per rule group."""
    out = {"residual": np.empty(b.n_gaps), "row": np.empty((b.n_gaps, b.n_gaps)),
           "omega": np.empty(b.n_bands)}
    for rule, idx in kernel_module.rule_groups(b, "gap"):
        out["residual"][list(idx)] = residual(idx, gv, rule)
        out["row"][list(idx)] = gap_jacobian_row(idx, gv, rule)
    for rule, idx in kernel_module.rule_groups(b, "band"):
        out["omega"][list(idx)] = band_integral(idx, gv, rule)
    return out


@pytest.mark.parametrize("pairs, n_max", BATCH_SYSTEMS)
def test_group_calls_equal_per_index_calls(pairs, n_max):
    system = validate(IfsSystem.from_pairs(pairs))
    for n in range(1, n_max + 1):
        b = generate_bands(system, n)
        gv = GapVariables(b, 0.4 * np.sin(np.arange(b.n_gaps) + 0.5))
        got = group_values(b, gv)
        gap_rules, band_rules = frame_rules(b, "gap"), frame_rules(b, "band")
        want = {
            "residual": [gap_integral(i, gv, r) for i, r in enumerate(gap_rules)],
            "row": [gap_jacobian_row(i, gv, r) for i, r in enumerate(gap_rules)],
            "omega": [band_integral(i, gv, r) for i, r in enumerate(band_rules)],
        }
        for key, values in want.items():
            values = np.array(values)
            assert np.all(np.abs(got[key] - values) <= 1e-15 * np.abs(values)), (n, key)
        nodes = QuadratureRule.chebyshev(64).nodes
        rows = np.arange(b.n_bands)[::3]
        per_band = np.array([kernel_band(nodes, i, gv) for i in rows])
        batched = kernel_band(nodes, rows, gv)
        assert np.all(np.abs(batched - per_band) <= 1e-15 * per_band), n
        # one group per rule, the rules those of every frame
        for kind, rules in (("gap", gap_rules), ("band", band_rules)):
            groups = kernel_module.rule_groups(b, kind)
            assert sorted(i for _, idx in groups for i in idx) == list(range(len(rules)))
            assert all(rules[i] is rule for rule, idx in groups for i in idx)
            assert len({id(rule) for rule, _ in groups}) == len(groups)


def test_group_calls_of_the_log_evaluator(asym):
    b = generate_bands(asym, 4)
    gv = GapVariables(b, 0.4 * np.sin(np.arange(b.n_gaps) + 0.5))
    logged = group_values(b, gv, log_space_gap_integral)["residual"]
    want = [log_space_gap_integral(i, gv, rule)
            for i, rule in enumerate(frame_rules(b, "gap"))]
    assert np.array_equal(logged, want)
    assert np.max(np.abs(logged - group_values(b, gv)["residual"])) <= 1e-13


@pytest.mark.parametrize("chunk", [1, 100, 5000])
def test_chunk_size_moves_no_value(asym, monkeypatch, chunk):
    # chunks of frames, factors and nodes, and the solver's blocks of
    # Jacobian rows, only bound the temporaries
    b = generate_bands(asym, 6)
    gv = GapVariables(b, 0.4 * np.sin(np.arange(b.n_gaps) + 0.5))
    want = group_values(b, gv)
    series = kernel_band(QuadratureRule.chebyshev(64).nodes, np.arange(b.n_bands), gv)
    jac = solver.jacobian(gv)
    monkeypatch.setattr(kernel_module, "BLOCK_ELEMS", chunk)
    got = group_values(b, gv)
    for key in want:
        assert np.array_equal(got[key], want[key]), key
    assert np.array_equal(
        kernel_band(QuadratureRule.chebyshev(64).nodes, np.arange(b.n_bands), gv), series)
    assert np.array_equal(solver.jacobian(gv), jac)


@pytest.mark.parametrize("nodes", [1, 8191, 8192])
def test_a_row_within_one_piece_is_one_dot(nodes):
    # such a row takes the one BLAS dot it always took
    rng = np.random.default_rng(nodes)
    f, w = rng.standard_normal((3, nodes)), rng.random(nodes)
    assert kernel_module._DOT_PIECE == 8192
    want = [np.matmul(row[None, :], w[:, None])[0, 0] for row in f]
    assert kernel_module._weighted_sums(f, w).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("nodes", [8193, 14232, 3 * 8192 + 5])
def test_a_longer_row_sums_its_pieces_in_order(nodes):
    # each piece stays below OpenBLAS's threaded dot, so the sum does not
    # depend on the BLAS thread count
    rng = np.random.default_rng(nodes)
    f, w = rng.standard_normal((3, nodes)), rng.random(nodes)
    piece = kernel_module._DOT_PIECE
    want = []
    for row in f:
        total = np.matmul(row[None, :piece], w[:piece, None])[0, 0]
        for s in range(piece, nodes, piece):
            total += np.matmul(row[None, s : s + piece], w[s : s + piece, None])[0, 0]
        want.append(total)
    assert kernel_module._weighted_sums(f, w).tobytes() == np.array(want).tobytes()


def test_roots_on_nodes_of_a_shared_rule(ternary):
    # the roots of gaps 2 and 5 on nodes of the rule every gap shares: the
    # batched residuals and rows are finite, and the residuals keep their
    # accuracy
    b = generate_bands(ternary, 3)
    rule = QuadratureRule.chebyshev(32)
    lam = np.zeros(b.n_gaps)
    lam[[2, 5]] = rule.nodes[[7, 20]]
    gv = GapVariables(b, lam)
    gaps = tuple(range(b.n_gaps))
    residuals = gap_integral(gaps, gv, rule)
    assert np.all(np.isfinite(residuals))
    assert np.all(np.isfinite(gap_jacobian_row(gaps, gv, rule)))
    finer = gap_integral(gaps, gv, QuadratureRule.chebyshev(64))
    assert np.max(np.abs(residuals - finer)) <= 1e-15


def worst_rule_error(sol):
    """Worst ``|Q_K f - Q_4K f| / Q_K |f|`` per kind over the Gauss-Chebyshev
    rules of a converged solution, ``K`` from ``refined_orders`` at the
    floor ``kernel.MIN_ORDER``: the gap integrands ``Z / sqrt|Y~|`` and the
    band densities, one batched kernel call per order.  Graded gap rules,
    which no floor sizes, are checked against the adaptive oracle instead."""
    b, gv = sol.vars.bands, sol.vars
    worst = {}
    for kind, kernel in (("gap", kernel_grouped), ("band", kernel_band)):
        orders = refined_orders(b, kind)
        plain = np.array([not rule.panels for rule in frame_rules(b, kind)], dtype=bool)
        worst[kind] = 0.0
        for k in set(orders[plain].tolist()):
            idx = np.flatnonzero(plain & (orders == k))
            sums = []
            for rule in (QuadratureRule.chebyshev(k), QuadratureRule.chebyshev(4 * k)):
                f = np.reshape(kernel(rule.nodes, idx, gv), (idx.size, rule.order))
                sums.append((f @ rule.weights, np.abs(f) @ rule.weights))
            (value, scale), (finer, _) = sums
            worst[kind] = max(worst[kind], float(np.max(np.abs(value - finer) / scale)))
    return worst


THREE_MAPS = [[0.3, -1.0], [0.1, 0.0], [0.2, 1.0]]


@pytest.fixture(scope="module")
def three_map_run():
    return solve_generations(validate(IfsSystem.from_pairs(THREE_MAPS)), 6, 1e-12)


@pytest.fixture(scope="module")
def converged_runs(ternary_run, asym_run, ternary, three_map_run):
    """Converged generations of ternary n <= 8, asym n <= 9, the three thin
    systems and a three-map system."""
    runs = {"ternary": list(ternary_run[1]), "asym": asym_run[1], "three maps": three_map_run}
    b8 = generate_bands(ternary, 8)
    runs["ternary"].append(solver.solve_generation(
        solver.warm_start(b8, runs["ternary"][-1]), 1e-13))
    for pairs, n_max in BATCH_SYSTEMS[2:]:
        runs[str(pairs)] = solve_generations(
            validate(IfsSystem.from_pairs(pairs)), n_max, 1e-12)
    return runs


def test_rules_at_the_floor_agree_with_four_times_the_order(converged_runs):
    # every Gauss-Chebyshev gap residual and band measure of the solver's
    # rules is at roundoff against rules of 4x the order (worst 1.7e-15,
    # three-map n = 6)
    for name, sols in converged_runs.items():
        for s in sols:
            worst = worst_rule_error(s)
            assert max(worst.values()) <= 2e-15, (name, s.generation, worst)


def test_a_floor_of_eight_loses_digits_on_three_map_bands(three_map_run, monkeypatch):
    # the guard of MIN_ORDER: at 8 the narrowest-neighbour bound alone
    # under-resolves the bands of the three-map system (3.2e-15 at n = 6)
    monkeypatch.setattr(kernel_module, "MIN_ORDER", 8)
    worst = max(worst_rule_error(s)["band"] for s in three_map_run)
    assert worst > 2e-15
