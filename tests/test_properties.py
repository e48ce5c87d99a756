"""Solver and analytics properties over random valid affine systems (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from equimeasure import (
    GapVariables,
    IfsSystem,
    QuadratureRule,
    generate_bands,
    hierarchical_solve,
    integrated_measure_at,
    potential_at,
    sample_points,
    validate,
)
from equimeasure.kernel import gap_integral, gap_jacobian_row, kernel_grouped, refined_rules
from tests.conftest import uniform_rules

TOL = 1e-13
# on-set spread of the potential (over 80 random examples the worst was
# 2.7e-13) and the largest decrease allowed between grid values of the
# integrated measure, which clamps each band to its plateaus: none
SPREAD = 1e-11
STEP = 0.0


@st.composite
def systems(draw):
    """A valid system with 2 or 3 maps on the hull [-1, 1] and a depth n <= 4.

    Image widths and the gaps between the images are drawn within a factor
    of 5 of each other, then scaled to fill the hull.  The image of [-1, 1]
    under ``s -> delta * (s - gamma) + gamma`` is [lo, lo + 2 delta] when
    ``gamma = (lo + delta) / (1 - delta)``.
    """
    m = draw(st.integers(2, 3))
    widths = draw(st.lists(st.floats(0.2, 1.0), min_size=m, max_size=m))
    gaps = draw(st.lists(st.floats(0.2, 1.0), min_size=m - 1, max_size=m - 1))
    scale = 2.0 / (sum(widths) + sum(gaps))
    pairs, lo = [], -1.0
    for j, width in enumerate(widths):
        delta = 0.5 * width * scale
        pairs.append((delta, (lo + delta) / (1.0 - delta)))
        lo += 2.0 * delta + (gaps[j] * scale if j < m - 1 else 0.0)
    return validate(IfsSystem.from_pairs(pairs)), draw(st.integers(1, 4))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(systems())
def test_measure_roots_and_order_paths(case):
    ifs, n_max = case
    refined = hierarchical_solve(ifs, n_max, TOL)
    with uniform_rules(2048):
        uniform = hierarchical_solve(ifs, n_max, TOL)
    for s, u in zip(refined, uniform):
        bands = s.vars.bands
        assert abs(float(np.sum(s.omegas)) - 1.0) <= 1e-12
        assert np.all(s.vars.zetas > bands.gap_los)
        assert np.all(s.vars.zetas < bands.gap_his)
        assert np.max(np.abs(s.lambdas - u.lambdas)) <= 1e-10


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(systems())
def test_potential_constant_on_the_set_and_staircase_monotone(case):
    ifs, n_max = case
    rule = QuadratureRule.chebyshev(64)
    for s in hierarchical_solve(ifs, n_max, TOL):
        bands = s.vars.bands
        xs = np.concatenate([sample_points(bands, 4 * bands.n_bands), bands.alphas,
                             bands.betas])
        v = np.array([potential_at(float(x), s, bands, rule) for x in xs])
        assert v.max() - v.min() <= SPREAD, (bands.generation, v.max() - v.min())
        grid = np.linspace(bands.hull.lo, bands.hull.hi, 201)
        omegas = np.array([integrated_measure_at(float(x), s, bands) for x in grid])
        assert np.min(np.diff(omegas)) >= -STEP, (bands.generation, np.min(np.diff(omegas)))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(systems(), st.data())
def test_a_root_on_a_node_gives_the_mean_of_its_neighbours(case, data):
    # a gap's root on a node of its own rule is no singularity of the paired
    # product: its residual and Jacobian row are the mean of those at the
    # two neighbouring floats of the root.  Only lambda_i moves: moving every
    # root by one ulp re-rounds the other roots in original coordinates
    ifs, n = case
    b = generate_bands(ifs, n)
    lam = np.array(data.draw(st.lists(st.floats(-0.9, 0.9), min_size=b.n_gaps,
                                      max_size=b.n_gaps)))
    i = data.draw(st.integers(0, b.n_gaps - 1))
    rule = refined_rules(b, "gap")[i]
    node = rule.nodes[data.draw(st.integers(0, rule.order - 1))]

    def at(root):
        gv = GapVariables(b, np.where(np.arange(b.n_gaps) == i, root, lam))
        return gv, gap_integral(i, gv, rule), gap_jacobian_row(i, gv, rule)

    gv, residual, row = at(node)
    (_, r_lo, row_lo), (_, r_hi, row_hi) = (at(np.nextafter(node, end))
                                            for end in (-1.0, 1.0))
    scale = rule.weights @ np.abs(kernel_grouped(rule.nodes, i, gv))
    assert abs(residual - 0.5 * (r_lo + r_hi)) <= 1e-15 * scale
    assert np.max(np.abs(row - 0.5 * (row_lo + row_hi))) <= 1e-15 * np.max(np.abs(row))


@st.composite
def mirror_systems(draw):
    """A system equal to its own mirror image ``s -> -s`` on the hull [-1, 1],
    with a depth n <= 4.

    The outer maps fix -1 and 1 with one ratio; a third map, if drawn, fixes
    0.  Each map's mirror image is a map of the system.
    """
    delta = draw(st.floats(0.1, 0.4))
    pairs = [(delta, -1.0), (delta, 1.0)]
    if draw(st.booleans()):
        pairs.append((draw(st.floats(0.2, 0.8)) * (1.0 - 2.0 * delta), 0.0))
    return validate(IfsSystem.from_pairs(pairs)), draw(st.integers(1, 4))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(mirror_systems())
def test_mirror_symmetric_systems_give_antisymmetric_roots(case):
    ifs, n_max = case
    for s in hierarchical_solve(ifs, n_max, TOL):
        # gap i mirrors gap N - 2 - i, so lambda_i = -lambda_{N-2-i}
        assert np.max(np.abs(s.lambdas + s.lambdas[::-1])) <= 1e-13, s.generation
