"""Solver and analytics properties over random valid affine systems (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equimeasure import (
    GapVariables,
    IfsSystem,
    QuadratureRule,
    generate_bands,
    integrated_measure_at,
    potential_at,
    sample_points,
    solve_generation,
    validate,
)
from equimeasure import analytics
from equimeasure.analytics import _potentials
from equimeasure.kernel import (
    _from_frame,
    gap_integral,
    gap_jacobian_row,
    kernel_grouped,
)
from tests.conftest import density_table, frame_rules, solve_generations, uniform_rules

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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(systems())
def test_genealogy_indexes_the_generation_before(case):
    # every old gap has its parent's endpoints bitwise, and parents and
    # preimages index the gaps one generation down
    ifs, n_max = case
    prev = generate_bands(ifs, 0)
    for n in range(1, n_max + 2):
        b = generate_bands(ifs, n)
        old = b.parents >= 0
        assert np.all(b.parents < prev.n_gaps) and np.all(b.preimages < prev.n_gaps)
        assert np.count_nonzero(old) == prev.n_gaps
        assert np.array_equal(b.gap_los[old], prev.gap_los[b.parents[old]])
        assert np.array_equal(b.gap_his[old], prev.gap_his[b.parents[old]])
        assert np.array_equal(np.unique(b.parents[old]), np.arange(prev.n_gaps))
        prev = b


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(systems())
def test_measure_roots_and_order_paths(case):
    ifs, n_max = case
    refined = solve_generations(ifs, n_max, TOL)
    with uniform_rules(2048):
        uniform = solve_generations(ifs, n_max, TOL)
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
    for s in solve_generations(ifs, n_max, TOL):
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
    rule = frame_rules(b, "gap")[i]
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


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(systems())
def test_self_similar_and_parent_only_starts_agree(case):
    # against the parent-only start (a new gap at its midpoint, an old gap at
    # its parent's root): the same roots, and at most one more iteration.
    # Over 880 drawn (system, generation) cases 6 took one fewer and 3 one
    # more: two-map systems near touching (ratios 0.42-0.48) at n = 3, from
    # initial residuals half the parent-only ones.  The gain is at depth
    # (tests/test_solver.py)
    ifs, n_max = case
    sols = solve_generations(ifs, n_max, TOL)
    for prev, s in zip(sols, sols[1:]):
        b = s.vars.bands
        lam = np.where(b.parents >= 0, prev.lambdas[b.parents], 0.0)
        parent_only = solve_generation(GapVariables(b, lam), TOL)
        assert s.iterations_used <= parent_only.iterations_used + 1, b.generation
        assert np.max(np.abs(s.lambdas - parent_only.lambdas)) <= 1e-9, b.generation


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(systems(), st.data())
def test_stacked_point_path_matches_lone_calls(case, data):
    # every generation's point-path value is its own lone call's to the bit,
    # on and off the bands, at complex points and at a point placed on a node
    # of one generation's band; the order is bumped in exactly the generations
    # where a real point lies on a node, and the others keep order K
    ifs, n_max = case
    sols = solve_generations(ifs, max(n_max, 2), TOL)
    rule = QuadratureRule.chebyshev(data.draw(st.sampled_from([7, 16, 64])))
    g = data.draw(st.integers(0, len(sols) - 1))
    b = sols[g].vars.bands
    band = data.draw(st.integers(0, b.n_bands - 1))
    node = float(_from_frame(rule.nodes[data.draw(st.integers(0, rule.order - 1))],
                             b.alphas[band], b.betas[band]))
    deepest = sols[-1].vars.bands
    xs = np.concatenate([[node, deepest.alphas[0], -1.5, 2.0],
                         0.5 * (deepest.alphas + deepest.betas)[:3],
                         0.5 * (deepest.gap_los + deepest.gap_his)[:3]])

    def collides(s, pts):
        # a real point within the collision tolerance of any node of the table
        tol = analytics.NODE_COLLISION_RTOL * s.vars.bands.band_widths[:, None, None]
        pts = pts[pts.imag == 0.0].real
        return bool(np.any(np.abs(pts - density_table(s, rule)[0][:, :, None]) < tol))

    assert collides(sols[g], np.array([node]))
    built = []

    def recording(nodes, alphas, betas):
        # the generations whose node rows are built, with the order
        built.extend((nodes.size, h) for h, s in enumerate(sols) if np.any(
            (alphas[:, :1] == s.vars.bands.alphas) & (betas[:, :1] == s.vars.bands.betas)))
        return _from_frame(nodes, alphas, betas)

    for pts in (xs, np.concatenate([xs, [0.1 + 0.05j, node + 1e-9j]])):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(analytics, "_from_frame", recording)
            got = _potentials(pts, sols, rule)
        assert {h for order, h in built if order > rule.order} == {
            h for h, s in enumerate(sols) if collides(s, pts)}
        built.clear()
        for row, s in zip(got, sols):
            want = [potential_at(p, s, s.vars.bands, rule, method="nodes") for p in pts.tolist()]
            assert row.tolist() == want, s.generation


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
    for s in solve_generations(ifs, n_max, TOL):
        # gap i mirrors gap N - 2 - i, so lambda_i = -lambda_{N-2-i}
        assert np.max(np.abs(s.lambdas + s.lambdas[::-1])) <= 1e-13, s.generation
