"""Solver properties over random valid affine systems (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from equimeasure import IfsSystem, SolverConfig, hierarchical_solve, validate

TOL = 1e-13


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
    refined = hierarchical_solve(ifs, n_max, SolverConfig(residual_tol=TOL))
    uniform = hierarchical_solve(ifs, n_max, SolverConfig(
        residual_tol=TOL, quadrature_order=2048, auto_refine=False))
    for s, u in zip(refined, uniform):
        bands = s.vars.bands
        assert abs(float(np.sum(s.omegas)) - 1.0) <= 1e-12
        assert np.all(s.vars.zetas > bands.gap_los)
        assert np.all(s.vars.zetas < bands.gap_his)
        assert np.max(np.abs(s.lambdas - u.lambdas)) <= 1e-10
