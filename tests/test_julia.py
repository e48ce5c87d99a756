"""Exact references at depth: the real Julia sets of p(x) = x**2 - c.

The band systems of ``tests/conftest.py`` (:func:`julia_bands`) carry
closed-form equilibrium measures, solved here by the unchanged
``hierarchical_solve`` for c = 3 and 2.2 and n <= 8.  Each tolerance is a
multiple of an ulp model, set from the worst case measured over both c and
every n: ``EPS * max(1, |x|)`` in position, that over the band width for a
band's relative mass, ``EPS`` for a potential summed from O(1) terms.
"""

import math

import numpy as np
import pytest

from equimeasure import mean_potential_on_attractor_points, potential_at, sample_points
from tests.conftest import inverse_images, julia_beta

EPS = np.finfo(float).eps
# measured worst: 3.0 model units (c = 2.2, n = 6)
OMEGA_ULPS = 8
# measured worst: 34 ulp (c = 3, n = 7); the Newton stopping rule, not roundoff
ROOT_ULPS = 100
# measured worst: 0.77 EPS (c = 2.2, n = 5..8)
MEAN_EPS = 4
# the point path's coarseness at 2048 nodes halves with each generation:
# measured 2.1e-4 at n = 1 to 1.7e-6 at n = 8, at most 4.4e-4 * 2**-n
GAUGE = 1e-3


@pytest.mark.parametrize("c", [3.0, 2.2])
class TestJuliaSets:
    def test_every_band_has_mass_two_to_the_minus_n(self, julia_runs, c):
        for s in julia_runs[c]:
            b, w = s.vars.bands, 2.0 ** -s.generation
            ends = np.maximum(1.0, np.maximum(np.abs(b.alphas), np.abs(b.betas)))
            assert np.all(np.abs(s.omegas - w) <= w * OMEGA_ULPS * EPS * ends / b.band_widths), \
                s.generation

    def test_roots_are_the_critical_points(self, julia_runs, c):
        # p**n' = 0 where p**k = 0 for some k < n: one point in each gap
        level, crit = np.array([0.0]), np.array([0.0])
        for s in julia_runs[c]:
            if s.generation > 1:
                level = inverse_images(c, level)
                crit = np.sort(np.concatenate([crit, level]))
            err = np.abs(s.vars.zetas - crit)
            assert np.all(err <= ROOT_ULPS * EPS * np.maximum(1.0, np.abs(crit))), s.generation

    def test_mean_potential_is_the_closed_form(self, julia_runs, rule2048, c):
        for s in julia_runs[c]:
            b, want = s.vars.bands, -(2.0 ** -s.generation) * math.log(julia_beta(c) / 2.0)
            got = mean_potential_on_attractor_points(s, b, 2 * b.n_bands, rule2048)
            assert abs(got - want) <= MEAN_EPS * EPS, s.generation

    def test_point_path_is_within_the_gauge(self, julia_runs, rule2048, c):
        for s in julia_runs[c]:
            b = s.vars.bands
            pts = sample_points(b, 2 * b.n_bands)
            gauge = np.abs(potential_at(pts, s, b, rule2048, method="nodes")
                           - potential_at(pts, s, b, rule2048))
            assert gauge.max() <= GAUGE * 2.0 ** -s.generation, s.generation
