"""Derived quantities of a converged equilibrium measure.

Everything here consumes an :class:`~equimeasure.solver.EquilibriumSolution`
together with its band system: the integrated measure (a devil's staircase
in the Cantor limit), the logarithmic potential ``V(z) = -int log|z - s|
dsigma(s)``, per-generation capacities ``C = exp(-V)`` read off the constant
potential on the set, and the exponential extrapolation of capacities to
the attractor.

Every density value here (the node table, the singular band term and the
integrated measure) comes from the band-frame paired product of
:func:`~equimeasure.kernel.kernel_band`; no log-space kernel is evaluated.
The node table (positions and weighted densities of every band) is built
once per solution and quadrature order and memoised, read-only, on the
solution, so the mean path, the point path and every ``potential_at`` call
share it.  One routine evaluates every real potential of ``potential_at``
and of the mean path: it streams the dense ``points x nodes`` log sum
through one reused row-block buffer and then corrects the shares of the
bands that a point lies on or next to.

Potentials of points lying on a band need care: the integrand has a
logarithmic singularity inside the quadrature interval, and a plain node
sum is only good to O(1/K) there.  The hosting band's integral is
therefore split at the singularity, the singular part is subtracted
analytically (its moment against the Chebyshev weight is the constant
``-pi log 2``, the arcsine measure's potential on ``[-1, 1]``; no Clausen
function is needed) and the smooth remainder is integrated with
Gauss-Legendre panels; at the band ends, where the mirrored log term is
singular too, the same subtraction covers both.  A real point just outside
a band has the same trouble in a milder form (the singularity sits just
outside the interval), and that band's end value is subtracted in the same
way.  The plain node sum remains available as ``method="nodes"``; its
error is the classical coarseness gauge, shrinking from ~2e-4 at
generation 1 to ~3e-6 at generation 7 for the middle-third system at 2048
nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import least_squares

from .geometry import BandSystem
from .kernel import QuadratureRule, _from_frame, kernel_band
# Imported so that ``analytics.kernel_log_magnitude`` stays a patch point:
# the traced benchmark (bench/tracer.py) counts log-space calls made from
# here, and that count is meant to read 0.
from .kernel import kernel_log_magnitude  # noqa: F401
from .solver import EquilibriumSolution

# Sample points closer to a quadrature node than this fraction of the band
# width make the plain node sum meaningless; the rule order is bumped.
NODE_COLLISION_RTOL = 1e-12

# A real point outside a band by less than this fraction of the band's
# width gets the near-end treatment for that band.  The node sum's error
# decays like exp(-2 K sqrt(2 delta)) in the frame distance delta =
# 2 d / width; at this distance it is 4e-14 for K = 64 on the middle-third
# system, and roundoff for K >= 256.
NEAR_BAND_RTOL = 1e-2

# Sample points per block of the mean path's dense log sum; one buffer of
# this many rows (16 MB at 128 bands of 2048 nodes) is reused for every
# block.  Keep it a multiple of 4: with OpenBLAS, a row's matrix-vector
# value is the same in blocks of 4, 8, 16 or 32 rows, but not of 1 to 3.
_Z_CHUNK = 8

# The capacity extrapolation fits three parameters and needs one more
# generation than that to be a fit.
MIN_CAPACITY_GENERATIONS = 4


class OutOfHull(ValueError):
    """Point lies outside the convex hull of the band system."""


class PersistentCollision(RuntimeError):
    """A point kept colliding with quadrature nodes after raising the order."""


class NonMonotoneInput(ValueError):
    """Successive differences change sign or vanish; no decaying exponential fits."""


@dataclass(frozen=True)
class CapacityEstimate:
    """Per-generation capacities and their extrapolation to the attractor."""

    per_generation: tuple
    fit: tuple
    extrapolated_capacity: float


# ---------------------------------------------------------------------------
# densities and plain node sums


def _density_table(solution, bands, rule):
    """Node positions and weighted densities of every band.

    Returns ``(positions, weighted)`` with shape ``(n_bands, K)``; the
    potential at ``z`` is ``-sum weighted * log|z - positions|``.  The
    table is built on the first call for a solution and ``rule.order``
    (one order names one Chebyshev rule) and memoised on the solution; the
    arrays are read-only, since every later caller shares them.
    """
    table = solution._density_tables.get(rule.order)
    if table is None:
        n = bands.n_bands
        positions = np.empty((n, rule.order))
        weighted = np.empty((n, rule.order))
        for i in range(n):
            lo, hi = bands.alphas[i], bands.betas[i]
            positions[i] = _from_frame(rule.nodes, lo, hi)
            weighted[i] = rule.weights * kernel_band(rule.nodes, i, bands, solution.vars)
        positions.flags.writeable = False
        weighted.flags.writeable = False
        table = solution._density_tables[rule.order] = (positions, weighted)
    return table


def _plain_sum(z, positions, weighted):
    """``-sum w * log|z - s|`` for one (possibly complex) point."""
    x, y = float(np.real(z)), float(np.imag(z))
    dist_sq = (x - positions) ** 2 + y * y
    return float(-0.5 * np.sum(weighted * np.log(dist_sq)))


def _hosts(bands: BandSystem, xs) -> np.ndarray:
    """Index of the band containing each of ``xs`` (edges included), else -1."""
    xs = np.asarray(xs, dtype=float)
    i = np.searchsorted(bands.alphas, xs, side="right") - 1
    inside = (i >= 0) & (xs <= bands.betas[np.maximum(i, 0)])
    return np.where(inside, i, -1)


# ---------------------------------------------------------------------------
# potential


_PANEL_NODES, _PANEL_WEIGHTS = leggauss(128)


def _panel(a, b):
    mid, half = 0.5 * (b + a), 0.5 * (b - a)
    return mid + half * _PANEL_NODES, half * _PANEL_WEIGHTS


def _theta_of(x: float, lo: float, hi: float) -> float:
    """Angle with ``cos(theta) = psi(x)`` on a band, free of cancellation.

    ``tan(theta/2) = sqrt((hi - x)/(x - lo))``, which is exact at the band
    endpoints, unlike ``arccos`` of the rounded frame coordinate (whose
    sqrt(eps)-size angle error would leak into partial integrals).
    """
    return 2.0 * math.atan2(math.sqrt(max(hi - x, 0.0)), math.sqrt(max(x - lo, 0.0)))


def _singular_band_potentials(xs, b, solution, bands) -> np.ndarray:
    """Band ``b`` contributions to ``V(x)`` for points ``xs`` on the band itself.

    With ``x = psi(s)`` the frame coordinate, ``|z - s| = |c - x| / A`` for
    ``A`` the frame slope, so in the angular variable the band integral is
    ``(1/pi) int_0^pi F(theta) * (log A - log|cos theta - c|) dtheta``.
    The log splits into ``-log 2`` and two ``-log|sin((theta -+
    theta_z)/2)|`` terms.  Both are singular somewhere on ``[0, pi]``: the
    minus term at ``theta_z``, the plus term at the band ends when
    ``theta_z`` is 0 or pi.  ``F(theta_z)`` is subtracted under each, and
    the two moments are added back together.  Their sum is ``2 pi log 2``
    whatever ``theta_z``: the arcsine measure of ``[-1, 1]`` has constant
    potential ``log 2`` there, so ``int_0^pi log|cos theta - c| dtheta =
    -pi log 2`` for every ``c`` in ``[-1, 1]``.  Panels split at
    ``theta_z`` integrate the smooth remainders.  One kernel call
    evaluates ``F`` at the panel nodes and at ``theta_z`` of every point;
    each value is then finished on its own.
    """
    lo, hi = bands.alphas[b], bands.betas[b]
    theta_zs = [_theta_of(float(x), lo, hi) for x in xs]
    panels = []
    for theta_z in theta_zs:
        pieces = [(a, bb) for a, bb in ((0.0, theta_z), (theta_z, math.pi))
                  if bb - a > 1e-300]
        panels.append((np.concatenate([_panel(a, bb)[0] for a, bb in pieces]),
                       np.concatenate([_panel(a, bb)[1] for a, bb in pieces])))

    frame_pts = [np.cos(thetas) for thetas, _ in panels]
    frame_pts.append(np.array([math.cos(t) for t in theta_zs]))
    f_all = kernel_band(np.concatenate(frame_pts), b, bands, solution.vars)
    f_zs = f_all[f_all.size - len(theta_zs):]

    log2 = math.log(2.0)
    moment = 2.0 * math.pi * log2
    log_a = math.log(2.0 / (hi - lo)) - log2
    values = np.empty(len(theta_zs))
    start = 0
    for j, (theta_z, (thetas, wts)) in enumerate(zip(theta_zs, panels)):
        f_nodes = f_all[start:start + thetas.size]
        start += thetas.size
        f_z = float(f_zs[j])
        i_const = log_a * float(wts @ f_nodes)
        i_plus = float(
            wts @ ((f_nodes - f_z) * (-np.log(np.abs(np.sin(0.5 * (thetas + theta_z))))))
        )
        i_minus = float(
            wts @ ((f_nodes - f_z) * (-np.log(np.abs(np.sin(0.5 * (thetas - theta_z))))))
        )
        values[j] = (i_const + i_plus + i_minus + f_z * moment) / math.pi
    return values


def _acosh1p(t: float) -> float:
    """``acosh(1 + t)`` for ``t >= 0``, free of cancellation for small ``t``."""
    return math.log1p(t + math.sqrt(t * (2.0 + t)))


_GRADED_NODES, _GRADED_WEIGHTS = leggauss(16)


def _graded_panels(scale_0: float, scale_pi: float):
    """Gauss-Legendre nodes and weights on ``[0, pi]`` graded toward both ends.

    Panels halve from ``pi/2`` toward each end until they are at most half
    the distance (``scale_0`` at 0, ``scale_pi`` at pi) of the nearest
    singularity of the integrand there.  Every panel then sees that
    singularity at least one panel length away, where 16 nodes are exact
    to roundoff.
    """
    def cuts(scale):
        out = [0.5 * math.pi]
        while out[-1] > 0.5 * scale:
            out.append(0.5 * out[-1])
        return out

    edges = [0.0, *cuts(scale_0)[::-1], *(math.pi - c for c in cuts(scale_pi)[1:]), math.pi]
    a, b = np.array(edges[:-1]), np.array(edges[1:])
    mid, half = 0.5 * (b + a), 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * _GRADED_NODES
    weights = half[:, None] * _GRADED_WEIGHTS
    return nodes.ravel(), weights.ravel()


def _near_band_potential(x: float, i: int, solution, bands) -> float:
    """Band ``i`` contribution to ``V(x)`` for a real ``x`` just outside it.

    Let ``phi`` be the angle from the band end nearer ``x`` and ``delta =
    2 d / (hi - lo)`` the frame distance of ``x`` from that end; then
    ``|cos theta - c| = 2 sin(phi/2)**2 + delta``, with nothing to cancel.
    The log of it is nearly singular at ``phi = 0``, so ``F`` at that end
    is subtracted under it and its exact moment ``pi * (acosh|c| - log 2)``
    is added back.  The smooth remainder is integrated on panels graded
    toward each end, down to the nearest singularity there: the log's at
    ``acosh(1 + delta)``, or the neighbouring band's endpoint, where ``F``
    has its square-root branch point.
    """
    lo, hi = bands.alphas[i], bands.betas[i]
    width = hi - lo
    above = x > hi
    delta = 2.0 * ((x - hi) if above else (lo - x)) / width
    gaps = bands.gap_widths
    g_lo = gaps[i - 1] if i > 0 else math.inf
    g_hi = gaps[i] if i < bands.n_gaps else math.inf
    g_near, g_far = (g_hi, g_lo) if above else (g_lo, g_hi)
    scale_near = min(_acosh1p(delta), _acosh1p(2.0 * g_near / width))
    phis, wts = _graded_panels(scale_near, _acosh1p(2.0 * g_far / width))

    side = 1.0 if above else -1.0
    f = kernel_band(np.append(side * np.cos(phis), side), i, bands, solution.vars)
    f_nodes, f_end = f[:-1], float(f[-1])
    i_f = float(wts @ f_nodes)
    i_rem = float(wts @ ((f_nodes - f_end) * np.log(2.0 * np.sin(0.5 * phis) ** 2 + delta)))
    moment = math.pi * (_acosh1p(delta) - math.log(2.0))
    return (math.log(2.0 / width) * i_f - i_rem - f_end * moment) / math.pi


def _real_potentials(xs, solution: EquilibriumSolution, bands: BandSystem,
                     rule: QuadratureRule) -> np.ndarray:
    """``V(x)`` at real points ``xs``, accurate on and next to the bands.

    Each point's plain node sum over all bands is taken from the solution's
    memoised node table in blocks of ``_Z_CHUNK`` points, streamed through
    one reused buffer.  The share of the band hosting a point is then
    replaced by its singularity-subtracted value, computed for all points
    of one host band together, and the share of every band that the point
    lies outside of by less than ``NEAR_BAND_RTOL`` of its width by that
    band's near-end value.
    """
    xs = np.asarray(xs, dtype=float)
    positions, weighted = _density_table(solution, bands, rule)
    flat_pos = positions.ravel()
    flat_w = weighted.ravel()

    # Plain node sum over all bands at once, -sum w * log|x - s| per point.
    values = np.empty(xs.size)
    tiny = 1e-300
    buf = np.empty((min(_Z_CHUNK, xs.size), flat_pos.size))
    for start in range(0, xs.size, _Z_CHUNK):
        sl = slice(start, min(start + _Z_CHUNK, xs.size))
        block = buf[: sl.stop - start]
        np.subtract(xs[sl, None], flat_pos, out=block)
        np.abs(block, out=block)
        np.maximum(block, tiny, out=block)
        np.log(block, out=block)
        values[sl] = -(block @ flat_w)

    def share(j, i):
        return -float(np.log(np.maximum(np.abs(xs[j] - positions[i]), tiny)) @ weighted[i])

    hosts = _hosts(bands, xs)
    for b in np.unique(hosts[hosts >= 0]).tolist():
        on_b = np.flatnonzero(hosts == b)
        singular = _singular_band_potentials(xs[on_b], b, solution, bands)
        for j, v in zip(on_b, singular):
            values[j] = values[j] - share(j, b) + v

    outside = np.maximum(bands.alphas - xs[:, None], xs[:, None] - bands.betas)
    near = (outside > 0.0) & (outside < NEAR_BAND_RTOL * bands.band_widths)
    for j, i in zip(*np.nonzero(near)):
        values[j] = values[j] - share(j, i) + _near_band_potential(
            float(xs[j]), int(i), solution, bands)
    return values


def _collides(z, positions, bands) -> bool:
    dist = np.abs(float(np.real(z)) - positions)
    return bool(np.any(dist.min(axis=1) < NODE_COLLISION_RTOL * bands.band_widths))


def potential_at(z, solution: EquilibriumSolution, bands: BandSystem,
                 rule: QuadratureRule, method: str = "auto") -> float:
    """Logarithmic potential of the generation's equilibrium measure at ``z``.

    ``z`` may be real or complex.  With ``method="auto"`` a real ``z``
    lying on a band gets the singularity-subtracted treatment for that band
    (within 1e-12 of the closed form at generation 1, band ends included),
    and so does every band that a real ``z`` lies outside of by less than
    ``NEAR_BAND_RTOL`` of its width; every other contribution is a plain
    Chebyshev node sum (see :func:`_real_potentials`).  A complex ``z``
    gets plain node sums throughout.  ``method="nodes"`` forces
    plain node sums everywhere; if ``z`` falls within ``1e-12`` of a node
    (relative to the band width) the order is bumped to ``K+1`` then
    ``K+3``, and :class:`PersistentCollision` is raised when all attempts
    collide.  The node table of each order is built once per solution
    (see :func:`_density_table`).
    """
    if method not in ("auto", "nodes"):
        raise ValueError(f"unknown method {method!r}")
    z_c = complex(z)
    on_axis = z_c.imag == 0.0

    if method == "auto" and on_axis:
        return float(_real_potentials([z_c.real], solution, bands, rule)[0])

    for bump in (0, 1, 3):
        attempt = QuadratureRule.chebyshev(rule.order + bump) if bump else rule
        positions, weighted = _density_table(solution, bands, attempt)
        if on_axis and _collides(z_c, positions, bands):
            continue
        return _plain_sum(z_c, positions, weighted)
    raise PersistentCollision(
        f"point {z!r} collides with quadrature nodes at orders "
        f"{rule.order}, {rule.order + 1}, {rule.order + 3}"
    )


def sample_points(bands: BandSystem, count: int) -> np.ndarray:
    """Deterministic sample points spread over the bands.

    ``count`` points are split as evenly as possible over the bands (the
    first ``count % n_bands`` bands receive one extra) and placed at the
    images of Chebyshev nodes inside each band, so they avoid band edges
    and are reproducible.  Points chosen in a deep generation lie inside
    every coarser generation's bands as well.
    """
    n = bands.n_bands
    if count < n:
        raise ValueError(f"need at least one point per band ({n}), got {count}")
    base, extra = divmod(count, n)
    chunks = []
    for i in range(n):
        c = base + (1 if i < extra else 0)
        k = np.arange(1, c + 1)
        nodes = np.cos((2 * k - 1) * np.pi / (2 * c))
        chunks.append(_from_frame(nodes, bands.alphas[i], bands.betas[i]))
    return np.concatenate(chunks)


def mean_potential_on_attractor_points(solution: EquilibriumSolution, bands: BandSystem,
                                       sample_count: int, rule: QuadratureRule,
                                       sample_bands: BandSystem | None = None) -> float:
    """Arithmetic mean of the potential over deterministic on-set points.

    ``sample_bands`` names the (usually deepest solved) generation whose
    bands carry the points; since generations are nested, the same points
    serve every coarser generation.  The points are evaluated together by
    :func:`_real_potentials`, the routine behind every real
    ``potential_at`` value.
    """
    pts = sample_points(sample_bands or bands, sample_count)
    if np.any(_hosts(bands, pts) < 0):
        raise OutOfHull("sample points must lie on the band system")
    return float(np.mean(_real_potentials(pts, solution, bands, rule)))


# ---------------------------------------------------------------------------
# integrated measure


_THETA_NODES_CACHE: dict = {}


def integrated_measure_at(x: float, solution: EquilibriumSolution, bands: BandSystem,
                          theta_order: int = 64) -> float:
    """Measure of ``[hull.lo, x]`` under the equilibrium measure.

    Constant on every gap (the plateau heights are the cumulative band
    measures); inside a band the partial integral is done in the angular
    variable ``s = psi^{-1}(cos(theta))``, which removes the inverse-
    square-root endpoint behaviour and leaves a smooth integrand for a
    fixed Gauss-Legendre rule.
    """
    h = bands.hull
    if not h.lo <= x <= h.hi:
        raise OutOfHull(f"{x} outside [{h.lo}, {h.hi}]")
    i = int(_hosts(bands, x))
    if i < 0:
        g = int(np.searchsorted(bands.gap_los, x, side="right")) - 1
        return float(solution.Omegas[g])

    below = float(solution.Omegas[i - 1]) if i > 0 else 0.0
    lo, hi = bands.alphas[i], bands.betas[i]
    theta_x = _theta_of(x, lo, hi)
    if theta_order not in _THETA_NODES_CACHE:
        _THETA_NODES_CACHE[theta_order] = leggauss(theta_order)
    nodes, weights = _THETA_NODES_CACHE[theta_order]
    mid, half = 0.5 * (math.pi + theta_x), 0.5 * (math.pi - theta_x)
    thetas = mid + half * nodes
    f = kernel_band(np.cos(thetas), i, bands, solution.vars)
    return below + half * float(weights @ f) / math.pi


# ---------------------------------------------------------------------------
# capacity extrapolation


def fit_exponential(points) -> tuple[float, float, float]:
    """Fit ``f(n) = a + b * exp(-c n)`` through decaying data.

    Three consecutive equally spaced points admit the closed form
    ``exp(-c dn) = (y3 - y2) / (y2 - y1)``; more points are fitted least
    squares, seeded by the closed form on the last three.  Differences must
    keep one sign and contract, otherwise :class:`NonMonotoneInput` is
    raised.  Returns ``(a, b, c)`` with ``c > 0``.
    """
    pts = sorted((float(n), float(y)) for n, y in points)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    ns = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if np.unique(ns).size != ns.size:
        raise ValueError("points must have distinct n")

    diffs = np.diff(ys)
    if np.any(diffs == 0.0) or np.any(np.sign(diffs) != np.sign(diffs[0])):
        raise NonMonotoneInput("successive differences vanish or change sign")

    def closed_form(n3, y3):
        dn = n3[1] - n3[0]
        if abs((n3[2] - n3[1]) - dn) > 1e-12 * max(1.0, abs(dn)):
            raise ValueError("closed form needs equally spaced points")
        r = (y3[2] - y3[1]) / (y3[1] - y3[0])
        if not 0.0 < r < 1.0:
            raise NonMonotoneInput(f"difference ratio {r} is not a decay")
        c = -math.log(r) / dn
        b = (y3[1] - y3[0]) / (math.exp(-c * n3[1]) - math.exp(-c * n3[0]))
        a = y3[0] - b * math.exp(-c * n3[0])
        return a, b, c

    if len(pts) == 3:
        return closed_form(ns, ys)

    a0, b0, c0 = closed_form(ns[-3:], ys[-3:])

    def resid(p):
        return ys - (p[0] + p[1] * np.exp(-p[2] * ns))

    fit = least_squares(resid, x0=[a0, b0, c0],
                        bounds=([-np.inf, -np.inf, 1e-12], [np.inf, np.inf, np.inf]),
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    a, b, c = (float(v) for v in fit.x)
    return a, b, c


def capacity_estimate(solutions, bands_list, rule: QuadratureRule,
                      sample_count: int = 4096, mode: str = "mean",
                      point: float | None = None,
                      fit_window: int = 4) -> CapacityEstimate:
    """Capacities per generation and their extrapolation to the attractor.

    ``-log C`` of each generation is the constant potential on its bands,
    read either as the mean over deterministic sample points in the deepest
    generation (``mode="mean"``) or as the plain node-sum potential of one
    fixed point (``mode="point"``, reproducing the coarser single-point
    gauge).  The last ``fit_window`` generations feed the exponential fit;
    the extrapolated capacity is ``exp(-a)``.
    """
    if len(solutions) < MIN_CAPACITY_GENERATIONS:
        raise ValueError(f"need at least {MIN_CAPACITY_GENERATIONS} solved generations")
    if mode not in ("mean", "point"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "point" and point is None:
        raise ValueError("mode='point' needs a point")

    deepest = bands_list[-1]
    per_gen = []
    for sol, bands in zip(solutions, bands_list):
        if mode == "mean":
            v = mean_potential_on_attractor_points(sol, bands, sample_count, rule,
                                                   sample_bands=deepest)
        else:
            v = potential_at(point, sol, bands, rule, method="nodes")
        per_gen.append((sol.generation, v))

    ys = np.array([v for _, v in per_gen])
    if np.all(np.abs(np.diff(ys)) < 1e-12):
        a, b, c = float(ys[-1]), 0.0, math.inf
    else:
        a, b, c = fit_exponential(per_gen[-fit_window:])
    return CapacityEstimate(
        per_generation=tuple(per_gen),
        fit=(a, b, c),
        extrapolated_capacity=math.exp(-a),
    )
