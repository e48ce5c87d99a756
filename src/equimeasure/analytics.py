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

Potentials of points lying on a band need care: the integrand has a
logarithmic singularity inside the quadrature interval, and a plain node
sum is only good to O(1/K) there.  ``potential_at`` therefore splits the
hosting band's integral at the singularity, subtracts it analytically
(its moment against the Chebyshev weight is a closed form in the Clausen
function) and integrates the smooth remainder with Gauss-Legendre panels;
at the band ends, where the mirrored log term is singular too, the same
subtraction covers both.  The plain node sum remains available as
``method="nodes"``; its error is the classical coarseness gauge, shrinking
from ~2e-4 at generation 1 to ~3e-6 at generation 7 for the middle-third
system at 2048 nodes.
"""

from __future__ import annotations

import logging
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

log = logging.getLogger(__name__)

# Sample points closer to a quadrature node than this fraction of the band
# width make the plain node sum meaningless; the rule order is bumped.
NODE_COLLISION_RTOL = 1e-12

_Z_CHUNK = 32  # potential evaluation points processed per matrix block

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
class PotentialSample:
    """Potential value at one point for one generation."""

    point: complex
    generation: int
    value: float


@dataclass(frozen=True)
class CapacityEstimate:
    """Per-generation capacities and their extrapolation to the attractor."""

    per_generation: tuple
    fit: tuple
    extrapolated_capacity: float


# ---------------------------------------------------------------------------
# Clausen function


def _uhalf_cot_uhalf_minus_1(u):
    """``u/2 * cot(u/2) - 1`` with the removable singularity filled in."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-5
    safe = np.where(small, 1.0, u)
    direct = 0.5 * safe / np.tan(0.5 * safe) - 1.0
    series = -(u * u) / 12.0 - u**4 / 720.0
    return np.where(small, series, direct)


_CL_NODES, _CL_WEIGHTS = leggauss(48)


def _clausen2(theta):
    """Clausen function ``Cl2(theta) = -int_0^theta log|2 sin(t/2)| dt``.

    Accurate to ~1e-15 for ``theta`` in ``[0, pi]``; callers reduce other
    angles by symmetry, since the error grows to ~1e-8 near ``2*pi``.
    Vectorized.  Uses the analytic split ``Cl2(t) = t - t*log|2 sin(t/2)|
    + int_0^t (u/2*cot(u/2) - 1) du`` whose remaining integrand is
    analytic, so a fixed Gauss-Legendre rule nails it.
    """
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    # integral_0^t h(u) du = t * integral_0^1 h(t*v) dv
    v = 0.5 * (_CL_NODES + 1.0)
    w = 0.5 * _CL_WEIGHTS
    h = _uhalf_cot_uhalf_minus_1(t[:, None] * v[None, :])
    tail = t * (h @ w)
    s = 2.0 * np.sin(0.5 * t)
    out = np.where(t > 0.0, t - t * np.log(np.where(t > 0.0, s, 1.0)) + tail, 0.0)
    if np.isscalar(theta) or np.asarray(theta).ndim == 0:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# densities and plain node sums


def _band_density(i, bands, solution, nodes):
    """Kernel magnitude ``|Z|/sqrt|Y~|`` of band ``i`` at frame points."""
    return kernel_band(nodes, i, bands, solution.vars)


def _density_table(solution, bands, rule):
    """Node positions and weighted densities of every band.

    Returns ``(positions, weighted)`` with shape ``(n_bands, K)``; the
    potential at ``z`` is ``-sum weighted * log|z - positions|``.
    """
    n = bands.n_bands
    positions = np.empty((n, rule.order))
    weighted = np.empty((n, rule.order))
    for i in range(n):
        lo, hi = bands.alphas[i], bands.betas[i]
        positions[i] = _from_frame(rule.nodes, lo, hi)
        weighted[i] = rule.weights * _band_density(i, bands, solution, rule.nodes)
    return positions, weighted


def _plain_sum(z, positions, weighted):
    """``-sum w * log|z - s|`` for one (possibly complex) point."""
    x, y = float(np.real(z)), float(np.imag(z))
    dist_sq = (x - positions) ** 2 + y * y
    return float(-0.5 * np.sum(weighted * np.log(dist_sq)))


def _locate_band(bands: BandSystem, x: float) -> int | None:
    """Index of the band containing ``x`` (edges included), else None."""
    i = int(np.searchsorted(bands.alphas, x, side="right")) - 1
    if i >= 0 and x <= bands.betas[i]:
        return i
    return None


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


def _singular_band_potential(z, b, solution, bands):
    """Band ``b`` contribution to ``V(z)`` for ``z`` on the band itself.

    With ``x = psi(s)`` the frame coordinate, ``|z - s| = |c - x| / A`` for
    ``A`` the frame slope, so in the angular variable the band integral is
    ``(1/pi) int_0^pi F(theta) * (log A - log|cos theta - c|) dtheta``.
    The log splits into ``-log 2`` and two ``-log|sin((theta -+
    theta_z)/2)|`` terms.  Both are singular somewhere on ``[0, pi]``: the
    minus term at ``theta_z``, the plus term at the band ends when
    ``theta_z`` is 0 or pi.  ``F(theta_z)`` is subtracted under each, and
    their exact moments are added back: ``pi log 2 + Cl2(theta_z) + Cl2(pi
    - theta_z)`` for the minus term and, by ``Cl2(pi + t) = -Cl2(pi - t)``,
    ``pi log 2 - Cl2(theta_z) - Cl2(pi - theta_z)`` for the plus term.
    Panels split at ``theta_z`` integrate the smooth remainders.
    """
    lo, hi = bands.alphas[b], bands.betas[b]
    theta_z = _theta_of(float(z), lo, hi)
    c = math.cos(theta_z)

    pieces = [(a, bb) for a, bb in ((0.0, theta_z), (theta_z, math.pi)) if bb - a > 1e-300]
    thetas = np.concatenate([_panel(a, bb)[0] for a, bb in pieces])
    wts = np.concatenate([_panel(a, bb)[1] for a, bb in pieces])

    f_nodes = _band_density(b, bands, solution, np.cos(thetas))
    f_z = float(_band_density(b, bands, solution, np.array([c]))[0])

    log2 = math.log(2.0)
    i_const = (math.log(2.0 / (hi - lo)) - log2) * float(wts @ f_nodes)
    i_plus = float(
        wts @ ((f_nodes - f_z) * (-np.log(np.abs(np.sin(0.5 * (thetas + theta_z))))))
    )
    i_minus = float(
        wts @ ((f_nodes - f_z) * (-np.log(np.abs(np.sin(0.5 * (thetas - theta_z))))))
    )
    clausen = _clausen2(theta_z) + _clausen2(math.pi - theta_z)
    moment_minus = math.pi * log2 + clausen
    moment_plus = math.pi * log2 - clausen
    return (i_const + i_plus + i_minus + f_z * (moment_minus + moment_plus)) / math.pi


def _collides(z, positions, bands) -> bool:
    dist = np.abs(float(np.real(z)) - positions)
    return bool(np.any(dist.min(axis=1) < NODE_COLLISION_RTOL * bands.band_widths))


def potential_at(z, solution: EquilibriumSolution, bands: BandSystem,
                 rule: QuadratureRule, method: str = "auto") -> float:
    """Logarithmic potential of the generation's equilibrium measure at ``z``.

    ``z`` may be real or complex.  With ``method="auto"`` a real ``z``
    lying on a band gets the singularity-subtracted treatment for that band
    (accurate to ~1e-9); every other contribution is a plain Chebyshev node
    sum.  ``method="nodes"`` forces plain node sums everywhere; if ``z``
    falls within ``1e-12`` of a node (relative to the band width) the order
    is bumped to ``K+1`` then ``K+3``, and :class:`PersistentCollision` is
    raised when all attempts collide.
    """
    z_c = complex(z)
    on_axis = z_c.imag == 0.0
    host = _locate_band(bands, z_c.real) if on_axis else None

    if method == "auto" and host is not None:
        positions, weighted = _density_table(solution, bands, rule)
        total = 0.0
        for i in range(bands.n_bands):
            if i != host:
                total += -0.5 * float(
                    np.sum(weighted[i] * np.log((z_c.real - positions[i]) ** 2))
                )
        return total + _singular_band_potential(z_c.real, host, solution, bands)

    if method not in ("auto", "nodes"):
        raise ValueError(f"unknown method {method!r}")

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
    serve every coarser generation.  Points whose potential cannot be
    evaluated are excluded and reported, but must stay below 0.1% of the
    total.
    """
    pts = sample_points(sample_bands or bands, sample_count)
    positions, weighted = _density_table(solution, bands, rule)
    flat_pos = positions.ravel()
    flat_w = weighted.ravel()

    hosts = np.array([_locate_band(bands, float(z)) for z in pts])
    if np.any(hosts == None):  # noqa: E711 - object comparison on purpose
        raise OutOfHull("sample points must lie on the band system")
    hosts = hosts.astype(int)

    # Plain node sum over all bands at once; the hosting band's share is
    # replaced by the singularity-subtracted value afterwards.
    totals = np.empty(pts.size)
    tiny = 1e-300
    for start in range(0, pts.size, _Z_CHUNK):
        sl = slice(start, min(start + _Z_CHUNK, pts.size))
        d = np.abs(pts[sl, None] - flat_pos[None, :])
        totals[sl] = -(np.log(np.maximum(d, tiny)) @ flat_w)

    values = []
    excluded = 0
    for j, z in enumerate(pts):
        b = hosts[j]
        own = -float(
            np.log(np.maximum(np.abs(z - positions[b]), tiny)) @ weighted[b]
        )
        try:
            values.append(totals[j] - own + _singular_band_potential(z, b, solution, bands))
        except PersistentCollision:
            excluded += 1
    if excluded:
        log.warning("excluded %d of %d potential sample points", excluded, pts.size)
        if excluded >= 1e-3 * pts.size:
            raise PersistentCollision(
                f"{excluded} of {pts.size} sample points failed potential evaluation"
            )
    return float(np.mean(values))


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
    i = _locate_band(bands, x)
    if i is None:
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
    f = _band_density(i, bands, solution, np.cos(thetas))
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


def energy(solution: EquilibriumSolution, bands: BandSystem, rule: QuadratureRule,
           inner_rule: QuadratureRule | None = None) -> float:
    """Electrostatic energy ``int V dsigma`` of the equilibrium measure.

    Diagnostic only: the potential is constant on the bands, so the energy
    equals that constant (``-log C``).  Computed as the density-weighted
    node sum of on-set potential values.
    """
    inner = inner_rule or rule
    total = 0.0
    for i in range(bands.n_bands):
        s = _from_frame(rule.nodes, bands.alphas[i], bands.betas[i])
        dens = rule.weights * _band_density(i, bands, solution, rule.nodes)
        vals = np.array([potential_at(float(z), solution, bands, inner) for z in s])
        total += float(dens @ vals)
    return total
