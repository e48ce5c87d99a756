"""Derived quantities of a converged equilibrium measure.

Everything here consumes an :class:`~equimeasure.solver.EquilibriumSolution`
on its own band system: the integrated measure (a devil's staircase in the
Cantor limit), the logarithmic potential ``V(z) = -int log|z - s|
dsigma(s)``, per-generation capacities ``C = exp(-V)`` read off the constant
potential on the set, and the exponential extrapolation of capacities to
the attractor.  A function that also takes ``bands`` raises ``ValueError``
unless they have the endpoints of ``solution.vars.bands``.

Every value here comes from one set of per-band Chebyshev coefficients
``c_j`` of the density, ``solution.vars.band_series``, which the kernel
builds once per set of roots (see :mod:`~equimeasure.kernel`): in band
``b``'s frame ``t = psi_b(s)`` the density is ``F(t) / (pi sqrt(1 -
t**2))`` with ``F = sum_j c_j T_j``, and ``c_0`` is the band measure.
This module keeps no per-solution state; it needs numpy alone, calls no
LAPACK routine, and runs the kernel only through ``band_series`` when no
stored series seeded it.

The log transform of each Chebyshev mode is closed-form (Mason &
Handscomb, *Chebyshev Polynomials*, 2003): against the unit Chebyshev
measure, ``int T_j(t) log|w - t|`` is ``-Re(rho**j) / j`` for ``j >= 1``
and ``-log|2 rho|`` for ``j = 0``, where ``rho = 1 / s`` and ``s`` is
whichever of ``w +- sqrt(w - 1) sqrt(w + 1)`` has the larger modulus, so
``|rho| <= 1`` (on [-1, 1], ``Re(rho**j) = T_j(w)`` and ``|2 rho| = 2``).
Band ``b``'s share of the potential is therefore

    V_b(z) = c_0 (log A + log|2 rho|) + sum_{j >= 1} c_j Re(rho**j) / j

with ``A = 2 / (beta_b - alpha_b)`` and ``w = psi_b(z)``, for real and
complex ``z`` alike, on, next to or far from the band: no singular
integrand is left to treat.  ``w - 1`` and ``w + 1`` are formed from ``z -
beta_b`` and ``z - alpha_b``, so nothing cancels next to a band end.  On a
band the series is summed as ``sum_j c_j cos(j theta) / j`` with ``w =
cos theta``, elsewhere by Horner's rule in ``rho``.  S. Olver,
*Computation of equilibrium measures*, J. Approx. Theory 163 (2011),
builds equilibrium measures of interval unions the same way.  The
integrated measure inside a band is closed-form too (see
:func:`integrated_measure_at`).

:func:`potential_at` and :func:`integrated_measure_at` evaluate an array of
points (a scalar gives a ``float``) in blocks, each value from its own point
alone.  One evaluator, :func:`_potentials`, serves both potential paths over
the bands of several solutions side by side (:class:`_Stack`), so
:func:`capacity_estimate` makes one pass per path over all its generations.
Every temporary holds at most ``kernel.BLOCK_ELEMS`` elements, the
package's one memory budget.

The plain node sum of ``rule.order`` Gauss-Chebyshev nodes per band stays
available as ``method="nodes"``, the published point path.  Its error, the
classical coarseness gauge (~2e-4 at generation 1 to ~3e-6 at generation 7
for the middle-third system at 2048 nodes), comes from the bands next to
the point alone, so only their terms are node sums (see :func:`_potentials`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .geometry import BandSystem
from .kernel import REFINE_SAFETY, QuadratureRule, _from_frame
# A patch point: the traced benchmark counts log-space calls from here (0).
from .kernel import kernel_log_magnitude  # noqa: F401
from .solver import EquilibriumSolution

# Sample points closer to a quadrature node than this fraction of the band
# width make the plain node sum meaningless; the rule order is bumped.
NODE_COLLISION_RTOL = 1e-12

# The capacity extrapolation fits three parameters and needs one more
# generation than that to be a fit.
MIN_CAPACITY_GENERATIONS = 4


class AnalyticsError(Exception):
    """Base class for the analytics failures the CLI reports as exit 3."""


class OutOfHull(AnalyticsError, ValueError):
    """Point lies outside the convex hull of the band system."""


class PersistentCollision(AnalyticsError, RuntimeError):
    """A point kept colliding with quadrature nodes after raising the order."""


class NonMonotoneInput(AnalyticsError, ValueError):
    """Successive differences change sign or vanish; no decaying exponential fits."""


@dataclass(frozen=True)
class CapacityEstimate:
    """Per-generation capacities and their extrapolation to the attractor."""

    per_generation: tuple
    fit: tuple
    extrapolated_capacity: float


def _own_bands(solution: EquilibriumSolution, bands: BandSystem) -> BandSystem:
    """``solution.vars.bands``, once ``bands`` is seen to have its endpoints
    (by value: bands generated again are another object)."""
    own = solution.vars.bands
    if bands is own or (np.array_equal(bands.alphas, own.alphas)
                        and np.array_equal(bands.betas, own.betas)):
        return own
    raise ValueError("bands differ from the solution's own band system")


# ---------------------------------------------------------------------------
# per-band Chebyshev series


def _values_at_nodes(coeffs: np.ndarray, order: int) -> np.ndarray:
    """Every band's series at the first-kind Chebyshev nodes of ``order``.

    There ``T_{2 q order +- j} = (-1)**q T_j`` and ``T_order = 0``, so
    coefficients ``j >= order`` fold onto ``j < order``; one product per
    row with ``cos(j theta_k)`` sums the terms after ``c_0``, and ``c_0`` is
    added last (within a few ulps).  The cosines at ``theta_k = (2k + 1) pi
    / (2 order)`` are looked up in one period, ``j (2k + 1)`` reduced modulo
    ``4 order`` in integers, a block of nodes at a time: a multiple of 4
    nodes and at most ``kernel.BLOCK_ELEMS`` cosines (or 4 nodes), the last
    block 4 nodes or more.  A single-threaded BLAS then sums each value as
    the whole table's product would: it sums the last (width mod 4) nodes of
    a call apart, and numpy takes one node alone as a dot product.
    """
    j = np.arange(coeffs.shape[1])
    r = j % (2 * order)
    folded = np.zeros((coeffs.shape[0], min(j.size, order)))
    np.add.at(folded.T, np.minimum(r, 2 * order - r) % order,
              ((-1.0) ** (j // (2 * order)) * np.sign(order - r) * coeffs).T)
    period = np.cos(np.pi / (2 * order) * np.arange(4 * order))
    odd, rows = 2 * np.arange(order) + 1, np.arange(1, folded.shape[1])
    values = np.empty((coeffs.shape[0], order))
    starts = list(range(0, order - 3, max(4, kernel.BLOCK_ELEMS // max(1, rows.size) // 4 * 4)))
    for c, e in zip(starts or [0], starts[1:] + [order]):
        table = period[np.outer(rows, odd[c:e]) % (4 * order)]
        values[:, c:e] = np.matmul(folded[:, None, 1:], table)[:, 0]
    return values + folded[:, :1]


def _horner(rho: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``sum_{j >= 1} d[:, j - 1] * rho**j`` for every point (rows of ``rho``)
    and band (columns of ``rho``, rows of ``d``)."""
    acc = np.zeros_like(rho)
    for dj in np.ascontiguousarray(d.T[::-1]):  # one contiguous row per power
        acc += dj
        acc *= rho
    return acc


def _trig_sums(trig, theta: np.ndarray, d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_{j >= 1} d[b_k, j - 1] * trig(j theta_k)`` for each angle
    ``theta_k`` on band ``b_k``, blockwise; a row is split only when it alone
    exceeds ``kernel.BLOCK_ELEMS``, so no sum depends on the other points."""
    j = np.arange(1, d.shape[1] + 1)
    cols = max(1, min(j.size, kernel.BLOCK_ELEMS))
    rows = max(1, kernel.BLOCK_ELEMS // cols)
    sums = np.zeros(theta.size)
    for c in range(0, j.size, cols):
        for k in range(0, theta.size, rows):
            terms = np.outer(theta[k : k + rows], j[c : c + cols])
            trig(terms, out=terms)
            terms *= d[b[k : k + rows], c : c + cols]
            sums[k : k + rows] += np.sum(terms, axis=1)
    return sums


def _hosts(bands: BandSystem, xs) -> np.ndarray:
    """Index of the band containing each of ``xs`` (edges included), else -1."""
    xs = np.asarray(xs, dtype=float)
    i = np.searchsorted(bands.alphas, xs, side="right") - 1
    inside = (i >= 0) & (xs <= bands.betas[np.maximum(i, 0)])
    return np.where(inside, i, -1)


def _theta_of(x, lo, hi):
    """Angle with ``cos(theta) = psi(x)`` on a band, free of cancellation.

    ``tan(theta/2) = sqrt((hi - x)/(x - lo))``, which is exact at the band
    endpoints, unlike ``arccos`` of the rounded frame coordinate (whose
    sqrt(eps)-size angle error would leak into partial integrals).
    """
    return 2.0 * np.arctan2(np.sqrt(np.maximum(hi - x, 0.0)), np.sqrt(np.maximum(x - lo, 0.0)))


# ---------------------------------------------------------------------------
# potential


@dataclass(frozen=True)
class _Stack:
    """The bands of some solutions side by side, one per column ``j``
    (endpoints ``alphas[j]``, ``betas[j]``, series row ``coeffs[j]``, every
    table zero-padded to the widest; the generations of an affine IFS share
    one width); solution ``g`` has columns ``bounds[g]:bounds[g + 1]``."""

    systems: tuple
    alphas: np.ndarray
    betas: np.ndarray
    coeffs: np.ndarray
    bounds: np.ndarray

    @classmethod
    def of(cls, solutions) -> "_Stack":
        systems = tuple(sol.vars.bands for sol in solutions)
        bounds = np.cumsum([0] + [b.n_bands for b in systems])
        coeffs = np.zeros((bounds[-1], max(s.vars.band_series.shape[1] for s in solutions)))
        for sol, lo, hi in zip(solutions, bounds, bounds[1:]):
            coeffs[lo:hi, : sol.vars.band_series.shape[1]] = sol.vars.band_series
        return cls(systems, np.concatenate([b.alphas for b in systems]),
                   np.concatenate([b.betas for b in systems]), coeffs, bounds)

    def hosts(self, z: np.ndarray) -> np.ndarray:
        """The column of each point's host band in each system (one row per
        point of the 1-D array ``z``, one column per system), else -1; a
        non-real point has none."""
        return np.column_stack([np.where((h >= 0) & (z.imag == 0.0), h + lo, -1) for h, lo
                                in zip((_hosts(b, z.real) for b in self.systems), self.bounds)])


def _band_shares(z: np.ndarray, stack: _Stack,
                 host: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each band's share of ``V`` at the points of the 1-D array ``z`` (one
    row per point, one column per band of ``stack``), and ``log|s|`` of the
    same pairs; ``host`` is ``stack.hosts(z)``.

    Every (point, band) pair gets ``rho`` from the larger-modulus root ``s``
    of the module docstring and its share by Horner's rule, except a real
    point on a band: there ``|s| = 1`` (taken as ``s = 1``), and its host
    band's share is ``sum_j c_j cos(j theta) / j`` with ``theta`` from
    :func:`_theta_of`.  A real array takes real arithmetic: off a band ``w -
    1`` and ``w + 1`` share a sign, so ``s = w + sign(w) sqrt|w - 1| sqrt|w
    + 1|`` is real, rounded as the complex branch rounds it.  Where ``s``
    leaves the float range (``|z|`` near 1e307 and beyond), ``s = 2 w = 8 h
    / width`` to the last bit, with ``h = (z - m) / 2`` and ``m`` the band's
    midpoint, so ``log|s|`` and ``rho`` are formed from ``h``, whose modulus
    stays finite, instead.  Each pair's share is formed from that pair
    alone.
    """
    alphas, betas, coeffs = stack.alphas, stack.betas, stack.coeffs
    width = betas - alphas
    d = coeffs[:, 1:] / np.arange(1, coeffs.shape[1])
    on, g = np.nonzero(host >= 0)
    b = host[on, g]
    with np.errstate(over="ignore", invalid="ignore"):  # far pairs are redone below
        wm1, wp1 = z[:, None] - betas, z[:, None] - alphas
        for v in (wm1, wp1):  # w - 1 and w + 1 in every band's frame
            v *= 2.0
            v /= width
        w = wm1 + wp1
        w *= 0.5
        if np.isrealobj(z):  # s = w + copysign(sqrt|w - 1| sqrt|w + 1|, w)
            s = np.sqrt(np.abs(wm1, out=wm1), out=wm1)
            s *= np.sqrt(np.abs(wp1, out=wp1), out=wp1)
            np.add(w, np.copysign(s, w, out=s), out=s)
            log_s, shares = wp1, w
        else:  # s = w +- sqrt(w - 1) sqrt(w + 1), the larger
            wm1 += 0j
            wp1 += 0j
            r = np.sqrt(wm1, out=wm1)
            r *= np.sqrt(wp1, out=wp1)
            plus, s = np.add(w, r, out=wp1), np.subtract(w, r, out=r)
            np.copyto(s, plus, where=np.abs(plus) >= np.abs(s))
            log_s, shares = np.empty((2, *s.shape))
        s[on, b] = 1.0
        np.log(np.abs(s, out=log_s), out=log_s)
        rho = np.divide(1.0, s, out=s)
    rho[on, b] = 0.0
    if not np.isfinite(log_s.sum()):  # each log|s| lies in [0, 710] where finite
        far = np.nonzero(~np.isfinite(log_s))
        half = 0.5 * (z[far[0]] - 0.5 * (alphas + betas)[far[1]])
        log_s[far] = np.log(np.abs(half)) + np.log(8.0 / width[far[1]])
        rho[far] = 0.125 * width[far[1]] / half
    np.subtract(math.log(2.0), log_s, out=shares)
    shares += np.log(2.0 / width)
    shares *= coeffs[:, 0]
    shares += _horner(rho, d).real
    theta = _theta_of(z[on].real, alphas[b], betas[b])
    shares[on, b] += _trig_sums(np.cos, theta, d, b)
    return shares, log_s


def _potentials(zs, solutions, rule: QuadratureRule | None = None) -> np.ndarray:
    """``V(z)`` of each solution (one row each) at the points of the 1-D
    array ``zs``, all solutions in one :class:`_Stack` and the points in
    blocks of ``kernel.BLOCK_ELEMS // (stacked bands)``.

    Each block holds one term array of (points x stacked bands), every
    band's :func:`_band_shares` at first, and a value sums its solution's
    terms.  With a Gauss-Chebyshev ``rule`` (the point path) the terms of
    the bands the rule cannot resolve become their plain node sums.  The
    ``K``-node rule integrates ``F(t) log|w - t|`` of a band whose series
    fits the stack's table, ``M`` wide, to within ``|s|**(M - 2K)``
    (Trefethen, *ATAP*, ch. 8), so a term keeps its series share when ``(2K
    - M) log|s| >= 2 REFINE_SAFETY``: never a point's host band, and none
    when ``2K <= M``.  Each order's node densities are built once per block,
    for the bands some pending (point, solution) pair still needs, and their
    terms are summed in chunks of ``kernel.BLOCK_ELEMS // K``, each from its
    own band alone.  A pair collides if its point is real and within
    ``NODE_COLLISION_RTOL`` of a band width from a node of those bands; its
    terms stay series shares, and only colliding pairs are summed again at
    the next order.
    """
    if rule is not None and rule.panels:
        raise ValueError(f"the point path takes Gauss-Chebyshev rules, not panels {rule.panels}")
    zs, stack = np.asarray(zs), _Stack.of(solutions)
    values, host = np.empty((len(solutions), zs.size)), stack.hosts(zs)
    tol = NODE_COLLISION_RTOL * (stack.betas - stack.alphas)
    system = np.repeat(np.arange(len(solutions)), np.diff(stack.bounds))
    step = max(1, kernel.BLOCK_ELEMS // stack.coeffs.shape[0])
    for k in range(0, zs.size, step):
        z = zs[k : k + step]
        terms, log_s = _band_shares(z, stack, host[k : k + step])
        pending = np.full((z.size, len(solutions)), rule is not None)
        for bump in (0, 1, 3):
            if not pending.any():
                break
            attempt = QuadratureRule.chebyshev(rule.order + bump) if bump else rule
            summed = pending[:, system] & ((2 * attempt.order - stack.coeffs.shape[1]) * log_s
                                           < 2.0 * REFINE_SAFETY)
            rows = np.flatnonzero(summed.any(axis=0))
            weighted = _values_at_nodes(stack.coeffs[rows], attempt.order) * attempt.weights
            p, b = np.nonzero(summed)
            r, sums, hit = np.searchsorted(rows, b), np.empty(p.size), np.empty(p.size, bool)
            chunk = max(1, kernel.BLOCK_ELEMS // attempt.order)
            for e in (slice(c, c + chunk) for c in range(0, p.size, chunk)):
                x = z[p[e], None]
                dist = _from_frame(attempt.nodes, stack.alphas[b[e], None], stack.betas[b[e], None])
                np.hypot(np.subtract(dist, x.real, out=dist), x.imag, out=dist)  # no square
                hit[e] = (x.imag == 0.0)[:, 0] & np.any(dist < tol[b[e], None], axis=1)
                with np.errstate(divide="ignore", invalid="ignore"):  # a hit's sum is dropped
                    np.log(dist, out=dist)
                    dist *= weighted[r[e]]
                sums[e] = -np.sum(dist, axis=1)
            collided = np.zeros_like(pending)
            collided[p[hit], system[b[hit]]] = True
            done = ~collided[p, system[b]]
            terms[p[done], b[done]] = sums[done]
            pending = collided
        if pending.any():
            raise PersistentCollision(f"point {complex(z[np.nonzero(pending.T)[1][0]])} "
                                      f"collides with quadrature nodes at orders {rule.order}, "
                                      f"{rule.order + 1}, {rule.order + 3}")
        for g, (lo, hi) in enumerate(zip(stack.bounds, stack.bounds[1:])):
            values[g, k : k + step] = terms[:, lo:hi].sum(axis=1)
    return values


def potential_at(z, solution: EquilibriumSolution, bands: BandSystem,
                 rule: QuadratureRule, method: str = "auto"):
    """Logarithmic potential of the generation's equilibrium measure at ``z``,
    an array of real or complex points (an empty one gives an empty array),
    or one point, which gives a ``float``.

    ``method="auto"`` is accurate to roundoff on, next to and away from the
    bands; ``rule`` is not used.  ``method="nodes"`` is the plain node sum of
    ``rule``, which must be Gauss-Chebyshev, on each band it cannot resolve
    to roundoff (:func:`_potentials`): a real point within ``1e-12`` of a
    band width from a node bumps the order to ``K+1`` then ``K+3``, and
    :class:`PersistentCollision` is raised when all attempts collide.
    ``bands`` must have the endpoints of ``solution.vars.bands``.
    """
    if method not in ("auto", "nodes"):
        raise ValueError(f"unknown method {method!r}")
    if method == "nodes" and rule is None:
        raise ValueError("method='nodes' needs a quadrature rule, got None")
    _own_bands(solution, bands)
    values = _potentials(np.asarray(z).ravel(), [solution], rule if method == "nodes" else None)[0]
    return float(values[0]) if np.ndim(z) == 0 else values.reshape(np.shape(z))


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
    per_band = np.full(n, base)
    per_band[:extra] += 1
    band = np.repeat(np.arange(n), per_band)
    c = per_band[band]
    k = np.arange(1, count + 1) - (np.cumsum(per_band) - per_band)[band]
    nodes = np.cos((2 * k - 1) * np.pi / (2 * c))
    return _from_frame(nodes, bands.alphas[band], bands.betas[band])


def mean_potential_on_attractor_points(solution: EquilibriumSolution, bands: BandSystem,
                                       sample_count: int, rule: QuadratureRule,
                                       sample_bands: BandSystem | None = None) -> float:
    """Arithmetic mean of the potential over deterministic on-set points.

    ``sample_bands`` names the (usually deepest solved) generation whose
    bands carry the points; since generations are nested, the same points
    serve every coarser generation.  ``rule`` is not used; it stays in the
    signature for callers that name it.
    """
    bands = _own_bands(solution, bands)
    return _mean_potentials([solution], sample_points(sample_bands or bands, sample_count))[0]


def _mean_potentials(solutions, pts: np.ndarray) -> list[float]:
    """The mean potential of each solution over the points ``pts``, which
    must lie on every solution's bands (else :class:`OutOfHull`)."""
    if any(np.any(_hosts(sol.vars.bands, pts) < 0) for sol in solutions):
        raise OutOfHull("sample points must lie on the band system")
    return [float(np.mean(row)) for row in _potentials(pts, solutions)]


# ---------------------------------------------------------------------------
# integrated measure


def integrated_measure_at(x, solution: EquilibriumSolution, bands: BandSystem):
    """Measure of ``[hull.lo, x]`` under the equilibrium measure.

    ``x`` is an array of points in the hull (else :class:`OutOfHull`), or
    one point, which gives a ``float``.  Constant on every gap (the plateau
    heights are the cumulative band measures).  Inside band ``i`` the
    partial measure is ``(1/pi) int_{theta_x}^pi F(cos theta) dtheta`` in
    the angular variable, and the band's series makes it closed-form:
    ``c_0 (pi - theta_x) / pi - sum_j c_j sin(j theta_x) / (j pi)``, clamped
    to ``[Omega_{i-1}, Omega_i]`` (``c_0`` and ``omega_i`` differ at roundoff).
    """
    bands = _own_bands(solution, bands)
    xs, h = np.asarray(x, dtype=float).ravel(), bands.hull
    outside = xs[~((h.lo <= xs) & (xs <= h.hi))]
    if outside.size:
        raise OutOfHull(f"{outside[0]} outside [{h.lo}, {h.hi}]")
    hosts = _hosts(bands, xs)
    values = solution.Omegas[np.searchsorted(bands.gap_los, xs, side="right") - 1]
    on = np.flatnonzero(hosts >= 0)
    b = hosts[on]
    theta = _theta_of(xs[on], bands.alphas[b], bands.betas[b])
    coeffs = solution.vars.band_series
    sines = _trig_sums(np.sin, theta, coeffs[:, 1:] / np.arange(1, coeffs.shape[1]), b)
    below = np.where(b > 0, solution.Omegas[b - 1], 0.0)
    values[on] = np.clip(below + (coeffs[b, 0] * (math.pi - theta) - sines) / math.pi,
                         below, below + solution.omegas[b])
    return float(values[0]) if np.ndim(x) == 0 else values.reshape(np.shape(x))


# ---------------------------------------------------------------------------
# capacity extrapolation


def _least_squares(a: list) -> list[float]:
    """``x`` minimising ``|A x - y|``, given the rows ``[A | y]`` (four floats
    each), by Givens rotations on Python floats in place.  An unknown whose
    pivot is at most ``len(a) * eps`` of the largest is 0 (least norm)."""
    for k in range(3):
        for i in range(k + 1, len(a)):
            rho = math.hypot(a[k][k], a[i][k])
            if rho != 0.0:
                c, s = a[k][k] / rho, a[i][k] / rho
                a[k], a[i] = ([c * u + s * v for u, v in zip(a[k], a[i])],
                              [c * v - s * u for u, v in zip(a[k], a[i])])
    tiny = len(a) * math.ulp(1.0) * max(abs(a[k][k]) for k in range(3))
    x = [0.0] * 3
    for k in reversed(range(3)):
        if abs(a[k][k]) > tiny:
            x[k] = (a[k][3] - sum(a[k][m] * x[m] for m in range(k + 1, 3))) / a[k][k]
    return x


def fit_exponential(points) -> tuple[float, float, float]:
    """Fit ``f(n) = a + b * exp(-c n)`` through decaying data.

    Three consecutive equally spaced points admit the closed form
    ``exp(-c dn) = (y3 - y2) / (y2 - y1)``; more points are fitted least
    squares by Gauss-Newton from the closed form on the last three, each
    step halved while it would raise the squared residual by over 1e-6 of
    it, until the step stops shrinking at roundoff (at most 50 steps); each
    step is a QR solve, :func:`_least_squares`.  Differences must keep one
    sign and contract, otherwise :class:`NonMonotoneInput` is raised.
    Returns ``(a, b, c)`` with ``c > 0``.
    """
    pts = sorted((float(n), float(y)) for n, y in points)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    ns, ys = np.array(pts).T
    if np.any(np.diff(ns) == 0.0):
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

    def rss(p):
        return np.sum((ys - p[0] - p[1] * np.exp(-p[2] * ns)) ** 2)

    p, last = np.array(closed_form(ns[-3:], ys[-3:])), math.inf
    for _ in range(50):
        e = np.exp(-p[2] * ns)
        step = np.array(_least_squares(np.column_stack(
            [np.ones_like(ns), e, -p[1] * ns * e, ys - p[0] - p[1] * e]).tolist()))
        size = np.linalg.norm(step) / np.linalg.norm(p)
        if last <= size < 1e-8:  # at roundoff
            break
        t = 1.0
        while rss(p + t * step) > (1.0 + 1e-6) * rss(p) and t > 1e-9:
            t *= 0.5
        p, last = p + t * step, size
        p[2] = max(p[2], 1e-12)
    return float(p[0]), float(p[1]), float(p[2])


def _estimate(per_gen: tuple) -> CapacityEstimate:
    """``per_gen``, ``(generation, -log C)`` pairs, with the exponential fit of
    its last ``MIN_CAPACITY_GENERATIONS`` (values constant to 1e-12 are their
    own limit) and the extrapolated capacity ``exp(-a)``."""
    ys = np.array([v for _, v in per_gen])
    fit = ((float(ys[-1]), 0.0, math.inf) if np.all(np.abs(np.diff(ys)) < 1e-12)
           else fit_exponential(per_gen[-MIN_CAPACITY_GENERATIONS:]))
    return CapacityEstimate(per_gen, fit, math.exp(-fit[0]))


def capacity_estimate(solutions, rule: QuadratureRule, sample_count: int = 4096,
                      point: float | None = None) -> tuple[CapacityEstimate, CapacityEstimate]:
    """Both gauges of each generation's capacity and their extrapolation to
    the attractor: ``(mean, point)``.

    ``-log C`` is the constant potential on the bands, read as its mean over
    ``sample_count`` sample points on the deepest generation's bands, and as
    the node sum of ``rule`` (Gauss-Chebyshev) at ``point``, by default the
    middle of the deepest generation's first band; a point off its bands
    raises :class:`OutOfHull`.  Each gauge takes one :func:`_potentials`
    pass over all generations, each value its generation's own
    :func:`mean_potential_on_attractor_points` or :func:`potential_at` to
    the bit, and fits its last ``MIN_CAPACITY_GENERATIONS`` values; the
    capacity is ``exp(-a)``.  A failed mean fit raises
    :class:`NonMonotoneInput`; a failed point fit gives fit ``(nan, nan,
    nan)`` and a nan capacity.
    """
    if len(solutions) < MIN_CAPACITY_GENERATIONS:
        raise ValueError(f"need at least {MIN_CAPACITY_GENERATIONS} solved generations")
    if rule is None or rule.panels:  # None would read the series, not the node sum
        raise ValueError("the point gauge needs a quadrature rule of Gauss-Chebyshev nodes, "
                         f"got {'None' if rule is None else f'panels {rule.panels}'}")
    deepest, gens = solutions[-1].vars.bands, [sol.generation for sol in solutions]
    if point is None:  # the middle of the deepest generation's first band
        point = float(0.5 * (deepest.alphas[0] + deepest.betas[0]))
    elif _hosts(deepest, [point])[0] < 0:
        raise OutOfHull(f"point {point!r} lies on no band of generation {deepest.generation}")

    mean = _estimate(tuple(zip(gens, _mean_potentials(
        solutions, sample_points(deepest, sample_count)))))
    per_gen = tuple(zip(gens, _potentials(np.array([point]), solutions, rule)[:, 0].tolist()))
    try:
        return mean, _estimate(per_gen)
    except NonMonotoneInput:  # the coarse gauge stands without its fit
        return mean, CapacityEstimate(per_gen, (math.nan,) * 3, math.nan)
