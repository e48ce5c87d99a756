"""Derived quantities of a converged equilibrium measure.

Everything here consumes an :class:`~equimeasure.solver.EquilibriumSolution`
together with its band system: the integrated measure (a devil's staircase
in the Cantor limit), the logarithmic potential ``V(z) = -int log|z - s|
dsigma(s)``, per-generation capacities ``C = exp(-V)`` read off the constant
potential on the set, and the exponential extrapolation of capacities to
the attractor.

Every value here comes from one set of per-band Chebyshev coefficients,
built once per solution and memoised on it, read-only (see
:func:`_band_series`).  In band ``b``'s frame ``t = psi_b(s)`` the density
is ``F(t) / (pi sqrt(1 - t**2))`` with ``F = |Z| / sqrt|Y~|``; ``F`` is
sampled with :func:`~equimeasure.kernel.kernel_band` at the first-kind
Chebyshev nodes of ``SERIES_OVERSAMPLING`` times the band's
:func:`~equimeasure.kernel.refined_orders`, and a DCT-II (one numpy FFT per
series length) gives ``F = sum_j c_j T_j``; ``c_0`` is the band measure.
Nothing else in this module evaluates the kernel, and no log-space kernel
is evaluated at all.  The module needs numpy alone.

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
points in one blockwise pass; a scalar is a one-point array and gives a
``float``.  Each value depends on its own point alone.

The plain node sum remains available as ``method="nodes"``, the published
point path: a uniform Gauss-Chebyshev table of ``rule.order`` nodes per
band, with ``F`` at its nodes summed from the same series (see
:func:`_values_at_nodes`).  Its error is the
classical coarseness gauge, shrinking from ~2e-4 at generation 1 to ~3e-6
at generation 7 for the middle-third system at 2048 nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import BandSystem
from .kernel import QuadratureRule, _from_frame, kernel_band, refined_orders
# Imported so that ``analytics.kernel_log_magnitude`` stays a patch point:
# the traced benchmark (bench/tracer.py) counts log-space calls made from
# here, and that count is meant to read 0.
from .kernel import kernel_log_magnitude  # noqa: F401
from .solver import EquilibriumSolution

# Sample points closer to a quadrature node than this fraction of the band
# width make the plain node sum meaningless; the rule order is bumped.
NODE_COLLISION_RTOL = 1e-12

# Each band's series interpolates F at the first-kind nodes of this many
# times the band's refined order.  At the refined order itself the series
# is truncated (an on-set spread of 2.3e-10 on the 4/5, 1/10 system at
# n = 1, whose bands take the floor of 16 nodes or 26); at twice it the
# spread is at roundoff (4.4e-16), and doubling again moves no mean
# potential by more than 1.1e-16 (ternary n <= 7, 4/5, 1/10 n <= 9).
SERIES_OVERSAMPLING = 2

# Elements per (point, band) or (point, coefficient) temporary, however
# many points a caller passes: the mean path (L = 4096, N = 128) runs within
# 6% of its fastest, and 200 000 points at n = 7 peak 6% above 101 points.
_BLOCK_ELEMS = 1 << 14

# Multiply-adds per product of the node table, which OpenBLAS then keeps on
# one thread (threaded, 128 x 2048 nodes took 8-16 ms on 2 cores, not 0.8 ms).
_PRODUCT_MACS = 1 << 18

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
# per-band Chebyshev series


def _dct2(x: np.ndarray) -> np.ndarray:
    """Unnormalised DCT-II along the last axis, ``2 sum_n x_n cos(pi k (2n + 1)
    / (2M))``, by one FFT (Makhoul, IEEE Trans. ASSP 28, 1980)."""
    m = x.shape[-1]
    v = np.concatenate([x[..., ::2], x[..., 1::2][..., ::-1]], axis=-1)
    return 2.0 * (np.fft.fft(v) * np.exp(-0.5j * np.pi / m * np.arange(m))).real


def _chebyshev_series(bands: BandSystem, vars) -> np.ndarray:
    """Chebyshev coefficients of ``F = |Z| / sqrt|Y~|`` on every band.

    Row ``b`` holds ``c_0 .. c_{M-1}`` for ``M = SERIES_OVERSAMPLING *
    refined_orders(bands, "band")[b]``, zero-padded to the longest row:
    ``sum_j c_j T_j`` interpolates ``F`` at the first-kind Chebyshev nodes
    of order ``M`` in band ``b``'s frame, and ``c_0`` is the band measure
    under that order's Gauss-Chebyshev rule; bands of one ``M`` share one
    :func:`~equimeasure.kernel.kernel_band` call and one :func:`_dct2`.
    """
    orders = SERIES_OVERSAMPLING * refined_orders(bands, "band")
    coeffs = np.zeros((bands.n_bands, orders.max()))
    for m in set(orders.tolist()):
        rows = np.flatnonzero(orders == m)
        nodes = QuadratureRule.chebyshev(m).nodes
        coeffs[rows, :m] = _dct2(kernel_band(nodes, rows, bands, vars)) / m
    coeffs[:, 0] *= 0.5
    return coeffs


def _band_series(solution: EquilibriumSolution) -> np.ndarray:
    """The solution's per-band coefficients, built on first use and memoised."""
    coeffs = solution._band_series
    if coeffs is None:
        coeffs = _chebyshev_series(solution.vars.bands, solution.vars)
        coeffs.flags.writeable = False
        object.__setattr__(solution, "_band_series", coeffs)
    return coeffs


@lru_cache(maxsize=4)
def _node_cosines(rows: int, order: int) -> np.ndarray:
    """Memoised, read-only ``cos(j theta_k)``, ``j < rows``, at the nodes
    ``theta_k = (2k + 1) pi / (2 order)``: ``j (2k + 1)`` is reduced modulo
    ``4 order`` in integers (in row blocks) and looked up in one period."""
    period = np.cos(np.pi / (2 * order) * np.arange(4 * order))
    odd = 2 * np.arange(order) + 1
    table = np.empty((rows, order))
    for r in range(0, rows, 16):
        table[r : r + 16] = period[np.outer(np.arange(r, min(r + 16, rows)), odd) % (4 * order)]
    table.flags.writeable = False
    return table


def _values_at_nodes(coeffs: np.ndarray, order: int) -> np.ndarray:
    """Every band's series at the first-kind Chebyshev nodes of ``order``.

    There ``T_{2 q order +- j} = (-1)**q T_j`` and ``T_order = 0``, so
    coefficients ``j >= order`` fold onto ``j < order``; products with the
    shared :func:`_node_cosines`, in column blocks of ``_PRODUCT_MACS``, sum
    the terms after ``c_0``, and ``c_0`` is added last (within a few ulps).
    """
    j = np.arange(coeffs.shape[1])
    r = j % (2 * order)
    folded = np.zeros((coeffs.shape[0], min(j.size, order)))
    np.add.at(folded.T, np.minimum(r, 2 * order - r) % order,
              ((-1.0) ** (j // (2 * order)) * np.sign(order - r) * coeffs).T)
    table = _node_cosines(folded.shape[1], order)[1:]
    values = np.empty((folded.shape[0], order))
    step = max(1, _PRODUCT_MACS // folded.size)
    for k in range(0, order, step):
        values[:, k : k + step] = folded[:, 1:] @ table[:, k : k + step] + folded[:, :1]
    return values


def _horner(rho: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``sum_{j >= 1} d[:, j - 1] * rho**j`` for every point (rows of ``rho``)
    and band (columns of ``rho``, rows of ``d``)."""
    acc = np.zeros_like(rho)
    for j in range(d.shape[1] - 1, -1, -1):
        acc += d[:, j]
        acc *= rho
    return acc


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
    sqrt(eps)-size angle error would leak into partial integrals).  Works
    elementwise on arrays.
    """
    return 2.0 * np.arctan2(np.sqrt(np.maximum(hi - x, 0.0)), np.sqrt(np.maximum(x - lo, 0.0)))


# ---------------------------------------------------------------------------
# potential


def _series_potentials(zs, coeffs: np.ndarray, bands: BandSystem) -> np.ndarray:
    """``V(z)`` at the points of the 1-D array ``zs`` from per-band series.

    Every (point, band) pair gets ``rho`` from the larger-modulus root of
    the module docstring and its share by Horner's rule, except a real
    point on a band: there ``|rho| = 1``, and its host band's share is
    ``sum_j c_j cos(j theta) / j`` with ``theta`` from :func:`_theta_of`.
    """
    zs = np.asarray(zs)
    width = bands.band_widths
    log_a = np.log(2.0 / width)
    j = np.arange(1, coeffs.shape[1])
    d = coeffs[:, 1:] / j
    values = np.empty(zs.shape)
    step = max(1, _BLOCK_ELEMS // max(d.shape))
    for block in (slice(k, k + step) for k in range(0, zs.size, step)):
        z = zs[block]
        host = np.where(z.imag == 0.0, _hosts(bands, z.real), -1)
        wm1 = 2.0 * (z[:, None] - bands.betas) / width  # w - 1 in every band's frame
        wp1 = 2.0 * (z[:, None] - bands.alphas) / width  # w + 1
        w = 0.5 * (wm1 + wp1)
        r = np.sqrt(wm1 + 0j) * np.sqrt(wp1 + 0j)
        s = np.where(np.abs(w + r) >= np.abs(w - r), w + r, w - r)
        log_2rho = math.log(2.0) - np.log(np.abs(s))
        rho = (1.0 / s).real if np.isrealobj(zs) else 1.0 / s
        on = np.flatnonzero(host >= 0)
        b = host[on]
        rho[on, b] = 0.0
        log_2rho[on, b] = math.log(2.0)
        v = (coeffs[:, 0] * (log_a + log_2rho)).sum(axis=1)
        v += _horner(rho, d).real.sum(axis=1)
        theta = _theta_of(z[on].real, bands.alphas[b], bands.betas[b])
        v[on] += np.sum(np.cos(np.outer(theta, j)) * d[b], axis=1)
        values[block] = v
    return values


def _density_table(solution, bands, rule):
    """Node positions and weighted densities of every band.

    Returns ``(positions, weighted)`` with shape ``(n_bands, K)``; the
    plain node sum at ``z`` is ``-sum weighted * log|z - positions|``.  The
    densities come from the solution's per-band series.  The table is built
    on the first call for a solution and ``rule.order`` (one order names
    one Chebyshev rule) and memoised on the solution; the arrays are
    read-only, since every later caller shares them.
    """
    table = solution._density_tables.get(rule.order)
    if table is None:
        positions = _from_frame(rule.nodes, bands.alphas[:, None], bands.betas[:, None])
        weighted = _values_at_nodes(_band_series(solution), rule.order)
        weighted *= rule.weights
        positions.flags.writeable = False
        weighted.flags.writeable = False
        table = solution._density_tables[rule.order] = (positions, weighted)
    return table


def _collides(x: float, positions, bands) -> bool:
    """Whether a node of the table lies within ``NODE_COLLISION_RTOL`` of its
    band's width from ``x``.  The nodes of a band run monotonically from its
    first to its last column, so only the bands whose node range comes that
    close to ``x`` are scanned."""
    tol = NODE_COLLISION_RTOL * bands.band_widths
    first, last = positions[:, 0], positions[:, -1]
    near = np.flatnonzero((np.minimum(first, last) - x < tol)
                          & (x - np.maximum(first, last) < tol))
    return bool(np.any(np.abs(x - positions[near]).min(axis=1) < tol[near]))


def _node_potential(z: complex, solution, bands, rule) -> float:
    """``-sum w * log|z - s|`` over the node table at one point, bumping the
    order past collisions."""
    for bump in (0, 1, 3):
        attempt = QuadratureRule.chebyshev(rule.order + bump) if bump else rule
        positions, weighted = _density_table(solution, bands, attempt)
        if z.imag == 0.0 and _collides(z.real, positions, bands):
            continue
        dist_sq = (z.real - positions) ** 2 + z.imag * z.imag
        return float(-0.5 * np.sum(weighted * np.log(dist_sq)))
    raise PersistentCollision(f"point {z} collides with quadrature nodes at orders "
                              f"{rule.order}, {rule.order + 1}, {rule.order + 3}")


def potential_at(z, solution: EquilibriumSolution, bands: BandSystem,
                 rule: QuadratureRule, method: str = "auto"):
    """Logarithmic potential of the generation's equilibrium measure at ``z``.

    ``z`` is an array of real or complex points, or one point, which gives
    a ``float``.  With ``method="auto"`` all points take one blockwise pass
    of :func:`_series_potentials`, accurate to roundoff on, next to and away
    from the bands; ``rule`` is not used.  ``method="nodes"`` is the plain
    node sum over a uniform table of ``rule.order`` nodes per band, point
    by point; if a real point falls within ``1e-12`` of a node (relative to
    the band width) the order is bumped to ``K+1`` then ``K+3``, and
    :class:`PersistentCollision` is raised when all attempts collide.  The
    coefficients and each order's table are built once per solution.
    """
    if method not in ("auto", "nodes"):
        raise ValueError(f"unknown method {method!r}")
    zs = np.asarray(z).ravel()
    if method == "auto":
        values = _series_potentials(zs, _band_series(solution), bands)
    else:
        values = np.array([_node_potential(complex(p), solution, bands, rule)
                           for p in zs])
    return float(values[0]) if np.ndim(z) == 0 else values.reshape(np.shape(z))


def sample_points(bands: BandSystem, count: int) -> np.ndarray:
    """Deterministic sample points spread over the bands.

    ``count`` points are split as evenly as possible over the bands (the
    first ``count % n_bands`` bands receive one extra) and placed at the
    images of Chebyshev nodes inside each band, so they avoid band edges
    and are reproducible.  Points chosen in a deep generation lie inside
    every coarser generation's bands as well.  One array pass builds them.
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
    serve every coarser generation.  The points are evaluated together from
    the solution's per-band series, as ``potential_at`` does.  ``rule`` is
    not used; it stays in the signature for callers that name it.
    """
    pts = sample_points(sample_bands or bands, sample_count)
    if np.any(_hosts(bands, pts) < 0):
        raise OutOfHull("sample points must lie on the band system")
    return float(np.mean(_series_potentials(pts, _band_series(solution), bands)))


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
    xs, h = np.asarray(x, dtype=float).ravel(), bands.hull
    outside = xs[~((h.lo <= xs) & (xs <= h.hi))]
    if outside.size:
        raise OutOfHull(f"{outside[0]} outside [{h.lo}, {h.hi}]")
    hosts = _hosts(bands, xs)
    values = solution.Omegas[np.searchsorted(bands.gap_los, xs, side="right") - 1]
    on = np.flatnonzero(hosts >= 0)
    b = hosts[on]
    theta = _theta_of(xs[on], bands.alphas[b], bands.betas[b])
    coeffs = _band_series(solution)
    j = np.arange(1, coeffs.shape[1])
    d = coeffs[:, 1:] / j
    sines, step = np.empty(on.size), max(1, _BLOCK_ELEMS // coeffs.shape[1])
    for block in (slice(k, k + step) for k in range(0, on.size, step)):
        sines[block] = np.sum(np.sin(np.outer(theta[block], j)) * d[b[block]], axis=1)
    below = np.where(b > 0, solution.Omegas[b - 1], 0.0)
    values[on] = np.clip(below + (coeffs[b, 0] * (math.pi - theta) - sines) / math.pi,
                         below, below + solution.omegas[b])
    return float(values[0]) if np.ndim(x) == 0 else values.reshape(np.shape(x))


# ---------------------------------------------------------------------------
# capacity extrapolation


def fit_exponential(points) -> tuple[float, float, float]:
    """Fit ``f(n) = a + b * exp(-c n)`` through decaying data.

    Three consecutive equally spaced points admit the closed form
    ``exp(-c dn) = (y3 - y2) / (y2 - y1)``; more points are fitted least
    squares by Gauss-Newton from the closed form on the last three, each
    step halved while it would raise the squared residual by over 1e-6 of
    it, until the step stops shrinking at roundoff (at most 50 steps).
    Differences must keep one sign and contract, otherwise
    :class:`NonMonotoneInput` is raised.  Returns ``(a, b, c)`` with ``c > 0``.
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
        jac = np.column_stack([np.ones_like(ns), e, -p[1] * ns * e])
        step = np.linalg.lstsq(jac, ys - p[0] - p[1] * e, rcond=None)[0]
        size = np.linalg.norm(step) / np.linalg.norm(p)
        if last <= size < 1e-8:  # at roundoff
            break
        t = 1.0
        while rss(p + t * step) > (1.0 + 1e-6) * rss(p) and t > 1e-9:
            t *= 0.5
        p, last = p + t * step, size
        p[2] = max(p[2], 1e-12)
    return float(p[0]), float(p[1]), float(p[2])


def capacity_estimate(solutions, rule: QuadratureRule,
                      sample_count: int = 4096, mode: str = "mean",
                      point: float | None = None,
                      fit_window: int = 4) -> CapacityEstimate:
    """Capacities per generation and their extrapolation to the attractor.

    ``-log C`` of each generation is the constant potential on its bands,
    read either as the mean over deterministic sample points in the deepest
    generation (``mode="mean"``) or as the plain node-sum potential of one
    fixed point (``mode="point"``, reproducing the coarser single-point
    gauge).  Each solution carries its band system (``vars.bands``).  The
    last ``fit_window`` generations feed the exponential fit; the
    extrapolated capacity is ``exp(-a)``.
    """
    if len(solutions) < MIN_CAPACITY_GENERATIONS:
        raise ValueError(f"need at least {MIN_CAPACITY_GENERATIONS} solved generations")
    if mode not in ("mean", "point"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "point" and point is None:
        raise ValueError("mode='point' needs a point")

    deepest = solutions[-1].vars.bands
    per_gen = []
    for sol in solutions:
        if mode == "mean":
            v = mean_potential_on_attractor_points(sol, sol.vars.bands, sample_count,
                                                   rule, sample_bands=deepest)
        else:
            v = potential_at(point, sol, sol.vars.bands, rule, method="nodes")
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
