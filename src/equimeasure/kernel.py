"""Stable evaluation of the singular density kernel and its integrals.

For ``N`` bands ``[alpha_i, beta_i]`` with one root ``zeta_m`` in each of
the ``N - 1`` gaps, the equilibrium density on the bands is
``|Z(s)| / (pi * sqrt(|Y(s)|))`` where

    Y(s) = prod_i (s - alpha_i) * (s - beta_i)
    Z(s) = prod_m (s - zeta_m)

and the roots are fixed by requiring the signed integral of ``Z / sqrt|Y|``
over every gap to vanish.  Each integral here rescales its own gap or band
onto ``[-1, 1]``; the rescaled interval's two endpoint factors of ``Y``
become the Chebyshev weight ``1 / (pi * sqrt(1 - x**2))``, which the
Gauss-Chebyshev rule integrates exactly, and the remaining factors form a
function that is smooth inside the interval.

Gap residuals, Jacobian rows and band measures share one evaluator, the
paired product: in the frame of gap or band ``i`` every remote root
factor is divided by the endpoint factors of one neighbouring band, so
each ratio tends to 1 with distance (mirroring the small influence of
remote gaps) and blockwise products stay O(1) for any number of bands.
In gap ``i``'s frame root ``m < i`` pairs with band ``m`` and root
``m > i`` with band ``m + 1``; the own root and the two endpoint factors
next to the gap are left over.  In band ``i``'s frame root ``m < i``
pairs with band ``m`` and root ``m >= i`` with band ``m + 1``, and
nothing is left over.  The log-space path, which sums logarithms of all
factors, has no production caller: it is the reference the paired
product is tested against and the ``evaluator="log"`` choice of the gap
equations.  Both agree to ~1e-12 relative.

Every integral takes its rule for the Chebyshev weight as an argument.
The solver sizes one rule per gap and per band from the geometry
(:func:`refined_rule`): Gauss-Chebyshev, a few dozen nodes for most
intervals, or beside a thin band panels graded toward it.  The analytics
size their per-band Chebyshev series from :func:`refined_order`;
``quadrature_order`` sets the node table of the point path and the uniform
rule of the solver when auto-refinement is off.

All functions are pure; results depend only on the arguments, and node
sums always run in the fixed node order, so values are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .geometry import BandSystem

# A point within this relative distance of a kernel root or endpoint is
# treated as an exact collision (the integrand value is meaningless there).
COLLISION_RTOL = 1e-15

# Accuracy-driven orders (see ``refined_order``): never fewer than
# ``MIN_ORDER`` nodes, and enough that exp(-2 * REFINE_SAFETY) ~ 2e-16 bounds
# the quadrature error.  ``ORDER_RULE`` names this rule in cache fingerprints;
# change it whenever the rule changes.
MIN_ORDER = 32
REFINE_SAFETY = 18.0
PANEL_NODES = 16  # Gauss-Legendre nodes per panel of a graded gap rule
ORDER_RULE = f"refined-or-graded/min{MIN_ORDER}/safety{REFINE_SAFETY:g}/panel{PANEL_NODES}"

_PROD_BLOCK = 256  # rows per block when accumulating long factor products
_CHUNK_ELEMS = 1 << 15  # elements per temporary of a paired-product chunk


class ExactNodeCollision(ValueError):
    """Evaluation point coincides with a kernel root or band endpoint."""


@dataclass(frozen=True)
class QuadratureRule:
    """A memoised, read-only rule for the weight 1/(pi*sqrt(1-x^2)).

    ``order`` is the node count.  :meth:`chebyshev` is Gauss-Chebyshev,
    nodes ``cos((2k - 1) pi / (2K))`` and weights ``1/K``, exact to degree
    ``2K - 1``; :meth:`graded` is Gauss-Legendre on panels of the angle
    (``x = cos theta``), and ``panels`` holds its panel counts.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray
    panels: tuple = ()

    def __post_init__(self):
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False

    @classmethod
    @lru_cache(maxsize=128)
    def chebyshev(cls, order: int) -> "QuadratureRule":
        if order < 1:
            raise ValueError(f"quadrature order must be positive, got {order}")
        k = np.arange(1, order + 1)
        nodes = np.cos((2 * k - 1) * np.pi / (2 * order))
        weights = np.full(order, 1.0 / order)
        return cls(order=order, nodes=nodes, weights=weights)

    @classmethod
    @lru_cache(maxsize=128)
    def graded(cls, panels: tuple, per_panel: int = PANEL_NODES) -> "QuadratureRule":
        """Panels halving from ``pi/2`` toward ``theta = 0`` (``panels[0]``
        of them) and ``pi`` (``panels[1]``); each end panel equals the next."""
        cuts = [0.5 * np.pi * 0.5 ** np.arange(n) for n in panels]
        edges = np.concatenate([[0.0], cuts[0][::-1], np.pi - cuts[1][1:], [np.pi]])
        t, w = _gauss_legendre(per_panel)
        half = 0.5 * np.diff(edges)[:, None]
        theta = (edges[:-1, None] + half * (1.0 + t)).ravel()
        return cls(order=theta.size, nodes=np.cos(theta),
                   weights=(half * w / np.pi).ravel(), panels=tuple(panels))

    def bumped(self) -> "QuadratureRule":
        """The rule of the same kind with one more node (per panel, if graded)."""
        return (QuadratureRule.graded(self.panels, self.order // sum(self.panels) + 1)
                if self.panels else QuadratureRule.chebyshev(self.order + 1))


@lru_cache(maxsize=None)
def _gauss_legendre(m: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only:
    Newton on the recurrence for ``P_m``, ``w = 2 / ((1 - x^2) P_m'^2)``."""
    def legendre(x):
        p0, p1 = np.ones_like(x), x
        for k in range(2, m + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, m * (x * p1 - p0) / (x * x - 1.0)

    x = -np.cos(np.pi * (np.arange(m) + 0.75) / (m + 0.5))
    for _ in range(8):
        p, dp = legendre(x)
        x = 0.5 * ((x - p / dp) - (x - p / dp)[::-1])
    w = 2.0 / ((1.0 - x * x) * legendre(x)[1] ** 2)
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class GapVariables:
    """Normalized gap roots: one ``lambda`` in (-1, 1) per gap.

    ``zetas`` are the same roots in original coordinates, obtained by the
    inverse of the per-gap rescaling and memoised, read-only, on first use;
    ``lambda = 0`` puts the root at the gap midpoint.
    """

    bands: BandSystem
    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        lam.flags.writeable = False
        if lam.shape != (self.bands.n_gaps,):
            raise ValueError(
                f"expected {self.bands.n_gaps} gap variables, got shape {lam.shape}"
            )
        if lam.size and np.max(np.abs(lam)) >= 1.0:
            raise ValueError("gap variables must lie strictly inside (-1, 1)")

    @cached_property
    def zetas(self) -> np.ndarray:
        lo, hi = self.bands.gap_los, self.bands.gap_his
        zetas = 0.5 * (lo + hi) + 0.5 * (hi - lo) * self.lambdas
        zetas.flags.writeable = False
        return zetas


def _to_frame(y, lo: float, hi: float):
    return (2.0 * y - (hi + lo)) / (hi - lo)


def _from_frame(x, lo: float, hi: float):
    return 0.5 * (x * (hi - lo) + (hi + lo))


def _check_collision(x: np.ndarray, points: np.ndarray) -> None:
    """Raise when some ``x`` lies within ``COLLISION_RTOL`` of a point.

    The distance is relative to ``max(1, |x|, |point|)``.  A single point
    (a gap's own root) is tested against every node.  Otherwise only the
    nearest node on either side of a point can be that close, so the nodes
    are sorted once and each point is tested against its two neighbours.
    """
    if x.size == 0 or points.size == 0:
        return
    candidates = (x.ravel(),)
    if points.size > 1:
        xs = np.sort(x, axis=None)
        k = np.searchsorted(xs, points)
        candidates = (xs[np.maximum(k - 1, 0)], xs[np.minimum(k, xs.size - 1)])
    for near in candidates:
        diff = np.abs(near - points)
        scale = np.maximum(1.0, np.maximum(np.abs(near), np.abs(points)))
        if np.any(diff < COLLISION_RTOL * scale):
            raise ExactNodeCollision("evaluation point coincides with a root or endpoint")


def kernel_log_magnitude(x, bands: BandSystem, vars: GapVariables, frame: tuple[str, int]):
    """Sign and log-magnitude of ``Z / sqrt|Y~|`` in a rescaled frame.

    ``frame`` names the interval mapped onto [-1, 1]: ``("gap", i)`` or
    ``("band", i)``.  The two endpoint factors of that interval are the
    ones absorbed into the Chebyshev weight and are omitted from ``Y~``.
    Returns ``(sign, log_magnitude)`` with the shapes of ``x``; the sign
    counts the negative numerator factors.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    p, a_t, b_t = _frame_points(bands, vars, frame)
    endpoints = _outer_endpoints(a_t, b_t, frame)
    _check_collision(x_arr, np.concatenate([p, endpoints]))

    log_mag = np.zeros_like(x_arr)
    neg = np.zeros(x_arr.shape, dtype=int)
    if p.size:
        diff = x_arr[:, None] - p[None, :]
        log_mag += np.sum(np.log(np.abs(diff)), axis=1)
        neg += np.sum(diff < 0.0, axis=1)
    if endpoints.size:
        log_mag -= 0.5 * np.sum(np.log(np.abs(x_arr[:, None] - endpoints[None, :])), axis=1)
    sign = np.where(neg % 2 == 0, 1.0, -1.0)
    return (float(sign[0]), float(log_mag[0])) if np.ndim(x) == 0 else (sign, log_mag)


def _frame_points(bands: BandSystem, vars: GapVariables, frame: tuple[str, int]):
    """Roots and band endpoints in the coordinates of ``frame``.

    In gap ``i``'s frame the own root is ``lambda_i`` itself, not mapped back
    from ``zeta_i`` (which rounds it by ``eps |zeta_i|`` over the half-width,
    enough to stall the line search on thin gaps), and the endpoints next
    to the gap follow from widths.
    """
    kind, i = frame
    if kind not in ("gap", "band"):
        raise ValueError(f"unknown frame kind {kind!r}")
    lo, hi = (bands.betas[i], bands.alphas[i + 1]) if kind == "gap" else (
        bands.alphas[i], bands.betas[i])
    p, a_t, b_t = (_to_frame(v, lo, hi) for v in (vars.zetas, bands.alphas, bands.betas))
    if kind == "gap":
        p[i] = vars.lambdas[i]
        a_t[i] = -1.0 - 2.0 * (bands.betas[i] - bands.alphas[i]) / (hi - lo)
        b_t[i + 1] = 1.0 + 2.0 * (bands.betas[i + 1] - bands.alphas[i + 1]) / (hi - lo)
    return p, a_t, b_t


def _outer_endpoints(a_t, b_t, frame: tuple[str, int]) -> np.ndarray:
    """Endpoints not absorbed into ``frame``'s Chebyshev weight."""
    kind, i = frame
    index = np.arange(a_t.size)
    a_absorbed = i + 1 if kind == "gap" else i
    return np.concatenate([a_t[index != a_absorbed], b_t[index != i]])


def _paired_product(x: np.ndarray, frame: tuple[str, int], p, a_t, b_t) -> np.ndarray:
    """Product of the paired factor ratios ``|x - p_m| / sqrt|Y_band|``.

    ``p``, ``a_t`` and ``b_t`` are in the coordinates of ``frame``; the
    pairing is the one in the module docstring.  In gap ``i``'s frame
    ``p[i]``, ``a_t[i]`` and ``b_t[i + 1]`` are left to the caller; in a
    band frame every factor outside the weight is paired.
    """
    kind, i = frame
    if kind == "gap":
        p_pair, first_after = np.concatenate([p[:i], p[i + 1 :]]), i + 2
    else:
        p_pair, first_after = p, i + 1
    pair_a = np.concatenate([a_t[:i], a_t[first_after:]])
    pair_b = np.concatenate([b_t[:i], b_t[first_after:]])

    # Work with squared ratios: the paired endpoint factors have the same
    # sign on (-1, 1), so each denominator product is positive, and one
    # square root per block of rows replaces one per factor.  Blockwise
    # products of O(1) ratios cannot over- or underflow.  Splitting the
    # nodes into column chunks only keeps the temporaries cache-sized; each
    # value is computed by the same operations in the same order.
    prod = np.ones_like(x)
    for start in range(0, p_pair.size, _PROD_BLOCK):
        sl = slice(start, start + _PROD_BLOCK)
        p_b, a_b, b_b = p_pair[sl, None], pair_a[sl, None], pair_b[sl, None]
        cols = max(1, _CHUNK_ELEMS // p_b.shape[0])
        for c in range(0, x.size, cols):
            xc = x[None, c : c + cols]
            num = xc - p_b
            den = (xc - a_b) * (xc - b_b)
            prod[c : c + cols] *= np.sqrt(np.prod(num * num / den, axis=0))
    return prod


def _grouped_reduced(x: np.ndarray, i: int, bands: BandSystem, vars: GapVariables):
    """Signed kernel in gap ``i``'s frame with the own-root factor removed.

    Returns ``(g, p)`` where the full kernel is ``(x - p[i]) * g``: the
    paired product divided by the two leftover endpoint factors nearest
    the rescaled gap, ``|x - a_t[i]|`` and ``|x - b_t[i+1]|``.
    """
    frame = ("gap", i)
    p, a_t, b_t = _frame_points(bands, vars, frame)
    prod = _paired_product(x, frame, p, a_t, b_t)
    leftover = np.sqrt((x - a_t[i]) * (b_t[i + 1] - x))
    sign = -1.0 if (p.size - 1 - i) % 2 else 1.0
    return sign * prod / leftover, p


def kernel_band(x, i: int, bands: BandSystem, vars: GapVariables):
    """``|Z| / sqrt|Y~|`` in band ``i``'s frame via the paired product.

    Every root and endpoint outside the band's own two ends is paired, so
    no factor is left over.  Agrees with the log-space evaluator to
    roundoff.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    frame = ("band", i)
    p, a_t, b_t = _frame_points(bands, vars, frame)
    _check_collision(x_arr, np.concatenate([p, _outer_endpoints(a_t, b_t, frame)]))
    values = _paired_product(x_arr, frame, p, a_t, b_t)
    return float(values[0]) if np.ndim(x) == 0 else values


def kernel_grouped(x, i: int, bands: BandSystem, vars: GapVariables):
    """``Z / sqrt|Y~|`` in gap ``i``'s frame via grouped factor ratios.

    ``x`` must lie strictly inside (-1, 1) in the rescaled frame.  Agrees
    with the log-space evaluator to roundoff; partial products stay O(1)
    for any number of bands.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    _check_collision(x_arr, np.array([vars.lambdas[i]]))
    g, p = _grouped_reduced(x_arr, i, bands, vars)
    values = (x_arr - p[i]) * g
    return float(values[0]) if np.ndim(x) == 0 else values


def gap_integral(i: int, bands: BandSystem, vars: GapVariables, rule: QuadratureRule,
                 evaluator: str = "grouped", keep: dict | None = None) -> float:
    """Gauss-Chebyshev value of the signed root equation over gap ``i``.

    This is ``(1/pi) * integral of Z/sqrt|Y|`` over the gap after rescaling
    it to [-1, 1]; the gap's own endpoints supply the Chebyshev weight.  At
    the solution all these integrals vanish.  With the grouped evaluator
    and a ``keep`` dict, ``keep[i]`` receives ``(rule, (g, p))``, what
    :func:`gap_jacobian_row` reuses at the same variables.
    """
    x = rule.nodes
    if evaluator == "grouped":
        _check_collision(x, np.array([vars.lambdas[i]]))
        g, p = _grouped_reduced(x, i, bands, vars)
        if keep is not None:
            keep[i] = (rule, (g, p))
        f = (x - p[i]) * g
    elif evaluator == "log":
        sign, log_mag = kernel_log_magnitude(x, bands, vars, ("gap", i))
        f = sign * np.exp(log_mag)
    else:
        raise ValueError(f"unknown evaluator {evaluator!r}")
    return float(rule.weights @ f)


def band_integral(i: int, bands: BandSystem, vars: GapVariables, rule: QuadratureRule) -> float:
    """Equilibrium measure of band ``i`` (harmonic frequency).

    The band is rescaled to [-1, 1] and ``|Z| / sqrt|Y~|`` is integrated
    against the Chebyshev weight, with the kernel from the band-frame
    paired product (:func:`kernel_band`).
    """
    return float(rule.weights @ kernel_band(rule.nodes, i, bands, vars))


def gap_jacobian_row(i: int, bands: BandSystem, vars: GapVariables,
                     rule: QuadratureRule, reduced: tuple | None = None) -> np.ndarray:
    """All derivatives ``d K_i / d lambda_m`` of one gap equation.

    Differentiating the Gaussian sum in its root ``zeta_m`` drops the
    ``m``-th numerator factor and multiplies by ``-A_i`` (the frame slope);
    the chain rule to the normalized variable contributes ``1 / A_m``.
    The dropped-factor products reuse the grouped kernel: dividing the full
    kernel by ``(x - p_m)`` is stable because only ``p_i`` lies inside the
    frame, and for ``m = i`` the reduced kernel is used directly.
    ``reduced`` is ``(g, p)``, that kernel at the nodes of ``rule`` and the
    frame points, when the residual pass at the same variables built them
    (see ``keep`` in :func:`gap_integral`).  Sums are ``einsum``, not BLAS.
    """
    x, w = rule.nodes, rule.weights
    if reduced is None:
        _check_collision(x, np.array([vars.lambdas[i]]))
        reduced = _grouped_reduced(x, i, bands, vars)
    g, p = reduced
    f = (x - p[i]) * g

    gap_w = bands.gap_widths
    row = np.concatenate([np.einsum("mk,k->m", f / (x - p[s : s + _PROD_BLOCK, None]), w)
                          for s in range(0, bands.n_gaps, _PROD_BLOCK)])
    row *= -(gap_w / gap_w[i])
    row[i] = -float(g @ w)
    return row


def refined_order(bands: BandSystem, frame: tuple[str, int],
                  base_order: int = MIN_ORDER) -> int:
    """Even quadrature order resolving ``frame``'s endpoint boundary layers.

    After rescaling, the nearest unabsorbed endpoint sits at distance
    ``eps = 2 * min(neighbouring widths) / own width`` outside [-1, 1]; the
    neighbours of gap ``i`` are bands ``i`` and ``i + 1``, those of band
    ``i`` whichever of gaps ``i - 1`` and ``i`` exist.  In the angular
    variable that is a layer of width ``sqrt(2 * eps)``, and the
    Gauss-Chebyshev error decays like ``exp(-2 K sqrt(2 eps))`` (Trefethen,
    *Approximation Theory and Approximation Practice*, ch. 8), so
    ``K >= REFINE_SAFETY / sqrt(2 eps)`` drives it below
    ``exp(-2 * REFINE_SAFETY)``.  The order is at least ``base_order`` and
    rounded up to an even number, so that no node sits at the interval's
    midpoint, where symmetric systems put their roots.  With
    auto-refinement on, the solver's rules come from :func:`refined_rule`,
    and the analytics sample each band's density at twice the band's
    order; ``quadrature_order`` then only sets the point path's node table
    and the uniform rule of the ``auto_refine=False`` path.
    """
    kind, i = frame
    if kind == "gap":
        own = bands.gap_widths[i]
        neighbours = bands.band_widths[i : i + 2]
    elif kind == "band":
        own = bands.band_widths[i]
        neighbours = bands.gap_widths[max(i - 1, 0) : i + 1]
    else:
        raise ValueError(f"unknown frame kind {kind!r}")
    order = base_order
    if neighbours.size:
        eps = 2.0 * float(neighbours.min()) / own
        order = max(order, int(math.ceil(REFINE_SAFETY / math.sqrt(2.0 * eps))))
    return order + order % 2


def refined_rule(bands: BandSystem, frame: tuple[str, int]) -> QuadratureRule:
    """Gauss-Chebyshev of :func:`refined_order` nodes or, for a gap, graded
    panels when they need fewer.  The band beside a gap end has its far end
    ``acosh(1 + 2 * band width / gap width)`` from it in ``theta``; panels
    halve toward that end down to half that distance, where
    ``PANEL_NODES`` nodes are exact to roundoff (Trefethen, *ATAP*, ch. 8).
    """
    order = refined_order(bands, frame)
    kind, i = frame
    panels = []
    for b in (i + 1, i) if kind == "gap" else ():
        t = 2.0 * bands.band_widths[b] / bands.gap_widths[i]
        distance = math.log1p(t + math.sqrt(t * (2.0 + t)))  # acosh(1 + t)
        panels.append(max(1, math.ceil(math.log2(2.0 * math.pi / distance))))
    if panels and PANEL_NODES * sum(panels) < order:
        return QuadratureRule.graded(tuple(panels))
    return QuadratureRule.chebyshev(order)
