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

All functions are pure; results depend only on the arguments, and node
sums always run in the fixed node order, so values are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BandSystem

# A point within this relative distance of a kernel root or endpoint is
# treated as an exact collision (the integrand value is meaningless there).
COLLISION_RTOL = 1e-15

_PROD_BLOCK = 256  # rows per block when accumulating long factor products
_CHUNK_ELEMS = 1 << 15  # elements per temporary of a paired-product chunk


class ExactNodeCollision(ValueError):
    """Evaluation point coincides with a kernel root or band endpoint."""


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Chebyshev rule for the normalized weight 1/(pi*sqrt(1-x^2)).

    ``nodes`` are ``cos((2k - 1) pi / (2K))`` for ``k = 1..K`` and all
    weights equal ``1/K``; the rule is exact for polynomials of degree up
    to ``2K - 1`` against the unit-mass Chebyshev measure.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False

    @classmethod
    def chebyshev(cls, order: int) -> "QuadratureRule":
        if order < 1:
            raise ValueError(f"quadrature order must be positive, got {order}")
        k = np.arange(1, order + 1)
        nodes = np.cos((2 * k - 1) * np.pi / (2 * order))
        weights = np.full(order, 1.0 / order)
        return cls(order=order, nodes=nodes, weights=weights)


@dataclass(frozen=True)
class GapVariables:
    """Normalized gap roots: one ``lambda`` in (-1, 1) per gap.

    ``zetas`` are the same roots in original coordinates, obtained by the
    inverse of the per-gap rescaling; ``lambda = 0`` puts the root at the
    gap midpoint.
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

    @property
    def zetas(self) -> np.ndarray:
        lo, hi = self.bands.gap_los, self.bands.gap_his
        return 0.5 * (lo + hi) + 0.5 * (hi - lo) * self.lambdas


def _frame_interval(bands: BandSystem, frame: tuple[str, int]) -> tuple[float, float]:
    kind, i = frame
    if kind == "gap":
        return bands.gap_los[i], bands.gap_his[i]
    if kind == "band":
        return bands.alphas[i], bands.betas[i]
    raise ValueError(f"unknown frame kind {kind!r}")


def _to_frame(y, lo: float, hi: float):
    return (2.0 * y - (hi + lo)) / (hi - lo)


def _from_frame(x, lo: float, hi: float):
    return 0.5 * (x * (hi - lo) + (hi + lo))


def _check_collision(x: np.ndarray, points: np.ndarray) -> None:
    """Raise when some ``x`` lies within ``COLLISION_RTOL`` of a point.

    The distance is relative to ``max(1, |x|, |point|)``.  Only the nearest
    node on either side of a point can be that close, so the nodes are
    sorted once and each point is tested against its two neighbours.
    """
    if x.size == 0 or points.size == 0:
        return
    xs = np.sort(x, axis=None)
    k = np.searchsorted(xs, points)
    for near in (xs[np.maximum(k - 1, 0)], xs[np.minimum(k, xs.size - 1)]):
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
    p, a_t, b_t = _frame_points(bands, vars.zetas, frame)
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
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(sign[0]), float(log_mag[0])
    return sign, log_mag


def _frame_points(bands: BandSystem, zetas: np.ndarray, frame: tuple[str, int]):
    """Roots and band endpoints in the coordinates of ``frame``."""
    lo, hi = _frame_interval(bands, frame)
    return (_to_frame(zetas, lo, hi), _to_frame(bands.alphas, lo, hi),
            _to_frame(bands.betas, lo, hi))


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


def _grouped_reduced(x: np.ndarray, i: int, bands: BandSystem, zetas: np.ndarray):
    """Signed kernel in gap ``i``'s frame with the own-root factor removed.

    Returns ``(g, p)`` where the full kernel is ``(x - p[i]) * g``: the
    paired product divided by the two leftover endpoint factors nearest
    the rescaled gap, ``|x - a_t[i]|`` and ``|x - b_t[i+1]|``.
    """
    frame = ("gap", i)
    p, a_t, b_t = _frame_points(bands, zetas, frame)
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
    p, a_t, b_t = _frame_points(bands, vars.zetas, frame)
    _check_collision(x_arr, np.concatenate([p, _outer_endpoints(a_t, b_t, frame)]))
    values = _paired_product(x_arr, frame, p, a_t, b_t)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(values[0])
    return values


def kernel_grouped(x, i: int, bands: BandSystem, vars: GapVariables):
    """``Z / sqrt|Y~|`` in gap ``i``'s frame via grouped factor ratios.

    ``x`` must lie strictly inside (-1, 1) in the rescaled frame.  Agrees
    with the log-space evaluator to roundoff; partial products stay O(1)
    for any number of bands.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    _check_collision(x_arr, np.array([vars.lambdas[i]]))
    g, p = _grouped_reduced(x_arr, i, bands, vars.zetas)
    values = (x_arr - p[i]) * g
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(values[0])
    return values


def gap_integral(i: int, bands: BandSystem, vars: GapVariables, rule: QuadratureRule,
                 evaluator: str = "grouped", keep: dict | None = None) -> float:
    """Gauss-Chebyshev value of the signed root equation over gap ``i``.

    This is ``(1/pi) * integral of Z/sqrt|Y|`` over the gap after rescaling
    it to [-1, 1]; the gap's own endpoints supply the Chebyshev weight.  At
    the solution all these integrals vanish.  With the grouped evaluator
    and a ``keep`` dict, ``keep[i]`` receives ``(rule, g)``, the reduced
    kernel that :func:`gap_jacobian_row` accepts at the same variables.
    """
    x = rule.nodes
    if evaluator == "grouped":
        _check_collision(x, np.array([vars.lambdas[i]]))
        g, p = _grouped_reduced(x, i, bands, vars.zetas)
        if keep is not None:
            keep[i] = (rule, g)
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
                     rule: QuadratureRule, g: np.ndarray | None = None) -> np.ndarray:
    """All derivatives ``d K_i / d lambda_m`` of one gap equation.

    Differentiating the Gaussian sum in its root ``zeta_m`` drops the
    ``m``-th numerator factor and multiplies by ``-A_i`` (the frame slope);
    the chain rule to the normalized variable contributes ``1 / A_m``.
    The dropped-factor products reuse the grouped kernel: dividing the full
    kernel by ``(x - p_m)`` is stable because only ``p_i`` lies inside the
    frame, and for ``m = i`` the reduced kernel is used directly.  ``g`` is
    that reduced kernel at the nodes of ``rule`` when the residual pass at
    the same variables already built it (see ``keep`` in
    :func:`gap_integral`); otherwise it is built here.
    """
    x, w = rule.nodes, rule.weights
    if g is None:
        _check_collision(x, np.array([vars.lambdas[i]]))
        g, p = _grouped_reduced(x, i, bands, vars.zetas)
    else:
        p = _to_frame(vars.zetas, *_frame_interval(bands, ("gap", i)))
    f = (x - p[i]) * g

    n_gaps = bands.n_gaps
    gap_w = bands.gap_widths
    row = np.empty(n_gaps)
    for start in range(0, n_gaps, _PROD_BLOCK):
        stop = min(start + _PROD_BLOCK, n_gaps)
        block = f[None, :] / (x[None, :] - p[start:stop, None])
        row[start:stop] = block @ w
    row *= -(gap_w / gap_w[i])
    row[i] = -float(g @ w)
    return row


def gap_jacobian(i: int, m: int, bands: BandSystem, vars: GapVariables,
                 rule: QuadratureRule) -> float:
    """Single Jacobian entry ``d K_i / d lambda_m``."""
    return float(gap_jacobian_row(i, bands, vars, rule)[m])


def refined_gap_order(bands: BandSystem, i: int, base_order: int, safety: float = 14.0) -> int:
    """Quadrature order resolving gap ``i``'s endpoint boundary layers.

    After rescaling, the nearest unabsorbed endpoint sits at distance
    ``eps = 2 * min(adjacent band widths) / gap width`` outside [-1, 1],
    which in the angular variable is a layer of width ``sqrt(2 * eps)``.
    The Gauss-Chebyshev error decays like ``exp(-2 K sqrt(2 eps))``, so
    ``K >= safety / sqrt(2 eps)`` drives it below ``exp(-2 * safety)``.
    Old gaps flanked by deep, nearly vanishing bands are the only ones that
    ever need more than a few hundred nodes.
    """
    widths = bands.band_widths
    eps = 2.0 * min(widths[i], widths[i + 1]) / bands.gap_widths[i]
    needed = int(math.ceil(safety / math.sqrt(2.0 * eps)))
    return max(base_order, needed)
