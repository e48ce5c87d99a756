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
nothing is left over.  The log-space path (:func:`kernel_log_magnitude`),
which sums logarithms of all factors, has no production caller: it is
the reference the paired product is tested against, and the two agree to
~1e-12 relative.

:func:`gap_integral`, :func:`gap_jacobian_row`, :func:`band_integral` and
:func:`kernel_band` take the band system from their roots (``vars.bands``)
alone, and one frame index ``i`` or a sequence of frame indices that share
one rule.  A single index gives the single result (a ``float``, one row,
one set of values); a sequence gives one result per frame, stacked along a
first axis, from one batched paired product.  The batch holds at most
``BLOCK_ELEMS`` elements per temporary (the package's one budget), so no
frame-by-root array of the whole generation is formed; each value is
computed by the same operations as for its frame alone, so a batch and
per-frame calls agree bitwise.  The log-space path remains one frame per
call.

Every point the paired product pairs lies outside the frame's interval,
so no factor vanishes at a node of a rule, whose nodes lie in [-1, 1].
The one point inside a gap frame is its own root ``lambda_i``, in the
numerator factor ``(x - lambda_i)``: a node on it gives the integrand's
true value there, 0.  Only the log-space reference, where ``log 0`` is a
real singularity, checks for collisions.

Every integral takes its rule for the Chebyshev weight as an argument.
The solver sizes one rule per gap and per band from the geometry and
batches the frames that share one, all frames of a kind in one pass
(:func:`rule_groups`): Gauss-Chebyshev, a few dozen nodes for most
intervals, or beside a thin band panels graded toward it.

The analytics evaluate everything from one set of per-band Chebyshev
coefficients of the density, which depend on the roots alone and are
memoised on them, read-only (``GapVariables.band_series``).  In band
``b``'s frame the density is ``F(t) / (pi sqrt(1 - t**2))`` with ``F =
|Z| / sqrt|Y~|``; :func:`kernel_band` samples ``F`` at the first-kind
Chebyshev nodes of ``SERIES_OVERSAMPLING`` times the band's order, and a
DCT-II (one numpy FFT per series length) gives ``F = sum_j c_j T_j``;
``c_0`` is the band measure, and the table is :func:`series_width` wide.
A series stored earlier for the same roots can seed that memo instead
(:func:`restore_band_series`), so a caller that keeps the coefficients
evaluates no kernel and imports no ``numpy.fft``; the CLI reads or builds
the series of each solution a command evaluates before it evaluates any.

Results depend only on the arguments, and node sums run in a fixed order,
so values are reproducible; the only state is memos of rules and of the
roots' ``zetas`` and ``band_series`` (:func:`restore_band_series` seeds one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .geometry import BandSystem

# In the log-space reference, a point within this relative distance of a
# kernel root or endpoint is treated as an exact collision (its logarithm
# is meaningless there).
COLLISION_RTOL = 1e-15

# Accuracy-driven orders (see ``refined_orders``): never fewer than
# ``MIN_ORDER`` nodes, and enough that exp(-2 * REFINE_SAFETY) ~ 2e-16 bounds
# the quadrature error; that bound is optimistic beside wide neighbours, and a
# floor of 16 keeps those frames at roundoff where 8 loses digits (see
# ``refined_orders``).  ``ORDER_RULE`` names this rule in :func:`settings`;
# change it whenever the rule changes.
MIN_ORDER = 16
REFINE_SAFETY = 18.0
PANEL_NODES = 16  # Gauss-Legendre nodes per panel of a graded gap rule
ORDER_RULE = f"refined-or-graded/min{MIN_ORDER}/safety{REFINE_SAFETY:g}/panel{PANEL_NODES}"

# Each band's series interpolates F at the first-kind nodes of this many
# times the band's refined order.  At the refined order itself the series
# is truncated (an on-set spread of 2.3e-10 on the 4/5, 1/10 system at
# n = 1, whose bands take the floor of 16 nodes or 26); at twice it the
# spread is at roundoff (4.4e-16), and doubling again moves no mean
# potential by more than 1.1e-16 (ternary n <= 7, 4/5, 1/10 n <= 9).
# ``SERIES_RULE`` names how a series is built in :func:`series_settings`;
# change it whenever ``kernel_band`` or ``_chebyshev_series`` changes what
# they compute.
SERIES_OVERSAMPLING = 2
SERIES_RULE = f"dct2/oversampling{SERIES_OVERSAMPLING}/v1"

_PROD_BLOCK = 256  # rows per block when accumulating long factor products
# Nodes per piece of a row's dot in ``_weighted_sums``: OpenBLAS threads a dot
# of over 10 000 elements, whose bits then follow the thread count.
_DOT_PIECE = 8192
# Elements per temporary of every blocked loop in kernel, solver and analytics,
# read at each call: 2**15 raised the ternary-solve peak RSS by 0.4 MB, and the
# mean path runs within 6% of its fastest at 2**14.
BLOCK_ELEMS = 1 << 14


def settings() -> dict:
    """The kernel's settings that a stored solution binds, read at each call."""
    return {"numerics": ORDER_RULE, "prod_block": _PROD_BLOCK, "dot_piece": _DOT_PIECE}


def series_settings() -> dict:
    """Those that a stored band series binds besides, read at each call."""
    return {"series": SERIES_RULE}


class ExactNodeCollision(ValueError):
    """An evaluation point of :func:`kernel_log_magnitude` coincides with a
    kernel root or band endpoint, where the logarithm is singular."""


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
    def graded(cls, panels: tuple) -> "QuadratureRule":
        """Panels halving from ``pi/2`` toward ``theta = 0`` (``panels[0]``
        of them) and ``pi`` (``panels[1]``), ``PANEL_NODES`` nodes each;
        each end panel equals the next."""
        cuts = [0.5 * np.pi * 0.5 ** np.arange(n) for n in panels]
        edges = np.concatenate([[0.0], cuts[0][::-1], np.pi - cuts[1][1:], [np.pi]])
        t, w = _gauss_legendre(PANEL_NODES)
        half = 0.5 * np.diff(edges)[:, None]
        theta = (edges[:-1, None] + half * (1.0 + t)).ravel()
        return cls(order=theta.size, nodes=np.cos(theta),
                   weights=(half * w / np.pi).ravel(), panels=tuple(panels))


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
    inverse of the per-gap rescaling; ``lambda = 0`` puts the root at the
    gap midpoint.  ``band_series`` holds the per-band Chebyshev
    coefficients of the density (:func:`_chebyshev_series`).  Both depend
    on the roots alone and are memoised, read-only, on first use.
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
        if not np.all(np.abs(lam) < 1.0):  # NaN included
            raise ValueError("gap variables must lie strictly inside (-1, 1)")

    @cached_property
    def zetas(self) -> np.ndarray:
        lo, hi = self.bands.gap_los, self.bands.gap_his
        zetas = 0.5 * (lo + hi) + 0.5 * (hi - lo) * self.lambdas
        zetas.flags.writeable = False
        return zetas

    @cached_property
    def band_series(self) -> np.ndarray:
        coeffs = _chebyshev_series(self)
        coeffs.flags.writeable = False
        return coeffs


def restore_band_series(vars: GapVariables, coeffs: np.ndarray) -> bool:
    """Seed ``vars.band_series`` with ``coeffs``, stored from an earlier
    :func:`_chebyshev_series` of the same roots, if they fit: float64, one
    row per band, :func:`series_width` long, and every value finite.
    Returns whether the memo was seeded; the caller answers for the roots.
    """
    if (coeffs.dtype != np.float64
            or coeffs.shape != (vars.bands.n_bands, series_width(vars.bands))
            or not np.isfinite(coeffs).all()):
        return False
    coeffs = coeffs.copy()
    coeffs.flags.writeable = False
    vars.__dict__["band_series"] = coeffs  # where cached_property keeps its value
    return True


def _to_frame(y, lo, hi):
    return (2.0 * y - (hi + lo)) / (hi - lo)


def _from_frame(x, lo: float, hi: float):
    return 0.5 * (x * (hi - lo) + (hi + lo))


def _frames(i):
    """``(indices, scalar)``: frame index ``i``, or a sequence of them, as an
    integer array, and whether ``i`` was a single index."""
    return np.atleast_1d(np.asarray(i, dtype=np.intp)), np.ndim(i) == 0


def _frame_bounds(bands: BandSystem, kind: str, idx: np.ndarray):
    """Original-coordinate ends ``(lo, hi)`` of the frames ``idx``."""
    if kind == "gap":
        return bands.betas[idx], bands.alphas[idx + 1]
    if kind == "band":
        return bands.alphas[idx], bands.betas[idx]
    raise ValueError(f"unknown frame kind {kind!r}")


def kernel_log_magnitude(x, vars: GapVariables, frame: tuple[str, int]):
    """Sign and log-magnitude of ``Z / sqrt|Y~|`` in a rescaled frame.

    ``frame`` names the interval of ``vars.bands`` mapped onto [-1, 1]:
    ``("gap", i)`` or ``("band", i)``.  Its two endpoint factors are the ones
    absorbed into the Chebyshev weight and are omitted from ``Y~``.  Returns
    ``(sign, log_magnitude)`` with the shapes of ``x``; the sign counts the
    negative numerator factors.  One frame per call: this is the per-frame
    reference of the batched paired product.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    p, a_t, b_t = _frame_points(vars, frame)
    points = np.concatenate([p, _outer_endpoints(a_t, b_t, frame)])
    diff = x_arr[:, None] - points[None, :]
    # a collision is within COLLISION_RTOL of max(1, |x|, |point|)
    scale = np.maximum(1.0, np.maximum(np.abs(x_arr)[:, None], np.abs(points)[None, :]))
    if np.any(np.abs(diff) < COLLISION_RTOL * scale):
        raise ExactNodeCollision("evaluation point coincides with a root or endpoint")

    log_abs = np.log(np.abs(diff))
    log_mag = np.sum(log_abs[:, :p.size], axis=1) - 0.5 * np.sum(log_abs[:, p.size:], axis=1)
    sign = np.where(np.sum(diff[:, :p.size] < 0.0, axis=1) % 2 == 0, 1.0, -1.0)
    return (float(sign[0]), float(log_mag[0])) if np.ndim(x) == 0 else (sign, log_mag)


def _frame_points(vars: GapVariables, frame: tuple[str, int]):
    """Roots and band endpoints of ``vars`` in the coordinates of one ``frame``.

    In gap ``i``'s frame the own root is ``lambda_i`` itself, not mapped back
    from ``zeta_i`` (which rounds it by ``eps |zeta_i|`` over the half-width,
    enough to stall the line search on thin gaps), and the endpoints next
    to the gap follow from widths.  The batched paths form the same values
    by the same arithmetic (:func:`_paired_product`, :func:`_leftover`).
    """
    kind, i = frame
    bands = vars.bands
    lo, hi = _frame_bounds(bands, kind, i)
    p, a_t, b_t = (_to_frame(v, lo, hi) for v in (vars.zetas, bands.alphas, bands.betas))
    if kind == "gap":
        p[i] = vars.lambdas[i]
        a_t[i], b_t[i + 1] = _leftover(bands, i)
    return p, a_t, b_t


def _leftover(bands: BandSystem, idx: np.ndarray):
    """The unpaired endpoints ``a_t[i]`` and ``b_t[i + 1]`` of gap frame
    ``idx`` (an index or an array of them), from band widths over the gap
    width."""
    width = bands.alphas[idx + 1] - bands.betas[idx]
    return (-1.0 - 2.0 * (bands.betas[idx] - bands.alphas[idx]) / width,
            1.0 + 2.0 * (bands.betas[idx + 1] - bands.alphas[idx + 1]) / width)


def _outer_endpoints(a_t, b_t, frame: tuple[str, int]) -> np.ndarray:
    """Endpoints not absorbed into ``frame``'s Chebyshev weight."""
    kind, i = frame
    index = np.arange(a_t.size)
    a_absorbed = i + 1 if kind == "gap" else i
    return np.concatenate([a_t[index != a_absorbed], b_t[index != i]])


def _paired_product(x: np.ndarray, kind: str, idx: np.ndarray,
                    vars: GapVariables) -> np.ndarray:
    """Products of the paired factor ratios ``|x - p_m| / sqrt|Y_band|``, one
    row per frame of ``idx`` (``kind`` frames of ``vars.bands``), one
    column per node of ``x``.

    The pairing is the one in the module docstring: paired factor ``j`` of
    frame ``i`` holds root ``j + s`` and band ``j + 2 s`` in a gap frame,
    root ``j`` and band ``j + s`` in a band frame, where ``s = (j >= i)``.
    A gap frame forms its own root and its two leftover endpoints from
    ``lambda_i`` and widths, and none of them is paired, so every paired
    point is mapped from original coordinates.  In a band frame the paired
    points are all the points outside the weight.  Every paired point lies
    outside [-1, 1], so for ``x`` in [-1, 1] every factor is positive.
    """
    bands = vars.bands
    lo, hi = _frame_bounds(bands, kind, idx)
    centre, width = (hi + lo)[:, None], (hi - lo)[:, None]
    zeta2, alpha2, beta2 = 2.0 * vars.zetas, 2.0 * bands.alphas, 2.0 * bands.betas
    n_pairs = bands.n_gaps - (kind == "gap")
    j = np.arange(n_pairs)
    prod = np.ones((idx.size, x.size))

    # Work with squared ratios: the paired endpoint factors have the same
    # sign on (-1, 1), so each denominator product is positive, and one
    # square root per block of _PROD_BLOCK factors replaces one per factor.
    # Blockwise products of O(1) ratios cannot over- or underflow.  Chunks of
    # frames and nodes move no value: the product runs over the factors in order.
    block = max(1, min(n_pairs, _PROD_BLOCK))
    per = max(1, BLOCK_ELEMS // (block * x.size))
    cols = min(x.size, max(1, BLOCK_ELEMS // (per * block)))
    for f in range(0, idx.size, per):
        fs = slice(f, f + per)
        after = j >= idx[fs, None]
        band = j + (2 if kind == "gap" else 1) * after
        root = j + after if kind == "gap" else j
        p, a, b = ((v[k] - centre[fs]) / width[fs]
                   for v, k in ((zeta2, root), (alpha2, band), (beta2, band)))
        for start in range(0, n_pairs, block):
            sl = slice(start, start + block)
            p_b, a_b, b_b = p[:, sl, None], a[:, sl, None], b[:, sl, None]
            for c in range(0, x.size, cols):
                xc = x[c : c + cols]
                num = np.subtract(xc, p_b)
                np.multiply(num, num, out=num)
                den = np.subtract(xc, a_b)
                np.multiply(den, np.subtract(xc, b_b), out=den)
                np.divide(num, den, out=num)
                prod[fs, c : c + cols] *= np.sqrt(np.multiply.reduce(num, axis=1))
    return prod


def _grouped_reduced(x: np.ndarray, idx: np.ndarray, vars: GapVariables):
    """Signed kernel in the gap frames ``idx`` with the own-root factor removed.

    Row ``f`` is ``g`` of frame ``i = idx[f]``, where the full kernel is
    ``(x - lambda_i) * g``: the paired product divided by the two leftover
    endpoint factors nearest the rescaled gap, ``|x - a_t[i]|`` and
    ``|x - b_t[i+1]|``.  Neither contains ``lambda_i``.
    """
    prod = _paired_product(x, "gap", idx, vars)
    a_i, b_next = (v[:, None] for v in _leftover(vars.bands, idx))
    leftover = np.sqrt((x - a_i) * (b_next - x))
    sign = np.where((vars.bands.n_gaps - 1 - idx) % 2, -1.0, 1.0)[:, None]
    return sign * prod / leftover


def _weighted_sums(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``f[k] @ w`` for every row: one BLAS dot per row (``matmul`` of 1 x K by
    K x 1 blocks), so each value is bitwise the one-row product.  A row of
    over ``_DOT_PIECE`` nodes sums the dots of its pieces in order, so every
    dot runs on one OpenBLAS thread whatever the thread count."""
    sums = np.matmul(f[:, None, :_DOT_PIECE], w[:_DOT_PIECE, None])[:, 0, 0]
    for s in range(_DOT_PIECE, w.size, _DOT_PIECE):
        sums += np.matmul(f[:, None, s : s + _DOT_PIECE], w[s : s + _DOT_PIECE, None])[:, 0, 0]
    return sums


def _shaped(values: np.ndarray, x, scalar: bool):
    """Per-frame rows over ``x``'s points, unwrapped for a scalar index or point."""
    values = values.reshape(values.shape[:1] + np.shape(x))
    values = values[0] if scalar else values
    return float(values) if values.ndim == 0 else values


def kernel_band(x, i, vars: GapVariables):
    """``|Z| / sqrt|Y~|`` in band ``i``'s frame via the paired product.

    ``i`` is one band of ``vars.bands`` or a sequence of them; a sequence
    gives one row per band, of ``x``'s shape.  Every root and endpoint
    outside the band's own two ends is paired, so no factor is left over.
    ``x`` lies in [-1, 1], where no root or endpoint lies, so the value is
    positive and finite.  Agrees with the log-space reference to roundoff.
    """
    idx, scalar = _frames(i)
    x_arr = np.asarray(x, dtype=float).ravel()
    return _shaped(_paired_product(x_arr, "band", idx, vars), x, scalar)


def kernel_grouped(x, i, vars: GapVariables):
    """``Z / sqrt|Y~|`` in gap ``i``'s frame via grouped factor ratios.

    ``i`` is one gap of ``vars.bands`` or a sequence of them, as in
    :func:`kernel_band`.
    ``x`` lies in [-1, 1] in the rescaled frame, and the value at the own
    root ``lambda_i`` is 0.  Agrees with the log-space reference to
    roundoff; partial products stay O(1) for any number of bands.
    """
    idx, scalar = _frames(i)
    x_arr = np.asarray(x, dtype=float).ravel()
    g = _grouped_reduced(x_arr, idx, vars)
    return _shaped((x_arr - vars.lambdas[idx, None]) * g, x, scalar)


def gap_integral(i, vars: GapVariables, rule: QuadratureRule, keep: dict | None = None):
    """Gauss-Chebyshev value of the signed root equation over gap ``i``.

    This is ``(1/pi) * integral of Z/sqrt|Y|`` over gap ``i`` of ``vars.bands``
    after rescaling it to [-1, 1]; the gap's own endpoints supply the
    Chebyshev weight.  At the solution all these integrals vanish.  ``i``
    is one gap index (a ``float`` result) or a sequence of gaps sharing
    ``rule`` (an array, one value per gap), evaluated in one batched pass.
    With a ``keep`` dict, ``keep[i]`` (a tuple for a sequence) receives
    ``(rule, g)``, the reduced kernels :func:`gap_jacobian_row` reuses at
    the same variables.
    """
    idx, scalar = _frames(i)
    x = rule.nodes
    g = _grouped_reduced(x, idx, vars)
    if keep is not None:
        keep[i if scalar else tuple(idx.tolist())] = (rule, g)
    values = _weighted_sums((x - vars.lambdas[idx, None]) * g, rule.weights)
    return float(values[0]) if scalar else values


def band_integral(i, vars: GapVariables, rule: QuadratureRule):
    """Equilibrium measure of band ``i`` of ``vars.bands`` (harmonic frequency).

    The band is rescaled to [-1, 1] and ``|Z| / sqrt|Y~|`` is integrated
    against the Chebyshev weight, with the kernel from the band-frame
    paired product (:func:`kernel_band`).  ``i`` is one band index (a
    ``float``) or a sequence of bands sharing ``rule`` (an array).
    """
    idx, scalar = _frames(i)
    values = _weighted_sums(_paired_product(rule.nodes, "band", idx, vars), rule.weights)
    return float(values[0]) if scalar else values


def gap_jacobian_row(i, vars: GapVariables, rule: QuadratureRule,
                     reduced: np.ndarray | None = None) -> np.ndarray:
    """All derivatives ``d K_i / d lambda_m`` of one gap equation of ``vars``.

    Differentiating the Gaussian sum in its root ``zeta_m`` drops the
    ``m``-th numerator factor and multiplies by ``-A_i`` (the frame slope);
    the chain rule to the normalized variable contributes ``1 / A_m``.
    The dropped-factor products reuse the grouped kernel: dividing the full
    kernel by ``(x - p_m)`` is stable because only ``p_i`` lies inside the
    frame, and for ``m = i`` the reduced kernel is used directly.  ``i`` is
    one gap index (one row) or a sequence of gaps sharing ``rule`` (one row
    per gap).  ``reduced`` holds the reduced kernels at the nodes of
    ``rule``, one row per gap, when the residual pass at the same variables
    built them (see ``keep`` in :func:`gap_integral`).  The off-diagonal
    sums are ``einsum``, not BLAS, over blocks of at most ``BLOCK_ELEMS``
    elements; the diagonal takes the residual's per-row dot.
    """
    idx, scalar = _frames(i)
    x, w = rule.nodes, rule.weights
    g = _grouped_reduced(x, idx, vars) if reduced is None else reduced
    g = g.reshape(idx.size, x.size)
    f = (x - vars.lambdas[idx, None]) * g
    lo, hi = _frame_bounds(vars.bands, "gap", idx)
    centre, width = (hi + lo)[:, None], (hi - lo)[:, None]
    zeta2 = 2.0 * vars.zetas

    n = vars.bands.n_gaps
    rows = np.empty((idx.size, n))
    per_rows = min(n, max(1, BLOCK_ELEMS // x.size))
    per = max(1, BLOCK_ELEMS // (per_rows * x.size))
    for s in range(0, idx.size, per):
        fs = slice(s, s + per)
        p = (zeta2 - centre[fs]) / width[fs]
        p[np.arange(p.shape[0]), idx[fs]] = np.inf  # the diagonal, set below: no 0/0
        for start in range(0, n, per_rows):
            sl = slice(start, start + per_rows)
            t = np.subtract(x, p[:, sl, None])
            np.divide(f[fs, None, :], t, out=t)
            rows[fs, sl] = np.einsum("fmk,k->fm", t, w)
    gap_w = vars.bands.gap_widths
    rows *= -(gap_w / gap_w[idx, None])
    rows[np.arange(idx.size), idx] = -_weighted_sums(g, w)
    return rows[0] if scalar else rows


def _dct2(x: np.ndarray) -> np.ndarray:
    """Unnormalised DCT-II along the last axis, ``2 sum_n x_n cos(pi k (2n + 1)
    / (2M))``, by one FFT (Makhoul, IEEE Trans. ASSP 28, 1980)."""
    m = x.shape[-1]
    v = np.concatenate([x[..., ::2], x[..., 1::2][..., ::-1]], axis=-1)
    return 2.0 * (np.fft.fft(v) * np.exp(-0.5j * np.pi / m * np.arange(m))).real


def _chebyshev_series(vars: GapVariables) -> np.ndarray:
    """Chebyshev coefficients of ``F = |Z| / sqrt|Y~|`` on each band of ``vars``.

    Row ``b`` holds ``c_0 .. c_{M-1}``, ``M`` being ``SERIES_OVERSAMPLING``
    times the order of band ``b``'s rule, zero-padded to :func:`series_width`:
    ``sum_j c_j T_j`` interpolates ``F`` at the first-kind Chebyshev nodes of
    order ``M`` in band ``b``'s frame, and ``c_0`` is the band measure under
    that order's Gauss-Chebyshev rule; each of the bands' :func:`rule_groups`
    is one :func:`kernel_band` call and one :func:`_dct2`.
    """
    coeffs = np.zeros((vars.bands.n_bands, series_width(vars.bands)))
    for rule, rows in rule_groups(vars.bands, "band"):
        m = SERIES_OVERSAMPLING * rule.order
        coeffs[rows, :m] = _dct2(kernel_band(QuadratureRule.chebyshev(m).nodes, rows, vars)) / m
    coeffs[:, 0] *= 0.5
    return coeffs


def series_width(bands: BandSystem) -> int:
    """The length of the longest band series, the width of the series table:
    ``SERIES_OVERSAMPLING``, read at each call, times the largest of the
    bands' :func:`refined_orders`."""
    return SERIES_OVERSAMPLING * int(refined_orders(bands, "band").max())


def refined_orders(bands: BandSystem, kind: str) -> np.ndarray:
    """Even quadrature orders resolving every frame's endpoint boundary layers.

    One order per gap (``kind="gap"``) or per band (``"band"``), computed in
    one array pass over the widths.  After rescaling, the nearest unabsorbed
    endpoint sits at distance ``eps = 2 * min(neighbouring widths) / own
    width`` outside [-1, 1]; the neighbours of gap ``i`` are bands ``i`` and
    ``i + 1``, those of band ``i`` whichever of gaps ``i - 1`` and ``i``
    exist.  In the angular variable that is a layer of width ``sqrt(2 *
    eps)``, and the Gauss-Chebyshev error decays like ``exp(-2 K sqrt(2
    eps))`` (Trefethen, *Approximation Theory and Approximation Practice*,
    ch. 8), so ``K >= REFINE_SAFETY / sqrt(2 eps)`` drives it below
    ``exp(-2 * REFINE_SAFETY)``.  That bound is optimistic when the nearest
    endpoint is far, as beside wide neighbours, so the order is at least
    ``MIN_ORDER``, read at each call: at 16 every Gauss-Chebyshev gap and band
    rule of the tested systems agrees with four times its order to 2e-15
    of the integral of the integrand's modulus, where 8 loses digits
    (3.2e-15 on the bands of the 0.3, 0.1, 0.2 three-map system).  It is
    rounded up to an even number, so that no node sits at the interval's
    midpoint, where symmetric systems put their roots.  The solver's rules
    come from :func:`rule_groups`, and the band series sample each band's
    density at ``SERIES_OVERSAMPLING`` times the band's order.
    """
    band_w, gap_w = bands.band_widths, bands.gap_widths
    if kind == "gap":
        own, near = gap_w, np.minimum(band_w[:-1], band_w[1:])
    elif kind == "band":
        padded = np.concatenate([[np.inf], gap_w, [np.inf]])  # a missing neighbour
        own, near = band_w, np.minimum(padded[:-1], padded[1:])
    else:
        raise ValueError(f"unknown frame kind {kind!r}")
    eps = 2.0 * near / own
    orders = np.maximum(MIN_ORDER, np.ceil(REFINE_SAFETY / np.sqrt(2.0 * eps))).astype(int)
    return orders + orders % 2


def rule_groups(bands: BandSystem, kind: str) -> list[tuple]:
    """``(rule, indices)`` for each memoised rule over the gaps
    (``kind="gap"``) or bands (``"band"``), in order of first use;
    ``indices`` is an ascending tuple of Python ints, and every frame is in
    one group.  Every batched pass, solver and band series alike, takes its
    batches from here.

    A frame's rule is Gauss-Chebyshev of :func:`refined_orders` nodes or, for
    a gap, graded panels when they need fewer.  The band beside a gap end has
    its far end ``acosh(1 + 2 * band width / gap width)`` from it in
    ``theta``; panels halve toward that end down to half that distance, where
    ``PANEL_NODES`` nodes are exact to roundoff (Trefethen, *ATAP*, ch. 8).
    Only gaps whose order exceeds two panels can take them; their counts use
    ``math``, since numpy's ``log1p`` pages in a quarter megabyte of SIMD
    tables on first use.
    """
    band_w, gap_w = bands.band_widths.tolist(), bands.gap_widths.tolist()
    groups: dict = {}  # a Chebyshev order, or a graded rule's panel counts
    for i, order in enumerate(refined_orders(bands, kind).tolist()):
        key = order
        if kind == "gap" and order > 2 * PANEL_NODES:
            panels = []
            for b in (i + 1, i):  # toward theta = 0 the right band, toward pi the left
                t = 2.0 * band_w[b] / gap_w[i]
                distance = math.log1p(t + math.sqrt(t * (2.0 + t)))  # acosh(1 + t)
                panels.append(max(1, math.ceil(math.log2(2.0 * math.pi / distance))))
            if PANEL_NODES * sum(panels) < order:
                key = tuple(panels)
        groups.setdefault(key, []).append(i)
    return [(QuadratureRule.graded(key) if isinstance(key, tuple)
             else QuadratureRule.chebyshev(key), tuple(idx)) for key, idx in groups.items()]
