"""Affine IFS geometry: bands, gaps, and gap genealogy.

An iterated function system is a family of contractions
``phi_j(s) = delta_j * (s - gamma_j) + gamma_j`` with ``0 < delta_j < 1``.
Applying all length-``n`` compositions to the convex hull of the attractor
produces the generation-``n`` approximation: a union of ``M**n`` disjoint
closed intervals ("bands") separated by open "gaps".  Gaps, once created,
persist verbatim at every later generation.  A band system carries its
genealogy (parents and preimages) as arrays; only this module knows their
``M``-ary layout.  :func:`generations` builds generations ``0..n`` in one
walk, each subdividing the one before, and :func:`generate_bands` is that
walk's last step, so a caller that needs every generation walks once.

All constructors here produce immutable values (arrays are frozen), so band
systems can be shared across threads without synchronization.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

# Reject generations whose narrowest band is below this fraction of the hull
# width, or subnormal: double precision cannot resolve the bands past it.
WIDTH_FLOOR = 1e-13

# Reject generations with more bands than this.  The solver's one dense
# Jacobian, scaled in place, takes 8 * N**2 bytes, about 0.5 GB at this cap.
MAX_BANDS = 8192

# Images of the hull must be separated by at least this fraction of the hull
# width.  Touching intervals are rejected: the root equations need open gaps.
SEPARATION_TOL = 1e-12


class InvalidIfs(ValueError):
    """The map family cannot generate a fully disconnected attractor."""


class NotContractive(InvalidIfs):
    """Some contraction ratio lies outside (0, 1)."""


class DuplicateFixedPoints(InvalidIfs):
    """Two maps share a fixed point."""


class OverlappingImages(InvalidIfs):
    """Images of the hull intersect or touch; bands/gaps are undefined."""


class GenerationTooLarge(ValueError):
    """The requested generation has more than ``MAX_BANDS`` bands, or bands
    below the width floor or subnormal."""


@dataclass(frozen=True)
class AffineMap:
    """One contraction ``s -> delta * (s - gamma) + gamma``.

    ``delta`` is the contraction ratio, ``gamma`` the fixed point.  The map
    fixes ``gamma`` exactly, also in floating point.
    """

    delta: float
    gamma: float

    def __call__(self, s):
        return self.delta * (s - self.gamma) + self.gamma


@dataclass(frozen=True)
class IfsSystem:
    """An ordered family of affine contractions."""

    maps: tuple[AffineMap, ...]

    @classmethod
    def from_pairs(cls, pairs) -> "IfsSystem":
        """Build a system from ``(delta, gamma)`` pairs."""
        return cls(tuple(AffineMap(float(d), float(g)) for d, g in pairs))

    @property
    def n_maps(self) -> int:
        return len(self.maps)

    @property
    def deltas(self) -> np.ndarray:
        return np.array([m.delta for m in self.maps])

    @property
    def gammas(self) -> np.ndarray:
        return np.array([m.gamma for m in self.maps])


@dataclass(frozen=True)
class Interval:
    """A non-degenerate closed interval ``[lo, hi]``."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"interval endpoints not increasing: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


def validate(ifs: IfsSystem) -> IfsSystem:
    """Check contractivity, finite fixed points, a hull of normal width and
    full disconnection; return the sorted system.

    Maps are reordered by increasing fixed point.  The images of the hull
    under the sorted maps must be pairwise disjoint with open space between
    them (separation below ``SEPARATION_TOL`` relative to the hull width is
    rejected as touching).
    """
    if ifs.n_maps < 2:
        raise InvalidIfs(f"need at least 2 maps, got {ifs.n_maps}")

    bad = [m for m in ifs.maps if not 0.0 < m.delta < 1.0]
    if bad:
        raise NotContractive(f"contraction ratios outside (0, 1): {[m.delta for m in bad]}")
    if not np.isfinite(ifs.gammas).all():
        raise InvalidIfs(f"fixed points must be finite, got {[m.gamma for m in ifs.maps]}")

    maps = tuple(sorted(ifs.maps, key=lambda m: m.gamma))
    gammas = [m.gamma for m in maps]
    if any(g2 == g1 for g1, g2 in zip(gammas, gammas[1:])):
        raise DuplicateFixedPoints(f"repeated fixed points in {gammas}")

    g1, gm = gammas[0], gammas[-1]
    span = gm - g1
    if span < sys.float_info.min:
        raise InvalidIfs(f"the hull [{g1}, {gm}] is narrower than the smallest normal double")
    images = [(m(g1), m(gm)) for m in maps]
    for (lo_a, hi_a), (lo_b, hi_b) in zip(images, images[1:]):
        if lo_b - hi_a < SEPARATION_TOL * span:
            raise OverlappingImages(
                f"hull images [{lo_a}, {hi_a}] and [{lo_b}, {hi_b}] are not separated"
            )
    return IfsSystem(maps)


def hull(ifs: IfsSystem) -> Interval:
    """Convex hull of the attractor: [smallest, largest fixed point]."""
    gammas = ifs.gammas
    return Interval(float(gammas.min()), float(gammas.max()))


@dataclass(frozen=True)
class BandSystem:
    """Generation-``n`` bands, gaps and gap genealogy.

    ``alphas``/``betas`` hold the left/right endpoints of the ``M**n``
    sorted bands.  Gap ``g`` (0-based) is the open interval
    ``(betas[g], alphas[g + 1])``.  ``parents[g]`` is the gap of generation
    ``n - 1`` that gap ``g`` continues, with identical (bitwise) endpoints,
    and ``preimages[g]`` the gap there that the outermost map of gap ``g``'s
    address sends onto it; both are ``intp``, -1 for none.  All read-only.
    """

    generation: int
    alphas: np.ndarray
    betas: np.ndarray
    parents: np.ndarray = field(repr=False)
    preimages: np.ndarray = field(repr=False)

    def __post_init__(self):
        for array in (self.alphas, self.betas, self.parents, self.preimages):
            array.flags.writeable = False

    @property
    def n_bands(self) -> int:
        return self.alphas.size

    @property
    def n_gaps(self) -> int:
        return self.n_bands - 1

    @property
    def gap_los(self) -> np.ndarray:
        return self.betas[:-1]

    @property
    def gap_his(self) -> np.ndarray:
        return self.alphas[1:]

    @property
    def band_widths(self) -> np.ndarray:
        return self.betas - self.alphas

    @property
    def gap_widths(self) -> np.ndarray:
        return self.alphas[1:] - self.betas[:-1]

    @property
    def hull(self) -> Interval:
        return Interval(float(self.alphas[0]), float(self.betas[-1]))


def generations(ifs: IfsSystem, n: int) -> tuple[BandSystem, ...]:
    """Bands and gaps of generations ``0..n`` of a validated system, built in
    one walk: entry ``k`` is generation ``k``.

    Each generation subdivides each band of the one before into its ``M``
    children at the normalized positions of the hull images; this follows
    map compositions depth-first with the innermost index varying fastest,
    which keeps the list sorted for a fully disconnected system (sortedness
    is checked, not re-imposed, so violations surface as errors).  With
    this ordering the children of band ``q`` are bands ``q*M .. q*M+M-1``
    of the next generation: gap ``g`` of generation ``k`` is old exactly
    when ``(g + 1) % M == 0``, with parent gap ``(g + 1) // M - 1``, and its
    preimage is gap ``(g + 1) % M**(k - 1) - 1``.

    Raises :class:`GenerationTooLarge` before building anything when the
    band count ``M**n`` exceeds ``MAX_BANDS`` or the nominal narrowest band,
    ``min(delta)**n`` of the hull, falls below ``WIDTH_FLOOR`` of the hull,
    and otherwise at the first generation whose computed widths do or are subnormal.
    """
    if n < 0:
        raise ValueError(f"generation must be non-negative, got {n}")
    ifs = validate(ifs)
    # M**n exceeds the cap exactly when M**min(n, 14) does, and stays small
    if ifs.n_maps ** min(n, MAX_BANDS.bit_length()) > MAX_BANDS:
        raise GenerationTooLarge(
            f"generation {n} is too deep: its {ifs.n_maps}**{n} bands exceed the cap "
            f"MAX_BANDS = {MAX_BANDS}")
    narrowest = float(ifs.deltas.min()) ** n
    if narrowest < WIDTH_FLOOR:
        raise GenerationTooLarge(
            f"generation {n} is too deep: its narrowest band, {narrowest:.3g} of the "
            f"hull, is below the width floor {WIDTH_FLOOR:g}")
    h = hull(ifs)
    span = h.width

    # Normalized child positions inside [0, 1]; exactly 0 and 1 at the ends
    # because each extreme map fixes its own hull endpoint.
    t_lo = np.array([(m(h.lo) - h.lo) / span for m in ifs.maps])
    t_hi = np.array([(m(h.hi) - h.lo) / span for m in ifs.maps])

    alphas = np.array([h.lo])
    betas = np.array([h.hi])
    m_maps = ifs.n_maps
    walk = []
    for k in range(n + 1):
        if k:
            # Convex combinations keep the first child's lo and the last child's
            # hi bitwise equal to the parent's, so old gaps persist exactly.
            new_alphas = (alphas[:, None] * (1.0 - t_lo) + betas[:, None] * t_lo).ravel()
            new_betas = (alphas[:, None] * (1.0 - t_hi) + betas[:, None] * t_hi).ravel()
            alphas, betas = new_alphas, new_betas
            if np.min(betas - alphas) < max(WIDTH_FLOOR * span, sys.float_info.min):
                raise GenerationTooLarge(
                    f"generation {k} is too deep: a band of it is below the width floor "
                    f"{WIDTH_FLOOR:g} of the hull or the smallest normal double")
        if not (np.all(betas > alphas) and np.all(alphas[1:] > betas[:-1])):
            raise RuntimeError("generated bands are not sorted and disjoint")
        step = np.arange(1, alphas.size, dtype=np.intp)  # g + 1 for every gap g
        walk.append(BandSystem(
            generation=k, alphas=alphas, betas=betas,
            parents=np.where(step % m_maps == 0, step // m_maps - 1, -1),
            preimages=step % max(alphas.size // m_maps, 1) - 1))
    return tuple(walk)


def generate_bands(ifs: IfsSystem, n: int) -> BandSystem:
    """Bands and gaps of generation ``n`` for a validated system: the last
    step of :func:`generations`, with its checks."""
    return generations(ifs, n)[-1]
