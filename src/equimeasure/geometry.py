"""Affine IFS geometry: bands, gaps, and gap genealogy.

An iterated function system is a family of contractions
``phi_j(s) = delta_j * (s - gamma_j) + gamma_j`` with ``0 < delta_j < 1``.
Applying all length-``n`` compositions to the convex hull of the attractor
produces the generation-``n`` approximation: a union of ``M**n`` disjoint
closed intervals ("bands") separated by open "gaps".  Gaps, once created,
persist verbatim at every later generation; the genealogy records which
generation-``n`` gaps already existed at generation ``n - 1``.

All constructors here produce immutable values (arrays are frozen), so band
systems can be shared across threads without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Reject generations whose narrowest band is below this fraction of the hull
# width: double precision cannot resolve the gap/band structure past it.
WIDTH_FLOOR = 1e-13

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
    """Band widths at the requested generation underflow the width floor."""


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
    """Check contractivity, finite fixed points and full disconnection; return
    the sorted system.

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
    ``(betas[g], alphas[g + 1])``.  ``genealogy[g]`` is the parent gap
    index at generation ``n - 1`` for gaps that already existed there, and
    ``None`` for gaps newly created at this generation.  Old gaps have
    endpoints identical (bitwise) to their parent's.
    """

    generation: int
    alphas: np.ndarray
    betas: np.ndarray
    genealogy: tuple = field(repr=False)

    def __post_init__(self):
        self.alphas.flags.writeable = False
        self.betas.flags.writeable = False

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


def generate_bands(ifs: IfsSystem, n: int) -> BandSystem:
    """Bands and gaps of generation ``n`` for a validated system.

    Bands are produced by repeatedly subdividing each band into its ``M``
    children at the normalized positions of the hull images; this follows
    map compositions depth-first with the innermost index varying fastest,
    which keeps the list sorted for a fully disconnected system (sortedness
    is checked, not re-imposed, so violations surface as errors).  With
    this ordering the children of band ``q`` are bands ``q*M .. q*M+M-1``
    of the next generation, and gap ``g`` is old exactly when
    ``(g + 1) % M == 0``, with parent gap ``g // M``.

    Raises :class:`GenerationTooLarge` when a band falls below
    ``WIDTH_FLOOR`` of the hull: before building anything when the nominal
    narrowest band, ``min(delta)**n`` of the hull, does, and otherwise at
    the first generation whose computed widths do.
    """
    if n < 0:
        raise ValueError(f"generation must be non-negative, got {n}")
    ifs = validate(ifs)
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
    for k in range(1, n + 1):
        # Convex combinations keep the first child's lo and the last child's
        # hi bitwise equal to the parent's, so old gaps persist exactly.
        new_alphas = (alphas[:, None] * (1.0 - t_lo) + betas[:, None] * t_lo).ravel()
        new_betas = (alphas[:, None] * (1.0 - t_hi) + betas[:, None] * t_hi).ravel()
        alphas, betas = new_alphas, new_betas
        if np.min(betas - alphas) < WIDTH_FLOOR * span:
            raise GenerationTooLarge(
                f"generation {k} is too deep: a band of it is below the width floor "
                f"{WIDTH_FLOOR:g} of the hull")
    if not (np.all(betas > alphas) and np.all(alphas[1:] > betas[:-1])):
        raise RuntimeError("generated bands are not sorted and disjoint")

    if n == 0:
        genealogy: tuple = ()
    else:
        genealogy = tuple(
            g // m_maps if (g + 1) % m_maps == 0 else None for g in range(alphas.size - 1)
        )
    return BandSystem(generation=n, alphas=alphas, betas=betas, genealogy=genealogy)
