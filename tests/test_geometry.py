import math
from fractions import Fraction

import numpy as np
import pytest

from equimeasure.geometry import (
    AffineMap,
    DuplicateFixedPoints,
    GenerationTooLarge,
    IfsSystem,
    Interval,
    InvalidIfs,
    MAX_BANDS,
    NotContractive,
    OverlappingImages,
    generate_bands,
    generations,
    hull,
    validate,
)


def test_affine_map_fixes_its_fixed_point_exactly():
    m = AffineMap(0.37, 0.123456789)
    assert m(m.gamma) == m.gamma


def test_validate_ternary_and_asym():
    tern = validate(IfsSystem.from_pairs([(1 / 3, -1), (1 / 3, 1)]))
    assert [m.gamma for m in tern.maps] == [-1, 1]
    validate(IfsSystem.from_pairs([(4 / 5, -1), (1 / 10, 1)]))


def test_validate_sorts_by_fixed_point():
    system = validate(IfsSystem.from_pairs([(1 / 4, 2), (1 / 4, -3), (1 / 4, 0)]))
    assert [m.gamma for m in system.maps] == [-3, 0, 2]


def test_validate_rejects_overlap_touching_and_bad_deltas():
    with pytest.raises(OverlappingImages):
        validate(IfsSystem.from_pairs([(0.6, -1), (0.6, 1)]))
    with pytest.raises(OverlappingImages):
        # images touch at 0 exactly
        validate(IfsSystem.from_pairs([(0.5, -1), (0.5, 1)]))
    with pytest.raises(NotContractive):
        validate(IfsSystem.from_pairs([(1.2, -1), (1 / 3, 1)]))
    with pytest.raises(NotContractive):
        validate(IfsSystem.from_pairs([(0.0, -1), (1 / 3, 1)]))
    with pytest.raises(DuplicateFixedPoints):
        validate(IfsSystem.from_pairs([(1 / 4, 1), (1 / 3, 1)]))
    with pytest.raises(InvalidIfs):
        validate(IfsSystem.from_pairs([(1 / 3, 0)]))


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_validate_rejects_non_finite_fixed_points(gamma):
    with pytest.raises(InvalidIfs, match="finite"):
        validate(IfsSystem.from_pairs([[1 / 3, gamma], [1 / 3, 1.0]]))


def test_hull():
    tern = validate(IfsSystem.from_pairs([(1 / 3, -1), (1 / 3, 1)]))
    assert hull(tern) == Interval(-1.0, 1.0)
    assert hull(IfsSystem.from_pairs([(1 / 2, 0), (1 / 4, 10)])) == Interval(0.0, 10.0)
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)


def test_bands_generation_one_ternary(ternary):
    b = generate_bands(ternary, 1)
    assert b.n_bands == 2 and b.n_gaps == 1
    assert np.allclose(b.alphas, [-1, 1 / 3], atol=1e-15)
    assert np.allclose(b.betas, [-1 / 3, 1], atol=1e-15)
    assert b.parents.tolist() == [-1] and b.preimages.tolist() == [-1]


def _brute_force_bands(pairs, n):
    """Exact rational band endpoints by enumerating map compositions."""
    maps = [(Fraction(d).limit_denominator(10**6), Fraction(g)) for d, g in pairs]
    lo, hi = maps[0][1], maps[-1][1]
    bands = [(lo, hi)]
    for _ in range(n):
        bands = [
            (d * (a - g) + g, d * (b - g) + g) for a, b in bands for d, g in maps
        ]
    return sorted(bands)


@pytest.mark.parametrize("pairs", [[(1 / 3, -1), (1 / 3, 1)], [(4 / 5, -1), (1 / 10, 1)],
                                   [(1 / 5, -1), (1 / 5, 0), (1 / 5, 1)]])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bands_match_brute_force_composition(pairs, n):
    system = validate(IfsSystem.from_pairs(pairs))
    b = generate_bands(system, n)
    expected = _brute_force_bands(pairs, n)
    assert b.n_bands == len(expected)
    for i, (lo, hi) in enumerate(expected):
        assert b.alphas[i] == pytest.approx(float(lo), abs=1e-14)
        assert b.betas[i] == pytest.approx(float(hi), abs=1e-14)


def test_bands_generation_two_ternary(ternary):
    b = generate_bands(ternary, 2)
    assert b.n_bands == 4 and b.n_gaps == 3
    # middle gap is the generation-1 gap, seen at index 1 with parent 0;
    # the outer gaps are its images
    assert b.parents.tolist() == [-1, 0, -1]
    assert b.preimages.tolist() == [0, -1, 0]
    assert b.gap_los[1] == pytest.approx(-1 / 3, abs=1e-15)
    assert b.gap_his[1] == pytest.approx(1 / 3, abs=1e-15)


def test_band_counts_generation_seven(ternary):
    b = generate_bands(ternary, 7)
    assert b.n_bands == 128 and b.n_gaps == 127
    assert np.count_nonzero(b.parents >= 0) == 63


def test_hull_endpoints_exact(ternary, asym):
    for system in (ternary, asym):
        for n in range(0, 7):
            b = generate_bands(system, n)
            assert b.alphas[0] == -1.0 and b.betas[-1] == 1.0


def test_total_band_length_geometric(ternary, asym):
    for system in (ternary, asym):
        delta_sum = float(np.sum(system.deltas))
        for n in range(0, 8):
            b = generate_bands(system, n)
            total = float(np.sum(b.band_widths))
            assert total == pytest.approx(2.0 * delta_sum**n, rel=1e-12)


def test_gap_persistence_is_exact(ternary, asym):
    for system in (ternary, asym):
        prev = generate_bands(system, 1)
        for n in range(2, 7):
            b = generate_bands(system, n)
            prev_gaps = {(lo, hi) for lo, hi in zip(prev.gap_los, prev.gap_his)}
            gaps = {(lo, hi) for lo, hi in zip(b.gap_los, b.gap_his)}
            assert prev_gaps <= gaps  # bitwise identical endpoints
            prev = b


def m_ary_genealogy(n_maps, n):
    """Parents and preimages of generation ``n``'s gaps by the M-ary layout
    of the depth-first subdivision, -1 for none: gap ``g`` is old exactly
    when ``(g + 1) % M == 0``, with parent ``(g + 1) // M - 1``, and its
    preimage is ``(g + 1) % M**(n - 1) - 1``."""
    parents, preimages = [], []
    for g in range(n_maps ** n - 1):
        parents.append((g + 1) // n_maps - 1 if (g + 1) % n_maps == 0 else -1)
        preimages.append((g + 1) % n_maps ** (n - 1) - 1)
    return parents, preimages


def test_genealogy_index_rule(ternary, asym):
    m3 = validate(IfsSystem.from_pairs([(1 / 5, -1), (1 / 5, 0), (1 / 5, 1)]))
    for system in (ternary, asym, m3):
        m_maps = system.n_maps
        prev = None
        for n in range(0, 7):
            b = generate_bands(system, n)
            assert (b.parents.tolist(), b.preimages.tolist()) == m_ary_genealogy(m_maps, n)
            for array in (b.parents, b.preimages):
                assert array.dtype == np.intp and not array.flags.writeable
            old = np.flatnonzero(b.parents >= 0)
            assert old.size == (m_maps ** (n - 1) - 1 if n else 0)
            if old.size:
                assert np.array_equal(b.gap_los[old], prev.gap_los[b.parents[old]])
                assert np.array_equal(b.gap_his[old], prev.gap_his[b.parents[old]])
            prev = b


def test_new_gaps_are_images_of_previous_new_gaps(ternary):
    # H^n = union of phi_j(H^{n-1}): check by brute-force set comparison
    for n in range(2, 5):
        prev = generate_bands(ternary, n - 1)
        b = generate_bands(ternary, n)
        prev_new = [(prev.gap_los[g], prev.gap_his[g])
                    for g in range(prev.n_gaps) if prev.parents[g] < 0] \
            if n > 2 else list(zip(prev.gap_los, prev.gap_his))
        expected = sorted(
            (m(lo), m(hi)) for m in ternary.maps for lo, hi in prev_new
        )
        got = sorted((b.gap_los[g], b.gap_his[g])
                     for g in range(b.n_gaps) if b.parents[g] < 0)
        assert len(got) == len(expected)
        for (glo, ghi), (elo, ehi) in zip(got, expected):
            assert glo == pytest.approx(elo, abs=1e-14)
            assert ghi == pytest.approx(ehi, abs=1e-14)


def test_bands_sorted_and_disjoint(asym):
    b = generate_bands(asym, 6)
    assert np.all(b.betas > b.alphas)
    assert np.all(b.alphas[1:] > b.betas[:-1])


def test_generation_width_floor():
    thin = IfsSystem.from_pairs([(1e-14, -1), (1e-14, 1)])
    with pytest.raises(GenerationTooLarge):
        generate_bands(thin, 1)


def test_subnormal_hulls_and_bands_rejected():
    # below the smallest normal double a width keeps few significant bits:
    # 5e-324 is one ulp (the width floor's product underflows to 0 there)
    # and band ends at 1e-320 are quantised to multiples of 5e-324
    for pairs in ([(0.3, 0.0), (0.3, 5e-324)], [(0.3, -1e-320), (0.3, 1e-320)]):
        with pytest.raises(InvalidIfs, match="smallest normal double"):
            validate(IfsSystem.from_pairs(pairs))
    # a 2e-300 hull is normal, and so are ternary bands to the band cap
    tiny = validate(IfsSystem.from_pairs([(1 / 3, -1e-300), (1 / 3, 1e-300)]))
    assert generate_bands(tiny, 13).band_widths.min() > 1e-307
    # asym bands of 2e-300 * 0.1**8 = 2e-308 lie above the relative width
    # floor but below the smallest normal double
    asym = validate(IfsSystem.from_pairs([(0.8, -1e-300), (0.1, 1e-300)]))
    assert generate_bands(asym, 7).band_widths.min() > 1e-307
    with pytest.raises(GenerationTooLarge, match="generation 8 .*smallest normal double"):
        generate_bands(asym, 8)


def test_band_cap(ternary):
    # ternary n = 13 has MAX_BANDS = 8192 bands; n = 14 is refused by its count
    assert generate_bands(ternary, 13).n_bands == MAX_BANDS == 2**13
    with pytest.raises(GenerationTooLarge, match="2\\*\\*14 bands"):
        generate_bands(ternary, 14)
    with pytest.raises(GenerationTooLarge, match="MAX_BANDS"):
        generate_bands(ternary, 10**30)


def test_generation_negative_rejected(ternary):
    with pytest.raises(ValueError):
        generate_bands(ternary, -1)


def test_band_system_immutable(ternary):
    b = generate_bands(ternary, 2)
    with pytest.raises(ValueError):
        b.alphas[0] = 0.0


# each system with its deepest generation and the start of the message that
# refuses the next: past MAX_BANDS, or a computed band below the width floor
WALKS = [
    ([(1 / 3, -1), (1 / 3, 1)], 13, "generation 14 is too deep: its 2**14 bands exceed"),
    ([(4 / 5, -1), (1 / 10, 1)], 12, "generation 13 is too deep: a band of it is below"),
    ([(0.3, -1), (0.1, 0), (0.2, 1)], 8, "generation 9 is too deep: its 3**9 bands exceed"),
    ([(0.4999999, -1), (0.4999999, 1)], 13, "generation 14 is too deep: its 2**14 bands"),
    ([(0.05, -1), (0.05, 1)], 9, "generation 10 is too deep: its narrowest band, "),
]


@pytest.mark.parametrize("pairs, depth, refusal", WALKS)
def test_the_walk_builds_every_generation_as_generate_bands_does(pairs, depth, refusal):
    ifs = validate(IfsSystem.from_pairs(pairs))
    walk = generations(ifs, depth)
    assert [bands.generation for bands in walk] == list(range(depth + 1))
    for k, bands in enumerate(walk):
        alone = generate_bands(ifs, k)
        for name in ("alphas", "betas", "parents", "preimages"):
            got, want = getattr(bands, name), getattr(alone, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (k, name)
    refused = []
    for build in (generations, generate_bands):
        with pytest.raises(GenerationTooLarge) as err:
            build(ifs, depth + 1)
        refused.append(str(err.value))
    assert refused[0] == refused[1] and refused[0].startswith(refusal)
