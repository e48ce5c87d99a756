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
    NotContractive,
    OverlappingImages,
    generate_bands,
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
    assert b.genealogy == (None,)


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
    # middle gap is the generation-1 gap, seen at index 1 with parent 0
    assert b.genealogy == (None, 0, None)
    assert b.gap_los[1] == pytest.approx(-1 / 3, abs=1e-15)
    assert b.gap_his[1] == pytest.approx(1 / 3, abs=1e-15)


def test_band_counts_generation_seven(ternary):
    b = generate_bands(ternary, 7)
    assert b.n_bands == 128 and b.n_gaps == 127
    assert sum(parent is not None for parent in b.genealogy) == 63


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


def test_genealogy_index_rule(ternary, asym):
    m3 = validate(IfsSystem.from_pairs([(1 / 5, -1), (1 / 5, 0), (1 / 5, 1)]))
    for system in (ternary, asym, m3):
        m_maps = system.n_maps
        prev = generate_bands(system, 1)
        for n in range(2, 7):
            b = generate_bands(system, n)
            old = [g for g, parent in enumerate(b.genealogy) if parent is not None]
            assert len(old) == m_maps ** (n - 1) - 1
            for g in old:
                parent = b.genealogy[g]
                assert g == (parent + 1) * m_maps - 1
                assert b.gap_los[g] == prev.gap_los[parent]
                assert b.gap_his[g] == prev.gap_his[parent]
            prev = b


def test_new_gaps_are_images_of_previous_new_gaps(ternary):
    # H^n = union of phi_j(H^{n-1}): check by brute-force set comparison
    for n in range(2, 5):
        prev = generate_bands(ternary, n - 1)
        b = generate_bands(ternary, n)
        prev_new = [(prev.gap_los[g], prev.gap_his[g])
                    for g in range(prev.n_gaps) if prev.genealogy[g] is None] \
            if n > 2 else list(zip(prev.gap_los, prev.gap_his))
        expected = sorted(
            (m(lo), m(hi)) for m in ternary.maps for lo, hi in prev_new
        )
        got = sorted((b.gap_los[g], b.gap_his[g])
                     for g in range(b.n_gaps) if b.genealogy[g] is None)
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


def test_generation_negative_rejected(ternary):
    with pytest.raises(ValueError):
        generate_bands(ternary, -1)


def test_band_system_immutable(ternary):
    b = generate_bands(ternary, 2)
    with pytest.raises(ValueError):
        b.alphas[0] = 0.0
