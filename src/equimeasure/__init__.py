"""Equilibrium measures on interval unions generated by affine IFS.

The package computes the logarithmic-potential equilibrium measure of the
finite interval unions that approximate a Cantor-set attractor of an affine
iterated function system, together with the electrostatic potential they
generate and the logarithmic capacity of the limit set.

Layout:

``geometry``
    Affine maps, validated systems, band/gap generation, gap genealogy.
``kernel``
    Stable evaluation of the singular density kernel (one paired product
    for gap and band frames) and all Gauss-Chebyshev integrals over gaps
    and bands, with analytic Jacobian.
``solver``
    Damped Newton solution of the gap-root equations to one residual
    tolerance, from start roots that carry their band system;
    ``hierarchical_solve`` walks the band systems it is given, with warm starts.
``analytics``
    Integrated measure, potential, capacity extrapolation.
``cli``
    Command-line orchestration over generations 1..n_max, record cache, CSV export.
"""

from .geometry import (
    AffineMap,
    BandSystem,
    IfsSystem,
    Interval,
    generate_bands,
    generations,
    hull,
    validate,
)
from .kernel import (
    GapVariables,
    QuadratureRule,
    band_integral,
    gap_integral,
    gap_jacobian_row,
    kernel_band,
    kernel_grouped,
    kernel_log_magnitude,
)
from .solver import (
    EquilibriumSolution,
    hierarchical_solve,
    solve_generation,
    warm_start,
)
from .analytics import (
    CapacityEstimate,
    capacity_estimate,
    fit_exponential,
    integrated_measure_at,
    mean_potential_on_attractor_points,
    potential_at,
    sample_points,
)

__all__ = [
    "AffineMap",
    "BandSystem",
    "CapacityEstimate",
    "EquilibriumSolution",
    "GapVariables",
    "IfsSystem",
    "Interval",
    "QuadratureRule",
    "band_integral",
    "capacity_estimate",
    "fit_exponential",
    "gap_integral",
    "gap_jacobian_row",
    "generate_bands",
    "generations",
    "hierarchical_solve",
    "hull",
    "integrated_measure_at",
    "kernel_band",
    "kernel_grouped",
    "kernel_log_magnitude",
    "mean_potential_on_attractor_points",
    "potential_at",
    "sample_points",
    "solve_generation",
    "validate",
    "warm_start",
]

__version__ = "0.1.0"
