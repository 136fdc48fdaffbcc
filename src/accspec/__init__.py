"""Accumulated spectrograms of projection kernels, number variance by
independent routes, and hyperuniformity diagnostics at desk scale."""

__version__ = "0.1.0"

from .geometry import (Ball, Box, DisjointBallUnion, LensSpec, Region,
                       lens_volume_exact, lens_volume_series,
                       unit_ball_volume, unit_sphere_area)
from .kernels import (GinibreKernel, Kernel, PaleyWienerKernel,
                      radial_normalization_check, sine_kernel)
from .discretize import (QuadratureGrid, SpectralData, assemble_operator,
                         build_grid, spectral_decompose, window_grid)
from .spectrogram import (EvalGrid, SpectrogramField, accumulated_spectrogram,
                          build_eval_grid, c_delta, compute_psi, count_n,
                          defect_g, dilation_snapshot, inequality_report,
                          inner_product_spectral)
from .variance import (AsymptoticFit, asymptotic_constant,
                       asymptotic_constant_geometric, expected_count,
                       fit_asymptotics, hyperuniformity_curve,
                       variance_radial, variance_spectral,
                       variance_subadditive_upper)

__all__ = [
    "Ball", "Box", "DisjointBallUnion", "LensSpec", "Region",
    "lens_volume_exact", "lens_volume_series",
    "unit_ball_volume", "unit_sphere_area",
    "GinibreKernel", "Kernel", "PaleyWienerKernel",
    "radial_normalization_check", "sine_kernel",
    "QuadratureGrid", "SpectralData", "assemble_operator", "build_grid",
    "spectral_decompose", "window_grid",
    "EvalGrid", "SpectrogramField", "accumulated_spectrogram",
    "build_eval_grid", "c_delta", "compute_psi",
    "count_n", "defect_g", "dilation_snapshot",
    "inequality_report", "inner_product_spectral",
    "AsymptoticFit", "asymptotic_constant", "asymptotic_constant_geometric",
    "expected_count", "fit_asymptotics", "hyperuniformity_curve",
    "variance_radial", "variance_spectral",
    "variance_subadditive_upper",
]
