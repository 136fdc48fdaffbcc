import math

import numpy as np
import pytest
from pytest import approx

from accspec.discretize import (assemble_operator, build_grid,
                                spectral_decompose)
from accspec.geometry import Ball, Box, DisjointBallUnion
from accspec.kernels import GinibreKernel, PaleyWienerKernel, sine_kernel
from accspec.variance import (FitRangeError, asymptotic_constant,
                              asymptotic_constant_geometric, expected_count,
                              fit_asymptotics, hyperuniformity_curve,
                              variance_radial, variance_spectral,
                              variance_subadditive_upper)
from helpers import ginibre_ball_variance, synthetic_spectral


def test_expected_counts():
    assert expected_count(GinibreKernel(1), Ball(np.zeros(2), 2.0)) == approx(
        4.0 * math.pi)
    assert expected_count(sine_kernel(),
                          Box(np.array([-3.0]), np.array([3.0]))) == approx(
        6.0 / math.pi)
    assert expected_count(PaleyWienerKernel(2), Ball(np.zeros(2), 3.0)) == approx(
        9.0 / 4.0)


def test_expected_count_dimension_mismatch():
    with pytest.raises(ValueError):
        expected_count(sine_kernel(), Ball(np.zeros(2), 1.0))


@pytest.mark.parametrize("radius", [1e-200, 1e-160])
def test_expected_count_below_normal_floats_raises(radius):
    # pi R^2 underflows to 0 at 1e-200 and is subnormal at 1e-160
    with pytest.raises(FloatingPointError, match="smallest normal float"):
        expected_count(GinibreKernel(1), Ball(np.zeros(2), radius))


def test_curve_names_the_underflowing_scale():
    with pytest.raises(FloatingPointError, match="at scale 1e-200"):
        hyperuniformity_curve(GinibreKernel(1), Ball(np.zeros(2), 1.0),
                              [1e-200, 1.0])


def test_variance_spectral_closed_cases():
    assert variance_spectral(synthetic_spectral([1.0, 1.0, 0.0])) == 0.0
    assert variance_spectral(synthetic_spectral([0.5])) == approx(0.25)


def test_variance_radial_small_window_vanishes():
    k = GinibreKernel(1)
    small = variance_radial(k, 0.05)
    assert 0.0 < small.value < expected_count(k, Ball(np.zeros(2), 0.05))
    tiny = variance_radial(k, 0.01)
    assert tiny.value < small.value


def test_variance_radial_rejects_bad_radius():
    with pytest.raises(ValueError):
        variance_radial(sine_kernel(), 0.0)


@pytest.mark.parametrize("kernel", [GinibreKernel(1), PaleyWienerKernel(2)],
                         ids=["ginibre", "pw2"])
@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_variance_radial_rejects_nonfinite_radius(kernel, radius):
    with pytest.raises(ValueError, match="positive and finite"):
        variance_radial(kernel, radius)
    union = DisjointBallUnion((Ball(np.zeros(2), 1.0),))
    with pytest.raises(ValueError, match="positive and finite"):
        variance_subadditive_upper(kernel, union, radius)


def test_variance_radial_error_budget():
    # two-resolution difference plus N * eps * E for the rounding
    kernel = sine_kernel()
    rv = variance_radial(kernel, 5.0)
    e_count = expected_count(kernel, Ball(np.zeros(1), 5.0))
    assert np.finfo(float).eps * e_count <= rv.error_estimate < 1e-12
    assert not rv.accuracy_warning


def test_variance_radial_sine_exact():
    # E - 2 int_0^{2R} (2R - r) sin(r)^2 / (pi r)^2 dr, by mpmath at 30
    # digits; the error estimate must bound the actual error
    rv = variance_radial(sine_kernel(), 5.0)
    assert abs(rv.value - 0.463193699062683) <= 1e-12
    for radius, exact in ((5.0, 0.46319369906268280465),
                          (20.0, 0.60380000990764356824),
                          (50.0, 0.69663595562777189382)):
        rv = variance_radial(sine_kernel(), radius)
        assert abs(rv.value - exact) <= rv.error_estimate, (radius, rv)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_variance_radial_no_warning_at_large_radius(d):
    rv = variance_radial(PaleyWienerKernel(d), 1000.0)
    assert not rv.accuracy_warning, rv


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("radius", [1.0, 2.0, 3.0])
def test_variance_radial_ginibre_exact_spectrum(m, radius):
    exact = ginibre_ball_variance(m, radius)
    rv = variance_radial(GinibreKernel(m), radius)
    assert abs(rv.value - exact) <= 1e-12 * exact, (rv, exact)
    assert abs(rv.value - exact) <= rv.error_estimate, (rv, exact)


def test_cross_route_sine(sine_run):
    vs = variance_spectral(sine_run.spectral)
    vr = variance_radial(sine_run.kernel, 5.0)
    assert abs(vs - vr.value) / vr.value < 0.02


def test_criterion_3_gaps_at_rounding_level(sine_run):
    # the acceptance suite's two cross-route configurations: measured
    # gaps are 1.4e-15 (sine) and 9.1e-16 (ginibre)
    vs = variance_spectral(sine_run.spectral)
    vr = variance_radial(sine_run.kernel, 5.0).value
    assert abs(vs - vr) <= 1e-10 * vr
    k = GinibreKernel(1)
    grid = build_grid(Ball(np.zeros(2), 1.0), 64)
    vs = variance_spectral(spectral_decompose(assemble_operator(k, grid)))
    vr = variance_radial(k, 1.0).value
    assert abs(vs - vr) <= 1e-10 * vr


def test_cross_route_sine_r2():
    grid = build_grid(Box(np.array([-2.0]), np.array([2.0])), 400)
    sd = spectral_decompose(assemble_operator(sine_kernel(), grid))
    vr = variance_radial(sine_kernel(), 2.0)
    assert abs(variance_spectral(sd) - vr.value) / vr.value < 0.02


def test_cross_route_ginibre_disk():
    k = GinibreKernel(1)
    grid = build_grid(Ball(np.zeros(2), 1.0), 50)
    sd = spectral_decompose(assemble_operator(k, grid))
    vr = variance_radial(k, 1.0)
    assert abs(variance_spectral(sd) - vr.value) / vr.value < 0.02


def test_cross_route_ginibre_disk_radius_two():
    k = GinibreKernel(1)
    grid = build_grid(Ball(np.zeros(2), 2.0), 64)
    assert grid.n_nodes <= 4096
    sd = spectral_decompose(assemble_operator(k, grid))
    vr = variance_radial(k, 2.0)
    assert abs(variance_spectral(sd) - vr.value) / vr.value < 0.02


def test_subadditive_single_ball_is_radial():
    k = sine_kernel()
    union = DisjointBallUnion((Ball(np.array([0.0]), 1.0),))
    assert variance_subadditive_upper(k, union, 3.0) == approx(
        variance_radial(k, 3.0).value)


def test_subadditive_two_equal_balls():
    k = sine_kernel()
    union = DisjointBallUnion((Ball(np.array([0.0]), 1.0),
                               Ball(np.array([5.0]), 1.0)))
    assert variance_subadditive_upper(k, union, 2.0) == approx(
        2.0 * variance_radial(k, 2.0).value)


def test_subadditive_bound_vs_spectral_union():
    # the discretized union's spectral variance sits below the bound
    k = sine_kernel()
    union = DisjointBallUnion((Ball(np.array([0.0]), 1.0),
                               Ball(np.array([2.6]), 0.5)))
    grid = build_grid(union, 450)
    sd = spectral_decompose(assemble_operator(k, grid))
    bound = variance_subadditive_upper(k, union)
    assert variance_spectral(sd) <= bound + 0.01


def test_subadditive_ratio_decays():
    k = sine_kernel()
    union = DisjointBallUnion((Ball(np.array([0.0]), 1.0),
                               Ball(np.array([3.0]), 1.0)))
    scales = (5.0, 10.0, 20.0, 40.0)
    ratios = [variance_subadditive_upper(k, union, s)
              / expected_count(k, union.dilate(s)) for s in scales]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_hyperuniformity_curve_ginibre():
    points = hyperuniformity_curve(GinibreKernel(1), Ball(np.zeros(2), 1.0),
                                   [1.0, 2.0, 4.0])
    ratios = [p.ratio for p in points]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    # gaussian profile: variance grows like the perimeter
    assert points[-1].ratio == approx(points[0].ratio / 4.0, rel=0.25)


def test_hyperuniformity_curve_sine():
    points = hyperuniformity_curve(sine_kernel(), Ball(np.array([0.0]), 1.0),
                                   [5.0, 10.0, 20.0])
    ratios = [p.ratio for p in points]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_hyperuniformity_curve_spectral_column():
    points = hyperuniformity_curve(GinibreKernel(1), Ball(np.zeros(2), 1.0),
                                   [1.0], spectral="on",
                                   n_per_axis=50)
    p = points[0]
    assert p.var_spectral is not None
    assert abs(p.var_spectral - p.var_radial) / p.var_radial < 0.02


def test_variance_below_mean_along_radii():
    k = GinibreKernel(1)
    for radius in (0.3, 1.0, 2.5, 6.0):
        var = variance_radial(k, radius)
        mean = expected_count(k, Ball(np.zeros(2), radius))
        assert var.value <= mean + 1e-8 + var.error_estimate
    s = sine_kernel()
    for radius in (0.5, 2.0, 8.0, 50.0):
        var = variance_radial(s, radius)
        mean = expected_count(s, Ball(np.array([0.0]), radius))
        assert var.value <= mean + 1e-8 + var.error_estimate


def test_sine_large_window_log_variance():
    # var ~ (1/pi^2) log(2R) + O(1); check the growth between two radii
    v50 = variance_radial(sine_kernel(), 50.0).value
    v500 = variance_radial(sine_kernel(), 500.0).value
    assert v500 - v50 == approx(math.log(10.0) / math.pi ** 2, rel=0.05)


def test_asymptotic_constants():
    assert asymptotic_constant(1) == approx(1.0 / math.pi ** 2, rel=1e-14)
    assert asymptotic_constant(2) == approx(1.0 / math.pi ** 2, rel=1e-14)
    assert asymptotic_constant(3) == approx(1.0 / (2.0 * math.pi ** 2), rel=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_asymptotic_constant_cross_identity(d):
    assert abs(asymptotic_constant(d)
               - asymptotic_constant_geometric(d)) < 1e-12


def test_fit_range_validation():
    with pytest.raises(FitRangeError):
        fit_asymptotics(1, [10.0, 20.0, 40.0, 80.0], [1.0, 1.1, 1.2, 1.3])
    with pytest.raises(FitRangeError):
        fit_asymptotics(1, [10.0, 120.0], [1.0, 1.3])


def test_fit_recovers_synthetic_slope():
    scales = np.logspace(1, 2.5, 12)
    slope = 0.07
    variances = (slope * np.log(scales) + 0.4) * scales  # dim 2 shape
    fit = fit_asymptotics(2, scales, variances)
    assert fit.slope == approx(slope, rel=1e-10)
    assert fit.window_low == approx(scales.max() / math.sqrt(10.0))
