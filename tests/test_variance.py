import math

import numpy as np
import pytest
from pytest import approx

from accspec import kernels
from accspec.checks import variance_cross_route
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
    # an eigenvalue past [0, 1] counts as solved: 1.5 (1 - 1.5) < 0
    assert variance_spectral(synthetic_spectral([1.5, 0.5])) == approx(-0.5)


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
    # the union bound takes the dilated union, which refuses the scale
    union = DisjointBallUnion((Ball(np.zeros(2), 1.0),))
    with pytest.raises(ValueError, match="positive and finite"):
        variance_subadditive_upper(kernel, union.dilate(radius))


def test_variance_radial_error_budget():
    # the panels' Legendre tail plus N * eps * E for the rounding
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


@pytest.mark.parametrize("d, radius, exact", [
    # 2R / pi steps across 1, 2 and 3 panels at R = pi / 2, pi and 3 pi / 2
    (1, 0.197, 0.109819931236151304275798932619),
    (1, 1.5, 0.339782083270598457514151660587),
    (1, 1.6, 0.345969247235966446701992404676),
    (1, 3.1, 0.414346050217097294664583147567),
    (1, 3.2, 0.417532953858688320393200525033),
    (1, 4.7, 0.456797117982142096684596082626),
    (1, 4.75, 0.457866301090975683211179648642),
    (2, 0.197, 0.00960902352877220947884125834299),
    (2, 1.5, 0.370364115561841872432271575572),
    (2, 1.6, 0.405449502631271436992979736997),
    (2, 3.1, 0.995569058515496787973350103156),
    (2, 3.2, 1.03789953165490447793613977824),
    (2, 4.7, 1.70861269254540351340980176266),
    (2, 4.75, 1.73185588625239610716538741302),
    (3, 0.197, 0.000540509757685471504027138280982),
    (3, 1.5, 0.204332647365560400514027716633),
    (3, 1.6, 0.242193312835145354944627372316),
    (3, 3.1, 1.25189464151008746009994683028),
    (3, 3.2, 1.35125184496909721466269344348),
    (3, 4.7, 3.35656974183146885613711319739),
    (3, 4.75, 3.44076430870406159926910074356),
    (2, 0.5, 0.0588276115798570942499905438675),
    (2, 1.0, 0.200716667217451941875057407919),
    (2, 2.0, 0.550796961811922190807646034715),
    (2, 5.0, 1.84877660039891435719788369241),
    (2, 20.0, 10.2100565525856088272027250464),
    (2, 50.0, 30.1680441497033444511633091488),
    (3, 5.0, 3.87889124770435420423952276989),
    (3, 20.0, 90.3438855604514780428931136714),
])
def test_variance_radial_paley_wiener_exact(d, radius, exact):
    # E - sigma_d int_0^{2R} r^{d-1} phi(r) |B n (B + r e)| dr by mpmath
    # at 40 digits (quad on panels at multiples of pi), with E = 2 R / pi,
    # phi = (sin r / (pi r))^2 and the overlap 2 R - r in d = 1;
    # E = R^2 / 4, phi = (J_1(r) / (2 pi r))^2 and the disk overlap
    # 2 R^2 acos(r / 2R) - (r / 2) sqrt(4 R^2 - r^2) in d = 2;
    # E = 2 R^3 / (9 pi), phi = ((sin r / r - cos r) / (2 pi^2 r^2))^2
    # and the ball overlap (pi / 12) (4 R + r) (2 R - r)^2 in d = 3. The
    # error estimate must bound the actual error. Where J_1's float
    # series, which cancels on [10, 13), stays out of [0, 2R], the route
    # is at rounding: measured at most 9.4e-16 relative at R <= 5 in
    # d = 1, 2, 3, and 4.7e-16 in d = 3 at R = 20 (an ungraded panel at
    # the diameter errs by 3.65e-11, 1.30e-11 and 9.0e-14 at R = 0.5, 1
    # and 2); the series' noise reads 3.7e-14 and 1.7e-13 at R = 20 and 50
    rv = variance_radial(PaleyWienerKernel(d), radius)
    assert abs(rv.value - exact) <= rv.error_estimate, (d, radius, rv)
    if d == 3 or radius <= 5.0:
        assert abs(rv.value - exact) <= 1e-15 * exact, (d, radius, rv)


_PW_PANELS = {radius: math.ceil(2.0 * radius / math.pi)
              for radius in (0.197, 1.5, 1.6, 3.2, 100.0, 1000.0)}


@pytest.mark.parametrize("kernel, panels", [
    (PaleyWienerKernel(1), _PW_PANELS),
    (PaleyWienerKernel(2), _PW_PANELS),
    (PaleyWienerKernel(3), _PW_PANELS),
    # at R = 3 the diameter is 0.037 past the edge 5.963, and that sliver
    # joins the panel before it
    (GinibreKernel(1), {0.25: 2, 1.0: 5, 3.0: 7, 8.0: 10}),
], ids=["1", "2", "3", "ginibre"])
def test_variance_radial_node_counts(kernel, panels, monkeypatch):
    # one pass over the panels at 16 nodes each: one panel per period pi
    # of phi = K^2 on the Paley-Wiener kernels, geometric panels
    # 0.25 * 1.4^k wide on the Ginibre kernel
    radial_panels = type(kernel).radial_panels
    passes = []

    def counted(self, a, b):
        passes.append(0)
        for chunk in radial_panels(self, a, b):
            passes[-1] += chunk[0].size
            yield chunk

    monkeypatch.setattr(type(kernel), "radial_panels", counted)
    for radius, count in panels.items():
        passes.clear()
        variance_radial(kernel, radius)
        assert passes == [16 * count], (radius, passes)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_variance_radial_no_warning_at_large_radius(d):
    rv = variance_radial(PaleyWienerKernel(d), 1000.0)
    assert not rv.accuracy_warning, rv


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("radius", [0.25, 0.5, 1.0, 2.0, 3.0, 0.1250000001,
                                    0.3000000001])
def test_variance_radial_ginibre_exact_spectrum(m, radius):
    # C^1 at R = 0.25 and 0.5 reads 0 and 2.5e-16 (1.34e-11 and 4.2e-12
    # with an ungraded panel at the diameter, where the overlap vanishes
    # like (2R - r)^(3/2)). At R = 0.1250000001 and 0.3000000001 the
    # diameter lies 2e-10 past a panel edge: C^1 reads 4.4e-16 and
    # 1.3e-16 (2.8e-8 and 2.0e-8 with that sliver a panel of its own, the
    # panel before it ending next to the branch point)
    exact = ginibre_ball_variance(m, radius)
    rv = variance_radial(GinibreKernel(m), radius)
    assert abs(rv.value - exact) <= 1e-12 * exact, (rv, exact)
    assert abs(rv.value - exact) <= rv.error_estimate, (rv, exact)


@pytest.mark.parametrize("kernel, radius, wider, off", [
    (PaleyWienerKernel(1), 50.0, 4, False),
    (PaleyWienerKernel(2), 20.0, 4, False),
    (PaleyWienerKernel(3), 20.0, 4, False),
    (GinibreKernel(1), 3.0, 8, False),
    (PaleyWienerKernel(1), 12.0, 8, True),
    (PaleyWienerKernel(2), 12.0, 8, True),
    (PaleyWienerKernel(3), 12.0, 8, True),
    (GinibreKernel(1), 4.5, 32, True),
], ids=["sine", "pw2", "pw3", "ginibre", "sine-off", "pw2-off", "pw3-off",
        "ginibre-off"])
def test_error_estimate_sees_an_under_resolved_rule(kernel, radius, wider, off,
                                                    monkeypatch):
    # the route's panels made `wider` times as wide: Paley-Wiener panels
    # 4 pi or 8 pi wide in place of pi, Ginibre's first panel 8 or 32
    # times as wide. The estimate must cover the error against the
    # route's own value, and a rule more than 1% off must set the
    # warning. At 4 pi the estimate reads 0.62, 0.46 and 0.86 against
    # errors of 1.9e-8, 1.5e-8 and 1.7e-8 (sine, pw2, pw3), and Ginibre
    # 3.7e-9 against 5.3e-14: on panels four periods wide the Legendre
    # coefficients up to degree 15 have not begun to decay, so the
    # estimate cannot read convergence from them. At R = 12 one panel 24
    # wide holds 7.6 periods of phi, two nodes a period, and the rule errs
    # by 8-12%; past that the samples alias
    exact = variance_radial(kernel, radius).value
    uniform, geometric = kernels.uniform_panel_count, kernels.geometric_edges
    monkeypatch.setattr(kernels, "uniform_panel_count",
                        lambda a, b, width: uniform(a, b, wider * width))
    monkeypatch.setattr(kernels, "geometric_edges",
                        lambda a, b, first_width, growth:
                        geometric(a, b, wider * first_width, growth))
    rv = variance_radial(kernel, radius)
    error = abs(rv.value - exact)
    assert error <= rv.error_estimate, (error, rv)
    assert (error > 0.01 * exact) == off, (error, exact)
    assert rv.accuracy_warning or not off, rv


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


@pytest.mark.parametrize("kernel, region, radius, n_per_axis", [
    (sine_kernel(), Box(np.array([-2.0]), np.array([2.0])), 2.0, 400),
    (GinibreKernel(1), Ball(np.zeros(2), 1.0), 1.0, 50),
    (GinibreKernel(1), Ball(np.zeros(2), 2.0), 2.0, 64),
], ids=["sine-r2", "ginibre-disk", "ginibre-disk-radius-two"])
def test_cross_route_within_the_suite_bound(kernel, region, radius,
                                            n_per_axis):
    # the window is the ball of ``radius``, whose radial-route variance
    # the suite's line compares against
    grid = build_grid(region, n_per_axis)
    assert grid.n_nodes <= 4096
    sd = spectral_decompose(assemble_operator(kernel, grid))
    line = variance_cross_route("window", kernel, sd, radius)
    assert line.lhs < line.rhs, line


def test_subadditive_single_ball_is_radial():
    k = sine_kernel()
    union = DisjointBallUnion((Ball(np.array([0.0]), 1.0),))
    assert variance_subadditive_upper(k, union.dilate(3.0)) == approx(
        variance_radial(k, 3.0).value)


def test_subadditive_two_equal_balls():
    k = sine_kernel()
    union = DisjointBallUnion((Ball(np.array([0.0]), 1.0),
                               Ball(np.array([5.0]), 1.0)))
    assert variance_subadditive_upper(k, union.dilate(2.0)) == approx(
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
    ratios = [variance_subadditive_upper(k, union.dilate(s))
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
    k = GinibreKernel(1)
    disk = Ball(np.zeros(2), 1.0)
    p, = hyperuniformity_curve(k, disk, [1.0], spectral="on",
                               nodes_per_unit=25.0)
    # 25 per unit on the side-2 disk is 50 nodes per axis: the columns
    # of build_grid(disk, 50), which
    # test_cross_route_within_the_suite_bound holds to the suite's bound
    sd = spectral_decompose(assemble_operator(k, build_grid(disk, 50)))
    assert p.var_spectral == variance_spectral(sd)
    assert p.var_radial == variance_radial(k, 1.0).value


def test_default_ginibre_curve_spectral_column_tracks_radial():
    # the CLI's default Ginibre disks (auto, cap 4096: 36 radii x 113
    # angles), where up to a third of the eigenvalues overshoot 1 by at
    # most 0.009; summed as solved they give gaps of 2.0e-11, 1.5e-4 and
    # 6.1e-3 to the radial route, clipped to [0, 1] 2.1e-7, 2.7e-3 and
    # 5.7e-2
    points = hyperuniformity_curve(GinibreKernel(1), Ball(np.zeros(2), 1.0),
                                   [6.0, 10.0, 12.0], spectral="auto")
    gaps = [abs(p.var_spectral - p.var_radial) / p.var_radial
            for p in points]
    assert gaps[0] <= 1e-9
    assert gaps[1] <= 5e-4
    assert gaps[2] <= 1e-2


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
