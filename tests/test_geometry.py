import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from pytest import approx

from accspec import geometry
from accspec.geometry import (Ball, Box, DisjointBallUnion, LensSpec,
                              SeriesDivergenceError, lens_volume_exact,
                              lens_volume_exact_many, lens_volume_series,
                              unit_ball_volume, unit_sphere_area)

# closed-form overlap of two unit circles at center distance 1:
# pi - (2 acos(1/2) - (1/2) sqrt(3)) outside the centered one
CIRCLE_LENS_R1 = math.pi / 3.0 + math.sqrt(3.0) / 2.0


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == approx(2.0)
    assert unit_ball_volume(2) == approx(math.pi)
    assert unit_ball_volume(3) == approx(4.0 * math.pi / 3.0)


def test_unit_sphere_areas():
    assert unit_sphere_area(1) == approx(2.0)
    assert unit_sphere_area(2) == approx(2.0 * math.pi)
    assert unit_sphere_area(3) == approx(4.0 * math.pi)


@pytest.mark.parametrize("func", [unit_ball_volume, unit_sphere_area])
def test_dimension_zero_rejected(func):
    with pytest.raises(ValueError):
        func(0)


# ---------------------------------------------------------------------------
# regions


def test_ball_dilation_scaling_law():
    ball = Ball(np.zeros(2), 1.0)
    scaled = ball.dilate(3.0)
    assert scaled.radius == 3.0
    assert scaled.volume() == approx(9.0 * math.pi)


def test_box_contains_origin():
    box = Box(-np.ones(3), np.ones(3))
    assert box.contains_points(np.zeros(3))[0]
    assert not box.contains_points(np.array([0.0, 0.0, 1.5]))[0]


def test_union_volume_additive():
    union = DisjointBallUnion((Ball(np.array([0.0]), 1.0),
                               Ball(np.array([3.0]), 1.0)))
    assert union.volume() == approx(4.0)
    assert union.contains_points(np.array([3.2]))[0]
    assert not union.contains_points(np.array([1.5]))[0]


def test_union_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        DisjointBallUnion((Ball(np.array([0.0]), 1.0),
                           Ball(np.array([1.5]), 1.0)))


def test_union_allows_touching():
    DisjointBallUnion((Ball(np.array([0.0]), 1.0), Ball(np.array([2.0]), 1.0)))


def test_invalid_dilation():
    for region in (Ball(np.zeros(1), 1.0), Box(-np.ones(1), np.ones(1))):
        with pytest.raises(ValueError):
            region.dilate(0.0)
        with pytest.raises(ValueError):
            region.dilate(-2.0)


@pytest.mark.parametrize("region", [
    Box(np.array([1e308]), np.array([1.5e308])),
    Ball(np.array([1e308, 0.0]), 1.0),
    Ball(np.zeros(2), 1e308),
    DisjointBallUnion((Ball(np.array([0.0]), 1.0),
                       Ball(np.array([1e308]), 1.0))),
], ids=["box-corner", "ball-center", "ball-radius", "union"])
def test_dilation_past_the_float_range_is_an_overflow(region):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="dilated by 2 exceeds"):
            region.dilate(2.0)


def test_invalid_region_construction():
    with pytest.raises(ValueError):
        Ball(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        Box(np.array([0.0, 0.0]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("make", [
    lambda: Box(np.array([0.0]), np.array([math.inf])),
    lambda: Box(np.array([-math.inf, 0.0]), np.array([1.0, 1.0])),
    lambda: Box(np.array([math.nan]), np.array([1.0])),
    lambda: Ball(np.array([math.nan]), 1.0),
    lambda: Ball(np.array([math.inf, 0.0]), 1.0),
    lambda: Ball(np.zeros(2), math.inf),
    lambda: Ball(np.zeros(1), math.nan),
], ids=["box-upper-inf", "box-lower-minus-inf", "box-lower-nan",
        "ball-center-nan", "ball-center-inf", "ball-radius-inf",
        "ball-radius-nan"])
def test_nonfinite_region_is_refused(make):
    with pytest.raises(ValueError, match="must be finite"):
        make()


def test_bounding_boxes():
    ball = Ball(np.array([1.0, -1.0]), 2.0)
    bbox = ball.bounding_box()
    assert bbox.lower == approx([-1.0, -3.0])
    assert bbox.upper == approx([3.0, 1.0])
    union = DisjointBallUnion((Ball(np.array([0.0]), 1.0),
                               Ball(np.array([4.0]), 0.5)))
    bbox = union.bounding_box()
    assert bbox.lower == approx([-1.0])
    assert bbox.upper == approx([4.5])


def test_boundary_distance():
    ball = Ball(np.zeros(2), 1.0)
    assert ball.boundary_distance(np.array([[0.5, 0.0]]))[0] == approx(0.5)
    assert ball.boundary_distance(np.array([[2.0, 0.0]]))[0] == approx(1.0)
    box = Box(np.array([0.0]), np.array([1.0]))
    assert box.boundary_distance(np.array([[0.25]]))[0] == approx(0.25)
    assert box.boundary_distance(np.array([[1.5]]))[0] == approx(0.5)


def test_region_dilation_volume_power_law():
    union = DisjointBallUnion((Ball(np.array([0.0, 0.0]), 1.0),
                               Ball(np.array([5.0, 0.0]), 2.0)))
    assert union.dilate(2.5).volume() == approx(2.5 ** 2 * union.volume())


# ---------------------------------------------------------------------------
# lens volume


def test_lens_one_dimensional_is_offset():
    spec = LensSpec(1, 0.7, 1.0)
    assert lens_volume_series(spec) == approx(0.7, abs=1e-12)
    assert lens_volume_exact(spec) == approx(0.7, abs=1e-12)


def test_lens_identical_balls_vanish():
    for d in (1, 2, 3):
        assert lens_volume_series(LensSpec(d, 0.0, 1.0)) == 0.0
        assert lens_volume_exact(LensSpec(d, 0.0, 1.0)) == approx(0.0, abs=1e-13)


def test_lens_circle_overlap_closed_form():
    spec = LensSpec(2, 1.0, 1.0)
    assert lens_volume_series(spec, tol=1e-12) == approx(CIRCLE_LENS_R1, abs=1e-10)
    assert lens_volume_exact(spec) == approx(CIRCLE_LENS_R1, abs=1e-12)


def test_lens_disjoint_clamp():
    for d in (1, 2, 3):
        full = unit_ball_volume(d)
        assert lens_volume_series(LensSpec(d, 2.0, 1.0)) == approx(full)
        assert lens_volume_exact(LensSpec(d, 2.5, 1.0)) == approx(full)
        assert lens_volume_exact(LensSpec(d, 2.0, 0.5)) == approx(full * 0.5 ** d)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("R", [0.5, 1.0, 5.0])
def test_lens_series_vs_exact_grid(d, R):
    tol = 1e-9
    for r in np.linspace(0.0, 2.0 * R, 55):
        spec = LensSpec(d, float(r), R)
        assert lens_volume_series(spec, tol=tol) == approx(
            lens_volume_exact(spec), abs=10 * tol)


@given(st.floats(0.05, 10.0), st.floats(0.0, 2.0))
@example(lam=10.0, q=1e-6)
def test_lens_scaling_covariance(lam, q):
    # lens(d, lam r, lam R) = lam^d lens(d, r, R)
    R = 1.0
    r = q * 2.0 * R
    for d in (1, 2, 3):
        base = lens_volume_series(LensSpec(d, r, R), tol=1e-12)
        scaled = lens_volume_series(LensSpec(d, lam * r, lam * R), tol=1e-12)
        assert scaled == approx(lam ** d * base, rel=1e-10, abs=1e-12)
        base_e = lens_volume_exact(LensSpec(d, r, R))
        scaled_e = lens_volume_exact(LensSpec(d, lam * r, lam * R))
        assert scaled_e == approx(lam ** d * base_e, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lens_nondecreasing_in_offset(d):
    rs = np.linspace(0.0, 2.0, 80)
    vols = [lens_volume_series(LensSpec(d, float(r), 1.0)) for r in rs]
    assert all(b >= a - 1e-12 for a, b in zip(vols, vols[1:]))
    many = lens_volume_exact_many(d, rs, 1.0)
    assert np.all(np.diff(many) >= -1e-12)


@pytest.mark.parametrize("d,n_nonzero", [(1, 1), (3, 2), (5, 3)])
def test_lens_series_terminates_for_odd_dimension(d, n_nonzero):
    # the rising factorial (-(d-1)/2)_k hits zero after (d+1)/2 terms
    alpha = -(d - 1) / 2.0
    nonzero = [k for k in range(12)
               if math.prod(alpha + j for j in range(k)) != 0.0]
    assert nonzero == list(range(n_nonzero))


def test_lens_series_cap_raises(monkeypatch):
    monkeypatch.setattr(geometry, "SERIES_TERM_CAP", 500)
    with pytest.raises(SeriesDivergenceError, match="within 500 terms"):
        lens_volume_series(LensSpec(2, 1.9999999, 1.0), tol=1e-14)


def test_lens_exact_vectorized_matches_scalar():
    rs = np.linspace(0.0, 2.5, 23)
    many = lens_volume_exact_many(2, rs, 1.0)
    for r, v in zip(rs, many):
        assert v == approx(lens_volume_exact(LensSpec(2, float(r), 1.0)),
                           abs=1e-12)


def _lens_mpmath(d, r, R):
    # c_d R^d minus twice the cap c_{d-1} R^d int_{asin q}^{pi/2} cos^d,
    # by 40-digit quadrature; r and R are taken exactly as given
    with mp.workdps(40):
        q = mp.mpf(r) / (2 * mp.mpf(R))
        cap = mp.quad(lambda t: mp.cos(t) ** d, [mp.asin(q), mp.pi / 2])

        def ball(k):
            return mp.pi ** (mp.mpf(k) / 2) / mp.gamma(mp.mpf(k) / 2 + 1)

        return (ball(d) - 2 * ball(d - 1) * cap) * mp.mpf(R) ** d


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("R", [1.0, 7.3, 1000.0])
def test_lens_exact_accurate_near_tangency(d, R):
    qs = [0.0, 0.3, 0.9, 1 - 1e-6, 1 - 1e-8, 1 - 1e-10, 1.0]
    rs = np.array([2.0 * R * q for q in qs])
    many = lens_volume_exact_many(d, rs, R)
    scale = unit_ball_volume(d) * R ** d
    for r, v in zip(rs, many):
        exact = _lens_mpmath(d, float(r), R)
        assert abs(v - exact) <= 2e-15 * scale, (r, v)
        scalar = lens_volume_exact(LensSpec(d, float(r), R))
        assert abs(scalar - exact) <= 2e-15 * scale, (r, scalar)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("R", [1.0, 7.3, 1000.0])
def test_lens_exact_relative_accuracy_at_small_offsets(d, R):
    # the lens vanishes like q = r / (2R), so its error is read relative
    # to its own size, not to the ball's
    qs = [1e-12, 1e-9, 1e-6, 1e-3, 0.1]
    rs = np.array([2.0 * R * q for q in qs])
    many = lens_volume_exact_many(d, rs, R)
    for r, v in zip(rs, many):
        exact = _lens_mpmath(d, float(r), R)
        assert abs(v - exact) <= 2e-15 * exact, (r, v)


def test_lens_spec_validation():
    with pytest.raises(ValueError):
        LensSpec(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        LensSpec(2, -0.1, 1.0)
    with pytest.raises(ValueError):
        LensSpec(2, 1.0, 0.0)
