import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from pytest import approx

from accspec.discretize import build_grid
from accspec.geometry import Ball, Box, unit_ball_volume
from accspec import kernels
from accspec.checks import _bessel_series_decimal
from accspec.kernels import (GinibreKernel, PaleyWienerKernel, bessel_j,
                             radial_normalization_check, sine_kernel)
from accspec.spectrogram import build_eval_grid

ALL_KERNELS = [GinibreKernel(1), GinibreKernel(2), PaleyWienerKernel(1),
               PaleyWienerKernel(2), PaleyWienerKernel(3)]


def bessel_series_reference(nu: float, x: float, dps: int = 40) -> float:
    """Ascending power series summed in high precision (the term-by-term
    definition, free of float64 cancellation)."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        total = mp.mpf(0)
        term = (xm / 2) ** mp.mpf(nu) / mp.gamma(1 + mp.mpf(nu)) if x > 0 else \
            (mp.mpf(1) / mp.gamma(1 + mp.mpf(nu)) if nu == 0 else mp.mpf(0))
        k = 0
        while True:
            total += term
            term *= -(xm / 2) ** 2 / ((k + 1) * (k + 1 + mp.mpf(nu)))
            k += 1
            if abs(term) < mp.mpf(10) ** (-dps) * (abs(total) + 1):
                break
        return float(total)


# ---------------------------------------------------------------------------
# Bessel evaluation


def test_bessel_half_at_pi_over_two():
    assert bessel_j(0.5, math.pi / 2) == approx(2.0 / math.pi, rel=1e-14)


def test_bessel_zero_argument():
    for nu in (0.5, 1.0, 1.5):
        assert bessel_j(nu, 0.0) == 0.0


def test_bessel_j1_at_one():
    assert bessel_j(1.0, 1.0) == approx(0.4400505857449335, rel=1e-13)


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5])
def test_bessel_matches_series_small_arguments(nu):
    xs = np.linspace(0.0, 10.0, 81)
    vals = bessel_j(nu, xs)
    for x, v in zip(xs, vals):
        assert v == approx(bessel_series_reference(nu, float(x)),
                           rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5])
def test_bessel_large_arguments_envelope_accuracy(nu):
    xs = np.concatenate([np.linspace(10.0, 30.0, 41),
                         np.geomspace(30.0, 2000.0, 30)])
    vals = bessel_j(nu, xs)
    with mp.workdps(40):
        for x, v in zip(xs, vals):
            exact = float(mp.besselj(nu, mp.mpf(float(x))))
            envelope = math.sqrt(2.0 / (math.pi * x))
            assert abs(v - exact) <= 1e-10 * envelope


def allocating_j1_series(x):
    """The J_1 power series as a fresh array per operation, the form the
    in-place recurrence of ``bessel_j`` must reproduce bit for bit."""
    half = 0.5 * x
    term = half ** 1.0 / math.gamma(2.0)
    total = term.copy()
    h2 = half * half
    for k in range(40):
        term = term * (-h2) / ((k + 1.0) * (k + 2.0))
        total += term
    return total


def test_bessel_j1_bits_match_the_allocating_series():
    xs = np.linspace(0.0, 20.0, 100_000)
    before = xs.copy()
    lo = xs < kernels._J1_CROSSOVER
    expected = np.empty_like(xs)
    expected[lo] = allocating_j1_series(xs[lo])
    expected[~lo] = kernels._j1_hankel(xs[~lo])
    assert np.array_equal(bessel_j(1.0, xs), expected)
    assert np.array_equal(xs, before)


def test_check_bessel_reference_matches_mpmath():
    # the decimal series behind the bessel_vs_series check lines, on
    # their grid; measured 0 ulp from mpmath at every point
    for nu in (0.5, 1.0, 1.5):
        for x in np.linspace(0.0, 20.0, 201).tolist():
            with mp.workdps(40):
                exact = float(mp.besselj(nu, mp.mpf(x)))
            assert (abs(_bessel_series_decimal(nu, x) - exact)
                    <= math.ulp(exact))


def test_bessel_unsupported_order():
    with pytest.raises(ValueError, match="unsupported"):
        bessel_j(2.0, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0.25, 1.0)


def test_bessel_rejects_negative_argument():
    with pytest.raises(ValueError):
        bessel_j(1.0, -1.0)


# ---------------------------------------------------------------------------
# diagonals and pointwise values


def test_ginibre_diagonal_is_one():
    for m in (1, 2):
        k = GinibreKernel(m)
        z = np.linspace(0.1, 0.9, k.ambient_dim)
        assert k.eval(z, z) == approx(1.0, rel=1e-14)
        assert k.diagonal_value == 1.0


def test_paley_wiener_diagonals():
    assert PaleyWienerKernel(1).diagonal_value == approx(1.0 / math.pi)
    assert PaleyWienerKernel(2).diagonal_value == approx(1.0 / (4.0 * math.pi))
    assert PaleyWienerKernel(3).diagonal_value == approx(
        unit_ball_volume(3) / (2.0 * math.pi) ** 3)


def test_paley_wiener_diagonal_quadrature_oracle():
    # diagonal = (2 pi)^{-d} * Leb(unit ball), with the ball volume
    # computed by midpoint quadrature rather than the Gamma formula
    for d in (1, 2):
        n = 4001 if d == 1 else 801
        h = 2.0 / n
        axes = [np.linspace(-1 + h / 2, 1 - h / 2, n)] * d
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
        vol = h ** d * np.sum(np.sum(pts ** 2, axis=1) < 1.0)
        k = PaleyWienerKernel(d)
        assert k.diagonal_value == approx(vol / (2.0 * math.pi) ** d, rel=2e-3)


def test_sine_kernel_value_at_half_pi():
    k = sine_kernel()
    expected = math.sin(math.pi / 2) / (math.pi * math.pi / 2)
    assert k.eval([0.0], [math.pi / 2]) == approx(expected, rel=1e-14)
    assert expected == approx(2.0 / math.pi ** 2)


def test_sine_matches_generic_half_order_formula():
    k = PaleyWienerKernel(1)
    for r in np.linspace(1e-6, 30.0, 97):
        assert k.eval([0.0], [r]) == approx(math.sin(r) / (math.pi * r),
                                            rel=1e-12, abs=1e-15)


def test_paley_wiener_fourier_quadrature_oracle():
    # kernel value equals (2 pi)^{-d} int_{|xi|<1} cos(xi . (x-y)) dxi
    rng = np.random.default_rng(7)
    n = 1201
    h = 2.0 / n
    xi = np.linspace(-1 + h / 2, 1 - h / 2, n)
    k1 = PaleyWienerKernel(1)
    for r in rng.uniform(0.1, 8.0, 5):
        oracle = h * np.sum(np.cos(xi * r)) / (2.0 * math.pi)
        assert k1.eval([0.0], [float(r)]) == approx(float(oracle), abs=1e-6)
    xi2 = np.column_stack([m.ravel() for m in np.meshgrid(xi, xi, indexing="ij")])
    inside = np.sum(xi2 ** 2, axis=1) < 1.0
    xi2 = xi2[inside]
    k2 = PaleyWienerKernel(2)
    for r in rng.uniform(0.1, 5.0, 3):
        oracle = h ** 2 * np.sum(np.cos(xi2[:, 0] * r)) / (2.0 * math.pi) ** 2
        assert k2.eval([0.0, 0.0], [float(r), 0.0]) == approx(float(oracle),
                                                              abs=1e-5)


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        PaleyWienerKernel(2).eval([0.0], [1.0])
    with pytest.raises(ValueError):
        GinibreKernel(1).eval([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])


def sine_block_reference(xs, ys, dps: int = 30) -> np.ndarray:
    """sin(x - y) / (pi (x - y)) for float points xs (rows) and ys
    (columns), exact to about 10^-dps: the sines, cosines and pi from
    mpmath and the differences x - y exact, all as integers at
    2^(-4 dps), with sin(x - y) by the addition theorem."""
    bits = 4 * dps

    def fixed(values, f):
        return np.array([mp.libmp.to_fixed(f(mp.mpf(float(v)))._mpf_, bits)
                         for v in values], dtype=object)

    with mp.workdps(dps + 10):
        pi = mp.libmp.to_fixed(mp.pi._mpf_, bits)
        num = (np.multiply.outer(fixed(xs, mp.sin), fixed(ys, mp.cos))
               - np.multiply.outer(fixed(xs, mp.cos), fixed(ys, mp.sin)))
    exact = [np.array([int(Fraction(float(v)) * 2 ** bits) for v in values],
                      dtype=object) for values in (xs, ys)]
    den = np.subtract.outer(*exact) * pi
    zero = den == 0
    den[zero] = 1
    out = (num / den).astype(float)
    out[zero] = 1.0 / math.pi
    return out


def test_sine_eval_matrix_matches_high_precision_reference():
    # rows: the R = 16 ladder's lattice (spacing 1/40, margin 80); columns:
    # window-like nodes and lattice nodes moved by offsets on both sides
    # of the 1/2 cutoff between the Bessel and the angle-addition forms
    offsets = (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.49, 0.5 - 1e-6, 0.5 + 1e-6,
               0.51)
    rng = np.random.default_rng(7)
    xs = np.arange(-3880, 3881) / 40.0
    anchors = xs[rng.integers(0, len(xs), len(offsets))]
    ys = np.concatenate([rng.uniform(-16.0, 16.0, 8),
                         anchors + np.array(offsets)])
    kernel = PaleyWienerKernel(1)
    reference = sine_block_reference(xs, ys)
    # measured 1.67e-16, as with one sine per entry
    block = kernel.eval_matrix(xs[:, None], ys[:, None])
    assert np.abs(block - reference).max() <= 2e-16
    # single columns, like the pivoted Cholesky's, take one sine per entry
    columns = np.hstack([kernel.eval_matrix(xs[:, None], [[y]]) for y in ys])
    assert np.abs(columns - reference).max() <= 2e-16


@pytest.mark.parametrize("dim", [2, 3])
def test_paley_wiener_eval_matrix_equals_summed_distance_form(dim):
    rng = np.random.default_rng(dim)
    kernel = PaleyWienerKernel(dim)
    xs = rng.uniform(-6.0, 6.0, (300, dim))
    ys = np.concatenate([rng.uniform(-2.0, 2.0, (40, dim)), xs[:3],
                         xs[3:6] + 1e-9])
    diff = xs[:, None, :] - ys[None, :, :]
    expected = kernel._profile_amplitude(np.sqrt(np.sum(diff * diff, axis=2)))
    assert np.array_equal(kernel.eval_matrix(xs, ys), expected)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: f"{k.name}{k.ambient_dim}")
def test_eval_matrix_empty_blocks(kernel):
    d = kernel.ambient_dim
    pts = np.zeros((3, d))
    assert kernel.eval_matrix(np.empty((0, d)), pts).shape == (0, 3)
    assert kernel.eval_matrix(pts, np.empty((0, d))).shape == (3, 0)
    assert kernel.eval_matrix(np.empty((0, d)), np.empty((0, d))).shape == (0, 0)


# ---------------------------------------------------------------------------
# structural properties


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: f"{k.name}{k.ambient_dim}")
def test_hermitian_symmetry(kernel):
    rng = np.random.default_rng(42)
    for _ in range(25):
        x = rng.uniform(-3, 3, kernel.ambient_dim)
        y = rng.uniform(-3, 3, kernel.ambient_dim)
        assert kernel.eval(x, y) == approx(np.conj(kernel.eval(y, x)),
                                           abs=1e-14)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: f"{k.name}{k.ambient_dim}")
def test_radiality(kernel):
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.uniform(-3, 3, kernel.ambient_dim)
        y = rng.uniform(-3, 3, kernel.ambient_dim)
        r = float(np.linalg.norm(x - y))
        assert abs(kernel.eval(x, y)) ** 2 == approx(kernel.radial_profile(r),
                                                     rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: f"{k.name}{k.ambient_dim}")
def test_translation_invariant_modulus(kernel):
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(-2, 2, kernel.ambient_dim)
        y = rng.uniform(-2, 2, kernel.ambient_dim)
        t = rng.uniform(-2, 2, kernel.ambient_dim)
        assert abs(kernel.eval(x + t, y + t)) == approx(abs(kernel.eval(x, y)),
                                                        rel=1e-12, abs=1e-15)
        if isinstance(kernel, PaleyWienerKernel):
            assert kernel.eval(x + t, y + t) == approx(kernel.eval(x, y),
                                                       rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# field sums on the evaluation lattice


def _lattice(axes):
    """The product lattice of ``axes``, nodes in C order."""
    return np.column_stack([m.ravel() for m in
                            np.meshgrid(*axes, indexing="ij")])


def _count_blocks(monkeypatch, kernel_cls):
    """Record the entries of every ``eval_matrix`` block of ``kernel_cls``,
    which returns zeros: the count alone is read."""
    entries = []

    def counted(self, xs, ys):
        entries.append(len(xs) * len(ys))
        return np.zeros((len(xs), len(ys)))

    monkeypatch.setattr(kernel_cls, "eval_matrix", counted)
    return entries


@pytest.fixture(scope="module", params=[1, 2], ids=["cdim1", "cdim2"])
def ginibre_lattice(request):
    """(kernel, eval nodes, window nodes, lattice sum, eval_matrix)."""
    if request.param == 1:
        # default margin: coordinates reach 9, phases pi s v reach 80
        region = Ball(np.array([0.5, -0.3]), 2.0)
        window = build_grid(region, 12).nodes
        eval_grid = build_eval_grid(GinibreKernel(1), region, spacing=0.2)
    else:
        region = Box(np.array([-0.2, 0.1, -0.4, 0.3]),
                     np.array([0.8, 0.9, 0.6, 1.1]))
        window = build_grid(region, 3).nodes
        eval_grid = build_eval_grid(GinibreKernel(2), region, margin=1.5,
                                    spacing=0.4)
    kernel = GinibreKernel(request.param)
    # against the unit vectors of the window the sum is K(x, y_j) itself,
    # a product of the factor tables formed by no eval_matrix block
    with pytest.MonkeyPatch.context() as patch:
        entries = _count_blocks(patch, GinibreKernel)
        product = kernel.field_sum(window, np.eye(len(window)),
                                   eval_grid.nodes, eval_grid.axes)
    assert entries == []
    return (kernel, eval_grid.nodes, window, product,
            kernel.eval_matrix(eval_grid.nodes, window))


def test_axis_factors_reproduce_eval_matrix(ginibre_lattice):
    _, _, _, product, direct = ginibre_lattice
    # measured 7.4e-15 (cdim 1, 7921 x 108) and 1.8e-15 (cdim 2,
    # 10000 x 81); |K| <= 1, so the bound is absolute
    assert np.abs(product - direct).max() <= 2e-14


def test_axis_factors_no_less_accurate_than_eval_matrix(ginibre_lattice):
    kernel, xs, ys, product, direct = ginibre_lattice
    rng = np.random.default_rng(1)
    rows = rng.integers(0, len(xs), 300)
    cols = rng.integers(0, len(ys), 300)
    err_factors, err_direct = [], []
    with mp.workdps(40):
        for i, j in zip(rows, cols):
            z = [mp.mpc(xs[i, q], xs[i, q + 1]) for q in range(0, len(xs[i]), 2)]
            w = [mp.mpc(ys[j, q], ys[j, q + 1]) for q in range(0, len(ys[j]), 2)]
            exact = mp.exp(mp.pi * sum(a * mp.conj(b) - abs(a) ** 2 / 2
                                       - abs(b) ** 2 / 2
                                       for a, b in zip(z, w)))
            err_factors.append(float(abs(mp.mpc(product[i, j]) - exact)
                                     / abs(exact)))
            err_direct.append(float(abs(mp.mpc(direct[i, j]) - exact)
                                    / abs(exact)))
    # measured max 3.8e-14 vs 8.9e-14 (cdim 1), 2.8e-15 vs 7.2e-15 (cdim 2)
    assert max(err_factors) <= max(err_direct)


def test_paley_wiener_axis_factors_only_in_two_and_three_dimensions(
        monkeypatch):
    # d = 1 has no lattice factors, so its sum is eval_matrix blocks; in
    # d = 2 and 3 the plane waves form none, for K and for |K|^2
    entries = _count_blocks(monkeypatch, PaleyWienerKernel)
    axes = (np.linspace(-1.0, 1.0, 5),)
    PaleyWienerKernel(1).field_sum(np.zeros((3, 1)), np.ones(3),
                                   _lattice(axes), axes)
    assert entries == [15]
    rng = np.random.default_rng(3)
    for d in (2, 3):
        axes = tuple(np.linspace(-1.0, 1.0, 4 + k) for k in range(d))
        ys = rng.uniform(-0.5, 0.5, (2000, d))
        for square in (False, True):
            out = PaleyWienerKernel(d).field_sum(ys, np.ones(2000),
                                                 _lattice(axes), axes,
                                                 square=square)
            assert out.shape == (math.prod(len(a) for a in axes),)
    assert entries == [15]
    with pytest.raises(ValueError):
        PaleyWienerKernel(2).field_sum(np.zeros((3, 2)), np.ones(3),
                                       np.zeros((1, 2)), axes)


def test_paley_wiener_factors_give_way_to_blocks_on_small_windows(
        monkeypatch):
    # a 3-point window has fewer points than the image rule has waves,
    # and |K|^2 gives way under the image rule's gate too
    entries = _count_blocks(monkeypatch, PaleyWienerKernel)
    axes = (np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 4))
    for square in (False, True):
        PaleyWienerKernel(2).field_sum(np.zeros((3, 2)), np.ones(3),
                                       _lattice(axes), axes, square=square)
    assert entries == [60, 60]
    # so has a 4000-point window in a lattice 2e9 wide, and no rule of
    # ~1e18 waves is sized or built to find that out
    for d in (2, 3):
        axes = (np.linspace(-1e9, 1e9, 20),) * d
        entries.clear()
        PaleyWienerKernel(d).field_sum(np.zeros((4000, d)), np.ones(4000),
                                       _lattice(axes), axes)
        assert sum(entries) == 20 ** d * 4000


@pytest.mark.parametrize("dim", [2, 3])
def test_plane_wave_factors_reproduce_the_kernel_and_its_square(dim,
                                                                monkeypatch):
    # every lattice point against 40 of the window points, as the sum
    # against their unit vectors; measured 1.0e-15 and 2.7e-15 (d = 2),
    # 1.2e-15 and 4.6e-15 (d = 3) of the maxima of K and |K|^2
    rng = np.random.default_rng(5)
    axes = tuple(np.linspace(-1.5, 1.0 + 0.5 * k, 6 + k) for k in range(dim))
    ys = rng.uniform(-1.0, 1.0, (2000, dim))
    kernel = PaleyWienerKernel(dim)
    lattice = _lattice(axes)
    direct = kernel.eval_matrix(lattice, ys[:40])
    entries = _count_blocks(monkeypatch, PaleyWienerKernel)
    for square, expected in ((False, direct), (True, direct ** 2)):
        product = kernel.field_sum(ys, np.eye(len(ys), 40), lattice, axes,
                                   square=square)
        assert np.abs(product - expected).max() <= 1e-14 * expected.max()
    assert entries == []


def test_ginibre_axis_factors_reject_wrong_dimension():
    with pytest.raises(ValueError):
        GinibreKernel(1).field_sum(np.zeros((2, 2)), np.ones(2),
                                   np.zeros((3, 2)), (np.zeros(3),))
    with pytest.raises(ValueError):
        GinibreKernel(1).field_sum(np.zeros((2, 4)), np.ones(2),
                                   np.zeros((9, 2)),
                                   (np.zeros(3), np.zeros(3)))


def test_ginibre_radial_profile_gaussian():
    k = GinibreKernel(1)
    for r in (0.0, 0.5, 1.3, 2.5):
        assert k.radial_profile(r) == approx(math.exp(-math.pi * r * r),
                                             rel=1e-14)


def test_profile_at_zero_is_diagonal_squared():
    for kernel in ALL_KERNELS:
        assert kernel.radial_profile(0.0) == approx(kernel.diagonal_value ** 2,
                                                    rel=1e-13)


def test_sine_profile_small_r_limit():
    k = sine_kernel()
    assert k.radial_profile(1e-10) == approx(1.0 / math.pi ** 2, rel=1e-9)
    r = 2.0
    assert k.radial_profile(r) == approx(math.sin(r) ** 2 / (math.pi * r) ** 2,
                                         rel=1e-12)


@given(st.floats(0.0, 50.0))
def test_profiles_nonnegative(r):
    for kernel in ALL_KERNELS:
        assert kernel.radial_profile(r) >= 0.0


# ---------------------------------------------------------------------------
# admissibility residual


def test_normalization_residual_ginibre_machine_zero():
    assert abs(radial_normalization_check(GinibreKernel(1), 10.0)) < 1e-12


def test_normalization_residual_sine_slow_tail():
    assert abs(radial_normalization_check(sine_kernel(), 1e4)) < 1e-3


def test_normalization_residual_pw2():
    assert abs(radial_normalization_check(PaleyWienerKernel(2), 1e4)) < 1e-2


def test_normalization_residual_pw3():
    assert abs(radial_normalization_check(PaleyWienerKernel(3), 1e4)) < 1e-2


def test_normalization_check_rejects_bad_range():
    with pytest.raises(ValueError):
        radial_normalization_check(sine_kernel(), -1.0)


def test_correlation_lengths():
    assert GinibreKernel(1).correlation_length() == approx(1.7122, rel=1e-3)
    assert sine_kernel().correlation_length() == 20.0
    assert PaleyWienerKernel(2).correlation_length() == 20.0
    assert PaleyWienerKernel(3).correlation_length() == approx(17.32, rel=1e-2)


def test_kernel_dimension_validation():
    with pytest.raises(ValueError):
        PaleyWienerKernel(4)
    with pytest.raises(ValueError):
        GinibreKernel(3)


class _FlatProfileStub:
    """Constant radial profile: not integrable, not a projection kernel."""

    ambient_dim = 1
    diagonal_value = 1.0
    name = "flat-stub"

    def radial_profile(self, r):
        return np.ones_like(np.asarray(r, dtype=float))

    def radial_panel_edges(self, a, b):
        return np.linspace(a, b, 64)


def test_normalization_residual_rejects_flat_profile():
    # the admissibility residual grows linearly with r_max instead of
    # settling near zero, which is the guard against such profiles
    res_small = radial_normalization_check(_FlatProfileStub(), 10.0)
    res_large = radial_normalization_check(_FlatProfileStub(), 100.0)
    assert res_small > 1.0
    assert res_large > 10.0 * res_small * 0.9
