import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from pytest import approx

from accspec.discretize import build_grid
from accspec.geometry import Ball, Box, unit_ball_volume
from accspec.quadrature import graded_end_panel, panel_nodes
from accspec import kernels
from accspec.checks import _amplitude_series_decimal
from accspec.kernels import (GinibreKernel, PaleyWienerKernel,
                             radial_normalization_check, sine_kernel)
from accspec.spectrogram import build_eval_grid

ALL_KERNELS = [GinibreKernel(1), GinibreKernel(2), PaleyWienerKernel(1),
               PaleyWienerKernel(2), PaleyWienerKernel(3)]


def amplitude_series_reference(d: int, r: float, dps: int = 40) -> float:
    """The Paley-Wiener amplitude J_nu(r) / (2 pi r)^nu, nu = d/2, by its
    ascending power series (4 pi)^(-nu) sum_k (-r^2/4)^k / (k! Gamma(nu +
    k + 1)) summed in high precision (the term-by-term definition, free of
    float64 cancellation)."""
    with mp.workdps(dps):
        nu = mp.mpf(d) / 2
        rm = mp.mpf(r)
        term = (4 * mp.pi) ** -nu / mp.gamma(1 + nu)
        total = mp.mpf(0)
        k = 0
        while True:
            total += term
            term *= -(rm / 2) ** 2 / ((k + 1) * (k + 1 + nu))
            k += 1
            if abs(term) < mp.mpf(10) ** (-dps) * (abs(total) + 1):
                break
        return float(total)


def amplitude(d: int, rs) -> np.ndarray:
    """K at the distances ``rs`` through ``eval_matrix``: the points are
    placed on the first axis, against the origin."""
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    points = np.zeros((len(rs), d))
    points[:, 0] = rs
    return PaleyWienerKernel(d).eval_matrix(points, np.zeros((1, d)))[:, 0]


# ---------------------------------------------------------------------------
# the Bessel amplitude J_{d/2}(r) / (2 pi r)^{d/2}, order nu = d/2


def test_bessel_half_at_pi_over_two():
    # J_{1/2}(pi/2) = 2/pi, so the d = 1 amplitude there is 2/pi^2
    assert amplitude(1, math.pi / 2)[0] == approx(2.0 / math.pi ** 2,
                                                  rel=1e-14)


def test_bessel_zero_argument():
    # J_nu(r) / (2 pi r)^nu -> (4 pi)^(-nu) / Gamma(1 + nu) at r = 0: the
    # diagonal value
    for d in (1, 2, 3):
        assert amplitude(d, 0.0)[0] == PaleyWienerKernel(d).diagonal_value


def test_bessel_j1_at_one():
    assert amplitude(2, 1.0)[0] == approx(0.4400505857449335 / (2.0 * math.pi),
                                          rel=1e-13)


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5])
def test_bessel_matches_series_small_arguments(nu):
    # the J_nu line's absolute floor of 1e-13 scaled by the amplitude's
    # maximum, the diagonal value
    d = int(2 * nu)
    rs = np.linspace(0.0, 10.0, 81)
    floor = 1e-13 * PaleyWienerKernel(d).diagonal_value
    for r, v in zip(rs, amplitude(d, rs)):
        assert v == approx(amplitude_series_reference(d, float(r)),
                           rel=1e-10, abs=floor)


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5])
def test_bessel_large_arguments_envelope_accuracy(nu):
    d = int(2 * nu)
    rs = np.concatenate([np.linspace(10.0, 30.0, 41),
                         np.geomspace(30.0, 2000.0, 30)])
    with mp.workdps(40):
        for r, v in zip(rs, amplitude(d, rs)):
            rm = mp.mpf(float(r))
            exact = float(mp.besselj(nu, rm) / (2 * mp.pi * rm) ** nu)
            envelope = (math.sqrt(2.0 / (math.pi * r))
                        / (2.0 * math.pi * r) ** nu)
            assert abs(v - exact) <= 1e-10 * envelope


def allocating_j1_series(x):
    """The J_1 power series as a fresh array per operation, the form the
    in-place recurrence of ``_j_series`` must reproduce bit for bit."""
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
    lo = xs < kernels._J1_CROSSOVER
    below = xs[lo]
    before = below.copy()
    assert np.array_equal(kernels._j_series(1.0, below, 40),
                          allocating_j1_series(before))
    assert np.array_equal(below, before)
    # the d = 2 amplitude is that series over 2 pi r below the crossover
    # (the diagonal value up to r = 1e-8) and the Hankel form beyond
    series = lo & (xs > 1e-8)
    two_pi_r = 2.0 * math.pi * xs
    expected = np.full_like(xs, PaleyWienerKernel(2).diagonal_value)
    expected[series] = allocating_j1_series(xs[series]) / two_pi_r[series]
    expected[~lo] = kernels._j1_hankel(xs[~lo], np.sin(xs[~lo]),
                                       np.cos(xs[~lo])) / two_pi_r[~lo]
    assert np.array_equal(amplitude(2, xs), expected)


def test_check_bessel_reference_matches_mpmath():
    # the decimal series behind the amplitude_vs_series check lines, on
    # their grid, against mpmath's J_nu(r) / (2 pi r)^nu and its r = 0
    # limit (4 pi)^(-nu) / Gamma(1 + nu)
    for d in (1, 2, 3):
        nu = mp.mpf(d) / 2
        for r in np.linspace(0.0, 20.0, 201).tolist():
            with mp.workdps(40):
                rm = mp.mpf(r)
                exact = float(mp.besselj(nu, rm) / (2 * mp.pi * rm) ** nu
                              if r else
                              (4 * mp.pi) ** -nu / mp.gamma(1 + nu))
            assert (abs(_amplitude_series_decimal(d, r) - exact)
                    <= math.ulp(exact))


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
    # window-like nodes and lattice nodes moved by offsets from 0 (the
    # diagonal value) to 0.51
    offsets = (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.49, 0.5 - 1e-6, 0.5 + 1e-6,
               0.51)
    rng = np.random.default_rng(7)
    xs = np.arange(-3880, 3881) / 40.0
    anchors = xs[rng.integers(0, len(xs), len(offsets))]
    ys = np.concatenate([rng.uniform(-16.0, 16.0, 8),
                         anchors + np.array(offsets)])
    kernel = PaleyWienerKernel(1)
    reference = sine_block_reference(xs, ys)
    # measured 1.67e-16: a block takes one sine per entry, as do single
    # columns like the pivoted Cholesky's
    block = kernel.eval_matrix(xs[:, None], ys[:, None])
    assert np.abs(block - reference).max() <= 2e-16
    columns = np.hstack([kernel.eval_matrix(xs[:, None], [[y]]) for y in ys])
    assert np.abs(columns - reference).max() <= 2e-16


@pytest.mark.parametrize("dim", [1, 2, 3])
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


def test_paley_wiener_plane_waves_in_every_dimension(monkeypatch):
    # in d = 1, 2 and 3 the plane waves form no kernel block, for K and
    # for |K|^2
    entries = _count_blocks(monkeypatch, PaleyWienerKernel)
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        axes = tuple(np.linspace(-1.0, 1.0, 4 + k) for k in range(d))
        ys = rng.uniform(-0.5, 0.5, (2000, d))
        for square in (False, True):
            out = PaleyWienerKernel(d).field_sum(ys, np.ones(2000),
                                                 _lattice(axes), axes,
                                                 square=square)
            assert out.shape == (math.prod(len(a) for a in axes),)
    assert entries == []
    # a 3-point window has fewer points than the d = 1 image rule has
    # waves: both sums are eval_matrix blocks
    axes = (np.linspace(-1.0, 1.0, 5),)
    for square in (False, True):
        PaleyWienerKernel(1).field_sum(np.zeros((3, 1)), np.ones(3),
                                       _lattice(axes), axes, square=square)
    assert entries == [15, 15]
    for d in (1, 2):
        with pytest.raises(ValueError):
            PaleyWienerKernel(d).field_sum(np.zeros((3, d)), np.ones(3),
                                           np.zeros((1, d)), (np.zeros(1),) * 3)


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
    # up to ~1e18 waves is sized or built to find that out
    for d in (1, 2, 3):
        axes = (np.linspace(-1e9, 1e9, 20),) * d
        entries.clear()
        PaleyWienerKernel(d).field_sum(np.zeros((4000, d)), np.ones(4000),
                                       _lattice(axes), axes)
        assert sum(entries) == 20 ** d * 4000


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_plane_wave_factors_reproduce_the_kernel_and_its_square(dim,
                                                                monkeypatch):
    # every lattice point against 40 of the window points, as the sum
    # against their unit vectors; measured 5.2e-16 and 1.3e-15 (d = 1),
    # 1.0e-15 and 2.7e-15 (d = 2), 1.2e-15 and 4.6e-15 (d = 3) of the
    # maxima of K and |K|^2
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


@pytest.fixture(scope="module")
def sine_rung():
    """The R = 16 rung of the sine ladder on (-1, 1): 1280 window nodes
    and an evaluation lattice of 7680 nodes spanning about 192."""
    region = Box(np.array([-16.0]), np.array([16.0]))
    grid = build_grid(region, 1280)
    eval_grid = build_eval_grid(sine_kernel(), region, reference_grid=grid)
    assert eval_grid.n_nodes == 7680
    return region, grid, eval_grid


# the lattice of the rung splits into b = 88 coarse times 88 fine nodes,
# trimmed to 7680 = 87 * 88 + 24; 7744 = 88^2 fills the split exactly
@pytest.mark.parametrize("nodes", [7680, 7744])
def test_sine_plane_waves_on_a_ladder_rung(sine_rung, nodes, monkeypatch):
    # the rung's lattice against 40 window points from end to end, whose
    # phases reach the diameter; measured 7.5e-15 and 2.2e-14 (7680),
    # 6.4e-15 and 2.2e-14 (7744) of the maxima of K and |K|^2
    region, grid, eval_grid = sine_rung
    kernel = sine_kernel()
    if nodes != eval_grid.n_nodes:
        eval_grid = build_eval_grid(kernel, region, spacing=192.0 / nodes)
    assert eval_grid.n_nodes == nodes
    cols = np.linspace(0, grid.n_nodes - 1, 40).astype(int)
    units = np.zeros((grid.n_nodes, 40))
    units[cols, np.arange(40)] = 1.0
    direct = kernel.eval_matrix(eval_grid.nodes, grid.nodes[cols])
    entries = _count_blocks(monkeypatch, PaleyWienerKernel)
    for square, expected, bound in ((False, direct, 1e-14),
                                    (True, direct ** 2, 3e-14)):
        product = kernel.field_sum(grid.nodes, units, eval_grid.nodes,
                                   eval_grid.axes, square=square)
        assert product.shape == (nodes, 40)
        assert np.abs(product - expected).max() <= bound * expected.max()
    assert entries == []


def test_sine_field_sum_holds_no_lattice_table(sine_rung):
    # the window integral of the rung: its |K|^2 rule has P = 222 waves,
    # so one 7680 x P complex table would take 26 MiB; the split tables
    # of 88 x P each and the window phases, built 2^16 entries at a time,
    # peak at 1.6 MiB. The first call fills the Gauss rules' cache.
    _, grid, eval_grid = sine_rung
    kernel = sine_kernel()
    kernel.field_sum(grid.nodes, grid.weights, eval_grid.nodes,
                     eval_grid.axes, square=True)
    tracemalloc.start()
    try:
        kernel.field_sum(grid.nodes, grid.weights, eval_grid.nodes,
                         eval_grid.axes, square=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


def test_sine_lattice_axis_must_be_arithmetic():
    # the d = 1 axis is split as an arithmetic progression: a node off it
    # raises instead of giving a wrong sum
    kernel = sine_kernel()
    ys = np.linspace(-0.5, 0.5, 200)[:, None]
    axis = np.linspace(-3.0, 3.0, 50)
    kernel.field_sum(ys, np.ones(200), axis[:, None], (axis,))
    axis[17] += 1e-9
    for square in (False, True):
        with pytest.raises(ValueError, match="not arithmetic"):
            kernel.field_sum(ys, np.ones(200), axis[:, None], (axis,),
                             square=square)


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


# the residuals at r_max = 1e4 are the profile tails beyond r_max,
# 1/(pi^2 r_max), 1/(2 pi^2 r_max) and 1/(2 pi^3 r_max): measured
# 1.013e-5, 5.066e-6 and 1.613e-6


def test_normalization_residual_sine_slow_tail():
    assert abs(radial_normalization_check(sine_kernel(), 1e4)) < 1.1e-5


def test_normalization_residual_pw2():
    assert abs(radial_normalization_check(PaleyWienerKernel(2), 1e4)) < 5.5e-6


def test_normalization_residual_pw3():
    assert abs(radial_normalization_check(PaleyWienerKernel(3), 1e4)) < 1.8e-6


def test_normalization_check_memory_does_not_grow_with_r_max():
    # the 0.51M nodes of r_max = 1e5 would take about 60 MiB formed at
    # once; chunked, the peak measures 0.45 MiB, as at r_max = 1e3. The
    # first call fills the Gauss rule's cache.
    kernel = PaleyWienerKernel(2)
    radial_normalization_check(kernel, 10.0)
    tracemalloc.start()
    try:
        radial_normalization_check(kernel, 1e5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2 ** 20


def _first_panel_width(kernel, b):
    """The width of the first of ``kernel.radial_panels(0, b)``'s uniform
    panels of 16 nodes, read as its weight sum."""
    weights = next(kernel.radial_panels(0.0, b))[1]
    return float(weights[:16].sum())


@pytest.mark.parametrize("d", [1, 2, 3])
def test_radial_panels_agree_with_the_pointwise_profile(d):
    # [0, 6000] crosses the series switches at 0.6 (d = 3) and 13 (d = 2).
    # Angle addition gives sin and cos of the exact sum start + offset to
    # a few eps; the node is that sum rounded, off by up to eps r / 2, so
    # phi differs by eps (1 + r) times the envelope phi(r) <= 2 /
    # ((2 pi)^d pi r^(d+1)) (measured at most 0.49 times that), and each
    # chunk's weights sum to its span within 0.80 eps of it, the last
    # chunk's graded panel included. The panel width is read from the
    # panels
    kernel = PaleyWienerKernel(d)
    eps = np.finfo(float).eps
    width = _first_panel_width(kernel, 6000.0)
    covered = 0.0
    for nodes, weights, phi in kernel.radial_panels(0.0, 6000.0):
        envelope = np.minimum(kernel.diagonal_value ** 2,
                              2.0 / ((2.0 * math.pi) ** d * math.pi
                                     * nodes ** (d + 1)))
        gap = np.abs(phi - kernel.radial_profile(nodes))
        assert np.all(gap <= 2.0 * eps * (1.0 + nodes) * envelope)
        span = nodes.size // 16 * width
        assert abs(weights.sum() - span) <= 2.0 * eps * span
        covered += span
    assert covered == approx(6000.0, rel=1e-14)


@pytest.mark.parametrize("n_nodes", [12, 16])
def test_graded_end_panel_integrates_half_integer_branches(n_nodes):
    # r = b - h u^2 turns (b - r)^(k/2) into h^(k/2) u^k: measured at
    # most 7 eps relative for k = 1, 3, 5, 7; the weights sum to h within
    # 0.7 eps, also at b = 6000 with the sine route's panel width
    eps = np.finfo(float).eps
    b, h = 2.0, 0.37
    nodes, weights = graded_end_panel(b, h, n_nodes)
    assert np.all(np.diff(nodes) > 0) and b - h <= nodes[0] < nodes[-1] < b
    for k in (1, 3, 5, 7):
        exact = h ** (k / 2 + 1) / (k / 2 + 1)
        assert abs(weights @ (b - nodes) ** (k / 2) - exact) <= 8 * eps * exact
    width = _first_panel_width(sine_kernel(), 6000.0)
    for b, h in ((2.0, 0.37), (6000.0, width)):
        weights = graded_end_panel(b, h, n_nodes)[1]
        assert abs(weights.sum() - h) <= eps * h


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


class _FlatProfileStub(kernels.Kernel):
    """Constant radial profile: not integrable, not a projection kernel.
    Its quadrature is one chunk of 63 equal panels."""

    ambient_dim = 1
    diagonal_value = 1.0
    name = "flat-stub"

    def radial_profile(self, r):
        return np.ones_like(np.asarray(r, dtype=float))

    def radial_panels(self, a, b):
        nodes, weights = panel_nodes(np.linspace(a, b, 64), 64)
        yield nodes, weights, self.radial_profile(nodes)


def test_normalization_residual_rejects_flat_profile():
    # the admissibility residual grows linearly with r_max instead of
    # settling near zero, which is the guard against such profiles
    res_small = radial_normalization_check(_FlatProfileStub(), 10.0)
    res_large = radial_normalization_check(_FlatProfileStub(), 100.0)
    assert res_small > 1.0
    assert res_large > 10.0 * res_small * 0.9
