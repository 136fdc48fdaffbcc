import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from pytest import approx

from accspec import discretize, kernels, spectrogram
from accspec.checks import inner_product_identity
from accspec.discretize import (QuadratureGrid, assemble_operator,
                                build_grid, max_n_per_axis,
                                spectral_decompose)
from accspec.geometry import Ball, Box, DisjointBallUnion
from helpers import synthetic_spectral, unit_psi
from accspec.kernels import GinibreKernel, PaleyWienerKernel, sine_kernel
from accspec.spectrogram import (ConvergenceRow, DefectField,
                                 RankDeficiencyError,
                                 accumulated_spectrogram, build_eval_grid,
                                 c_delta, compute_psi, count_n, defect_g,
                                 dilation_snapshot, inequality_report,
                                 inner_product_direct,
                                 inner_product_spectral,
                                 l1_convergence_study)


def test_count_n_values():
    assert count_n(3.2) == 4
    assert count_n(10.0 / math.pi) == 4
    assert count_n(2.0) == 2  # integral trace maps to itself
    assert count_n(0.5) == 1


def test_count_n_rejects_negative():
    with pytest.raises(ValueError):
        count_n(-0.1)


def test_c_delta_values():
    assert c_delta(0.5) == 2.0
    assert c_delta(0.1) == approx(10.0)
    assert c_delta(0.25) == 4.0
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            c_delta(bad)


def test_count_n_delta():
    # N_delta is the count above 1 - delta; c_delta guards delta's range
    sd = synthetic_spectral([1.0, 0.95, 0.5, 0.01])
    assert sd.count_above(1.0 - 0.1) == 2
    assert sd.count_above(1.0 - 0.6) == 3
    with pytest.raises(ValueError):
        c_delta(1.0)


# ---------------------------------------------------------------------------
# Psi modes on the reference configuration


def test_psi_norms_approach_eigenvalues(sine_run):
    n = sine_run.field.n_count
    mu = np.clip(sine_run.spectral.eigenvalues, 0.0, 1.0)
    ratios = sine_run.psi.norms_sq[:n] / mu[:n]
    # window truncation removes a little of each mode's mass; the slow
    # 1/x^2 kernel tail keeps the plunge mode a percent or two short
    assert np.all(ratios <= 1.0 + 1e-9)
    assert np.abs(ratios - 1.0).max() < 0.02


def test_psi_orthonormal_on_eval_window(sine_run):
    n = sine_run.field.n_count
    psi = unit_psi(sine_run.psi)[:, :n]
    w = sine_run.eval_grid.weights
    gram = (psi.T * w) @ psi
    assert np.abs(gram - np.eye(n)).max() < 0.02


def test_top_mode_reproduces_eigenfunction(sine_run):
    # mu_1 ~ 1: Psi_1 is essentially Phi_1 inside the window
    w = sine_run.grid.weights
    phi1 = sine_run.spectral.vectors[:, 0] / np.sqrt(w)
    inside = sine_run.eval_grid.inside_base()
    psi1 = unit_psi(sine_run.psi)[inside, 0]
    overlap = float(np.abs(np.sum(psi1 * phi1 * w)))
    assert overlap == approx(1.0, abs=0.01)


def test_psi_rank_deficiency_error(sine_run):
    with pytest.raises(RankDeficiencyError, match="mu_floor"):
        compute_psi(sine_run.kernel, sine_run.spectral, sine_run.eval_grid,
                    j_max=399)


def test_rho_mass_conservation(sine_run):
    fld = sine_run.field
    assert abs(fld.n_count - fld.integral()) <= 1e-10
    assert fld.tail_mass >= -1e-8
    assert np.all(fld.rho >= 0.0)


def test_rho_bulk_and_decay(sine_run):
    fld = sine_run.field
    x = sine_run.eval_grid.nodes[:, 0]
    bulk = fld.rho[np.abs(x) < 3.0]
    assert np.mean(bulk) == approx(1.0 / math.pi, rel=0.05)
    far = fld.rho[np.abs(x) > 30.0]
    assert np.mean(far) < 0.05 / math.pi


def test_inner_product_identity(sine_run):
    _, dropped = inner_product_spectral(sine_run.psi)
    ipd = inner_product_direct(sine_run.kernel, sine_run.grid,
                               sine_run.eval_grid.nodes)
    line = inner_product_identity(sine_run.psi, ipd)
    assert line.lhs < line.rhs, line
    assert dropped < 1e-10
    # the defect field keeps the same window integral, bit for bit
    np.testing.assert_array_equal(sine_run.defect.window_integral, ipd)


def test_inner_product_bounded_by_diagonal(sine_run):
    ipd = inner_product_direct(sine_run.kernel, sine_run.grid,
                               sine_run.eval_grid.nodes)
    assert ipd.max() <= sine_run.kernel.diagonal_value + 1e-8
    assert ipd.min() >= 0.0


def test_inner_product_limits(sine_run):
    k, grid = sine_run.kernel, sine_run.grid
    deep = inner_product_direct(k, grid, np.array([[0.0]]))[0]
    # the 1/r^2 profile tail beyond (-5, 5) removes ~ 1/(5 pi^2) of mass
    assert deep == approx(k.diagonal_value - 1.0 / (5.0 * math.pi ** 2),
                          rel=0.02)
    far = inner_product_direct(k, grid, np.array([[300.0]]))[0]
    assert far < 1e-4


def test_inner_product_empty_window():
    empty = QuadratureGrid(region=Box(np.zeros(1), np.ones(1)),
                           nodes=np.empty((0, 1)), weights=np.empty(0),
                           spacing=np.array([1.0]))
    out = inner_product_direct(sine_kernel(), empty, np.array([[0.0], [1.0]]))
    assert out == approx([0.0, 0.0])


def test_ginibre_center_inner_product():
    k = GinibreKernel(1)
    grid = build_grid(Ball(np.zeros(2), 3.0), 48)
    value = inner_product_direct(k, grid, np.zeros((1, 2)))[0]
    assert value == approx(1.0, rel=1e-3)


@pytest.fixture(scope="module")
def ginibre_disk_fields():
    """Ginibre unit disk: n = 1240 window nodes, M = 1600 eval nodes."""
    kernel = GinibreKernel(1)
    region = Ball(np.zeros(2), 1.0)
    grid = build_grid(region, 40)
    spectral = spectral_decompose(assemble_operator(kernel, grid))
    eval_grid = build_eval_grid(kernel, region, margin=1.0, spacing=0.1)
    assert (grid.n_nodes, eval_grid.nodes.shape[0]) == (1240, 1600)
    return kernel, grid, spectral, eval_grid


@pytest.fixture(scope="module")
def pw2_disk_fields():
    """spectral-2d's Paley-Wiener disk: n = 1240 window nodes, M = 6400
    evaluation nodes, 78 modes above the floor."""
    kernel = PaleyWienerKernel(2)
    region = Ball(np.array([0.3, -0.2]), 5.0)
    grid = build_grid(region, 40)
    spectral = spectral_decompose(assemble_operator(kernel, grid))
    eval_grid = build_eval_grid(kernel, region, margin=5.0, spacing=0.25)
    assert (grid.n_nodes, eval_grid.nodes.shape[0]) == (1240, 6400)
    return kernel, grid, spectral, eval_grid


def test_field_memory_is_bounded_by_the_block_budget(ginibre_disk_fields):
    # one whole M x n complex block would take 32 MB, its temporaries more
    kernel, grid, spectral, eval_grid = ginibre_disk_fields
    tracemalloc.start()
    try:
        compute_psi(kernel, spectral, eval_grid)
        defect_g(kernel, grid, eval_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_ginibre_field_sum_holds_only_its_tables(ginibre_disk_fields):
    # measured 2.49 MiB above the 0.54 MiB of images: the two 40 x 1240
    # complex factor tables (1.51 MiB) and the contraction's temporaries;
    # 2.87 MiB when a 40 x 1240 real phase table of the tables' build
    # stays alive through the contraction
    kernel, grid, spectral, eval_grid = ginibre_disk_fields
    modes = spectral.count_above(spectrogram.MU_FLOOR)
    scaled_vecs = (np.sqrt(grid.weights)[:, None]
                   * spectral.vectors[:, :modes])
    tracemalloc.start()
    try:
        images = kernel.field_sum(grid.nodes, scaled_vecs, eval_grid.nodes,
                                  eval_grid.axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - images.nbytes < 2.7 * 2 ** 20


def test_psi_memory_is_one_and_a_half_images():
    # the spectral-2d Ginibre disk: the images are stored once, and the
    # norms take one real M x k temporary, half the complex images' bytes
    kernel = GinibreKernel(1)
    region = Ball(np.zeros(2), 2.0)
    grid = build_grid(region, 40)
    spectral = spectral_decompose(assemble_operator(kernel, grid))
    eval_grid = build_eval_grid(kernel, region, reference_grid=grid)
    tracemalloc.start()
    try:
        psi = compute_psi(kernel, spectral, eval_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * psi.images.nbytes


def test_pw2_psi_memory_is_bounded_by_the_block_budget(pw2_disk_fields):
    # measured 9.8 MiB for compute_psi, with 3.8 MiB of images, and
    # 10.3 MiB for defect_g on its own; built whole, the 704 x 1240 and
    # 2392 x 1240 phase tables of the two rules took one pass to 53.7 MiB
    kernel, grid, spectral, eval_grid = pw2_disk_fields
    for stage in (lambda: compute_psi(kernel, spectral, eval_grid),
                  lambda: defect_g(kernel, grid, eval_grid)):
        tracemalloc.start()
        try:
            stage()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


def factor_route(kernel, grid, eval_grid):
    """The window integral's kernel sum on the evaluation lattice's axes."""
    return kernel.field_sum(grid.nodes, grid.weights, eval_grid.nodes,
                            eval_grid.axes, square=True)


# The lattice factors and inner_product_direct's eval_matrix round
# differently; measured 1.4e-15 of the maximum on the ginibre fields below
CROSS_ROUTE_REL = 1e-14


@pytest.mark.parametrize("fields, budget", [
    ("ginibre_disk_fields", "one-row"), ("ginibre_disk_fields", "whole-grid"),
    ("pw2_disk_fields", "one-row"), ("pw2_disk_fields", "whole-grid")],
    ids=["one-row", "whole-grid", "pw2-one-row", "pw2-whole-grid"])
def test_fields_do_not_depend_on_the_block_size(fields, budget, request,
                                                monkeypatch):
    kernel, grid, spectral, eval_grid = request.getfixturevalue(fields)
    n_modes = count_n(spectral.trace)
    psi = unit_psi(compute_psi(kernel, spectral, eval_grid, j_max=n_modes))
    window = defect_g(kernel, grid, eval_grid).window_integral
    ipd = inner_product_direct(kernel, grid, eval_grid.nodes)
    entries = grid.n_nodes * (1 if budget == "one-row"
                              else eval_grid.nodes.shape[0])
    monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", entries)
    psi_b = unit_psi(compute_psi(kernel, spectral, eval_grid, j_max=n_modes))
    window_b = defect_g(kernel, grid, eval_grid).window_integral
    ipd_b = inner_product_direct(kernel, grid, eval_grid.nodes)
    assert np.abs(psi_b - psi).max() <= 1e-13 * np.abs(psi).max()
    assert np.abs(window_b - window).max() <= 1e-13 * window.max()
    assert np.abs(ipd_b - ipd).max() <= 1e-13 * ipd.max()
    assert np.array_equal(window_b, factor_route(kernel, grid, eval_grid))
    assert np.abs(window_b - ipd_b).max() <= CROSS_ROUTE_REL * ipd_b.max()


def _count_kernel_work(kernel_cls, monkeypatch):
    """Record the entries of every ``eval_matrix`` block and the
    ``square`` flag of every ``field_sum`` call of ``kernel_cls``."""
    entries, squares = [], []
    eval_matrix = kernel_cls.eval_matrix
    field_sum = kernel_cls.field_sum

    def counted(self, xs, ys):
        block = eval_matrix(self, xs, ys)
        entries.append(block.size)
        return block

    def counted_sum(self, ys, vecs, points, axes=None, square=False):
        squares.append(square)
        return field_sum(self, ys, vecs, points, axes, square)

    monkeypatch.setattr(kernel_cls, "eval_matrix", counted)
    monkeypatch.setattr(kernel_cls, "field_sum", counted_sum)
    return entries, squares


def test_ginibre_fields_form_no_kernel_block(ginibre_disk_fields,
                                             monkeypatch):
    kernel, grid, spectral, eval_grid = ginibre_disk_fields
    entries, squares = _count_kernel_work(GinibreKernel, monkeypatch)
    compute_psi(kernel, spectral, eval_grid)
    defect = defect_g(kernel, grid, eval_grid)
    # the Ginibre fields are built from the factor tables alone, one sum
    # of K for the images and one of |K|^2 for the window integral
    assert (sum(entries), squares) == (0, [False, True])
    monkeypatch.undo()
    assert np.array_equal(defect.window_integral,
                          factor_route(kernel, grid, eval_grid))
    ipd = inner_product_direct(kernel, grid, eval_grid.nodes)
    assert (np.abs(defect.window_integral - ipd).max()
            <= CROSS_ROUTE_REL * ipd.max())


def test_pw2_fields_form_no_kernel_block(pw2_disk_fields, monkeypatch):
    kernel, grid, spectral, eval_grid = pw2_disk_fields
    entries, squares = _count_kernel_work(PaleyWienerKernel, monkeypatch)
    compute_psi(kernel, spectral, eval_grid)
    defect = defect_g(kernel, grid, eval_grid)
    assert (sum(entries), squares) == (0, [False, True])
    monkeypatch.undo()
    assert np.array_equal(defect.window_integral,
                          factor_route(kernel, grid, eval_grid))


def test_dilation_rung_forms_no_window_integral(monkeypatch):
    # a ladder reads rho alone: on a pw2 disk rung one sum of K is formed,
    # from the image rule's plane waves, and none of |K|^2
    kernel, base = PaleyWienerKernel(2), Ball(np.zeros(2), 1.0)
    _, squares = _count_kernel_work(PaleyWienerKernel, monkeypatch)
    norms = []
    plane_wave_sum = kernels._plane_wave_sum

    def counted(*args):
        norms.append(args[-1])
        return plane_wave_sum(*args)

    monkeypatch.setattr(kernels, "_plane_wave_sum", counted)
    row = dilation_snapshot(kernel, base, 1.0, margin=5.0, eval_spacing=0.25)
    assert squares == [False]
    assert norms == [(2.0 * math.pi) ** -2]


def _pw_case(case):
    """(kernel, window grid, spectral data, evaluation grid) of a
    Paley-Wiener window with plane-wave factors on its lattice."""
    dim, region, n_axis, margin, spacing = {
        "pw2-box": (2, Box(np.array([0.0, 0.0]), np.array([3.0, 2.0])),
                    32, 3.0, 0.2),
        "pw2-union": (2, DisjointBallUnion((Ball(np.array([0.0, 0.0]), 1.0),
                                            Ball(np.array([3.0, 1.0]), 1.5))),
                      40, 2.0, 0.2),
        "pw3-ball": (3, Ball(np.zeros(3), 1.0), 16, 0.5, 0.2),
    }[case]
    kernel = PaleyWienerKernel(dim)
    grid = build_grid(region, n_axis)
    spectral = spectral_decompose(assemble_operator(kernel, grid))
    eval_grid = build_eval_grid(kernel, region, margin=margin,
                                spacing=spacing)
    return kernel, grid, spectral, eval_grid


# the plane-wave factors against eval_matrix's Bessel forms, whose J_1
# series errs by up to 2.3e-12 of J_1 on [10, 13); measured at most
# 2.2e-14 of the maximum (images of the pw2 disk), 4.7e-15 elsewhere
PLANE_WAVE_CROSS_ROUTE_REL = 1e-13


@pytest.mark.parametrize("case", ["pw2-disk", "pw2-box", "pw2-union",
                                  "pw3-ball"])
def test_plane_wave_pass_matches_eval_matrix(case, request, monkeypatch):
    kernel, grid, spectral, eval_grid = (
        request.getfixturevalue("pw2_disk_fields") if case == "pw2-disk"
        else _pw_case(case))
    modes = spectral.count_above(spectrogram.MU_FLOOR)
    scaled_vecs = (np.sqrt(grid.weights)[:, None]
                   * spectral.vectors[:, :modes])
    nodes, axes = eval_grid.nodes, eval_grid.axes
    entries, _ = _count_kernel_work(PaleyWienerKernel, monkeypatch)
    images = kernel.field_sum(grid.nodes, scaled_vecs, nodes, axes)
    window = factor_route(kernel, grid, eval_grid)
    # both lattice sums are plane-wave passes, with no kernel block
    assert entries == []
    reference = kernel.field_sum(grid.nodes, scaled_vecs, nodes)
    ipd = inner_product_direct(kernel, grid, nodes)
    assert (np.abs(images - reference).max()
            <= PLANE_WAVE_CROSS_ROUTE_REL * np.abs(reference).max())
    assert np.abs(window - ipd).max() <= PLANE_WAVE_CROSS_ROUTE_REL * ipd.max()
    # complex vectors go through as their real and imaginary parts
    complex_images = kernel.field_sum(grid.nodes, (1 - 2j) * scaled_vecs,
                                      nodes, axes)
    assert np.array_equal(complex_images, (1 - 2j) * images)


def test_sine_fields_are_eval_matrix_blocks(sine_run, monkeypatch):
    # the sine kernel has no lattice factors: its field pass is blocks
    # of eval_matrix, M x n entries in all
    kernel, eval_grid = sine_run.kernel, sine_run.eval_grid
    entries = []
    eval_matrix = PaleyWienerKernel.eval_matrix

    def counted(self, xs, ys):
        block = eval_matrix(self, xs, ys)
        entries.append(block.size)
        return block

    monkeypatch.setattr(PaleyWienerKernel, "eval_matrix", counted)
    psi = compute_psi(kernel, sine_run.spectral, eval_grid)
    monkeypatch.undo()
    assert len(entries) > 1
    assert sum(entries) == eval_grid.n_nodes * sine_run.grid.n_nodes
    assert np.array_equal(psi.images, sine_run.psi.images)


@pytest.mark.parametrize("cdim", [1, 2], ids=["cdim1", "cdim2"])
def test_lattice_pass_matches_eval_matrix(cdim):
    # for cdim 2 the lattice has 12 nodes per axis and the window 6^4:
    # the last axis's 12 x 1296 table is folded with the third axis's.
    # Measured 7.9e-16 (images) and 2.6e-15 (window integral) of the max
    kernel = GinibreKernel(cdim)
    region = Box(np.zeros(2 * cdim), np.ones(2 * cdim))
    grid = build_grid(region, 6)
    spectral = spectral_decompose(assemble_operator(kernel, grid))
    eval_grid = build_eval_grid(kernel, region, margin=1.0, spacing=0.25)
    modes = spectral.count_above(spectrogram.MU_FLOOR)
    scaled_vecs = (np.sqrt(grid.weights)[:, None]
                   * spectral.vectors[:, :modes])
    nodes = eval_grid.nodes
    images = kernel.field_sum(grid.nodes, scaled_vecs, nodes, eval_grid.axes)
    window = factor_route(kernel, grid, eval_grid)
    # the M x n block of cdim 2 would take 430 MB: compare 2048 rows at
    # a time
    reference = np.concatenate([
        kernel.eval_matrix(nodes[i:i + 2048], grid.nodes) @ scaled_vecs
        for i in range(0, len(nodes), 2048)])
    ipd = inner_product_direct(kernel, grid, nodes)
    assert (np.abs(images - reference).max()
            <= CROSS_ROUTE_REL * np.abs(reference).max())
    assert np.abs(window - ipd).max() <= CROSS_ROUTE_REL * ipd.max()


def test_ginibre_box_window_integral_closed_form():
    # |K(x,y)|^2 = exp(-pi |x-y|^2) factorizes over the axes of a box
    kernel = GinibreKernel(1)
    region = Box(np.array([0.0, 0.0]), np.array([1.5, 1.0]))
    grid = build_grid(region, 16)
    eval_grid = build_eval_grid(kernel, region, margin=1.0, spacing=0.1)
    window = defect_g(kernel, grid, eval_grid).window_integral
    root_pi = math.sqrt(math.pi)
    exact = np.array([
        math.prod(0.5 * (math.erf(root_pi * (b - x))
                         - math.erf(root_pi * (a - x)))
                  for a, b, x in zip(region.lower, region.upper, point))
        for point in eval_grid.nodes])
    # measured 5.6e-16 on 1050 evaluation nodes
    assert np.abs(window - exact).max() <= 1e-14


# ---------------------------------------------------------------------------
# defect field


def test_defect_sign_structure(sine_run):
    d = sine_run.defect
    inside = sine_run.eval_grid.inside_base()
    assert d.values[inside].min() >= -1e-8
    assert d.values[~inside].max() <= 1e-8


def test_defect_l1_vs_variance_equality(sine_run):
    # for projection kernels the defect bound is attained: both sides
    # compute the window/complement cross mass of |K|^2
    mu = np.clip(sine_run.spectral.eigenvalues, 0.0, 1.0)
    var = float(np.sum(mu * (1 - mu)))
    assert sine_run.defect.l1_total == approx(2.0 * var, rel=0.02)
    assert sine_run.defect.l1_total <= 2.0 * var + sine_run.defect.quad_error_estimate


def test_defect_small_deep_inside(sine_run):
    d = sine_run.defect
    x = sine_run.eval_grid.nodes[:, 0]
    center_band = np.abs(x) < 1.0
    assert np.abs(d.values[center_band]).max() < 0.1 * sine_run.kernel.diagonal_value


# ---------------------------------------------------------------------------
# inequality report


@pytest.mark.parametrize("delta", [0.1, 0.25, 0.5])
def test_inequalities_hold(sine_run, delta):
    report = inequality_report(sine_run.kernel, sine_run.spectral,
                               sine_run.field, sine_run.psi, sine_run.defect,
                               delta)
    for check in report.checks:
        assert check.passed, (check.name, check.lhs, check.rhs, check.slack)


def test_inequality_report_reads_the_window_integral(sine_run, monkeypatch):
    # the dual identity gives the mode sum as the defect field's window
    # integral, so the report sums no mode image
    calls = []
    mode_sum = spectrogram.inner_product_spectral

    def spy(psi):
        calls.append(psi)
        return mode_sum(psi)

    monkeypatch.setattr(spectrogram, "inner_product_spectral", spy)
    for delta in (0.1, 0.25, 0.5):
        inequality_report(sine_run.kernel, sine_run.spectral, sine_run.field,
                          sine_run.psi, sine_run.defect, delta)
    assert calls == []


def test_delta_half_minimizes_bounds(sine_run):
    reports = {d: inequality_report(sine_run.kernel, sine_run.spectral,
                                    sine_run.field, sine_run.psi,
                                    sine_run.defect, d)
               for d in (0.1, 0.25, 0.5)}
    assert all(reports[0.5].c_delta <= r.c_delta for r in reports.values())
    rhs_b = {d: r.checks[1].rhs for d, r in reports.items()}
    assert rhs_b[0.5] == min(rhs_b.values())


def test_pure_projection_equality_case():
    # all eigenvalues exactly one: zero variance, delta count exact
    sd = synthetic_spectral([1.0, 1.0, 1.0, 0.0])
    n_delta = sd.count_above(1.0 - 0.3)
    assert n_delta == 3
    mu = np.clip(sd.eigenvalues, 0.0, 1.0)
    var = float(np.sum(mu * (1 - mu)))
    assert var == 0.0
    assert abs(n_delta - sd.trace) <= c_delta(0.3) * var + 1e-12


# ---------------------------------------------------------------------------
# dilation study (small instance; the ladders live in the acceptance suite)


def test_l1_study_smoke():
    rows = l1_convergence_study(sine_kernel(), Box(np.array([-1.0]),
                                                   np.array([1.0])),
                                [2.0, 4.0], nodes_per_unit=30.0)
    assert rows[1].err_normalized < rows[0].err_normalized
    for row in rows:
        assert abs(row.tail_mass) < 1e-8
        assert not row.saturated
        # err_raw is the L1 distance of rho from the field's own target
        fld = row.field
        assert row.err_raw == (float(np.sum(np.abs(fld.rho - fld.target)
                                            * fld.eval_grid.weights))
                               + abs(fld.tail_mass))
        assert row.err_normalized == row.err_raw / fld.n_count


def test_l1_study_rejects_unordered_scales():
    with pytest.raises(ValueError):
        l1_convergence_study(sine_kernel(), Box(np.array([-1.0]),
                                                np.array([1.0])), [4.0, 2.0])


def _direct_rho(kernel, region, n_per_axis, eval_spacing=None):
    """rho of ``region`` on ``build_grid(region, n_per_axis)``, evaluated
    as a ladder rung evaluates it."""
    grid = build_grid(region, n_per_axis)
    spectral = spectral_decompose(assemble_operator(kernel, grid))
    eval_grid = build_eval_grid(kernel, region, spacing=eval_spacing,
                                reference_grid=grid)
    return accumulated_spectrogram(kernel, spectral, eval_grid).rho


def test_l1_study_reports_saturation():
    base = Box(np.array([-1.0]), np.array([1.0]))
    rows = l1_convergence_study(sine_kernel(), base, [8.0],
                                nodes_per_unit=40.0, node_cap=128)
    assert rows[0].saturated
    # the rung is the finest grid within the cap: 128 of the 640 nodes
    # that 40 per unit asks for
    region = base.dilate(8.0)
    assert max_n_per_axis(region, 128) == 128
    assert np.array_equal(rows[0].field.rho,
                          _direct_rho(sine_kernel(), region, 128))


def test_ladder_coarsens_to_the_factor_budget(monkeypatch):
    # 64 complex rows of 1000 nodes fill the budget: the requested grid
    # (200000 per axis) and the one that fills the cap (999970209 nodes)
    # are both beyond it, so the rung takes the finest grid within both
    monkeypatch.setattr(discretize, "_FACTOR_BYTE_BUDGET", 64 * 16 * 1000)
    disk = Ball(np.zeros(2), 1.0)
    n = max_n_per_axis(disk, 1000)  # 35 per axis, 952 nodes
    row, = l1_convergence_study(GinibreKernel(1), disk, [1.0],
                                nodes_per_unit=1e5, node_cap=10 ** 9,
                                eval_spacing=0.25)
    assert row.saturated
    assert np.array_equal(row.field.rho,
                          _direct_rho(GinibreKernel(1), disk, n, 0.25))


def test_ginibre_disk_bulk_density():
    # unit-diagonal kernel: rho plateaus at 1 well inside the window
    kernel = GinibreKernel(1)
    region = Ball(np.zeros(2), 2.0)
    grid = build_grid(region, 40)
    spectral = spectral_decompose(assemble_operator(kernel, grid))
    eval_grid = build_eval_grid(kernel, region, spacing=0.15)
    fld = accumulated_spectrogram(kernel, spectral, eval_grid)
    center_band = np.linalg.norm(eval_grid.nodes, axis=1) < 0.8
    assert np.mean(fld.rho[center_band]) == approx(1.0, rel=0.05)
    far = np.linalg.norm(eval_grid.nodes, axis=1) > 5.0
    assert np.mean(fld.rho[far]) < 0.05


def test_eval_grid_contains_window(sine_run):
    ev = sine_run.eval_grid
    # the window (-5, 5) with a margin of 4 capped correlation lengths
    bbox = ev.region
    assert bbox.lower[0] == approx(-85.0)
    assert bbox.upper[0] == approx(85.0)
    inside = ev.inside_base()
    assert inside.sum() > 0
    assert inside.sum() < ev.n_nodes


def test_eval_grid_margin_validation(sine_run):
    with pytest.raises(ValueError):
        build_eval_grid(sine_run.kernel, sine_run.region, margin=-1.0)


def test_eval_grid_needs_a_spacing(sine_run):
    with pytest.raises(ValueError, match="spacing or a reference grid"):
        build_eval_grid(sine_run.kernel, sine_run.region)


def test_spectrogram_reuses_psi(sine_run):
    fld = accumulated_spectrogram(sine_run.kernel, sine_run.spectral,
                                  sine_run.eval_grid, psi=sine_run.psi)
    assert fld.n_count == sine_run.field.n_count
    assert fld.rho == approx(sine_run.field.rho)


def test_defect_quad_estimate_positive(sine_run):
    assert sine_run.defect.quad_error_estimate > 0.0


def test_field_target_is_the_limit_shape_on_the_grid_mask(sine_run):
    fld, ev = sine_run.field, sine_run.eval_grid
    assert ev.inside_base() is ev.inside_base()
    assert np.array_equal(ev.inside_base(),
                          sine_run.region.contains_points(ev.nodes))
    assert np.array_equal(fld.target, sine_run.kernel.diagonal_value
                          * ev.inside_base())


def test_rows_and_defects_keep_no_second_copy():
    # N, the tail mass and the window mask live on the field and the grid
    assert [f.name for f in fields(ConvergenceRow)] == [
        "scale", "trace", "err_raw", "saturated",
        "trace_defect", "field"]
    assert [f.name for f in fields(DefectField)] == [
        "values", "window_integral", "l1_total", "quad_error_estimate"]
