"""Acceptance suite: the eight headline checks at their stated tolerances.

Each test prints one PASS line (run with ``pytest -s`` to see them) and
enforces its runtime budget. Criteria 1, 3, 4, 5, 7 and 8 assert the
lines of ``accspec.checks.self_checks``, the suite ``accspec check``
prints, for the reference sine window; criteria 3 and 8 apply the
suite's own ``variance_cross_route`` and ``trace_identity`` to the other
windows. Expensive intermediates are shared through module-scoped
fixtures.
"""

import math
import time

import numpy as np
import pytest
from pytest import approx

from accspec.checks import (DELTAS, self_checks, trace_identity,
                            variance_cross_route)
from accspec.discretize import (assemble_operator, build_grid,
                                spectral_decompose)
from accspec.geometry import Ball, Box, LensSpec, lens_volume_series
from accspec.kernels import GinibreKernel, PaleyWienerKernel, sine_kernel
from accspec.spectrogram import (accumulated_spectrogram, build_eval_grid,
                                 compute_psi, defect_g, dilation_snapshot,
                                 inequality_report)
from accspec.variance import fit_asymptotics, variance_radial

CIRCLE_LENS_R1 = math.pi / 3.0 + math.sqrt(3.0) / 2.0


def _assert_line(lines, name, bound):
    """The self-check line ``name`` passes at the stated bound."""
    line = lines[name]
    assert (line.rhs, line.slack) == (bound, 0.0), (name, line)
    assert line.lhs <= bound, (name, line.lhs)


def _stamp(name, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE PASS {name} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def check_lines():
    """The self-check lines by name, and the time the suite took."""
    t0 = time.perf_counter()
    lines = {line.name: line for line in self_checks()}
    return lines, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ginibre_disk_spectrum():
    """The Ginibre kernel on the unit disk at 64 nodes per axis, with its
    trace-identity line."""
    t0 = time.perf_counter()
    kernel = GinibreKernel(1)
    grid = build_grid(Ball(np.zeros(2), 1.0), 64)
    assert grid.n_nodes <= 4096
    spectral = spectral_decompose(assemble_operator(kernel, grid))
    trace_line = trace_identity("ginibre_disk_n64", spectral)
    return kernel, spectral, trace_line, time.perf_counter() - t0


def test_criterion_1_lens_equivalence(check_lines):
    # the suite's time, mostly the reference run, is charged to criteria
    # 5 and 7; the 1 s budget covers the tangent series
    lines, _ = check_lines
    t0 = time.perf_counter()
    for d in (1, 2, 3):
        _assert_line(lines, f"lens_series_vs_exact_d{d}", 1e-8)
    tangent = lens_volume_series(LensSpec(2, 1.0, 1.0), tol=1e-9)
    assert tangent == approx(CIRCLE_LENS_R1, abs=1e-8)
    _stamp("criterion-1 lens-equivalence", t0, 1.0)


def test_criterion_2_asymptotic_constant():
    t0 = time.perf_counter()
    scales = np.logspace(1.0, math.log10(200.0), 20)
    constants = {1: 1.0 / math.pi ** 2, 2: 1.0 / math.pi ** 2,
                 3: 1.0 / (2.0 * math.pi ** 2)}
    for d, constant in constants.items():
        kernel = PaleyWienerKernel(d)
        variances = [variance_radial(kernel, float(s)).value for s in scales]
        fit = fit_asymptotics(d, scales, variances)
        assert fit.reference_constant == approx(constant, rel=1e-12)
        assert fit.relative_deviation < 0.10, (d, fit.slope)
    _stamp("criterion-2 asymptotic-constant", t0, 30.0)


def test_criterion_3_cross_route_variance(check_lines,
                                          ginibre_disk_spectrum):
    """Spectral against radial count variance, relative gap within the
    suite line's 1e-12, on the reference sine window and the Ginibre unit
    disk at 64 nodes per axis."""
    lines, _ = check_lines
    t0 = time.perf_counter()
    assert lines["variance_cross_route_sine"].passed
    kernel, spectral, _, setup_time = ginibre_disk_spectrum
    line = variance_cross_route("ginibre_disk", kernel, spectral, 1.0)
    assert line.passed, line
    _stamp("criterion-3 cross-route-variance", t0 - setup_time, 120.0)


@pytest.fixture(scope="module")
def random_window_runs():
    """Ten seeded random windows: six sine intervals, four gaussian boxes."""
    rng = np.random.default_rng(20240817)
    runs = []
    kernel1 = sine_kernel()
    for i in range(6):
        center = rng.uniform(-3.0, 3.0)
        half = rng.uniform(1.0, 6.0)
        region = Box(np.array([center - half]), np.array([center + half]))
        n = int(math.ceil(40.0 * 2.0 * half))
        runs.append(("interval", kernel1, region, n, None))
    kernel2 = GinibreKernel(1)
    for i in range(4):
        lo = rng.uniform(-2.0, 0.0, 2)
        sides = rng.uniform(1.0, 2.5, 2)
        region = Box(lo, lo + sides)
        n = int(math.ceil(16.0 * sides.max()))
        runs.append(("box2d", kernel2, region, n, 0.1))

    t0 = time.perf_counter()
    prepared = []
    for label, kernel, region, n, spacing in runs:
        grid = build_grid(region, n)
        spectral = spectral_decompose(assemble_operator(kernel, grid))
        trace_line = trace_identity(f"{label}_n{n}", spectral)
        eval_grid = build_eval_grid(kernel, region, spacing=spacing,
                                    reference_grid=grid)
        psi = compute_psi(kernel, spectral, eval_grid)
        field = accumulated_spectrogram(kernel, spectral, eval_grid, psi=psi)
        defect = defect_g(kernel, grid, eval_grid)
        prepared.append((label, kernel, spectral, field, psi, defect,
                         trace_line))
    return prepared, time.perf_counter() - t0


def test_criterion_4_inequality_suite(check_lines, random_window_runs):
    lines, _ = check_lines
    windows, setup_time = random_window_runs
    t0 = time.perf_counter() - setup_time
    # the reference window: four inequality lines at each threshold
    for delta in DELTAS:
        reference = [line for name, line in lines.items()
                     if f"_delta{delta:g}_Cdelta" in name]
        assert len(reference) == 4, (delta, reference)
        for line in reference:
            assert line.passed, line
    assert len(windows) == 10
    for delta in DELTAS:
        for label, kernel, spectral, field, psi, defect, _ in windows:
            report = inequality_report(kernel, spectral, field, psi, defect,
                                       delta)
            for check in report.checks:
                assert check.passed, (label, delta, check.name, check.lhs,
                                      check.rhs, check.slack)
    _stamp("criterion-4 inequality-suite", t0, 180.0)


def test_criterion_5_dual_inner_product(check_lines):
    lines, setup_time = check_lines
    t0 = time.perf_counter() - setup_time
    _assert_line(lines, "inner_product_identity_max_rel", 0.02)
    _stamp("criterion-5 dual-inner-product", t0, 60.0)


@pytest.fixture(scope="module")
def ladders():
    """The sine ladder on (-1, 1) and the Ginibre ladder on the unit
    square, by label."""
    t0 = time.perf_counter()
    interval = Box(np.array([-1.0]), np.array([1.0]))
    sine_rows = [dilation_snapshot(sine_kernel(), interval, scale,
                                   nodes_per_unit=40.0)
                 for scale in (2.0, 4.0, 8.0, 16.0)]
    square = Box(np.zeros(2), np.ones(2))
    gin_rows = [dilation_snapshot(GinibreKernel(1), square, scale,
                                  nodes_per_unit=16.0, eval_spacing=0.1)
                for scale in (1.0, 2.0, 3.0)]
    return {"sine": sine_rows, "gin": gin_rows}, time.perf_counter() - t0


def test_criterion_6_l1_convergence(ladders):
    rows_by_label, setup_time = ladders
    t0 = time.perf_counter() - setup_time
    for rows in rows_by_label.values():
        errs = [row.err_normalized for row in rows]
        assert all(b < a for a, b in zip(errs, errs[1:])), errs
        for row in rows:
            assert abs(row.field.tail_mass) <= 1e-8
    _stamp("criterion-6 l1-convergence", t0, 300.0)


def test_criterion_7_kernel_admissibility(check_lines):
    lines, setup_time = check_lines
    t0 = time.perf_counter() - setup_time
    _assert_line(lines, "radial_normalization_ginibre_d2", 1e-10)
    _assert_line(lines, "radial_normalization_sine_d1", 1.1e-5)
    _assert_line(lines, "radial_normalization_paley-wiener_d2", 5.5e-6)
    _stamp("criterion-7 kernel-admissibility", t0, 10.0)


def test_criterion_8_trace_identity(check_lines, ginibre_disk_spectrum,
                                    random_window_runs, ladders):
    lines, _ = check_lines
    _, _, disk_line, _ = ginibre_disk_spectrum
    windows, _ = random_window_runs
    rows_by_label, _ = ladders
    t0 = time.perf_counter()
    trace_lines = [lines["trace_identity_sine"], disk_line]
    trace_lines.extend(window[-1] for window in windows)
    for label, rows in rows_by_label.items():
        trace_lines.extend(
            trace_identity(f"{label}_ladder_R{row.scale:g}", row)
            for row in rows)
    # reference + disk + ten random windows + seven ladder rungs
    assert len(trace_lines) == 19
    for line in trace_lines:
        assert line.passed, line
    _stamp("criterion-8 trace-identity", t0, 10.0)
