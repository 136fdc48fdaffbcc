"""Acceptance suite: the eight headline checks at their stated tolerances.

Each test prints one PASS line (run with ``pytest -s`` to see them) and
enforces its runtime budget. Criteria 1, 5 and 7 assert the lines of
``accspec.checks.self_checks``, the suite ``accspec check`` prints.
Expensive intermediates are shared through module-scoped fixtures; every
discretization built here records its trace-identity defect, which the
final criterion audits.
"""

import math
import time

import numpy as np
import pytest
from pytest import approx

from accspec.checks import self_checks
from accspec.discretize import (assemble_operator, build_grid,
                                spectral_decompose)
from accspec.geometry import Ball, Box, LensSpec, lens_volume_series
from accspec.kernels import GinibreKernel, PaleyWienerKernel, sine_kernel
from accspec.spectrogram import (accumulated_spectrogram, build_eval_grid,
                                 compute_psi, defect_g, inequality_report,
                                 l1_convergence_study)
from accspec.variance import (fit_asymptotics, variance_radial,
                              variance_spectral)

CIRCLE_LENS_R1 = math.pi / 3.0 + math.sqrt(3.0) / 2.0

_trace_records = []


def _record_trace(label, operator, spectral):
    _trace_records.append((label, abs(spectral.trace - operator.trace)))


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
def sine_reference(sine_run):
    _record_trace("sine(-5,5)n400", sine_run.operator, sine_run.spectral)
    return sine_run


@pytest.fixture(scope="module")
def ginibre_disk_spectrum():
    t0 = time.perf_counter()
    kernel = GinibreKernel(1)
    grid = build_grid(Ball(np.zeros(2), 1.0), 64)
    assert grid.n_nodes <= 4096
    op = assemble_operator(kernel, grid)
    spectral = spectral_decompose(op)
    _record_trace("ginibre-disk-n64", op, spectral)
    return kernel, spectral, time.perf_counter() - t0


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


def test_criterion_3_cross_route_variance(sine_reference,
                                          ginibre_disk_spectrum):
    t0 = time.perf_counter()
    vs = variance_spectral(sine_reference.spectral)
    vr = variance_radial(sine_reference.kernel, 5.0).value
    assert abs(vs - vr) / vr <= 0.02, ("sine", vs, vr)

    kernel, spectral, setup_time = ginibre_disk_spectrum
    vs_g = variance_spectral(spectral)
    vr_g = variance_radial(kernel, 1.0).value
    assert abs(vs_g - vr_g) / vr_g <= 0.02, ("ginibre", vs_g, vr_g)
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
        op = assemble_operator(kernel, grid)
        spectral = spectral_decompose(op)
        _record_trace(f"{label}-{n}", op, spectral)
        eval_grid = build_eval_grid(kernel, region, spacing=spacing,
                                    reference_grid=grid)
        psi = compute_psi(kernel, spectral, eval_grid)
        field = accumulated_spectrogram(kernel, spectral, eval_grid, psi=psi)
        defect = defect_g(kernel, grid, eval_grid)
        prepared.append((label, kernel, spectral, field, psi, defect))
    return prepared, time.perf_counter() - t0


def test_criterion_4_inequality_suite(sine_reference, random_window_runs):
    windows, setup_time = random_window_runs
    t0 = time.perf_counter() - setup_time
    configs = [("sine-default", sine_reference.kernel, sine_reference.spectral,
                sine_reference.field, sine_reference.psi,
                sine_reference.defect)]
    configs.extend(windows)
    assert len(configs) == 11
    for delta in (0.1, 0.25, 0.5):
        for label, kernel, spectral, field, psi, defect in configs:
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


def test_criterion_6_l1_convergence():
    t0 = time.perf_counter()
    sine_rows = l1_convergence_study(
        sine_kernel(), Box(np.array([-1.0]), np.array([1.0])),
        [2.0, 4.0, 8.0, 16.0], nodes_per_unit=40.0)
    errs = [row.err_normalized for row in sine_rows]
    assert all(b < a for a, b in zip(errs, errs[1:])), errs
    for row in sine_rows:
        assert abs(row.tail_mass) <= 1e-8
        _trace_records.append((f"sine-ladder-R{row.scale:g}", row.trace_defect))

    square = Box(np.zeros(2), np.ones(2))
    gin_rows = l1_convergence_study(
        GinibreKernel(1), square, [1.0, 2.0, 3.0], nodes_per_unit=16.0,
        eval_spacing=0.1)
    errs = [row.err_normalized for row in gin_rows]
    assert all(b < a for a, b in zip(errs, errs[1:])), errs
    for row in gin_rows:
        assert abs(row.tail_mass) <= 1e-8
        _trace_records.append((f"gin-ladder-R{row.scale:g}", row.trace_defect))
    _stamp("criterion-6 l1-convergence", t0, 300.0)


def test_criterion_7_kernel_admissibility(check_lines):
    lines, setup_time = check_lines
    t0 = time.perf_counter() - setup_time
    _assert_line(lines, "radial_normalization_ginibre_d2", 1e-10)
    _assert_line(lines, "radial_normalization_sine_d1", 1e-3)
    _assert_line(lines, "radial_normalization_paley-wiener_d2", 1e-2)
    _stamp("criterion-7 kernel-admissibility", t0, 10.0)


def test_criterion_8_trace_identity(sine_reference, ginibre_disk_spectrum,
                                    random_window_runs):
    t0 = time.perf_counter()
    assert len(_trace_records) >= 12  # reference + disk + ten random windows
    for label, defect in _trace_records:
        assert defect <= 1e-10, (label, defect)
    _stamp("criterion-8 trace-identity", t0, 10.0)
