import math
import tracemalloc

import numpy as np
import pytest
from pytest import approx

from accspec import discretize
from accspec.checks import trace_identity
from accspec.discretize import (QuadratureGrid, ResourceLimitError,
                                SpectralSolverError, assemble_operator,
                                build_grid, max_n_per_axis,
                                spectral_decompose, window_grid)
from accspec.geometry import Ball, Box, DisjointBallUnion, unit_ball_volume
from accspec.kernels import GinibreKernel, PaleyWienerKernel, sine_kernel
from accspec.variance import variance_spectral
from helpers import ginibre_ball_spectrum


def _dense(op):
    """The whole operator as an array, every column at once: a test oracle."""
    return op.columns(np.arange(op.grid.n_nodes))


_RULE_REGIONS = {
    "box": Box(np.array([-1.0, 0.5]), np.array([2.0, 1.75])),
    "interval": Box(np.array([-0.3]), np.array([1.9])),
    "ball1": Ball(np.array([0.4]), 1.3),
    "ball2": Ball(np.array([0.5, -1.0]), 1.3),
    "ball3": Ball(np.array([0.5, -1.0, 2.0]), 0.7),
    "ball4": Ball(np.array([0.5, -1.0, 2.0, 0.1]), 1.1),
    "union1": DisjointBallUnion((Ball(np.array([0.0]), 1.0),
                                 Ball(np.array([3.0]), 0.4))),
    "union2": DisjointBallUnion((Ball(np.zeros(2), 1.0),
                                 Ball(np.array([2.5, 0.5]), 0.5))),
}


@pytest.mark.parametrize("region", _RULE_REGIONS.values(), ids=_RULE_REGIONS)
def test_gauss_rule_volume_moment_and_count(region):
    d, volume = region.dim, region.volume()
    for n in range(2, 41):
        grid = build_grid(region, n)
        assert grid.n_nodes > 0 and np.all(grid.weights > 0)
        assert abs(grid.weight_sum - volume) <= 1e-13 * volume, n
        assert grid.volume_defect <= 1e-13 * volume
        assert grid.spacing == approx((region.bounding_box().upper
                                       - region.bounding_box().lower) / n)
        if isinstance(region, Box):
            assert grid.n_nodes == n ** d
        elif isinstance(region, Ball):
            # c_1 evaluates to 2 - 2e-16, hence the 1e-9 on an integer count
            assert grid.n_nodes <= unit_ball_volume(d) * (n / 2) ** d + 1e-9
            # int |x - c|^2 dx over B(c, R) = d / (d + 2) * c_d R^(d + 2)
            moment = np.sum(grid.weights
                            * np.sum((grid.nodes - region.center) ** 2, axis=1))
            exact = d / (d + 2) * volume * region.radius ** 2
            assert abs(moment - exact) <= 1e-13 * exact, n
            assert np.all(region.contains_points(grid.nodes))


def test_node_cap_checked_before_allocation():
    # 5e4 radii times 1.6e5 angles would need 1.2e11 bytes of nodes
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="cap is 4096"):
            window_grid(Ball(np.zeros(2), 1.0), 4096, nodes_per_unit=5e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_grid_beyond_the_factor_budget_is_refused_before_allocation():
    # within a 10^9 node cap, but 3.1e6 nodes: the first 64-row complex
    # buffer of the pivoted Cholesky would take 3 GiB of its 1 GiB budget
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="low-rank factor"):
            build_grid(Ball(np.zeros(2), 1.0), 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_grid_bound_follows_the_factor_budget(monkeypatch):
    # 64 complex rows of 100 nodes fill the budget exactly
    monkeypatch.setattr(discretize, "_FACTOR_BYTE_BUDGET", 64 * 16 * 100)
    interval = Box(np.array([0.0]), np.array([1.0]))
    assert build_grid(interval, 100).n_nodes == 100
    with pytest.raises(ResourceLimitError, match="grid has 101 nodes"):
        build_grid(interval, 101)


def test_interval_as_ball_exact_weight_sum():
    grid = build_grid(Ball(np.array([0.0]), 1.0), 10)
    assert grid.weight_sum == approx(2.0, abs=1e-14)


def test_node_cap_enforced():
    with pytest.raises(ResourceLimitError, match="grid has 100 nodes, cap is 50"):
        window_grid(Box(np.array([0.0]), np.array([1.0])), 50,
                    nodes_per_unit=100.0)


def test_window_grid_checks_the_cap_before_the_factor_limit():
    disk = Ball(np.zeros(2), 1.0)
    # 1000 per unit is 2000 per axis, 3.1e6 nodes: past both limits
    with pytest.raises(ResourceLimitError, match="cap is 4096"):
        window_grid(disk, 4096, nodes_per_unit=1000.0)
    with pytest.raises(ResourceLimitError, match="low-rank factor"):
        window_grid(disk, 10 ** 9, nodes_per_unit=1000.0)


def test_max_n_per_axis_respects_cap():
    ball = Ball(np.zeros(2), 1.0)
    n = max_n_per_axis(ball, node_cap=4096)
    assert build_grid(ball, n).n_nodes <= 4096
    assert build_grid(ball, n + 1).n_nodes > 4096


def _same_grid(a, b):
    return (np.array_equal(a.nodes, b.nodes)
            and np.array_equal(a.weights, b.weights))


def test_window_grid_resolution_rule():
    ball = Ball(np.zeros(2), 1.0)
    # ceil(nodes_per_unit * longest side), at least 2
    assert _same_grid(window_grid(ball, 4096, nodes_per_unit=10.3),
                      build_grid(ball, 21))
    assert _same_grid(window_grid(ball, 4096, nodes_per_unit=0.1),
                      build_grid(ball, 2))
    # none given: the finest grid within the cap
    assert _same_grid(window_grid(ball, 4096),
                      build_grid(ball, max_n_per_axis(ball, 4096)))
    with pytest.raises(ResourceLimitError, match="cap is 50"):
        window_grid(ball, 50, nodes_per_unit=10.0)


@pytest.mark.parametrize("kwargs", [
    {"node_cap": 0}, {"node_cap": -5},
    {"node_cap": 4096, "nodes_per_unit": 0.0},
    {"node_cap": 4096, "nodes_per_unit": -3.0},
    {"node_cap": 4096, "nodes_per_unit": math.nan},
    {"node_cap": 4096, "nodes_per_unit": math.inf},
])
def test_window_grid_rejects_nonpositive_resolution(kwargs):
    with pytest.raises(ValueError, match="must be"):
        window_grid(Ball(np.zeros(2), 1.0), **kwargs)


@pytest.mark.parametrize("region, n", [
    (Ball(np.zeros(2), 1.0), 1),
    (Box(np.zeros(2), np.ones(2)), 0),
])
def test_build_grid_checks_its_resolution(region, n):
    with pytest.raises(ValueError, match="n_per_axis must be at least 2"):
        build_grid(region, n)


def test_grid_determinism():
    a = build_grid(Ball(np.zeros(2), 1.0), 17)
    b = build_grid(Ball(np.zeros(2), 1.0), 17)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)
    k = GinibreKernel(1)
    assert np.array_equal(_dense(assemble_operator(k, a)),
                          _dense(assemble_operator(k, b)))


def test_single_node_sine_operator():
    grid = QuadratureGrid(region=Box(np.array([0.0]), np.array([1.0])),
                          nodes=np.array([[0.3]]), weights=np.array([0.7]),
                          spacing=np.array([1.0]))
    op = assemble_operator(sine_kernel(), grid)
    assert _dense(op) == approx(np.array([[0.7 / math.pi]]))
    assert op.diagonal() == approx([0.7 / math.pi])


def test_ginibre_operator_diagonal_is_weights():
    grid = build_grid(Ball(np.zeros(2), 1.0), 8)
    op = assemble_operator(GinibreKernel(1), grid)
    a = _dense(op)
    assert op.diagonal() == approx(grid.weights, rel=1e-14)
    assert np.real(np.diag(a)) == approx(grid.weights, rel=1e-14)
    assert np.abs(a - a.conj().T).max() < 1e-15


def test_sine_trace_on_symmetric_interval():
    # diagonal is constant 1/pi, a Gauss rule integrates constants exactly
    grid = build_grid(Box(np.array([-math.pi]), np.array([math.pi])), 123)
    op = assemble_operator(sine_kernel(), grid)
    assert op.trace == approx(2.0, abs=1e-12)


class _CountingKernel:
    """Wraps a kernel and counts the entries its eval_matrix returns."""

    def __init__(self, kernel):
        self.kernel, self.entries = kernel, 0
        self.ambient_dim = kernel.ambient_dim
        self.diagonal_value = kernel.diagonal_value

    def eval_matrix(self, xs, ys):
        block = self.kernel.eval_matrix(xs, ys)
        self.entries += block.size
        return block


@pytest.mark.parametrize("kernel, region, n_per_axis", [
    (sine_kernel(), Box(np.array([-40.0]), np.array([40.0])), 3200),
    (GinibreKernel(1), Ball(np.zeros(2), 2.0), 72),
], ids=["sine-n3200", "ginibre-disk-72"])
def test_operator_reads_only_pivot_and_check_columns(kernel, region,
                                                     n_per_axis):
    counting = _CountingKernel(kernel)
    grid = build_grid(region, n_per_axis)
    op = assemble_operator(counting, grid)
    assert counting.entries == 0
    sd = spectral_decompose(op)
    k, n = sd.vectors.shape[1], grid.n_nodes
    assert 0 < k < n // 10
    assert counting.entries <= (k + 16) * n


def test_factor_byte_budget_checked_before_allocation(monkeypatch):
    # PW d=2 on a disk of radius 5 has rank above 64, so the factor's row
    # buffer must grow from 64 rows to 128; only the 64 rows fit the budget
    grid = build_grid(Ball(np.zeros(2), 5.0), 40)
    n = grid.n_nodes
    op = assemble_operator(PaleyWienerKernel(2), grid)
    monkeypatch.setattr(discretize, "_FACTOR_BYTE_BUDGET", 64 * n * 8)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError,
                           match=f"rank 64 of {n} nodes: a 128-row factor"):
            spectral_decompose(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 64 * n * 8 <= peak < 128 * n * 8


def test_pivoted_cholesky_factor_is_compact():
    # PW d=2 on a disk of radius 5 has rank above 64, so the factor's row
    # buffer grows past the rank; a view of it would keep the whole buffer
    grid = build_grid(Ball(np.zeros(2), 5.0), 40)
    op = assemble_operator(PaleyWienerKernel(2), grid)
    factor, _ = discretize._pivoted_cholesky(op)
    k = spectral_decompose(op).vectors.shape[1]
    assert factor.shape == (k, grid.n_nodes)
    assert factor.flags.owndata and factor.base is None


def test_dimension_mismatch_rejected():
    grid = build_grid(Box(np.array([0.0]), np.array([1.0])), 4)
    with pytest.raises(ValueError):
        assemble_operator(GinibreKernel(1), grid)


class _MatrixKernel:
    """Kernel whose entries come from a matrix with a constant diagonal;
    node i sits at x = i."""

    ambient_dim = 1

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)
        self.diagonal_value = float(self.matrix[0, 0])

    def eval_matrix(self, xs, ys):
        return self.matrix[np.ix_(xs[:, 0].astype(int), ys[:, 0].astype(int))]


def _toy_operator(matrix):
    # unit weights, so the operator is the matrix itself
    n = matrix.shape[0]
    grid = QuadratureGrid(region=Box(np.zeros(1), np.array([float(n)])),
                          nodes=np.arange(n, dtype=float)[:, None],
                          weights=np.ones(n), spacing=np.ones(1))
    return assemble_operator(_MatrixKernel(matrix), grid)


def test_zero_matrix_spectrum():
    sd = spectral_decompose(_toy_operator(np.zeros((3, 3))))
    assert sd.eigenvalues == approx([0.0, 0.0, 0.0])


def test_identity_matrix_spectrum():
    sd = spectral_decompose(_toy_operator(np.eye(2)))
    assert sd.eigenvalues == approx([1.0, 1.0])


def test_eigenvalues_descending_and_read_as_solved(sine_run):
    mu = sine_run.spectral.eigenvalues
    assert np.all(np.diff(mu) <= 1e-14)
    # the variance and count formulas read the spectrum as solved
    assert variance_spectral(sine_run.spectral) == float(
        np.sum(mu * (1.0 - mu)))
    for threshold in (0.0, 1e-12, 0.5, 1.0 - 1e-12):
        assert sine_run.spectral.count_above(threshold) == int(
            np.sum(mu > threshold))


def test_sine_reference_spectrum(sine_run):
    sd = sine_run.spectral
    assert sd.trace == approx(10.0 / math.pi, rel=1e-10)
    assert sd.eigenvalues[0] > 0.99
    # plunge: the count of eigenvalues above 1/2 brackets the expected count
    n_half = sd.count_above(0.5)
    assert abs(n_half - sd.trace) <= 1.0


def test_eigenvector_orthonormality(sine_run):
    v = sine_run.spectral.vectors
    gram = v.T @ v
    assert np.abs(gram - np.eye(v.shape[1])).max() < 1e-10


def test_eigenpair_residual(sine_run):
    a = _dense(sine_run.operator)
    v = sine_run.spectral.vectors
    mu = sine_run.spectral.eigenvalues
    resid = np.abs(a @ v - v * mu[None, :v.shape[1]]).max()
    assert resid < 1e-9 * max(abs(mu[0]), abs(mu[-1]))


def _region_operator(kernel, region, n_per_axis):
    return assemble_operator(kernel, build_grid(region, n_per_axis))


@pytest.mark.parametrize("make_operator", [
    lambda: _region_operator(sine_kernel(),
                             Box(np.array([-5.0]), np.array([5.0])), 400),
    lambda: _region_operator(GinibreKernel(1), Ball(np.zeros(2), 2.0), 40),
    lambda: _region_operator(PaleyWienerKernel(2), Ball(np.zeros(2), 5.0), 40),
    lambda: _toy_operator(np.zeros((3, 3))),
    lambda: _toy_operator(np.eye(2)),
], ids=["sine-n400", "ginibre-disk-40", "pw2-disk-40", "zero-3x3",
        "identity-2x2"])
def test_low_rank_solver_matches_dense_oracle(make_operator):
    op = make_operator()
    sd = spectral_decompose(op)
    a = _dense(op)
    dense = np.linalg.eigh(a)[0][::-1]
    assert np.abs(sd.eigenvalues - dense).max() <= 1e-11
    assert sd.count_above(1e-12) == int(np.sum(dense > 1e-12))
    v = sd.vectors
    mu = sd.eigenvalues[:v.shape[1]]
    norm = max(abs(dense[0]), abs(dense[-1]), 1e-300)
    resid = np.abs(a @ v - v * mu[None, :]).max(initial=0.0)
    assert resid <= 1e-9 * norm
    assert sd.operator_trace == op.trace
    line = trace_identity("solver", sd)
    assert line.lhs < line.rhs, line


def test_perturbed_eigenvector_fails_residual_check(sine_run, monkeypatch):
    eigh = np.linalg.eigh

    def perturbed_eigh(a, *args, **kwargs):
        vals, vecs = eigh(a, *args, **kwargs)
        vecs = vecs.copy()
        vecs[:, -1] += 1e-6  # the top eigenvector picks up every mode
        return vals, vecs

    monkeypatch.setattr(discretize.np.linalg, "eigh", perturbed_eigh)
    with pytest.raises(SpectralSolverError, match="eigenpair residual"):
        spectral_decompose(sine_run.operator)


def _ginibre_ball_eigenvalues(m, radius, n_nodes):
    """The exact spectrum, each eigenvalue repeated by its multiplicity,
    padded with zeros to n_nodes."""
    exact = np.zeros(n_nodes)
    mu = [mu for mu, _, mult in ginibre_ball_spectrum(m, radius)
          for _ in range(mult)][:n_nodes]
    exact[:len(mu)] = mu
    return exact


@pytest.mark.parametrize("radius, n_per_axis", [(1.0, 64), (2.0, 72)])
def test_ginibre_disk_spectrum_matches_exact(radius, n_per_axis):
    # on a disk the eigenvalues are P(j + 1, pi R^2); measured gaps are
    # 4.1e-15 at R=1 and 1.3e-14 at R=2
    grid = build_grid(Ball(np.zeros(2), radius), n_per_axis)
    sd = spectral_decompose(assemble_operator(GinibreKernel(1), grid))
    exact = _ginibre_ball_eigenvalues(1, radius, grid.n_nodes)
    assert np.abs(sd.eigenvalues - exact).max() <= 1e-10
    for delta in (0.1, 0.25, 0.5):
        # the nearest exact eigenvalue is at least 0.011 from 1 - delta
        assert np.abs(exact - (1.0 - delta)).min() >= 0.011
        assert sd.count_above(1.0 - delta) == int(np.sum(exact > 1.0 - delta))


def test_ginibre_c2_ball_spectrum_matches_exact():
    # on the unit ball of C^2 the eigenvalues are P(k + 2, pi) with
    # multiplicity k + 1; the finest grid within 4096 nodes is 10 per
    # axis (3025 nodes), where the measured gap is 8.9e-5
    ball = Ball(np.zeros(4), 1.0)
    n = max_n_per_axis(ball, 4096)
    grid = build_grid(ball, n)
    assert (n, grid.n_nodes) == (10, 3025)
    sd = spectral_decompose(assemble_operator(GinibreKernel(2), grid))
    exact = _ginibre_ball_eigenvalues(2, 1.0, grid.n_nodes)
    assert np.abs(sd.eigenvalues - exact).max() <= 1e-4


@pytest.mark.parametrize("n", [100, 200, 400])
def test_spectrum_overshoot_small(n):
    grid = build_grid(Box(np.array([-5.0]), np.array([5.0])), n)
    sd = spectral_decompose(assemble_operator(sine_kernel(), grid))
    overshoot = max(float(sd.eigenvalues.max()) - 1.0,
                    -float(sd.eigenvalues.min()), 0.0)
    assert overshoot <= 0.05


def test_refinement_ladder_cauchy():
    region = Box(np.array([-5.0]), np.array([5.0]))
    stats = {}
    overshoots = {}
    for n in (100, 200, 400):
        sd = spectral_decompose(assemble_operator(sine_kernel(),
                                                  build_grid(region, n)))
        stats[n] = (sd.trace, float(np.sum(sd.eigenvalues ** 2)))
        overshoots[n] = max(float(sd.eigenvalues.max()) - 1.0,
                            -float(sd.eigenvalues.min()), 0.0)
    tr200, sq200 = stats[200]
    tr400, sq400 = stats[400]
    assert abs(tr400 - tr200) / tr400 < 0.01
    assert abs(sq400 - sq200) / sq400 < 0.01
    assert overshoots[400] <= overshoots[100] + 1e-12


def test_phi_values_scaling(sine_run):
    # Phi_j(x_i) = V[i, j] / sqrt(w_i), as the SpectralData docstring says
    w = sine_run.grid.weights
    phi = sine_run.spectral.vectors[:, :2] / np.sqrt(w)[:, None]
    # discrete L2 normalization of the eigenfunctions
    assert np.sum(np.abs(phi) ** 2 * w[:, None], axis=0) == approx([1.0, 1.0])
