"""Midpoint grids and the low-rank spectrum of the restricted operator.

A region is discretized by the midpoint rule on its bounding box, keeping
the cells whose midpoints lie inside. The restriction of a kernel operator
to the region then becomes the Hermitian matrix

    A[i, j] = sqrt(w_i) K(x_i, x_j) sqrt(w_j),

whose eigenvalues approximate the continuum restriction's spectrum in
[0, 1] and whose scaled eigenvectors give eigenfunction values at the
nodes. For a projection kernel that spectrum plunges: only about
tr A + O(log) eigenvalues are not negligible. ``spectral_decompose``
therefore factors A by greedy diagonal-pivoted Cholesky, stopping once
the residual diagonal holds at most 1e-14 of the trace, and diagonalizes
the factor through its QR and a small Hermitian eigenproblem. The
residual trace is kept, so the trace identity stays exact. Everything is
deterministic; no randomness enters anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Region
from .kernels import Kernel

DEFAULT_NODE_CAP = 4096
_CANDIDATE_CELL_CAP = 4_000_000
# largest operator block assemble_operator allocates, counted in complex
# entries; the default node cap needs 268 MB
_OPERATOR_BYTE_BUDGET = 2 ** 30
# the pivoted Cholesky stops once the residual diagonal sums to at most
# this share of the trace
_RESIDUAL_TRACE_TOL = 1e-14


class ResourceLimitError(RuntimeError):
    """A grid or matrix would exceed the configured size cap."""


class SpectralSolverError(RuntimeError):
    """The eigensolver failed or its eigenpairs missed the residual check."""


class DegenerateGridError(ValueError):
    """No cell midpoint fell inside the region at this resolution."""


@dataclass(eq=False)
class QuadratureGrid:
    """Nodes and positive weights discretizing a region.

    ``volume_defect`` records |sum(w) - volume|; it is zero for boxes
    and tracks the cell-clipping error for curved regions.
    """

    region: Region
    nodes: np.ndarray
    weights: np.ndarray
    spacing: np.ndarray

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def weight_sum(self) -> float:
        return float(self.weights.sum())

    @property
    def volume_defect(self) -> float:
        return abs(self.weight_sum - self.region.volume())


def build_grid(region: Region, n_per_axis: int,
               node_cap: int = DEFAULT_NODE_CAP) -> QuadratureGrid:
    """Midpoint-rule grid: bounding-box cells kept iff their midpoint is inside."""
    if n_per_axis < 2:
        raise ValueError("n_per_axis must be at least 2")
    bbox = region.bounding_box()
    d = bbox.dim
    if n_per_axis ** d > _CANDIDATE_CELL_CAP:
        raise ResourceLimitError(
            f"{n_per_axis}^{d} candidate cells exceed the generation cap"
        )
    spacing = (bbox.upper - bbox.lower) / n_per_axis
    axes = [bbox.lower[k] + spacing[k] * (np.arange(n_per_axis) + 0.5)
            for k in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    keep = region.contains_points(pts)
    nodes = pts[keep]
    if nodes.shape[0] == 0:
        raise DegenerateGridError(
            f"region thinner than cells at n_per_axis={n_per_axis}"
        )
    if nodes.shape[0] > node_cap:
        raise ResourceLimitError(
            f"grid has {nodes.shape[0]} nodes, cap is {node_cap}"
        )
    cell_volume = float(np.prod(spacing))
    weights = np.full(nodes.shape[0], cell_volume)
    return QuadratureGrid(region=region, nodes=nodes, weights=weights,
                          spacing=spacing)


def max_n_per_axis(region: Region, node_cap: int = DEFAULT_NODE_CAP) -> int:
    """Largest n_per_axis whose grid stays within the node cap."""
    bbox = region.bounding_box()
    fill = region.volume() / bbox.volume()
    n = int((node_cap / fill) ** (1.0 / bbox.dim)) + 1
    while n > 2:
        try:
            build_grid(region, n, node_cap=node_cap)
            return n
        except (ResourceLimitError, DegenerateGridError):
            n -= 1
    return 2


def window_grid(region: Region, node_cap: int,
                nodes_per_unit: float | None = None,
                n_per_axis: int | None = None) -> tuple[QuadratureGrid, int]:
    """The window grid and its nodes per axis: ``n_per_axis`` if given,
    else ceil(nodes_per_unit * longest bounding-box side) (at least 2),
    else the finest grid within the node cap. A requested grid beyond
    the cap raises ResourceLimitError."""
    if not node_cap >= 1:
        raise ValueError(f"node cap must be at least 1, got {node_cap}")
    if nodes_per_unit is not None and not 0 < nodes_per_unit < math.inf:
        raise ValueError(
            f"nodes per unit must be positive and finite, got {nodes_per_unit:g}")
    if n_per_axis is None:
        if nodes_per_unit is None:
            n_per_axis = max_n_per_axis(region, node_cap)
        else:
            bbox = region.bounding_box()
            side = float((bbox.upper - bbox.lower).max())
            n_per_axis = max(2, math.ceil(nodes_per_unit * side))
    return build_grid(region, n_per_axis, node_cap=node_cap), n_per_axis


@dataclass(eq=False)
class OperatorMatrix:
    """Symmetrized Nystrom matrix of the kernel restricted to the grid."""

    matrix: np.ndarray
    grid: QuadratureGrid

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))


def assemble_operator(kernel: Kernel, grid: QuadratureGrid) -> OperatorMatrix:
    """Dense n x n Nystrom matrix; refuses blocks above the byte budget.

    The budget is counted in complex entries, the widest a kernel
    returns, before any kernel evaluation, so an oversized ``node_cap``
    fails as a resource limit instead of exhausting memory.
    """
    if kernel.ambient_dim != grid.dim:
        raise ValueError(
            f"kernel acts on R^{kernel.ambient_dim} but grid lives in R^{grid.dim}"
        )
    n = grid.n_nodes
    block_bytes = n * n * np.dtype(complex).itemsize
    if block_bytes > _OPERATOR_BYTE_BUDGET:
        raise ResourceLimitError(
            f"a {n} x {n} operator needs {block_bytes / 2 ** 30:.2f} GiB, "
            f"budget is {_OPERATOR_BYTE_BUDGET / 2 ** 30:.2f} GiB"
        )
    sw = np.sqrt(grid.weights)
    a = kernel.eval_matrix(grid.nodes, grid.nodes)
    a = a * sw[:, None] * sw[None, :]
    a = 0.5 * (a + a.conj().T)
    return OperatorMatrix(matrix=a, grid=grid)


@dataclass(eq=False)
class SpectralData:
    """Eigenpairs of an OperatorMatrix, eigenvalues descending.

    ``eigenvalues`` has one entry per node: the solver's k eigenvalues
    (which may overshoot [0, 1] by the discretization slack) followed by
    zeros past the rank k. ``eigenvalues_clamped`` clips them to [0, 1]
    for the variance and count formulas, which are sign-sensitive to the
    overshoot. ``vectors`` is n x k, orthonormal columns matching the
    leading k eigenvalues. ``residual_trace`` is the trace the factor
    left out, so that ``trace`` = sum(eigenvalues) + residual_trace
    reproduces the operator's trace.
    """

    eigenvalues: np.ndarray
    eigenvalues_clamped: np.ndarray
    vectors: np.ndarray
    grid: QuadratureGrid
    residual_trace: float = 0.0

    @property
    def trace(self) -> float:
        return float(self.eigenvalues.sum()) + self.residual_trace

    def phi_values(self, j_slice=None) -> np.ndarray:
        """Eigenfunction values at the grid nodes, Phi_j(x_i) = V[i,j]/sqrt(w_i)."""
        cols = self.vectors if j_slice is None else self.vectors[:, j_slice]
        return cols / np.sqrt(self.grid.weights)[:, None]

    def count_above(self, threshold: float) -> int:
        return int(np.sum(self.eigenvalues_clamped > threshold))


def _pivoted_cholesky(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Greedy diagonal-pivoted Cholesky of a Hermitian PSD matrix.

    Returns (F, residual_trace) with a ~= F.T @ F.conj(): row j of F is
    column j of the factor L in a ~= L L^*. Each step pivots on the
    largest residual diagonal entry (the first on ties) and takes the
    pivot column of the Schur complement, O(n k) work. It stops once
    the residual diagonal sums to at most ``_RESIDUAL_TRACE_TOL`` times
    the trace; the residual is PSD, so that sum also bounds its norm.
    """
    n = a.shape[0]
    diag = np.real(np.diagonal(a)).copy()
    stop = _RESIDUAL_TRACE_TOL * float(diag.sum())
    rows = np.empty((min(n, 64), n), dtype=a.dtype)
    k = 0
    while k < n and float(diag.sum()) > stop:
        if k == rows.shape[0]:
            rows = np.concatenate([rows, np.empty_like(rows[:n - k])])
        p = int(np.argmax(diag))
        # column p of the Schur complement; a is Hermitian, so column p
        # is the conjugate of the contiguous row p
        col = a[p].conj() - rows[:k].T @ rows[:k, p].conj()
        col /= math.sqrt(diag[p])
        rows[k] = col
        diag -= col.real ** 2 + col.imag ** 2
        k += 1
    return rows[:k], float(diag.sum())


def spectral_decompose(operator: OperatorMatrix) -> SpectralData:
    """Low-rank eigendecomposition with a sampled residual check.

    The restriction of a projection kernel has a plunge spectrum: only
    about trace + O(log) eigenvalues are not negligible. Greedy pivoted
    Cholesky factors the operator as A ~= L L^* with k columns, stopping
    once the residual diagonal holds at most 1e-14 of the trace; that
    residual trace is carried in ``residual_trace``. The QR of the n x k
    factor, L = Q R, turns A ~= Q (R R^*) Q^* into a k x k Hermitian
    eigenproblem, whose eigenvectors mapped through Q are the returned
    vectors. The cost is O(n k^2) instead of O(n^3). Up to 16
    eigenpairs, spread over the k, are checked
    against the full matrix: |A v - mu v| must stay within 1e-9 of the
    largest |eigenvalue|, else SpectralSolverError.
    """
    a = operator.matrix
    n = a.shape[0]
    factor, residual_trace = _pivoted_cholesky(a)
    k = factor.shape[0]
    q, r = np.linalg.qr(factor.T)
    # near full rank the factor is as large as the operator
    del factor
    try:
        vals, small_vecs = np.linalg.eigh(r @ r.conj().T)
    except np.linalg.LinAlgError as exc:
        raise SpectralSolverError(
            f"eigendecomposition failed for rank {k} factor of size {n} "
            f"matrix: {exc}"
        ) from exc
    order = np.argsort(-vals, kind="stable")
    vecs = q @ small_vecs[:, order]
    vals = np.concatenate([vals[order], np.zeros(n - k)])
    norm = max(abs(vals[0]), abs(vals[-1]), 1e-300)
    if k > 0:
        idx = np.unique(np.linspace(0, k - 1,
                                    min(16, k)).astype(int))
        resid = np.abs(a @ vecs[:, idx] - vecs[:, idx] * vals[idx][None, :]).max()
        if not resid <= 1e-9 * norm:  # a NaN residual fails as well
            raise SpectralSolverError(
                f"eigenpair residual {resid:.3e} exceeds 1e-9 * {norm:.3e}"
            )
    return SpectralData(eigenvalues=vals,
                        eigenvalues_clamped=np.clip(vals, 0.0, 1.0),
                        vectors=vecs,
                        grid=operator.grid,
                        residual_trace=residual_trace)
