"""Product Gauss window rules and the low-rank spectrum of the restricted
operator.

A region is discretized by Gauss-Legendre per axis on a box, Gauss-
Legendre in the radius times a spherical rule on a ball, and its balls'
rules on a disjoint union; for analytic kernels the Nystrom spectrum then
converges exponentially (Bornemann, Math. Comp. 79, 2010). The
restriction of a kernel operator to the region becomes the Hermitian
matrix

    A[i, j] = sqrt(w_i) K(x_i, x_j) sqrt(w_j),

whose eigenvalues approximate the continuum restriction's spectrum in
[0, 1] and whose scaled eigenvectors give eigenfunction values at the
nodes. A is never formed: its diagonal is K(x, x) w_i in closed form and
its columns are evaluated on demand. For a projection kernel the
spectrum plunges: only about tr A + O(log) eigenvalues are not
negligible. ``spectral_decompose`` therefore factors A by greedy
diagonal-pivoted Cholesky, which reads the diagonal and one column per
pivot, stopping once the residual diagonal holds at most 1e-14 of the
trace, and diagonalizes the factor through its QR and a small Hermitian
eigenproblem. The residual trace is kept, so the trace identity stays
exact. The eigenpairs are checked on a few evenly spaced rows of A.
Everything is deterministic; no randomness enters anywhere.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .geometry import Box, DisjointBallUnion, Region, unit_ball_volume
from .kernels import Kernel
from .quadrature import ResourceLimitError, panel_nodes, trapezoid_circle

DEFAULT_NODE_CAP = 4096
# default window grid nodes per unit length of ladders and 1-D curves
NODES_PER_UNIT = 40.0
# nodes per Gauss-Legendre panel: numpy's leggauss is an O(m^3) eigensolve
_PANEL_ORDER = 16
# largest row buffer the pivoted Cholesky factor may grow to
_FACTOR_BYTE_BUDGET = 2 ** 30
# the pivoted Cholesky stops once the residual diagonal sums to at most
# this share of the trace
_RESIDUAL_TRACE_TOL = 1e-14


class SpectralSolverError(RuntimeError):
    """The eigensolver failed or its eigenpairs missed the residual check."""


@dataclass(eq=False)
class QuadratureGrid:
    """Nodes and positive weights discretizing a region.

    ``spacing`` is nominal: the bounding-box sides over the nodes per
    axis. ``volume_defect`` records |sum(w) - volume|, which a Gauss
    rule keeps at rounding level.
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


def _gauss_line(a: float, b: float, n: int):
    """n Gauss-Legendre nodes and weights on [a, b], in panels of at most
    16 nodes whose widths follow their node counts."""
    panels = -(-n // _PANEL_ORDER)
    sizes = [n // panels + (i < n % panels) for i in range(panels)]
    edges = a + (b - a) / n * np.cumsum([0] + sizes)
    rules = [panel_nodes(edges[i:i + 2], m) for i, m in enumerate(sizes)]
    return tuple(np.concatenate(part) for part in zip(*rules))


def _pieces(region: Region, n: int) -> list:
    """The boxes and balls of the rule with their nodes per axis: a
    union's balls get n times their diameter over the longest side of its
    bounding box, and a 1-D ball is its interval."""
    pieces = [(region, n)]
    if isinstance(region, DisjointBallUnion):
        bbox = region.bounding_box()
        side = float((bbox.upper - bbox.lower).max())
        pieces = [(b, max(2, round(n * 2.0 * b.radius / side)))
                  for b in region.balls]
    return [(p.bounding_box() if p.dim == 1 else p, m) for p, m in pieces]


def _orders(piece, n: int) -> tuple:
    """Node counts of the piece's 1-D factor rules at n nodes per axis.

    A box takes n per axis. A ball in R^d, d = 2..4, takes n // 2 in the
    radius, at least (d + 3) // 2 so that its volume and second moment
    are exact, and leaves the sphere the rest of c_d (n/2)^d: m angles
    (d = 2), or k nodes in cos(theta) (d = 3) or s = sin^2(eta) (d = 4)
    and m ~ 2k angles per circle, with k m^(d-2) within the rest.
    """
    d = piece.dim
    if isinstance(piece, Box):
        return (n,) * d
    if d > 4:
        raise ValueError(f"no window rule for balls in R^{d}; d must be 1 to 4")
    nr = max(n // 2, (d + 3) // 2)
    sphere = unit_ball_volume(d) * (n / 2) ** d / nr  # >= 1 for n >= 2
    if d == 2:
        return nr, math.floor(sphere)
    k = max(1, math.floor((sphere / 2 ** (d - 2)) ** (1 / (d - 1))))
    return (nr, k) + (math.floor((sphere / k) ** (1 / (d - 2))),) * (d - 2)


def _count_text(count) -> str:
    """A node or mode count for a limit message: 12 significant digits,
    or a bound once the count is past the float range."""
    try:
        count = float(count)
    except OverflowError:  # an integer count beyond the float range
        count = math.inf
    if math.isfinite(count):
        return f"{count:.12g}"
    return f"more than {sys.float_info.max:.3g}"


def _node_count(region: Region, n: int) -> float:
    try:
        return sum(math.prod(_orders(p, m)) for p, m in _pieces(region, n))
    except OverflowError:  # a ball's (n/2)^d beyond the float range
        return math.inf


def _product(rules):
    """Tensor product of 1-D rules (x, w): the coordinates and the weight
    of every combination, the last rule varying fastest."""
    coords = np.meshgrid(*[x for x, _ in rules], indexing="ij")
    return ([c.ravel() for c in coords],
            reduce(np.multiply.outer, [w for _, w in rules]).ravel())


def _piece_rule(piece, n: int):
    """Nodes and weights of one box or ball at n nodes per axis."""
    orders = _orders(piece, n)
    if isinstance(piece, Box):
        coords, w = _product([_gauss_line(lo, hi, m) for lo, hi, m
                              in zip(piece.lower, piece.upper, orders)])
        return np.column_stack(coords), w
    d = piece.dim
    r, wr = _gauss_line(0.0, piece.radius, orders[0])
    radial = (r, wr * r ** (d - 1))
    if d == 2:
        (r, phi), w = _product([radial, trapezoid_circle(orders[1])])
        unit = [np.cos(phi), np.sin(phi)]
    elif d == 3:
        (r, t, phi), w = _product([radial, _gauss_line(-1.0, 1.0, orders[1]),
                                   trapezoid_circle(orders[2])])
        st = np.sqrt((1.0 - t) * (1.0 + t))
        unit = [st * np.cos(phi), st * np.sin(phi), t]
    else:
        # Hopf coordinates (sqrt(1-s) e^{i phi1}, sqrt(s) e^{i phi2}), in
        # which the S^3 measure is ds dphi1 dphi2 / 2
        s, ws = _gauss_line(0.0, 1.0, orders[1])
        (r, s, p1, p2), w = _product([radial, (s, 0.5 * ws),
                                      trapezoid_circle(orders[2]),
                                      trapezoid_circle(orders[3])])
        a, b = np.sqrt(1.0 - s), np.sqrt(s)
        unit = [a * np.cos(p1), a * np.sin(p1), b * np.cos(p2), b * np.sin(p2)]
    return piece.center + r[:, None] * np.column_stack(unit), w


def build_grid(region: Region, n_per_axis: int,
               node_cap: int = DEFAULT_NODE_CAP) -> QuadratureGrid:
    """Product Gauss rule on the region at ``n_per_axis`` nodes per axis:
    n^d nodes on a box, at most c_d (n/2)^d on a ball (see ``_orders``),
    checked against ``node_cap`` and ``factor_node_limit`` (the most
    nodes a factor can hold) before any node is built, after
    ``check_resolution`` has checked the cap and n_per_axis; a count
    beyond either raises ResourceLimitError."""
    check_resolution(node_cap, n_per_axis=n_per_axis)
    count = _node_count(region, n_per_axis)
    if count > node_cap:
        raise ResourceLimitError(
            f"grid has {_count_text(count)} nodes, cap is {node_cap}")
    if count > factor_node_limit():
        raise ResourceLimitError(
            f"grid has {_count_text(count)} nodes, more than a low-rank "
            f"factor within {_FACTOR_BYTE_BUDGET / 2 ** 30:.2f} GiB holds")
    # past the float range the weights would overflow with a warning only
    if not math.isfinite(region.volume()):
        raise OverflowError("window volume exceeds the float range")
    rules = [_piece_rule(p, m) for p, m in _pieces(region, n_per_axis)]
    bbox = region.bounding_box()
    return QuadratureGrid(region=region,
                          nodes=np.concatenate([x for x, _ in rules]),
                          weights=np.concatenate([w for _, w in rules]),
                          spacing=(bbox.upper - bbox.lower) / n_per_axis)


def factor_node_limit() -> int:
    """Most grid nodes whose first ``_pivoted_cholesky`` row buffer, 64
    complex rows of one entry per node, fits ``_FACTOR_BYTE_BUDGET``."""
    return _FACTOR_BYTE_BUDGET // (64 * np.dtype(complex).itemsize)


def max_n_per_axis(region: Region, node_cap: int = DEFAULT_NODE_CAP) -> int:
    """Largest n_per_axis whose grid stays within the node cap (at least
    2), by bisection on the closed-form node count, which grows with n;
    no grid is built."""
    lo, hi = 2, 4
    while _node_count(region, hi) <= node_cap:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _node_count(region, mid) <= node_cap else (lo, mid)
    return lo


def check_resolution(node_cap: int, nodes_per_unit: float | None = None,
                     n_per_axis: int | None = None) -> None:
    """ValueError unless node_cap >= 1, 0 < nodes_per_unit < inf (for
    ``window_grid``) and n_per_axis >= 2 (for ``build_grid``), the last
    two where given."""
    if not node_cap >= 1:
        raise ValueError(f"node cap must be at least 1, got {node_cap}")
    if nodes_per_unit is not None and not 0 < nodes_per_unit < math.inf:
        raise ValueError(
            f"nodes per unit must be positive and finite, got {nodes_per_unit:g}")
    if n_per_axis is not None and n_per_axis < 2:
        raise ValueError("n_per_axis must be at least 2")


def window_grid(region: Region, node_cap: int,
                nodes_per_unit: float | None = None) -> QuadratureGrid:
    """The window grid at ceil(nodes_per_unit * longest bounding-box
    side) nodes per axis (at least 2), or the finest grid within the
    node cap when nodes_per_unit is None; ``build_grid`` takes a fixed
    nodes per axis. A grid beyond the cap, and a window side or nodes per
    axis past the float range, raise ResourceLimitError."""
    check_resolution(node_cap, nodes_per_unit)
    # in Python floats: a side past the float range reaches inf with no
    # overflow warning
    bbox = region.bounding_box()
    side = max(float(hi) - float(lo) for lo, hi in zip(bbox.lower, bbox.upper))
    if not math.isfinite(side):
        raise ResourceLimitError("window side exceeds the float range")
    if nodes_per_unit is None:
        n_per_axis = max_n_per_axis(region, node_cap)
    else:
        per_axis = nodes_per_unit * side
        if not math.isfinite(per_axis):
            raise ResourceLimitError(
                f"window side {side:.3g} at {nodes_per_unit:g} nodes per "
                f"unit needs {_count_text(per_axis)} nodes per axis")
        n_per_axis = max(2, math.ceil(per_axis))
    return build_grid(region, n_per_axis, node_cap=node_cap)


@dataclass(eq=False)
class OperatorMatrix:
    """Nystrom matrix sqrt(w_i) K(x_i, x_j) sqrt(w_j), never formed: the
    diagonal is K(x, x) w_i in closed form, columns are evaluated on demand."""

    kernel: Kernel
    grid: QuadratureGrid

    def diagonal(self) -> np.ndarray:
        return self.kernel.diagonal_value * self.grid.weights

    @property
    def trace(self) -> float:
        return float(self.diagonal().sum())

    def columns(self, idx) -> np.ndarray:
        """Columns ``idx`` of A, an n x len(idx) block."""
        nodes, sw = self.grid.nodes, np.sqrt(self.grid.weights)
        return (sw[:, None] * self.kernel.eval_matrix(nodes, nodes[idx])
                * sw[None, idx])


def assemble_operator(kernel: Kernel, grid: QuadratureGrid) -> OperatorMatrix:
    """The kernel restricted to the grid; evaluates no kernel entry."""
    if kernel.ambient_dim != grid.dim:
        raise ValueError(
            f"kernel acts on R^{kernel.ambient_dim} but grid lives in R^{grid.dim}"
        )
    return OperatorMatrix(kernel=kernel, grid=grid)


@dataclass(eq=False)
class SpectralData:
    """Eigenpairs of an OperatorMatrix, eigenvalues descending.

    ``eigenvalues`` has one entry per node: the solver's k eigenvalues
    (which may overshoot [0, 1] by the discretization slack) followed by
    zeros past the rank k. The variance formula, which is sign-sensitive
    to the overshoot, clips them to [0, 1] itself; ``count_above`` needs
    no clip for thresholds in [0, 1). ``vectors`` is n x k, orthonormal
    columns matching the leading k eigenvalues; the eigenfunctions at the
    nodes are Phi_j(x_i) = vectors[i, j] / sqrt(w_i). ``operator_trace``
    is the operator's diagonal sum and ``residual_trace`` the trace the
    factor left out, so that ``trace`` = sum(eigenvalues) + residual_trace
    reproduces ``operator_trace`` up to the ``trace_defect``.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    grid: QuadratureGrid
    operator_trace: float
    residual_trace: float = 0.0

    @property
    def trace(self) -> float:
        return float(self.eigenvalues.sum()) + self.residual_trace

    @property
    def trace_defect(self) -> float:
        """|trace - operator_trace|, the trace identity's defect."""
        return abs(self.trace - self.operator_trace)

    def count_above(self, threshold: float) -> int:
        return int(np.sum(self.eigenvalues > threshold))


def _pivoted_cholesky(operator: OperatorMatrix) -> tuple[np.ndarray, float]:
    """Greedy diagonal-pivoted Cholesky of the operator, column by column.

    Returns (F, residual_trace) with A ~= F.T @ F.conj(): row j of F is
    column j of the factor L in A ~= L L^*, and F is a k x n array of its
    own. Each step pivots on the largest residual diagonal entry (the
    first on ties), evaluates that column of A and takes the Schur
    complement's, O(n k) work. It stops once the residual diagonal sums
    to at most ``_RESIDUAL_TRACE_TOL`` times the trace; the residual is
    PSD, so that sum also bounds its norm. A row buffer beyond
    ``_FACTOR_BYTE_BUDGET`` raises ResourceLimitError before it is
    allocated.
    """
    n = operator.grid.n_nodes
    diag = operator.diagonal()
    stop = _RESIDUAL_TRACE_TOL * float(diag.sum())
    rows = np.empty((0, n))
    k = 0
    while k < n and float(diag.sum()) > stop:
        p = int(np.argmax(diag))
        col = operator.columns([p])[:, 0] - rows[:k].T @ rows[:k, p].conj()
        col /= math.sqrt(diag[p])
        if k == rows.shape[0]:
            capacity = min(n, max(64, 2 * k))
            need = capacity * n * col.itemsize
            if need > _FACTOR_BYTE_BUDGET:
                raise ResourceLimitError(
                    f"rank {k} of {n} nodes: a {capacity}-row factor needs "
                    f"{need / 2 ** 30:.2f} GiB, budget is "
                    f"{_FACTOR_BYTE_BUDGET / 2 ** 30:.2f} GiB"
                )
            grown = np.empty((capacity, n), dtype=col.dtype)
            grown[:k] = rows
            rows = grown
        rows[k] = col
        diag -= col.real ** 2 + col.imag ** 2
        k += 1
    # a view rows[:k] would keep the whole buffer, up to 2k rows, alive
    if k < rows.shape[0]:
        rows = rows[:k].copy()
    return rows, float(diag.sum())


def spectral_decompose(operator: OperatorMatrix) -> SpectralData:
    """Low-rank eigendecomposition with a sampled residual check.

    ``_pivoted_cholesky`` gives A ~= L L^* with k columns from n k kernel
    entries in O(n k) memory, and the trace it leaves out. The QR L = Q R
    turns A ~= Q (R R^*) Q^* into a k x k Hermitian eigenproblem, whose
    eigenvectors mapped through Q are the returned vectors: O(n k^2)
    work. Every eigenpair is checked on up to 16 evenly spaced rows of
    A, 16 n more kernel entries: |(A v)_i - mu v_i| must stay within
    1e-9 of the largest |eigenvalue|, else SpectralSolverError. The rows
    are not the pivots: L L^* reproduces A's pivot rows exactly, so a
    residual there would not see the truncation.
    """
    n = operator.grid.n_nodes
    factor, residual_trace = _pivoted_cholesky(operator)
    k = factor.shape[0]
    q, r = np.linalg.qr(factor.T)
    # near full rank the factor is as large as a dense operator, and R
    # and its Gram matrix are k x k each: keep one of them at a time
    del factor
    gram = r @ r.conj().T
    del r
    try:
        vals, small_vecs = np.linalg.eigh(gram)
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
        rows = np.unique(np.linspace(0, n - 1, min(16, n)).astype(int))
        a_rows = operator.columns(rows).conj().T
        resid = np.abs(a_rows @ vecs - vecs[rows] * vals[None, :k]).max()
        if not resid <= 1e-9 * norm:  # a NaN residual fails as well
            raise SpectralSolverError(
                f"eigenpair residual {resid:.3e} exceeds 1e-9 * {norm:.3e}"
            )
    return SpectralData(eigenvalues=vals, vectors=vecs, grid=operator.grid,
                        operator_trace=operator.trace,
                        residual_trace=residual_trace)
