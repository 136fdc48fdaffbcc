"""Accumulated spectrograms and their consistency diagnostics.

The restriction of a projection kernel to a window has eigenpairs
(mu_j, Phi_j); pushing each eigenfunction back through the kernel gives
the quadrature image

    (K P Phi_j)(x) = sum_i K(x, x_i) Phi_j(x_i) w_i,

whose L2 normalization is the polar-decomposition function Psi_j. The
accumulated spectrogram rho is the sum of |Psi_j|^2 over the first N
modes, N being the upper integer part of the trace. This module builds
those fields on an evaluation grid, together with the defect field G,
the near-1 eigenvalue counts, and the inequality suite that certifies a
run is resolved enough to trust.

Psi and G both read the kernel between the evaluation grid and the
window: Psi through the image sum above, G through the window integral
int_Lambda |K(x,y)|^2 dy. One pass over the kernel gives both;
``compute_psi`` leaves the window integral on the EvalGrid for
``defect_g``. The evaluation grid is a uniform product lattice. For a
kernel that factors exactly over the real axes (``Kernel.axis_factors``:
the Ginibre kernel) the pass forms no kernel block: the images are one
GEMM of a trailing-axis table per index of the leading axes, and the
window integral a matrix-vector product of its squared modulus. Other
kernels evaluate M x n blocks with ``eval_matrix``, a few rows at a
time. ``inner_product_direct`` always calls ``eval_matrix`` and is the
independent reference for the lattice route.
The window mask 1_Lambda is evaluated once per evaluation grid and the
limit shape K(x,x) 1_Lambda of rho once per field; their readers share them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# bench/test_bench.py checks that its tracer rebinds build_grid here
from .discretize import (DEFAULT_NODE_CAP, NODES_PER_UNIT,  # noqa: F401
                         QuadratureGrid, ResourceLimitError, SpectralData,
                         _count_text, assemble_operator, build_grid,
                         spectral_decompose, window_grid)
from .geometry import Box, Region
from .kernels import Kernel
from .variance import variance_spectral

MU_FLOOR = 1e-12
EVAL_NODE_CAP = 400_000
# entries per evaluation-grid kernel block: a complex block of 2^16
# entries (1 MB) and eval_matrix's temporaries stay in cache, where a
# fixed row count would stream every elementwise pass through memory;
# the lattice route folds axes into its trailing table up to this size
_BLOCK_ENTRIES = 1 << 16
_COUNT_TIE_TOL = 1e-9


class RankDeficiencyError(RuntimeError):
    """More Psi modes were requested than the spectrum supports."""


def count_n(trace: float) -> int:
    """Smallest integer strictly greater than trace - 1e-9.

    The tolerance makes an exactly integral trace map to itself, which
    is the ceiling reading of the definition; ties shift the count by at
    most one and are absorbed by the 1/N normalization downstream.
    """
    if trace < 0:
        raise ValueError(f"trace must be nonnegative, got {trace}")
    return int(math.floor(trace - _COUNT_TIE_TOL)) + 1


def c_delta(delta: float) -> float:
    """Spectral-count constant max(1/delta, 1/(1-delta))."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return max(1.0 / delta, 1.0 / (1.0 - delta))


# ---------------------------------------------------------------------------
# evaluation grids


@dataclass(eq=False)
class EvalGrid(QuadratureGrid):
    """Midpoint grid on an evaluation box E (``region``) that contains the
    window ``base_region`` with ``margin`` to spare on every side."""

    base_region: Region
    margin: float
    # per-axis coordinates; the nodes are their product in C order
    axes: tuple
    _inside: np.ndarray = field(init=False, repr=False)
    # (kernel, window grid, window integral) of the last compute_psi
    _window_integral: tuple | None = field(default=None, init=False,
                                           repr=False)

    def __post_init__(self):
        self._inside = self.base_region.contains_points(self.nodes)

    def inside_base(self) -> np.ndarray:
        return self._inside


def build_eval_grid(kernel: Kernel, region: Region,
                    margin: float | None = None,
                    spacing: float | None = None,
                    reference_grid: QuadratureGrid | None = None) -> EvalGrid:
    """Uniform grid on the bounding box of ``region`` inflated by ``margin``.

    The default margin is four correlation lengths of the kernel; the
    spacing is ``spacing`` if given, else the finest nominal spacing of
    ``reference_grid``, and one of the two is required. A grid above
    ``EVAL_NODE_CAP`` nodes raises ResourceLimitError.
    """
    if margin is None:
        margin = 4.0 * kernel.correlation_length()
    if not 0 < margin < math.inf:
        raise ValueError("evaluation margin must be positive")
    if spacing is None:
        if reference_grid is None:
            raise ValueError("evaluation grid needs a spacing or a "
                             "reference grid")
        spacing = float(reference_grid.spacing.min())
    if not 0 < spacing < math.inf:
        raise ValueError(
            f"evaluation spacing must be positive and finite, got {spacing:g}")
    bbox = region.bounding_box()
    lo = bbox.lower - margin
    hi = bbox.upper + margin
    # node counts in Python floats: a huge span over a tiny spacing reaches
    # inf, with no overflow error or warning, and still fails the cap
    counts = [max(2.0, float(np.ceil(float(hi[k] - lo[k]) / spacing)))
              for k in range(bbox.dim)]
    n_nodes = math.prod(counts)
    if n_nodes > EVAL_NODE_CAP:
        raise ResourceLimitError(f"evaluation grid would need "
                                 f"{_count_text(n_nodes)} nodes, "
                                 f"cap is {EVAL_NODE_CAP} (margin "
                                 f"{margin:.3g}, spacing {spacing:.3g})")
    ns = [int(c) for c in counts]
    step = (hi - lo) / ns
    axes = tuple(lo[k] + step[k] * (np.arange(n) + 0.5)
                 for k, n in enumerate(ns))
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.column_stack([m.ravel() for m in mesh])
    return EvalGrid(region=Box(lo, hi), nodes=nodes,
                    weights=np.full(nodes.shape[0], float(np.prod(step))),
                    spacing=step, base_region=region, margin=float(margin),
                    axes=axes)


# ---------------------------------------------------------------------------
# Psi functions and the accumulated spectrogram


@dataclass(eq=False)
class PsiSet:
    """Mode images on the evaluation grid, stored once, unnormalized.

    ``images[:, j]`` is the quadrature image (K P Phi_j) at the nodes of
    E and ``norms_sq[j]`` its squared discrete L2 norm over E; the
    unit-norm Psi_j = images[:, j] / sqrt(norms_sq[j]) is formed by its
    readers. In exact arithmetic over the whole space ``norms_sq[j]``
    equals mu_j, so its deviation from mu_j measures window truncation
    plus discretization error. ``dropped_trace`` is the trace of the
    modes beyond the last image.
    """

    images: np.ndarray
    norms_sq: np.ndarray
    dropped_trace: float


def _kernel_pass(kernel: Kernel, lambda_grid: QuadratureGrid,
                 points: np.ndarray, scaled_vecs: np.ndarray | None = None,
                 axes: tuple | None = None):
    """One pass over the kernel between ``points`` and the window.

    Gives the window integral int_Lambda |K(x,y)|^2 dy at each point and,
    if ``scaled_vecs`` is given, the images ``K @ scaled_vecs``. When
    ``points`` are the product lattice of ``axes`` and the kernel gives
    ``axis_factors`` for them, ``_lattice_pass`` contracts the factor
    tables axis by axis and no M x n block is formed. Otherwise the
    M x n block comes from ``eval_matrix``, ``_BLOCK_ENTRIES // n`` rows
    at a time (at least one). Returns (images or None, window integral).
    """
    factors = (None if axes is None
               else kernel.axis_factors(axes, lambda_grid.nodes))
    if factors is not None:
        return _lattice_pass(factors, lambda_grid.weights, scaled_vecs)
    m = points.shape[0]
    window = np.empty(m)
    images = None
    rows = max(1, _BLOCK_ENTRIES // max(1, lambda_grid.n_nodes))
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        block = kernel.eval_matrix(points[start:stop], lambda_grid.nodes)
        if scaled_vecs is not None:
            if images is None:
                images = np.empty((m, scaled_vecs.shape[1]),
                                  np.result_type(block, scaled_vecs))
            np.matmul(block, scaled_vecs, out=images[start:stop])
        window[start:stop] = np.abs(block) ** 2 @ lambda_grid.weights
    return images, window


def _lattice_pass(factors: list, weights: np.ndarray,
                  scaled_vecs: np.ndarray | None):
    """``_kernel_pass`` on a product lattice, from the tables F_k with
    K(x, y) = prod_k F_k[i_k(x), y] and n window ``weights``.

    The trailing table T starts as the last axis's F. While T holds fewer
    than ``_BLOCK_ENTRIES`` entries and more than one axis precedes it,
    the axis just before it is folded in, T becoming the table of their
    product lattice; so a 4-axis lattice runs no GEMM too thin to pay
    for its call, and the 2 axes of C^1 never form an M x n table. For
    each index of the remaining leading axes, r = prod F_k[i_k] over
    those axes is one row of n entries, and the lattice rows under that
    index get the images ``T @ (r[:, None] * scaled_vecs)``, one GEMM,
    and the window integral ``|T|^2 @ (w |r|^2)``, where |T|^2 and
    |r|^2 come from the squared moduli |F_k|^2, built once.
    """
    n = weights.shape[0]
    squares = [np.abs(table) ** 2 for table in factors]
    lead = len(factors) - 1
    trailing, trailing_sq = factors[lead], squares[lead]
    while lead > 1 and trailing.size < _BLOCK_ENTRIES:
        lead -= 1
        trailing = (factors[lead][:, None] * trailing).reshape(-1, n)
        trailing_sq = (squares[lead][:, None] * trailing_sq).reshape(-1, n)
    rows = trailing.shape[0]
    leading = [range(len(table)) for table in factors[:lead]]
    m = rows * math.prod(len(axis) for axis in leading)
    window = np.empty(m)
    images = (None if scaled_vecs is None else
              np.empty((m, scaled_vecs.shape[1]),
                       np.result_type(trailing, scaled_vecs)))
    for block, index in enumerate(itertools.product(*leading)):
        span = slice(block * rows, (block + 1) * rows)
        if images is not None:
            r = math.prod(table[i] for table, i in zip(factors, index))
            np.matmul(trailing, r[:, None] * scaled_vecs, out=images[span])
        r_sq = math.prod(table[i] for table, i in zip(squares, index))
        window[span] = trailing_sq @ (weights * r_sq)
    return images, window


def compute_psi(kernel: Kernel, spectral: SpectralData, eval_grid: EvalGrid,
                j_max: int | None = None) -> PsiSet:
    """Quadrature images of the leading eigenfunctions and their norms on E.

    The images come from one ``_kernel_pass`` between the M evaluation
    nodes and the n window nodes. With the kernel's factor tables F_i on
    the grid's axes, M_i being the number of nodes on axis i, the working
    memory is O(M k) for k = ``j_max`` modes, plus O((M_1 + ... + M_d) n)
    for the tables and their squared moduli, plus, for 4 axes, a folded
    trailing table and its squared modulus of fewer than
    M_i ``_BLOCK_ENTRIES`` entries each. Without factor tables the
    M x n kernel block is built a few rows at a time, at most
    ``_BLOCK_ENTRIES`` entries each, in O(_BLOCK_ENTRIES + M k). The pass
    also gives the window integral, which is left on ``eval_grid`` with
    the kernel and window grid it came from, so that ``defect_g`` need
    not run the pass again. The squared norms take one M x k real
    temporary, and no normalized copy of the images is made.
    """
    n_above = spectral.count_above(MU_FLOOR)
    if j_max is None:
        j_max = n_above
    if j_max > n_above:
        raise RankDeficiencyError(
            f"mode j={n_above + 1} has eigenvalue <= mu_floor ({MU_FLOOR:g}); "
            f"cannot supply {j_max} modes"
        )
    if j_max < 1:
        raise RankDeficiencyError("at least one mode is required")

    lam = spectral.grid
    scaled_vecs = np.sqrt(lam.weights)[:, None] * spectral.vectors[:, :j_max]
    images, window = _kernel_pass(kernel, lam, eval_grid.nodes, scaled_vecs,
                                  eval_grid.axes)
    eval_grid._window_integral = (kernel, lam, window)
    norms_sq = eval_grid.weights @ np.abs(images) ** 2
    if np.any(norms_sq <= 0):
        raise RankDeficiencyError("a mode image vanished on the evaluation grid")
    dropped = float(max(spectral.trace - float(spectral.eigenvalues[:j_max].sum()), 0.0))
    return PsiSet(images=images, norms_sq=norms_sq, dropped_trace=dropped)


@dataclass(eq=False)
class SpectrogramField:
    """The accumulated spectrogram ``rho`` of ``n_count`` = N modes on
    ``eval_grid`` and its limit shape ``target`` = K(x,x) 1_Lambda, with
    exact mass accounting: ``tail_mass`` is N minus the integral of rho
    over E."""

    eval_grid: EvalGrid
    rho: np.ndarray
    target: np.ndarray
    n_count: int

    def integral(self) -> float:
        return float(np.sum(self.rho * self.eval_grid.weights))

    @property
    def tail_mass(self) -> float:
        return self.n_count - self.integral()


def accumulated_spectrogram(kernel: Kernel, spectral: SpectralData,
                            eval_grid: EvalGrid,
                            psi: PsiSet | None = None) -> SpectrogramField:
    """Sum of |Psi_j|^2 over the first N modes, N = upper integer trace.

    rho = |images[:, :N]|^2 @ (1 / norms_sq[:N]). Each Psi_j carries
    unit discrete norm on E, so the integral of rho over E equals N up
    to rounding; tail_mass records the (tiny) difference so that mass
    conservation is explicit in the output.
    """
    n_count = count_n(spectral.trace)
    if psi is None:
        psi = compute_psi(kernel, spectral, eval_grid, j_max=n_count)
    elif psi.images.shape[1] < n_count:
        raise RankDeficiencyError(
            f"psi set holds {psi.images.shape[1]} modes but N = {n_count}")
    rho = np.abs(psi.images[:, :n_count]) ** 2 @ (1.0 / psi.norms_sq[:n_count])
    target = kernel.diagonal_value * eval_grid.inside_base()
    return SpectrogramField(eval_grid=eval_grid, rho=rho, target=target,
                            n_count=n_count)


def inner_product_spectral(psi: PsiSet):
    """The mu-weighted mode sum sum_j mu_j |Psi_j(x)|^2.

    For the true unit-norm Psi_j the weight mu_j exactly cancels their
    1/sqrt(mu_j) normalization, so the sum is sum_j |images[:, j]|^2;
    this stays stable arbitrarily deep into the spectrum and is
    unaffected by window truncation of the norms. The neglected
    modes below the floor contribute at most ``psi.dropped_trace`` in
    integral, which is returned alongside.
    """
    return np.sum(np.abs(psi.images) ** 2, axis=1), psi.dropped_trace


def inner_product_direct(kernel: Kernel, lambda_grid: QuadratureGrid,
                         points: np.ndarray) -> np.ndarray:
    """Window integral of |K(x, .)|^2 by quadrature on the window grid.

    The kernel block is evaluated by ``eval_matrix`` in row blocks of at
    most ``_BLOCK_ENTRIES`` entries, so the working memory is
    O(_BLOCK_ENTRIES + M) for M points, whatever the window size. The
    points need not form a lattice, and the factor tables are never used:
    this is the independent reference for the window integral that
    ``compute_psi`` and ``defect_g`` build on the evaluation lattice,
    which it matches to rounding (bitwise for kernels without factors).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _kernel_pass(kernel, lambda_grid, points)[1]


@dataclass(eq=False)
class DefectField:
    """G(x) = K(x,x) 1_Lambda(x) - int_Lambda |K(x,y)|^2 dy on the eval grid.

    ``window_integral`` is int_Lambda |K(x,y)|^2 dy at each node, the
    direct side of the dual inner-product identity. ``l1_total`` is the
    L1 norm of G on E plus the window integral's mass beyond E.
    ``quad_error_estimate`` is the mass of evaluation cells straddling
    the window boundary times the diagonal: |G| jumps there, so each
    straddling cell may misattribute up to its whole weight.
    """

    values: np.ndarray
    window_integral: np.ndarray
    l1_total: float
    quad_error_estimate: float


def defect_g(kernel: Kernel, lambda_grid: QuadratureGrid,
             eval_grid: EvalGrid) -> DefectField:
    """Defect between the diagonal on the window and the window integral.

    The L1 norm over all space splits into the part computed on E plus
    the mass of the direct integral lying beyond E, which is known
    exactly from the trace identity (the integral of G off E is the
    off-E mass of the window integral, up to sign). The window integral
    is the one ``compute_psi`` left on ``eval_grid`` when it ran with
    this very kernel and window grid (compared by identity); otherwise
    it is built here by the same pass on the grid's axes, so it has the
    same bits either way: O(_BLOCK_ENTRIES + M) working memory on M
    evaluation nodes without factor tables, and with them the tables,
    their squared moduli and a folded trailing table as in
    ``compute_psi``.
    """
    memo = eval_grid._window_integral
    if memo is not None and memo[0] is kernel and memo[1] is lambda_grid:
        ipd = memo[2]
    else:
        ipd = _kernel_pass(kernel, lambda_grid, eval_grid.nodes,
                           axes=eval_grid.axes)[1]
    g = kernel.diagonal_value * eval_grid.inside_base() - ipd
    l1 = float(np.sum(np.abs(g) * eval_grid.weights))
    e_count = kernel.diagonal_value * lambda_grid.weight_sum
    tail = max(e_count - float(np.sum(ipd * eval_grid.weights)), 0.0)
    half_diag = 0.5 * float(np.linalg.norm(eval_grid.spacing))
    straddle = eval_grid.base_region.boundary_distance(eval_grid.nodes) < half_diag
    quad_est = kernel.diagonal_value * float(
        np.sum(eval_grid.weights[straddle]))
    return DefectField(values=g, window_integral=ipd, l1_total=l1 + tail,
                       quad_error_estimate=quad_est)


# ---------------------------------------------------------------------------
# inequality diagnostics


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    rhs: float
    slack: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + self.slack


@dataclass(eq=False)
class DiagnosticsReport:
    """The four inequality ``checks`` at threshold ``delta``, whose
    constant is ``c_delta``; each check carries its own lhs and rhs."""

    delta: float
    c_delta: float
    checks: tuple


def inequality_report(kernel: Kernel, spectral: SpectralData,
                      spectrogram: SpectrogramField, psi: PsiSet,
                      defect: DefectField, delta: float) -> DiagnosticsReport:
    """Evaluate the four spectral-count inequalities on one configuration.

    All four hold exactly for the continuum operator; failures indicate
    an under-resolved grid, so the slack is one millionth of each right
    hand side plus 1e-12. The window rule's weights sum to its volume up
    to rounding, so its volume defect needs no share of the slack.
    """
    cdel = c_delta(delta)
    e_count = spectral.trace
    variance = variance_spectral(spectral)
    n_delta = spectral.count_above(1.0 - delta)
    abs_slack = 1e-12

    ips, _ = inner_product_spectral(psi)
    w_e = spectrogram.eval_grid.weights
    lhs_a = float(np.sum(np.abs(spectrogram.rho - ips) * w_e))
    lhs_a += abs(spectrogram.tail_mass)
    lhs_a += max(e_count - float(np.sum(ips * w_e)), 0.0)
    rhs_a = 1.0 + 2.0 * delta * e_count + 2.0 * (1.0 - delta) * cdel * variance

    checks = (
        InequalityCheck("psi_approximation", lhs_a, rhs_a,
                        1e-6 * rhs_a + abs_slack),
        InequalityCheck("delta_count", abs(n_delta - e_count),
                        cdel * variance, 1e-6 * cdel * variance + abs_slack),
        # for projection kernels this bound is attained with equality, so
        # the boundary-cell quadrature estimate must enter the slack
        InequalityCheck("defect_l1", defect.l1_total, 2.0 * variance,
                        2e-6 * variance + abs_slack
                        + defect.quad_error_estimate),
        InequalityCheck("variance_vs_mean", variance, e_count,
                        1e-6 * e_count + abs_slack),
    )
    return DiagnosticsReport(delta=delta, c_delta=cdel, checks=checks)


# ---------------------------------------------------------------------------
# dilation convergence study


@dataclass(frozen=True, eq=False)
class ConvergenceRow:
    """One rung of the dilation ladder; N and the tail mass are its field's."""

    scale: float
    n_per_axis: int
    trace: float
    err_raw: float
    saturated: bool
    trace_defect: float
    field: SpectrogramField

    @property
    def tail_mass(self) -> float:
        return self.field.tail_mass

    @property
    def err_normalized(self) -> float:
        return self.err_raw / self.field.n_count


def dilation_snapshot(kernel: Kernel, base_region: Region, scale: float, *,
                      node_cap: int = DEFAULT_NODE_CAP,
                      nodes_per_unit: float = NODES_PER_UNIT,
                      n_per_axis: int | None = None,
                      margin: float | None = None,
                      eval_spacing: float | None = None):
    """One rung of the dilation ladder: discretize, decompose, compare.

    Returns the scale's ConvergenceRow, whose ``field`` holds rho. The
    window grid aims at ``nodes_per_unit`` per unit length until
    ``node_cap`` forces the finest grid within it (``saturated``); a fixed
    ``n_per_axis`` raises ResourceLimitError beyond the cap instead.
    ``margin`` and ``eval_spacing`` go to ``build_eval_grid``.
    """
    region = base_region.dilate(float(scale))
    try:
        grid, n_axis = window_grid(region, node_cap, nodes_per_unit,
                                   n_per_axis)
        saturated = False
    except ResourceLimitError:
        if n_per_axis is not None:
            raise
        grid, n_axis = window_grid(region, node_cap)
        saturated = True
    operator = assemble_operator(kernel, grid)
    spectral = spectral_decompose(operator)
    eval_grid = build_eval_grid(kernel, region, margin=margin,
                                spacing=eval_spacing, reference_grid=grid)
    fld = accumulated_spectrogram(kernel, spectral, eval_grid)
    err_raw = float(np.sum(np.abs(fld.rho - fld.target) * eval_grid.weights))
    err_raw += abs(fld.tail_mass)
    return ConvergenceRow(scale=float(scale), n_per_axis=n_axis,
                          trace=spectral.trace, err_raw=err_raw,
                          saturated=saturated,
                          trace_defect=spectral.trace_defect,
                          field=fld)


def l1_convergence_study(kernel: Kernel, base_region: Region, scales,
                         **resolution):
    """L1 distance of rho from its limit shape along dilations of a region.

    err_raw integrates |rho - K(x,x) 1_window| over E and adds the mass
    accounting remainder; err_normalized divides by the mode count N,
    which is the normalization under which the distance tends to zero.
    ``resolution`` takes the keywords of ``dilation_snapshot``.
    """
    scales = [float(s) for s in scales]
    if any(b <= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly ascending")
    return [dilation_snapshot(kernel, base_region, s, **resolution)
            for s in scales]
