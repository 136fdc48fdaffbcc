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
window through one kernel sum, ``Kernel.field_sum``: Psi with L = K and
v the weighted eigenvectors, G with L = |K|^2 and v the window weights,
which gives the window integral int_Lambda |K(x,y)|^2 dy. Each field
forms only its own sum, so a dilation ladder, which reads rho alone,
never forms the window integral. The evaluation grid is a uniform
product lattice, on which the Ginibre and the Paley-Wiener (d = 2, 3)
kernels form no kernel block. ``inner_product_direct`` is the same sum
without the lattice, so it always evaluates blocks and is the
independent reference for the lattice route.
The window mask 1_Lambda is evaluated once per evaluation grid and the
limit shape K(x,x) 1_Lambda of rho once per field; their readers share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# bench/test_bench.py checks that its tracer rebinds build_grid here
from .discretize import (DEFAULT_NODE_CAP, NODES_PER_UNIT,  # noqa: F401
                         QuadratureGrid, ResourceLimitError, SpectralData,
                         _count_text, assemble_operator, build_grid,
                         factor_node_limit, spectral_decompose, window_grid)
from .geometry import Box, Region
from .kernels import Kernel
from .variance import variance_spectral

MU_FLOOR = 1e-12
EVAL_NODE_CAP = 400_000
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
    window ``base_region`` with a margin to spare on every side."""

    base_region: Region
    # per-axis coordinates; the nodes are their product in C order
    axes: tuple
    _inside: np.ndarray = field(init=False, repr=False)

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
                    spacing=step, base_region=region, axes=axes)


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


def compute_psi(kernel: Kernel, spectral: SpectralData, eval_grid: EvalGrid,
                j_max: int | None = None) -> PsiSet:
    """Quadrature images of the leading eigenfunctions and their norms on E.

    The images are one ``Kernel.field_sum`` of K between the M
    evaluation nodes and the n window nodes, on the grid's axes, for
    k = ``j_max`` modes (its docstring gives the working memory); no
    window integral is formed, and no argument is written to. The
    squared norms take one M x k real temporary, and no normalized copy
    of the images is made.
    """
    n_above = spectral.count_above(MU_FLOOR)
    if j_max is None:
        j_max = n_above
    if j_max > n_above:
        raise RankDeficiencyError(
            f"mode j={n_above + 1} has eigenvalue <= mu_floor ({MU_FLOOR:g}); "
            f"cannot supply {_count_text(j_max)} modes"
        )
    if j_max < 1:
        raise RankDeficiencyError("at least one mode is required")

    lam = spectral.grid
    scaled_vecs = np.sqrt(lam.weights)[:, None] * spectral.vectors[:, :j_max]
    images = kernel.field_sum(lam.nodes, scaled_vecs, eval_grid.nodes,
                              eval_grid.axes)
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
            f"psi set holds {psi.images.shape[1]} modes but "
            f"N = {_count_text(n_count)}")
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
    integral, which is returned alongside. By the dual identity the sum
    is the window integral of ``defect_g``, which ``inequality_report``
    reads instead; the sum itself is formed only where that identity is
    checked (``accspec.checks.inner_product_identity``).
    """
    return np.sum(np.abs(psi.images) ** 2, axis=1), psi.dropped_trace


def inner_product_direct(kernel: Kernel, lambda_grid: QuadratureGrid,
                         points: np.ndarray) -> np.ndarray:
    """Window integral of |K(x, .)|^2 by quadrature on the window grid.

    The same ``Kernel.field_sum`` of |K|^2 as ``defect_g``'s, given no
    lattice axes, so it evaluates blocks of ``eval_matrix`` (its
    docstring gives the working memory). The points need not form a
    lattice, and the lattice factors are never used: this is the
    independent reference for the window integral that ``defect_g``
    builds on the evaluation lattice, which it matches to rounding, and
    bitwise where the kernel gives no factors on that lattice (the sine
    kernel, and Paley-Wiener windows with fewer nodes than the image
    rule has waves).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return kernel.field_sum(lambda_grid.nodes, lambda_grid.weights, points,
                            square=True)


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
    is one ``Kernel.field_sum`` of |K|^2 against the window weights on
    the grid's axes (its docstring gives the working memory).
    """
    ipd = kernel.field_sum(lambda_grid.nodes, lambda_grid.weights,
                           eval_grid.nodes, eval_grid.axes, square=True)
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
    The psi-approximation check needs the mode sum sum_j mu_j |Psi_j|^2,
    which the dual identity equals to the window integral; it reads
    ``defect.window_integral``, so no mode is summed again. ``kernel``
    and ``psi`` are unread, kept for callers that pass them by position.
    """
    cdel = c_delta(delta)
    e_count = spectral.trace
    variance = variance_spectral(spectral)
    n_delta = spectral.count_above(1.0 - delta)
    abs_slack = 1e-12

    ips = defect.window_integral
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
                      margin: float | None = None,
                      eval_spacing: float | None = None):
    """One rung of the dilation ladder: discretize, decompose, compare.

    Returns the scale's ConvergenceRow, whose ``field`` holds rho. The
    window grid has ``nodes_per_unit`` per unit length of the dilated
    window's longest side; past ``node_cap`` or ``factor_node_limit`` it
    is coarsened to the finest grid within both, and the row says so
    (``saturated``).
    ``margin`` and ``eval_spacing`` go to ``build_eval_grid``.
    """
    region = base_region.dilate(float(scale))
    try:
        grid = window_grid(region, node_cap, nodes_per_unit)
        saturated = False
    except ResourceLimitError:
        grid = window_grid(region, min(node_cap, factor_node_limit()))
        saturated = True
    eval_grid = build_eval_grid(kernel, region, margin=margin,
                                spacing=eval_spacing, reference_grid=grid)
    n_count = count_n(kernel.diagonal_value * grid.weight_sum)
    if n_count > grid.n_nodes:  # the trace is known before the factor
        raise RankDeficiencyError(f"{grid.n_nodes} window nodes cannot "
                                  f"supply N = {_count_text(n_count)} modes")
    spectral = spectral_decompose(assemble_operator(kernel, grid))
    fld = accumulated_spectrogram(kernel, spectral, eval_grid)
    err_raw = float(np.sum(np.abs(fld.rho - fld.target) * eval_grid.weights))
    err_raw += abs(fld.tail_mass)
    return ConvergenceRow(scale=float(scale), trace=spectral.trace, err_raw=err_raw,
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
