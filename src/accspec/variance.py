"""Number-count expectation and variance by independent routes.

For a projection kernel the count variance in a window equals
Tr(M - M^2); on the spectral route that is sum mu_j (1 - mu_j) over the
discretized eigenvalues. For radial kernels on balls the same quantity
is E minus a one-dimensional integral of the radial profile against the
volume of two overlapping balls; the overlap vanishes past the diameter,
so the integral runs over the closed interval [0, 2R] and needs no
cut-off or tail bound. It scales to radii where no operator matrix
can follow. Agreement of the two routes is the package's main
cross-validation; the log-asymptotic fit of the band-limited family's
variance is its quantitative benchmark.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .discretize import (DEFAULT_NODE_CAP, NODES_PER_UNIT, ResourceLimitError,
                         SpectralData, assemble_operator, check_resolution,
                         spectral_decompose, window_grid)
from .geometry import (Ball, DisjointBallUnion, Region,
                       _ball_volume_unchecked, lens_volume_exact_many,
                       unit_ball_volume, unit_sphere_area)
from .kernels import Kernel
from .quadrature import legendre_tail


class FitRangeError(ValueError):
    """The supplied radii do not span enough range for an asymptotic fit."""


def expected_count(kernel: Kernel, region: Region) -> float:
    """E = diagonal * volume; exact for constant-diagonal kernels. A
    count below the smallest normal float raises FloatingPointError, one
    beyond the largest float OverflowError."""
    if kernel.ambient_dim != region.dim:
        raise ValueError(
            f"kernel acts on R^{kernel.ambient_dim} but region lives in R^{region.dim}"
        )
    e_count = kernel.diagonal_value * region.volume()
    if not math.isfinite(e_count):
        raise OverflowError(f"expected count exceeds the largest float "
                            f"({sys.float_info.max:.3g})")
    if e_count < sys.float_info.min:
        raise FloatingPointError(
            f"expected count {e_count:.3g} is below the smallest normal "
            f"float ({sys.float_info.min:.3g})")
    return e_count


def variance_spectral(spectral: SpectralData) -> float:
    """sum mu_j (1 - mu_j) over the eigenvalues as solved, with no clip:
    negative on a grid that cannot hold the window's modes."""
    mu = spectral.eigenvalues
    return float(np.sum(mu * (1.0 - mu)))


@dataclass(frozen=True)
class RadialVariance:
    """Radial-route variance with its quadrature error estimate."""

    value: float
    error_estimate: float

    @property
    def accuracy_warning(self) -> bool:
        return self.error_estimate > 0.01 * max(self.value, 1e-300)


def variance_radial(kernel: Kernel, radius: float) -> RadialVariance:
    """Count variance in B(0, radius) from the radial profile.

    A projection kernel integrates |K(x, .)|^2 to K(x, x), so the
    variance is exactly E - sigma int_0^{2 radius} r^{d-1} phi(r)
    |B n (B + r e)| dr: beyond the diameter the shifted balls no longer
    overlap. The closed interval is integrated over the kernel's
    ``radial_panels``, sized to the profile's oscillation, 16 nodes per
    panel and a fixed number of panels at a time. In even d the overlap
    vanishes like (2 radius - r)^((d+1)/2) at the diameter; the last
    panel is graded there, so every panel's integrand is analytic and 16
    nodes reach rounding. The error estimate is the panels' truncation
    error, read off the Legendre coefficients of their own terms
    (``quadrature.legendre_tail``), plus N * eps * E, N being the node
    count. N * eps * E bounds the accumulated rounding:
    * the terms of the sum are non-negative and add up to
      E - value <= E, so numpy's pairwise sum errs by at most 2 eps * E
      on one panel of 16 terms and by about 12 eps * E on a chunk of
      4096, and the chunks, added in sequence, by eps / 2 * E each;
    * the weights carry a few eps of relative error per term, and so
      does the profile where it comes from a series or from numpy's
      sine and cosine (J_1's float series, which cancels on [10, 13),
      carries more: under the integral it reads 1.8e-13 of the variance
      in d = 2 at R = 50, where the estimate is 2.4e-12 of it);
    * on the Paley-Wiener panels sine and cosine come by angle addition
      with a few eps of absolute, not relative, error. Where K is small
      that is a large relative error of phi = K^2, but for an absolute
      error delta, r^{d-1} times 2 |K| times the amplitude's sensitivity
      to it integrates, over the panels between the first, which starts
      at r = 0 where the addition returns numpy's sine and cosine of the
      offsets, and the graded last one, which takes numpy's, to less
      than delta * E in d = 1, 2, 3 (0.25, 0.18 and 0.89 delta * E over
      r >= pi);
    * the overlap c_d R^d - lens carries an absolute eps * c_d R^d,
      which sums to at most eps * E since sigma int r^{d-1} phi =
      K(x, x), and the subtraction from E adds eps * E.
    On one or two panels (N = 16 or 32, radius <= pi on the Paley-Wiener
    panels of width pi) no node takes angle addition, and they total
    about 12 eps * E; with angle addition, which enters from the third
    panel on (N >= 48), under 20 eps * E plus eps / 2 * E per chunk of
    4096 nodes. N * eps * E covers both.
    """
    if not 0 < radius < math.inf:  # a NaN radius fails as well
        raise ValueError(f"radius must be positive and finite, got {radius}")
    d = kernel.ambient_dim
    ball = unit_ball_volume(d) * radius ** d
    e_count = kernel.diagonal_value * ball

    total, tail, count = 0.0, 0.0, 0
    try:
        for nodes, weights, phi in kernel.radial_panels(0.0, 2.0 * radius):
            overlap = ball - lens_volume_exact_many(d, nodes, radius)
            terms = weights * nodes ** (d - 1) * phi * overlap
            total += float(np.sum(terms))
            tail += legendre_tail(terms)
            count += nodes.size
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"radial variance at radius {radius:g}: "
                                 f"{exc}") from None
    sigma = unit_sphere_area(d)
    error = float(sigma * tail + count * np.finfo(float).eps * e_count)
    return RadialVariance(value=e_count - sigma * total, error_estimate=error)


def variance_subadditive_upper(kernel: Kernel,
                               union: DisjointBallUnion) -> float:
    """Upper bound for the union's variance: sum over its balls.

    Valid because disjoint windows have negatively correlated counts and
    the kernels here are translation invariant. For a dilated union pass
    ``union.dilate(scale)``: disjointness survives dilation by
    homogeneity.
    """
    return sum(variance_radial(kernel, b.radius).value for b in union.balls)


# ---------------------------------------------------------------------------
# hyperuniformity curves and the log-variance asymptotics


@dataclass(frozen=True)
class CurvePoint:
    scale: float
    e_count: float
    var_spectral: float | None
    var_radial: float | None
    ratio: float


def hyperuniformity_curve(kernel: Kernel, region: Region, scales,
                          spectral: str = "off",
                          node_cap: int = DEFAULT_NODE_CAP,
                          nodes_per_unit: float | None = None):
    """(scale, E, var, var/E) along dilations of a ball or ball union.

    The radial route reads each dilated window: a ball, or a union whose
    balls bound it from above. The spectral column (``spectral`` "off",
    "on" or "auto") uses ``discretize.window_grid`` at ``nodes_per_unit``,
    where None means ``NODES_PER_UNIT`` in one dimension and the finest
    grid within the node cap above. "on" fills it at every scale, a grid
    beyond the cap raising ResourceLimitError; "auto" fills it at every
    scale if every grid fits the cap with spacing at most a quarter
    correlation length, else at none. The ratio column is the
    hyperuniformity diagnostic and should decay along the ladder. An
    expected count that underflows raises FloatingPointError, one that
    overflows OverflowError, each naming the scale. Invalid resolution
    arguments raise ValueError even when the spectral route is off.
    """
    if spectral not in ("off", "on", "auto"):
        raise ValueError(f"spectral must be off, on or auto, got {spectral!r}")
    check_resolution(node_cap, nodes_per_unit)
    scales = [float(s) for s in scales]
    windows = [region.dilate(s) for s in scales]
    if nodes_per_unit is None and kernel.ambient_dim == 1:
        nodes_per_unit = NODES_PER_UNIT
    grids, dropped = [None] * len(windows), "the spectral route is off"
    if spectral != "off":
        limit = kernel.correlation_length() / 4.0
        try:
            built = [window_grid(w, node_cap, nodes_per_unit) for w in windows]
        except ResourceLimitError as exc:
            if spectral == "on":
                raise
            dropped = f"auto dropped the spectral route: {exc}"
        else:
            coarse = max((float(g.spacing.max()) for g in built), default=0.0)
            if spectral == "on" or coarse <= limit:
                grids, dropped = built, None
            else:
                dropped = (f"auto dropped the spectral route: grid spacing "
                           f"{coarse:.3g} exceeds a quarter correlation "
                           f"length, {limit:.3g}")
    if dropped and not isinstance(region, (Ball, DisjointBallUnion)):
        raise ValueError(f"no variance route: the window is not a ball or a "
                         f"ball union, so it has no radial route, and "
                         f"{dropped}")
    points = []
    for scale, window, grid in zip(scales, windows, grids):
        try:
            e_count = expected_count(kernel, window)
        except (FloatingPointError, OverflowError) as exc:
            raise type(exc)(f"at scale {scale:g}: {exc.args[-1]}") from None
        if isinstance(window, Ball):
            var_rad = variance_radial(kernel, window.radius).value
        elif isinstance(window, DisjointBallUnion):
            var_rad = variance_subadditive_upper(kernel, window)
        else:
            var_rad = None
        var_spec = None if grid is None else variance_spectral(
            spectral_decompose(assemble_operator(kernel, grid)))
        best = var_rad if var_rad is not None else var_spec
        points.append(CurvePoint(scale=scale, e_count=e_count,
                                 var_spectral=var_spec, var_radial=var_rad,
                                 ratio=best / e_count))
    return points


def asymptotic_constant(d: int) -> float:
    """Leading log(R) R^{d-1} variance coefficient of the band-limited family."""
    if d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    return 1.0 / (2.0 ** (d - 1) * math.pi ** 1.5
                  * math.gamma((d + 1) / 2.0) * math.gamma(d / 2.0))


def asymptotic_constant_geometric(d: int) -> float:
    """The same coefficient as c_{d-1} sigma_{d-1} / (2^d pi^{d+1}).

    This is the form the coefficient takes before the Gamma-function
    simplification: the lens prefactor 2 c_{d-1}, the sphere area
    sigma_{d-1}, the profile normalization (2 pi)^{-d}, the 1/pi of the
    squared-Bessel mean, and the 1/(2R) of the leading series term.
    """
    if d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    return (_ball_volume_unchecked(d - 1) * unit_sphere_area(d)
            / (2.0 ** d * math.pi ** (d + 1)))


@dataclass(frozen=True)
class AsymptoticFit:
    """var / R^{dim-1} ~ slope log R + intercept, fitted on the radii from
    ``window_low`` up; ``reference_constant`` is the predicted slope."""

    dim: int
    slope: float
    intercept: float
    reference_constant: float
    window_low: float

    @property
    def relative_deviation(self) -> float:
        return abs(self.slope - self.reference_constant) / self.reference_constant


def fit_asymptotics(dim: int, scales, variances) -> AsymptoticFit:
    """Regress var / R^{d-1} on log R over the largest half-decade.

    The restriction to the top half-decade keeps the O(R^{d-1})
    correction from contaminating the slope; radii must span at least a
    decade so that a half-decade window exists comfortably.
    """
    scales = np.asarray([float(s) for s in scales])
    variances = np.asarray([float(v) for v in variances])
    if scales.size != variances.size or scales.size < 4:
        raise FitRangeError("need at least four (scale, variance) pairs")
    if scales.max() < 10.0 * scales.min() * (1.0 - 1e-12):
        raise FitRangeError(
            f"scales span {scales.max() / scales.min():.2f}x; one decade required"
        )
    window_low = scales.max() / math.sqrt(10.0)
    sel = scales >= window_low * (1.0 - 1e-12)
    if sel.sum() < 3:
        raise FitRangeError("fewer than three points in the top half-decade")
    y = variances[sel] / scales[sel] ** (dim - 1)
    x = np.log(scales[sel])
    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    return AsymptoticFit(dim=dim, slope=float(slope), intercept=float(intercept),
                         reference_constant=asymptotic_constant(dim),
                         window_low=float(window_low))
