"""Closed-form projection kernels and the Bessel evaluation they need.

Two translation-invariant families are provided:

* ``GinibreKernel(m)`` on R^{2m}: complex Gaussian kernel with
  |K(z,w)|^2 = exp(-pi |z-w|^2) and unit diagonal.
* ``PaleyWienerKernel(d)`` on R^d, d in {1,2,3}: band limitation to the
  unit Fourier ball, K(x,y) = (2 pi)^{-d/2} J_{d/2}(|x-y|) / |x-y|^{d/2};
  for d = 1 this is the sine kernel sin(r)/(pi r).

Both have squared modulus depending on |x-y| only, which is what the
radial variance machinery consumes. Being projections, both satisfy
int |K(x,y)|^2 dy = K(x,x), so the radial variance on a ball of radius
R is a closed integral over [0, 2R] and needs no bound on the profile
tail.

The sine kernel's block K(x_i, y_j) between M rows and n columns takes
no sine per entry: it is (sin x cos y - cos x sin y) / (pi (x - y)),
whose numerator is the rank-2 product of the 2(M + n) sines and cosines
of the points, with an absolute error of a few 1e-16 for any x and y.
Dividing by pi |x - y| >= pi/2 keeps that below 2e-16; entries with
|x - y| < 1/2 take the Bessel form instead, whose error is relative, and
so do blocks too thin for the 2(M + n) values to save work. Distances
in d >= 2 are accumulated one axis at a time, with no M x n x d
temporary.

On a product lattice both families also give per-axis tables
(``axis_factors``, ``LatticeFactors``): the Ginibre kernel factors
exactly over the real axes, and the Paley-Wiener kernel in d = 2 and 3
is a sum of plane waves over the unit Fourier ball, which a polar Gauss
rule reproduces to rounding; |K|^2 is one over the ball of radius 2,
weighted by the unit ball's covariogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import unit_ball_volume, unit_sphere_area
from .quadrature import (geometric_edges, panel_nodes, trapezoid_circle,
                         uniform_edges)

_SUPPORTED_BESSEL_ORDERS = (0.5, 1.0, 1.5)
_J1_CROSSOVER = 13.0
# correlation length = smallest r with envelope(phi)(r) < 1e-4 phi(0),
# capped for slowly decaying profiles
_CORRELATION_DROP = 1e-4
_CORRELATION_LENGTH_CAP = 20.0
# sine-kernel entries with |x - y| below this keep the Bessel form, so
# the angle-addition numerator's absolute error is never divided by less
_SINE_ADDITION_MIN_DIST = 0.5
# truncation tolerance of the plane-wave rules of the Paley-Wiener
# lattice factors (see _fourier_order). Entry by entry, the d = 2 rule
# for |K|^2 errs by 9.4e-15 of its maximum at 1e-13; from 1e-14 on, every
# rule in d = 2 and 3, and the fields of d = 2 disks and a box and of a
# d = 3 ball against scipy's j1 and spherical_jn, err by at most 4.6e-15
_PLANE_WAVE_TOL = 1e-15


def bessel_j(nu: float, x) -> np.ndarray | float:
    """Bessel function of the first kind for orders d/2, d in {1,2,3}.

    Half-integer orders use their trigonometric closed forms (with a
    short power series below x = 0.6 where the nu = 3/2 form cancels).
    Order 1 uses the ascending power series up to x = 13 and a fixed
    24-term Hankel asymptotic expansion beyond; at the crossover both
    branches carry relative error below 1e-11, and in float64 the
    series cannot be pushed further without losing digits to
    cancellation.
    """
    if nu not in _SUPPORTED_BESSEL_ORDERS:
        raise ValueError(
            f"unsupported Bessel order {nu}; supported: {_SUPPORTED_BESSEL_ORDERS}"
        )
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0):
        raise ValueError("bessel_j is defined here for x >= 0 only")
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)

    if nu == 0.5:
        out = np.zeros_like(x_arr)
        pos = x_arr > 0
        xp = x_arr[pos]
        out[pos] = np.sqrt(2.0 / (math.pi * xp)) * np.sin(xp)
    elif nu == 1.5:
        out = np.empty_like(x_arr)
        lo = x_arr < 0.6
        out[lo] = _j_series(1.5, x_arr[lo], n_terms=12)
        xp = x_arr[~lo]
        out[~lo] = np.sqrt(2.0 / (math.pi * xp)) * (np.sin(xp) / xp - np.cos(xp))
    else:  # nu == 1.0
        out = np.empty_like(x_arr)
        lo = x_arr < _J1_CROSSOVER
        out[lo] = _j_series(1.0, x_arr[lo], n_terms=40)
        out[~lo] = _j1_hankel(x_arr[~lo])

    return float(out[0]) if scalar else out


def _j_series(nu: float, x: np.ndarray, n_terms: int) -> np.ndarray:
    """Ascending power series sum_k (-1)^k (x/2)^{2k+nu} / (k! G(1+nu+k)).

    Each term is the previous one times -(x/2)^2 over (k+1)(k+1+nu),
    updated in place: two arrays of x's size live through the loop.
    """
    half = 0.5 * x
    term = half ** nu / math.gamma(1.0 + nu)
    total = term.copy()
    neg_h2 = np.negative(half * half, out=half)
    for k in range(n_terms):
        np.multiply(term, neg_h2, out=term)
        np.divide(term, (k + 1.0) * (k + 1.0 + nu), out=term)
        total += term
    return total


def _j1_hankel(x: np.ndarray) -> np.ndarray:
    """Large-argument asymptotic for J_1; valid for x >= ~13.

    24 terms put the truncation floor near e^{-2x} at the crossover and
    the terms are still shrinking there, so a fixed count is safe for
    every larger x as well.
    """
    mu = 4.0
    inv8x = 1.0 / (8.0 * x)
    p = np.ones_like(x)
    q = np.zeros_like(x)
    term = np.ones_like(x)
    for j in range(1, 25):
        term = term * (mu - (2 * j - 1) ** 2) * inv8x / j
        signed = term if j % 4 in (0, 1) else -term
        if j % 2 == 1:
            q = q + signed
        else:
            p = p + signed
    w = x - 0.75 * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(w) - q * np.sin(w))


# ---------------------------------------------------------------------------
# lattice factors


@dataclass(frozen=True, eq=False)
class LatticeFactors:
    """One kernel sum on a product lattice as a contraction over a rank r:

        sum_y L(x, y) v(y) = sum_r prod_k tables[k][i_k(x), r] b[r],

    where i_k(x) indexes x's k-th coordinate in the lattice's k-th axis
    and L is K or |K|^2. With ``waves`` None the rank is the window node
    and b = v. Otherwise rank r is the plane wave exp(i waves[r] . x) of
    a rule symmetric under waves -> -waves that keeps one wave of each
    such pair, b[r] = scale[r] sum_y exp(-i waves[r] . (y - origin)) v(y)
    (the tables hold exp(i waves[r, k] (x_k - origin_k))), and for real
    v the sum is the real part of the contraction, ``scale`` carrying the
    factor 2 of each pair.
    """

    tables: tuple
    waves: np.ndarray | None = None
    scale: np.ndarray | None = None
    origin: np.ndarray | None = None


def _fourier_order(x: float) -> int:
    """Smallest N with (x/2)^N / N! <= _PLANE_WAVE_TOL.

    J_N(x) <= (x/2)^N / N!, and J_N(x) is the error term of an N-point
    trapezoid rule for exp(i x cos theta) on the circle, and of an
    N/2-point Gauss rule for exp(i x t) on [-1, 1].
    """
    n, term = 0, 1.0
    while term > _PLANE_WAVE_TOL:
        n += 1
        term *= 0.5 * x / n
    return n


def _plane_waves(axes, origin, radii, w_radii, dirs, w_dirs, norm):
    """``LatticeFactors`` of the waves radii x dirs about ``origin``,
    weighted norm * w_radii * w_dirs and doubled for the dropped half of
    each antipodal pair."""
    waves = (radii[:, None, None] * dirs[None]).reshape(-1, len(axes))
    scale = (2.0 * norm) * np.multiply.outer(w_radii, w_dirs).ravel()
    tables = tuple(np.exp(1j * np.multiply.outer(axis - o, waves[:, k]))
                   for k, (axis, o) in enumerate(zip(axes, origin)))
    return LatticeFactors(tables, waves, scale, origin)


def _half_sphere(d: int, x: float):
    """Directions and weights of a rule on the unit sphere S^{d-1} that
    integrates exp(i x u . theta) to the truncation tolerance for every
    unit u, keeping one direction of each antipodal pair. With
    N = _fourier_order(x) rounded up to an even m: the m/2 angles in
    [0, pi) of the m-point trapezoid rule, times ceil(N/2) Gauss nodes in
    cos(polar angle) for d = 3."""
    n = _fourier_order(x)
    m = 2 * -(-n // 2)
    phi, w = trapezoid_circle(m)
    phi, w = phi[:m // 2], w[:m // 2]
    if d == 2:
        return np.column_stack([np.cos(phi), np.sin(phi)]), w
    t, wt = panel_nodes([-1.0, 1.0], -(-n // 2))
    st = np.sqrt((1.0 - t) * (1.0 + t))
    dirs = np.stack([np.multiply.outer(st, np.cos(phi)),
                     np.multiply.outer(st, np.sin(phi)),
                     np.repeat(t[:, None], len(phi), axis=1)], axis=-1)
    return dirs.reshape(-1, 3), np.multiply.outer(wt, w).ravel()


# ---------------------------------------------------------------------------
# kernels


class Kernel:
    """Shared interface: Hermitian translation-invariant radial kernels.

    The radial variance route uses ``diagonal_value``, ``radial_profile``
    and ``radial_panel_edges`` on [0, 2R] only: the projection identity
    int |K(x,y)|^2 dy = K(x,x) replaces everything beyond the diameter.
    """

    ambient_dim: int
    diagonal_value: float
    name: str

    def eval_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def axis_factors(self, axes, ys: np.ndarray, square: bool = False):
        """Lattice factors of L = K, or L = |K|^2 with ``square``, for n
        points ys.

        On the product lattice of ``axes`` (one coordinate array per real
        axis) they give sum_y L(x, y) v(y) for any v on ys as one
        ``LatticeFactors`` contraction. None when the kernel has no such
        factors; callers then evaluate blocks of ``eval_matrix``.
        """
        return None

    def radial_profile(self, r) -> np.ndarray | float:
        """phi(r) = |K(x,y)|^2 for any pair with |x-y| = r."""
        raise NotImplementedError

    def _points(self, pts) -> np.ndarray:
        """``pts`` as an n x ambient_dim float array; the one dimension
        check of every kernel evaluation."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != self.ambient_dim:
            raise ValueError(f"points must lie in R^{self.ambient_dim}, "
                             f"got shape {pts.shape}")
        return pts

    def eval(self, x, y):
        """K(x, y) for one pair of points."""
        x = np.asarray(x, dtype=float).reshape(1, -1)
        y = np.asarray(y, dtype=float).reshape(1, -1)
        return self.eval_matrix(x, y)[0, 0]

    def correlation_length(self) -> float:
        """Smallest r with envelope(phi)(r) below 1e-4 phi(0), capped."""
        raise NotImplementedError

    def radial_panel_edges(self, a: float, b: float) -> np.ndarray:
        """Panel edges resolving the radial profile's structure on [a, b]."""
        raise NotImplementedError


@dataclass(frozen=True)
class GinibreKernel(Kernel):
    """Gaussian-modulus projection kernel on R^{2m} = C^m."""

    complex_dim: int = 1

    def __post_init__(self):
        if self.complex_dim not in (1, 2):
            raise ValueError("complex_dim must be 1 or 2")

    @property
    def ambient_dim(self) -> int:
        return 2 * self.complex_dim

    @property
    def diagonal_value(self) -> float:
        return 1.0

    @property
    def name(self) -> str:
        return "ginibre"

    def _to_complex(self, pts: np.ndarray) -> np.ndarray:
        pts = self._points(pts)
        return pts[:, 0::2] + 1j * pts[:, 1::2]

    def eval_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        z = self._to_complex(xs)
        w = self._to_complex(ys)
        cross = z @ w.conj().T
        zn = 0.5 * np.sum(np.abs(z) ** 2, axis=1)
        wn = 0.5 * np.sum(np.abs(w) ** 2, axis=1)
        return np.exp(math.pi * (cross - zn[:, None] - wn[None, :]))

    def axis_factors(self, axes, ys: np.ndarray, square: bool = False):
        """Exact per-axis factors F_k, ranked by the window node: with
        z = s + it and w = u + iv,

            K(z, w) = exp(-pi (s-u)^2/2 - i pi s v)
                      * exp(-pi (t-v)^2/2 + i pi t u),

        and for complex_dim 2 the product of one such pair per complex
        coordinate. Axis k pairs with axis k ^ 1, its complex partner.
        The factors of |K|^2 are the squared moduli
        |F_k|^2 = exp(-pi (x_k - y_k)^2), built as real tables.
        """
        ys = self._points(ys)
        if len(axes) != self.ambient_dim:
            raise ValueError(
                f"need {self.ambient_dim} axes, got {len(axes)}")
        tables = []
        for k, axis in enumerate(axes):
            a = np.asarray(axis, dtype=float)[:, None]
            if square:
                tables.append(np.exp(-math.pi * (a - ys[:, k]) ** 2))
                continue
            # -pi s v on a real axis, +pi t u on an imaginary one
            phase = (math.pi if k % 2 else -math.pi) * (a * ys[:, k ^ 1])
            tables.append(np.exp(-0.5 * math.pi * (a - ys[:, k]) ** 2
                                 + 1j * phase))
        return LatticeFactors(tuple(tables))

    def radial_profile(self, r):
        r = np.asarray(r, dtype=float)
        out = np.exp(-math.pi * r * r)
        return float(out) if out.ndim == 0 else out

    def correlation_length(self) -> float:
        return min(math.sqrt(-math.log(_CORRELATION_DROP) / math.pi),
                   _CORRELATION_LENGTH_CAP)

    def radial_panel_edges(self, a: float, b: float) -> np.ndarray:
        return geometric_edges(a, b, first_width=0.25, growth=1.4)


@dataclass(frozen=True)
class PaleyWienerKernel(Kernel):
    """Band-limiting projection kernel on R^d (Fourier support = unit ball)."""

    dim: int = 1

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")

    @property
    def ambient_dim(self) -> int:
        return self.dim

    @property
    def diagonal_value(self) -> float:
        return unit_ball_volume(self.dim) / (2.0 * math.pi) ** self.dim

    @property
    def name(self) -> str:
        return "sine" if self.dim == 1 else "paley-wiener"

    def _profile_amplitude(self, r: np.ndarray) -> np.ndarray:
        """K as a function of the distance r (real valued)."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        if scalar:
            r = r.reshape(1)
        out = np.full(r.shape, self.diagonal_value)
        far = r > 1e-8
        rf = r[far]
        nu = self.dim / 2.0
        out[far] = bessel_j(nu, rf) / ((2.0 * math.pi) ** nu * rf ** nu)
        return out[0] if scalar else out

    def eval_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The M x n block K(x_i, y_j).

        For d = 1, when the M n entries outnumber the 2(M + n) sines and
        cosines of the points, i.e. (M - 2)(n - 2) > 4, entries with
        |x - y| >= 1/2 are (sin x cos y - cos x sin y) / (pi (x - y)),
        the numerator a rank-2 product: its absolute error of a few
        1e-16, divided by at least pi/2, stays under 2e-16. Entries with
        |x - y| < 1/2, thinner blocks such as single operator columns,
        and d >= 2 take ``_profile_amplitude`` of the distance, whose
        square is accumulated axis by axis in one M x n array (in the
        order of a sum over the axes) and rooted in place.
        """
        xs, ys = self._points(xs), self._points(ys)
        if self.dim == 1 and len(xs) * len(ys) > 2 * (len(xs) + len(ys)):
            return self._sine_matrix(xs[:, 0], ys[:, 0])
        return self._distance_matrix(xs, ys)

    def _distance_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The block as ``_profile_amplitude`` of the distances."""
        dist = np.subtract.outer(xs[:, 0], ys[:, 0])
        dist *= dist
        for k in range(1, self.dim):
            diff = np.subtract.outer(xs[:, k], ys[:, k])
            diff *= diff
            dist += diff
        return self._profile_amplitude(np.sqrt(dist, out=dist))

    def _sine_matrix(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The d = 1 block by angle addition, for points x and y."""
        r = np.subtract.outer(x, y)
        out = np.abs(r)
        near = out < _SINE_ADDITION_MIN_DIST
        near_dist = out[near]
        np.matmul(np.stack([np.sin(x), -np.cos(x)], axis=1),
                  np.stack([np.cos(y), np.sin(y)]), out=out)
        r *= math.pi
        # r = 0 only on entries that the Bessel form overwrites
        with np.errstate(divide="ignore", invalid="ignore"):
            out /= r
        out[near] = self._profile_amplitude(near_dist)
        return out

    def axis_factors(self, axes, ys: np.ndarray, square: bool = False):
        """Plane-wave factors for d = 2 and 3 (None for d = 1).

        K(x, y) = (2 pi)^{-d} int_{|xi| <= 1} exp(i xi . (x - y)) dxi is
        taken by a polar rule on the unit ball: Gauss-Legendre radii with
        weight rho^{d-1} times ``_half_sphere`` directions. |K|^2 has
        Fourier transform (2 pi)^{-2d} g(eta), g the covariogram of the
        unit ball (zero beyond |eta| = 2), whose radius is substituted as
        |eta| = 2 cos(phi), phi in [0, pi/2], so that the radial integrand
        is analytic: g = 2 phi - sin(2 phi) (d = 2) and (8 pi / 3)
        (2 + cos phi) sin^4(phi/2) (d = 3). Each rule is sized from the
        largest phase it must integrate: the diameter D of the bounding
        box of the lattice and ys times the bandwidth, 1 for K and 2 for
        |K|^2. Phases are taken about the box's centre. None as well when
        the image rule has more waves than ys has points: the pass then
        costs more than the kernel blocks it replaces (d = 3: 1.9 s
        against 0.46 s for 4536 waves and 864 points, 0.45 s for both at
        1859 waves and 2112 points). The |K|^2 rule follows the same
        gate, so K and |K|^2 take the same route on one lattice; only the
        requested rule's plane waves are built.
        """
        if self.dim == 1:
            return None
        ys = self._points(ys)
        if len(axes) != self.dim:
            raise ValueError(f"need {self.dim} axes, got {len(axes)}")
        axes = [np.asarray(axis, dtype=float) for axis in axes]
        lo = np.minimum([axis.min() for axis in axes],
                        ys.min(axis=0, initial=np.inf))
        hi = np.maximum([axis.max() for axis in axes],
                        ys.max(axis=0, initial=-np.inf))
        origin = 0.5 * (lo + hi)
        diameter = float(np.linalg.norm(hi - lo))
        d = self.dim
        # _fourier_order(x) > x / 2, so the image rule has more than
        # (diameter / 8) (diameter / 4)^(d-1) waves: no rule is sized,
        # let alone built, for a lattice far wider than the window
        if diameter / 8.0 * (diameter / 4.0) ** (d - 1) >= len(ys):
            return None
        # images: rho in [0, 1], phases up to diameter * rho
        rho, w_rho = panel_nodes([0.0, 1.0], -(-(
            _fourier_order(0.5 * diameter) + d - 1) // 2))
        dirs, w_dirs = _half_sphere(d, diameter)
        if len(rho) * len(dirs) > len(ys):
            return None
        if not square:
            return _plane_waves(axes, origin, rho, w_rho * rho ** (d - 1),
                                dirs, w_dirs, (2.0 * math.pi) ** -d)
        # |K|^2: |eta| = 2 cos(phi), phases up to 2 diameter cos(phi),
        # whose frequency in phi, 2 diameter at most, the weight's
        # sin(phi), cos(phi)^(d-1) and sin(2 phi) raise by d + 2 and its
        # linear term in phi by one degree
        phi, w_phi = panel_nodes([0.0, 0.5 * math.pi], -(-(_fourier_order(
            0.25 * math.pi * (2.0 * diameter + d + 2)) + 1) // 2))
        s = 2.0 * np.cos(phi)
        if d == 2:
            g = 2.0 * phi - np.sin(2.0 * phi)
        else:
            g = 8.0 * math.pi / 3.0 * (2.0 + np.cos(phi)) \
                * np.sin(0.5 * phi) ** 4
        return _plane_waves(axes, origin, s,
                            w_phi * s ** (d - 1) * 2.0 * np.sin(phi) * g,
                            *_half_sphere(d, 2.0 * diameter),
                            (2.0 * math.pi) ** (-2 * d))

    def radial_profile(self, r):
        out = np.asarray(self._profile_amplitude(r)) ** 2
        return float(out) if out.ndim == 0 else out

    def correlation_length(self) -> float:
        # envelope phi(r) <= 2 / ((2 pi)^d pi r^{d+1})
        d = self.dim
        phi0 = self.diagonal_value ** 2
        r = (2.0 / (math.pi * (2.0 * math.pi) ** d * _CORRELATION_DROP * phi0)) \
            ** (1.0 / (d + 1))
        return min(r, _CORRELATION_LENGTH_CAP)

    def radial_panel_edges(self, a: float, b: float) -> np.ndarray:
        return uniform_edges(a, b, max_width=0.5 * math.pi)


def sine_kernel() -> PaleyWienerKernel:
    """The d = 1 member: K(x,y) = sin(x-y) / (pi (x-y))."""
    return PaleyWienerKernel(1)


def radial_normalization_check(kernel: Kernel, r_max: float) -> float:
    """Residual of the projection-kernel admissibility identity.

    For a radial projection kernel, integrating phi over R^d must
    reproduce the diagonal: d c_d int_0^inf r^{d-1} phi(r) dr =
    sqrt(phi(0)). Returns the truncated-integral residual; its size is
    limited by the profile tail beyond r_max.
    """
    if r_max <= 0:
        raise ValueError("r_max must be positive")
    d = kernel.ambient_dim
    edges = kernel.radial_panel_edges(0.0, r_max)
    nodes, weights = panel_nodes(edges)
    integral = float(np.sum(weights * nodes ** (d - 1) * kernel.radial_profile(nodes)))
    if not np.isfinite(integral):
        raise ArithmeticError("radial quadrature produced a non-finite value")
    return unit_sphere_area(d) * integral - math.sqrt(kernel.radial_profile(0.0))
