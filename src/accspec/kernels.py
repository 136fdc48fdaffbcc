"""Closed-form projection kernels and the Bessel amplitude they need.

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

A Paley-Wiener block K(x_i, y_j) is the amplitude of the distances,
one sine (and for d >= 2 one cosine) per entry beyond the series range;
the squared distances are accumulated one axis at a time, with no
M x n x d temporary. The radial quadrature of the Paley-Wiener
profiles (``radial_panels``) takes its sines and cosines by angle
addition: its panels are uniform, so every node is a panel start plus
one of the Gauss offsets that all panels share, but for those of the
graded last panel, which take numpy's.

A field on an evaluation grid is a kernel sum sum_y L(x,y) v(y) over
the window points y, with L = K or |K|^2 (``Kernel.field_sum``). When
the grid is a product lattice, a kernel with lattice factors gives, for
K or for |K|^2, per-axis tables over a rank together with what the rank
contracts against. The Ginibre kernel factors exactly over the real
axes, and its rank is the window node. The Paley-Wiener kernel is a sum
of plane waves over the unit Fourier ball, which a polar Gauss rule
reproduces to rounding, and |K|^2 one over the ball of radius 2,
weighted by the unit ball's covariogram; its rank is a plane wave of the
rule, contracted against the window's phase sums, which are built a few
rows at a time. In d = 1 the lattice is the whole grid, an arithmetic
axis x_0 + j h, which is split as j = b j_1 + j_2 into a coarse and a
fine axis of about sqrt(M) nodes each: exp(i xi x_j) is the product of
their tables, so no M x rank table is formed. Either way the sum forms
no kernel block: a sum against k vectors is one GEMM of a trailing-axis
table per index of the leading axes, and a sum against one vector one
matrix-vector product. Other kernels, and points off a lattice, evaluate
M x n blocks of ``eval_matrix`` a few rows at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import unit_ball_volume, unit_sphere_area
from .quadrature import (DEFAULT_NODES_PER_PANEL, geometric_edges,
                         graded_end_panel, panel_nodes, trapezoid_circle,
                         uniform_panel_count)

_J1_CROSSOVER = 13.0
# below these distances the Paley-Wiener amplitude in dimension d takes
# its power series, for d = 1 the diagonal value, and from them on sin r
# and cos r
_SERIES_BELOW = {1: 1e-8, 2: _J1_CROSSOVER, 3: 0.6}
_SERIES_TERMS = {1.0: 40, 1.5: 12}
# whole panels per radial quadrature chunk, 4096 nodes: keeps the
# per-node temporaries (nodes, weights, profile, and the caller's) the
# same size at every radius
_CHUNK_PANELS = 4096 // DEFAULT_NODES_PER_PANEL
# correlation length = smallest r with envelope(phi)(r) < 1e-4 phi(0),
# capped for slowly decaying profiles
_CORRELATION_DROP = 1e-4
_CORRELATION_LENGTH_CAP = 20.0
# truncation tolerance of the plane-wave rules of the Paley-Wiener
# lattice factors (see _fourier_order). Entry by entry, the d = 2 rule
# for |K|^2 errs by 9.4e-15 of its maximum at 1e-13; from 1e-14 on, every
# rule in d = 2 and 3, and the fields of d = 2 disks and a box and of a
# d = 3 ball against scipy's j1 and spherical_jn, err by at most 4.6e-15.
# In d = 1 the rules err by 1.3e-15 on a lattice 3 wide and by 2.2e-14
# (|K|^2) on a sine ladder's lattice 192 wide, where the rounding of
# phases up to 384 sets the error, not the rule
_PLANE_WAVE_TOL = 1e-15
# entries per kernel block of a field sum: a complex block of 2^16
# entries (1 MB) and eval_matrix's temporaries stay in cache, where a
# fixed row count would stream every elementwise pass through memory;
# the lattice route folds axes into its trailing table up to this size
# and builds its plane-wave window phases in blocks of this size
_BLOCK_ENTRIES = 1 << 16
# a d = 1 lattice axis is split as an arithmetic progression; the nodes
# of build_eval_grid deviate from the progression through their ends by
# at most 2.9 eps of their largest coordinate (20000 random grids)
_ARITHMETIC_TOL = 16.0 * np.finfo(float).eps


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


def _hankel_coefficients(n_terms: int = 24):
    """J_1's Hankel expansion P(y) = sum_k p_k y^k and Q(y) = sum_k q_k
    y^k in y = 1/x^2, highest power first: the j-th of its ``n_terms``
    terms is +-a_j / x^j, a_j = prod_{i <= j} (4 - (2i - 1)^2) / (8 i),
    the even ones in P and the odd ones, over x, in Q. 24 terms put the
    truncation floor near e^{-2x} at the crossover x = 13 and the terms
    are still shrinking there, so a fixed count is safe for every larger
    x as well."""
    p, q, a = [1.0], [], 1.0
    for j in range(1, n_terms + 1):
        a *= (4.0 - (2 * j - 1) ** 2) / (8.0 * j)
        (q if j % 2 else p).append(a if j % 4 in (0, 1) else -a)
    return tuple(p[::-1]), tuple(q[::-1])


_J1_P, _J1_Q = _hankel_coefficients()


def _j1_hankel(x: np.ndarray, sin_x: np.ndarray,
               cos_x: np.ndarray) -> np.ndarray:
    """Large-argument asymptotic for J_1, valid for x >= ~13, from x and
    its sine and cosine: sqrt(2 / (pi x)) (P cos w - Q sin w / x) with
    the phase w = x - 3 pi/4 taken by rotating (sin x, cos x), which is
    (P (sin x - cos x) + Q (sin x + cos x) / x) / sqrt(pi x). P and Q
    run by Horner's rule in place."""
    y = 1.0 / (x * x)
    p = np.full_like(x, _J1_P[0])
    for coef in _J1_P[1:]:
        p *= y
        p += coef
    q = np.full_like(x, _J1_Q[0])
    for coef in _J1_Q[1:]:
        q *= y
        q += coef
    q /= x
    return (p * (sin_x - cos_x) + q * (sin_x + cos_x)) / np.sqrt(math.pi * x)


# ---------------------------------------------------------------------------
# lattice sums


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


def _contract(tables, side: np.ndarray, real: bool = False) -> np.ndarray:
    """sum_r prod_k tables[k][i_k(x), r] side[r] at every point x of the
    lattice whose k-th axis table is tables[k], in C order; the real part
    with ``real``.

    The trailing table T starts as the last axis's table. While T holds
    fewer than ``_BLOCK_ENTRIES`` entries and more than one axis precedes
    it, the axis just before it is folded in, T becoming the table of
    their product lattice; so a 4-axis lattice runs no GEMM too thin to
    pay for its call, and the 2 axes of C^1 never form an M x rank
    table. For each index of the remaining leading axes, r = prod
    tables[k][i_k] over those axes is one row of the rank, and the
    lattice rows under that index get ``T @ (r * side)``, one GEMM (or
    matrix-vector product). The real part of a complex product is one
    real product of [Re T, -Im T] with the stacked [Re; Im] of r * side.
    """
    rank = side.shape[0]
    lead = len(tables) - 1
    trailing = tables[lead]
    while lead > 1 and trailing.size < _BLOCK_ENTRIES:
        lead -= 1
        trailing = (tables[lead][:, None] * trailing).reshape(-1, rank)
    if real:
        trailing = np.concatenate([trailing.real, -trailing.imag], axis=1)
    rows = trailing.shape[0]
    leading = [range(len(table)) for table in tables[:lead]]
    m = rows * math.prod(len(axis) for axis in leading)
    out = np.empty((m,) + side.shape[1:],
                   float if real else np.result_type(trailing, side))
    for block, index in enumerate(itertools.product(*leading)):
        r = math.prod(table[i] for table, i in zip(tables, index))
        scaled = r[:, None] * side if side.ndim == 2 else r * side
        if real:
            scaled = np.concatenate([scaled.real, scaled.imag])
        np.matmul(trailing, scaled, out=out[block * rows:(block + 1) * rows])
    return out


def _phase_sums(waves, scale, origin, ys, vecs) -> np.ndarray:
    """b = scale * (E^* vecs) for the rank x n phase table E[r, y] =
    exp(i waves[r] . (y - origin)), built ``_BLOCK_ENTRIES // n`` rows at
    a time (at least one)."""
    shifted = ys - origin
    rank = len(waves)
    side = np.empty((rank,) + vecs.shape[1:], complex)
    rows = max(1, _BLOCK_ENTRIES // max(1, len(ys)))
    for start in range(0, rank, rows):
        stop = min(start + rows, rank)
        phase = waves[start:stop] @ shifted.T
        side[start:stop].real = np.cos(phase) @ vecs
        np.sin(phase, out=phase)
        side[start:stop].imag = -(phase @ vecs)
    side *= scale if vecs.ndim == 1 else scale[:, None]
    return side


def _plane_wave_sum(lattice, ys, vecs, origin, radii, w_radii, dirs,
                    w_dirs, norm) -> np.ndarray:
    """sum_y L(x, y) vecs[y] on ``lattice`` for the plane-wave rule
    L(x, y) = norm sum_r w_r exp(i waves[r] . (x - y)) over the waves
    radii x dirs, weighted w_radii * w_dirs.

    ``lattice`` lists its axes as pairs (k, t): the coordinates t, taken
    about ``origin``, along the k-th real axis; a point x - origin is the
    sum of one coordinate per axis, placed on its k. The rule is
    symmetric under waves -> -waves and keeps one wave of each pair, so
    for real vecs the sum is the real part of the ``_contract`` of the
    tables exp(i waves[r, k] t) against the ``_phase_sums``, with the
    weights doubled. Complex vecs go through as their real and imaginary
    parts, against one set of tables.
    """
    waves = (radii[:, None, None] * dirs[None]).reshape(-1, len(origin))
    scale = (2.0 * norm) * np.multiply.outer(w_radii, w_dirs).ravel()
    tables = tuple(np.exp(1j * np.multiply.outer(t, waves[:, k]))
                   for k, t in lattice)

    # the phase blocks live in the frame of _phase_sums, which ends
    # before the contraction starts
    def real_sum(v):
        return _contract(tables, _phase_sums(waves, scale, origin, ys, v),
                         real=True)

    if np.iscomplexobj(vecs):
        return real_sum(vecs.real) + 1j * real_sum(vecs.imag)
    return real_sum(vecs)


def _split_axis(axis: np.ndarray, origin: float):
    """The arithmetic axis x_j = x_0 + j h, j < M, as the lattice
    coordinates of j = b j_1 + j_2, b = ceil(sqrt(M)): x_0 - origin +
    b h j_1 for j_1 < ceil(M / b) and h j_2 for j_2 < b, whose sums in C
    order run through the M points and on for fewer than b more. h is
    taken from the axis's ends; an axis off that progression by more
    than ``_ARITHMETIC_TOL`` of its largest coordinate raises ValueError.
    """
    m = len(axis)
    step = (axis[-1] - axis[0]) / (m - 1) if m > 1 else 0.0
    deviation = np.abs(axis - (axis[0] + step * np.arange(m))).max()
    if deviation > _ARITHMETIC_TOL * np.abs(axis).max():
        raise ValueError("lattice axis is not arithmetic: a node is "
                         f"{deviation:.3g} off the progression of its ends")
    b = math.isqrt(m - 1) + 1
    coarse = (axis[0] - origin) + (b * step) * np.arange(-(-m // b))
    return [(0, coarse), (0, step * np.arange(b))]


def _half_sphere(d: int, x: float):
    """Directions and weights of a rule on the unit sphere S^{d-1} that
    integrates exp(i x u . theta) to the truncation tolerance for every
    unit u, keeping one direction of each antipodal pair. With
    N = _fourier_order(x) rounded up to an even m: the m/2 angles in
    [0, pi) of the m-point trapezoid rule, times ceil(N/2) Gauss nodes in
    cos(polar angle) for d = 3. S^0 = {-1, +1} keeps +1, weight 1."""
    if d == 1:
        return np.ones((1, 1)), np.ones(1)
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

    The radial variance route uses ``diagonal_value`` and
    ``radial_panels`` on [0, 2R] only: the projection identity
    int |K(x,y)|^2 dy = K(x,x) replaces everything beyond the diameter.
    """

    ambient_dim: int
    diagonal_value: float
    name: str

    def eval_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def field_sum(self, ys: np.ndarray, vecs: np.ndarray, points: np.ndarray,
                  axes: tuple | None = None,
                  square: bool = False) -> np.ndarray:
        """sum_y L(x, y) vecs[y] at each of the M ``points``, for n window
        points ys and L = K, or L = |K|^2 with ``square``; ``vecs`` holds
        one vector (length n) or k of them (n x k).

        When ``points`` are the product lattice of ``axes`` (one
        coordinate array per real axis, nodes in C order) and the kernel
        has lattice factors there, no M x n block is formed. The axes
        of ``build_eval_grid`` are arithmetic, and the Paley-Wiener
        kernel in d = 1 needs its one axis to be: a node off the
        progression through the axis's ends raises ValueError, as a
        wrong number of axes does. The working memory is then O(M k)
        for the result plus O((M_1 + ... + M_d) R) for tables of rank R,
        M_i being the number of nodes on axis i: the Ginibre factors
        (R = n; for |K|^2 real tables), or the Paley-Wiener rule's plane
        waves (R = the rule's waves, one rule for K and a wider one for
        |K|^2), whose R x n window phases are built at most
        ``_BLOCK_ENTRIES`` entries at a time, and whose d = 1 tables
        take two axes of about sqrt(M) nodes in place of M; plus, for 4
        axes, a folded trailing table of fewer than M_i
        ``_BLOCK_ENTRIES`` entries. Otherwise the M x n block of L comes
        from ``eval_matrix``, ``_BLOCK_ENTRIES // n`` rows at a time (at
        least one; with no points, one empty block gives the dtype), in
        O(_BLOCK_ENTRIES + M k) working memory.
        """
        if axes is not None:
            out = self._lattice_sum(axes, ys, vecs, square)
            if out is not None:
                return out
        m = points.shape[0]
        out = None
        rows = max(1, _BLOCK_ENTRIES // max(1, len(ys)))
        for start in range(0, max(m, 1), rows):
            stop = min(start + rows, m)
            block = self.eval_matrix(points[start:stop], ys)
            if square:
                block = np.abs(block) ** 2
            if out is None:
                out = np.empty((m,) + vecs.shape[1:],
                               np.result_type(block, vecs))
            np.matmul(block, vecs, out=out[start:stop])
        return out

    def _lattice_sum(self, axes, ys, vecs, square):
        """``field_sum`` on the lattice of ``axes`` from the kernel's
        lattice factors; None when it has none there."""
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

    def radial_panels(self, a: float, b: float):
        """Gauss-Legendre quadrature of the radial profile on [a, b], on
        panels sized to its structure: yields (nodes, weights,
        phi(nodes)) for at most ``_CHUNK_PANELS`` whole panels of
        ``DEFAULT_NODES_PER_PANEL`` nodes at a time, panel by panel, so
        that a caller can reshape a chunk to (panels, nodes). The last
        panel, the one ending at b, takes ``graded_end_panel``, so that a
        (b - r)^(k/2) branch of the caller's factor at b (the ball overlap
        at the diameter in even d) leaves the integrand analytic. A panel
        set beyond its cap raises ResourceLimitError at the first chunk,
        before anything of its size is allocated."""
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

    def _lattice_sum(self, axes, ys, vecs, square):
        # the tables are built in a frame of their own, so no per-axis
        # temporary of the build (an M_k x n phase) lives through the
        # contraction
        return _contract(self._axis_tables(axes, ys, square), vecs)

    def _axis_tables(self, axes, ys, square):
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
        return tuple(tables)

    def radial_profile(self, r):
        r = np.asarray(r, dtype=float)
        out = np.exp(-math.pi * r * r)
        return float(out) if out.ndim == 0 else out

    def correlation_length(self) -> float:
        return min(math.sqrt(-math.log(_CORRELATION_DROP) / math.pi),
                   _CORRELATION_LENGTH_CAP)

    def radial_panels(self, a: float, b: float):
        n = DEFAULT_NODES_PER_PANEL
        edges = geometric_edges(a, b, first_width=0.25, growth=1.4)
        count = edges.size - 1
        for first in range(0, count, _CHUNK_PANELS):
            last = min(first + _CHUNK_PANELS, count)
            nodes, weights = panel_nodes(edges[first:last + 1], n)
            if last == count:
                nodes[-n:], weights[-n:] = graded_end_panel(
                    b, edges[-1] - edges[-2], n)
            yield nodes, weights, self.radial_profile(nodes)


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

    def _profile_amplitude(self, r, sin_r=None, cos_r=None) -> np.ndarray:
        """K as a function of the distance r (real valued).

        Below ``_SERIES_BELOW[d]`` it is the diagonal value up to r =
        1e-8 and J_{d/2}(r) / (2 pi r)^{d/2} by the power series beyond;
        from there on ``_trig_amplitude`` of r, sin r and cos r. The
        panel path passes sin_r and cos_r of every r; otherwise they are
        taken where that formula reads them.
        """
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        trig = r >= _SERIES_BELOW[self.dim]
        if trig.all():
            out = self._trig_amplitude(r, sin_r, cos_r)
            return out[0] if scalar else out
        out = np.full(r.shape, self.diagonal_value)
        if self.dim > 1:
            series = ~trig & (r > 1e-8)
            if series.any():
                rs = r[series]
                nu = self.dim / 2.0
                out[series] = (_j_series(nu, rs, _SERIES_TERMS[nu])
                               / ((2.0 * math.pi) ** nu * rs ** nu))
        if trig.any():
            out[trig] = self._trig_amplitude(
                r[trig], None if sin_r is None else sin_r[trig],
                None if cos_r is None else cos_r[trig])
        return out[0] if scalar else out

    def _trig_amplitude(self, r, s, c) -> np.ndarray:
        """K at distances r >= ``_SERIES_BELOW[d]`` from s = sin r and
        c = cos r, each taken here when None (d = 1 reads no cosine):
        sin r / (pi r) for d = 1, (sin r / r - cos r) / (2 pi^2 r^2) for
        d = 3, and J_1(r) / (2 pi r) by the Hankel expansion for d = 2.
        """
        if s is None:
            s = np.sin(r)
        if self.dim == 1:
            return s / (math.pi * r)
        if c is None:
            c = np.cos(r)
        if self.dim == 3:
            return (s / r - c) / ((2.0 * math.pi ** 2) * r * r)
        return _j1_hankel(r, s, c) / (2.0 * math.pi * r)

    def eval_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The M x n block K(x_i, y_j): ``_profile_amplitude`` of the
        distances, whose square is accumulated axis by axis in one M x n
        array (in the order of a sum over the axes) and rooted in place.
        """
        xs, ys = self._points(xs), self._points(ys)
        dist = np.subtract.outer(xs[:, 0], ys[:, 0])
        dist *= dist
        for k in range(1, self.dim):
            diff = np.subtract.outer(xs[:, k], ys[:, k])
            diff *= diff
            dist += diff
        return self._profile_amplitude(np.sqrt(dist, out=dist))

    def _lattice_sum(self, axes, ys, vecs, square):
        """Plane-wave lattice sum.

        K(x, y) = (2 pi)^{-d} int_{|xi| <= 1} exp(i xi . (x - y)) dxi is
        taken by a polar rule on the unit ball: Gauss-Legendre radii with
        weight rho^{d-1} times ``_half_sphere`` directions. |K|^2 has
        Fourier transform (2 pi)^{-2d} g(eta), g the covariogram of the
        unit ball (zero beyond |eta| = 2), whose radius is substituted as
        |eta| = 2 cos(phi), phi in [0, pi/2], so that the radial integrand
        is analytic: g = 2 - |eta| (d = 1), 2 phi - sin(2 phi) (d = 2) and
        (8 pi / 3) (2 + cos phi) sin^4(phi/2) (d = 3). Each rule is sized
        from the largest phase it must integrate: the diameter D of the
        bounding box of the lattice and ys times the bandwidth, 1 for K
        and 2 for |K|^2. Phases are taken about the box's centre. In
        d = 1 the lattice is the whole grid, so its one axis, which must
        be arithmetic, is split by ``_split_axis`` into a coarse and a
        fine axis of about sqrt(M) nodes each, whose tables replace an
        M x rank table, and the sum is trimmed to the M nodes. None when
        the image rule has more waves than ys has points: the pass then
        costs more than the kernel blocks it replaces (d = 3: 1.9 s
        against 0.46 s for 4536 waves and 864 points, 0.45 s for both at
        1859 waves and 2112 points). The |K|^2 rule follows the same
        gate, so K and |K|^2 take the same route on one lattice; only the
        requested rule's plane waves are built.
        """
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
        lattice = _split_axis(axes[0], origin[0]) if d == 1 else \
            [(k, axis - o) for k, (axis, o) in enumerate(zip(axes, origin))]
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
            out = _plane_wave_sum(lattice, ys, vecs, origin, rho,
                                  w_rho * rho ** (d - 1), dirs, w_dirs,
                                  (2.0 * math.pi) ** -d)
        else:
            # |K|^2: |eta| = 2 cos(phi), phases up to 2 diameter
            # cos(phi), whose frequency in phi, 2 diameter at most, the
            # weight's sin(phi), cos(phi)^(d-1) and sin(2 phi) raise by
            # d + 2 and its linear term in phi by one degree
            phi, w_phi = panel_nodes([0.0, 0.5 * math.pi], -(-(
                _fourier_order(0.25 * math.pi * (2.0 * diameter + d + 2))
                + 1) // 2))
            s = 2.0 * np.cos(phi)
            if d == 1:
                g = 2.0 - s
            elif d == 2:
                g = 2.0 * phi - np.sin(2.0 * phi)
            else:
                g = 8.0 * math.pi / 3.0 * (2.0 + np.cos(phi)) \
                    * np.sin(0.5 * phi) ** 4
            out = _plane_wave_sum(lattice, ys, vecs, origin, s,
                                  w_phi * s ** (d - 1) * 2.0 * np.sin(phi)
                                  * g, *_half_sphere(d, 2.0 * diameter),
                                  (2.0 * math.pi) ** (-2 * d))
        return out[:len(axes[0])] if d == 1 else out

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

    def radial_panels(self, a: float, b: float):
        """The radial quadrature on uniform panels of width at most pi,
        one period of the profile phi = K^2, whose top frequency is 2
        (Gauss-Legendre at 16 nodes integrates e^(2ir) on such a panel
        to rounding, graded or not).

        The panel count is checked against the cap before anything is
        allocated. Every node is a panel start s_k plus one of the
        16 Gauss offsets t_j shared by all panels, so sin and
        cos of the node come by angle addition from one table over the
        chunk's starts and one over the offsets: those of the exact sum
        s_k + t_j, with a few eps of absolute (not relative) error. The
        node itself is that sum rounded once, off by eps/2 relative,
        which the smooth factors of the profile carry as relative error.
        The graded last panel shares no offsets, so its 16 nodes take
        numpy's sine and cosine.
        """
        n = DEFAULT_NODES_PER_PANEL
        count = uniform_panel_count(a, b, math.pi)
        width = (b - a) / count
        offsets, weights = panel_nodes(np.array([0.0, width]), n)
        sin_t, cos_t = np.sin(offsets), np.cos(offsets)
        weights = np.tile(weights, min(count, _CHUNK_PANELS))
        weights.setflags(write=False)  # every chunk yields a view of it
        end_nodes, end_weights = graded_end_panel(b, width, n)
        for first in range(0, count, _CHUNK_PANELS):
            last = min(first + _CHUNK_PANELS, count)
            starts = a + width * np.arange(first, last)
            sin_s, cos_s = np.sin(starts)[:, None], np.cos(starts)[:, None]
            nodes = (starts[:, None] + offsets).ravel()
            chunk_weights = weights[:nodes.size]
            sin_r = (sin_s * cos_t + cos_s * sin_t).ravel()
            cos_r = None if self.dim == 1 else \
                (cos_s * cos_t - sin_s * sin_t).ravel()
            if last == count:
                nodes[-n:] = end_nodes
                chunk_weights = np.concatenate([chunk_weights[:-n],
                                                end_weights])
                sin_r[-n:] = np.sin(end_nodes)
                if cos_r is not None:
                    cos_r[-n:] = np.cos(end_nodes)
            amplitude = self._profile_amplitude(nodes, sin_r, cos_r)
            yield nodes, chunk_weights, amplitude * amplitude


def sine_kernel() -> PaleyWienerKernel:
    """The d = 1 member: K(x,y) = sin(x-y) / (pi (x-y))."""
    return PaleyWienerKernel(1)


def radial_normalization_check(kernel: Kernel, r_max: float) -> float:
    """Residual of the projection-kernel admissibility identity.

    For a radial projection kernel, integrating phi over R^d must
    reproduce the diagonal: d c_d int_0^inf r^{d-1} phi(r) dr =
    sqrt(phi(0)). Returns the truncated-integral residual; its size is
    limited by the profile tail beyond r_max. The quadrature runs a chunk
    of ``radial_panels`` at a time, so its memory does not grow with
    r_max.
    """
    if r_max <= 0:
        raise ValueError("r_max must be positive")
    d = kernel.ambient_dim
    integral = sum(float(np.sum(weights * nodes ** (d - 1) * phi))
                   for nodes, weights, phi in kernel.radial_panels(0.0, r_max))
    if not np.isfinite(integral):
        raise ArithmeticError("radial quadrature produced a non-finite value")
    return unit_sphere_area(d) * integral - math.sqrt(kernel.radial_profile(0.0))
