"""Euclidean ball/box geometry and ball-intersection ("lens") volumes.

The lens volume Leb(B(0,R)^c n B(x,R)) is computed by two independent
routes: a Pochhammer power series in q = ||x||/(2R), and the
spherical-cap integral int_{theta0}^{pi/2} cos(theta)^d d(theta),
sin(theta0) = q, in closed form by the Wallis reduction. The closed
form shares no expansion, truncation or term count with the series, so
the two routes cross-validate each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SERIES_TERM_CAP = 10 ** 6
_SERIES_BLOCK = 2048


class SeriesDivergenceError(RuntimeError):
    """Lens series failed to meet its tolerance within the term cap."""


def _ball_volume_unchecked(d: int) -> float:
    # also valid at d = 0 (c_0 = 1), which the lens prefactor needs
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def unit_ball_volume(d: int) -> float:
    """Volume c_d of the unit ball in R^d."""
    if d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    return _ball_volume_unchecked(d)


def unit_sphere_area(d: int) -> float:
    """Surface measure sigma_{d-1} = d * c_d of the unit sphere in R^d."""
    if d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    return d * unit_ball_volume(d)


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned open box (lower, upper) in R^d."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be 1d points of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box corners must be finite")
        if not np.all(lo < hi):
            raise ValueError("box requires lower < upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def volume(self) -> float:
        # Python floats overflow to inf without a numpy warning
        return math.prod((self.upper - self.lower).tolist())

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all((pts > self.lower) & (pts < self.upper), axis=1)

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        below = self.lower - pts
        above = pts - self.upper
        outside = np.sqrt(np.sum(np.maximum(below, 0) ** 2
                                 + np.maximum(above, 0) ** 2, axis=1))
        inside = np.min(np.minimum(pts - self.lower, self.upper - pts), axis=1)
        return np.where(outside > 0, outside, inside)

    def dilate(self, scale: float) -> "Box":
        return Box(*_dilated(scale, self.lower, self.upper))

    def bounding_box(self) -> "Box":
        return self


@dataclass(frozen=True, eq=False)
class Ball:
    """Open ball B(center, radius) in R^d."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if c.ndim != 1:
            raise ValueError("center must be a 1d point")
        if not (np.isfinite(c).all() and math.isfinite(self.radius)):
            raise ValueError("ball center and radius must be finite")
        if not self.radius > 0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return self.center.size

    def volume(self) -> float:
        # a float power raises OverflowError where Box.volume's product
        # reaches inf: return inf too, so both windows share one message
        try:
            return unit_ball_volume(self.dim) * self.radius ** self.dim
        except OverflowError:
            return math.inf

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.sum((pts - self.center) ** 2, axis=1) < self.radius ** 2

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.abs(np.linalg.norm(pts - self.center, axis=1) - self.radius)

    def dilate(self, scale: float) -> "Ball":
        center, radius = _dilated(scale, self.center, self.radius)
        return Ball(center, float(radius))

    def bounding_box(self) -> Box:
        return Box(self.center - self.radius, self.center + self.radius)


@dataclass(frozen=True, eq=False)
class DisjointBallUnion:
    """Finite union of pairwise disjoint open balls.

    Disjointness (touching allowed, the balls are open) is checked at
    construction; downstream variance subadditivity relies on it.
    """

    balls: tuple = field()

    def __post_init__(self):
        balls = tuple(self.balls)
        if not balls:
            raise ValueError("union requires at least one ball")
        dims = {b.dim for b in balls}
        if len(dims) != 1:
            raise ValueError("all balls must share one dimension")
        for i in range(len(balls)):
            for j in range(i + 1, len(balls)):
                gap = math.dist(balls[i].center, balls[j].center)
                if gap < balls[i].radius + balls[j].radius - 1e-12:
                    raise ValueError(
                        f"balls {i} and {j} overlap "
                        f"(center gap {gap:g} < radius sum)"
                    )
        object.__setattr__(self, "balls", balls)

    @property
    def dim(self) -> int:
        return self.balls[0].dim

    def volume(self) -> float:
        return sum(b.volume() for b in self.balls)

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        mask = np.zeros(pts.shape[0], dtype=bool)
        for b in self.balls:
            mask |= b.contains_points(pts)
        return mask

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        return np.min(np.column_stack(
            [b.boundary_distance(points) for b in self.balls]), axis=1)

    def dilate(self, scale: float) -> "DisjointBallUnion":
        _check_dilation(scale)
        return DisjointBallUnion(tuple(b.dilate(scale) for b in self.balls))

    def bounding_box(self) -> Box:
        los = np.array([b.center - b.radius for b in self.balls])
        his = np.array([b.center + b.radius for b in self.balls])
        return Box(los.min(axis=0), his.max(axis=0))


Region = Ball | Box | DisjointBallUnion


def _check_dilation(scale: float) -> None:
    if not 0 < scale < math.inf:
        raise ValueError(f"dilation factor must be positive and finite, got {scale}")


def _dilated(scale: float, *values) -> list[np.ndarray]:
    """scale * each of ``values`` for a valid scale; a product past the
    float range raises OverflowError instead of a numpy warning and an
    infinite corner, center or radius."""
    _check_dilation(scale)
    with np.errstate(over="ignore"):
        out = [scale * np.asarray(v, dtype=float) for v in values]
    if not all(np.isfinite(v).all() for v in out):
        raise OverflowError(f"window dilated by {scale:g} exceeds the "
                            "float range")
    return out


# ---------------------------------------------------------------------------
# lens volume


@dataclass(frozen=True)
class LensSpec:
    """Two balls of common radius R whose centers are ||x|| = r apart."""

    dim: int
    r: float
    R: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dim}")
        if not 0 <= self.r < math.inf:
            raise ValueError("center offset r must be nonnegative and finite")
        if not 0 < self.R < math.inf:
            raise ValueError("radius R must be positive and finite")


def lens_volume_series(spec: LensSpec, tol: float = 1e-9) -> float:
    """Lens volume by the Pochhammer power series in q = r/(2R).

    The sum stops once a rigorous tail bound drops below ``tol`` (near
    q = 1 the series converges only polynomially, so a plain
    last-term-small test would understate the truncation error). A sum
    that has not met ``tol`` after ``SERIES_TERM_CAP`` terms (read at
    call time) raises SeriesDivergenceError.
    """
    d, r, R = spec.dim, spec.r, spec.R
    cd = unit_ball_volume(d)
    if r >= 2.0 * R:
        return cd * R ** d  # disjoint balls: the whole shifted ball is outside
    if r == 0.0:
        return 0.0

    q = r / (2.0 * R)
    q2 = q * q
    alpha = -(d - 1) / 2.0
    prefactor = 2.0 * _ball_volume_unchecked(d - 1) * R ** d

    total = 0.0
    coef = 1.0  # (alpha)_k / k! at the current block start
    k0 = 0
    term_cap = SERIES_TERM_CAP
    while k0 < term_cap:
        block = min(_SERIES_BLOCK, term_cap - k0)
        ks = np.arange(k0, k0 + block, dtype=float)
        ratios = (alpha + ks) / (ks + 1.0)
        coefs = coef * np.concatenate(([1.0], np.cumprod(ratios[:-1])))
        terms = coefs / (2.0 * ks + 1.0) * q ** (2.0 * ks + 1.0)
        total += float(terms.sum())
        coef = float(coefs[-1] * ratios[-1])
        k0 += block
        if coef == 0.0:
            return prefactor * total  # odd d: the series terminates exactly
        last = abs(float(terms[-1]))
        if k0 > abs(alpha) + 2:
            # coefficient ratios are below 1 here, so the tail is dominated
            # by a geometric series in q^2, or by ~k0 equal terms at q = 1
            tail = last * min(q2 / (1.0 - q2) if q2 < 1.0 else math.inf, float(k0))
            if prefactor * tail < tol and prefactor * last < tol:
                return prefactor * total
    raise SeriesDivergenceError(
        f"lens series did not reach tol={tol:g} within {term_cap} terms "
        f"(d={d}, r={r:g}, R={R:g})"
    )


def _lens_integral(d: int, q: np.ndarray) -> np.ndarray:
    """I_d = int_0^{theta0} cos(theta)^d d(theta) with sin(theta0) = q.

    Wallis reduction I_k = c^(k-1) q / k + (k-1)/k I_(k-2) from
    I_0 = arcsin q and I_1 = q, with c = cos(theta0): every term is
    nonnegative, so nothing cancels at any q.
    """
    c = np.sqrt((1.0 - q) * (1.0 + q))  # 1 - q*q cancels near tangency
    lens = q.copy() if d % 2 else np.arcsin(q)
    for k in range(2 + d % 2, d + 1, 2):
        lens = (k - 1) / k * lens + c ** (k - 1) * q / k
    return lens


def lens_volume_exact(spec: LensSpec) -> float:
    """Lens volume from the closed-form spherical-cap integral.

    Independent of the series route: the lens is the ball less twice the
    cap of height R - r/2, and with s = R sin(theta) it is
    2 c_{d-1} R^d I_d, where I_d = int cos(theta)^d d(theta) over
    [0, theta0] is elementary (the Wallis reduction), so no term count
    or tolerance enters.
    """
    return float(lens_volume_exact_many(spec.dim, np.array([spec.r]), spec.R)[0])


def lens_volume_exact_many(d: int, r: np.ndarray, R: float) -> np.ndarray:
    """Closed-form lens volume over an array of offsets."""
    # r is clipped to the diameter before the division, which then
    # cannot overflow: q = 1 exactly for every r >= 2R
    q = np.clip(np.asarray(r, dtype=float), 0.0, 2.0 * R) / (2.0 * R)
    return 2.0 * _ball_volume_unchecked(d - 1) * R ** d * _lens_integral(d, q)
