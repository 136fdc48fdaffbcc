"""Panel-based Gauss-Legendre quadrature helpers.

Everything here is deterministic: node layouts depend only on the panel
edges.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# the order of the radial route's one rule: with the panel at the
# diameter graded (``graded_end_panel``) every panel's integrand is
# analytic, and 16 nodes on one period of the band-limited profile
# reach rounding
DEFAULT_NODES_PER_PANEL = 16
# the band-limited radial variance at radius R takes 2R/pi panels, so
# radii up to 1.57e6 stay within the cap (`accspec variance --kernel sine
# --R 1.5e6` takes 0.7 s and 31 MB peak RSS on a 2-core Intel Xeon box)
PANEL_CAP = 10 ** 6


class ResourceLimitError(RuntimeError):
    """A grid, a panel set or a factor would exceed its size cap."""


@lru_cache(maxsize=16)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=1)
def _tail_rows() -> np.ndarray:
    # (2k+1)/2 P_k(x_j), k = 4..15, at the Gauss nodes x_j: on a panel's
    # terms w_j f(x_j), its Legendre coefficients of f times half its width
    n = DEFAULT_NODES_PER_PANEL
    degrees = np.arange(4, n)
    vander = np.polynomial.legendre.legvander(_leggauss(n)[0], n - 1)
    rows = (vander[:, degrees] * (degrees + 0.5)).T
    rows.setflags(write=False)
    return rows


def legendre_tail(terms: np.ndarray) -> float:
    """Truncation error estimate of 16-node Gauss-Legendre panels, summed
    over the panels, from their terms ``weights * f(nodes)`` in sequence.

    Per panel, the Legendre coefficients a_k of f decay from degrees 8-11
    to 12-15 by q = sum |a_12..15| / sum |a_8..11| (at most 1), and
    sum |a_12..15| q^5 extrapolates them to degrees 32-35, the first the
    rule does not integrate (Trefethen, Approximation Theory and
    Approximation Practice, 2013, ch. 8 and 19). Blocks of four degrees
    read the decay of an even or odd f too; degrees 12-15 alone read too
    slow a decay on the graded end panel, whose reversed nodes leave
    |a_k| unchanged. Where degrees 8-11 are not below 4-7 the panel has
    not begun to converge, and q = 1. The samples alias beyond two nodes
    per period of f, and no estimate from them sees that error.
    """
    coef = np.abs(_tail_rows() @ terms.reshape(-1, DEFAULT_NODES_PER_PANEL).T)
    early, low, high = coef.reshape(3, 4, -1).sum(axis=1)
    ratio = high / np.maximum(np.maximum(low, high), np.finfo(float).tiny)
    decay = np.where(low < early, ratio, 1.0)
    return float(np.sum(high * decay ** 5))


def panel_nodes(edges: np.ndarray, n_nodes: int = DEFAULT_NODES_PER_PANEL):
    """Gauss-Legendre nodes/weights for the panels defined by ``edges``.

    Returns flat arrays (nodes, weights) covering [edges[0], edges[-1]];
    integrating f is then ``np.sum(weights * f(nodes))``.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("edges must be a 1d array with at least two entries")
    base_x, base_w = _leggauss(n_nodes)
    a = edges[:-1]
    half = 0.5 * (edges[1:] - a)
    nodes = (a + half)[:, None] + half[:, None] * base_x[None, :]
    weights = half[:, None] * base_w[None, :]
    return nodes.ravel(), weights.ravel()


def graded_end_panel(b: float, h: float, n_nodes: int):
    """Gauss-Legendre nodes/weights for the panel [b - h, b] graded
    towards b: r = b - h u^2 with u Gauss-Legendre on [0, 1], so the
    nodes are b - h u_j^2 and the weights 2 h u_j w_j, in ascending
    order. A branch (b - r)^(k/2) at b becomes the polynomial h^(k/2) u^k
    (Davis and Rabinowitz, Methods of Numerical Integration, 1984,
    section 2.12). The width h is passed, not formed as b - (b - h),
    which at b = 6000 loses hundreds of eps * h in the weight sum.
    """
    base_x, base_w = _leggauss(n_nodes)
    u = 0.5 * (1.0 + base_x[::-1])
    return b - h * (u * u), h * u * base_w[::-1]


def trapezoid_circle(m: int):
    """The m-point trapezoid rule on the circle [0, 2 pi)."""
    return 2.0 * math.pi / m * np.arange(m), np.full(m, 2.0 * math.pi / m)


def uniform_panel_count(a: float, b: float, max_width: float) -> int:
    """The number of panels of width <= max_width on [a, b] (>= 1); more
    than PANEL_CAP raise ResourceLimitError."""
    if b <= a:
        raise ValueError("empty integration interval")
    panels = (b - a) / max_width
    if not panels <= PANEL_CAP:
        raise ResourceLimitError(f"{panels:.3g} panels needed, cap is {PANEL_CAP}")
    return max(1, int(np.ceil(panels)))


def geometric_edges(a: float, b: float, first_width: float,
                    growth: float = 1.5) -> np.ndarray:
    """Panel edges on [a, b] with widths growing geometrically.

    Suited to integrands that decay monotonically (Gaussian tails): small
    panels where the integrand lives, coarse ones further out. A
    remainder at b under a fifth of the panel before it joins that
    panel: a branch point at b (the ball overlap's at the diameter)
    slows a panel ending just short of it, unseen by ``legendre_tail``.
    """
    if b <= a:
        raise ValueError("empty integration interval")
    edges = [a]
    width = first_width
    while edges[-1] + width < b:
        edges.append(edges[-1] + width)
        width *= growth
    if len(edges) > 1 and b - edges[-1] < 0.2 * (edges[-1] - edges[-2]):
        edges.pop()
    edges.append(b)
    return np.asarray(edges)
