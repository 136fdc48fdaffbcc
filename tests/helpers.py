import math

import numpy as np

from accspec.discretize import QuadratureGrid, SpectralData
from accspec.geometry import Box


def synthetic_spectral(mu):
    """SpectralData with a prescribed spectrum on a dummy unit grid."""
    mu = np.asarray(mu, dtype=float)
    n = mu.size
    grid = QuadratureGrid(region=Box(np.zeros(1), np.ones(1)),
                          nodes=np.linspace(0, 1, n)[:, None],
                          weights=np.full(n, 1.0 / n),
                          spacing=np.array([1.0 / n]))
    return SpectralData(eigenvalues=mu, eigenvalues_clamped=np.clip(mu, 0, 1),
                        vectors=np.eye(n), grid=grid,
                        operator_trace=float(mu.sum()))


def poisson_term(j, x):
    """e^-x x^j / j!, in log space."""
    return math.exp(j * math.log(x) - x - math.lgamma(j + 1))


def ginibre_ball_spectrum(m, radius):
    """Exact spectrum of the ginibre kernel restricted to the ball of
    radius R in C^m, one (mu, 1 - mu, multiplicity) per degree k.

    The eigenvalues are mu_k = P(k + m, pi R^2) with multiplicity
    C(k+m-1, m-1) (Daubechies 1988; Abreu, Groechenig, Romero 2016 for
    m = 1); mu is the Poisson tail sum and 1 - mu the head sum, both in
    log space. Degrees past pi R^2 + 200 are left out: their mu
    underflows.
    """
    x = math.pi * radius ** 2
    top = int(x) + 200
    spectrum = []
    for k in range(top):
        a = k + m
        mu = math.fsum(poisson_term(j, x) for j in range(a, a + top))
        rest = math.fsum(poisson_term(j, x) for j in range(a))
        spectrum.append((mu, rest, math.comb(k + m - 1, m - 1)))
    return spectrum


def ginibre_ball_variance(m, radius):
    """sum mult * mu (1 - mu) over the exact ginibre ball spectrum."""
    return math.fsum(mult * mu * rest
                     for mu, rest, mult in ginibre_ball_spectrum(m, radius))
