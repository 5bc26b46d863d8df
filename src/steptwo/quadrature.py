"""Quadrature rules shared by the kernel integrals.

Sphere rules: two signed points for r = 1, uniform angles for r = 2, and a
Gauss-Legendre (polar) x uniform (azimuth) product rule for r = 3, which
integrates spherical polynomials exactly up to the rule's degree.  Radial
half-line integrals are compactified by u = tanh(rho * s / 2), i.e.
rho = (2/s) log((1+u)/(1-u)), with the scale s matched to the integrand's
exponential decay rate, then handled by Gauss-Legendre nodes on (0, 1).
"""

import functools

import numpy as np

from .errors import DimensionError
from .groups import finite_array


@functools.lru_cache(maxsize=32)
def _leggauss(count):
    """Gauss-Legendre nodes and weights on (-1, 1), read-only and cached:
    numpy's ``leggauss`` solves an eigenproblem on every call, and the
    passes of every kernel call ask for the same few counts.  Its weights
    drift near x = +-1 by about count^2 eps of the largest, so only its
    nodes x are kept.  P_(n-1) and P_n come from the three-term recurrence
    at x (count^2 work), and the weight 2 / ((1 - x^2) P_n'(x)^2) taken
    there is carried to the root x + d, d = -P_n / P_n', by its logarithmic
    derivative -2x / (1 - x^2).
    """
    x, _ = np.polynomial.legendre.leggauss(count)
    p0, p1 = np.ones_like(x), x  # P_(m-1) and P_m at the nodes
    for m in range(2, count + 1):
        p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
    side = 1.0 - x * x
    dp = count * (p0 - x * p1) / side
    w = 2.0 / (side * dp * dp) * (1.0 + 2.0 * x * p1 / (dp * side))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(count, lo=0.0, hi=1.0):
    """Gauss-Legendre nodes and weights mapped to the interval (lo, hi)."""
    x, w = _leggauss(count)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def sphere_rule(r, level):
    """Nodes and weights integrating over the unit sphere in R^r.

    ``level`` controls resolution: the number of polar Gauss nodes for
    r = 3, the number of uniform angles for r = 2; ignored for r = 1.
    Weights sum to the sphere measure (2, 2*pi, 4*pi).
    """
    if r == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if r == 2:
        angles = 2.0 * np.pi * np.arange(level) / level
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        return pts, np.full(level, 2.0 * np.pi / level)
    if r == 3:
        cosines, cw = gauss_legendre(level, -1.0, 1.0)
        n_azi = 2 * level
        angles = 2.0 * np.pi * np.arange(n_azi) / n_azi
        sines = np.sqrt(np.clip(1.0 - cosines**2, 0.0, None))
        pts = np.empty((level, n_azi, 3))
        pts[..., 0] = np.outer(sines, np.cos(angles))
        pts[..., 1] = np.outer(sines, np.sin(angles))
        pts[..., 2] = cosines[:, None]
        wts = np.repeat(cw * 2.0 * np.pi / n_azi, n_azi)
        return pts.reshape(-1, 3), wts
    raise DimensionError(f"no sphere rule for r = {r}")


def radial_nodes(count, scale=1.0):
    """Nodes/weights for integral_0^inf f(rho) d(rho) with decay rate ~scale.

    Returns (rho, w) such that sum w_i f(rho_i) approximates the integral
    for f smooth with f = O(exp(-scale * rho)).  An array of scales gives
    one rule per entry: rho and w then have shape scale.shape + (count,).
    """
    scale = finite_array(scale, "radial decay scale")
    if np.any(scale <= 0):
        raise DimensionError(f"radial decay scale must be positive, got {scale}")
    a = (2.0 / scale)[..., None]
    u, w = gauss_legendre(count, 0.0, 1.0)
    rho = a * np.log((1.0 + u) / (1.0 - u))
    return rho, a * (w * 2.0 / (1.0 - u**2))


def x_over_sinh(x):
    """x / sinh(x) for x >= 0, overflow-free, series below 1e-4."""
    small = x < 1e-4
    xs = np.where(small, 1.0, x)
    e = np.exp(-xs)
    out = 2.0 * xs * e / (1.0 - e * e)
    return np.where(small, 1.0 - x * x / 6.0 + 7.0 * x**4 / 360.0, out)


def x_coth(x):
    """x * coth(x) for x >= 0, overflow-free, series below 1e-4."""
    small = x < 1e-4
    xs = np.where(small, 1.0, x)
    e = np.exp(-2.0 * xs)
    out = xs * (1.0 + e) / (1.0 - e)
    return np.where(small, 1.0 + x * x / 3.0 - x**4 / 45.0, out)
