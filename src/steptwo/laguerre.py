"""Generalized Laguerre polynomials and the exponential Laguerre basis.

The 2-d building block at frequency tau > 0 and angular index p is

    (2 tau / pi) (sgn p)^p l_k^(|p|)(2 tau |y|^2) exp(i p theta),

with l_k^(p) the L^2([0, inf))-normalized Laguerre function.  Products of
these blocks over the complex slots of a tau-frame give an orthogonal
basis of L^2(R^(2n)) on which the complex horizontal vector fields act as
exact shift operators.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DegenerateTauError, DimensionError
from .groups import finite_array


def laguerre_poly(k, p, sigma):
    """Generalized Laguerre polynomial L_k^(p) by upward three-term recurrence.

    Stable for the desk-scale degrees used here (k up to a few hundred).
    Vectorized over sigma; raises where the value overflows.
    """
    if k < 0 or p < 0:
        raise DimensionError(f"laguerre_poly needs k, p >= 0, got k={k}, p={p}")
    sigma = finite_array(sigma, "sigma")
    prev = np.ones_like(sigma)
    if k == 0:
        return prev
    with np.errstate(over="ignore", invalid="ignore"):
        cur = 1.0 + p - sigma
        for m in range(1, k):
            prev, cur = cur, ((2 * m + p + 1 - sigma) * cur - (m + p) * prev) / (m + 1)
    bad = ~np.isfinite(cur)
    if bad.any():
        raise DimensionError(
            f"laguerre_poly overflows at k={k}, p={p}, "
            f"sigma={sigma[bad].flat[0]:.6g}"
        )
    return cur


def laguerre_l(k, p, sigma):
    """Normalized Laguerre function l_k^(p), orthonormal on [0, inf) for fixed p.

    The Gamma-ratio prefactor is taken in log space and the weight
    sigma^(p/2) e^(-sigma/2) as a single exponential, so moderate k + p
    cannot overflow.  At sigma = 0 the weight is 1 for p = 0 and 0 for p > 0.
    """
    if k < 0 or p < 0:
        raise DimensionError(f"laguerre_l needs k, p >= 0, got k={k}, p={p}")
    sigma = finite_array(sigma, "sigma")
    log_ratio = 0.5 * (gammaln(k + 1) - gammaln(k + p + 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_weight = np.where(
            sigma > 0.0, 0.5 * p * np.log(np.where(sigma > 0, sigma, 1.0)), 0.0
        )
    weight = np.exp(log_ratio + log_weight - 0.5 * sigma)
    if p > 0:
        weight = np.where(sigma > 0.0, weight, 0.0)
    return laguerre_poly(k, p, sigma) * weight


def exp_laguerre_2d(k, p, y, tau_mag):
    """One complex slot of the exponential Laguerre basis.

    Parameters
    ----------
    k : int >= 0
        Radial index.
    p : int
        Angular index; negative p conjugates the angular factor.
    y : array-like, shape (..., 2)
        Evaluation points in the plane.
    tau_mag : float > 0
        Frequency magnitude.
    """
    if tau_mag <= 0:
        raise DimensionError(f"exp_laguerre_2d needs tau_mag > 0, got {tau_mag}")
    if k < 0:
        raise DimensionError(f"exp_laguerre_2d needs k >= 0, got {k}")
    y = np.asarray(y, dtype=float)
    z = y[..., 0] + 1j * y[..., 1]
    rho2 = y[..., 0] ** 2 + y[..., 1] ** 2
    radial = laguerre_l(k, abs(p), 2.0 * tau_mag * rho2)
    theta = np.angle(z)
    # (sgn p)^p with sgn 0 = +1, so the factor is 1 unless p < 0 and odd
    sign = -1.0 if (p < 0 and p % 2 != 0) else 1.0
    return (2.0 * tau_mag / np.pi) * sign * radial * np.exp(1j * p * theta)


@dataclass(frozen=True)
class MultiIndexPair:
    """Indices (k, p) of one basis element: radial k_j >= 0 and angular p_j
    of any sign in each slot."""

    p: tuple
    k: tuple

    def __post_init__(self):
        p = tuple(int(v) for v in np.atleast_1d(self.p))
        k = tuple(int(v) for v in np.atleast_1d(self.k))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        if len(p) != len(k):
            raise DimensionError("index vectors p and k must have equal length")
        if any(v < 0 for v in k):
            raise DimensionError(f"k entries must be >= 0, got {k}")

    @property
    def n(self):
        return len(self.p)


def basis_address(p, k):
    """Indices of the matrix-unit address (p, k), all entries >= 1.

    Componentwise, k = min(p, k) - 1 and p = p - k.
    """
    p, k = np.atleast_1d(p), np.atleast_1d(k)
    if p.shape != k.shape:
        raise DimensionError("index vectors p and k must have equal length")
    if (p < 1).any() or (k < 1).any():
        raise DimensionError(
            f"basis address entries must be >= 1, got p={p.tolist()}, k={k.tolist()}"
        )
    return MultiIndexPair(p=p - k, k=np.minimum(p, k) - 1)


def raw_index(k, p):
    return MultiIndexPair(p=p, k=k)


def exp_laguerre(frame, idx, y):
    """Exponential Laguerre basis function for a tau-frame.

    The product over complex slots of the 2-d block evaluated at the
    rescaled frame coordinates sqrt(mu_j(tau/|tau|)) * y_j, with one
    mu_j(tau/|tau|) prefactor per slot.  ``idx`` is a MultiIndexPair;
    ``y`` has shape (..., 2n) and the result the corresponding leading
    shape.
    """
    if idx.n != frame.n:
        raise DimensionError(
            f"index has {idx.n} slots but the frame has {frame.n}"
        )
    if frame.mu[-1] <= 0:
        raise DegenerateTauError("exp_laguerre needs a non-degenerate frame")
    yt = frame.tau_coordinates(y)
    mu_unit = frame.mu_unit
    out = np.ones(yt.shape[:-1], dtype=complex)
    for j in range(frame.n):
        pair = np.sqrt(mu_unit[j]) * yt[..., 2 * j : 2 * j + 2]
        out = out * mu_unit[j] * exp_laguerre_2d(
            idx.k[j], idx.p[j], pair, frame.tau_mag
        )
    return out


def exp_laguerre_l2_norm_sq(frame):
    """Squared L^2 norm shared by every basis element: (2/pi)^n prod mu_j."""
    return float(np.prod(2.0 * frame.mu / np.pi))


def shift_apply(frame, which, idx):
    """Exact action of a complex horizontal vector field on a basis element.

    Parameters
    ----------
    frame : TauFrame
    which : (str, int)
        ("Z", j) for the holomorphic field in slot j, ("Zbar", j) for its
        conjugate; j is 0-based.
    idx : MultiIndexPair
        Address of the basis element acted on.

    Returns
    -------
    (float, MultiIndexPair) or None
        Shift coefficient and shifted address, or None when the field
        annihilates the element (so callers can prune).
    """
    op, j = which
    if not 0 <= j < idx.n:
        raise DimensionError(f"slot index {j} out of range for n={idx.n}")
    mu = float(frame.mu[j])
    k = list(idx.k)
    p = list(idx.p)
    if op == "Z":
        if p[j] >= 1:
            coeff = np.sqrt(2.0 * mu * (k[j] + 1))
            k[j] += 1
        else:
            coeff = np.sqrt(2.0 * mu * (k[j] - p[j] + 1))
        p[j] -= 1
        return coeff, MultiIndexPair(p=p, k=k)
    if op == "Zbar":
        if p[j] <= -1:
            coeff = -np.sqrt(2.0 * mu * (k[j] - p[j]))
        else:
            if k[j] == 0:
                return None
            coeff = -np.sqrt(2.0 * mu * k[j])
            k[j] -= 1
        p[j] += 1
        return coeff, MultiIndexPair(p=p, k=k)
    raise DimensionError(f"unknown shift operator {op!r} (use 'Z' or 'Zbar')")


def sublap_eigenvalue(frame, idx):
    """Eigenvalue of the sub-Laplacian partial symbol on one basis element.

    Follows from composing the two shift operators in each slot:
    sum_j mu_j (2 k_j + 2 max(-p_j, 0) + 1).
    """
    return float(
        sum(
            frame.mu[j] * (2 * idx.k[j] + 2 * max(-idx.p[j], 0) + 1)
            for j in range(idx.n)
        )
    )
