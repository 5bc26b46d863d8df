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

from .errors import DimensionError
from .groups import checked_int, finite_array, positive_number


def laguerre_poly(k, p, sigma):
    """Generalized Laguerre polynomial L_k^(p) by upward three-term recurrence.

    Stable for the desk-scale degrees used here (k up to a few hundred).
    Vectorized over sigma; raises where the value overflows.
    """
    k = checked_int(k, "Laguerre index k", 0)
    if finite_array(p, "Laguerre order p").ndim or p < 0:
        raise DimensionError(f"the Laguerre order p must be a number >= 0, got {p!r}")
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


def _log_sigma(sigma):
    """log(sigma) where sigma > 0 and 0 elsewhere, for ``_weight``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(np.where(sigma > 0, sigma, 1.0))


def _weight(k, p, sigma, log_sigma):
    """The factor that turns L_k^(p) into l_k^(p), given ``_log_sigma(sigma)``."""
    log_ratio = 0.5 * (gammaln(k + 1) - gammaln(k + p + 1))
    weight = np.exp(log_ratio + 0.5 * p * log_sigma - 0.5 * sigma)
    if p > 0:
        weight = np.where(sigma > 0.0, weight, 0.0)
    return weight


def laguerre_l(k, p, sigma):
    """Normalized Laguerre function l_k^(p), orthonormal on [0, inf) for fixed p.

    The Gamma-ratio prefactor is taken in log space and the weight
    sigma^(p/2) e^(-sigma/2) as a single exponential, so moderate k + p
    cannot overflow.  At sigma = 0 the weight is 1 for p = 0 and 0 for p > 0.
    A sigma < 0 is outside the domain and raises.
    """
    poly = laguerre_poly(k, p, sigma)  # checks k, p and sigma
    sigma = finite_array(sigma, "sigma")
    if np.any(sigma < 0):
        raise DimensionError(
            f"laguerre_l needs sigma >= 0, got sigma={sigma[sigma < 0].flat[0]:.6g}"
        )
    return poly * _weight(k, p, sigma, _log_sigma(sigma))


def _phase_powers(y, r2, top):
    """e^(i q theta) at points y of shape (..., 2), with r2 = |y|^2, for
    q = 0..top: powers of (y_0 + i y_1) / |y|, 1 at the origin.  Each
    coordinate of that unit vector is one real division; no complex exp."""
    phases = [1 + 0j]
    if top:
        unit = np.empty(y.shape)  # C order: (re, im) pairs read as complex
        with np.errstate(invalid="ignore"):  # 0 / 0 at the origin
            np.divide(y, np.sqrt(r2)[..., None], out=unit)
        unit = unit.view(complex)[..., 0]
        unit[r2 == 0] = 1.0
        phases.append(unit)
        for _ in range(top - 1):
            phases.append(phases[-1] * unit)
    return phases


def _plane_blocks(indices, y, tau_mag):
    """The 2-d block of each (k, p) in ``indices`` at points y, shape (..., 2).

    Yields one array per index.  |y|^2 and log sigma are computed once per
    call, the radial function once per distinct (k, |p|) and e^(i p theta)
    once per |p| >= 1 by ``_phase_powers``, conjugated for negative p.
    """
    tau_mag = positive_number(tau_mag, "tau_mag")
    y = finite_array(y, "points", (..., 2))
    indices = [
        (checked_int(k, "Laguerre index k", 0), checked_int(p, "angular index p"))
        for k, p in indices
    ]
    r2 = y[..., 0] ** 2 + y[..., 1] ** 2
    sigma = 2.0 * tau_mag * r2
    phases = _phase_powers(y, r2, max((abs(p) for _, p in indices), default=0))
    log_sigma = None
    radials = {}
    for k, p in indices:
        q = abs(p)
        if (k, q) not in radials:
            poly = laguerre_poly(k, q, sigma)  # checks sigma
            if log_sigma is None:
                log_sigma = _log_sigma(sigma)
            radials[k, q] = poly * _weight(k, q, sigma, log_sigma)
        phase = phases[q] if p >= 0 else phases[q].conj()
        # (sgn p)^p with sgn 0 = +1, so the factor is 1 unless p < 0 and odd
        sign = -1.0 if (p < 0 and p % 2 != 0) else 1.0
        yield (2.0 * tau_mag / np.pi) * sign * radials[k, q] * phase


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
    return next(_plane_blocks([(k, p)], y, tau_mag))


@dataclass(frozen=True)
class MultiIndexPair:
    """Indices (k, p) of one basis element: radial k_j >= 0 and angular p_j
    of any sign in each slot."""

    p: tuple
    k: tuple

    def __post_init__(self):
        for name, low in (("p", None), ("k", 0)):
            values = getattr(self, name)
            entries = np.atleast_1d(np.asarray(values, dtype=object)).tolist()
            try:
                entries = tuple(checked_int(v, name, low) for v in entries)
            except DimensionError as exc:
                raise DimensionError(
                    f"{name} entries must be integers, got {values!r}: {exc}"
                ) from None
            object.__setattr__(self, name, entries)
        if len(self.p) != len(self.k):
            raise DimensionError("index vectors p and k must have equal length")

    @property
    def n(self):
        return len(self.p)


def basis_address(p, k):
    """Indices of the matrix-unit address (p, k), all entries >= 1.

    Componentwise, k = min(p, k) - 1 and p = p - k.
    """
    pair = MultiIndexPair(p=p, k=k)  # integer entries, equal lengths
    p, k = np.array(pair.p), np.array(pair.k)
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
    shape.  ``idx`` may also be a list of MultiIndexPairs: the result then
    has a leading axis with one entry per pair, and each slot's angle,
    radial functions and phases are computed once for the whole list.
    """
    single = isinstance(idx, MultiIndexPair)
    indices = [idx] if single or not np.iterable(idx) else list(idx)
    for one in indices:
        if not isinstance(one, MultiIndexPair):
            raise DimensionError(
                f"idx must be a MultiIndexPair or a list of them, got {one!r}"
            )
        if one.n != frame.n:
            raise DimensionError(
                f"index has {one.n} slots but the frame has {frame.n}"
            )
    yt = frame.tau_coordinates(y)
    mu_unit = frame.mu_unit
    out = np.ones((len(indices),) + yt.shape[:-1], dtype=complex)
    for j in range(frame.n):
        pair = np.sqrt(mu_unit[j]) * yt[..., 2 * j : 2 * j + 2]
        blocks = _plane_blocks(
            [(one.k[j], one.p[j]) for one in indices], pair, frame.tau_mag
        )
        for a, block in enumerate(blocks):
            row = out[a, ...]  # a view, also when y is a single point
            row *= mu_unit[j]
            row *= block
    return out[0] if single else out


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
    if not isinstance(which, (tuple, list)) or len(which) != 2:
        raise DimensionError(f"which must be a pair (op, j), got {which!r}")
    op, j = which
    j = checked_int(j, "slot index", 0, idx.n - 1)
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
