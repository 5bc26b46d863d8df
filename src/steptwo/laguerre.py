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


def _checked_order(k, p):
    """The radial index k, an integer >= 0, and the real order p >= 0."""
    k = checked_int(k, "Laguerre index k", 0)
    if finite_array(p, "Laguerre order p").ndim or p < 0:
        raise DimensionError(f"the Laguerre order p must be a number >= 0, got {p!r}")
    return k, p


def laguerre_poly(k, p, sigma):
    """Generalized Laguerre polynomial L_k^(p) by upward three-term recurrence.

    Vectorized over sigma; raises where the value overflows, which inside
    the oscillatory region sigma < 4k + 2p + 2 starts near k = 355 (the
    normalized ``laguerre_l`` does not overflow).
    """
    k, p = _checked_order(k, p)
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


def _laguerre_rows(q, top, sigma, log_sigma):
    """Yield l_k^(q)(sigma) for k = 0..top, given log_sigma = log sigma.

    One upward run from l_0 = sigma^(q/2) e^(-sigma/2) / sqrt(Gamma(q+1)) of
    the recurrence of the normalized functions in its difference form,
    d_k = (u_(k-1) - sigma l_(k-1)) / k, u_k = sqrt(k(k+q)) d_k, u_0 = q l_0,
    l_k = sqrt(k/(k+q)) (l_(k-1) + d_k), which unlike the three-term form
    cancels nothing at small sigma (that is 3e-12 off at k = 500, sigma = 1e-3).
    The rows are of order 1, but l_0 underflows where later rows do not, so
    a point whose l_0 is below 2^-500 carries a binary exponent s, a
    multiple of 500 toward zero, and the iterates hold 2^-s times their
    values.  A step grows the largest row by at most
    (sigma + 3 top + 2q + 1) / k, so where l_0 lies below 2^-1075 by more
    than top steps grow, every row reads 0.
    """
    log_start = 0.5 * (q * log_sigma - sigma - gammaln(q + 1)) if q else -0.5 * sigma
    low = log_start < -500 * np.log(2.0)
    if low.any():
        growth = top * np.log(sigma.max() + 3 * top + 2 * q + 1) - gammaln(top + 1)
        low &= log_start >= -1075 * np.log(2.0) - growth
    scaled = low.any()  # otherwise no exponent is carried: the common case
    if scaled:
        exponent = np.trunc(np.where(low, log_start, 0.0) / (500 * np.log(2.0)))
        exponent = 500 * exponent.astype(int)
        log_start -= exponent * np.log(2.0)
    cur = np.exp(log_start)
    push = q * cur
    for k in range(top + 1):
        if k:
            diff = push - sigma * cur
            diff /= k
            push = np.sqrt(k * (k + q)) * diff
            diff += cur
            cur = np.sqrt(k / (k + q)) * diff
        if scaled:  # s grows by 500 as the iterate passes 2^500
            shrink = np.where(np.abs(cur) > 2.0**500, 2.0**-500, 1.0)
            cur, push = cur * shrink, push * shrink
            exponent = exponent + 500 * (shrink < 1)
        yield np.ldexp(cur, exponent) if scaled else cur


def laguerre_l(k, p, sigma):
    """Normalized Laguerre function l_k^(p), orthonormal on [0, inf) for fixed p.

    It is sqrt(k! / Gamma(k+p+1)) sigma^(p/2) e^(-sigma/2) L_k^(p)(sigma), but
    comes from ``_laguerre_rows``, not from L_k^(p), so it overflows at no k,
    and a value below the float range reads 0.  At sigma = 0 it is 1 for
    p = 0 and 0 for p > 0.  A sigma < 0 is outside the domain and raises.
    """
    k, p = _checked_order(k, p)
    sigma = finite_array(sigma, "sigma")
    if np.any(sigma < 0):
        raise DimensionError(
            f"laguerre_l needs sigma >= 0, got sigma={sigma[sigma < 0].flat[0]:.6g}"
        )
    with np.errstate(divide="ignore"):  # log 0 = -inf: l_0 = 0 for p > 0
        log_sigma = np.log(sigma)
    for last in _laguerre_rows(p, k, sigma, log_sigma):
        pass
    return last


def _phase_powers(y, r2, top):
    """|y| and e^(i q theta) for q = 0..top at points y of shape (..., 2),
    given r2 = |y|^2: powers of (y_0 + i y_1) / |y|, 1 at the origin.  Each
    coordinate of that unit vector is one real division; no complex exp.
    Where r2 lost digits or overflowed, |y| is ``np.hypot``'s, only there
    because it costs as much as 40 squares; past the float range it reads
    as the largest float."""
    rho = np.asarray(np.sqrt(r2))
    odd = (r2 < 1e-290) | (r2 > 1e290)
    with np.errstate(over="ignore"):
        hyp = np.hypot(y[..., 0][odd], y[..., 1][odd])
        rho[odd] = np.minimum(hyp, np.finfo(float).max)
    phases = [1 + 0j]
    if top:
        unit = np.empty(y.shape)  # C order: (re, im) pairs read as complex
        with np.errstate(invalid="ignore"):  # 0 / 0 at the origin
            np.divide(y, rho[..., None], out=unit)
        unit = unit.view(complex)[..., 0]
        unit[rho == 0] = 1.0
        phases.append(unit)
        for _ in range(top - 1):
            phases.append(phases[-1] * unit)
    return rho, phases


def _plane_blocks(indices, y, tau_mag):
    """The 2-d block of each (k, p) in ``indices`` at points y, shape (..., 2).

    Yields one array per index.  Per |p|, one ``_laguerre_rows`` run gives
    every k asked for, from log sigma = log(2 tau) + 2 log |y| with |y| from
    ``_phase_powers``, and e^(i |p| theta) comes once, conjugated for p < 0.
    """
    tau_mag = positive_number(tau_mag, "tau_mag")
    y = finite_array(y, "points", (..., 2))
    indices = [
        (checked_int(k, "Laguerre index k", 0), checked_int(p, "angular index p"))
        for k, p in indices
    ]
    tops = dict(sorted((abs(p), k) for k, p in indices))  # the largest k per |p|
    # |y|^2 and sigma past the float range read as the largest float, where
    # every l is 0; log 0 = -inf gives l_0 = 0 for |p| > 0
    with np.errstate(over="ignore", divide="ignore"):
        r2 = y[..., 0] ** 2 + y[..., 1] ** 2
        sigma = np.minimum(2.0 * tau_mag * r2, np.finfo(float).max)
        rho, phases = _phase_powers(y, r2, max(tops, default=0))
        log_sigma = np.log(2.0 * tau_mag) + 2.0 * np.log(rho)
    rows = {q: list(_laguerre_rows(q, top, sigma, log_sigma)) for q, top in tops.items()}
    for k, p in indices:
        q = abs(p)
        phase = phases[q] if p >= 0 else phases[q].conj()
        # (sgn p)^p with sgn 0 = +1, so the factor is 1 unless p < 0 and odd
        sign = -1.0 if (p < 0 and p % 2 != 0) else 1.0
        yield (2.0 * tau_mag / np.pi) * sign * rows[q][k] * phase


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
