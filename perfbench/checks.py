"""Independent references and the pass/fail checks applied to every job.

Nothing here calls into ``steptwo``: the exponential Laguerre basis is
evaluated from scipy's generalized Laguerre polynomials, field containers
are parsed from their documented byte layout, and the kernel values come
from closed forms (H-type fundamental solutions, Kaplan 1980; the Szego
value at s = 0) or from parabolic homogeneity.  A check returns a list of
problem strings; an empty list means the job passed.
"""

import struct
from itertools import product as iproduct

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

FIELD_MAGIC = b"S2FIELD\x00"


# ---------------------------------------------------------------------------
# exponential Laguerre basis, evaluated independently
# ---------------------------------------------------------------------------


def addresses(n, K):
    """Matrix-unit addresses {1..K}^n in lexicographic order."""
    return list(iproduct(range(1, K + 1), repeat=n))


def _slot(a, b, z, tau_mag):
    """2-d block at basis address (a, b) for complex points z.

    Raw radial index k = min(a, b) - 1 and angular index p = a - b; the
    block is (2 tau / pi) (sgn p)^p l_k^(|p|)(2 tau |z|^2) e^(i p arg z).
    """
    k, p = min(a, b) - 1, a - b
    q = abs(p)
    sigma = 2.0 * tau_mag * np.abs(z) ** 2
    norm = np.exp(0.5 * (gammaln(k + 1) - gammaln(k + q + 1)))
    radial = norm * sigma ** (0.5 * q) * np.exp(-0.5 * sigma) * eval_genlaguerre(k, q, sigma)
    sign = -1.0 if (p < 0 and p % 2) else 1.0
    return (2.0 * tau_mag / np.pi) * sign * radial * np.exp(1j * p * np.angle(z))


def expansion(coeffs, O, mu_unit, tau_mag, pts):
    """Sum of coeffs[i, j] e_(addr_i, addr_j) at points of shape (..., 2n).

    ``O`` and ``mu_unit`` describe the tau-frame: frame coordinates are
    y @ O, slot j is rescaled by sqrt(mu_unit[j]) and weighted by
    mu_unit[j].
    """
    n = len(mu_unit)
    side = coeffs.shape[0]
    K = round(side ** (1.0 / n))
    yt = np.asarray(pts, dtype=float) @ O
    z = [
        np.sqrt(mu_unit[j]) * (yt[..., 2 * j] + 1j * yt[..., 2 * j + 1])
        for j in range(n)
    ]
    # per slot, the K x K table of 2-d blocks; basis elements are products
    tables = [
        {(a, b): mu_unit[j] * _slot(a, b, z[j], tau_mag) for a in range(1, K + 1) for b in range(1, K + 1)}
        for j in range(n)
    ]
    addrs = addresses(n, K)
    out = np.zeros(yt.shape[:-1], dtype=complex)
    for i, p in enumerate(addrs):
        for j, k in enumerate(addrs):
            if coeffs[i, j] == 0:
                continue
            term = coeffs[i, j]
            for s in range(n):
                term = term * tables[s][(p[s], k[s])]
            out = out + term
    return out


def mesh(axes):
    """Grid points, shape (*counts, ndim), of axes with lo, step and count."""
    pts = [a.lo + a.step * np.arange(a.count) for a in axes]
    return np.stack(np.meshgrid(*pts, indexing="ij"), axis=-1)


# ---------------------------------------------------------------------------
# field containers, parsed from the byte layout
# ---------------------------------------------------------------------------


def read_field(path):
    """Axes (lo, step, count) and complex samples of a field container."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != FIELD_MAGIC:
        raise ValueError(f"{path} is not a field container")
    (ndim,) = struct.unpack_from("<q", data, 8)
    axes = [struct.unpack_from("<ddq", data, 16 + 24 * i) for i in range(ndim)]
    shape = tuple(int(c) for _, _, c in axes)
    start = 16 + 24 * ndim
    values = np.frombuffer(data, dtype=complex, offset=start)
    if values.size != int(np.prod(shape)):
        raise ValueError(f"{path} holds {values.size} samples, grid needs {np.prod(shape)}")
    return axes, values.reshape(shape)


# ---------------------------------------------------------------------------
# kernel references
# ---------------------------------------------------------------------------


def gauge4(y, t):
    """|y|^4 + |t|^2, the fourth power of the parabolic gauge."""
    return float(np.dot(y, y)) ** 2 + float(np.dot(t, t))


def fundamental_h1(y, t):
    return gauge4(y, t) ** -0.5


def fundamental_quat(y, t):
    return 8.0 / np.pi * gauge4(y, t) ** -2


def szego_k1_at_s0(y):
    """(24/pi^4) |y|^-10 times the 2 x 2 identity."""
    return 24.0 / np.pi**4 * float(np.dot(y, y)) ** -5 * np.eye(2)


# homogeneous degree of the Szego kernel: minus the homogeneous dimension 4 + 2*3
SZEGO_DEGREE = -10


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def rel_error(out, ref):
    """max |out - ref| / max |ref| over the compared entries."""
    out, ref = np.asarray(out), np.asarray(ref)
    if out.shape != ref.shape:
        return np.inf
    scale = float(np.abs(ref).max())
    err = float(np.abs(out - ref).max())
    if not np.isfinite(err):
        return np.inf
    return err / scale if scale > 0 else err


def check_close(label, out, ref, tol):
    err = rel_error(out, ref)
    if err <= tol:
        return []
    return [f"{label}: relative error {err:.3e} above {tol:.1e}"]


def check_strictly_decreasing(label, values):
    values = list(values)
    if all(np.isfinite(values)) and all(a > b for a, b in zip(values, values[1:])):
        return []
    return [f"{label}: errors {['%.4g' % v for v in values]} not strictly decreasing"]
