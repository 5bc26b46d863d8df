"""Kernel integrals: the sub-Laplacian's fundamental solution and the
Szego kernel on the quaternionic Heisenberg group.

All matrix functions of the skew form reduce through the tau-frame
spectrum: each eigenvalue magnitude mu_j contributes one 2x2 block, so the
determinant factor of the fundamental-solution integrand is
prod_j mu_j/sinh(mu_j) and the quadratic form is
sum_j mu_j coth(mu_j) |z_j|^2 in the complex frame coordinates.  Dense
matrix-function evaluation survives only as a test oracle.  On H-type
groups every mu_j is c |tau|, and for r = 3 the sphere integral of the
fundamental solution is elementary, so only its radial rule runs.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import eval_chebyu

from .errors import DegenerateTauError, DimensionError, QuadratureError
from .groups import checked_int, finite_array, positive_number, quaternionic_heisenberg
from .quadrature import _leggauss, radial_nodes, sphere_rule, x_coth, x_over_sinh
from .spectral import DEGENERACY_RTOL, _blocks, _checked_spectrum, _plane_energies

# Refinement schedules.  Each kernel runs a first pass and at most
# _REFINEMENTS finer ones, until two consecutive passes agree.  Pass i of
# the fundamental solution takes _FS_RADIAL 2^i radial nodes and sphere
# level _FS_SPHERE_LEVEL + 8 i for r = 3, or _FS_CIRCLE 2^i angles for r = 2
# (the uniform circle rule converges geometrically).  The numerator of the
# Szego projection has degree 2k in tau_hat, so its pass i takes level
# max(20, 4k) + 12 i: 3 level / 2 polar nodes about e_0 times 3 level
# azimuths (_szego_pass), each polar node costing (k+1)^2 + 3 level.
_REFINEMENTS = 3
_FS_RADIAL = 120
_FS_SPHERE_LEVEL = 24
_FS_CIRCLE = 48
_SZEGO_TOL = 1e-10


def _fs_resolution(step, r):
    sphere = _FS_CIRCLE * 2**step if r == 2 else _FS_SPHERE_LEVEL + 8 * step
    return _FS_RADIAL * 2**step, sphere


def _szego_level(k, step):
    return max(20, 4 * k) + 12 * step


# ---------------------------------------------------------------------------
# fundamental-solution integrand and integral
# ---------------------------------------------------------------------------


def _spectral_integrand(mu, a, t_tau, power, jacobian=1.0):
    """prod_j x/sinh(x) / (sum_j x coth(x) a_j + i t.tau)^power at x = mu_j.

    The last axis of mu and of the plane energies a runs over j.  A
    quadrature ``jacobian`` multiplies the determinant factor first.
    """
    det_factor = np.prod(x_over_sinh(mu), axis=-1)
    quad = np.einsum("...j,...j->...", x_coth(mu), a)
    base = quad + 1j * t_tau
    return jacobian * det_factor * np.exp(-power * np.log(base))


def fs_integrand(group, tau, y, t):
    """Integrand of the fundamental-solution formula at frequency tau.

    det[|B|/sinh|B|]^(1/2) / (<|B| coth|B| y, y> + i t.tau)^(n+r-1) from
    the spectrum of B_tau, principal branch (the base has positive real
    part for y != 0).  At tau = 0 both hyperbolic factors tend to 1: the
    same formula with mu = 0 and all of |y|^2 in one plane.
    """
    y, t = group.point(y, t)
    tau = finite_array(tau, "tau").reshape(-1)
    if tau.size != group.r:
        raise DimensionError(f"tau must have length {group.r}, got {tau.size}")
    if np.any(tau):
        _, mu, V, _, _ = _checked_spectrum(group, tau, DEGENERACY_RTOL)
        a = _plane_energies(V, y)
    else:
        mu, a = np.zeros(group.n), np.zeros(group.n)
        a[0] = y @ y
    power = group.n + group.r - 1
    return complex(_spectral_integrand(mu, a, float(t @ tau), power))


@dataclass(frozen=True)
class QuadResult:
    value: complex
    est_error: float
    nodes_used: int


def _refine(run_pass, tol, what):
    """Refine until two consecutive passes agree to ``tol`` relatively.

    ``run_pass(level)`` returns (value, nodes) for levels 0.._REFINEMENTS;
    the max-norm delta of the last two passes is reported as ``est_error``.
    A pass that overflows, divides by zero or meets an invalid value, or
    returns a non-finite entry, raises at once: the value at this point is
    outside the float range, and no finer pass brings it back.
    """

    def finite_pass(level):
        outside = QuadratureError(f"the {what} at this point is outside the float range")
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                value, nodes = run_pass(level)
        except FloatingPointError as exc:
            raise outside from exc
        if not np.isfinite(value).all():
            raise outside
        return value, nodes

    prev, _ = finite_pass(0)
    for level in range(1, _REFINEMENTS + 1):
        cur, nodes = finite_pass(level)
        err = float(np.abs(cur - prev).max())
        scale = float(np.abs(cur).max())
        prev = cur
        if err <= tol * scale:  # two exact zeros (an underflow) agree
            return QuadResult(value=cur, est_error=err, nodes_used=nodes)
    rel = err / scale if scale else math.inf
    raise QuadratureError(
        f"{what} quadrature did not converge: relative delta {rel:.3e} "
        f"against tol {tol:.1e}, last delta {err:.3e}"
    )


def _fs_quadrature(group, y, t, radial, sphere_level):
    """One pass of the radial x spherical quadrature at fixed resolution,
    one block of sphere nodes at a time: no nodes x radial table."""
    n, r = group.n, group.r
    power = n + r - 1
    pts, wts = sphere_rule(r, sphere_level)
    _, mu, V, _, _ = _checked_spectrum(group, pts, DEGENERACY_RTOL)
    a = _plane_energies(V, y)
    ts = pts @ t

    total = 0j
    for s in _blocks(len(pts), radial * n):
        # per-node radial rule, compactified against the node's decay rate
        rho, rw = radial_nodes(radial, np.sum(mu[s], axis=1))
        vals = _spectral_integrand(
            rho[:, :, None] * mu[s, None, :],
            a[s, None, :],
            rho * ts[s, None],
            power,
            rho ** (r - 1),
        )
        total += np.einsum("s,si,si->", wts[s], rw, vals)
    return math.gamma(power) / np.pi**n * total, len(pts) * radial


def _htype_scale(group):
    """The scale c of an H-type group, or None for any other group.

    H-type means B_a B_b + B_b B_a = -2 c^2 delta_ab I (to 1e-12 of c^2),
    so B_tau^2 = -c^2 |tau|^2 I and every mu_j(tau) equals c |tau|.
    """
    anti = np.einsum("aij,bjk->abik", group.B, group.B)
    anti = anti + anti.transpose(1, 0, 2, 3)
    c2 = -np.einsum("aaii->", anti) / (2 * group.r * group.m)
    want = -2.0 * c2 * np.einsum("ab,ij->abij", np.eye(group.r), np.eye(group.m))
    if c2 <= 0 or np.abs(anti - want).max() > 1e-12 * c2:
        return None
    return math.sqrt(c2)


def _check_independent(group):
    """Raise where B_tau = 0 at a unit tau: the smallest singular direction
    of the r x (2n)^2 matrix of flattened B (every n = 1, r >= 2 group)."""
    U, sv, _ = np.linalg.svd(group.B.reshape(group.r, -1))
    if sv.size < group.r or sv[-1] <= DEGENERACY_RTOL * sv[0]:
        raise DegenerateTauError(
            "the structure matrices are linearly dependent: B_tau = 0 at "
            f"the unit tau = {U[:, -1].tolist()}"
        )


def _fs_htype_pass(group, c, y, t, radial):
    """One pass of the radial rule alone, on an H-type group with r = 3.

    On the ray rho tau_hat every mu_j is c rho and the plane energies sum
    to |y|^2, so the integrand is x_over_sinh(c rho)^n (A + i B x)^(-p)
    with A = x_coth(c rho) |y|^2, B = rho |t|, x = tau_hat.t_hat and
    p = n + 2.  Its sphere integral 2 pi int_{-1}^{1} dx is
    4 pi R^(1-p) sin((p-1) phi) / ((p-1) B) with A + iB = R e^(i phi).
    As B = R sin(phi), that is 4 pi R^(-p) U_{p-2}(cos phi) / (p-1), U the
    Chebyshev polynomial of the second kind: no cancellation as t -> 0,
    and at B = 0 it is the limit 4 pi A^(-p) without a special case.
    """
    n = group.n
    power = n + 2
    rho, rw = radial_nodes(radial, n * c)
    A = x_coth(c * rho) * (y @ y)
    R = np.hypot(A, rho * np.linalg.norm(t))
    sphere = 4.0 * np.pi / (power - 1) * eval_chebyu(power - 2, A / R) * R**-power
    total = np.einsum("i,i,i->", rw, rho**2 * x_over_sinh(c * rho) ** n, sphere)
    return math.gamma(power) / np.pi**n * complex(total), radial


def fundamental_solution(group, y, t, tol=1e-9):
    """Fundamental solution of the sub-Laplacian at the point (y, t), y != 0.

    Gamma(n+r-1)/pi^n times the frequency integral of ``fs_integrand``,
    factorized over rays.  Each ray is handled by Gauss-Legendre nodes
    under a decay-adapted logarithmic compactification.  On an H-type
    group with r = 3 (B_a B_b + B_b B_a = -2 c^2 delta_ab I) the sphere
    integral is taken in closed form, so only the radial rule runs; every
    other group takes a product sphere rule (two signed points for r = 1).
    Passes follow ``_fs_resolution`` until two agree to ``tol``
    relatively; the last difference is reported as ``est_error``.  Groups
    with linearly dependent structure matrices raise DegenerateTauError.
    """
    y, t = group.point(y, t)
    tol = positive_number(tol, "tol")
    if not np.any(y):
        raise DimensionError(
            "fundamental_solution requires y != 0 (the y = 0 slice needs "
            "analytic continuation, which is out of scope)"
        )
    _check_independent(group)
    c = _htype_scale(group) if group.r == 3 else None
    if c is None:
        run_pass = lambda lv: _fs_quadrature(group, y, t, *_fs_resolution(lv, group.r))
    else:
        run_pass = lambda lv: _fs_htype_pass(group, c, y, t, _fs_resolution(lv, 3)[0])
    return _refine(run_pass, tol, "fundamental solution")


# ---------------------------------------------------------------------------
# harmonicity probe
# ---------------------------------------------------------------------------


def _sublaplacian_by_differences(group, fn, y, t, h):
    """-1/4 sum_k Y_k^2 fn at p = (y, t); fn(y, t) -> complex.

    Y_k's coefficients do not change along its flow p . (s e_k, 0), as
    B(e_k, e_k) = 0, so two nested central differences of step h along Y_k
    are one second difference of step 2h along it: 2 (2n) + 1 calls of fn.
    """
    p, centre, acc = group.point(y, t), fn(y, t), 0j
    for step in 2.0 * h * np.eye(group.m):
        for sign in (1.0, -1.0):
            acc += fn(*group.multiply(p, group.point(sign * step, np.zeros(group.r))))
        acc -= 2.0 * centre
    return -acc / (16.0 * h * h)


def horizontal_laplacian_residual(group, points, h=1e-2, tol=1e-9):
    """Apply the sub-Laplacian to the fundamental solution by differences.

    For each point, ``_sublaplacian_by_differences`` of the fundamental
    solution to ``tol``; y must stay away from the origin by a safe
    multiple of the step.  Returns the max |residual| and the per-point values.
    """
    h = positive_number(h, "step h")
    try:
        probes = [group.point(*p) for p in points]  # a GroupPoint unpacks as (y, t)
    except TypeError:  # not an iterable of (y, t) pairs
        raise DimensionError(f"points must be (y, t) pairs, got {points!r}") from None
    if not probes:
        raise DimensionError("the probe list is empty: pass at least one point")

    def psi(yy, tt):
        return complex(fundamental_solution(group, yy, tt, tol).value)

    residuals = []
    for yy, tt in probes:
        if np.linalg.norm(yy) < 10 * h:
            raise DimensionError(
                f"probe point with |y| = {np.linalg.norm(yy):.3g} is closer "
                f"than 10 h = {10 * h:.3g} to the singular set"
            )
        residuals.append(_sublaplacian_by_differences(group, psi, yy, tt, h))
    residuals = np.array(residuals)
    return float(np.abs(residuals).max()), residuals


# ---------------------------------------------------------------------------
# Szego data and kernel on the 7-dimensional quaternionic Heisenberg group
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SzegoData:
    """Level-k spectral data of the second-order operator behind the
    Szego projection: the diagonal weight M, the central-symbol matrix D
    at tau, the unit null vector e1 of |tau| M + i D, and the rank-one
    projection P onto it."""

    k: int
    tau: np.ndarray
    M: np.ndarray = field(repr=False)
    D: np.ndarray = field(repr=False)
    e1: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)

    def psd_matrix(self):
        """The Hermitian positive-semidefinite combination |tau| M + i D."""
        return float(np.linalg.norm(self.tau)) * self.M + 1j * self.D


def null_vector(k, tau_hat):
    """Unit null vectors of the level-k matrix at unit frequencies.

    ``tau_hat`` has shape (..., 3) and the result (..., k+1).  Entry j is
    proportional to a^(k-j) b^j with a = 1 + tau_0 and b = i tau_1 - tau_2;
    both are divided by m = max(a, |b|) before the powers, so no entry
    overflows or underflows.  At the pole tau_hat = (-1, 0, 0), where
    m = 0, the null vector is the last basis vector; only the rank-one
    projection is continuous across that pole, the vector's phase is not.
    """
    k = checked_int(k, "level k", 0)
    tau_hat = finite_array(tau_hat, "tau_hat", (..., 3))
    a = 1.0 + tau_hat[..., 0]
    b = 1j * tau_hat[..., 1] - tau_hat[..., 2]
    m = np.maximum(a, np.abs(b))
    pole = m == 0.0
    m = np.where(pole, 1.0, m)[..., None]
    j = np.arange(k + 1)
    e = (b[..., None] / m) ** j
    e *= (a[..., None] / m) ** (k - j)
    e[pole] = j == k
    e /= np.linalg.norm(e, axis=-1, keepdims=True)
    return e


# input bound of szego_data and szego_kernel
MAX_LEVEL = 511


def szego_data(k, tau):
    """Matrices and null data of the level-k operator at frequency tau.

    M = diag(1, 2, ..., 2, 1); D has tau_1 - i tau_2 above the diagonal,
    -tau_1 - i tau_2 below it and the corners i tau_0, -i tau_0.
    """
    k = checked_int(k, "level k", 1, MAX_LEVEL)
    tau = finite_array(tau, "tau").reshape(-1)
    if tau.size != 3 or not np.any(tau):
        raise DimensionError("szego_data needs a nonzero tau in R^3")
    weights = np.full(k + 1, 2.0)
    weights[[0, -1]] = 1.0
    D = np.diag(np.full(k, tau[1] - 1j * tau[2]), 1)
    np.fill_diagonal(D[1:], -tau[1] - 1j * tau[2])
    D[0, 0] = 1j * tau[0]
    D[k, k] = -1j * tau[0]
    e1 = null_vector(k, tau / np.linalg.norm(tau))
    return SzegoData(
        k=k, tau=tau, M=np.diag(weights), D=D, e1=e1, P=np.outer(e1, e1.conj())
    )


# constant of the kernel formula; equals 16 Gamma(5) / (2 pi)^5
SZEGO_CONSTANT = 2**7 * 3 / (2.0 * np.pi) ** 5


def _szego_pass(k, y, s, level):
    """One pass of the product rule about e_0, the null vector's axis.

    At tau_hat = (x, c cos phi, c sin phi), c = sqrt(1 - x^2), P_jl is
    P_jl(x, 0) e^(i (j-l) phi), so the kernel is sum_x w_x P_jl(x, 0)
    W_(j-l)(x), W_m(x) the phi integral of e^(i m phi) (|y|^2 - i tau_hat.s)^-5:
    one inverse FFT over 3 level > 2k azimuths, so no harmonic aliases.  The
    null vector's norm vanishes pi / (k+1) off the polar segment, so the
    3 level / 2 >= 6k Gauss-Legendre nodes x leave about e^(-12 pi).  Polar
    nodes run in blocks (einsum, not BLAS: the sum order is thread-count free).
    """
    x, wx = _leggauss(3 * level // 2)
    n_phi = 3 * level
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    c = np.sqrt(1.0 - x**2)
    j = np.arange(k + 1)
    harmonic = (j[:, None] - j) % n_phi
    acc = np.zeros((k + 1, k + 1), dtype=complex)
    for b in _blocks(x.size, (k + 1) ** 2 + n_phi):
        e = null_vector(k, np.column_stack([x[b], c[b], 0.0 * c[b]]))
        ts = x[b, None] * s[0] + c[b, None] * (np.cos(phi) * s[1] + np.sin(phi) * s[2])
        W = 2.0 * np.pi * np.fft.ifft(np.exp(-5.0 * np.log(y @ y - 1j * ts)), axis=1)
        acc += np.einsum("x,xj,xl,xjl->jl", wx[b], e, e.conj(), W[:, harmonic])
    return SZEGO_CONSTANT * acc, x.size * n_phi


def szego_kernel(k, y, s):
    """Matrix-valued Szego kernel at (y, s), y != 0, by sphere quadrature.

    The integrand is the rank-one projection onto the null vector over the
    unit sphere of frequencies, against the principal-branch complex power
    of |y|^2 - i tau.s (positive real part for y != 0), on the product
    rules about e_0 of ``_szego_level`` (``_szego_pass``).
    """
    k = checked_int(k, "level k", 1, MAX_LEVEL)
    y, s = quaternionic_heisenberg().point(y, s)
    if not np.any(y):
        raise DimensionError(
            "szego_kernel requires y != 0 (the changed-contour evaluation is "
            "out of scope)"
        )
    run_pass = lambda step: _szego_pass(k, y, s, _szego_level(k, step))
    return _refine(run_pass, _SZEGO_TOL, "Szego kernel")
