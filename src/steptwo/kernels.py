"""Kernel integrals: the sub-Laplacian's symbol and fundamental solution,
and the Szego kernel on the quaternionic Heisenberg group.

All matrix functions of the skew form reduce through the tau-frame
spectrum: each eigenvalue magnitude mu_j contributes one 2x2 block, so the
determinant factor of the fundamental-solution integrand is
prod_j mu_j/sinh(mu_j) and the quadratic form is
sum_j mu_j coth(mu_j) |z_j|^2 in the complex frame coordinates.  Dense
matrix-function evaluation survives only as a test oracle.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTauError, DimensionError, QuadratureError
from .groups import finite_array
from .quadrature import radial_nodes, sphere_rule, x_coth, x_over_sinh
from .spectral import DEGENERACY_RTOL, _checked_spectrum

# ---------------------------------------------------------------------------
# the sub-Laplacian's diagonal symbol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubLaplacianSymbol:
    """Diagonal Laguerre symbol: raw index k -> sum_j mu_j (2 k_j + 1).

    ``diag`` has shape (K+1,)*n; entry [k] is the eigenvalue on the radial
    basis element with raw index k.
    """

    frame: object
    K: int
    diag: np.ndarray = field(repr=False)

    def eigenvalue(self, k):
        k = tuple(int(v) for v in k)
        if any(v < 0 or v > self.K for v in k):
            raise DimensionError(f"raw index {k} outside truncation 0..{self.K}")
        return float(self.diag[k])


def sublap_symbol(frame, K):
    """Eigenvalues sum_j mu_j (2 k_j + 1) for all raw indices with entries <= K."""
    if frame.mu[-1] <= 0:
        raise DegenerateTauError("sublap_symbol needs a non-degenerate frame")
    n = frame.n
    grids = np.meshgrid(*[np.arange(K + 1)] * n, indexing="ij")
    diag = np.zeros(grids[0].shape)
    for j in range(n):
        diag += frame.mu[j] * (2 * grids[j] + 1)
    return SubLaplacianSymbol(frame=frame, K=K, diag=diag)


def sublap_inverse_symbol(sym):
    """Entrywise reciprocal; valid because all eigenvalues are positive."""
    if np.any(sym.diag <= 0):
        raise DegenerateTauError("cannot invert a symbol with nonpositive entries")
    return SubLaplacianSymbol(frame=sym.frame, K=sym.K, diag=1.0 / sym.diag)


# ---------------------------------------------------------------------------
# fundamental-solution integrand and integral
# ---------------------------------------------------------------------------


def _plane_energies(V, y):
    """Energy 2 |v_j^* y|^2 of y in each invariant plane, batched like V."""
    return 2.0 * np.abs(np.einsum("...kj,k->...j", V.conj(), y)) ** 2


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
    tau, y, t = (np.asarray(v, dtype=float).reshape(-1) for v in (tau, y, t))
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

    def __complex__(self):
        return complex(self.value)


def _refine(run_pass, max_refine, tol, what):
    """Refine until two consecutive passes agree to ``tol`` relatively.

    ``run_pass(level)`` returns (value, nodes) for levels 0..max_refine;
    the max-norm delta of the last two passes is reported as ``est_error``.
    """
    if max_refine < 1:
        raise DimensionError(f"max_refine must be at least 1, got {max_refine}")
    prev, _ = run_pass(0)
    for level in range(1, max_refine + 1):
        cur, nodes = run_pass(level)
        err = float(np.abs(cur - prev).max())
        prev = cur
        if err <= tol * max(float(np.abs(cur).max()), 1e-300):
            return QuadResult(value=cur, est_error=err, nodes_used=nodes)
    raise QuadratureError(
        f"{what} quadrature did not converge: last delta {err:.3e}"
    )


# element budget of one chunk of sphere nodes in the (sphere x radial x n)
# integrand temporaries; bounds a pass's working memory
_SPHERE_CHUNK_ELEMENTS = 2**18


def _fs_quadrature(group, y, t, radial, sphere_level):
    """One pass of the radial x spherical quadrature at fixed resolution."""
    n, r = group.n, group.r
    power = n + r - 1
    pts, wts = sphere_rule(r, sphere_level)
    _, mu, V, _, _ = _checked_spectrum(group, pts, DEGENERACY_RTOL)
    a = _plane_energies(V, y)
    ts = pts @ t

    # per-node radial rule, compactified against the node's decay rate
    rho, rw = radial_nodes(radial, np.sum(mu, axis=1))

    vals = np.empty(rho.shape, dtype=complex)
    chunk = max(1, _SPHERE_CHUNK_ELEMENTS // (rho.shape[1] * n))
    for lo in range(0, len(pts), chunk):
        s = slice(lo, lo + chunk)
        vals[s] = _spectral_integrand(
            rho[s, :, None] * mu[s, None, :],
            a[s, None, :],
            rho[s] * ts[s, None],
            power,
            rho[s] ** (r - 1),
        )
    total = np.einsum("s,si,si->", wts, rw, vals)
    return math.gamma(power) / np.pi**n * total, rho.size


def fundamental_solution(
    group,
    y,
    t,
    radial=120,
    sphere_level=24,
    tol=1e-9,
    max_refine=3,
):
    """Fundamental solution of the sub-Laplacian at the point (y, t).

    Gamma(n+r-1)/pi^n times the frequency integral of ``fs_integrand``,
    factorized over rays: the sphere is handled by a fixed product rule
    (two signed points for r = 1) and each ray by Gauss-Legendre nodes
    under a decay-adapted logarithmic compactification.  Node counts are
    doubled until two refinements agree to ``tol`` relatively; the last
    difference is reported as ``est_error``.

    Parameters
    ----------
    group : StepTwoGroup
    y, t : array-like
        Horizontal (nonzero) and central coordinates of the point.
    """
    y, t = group.point(y, t)
    if not np.any(y):
        raise DimensionError(
            "fundamental_solution requires y != 0 (the y = 0 slice needs "
            "analytic continuation, which is out of scope)"
        )
    return _refine(
        lambda lv: _fs_quadrature(
            group, y, t, radial * 2**lv, sphere_level + 8 * lv
        ),
        max_refine, tol, "fundamental solution",
    )


# ---------------------------------------------------------------------------
# harmonicity probe
# ---------------------------------------------------------------------------


def horizontal_laplacian_residual(group, points, h=1e-2, fn=None, **quad):
    """Apply the sub-Laplacian to the fundamental solution by differences.

    For each point, -1/4 sum_k Y_k^2 applied as nested central differences
    along the left-invariant coefficient fields; y must stay away from the
    origin by a safe multiple of the step.  Returns the max |residual| and
    the per-point values.  ``fn`` overrides the probed function (signature
    fn(y, t) -> complex) for stencil sanity checks.
    """
    if fn is None:
        def fn(yy, tt):
            return complex(
                fundamental_solution(group, yy, tt, **quad).value
            )

    def y_deriv(k, yy, tt, g):
        d = group.vector_field_coefficients(k, group.point(yy, tt))
        stepy, stept = h * d[: group.m], h * d[group.m :]
        return (g(yy + stepy, tt + stept) - g(yy - stepy, tt - stept)) / (2 * h)

    residuals = []
    for p in points:
        yy = np.asarray(p.y, dtype=float)
        tt = np.asarray(p.t, dtype=float)
        if np.linalg.norm(yy) < 10 * h:
            raise DimensionError(
                f"probe point with |y| = {np.linalg.norm(yy):.3g} is closer "
                f"than 10 h = {10 * h:.3g} to the singular set"
            )
        acc = 0.0 + 0.0j
        for k in range(group.m):
            inner = lambda a, b, k=k: y_deriv(k, a, b, fn)
            acc += y_deriv(k, yy, tt, inner)
        residuals.append(-0.25 * acc)
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


def _weight_matrix(k):
    d = np.full(k + 1, 2.0)
    d[0] = d[-1] = 1.0
    return np.diag(d)


def _central_matrix(k, tau):
    D = np.zeros((k + 1, k + 1), dtype=complex)
    up = tau[1] - 1j * tau[2]
    dn = -tau[1] - 1j * tau[2]
    for i in range(k):
        D[i, i + 1] = up
        D[i + 1, i] = dn
    D[0, 0] = 1j * tau[0]
    D[k, k] = -1j * tau[0]
    return D


def null_vector(k, tau_dot):
    """Closed-form unit null vector of the level-k matrix at a unit tau.

    The formula degenerates to 0/0 exactly at tau = (-1, 0, 0), where the
    null vector is the last basis vector; only the rank-one projection
    built from e1 is continuous across that pole, the vector's phase is not.
    """
    if 1.0 + tau_dot[0] <= 1e-14:
        e = np.zeros(k + 1, dtype=complex)
        e[-1] = 1.0
        return e
    a = 1.0 + tau_dot[0]
    b = 1j * tau_dot[1] - tau_dot[2]
    e = np.array([a ** (k - j) * b**j for j in range(k + 1)], dtype=complex)
    gamma_sq = sum(a ** (2 * k - j) * (1.0 - tau_dot[0]) ** j for j in range(k + 1))
    return e / np.sqrt(gamma_sq)


# a = 1 + tau_0 reaches 2: the a^(2k) of ``null_vector`` overflows from k = 512
MAX_LEVEL = 511


def _check_level(k):
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= MAX_LEVEL:
        raise DimensionError(
            f"the level k must be an integer in 1..{MAX_LEVEL}, got {k}"
        )


def szego_data(k, tau):
    """Matrices and null data of the level-k operator at frequency tau."""
    _check_level(k)
    tau = np.asarray(tau, dtype=float).reshape(-1)
    if tau.size != 3 or not np.any(tau):
        raise DimensionError("szego_data needs a nonzero tau in R^3")
    tau_dot = tau / np.linalg.norm(tau)
    e1 = null_vector(k, tau_dot)
    return SzegoData(
        k=k,
        tau=tau,
        M=_weight_matrix(k),
        D=_central_matrix(k, tau),
        e1=e1,
        P=np.outer(e1, e1.conj()),
    )


# constant of the kernel formula; equals 16 Gamma(5) / (2 pi)^5
SZEGO_CONSTANT = 2**7 * 3 / (2.0 * np.pi) ** 5


def _szego_pass(k, y, s, level):
    pts, wts = sphere_rule(3, level)
    y2 = float(np.dot(y, y))
    acc = np.zeros((k + 1, k + 1), dtype=complex)
    for tdot, w in zip(pts, wts):
        e1 = null_vector(k, tdot)
        base = y2 - 1j * float(np.dot(tdot, s))
        acc += (w * np.exp(-5.0 * np.log(base + 0j))) * np.outer(e1, e1.conj())
    return SZEGO_CONSTANT * acc, wts.size


def szego_kernel(k, y, s, level=20, tol=1e-10, max_refine=3):
    """Matrix-valued Szego kernel at (y, s), y != 0, by sphere quadrature.

    The integrand is the rank-one projection onto the null vector over the
    unit sphere of frequencies, against the principal-branch complex power
    of |y|^2 - i tau.s (positive real part for y != 0).
    """
    _check_level(k)
    y = finite_array(y, "szego_kernel point").reshape(-1)
    s = finite_array(s, "szego_kernel point").reshape(-1)
    if y.size != 4 or s.size != 3:
        raise DimensionError("szego_kernel expects y in R^4 and s in R^3")
    if not np.any(y):
        raise DimensionError(
            "szego_kernel requires y != 0 (the changed-contour evaluation is "
            "out of scope)"
        )
    return _refine(
        lambda step: _szego_pass(k, y, s, level + 12 * step),
        max_refine, tol, "Szego kernel",
    )
