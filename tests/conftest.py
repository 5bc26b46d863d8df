"""Shared fixtures and independent numerical oracles for the test suite."""

import math
from itertools import product

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, gammaln

import steptwo as st
from steptwo.errors import GridError
from steptwo.fields import (
    _check_shared_grid,
    _ft_axes,
    _group_axes,
    abel_multiplier,
    dual_axis_points,
    lattice_points,
)
from steptwo.kernels import SZEGO_CONSTANT, _fs_resolution, _refine
from steptwo.quadrature import _leggauss, radial_nodes, sphere_rule, x_coth, x_over_sinh
from steptwo.selftest import _series_laguerre as laguerre_series_oracle  # noqa: F401
from steptwo.spectral import DEGENERACY_RTOL, _checked_spectrum, _plane_energies


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def h1():
    return st.heisenberg(1)


@pytest.fixture(scope="session")
def quat():
    return st.quaternionic_heisenberg()


def random_skew_group(rng, n=None, r=None):
    n = int(rng.integers(1, 5)) if n is None else n
    r = int(rng.integers(1, 4)) if r is None else r
    B = rng.standard_normal((r, 2 * n, 2 * n))
    return st.make_group(n, r, B - np.transpose(B, (0, 2, 1)))


def every(k, axes):
    """Every k-th grid point of each axis, the origin among them: one slice per axis."""
    return tuple(slice(a.zero_index % k, None, k) for a in axes)


def sublap_eigenvalue(frame, idx):
    """Sub-Laplacian eigenvalue on the basis element with raw indices idx,
    from composing the two shift operators in each slot (oracle of
    ``sublap_symbol``): sum_j mu_j (2 k_j + 2 max(-p_j, 0) + 1)."""
    return float(
        sum(
            frame.mu[j] * (2 * idx.k[j] + 2 * max(-idx.p[j], 0) + 1)
            for j in range(idx.n)
        )
    )


def basis_stack_direct(frame, K, pts):
    """All K^(2n) basis functions on the points, one ``exp_laguerre`` call
    per (row, column) address pair (slow oracle); shape (rows, cols, npts)."""
    addrs = list(product(range(1, K + 1), repeat=frame.n))
    flat = pts.reshape(-1, pts.shape[-1])
    stack = np.empty((len(addrs), len(addrs), flat.shape[0]), dtype=complex)
    for i, p in enumerate(addrs):
        for j, k in enumerate(addrs):
            stack[i, j] = st.exp_laguerre(frame, st.basis_address(p, k), flat)
    return stack


def exp_laguerre_scipy(frame, idx, pts):
    """Exponential Laguerre basis function from scipy's ``eval_genlaguerre``
    (independent oracle of ``exp_laguerre``).

    Per slot j, with z = sqrt(mu_j(tau/|tau|)) (y_2j + i y_2j+1) in frame
    coordinates, the factor is mu_j(tau/|tau|) (2 tau / pi) (sgn p)^p
    l_k^(|p|)(2 tau |z|^2) e^(i p arg z).
    """
    tau_mag = np.linalg.norm(frame.tau)
    mu_unit = frame.mu / tau_mag
    yt = np.asarray(pts, dtype=float) @ frame.O
    out = np.ones(yt.shape[:-1], dtype=complex)
    for j, (k, p) in enumerate(zip(idx.k, idx.p)):
        z = np.sqrt(mu_unit[j]) * (yt[..., 2 * j] + 1j * yt[..., 2 * j + 1])
        q = abs(p)
        sigma = 2.0 * tau_mag * np.abs(z) ** 2
        norm = np.exp(0.5 * (gammaln(k + 1) - gammaln(k + q + 1)))
        radial = norm * sigma ** (0.5 * q) * np.exp(-0.5 * sigma) * eval_genlaguerre(k, q, sigma)
        sign = -1.0 if (p < 0 and p % 2) else 1.0
        out *= mu_unit[j] * (2.0 * tau_mag / np.pi) * sign * radial * np.exp(1j * p * np.angle(z))
    return out


def twisted_direct(f, g, M, stride=1):
    """Direct O(N^2) lattice sum of the twisted convolution (slow oracle).

    Same sum as ``steptwo.fields._twisted_engine``: the Riemann sum of
    exp(-2i y.M x) f(y-x) g(x) over the shared grid, f(y-x) looked up on
    the lattice and zero outside the window, evaluated point by point in
    batches of 128 output points.  Only the output points ``every(stride,
    f.axes)`` are evaluated, since the full output costs N^2 terms; returns
    their values.
    """
    _check_shared_grid(f, g)
    counts = np.array([a.count for a in f.axes])
    zero = np.array([a.zero_index for a in f.axes])
    steps = np.array([a.step for a in f.axes])
    los = np.array([a.lo for a in f.axes])

    grid_idx = lattice_points([np.arange(c) for c in counts])
    x_pts = los + grid_idx * steps
    gw = g.values.reshape(-1) * f.cell_volume
    f_flat = f.values.reshape(-1)

    out_ids = [np.arange(c)[s] for c, s in zip(counts, every(stride, f.axes))]
    out_counts = tuple(len(ids) for ids in out_ids)
    out_idx = lattice_points(out_ids)

    twoM = 2.0 * np.asarray(M, dtype=float)
    out = np.empty(out_idx.shape[0], dtype=complex)
    batch = 128
    for lo_b in range(0, out_idx.shape[0], batch):
        I = out_idx[lo_b : lo_b + batch]
        y_pts = los + I * steps
        K = I[:, None, :] - grid_idx[None, :, :] + zero
        valid = np.all((K >= 0) & (K < counts), axis=-1)
        flat_idx = np.ravel_multi_index(
            tuple(np.moveaxis(K, -1, 0)), tuple(counts), mode="clip"
        )
        fv = np.where(valid, f_flat[flat_idx], 0.0)
        phase = np.exp(-1j * np.einsum("bd,xd->bx", y_pts @ twoM, x_pts))
        out[lo_b : lo_b + batch] = np.einsum("bx,bx,x->b", phase, fv, gw)
    return out.reshape(out_counts)


def dirichlet_kernel(u, L):
    """Periodic Dirichlet kernel sin(pi u) / (L sin(pi u / L)) for odd L.

    The trigonometric interpolant of samples v[n] of period L is
    sum_n v[n] D(u - n); D is 1 at multiples of L and 0 at other integers.
    """
    u = u - L * np.rint(u / L)
    return np.sinc(u) / np.sinc(u / L)


def group_convolve_at(phi, psi, group, points):
    """Group convolution by direct quadrature at probe points (slow oracle).

    Evaluates ``int phi(x,t) psi((x,t)^{-1}(y,s)) dx dt`` at each GroupPoint
    in ``points``, whose horizontal part must lie on the lattice and whose
    central part may be anywhere.  Per central axis, psi[y - x], zero-padded
    to period L = 2c - 1, is read at the twisted points s - t - 2B(x, y)
    through the Dirichlet kernel: one (c, c) matrix per valid x, without an
    FFT.  The twist splits into its nearest integer k and a fraction, and
    s into its nearest lattice index i and a fraction; the read is zero
    unless i + zero_index - k lies in [0, L).  The result is summed against
    phi in chunks of 64 x.
    """
    _check_shared_grid(phi, psi)
    y_axes, t_axes = _group_axes(phi, group)
    y_counts = np.array([a.count for a in y_axes])
    t_counts = tuple(a.count for a in t_axes)
    y_zero = np.array([a.zero_index for a in y_axes])

    y_idx = lattice_points([np.arange(c) for c in y_counts])
    y_pts = lattice_points([a.points() for a in y_axes])
    n_x = y_idx.shape[0]
    phi_xt = phi.values.reshape((n_x,) + t_counts)
    psi_xt = psi.values.reshape((n_x,) + t_counts)
    x_chunk = 64

    def _accumulate(y_index, y_point, probe_s):
        diff = y_index[None, :] - y_idx + y_zero
        xs_all = np.nonzero(np.all((diff >= 0) & (diff < y_counts), axis=1))[0]
        hidx_all = np.ravel_multi_index(tuple(diff[xs_all].T), tuple(y_counts))
        twist_all = 2.0 * np.einsum("bkl,xk,l->xb", group.B, y_pts[xs_all], y_point)
        acc = 0.0 + 0.0j
        for lo in range(0, xs_all.size, x_chunk):
            xs = xs_all[lo : lo + x_chunk]
            vals = psi_xt[hidx_all[lo : lo + x_chunk]]
            keep = np.ones(len(xs), dtype=bool)
            for beta, a in enumerate(t_axes):
                L = 2 * a.count - 1
                twist = twist_all[lo : lo + x_chunk, beta] / a.step
                k = np.rint(twist)
                u = (probe_s[beta] - a.lo) / a.step
                m = np.rint(u) + a.zero_index - k
                keep &= (m >= 0) & (m < L)
                # phi entry j meets psi entry n at position pos - j - n
                pos = m - (twist - k) + (u - np.rint(u))
                j = np.arange(a.count)
                W = dirichlet_kernel(
                    pos[:, None, None] - j[None, :, None] - j[None, None, :], L
                )
                vals = np.moveaxis(
                    np.einsum("xjn,xn...->xj...", W, np.moveaxis(vals, 1 + beta, 1)),
                    1,
                    1 + beta,
                )
            acc = acc + (phi_xt[xs][keep] * vals[keep]).sum()
        return acc * phi.cell_volume

    return np.array(
        [
            _accumulate(
                _lattice_index(p.y, y_axes), np.asarray(p.y), np.asarray(p.t)
            )
            for p in points
        ]
    )


def _lattice_index(y, axes):
    idx = []
    for val, a in zip(y, axes):
        q = (val - a.lo) / a.step
        qi = int(round(q))
        if abs(q - qi) > 1e-9 or not 0 <= qi < a.count:
            raise GridError(
                f"output horizontal coordinate {val} is not a lattice point"
            )
        idx.append(qi)
    return np.array(idx)


def abel_partial_sum(f, group, R, terms):
    """Partial sum of the Abel-summed reproducing series (slow oracle).

    At each node tau of the half-offset central dual lattice, accumulates
    R^|k| times the twisted convolution of the partial Fourier transform of
    f with the radial basis distribution of index k, over total degree
    |k| <= terms; the inverse central transform then returns to the group.
    """
    m, r, n = group.m, group.r, group.n
    y_axes, t_axes = f.axes[:m], f.axes[m:]
    y_shape = tuple(a.count for a in y_axes)
    t_shape = tuple(a.count for a in t_axes)
    tau_pts = lattice_points([dual_axis_points(a, 0.5) for a in t_axes])
    t_pts = lattice_points([a.points() for a in t_axes])

    partial = np.zeros((int(np.prod(y_shape)), tau_pts.shape[0]), dtype=complex)
    for itau, tau in enumerate(tau_pts):
        frame = st.normalize(group, tau)
        f_tau = st.partial_fourier(f, tau)
        mesh = f_tau.mesh()
        acc = np.zeros(y_shape, dtype=complex)
        for k in product(range(terms + 1), repeat=n):
            if sum(k) > terms:
                continue
            basis = f_tau.with_values(
                st.exp_laguerre(frame, st.raw_index(k, (0,) * n), mesh)
            )
            acc += (R ** sum(k)) * st.twisted_convolve(f_tau, basis, group, tau).values
        partial[:, itau] = acc.reshape(-1)
    dual_vol_t = float(np.prod([2.0 * np.pi / (a.count * a.step) for a in t_axes]))
    phase_t = np.exp(1j * (t_pts @ tau_pts.T))
    out = np.einsum("yq,tq->yt", partial, phase_t) * (
        dual_vol_t / (2.0 * np.pi) ** r
    )
    return st.SampledField(
        axes=f.axes, values=out.reshape(y_shape + t_shape), group=group
    )


def _shifted_energies(mu, V, xi, y):
    """Plane energies 2 |V_j^H (xi + 2 M^T y)|^2, shape (len(y), len(xi), n),
    from one table over xi and one over y: M V_j = i mu_j V_j."""
    z = (xi @ V.conj())[None] - 2j * mu * (y @ V.conj())[:, None]
    return 2.0 * (z.real**2 + z.imag**2)


def abel_pairwise(f, group, R, rows=None):
    """Abel approximate identity by the per-pair sum (slow oracle).

    At each node tau of the half-offset central dual lattice, output row y
    sums e^(i y.xi) abel_multiplier(energies of xi + 2 M^T y) f_hat(xi, tau)
    over every xi node, one (y, xi) table per node; the inverse central
    transform returns to the group.  ``rows`` (flat indices of horizontal
    grid points, default all) picks the rows computed; the result has shape
    (len(rows), *central counts).
    """
    y_axes, t_axes = _group_axes(f, group)
    xi_freqs = [dual_axis_points(a) for a in y_axes]
    tau_freqs = [dual_axis_points(a, 0.5) for a in t_axes]
    f_hat = _ft_axes(f.values, f.axes, 0, xi_freqs + tau_freqs)
    y_pts = lattice_points([a.points() for a in y_axes])
    y_pts = y_pts if rows is None else y_pts[rows]
    xi_pts = lattice_points(xi_freqs)
    tau_pts = lattice_points(tau_freqs)
    f_hat = f_hat.reshape(len(xi_pts), len(tau_pts))
    _, mu, V, _, _ = _checked_spectrum(group, tau_pts, DEGENERACY_RTOL)
    partial = np.empty((len(y_pts), len(tau_pts)), dtype=complex)
    for lo in range(0, len(y_pts), 64):
        y = y_pts[lo : lo + 64]
        phase = np.exp(1j * (y @ xi_pts.T))
        for q in range(len(tau_pts)):
            energies = _shifted_energies(mu[q], V[q], xi_pts, y)
            mult = abel_multiplier(mu[q], energies, R)
            partial[lo : lo + 64, q] = np.einsum("yx,yx,x->y", phase, mult, f_hat[:, q])
    partial /= np.prod([a.count * a.step for a in y_axes])
    shape = (len(y_pts),) + tuple(a.count for a in t_axes)
    return _ft_axes(
        partial.reshape(shape), t_axes, 1, tau_freqs, inverse=True
    )


def abel_fundamental_solution(group, y, t, R, tol=1e-9):
    """Abel-regularized fundamental-solution family at (y, t) (slow oracle).

    The frequency integral of ``fundamental_solution`` with the hyperbolic
    factors of x = rho mu_j replaced by their R-damped Laguerre series,
    2x e^-x / (1 - R e^-2x) and x (1 + R e^-2x) / (1 - R e^-2x); R -> 1
    gives back x/sinh(x) and x coth(x).  Same product quadrature and the
    same refinement schedule (``kernels._fs_resolution``), on every group.
    """
    y, t = group.point(y, t)
    n, r = group.n, group.r
    power = n + r - 1

    def run_pass(level):
        radial, sphere_level = _fs_resolution(level, r)
        pts, wts = sphere_rule(r, sphere_level)
        _, mu, V, _, _ = _checked_spectrum(group, pts, DEGENERACY_RTOL)
        a = _plane_energies(V, y)
        rho, rw = radial_nodes(radial, np.sum(mu, axis=1))
        arg = rho[:, :, None] * mu[:, None, :]
        e = np.exp(-arg)
        det_factor = np.prod(2.0 * arg * e / (1.0 - R * e * e), axis=2)
        quad = np.einsum(
            "sij,sj->si", arg * (1.0 + R * e * e) / (1.0 - R * e * e), a
        )
        base = quad + 1j * rho * (pts @ t)[:, None]
        vals = rho ** (r - 1) * det_factor * np.exp(-power * np.log(base))
        total = np.einsum("s,si,si->", wts, rw, vals)
        return math.gamma(power) / np.pi**n * total, rho.size

    return _refine(run_pass, tol, "Abel family").value


def kaplan_fundamental(group, y, t):
    """Kaplan's closed form of the fundamental solution on an H-type group
    of scale 1 (B_tau^2 = -|tau|^2 I), in this library's normalization:
    c(n, r) (|y|^4 + |t|^2)^(-(n+r-1)/2) with
    c(n, r) = |S^(r-1)| Gamma(n+r-1) B(r/2, n/2) / (2 pi^n), so that
    c(1, 1) = 1 and c(2, 3) = 8/pi."""
    n, r = group.n, group.r
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    sphere = 2.0 * np.pi ** (r / 2) / math.gamma(r / 2)
    beta = math.gamma(r / 2) * math.gamma(n / 2) / math.gamma((n + r) / 2)
    c = sphere * math.gamma(n + r - 1) * beta / (2.0 * np.pi**n)
    return c * (float(y @ y) ** 2 + float(t @ t)) ** (-(n + r - 1) / 2)


def fd_directional(fn, pts, direction, h):
    """Fourth-order central difference of fn along a fixed direction."""
    d = np.asarray(direction, dtype=float)
    return (
        fn(pts - 2 * h * d)
        - 8.0 * fn(pts - h * d)
        + 8.0 * fn(pts + h * d)
        - fn(pts + 2 * h * d)
    ) / (12.0 * h)


def dense_fs_integrand(group, tau, y, t):
    """Matrix-function oracle for the fundamental-solution integrand.

    Evaluates det[|B|/sinh|B|]^(1/2) and <|B| coth|B| y, y> through a dense
    eigendecomposition of the symmetric matrix |B|^2 = B^T B, instead of
    the 2x2-block spectral reduction used by the library.
    """
    tau = np.asarray(tau, dtype=float)
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    M = group.b_tau(tau)
    w, V = np.linalg.eigh(M.T @ M)
    lam = np.sqrt(np.clip(w, 0.0, None))
    det_factor = float(np.prod(np.sqrt(lam / np.sinh(lam))))
    coth_mat = V @ np.diag(lam / np.tanh(lam)) @ V.T
    base = float(y @ coth_mat @ y) + 1j * float(t @ tau)
    power = group.n + group.r - 1
    return det_factor * base ** (-power)


def heat_tail_on_ray(group, lam, y, s0):
    """Kernel side of the Laguerre identity for the inverse sub-Laplacian.

    pi^(-n) int_{s0 |lam|}^inf prod_j x_over_sinh(rho nu_j) |lam|^(n-1)
    rho^(-n) exp(-|lam| sum_j x_coth(rho nu_j) a_j / rho) d rho, with
    nu = mu(lam / |lam|) and a the plane energies of y: the fundamental-
    solution integrand on the ray lam / |lam|, which is the heat kernel's
    partial Fourier transform at lam integrated over heat times s >= s0
    (rho = s |lam|).  By scipy's adaptive quadrature, not the library's.
    """
    lam = np.asarray(lam, dtype=float)
    mag = float(np.linalg.norm(lam))
    _, nu, V, _, _ = _checked_spectrum(group, lam / mag, DEGENERACY_RTOL)
    a = _plane_energies(V, np.asarray(y, dtype=float))
    n = group.n

    def integrand(rho):
        x = rho * nu
        decay = math.exp(-mag * float(x_coth(x) @ a) / rho)
        return float(np.prod(x_over_sinh(x))) * mag ** (n - 1) * rho**-n * decay

    value, _ = quad(integrand, s0 * mag, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    return value / np.pi**n


def null_vector_unscaled(k, tau_hat):
    """Unit null vectors of the level-k Szego matrix at unit frequencies
    (..., 3), from the unscaled powers a^(k-j) b^j and their norm
    gamma^2 = sum_j a^(2k-j) (1 - tau_0)^j (oracle of ``null_vector``;
    underflows to 0/0 near tau_hat = (-1, 0, 0) from about k = 100)."""
    tau_hat = np.asarray(tau_hat, dtype=float)
    a = (1.0 + tau_hat[..., 0])[..., None]
    b = (1j * tau_hat[..., 1] - tau_hat[..., 2])[..., None]
    j = np.arange(k + 1)
    e = a ** (k - j) * b**j
    gamma_sq = np.sum(a ** (2 * k - j) * (1.0 - tau_hat[..., 0, None]) ** j, axis=-1)
    pole = a[..., 0] <= 1e-14
    e[pole] = j == k
    gamma_sq[pole] = 1.0
    return e / np.sqrt(gamma_sq)[..., None]


def szego_pass_loop(k, y, s, level):
    """One Szego pass as a direct sum over the sphere nodes: per node the
    power (|y|^2 - i tau_hat.s)^(-5) times the outer product of
    ``null_vector_unscaled``, no FFT (oracle of ``kernels._szego_pass``).
    The nodes are a product rule about e_0, tau_hat = (x, sqrt(1 - x^2)
    cos phi, sqrt(1 - x^2) sin phi): 3 level / 2 Gauss-Legendre x times
    3 level uniform phi."""
    x, wx = _leggauss(3 * level // 2)
    phi = 2.0 * np.pi * np.arange(3 * level) / (3 * level)
    side = np.sqrt(1.0 - x**2)[:, None]
    pts = np.stack(np.broadcast_arrays(x[:, None], side * np.cos(phi), side * np.sin(phi)), axis=-1)
    pts, wts = pts.reshape(-1, 3), np.repeat(wx * 2.0 * np.pi / phi.size, phi.size)
    e = null_vector_unscaled(k, pts)
    power = np.exp(-5.0 * np.log(float(np.dot(y, y)) - 1j * (pts @ s)))
    return SZEGO_CONSTANT * np.einsum("n,nj,nl->jl", wts * power, e, e.conj()), wts.size


def szego_at_zero_central(k, y):
    """Szego kernel at s = 0 for any level k, as a 1-D integral.

    By symmetry about the tau_0 axis the sphere integral of P is diagonal:
    entry j is 2 pi int_{-1}^{1} a^(k-j) (1-x)^j / sum_i a^(k-i) (1-x)^i dx
    with a = 1 + x, here on 400 Gauss-Legendre nodes.  The kernel is
    SZEGO_CONSTANT |y|^(-10) times that diagonal.
    """
    x, w = np.polynomial.legendre.leggauss(400)
    j = np.arange(k + 1)
    terms = (1.0 + x[:, None]) ** (k - j) * (1.0 - x[:, None]) ** j
    diag = 2.0 * np.pi * (w @ (terms / terms.sum(axis=1, keepdims=True)))
    y = np.asarray(y, dtype=float)
    return SZEGO_CONSTANT * float(y @ y) ** -5 * np.diag(diag)


def szego_on_axis(k, y, s0, digits=30):
    """Szego kernel at s = (s0, 0, 0) as 1-D integrals, in mpmath.

    About e_0 the power (|y|^2 - i s0 cos theta)^(-5) does not depend on
    the azimuth, and entry (j, l) of the projection carries
    e^(i (j-l) phi), so the kernel is diagonal.  Entry j is
    2 pi SZEGO_CONSTANT times the integral over theta in [0, pi] of
    (|y|^2 - i s0 cos theta)^(-5) a^(2(k-j)) sin^(2j) theta / N sin theta,
    with a = 1 + cos theta and N = sum_i a^(2(k-i)) sin^(2i) theta; each
    entry by ``mpmath.quad`` at ``digits`` digits.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        y2, s0 = mpmath.mpf(float(np.dot(y, y))), mpmath.mpf(float(s0))
        shared = {}

        def common(theta):  # every entry's quad visits the same nodes
            if theta not in shared:
                a, sine = 1 + mpmath.cos(theta), mpmath.sin(theta)
                norm = mpmath.fsum(a ** (2 * (k - i)) * sine ** (2 * i) for i in range(k + 1))
                power = (y2 - 1j * s0 * mpmath.cos(theta)) ** -5
                shared[theta] = a, sine, power * sine / norm
            return shared[theta]

        def entry(j):
            def integrand(theta):
                a, sine, rest = common(theta)
                return rest * a ** (2 * (k - j)) * sine ** (2 * j)

            return complex(2 * mpmath.pi * mpmath.quad(integrand, [0, mpmath.pi]))

        diag = [entry(j) for j in range(k + 1)]
    return SZEGO_CONSTANT * np.diag(diag)


def axis_derivative_4th(values, axis, step):
    """Fourth-order interior derivative along one grid axis (edges garbage)."""
    out = np.zeros_like(values)
    sl = [slice(None)] * values.ndim

    def shifted(k):
        s = list(sl)
        s[axis] = slice(2 + k, values.shape[axis] - 2 + k or None)
        return values[tuple(s)]

    s_mid = list(sl)
    s_mid[axis] = slice(2, -2)
    out[tuple(s_mid)] = (
        shifted(-2) - 8.0 * shifted(-1) + 8.0 * shifted(1) - shifted(2)
    ) / (12.0 * step)
    return out
