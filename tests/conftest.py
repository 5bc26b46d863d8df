"""Shared fixtures and independent numerical oracles for the test suite."""

import math
from itertools import product

import numpy as np
import pytest

import steptwo as st
from steptwo.errors import GridError
from steptwo.fields import (
    _check_shared_grid,
    _group_axes,
    dual_axis_points,
    lattice_points,
)
from steptwo.kernels import _refine
from steptwo.quadrature import radial_nodes, sphere_rule
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


def abel_fundamental_solution(
    group, y, t, R, radial=120, sphere_level=24, tol=1e-9, max_refine=3
):
    """Abel-regularized fundamental-solution family at (y, t) (slow oracle).

    The frequency integral of ``fundamental_solution`` with the hyperbolic
    factors of x = rho mu_j replaced by their R-damped Laguerre series,
    2x e^-x / (1 - R e^-2x) and x (1 + R e^-2x) / (1 - R e^-2x); R -> 1
    gives back x/sinh(x) and x coth(x).  Same quadrature and refinement.
    """
    y, t = group.point(y, t)
    n, r = group.n, group.r
    power = n + r - 1

    def run_pass(level):
        pts, wts = sphere_rule(r, sphere_level + 8 * level)
        _, mu, V, _, _ = _checked_spectrum(group, pts, DEGENERACY_RTOL)
        a = _plane_energies(V, y)
        rho, rw = radial_nodes(radial * 2**level, np.sum(mu, axis=1))
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

    return _refine(run_pass, max_refine, tol, "Abel family").value


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
