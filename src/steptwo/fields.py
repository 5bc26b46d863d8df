"""Sampled fields and the convolution calculus on them.

Fields live on uniform tensor-product grids.  Each axis is half-open:
points lo + i*step for i = 0..count-1, with lo chosen so the origin is a
lattice point.  Differences of grid points then land on the same lattice,
which the convolution quadratures rely on, and the plain Riemann sum
(= trapezoid rule on a periodized window) is spectrally accurate for the
rapidly decaying integrands used throughout.
"""

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, GridError

_MAGIC = b"S2FIELD\x00"


@dataclass(frozen=True)
class Axis:
    lo: float
    step: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.step)):
            raise GridError(
                f"axis origin and step must be finite, got {self.lo}, {self.step}"
            )
        if self.count < 2:
            raise GridError(f"axis needs at least 2 points, got {self.count}")
        if self.step <= 0:
            raise GridError(f"axis step must be positive, got {self.step}")

    @property
    def hi(self):
        """Last grid point."""
        return self.lo + (self.count - 1) * self.step

    def points(self):
        return self.lo + self.step * np.arange(self.count)

    @property
    def zero_index(self):
        """Index of the origin on this axis; error if 0 is off the lattice."""
        z = -self.lo / self.step
        zi = int(round(z))
        if abs(z - zi) > 1e-9 or not 0 <= zi < self.count:
            raise GridError(
                f"axis [{self.lo}, step {self.step}, count {self.count}] does "
                "not contain the origin as a lattice point"
            )
        return zi


def lattice_points(coords):
    """Points of the tensor-product lattice of 1-D coordinate arrays.

    Row-major over the arrays in order (the last varies fastest), shape
    (prod of lengths, number of arrays).
    """
    return np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1).reshape(
        -1, len(coords)
    )


def _mesh(axes):
    """All grid points of the axes, shape (*counts, ndim)."""
    shape = tuple(a.count for a in axes) + (len(axes),)
    return lattice_points([a.points() for a in axes]).reshape(shape)


def symmetric_axis(radius, count):
    """Axis covering about [-radius, radius) with the origin on the lattice."""
    step = 2.0 * radius / count
    return Axis(lo=-step * (count // 2), step=step, count=count)


@dataclass(frozen=True)
class SampledField:
    """Complex samples of a function on a uniform rectangular grid.

    ``axes`` holds one Axis per dimension; ``values`` has the matching
    shape in row-major axis order.  ``group`` and ``tau`` are optional
    context carried along by operations that know them.
    """

    axes: tuple
    values: np.ndarray = field(repr=False)
    group: object = None
    tau: object = None

    def __post_init__(self):
        shape = tuple(a.count for a in self.axes)
        if self.values.shape != shape:
            raise GridError(
                f"values of shape {self.values.shape} do not match grid "
                f"shape {shape}"
            )
        vals = np.asarray(self.values, dtype=complex)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def ndim(self):
        return len(self.axes)

    @property
    def cell_volume(self):
        return float(np.prod([a.step for a in self.axes]))

    def grids(self):
        return [a.points() for a in self.axes]

    def mesh(self):
        """All grid points, shape (*counts, ndim)."""
        return _mesh(self.axes)

    def flat_points(self):
        return lattice_points(self.grids())

    def integrate(self):
        return complex(self.values.sum() * self.cell_volume)

    def l1_norm(self):
        return float(np.abs(self.values).sum() * self.cell_volume)

    def l2_norm_sq(self):
        return float((np.abs(self.values) ** 2).sum() * self.cell_volume)

    @classmethod
    def from_function(cls, axes, fn, group=None, tau=None):
        """Sample fn on the grid, one slab of the first axis at a time.

        ``fn`` maps an (..., ndim) array of points to values; it must be
        pointwise, its value at a point depending on that point only.
        """
        axes = tuple(axes)
        vals = np.empty(tuple(a.count for a in axes), dtype=complex)
        rest = np.meshgrid(*(a.points() for a in axes[1:]), indexing="ij", sparse=True)
        for i, x in enumerate(axes[0].points()):
            vals[i] = fn(np.stack(np.broadcast_arrays(x, *rest), axis=-1))
        return cls(axes=axes, values=vals, group=group, tau=tau)

    def with_values(self, values):
        return SampledField(
            axes=self.axes, values=values, group=self.group, tau=self.tau
        )

    # -- serialization: binary container + JSON sidecar -----------------------

    def save(self, path):
        path = str(path)
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<q", self.ndim))
            for a in self.axes:
                fh.write(struct.pack("<ddq", a.lo, a.step, a.count))
            fh.write(np.ascontiguousarray(self.values, dtype=complex).tobytes())
        sidecar = {
            "ndim": self.ndim,
            "axes": [
                {"min": a.lo, "max": a.hi, "step": a.step, "count": a.count}
                for a in self.axes
            ],
            "tau": None if self.tau is None else np.asarray(self.tau).tolist(),
            "group": None
            if self.group is None
            else json.loads(self.group.to_json()),
        }
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2)

    @classmethod
    def load(cls, path):
        from .groups import group_from_dict

        path = str(path)
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < 16 or data[:8] != _MAGIC:
            raise GridError(f"{path} is not a field container")
        (ndim,) = struct.unpack_from("<q", data, 8)
        header = 16 + 24 * ndim
        if ndim < 0 or header > len(data):
            raise GridError(
                f"{path}: the field container header is truncated or "
                f"declares an invalid axis count ({ndim})"
            )
        axes = [
            Axis(*struct.unpack_from("<ddq", data, 16 + 24 * i))
            for i in range(ndim)
        ]
        shape = tuple(a.count for a in axes)
        # Python integers: a corrupted count cannot overflow here
        expected = 16 * math.prod(shape)
        if expected != len(data) - header:
            raise GridError(
                f"{path}: a grid of shape {shape} needs {expected} payload "
                f"bytes, the container holds {len(data) - header}"
            )
        values = np.frombuffer(data, dtype=complex, offset=header)
        values = values.reshape(shape).copy()
        group = tau = None
        try:
            with open(path + ".json", "r", encoding="utf-8") as fh:
                sidecar = json.load(fh)
        except FileNotFoundError:
            sidecar = {}
        if sidecar.get("tau") is not None:
            tau = np.asarray(sidecar["tau"], dtype=float)
        if sidecar.get("group") is not None:
            group = group_from_dict(sidecar["group"])
        return cls(axes=tuple(axes), values=values, group=group, tau=tau)

    def to_csv(self, path):
        """One row per grid point: coordinates, then re, im."""
        pts = self.flat_points()
        vals = self.values.reshape(-1)
        data = np.column_stack([pts, vals.real, vals.imag])
        header = ",".join([f"x{i}" for i in range(self.ndim)] + ["re", "im"])
        np.savetxt(path, data, delimiter=",", header=header, comments="")


def _check_shared_grid(f, g):
    if f.ndim != g.ndim or any(
        (a.lo, a.step, a.count) != (b.lo, b.step, b.count)
        for a, b in zip(f.axes, g.axes)
    ):
        raise GridError("fields must share the same grid")


def _group_axes(f, group):
    """Horizontal and central axes of a field sampled over the group."""
    m, r = group.m, group.r
    if f.ndim != m + r:
        raise GridError(
            f"fields must have {m + r} axes for this group, got {f.ndim}"
        )
    return f.axes[:m], f.axes[m:]


def _apply_kernel(vals, kernel, ax):
    """Contract kernel (out, in) against axis ``ax`` of vals."""
    moved = np.moveaxis(vals, ax, 0)
    return np.moveaxis(np.einsum("fm,m...->f...", kernel, moved), 0, ax)


# ---------------------------------------------------------------------------
# partial Fourier transform
# ---------------------------------------------------------------------------


def partial_fourier(f, tau):
    """Integrate out the central variables against exp(-i tau . s).

    ``f`` is sampled over 2n + r axes with the r central axes last; the
    result is a field over the first 2n axes.  Raises when some |tau_beta|
    exceeds the Nyquist limit pi/step of its axis.
    """
    tau = np.asarray(tau, dtype=float).reshape(-1)
    r = tau.size
    if r >= f.ndim:
        raise GridError(
            f"field has {f.ndim} axes, cannot split off {r} central axes"
        )
    central = f.axes[f.ndim - r :]
    for beta, a in enumerate(central):
        if abs(tau[beta]) > np.pi / a.step:
            raise GridError(
                f"tau[{beta}] = {tau[beta]} exceeds the Nyquist limit "
                f"{np.pi / a.step:.6g} of its grid axis"
            )
    phase = np.ones(tuple(a.count for a in central), dtype=complex)
    for beta, a in enumerate(central):
        shape = [1] * r
        shape[beta] = a.count
        phase = phase * np.exp(-1j * tau[beta] * a.points()).reshape(shape)
    weight = float(np.prod([a.step for a in central]))
    flat = f.values.reshape(f.values.shape[: f.ndim - r] + (-1,))
    out = np.einsum("...s,s->...", flat, phase.reshape(-1)) * weight
    return SampledField(
        axes=f.axes[: f.ndim - r], values=out, group=f.group, tau=tau
    )


# ---------------------------------------------------------------------------
# twisted convolution
# ---------------------------------------------------------------------------


def _strided_axes(axes, stride):
    out_axes, starts = [], []
    for a in axes:
        start = a.zero_index % stride
        count = len(range(start, a.count, stride))
        out_axes.append(
            Axis(lo=a.lo + start * a.step, step=a.step * stride, count=count)
        )
        starts.append(start)
    return tuple(out_axes), starts


# Complex elements in one chunk of the FFT engine's per-row arrays; a few
# such arrays are live at once, so the engine's working memory stays near
# a fixed size whatever the grid.
_FFT_CHUNK_ELEMENTS = 1 << 18


def _isotropic_split(M):
    """Axes (P, Q) with M[Q, Q] = 0, Q chosen greedily from the last axis.

    P keeps at least one axis, also at tau = 0 where every axis qualifies.
    """
    d = M.shape[0]
    Q = []
    for j in range(d - 1, -1, -1):
        trial = Q + [j]
        if len(trial) < d and not np.any(M[np.ix_(trial, trial)]):
            Q = trial
    Q = sorted(Q)
    return [j for j in range(d) if j not in Q], Q


def _twisted_engine(f, g, M, out_stride=1):
    """Lattice sum sum_X f[I-X] g[X] exp(-2i y_I.M x_X) * cell on the shared grid.

    f(y-x) is a lattice lookup, zero outside the window: both points are on
    the grid and the origin is a lattice point, so their difference has
    integer grid coordinates.  With M[Q, Q] = 0 the phase splits as
    y_P.M_PQ x_Q + (y_P M_PP + y_Q M_QP).x_P, so for each output row y_P the
    sum over x_Q is a linear convolution of f with g modulated by
    exp(-2i y_P.M_PQ x_Q), done by FFT, and the sum over x_P is a phase
    contraction.  This is the same sum, O(N^(2|P|+|Q|) log N) instead of
    O(N^(2d)); output rows are chunked to a fixed element budget.  numpy's
    FFT is single-threaded and the contraction goes through einsum, so the
    result does not depend on BLAS threading.
    """
    _check_shared_grid(f, g)
    d = f.ndim
    if d % 2:
        raise GridError("twisted convolution needs an even number of axes")
    M = np.asarray(M, dtype=float)
    P, Q = _isotropic_split(M)
    axes = f.axes
    out_axes, starts = _strided_axes(axes, out_stride)
    q_counts = tuple(axes[j].count for j in Q)
    # the shortest FFT lengths at which the circular convolution equals the
    # linear one on the output indices zero .. zero + count - 1
    pad = tuple(
        max(a.count + a.zero_index, 2 * a.count - 1 - a.zero_index)
        for a in (axes[j] for j in Q)
    )
    fft_axes = tuple(range(2, 2 + len(Q)))

    def split(vals):
        return vals.transpose(P + Q).reshape((1, -1) + q_counts)

    full = [np.arange(a.count) for a in axes]
    sub = [s + out_stride * np.arange(a.count) for s, a in zip(starts, out_axes)]

    def points(ids, idx):
        return lattice_points([axes[j].lo + axes[j].step * idx[j] for j in ids])

    x_p, x_q, y_p, y_q = (
        points(P, full), points(Q, full), points(P, sub), points(Q, sub)
    )
    p_idx = lattice_points([full[j] for j in P])
    p_sub = lattice_points([sub[j] for j in P])
    p_counts = np.array([axes[j].count for j in P])
    p_zero = np.array([axes[j].zero_index for j in P])
    # output index I_Q sits at linear-convolution index I_Q + zero_Q
    keep = (slice(None), slice(None)) + tuple(
        slice(s + a.zero_index, a.count + a.zero_index, out_stride)
        for s, a in ((starts[j], axes[j]) for j in Q)
    )

    twoM = 2.0 * M
    # one zero row past the end stands for f outside the window
    f_hat = np.zeros((len(x_p) + 1, int(np.prod(pad))), dtype=complex)
    f_hat[:-1] = np.fft.fftn(split(f.values), s=pad, axes=fft_axes).reshape(
        len(x_p), -1
    )
    gw = split(g.values) * f.cell_volume
    phase_qp = np.exp(-1j * (y_q @ twoM[np.ix_(Q, P)]) @ x_p.T)
    n_out = len(y_p)
    out = np.empty((n_out, len(y_q)), dtype=complex)
    rows = max(1, _FFT_CHUNK_ELEMENTS // (len(x_p) * f_hat.shape[1]))
    for lo_b in range(0, n_out, rows):
        b = slice(lo_b, lo_b + rows)
        mod = np.exp(-1j * (y_p[b] @ twoM[np.ix_(P, Q)]) @ x_q.T)
        g_hat = np.fft.fftn(
            gw * mod.reshape((-1, 1) + q_counts), s=pad, axes=fft_axes
        ).reshape(mod.shape[0], len(x_p), -1)
        K = p_sub[b][:, None, :] - p_idx[None, :, :] + p_zero
        valid = np.all((K >= 0) & (K < p_counts), axis=-1)
        flat = np.ravel_multi_index(
            tuple(np.moveaxis(K, -1, 0)), tuple(p_counts), mode="clip"
        )
        g_hat *= f_hat[np.where(valid, flat, len(x_p))]
        conv = np.fft.ifftn(
            g_hat.reshape(g_hat.shape[:2] + pad), axes=fft_axes
        )[keep].reshape(g_hat.shape[0], len(x_p), -1)
        phase_pp = np.exp(-1j * (y_p[b] @ twoM[np.ix_(P, P)]) @ x_p.T)
        out[b] = np.einsum("bx,qx,bxq->bq", phase_pp, phase_qp, conv)
    shape = tuple(out_axes[j].count for j in P + Q)
    inverse = np.argsort(P + Q)
    return out.reshape(shape).transpose(inverse), out_axes


def twisted_convolve(f, g, group, tau, out_stride=1):
    """Twisted convolution of two fields over R^(2n) at frequency tau.

    The Riemann sum of the defining oscillatory integral on the shared
    grid, evaluated exactly by FFT along a set of axes on which B_tau
    vanishes: O(N^3 log N) on a 2-D grid of N^2 points, O(N^6 log N) on the
    quaternionic group at a coordinate tau; this is the path behind
    ``convolve --path direct``.  tau = 0 reduces to the Euclidean
    convolution.  ``out_stride`` > 1 evaluates on a strided subgrid (which
    still contains the origin).
    """
    tau = np.asarray(tau, dtype=float).reshape(-1)
    if f.ndim != group.m:
        raise GridError(
            f"fields must have {group.m} horizontal axes for this group, "
            f"got {f.ndim}"
        )
    values, axes = _twisted_engine(f, g, group.b_tau(tau), out_stride)
    return SampledField(axes=axes, values=values, group=group, tau=tau)


def twisted_convolve_1d(f, g, tau, out_stride=1):
    """One-complex-slot twisted convolution, phase exp(-2i tau (-y1 x2 + y2 x1))."""
    if f.ndim != 2:
        raise GridError("twisted_convolve_1d expects fields over R^2")
    M = float(tau) * np.array([[0.0, -1.0], [1.0, 0.0]])
    values, axes = _twisted_engine(f, g, M, out_stride)
    return SampledField(axes=axes, values=values, tau=np.array([float(tau)]))


# ---------------------------------------------------------------------------
# group convolution (direct quadrature)
# ---------------------------------------------------------------------------


def group_convolve(phi, psi, group):
    """Group convolution by direct quadrature over the sampled lattice.

    Evaluates ``int phi(x,t) psi((x,t)^{-1}(y,s)) dx dt`` on the full grid,
    for any center dimension.  The horizontal shift y - x stays on the
    lattice; the central argument s - t - 2B(x, y) leaves it.  For each
    pair (x, y) the sum over t is the linear convolution of the central
    slices phi[x] and psi[y - x], zero outside the window, at the
    alias-free FFT length L = 2c - 1 per axis; its entry m sits at
    2 lo + m step.  The twist 2B(x, y) / step splits into a nearest integer
    k and a fraction f with |f| <= 1/2: the phase exp(-2 pi i omega f) on
    the spectrum shifts the trigonometric interpolant of the convolution
    by -f, and entry i + zero_index - k of the inverse transform is its
    value at s_i - 2B(x, y), zero where that entry leaves [0, L).  L is
    odd, so real data reads real.  Desk-scale only: O(N^2 c^r log c) for N
    horizontal and c^r central grid points.
    """
    _check_shared_grid(phi, psi)
    y_axes, t_axes = _group_axes(phi, group)
    y_counts = np.array([a.count for a in y_axes])
    y_zero = np.array([a.zero_index for a in y_axes])
    t_counts = tuple(a.count for a in t_axes)
    t_steps = np.array([a.step for a in t_axes])
    pad = tuple(2 * c - 1 for c in t_counts)
    central = tuple(range(1, 1 + group.r))

    y_idx = lattice_points([np.arange(c) for c in y_counts])
    y_pts = lattice_points([a.points() for a in y_axes])
    n_y = len(y_idx)
    phi_hat, psi_hat = (
        np.fft.fftn(f.values.reshape((n_y,) + t_counts), s=pad, axes=central)
        for f in (phi, psi)
    )
    freqs = [np.fft.fftfreq(L) for L in pad]
    # convolution index of s_i - 2 lo before the twist: i + zero_index
    untwisted = [np.arange(a.count) + a.zero_index for a in t_axes]
    chunk = max(1, _FFT_CHUNK_ELEMENTS // int(np.prod(pad)))
    out = np.empty((n_y,) + t_counts, dtype=complex)
    for row in range(n_y):
        # lattice index of y - x and the central twist 2 B(x, y) / step per x
        diff = y_idx[row] - y_idx + y_zero
        xs = np.nonzero(np.all((diff >= 0) & (diff < y_counts), axis=1))[0]
        shifted = np.ravel_multi_index(tuple(diff[xs].T), tuple(y_counts))
        twist = (
            2.0 * np.einsum("bkl,xk,l->xb", group.B, y_pts[xs], y_pts[row])
            / t_steps
        )
        whole = np.rint(twist).astype(int)
        frac = twist - whole
        acc = np.zeros(t_counts, dtype=complex)
        for lo in range(0, len(xs), chunk):
            b = slice(lo, lo + chunk)
            conv = phi_hat[xs[b]] * psi_hat[shifted[b]]
            for beta, ax in enumerate(central):
                # one axis at a time: shift by -f, invert, read i + zero - k
                shape = [1] * conv.ndim
                shape[0], shape[ax] = -1, pad[beta]
                phase = np.exp(-2j * np.pi * np.outer(frac[b, beta], freqs[beta]))
                conv = np.fft.ifft(conv * phase.reshape(shape), axis=ax)
                idx = untwisted[beta][None, :] - whole[b, beta, None]
                inside = (idx >= 0) & (idx < pad[beta])
                shape[ax] = t_counts[beta]
                conv = np.take_along_axis(
                    conv, np.clip(idx, 0, pad[beta] - 1).reshape(shape), axis=ax
                ) * inside.reshape(shape)
            acc += conv.sum(axis=0)
        out[row] = acc * phi.cell_volume
    return SampledField(
        axes=phi.axes, values=out.reshape(phi.values.shape), group=group
    )


# ---------------------------------------------------------------------------
# Euclidean Fourier helpers and the Fourier-side group convolution
# ---------------------------------------------------------------------------


def dual_axis_points(a, offset=0.0):
    """Centered dual-lattice frequencies of an axis (spacing 2 pi / window).

    A fractional ``offset`` shifts every node by offset * spacing; the
    shifted lattice still inverts the trapezoid transform exactly and, at
    offset 1/2, avoids placing a node at frequency zero.
    """
    return (
        2.0
        * np.pi
        * (np.arange(a.count) - a.count // 2 + offset)
        / (a.count * a.step)
    )


def _ft_matrix(a, offset=0.0):
    """Trapezoid-rule Fourier transform of one axis, (dual node, grid point)."""
    return np.exp(-1j * np.outer(dual_axis_points(a, offset), a.points())) * a.step


def _inverse_ft_weight(axes):
    """Dual-lattice cell volume over (2 pi)^d: the inverse transform's weight."""
    dual_vol = float(np.prod([2.0 * np.pi / (a.count * a.step) for a in axes]))
    return dual_vol / (2.0 * np.pi) ** len(axes)


def _ft_axes(vals, axes, first=0, offset=0.0):
    """Transform ``vals`` along consecutive axes starting at ``first``."""
    vals = vals.astype(complex)
    for i, a in enumerate(axes):
        vals = _apply_kernel(vals, _ft_matrix(a, offset), first + i)
    return vals


def euclidean_ft(f):
    """Continuous Fourier transform sampled on the dual lattice."""
    return _ft_axes(f.values, f.axes)


def _inverse_central_ft(partial, t_axes, tau_pts):
    """Inverse central transform of horizontal slices, one per dual node.

    Column q of ``partial`` (n_y, n_tau) is the flattened slice at the
    central frequency tau_pts[q]; the result has shape (n_y, n_t).
    """
    t_pts = lattice_points([a.points() for a in t_axes])
    phase_t = np.exp(1j * (t_pts @ tau_pts.T))
    return np.einsum("yq,tq->yt", partial, phase_t) * _inverse_ft_weight(t_axes)


def group_convolve_fourier(phi, psi, group):
    """Group convolution through the central Fourier transform.

    The central transform turns group convolution into twisted convolution
    at each frequency: both fields are transformed along the central axes
    once, ``twisted_convolve`` pairs their horizontal slices at every node
    of the central dual lattice, and the inverse central transform returns
    to the group.  The central sum is periodic over the window.
    """
    _check_shared_grid(phi, psi)
    y_axes, t_axes = _group_axes(phi, group)
    y_shape = phi.values.shape[: group.m]
    phi_hat, psi_hat = (
        _ft_axes(f.values, t_axes, group.m).reshape(y_shape + (-1,))
        for f in (phi, psi)
    )
    tau_pts = lattice_points([dual_axis_points(a) for a in t_axes])
    partial = np.empty((int(np.prod(y_shape)), len(tau_pts)), dtype=complex)
    for q, tau in enumerate(tau_pts):
        f, g = (
            SampledField(axes=y_axes, values=h[..., q]) for h in (phi_hat, psi_hat)
        )
        partial[:, q] = twisted_convolve(f, g, group, tau).values.reshape(-1)
    out = _inverse_central_ft(partial, t_axes, tau_pts)
    return SampledField(
        axes=phi.axes, values=out.reshape(phi.values.shape), group=group
    )


# ---------------------------------------------------------------------------
# Abel approximation of identity
# ---------------------------------------------------------------------------


def abel_multiplier(frame, R, xi_hat):
    """Frequency-domain factor of the Abel-summed reproducing family.

    ``xi_hat`` holds frame components of the shifted frequency, shape
    (..., 2n); the factor is prod_j (2/(1+R)) exp(-((1-R)/(1+R)) *
    |pair_j|^2 / (4 mu_j)) and equals (2/(1+R))^n at xi_hat = 0.
    """
    pairs = xi_hat[..., 0::2] ** 2 + xi_hat[..., 1::2] ** 2
    expo = -((1.0 - R) / (1.0 + R)) * pairs / (4.0 * frame.mu)
    return np.prod(2.0 / (1.0 + R) * np.exp(expo), axis=-1)


def abel_approx_identity(f, group, R):
    """Abel-summed approximate identity applied to a sampled field.

    For R in (0,1), evaluates the Abel sum of the reproducing series in
    closed multiplier form on the Euclidean Fourier side.  As R -> 1- the
    output converges to f.
    """
    from .spectral import normalize

    if not 0.0 < R < 1.0:
        raise DimensionError(f"Abel parameter must be in (0,1), got {R}")
    y_axes, t_axes = _group_axes(f, group)
    # half-offset central dual lattice: no node sits on the degenerate
    # tau = 0 plane, where the multiplier is discontinuous
    f_hat = _ft_axes(_ft_axes(f.values, y_axes), t_axes, group.m, 0.5)
    y_pts = lattice_points([a.points() for a in y_axes])
    xi_pts = lattice_points([dual_axis_points(a) for a in y_axes])
    tau_pts = lattice_points([dual_axis_points(a, 0.5) for a in t_axes])
    f_hat = f_hat.reshape(len(y_pts), len(tau_pts))

    phase_yx = np.exp(1j * (y_pts @ xi_pts.T))
    partial = np.empty(f_hat.shape, dtype=complex)
    for q, tau in enumerate(tau_pts):
        frame = normalize(group, tau)
        # the multiplier is the transform of the right convolution factor,
        # which the twist exp(-2i y.M x) evaluates at xi + 2 M^T y
        shift = 2.0 * y_pts @ group.b_tau(tau)  # rows: 2 M^T y
        xi_hat = (xi_pts[None, :, :] + shift[:, None, :]) @ frame.O
        mult = abel_multiplier(frame, R, xi_hat)
        partial[:, q] = np.einsum("yx,yx,x->y", phase_yx, mult, f_hat[:, q])
    partial *= _inverse_ft_weight(y_axes)
    out = _inverse_central_ft(partial, t_axes, tau_pts)
    return SampledField(
        axes=f.axes, values=out.reshape(f.values.shape), group=group
    )

