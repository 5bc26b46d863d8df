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
from .spectral import DEGENERACY_RTOL, _checked_spectrum

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
        try:
            with open(path + ".json", "r", encoding="utf-8") as fh:
                sidecar = json.load(fh)
            tau = sidecar.get("tau")
            tau = None if tau is None else np.asarray(tau, dtype=float)
        except FileNotFoundError:
            sidecar, tau = {}, None
        except (ValueError, AttributeError) as exc:  # not JSON or not an object
            raise GridError(f"malformed field sidecar {path}.json: {exc}") from exc
        group = sidecar.get("group")
        group = None if group is None else group_from_dict(group)
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


def _difference_index(y_idx, x_idx, zero, counts):
    """Flat lattice index of y - x, clipped, and whether it lies in the window.

    Grid indices ``y_idx`` and ``x_idx`` (..., d) broadcast; ``zero`` and
    ``counts`` (d,) are the axes' origin indices and counts.
    """
    diff = y_idx - x_idx + zero
    inside = np.all((diff >= 0) & (diff < counts), axis=-1)
    flat = np.ravel_multi_index(
        tuple(np.moveaxis(diff, -1, 0)), tuple(counts), mode="clip"
    )
    return flat, inside


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
    m = f.ndim - r
    central = f.axes[m:]
    for beta, a in enumerate(central):
        if abs(tau[beta]) > np.pi / a.step:
            raise GridError(
                f"tau[{beta}] = {tau[beta]} exceeds the Nyquist limit "
                f"{np.pi / a.step:.6g} of its grid axis"
            )
    out = _ft_axes(f.values, central, m, tau[:, None]).reshape(f.values.shape[:m])
    return SampledField(axes=f.axes[:m], values=out, group=f.group, tau=tau)


# ---------------------------------------------------------------------------
# twisted convolution
# ---------------------------------------------------------------------------


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


def _twisted_engine(f, g, M):
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

    x_p, x_q = (lattice_points([axes[j].points() for j in ids]) for ids in (P, Q))
    p_idx = lattice_points([np.arange(axes[j].count) for j in P])
    p_counts = np.array([axes[j].count for j in P])
    p_zero = np.array([axes[j].zero_index for j in P])
    # output index I_Q sits at linear-convolution index I_Q + zero_Q
    keep = (slice(None), slice(None)) + tuple(
        slice(a.zero_index, a.count + a.zero_index) for a in (axes[j] for j in Q)
    )

    twoM = 2.0 * M
    # one zero row past the end stands for f outside the window
    f_hat = np.zeros((len(x_p) + 1, int(np.prod(pad))), dtype=complex)
    f_hat[:-1] = np.fft.fftn(split(f.values), s=pad, axes=fft_axes).reshape(
        len(x_p), -1
    )
    gw = split(g.values) * f.cell_volume
    phase_qp = np.exp(-1j * (x_q @ twoM[np.ix_(Q, P)]) @ x_p.T)
    out = np.empty((len(x_p), len(x_q)), dtype=complex)
    rows = max(1, _FFT_CHUNK_ELEMENTS // (len(x_p) * f_hat.shape[1]))
    for lo_b in range(0, len(x_p), rows):
        b = slice(lo_b, lo_b + rows)
        mod = np.exp(-1j * (x_p[b] @ twoM[np.ix_(P, Q)]) @ x_q.T)
        g_hat = np.fft.fftn(
            gw * mod.reshape((-1, 1) + q_counts), s=pad, axes=fft_axes
        ).reshape(mod.shape[0], len(x_p), -1)
        flat, inside = _difference_index(
            p_idx[b][:, None, :], p_idx[None, :, :], p_zero, p_counts
        )
        g_hat *= f_hat[np.where(inside, flat, len(x_p))]
        conv = np.fft.ifftn(
            g_hat.reshape(g_hat.shape[:2] + pad), axes=fft_axes
        )[keep].reshape(g_hat.shape[0], len(x_p), -1)
        phase_pp = np.exp(-1j * (x_p[b] @ twoM[np.ix_(P, P)]) @ x_p.T)
        out[b] = np.einsum("bx,qx,bxq->bq", phase_pp, phase_qp, conv)
    shape = tuple(axes[j].count for j in P + Q)
    return out.reshape(shape).transpose(np.argsort(P + Q))


def twisted_convolve(f, g, group, tau):
    """Twisted convolution of two fields over R^(2n) at frequency tau.

    The Riemann sum of the defining oscillatory integral on the shared
    grid, evaluated exactly by FFT along a set of axes on which B_tau
    vanishes: O(N^3 log N) on a 2-D grid of N^2 points, O(N^6 log N) on the
    quaternionic group at a coordinate tau; this is the path behind
    ``convolve --path direct``.  tau = 0 reduces to the Euclidean
    convolution.  The result lives on the full shared grid.
    """
    tau = np.asarray(tau, dtype=float).reshape(-1)
    if f.ndim != group.m:
        raise GridError(
            f"fields must have {group.m} horizontal axes for this group, "
            f"got {f.ndim}"
        )
    values = _twisted_engine(f, g, group.b_tau(tau))
    return SampledField(axes=f.axes, values=values, group=group, tau=tau)


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
        flat, inside = _difference_index(y_idx[row], y_idx, y_zero, y_counts)
        xs = np.nonzero(inside)[0]
        twist = (
            2.0 * np.einsum("bkl,xk,l->xb", group.B, y_pts[xs], y_pts[row])
            / t_steps
        )
        whole = np.rint(twist).astype(int)
        frac = twist - whole
        acc = np.zeros(t_counts, dtype=complex)
        for lo in range(0, len(xs), chunk):
            b = slice(lo, lo + chunk)
            conv = phi_hat[xs[b]] * psi_hat[flat[xs[b]]]
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


def _ft_axes(vals, axes, first, freqs, inverse=False):
    """Trapezoid-rule Fourier transform of consecutive axes from ``first``.

    Axis first + i goes from the grid ``axes[i]`` to ``freqs[i]`` with kernel
    exp(-i omega s) * step; ``inverse`` goes back from a dual lattice with
    exp(i omega s) / (count * step), the dual spacing over 2 pi.
    """
    vals = vals.astype(complex)
    for i, (a, omega) in enumerate(zip(axes, freqs)):
        if inverse:
            kernel = np.exp(1j * np.outer(a.points(), omega)) / (a.count * a.step)
        else:
            kernel = np.exp(-1j * np.outer(omega, a.points())) * a.step
        moved = np.moveaxis(vals, first + i, 0)
        vals = np.moveaxis(np.einsum("fm,m...->f...", kernel, moved), 0, first + i)
    return vals


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
    freqs = [dual_axis_points(a) for a in t_axes]
    phi_hat, psi_hat = (
        _ft_axes(f.values, t_axes, group.m, freqs) for f in (phi, psi)
    )
    partial = np.empty(phi_hat.shape, dtype=complex)
    for q in np.ndindex(phi_hat.shape[group.m :]):
        tau = np.array([omega[k] for omega, k in zip(freqs, q)])
        node = (Ellipsis,) + q
        f, g = (
            SampledField(axes=y_axes, values=h[node]) for h in (phi_hat, psi_hat)
        )
        partial[node] = twisted_convolve(f, g, group, tau).values
    out = _ft_axes(partial, t_axes, group.m, freqs, inverse=True)
    return SampledField(axes=phi.axes, values=out, group=group)


# ---------------------------------------------------------------------------
# Abel approximation of identity
# ---------------------------------------------------------------------------


def abel_multiplier(mu, energies, R):
    """Frequency-domain factor of the Abel-summed reproducing family.

    ``energies`` (..., n) holds the energy of the shifted frequency in each
    invariant plane of B_tau, with magnitudes ``mu`` (n,); the factor is
    prod_j (2/(1+R)) exp(-((1-R)/(1+R)) * energies_j / (4 mu_j)) and equals
    (2/(1+R))^n at zero frequency.  Planes of equal mu_j enter only through
    their summed energy, so any eigenbasis of a repeated mu_j gives it.
    """
    expo = -((1.0 - R) / (1.0 + R)) * energies / (4.0 * mu)
    return np.prod(2.0 / (1.0 + R) * np.exp(expo), axis=-1)


def _shifted_energies(mu, V, xi, y):
    """Plane energies 2 |V_j^H (xi + 2 M^T y)|^2, shape (len(y), len(xi), n),
    from one table over xi and one over y: M V_j = i mu_j V_j."""
    z = (xi @ V.conj())[None] - 2j * mu * (y @ V.conj())[:, None]
    return 2.0 * (z.real**2 + z.imag**2)


def abel_approx_identity(f, group, R):
    """Abel-summed approximate identity applied to a sampled field.

    For R in (0,1), evaluates the Abel sum of the reproducing series in
    closed multiplier form on the Euclidean Fourier side.  As R -> 1- the
    output converges to f.
    """
    if not 0.0 < R < 1.0:
        raise DimensionError(f"Abel parameter must be in (0,1), got {R}")
    y_axes, t_axes = _group_axes(f, group)
    xi_freqs = [dual_axis_points(a) for a in y_axes]
    # half-offset central dual lattice: no node sits on the degenerate
    # tau = 0 plane, where the multiplier is discontinuous
    tau_freqs = [dual_axis_points(a, 0.5) for a in t_axes]
    f_hat = _ft_axes(f.values, f.axes, 0, xi_freqs + tau_freqs)
    y_pts = lattice_points([a.points() for a in y_axes])
    xi_pts = lattice_points(xi_freqs)
    tau_pts = lattice_points(tau_freqs)
    f_hat = f_hat.reshape(len(y_pts), len(tau_pts))
    _, mu, V, _, _ = _checked_spectrum(group, tau_pts, DEGENERACY_RTOL)

    phase_yx = np.exp(1j * (y_pts @ xi_pts.T))
    partial = np.empty(f_hat.shape, dtype=complex)
    for q in range(len(tau_pts)):
        # the multiplier is the transform of the right convolution factor,
        # which the twist exp(-2i y.M x) evaluates at xi + 2 M^T y
        mult = abel_multiplier(mu[q], _shifted_energies(mu[q], V[q], xi_pts, y_pts), R)
        partial[:, q] = np.einsum("yx,yx,x->y", phase_yx, mult, f_hat[:, q])
    partial /= np.prod([a.count * a.step for a in y_axes])
    out = _ft_axes(
        partial.reshape(f.values.shape), t_axes, group.m, tau_freqs, inverse=True
    )
    return SampledField(axes=f.axes, values=out, group=group)
