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
from .groups import _as_readonly, checked_int, finite_array, group_from_dict
from .groups import positive_number
from .spectral import DEGENERACY_RTOL, _blocks, _checked_spectrum

_MAGIC = b"S2FIELD\x00"


@dataclass(frozen=True)
class Axis:
    lo: float
    step: float
    count: int

    def __post_init__(self):
        if not all(isinstance(v, (int, float, np.integer, np.floating))
                   and not isinstance(v, bool) and math.isfinite(v)
                   for v in (self.lo, self.step)) or self.step <= 0:
            raise GridError(
                f"axis origin and step must be finite real numbers with step > 0, "
                f"got {self.lo!r}, {self.step!r}"
            )
        if checked_int(self.count, "axis count") < 2:
            raise GridError(f"axis needs at least 2 points, got {self.count}")

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


def symmetric_axis(radius, count):
    """Axis covering about [-radius, radius) with the origin on the lattice."""
    count = checked_int(count, "axis count", 2)
    step = 2.0 * positive_number(radius, "axis radius") / count
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
        try:
            vals = _as_readonly(self.values, complex)
        except (TypeError, ValueError):  # text or ragged nesting
            raise GridError(f"values must be numbers, got {self.values!r}") from None
        if vals.shape != shape:
            raise GridError(
                f"values of shape {vals.shape} do not match grid shape {shape}"
            )
        if not np.isfinite(vals).all():
            raise GridError("field values must be finite, got NaN or inf samples")
        object.__setattr__(self, "values", vals)
        if self.tau is not None:
            object.__setattr__(self, "tau", _as_readonly(self.tau))

    @property
    def ndim(self):
        return len(self.axes)

    @property
    def cell_volume(self):
        return float(np.prod([a.step for a in self.axes]))

    def mesh(self):
        """All grid points, shape (*counts, ndim)."""
        pts = lattice_points([a.points() for a in self.axes])
        return pts.reshape(self.values.shape + (self.ndim,))

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
        values = np.frombuffer(data, dtype=complex, offset=header).reshape(shape)
        try:
            with open(path + ".json", "r", encoding="utf-8") as fh:
                sidecar = json.load(fh)
            tau = sidecar.get("tau")
            tau = None if tau is None else finite_array(tau, "tau")
        except FileNotFoundError:
            sidecar, tau = {}, None
        except (ValueError, AttributeError, DimensionError) as exc:  # bad JSON or tau
            raise GridError(f"malformed field sidecar {path}.json: {exc}") from exc
        group = sidecar.get("group")
        group = None if group is None else group_from_dict(group)
        try:
            return cls(axes=tuple(axes), values=values, group=group, tau=tau)
        except GridError as exc:  # non-finite samples
            raise GridError(f"{path}: {exc}") from None

    def to_csv(self, path):
        """One row per grid point: coordinates, then re, im."""
        pts = lattice_points([a.points() for a in self.axes])
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
    tau = finite_array(tau, "tau").reshape(-1)
    r = tau.size
    if r == 0:
        raise DimensionError("tau must have at least one entry, got none")
    if f.group is not None and r != f.group.r:
        raise DimensionError(
            f"tau must have one entry per central axis of the field's group "
            f"(r = {f.group.r}), got {tau.tolist()}"
        )
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
    O(N^(2d)); output rows run in blocks (``spectral._blocks``).  numpy's
    FFT is single-threaded and the contraction goes through einsum, so the
    result does not depend on BLAS threading.
    """
    _check_shared_grid(f, g)
    d = f.ndim
    if d % 2:
        raise GridError("twisted convolution needs an even number of axes")
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
    for b in _blocks(len(x_p), len(x_p) * f_hat.shape[1]):
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
    tau = finite_array(tau, "tau").reshape(-1)
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
    2 lo + m step.  On each central axis the phase exp(-2 pi i j d / L) at
    frequency j, d = 2B(x, y) / step - zero_index, shifts the
    trigonometric interpolant of the convolution by d, so entry i of the
    inverse transform is its value at s_i - 2B(x, y) and the read is the
    first c entries.  A read is zero where its nearest convolution index
    i + zero_index - k, k the twist rounded to an integer, leaves [0, L).
    L is odd, so real data reads real, and the phase at the negative
    frequencies is the reversed conjugate of the phase at the others.

    The output rows y run in blocks of whole rows, each block's pairs
    batched in one array (``spectral._blocks``, each row costing 8 prod L
    per in-window pair: README, "Block rule"); a pair whose read window
    misses [0, L) on some central axis contributes zero and is never
    formed, and each row's pairs are added by one segment sum.
    Desk-scale only: O(N^2 c^r log c) for N horizontal and c^r central
    grid points.
    """
    _check_shared_grid(phi, psi)
    y_axes, t_axes = _group_axes(phi, group)
    y_counts = np.array([a.count for a in y_axes])
    y_zero = np.array([a.zero_index for a in y_axes])
    t_counts = tuple(a.count for a in t_axes)
    t_zero = np.array([a.zero_index for a in t_axes])
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
    # frequencies 0 .. h of each axis in cycles per L; the others are -h .. -1
    freqs = [np.arange(L // 2 + 1) for L in pad]
    # convolution index of s_i - 2 lo before the twist: i + zero_index
    untwisted = [np.arange(a.count) + a.zero_index for a in t_axes]
    # B(x, .) per x: the twist of a pair is this row dotted with y
    bx = np.einsum("bkl,xk->xbl", group.B, y_pts)
    # in-window pairs per output row: the product of per-axis overlaps
    per_axis = [
        np.minimum(i + z, c - 1) - np.maximum(i + z - c + 1, 0) + 1
        for i, z, c in zip(y_idx.T, y_zero, y_counts)
    ]
    pairs = np.prod(per_axis, axis=0)
    out = np.zeros((n_y,) + t_counts, dtype=complex)
    for block in _blocks(n_y, 8 * math.prod(pad) * pairs):
        # lattice index of y - x for every in-window pair (row, x) of the block
        flat, inside = _difference_index(
            y_idx[block, None, :], y_idx[None, :, :], y_zero, y_counts
        )
        rows, xs = np.nonzero(inside)
        rows += block.start
        twist = 2.0 * np.sum(bx[xs] * y_pts[rows, None, :], axis=-1) / t_steps
        whole = np.rint(twist).astype(int)
        # the read i + zero - k meets [0, L) for some i in [0, c) on every
        # axis; x = 0 has no twist, so every row keeps at least that pair
        live = np.all((whole < t_zero + t_counts) & (whole > t_zero - pad), axis=1)
        rows, xs, whole = rows[live], xs[live], whole[live]
        shift = twist[live] - t_zero
        conv = np.take(phi_hat, xs, axis=0)
        conv *= np.take(psi_hat, flat[rows - block.start, xs], axis=0)
        for beta, ax in enumerate(central):
            # one axis at a time: shift by the twist, invert, read i < c
            L, h, c = pad[beta], pad[beta] // 2, t_counts[beta]
            phase = np.empty((len(xs), L), dtype=complex)
            # j d less its nearest multiple of L: exact for binary twists, |arg| <= pi
            arg = np.outer(shift[:, beta], freqs[beta])
            arg -= L * np.rint(arg / L)
            phase[:, : h + 1] = np.exp(-2j * np.pi / L * arg)
            np.conjugate(phase[:, h:0:-1], out=phase[:, h + 1 :])
            shape = [1] * conv.ndim
            shape[0], shape[ax] = -1, L
            conv *= phase.reshape(shape)
            conv = np.fft.ifft(conv, axis=ax)[(slice(None),) * ax + (slice(c),)]
            idx = untwisted[beta][None, :] - whole[:, beta, None]
            shape[ax] = c
            conv *= ((idx >= 0) & (idx < L)).reshape(shape)
        # the pairs run row by row: one segment sum per row
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        out[rows[starts]] = np.add.reduceat(conv, starts, axis=0)
    out *= phi.cell_volume
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
    positive_number(R, "Abel parameter R")
    expo = -((1.0 - R) / (1.0 + R)) * energies / (4.0 * mu)
    return np.prod(2.0 / (1.0 + R) * np.exp(expo), axis=-1)


def abel_approx_identity(f, group, R):
    """Abel-summed approximate identity applied to a sampled field.

    For R in (0,1), the Abel sum of the reproducing series in closed form:
    at each node of the half-offset central lattice, row y sums e^(i y.xi)
    m f_hat over xi, m = (2/(1+R))^n e^-(xi^T Q xi + y^T P y + xi^T S y),
    where (Q, P, S) = sum_j kappa (Re W_j / 2 mu_j, 2 mu_j Re W_j, 2 Im W_j),
    W_j = V_j V_j^H, kappa = (1-R)/(1+R).  e^-(xi^T (Q - d) xi), d =
    lambda_min(Q), folds into f_hat; the rest is one factor exp(xi_k (i y_k
    - (S y)_k) - d xi_k^2) per xi axis, contracted in turn by einsum and
    divided by its largest modulus over xi_k, whose log joins the row's
    log-scale.  Rows run in blocks (block rule); as R -> 1- it tends to f.
    """
    if positive_number(R, "Abel parameter R") >= 1.0:
        raise DimensionError(f"Abel parameter R must be in (0,1), got {R}")
    y_axes, t_axes = _group_axes(f, group)
    xi_freqs = [dual_axis_points(a) for a in y_axes]
    # half-offset central lattice: no node on tau = 0, where m is discontinuous
    tau_freqs = [dual_axis_points(a, 0.5) for a in t_axes]
    f_hat = _ft_axes(f.values, f.axes, 0, xi_freqs + tau_freqs)
    y_idx = lattice_points([np.arange(a.count) for a in y_axes])
    y_pts = lattice_points([a.points() for a in y_axes])
    xi = lattice_points(xi_freqs)
    tau_pts = lattice_points(tau_freqs)
    _, mu, V, _, _ = _checked_spectrum(group, tau_pts, DEGENERACY_RTOL)
    kappa = (1.0 - R) / (1.0 + R)
    W = kappa * np.einsum("qkj,qlj->qjkl", V, V.conj())
    Q, P = (np.einsum("qj,qjkl->qkl", w, W.real) for w in (0.5 / mu, 2.0 * mu))
    S = 2.0 * W.imag.sum(axis=1)
    d = np.linalg.eigvalsh(Q)[:, 0]
    Q -= d[:, None, None] * np.eye(group.m)
    g = f_hat.reshape(len(xi), -1).T * np.exp(-np.einsum("xk,qkl,xl->qx", xi, Q, xi))
    phases = [np.exp(1j * np.outer(w, a.points())) for a, w in zip(y_axes, xi_freqs)]
    partial = np.empty((len(y_pts), len(tau_pts)), dtype=complex)
    for b in _blocks(len(y_pts), len(tau_pts) * len(xi) // len(xi_freqs[-1])):
        log_scale = -np.einsum("yk,qkl,yl->qy", y_pts[b], P, y_pts[b])
        acc = g.reshape(len(tau_pts), 1, *map(len, xi_freqs))
        for k in reversed(range(group.m)):  # last xi axis first; (xi_k, q, y) arrays
            w = xi_freqs[k][:, None, None]
            expo = -w * (np.einsum("ql,yl->qy", S[:, k], y_pts[b]) + d[:, None] * w)
            top = expo.max(axis=0)
            log_scale += top
            factor = np.exp(expo - top) * phases[k][:, None, y_idx[b, k]]
            acc = np.einsum("qyk,qy...k->qy...", factor.transpose(1, 2, 0).copy(), acc)
        partial[b] = (acc * np.exp(log_scale)).T
    partial *= (1.0 + kappa) ** group.n / math.prod(a.count * a.step for a in y_axes)
    out = _ft_axes(
        partial.reshape(f.values.shape), t_axes, group.m, tau_freqs, inverse=True
    )
    return SampledField(axes=f.axes, values=out, group=group)
