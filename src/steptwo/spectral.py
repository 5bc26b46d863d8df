"""Spectral normal form of the parametrized skew forms.

For tau != 0 the real skew matrix B_tau = sum_beta tau_beta B^beta is put
into 2x2 block normal form

    O^T B_tau O = J,   J = blockdiag([[0, -mu_j], [mu_j, 0]], j = 1..n),

by an orthogonal frame O whose column pairs span the invariant 2-planes.
The eigenproblem is solved on the Hermitian matrix i*B_tau, whose spectrum
is the real set {+-mu_j}; for an eigenvector u + i*w of B_tau with
eigenvalue i*mu one has B_tau u = -mu w and B_tau w = mu u, and the columns
(sqrt(2) w_j, sqrt(2) u_j) form the orthogonal frame.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousMatchingError, DegenerateTauError, DimensionError
from .groups import _as_readonly, checked_int, finite_array, positive_number

# Eigenvalue magnitudes below DEGENERACY_RTOL * ||B_tau||_2 count as degenerate.
DEGENERACY_RTOL = 1e-8

# Residual bound the returned frames are checked against: absolute for
# orthogonality, relative to mu_1 for the normal form, whose residual grows
# like eps * mu_1 with |tau|.
FRAME_TOL = 1e-10

# Minimum squared overlap for continuation to accept an eigenspace match.
_MATCH_THRESHOLD = 0.5

# Element budget of one block of every blocked loop (the FFT engine's
# per-row arrays, the sphere-node integrand temporaries): a few such arrays
# are live at once, so working memory stays near a fixed size.  Only
# _blocks reads it.
_CHUNK_ELEMENTS = 2**18


def _blocks(count, cost):
    """Consecutive slices of range(count) whose items cost at most
    _CHUNK_ELEMENTS together; an item that costs more is a block of its own.

    ``cost`` is one cost for every item or an array of one cost per item.
    One cost needs no running total, so a long range builds no table.
    """
    ends = np.cumsum(cost) if np.ndim(cost) else None
    lo = 0
    while lo < count:
        if ends is None:
            hi = lo + _CHUNK_ELEMENTS // cost
        else:
            done = ends[lo - 1] if lo else 0
            hi = int(np.searchsorted(ends, done + _CHUNK_ELEMENTS, "right"))
        hi = min(max(lo + 1, hi), count)
        yield slice(lo, hi)
        lo = hi


@dataclass(frozen=True)
class TauFrame:
    """Orthogonal frame normalizing the skew form at one frequency tau.

    Attributes
    ----------
    tau : ndarray, shape (r,)
        The frequency; nonzero.
    mu : ndarray, shape (n,)
        Positive eigenvalue magnitudes, sorted descending.  These scale
        linearly in |tau|.
    O : ndarray, shape (2n, 2n)
        Orthogonal matrix whose column pair (2j, 2j+1) spans the invariant
        plane of mu_j; a ``slot`` frame keeps one pair.
    min_gap : float
        Smaller of: the least spacing between distinct mu values, and the
        least mu.  Degeneracy diagnostic.
    """

    tau: np.ndarray
    mu: np.ndarray
    O: np.ndarray = field(repr=False)
    min_gap: float

    def __post_init__(self):
        for name in ("tau", "mu", "O"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))
        mu = self.mu
        if not (np.isfinite(mu).all() and (mu > 0).all()):
            raise DegenerateTauError(
                f"a tau-frame needs finite mu > 0, got mu={mu.tolist()}"
            )

    @property
    def n(self):
        return self.mu.size

    @property
    def tau_mag(self):
        return float(np.linalg.norm(self.tau))

    @property
    def mu_unit(self):
        """Eigenvalue magnitudes of the unit-frequency form, mu_j(tau/|tau|)."""
        return self.mu / self.tau_mag

    def slot(self, j):
        """The one-slot frame of invariant plane j: its column pair and mu_j."""
        j = checked_int(j, "slot index", 0, self.n - 1)
        mu = self.mu[j : j + 1]
        return TauFrame(self.tau, mu, self.O[:, 2 * j : 2 * j + 2], float(mu[0]))

    def tau_coordinates(self, y):
        """Coordinates of y in the frame basis; an isometry with matrix O^T."""
        return finite_array(y, "points", (..., len(self.O))) @ self.O

    def complex_tau_coordinates(self, y):
        """Consecutive frame coordinates paired as z_j = y_{2j} + i y_{2j+1}."""
        yt = self.tau_coordinates(y)
        return yt[..., 0::2] + 1j * yt[..., 1::2]

    def normal_form(self):
        """The block-diagonal matrix J this frame reduces the skew form to."""
        return _normal_form(self.mu)

    def residuals(self, M):
        """Max-norm residuals of O^T M O = J and of O^T O = I."""
        O = self.O
        return (
            float(np.abs(O.T @ M @ O - self.normal_form()).max()),
            float(np.abs(O.T @ O - np.eye(O.shape[1])).max()),
        )


def _normal_form(mu):
    n = mu.size
    J = np.zeros((2 * n, 2 * n))
    for j, m in enumerate(mu):
        J[2 * j, 2 * j + 1] = -m
        J[2 * j + 1, 2 * j] = m
    return J


def _cluster(values, tol):
    """Group indices of a descending-sorted array into near-equal clusters."""
    clusters = [[0]]
    for i in range(1, values.size):
        if values[clusters[-1][0]] - values[i] <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def _min_gap(mu, tol):
    """Degeneracy diagnostic: least distinct spacing vs. least magnitude."""
    gaps = [float(mu[-1])]
    clusters = _cluster(mu, tol)
    for a, b in zip(clusters, clusters[1:]):
        gaps.append(float(mu[a[0]] - mu[b[0]]))
    return min(gaps)


def _checked_spectrum(group, tau, tol, strict=True):
    """The one eigen-solve and degeneracy test of B_tau, batched like tau.

    For tau of shape (..., r) returns (M, mu, V, gap_tol, degenerate): M =
    B_tau; mu (..., n) descending and V (..., 2n, n) from the negative side
    of the Hermitian iM, so M V_j = i mu_j V_j; gap_tol = tol * mu_1, the
    cluster tolerance; and the mask of mu_j below it (all when B_tau = 0).
    With ``strict`` a zero tau, or the first tau with a set mask, raises.
    """
    tau = finite_array(tau, "tau")
    tol = positive_number(tol, "tol")
    if strict and not np.all(np.any(tau, axis=-1)):
        raise DimensionError("the tau-frame requires tau != 0")
    M = group.b_tau(tau)
    w, V = np.linalg.eigh(1j * M)
    n = M.shape[-1] // 2
    # ascending order puts -mu_1 <= ... <= -mu_n first, so mu comes out descending
    mu, V = -w[..., :n], V[..., :n]
    gap_tol = tol * mu[..., 0]
    degenerate = (mu < gap_tol[..., None]) | (mu[..., :1] == 0.0)
    if strict and degenerate.any():
        first = tuple(np.argwhere(degenerate.any(axis=-1))[0])
        raise DegenerateTauError(
            f"skew form at tau={tau[first].tolist()} is numerically degenerate "
            f"(mu={mu[first].tolist()})",
            indices=np.nonzero(degenerate[first])[0].tolist(),
        )
    return M, mu, V, gap_tol, degenerate


def _plane_energies(V, y):
    """Energy 2 |v_j^* y|^2 of real y in each invariant plane; V and y broadcast."""
    return 2.0 * np.abs(np.einsum("...kj,...k->...j", V.conj(), y)) ** 2


def _fix_phase(v):
    """Rotate a complex vector so its largest-modulus entry is real positive."""
    idx = int(np.argmax(np.abs(v)))
    pivot = v[idx]
    if pivot == 0:
        return v
    return v * (np.conj(pivot) / abs(pivot))


def _orthonormal_projections(cols, refs):
    """Project the columns of refs into span(cols), Gram-Schmidt in order.

    One unit vector per reference, or None where the projection adds no
    new direction (remaining norm at most 1e-6).
    """
    proj = cols @ cols.conj().T
    out = []
    for cand in (proj @ ref for ref in refs.T):
        for b in (v for v in out if v is not None):
            cand -= b * (b.conj() @ cand)
        norm = np.linalg.norm(cand)
        out.append(cand / norm if norm > 1e-6 else None)
    return out


def _deterministic_eigenbasis(mu, V, tol):
    """Re-span degenerate eigenspaces from fixed reference directions.

    LAPACK's basis of a repeated eigenspace is arbitrary; projecting the
    canonical basis vectors (in index order) onto the eigenspace and
    orthonormalizing makes the output reproducible.
    """
    out = V.copy()
    for cluster in _cluster(mu, tol):
        if len(cluster) == 1:
            continue
        vecs = _orthonormal_projections(V[:, cluster], np.eye(V.shape[0]))
        basis = [v for v in vecs if v is not None][: len(cluster)]
        if len(basis) == len(cluster):
            out[:, cluster] = np.column_stack(basis)
    return out


def _assemble_frame(tau, M, mu, V, gap_tol):
    """Orthogonal frame from complex eigenvectors, checked against B_tau."""
    n = mu.size
    O = np.empty((2 * n, 2 * n))
    O[:, 0::2] = np.sqrt(2.0) * V.imag
    O[:, 1::2] = np.sqrt(2.0) * V.real
    frame = TauFrame(tau=tau, mu=mu, O=O, min_gap=_min_gap(mu, gap_tol))
    resid, ortho = frame.residuals(M)
    if resid > FRAME_TOL * mu[0] or ortho > FRAME_TOL:
        raise DegenerateTauError(
            f"frame failed its checks: normal-form residual {resid:.3e}, "
            f"orthogonality residual {ortho:.3e}"
        )
    return frame


def normalize(group, tau, tol=DEGENERACY_RTOL):
    """Compute the normal-form frame of the skew form at tau.

    Parameters
    ----------
    group : StepTwoGroup
    tau : array-like, shape (r,)
        Nonzero frequency.
    tol : float
        Relative degeneracy threshold: eigenvalue magnitudes below
        tol * ||B_tau||_2 raise DegenerateTauError.

    Returns
    -------
    TauFrame
        With mu sorted descending, ||O^T B_tau O - J||_max <= 1e-10 * mu_1
        and ||O^T O - I||_max <= 1e-10.
    """
    tau = finite_array(tau, "tau").reshape(-1)
    M, mu, V, gap_tol, _ = _checked_spectrum(group, tau, tol)
    V = _deterministic_eigenbasis(mu, V, gap_tol)
    V = np.column_stack([_fix_phase(V[:, j]) for j in range(mu.size)])
    return _assemble_frame(tau, M, mu, V, gap_tol)


def continue_frame(prev, group, tau_new, tol=DEGENERACY_RTOL):
    """Frame at tau_new chosen to vary continuously from an existing frame.

    mu is sorted descending at both frequencies, so column pair j of the
    previous frame goes to the eigenspace (cluster of near-equal mu) that
    holds position j at tau_new.  Each cluster's previous column pairs are
    projected onto it and re-orthonormalized, which fixes the in-plane
    phase.  Raises AmbiguousMatchingError when a column pair keeps less
    than half its squared norm in its eigenspace, or its projection
    degenerates: an eigenvalue crossing between the two frequencies.
    """
    if prev.O.shape != (group.m, group.m):
        raise DimensionError(
            f"prev must be a full frame of the group's dimension {group.m}, "
            f"got a frame of dimension {prev.O.shape[0]} with {prev.n} column pairs"
        )
    tau_new = finite_array(tau_new, "tau_new").reshape(-1)
    M, mu, V, gap_tol, _ = _checked_spectrum(group, tau_new, tol)
    v_prev = (prev.O[:, 1::2] + 1j * prev.O[:, 0::2]) / np.sqrt(2.0)
    V_new, mu_new = np.empty_like(V), np.empty_like(mu)
    for cluster in _cluster(mu, gap_tol):
        cols, refs = V[:, cluster], v_prev[:, cluster]
        overlap = np.linalg.norm(cols.conj().T @ refs, axis=0) ** 2
        vecs = _orthonormal_projections(cols, refs)
        if overlap.min() < _MATCH_THRESHOLD or any(v is None for v in vecs):
            raise AmbiguousMatchingError(
                f"column pairs {cluster} have no dominant eigenspace at tau_new: "
                f"least squared overlap {overlap.min():.3f} (eigenvalue crossing?)"
            )
        V_new[:, cluster] = np.column_stack(vecs)
        mu_new[cluster] = np.mean(mu[cluster])
    # no phase convention here: it would fight the continuity choice
    return _assemble_frame(tau_new, M, mu_new, V_new, gap_tol)


@dataclass(frozen=True)
class ScanRow:
    tau: np.ndarray
    mu: np.ndarray
    min_gap: float
    pattern: tuple
    flagged: bool


@dataclass(frozen=True)
class ScanReport:
    """Per-sample eigenvalue magnitudes plus a multiplicity summary."""

    rows: tuple
    tol: float

    @property
    def patterns(self):
        """Multiplicity patterns seen, with counts, most frequent first."""
        counts = {}
        for row in self.rows:
            counts[row.pattern] = counts.get(row.pattern, 0) + 1
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def degeneracy_scan(group, samples, tol=DEGENERACY_RTOL):
    """Scan unit frequencies for small eigenvalues or near-crossings.

    Numeric stand-in for the algebraic description of the degeneracy set:
    each sample gets its mu vector, its min-gap diagnostic, its clustered
    multiplicity pattern, and a flag when some mu_j falls below
    tol * mu_1 (always when B_tau = 0): the degeneracy test of
    ``normalize``.
    """
    taus = np.atleast_1d(finite_array(samples, "samples"))
    taus = taus.reshape(len(taus), -1) if len(taus) else taus.reshape(0, group.r)
    _, mus, _, gap_tols, degenerate = _checked_spectrum(
        group, taus, tol, strict=False
    )
    rows = tuple(
        ScanRow(
            tau=_as_readonly(tau),
            mu=_as_readonly(mu),
            min_gap=_min_gap(mu, gap_tol),
            pattern=tuple(len(c) for c in _cluster(mu, gap_tol)),
            flagged=bool(bad.any()),
        )
        for tau, mu, gap_tol, bad in zip(taus, mus, gap_tols, degenerate)
    )
    return ScanReport(rows=rows, tol=tol)
