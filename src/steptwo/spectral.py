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
from .groups import _as_readonly

# Eigenvalue magnitudes below DEGENERACY_RTOL * ||B_tau||_2 count as degenerate.
DEGENERACY_RTOL = 1e-8

# Residual bound the returned frames are checked against.
FRAME_TOL = 1e-10

# Minimum squared overlap for continuation to accept an eigenspace match.
_MATCH_THRESHOLD = 0.5


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
        mu = self.mu[j : j + 1]
        return TauFrame(self.tau, mu, self.O[:, 2 * j : 2 * j + 2], float(mu[0]))

    def tau_coordinates(self, y):
        """Coordinates of y in the frame basis; an isometry with matrix O^T."""
        y = np.asarray(y, dtype=float)
        if y.shape[-1:] != self.O.shape[:1] or not np.isfinite(y).all():
            raise DimensionError(
                f"points must be finite with last axis {len(self.O)}, "
                f"got shape {y.shape}"
            )
        return y @ self.O

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
    tau = np.asarray(tau, dtype=float)
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
    frame = TauFrame(
        tau=_as_readonly(tau),
        mu=_as_readonly(mu),
        O=_as_readonly(O),
        min_gap=_min_gap(mu, gap_tol),
    )
    resid, ortho = frame.residuals(M)
    if max(resid, ortho) > FRAME_TOL:
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
        With mu sorted descending and ||O^T B_tau O - J||_max <= 1e-10.
    """
    tau = np.asarray(tau, dtype=float).reshape(-1)
    M, mu, V, gap_tol, _ = _checked_spectrum(group, tau, tol)
    V = _deterministic_eigenbasis(mu, V, gap_tol)
    V = np.column_stack([_fix_phase(V[:, j]) for j in range(mu.size)])
    return _assemble_frame(tau, M, mu, V, gap_tol)


def continue_frame(prev, group, tau_new, tol=DEGENERACY_RTOL):
    """Frame at tau_new chosen to vary continuously from an existing frame.

    Each column pair of the previous frame is projected onto the matching
    eigenspace at tau_new and re-orthonormalized, which fixes both the
    pairing and the in-plane phase.  Raises AmbiguousMatchingError when no
    eigenspace holds most of a projected column pair (an eigenvalue
    crossing between the two frequencies).
    """
    tau_new = np.asarray(tau_new, dtype=float).reshape(-1)
    M, mu, V, gap_tol, _ = _checked_spectrum(group, tau_new, tol)
    clusters = _cluster(mu, gap_tol)

    n = prev.n
    v_prev = (prev.O[:, 1::2] + 1j * prev.O[:, 0::2]) / np.sqrt(2.0)

    # dominant eigenspace per previous eigenvector
    weights = np.empty((n, len(clusters)))
    for c, cluster in enumerate(clusters):
        cols = V[:, cluster]
        weights[:, c] = np.linalg.norm(cols.conj().T @ v_prev, axis=0) ** 2
    choice = np.argmax(weights, axis=1)
    for j in range(n):
        if weights[j, choice[j]] < _MATCH_THRESHOLD:
            raise AmbiguousMatchingError(
                f"no dominant eigenspace for column pair {j}: best squared "
                f"overlap {weights[j, choice[j]]:.3f} (eigenvalue crossing?)"
            )
    for c, cluster in enumerate(clusters):
        if np.count_nonzero(choice == c) != len(cluster):
            raise AmbiguousMatchingError(
                "eigenspace multiplicities changed between frequencies "
                f"(cluster {c} matched {np.count_nonzero(choice == c)} of "
                f"{len(cluster)} previous pairs)"
            )

    # project previous eigenvectors into their new eigenspaces, then
    # orthonormalize in previous-column order for continuity
    V_new = np.empty((2 * n, n), dtype=complex)
    mu_new = np.empty(n)
    for c, cluster in enumerate(clusters):
        members = [j for j in range(n) if choice[j] == c]
        vecs = _orthonormal_projections(V[:, cluster], v_prev[:, members])
        for j, vec in zip(members, vecs):
            if vec is None:
                raise AmbiguousMatchingError(
                    f"projected column pair {j} degenerated during "
                    "re-orthonormalization"
                )
            V_new[:, j] = vec
            mu_new[j] = np.mean(mu[cluster])

    order = np.argsort(-mu_new, kind="stable")
    if not np.array_equal(order, np.arange(n)):
        raise AmbiguousMatchingError(
            "matched eigenvalues are out of order (crossing between frames)"
        )
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

    @property
    def flagged_rows(self):
        return tuple(row for row in self.rows if row.flagged)


def degeneracy_scan(group, samples, tol=DEGENERACY_RTOL):
    """Scan unit frequencies for small eigenvalues or near-crossings.

    Numeric stand-in for the algebraic description of the degeneracy set:
    each sample gets its mu vector, its min-gap diagnostic, its clustered
    multiplicity pattern, and a flag when some mu_j falls below
    tol * mu_1 (always when B_tau = 0): the degeneracy test of
    ``normalize``.
    """
    taus = np.asarray(samples, dtype=float)
    taus = taus.reshape(len(taus), -1 if taus.size else group.r)
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
