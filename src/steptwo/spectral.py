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
        plane of mu_j.
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

    def tau_coordinates(self, y):
        """Coordinates of y in the frame basis; an isometry with matrix O^T."""
        y = np.asarray(y, dtype=float)
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
            float(np.abs(O.T @ O - np.eye(O.shape[0])).max()),
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


def _negative_eigenpairs(M):
    """Eigenpairs of the Hermitian matrix iM on its negative side.

    ``M`` is one skew matrix or a stack of them, shape (..., 2n, 2n).
    Returns (mu, V) with mu descending positive and V's columns the complex
    eigenvectors of M with eigenvalues +i*mu_j.
    """
    w, V = np.linalg.eigh(1j * M)
    n = M.shape[-1] // 2
    # ascending order puts -mu_1 <= ... <= -mu_n first, so mu comes out descending
    return -w[..., :n], V[..., :n]


def _degenerate(mu, tol):
    """Mask of the magnitudes below tol * mu_1 (all of them when mu_1 = 0)."""
    scale = mu[..., :1]
    return (mu < tol * scale) | (scale == 0.0)


def _checked_spectrum(group, tau, tol):
    """B_tau at a nonzero tau with its eigenpairs and cluster tolerance.

    Raises DegenerateTauError when some mu_j falls below tol * mu_1.
    """
    tau = np.asarray(tau, dtype=float).reshape(-1)
    if not np.any(tau):
        raise DimensionError("the tau-frame requires tau != 0")
    M = group.b_tau(tau)
    mu, V = _negative_eigenpairs(M)
    bad = np.nonzero(_degenerate(mu, tol))[0]
    if bad.size:
        raise DegenerateTauError(
            f"skew form at tau={tau.tolist()} is numerically degenerate "
            f"(mu={mu.tolist()})",
            indices=bad.tolist(),
        )
    return tau, M, mu, V, tol * mu[0]


def _fix_phase(v):
    """Rotate a complex vector so its largest-modulus entry is real positive."""
    idx = int(np.argmax(np.abs(v)))
    pivot = v[idx]
    if pivot == 0:
        return v
    return v * (np.conj(pivot) / abs(pivot))


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
        cols = V[:, cluster]
        proj = cols @ cols.conj().T
        basis = []
        for ref in range(V.shape[0]):
            cand = proj[:, ref].copy()
            for b in basis:
                cand -= b * (b.conj() @ cand)
            norm = np.linalg.norm(cand)
            if norm > 1e-6:
                basis.append(cand / norm)
            if len(basis) == len(cluster):
                break
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
    tau, M, mu, V, gap_tol = _checked_spectrum(group, tau, tol)
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
    tau_new, M, mu, V, gap_tol = _checked_spectrum(group, tau_new, tol)
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
        cols = V[:, cluster]
        proj = cols @ cols.conj().T
        basis = []
        for j in members:
            cand = proj @ v_prev[:, j]
            for b in basis:
                cand -= b * (b.conj() @ cand)
            norm = np.linalg.norm(cand)
            if norm < 1e-6:
                raise AmbiguousMatchingError(
                    f"projected column pair {j} degenerated during "
                    "re-orthonormalization"
                )
            basis.append(cand / norm)
        for j, vec in zip(members, basis):
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
    rows = []
    for tau in samples:
        tau = np.asarray(tau, dtype=float).reshape(-1)
        mu, _ = _negative_eigenpairs(group.b_tau(tau))
        gap_tol = tol * mu[0]
        rows.append(
            ScanRow(
                tau=_as_readonly(tau),
                mu=_as_readonly(mu),
                min_gap=_min_gap(mu, gap_tol),
                pattern=tuple(len(c) for c in _cluster(mu, gap_tol)),
                flagged=bool(_degenerate(mu, tol).any()),
            )
        )
    return ScanReport(rows=tuple(rows), tol=tol)
