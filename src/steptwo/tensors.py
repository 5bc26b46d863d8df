"""Truncated Laguerre tensors: the matrix symbols of functions at fixed tau.

A function over R^(2n), paired with a tau-frame, expands in the
exponential Laguerre basis indexed by matrix-unit addresses
(p, k) in {1..K}^n x {1..K}^n.  Its coefficient matrix turns twisted
convolution into matrix multiplication, so band-limited symbol algebra is
ordinary (truncated) linear algebra.
"""

from dataclasses import dataclass, field
from itertools import product as iproduct

import numpy as np

from .errors import DegenerateTauError, DimensionError, GridError
from .laguerre import basis_address, exp_laguerre, exp_laguerre_l2_norm_sq


def _side(frame, K):
    """K^n addresses per side; the truncation K must be an integer >= 1."""
    if isinstance(K, bool) or not isinstance(K, (int, np.integer)) or K < 1:
        raise DimensionError(f"truncation K must be an integer >= 1, got {K!r}")
    return K**frame.n


def _offset(multi, K):
    off = 0
    for v in multi:
        if not 1 <= v <= K:
            raise DimensionError(
                f"address entry {v} outside the truncation 1..{K}"
            )
        off = off * K + (v - 1)
    return off


def frames_compatible(a, b):
    return (
        a is b
        or (
            np.array_equal(a.tau, b.tau)
            and np.array_equal(a.mu, b.mu)
            and np.array_equal(a.O, b.O)
        )
    )


@dataclass(frozen=True)
class LaguerreTensor:
    """Truncated coefficient matrix of a function at one frequency.

    ``entries[i, j]`` is the coefficient at row address p = addresses[i]
    and column address k = addresses[j], with addresses enumerated
    lexicographically over {1..K}^n.
    """

    frame: object
    K: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        side = _side(self.frame, self.K)
        if self.entries.shape != (side, side):
            raise DimensionError(
                f"entries must be {side}x{side} for K={self.K}, n={self.frame.n}"
            )
        if not np.all(np.isfinite(self.entries)):
            raise DimensionError("tensor entries must be finite")
        entries = np.asarray(self.entries, dtype=complex)
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def n(self):
        return self.frame.n

    def addresses(self):
        """Multi-indices in {1..K}^n in lexicographic order."""
        return list(iproduct(range(1, self.K + 1), repeat=self.n))

    def address_offset(self, multi):
        return _offset(multi, self.K)

    def coefficient(self, p, k):
        return self.entries[self.address_offset(p), self.address_offset(k)]


def identity_tensor(frame, K):
    """Diagonal-ones tensor; a two-sided unit for band-limited products."""
    side = _side(frame, K)
    return LaguerreTensor(frame=frame, K=K, entries=np.eye(side, dtype=complex))


def indicator_tensor(frame, K, p, k):
    """Single-entry tensor at row address p, column address k."""
    side = _side(frame, K)
    entries = np.zeros((side, side), dtype=complex)
    entries[_offset(p, K), _offset(k, K)] = 1.0
    return LaguerreTensor(frame=frame, K=K, entries=entries)


def _basis_stack(frame, K, pts):
    """All K^(2n) basis functions on the points, shape (rows, cols, npts).

    Each basis function is a product over slots of one-slot functions, so
    slot j's K x K blocks fill (j = 0) or multiply into the stack along
    its row entry j and column entry j: n K^2 evaluations in place.
    """
    n = frame.n
    flat = pts.reshape(-1, pts.shape[-1])
    stack = np.empty((K**n, K**n, flat.shape[0]), dtype=complex)
    entries = stack.reshape((K,) * (2 * n) + (flat.shape[0],))
    for j, p, k in iproduct(range(n), range(K), range(K)):
        block = exp_laguerre(frame.slot(j), basis_address((p + 1,), (k + 1,)), flat)
        sub = np.moveaxis(entries, (j, n + j), (0, 1))[p, k]
        if j == 0:
            sub[...] = block
        else:
            sub *= block
    return stack


def _resolution_guard(frame, K, axes):
    # highest basis function behaves like a 2-d oscillator state of level
    # ~ 3(K-1); require >= 4 grid points per shortest radial wavelength
    level = 3 * (K - 1)
    kappa = np.sqrt(2.0 * frame.mu.max() * (2 * level + 1))
    h_max = np.pi / (2.0 * kappa)
    worst = max(a.step for a in axes)
    if worst > h_max:
        raise GridError(
            f"grid step {worst:.4g} too coarse for truncation K={K}: the "
            f"highest basis oscillation needs step <= {h_max:.4g}"
        )


def laguerre_coefficients(f, frame, K):
    """Analysis: project a sampled field onto the truncated Laguerre basis.

    Coefficients are grid inner products against the basis functions
    divided by their common squared norm (2/pi)^n prod_j mu_j; all
    addresses with entries <= K are retained.
    """
    _side(frame, K)
    if frame.mu[-1] <= 0:
        raise DegenerateTauError("laguerre_coefficients needs a non-degenerate frame")
    if f.ndim != 2 * frame.n:
        raise GridError(
            f"field has {f.ndim} axes; expected {2 * frame.n} for this frame"
        )
    _resolution_guard(frame, K, f.axes)
    stack = _basis_stack(frame, K, f.mesh())
    w = f.cell_volume / exp_laguerre_l2_norm_sq(frame)
    entries = np.einsum("x,ijx->ij", f.values.reshape(-1), stack.conj()) * w
    return LaguerreTensor(frame=frame, K=K, entries=entries)


def synthesize(T, y):
    """Evaluate the truncated expansion at points y of shape (..., 2n)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    stack = _basis_stack(T.frame, T.K, y)
    out = np.einsum("ij,ijx->x", T.entries, stack)
    return out.reshape(y.shape[:-1])


def tensor_multiply(A, B):
    """Symbol product: contraction over the shared middle address.

    Row p of the result pairs A's row p with B's column m through the sum
    over q of A[p, q] B[q, m]; with both operands truncated at K the
    result is the truncated product, exact when the factors' supports stay
    within half the truncation.
    """
    if not frames_compatible(A.frame, B.frame):
        raise DimensionError("tensor_multiply needs operands on the same frame")
    if A.K != B.K:
        raise DimensionError(
            f"tensor_multiply needs equal truncations, got {A.K} and {B.K}"
        )
    return LaguerreTensor(
        frame=A.frame,
        K=A.K,
        entries=np.einsum("pq,qm->pm", A.entries, B.entries),
    )


def sublap_symbol(frame, K):
    """The sub-Laplacian's diagonal symbol on K^n column addresses.

    Entry i is its eigenvalue sum_j mu_j (2 k_j - 1) on the basis elements
    with column address k = addresses[i]; it does not depend on the row.
    The reciprocal of this array is the symbol of the inverse.
    """
    _side(frame, K)
    if frame.mu[-1] <= 0:
        raise DegenerateTauError("sublap_symbol needs a non-degenerate frame")
    ladder = 2.0 * np.arange(1, K + 1) - 1.0
    # outer sum over slots: the first slot varies slowest, as in the addresses
    return sum(np.ix_(*(mu * ladder for mu in frame.mu))).reshape(-1)


def apply_diagonal_symbol(T, diag):
    """Right-multiply by a diagonal operator symbol, one entry per column.

    ``diag`` is in column-address order, as ``sublap_symbol`` returns it.
    """
    diag = np.asarray(diag)
    if diag.shape != (T.entries.shape[1],):
        raise DimensionError(
            f"diagonal symbol needs {T.entries.shape[1]} entries for K={T.K}, "
            f"n={T.n}, got shape {diag.shape}"
        )
    return LaguerreTensor(frame=T.frame, K=T.K, entries=T.entries * diag[None, :])
