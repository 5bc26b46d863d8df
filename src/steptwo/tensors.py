"""Truncated Laguerre tensors: the matrix symbols of functions at fixed tau.

A function over R^(2n), paired with a tau-frame, expands in the
exponential Laguerre basis indexed by matrix-unit addresses
(p, k) in {1..K}^n x {1..K}^n.  Its coefficient matrix turns twisted
convolution into matrix multiplication, so band-limited symbol algebra is
ordinary (truncated) linear algebra.
"""

from dataclasses import dataclass, field
from itertools import islice
from itertools import product as iproduct

import numpy as np

from .errors import DimensionError, GridError
from .groups import _as_readonly, checked_int, finite_array
from .laguerre import basis_address, exp_laguerre, exp_laguerre_l2_norm_sq
from .spectral import _blocks


def _side(frame, K):
    """K^n addresses per side; the truncation K must be an integer >= 1."""
    return checked_int(K, "truncation K", 1) ** frame.n


def _checked_numbers(value, name, frame, K, ndim):
    """``value`` as an array of finite numbers, complex allowed, of shape
    (K^n,) * ndim; otherwise a DimensionError that names it."""
    side = _side(frame, K)
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    # entries and symbols may be complex, so finite_array's reals-only
    # rule does not fit
    if arr.dtype.kind not in "iufc" or not np.isfinite(arr).all():
        raise DimensionError(f"{name} must be finite numbers, got {value!r}")
    if arr.shape != (side,) * ndim:
        size = "x".join([str(side)] * ndim)
        raise DimensionError(
            f"{name}: K={K}, n={frame.n} needs {size} entries, got shape {arr.shape}"
        )
    return arr


def _offset(multi, K):
    off = 0
    for v in multi:
        if not 1 <= checked_int(v, "address entry") <= K:
            raise DimensionError(f"address entry {v} outside the truncation 1..{K}")
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

    ``entries[i, j]`` is the coefficient at row address p and column
    address k, where i and j are the offsets ``_offset(p, K)`` and
    ``_offset(k, K)``: addresses enumerated lexicographically over {1..K}^n.
    """

    frame: object
    K: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        entries = _as_readonly(
            _checked_numbers(self.entries, "tensor entries", self.frame, self.K, 2),
            complex,
        )
        object.__setattr__(self, "entries", entries)

    @property
    def n(self):
        return self.frame.n


def identity_tensor(frame, K):
    """Diagonal-ones tensor; a two-sided unit for band-limited products."""
    side = _side(frame, K)
    return LaguerreTensor(frame=frame, K=K, entries=np.eye(side, dtype=complex))


def indicator_tensor(frame, K, p, k):
    """Single-entry tensor at row address p, column address k."""
    side = _side(frame, K)
    for name, address in (("p", p), ("k", k)):
        try:
            fits = len(address) == frame.n
        except TypeError:  # a scalar has no entries to count
            fits = False
        if not fits:
            raise DimensionError(
                f"address {name} must have one entry per slot ({frame.n}), "
                f"got {address!r}"
            )
    entries = np.zeros((side, side), dtype=complex)
    entries[_offset(p, K), _offset(k, K)] = 1.0
    return LaguerreTensor(frame=frame, K=K, entries=entries)


def _slot_tables(frame, K, pts):
    """One K x K table of one-slot basis functions per slot, each of shape
    (K, K, npts): entry [p, k] of table j is slot j's block at address
    (p + 1, k + 1).  A basis function at addresses (p, k) is the product
    over slots j of table j's entry [p_j - 1, k_j - 1]; that product table
    is never formed.
    """
    flat = pts.reshape(-1, pts.shape[-1])
    addresses = [
        basis_address((p + 1,), (k + 1,)) for p, k in iproduct(range(K), range(K))
    ]
    return [
        exp_laguerre(frame.slot(j), addresses, flat).reshape(K, K, -1)
        for j in range(frame.n)
    ]


def _grid_points(axes):
    """The points of the flat grid indices in a slice, in ``mesh()`` order,
    read from the axes without forming the mesh."""
    coords = [a.points() for a in axes]
    shape = [a.count for a in axes]

    def points(part):
        index = np.unravel_index(np.arange(part.start, part.stop), shape)
        return np.stack([c[i] for c, i in zip(coords, index)], axis=-1)

    return points


def _chunk_tables(frame, K, points, parts):
    """(slice, slot tables) for each slice in ``parts``; ``points(part)``
    gives its points.  A slice repeated back to back reuses its tables.
    While the next chunk's tables are built, the consumer still holds the
    last ones: two sets at most.  The callers cut ``parts`` with
    ``spectral._blocks`` at n K^2 table entries per point, so the layer's
    working memory is bounded by the budget, not by the grid."""
    built = None
    for part in parts:
        if built is None or built[0] != part:
            built = part, _slot_tables(frame, K, points(part))
        yield built


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


def _check_analysis(f, frame, K):
    _side(frame, K)
    if f.ndim != 2 * frame.n:
        raise GridError(
            f"field has {f.ndim} axes; expected {2 * frame.n} for this frame"
        )
    _resolution_guard(frame, K, f.axes)


def _slot_pairs(n):
    """Axis order taking (p_1, ..., p_n, k_1, ..., k_n) to slot pairs
    (p_1, k_1, ..., p_n, k_n), the axes of the slot tables."""
    return [a for j in range(n) for a in (j, n + j)]


def _pair_sums(conj_f, K, tables):
    """Sums over one chunk's points of conj f times each basis function,
    on the axes (p_1, ..., p_n, k_1, ..., k_n).

    conj f is weighted by the tables of slots 1..n-1, one address pair at
    a time, and summed against the last table: no K^(2n) x N table.
    """
    n = len(tables)
    sums = np.empty((K,) * (2 * n), dtype=complex)
    pairs = sums.transpose(_slot_pairs(n))  # a view
    *first, last = tables
    for m in np.ndindex(pairs.shape[:-2]):
        row = conj_f
        for j, table in enumerate(first):
            row = row * table[m[2 * j], m[2 * j + 1]]
        # numpy's pairwise sum: a sequential sum over the N points
        # would lose about sqrt(N) ulps of the largest entry
        pairs[m] = (row * last).sum(-1)
    return sums


def _coefficients(fields, frame, K, chunks):
    """Coefficient tensors of fields on one grid, from (slice, slot tables)
    chunks that cover its points; each chunk's sums add to the entries."""
    totals = [None] * len(fields)
    for part, tables in chunks:
        for i, f in enumerate(fields):
            sums = _pair_sums(f.values.reshape(-1)[part].conj(), K, tables)
            if totals[i] is None:
                totals[i] = sums
            else:
                totals[i] += sums
    w = fields[0].cell_volume / exp_laguerre_l2_norm_sq(frame)
    side = K**frame.n
    # conj of <conj f, basis>: no conjugate copy of the tables
    return [
        LaguerreTensor(frame=frame, K=K, entries=total.reshape(side, side).conj() * w)
        for total in totals
    ]


def _analysis(fields, frame, K):
    """Coefficient tensors of fields on the first one's grid, one chunk of
    its points at a time."""
    parts = _blocks(fields[0].values.size, frame.n * K * K)
    chunks = _chunk_tables(frame, K, _grid_points(fields[0].axes), parts)
    return _coefficients(fields, frame, K, chunks)


def _expansion(T, tables):
    """Flat values of the expansion T at the points of its slot tables.

    T is contracted with the last table, then with each earlier one.
    """
    values = T.entries.reshape((T.K,) * (2 * T.n)).transpose(_slot_pairs(T.n))
    values = np.einsum("...ij,ijx->...x", values, tables[-1])
    for table in reversed(tables[:-1]):
        values = np.einsum("...ijx,ijx->...x", values, table)
    return values


def _synthesis(T, chunks, count):
    """Flat values of T at ``count`` points, one chunk of them at a time."""
    out = np.empty(count, dtype=complex)
    for part, tables in chunks:
        out[part] = _expansion(T, tables)
    return out


def laguerre_coefficients(f, frame, K):
    """Analysis: project a sampled field onto the truncated Laguerre basis.

    Coefficients are grid inner products against the basis functions
    divided by their common squared norm (2/pi)^n prod_j mu_j; all
    addresses with entries <= K are retained.
    """
    _check_analysis(f, frame, K)
    return _analysis([f], frame, K)[0]


def synthesize(T, y):
    """Evaluate the truncated expansion at points y of shape (..., 2n)."""
    y = finite_array(y, "points", (..., 2 * T.n))
    flat = y.reshape(-1, y.shape[-1])
    parts = _blocks(len(flat), T.n * T.K * T.K)
    chunks = _chunk_tables(T.frame, T.K, lambda part: flat[part], parts)
    return _synthesis(T, chunks, len(flat)).reshape(y.shape[:-1])


def twisted_product(f, g, frame, K):
    """Twisted convolution of f and g at the frame's tau, on f's grid.

    The truncated symbols of f and g are multiplied and the product is
    synthesized on f's grid: the same values as analysing both fields,
    ``tensor_multiply`` and ``synthesize`` on ``f.mesh()``.  Analysis walks
    f's grid one chunk of points at a time and synthesis walks it back, so
    the chunk analysed last is synthesized from the same slot tables: a
    grid of one chunk builds one set of tables, shared by the analysis of
    f, the analysis of g (when g is on the same grid) and the synthesis.
    """
    for h in (f, g):
        _check_analysis(h, frame, K)
    count = f.values.size
    parts = list(_blocks(count, frame.n * K * K))
    chunks = _chunk_tables(frame, K, _grid_points(f.axes), parts + parts[::-1])
    if g.axes == f.axes:
        F, G = _coefficients([f, g], frame, K, islice(chunks, len(parts)))
    else:
        # g's tables are built and dropped before f's
        [G] = _analysis([g], frame, K)
        [F] = _coefficients([f], frame, K, islice(chunks, len(parts)))
    values = _synthesis(tensor_multiply(F, G), chunks, count)
    return values.reshape(f.values.shape)


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
    with column address k at offset i; it does not depend on the row.
    The reciprocal of this array is the symbol of the inverse.
    """
    _side(frame, K)
    ladder = 2.0 * np.arange(1, K + 1) - 1.0
    # outer sum over slots: the first slot varies slowest, as in the addresses
    return sum(np.ix_(*(mu * ladder for mu in frame.mu))).reshape(-1)


def apply_diagonal_symbol(T, diag):
    """Right-multiply by a diagonal operator symbol, one entry per column.

    ``diag`` is in column-address order, as ``sublap_symbol`` returns it.
    """
    arr = _checked_numbers(diag, "diagonal symbol", T.frame, T.K, 1)
    return LaguerreTensor(frame=T.frame, K=T.K, entries=T.entries * arr[None, :])
