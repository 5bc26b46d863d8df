"""Step-two nilpotent groups given by their skew-symmetric structure matrices.

A group is the vector space R^(2n) x R^r with multiplication

    (x, t) . (y, s) = (x + y, t + s + 2 B(x, y)),

where B is an R^r-valued skew-symmetric bilinear form encoded by r real
2n x 2n matrices.  Everything downstream (tau-frames, Laguerre bases,
kernels) is derived from these matrices.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, SkewSymmetryError

# Relative tolerance on B + B^T when full matrices are passed in memory.
# Structure matrices are exact data, so the bar is near machine precision.
SKEW_RTOL = 1e-12


def finite_array(values, what):
    """``values`` as a float array; DimensionError unless every entry is finite."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise DimensionError(f"{what} must be finite, got {arr.tolist()}")
    return arr


def _as_readonly(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GroupPoint:
    """A point (y, t) with horizontal part y in R^(2n) and central part t in R^r."""

    y: np.ndarray
    t: np.ndarray

    def __iter__(self):
        return iter((self.y, self.t))


@dataclass(frozen=True)
class StepTwoGroup:
    """Immutable step-two group: dimensions (n, r) and structure matrices B.

    Attributes
    ----------
    n : int
        Half the horizontal dimension (the horizontal space is R^(2n)).
    r : int
        Dimension of the center.
    B : ndarray, shape (r, 2n, 2n)
        Skew-symmetric structure matrices, one per central direction.
    """

    n: int
    r: int
    B: np.ndarray = field(repr=False)

    @property
    def m(self):
        return 2 * self.n

    @property
    def dim(self):
        return 2 * self.n + self.r

    # -- construction helpers -------------------------------------------------

    def point(self, y, t):
        y = finite_array(y, "point coordinates").reshape(-1)
        t = finite_array(t, "point coordinates").reshape(-1)
        if y.size != self.m or t.size != self.r:
            raise DimensionError(
                f"point must have horizontal length {self.m} and central "
                f"length {self.r}, got ({y.size}, {t.size})"
            )
        return GroupPoint(_as_readonly(y), _as_readonly(t))

    def origin(self):
        return self.point(np.zeros(self.m), np.zeros(self.r))

    # -- the bilinear form and group law --------------------------------------

    def b_form(self, x, y):
        """The R^r-valued form B(x, y), one component per structure matrix."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.einsum("bkl,k,l->b", self.B, x, y)

    def multiply(self, a, b):
        """Group product (x,t).(y,s) = (x+y, t+s+2B(x,y))."""
        self._check_point(a)
        self._check_point(b)
        return self.point(a.y + b.y, a.t + b.t + 2.0 * self.b_form(a.y, b.y))

    def inverse(self, a):
        """Group inverse; skew-symmetry of B makes it (-y, -t)."""
        self._check_point(a)
        return self.point(-a.y, -a.t)

    def dilate(self, lam, p):
        """Parabolic dilation (y, t) -> (lam y, lam^2 t), lam > 0."""
        if lam <= 0:
            raise DimensionError(f"dilation factor must be positive, got {lam}")
        self._check_point(p)
        return self.point(lam * p.y, lam * lam * p.t)

    def b_tau(self, tau):
        """The skew matrix sum_beta tau_beta B^beta pairing the center with tau.

        Batched: tau of shape (..., r) gives (..., 2n, 2n); a scalar is
        accepted for r = 1.
        """
        tau = finite_array(tau, "tau")
        tau = tau.reshape(-1) if tau.ndim < 2 else tau
        if tau.shape[-1] != self.r:
            raise DimensionError(f"tau must have length {self.r}, got {tau.shape[-1]}")
        return np.einsum("...b,bkl->...kl", tau, self.B)

    def vector_field_coefficients(self, k, p):
        """Coefficients of the left-invariant horizontal field with index k.

        Returns the length-(2n+r) coefficient vector of
        Y_k = d/dy_k + 2 sum_beta sum_l B^beta_{lk} y_l d/dt_beta
        at the point p, in the (d/dy, d/dt) coordinate basis.  Indices are
        0-based: k ranges over 0..2n-1.
        """
        if not 0 <= k < self.m:
            raise DimensionError(f"field index must be in [0, {self.m}), got {k}")
        self._check_point(p)
        coeff = np.zeros(self.dim)
        coeff[k] = 1.0
        # central part: 2 (B^beta)^T y evaluated at slot k
        coeff[self.m:] = 2.0 * np.einsum("bl,l->b", self.B[:, :, k], p.y)
        return coeff

    def _check_point(self, p):
        if p.y.size != self.m or p.t.size != self.r:
            raise DimensionError(
                f"point of shape ({p.y.size}, {p.t.size}) does not belong to a "
                f"group with (2n, r) = ({self.m}, {self.r})"
            )

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        return json.dumps(
            {"n": self.n, "r": self.r, "B": [m.tolist() for m in self.B]},
            indent=2,
        )


def make_group(n, r, B):
    """Validate dimensions and skew-symmetry and build a StepTwoGroup.

    Parameters
    ----------
    n, r : int
        Half the horizontal dimension and the center dimension; both >= 1.
    B : sequence of r arrays, each 2n x 2n
        Structure matrices.  Each must be skew-symmetric; the allowed
        asymmetry is ``SKEW_RTOL`` times the largest entry magnitude.
    """
    if n < 1 or r < 1:
        raise DimensionError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    mats = finite_array(B, "structure matrices")
    if mats.ndim != 3 or mats.shape[0] != r:
        raise DimensionError(
            f"expected {r} structure matrices, got array of shape {mats.shape}"
        )
    m = 2 * n
    if mats.shape[1] != m or mats.shape[2] != m:
        if mats.shape[1] % 2 == 1 and mats.shape[1] == mats.shape[2]:
            raise SkewSymmetryError(
                f"structure matrices are {mats.shape[1]}x{mats.shape[1]}; odd "
                "horizontal dimension is degenerate and not supported"
            )
        raise DimensionError(
            f"structure matrices must be {m}x{m}, got {mats.shape[1]}x{mats.shape[2]}"
        )
    for beta in range(r):
        asym = np.abs(mats[beta] + mats[beta].T).max()
        scale = np.abs(mats[beta]).max()
        if asym > SKEW_RTOL * max(scale, 1.0):
            raise SkewSymmetryError(
                f"structure matrix {beta} is not skew-symmetric: "
                f"max |B + B^T| = {asym:.3e}"
            )
    return StepTwoGroup(n=int(n), r=int(r), B=_as_readonly(mats))


def _expand_triangle(flat, m):
    """Fill a skew matrix from its strict upper triangle in row-major order."""
    flat = np.asarray(flat, dtype=float).reshape(-1)
    expect = m * (m - 1) // 2
    if flat.size != expect:
        raise DimensionError(
            f"upper-triangle data must have {expect} entries for a {m}x{m} "
            f"matrix, got {flat.size}"
        )
    mat = np.zeros((m, m))
    iu = np.triu_indices(m, k=1)
    mat[iu] = flat
    return mat - mat.T


def group_from_dict(data):
    """Build a group from the JSON schema {"n":…, "r":…, "B":[…]}.

    Each entry of "B" is either a full 2n x 2n nested list (skew-symmetry is
    then required exactly, since file data is exact) or a flat list of the
    strict upper triangle in row-major order.
    """
    try:
        n, r, raw = int(data["n"]), int(data["r"]), data["B"]
    except (KeyError, TypeError) as exc:
        raise DimensionError(f"group definition missing field: {exc}") from exc
    m = 2 * n
    mats = []
    for beta, entry in enumerate(raw):
        arr = np.asarray(entry, dtype=float)
        if arr.ndim == 1:
            mats.append(_expand_triangle(arr, m))
        else:
            if np.abs(arr + arr.T).max() != 0.0:
                raise SkewSymmetryError(
                    f"structure matrix {beta} loaded from file must be exactly "
                    "skew-symmetric (store the strict upper triangle instead)"
                )
            mats.append(arr)
    return make_group(n, r, mats)


def load_group(path):
    with open(path, "r", encoding="utf-8") as fh:
        return group_from_dict(json.load(fh))


# Standard 2x2 symplectic block; the Heisenberg structure matrix is its
# n-fold direct sum.
_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

# Structure matrices of the 7-dimensional quaternionic Heisenberg group.
# They satisfy (B^i)^2 = -I and B^1 B^2 B^3 = -I, the quaternion relations.
_QUATERNIONIC_B = np.array(
    [
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
        [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
    ],
    dtype=float,
)


def heisenberg(n):
    """The Heisenberg group H_n: r = 1, B^1 = direct sum of n symplectic blocks."""
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    B = np.zeros((1, 2 * n, 2 * n))
    for j in range(n):
        B[0, 2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = _J2
    return make_group(n, 1, B)


def quaternionic_heisenberg():
    """The 7-dimensional quaternionic Heisenberg group (n = 2, r = 3)."""
    return make_group(2, 3, _QUATERNIONIC_B)


def preset(name, n=None):
    """Look up a named group.

    Accepted names: "quaternionic-heisenberg", "heisenberg-<N>" for a
    literal N, or "heisenberg-n" together with the ``n`` keyword.
    """
    if name == "quaternionic-heisenberg":
        return quaternionic_heisenberg()
    if name.startswith("heisenberg-"):
        suffix = name[len("heisenberg-"):]
        if suffix == "n":
            if n is None:
                raise DimensionError('preset "heisenberg-n" needs the n argument')
            return heisenberg(n)
        try:
            return heisenberg(int(suffix))
        except ValueError:
            pass
    raise DimensionError(f"unknown group preset {name!r}")
