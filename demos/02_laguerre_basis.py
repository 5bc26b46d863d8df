"""The exponential Laguerre basis and its ladder of shift operators.

Samples basis functions adapted to a tau-frame, checks their norms by
quadrature, and applies the complex horizontal vector fields, which act
as exact shift operators on the index lattice.
"""

import numpy as np

import steptwo as st

h1 = st.heisenberg(1)
tau = np.array([1.0])
frame = st.normalize(h1, tau)

# Planar building block: normalized Laguerre profile times an angular
# phase.  The ground state is a Gaussian.
pts = np.array([[0.5, 0.0], [0.0, 1.0], [1.0, 1.0]])
print("ground state values:", st.exp_laguerre_2d(0, 0, pts, 1.0).real)
print("against (2/pi) e^{-|y|^2}:", (2 / np.pi) * np.exp(-np.sum(pts**2, -1)))

# Every basis element shares the same L^2 norm, fixed by the frame.
xs = np.linspace(-7, 7, 181)
mesh = np.stack(np.meshgrid(xs, xs, indexing="ij"), -1)
idx = st.raw_index((2,), (-1,))
vals = st.exp_laguerre(frame, idx, mesh)
norm_sq = (np.abs(vals) ** 2).sum() * (xs[1] - xs[0]) ** 2
print("\n|basis|^2 by quadrature:", norm_sq)
print("closed form (2/pi)^n prod mu:", st.exp_laguerre_l2_norm_sq(frame))

# Shift operators: the holomorphic field lowers the angular index, its
# conjugate raises it, with explicit square-root coefficients.
print("\nshift ladder from k=1, p=0:")
state = st.raw_index((1,), (0,))
for op in (("Z", 0), ("Zbar", 0), ("Zbar", 0), ("Zbar", 0)):
    res = st.shift_apply(frame, op, state)
    if res is None:
        print(f"  {op[0]}: annihilated")
        break
    coeff, state = res
    print(f"  {op[0]}: coefficient {coeff:+.4f} -> k={state.k} p={state.p}")

# Composing the two shifts in each slot diagonalizes the sub-Laplacian:
# the eigenvalue on a radial element with index k is mu (2k + 1), entry k
# of its symbol over the column addresses 1..4.
for k, ev in enumerate(st.sublap_symbol(frame, 4)):
    print(f"sub-Laplacian eigenvalue at k={k}: {ev}")
