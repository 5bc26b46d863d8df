"""Twisted convolution as matrix multiplication of Laguerre tensors.

The basis elements multiply like matrix units under the twisted
convolution, so symbols of band-limited functions compose by ordinary
matrix products.  This script verifies both facts by quadrature.
"""

import numpy as np

import steptwo as st
from steptwo.fields import SampledField, symmetric_axis

h1 = st.heisenberg(1)
tau = np.array([1.0])
frame = st.normalize(h1, tau)
ax = symmetric_axis(6.0, 96)
axes = (ax, ax)

# Matrix-unit behavior: address (p,k) convolved with (q,m) is delta_{kq}
# times address (p,m).
def basis_field(p, k):
    return SampledField.from_function(
        axes, lambda pts: st.exp_laguerre(frame, st.basis_address((p,), (k,)), pts)
    )

# Compare on every sixth grid point of each axis, the origin among them.
sub = (slice(ax.zero_index % 6, None, 6),) * 2
conv = st.twisted_convolve(basis_field(2, 1), basis_field(1, 3), h1, tau)
target = st.exp_laguerre(frame, st.basis_address((2,), (3,)), conv.mesh()[sub])
print("E_{2,1} * E_{1,3} = E_{2,3}: max error", np.abs(conv.values[sub] - target).max())
conv0 = st.twisted_convolve(basis_field(2, 1), basis_field(3, 1), h1, tau)
print("E_{2,1} * E_{3,1} = 0:      max error", np.abs(conv0.values[sub]).max())

# Symbol calculus on generic rapidly decaying functions.
rng = np.random.default_rng(5)
def bump_mixture():
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    o = 0.4 * rng.standard_normal((2, 2))
    a = 0.8 + 0.6 * rng.random(2)
    return SampledField.from_function(
        axes,
        lambda p: sum(c[i] * np.exp(-a[i] * np.sum((p - o[i]) ** 2, -1)) for i in range(2)),
    )

F, G = bump_mixture(), bump_mixture()
T_conv = st.laguerre_coefficients(st.twisted_convolve(F, G, h1, tau), frame, 8)
T_prod = st.tensor_multiply(
    st.laguerre_coefficients(F, frame, 8), st.laguerre_coefficients(G, frame, 8)
)
rel = np.linalg.norm(T_conv.entries - T_prod.entries) / np.linalg.norm(T_conv.entries)
print("\nsymbol of convolution vs product of symbols (rel Frobenius):", rel)

# Analysis/synthesis round trip of a Gaussian at a mismatched width.
f = SampledField.from_function(axes, lambda p: np.exp(-1.6 * np.sum(p**2, -1)) + 0j)
T = st.laguerre_coefficients(f, frame, 8)
recon = st.synthesize(T, f.mesh())
l2 = np.sqrt((np.abs(recon - f.values) ** 2).sum() * f.cell_volume)
print("round-trip L2 error at K=8:", l2)
print("leading diagonal coefficients:", np.round(np.diag(T.entries)[:4].real, 6))
