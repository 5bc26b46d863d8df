"""The sub-Laplacian's fundamental solution as a frequency integral.

Evaluates the kernel on the Heisenberg and quaternionic Heisenberg
groups, compares with the closed forms available there, and probes
harmonicity away from the origin with one second difference of step 2h
along the flow of each left-invariant horizontal field Y_k.
"""

import numpy as np

import steptwo as st

h1 = st.heisenberg(1)
quat = st.quaternionic_heisenberg()

# On H1 the kernel is (|y|^4 + t^2)^(-1/2); at t = 0 that is 1/|y|^2.
print("H1 kernel against the closed form:")
for (y, t) in (([1.0, 0.0], 0.0), ([0.7, -0.3], 0.4), ([2.0, 0.0], -1.0)):
    res = st.fundamental_solution(h1, y, [t])
    closed = ((y[0] ** 2 + y[1] ** 2) ** 2 + t**2) ** -0.5
    print(
        f"  y={y} t={t:+.1f}: value {res.value.real:.10f}  closed {closed:.10f}"
        f"  est_error {res.est_error:.1e}"
    )

# On the quaternionic group at t = 0 the radial profile is 8/(pi |y|^8).
print("\nquaternionic kernel at t = 0:")
for y in ([1.0, 0, 0, 0], [0.5, 0.5, -0.5, 0.5]):
    res = st.fundamental_solution(quat, y, [0, 0, 0])
    exact = 8.0 / (np.pi * np.linalg.norm(y) ** 8)
    print(f"  |y|={np.linalg.norm(y):.2f}: value {res.value.real:.8f}  exact {exact:.8f}")

# Parabolic scaling: Psi(lam y, lam^2 t) = lam^(-2(n+r-1)) Psi(y, t).
y = np.array([0.6, -0.2, 0.3, 0.7])
t = np.array([0.2, -0.1, 0.3])
v0 = st.fundamental_solution(quat, y, t).value
v2 = st.fundamental_solution(quat, 2 * y, 4 * t).value
print("\nhomogeneity: Psi(2y,4t) * 2^8 / Psi(y,t) =", (v2 * 2**8 / v0).real)

# The kernel is annihilated by the sub-Laplacian away from the origin.
res, _ = st.horizontal_laplacian_residual(
    h1, [h1.point([1.0, 0.0], [0.5])], h=1e-2, tol=1e-10
)
print("\n|Delta_b Psi| at a unit-scale H1 point:", res)
