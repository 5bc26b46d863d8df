"""Acceptance battery: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to stream them).
The runtime budgets are asserted alongside the numerical tolerances.
"""

import subprocess
import sys
import time
from itertools import product as iproduct

import numpy as np
import pytest
from scipy import integrate

import steptwo as st
from steptwo.fields import SampledField, symmetric_axis
from conftest import random_skew_group


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_normal_form():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst_form = worst_orth = 0.0
    for _ in range(200):
        g = random_skew_group(rng)  # n <= 4, r <= 3
        tau = rng.standard_normal(g.r)
        fr = st.normalize(g, tau)
        M = g.b_tau(tau)
        worst_form = max(
            worst_form, np.abs(fr.O.T @ M @ fr.O - fr.normal_form()).max()
        )
        worst_orth = max(worst_orth, np.abs(fr.O.T @ fr.O - np.eye(g.m)).max())
    elapsed = time.time() - t0
    ok = worst_form <= 1e-10 and worst_orth <= 1e-10 and elapsed < 5.0
    _report(
        1,
        ok,
        f"normal form on 200 random instances: |O^T B O - J| <= {worst_form:.2e}, "
        f"|O^T O - I| <= {worst_orth:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_orthonormality():
    t0 = time.time()
    worst = 0.0
    for p in range(5):
        for k in range(7):
            for m in range(k, 7):
                val, _ = integrate.quad(
                    lambda s: st.laguerre_l(k, p, s) * st.laguerre_l(m, p, s),
                    0.0,
                    np.inf,
                    limit=200,
                )
                worst = max(worst, abs(val - float(k == m)))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(
        2,
        ok,
        f"orthonormality k,m <= 6, p <= 4: max |error| = {worst:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_product_rule():
    t0 = time.time()
    tau = 1.0
    ax = symmetric_axis(6.0, 128)
    counts = np.array([128, 128])
    steps = np.array([ax.step, ax.step])
    los = np.array([ax.lo, ax.lo])
    zero = np.array([ax.zero_index, ax.zero_index])

    grid_idx = np.stack(
        np.meshgrid(np.arange(128), np.arange(128), indexing="ij"), -1
    ).reshape(-1, 2)
    x_pts = los + grid_idx * steps
    stride = 8
    out_idx = np.stack(
        np.meshgrid(*(np.arange(0, 128, stride),) * 2, indexing="ij"), -1
    ).reshape(-1, 2)
    y_pts = los + out_idx * steps
    # phase and difference-lattice gather are shared by all 81 cases
    M = tau * np.array([[0.0, -1.0], [1.0, 0.0]])
    phase = np.exp(-1j * np.einsum("bd,xd->bx", y_pts @ (2 * M), x_pts))
    K = out_idx[:, None, :] - grid_idx[None, :, :] + zero
    valid = np.all((K >= 0) & (K < counts), axis=-1)
    flat = np.ravel_multi_index(tuple(np.moveaxis(K, -1, 0)), (128, 128), "clip")
    w = ax.step**2

    mesh = np.stack(np.meshgrid(ax.points(), ax.points(), indexing="ij"), -1)
    basis = {}
    for a, b in iproduct((1, 2, 3), repeat=2):
        basis[(a, b)] = st.exp_laguerre_2d(min(a, b) - 1, a - b, mesh, tau)
    out_mesh = y_pts.reshape(16, 16, 2)

    worst = 0.0
    for (k, p, q, m) in iproduct((1, 2, 3), repeat=4):
        f = basis[(p, k)].reshape(-1)
        g = basis[(q, m)].reshape(-1)
        fv = np.where(valid, f[flat], 0.0)
        conv = np.einsum("bx,bx,x->b", phase, fv, g) * w
        if k == q:
            target = st.exp_laguerre_2d(min(p, m) - 1, p - m, out_mesh, tau)
        else:
            target = np.zeros((16, 16), dtype=complex)
        worst = max(worst, np.abs(conv.reshape(16, 16) - target).max())

    # cross-check the shared-phase harness against the public operation,
    # H1 at -tau (the phase of M above), on the harness's output points
    h1 = st.heisenberg(1)
    for (k, p, q, m) in ((1, 2, 1, 3), (2, 2, 3, 1), (3, 3, 3, 3)):
        ff = SampledField(axes=(ax, ax), values=basis[(p, k)])
        gg = SampledField(axes=(ax, ax), values=basis[(q, m)])
        conv = st.twisted_convolve(ff, gg, h1, [-tau])
        fv = np.where(valid, basis[(p, k)].reshape(-1)[flat], 0.0)
        harness = np.einsum(
            "bx,bx,x->b", phase, fv, basis[(q, m)].reshape(-1)
        ) * w
        sub = conv.values[::stride, ::stride].reshape(-1)
        assert np.abs(sub - harness).max() < 1e-12

    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 120.0
    _report(
        3,
        ok,
        f"product rule, 81 cases on 128^2 grids: max |error| = {worst:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_tensor_multiplicativity():
    t0 = time.time()
    g = st.heisenberg(1)
    tau = np.array([1.0])
    fr = st.normalize(g, tau)
    ax = symmetric_axis(6.0, 96)
    rng = np.random.default_rng(44)

    def rand_field():
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        o = 0.4 * rng.standard_normal((2, 2))
        a = 0.8 + 0.6 * rng.random(2)
        return SampledField.from_function(
            (ax, ax),
            lambda p: sum(
                c[i] * np.exp(-a[i] * np.sum((p - o[i]) ** 2, -1))
                for i in range(2)
            ),
        )

    F, G = rand_field(), rand_field()
    conv = st.twisted_convolve(F, G, g, tau)
    lhs = st.laguerre_coefficients(conv, fr, 8)
    rhs = st.tensor_multiply(
        st.laguerre_coefficients(F, fr, 8), st.laguerre_coefficients(G, fr, 8)
    )
    rel = np.linalg.norm(lhs.entries - rhs.entries) / np.linalg.norm(lhs.entries)
    elapsed = time.time() - t0
    ok = rel <= 1e-3 and elapsed < 120.0
    _report(
        4,
        ok,
        f"tensor multiplicativity at K=8: relative Frobenius error = "
        f"{rel:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_shift_operators():
    t0 = time.time()
    rng = np.random.default_rng(55)
    quat = st.quaternionic_heisenberg()
    fr = st.normalize(quat, [0.4, -0.3, 0.6])
    pts = rng.uniform(-1.2, 1.2, size=(30, 4))
    h = 1e-3

    def fd(fn, d):
        return (
            fn(pts - 2 * h * d)
            - 8 * fn(pts - h * d)
            + 8 * fn(pts + h * d)
            - fn(pts + 2 * h * d)
        ) / (12 * h)

    worst = 0.0
    for _ in range(20):
        idx = st.raw_index(
            tuple(rng.integers(0, 4, 2)), tuple(rng.integers(-3, 4, 2))
        )
        j = int(rng.integers(0, 2))
        op = ("Z", "Zbar")[int(rng.integers(0, 2))]
        fn = lambda yy: st.exp_laguerre(fr, idx, yy)
        d1 = fd(fn, fr.O[:, 2 * j])
        d2 = fd(fn, fr.O[:, 2 * j + 1])
        z = fr.complex_tau_coordinates(pts)[:, j]
        if op == "Z":
            num = 0.5 * (d1 - 1j * d2) - fr.mu[j] * np.conj(z) * fn(pts)
        else:
            num = 0.5 * (d1 + 1j * d2) + fr.mu[j] * z * fn(pts)
        res = st.shift_apply(fr, (op, j), idx)
        if res is None:
            worst = max(worst, np.abs(num).max())
            continue
        coeff, nidx = res
        target = coeff * st.exp_laguerre(fr, nidx, pts)
        mask = np.abs(target) > 1e-6
        if mask.any():
            worst = max(
                worst, (np.abs(num - target)[mask] / np.abs(target)[mask]).max()
            )
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 30.0
    _report(
        5,
        ok,
        f"shift operators vs finite differences, 20 indices: max relative "
        f"error = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_fundamental_solution_values():
    t0 = time.time()
    h1 = st.heisenberg(1)
    quat = st.quaternionic_heisenberg()
    worst_h1 = 0.0
    for ay in (0.5, 1.0, 2.0):
        val = st.fundamental_solution(h1, [ay, 0.0], [0.0]).value
        worst_h1 = max(worst_h1, abs(val - 1.0 / ay**2) * ay**2)
    worst_q = 0.0
    for y in ([1.0, 0, 0, 0], [0.5, 0.5, -0.5, 0.5]):
        val = st.fundamental_solution(quat, y, [0, 0, 0]).value
        exact = 8.0 / (np.pi * np.linalg.norm(y) ** 8)
        worst_q = max(worst_q, abs(val - exact) / exact)
    elapsed = time.time() - t0
    ok = worst_h1 <= 1e-8 and worst_q <= 1e-6 and elapsed < 30.0
    _report(
        6,
        ok,
        f"fundamental solution values: H1 scaled error {worst_h1:.2e} "
        f"(<=1e-8), quaternionic relative {worst_q:.2e} (<=1e-6), "
        f"{elapsed:.1f}s",
    )


def test_criterion_7_homogeneity_and_harmonicity():
    t0 = time.time()
    h1 = st.heisenberg(1)
    quat = st.quaternionic_heisenberg()
    rng = np.random.default_rng(77)
    worst_scale = 0.0
    for _ in range(20):
        g = (h1, quat)[int(rng.integers(0, 2))]
        y = rng.standard_normal(g.m)
        y /= np.linalg.norm(y)
        t = 0.4 * rng.standard_normal(g.r)
        lam = float(rng.uniform(0.5, 2.0))
        deg = 2 * (g.n + g.r - 1)
        v0 = st.fundamental_solution(g, y, t).value
        v1 = st.fundamental_solution(g, lam * y, lam**2 * t).value
        worst_scale = max(worst_scale, abs(v1 - lam**-deg * v0) / abs(lam**-deg * v0))
    res_h1, _ = st.horizontal_laplacian_residual(
        h1, [h1.point([1.0, 0.0], [0.5])], h=1e-2, tol=1e-10
    )
    res_q, _ = st.horizontal_laplacian_residual(
        quat, [quat.point([1.0, 0, 0, 0], [0.1, 0, 0])], h=1e-3, tol=1e-10
    )
    elapsed = time.time() - t0
    ok = (
        worst_scale <= 1e-6
        and res_h1 <= 1e-3
        and res_q <= 1e-2
        and elapsed < 120.0
    )
    _report(
        7,
        ok,
        f"homogeneity on 20 points: {worst_scale:.2e} (<=1e-6); harmonicity "
        f"residuals H1 {res_h1:.2e} (<=1e-3), quaternionic {res_q:.2e} "
        f"(<=1e-2), {elapsed:.1f}s",
    )


def test_criterion_8_szego():
    t0 = time.time()
    worst_val = 0.0
    for y in ([1.0, 0, 0, 0], [0.4, -0.6, 0.2, 0.5]):
        res = st.szego_kernel(1, y, [0, 0, 0])
        exact = 24.0 / np.pi**4 / float(np.dot(y, y)) ** 5
        worst_val = max(worst_val, np.abs(res.value - exact * np.eye(2)).max() / exact)
    rng = np.random.default_rng(88)
    spectrum_ok = True
    for _ in range(100):
        k = int(rng.integers(1, 5))
        tau = 2.0 * rng.standard_normal(3)
        mat = st.szego_data(k, tau).psd_matrix()
        ev = np.linalg.eigvalsh(mat)
        spectrum_ok &= abs(ev[0]) < 1e-10 * ev[-1] and ev[1] > 1e-8 * ev[-1]
    elapsed = time.time() - t0
    ok = worst_val <= 1e-8 and spectrum_ok and elapsed < 30.0
    _report(
        8,
        ok,
        f"Szego kernel value error {worst_val:.2e} (<=1e-8); 100 random "
        f"spectra each with exactly one null direction: "
        f"{'yes' if spectrum_ok else 'no'}, {elapsed:.1f}s",
    )


def test_criterion_9_abel():
    t0 = time.time()
    h1 = st.heisenberg(1)
    axy = symmetric_axis(6.0, 20)
    axs = symmetric_axis(6.0, 20)
    f = SampledField.from_function(
        (axy, axy, axs),
        lambda p: np.exp(-(p[..., 0] ** 2 + p[..., 1] ** 2) - 1.3 * p[..., 2] ** 2),
    )
    errs = [
        np.abs(st.abel_approx_identity(f, h1, R).values - f.values).max()
        for R in (0.5, 0.9, 0.99)
    ]
    elapsed = time.time() - t0
    ok = errs[0] > errs[1] > errs[2] and elapsed < 60.0
    _report(
        9,
        ok,
        "Abel approximation sup errors strictly decrease: "
        f"{errs[0]:.4f} > {errs[1]:.4f} > {errs[2]:.4f}, {elapsed:.1f}s",
    )


def test_criterion_10_determinism():
    t0 = time.time()
    outputs = []
    for threads in ("1", "8"):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "steptwo.cli",
                "selftest",
                "all",
                "--seed",
                "42",
                "--threads",
                threads,
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
        outputs.append(proc.stdout)
    elapsed = time.time() - t0
    ok = outputs[0] == outputs[1] and b"result=PASS" in outputs[0]
    _report(
        10,
        ok,
        f"selftest all --seed 42 byte-identical at 1 and 8 threads "
        f"({len(outputs[0])} bytes), {elapsed:.1f}s",
    )
