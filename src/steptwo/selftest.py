"""Deterministic self-test battery behind the CLI.

Each check is a pure function of its seed returning (name, metric,
threshold); the battery reports one line per check.  Checks run on a
thread pool of the requested size, results are collected in submission
order and every reduction inside the checks is a fixed-order einsum/sum,
so the report is byte-identical for any thread count.
"""

from concurrent.futures import ThreadPoolExecutor
from math import comb

import numpy as np

from . import fields, groups, kernels, laguerre, spectral, tensors
from .errors import DimensionError


def _series_laguerre(kmax, p, sigma):
    """Taylor coefficients of (1-z)^(-p-1) exp(-sigma z / (1-z)) (oracle).

    Independent of the recurrence: composes the exponential of the power
    series -sigma(z + z^2 + ...) with binomial coefficients.
    """
    w = np.zeros(kmax + 1)
    w[1:] = -sigma
    E = np.zeros(kmax + 1)
    E[0] = 1.0
    for m in range(1, kmax + 1):
        E[m] = sum(j * w[j] * E[m - j] for j in range(1, m + 1)) / m
    binom = np.array([comb(p + k, k) for k in range(kmax + 1)], dtype=float)
    return np.convolve(E, binom)[: kmax + 1]


def check_normal_form(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(40):
        n, r = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        B = rng.standard_normal((r, 2 * n, 2 * n))
        g = groups.make_group(n, r, B - np.transpose(B, (0, 2, 1)))
        tau = rng.standard_normal(r)
        fr = spectral.normalize(g, tau)
        worst = max(worst, *fr.residuals(g.b_tau(tau)))
    return "normal-form residuals (40 random groups)", worst, 1e-10


def check_mu_identities(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        n, r = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        B = rng.standard_normal((r, 2 * n, 2 * n))
        g = groups.make_group(n, r, B - np.transpose(B, (0, 2, 1)))
        tau = rng.standard_normal(r)
        c = float(rng.uniform(0.2, 3.0))
        f1 = spectral.normalize(g, tau)
        f2 = spectral.normalize(g, c * tau)
        worst = max(worst, np.abs(f2.mu - c * f1.mu).max() / f1.mu[0])
        det = abs(np.linalg.det(g.b_tau(tau))) ** 0.5
        worst = max(worst, abs(det - np.prod(f1.mu)) / max(det, 1e-30))
    return "mu scaling and determinant identity", worst, 1e-8


def check_laguerre_recurrence(seed):
    worst = 0.0
    for p in (0, 2, 5):
        for sigma in (0.1, 1.0, 5.0):
            oracle = _series_laguerre(12, p, sigma)
            mine = np.array(
                [laguerre.laguerre_poly(k, p, sigma) for k in range(13)]
            )
            rel = np.abs(mine - oracle) / np.maximum(np.abs(oracle), 1e-30)
            worst = max(worst, rel.max())
    return "Laguerre recurrence vs generating function", worst, 1e-10


def check_orthonormality(seed):
    nodes, wts = np.polynomial.laguerre.laggauss(160)
    worst = 0.0
    for p in range(3):
        table = np.array(
            [laguerre.laguerre_l(k, p, nodes) * np.exp(nodes / 2) for k in range(5)]
        )
        gram = np.einsum("kn,mn,n->km", table, table, wts)
        worst = max(worst, np.abs(gram - np.eye(5)).max())
    return "Laguerre function orthonormality", worst, 1e-8


def check_shift_operators(seed):
    rng = np.random.default_rng(seed)
    g = groups.quaternionic_heisenberg()
    fr = spectral.normalize(g, [0.4, -0.3, 0.6])
    pts = rng.uniform(-1.2, 1.2, size=(24, 4))
    h = 1e-3
    worst = 0.0
    for _ in range(8):
        idx = laguerre.raw_index(
            tuple(rng.integers(0, 4, 2)), tuple(rng.integers(-3, 4, 2))
        )
        j = int(rng.integers(0, 2))
        op = ("Z", "Zbar")[int(rng.integers(0, 2))]
        fn = lambda yy: laguerre.exp_laguerre(fr, idx, yy)
        d1, d2 = (
            (fn(pts - 2 * h * v) - 8 * fn(pts - h * v)
             + 8 * fn(pts + h * v) - fn(pts + 2 * h * v)) / (12 * h)
            for v in (fr.O[:, 2 * j], fr.O[:, 2 * j + 1])
        )
        z = fr.complex_tau_coordinates(pts)[:, j]
        if op == "Z":
            num = 0.5 * (d1 - 1j * d2) - fr.mu[j] * np.conj(z) * fn(pts)
        else:
            num = 0.5 * (d1 + 1j * d2) + fr.mu[j] * z * fn(pts)
        res = laguerre.shift_apply(fr, (op, j), idx)
        if res is None:
            worst = max(worst, np.abs(num).max())
        else:
            coeff, nidx = res
            target = coeff * laguerre.exp_laguerre(fr, nidx, pts)
            mask = np.abs(target) > 1e-6
            if mask.any():
                rel = (np.abs(num - target) / np.abs(target))[mask].max()
                worst = max(worst, rel)
    return "shift operators vs finite differences", worst, 1e-5


def check_product_rule(seed):
    # tau = -1 on H1: the phase exp(-2i (-y1 x2 + y2 x1)) of the 2-d basis
    h1 = groups.heisenberg(1)
    ax = fields.symmetric_axis(6.0, 64)
    # every fourth grid point on each axis, the origin among them
    sub = (slice(ax.zero_index % 4, None, 4),) * 2
    worst = 0.0
    for (k, p, q, m) in ((1, 1, 1, 1), (2, 1, 1, 2), (1, 2, 2, 1), (2, 2, 2, 2)):
        f = fields.SampledField.from_function(
            (ax, ax),
            lambda pts, p=p, k=k: laguerre.exp_laguerre_2d(
                min(p, k) - 1, p - k, pts, 1.0
            ),
        )
        g = fields.SampledField.from_function(
            (ax, ax),
            lambda pts, q=q, m=m: laguerre.exp_laguerre_2d(
                min(q, m) - 1, q - m, pts, 1.0
            ),
        )
        conv = fields.twisted_convolve(f, g, h1, [-1.0])
        target = (
            laguerre.exp_laguerre_2d(min(p, m) - 1, p - m, conv.mesh()[sub], 1.0)
            if k == q
            else 0.0
        )
        worst = max(worst, np.abs(conv.values[sub] - target).max())
    return "twisted-convolution product rule (4 cases)", worst, 1e-6


def check_tensor_multiplicativity(seed):
    rng = np.random.default_rng(seed)
    g = groups.heisenberg(1)
    tau = np.array([1.0])
    fr = spectral.normalize(g, tau)
    ax = fields.symmetric_axis(6.0, 64)

    def rand_field():
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        o = 0.4 * rng.standard_normal((2, 2))
        a = 0.8 + 0.6 * rng.random(2)
        return fields.SampledField.from_function(
            (ax, ax),
            lambda p: sum(
                c[i] * np.exp(-a[i] * np.sum((p - o[i]) ** 2, -1)) for i in range(2)
            ),
        )

    F, G = rand_field(), rand_field()
    conv = fields.twisted_convolve(F, G, g, tau)
    lhs = tensors.laguerre_coefficients(conv, fr, 6)
    rhs = tensors.tensor_multiply(
        tensors.laguerre_coefficients(F, fr, 6),
        tensors.laguerre_coefficients(G, fr, 6),
    )
    rel = np.linalg.norm(lhs.entries - rhs.entries) / np.linalg.norm(lhs.entries)
    return "Laguerre tensor multiplicativity (K=6)", rel, 1e-3


def check_fundamental_solution(seed):
    g1 = groups.heisenberg(1)
    gq = groups.quaternionic_heisenberg()
    worst = 0.0
    for ay in (0.5, 1.0, 2.0):
        val = kernels.fundamental_solution(g1, [ay, 0.0], [0.0]).value
        worst = max(worst, abs(val - 1.0 / ay**2) * ay**2)
    val = kernels.fundamental_solution(gq, [1.0, 0, 0, 0], [0, 0, 0]).value
    worst = max(worst, abs(val - 8.0 / np.pi) / (8.0 / np.pi))
    return "fundamental solution analytic values", worst, 1e-8


def check_homogeneity(seed):
    rng = np.random.default_rng(seed)
    gq = groups.quaternionic_heisenberg()
    worst = 0.0
    for lam in (0.5, 2.0):
        y = rng.standard_normal(4)
        y /= np.linalg.norm(y)
        t = 0.4 * rng.standard_normal(3)
        v1 = kernels.fundamental_solution(gq, lam * y, lam**2 * t).value
        v0 = kernels.fundamental_solution(gq, y, t).value
        worst = max(worst, abs(v1 - lam**-8 * v0) / abs(lam**-8 * v0))
    return "fundamental solution homogeneity", worst, 1e-6


def check_harmonicity(seed):
    g1 = groups.heisenberg(1)
    res, _ = kernels.horizontal_laplacian_residual(
        g1, [g1.point([1.0, 0.0], [0.5])], h=1e-2, tol=1e-10
    )
    return "sub-Laplacian annihilates the kernel (H1 probe)", res, 1e-3


def check_szego(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for y in ([1.0, 0, 0, 0], [0.3, 0.5, -0.7, 0.2]):
        res = kernels.szego_kernel(1, y, [0, 0, 0])
        exact = 24.0 / np.pi**4 / float(np.dot(y, y)) ** 5
        worst = max(worst, np.abs(res.value - exact * np.eye(2)).max() / exact)
    for k in range(1, 5):
        for _ in range(10):
            d = kernels.szego_data(k, rng.standard_normal(3) * 2.0)
            ev = np.linalg.eigvalsh(d.psd_matrix())
            worst = max(worst, abs(ev[0]) / ev[-1])
            if ev[1] < 1e-8 * ev[-1]:
                worst = max(worst, 1.0)
    return "Szego kernel value and null spectrum", worst, 1e-8


def check_abel(seed):
    g = groups.heisenberg(1)
    axy = fields.symmetric_axis(6.0, 16)
    axs = fields.symmetric_axis(6.0, 16)
    f = fields.SampledField.from_function(
        (axy, axy, axs),
        lambda p: np.exp(-(p[..., 0] ** 2 + p[..., 1] ** 2) - 1.3 * p[..., 2] ** 2),
    )
    errs = [
        np.abs(fields.abel_approx_identity(f, g, R).values - f.values).max()
        for R in (0.5, 0.9, 0.99)
    ]
    ok = errs[0] > errs[1] > errs[2]
    return (
        "Abel approximate identity (sup errors %.4f > %.4f > %.4f)" % tuple(errs),
        0.0 if ok else 1.0,
        0.5,
    )


SUITES = {
    "spectral": [check_normal_form, check_mu_identities],
    "laguerre": [
        check_laguerre_recurrence,
        check_orthonormality,
        check_shift_operators,
    ],
    "twisted": [check_product_rule, check_tensor_multiplicativity, check_abel],
    "kernels": [
        check_fundamental_solution,
        check_homogeneity,
        check_harmonicity,
        check_szego,
    ],
}
SUITES["all"] = (
    SUITES["spectral"] + SUITES["laguerre"] + SUITES["twisted"] + SUITES["kernels"]
)


def run_suite(name, seed=42, threads=1):
    """Run a named battery; returns (report_text, all_passed)."""
    if not isinstance(name, str) or name not in SUITES:
        raise DimensionError(
            f"unknown selftest suite {name!r}; the suites are {', '.join(SUITES)}"
        )
    checks = SUITES[name]
    seed = groups.checked_int(seed, "seed", 0)
    threads = groups.checked_int(threads, "threads", 1)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(lambda c: c(seed), checks))
    lines = []
    all_ok = True
    for label, metric, threshold in results:
        ok = metric <= threshold
        all_ok &= ok
        lines.append(
            "%-4s %-55s metric=%.6e limit=%.1e"
            % ("PASS" if ok else "FAIL", label, metric, threshold)
        )
    lines.append("suite=%s seed=%d checks=%d result=%s" % (
        name, seed, len(checks), "PASS" if all_ok else "FAIL"))
    return "\n".join(lines), all_ok
