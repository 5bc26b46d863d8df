import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import ortho_group

import steptwo as st
import steptwo.kernels as kernels
from steptwo.cli import run
from steptwo.kernels import SZEGO_CONSTANT, _sublaplacian_by_differences
from steptwo.tensors import _offset
from conftest import (
    abel_fundamental_solution,
    dense_fs_integrand,
    heat_tail_on_ray,
    kaplan_fundamental,
    random_skew_group,
    szego_at_zero_central,
    szego_on_axis,
    szego_pass_loop,
)


def gauge_point(rng, ratio):
    """Seeded (y, t) on the quaternionic gauge sphere |y|^4 + |t|^2 = 1 with
    |y|^2 / |t| = ratio."""
    theta = np.arctan2(1.0, ratio)
    y, t = rng.standard_normal(4), rng.standard_normal(3)
    y *= np.sqrt(np.cos(theta)) / np.linalg.norm(y)
    t *= np.sin(theta) / np.linalg.norm(t)
    return y, t


class TestSubLaplacianSymbol:
    def test_heisenberg_ground_value(self, h1):
        fr = st.normalize(h1, [1.0])
        sym = st.sublap_symbol(fr, 3)
        assert sym[0] == pytest.approx(1.0)
        assert sym[2] == pytest.approx(5.0)

    def test_quaternionic_value(self, quat):
        fr = st.normalize(quat, [1.0, 0.0, 0.0])
        sym = st.sublap_symbol(fr, 3)
        assert sym[_offset((2, 3), 3)] == pytest.approx(8.0)

    def test_matches_shift_composition(self, quat):
        fr = st.normalize(quat, [0.4, -0.3, 0.6])
        sym = st.sublap_symbol(fr, 4)
        for k in ((0, 0), (2, 1), (3, 3)):
            total = 0.0
            idx = st.raw_index(k, (0, 0))
            for j in range(2):
                for first, second in (("Z", "Zbar"), ("Zbar", "Z")):
                    r1 = st.shift_apply(fr, (first, j), idx)
                    if r1 is None:
                        continue
                    c1, i1 = r1
                    c2, i2 = st.shift_apply(fr, (second, j), i1)
                    assert i2.k == idx.k and i2.p == idx.p
                    total += c1 * c2
            column = _offset(tuple(v + 1 for v in k), 4)
            assert -0.5 * total == pytest.approx(sym[column], rel=1e-12)


class TestIntegrand:
    def test_small_frequency_limit(self, quat):
        y = np.array([0.6, -0.2, 0.3, 0.1])
        t = np.array([0.4, 0.0, -0.3])
        tau = 1e-9 * np.array([1.0, -2.0, 0.5])
        val = st.fs_integrand(quat, tau, y, t)
        limit = (float(y @ y) + 1j * float(t @ tau)) ** -4
        assert val == pytest.approx(limit, rel=1e-8)
        exact_zero = st.fs_integrand(quat, [0.0, 0.0, 0.0], y, t)
        assert exact_zero == pytest.approx(float(y @ y) ** -4.0, rel=1e-14)

    def test_spectral_equals_dense_matrix_path(self, rng):
        for _ in range(10):
            g = random_skew_group(rng, r=1)
            tau = rng.standard_normal(1)
            y = rng.standard_normal(g.m)
            t = rng.standard_normal(1)
            mine = st.fs_integrand(g, tau, y, t)
            oracle = dense_fs_integrand(g, tau, y, t)
            assert mine == pytest.approx(oracle, rel=1e-10)

    def test_quaternionic_closed_form(self, quat, rng):
        for _ in range(5):
            tau = rng.standard_normal(3)
            rho = np.linalg.norm(tau)
            y = rng.standard_normal(4)
            mine = st.fs_integrand(quat, tau, y, [0.0, 0.0, 0.0])
            expected = (rho / np.sinh(rho)) ** 2 / (
                rho / np.tanh(rho) * float(y @ y)
            ) ** 4
            assert mine == pytest.approx(expected, rel=1e-12)
            assert mine == pytest.approx(
                dense_fs_integrand(quat, tau, y, np.zeros(3)), rel=1e-10
            )


class TestFundamentalSolution:
    def test_heisenberg_values(self, h1):
        for ay in (0.5, 1.0, 2.0):
            res = st.fundamental_solution(h1, [ay, 0.0], [0.0])
            assert abs(res.value - 1.0 / ay**2) <= 1e-8 / ay**2
            assert abs(res.value.imag) < 1e-12
            assert res.est_error < 1e-9

    def test_heisenberg_closed_form_off_center(self, h1):
        # classical kernel of the first Heisenberg group in these
        # conventions: (|y|^4 + t^2)^(-1/2)
        for (y, t) in (([0.7, -0.3], 0.4), ([1.2, 0.5], -1.0)):
            res = st.fundamental_solution(h1, y, [t])
            y2 = y[0] ** 2 + y[1] ** 2
            assert res.value.real == pytest.approx(
                (y2**2 + t**2) ** -0.5, rel=1e-8
            )
            assert abs(res.value.imag) < 1e-10

    def test_quaternionic_value(self, quat):
        for y in ([1.0, 0, 0, 0], [0.5, 0.5, -0.5, 0.5], [0.2, -0.1, 0.3, 0.6]):
            res = st.fundamental_solution(quat, y, [0, 0, 0])
            ay = np.linalg.norm(y)
            exact = 8.0 / (np.pi * ay**8)
            assert abs(res.value - exact) / exact < 1e-6

    def test_homogeneity(self, quat, rng):
        for _ in range(5):
            y = rng.standard_normal(4)
            y /= np.linalg.norm(y)
            t = 0.5 * rng.standard_normal(3)
            lam = float(rng.uniform(0.5, 2.0))
            v0 = st.fundamental_solution(quat, y, t).value
            v1 = st.fundamental_solution(quat, lam * y, lam**2 * t).value
            assert v1 == pytest.approx(lam**-8 * v0, rel=1e-6)

    def test_origin_rejected(self, h1):
        with pytest.raises(st.DimensionError, match="y != 0"):
            st.fundamental_solution(h1, [0.0, 0.0], [1.0])

    def test_refinement_reports_error(self, quat, monkeypatch):
        res = st.fundamental_solution(quat, [1.0, 0, 0, 0], [0.3, 0.1, -0.2])
        monkeypatch.setattr(kernels, "_FS_RADIAL", 2 * kernels._FS_RADIAL)
        res2 = st.fundamental_solution(quat, [1.0, 0, 0, 0], [0.3, 0.1, -0.2])
        assert abs(res.value - res2.value) <= max(res.est_error, 1e-12) * 10

    def test_abel_family_converges_to_limit(self, h1, quat):
        for g, y, t in (
            (h1, [0.8, -0.4], [0.3]),
            (quat, [1.0, 0, 0, 0], [0.2, -0.1, 0.0]),
        ):
            lim = st.fundamental_solution(g, y, t).value
            reg = abel_fundamental_solution(g, y, t, 1 - 1e-6)
            assert abs(lim - reg) / abs(lim) < 1e-4

    def test_tiny_values_do_not_pass_as_converged(self, h1, capsys):
        # at t = 1e300 the closed form is 1e-300, but the passes return
        # subnormal noise near 1e-315, which passed as agreeing while the
        # scale had a floor of 1e-300
        with pytest.raises(st.QuadratureError, match="did not converge"):
            st.fundamental_solution(h1, [1.0, 0.0], [1e300])
        code = run(["fundamental", "--group=preset:heisenberg-1", "--point=1,0,1e300"])
        assert code == 1 and "did not converge" in capsys.readouterr().err
        # two passes of exact zeros (an underflow) still agree
        assert run(["szego", "--k=1", "--y=1e100,0,0,0", "--s=0,0,0"]) == 0
        assert json.loads(capsys.readouterr().out)["matrix_re"] == [[0.0] * 2] * 2
        # a last pass of zero reports an infinite relative delta
        passes = lambda lv: (np.array([0.0 if lv == 3 else lv + 1.0]), 1)
        with pytest.raises(st.QuadratureError, match="relative delta inf .* 3.000e"):
            kernels._refine(passes, 1e-9, "toy")

    def test_r2_groups_converge_and_are_isomorphism_invariant(self):
        # the r = 2 calls of the seeded set of ROADMAP item 3: the circle
        # rule doubles its angles each pass.  B'_a = sum_b Q_ab P B_b P^T
        # for orthogonal P, Q is an isomorphic group, and
        # Gamma_B'(P y, Q t) = Gamma_B(y, t)
        rng = np.random.default_rng(11)
        turns = np.random.default_rng(12)
        for n, r in ((2, 2), (3, 2)):
            for _ in range(6):
                B = rng.standard_normal((r, 2 * n, 2 * n))
                y, t = rng.standard_normal(2 * n), 0.5 * rng.standard_normal(r)
                B = B - np.transpose(B, (0, 2, 1))
                P = ortho_group.rvs(2 * n, random_state=turns)
                Q = ortho_group.rvs(r, random_state=turns)
                turned = np.einsum("ab,kl,blm,jm->akj", Q, P, B, P)
                v = st.fundamental_solution(st.make_group(n, r, B), y, t).value
                w = st.fundamental_solution(
                    st.make_group(n, r, turned), P @ y, Q @ t
                ).value
                assert abs(w - v) <= 1e-9 * abs(v)

    def test_dependent_structure_matrices_rejected(self, capsys, tmp_path):
        # n = 1, r = 2: the skew 2x2 matrices span one dimension, so
        # B_tau = 0 at one unit tau (singular values 4.9 and 2.5e-16)
        group = random_skew_group(np.random.default_rng(3), n=1, r=2)
        with pytest.raises(st.DegenerateTauError, match="linearly dependent") as info:
            st.fundamental_solution(group, [0.7, -0.3], [0.4, 0.1])
        tau = np.array(json.loads(str(info.value).split("unit tau = ")[1]))
        assert abs(np.linalg.norm(tau) - 1.0) < 1e-12
        assert np.abs(group.b_tau(tau)).max() < 1e-14 * np.abs(group.B).max()
        path = tmp_path / "g.json"
        path.write_text(group.to_json())
        code = run(["fundamental", f"--group={path}", "--point=0.7,-0.3,0.4,0.1"])
        assert code == 1
        assert "linearly dependent" in capsys.readouterr().err

    def test_sphere_blocks_move_the_value_by_roundoff_only(self, monkeypatch):
        # a random r = 3 group takes the product rule; a budget of a few
        # sphere nodes cuts each pass into hundreds of blocks, whose sums
        # add in another order
        group = random_skew_group(np.random.default_rng(31), n=2, r=3)
        y, t = [0.6, -0.3, 0.2, 0.5], [0.1, 0.0, -0.2]
        whole = st.fundamental_solution(group, y, t, tol=1e-3)
        few_nodes = 5 * group.n * kernels._FS_RADIAL
        monkeypatch.setattr(st.spectral, "_CHUNK_ELEMENTS", few_nodes)
        blocked = st.fundamental_solution(group, y, t, tol=1e-3)
        assert abs(blocked.value - whole.value) <= 1e-14 * abs(whole.value)
        assert blocked.nodes_used == whole.nodes_used

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads the Linux VmHWM"
    )
    def test_product_rule_memory_is_one_block_of_sphere_nodes(self):
        # the last of four passes takes 4608 sphere nodes x 960 radial
        # nodes: whole nodes x radial tables of the radial rule and the
        # integrand grew the child's VmHWM by about 150 MB, blocks of nodes
        # by about 20 MB.  A tol no pass pair meets runs all four passes.
        script = """
import numpy as np
import steptwo as st

def peak():
    with open("/proc/self/status") as fh:
        return [int(l.split()[1]) for l in fh if l.startswith("VmHWM")][0] / 1024

B = np.random.default_rng(11).standard_normal((3, 4, 4))
group = st.make_group(2, 3, B - np.transpose(B, (0, 2, 1)))
before = peak()
try:
    st.fundamental_solution(group, [0.6, -0.3, 0.2, 0.5], [0.1, 0.0, -0.2], tol=1e-300)
except st.QuadratureError:
    pass
print(peak() - before)
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 60.0, proc.stdout


class TestHTypeFundamentalSolution:
    def test_scale_detection(self, quat, rng):
        assert kernels._htype_scale(quat) == pytest.approx(1.0, rel=1e-15)
        scaled = st.make_group(2, 3, 1.7 * quat.B)
        assert kernels._htype_scale(scaled) == pytest.approx(1.7, rel=1e-15)
        assert kernels._htype_scale(st.heisenberg(2)) == pytest.approx(1.0, rel=1e-15)
        assert kernels._htype_scale(random_skew_group(rng, n=2, r=3)) is None

    def test_matches_kaplan_near_axis(self, quat, rng):
        for ratio in (0.2, 0.05, 0.01):
            y, t = gauge_point(rng, ratio)
            got = st.fundamental_solution(quat, y, t).value
            want = kaplan_fundamental(quat, y, t)
            assert abs(got - want) <= 1e-10 * want

    def test_matches_kaplan_at_and_next_to_zero_central(self, quat):
        y = np.array([0.3, -0.2, 0.5, 0.1])
        for t in (
            [0.0, 0.0, 0.0],
            [1e-200, 0.0, 0.0],
            [0.0, -6e-201, 8e-201],
            [0.0, 1e-320, 0.0],  # subnormal
        ):
            got = st.fundamental_solution(quat, y, t).value
            want = kaplan_fundamental(quat, y, t)
            assert abs(got - want) <= 1e-12 * want

    def test_equals_product_rule_oracle(self, quat):
        rng = np.random.default_rng(1313)
        for _ in range(20):
            y, t = gauge_point(rng, rng.uniform(0.5, 4.0))
            lam = rng.uniform(0.5, 2.0)
            y, t = lam * y, lam**2 * t
            got = st.fundamental_solution(quat, y, t).value
            want = abel_fundamental_solution(quat, y, t, R=1.0)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_scaling_identity(self, quat, rng):
        c = 1.7
        scaled = st.make_group(2, 3, c * quat.B)
        for ratio in (2.0, 0.3):
            y, t = gauge_point(rng, ratio)
            got = st.fundamental_solution(scaled, y, t).value
            want = c**-3 * st.fundamental_solution(quat, y, t / c).value
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_only_non_htype_groups_take_the_product_rule(self, quat, monkeypatch):
        rng = np.random.default_rng(2718)
        E = rng.standard_normal(quat.B.shape)
        perturbed = st.make_group(
            2, 3, quat.B + 1e-3 * (E - np.transpose(E, (0, 2, 1)))
        )
        calls, rule = [], kernels.sphere_rule

        def counted(r, level):
            calls.append(level)
            return rule(r, level)

        monkeypatch.setattr(kernels, "sphere_rule", counted)
        y, t = [0.6, -0.3, 0.2, 0.5], [0.1, 0.0, -0.2]
        monkeypatch.setattr(kernels, "_REFINEMENTS", 1)
        for group, passes in ((quat, []), (perturbed, [24, 32])):
            calls.clear()
            st.fundamental_solution(group, y, t)
            assert calls == passes


class TestLaguerreLink:
    """The paper's link between its two halves: the Laguerre series of the
    inverse sub-Laplacian is the fundamental-solution integrand on the ray
    of its frequency, and the Fourier step from that ray to the point
    gives the power p = n + r - 1 and the factor Gamma(p)."""

    def test_series_of_the_inverse_is_the_kernel_on_each_ray(self):
        # cut at heat time s0 the series converges geometrically: its tail
        # is about e^(-s0 mu_min (2K+1)) = e^(-36).  Both sides carry the
        # factor e^(-s0 sum mu), which underflows where sum mu / mu_min is
        # large; such a draw would need a larger K than the K^n x K^n
        # identity tensor affords, so it is skipped, and at most a fifth
        # may be (no draw of this seed is).
        rng = np.random.default_rng(9)
        cases = [
            (st.heisenberg(1), 40),
            (st.heisenberg(2), 30),
            (st.quaternionic_heisenberg(), 30),
        ]
        for (n, r), K in (((2, 2), 30), ((2, 3), 30), ((2, 4), 30), ((3, 2), 10)):
            cases += [(random_skew_group(rng, n, r), K) for _ in range(3)]
        skipped = []
        for group, K in cases:
            lam = rng.standard_normal(group.r)
            fr = st.normalize(group, lam)
            # y in units of the frame's length 1/sqrt(mu_1): farther out the
            # series' terms grow and cancel, and roundoff in the sum, not
            # the identity, sets the difference
            ys = rng.standard_normal((3, group.m)) / np.sqrt(fr.mu[0])
            s0 = 36.0 / (fr.mu.min() * (2 * K + 1))
            if s0 * fr.mu.sum() > 600.0:
                skipped.append((group.n, group.r, fr.mu.tolist()))
                continue
            sigma = st.sublap_symbol(fr, K)
            inverse = st.apply_diagonal_symbol(
                st.identity_tensor(fr, K), np.exp(-s0 * sigma) / sigma
            )
            series = st.synthesize(inverse, ys)
            kernel = np.array([heat_tail_on_ray(group, lam, y, s0) for y in ys])
            assert np.all(np.abs(series - kernel) <= 1e-12 * np.abs(kernel)), (
                group.n, group.r, series, kernel,
            )
        assert len(skipped) <= len(cases) // 5, skipped

    def test_fourier_transform_of_the_power(self):
        # int e^(i omega u) (Q + iu)^(-p) du = 2 pi omega^(p-1) e^(-Q omega)
        # / Gamma(p) for omega > 0, Re Q > 0: the pole at u = iQ.  Numerically
        # on [0, inf) against cos and sin (QUADPACK's QAWF), for the powers
        # of H1, H2, the quaternionic group and random (n, r) in {(2, 2),
        # (2, 3), (2, 4), (3, 2)}
        rng = np.random.default_rng(17)
        shapes = ((1, 1), (2, 1), (2, 3), (2, 2), (2, 4), (3, 2))
        for p in sorted({n + r - 1 for n, r in shapes}):
            for _ in range(3):
                omega = rng.uniform(0.3, 3.0)
                Q = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))

                def power(u):
                    return (Q + 1j * u) ** -p

                got = 0j
                for weight, phase, sym in (("cos", 1, 1), ("sin", 1j, -1)):
                    for part, unit in ((np.real, 1), (np.imag, 1j)):
                        value, _ = integrate.quad(
                            lambda u: part(power(u) + sym * power(-u)),
                            0.0, np.inf, weight=weight, wvar=omega,
                            epsabs=1e-12, limlst=200, limit=200,
                        )
                        got += phase * unit * value
                want = 2.0 * np.pi * omega ** (p - 1) / math.gamma(p)
                want *= np.exp(-Q * omega)
                assert abs(got - want) <= 1e-11 * abs(want), (p, omega, Q)


def test_sublaplacian_frame_independence(quat, rng):
    # the quadratic form built from the coordinate fields equals the one
    # built from the frame fields, as differential operators
    fr = st.normalize(quat, [0.3, -0.5, 0.8])
    h = 1e-3

    def probe(y, t):
        return y[0] ** 2 * t[1] + y[1] * y[2] - 0.3 * y[3] ** 2 + t[0] * y[0]

    def second_order_sum(directions, y0, t0):
        def y_deriv(direction, yy, tt, g):
            d = np.zeros(quat.dim)
            d[: quat.m] = direction
            d[quat.m :] = 2.0 * quat.b_form(yy, direction)
            return (
                g(yy + h * d[: quat.m], tt + h * d[quat.m :])
                - g(yy - h * d[: quat.m], tt - h * d[quat.m :])
            ) / (2 * h)

        total = 0.0
        for direction in directions:
            inner = lambda a, b, d=direction: y_deriv(d, a, b, probe)
            total += y_deriv(direction, y0, t0, inner)
        return -0.25 * total

    for _ in range(5):
        y0 = rng.standard_normal(4)
        t0 = rng.standard_normal(3)
        coord = second_order_sum(np.eye(4), y0, t0)
        frame = second_order_sum(fr.O.T, y0, t0)
        assert coord == pytest.approx(frame, abs=1e-6)


class TestHarmonicity:
    def test_stencil_is_live(self, h1, quat):
        calls = []

        def probe(y, t):
            calls.append(1)
            return complex(y @ y)

        val = _sublaplacian_by_differences(
            h1, probe, np.array([1.0, 0.0]), np.array([0.5]), 1e-2
        )
        assert val == pytest.approx(-1.0, abs=1e-8)
        # one second difference per field Y_k around one shared centre value
        assert len(calls) == 2 * h1.m + 1
        calls.clear()
        val = _sublaplacian_by_differences(
            quat, probe, np.array([1.0, 0, 0, 0]), np.zeros(3), 1e-2
        )
        assert val == pytest.approx(-2.0, abs=1e-8)
        assert len(calls) == 2 * quat.m + 1

    def test_heisenberg_kernel_annihilated(self, h1):
        res, _ = st.horizontal_laplacian_residual(
            h1, [h1.point([1.0, 0.0], [0.5])], h=1e-2, tol=1e-10
        )
        assert res <= 1e-3

    def test_quaternionic_kernel_annihilated(self, quat):
        res, _ = st.horizontal_laplacian_residual(
            quat, [quat.point([1.0, 0, 0, 0], [0.1, 0, 0])], h=1e-3, tol=1e-10
        )
        assert res <= 1e-2

    def test_too_close_to_origin_rejected(self, h1):
        with pytest.raises(st.DimensionError, match="singular"):
            st.horizontal_laplacian_residual(
                h1, [h1.point([0.05, 0.0], [0.5])], h=1e-2
            )

    def test_empty_probe_list_rejected(self, h1):
        with pytest.raises(st.DimensionError, match="probe list is empty"):
            st.horizontal_laplacian_residual(h1, [])


_H1 = st.heisenberg(1)
_PROBE = [_H1.point([1.0, 0.0], [0.5])]

_BAD_NUMBERS = {
    "integrand-y-nan": (
        lambda: st.fs_integrand(_H1, [1.0], [np.nan, 0.0], [0.0]), "point coordinates"),
    "integrand-y-length": (
        lambda: st.fs_integrand(_H1, [1.0], [1.0, 0.0, 0.0], [0.0]), "horizontal length"),
    "integrand-t-length": (
        lambda: st.fs_integrand(_H1, [1.0], [1.0, 0.0], [0.0, 1.0]), "central length"),
    "integrand-tau-length": (
        lambda: st.fs_integrand(_H1, [0.0, 0.0], [1.0, 0.0], [0.0]), "tau must"),
    "residual-h-zero": (
        lambda: st.horizontal_laplacian_residual(_H1, _PROBE, h=0), "step h"),
    "residual-h-text": (
        lambda: st.horizontal_laplacian_residual(_H1, _PROBE, h="a"), "step h"),
    **{
        f"fundamental-tol-{tol}": (
            lambda tol=tol: st.fundamental_solution(_H1, [1.0, 0.0], [0.5], tol=tol),
            "tol must",
        )
        for tol in (np.nan, 0.0, -1.0, "a")
    },
}


@pytest.mark.parametrize(
    "call, names", list(_BAD_NUMBERS.values()), ids=list(_BAD_NUMBERS)
)
def test_bad_numbers_name_the_argument(call, names):
    with pytest.raises(st.DimensionError, match=names):
        call()


class TestSzego:
    def test_constant_identity(self):
        assert SZEGO_CONSTANT == 16 * math.gamma(5) / (2 * np.pi) ** 5

    def test_level_one_data(self):
        d = st.szego_data(1, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(d.e1, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(d.P, np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_array_equal(d.M, np.eye(2))

    def test_weight_matrix_pattern(self):
        d = st.szego_data(4, [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(np.diag(d.M), [1, 2, 2, 2, 1])

    def test_projection_and_null_vector(self, rng):
        for k in range(1, 5):
            for _ in range(25):
                tau = 2.0 * rng.standard_normal(3)
                d = st.szego_data(k, tau)
                assert abs(np.trace(d.P) - 1.0) < 1e-12
                assert np.abs(d.P @ d.P - d.P).max() < 1e-12
                mat = d.psd_matrix()
                assert np.abs(mat - mat.conj().T).max() < 1e-12
                assert np.abs(mat @ d.e1).max() < 1e-12
                ev = np.linalg.eigvalsh(mat)
                assert abs(ev[0]) < 1e-12 * ev[-1]
                assert ev[1] > 1e-6 * np.linalg.norm(tau)

    def test_pole_branch(self):
        d = st.szego_data(3, [-2.0, 0.0, 0.0])
        np.testing.assert_array_equal(d.e1, [0, 0, 0, 1])
        assert np.abs(d.psd_matrix() @ d.e1).max() < 1e-14

    def test_validation(self):
        with pytest.raises(st.DimensionError):
            st.szego_data(0, [1.0, 0.0, 0.0])
        with pytest.raises(st.DimensionError):
            st.szego_data(1, [0.0, 0.0, 0.0])
        with pytest.raises(st.DimensionError, match="tau"):
            st.szego_data(1, [np.nan, 0.0, 0.0])
        with pytest.raises(st.DimensionError, match="y != 0"):
            st.szego_kernel(1, [0.0, 0, 0, 0], [1.0, 0, 0])
        for k in (0, -2, 1.5, 2.0, 512, 600):
            with pytest.raises(st.DimensionError, match="level k"):
                st.szego_kernel(k, [1.0, 0, 0, 0], [0.0, 0, 0])
        with pytest.raises(st.DimensionError, match="level k"):
            st.szego_data(1.5, [1.0, 0.0, 0.0])
        numpy_level = st.szego_kernel(np.int64(1), [1.0, 0, 0, 0], [0.0, 0, 0])
        np.testing.assert_array_equal(
            numpy_level.value, st.szego_kernel(1, [1.0, 0, 0, 0], [0.0, 0, 0]).value
        )
        for y, s in (([np.nan, 0, 0, 0], [0.0, 0, 0]), ([1.0, 0, 0, 0], [0, np.inf, 0])):
            with pytest.raises(st.DimensionError, match="finite"):
                st.szego_kernel(1, y, s)
        with pytest.raises(st.DimensionError, match="horizontal length 4"):
            st.szego_kernel(1, [1.0, 0, 0], [0.0, 0, 0])

    def test_kernel_value_at_zero_central(self):
        for y in ([1.0, 0, 0, 0], [0.3, 0.5, -0.7, 0.2]):
            res = st.szego_kernel(1, y, [0, 0, 0])
            exact = 24.0 / np.pi**4 / float(np.dot(y, y)) ** 5
            assert np.abs(res.value - exact * np.eye(2)).max() < 1e-8 * exact

    def test_kernel_hermitian_at_zero_central(self):
        res = st.szego_kernel(2, [0.6, -0.2, 0.1, 0.4], [0, 0, 0])
        assert np.abs(res.value - res.value.conj().T).max() < 1e-14

    def test_kernel_homogeneity(self):
        lam = 1.7
        y = np.array([0.5, 0.2, -0.3, 0.1])
        s = np.array([0.2, -0.1, 0.3])
        v0 = st.szego_kernel(1, y, s).value
        v1 = st.szego_kernel(1, lam * y, lam**2 * s).value
        np.testing.assert_allclose(v1, lam**-10 * v0, atol=1e-12)

    def test_pass_matches_loop_oracle(self, rng):
        for k in (1, 2, 4, 12, 20):
            y, s = rng.standard_normal(4), 0.5 * rng.standard_normal(3)
            for level in (20, 56, 80):
                got, nodes = kernels._szego_pass(k, y, s, level)
                want, want_nodes = szego_pass_loop(k, y, s, level)
                assert nodes == want_nodes
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_null_vector_near_pole(self):
        for k in (150, 511):
            for gap in (4e-4, 1e-8):
                x = gap - 1.0
                side = np.sqrt(1.0 - x * x)
                d = st.szego_data(k, [x, 0.6 * side, -0.8 * side])
                assert np.isfinite(d.e1).all()
                assert abs(np.linalg.norm(d.e1) - 1.0) < 1e-12
                mat = d.psd_matrix()
                lam_max = np.abs(np.linalg.eigvalsh(mat)).max()
                assert np.abs(mat @ d.e1).max() <= 1e-12 * lam_max

    def test_failure_reports_finite_delta(self):
        # near the central axis, |y|^2/|s| = 0.09 < 0.30 (ROADMAP item 5)
        with pytest.raises(st.QuadratureError, match="last delta") as info:
            st.szego_kernel(1, [0.3, 0, 0, 0], [1.0, 0, 0])
        assert np.isfinite(float(str(info.value).rsplit(" ", 1)[-1]))

    def test_failure_reports_relative_delta_and_tol(self):
        y, s = np.array([0.3, 0, 0, 0]), np.array([1.0, 0, 0])
        with pytest.raises(st.QuadratureError, match="did not converge") as info:
            st.szego_kernel(1, y, s)
        found = re.search(
            r"relative delta (\S+) against tol (\S+), last delta (\S+)$",
            str(info.value),
        )
        rel, tol, delta = map(float, found.groups())
        assert tol == kernels._SZEGO_TOL and rel > tol and np.isfinite(delta)
        # relative to the largest entry of the last pass
        level = kernels._szego_level(1, kernels._REFINEMENTS)
        last = np.abs(kernels._szego_pass(1, y, s, level)[0]).max()
        assert rel == pytest.approx(delta / last, rel=2e-3)

    def test_levels_past_58_are_served(self, capsys):
        # k = 59 was the first level a work budget refused
        y = [1.0, 0.2, 0.0, 0.3]
        res = st.szego_kernel(59, y, [0.0, 0, 0])
        want = szego_at_zero_central(59, y)
        assert np.abs(res.value - want).max() <= 1e-12 * np.abs(want).max()
        level = kernels._szego_level(59, 1)  # two passes
        assert res.nodes_used == (3 * level // 2) * (3 * level)
        assert run(["szego", "--k=59", "--y=1,0,0,0", "--s=0.1,0,0"]) == 0
        assert json.loads(capsys.readouterr().out)["k"] == 59

    def test_value_on_the_axis_matches_the_mpmath_oracle(self):
        # s = (s0, 0, 0) at |y|^2/|s| = 2 and 0.6, against 1-D integrals
        y = np.array([0.3, 0.5, -0.7, 0.2])
        for k in (1, 4, 20):
            for ratio, sign in ((2.0, 1.0), (0.6, -1.0)):
                s0 = sign * float(y @ y) / ratio
                want = szego_on_axis(k, y, s0)
                got = st.szego_kernel(k, y, [s0, 0.0, 0.0]).value
                assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    def test_converges_near_the_edge(self, rng):
        # |y|^2/|s| in [0.32, 0.45], random directions: each call converges
        # and agrees with a pass at level 200 (the polar nodes must resolve
        # both the power's singularity and the null vector's norm)
        for _ in range(8):
            k, ratio = int(rng.integers(1, 5)), rng.uniform(0.32, 0.45)
            y, s = rng.standard_normal(4), rng.standard_normal(3)
            y *= np.sqrt(ratio) / np.linalg.norm(y)
            s /= np.linalg.norm(s)
            got = st.szego_kernel(k, y, s).value
            want = kernels._szego_pass(k, y, s, 200)[0]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_value_outside_the_float_range_is_its_own_error(self, capsys):
        # |y|^2 underflows to 0, so the power overflows at every node; the
        # message must not read as non-convergence ("last delta nan")
        with pytest.raises(st.QuadratureError, match="outside the float range"):
            st.szego_kernel(1, [1e-200, 0, 0, 0], [0.0, 0, 0])
        with pytest.raises(st.QuadratureError, match="outside the float range"):
            st.fundamental_solution(st.heisenberg(1), [1e-200, 0.0], [0.0])
        for argv in (
            ["szego", "--k=1", "--y=1e-200,0,0,0", "--s=0,0,0"],
            ["fundamental", "--group=preset:heisenberg-1", "--point=1e-200,0,0"],
        ):
            assert run(argv) == 1
            err = capsys.readouterr().err
            assert "outside the float range" in err and "nan" not in err

    def test_value_at_zero_central_every_level(self):
        for k in (1, 2, 3, 4, 8, 12, 13, 14, 16, 32):
            for y in ([1.0, 0.2, 0.0, 0.3], [0.3, 0.5, -0.7, 0.2]):
                want = szego_at_zero_central(k, y)
                got = st.szego_kernel(k, y, [0.0, 0, 0]).value
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_block_size_does_not_matter(self, monkeypatch):
        y, s = [0.5, 0.2, -0.3, 0.1], [0.05, -0.1, 0.08]
        monkeypatch.setattr(kernels, "_REFINEMENTS", 1)
        whole = st.szego_kernel(4, y, s)
        # a few polar nodes per block, and one when a node alone costs more
        for elements in (3 * (25 + 60), 1):
            monkeypatch.setattr(st.spectral, "_CHUNK_ELEMENTS", elements)
            chunked = st.szego_kernel(4, y, s)
            assert chunked.nodes_used == whole.nodes_used
            assert np.abs(chunked.value - whole.value).max() <= 1e-14 * np.abs(whole.value).max()

    def test_first_level_follows_k(self, monkeypatch):
        levels, one_pass = [], kernels._szego_pass

        def counted(k, y, s, level):
            levels.append(level)
            return one_pass(k, y, s, level)

        monkeypatch.setattr(kernels, "_szego_pass", counted)
        for k, first in ((1, 20), (5, 20), (6, 24), (9, 36)):
            levels.clear()
            st.szego_kernel(k, [1.0, 0.2, 0.0, 0.3], [0.0, 0, 0])
            assert levels == [first + 12 * i for i in range(len(levels))]
