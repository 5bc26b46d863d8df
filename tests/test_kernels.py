import math

import numpy as np
import pytest

import steptwo as st
from steptwo.kernels import SZEGO_CONSTANT
from conftest import (
    abel_fundamental_solution,
    dense_fs_integrand,
    random_skew_group,
)


class TestSubLaplacianSymbol:
    def test_heisenberg_ground_value(self, h1):
        fr = st.normalize(h1, [1.0])
        sym = st.sublap_symbol(fr, 3)
        assert sym.eigenvalue((0,)) == pytest.approx(1.0)
        assert sym.eigenvalue((2,)) == pytest.approx(5.0)

    def test_quaternionic_value(self, quat):
        fr = st.normalize(quat, [1.0, 0.0, 0.0])
        sym = st.sublap_symbol(fr, 3)
        assert sym.eigenvalue((1, 2)) == pytest.approx(8.0)

    def test_inverse(self, quat):
        fr = st.normalize(quat, [0.3, 0.4, -0.2])
        sym = st.sublap_symbol(fr, 4)
        inv = st.sublap_inverse_symbol(sym)
        np.testing.assert_allclose(sym.diag * inv.diag, 1.0, atol=1e-14)
        with pytest.raises(st.DimensionError):
            sym.eigenvalue((5, 0))

    def test_matches_shift_composition(self, quat):
        fr = st.normalize(quat, [0.4, -0.3, 0.6])
        sym = st.sublap_symbol(fr, 3)
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
            assert -0.5 * total == pytest.approx(sym.eigenvalue(k), rel=1e-12)


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

    def test_refinement_reports_error(self, quat):
        res = st.fundamental_solution(quat, [1.0, 0, 0, 0], [0.3, 0.1, -0.2])
        res2 = st.fundamental_solution(
            quat, [1.0, 0, 0, 0], [0.3, 0.1, -0.2], radial=2 * 120
        )
        assert abs(res.value - res2.value) <= max(res.est_error, 1e-12) * 10

    def test_abel_family_converges_to_limit(self, h1, quat):
        for g, y, t in (
            (h1, [0.8, -0.4], [0.3]),
            (quat, [1.0, 0, 0, 0], [0.2, -0.1, 0.0]),
        ):
            lim = st.fundamental_solution(g, y, t).value
            reg = abel_fundamental_solution(g, y, t, 1 - 1e-6)
            assert abs(lim - reg) / abs(lim) < 1e-4


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
        probe = lambda y, t: complex(y @ y)
        _, vals = st.horizontal_laplacian_residual(
            h1, [h1.point([1.0, 0.0], [0.5])], h=1e-2, fn=probe
        )
        assert vals[0] == pytest.approx(-1.0, abs=1e-8)
        _, vals = st.horizontal_laplacian_residual(
            quat, [quat.point([1.0, 0, 0, 0], [0, 0, 0])], h=1e-2, fn=probe
        )
        assert vals[0] == pytest.approx(-2.0, abs=1e-8)

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
        with pytest.raises(st.DimensionError, match="max_refine"):
            st.szego_kernel(1, [1.0, 0, 0, 0], [0.0, 0, 0], max_refine=0)
        for y, s in (([np.nan, 0, 0, 0], [0.0, 0, 0]), ([1.0, 0, 0, 0], [0, np.inf, 0])):
            with pytest.raises(st.DimensionError, match="finite"):
                st.szego_kernel(1, y, s)

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
