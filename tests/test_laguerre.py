from itertools import product

import numpy as np
import pytest
from scipy import integrate
from scipy.special import eval_genlaguerre

import steptwo as st
from steptwo.laguerre import _phase_powers
from steptwo.tensors import _offset
from conftest import exp_laguerre_scipy, laguerre_series_oracle, sublap_eigenvalue


class TestPolynomials:
    def test_degree_zero_is_one(self):
        for p in (0, 1, 5):
            for sigma in (0.0, 0.3, 7.0):
                assert st.laguerre_poly(0, p, sigma) == 1.0

    def test_frozen_values(self):
        # computed once with the generating-function series oracle
        assert st.laguerre_poly(1, 0, 2.0) == pytest.approx(-1.0, abs=1e-14)
        assert st.laguerre_poly(3, 2, 0.7) == pytest.approx(
            4.167833333333333, abs=1e-12
        )

    @pytest.mark.parametrize("p", [0, 1, 3, 6])
    @pytest.mark.parametrize("sigma", [0.1, 1.0, 5.0])
    def test_recurrence_matches_generating_function(self, p, sigma):
        oracle = laguerre_series_oracle(12, p, sigma)
        values = np.array([st.laguerre_poly(k, p, sigma) for k in range(13)])
        np.testing.assert_allclose(values, oracle, rtol=1e-10, atol=1e-12)

    def test_matches_scipy(self, rng):
        for _ in range(20):
            k = int(rng.integers(0, 15))
            p = int(rng.integers(0, 8))
            sigma = float(rng.uniform(0, 12))
            assert st.laguerre_poly(k, p, sigma) == pytest.approx(
                eval_genlaguerre(k, p, sigma), rel=1e-10, abs=1e-12
            )

    def test_derivative_identity(self):
        # d/dsigma L_k^(p) = -L_{k-1}^(p+1), by central differences
        h = 1e-6
        for k in (1, 3, 6):
            for p in (0, 2):
                for sigma in (0.4, 2.0):
                    fd = (
                        st.laguerre_poly(k, p, sigma + h)
                        - st.laguerre_poly(k, p, sigma - h)
                    ) / (2 * h)
                    assert fd == pytest.approx(
                        -st.laguerre_poly(k - 1, p + 1, sigma), rel=1e-7, abs=1e-7
                    )

    def test_rejects_negative_indices(self):
        with pytest.raises(st.DimensionError):
            st.laguerre_poly(-1, 0, 1.0)
        with pytest.raises(st.DimensionError):
            st.laguerre_l(0, -2, 1.0)
        # a non-finite argument is bad input too, not a NaN result
        for fn in (st.laguerre_poly, st.laguerre_l):
            for sigma in (np.nan, np.inf, -np.inf, [0.5, np.nan]):
                with pytest.raises(st.DimensionError, match="sigma"):
                    fn(2, 1, sigma)

    def test_overflow_is_an_error_not_nan(self, h1):
        # L_3^(2) near sigma = 1e200 overflows past the float range; the
        # error names the indices and the first sigma it failed at
        for fn in (st.laguerre_poly, st.laguerre_l):
            with pytest.raises(st.DimensionError, match="k=3, p=2, sigma=1e\\+200"):
                fn(3, 2, [1.0, 1e200])
        fr = st.normalize(h1, [1.0])
        with pytest.raises(st.DimensionError, match="overflows"):
            st.exp_laguerre(fr, st.raw_index((3,), (2,)), [[1e100, 0.0]])


class TestNormalizedFunctions:
    def test_ground_state(self):
        sigma = np.linspace(0.0, 10.0, 11)
        np.testing.assert_allclose(
            st.laguerre_l(0, 0, sigma), np.exp(-sigma / 2), atol=1e-14
        )

    def test_orthonormality_by_quadrature(self):
        for p in (0, 2, 4):
            for k in (0, 2, 5):
                for m in (k, k + 1):
                    val, _ = integrate.quad(
                        lambda s: st.laguerre_l(k, p, s) * st.laguerre_l(m, p, s),
                        0,
                        np.inf,
                        limit=200,
                    )
                    assert val == pytest.approx(float(k == m), abs=1e-9)

    def test_large_order_no_overflow(self):
        val = st.laguerre_l(40, 30, 10.0)
        assert np.isfinite(val)
        # naive Gamma-ratio route would overflow float64
        assert abs(val) < 1.0

    def test_origin_limit(self):
        assert st.laguerre_l(3, 0, 0.0) == pytest.approx(1.0)
        assert st.laguerre_l(3, 2, 0.0) == 0.0


class TestPlanarBasis:
    def test_ground_state_gaussian(self, rng):
        pts = rng.standard_normal((50, 2))
        tau = 1.3
        vals = st.exp_laguerre_2d(0, 0, pts, tau)
        expected = (2 * tau / np.pi) * np.exp(-tau * np.sum(pts**2, -1))
        np.testing.assert_allclose(vals, expected, atol=1e-14)

    def test_rotation_equivariance(self, rng):
        alpha = 0.77
        R = np.array(
            [[np.cos(alpha), -np.sin(alpha)], [np.sin(alpha), np.cos(alpha)]]
        )
        pts = rng.standard_normal((30, 2))
        for p in (-2, 0, 3):
            before = st.exp_laguerre_2d(1, p, pts, 0.8)
            after = st.exp_laguerre_2d(1, p, pts @ R.T, 0.8)
            np.testing.assert_allclose(
                after, np.exp(1j * p * alpha) * before, atol=1e-12
            )

    @pytest.mark.parametrize("k,p", [(0, 0), (2, 1), (1, -3), (3, 2)])
    def test_l2_norm(self, k, p):
        tau = 1.3
        xs = np.linspace(-6, 6, 301)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        vals = st.exp_laguerre_2d(k, p, np.stack([X, Y], -1), tau)
        norm_sq = (np.abs(vals) ** 2).sum() * (xs[1] - xs[0]) ** 2
        assert norm_sq == pytest.approx(2 * tau / np.pi, abs=1e-8)

    def test_phases_match_extended_precision(self, rng):
        # powers of (y_0 + i y_1) / |y| against e^(i q theta) in
        # np.clongdouble: the error grows at most linearly in q
        y = np.concatenate([
            rng.standard_normal((20000, 2)),
            1e-5 * rng.standard_normal((2000, 2)),
            [[0.0, 0.0], [-1.0, 0.0], [-1.0, -0.0], [0.0, -2.0], [3e-150, 4e-150]],
        ])
        r2 = y[:, 0] ** 2 + y[:, 1] ** 2
        ext = y.astype(np.longdouble)
        theta = np.arctan2(ext[:, 1], ext[:, 0])
        phases = _phase_powers(y, r2, 10)
        assert len(phases) == 11
        for q, phase in enumerate(phases):
            want = np.exp(1j * q * theta)
            assert np.abs(phase - want).max() <= 4e-16 * q, q

    def test_origin_values(self):
        origin = np.zeros(2)
        assert st.exp_laguerre_2d(2, 1, origin, 1.0) == 0.0
        assert st.exp_laguerre_2d(2, 0, origin, 1.0) == pytest.approx(2.0 / np.pi)

    def test_points_are_checked(self):
        for pts in ([1.0], [[1.0, 0.0, 2.0]], 3.0):
            with pytest.raises(st.DimensionError, match=r"shape \(\.\.\., 2\)"):
                st.exp_laguerre_2d(1, 0, pts, 1.0)
        for pts in ([np.nan, 0.0], [[1.0, 0.0], [np.inf, 1.0]], "ab"):
            with pytest.raises(st.DimensionError, match="points must be finite"):
                st.exp_laguerre_2d(1, 0, pts, 1.0)

    def test_requires_positive_frequency(self):
        for tau in (0.0, -1.0, np.nan, np.inf, -np.inf, "x", True, [1.0, 2.0]):
            with pytest.raises(st.DimensionError, match="tau_mag"):
                st.exp_laguerre_2d(0, 0, np.zeros(2), tau)


class TestMultiIndexPair:
    def test_roundtrip(self):
        # basis_address converts a matrix-unit address to the indices (k, p)
        for p in range(1, 5):
            for k in range(1, 5):
                idx = st.basis_address((p,), (k,))
                assert idx.k == (min(p, k) - 1,) and idx.p == (p - k,)
        idx = st.basis_address((3, 1), (2, 4))
        assert idx.k == (1, 0) and idx.p == (1, -3)

    def test_basis_validation(self):
        with pytest.raises(st.DimensionError):
            st.basis_address((0, 1), (1, 1))
        with pytest.raises(st.DimensionError):
            st.raw_index((-1,), (0,))
        with pytest.raises(st.DimensionError):
            st.MultiIndexPair(p=(1,), k=(1, 2))
        # fractional indices are rejected, not truncated
        with pytest.raises(st.DimensionError, match=r"integers, got \(2\.5,\)"):
            st.basis_address((2.5,), (1,))
        with pytest.raises(st.DimensionError, match=r"integers, got \(1\.5,\)"):
            st.raw_index((1.5,), (0,))


class TestTensorBasis:
    def test_ground_state_product(self, quat, rng):
        fr = st.normalize(quat, [0.3, -0.5, 0.8])
        pts = rng.standard_normal((40, 4))
        vals = st.exp_laguerre(fr, st.raw_index((0, 0), (0, 0)), pts)
        z = fr.complex_tau_coordinates(pts)
        expected = np.prod(
            (2 * fr.mu / np.pi) * np.exp(-fr.mu * np.abs(z) ** 2), axis=-1
        )
        np.testing.assert_allclose(vals, expected, atol=1e-13)

    def test_l2_norm_2d_frame(self, quat):
        fr = st.normalize(quat, [0.4, -0.3, 0.6])
        xs = np.linspace(-5, 5, 41)
        pts = np.stack(np.meshgrid(xs, xs, xs, xs, indexing="ij"), -1)
        vals = st.exp_laguerre(fr, st.raw_index((1, 0), (2, -1)), pts)
        norm_sq = (np.abs(vals) ** 2).sum() * (xs[1] - xs[0]) ** 4
        assert norm_sq == pytest.approx(
            st.exp_laguerre_l2_norm_sq(fr), rel=1e-6
        )

    def test_l1_norm_ground_state(self, h1):
        fr = st.normalize(h1, [0.9])
        xs = np.linspace(-7, 7, 201)
        pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), -1)
        vals = st.exp_laguerre(fr, st.raw_index((0,), (0,)), pts)
        l1 = np.abs(vals).sum() * (xs[1] - xs[0]) ** 2
        # product over slots of the L^1 norm of the ground profile, which is 2
        assert l1 == pytest.approx(2.0, abs=1e-6)

    def test_frame_consistency_under_column_flip(self, h1, rng):
        # flipping the frame orientation changes basis phases pointwise but
        # keeps every frame-internal identity; here: the convolution-free
        # shift-composition eigenvalue
        fr = st.normalize(h1, [1.0])
        flipped = st.TauFrame(
            tau=fr.tau, mu=fr.mu, O=(-fr.O).copy(), min_gap=fr.min_gap
        )
        for frame in (fr, flipped):
            idx = st.raw_index((2,), (0,))
            c1, i1 = st.shift_apply(frame, ("Z", 0), idx)
            c2, i2 = st.shift_apply(frame, ("Zbar", 0), i1)
            assert i2.k == idx.k and i2.p == idx.p
            pts = rng.standard_normal((10, 2))
            np.testing.assert_allclose(
                np.abs(st.exp_laguerre(frame, idx, pts)),
                np.abs(st.exp_laguerre(fr, idx, pts)),
                atol=1e-12,
            )

    @staticmethod
    def raw_indices(n, kmax, pmax):
        """Every raw index with k_j in 0..kmax and |p_j| <= pmax."""
        slots = list(product(range(kmax + 1), range(-pmax, pmax + 1)))
        return [
            st.raw_index(tuple(k for k, _ in c), tuple(p for _, p in c))
            for c in product(slots, repeat=n)
        ]

    def cases(self, h1, quat, rng):
        return (
            (st.normalize(h1, [0.9]), self.raw_indices(1, 4, 4),
             1.5 * rng.standard_normal((300, 2))),
            (st.normalize(quat, [0.3, -0.5, 0.8]), self.raw_indices(2, 2, 2),
             1.5 * rng.standard_normal((200, 4))),
        )

    def test_list_form_equals_single_calls(self, h1, quat, rng):
        for fr, indices, pts in self.cases(h1, quat, rng):
            got = st.exp_laguerre(fr, indices, pts)
            want = np.stack([st.exp_laguerre(fr, idx, pts) for idx in indices])
            assert got.shape == (len(indices), len(pts))
            assert got.tobytes() == want.tobytes()
            # a single point keeps only the address axis
            one = st.exp_laguerre(fr, indices, pts[0])
            want = np.stack([st.exp_laguerre(fr, idx, pts[0]) for idx in indices])
            assert one.tobytes() == want.tobytes()
        with pytest.raises(st.DimensionError, match="MultiIndexPair"):
            st.exp_laguerre(fr, [indices[0], (1, 1)], pts)
        with pytest.raises(st.DimensionError, match="slots"):
            st.exp_laguerre(fr, [indices[0], st.raw_index((0,), (0,))], pts)

    def test_list_form_matches_scipy(self, h1, quat, rng):
        for fr, indices, pts in self.cases(h1, quat, rng):
            got = st.exp_laguerre(fr, indices, pts)
            want = np.stack([exp_laguerre_scipy(fr, idx, pts) for idx in indices])
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_points_are_checked(self, quat):
        fr = st.normalize(quat, [0.3, -0.5, 0.8])
        idx = st.raw_index((0, 0), (0, 0))
        bad_nan = np.zeros((5, 4))
        bad_nan[2, 1] = np.nan
        for pts in (np.zeros((5, 3)), bad_nan, np.full((2, 4), np.inf), 1.0):
            with pytest.raises(st.DimensionError, match="points must be finite"):
                st.exp_laguerre(fr, idx, pts)


class TestShiftOperators:
    def test_annihilation(self, h1):
        fr = st.normalize(h1, [1.0])
        assert st.shift_apply(fr, ("Zbar", 0), st.raw_index((0,), (0,))) is None

    def test_lowering_from_vacuum(self, h1):
        fr = st.normalize(h1, [1.5])
        coeff, idx = st.shift_apply(fr, ("Z", 0), st.raw_index((0,), (0,)))
        assert coeff == pytest.approx(np.sqrt(2 * 1.5))
        assert idx.k == (0,) and idx.p == (-1,)

    def test_malformed(self, h1):
        fr = st.normalize(h1, [1.0])
        with pytest.raises(st.DimensionError):
            st.shift_apply(fr, ("Z", 1), st.raw_index((0,), (0,)))
        with pytest.raises(st.DimensionError):
            st.shift_apply(fr, ("Q", 0), st.raw_index((0,), (0,)))

    def test_finite_difference_oracle(self, quat, rng):
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

        for _ in range(10):
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
                assert np.abs(num).max() < 1e-8
                continue
            coeff, nidx = res
            target = coeff * st.exp_laguerre(fr, nidx, pts)
            mask = np.abs(target) > 1e-6
            assert (np.abs(num - target)[mask] / np.abs(target)[mask]).max() < 1e-5

    def test_sublaplacian_composition(self, quat):
        # -1/2 (Z Zbar + Zbar Z) on a radial element returns it scaled by
        # mu_j (2 k_j + 1)
        fr = st.normalize(quat, [0.4, -0.3, 0.6])
        idx = st.raw_index((2, 1), (0, 0))
        for j in range(2):
            total = 0.0
            for first, second in (("Z", "Zbar"), ("Zbar", "Z")):
                r1 = st.shift_apply(fr, (first, j), idx)
                if r1 is None:
                    continue
                c1, i1 = r1
                c2, i2 = st.shift_apply(fr, (second, j), i1)
                assert i2.k == idx.k and i2.p == idx.p
                total += c1 * c2
            assert -0.5 * total == pytest.approx(fr.mu[j] * (2 * idx.k[j] + 1))
        assert sublap_eigenvalue(fr, idx) == pytest.approx(
            fr.mu[0] * 5 + fr.mu[1] * 3
        )
        # the symbol of every basis element depends on its column address only
        K = 3
        symbol = st.sublap_symbol(fr, K)
        for p, k in product(product(range(1, K + 1), repeat=2), repeat=2):
            assert symbol[_offset(k, K)] == pytest.approx(
                sublap_eigenvalue(fr, st.basis_address(p, k))
            )
