import numpy as np
import pytest

import steptwo as st
from steptwo.fields import SampledField, lattice_points, symmetric_axis
from steptwo.tensors import _basis_stack
from conftest import basis_stack_direct, random_skew_group


@pytest.fixture(scope="module")
def frame():
    return st.normalize(st.heisenberg(1), [1.0])


@pytest.fixture(scope="module")
def grid96():
    ax = symmetric_axis(6.0, 96)
    return (ax, ax)


def offset_gaussians(rng, axes, terms=2):
    c = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
    o = 0.4 * rng.standard_normal((terms, 2))
    a = 0.8 + 0.6 * rng.random(terms)
    return SampledField.from_function(
        axes,
        lambda p: sum(
            c[i] * np.exp(-a[i] * np.sum((p - o[i]) ** 2, -1)) for i in range(terms)
        ),
    )


class TestStructure:
    def test_identity_is_unit(self, frame):
        ident = st.identity_tensor(frame, 4)
        t = st.indicator_tensor(frame, 4, (2,), (3,))
        left = st.tensor_multiply(ident, t)
        right = st.tensor_multiply(t, ident)
        np.testing.assert_array_equal(left.entries, t.entries)
        np.testing.assert_array_equal(right.entries, t.entries)

    def test_indicator_product_rule(self, frame):
        # matrix units compose with the Kronecker delta over the middle slot
        for q in (1, 3):
            a = st.indicator_tensor(frame, 4, (2,), (3,))
            b = st.indicator_tensor(frame, 4, (q,), (1,))
            prod = st.tensor_multiply(a, b)
            if q == 3:
                assert prod.coefficient((2,), (1,)) == 1.0
                assert np.abs(prod.entries).sum() == 1.0
            else:
                assert np.abs(prod.entries).max() == 0.0

    def test_mismatched_operands(self, frame):
        other = st.normalize(st.heisenberg(1), [2.0])
        with pytest.raises(st.DimensionError, match="same frame"):
            st.tensor_multiply(
                st.identity_tensor(frame, 4), st.identity_tensor(other, 4)
            )
        with pytest.raises(st.DimensionError, match="truncation"):
            st.tensor_multiply(
                st.identity_tensor(frame, 4), st.identity_tensor(frame, 5)
            )

    def test_address_validation(self, frame):
        t = st.identity_tensor(frame, 4)
        with pytest.raises(st.DimensionError):
            t.coefficient((0,), (1,))
        with pytest.raises(st.DimensionError):
            t.coefficient((5,), (1,))

    def test_entries_must_be_finite(self, frame):
        bad = np.full((4, 4), np.inf, dtype=complex)
        with pytest.raises(st.DimensionError, match="finite"):
            st.LaguerreTensor(frame=frame, K=4, entries=bad)

    def test_truncation_must_be_a_positive_integer(self, frame, grid96):
        f = SampledField.from_function(grid96, lambda p: np.exp(-np.sum(p**2, -1)))
        calls = (
            lambda K: st.laguerre_coefficients(f, frame, K),
            lambda K: st.sublap_symbol(frame, K),
            lambda K: st.identity_tensor(frame, K),
            lambda K: st.indicator_tensor(frame, K, (1,), (1,)),
            lambda K: st.LaguerreTensor(frame=frame, K=K, entries=np.eye(1)),
        )
        for K in (0, -1, 2.5, True, "3"):
            for call in calls:
                with pytest.raises(st.DimensionError, match="truncation K"):
                    call(K)


class TestBasisStack:
    def _lattice(self, n, count):
        return lattice_points([symmetric_axis(6.0, count).points()] * (2 * n))

    def test_heisenberg_stack_is_the_direct_stack(self, frame):
        pts = self._lattice(1, 64)
        for K in (3, 6):
            assert np.array_equal(
                _basis_stack(frame, K, pts), basis_stack_direct(frame, K, pts)
            )

    def test_product_over_slots(self, quat, rng):
        # slot factors multiply in a different order than in exp_laguerre,
        # so agreement is to rounding
        quat_frame = st.normalize(quat, [0.3, -0.5, 0.8])
        cases = (
            (quat_frame, 2, self._lattice(2, 20)),
            (quat_frame, 3, self._lattice(2, 12)),
            (st.normalize(random_skew_group(rng, n=2, r=2), [0.7, -0.4]), 3,
             rng.standard_normal((500, 4))),
            (st.normalize(random_skew_group(rng, n=3, r=1), [1.1]), 2,
             rng.standard_normal((500, 6))),
        )
        for fr, K, pts in cases:
            want = basis_stack_direct(fr, K, pts)
            got = _basis_stack(fr, K, pts)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


class TestAnalysisSynthesis:
    def test_ground_state_single_entry(self, frame, grid96):
        f = SampledField.from_function(
            grid96,
            lambda p: st.exp_laguerre(frame, st.raw_index((0,), (0,)), p),
        )
        T = st.laguerre_coefficients(f, frame, 6)
        assert T.coefficient((1,), (1,)) == pytest.approx(1.0, abs=1e-10)
        off = T.entries.copy()
        off[0, 0] = 0.0
        assert np.abs(off).max() < 1e-10

    def test_basis_function_gives_indicator(self, frame, grid96):
        f = SampledField.from_function(
            grid96,
            lambda p: st.exp_laguerre(frame, st.basis_address((3,), (2,)), p),
        )
        T = st.laguerre_coefficients(f, frame, 6)
        expected = st.indicator_tensor(frame, 6, (3,), (2,))
        assert np.abs(T.entries - expected.entries).max() < 1e-10

    def test_gaussian_roundtrip(self, frame, grid96):
        f = SampledField.from_function(
            grid96, lambda p: np.exp(-1.6 * np.sum(p**2, -1)) + 0j
        )
        T = st.laguerre_coefficients(f, frame, 8)
        recon = st.synthesize(T, f.mesh())
        l2 = np.sqrt((np.abs(recon - f.values) ** 2).sum() * f.cell_volume)
        assert l2 < 1e-4

    def test_zero_and_single_entry_synthesis(self, frame, rng):
        side = 4
        zero = st.LaguerreTensor(
            frame=frame, K=4, entries=np.zeros((side, side), complex)
        )
        pts = rng.standard_normal((20, 2))
        np.testing.assert_array_equal(st.synthesize(zero, pts), np.zeros(20))
        single = st.indicator_tensor(frame, 4, (2,), (1,))
        vals = st.synthesize(single, pts)
        np.testing.assert_allclose(
            vals,
            st.exp_laguerre(frame, st.basis_address((2,), (1,)), pts),
            atol=1e-13,
        )

    def test_synthesis_points_are_checked(self, frame):
        T = st.identity_tensor(frame, 3)
        for pts in (np.zeros((5, 3)), np.array([[0.0, np.nan]]), 1.0):
            with pytest.raises(st.DimensionError, match="points must be finite"):
                st.synthesize(T, pts)

    def test_resolution_guard(self, frame):
        coarse = (symmetric_axis(6.0, 24),) * 2
        f = SampledField.from_function(coarse, lambda p: np.exp(-np.sum(p**2, -1)))
        with pytest.raises(st.GridError, match="too coarse"):
            st.laguerre_coefficients(f, frame, 8)

    def test_dimension_guard(self, frame):
        ax = symmetric_axis(6.0, 96)
        f = SampledField.from_function(
            (ax, ax, ax), lambda p: np.exp(-np.sum(p**2, -1))
        )
        with pytest.raises(st.GridError, match="axes"):
            st.laguerre_coefficients(f, frame, 4)


class TestMultiplicativity:
    def test_convolution_becomes_matrix_product(self, frame, grid96, rng):
        g = st.heisenberg(1)
        tau = np.array([1.0])
        F = offset_gaussians(rng, grid96)
        G = offset_gaussians(rng, grid96)
        conv = st.twisted_convolve(F, G, g, tau)
        lhs = st.laguerre_coefficients(conv, frame, 8)
        rhs = st.tensor_multiply(
            st.laguerre_coefficients(F, frame, 8),
            st.laguerre_coefficients(G, frame, 8),
        )
        rel = np.linalg.norm(lhs.entries - rhs.entries) / np.linalg.norm(
            lhs.entries
        )
        assert rel < 1e-3

    def test_band_limited_product_is_exact(self, frame, grid96, rng):
        # inputs supported within half the truncation multiply exactly
        g = st.heisenberg(1)
        tau = np.array([1.0])
        K = 8
        side = K
        mesh = None

        def synth_field(entries):
            T = st.LaguerreTensor(frame=frame, K=K, entries=entries)
            f = SampledField.from_function(
                grid96, lambda p: st.synthesize(T, p)
            )
            return T, f

        Ea = np.zeros((side, side), complex)
        Eb = np.zeros((side, side), complex)
        Ea[:4, :4] = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        Eb[:4, :4] = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        Ta, fa = synth_field(Ea)
        Tb, fb = synth_field(Eb)
        conv = st.twisted_convolve(fa, fb, g, tau)
        lhs = st.laguerre_coefficients(conv, frame, K)
        rhs = st.tensor_multiply(Ta, Tb)
        assert np.abs(lhs.entries - rhs.entries).max() < 1e-6


class TestDiagonalSymbols:
    def test_inverse_symbol_solves_the_equation(self, frame, rng):
        # u with tensor f-tensor / symbol satisfies the second-order
        # equation up to finite-difference error
        K = 8
        E = np.zeros((K, K), complex)
        E[:4, :4] = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        T = st.LaguerreTensor(frame=frame, K=K, entries=E)
        u = st.apply_diagonal_symbol(T, 1.0 / st.sublap_symbol(frame, K))

        M = st.heisenberg(1).b_tau([1.0])
        h = 1e-3

        def y_op(fn, k):
            e = np.zeros(2)
            e[k] = 1.0

            def inner(yy):
                return (fn(yy + h * e) - fn(yy - h * e)) / (2 * h) + 2j * (
                    yy @ M @ e
                ) * fn(yy)

            return inner

        synth_u = lambda yy: st.synthesize(u, yy)
        pts = rng.uniform(-1.5, 1.5, (25, 2))
        residual = []
        for y in pts:
            acc = 0.0 + 0.0j
            for k in range(2):
                acc += y_op(y_op(synth_u, k), k)(y)
            residual.append(-0.25 * acc - st.synthesize(T, y))
        assert np.abs(residual).max() < 1e-4

    def test_diagonal_must_match_the_columns(self, frame):
        T = st.identity_tensor(frame, 4)
        for diag in (np.ones(3), np.ones(5), np.ones((4, 4))):
            with pytest.raises(st.DimensionError, match="needs 4 entries"):
                st.apply_diagonal_symbol(T, diag)
