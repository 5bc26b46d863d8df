import os
import subprocess
import sys

import numpy as np
import pytest

import steptwo as st
from steptwo.fields import SampledField, lattice_points, symmetric_axis
from steptwo.spectral import _blocks
from steptwo.tensors import _offset, _slot_tables
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
    o = 0.4 * rng.standard_normal((terms, len(axes)))
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
                assert prod.entries[_offset((2,), 4), _offset((1,), 4)] == 1.0
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
        with pytest.raises(st.DimensionError, match="outside the truncation"):
            st.indicator_tensor(frame, 4, (0,), (1,))
        with pytest.raises(st.DimensionError, match="outside the truncation"):
            st.indicator_tensor(frame, 4, (5,), (1,))

    def test_address_has_one_entry_per_slot(self, frame):
        for p, k, name in (((2, 2), (1,), "p"), ((1, 1), (1,), "p"),
                           ((1,), (), "k"), (2, (1,), "p"), ((1,), np.array(1), "k")):
            with pytest.raises(st.DimensionError, match=f"address {name} must have"):
                st.indicator_tensor(frame, 2, p, k)

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
    """The slot tables, multiplied out, are the table of all basis functions."""

    def _lattice(self, n, count):
        return lattice_points([symmetric_axis(6.0, count).points()] * (2 * n))

    @staticmethod
    def multiplied_out(tables):
        """The K^(2n) x npts table of basis functions the slot tables stand for."""
        n, K = len(tables), tables[0].shape[0]
        stack = tables[0]
        for table in tables[1:]:
            stack = stack[..., None, None, :] * table
        # axes (p_1, k_1, ..., p_n, k_n, x) to rows p and columns k
        order = [*range(0, 2 * n, 2), *range(1, 2 * n, 2), 2 * n]
        return stack.transpose(order).reshape(K**n, K**n, -1)

    def test_heisenberg_stack_is_the_direct_stack(self, frame):
        pts = self._lattice(1, 64)
        for K in (3, 6):
            tables = _slot_tables(frame, K, pts)
            assert len(tables) == 1 and tables[0].shape == (K, K, len(pts))
            assert np.array_equal(
                self.multiplied_out(tables), basis_stack_direct(frame, K, pts)
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
            got = self.multiplied_out(_slot_tables(fr, K, pts))
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


class TestAnalysisSynthesis:
    def test_ground_state_single_entry(self, frame, grid96):
        f = SampledField.from_function(
            grid96,
            lambda p: st.exp_laguerre(frame, st.raw_index((0,), (0,)), p),
        )
        T = st.laguerre_coefficients(f, frame, 6)
        assert T.entries[0, 0] == pytest.approx(1.0, abs=1e-10)
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


class TestTwistedProduct:
    """The one-table product against analysis, product and synthesis."""

    @staticmethod
    def composed(f, g, fr, K):
        T = st.tensor_multiply(
            st.laguerre_coefficients(f, fr, K), st.laguerre_coefficients(g, fr, K)
        )
        return st.synthesize(T, f.mesh())

    @pytest.fixture
    def cases(self, frame, grid96, quat, rng):
        quat_frame = st.normalize(quat, [0.3, -0.5, 0.8])
        quat_grid = (symmetric_axis(3.0, 16),) * 4
        other = (symmetric_axis(5.0, 100),) * 2
        return {
            "h1-K6": (offset_gaussians(rng, grid96), offset_gaussians(rng, grid96),
                      frame, 6),
            "quat-K2": (offset_gaussians(rng, quat_grid),
                        offset_gaussians(rng, quat_grid), quat_frame, 2),
            "h1-K6-other-grid": (offset_gaussians(rng, grid96),
                                 offset_gaussians(rng, other), frame, 6),
        }

    def test_equals_the_three_table_composition(self, cases):
        for f, g, fr, K in cases.values():
            got = st.twisted_product(f, g, fr, K)
            assert got.shape == f.values.shape
            assert np.array_equal(got, self.composed(f, g, fr, K))

    def test_builds_one_table_per_grid(self, cases, monkeypatch):
        # analysis builds the tables of each chunk of f's grid and synthesis
        # walks the chunks back from the last one, whose tables it reuses:
        # 2 chunks - 1 sets, one set when the grid is one chunk; a g on
        # another grid adds one set per chunk of its own grid
        calls = []
        basis = st.tensors.exp_laguerre
        monkeypatch.setattr(
            st.tensors, "exp_laguerre",
            lambda *a, **kw: calls.append(1) or basis(*a, **kw),
        )
        for budget in (st.spectral._CHUNK_ELEMENTS, 1 << 30):
            monkeypatch.setattr(st.spectral, "_CHUNK_ELEMENTS", budget)
            for key, (f, g, fr, K) in cases.items():
                chunks = [
                    len(list(_blocks(h.values.size, fr.n * K * K))) for h in (f, g)
                ]
                other = key.endswith("other-grid")
                sets = 2 * chunks[0] - 1 + (chunks[1] if other else 0)
                if budget == 1 << 30:  # one chunk per grid
                    assert sets == 1 + other
                calls.clear()
                st.twisted_product(f, g, fr, K)
                assert len(calls) == sets * fr.n

    def test_checks_both_fields_as_analysis_does(self, frame, grid96, rng):
        good = offset_gaussians(rng, grid96)
        coarse = offset_gaussians(rng, (symmetric_axis(6.0, 24),) * 2)
        cube = offset_gaussians(rng, (symmetric_axis(6.0, 20),) * 3)

        def error(call):
            with pytest.raises(st.SteptwoError) as info:
                call()
            return type(info.value), str(info.value)

        for bad, fr, K in ((coarse, frame, 8), (cube, frame, 4), (good, frame, 0)):
            want = error(lambda: st.laguerre_coefficients(bad, fr, K))
            assert error(lambda: st.twisted_product(bad, good, fr, K)) == want
            assert error(lambda: st.twisted_product(good, bad, fr, K)) == want


class TestSlotContraction:
    """Analysis and synthesis contract the slot tables one slot at a time."""

    def test_coefficients_match_extended_precision(self, quat, h1, rng):
        # the contraction of the same slot values in np.clongdouble, summed
        # pairwise: what is left is the float64 contraction's own error
        for g, tau, K, ax in ((quat, [0.3, -0.5, 0.6], 2, symmetric_axis(4.0, 20)),
                              (h1, [1.0], 6, symmetric_axis(6.0, 64))):
            fr = st.normalize(g, tau)
            f = offset_gaussians(rng, (ax,) * g.m)
            tables = [t.astype(np.clongdouble) for t in _slot_tables(fr, K, f.mesh())]
            conj_f = f.values.reshape(-1).conj().astype(np.clongdouble)
            if fr.n == 1:
                ref = (conj_f * tables[0]).sum(-1)
            else:
                S0, S1 = tables
                ref = np.empty((K,) * 4, dtype=np.clongdouble)
                for p0 in range(K):
                    for k0 in range(K):
                        ref[p0, k0] = (conj_f * S0[p0, k0] * S1).sum(-1)
                ref = ref.transpose(0, 2, 1, 3).reshape(K * K, K * K)
            ref = ref.conj() * (f.cell_volume / st.exp_laguerre_l2_norm_sq(fr))
            got = st.laguerre_coefficients(f, fr, K).entries
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max(), g

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads the Linux VmHWM"
    )
    def test_product_memory_stays_below_the_product_table(self):
        # quaternionic K = 3: on 16^4 the K^(2n) x N product table alone is
        # 85 MB and whole-grid slot tables 19 MB; on 24^4 they are 430 and
        # 96 MB.  Chunked tables keep the growth of the child's VmHWM over
        # the call flat in the grid size.
        script = """
import sys
import numpy as np
import steptwo as st

def peak():
    with open("/proc/self/status") as fh:
        return [int(l.split()[1]) for l in fh if l.startswith("VmHWM")][0] / 1024

fr = st.normalize(st.quaternionic_heisenberg(), [0.3, -0.4, 0.5])
ax = st.symmetric_axis(2.8, int(sys.argv[1]))
f = st.SampledField.from_function((ax,) * 4, lambda p: np.exp(-np.sum(p**2, -1)) + 0j)
g = st.SampledField.from_function(
    (ax,) * 4, lambda p: np.exp(-np.sum((p - 0.3) ** 2, -1)) + 0j)
before = peak()
st.twisted_product(f, g, fr, 3)
print(peak() - before)
"""
        for count in (16, 24):
            proc = subprocess.run(
                [sys.executable, "-c", script, str(count)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            assert float(proc.stdout) < 40.0, (count, proc.stdout)


class TestChunks:
    """Analysis and synthesis run one chunk of points at a time."""

    @pytest.fixture
    def cases(self, frame, quat, rng):
        quat_grid = (symmetric_axis(2.4, 12),) * 4
        h1_grid = (symmetric_axis(6.0, 64),) * 2
        return (
            (offset_gaussians(rng, quat_grid), offset_gaussians(rng, quat_grid),
             st.normalize(quat, [0.3, -0.5, 0.8]), 2),
            (offset_gaussians(rng, h1_grid), offset_gaussians(rng, h1_grid), frame, 6),
        )

    def test_chunks_move_only_the_analysis_sums(self, cases, rng, monkeypatch):
        for f, g, fr, K in cases:
            count = f.values.size
            monkeypatch.setattr(st.spectral, "_CHUNK_ELEMENTS", count * fr.n * K * K)
            assert len(list(_blocks(count, fr.n * K * K))) == 1
            whole = st.laguerre_coefficients(f, fr, K)
            mesh = f.mesh()
            scattered = rng.uniform(-3.0, 3.0, (777, f.ndim))
            values = st.synthesize(whole, mesh), st.synthesize(whole, scattered)
            product = st.twisted_product(f, g, fr, K)
            for chunks in (5, 2):
                size = -(-count // chunks)  # points per chunk
                monkeypatch.setattr(st.spectral, "_CHUNK_ELEMENTS", size * fr.n * K * K)
                assert len(list(_blocks(count, fr.n * K * K))) == chunks
                # chunk sums added in turn: a different summation order
                T = st.laguerre_coefficients(f, fr, K)
                peak = np.abs(whole.entries).max()
                assert np.abs(T.entries - whole.entries).max() <= 1e-15 * peak
                # synthesis is pointwise: bitwise at any chunking
                assert np.array_equal(st.synthesize(whole, mesh), values[0])
                assert np.array_equal(st.synthesize(whole, scattered), values[1])
                got = st.twisted_product(f, g, fr, K)
                assert np.abs(got - product).max() <= 1e-15 * np.abs(product).max()

    def test_synthesis_of_no_points_is_empty(self, frame):
        T = st.identity_tensor(frame, 3)
        assert st.synthesize(T, np.zeros((0, 2))).shape == (0,)
        assert st.synthesize(T, np.zeros((4, 0, 2))).shape == (4, 0)


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
