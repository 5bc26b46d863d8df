import struct

import numpy as np
import pytest

import steptwo as st
from steptwo.fields import (
    Axis,
    SampledField,
    _ft_axes,
    _isotropic_split,
    _shifted_energies,
    abel_multiplier,
    dual_axis_points,
    lattice_points,
    symmetric_axis,
)
from steptwo.spectral import DEGENERACY_RTOL, _checked_spectrum, _plane_energies
from conftest import (
    abel_partial_sum,
    axis_derivative_4th,
    every,
    group_convolve_at,
    random_skew_group,
    twisted_direct,
)


def gaussian_mixture(rng, axes, terms=3):
    d = len(axes)
    c = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
    o = 0.5 * rng.standard_normal((terms, d))
    a = 0.7 + 0.5 * rng.random(terms)
    return SampledField.from_function(
        axes,
        lambda p: sum(
            c[i] * np.exp(-a[i] * np.sum((p - o[i]) ** 2, -1)) for i in range(terms)
        ),
    )


class TestSampledField:
    def test_axis_validation(self):
        with pytest.raises(st.GridError):
            Axis(lo=0.0, step=0.1, count=1)
        with pytest.raises(st.GridError):
            Axis(lo=0.0, step=-0.1, count=4)
        for lo, step in ((0.0, np.nan), (np.nan, 0.1), (-np.inf, 0.1), (0.0, np.inf)):
            with pytest.raises(st.GridError, match="finite"):
                Axis(lo=lo, step=step, count=4)
        # origin must be a lattice point for convolution grids
        assert symmetric_axis(6.0, 128).zero_index == 64
        assert symmetric_axis(6.0, 65).zero_index == 32
        with pytest.raises(st.GridError, match="origin"):
            Axis(lo=0.05, step=0.1, count=8).zero_index

    def test_shape_mismatch(self):
        ax = symmetric_axis(1.0, 8)
        with pytest.raises(st.GridError):
            SampledField(axes=(ax, ax), values=np.zeros((8, 7), dtype=complex))

    def test_save_load_roundtrip(self, tmp_path, h1):
        ax = symmetric_axis(2.0, 12)
        f = SampledField.from_function(
            (ax, ax),
            lambda p: np.exp(-np.sum(p**2, -1)) * (1 + 1j),
            group=h1,
            tau=np.array([0.7]),
        )
        path = tmp_path / "field.bin"
        f.save(path)
        g = SampledField.load(path)
        np.testing.assert_array_equal(g.values, f.values)
        assert [(a.lo, a.step, a.count) for a in g.axes] == [
            (a.lo, a.step, a.count) for a in f.axes
        ]
        np.testing.assert_array_equal(g.tau, f.tau)
        np.testing.assert_array_equal(g.group.B, h1.B)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"this is not a field container at all")
        with pytest.raises(st.GridError, match="container"):
            SampledField.load(path)

    def test_load_rejects_damaged_containers(self, tmp_path):
        ax = symmetric_axis(2.0, 6)
        f = SampledField.from_function((ax, ax), lambda p: p[..., 0] + 1j)
        path = tmp_path / "field.bin"
        f.save(path)
        data = path.read_bytes()
        damaged = {
            "truncated": data[:-16],
            "corrupted count": data[:56] + (2**62).to_bytes(8, "little") + data[64:],
            "count off by one": data[:56] + (7).to_bytes(8, "little") + data[64:],
            "negative ndim": data[:8] + (-1).to_bytes(8, "little", signed=True) + data[16:],
            "header past the end": data[:8] + (1000).to_bytes(8, "little") + data[16:],
            "NaN step": data[:24] + struct.pack("<d", np.nan) + data[32:],
        }
        for name, raw in damaged.items():
            path.write_bytes(raw)
            with pytest.raises(st.GridError, match="header|payload|finite"):
                SampledField.load(path)
        # a sound container with a damaged sidecar
        path.write_bytes(data)
        for sidecar in ("{", "[1]", '{"tau": "abc"}'):
            (tmp_path / "field.bin.json").write_text(sidecar)
            with pytest.raises(st.GridError, match="sidecar .*field.bin.json"):
                SampledField.load(path)

    def test_csv_export(self, tmp_path):
        ax = symmetric_axis(1.0, 4)
        f = SampledField.from_function((ax, ax), lambda p: p[..., 0] + 1j)
        out = tmp_path / "f.csv"
        f.to_csv(out)
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "x0,x1,re,im"
        assert len(rows) == 17


class TestPartialFourier:
    def test_gaussian_closed_form(self, h1):
        ax_y = symmetric_axis(6.0, 48)
        ax_s = symmetric_axis(6.0, 48)
        phi = SampledField.from_function(
            (ax_y, ax_y, ax_s),
            lambda p: np.exp(-(p[..., 0] ** 2 + p[..., 1] ** 2) - p[..., 2] ** 2),
        )
        for tau in (0.0, 0.8, -1.7):
            ft = st.partial_fourier(phi, [tau])
            mesh = ft.mesh()
            target = (
                np.exp(-(mesh[..., 0] ** 2 + mesh[..., 1] ** 2))
                * np.sqrt(np.pi)
                * np.exp(-(tau**2) / 4)
            )
            np.testing.assert_allclose(ft.values, target, atol=1e-12)

    def test_zero_frequency_gives_window_measure(self):
        ax = symmetric_axis(2.0, 16)
        f = SampledField.from_function(
            (ax, ax), lambda p: np.exp(-p[..., 0] ** 2) + 0j
        )
        ft = st.partial_fourier(f, [0.0])
        # constant along the periodized central window: integral = window measure
        np.testing.assert_allclose(
            ft.values, 4.0 * np.exp(-ft.mesh()[..., 0] ** 2), atol=1e-12
        )

    def test_conjugate_symmetry_and_linearity(self, rng):
        ax = symmetric_axis(5.0, 24)
        f = SampledField.from_function(
            (ax, ax), lambda p: np.exp(-np.sum(p**2, -1)) * (1 + 0.3 * p[..., 0])
        )
        plus = st.partial_fourier(f, [0.9])
        minus = st.partial_fourier(f, [-0.9])
        np.testing.assert_allclose(minus.values, np.conj(plus.values), atol=1e-14)

        g = SampledField.from_function(
            (ax, ax), lambda p: np.exp(-0.5 * np.sum(p**2, -1))
        )
        combo = f.with_values(2.0 * f.values + 3j * g.values)
        np.testing.assert_allclose(
            st.partial_fourier(combo, [0.9]).values,
            2.0 * plus.values + 3j * st.partial_fourier(g, [0.9]).values,
            atol=1e-13,
        )

    @pytest.mark.parametrize("offset", [0.0, 0.5])
    def test_transform_inverts_itself(self, rng, offset):
        # an even and an odd count, behind a leading axis left untouched
        axes = (symmetric_axis(4.0, 16), symmetric_axis(3.0, 15))
        vals = rng.standard_normal((3, 16, 15)) + 1j * rng.standard_normal((3, 16, 15))
        freqs = [dual_axis_points(a, offset) for a in axes]
        fwd = _ft_axes(vals, axes, 1, freqs)
        back = _ft_axes(fwd, axes, 1, freqs, inverse=True)
        np.testing.assert_allclose(back, vals, rtol=0, atol=1e-12)

    def test_nyquist_guard(self):
        ax = symmetric_axis(2.0, 8)  # step 0.5, limit 2 pi
        f = SampledField.from_function((ax, ax), lambda p: 0.0 * p[..., 0] + 1.0)
        with pytest.raises(st.GridError, match="Nyquist"):
            st.partial_fourier(f, [7.0])


class TestTwistedConvolution:
    def test_zero_frequency_is_euclidean(self, h1, rng):
        ax = symmetric_axis(4.0, 24)
        f = gaussian_mixture(rng, (ax, ax))
        g = gaussian_mixture(rng, (ax, ax))
        conv = st.twisted_convolve(f, g, h1, [0.0])
        # independent direct-sum oracle at a few points
        pts = f.mesh()
        h = ax.step
        for (i, j) in ((5, 7), (12, 12), (20, 3)):
            y = pts[i, j]
            diff = y[None, None, :] - pts
            ii = np.rint((diff[..., 0] - ax.lo) / h).astype(int)
            jj = np.rint((diff[..., 1] - ax.lo) / h).astype(int)
            ok = (ii >= 0) & (ii < 24) & (jj >= 0) & (jj < 24)
            fv = np.where(
                ok, f.values[np.clip(ii, 0, 23), np.clip(jj, 0, 23)], 0.0
            )
            oracle = (fv * g.values).sum() * h * h
            assert conv.values[i, j] == pytest.approx(oracle, abs=1e-12)

    @staticmethod
    def _random_pair(rng, axes):
        shape = tuple(a.count for a in axes)
        return [
            SampledField(
                axes=axes,
                values=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            )
            for _ in range(2)
        ]

    def _assert_matches_oracle(self, rng, group, tau, axes, stride):
        f, g = self._random_pair(rng, axes)
        fast = st.twisted_convolve(f, g, group, tau)
        assert fast.axes == f.axes
        oracle = twisted_direct(f, g, group.b_tau(tau), stride)
        sub = fast.values[every(stride, axes)]
        assert np.abs(sub - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize(
        "count, stride, tau",
        [(16, 1, 1.3), (33, 1, 0.7), (48, 4, 1.0), (64, 6, -0.9), (20, 1, 0.0)],
    )
    def test_fft_engine_matches_direct_oracle_h1(self, h1, rng, count, stride, tau):
        # the second axis puts the origin off-centre, near one end
        axes = (symmetric_axis(5.0, count), Axis(lo=-1.2, step=0.4, count=count + 3))
        self._assert_matches_oracle(rng, h1, [tau], axes, stride)

    def test_fft_engine_matches_direct_oracle_n2(self, quat, rng):
        group = random_skew_group(rng, n=2, r=2)
        self._assert_matches_oracle(
            rng, group, [0.4, -0.7], (symmetric_axis(3.0, 6),) * 4, 1
        )
        # coordinate Lagrangian split: FFT over two axes at once
        assert _isotropic_split(quat.b_tau([1.0, 0.0, 0.0])) == ([0, 2], [1, 3])
        self._assert_matches_oracle(
            rng, quat, [1.0, 0.0, 0.0], (symmetric_axis(4.0, 10),) * 4, 3
        )

    def test_isotropic_split_keeps_an_output_axis(self, h1, quat):
        assert _isotropic_split(h1.b_tau([1.0])) == ([0], [1])
        assert _isotropic_split(h1.b_tau([0.0])) == ([0], [1])
        assert _isotropic_split(quat.b_tau([0.0, 0.0, 0.0])) == ([0], [1, 2, 3])

    def test_horizontal_axes_must_match_group(self, quat, rng):
        f = gaussian_mixture(rng, (symmetric_axis(5.0, 16),) * 2)
        with pytest.raises(st.GridError, match="4 horizontal axes.*got 2"):
            st.twisted_convolve(f, f, quat, [1.0, 0.0, 0.0])

    def test_ground_state_idempotent(self, h1):
        # the 2-d basis at tau multiplies under H1's twisted convolution at
        # -tau, phase exp(-2i tau (-y1 x2 + y2 x1)); so do the tests below
        tau = 1.0
        ax = symmetric_axis(6.0, 128)
        f = SampledField.from_function(
            (ax, ax), lambda p: st.exp_laguerre_2d(0, 0, p, tau)
        )
        conv = st.twisted_convolve(f, f, h1, [-tau])
        sub = every(8, conv.axes)
        target = st.exp_laguerre_2d(0, 0, conv.mesh()[sub], tau)
        assert np.abs(conv.values[sub] - target).max() < 1e-12

    @pytest.mark.parametrize(
        "k,p,q,m", [(2, 1, 1, 2), (1, 2, 2, 1), (3, 2, 2, 3), (1, 3, 2, 1)]
    )
    def test_product_rule_cases(self, h1, k, p, q, m):
        tau = 1.0
        ax = symmetric_axis(6.0, 128)

        def w_basis(pp, kk):
            return SampledField.from_function(
                (ax, ax),
                lambda pts: st.exp_laguerre_2d(min(pp, kk) - 1, pp - kk, pts, tau),
            )

        conv = st.twisted_convolve(w_basis(p, k), w_basis(q, m), h1, [-tau])
        sub = every(8, conv.axes)
        if k == q:
            target = st.exp_laguerre_2d(min(p, m) - 1, p - m, conv.mesh()[sub], tau)
        else:
            target = 0.0
        assert np.abs(conv.values[sub] - target).max() < 1e-6

    def test_product_rule_through_frame(self, h1):
        tau = np.array([1.0])
        fr = st.normalize(h1, tau)
        ax = symmetric_axis(6.0, 96)

        def basis_field(p, k):
            return SampledField.from_function(
                (ax, ax),
                lambda pts: st.exp_laguerre(fr, st.basis_address((p,), (k,)), pts),
            )

        conv = st.twisted_convolve(basis_field(2, 1), basis_field(1, 2), h1, tau)
        sub = every(6, conv.axes)
        target = st.exp_laguerre(fr, st.basis_address((2,), (2,)), conv.mesh()[sub])
        assert np.abs(conv.values[sub] - target).max() < 1e-8

    def test_minkowski_bound(self, h1, rng):
        ax = symmetric_axis(5.0, 32)
        f = gaussian_mixture(rng, (ax, ax))
        g = gaussian_mixture(rng, (ax, ax))
        conv = st.twisted_convolve(f, g, h1, [-0.9])
        assert conv.l1_norm() <= f.l1_norm() * g.l1_norm() * (1 + 1e-12)

    def test_associativity(self, h1, rng):
        ax = symmetric_axis(5.0, 32)
        f, g, h = (gaussian_mixture(rng, (ax, ax)) for _ in range(3))

        def conv(a, b):
            return st.twisted_convolve(a, b, h1, [-0.9])

        left = conv(conv(f, g), h)
        right = conv(f, conv(g, h))
        scale = np.abs(left.values).max()
        assert np.abs(left.values - right.values).max() < 1e-7 * scale

    def test_projection_property(self, h1, rng):
        tau = np.array([1.0])
        fr = st.normalize(h1, tau)
        ax = symmetric_axis(5.0, 32)
        f = gaussian_mixture(rng, (ax, ax))
        proj = SampledField.from_function(
            (ax, ax),
            lambda p: st.exp_laguerre(fr, st.basis_address((2,), (2,)), p),
        )
        once = st.twisted_convolve(f, proj, h1, tau)
        twice = st.twisted_convolve(once, proj, h1, tau)
        assert np.abs(twice.values - once.values).max() < 1e-7

    def test_grid_mismatch(self, h1, rng):
        f = gaussian_mixture(rng, (symmetric_axis(5.0, 32),) * 2)
        g = gaussian_mixture(rng, (symmetric_axis(5.0, 36),) * 2)
        with pytest.raises(st.GridError, match="share"):
            st.twisted_convolve(f, g, h1, [1.0])

    def test_vector_field_commutes_with_convolution(self, h1, rng):
        # the partial symbol of a horizontal field passes to the right factor
        tau = np.array([0.8])
        M = h1.b_tau(tau)
        ax = symmetric_axis(5.0, 48)
        f = gaussian_mixture(rng, (ax, ax))
        g = gaussian_mixture(rng, (ax, ax))

        def y_symbol(field, k):
            pts = field.mesh()
            bform = np.einsum("...k,kl,l->...", pts, M, np.eye(2)[k])
            return field.with_values(
                axis_derivative_4th(field.values, k, ax.step)
                + 2j * bform * field.values
            )

        for k in range(2):
            lhs = y_symbol(st.twisted_convolve(f, g, h1, tau), k)
            rhs = st.twisted_convolve(f, y_symbol(g, k), h1, tau)
            inner = (slice(6, -6),) * 2
            scale = np.abs(lhs.values).max()
            assert (
                np.abs(lhs.values - rhs.values)[inner].max() < 2e-3 * scale
            )

    def test_vector_field_commutation_exact_via_shifts(self, h1):
        # same identity, all three sides exact: f, g basis elements, the
        # field expanded in shift operators along the frame columns
        tau = np.array([1.0])
        fr = st.normalize(h1, tau)
        ax = symmetric_axis(6.0, 96)
        sub = every(6, (ax, ax))
        mesh_pts = np.stack(
            np.meshgrid(ax.points()[sub[0]], ax.points()[sub[1]], indexing="ij"), -1
        )

        def field_of(idx):
            return SampledField.from_function(
                (ax, ax), lambda p: st.exp_laguerre(fr, idx, p)
            )

        f_idx = st.basis_address((2,), (1,))
        g_idx = st.basis_address((1,), (2,))
        fg_idx = st.basis_address((2,), (2,))  # product rule output

        def apply_shift_sum(idx, ops):
            # sum of shift-operator images evaluated on the probe mesh
            out = np.zeros(mesh_pts.shape[:-1], dtype=complex)
            for op, weight in ops:
                res = st.shift_apply(fr, (op, 0), idx)
                if res is None:
                    continue
                c, ni = res
                out += weight * c * st.exp_laguerre(fr, ni, mesh_pts)
            return out

        # Y along the first frame column is Z + Zbar
        ops = (("Z", 1.0), ("Zbar", 1.0))
        lhs = apply_shift_sum(fg_idx, ops)
        g_img_ops = []
        for op, weight in ops:
            res = st.shift_apply(fr, (op, 0), g_idx)
            if res is not None:
                g_img_ops.append((weight * res[0], res[1]))
        rhs = np.zeros_like(lhs)
        for c, ni in g_img_ops:
            conv = st.twisted_convolve(field_of(f_idx), field_of(ni), h1, tau)
            rhs += c * conv.values[sub]
        assert np.abs(lhs - rhs).max() < 1e-7


class TestGroupConvolution:
    @staticmethod
    def _psi(p):
        return np.exp(
            -0.9 * ((p[..., 0] - 0.3) ** 2 + p[..., 1] ** 2) - 0.6 * p[..., 2] ** 2
        )

    def _test_fields(self, axes):
        phi = SampledField.from_function(
            axes,
            lambda p: np.exp(
                -(p[..., 0] ** 2 + p[..., 1] ** 2) - 0.8 * p[..., 2] ** 2
            )
            * (1 + 0.5 * p[..., 0]),
        )
        return phi, SampledField.from_function(axes, self._psi)

    def test_intertwining_with_twisted_convolution(self, h1):
        axes = (symmetric_axis(5.0, 24),) * 2 + (symmetric_axis(10.0, 28),)
        phi, psi = self._test_fields(axes)
        conv = st.group_convolve(phi, psi, h1)
        tau = np.array([0.7])
        lhs = st.partial_fourier(conv, tau)
        rhs = st.twisted_convolve(
            st.partial_fourier(phi, tau), st.partial_fourier(psi, tau), h1, tau
        )
        scale = np.abs(lhs.values).max()
        assert np.abs(lhs.values - rhs.values).max() < 5e-4 * scale

    def test_noncommutative(self, h1):
        axes = (symmetric_axis(5.0, 16),) * 2 + (symmetric_axis(8.0, 16),)
        phi, psi = self._test_fields(axes)
        ab = st.group_convolve(phi, psi, h1)
        ba = st.group_convolve(psi, phi, h1)
        assert np.abs(ab.values - ba.values).max() > 1e-3

    def test_approximate_identity(self, h1):
        # narrowing the unit-mass bump pulls the convolution toward psi
        axes = (symmetric_axis(5.0, 24),) * 2 + (symmetric_axis(5.0, 24),)
        _, psi = self._test_fields(axes)
        inner = (slice(6, -6),) * 3
        errs = []
        for eps in (0.6, 0.3):
            delta = SampledField.from_function(
                axes,
                lambda p: (np.pi * eps) ** -1.5 * np.exp(-np.sum(p**2, -1) / eps),
            )
            conv = st.group_convolve(delta, psi, h1)
            errs.append(np.abs(conv.values - psi.values)[inner].max())
        assert errs[1] < errs[0]
        assert errs[1] < 0.35 * np.abs(psi.values).max()

    def test_fourier_path_matches_direct(self, h1):
        axes = (symmetric_axis(5.0, 24),) * 2 + (symmetric_axis(10.0, 48),)
        phi, psi = self._test_fields(axes)
        direct = st.group_convolve(phi, psi, h1)
        four = st.group_convolve_fourier(phi, psi, h1)
        scale = np.abs(direct.values).max()
        # compare away from the window boundary, where the periodized
        # Fourier path wraps
        inner = (slice(2, -2), slice(2, -2), slice(4, -4))
        assert np.abs(direct.values - four.values)[inner].max() < 1e-4 * scale

    def test_fourier_path_two_dimensional_center(self, rng):
        # r = 2: the full-grid Fourier path against direct quadrature at
        # interior lattice probes
        g = random_skew_group(rng, n=1, r=2)
        ay, at = symmetric_axis(4.0, 12), symmetric_axis(6.0, 12)
        axes = (ay, ay, at, at)
        phi = SampledField.from_function(
            axes,
            lambda p: np.exp(
                -np.sum(p[..., :2] ** 2, -1) - 0.8 * np.sum(p[..., 2:] ** 2, -1)
            )
            * (1 + 0.5 * p[..., 0]),
        )
        psi = SampledField.from_function(
            axes,
            lambda p: np.exp(
                -0.9 * ((p[..., 0] - 0.3) ** 2 + p[..., 1] ** 2)
                - 0.6 * np.sum(p[..., 2:] ** 2, -1)
            ),
        )
        four = st.group_convolve_fourier(phi, psi, g)
        ys, ss = ay.points(), at.points()
        idx = [(6, 5, 6, 6), (5, 7, 4, 7), (7, 6, 8, 5), (6, 6, 5, 3)]
        probes = [g.point([ys[i], ys[j]], [ss[k], ss[l]]) for i, j, k, l in idx]
        direct = group_convolve_at(phi, psi, g, probes)
        fv = np.array([four.values[i] for i in idx])
        assert np.abs(fv - direct).max() < 1e-2 * np.abs(direct).max()

    def test_full_grid_any_center(self, rng):
        # r = 2 on the full grid against the probe oracle at lattice points;
        # the wide central profile keeps the fields large at the window
        # edge, where a too short FFT would wrap
        g = random_skew_group(rng, n=1, r=2)
        ay, at = symmetric_axis(4.0, 12), symmetric_axis(6.0, 12)
        axes = (ay, ay, at, at)
        phi, psi = (
            SampledField.from_function(
                axes,
                lambda p, a=a, b=b: np.exp(
                    -a * np.sum(p[..., :2] ** 2, -1)
                    - 0.03 * np.sum(p[..., 2:] ** 2, -1)
                )
                * (1 + b * p[..., 0] + 0.3j * p[..., 3]),
            )
            for a, b in ((1.0, 0.5), (0.8, -0.4))
        )
        full = st.group_convolve(phi, psi, g)
        ys, ss = ay.points(), at.points()
        idx = [(6, 5, 6, 6), (5, 7, 4, 7), (7, 6, 8, 5), (2, 9, 1, 11), (0, 11, 0, 0)]
        probes = [g.point([ys[i], ys[j]], [ss[k], ss[l]]) for i, j, k, l in idx]
        oracle = group_convolve_at(phi, psi, g, probes)
        fv = np.array([full.values[i] for i in idx])
        assert np.abs(fv - oracle).max() < 1e-10 * np.abs(oracle).max()

    def test_probe_points_match_full_grid(self, h1):
        axes = (symmetric_axis(5.0, 16),) * 2 + (symmetric_axis(8.0, 16),)
        phi, psi = self._test_fields(axes)
        full = st.group_convolve(phi, psi, h1)
        ys = axes[0].points()
        ss = axes[2].points()
        probes = [
            h1.point([ys[6], ys[9]], [ss[7]]),
            h1.point([ys[8], ys[8]], [0.123]),  # central part off the lattice
        ]
        vals = group_convolve_at(phi, psi, h1, probes)
        assert vals[0] == pytest.approx(full.values[6, 9, 7], rel=1e-10)

    def test_direct_path_is_spectrally_accurate(self, h1):
        # the Riemann sum with psi in closed form at the twisted points
        # s - t - 2B(x, y); y - x stays inside the window, and the central
        # window is wide enough that psi vanishes at its edge
        ay, at = symmetric_axis(5.0, 16), symmetric_axis(8.0, 32)
        axes = (ay, ay, at)
        phi, psi = self._test_fields(axes)
        full = st.group_convolve(phi, psi, h1)
        mesh = phi.mesh()
        x, t = mesh[..., :2], mesh[..., 2]
        ys, ss = ay.points(), at.points()
        errs = []
        for i, j, k in ((8, 8, 16), (10, 7, 19), (5, 10, 12), (9, 11, 15)):
            y = np.array([ys[i], ys[j]])
            inside = np.all((y - x > ay.lo - 1e-9) & (y - x < ay.hi + 1e-9), -1)
            twist = 2.0 * np.einsum("kl,...k,l->...", h1.B[0], x, y)
            arg = np.concatenate([y - x, (ss[k] - t - twist)[..., None]], -1)
            ref = (phi.values * self._psi(arg))[inside].sum() * phi.cell_volume
            errs.append(abs(full.values[i, j, k] - ref))
        assert max(errs) < 1e-10 * np.abs(full.values).max()

    def test_quaternionic_intertwining_at_probes(self, quat):
        # 7-dimensional check: direct lattice quadrature at probe points vs
        # the twisted-convolution composition inverted over the dual lattice
        axy = symmetric_axis(4.0, 10)
        axs = symmetric_axis(5.0, 9)
        axes = (axy,) * 4 + (axs,) * 3
        phi = SampledField.from_function(
            axes,
            lambda p: np.exp(
                -np.sum(p[..., :4] ** 2, -1) - 0.9 * np.sum(p[..., 4:] ** 2, -1)
            ),
        )
        psi = SampledField.from_function(
            axes,
            lambda p: np.exp(
                -0.8 * np.sum(p[..., :4] ** 2, -1)
                - 1.1 * np.sum(p[..., 4:] ** 2, -1)
            )
            * (1 + 0.4 * p[..., 0]),
        )
        iy = axy.points()
        probes = [
            quat.point([iy[6], iy[4], iy[5], iy[5]], [0.3, -0.2, 0.1]),
            quat.point([iy[5], iy[6], iy[4], iy[5]], [0.0, 0.4, -0.3]),
        ]
        direct = group_convolve_at(phi, psi, quat, probes)

        taus = dual_axis_points(axs)
        tau_grid = lattice_points([taus] * 3)
        # one central transform per field: column q is its partial Fourier
        # transform at tau_grid[q]
        ft_phi, ft_psi = (
            _ft_axes(f.values, axes[4:], 4, [taus] * 3).reshape(axy.count**4, -1)
            for f in (phi, psi)
        )
        x_pts = lattice_points([axy.points()] * 4)
        cell = axy.step**4
        dv = (2 * np.pi / (axs.count * axs.step)) ** 3
        recon = np.zeros(len(probes), dtype=complex)
        for i, p in enumerate(probes):
            yy = np.asarray(p.y)
            kidx = np.rint((yy[None, :] - x_pts - axy.lo) / axy.step).astype(int)
            ok = np.all((kidx >= 0) & (kidx < axy.count), axis=1)
            flat = np.ravel_multi_index(
                tuple(np.clip(kidx, 0, axy.count - 1).T), (axy.count,) * 4
            )
            for q, tau in enumerate(tau_grid):
                M = quat.b_tau(tau)
                phase = np.exp(-2j * (yy @ M @ x_pts.T))
                fv = np.where(ok, ft_phi[flat, q], 0.0)
                tval = (phase * fv * ft_psi[:, q]).sum() * cell
                recon[i] += np.exp(1j * np.dot(p.t, tau)) * tval
        recon *= dv / (2 * np.pi) ** 3
        assert np.abs(direct - recon).max() < 0.03 * np.abs(direct).max()


class TestAbel:
    def test_multiplier_at_zero_frequency(self, h1, quat):
        for g, R in ((h1, 0.5), (quat, 0.9)):
            fr = st.normalize(g, np.ones(g.r))
            val = abel_multiplier(fr.mu, np.zeros(g.n), R)
            assert val == pytest.approx((2.0 / (1.0 + R)) ** g.n)

    def test_multiplier_does_not_depend_on_the_basis(self, quat, rng):
        # raw eigenvectors against the normalized frame; on the quaternionic
        # group mu_1 = mu_2 and the two bases split that plane pair
        # differently, so only the summed energy can agree
        R = 0.6
        for g in (quat, random_skew_group(rng, n=2, r=2)):
            # unit frequencies keep the factor near its peak (2/(1+R))^n
            taus = rng.standard_normal((6, g.r))
            taus /= np.linalg.norm(taus, axis=1, keepdims=True)
            xi = 2.0 * rng.standard_normal((50, g.m))
            _, mu, V, _, _ = _checked_spectrum(g, taus, DEGENERACY_RTOL)
            split = 0.0
            for q, tau in enumerate(taus):
                fr = st.normalize(g, tau)
                xi_hat = xi @ fr.O
                pairs = xi_hat[:, 0::2] ** 2 + xi_hat[:, 1::2] ** 2
                energies = _plane_energies(V[q], xi)
                split = max(split, np.abs(energies - pairs).max())
                np.testing.assert_allclose(
                    abel_multiplier(mu[q], energies, R),
                    abel_multiplier(fr.mu, pairs, R),
                    rtol=0,
                    atol=1e-14 * (2.0 / (1.0 + R)) ** g.n,
                )
            if g is quat:
                assert split > 1.0

    def test_shifted_energies_from_two_tables(self, quat, rng):
        # the per-node tables give the energies of the shifted frequency
        # xi + 2 M^T y without forming it
        for g in (quat, random_skew_group(rng, n=2, r=2)):
            taus = rng.standard_normal((4, g.r))
            M, mu, V, _, _ = _checked_spectrum(g, taus, DEGENERACY_RTOL)
            xi = 2.0 * rng.standard_normal((30, g.m))
            y = rng.standard_normal((20, g.m))
            for q in range(len(taus)):
                shifted = xi[None, :, :] + 2.0 * (y @ M[q])[:, None, :]
                want = _plane_energies(V[q], shifted)
                got = _shifted_energies(mu[q], V[q], xi, y)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_fixed_frequency_identity(self, h1):
        # multiplier form equals the shifted-frequency sum of twisted
        # convolutions against the radial basis, at one frequency
        R = 0.3
        tau = np.array([0.9])
        fr = st.normalize(h1, tau)
        ax = symmetric_axis(8.0, 48)
        f = SampledField.from_function(
            (ax, ax),
            lambda p: np.exp(-np.sum(p**2, -1)) * (1 + 0.2 * p[..., 0]),
        )
        # the oracle is linear in its second argument: one call on the
        # R-weighted sum of the radial basis
        mesh = f.mesh()
        series = sum(
            (R**k) * st.exp_laguerre(fr, st.raw_index((k,), (0,)), mesh)
            for k in range(11)
        )
        acc = twisted_direct(f, f.with_values(series), h1.b_tau(tau))
        freqs = [dual_axis_points(ax)] * 2
        fhat = _ft_axes(f.values, f.axes, 0, freqs).reshape(-1)
        xi = lattice_points(freqs)
        ypts = mesh.reshape(-1, 2)
        shift = 2.0 * ypts @ h1.b_tau(tau)
        xi_hat = (xi[None] + shift[:, None]) @ fr.O
        energies = xi_hat[..., 0::2] ** 2 + xi_hat[..., 1::2] ** 2
        mult = abel_multiplier(fr.mu, energies, R)
        phase = np.exp(1j * (ypts @ xi.T))
        dual_vol = (2 * np.pi / (ax.count * ax.step)) ** 2
        out = np.einsum("yx,yx,x->y", phase, mult, fhat) * dual_vol / (2 * np.pi) ** 2
        assert np.abs(out.reshape(f.values.shape) - acc).max() < 1e-8

    def test_paths_agree_on_group_field(self, h1):
        axy = symmetric_axis(7.0, 40)
        axs = symmetric_axis(6.0, 12)
        f = SampledField.from_function(
            (axy, axy, axs),
            lambda p: np.exp(
                -(p[..., 0] ** 2 + p[..., 1] ** 2) - 1.3 * p[..., 2] ** 2
            ),
        )
        mult = st.abel_approx_identity(f, h1, 0.3)
        direct = abel_partial_sum(f, h1, 0.3, terms=6)
        assert np.abs(mult.values - direct.values).max() < 5e-3

    def test_r_to_one_convergence(self, h1):
        axy = symmetric_axis(6.0, 20)
        axs = symmetric_axis(6.0, 20)
        f = SampledField.from_function(
            (axy, axy, axs),
            lambda p: np.exp(
                -(p[..., 0] ** 2 + p[..., 1] ** 2) - 1.3 * p[..., 2] ** 2
            ),
        )
        errs = [
            np.abs(st.abel_approx_identity(f, h1, R).values - f.values).max()
            for R in (0.5, 0.9, 0.99)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_r_range_guard(self, h1):
        axy = symmetric_axis(4.0, 8)
        f = SampledField.from_function(
            (axy, axy, axy), lambda p: np.exp(-np.sum(p**2, -1))
        )
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(st.DimensionError):
                st.abel_approx_identity(f, h1, bad)
