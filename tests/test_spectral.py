import numpy as np
import pytest

import steptwo as st
from conftest import random_skew_group


def test_quaternionic_unit_eigenvalues(quat):
    fr = st.normalize(quat, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(fr.mu, [1.0, 1.0], atol=1e-12)
    fr2 = st.normalize(quat, np.array([2.0, -1.0, 2.0]) / 3.0)
    np.testing.assert_allclose(fr2.mu, [1.0, 1.0], atol=1e-12)


def test_heisenberg_scalar_frequency(h1):
    for c in (0.5, 1.0, 3.0):
        fr = st.normalize(h1, [c])
        np.testing.assert_allclose(fr.mu, [c], atol=1e-14)
        M = h1.b_tau([c])
        np.testing.assert_allclose(
            fr.O.T @ M @ fr.O, fr.normal_form(), atol=1e-12
        )


def test_random_reconstruction(rng):
    for _ in range(25):
        g = random_skew_group(rng, r=1)
        tau = rng.standard_normal(1)
        fr = st.normalize(g, tau)
        M = g.b_tau(tau)
        np.testing.assert_allclose(fr.O @ fr.normal_form() @ fr.O.T, M, atol=1e-10)
        assert np.all(np.diff(fr.mu) <= 1e-14)
        assert fr.mu[-1] > 0


def test_zero_tau_rejected(h1):
    with pytest.raises(st.DimensionError):
        st.normalize(h1, [0.0])
    with pytest.raises(st.DimensionError):
        st.continue_frame(st.normalize(h1, [1.0]), h1, [0.0])


def test_degenerate_form_detected():
    # rank-2 skew form on R^4: one eigenvalue magnitude vanishes
    B = np.zeros((1, 4, 4))
    B[0, 0, 1] = 1.0
    B[0, 1, 0] = -1.0
    g = st.make_group(2, 1, B)
    with pytest.raises(st.DegenerateTauError) as err:
        st.normalize(g, [1.0])
    assert 1 in err.value.indices
    prev = st.normalize(st.heisenberg(2), [1.0])
    with pytest.raises(st.DegenerateTauError) as err:
        st.continue_frame(prev, g, [1.0])
    assert 1 in err.value.indices
    # the kernels' batched sphere spectra apply the same test
    with pytest.raises(st.DegenerateTauError):
        st.fundamental_solution(g, [1.0, 0.0, 0.0, 0.0], [0.0])


def test_mu_homogeneity(rng):
    g = random_skew_group(rng)
    tau = rng.standard_normal(g.r)
    fr = st.normalize(g, tau)
    for c in (-2.0, 0.3, 5.0):
        frc = st.normalize(g, c * tau)
        np.testing.assert_allclose(frc.mu, abs(c) * fr.mu, rtol=1e-12)


def test_determinant_identity(rng):
    for _ in range(10):
        g = random_skew_group(rng)
        tau = rng.standard_normal(g.r)
        fr = st.normalize(g, tau)
        det_half = abs(np.linalg.det(g.b_tau(tau))) ** 0.5
        np.testing.assert_allclose(np.prod(fr.mu), det_half, rtol=1e-10)


def test_tau_coordinates_isometry(rng, quat):
    fr = st.normalize(quat, [0.2, 0.5, -0.8])
    for _ in range(10):
        y = rng.standard_normal(4)
        yt = fr.tau_coordinates(y)
        assert abs(np.linalg.norm(yt) - np.linalg.norm(y)) < 1e-12
    # the coordinate map is exactly y -> O^T y: row k of the stacked image
    # of the canonical basis is the k-th row of O
    np.testing.assert_array_equal(fr.tau_coordinates(np.eye(4)), fr.O)
    # columns map to canonical basis vectors
    for k in range(4):
        np.testing.assert_allclose(
            fr.tau_coordinates(fr.O[:, k]), np.eye(4)[k], atol=1e-12
        )


def test_slot_frame(rng, quat):
    fr = st.normalize(quat, [0.2, 0.5, -0.8])
    y = rng.standard_normal((7, 4))
    for j in range(fr.n):
        slot = fr.slot(j)
        assert slot.n == 1 and slot.mu[0] == fr.mu[j] and slot.tau_mag == fr.tau_mag
        np.testing.assert_allclose(
            slot.tau_coordinates(y),
            fr.tau_coordinates(y)[:, 2 * j : 2 * j + 2],
            rtol=0,
            atol=1e-14,
        )
        resid, ortho = slot.residuals(quat.b_tau(fr.tau))
        assert max(resid, ortho) < 1e-12


def test_b_form_in_tau_coordinates(rng):
    g = random_skew_group(rng, n=3, r=2)
    tau = rng.standard_normal(2)
    fr = st.normalize(g, tau)
    M = g.b_tau(tau)
    for _ in range(5):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        xt, yt = fr.tau_coordinates(x), fr.tau_coordinates(y)
        expected = sum(
            fr.mu[j] * (-xt[2 * j] * yt[2 * j + 1] + xt[2 * j + 1] * yt[2 * j])
            for j in range(3)
        )
        assert abs(x @ M @ y - expected) < 1e-10


def test_complex_tau_coordinates(rng, quat):
    fr = st.normalize(quat, [0.7, 0.1, -0.4])
    np.testing.assert_allclose(
        fr.complex_tau_coordinates(fr.O[:, 0]), [1.0, 0.0], atol=1e-12
    )
    np.testing.assert_allclose(
        fr.complex_tau_coordinates(fr.O[:, 1]), [1j, 0.0], atol=1e-12
    )
    # weighted energy equals the quadratic form of |B_tau|
    M = quat.b_tau([0.7, 0.1, -0.4])
    w, V = np.linalg.eigh(M.T @ M)
    sqrt_abs = V @ np.diag(np.sqrt(np.clip(w, 0, None))) @ V.T
    for _ in range(5):
        y = rng.standard_normal(4)
        z = fr.complex_tau_coordinates(y)
        assert abs(np.sum(fr.mu * np.abs(z) ** 2) - y @ sqrt_abs @ y) < 1e-10


def test_continue_frame_fixed_point(quat):
    fr = st.normalize(quat, [1.0, 0.0, 0.0])
    again = st.continue_frame(fr, quat, fr.tau)
    np.testing.assert_allclose(again.O, fr.O, atol=1e-12)
    np.testing.assert_allclose(again.mu, fr.mu, atol=1e-12)


def test_continue_frame_quaternionic_path(quat):
    # fully degenerate spectrum along the whole path
    thetas = np.linspace(0.0, np.pi / 2, 101)
    fr = st.normalize(quat, [1.0, 0.0, 0.0])
    dtheta = thetas[1] - thetas[0]
    for th in thetas[1:]:
        nxt = st.continue_frame(fr, quat, [np.cos(th), np.sin(th), 0.0])
        step = np.abs(nxt.O - fr.O).max()
        assert step < 2.0 * dtheta
        M = quat.b_tau(nxt.tau)
        assert np.abs(nxt.O.T @ M @ nxt.O - nxt.normal_form()).max() < 1e-10
        fr = nxt


def test_continue_frame_matches_fresh_up_to_sign(rng):
    # distinct eigenvalues: continuation must reproduce fresh frames up to
    # a per-column sign
    B = np.zeros((1, 4, 4))
    B[0, :2, :2] = [[0, 1], [-1, 0]]
    B[0, 2:, 2:] = [[0, 2.5], [-2.5, 0]]
    P = rng.standard_normal((4, 4)) * 0.05
    B[0] += P - P.T
    g = st.make_group(2, 1, B)
    taus = np.linspace(0.5, 2.0, 40)
    fr = st.normalize(g, [taus[0]])
    for tv in taus[1:]:
        fr = st.continue_frame(fr, g, [tv])
        fresh = st.normalize(g, [tv])
        dots = np.abs(np.einsum("ij,ij->j", fr.O, fresh.O))
        np.testing.assert_allclose(dots, 1.0, atol=1e-10)


def _crossing_group():
    B1 = np.zeros((4, 4))
    B1[:2, :2] = [[0, 1], [-1, 0]]
    B1[2:, 2:] = [[0, 2], [-2, 0]]
    B2 = np.zeros((4, 4))
    B2[0, 3] = 1.0
    B2[3, 0] = -1.0
    B2[1, 2] = -1.0
    B2[2, 1] = 1.0
    return st.make_group(2, 2, [B1, B2])


def test_continue_frame_flags_crossing():
    g = _crossing_group()
    # the two eigenvalue branches nearly meet around theta ~ pi/2; jumping
    # across in one step has no dominant matching
    fr = st.normalize(g, [np.cos(1.2), np.sin(1.2)])
    with pytest.raises(st.AmbiguousMatchingError):
        st.continue_frame(fr, g, [np.cos(1.9), np.sin(1.9)])


def test_degeneracy_scan_patterns(quat, h1, rng):
    samples = rng.standard_normal((20, 3))
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    report = st.degeneracy_scan(quat, samples)
    assert report.patterns == [((2,), 20)]
    assert not report.flagged_rows
    for row in report.rows:
        np.testing.assert_allclose(row.mu, [1.0, 1.0], atol=1e-12)

    report1 = st.degeneracy_scan(h1, [[1.0], [-1.0]])
    assert report1.patterns == [((1,), 2)]

    g = _crossing_group()
    sweep = [[np.cos(t), np.sin(t)] for t in np.linspace(0, np.pi, 200)]
    report2 = st.degeneracy_scan(g, sweep, tol=0.05)
    assert report2.flagged_rows  # near-crossing neighborhood is flagged
    assert any(p == (2,) for p, _ in report2.patterns)


def test_degeneracy_scan_flags_vanishing_form():
    # B_tau = (tau_0 + 2 tau_1) J vanishes on one line of frequencies; the
    # scan flags exactly the samples normalize rejects
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    g = st.make_group(1, 2, [J, 2.0 * J])
    samples = np.array([[2.0, -1.0], [1.0, 0.0], [0.6, 0.8], [-2.0, 1.0]])
    report = st.degeneracy_scan(g, samples)
    assert [row.flagged for row in report.rows] == [True, False, False, True]
    for row in report.rows:
        if row.flagged:
            assert not np.any(row.mu)
            with pytest.raises(st.DegenerateTauError):
                st.normalize(g, row.tau)
        else:
            st.normalize(g, row.tau)


def test_frame_is_readonly(quat):
    fr = st.normalize(quat, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        fr.O[0, 0] = 5.0
