import numpy as np
import pytest

import steptwo as st
from steptwo.spectral import FRAME_TOL, _blocks
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


@pytest.mark.parametrize("scale", [3e5, 1e6, 1e9])
def test_frames_at_large_frequency(quat, scale):
    # the normal-form residual grows like eps * mu_1, so it is bounded
    # relative to mu_1; orthogonality keeps its absolute bound
    for g, unit in ((quat, [1.0, 0.0, 0.0]), (st.heisenberg(3), [1.0])):
        tau = scale * np.array(unit)
        for fr in (st.normalize(g, tau),
                   st.continue_frame(st.normalize(g, unit), g, tau)):
            np.testing.assert_allclose(fr.mu, scale, rtol=1e-12)
            resid, ortho = fr.residuals(g.b_tau(tau))
            assert resid <= 1e-10 * fr.mu[0] and ortho <= 1e-10


@pytest.mark.parametrize("mu", [0.0, -1.0, np.nan, np.inf])
def test_frame_needs_finite_positive_mu(h1, mu):
    fr = st.normalize(h1, [1.0])
    with pytest.raises(st.DegenerateTauError, match="finite mu > 0"):
        st.TauFrame(tau=fr.tau, mu=np.array([mu]), O=fr.O, min_gap=fr.min_gap)


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


def test_continue_frame_checks_the_dimension(h1):
    # a frame of another dimension is refused before any column is read,
    # also one with too many column pairs, which positions would cut short
    h2 = st.heisenberg(2)
    with pytest.raises(st.DimensionError, match="dimension 4.*dimension 2"):
        st.continue_frame(st.normalize(h1, [1.0]), h2, [1.0])
    with pytest.raises(st.DimensionError, match="dimension 2.*dimension 4"):
        st.continue_frame(st.normalize(h2, [1.0]), h1, [1.0])
    with pytest.raises(st.DimensionError, match="1 column pairs"):
        st.continue_frame(st.normalize(h2, [1.0]).slot(0), h2, [1.0])


def _complex_columns(frame):
    return (frame.O[:, 1::2] + 1j * frame.O[:, 0::2]) / np.sqrt(2.0)


def test_continuation_contract_on_random_groups(rng):
    # short steps on random groups (n <= 4, r <= 3): a continuation that
    # succeeds meets the frame bounds, and each column pair keeps a squared
    # overlap >= 0.5 with the column pair it continues
    done = 0
    for _ in range(60):
        g = random_skew_group(rng)
        tau = rng.standard_normal(g.r)
        fr = st.normalize(g, tau)
        for _ in range(4):
            step = rng.standard_normal(g.r)
            tau = tau + 10 ** rng.uniform(-3, -1) * step / np.linalg.norm(step)
            try:
                nxt = st.continue_frame(fr, g, tau)
            except st.AmbiguousMatchingError:
                fr = st.normalize(g, tau)
                continue
            resid, ortho = nxt.residuals(g.b_tau(tau))
            assert resid <= FRAME_TOL * nxt.mu[0] and ortho <= FRAME_TOL
            overlap = np.abs(
                np.einsum("ij,ij->j", _complex_columns(nxt).conj(), _complex_columns(fr))
            ) ** 2
            assert overlap.min() >= 0.5
            fr, done = nxt, done + 1
    assert done >= 200


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
    assert not any(row.flagged for row in report.rows)
    for row in report.rows:
        np.testing.assert_allclose(row.mu, [1.0, 1.0], atol=1e-12)

    report1 = st.degeneracy_scan(h1, [[1.0], [-1.0]])
    assert report1.patterns == [((1,), 2)]

    g = _crossing_group()
    sweep = [[np.cos(t), np.sin(t)] for t in np.linspace(0, np.pi, 200)]
    report2 = st.degeneracy_scan(g, sweep, tol=0.05)
    # the near-crossing neighborhood is flagged
    assert any(row.flagged for row in report2.rows)
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


class TestBlocks:
    """``_blocks``, the one block rule, against the two rules it replaced."""

    @staticmethod
    def fixed_size(count, cost, budget):
        # the loops of one cost per item: max(1, budget // cost) items a block
        size = max(1, budget // cost)
        return [slice(a, min(a + size, count)) for a in range(0, count, size)]

    @staticmethod
    def row_blocks(row_ends, budget):
        # group convolution's rule: whole rows of at most ``budget`` pairs,
        # ``row_ends`` the running pair count; a row over budget is alone
        blocks, lo = [], 0
        while lo < len(row_ends):
            done = row_ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(row_ends, done + budget, "right")))
            blocks.append(slice(lo, hi))
            lo = hi
        return blocks

    def test_one_cost_for_every_item(self, rng, monkeypatch):
        assert list(_blocks(0, 5)) == []
        for _ in range(3000):
            budget = int(rng.integers(1, 1000))
            count = int(rng.integers(0, 60))
            cost = int(rng.integers(1, 3 * budget))  # over budget 2/3 of the time
            monkeypatch.setattr(st.spectral, "_CHUNK_ELEMENTS", budget)
            assert list(_blocks(count, cost)) == self.fixed_size(count, cost, budget)

    def test_one_cost_per_item(self, rng, monkeypatch):
        assert list(_blocks(0, np.zeros(0, dtype=int))) == []
        for _ in range(3000):
            budget = int(rng.integers(1, 1 << 16))
            count = int(rng.integers(0, 60))
            monkeypatch.setattr(st.spectral, "_CHUNK_ELEMENTS", budget)
            costs = rng.integers(1, 2 * budget // max(count, 1) + 2, count)
            want = self.row_blocks(np.cumsum(costs), budget)
            assert list(_blocks(count, costs)) == want
            # group convolution: 8 prod(L) per pair against the old pair
            # budget of _CHUNK_ELEMENTS // 8 // prod(L)
            pairs, pad = rng.integers(1, 300, count), int(rng.integers(1, 100))
            old = self.row_blocks(np.cumsum(pairs), max(1, budget // 8 // pad))
            assert list(_blocks(count, 8 * pad * pairs)) == old
