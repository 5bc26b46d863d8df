import numpy as np
import pytest

import steptwo as st
from steptwo.quadrature import (
    _leggauss,
    gauss_legendre,
    polished_gauss_legendre,
    radial_nodes,
    sphere_rule,
    x_coth,
    x_over_sinh,
)


def test_gauss_legendre_interval():
    x, w = gauss_legendre(20, 0.0, 3.0)
    assert w.sum() == pytest.approx(3.0)
    assert (x @ w) == pytest.approx(4.5)  # integral of x over [0, 3]


def test_gauss_legendre_reuses_the_same_nodes():
    first = gauss_legendre(37, -1.0, 2.0)
    again = gauss_legendre(37, -1.0, 2.0)
    x, w = np.polynomial.legendre.leggauss(37)
    want = (-1.0 + 1.5 * (x + 1.0), 1.5 * w)
    for got in (first, again):
        assert all(g.tobytes() == v.tobytes() for g, v in zip(got, want))
        assert all(g.flags.writeable for g in got)
    assert not any(a.flags.writeable for a in _leggauss(37))


def test_polished_weights_hold_at_the_ends():
    # ((1 + x) / 2)^m, m < 2n, integrates to 2 / (m + 1) and weighs the
    # nodes near x = 1, where numpy's leggauss weights drift (by 3e-12 of
    # this integral at n = 402 and 7e-11 at n = 1200)
    for n in (30, 402, 1200):
        x, w = polished_gauss_legendre(n)
        assert x.tobytes() == _leggauss(n)[0].tobytes()
        assert not w.flags.writeable
        for m in (0, n, 2 * n - 1):
            assert w @ ((1.0 + x) / 2.0) ** m == pytest.approx(2.0 / (m + 1), rel=2e-13)
        np.testing.assert_allclose(w, w[::-1], rtol=1e-13)


@pytest.mark.parametrize("r,measure", [(1, 2.0), (2, 2 * np.pi), (3, 4 * np.pi)])
def test_sphere_rule_measure(r, measure):
    pts, wts = sphere_rule(r, 12)
    assert wts.sum() == pytest.approx(measure)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-14)
    # odd moments vanish, quadratic moments split the measure evenly
    np.testing.assert_allclose(wts @ pts, 0.0, atol=1e-12)
    np.testing.assert_allclose(wts @ pts**2, measure / r, atol=1e-12)


def test_sphere_rule_polynomial_exactness():
    pts, wts = sphere_rule(3, 10)
    # integral of z^4 over S^2 is 4 pi / 5
    assert wts @ pts[:, 2] ** 4 == pytest.approx(4 * np.pi / 5)
    with pytest.raises(st.DimensionError):
        sphere_rule(4, 10)


def test_radial_nodes_exponential_decay():
    for scale in (0.5, 1.0, 3.0):
        rho, w = radial_nodes(120, scale=scale)
        # integral of exp(-scale * rho) over the half line
        val = w @ np.exp(-scale * rho)
        assert val == pytest.approx(1.0 / scale, rel=1e-12)
    # polynomial-weighted decay converges more slowly but steadily
    rho, w = radial_nodes(200, scale=1.0)
    assert w @ (np.exp(-rho) * rho**2) == pytest.approx(2.0, rel=1e-6)
    with pytest.raises(st.DimensionError):
        radial_nodes(10, scale=0.0)
    # an array of scales gives the per-scale rules, bit for bit
    scales = np.array([[0.5, 1.0], [3.0, 7.25]])
    rho, w = radial_nodes(40, scale=scales)
    assert rho.shape == w.shape == (2, 2, 40)
    for idx in np.ndindex(scales.shape):
        rho1, w1 = radial_nodes(40, scale=scales[idx])
        np.testing.assert_array_equal(rho[idx], rho1)
        np.testing.assert_array_equal(w[idx], w1)
    with pytest.raises(st.DimensionError):
        radial_nodes(10, scale=np.array([1.0, -2.0]))


def test_hyperbolic_helpers_match_series_and_direct():
    x = np.array([1e-9, 1e-6, 1e-4, 1e-2, 1.0, 50.0, 800.0])
    direct = np.where(x < 700, x / np.sinh(np.minimum(x, 700)), 0.0)
    mine = x_over_sinh(x)
    np.testing.assert_allclose(mine[:-1], direct[:-1], rtol=1e-12)
    assert np.isfinite(mine[-1]) and mine[-1] >= 0.0  # no overflow at 800
    np.testing.assert_allclose(
        x_coth(x[:-1]), x[:-1] / np.tanh(x[:-1]), rtol=1e-12
    )
    assert x_over_sinh(np.array([0.0]))[0] == 1.0
    assert x_coth(np.array([0.0]))[0] == 1.0
