import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.special import eval_genlaguerre, gamma

import steptwo as st
from conftest import random_skew_group

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_make_group_heisenberg_block():
    g = st.make_group(1, 1, [J2])
    assert g.n == 1 and g.r == 1 and g.m == 2
    np.testing.assert_array_equal(g.B[0], J2)


def test_make_group_rejects_symmetric_part():
    with pytest.raises(st.SkewSymmetryError, match="not skew"):
        st.make_group(1, 1, [[[0.0, 1.0], [1.0, 0.0]]])


def test_make_group_rejects_bad_shapes():
    with pytest.raises(st.DimensionError):
        st.make_group(1, 2, [J2])
    with pytest.raises(st.SkewSymmetryError, match="odd"):
        st.make_group(1, 1, [np.zeros((3, 3))])
    with pytest.raises(st.DimensionError):
        st.make_group(0, 1, [J2])
    for bad in (np.nan, np.inf):
        with pytest.raises(st.DimensionError, match="finite"):
            st.make_group(1, 1, [[[0.0, bad], [-bad, 0.0]]])
    with pytest.raises(st.DimensionError, match="finite"):
        st.group_from_dict({"n": 1, "r": 1, "B": [[float("nan")]]})


def test_quaternionic_preset_relations(quat):
    assert quat.n == 2 and quat.r == 3
    for b in quat.B:
        np.testing.assert_allclose(b @ b, -np.eye(4), atol=1e-14)
    np.testing.assert_allclose(
        quat.B[0] @ quat.B[1] @ quat.B[2], -np.eye(4), atol=1e-14
    )


def test_heisenberg_preset_shapes():
    g = st.preset("heisenberg-3")
    assert g.n == 3 and g.r == 1
    expected = np.zeros((6, 6))
    for j in range(3):
        expected[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = J2
    np.testing.assert_array_equal(g.B[0], expected)
    for name in ("free-nilpotent", "heisenberg-n"):
        with pytest.raises(st.DimensionError, match="unknown"):
            st.preset(name)


def test_multiply_identity_and_example(h1):
    a = h1.point([1.0, 0.0], [0.0])
    b = h1.point([0.0, 1.0], [0.0])
    prod = h1.multiply(a, b)
    np.testing.assert_allclose(prod.y, [1.0, 1.0])
    # 2 B(x, y) = 2 * x1 y2 * B_{12} = 2
    np.testing.assert_allclose(prod.t, [2.0])
    e = h1.origin()
    np.testing.assert_allclose(h1.multiply(e, b).y, b.y)
    np.testing.assert_allclose(h1.multiply(e, b).t, b.t)


def test_inverse_cancels(rng, quat):
    for _ in range(10):
        a = quat.point(rng.standard_normal(4), rng.standard_normal(3))
        prod = quat.multiply(a, quat.inverse(a))
        np.testing.assert_allclose(prod.y, 0.0, atol=1e-14)
        np.testing.assert_allclose(prod.t, 0.0, atol=1e-14)
    o = quat.origin()
    inv = quat.inverse(o)
    np.testing.assert_array_equal(inv.y, o.y)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(hst.integers(0, 2**32 - 1))
def test_associativity_random(seed):
    rng = np.random.default_rng(seed)
    g = random_skew_group(rng)
    pts = [
        g.point(rng.standard_normal(g.m), rng.standard_normal(g.r))
        for _ in range(3)
    ]
    left = g.multiply(g.multiply(pts[0], pts[1]), pts[2])
    right = g.multiply(pts[0], g.multiply(pts[1], pts[2]))
    np.testing.assert_allclose(left.y, right.y, atol=1e-12)
    np.testing.assert_allclose(left.t, right.t, atol=1e-12)


def test_dilation_is_group_morphism(rng):
    g = random_skew_group(rng)
    for lam in (0.5, 2.0, 3.7):
        a = g.point(rng.standard_normal(g.m), rng.standard_normal(g.r))
        b = g.point(rng.standard_normal(g.m), rng.standard_normal(g.r))
        lhs = g.dilate(lam, g.multiply(a, b))
        rhs = g.multiply(g.dilate(lam, a), g.dilate(lam, b))
        np.testing.assert_allclose(lhs.y, rhs.y, atol=1e-12)
        np.testing.assert_allclose(lhs.t, rhs.t, atol=1e-12)


def test_dilation_example(h1):
    p = h1.dilate(2.0, h1.point([1.0, 0.0], [1.0]))
    np.testing.assert_allclose(p.y, [2.0, 0.0])
    np.testing.assert_allclose(p.t, [4.0])
    with pytest.raises(st.DimensionError):
        h1.dilate(-1.0, p)


def test_b_tau_properties(rng, quat):
    for _ in range(5):
        tau = rng.standard_normal(3)
        M = quat.b_tau(tau)
        np.testing.assert_allclose(M, -M.T, atol=1e-14)
        np.testing.assert_allclose(M @ M, -(tau @ tau) * np.eye(4), atol=1e-12)
        t2 = rng.standard_normal(3)
        np.testing.assert_allclose(
            quat.b_tau(tau + t2), quat.b_tau(tau) + quat.b_tau(t2), atol=1e-14
        )
    np.testing.assert_array_equal(quat.b_tau([0, 0, 0]), np.zeros((4, 4)))
    with pytest.raises(st.DimensionError):
        quat.b_tau([1.0, 2.0])
    for bad in ([np.nan, 0, 0], [np.inf, 0, 0], [0, -np.inf, 1]):
        with pytest.raises(st.DimensionError, match="finite"):
            quat.b_tau(bad)


def test_vector_field_coefficients(h1):
    # at the origin the field reduces to the coordinate direction
    np.testing.assert_allclose(
        h1.vector_field_coefficients(0, h1.origin()), [1.0, 0.0, 0.0]
    )
    # at y = (0, 1): central coefficient 2 B_{21} y_2 = -2
    np.testing.assert_allclose(
        h1.vector_field_coefficients(0, h1.point([0.0, 1.0], [0.0])),
        [1.0, 0.0, -2.0],
    )
    with pytest.raises(st.DimensionError):
        h1.vector_field_coefficients(2, h1.origin())


def test_vector_field_bracket(rng):
    # numeric commutator of the coefficient fields equals 4 B(v, w) d/dt
    g = random_skew_group(rng, n=2, r=2)
    v = rng.standard_normal(4)
    w = rng.standard_normal(4)

    def field(vec, y):
        coeff = np.zeros(g.dim)
        coeff[: g.m] = vec
        coeff[g.m :] = 2.0 * np.einsum("bkl,k,l->b", g.B, y, vec)
        return coeff

    y0 = rng.standard_normal(4)
    h = 1e-6
    # (v . grad) c_w - (w . grad) c_v by central differences in y
    dcw = (field(w, y0 + h * v) - field(w, y0 - h * v)) / (2 * h)
    dcv = (field(v, y0 + h * w) - field(v, y0 - h * w)) / (2 * h)
    bracket = dcw - dcv
    np.testing.assert_allclose(bracket[: g.m], 0.0, atol=1e-8)
    np.testing.assert_allclose(bracket[g.m :], 4.0 * g.b_form(v, w), atol=1e-6)


def test_json_roundtrip_and_triangle(tmp_path, quat):
    path = tmp_path / "group.json"
    path.write_text(quat.to_json())
    g = st.load_group(path)
    np.testing.assert_array_equal(g.B, quat.B)

    # strict-upper-triangle storage
    tri = {"n": 1, "r": 1, "B": [[1.0]]}
    g1 = st.group_from_dict(tri)
    np.testing.assert_array_equal(g1.B[0], J2)

    # full matrices from files must be exactly skew
    bad = {"n": 1, "r": 1, "B": [[[0.0, 1.0], [-1.0 + 1e-15, 0.0]]]}
    with pytest.raises(st.SkewSymmetryError, match="exactly"):
        st.group_from_dict(bad)


def test_point_validation(h1):
    with pytest.raises(st.DimensionError):
        h1.point([1.0], [0.0])
    for y, t in (([np.nan, 0.0], [0.0]), ([0.0, 1.0], [np.inf])):
        with pytest.raises(st.DimensionError, match="finite"):
            h1.point(y, t)
    with pytest.raises(st.DimensionError, match="finite"):
        st.fundamental_solution(h1, [np.nan, 0.0], [0.0])
    q = st.quaternionic_heisenberg()
    with pytest.raises(st.DimensionError, match="does not belong"):
        h1.multiply(h1.origin(), q.origin())


def _h1_dict(**fields):
    return {"n": 1, "r": 1, "B": [[1.0]], **fields}


_H1_FRAME = st.normalize(st.heisenberg(1), [1.0])


# each case: the caller's array, the object built from it, and the object's
# copy of that array; the field and the tensor get views, whose base is
# the caller's array
_OWNERS = {
    "make_group": (lambda: np.array([J2]), lambda a: st.make_group(1, 1, a),
                   lambda g: g.B),
    "point": (lambda: np.array([0.5, -1.0]),
              lambda a: st.heisenberg(1).point(a, [0.2]), lambda p: p.y),
    "normalize": (lambda: np.array([1.0]),
                  lambda a: st.normalize(st.heisenberg(1), a), lambda f: f.tau),
    "SampledField": (
        lambda: np.arange(6, dtype=complex),
        lambda a: st.SampledField(axes=(st.Axis(0.0, 1.0, 6),), values=a[:]),
        lambda f: f.values),
    "LaguerreTensor": (
        lambda: np.eye(2, dtype=complex),
        lambda a: st.LaguerreTensor(frame=_H1_FRAME, K=2, entries=a.T),
        lambda t: t.entries),
    "SampledField.tau": (
        lambda: np.array([1.0]),
        lambda a: st.SampledField(
            axes=(st.Axis(0.0, 1.0, 4),), values=np.zeros(4), tau=a),
        lambda f: f.tau),
    "TauFrame.tau": (
        lambda: np.array([1.0]),
        lambda a: st.TauFrame(tau=a, mu=_H1_FRAME.mu, O=_H1_FRAME.O, min_gap=1.0),
        lambda fr: fr.tau),
    "TauFrame.mu": (
        lambda: np.array([1.0]),
        lambda a: st.TauFrame(tau=_H1_FRAME.tau, mu=a, O=_H1_FRAME.O, min_gap=1.0),
        lambda fr: fr.mu),
    "TauFrame.O": (
        lambda: np.eye(2),
        lambda a: st.TauFrame(tau=_H1_FRAME.tau, mu=_H1_FRAME.mu, O=a, min_gap=1.0),
        lambda fr: fr.O),
}


@pytest.mark.parametrize(
    "make, build, read", list(_OWNERS.values()), ids=list(_OWNERS)
)
def test_value_objects_own_their_arrays(make, build, read):
    arr = make()
    obj = build(arr)
    kept = read(obj).copy()
    assert arr.flags.writeable and not read(obj).flags.writeable
    arr[...] = 7.0
    np.testing.assert_array_equal(read(obj), kept)


_NOT_INTEGERS = {
    "group-n-float": (lambda: st.group_from_dict(_h1_dict(n=1.9)), r"\bn must"),
    "group-n-bool": (lambda: st.group_from_dict(_h1_dict(n=True)), r"\bn must"),
    "group-n-str": (lambda: st.group_from_dict(_h1_dict(n="1")), r"\bn must"),
    "group-B-scalar": (lambda: st.group_from_dict(_h1_dict(B=5)), r"\bB must"),
    "heisenberg-float": (lambda: st.heisenberg(1.5), r"\bn must"),
    "heisenberg-bool": (lambda: st.heisenberg(True), r"\bn must"),
    "axis-count": (lambda: st.Axis(0.0, 1.0, 2.5), "axis count"),
    "symmetric-axis-count": (lambda: st.symmetric_axis(1.0, 4.5), "axis count"),
    "laguerre-poly-k": (lambda: st.laguerre_poly(2.5, 0, 1.0), "index k"),
    "laguerre-l-k": (lambda: st.laguerre_l(2.5, 0, 1.0), "index k"),
    "exp-laguerre-2d-k": (
        lambda: st.exp_laguerre_2d(2.5, 0, [1.0, 0.0], 1.0), "index k"),
    "exp-laguerre-2d-p": (
        lambda: st.exp_laguerre_2d(1, 0.5, [1.0, 0.0], 1.0), "index p"),
    "index-pair-bool": (lambda: st.MultiIndexPair(p=(True,), k=(0,)), "p entries"),
    "shift-slot": (
        lambda: st.shift_apply(_H1_FRAME, ("Z", 0.5), st.raw_index((0,), (0,))),
        "slot index"),
    "szego-level-bool": (lambda: st.szego_data(True, [1.0, 0.0, 0.0]), "level k"),
}


@pytest.mark.parametrize(
    "call, names", list(_NOT_INTEGERS.values()), ids=list(_NOT_INTEGERS)
)
def test_integer_inputs_follow_one_rule(call, names):
    # a float, bool or string is not an integer, whatever its value
    with pytest.raises(st.DimensionError, match=names):
        call()


def test_integer_rule_keeps_numpy_integers_and_real_orders():
    g = st.group_from_dict(_h1_dict(n=np.int64(1), r=np.int32(1)))
    assert (g.n, g.r) == (1, 1) and type(g.n) is int
    assert st.Axis(0.0, 1.0, np.int64(3)).points().size == 3
    # the generalized Laguerre order p stays real
    weight = np.sqrt(gamma(3) / gamma(4.5)) * 0.5**0.75 * np.exp(-0.25)
    assert st.laguerre_l(2, 1.5, 0.5) == pytest.approx(
        weight * eval_genlaguerre(2, 1.5, 0.5), rel=1e-13
    )
