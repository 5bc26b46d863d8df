"""Bad input to the library's entry points ends in a SteptwoError.

Every real number, frequency or point goes through ``groups``'
converters (``checked_int``, ``positive_number``, ``finite_array``), so
text, None, a bool, NaN or an infinity is refused with a message naming
the argument, never leaked as a TypeError or ValueError and never taken
as a number.  ``finite_array`` also checks the shape a caller needs, so
an empty list or a wrong last axis is refused the same way.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import steptwo as st
from steptwo.fields import Axis, SampledField, symmetric_axis
from steptwo.kernels import null_vector
from steptwo.selftest import run_suite
from steptwo.spectral import DEGENERACY_RTOL, _checked_spectrum

_H1 = st.heisenberg(1)
_H2 = st.heisenberg(2)
_FRAME = st.normalize(_H1, [1.0])
_FRAME2 = st.normalize(_H2, [1.0])
_IDX = st.raw_index((0,), (0,))
_AX = symmetric_axis(2.0, 4)
_F2 = SampledField.from_function((_AX, _AX), lambda p: np.exp(-(p**2).sum(-1)))
_F3 = SampledField.from_function((_AX,) * 3, lambda p: np.exp(-(p**2).sum(-1)))
_F3_H1 = SampledField((_AX,) * 3, _F3.values, group=_H1)
_TENSOR = st.identity_tensor(_FRAME, 2)
_ORIGIN = _H1.origin()

# entry point and argument -> call with that argument replaced
_ENTRIES = {
    "normalize.tau": lambda v: st.normalize(_H1, v),
    "normalize.tol": lambda v: st.normalize(_H1, [1.0], tol=v),
    "continue_frame.tau_new": lambda v: st.continue_frame(_FRAME, _H1, v),
    "continue_frame.tol": lambda v: st.continue_frame(_FRAME, _H1, [1.1], tol=v),
    "degeneracy_scan.samples": lambda v: st.degeneracy_scan(_H1, v),
    "degeneracy_scan.tol": lambda v: st.degeneracy_scan(_H1, [[1.0]], tol=v),
    "_checked_spectrum.tau": lambda v: _checked_spectrum(_H1, v, DEGENERACY_RTOL),
    "TauFrame.slot": lambda v: _FRAME2.slot(v),
    "TauFrame.tau_coordinates": lambda v: _FRAME.tau_coordinates(v),
    "exp_laguerre.y": lambda v: st.exp_laguerre(_FRAME, _IDX, v),
    "exp_laguerre.idx": lambda v: st.exp_laguerre(_FRAME, v, [0.5, 0.5]),
    "exp_laguerre_2d.tau_mag": lambda v: st.exp_laguerre_2d(0, 0, [0.5, 0.5], v),
    "laguerre_poly.k": lambda v: st.laguerre_poly(v, 1.5, 0.5),
    "laguerre_poly.p": lambda v: st.laguerre_poly(2, v, 0.5),
    "laguerre_poly.sigma": lambda v: st.laguerre_poly(2, 1.5, v),
    "laguerre_l.p": lambda v: st.laguerre_l(2, v, 0.5),
    "laguerre_l.sigma": lambda v: st.laguerre_l(3, 2, v),
    "shift_apply.which": lambda v: st.shift_apply(_FRAME, v, _IDX),
    "synthesize.y": lambda v: st.synthesize(_TENSOR, v),
    "apply_diagonal_symbol.diag": lambda v: st.apply_diagonal_symbol(_TENSOR, v),
    "identity_tensor.K": lambda v: st.identity_tensor(_FRAME, v),
    "StepTwoGroup.dilate": lambda v: _H1.dilate(v, _ORIGIN),
    "StepTwoGroup.point": lambda v: _H1.point(v, [0.0]),
    "StepTwoGroup.b_form": lambda v: _H1.b_form(v, [1.0, 0.0]),
    "preset.name": lambda v: st.preset(v),
    "heisenberg.n": lambda v: st.heisenberg(v),
    "twisted_convolve.tau": lambda v: st.twisted_convolve(_F2, _F2, _H1, v),
    "partial_fourier.tau": lambda v: st.partial_fourier(_F3, v),
    "partial_fourier.tau(group)": lambda v: st.partial_fourier(_F3_H1, v),
    "abel_approx_identity.R": lambda v: st.abel_approx_identity(_F3, _H1, v),
    "abel_multiplier.R": lambda v: st.abel_multiplier(_FRAME.mu, np.zeros(1), v),
    "Axis.lo": lambda v: Axis(v, 1.0, 4),
    "Axis.step": lambda v: Axis(0.0, v, 4),
    "Axis.count": lambda v: Axis(0.0, 1.0, v),
    "symmetric_axis.radius": lambda v: symmetric_axis(v, 4),
    "SampledField.values": lambda v: SampledField((_AX, _AX), v),
    "fundamental_solution.y": lambda v: st.fundamental_solution(_H1, v, [0.5]),
    "fundamental_solution.tol": lambda v: st.fundamental_solution(
        _H1, [1.0, 0.0], [0.5], tol=v
    ),
    "horizontal_laplacian_residual.points": lambda v: st.horizontal_laplacian_residual(
        _H1, v
    ),
    "horizontal_laplacian_residual.point": lambda v: st.horizontal_laplacian_residual(
        _H1, [v]
    ),
    "szego_data.tau": lambda v: st.szego_data(1, v),
    "szego_kernel.y": lambda v: st.szego_kernel(1, v, [0.1, 0.0, 0.0]),
    "null_vector.k": lambda v: null_vector(v, [[1.0, 0.0, 0.0]]),
    "null_vector.tau_hat": lambda v: null_vector(1, v),
    "run_suite.seed": lambda v: run_suite("spectral", seed=v),
    "run_suite.name": lambda v: run_suite(v),
    "LaguerreTensor.entries": lambda v: st.LaguerreTensor(_FRAME, 2, v),
}

# (entry, bad value, error class, what the message must name); each of
# these leaked a TypeError, ValueError, IndexError or AttributeError, or
# was taken as a number, before every argument went through a converter
_BAD = [
    ("normalize.tau", "a", st.DimensionError, "tau must"),
    ("normalize.tau", True, st.DimensionError, "tau must"),
    ("continue_frame.tau_new", "a", st.DimensionError, "tau_new must"),
    ("degeneracy_scan.samples", np.nan, st.DimensionError, "samples must"),
    ("degeneracy_scan.samples", "a", st.DimensionError, "samples must"),
    ("_checked_spectrum.tau", "a", st.DimensionError, "tau must"),
    ("twisted_convolve.tau", "a", st.DimensionError, "tau must"),
    ("twisted_convolve.tau", True, st.DimensionError, "tau must"),
    ("TauFrame.tau_coordinates", "a", st.DimensionError, "points must"),
    ("exp_laguerre.y", "a", st.DimensionError, "points must"),
    ("synthesize.y", "a", st.DimensionError, "points must"),
    ("StepTwoGroup.dilate", "a", st.DimensionError, "dilation factor"),
    ("StepTwoGroup.dilate", np.nan, st.DimensionError, "dilation factor"),
    ("StepTwoGroup.dilate", True, st.DimensionError, "dilation factor"),
    ("abel_approx_identity.R", "a", st.DimensionError, "Abel parameter R"),
    ("abel_approx_identity.R", [0.5], st.DimensionError, "Abel parameter R"),
    ("laguerre_poly.p", "a", st.DimensionError, "Laguerre order p"),
    ("laguerre_poly.p", np.nan, st.DimensionError, "Laguerre order p"),
    ("laguerre_poly.p", True, st.DimensionError, "Laguerre order p"),
    ("laguerre_l.p", "a", st.DimensionError, "Laguerre order p"),
    ("laguerre_l.p", True, st.DimensionError, "Laguerre order p"),
    # outside the domain [0, inf) of l_k^(p)
    ("laguerre_l.sigma", -1.0, st.DimensionError, "sigma >= 0, got sigma=-1"),
    ("laguerre_l.sigma", [0.5, -1e-300], st.DimensionError, "sigma >= 0"),
    ("laguerre_l.sigma", -np.inf, st.DimensionError, "sigma"),
    ("TauFrame.slot", 2, st.DimensionError, "slot index"),
    ("TauFrame.slot", -1, st.DimensionError, "slot index"),
    ("TauFrame.slot", 1.5, st.DimensionError, "slot index"),
    ("TauFrame.slot", True, st.DimensionError, "slot index"),
    ("normalize.tol", np.nan, st.DimensionError, "tol must"),
    ("normalize.tol", "a", st.DimensionError, "tol must"),
    ("continue_frame.tol", np.nan, st.DimensionError, "tol must"),
    ("degeneracy_scan.tol", np.nan, st.DimensionError, "tol must"),
    ("degeneracy_scan.tol", "a", st.DimensionError, "tol must"),
    ("abel_multiplier.R", np.nan, st.DimensionError, "Abel parameter R"),
    ("abel_multiplier.R", "a", st.DimensionError, "Abel parameter R"),
    ("null_vector.k", "a", st.DimensionError, "level k"),
    ("null_vector.k", np.nan, st.DimensionError, "level k"),
    ("null_vector.k", True, st.DimensionError, "level k"),
    ("run_suite.seed", "a", st.DimensionError, "seed must"),
    ("run_suite.seed", True, st.DimensionError, "seed must"),
    ("shift_apply.which", "Z", st.DimensionError, "which must"),
    ("SampledField.values", [["a"] * 4] * 4, st.GridError, "values must"),
    ("SampledField.values", [1.0, 2.0], st.GridError, "values of shape"),
    ("preset.name", None, st.DimensionError, "preset None"),
    ("exp_laguerre.idx", None, st.DimensionError, "idx must"),
    ("horizontal_laplacian_residual.points", "a", st.DimensionError, "points must"),
    ("horizontal_laplacian_residual.point", 5, st.DimensionError, "points must"),
    ("Axis.lo", "a", st.GridError, "origin and step must be finite"),
    ("Axis.lo", True, st.GridError, "origin and step must be finite"),
    ("Axis.step", True, st.GridError, "origin and step must be finite"),
    # shapes: each of these leaked a ValueError, IndexError or KeyError, or
    # was taken as valid, before the converters checked shapes
    ("synthesize.y", [], st.DimensionError, r"points must .* shape \(\.\.\., 2\)"),
    ("synthesize.y", [[0.5, 0.5, 0.5]], st.DimensionError, "points must"),
    ("null_vector.tau_hat", [], st.DimensionError, "tau_hat must"),
    ("StepTwoGroup.b_form", [], st.DimensionError, "x must"),
    ("apply_diagonal_symbol.diag", ["a", "b"], st.DimensionError, "diagonal symbol must"),
    ("run_suite.name", "nope", st.DimensionError, "unknown selftest suite .*spectral"),
    ("run_suite.name", [1], st.DimensionError, "unknown selftest suite"),
    ("partial_fourier.tau", [], st.DimensionError, "tau must have at least one"),
    ("partial_fourier.tau(group)", [0.5, 0.5], st.DimensionError, "one entry per central"),
    ("StepTwoGroup.dilate", [[0.5], [0.5, 0.5]], st.DimensionError, "dilation factor"),
    ("normalize.tol", [[0.5], [0.5, 0.5]], st.DimensionError, "tol must"),
    ("degeneracy_scan.samples", [[]], st.DimensionError, "tau must have length 1"),
    # non-finite samples: the convolutions returned NaN output for them
    ("SampledField.values", [[1.0, np.nan, 1.0, 1.0]] + [[1.0] * 4] * 3, st.GridError,
     "values must be finite"),
    ("SampledField.values", [[np.inf] * 4] * 4, st.GridError, "values must be finite"),
    ("SampledField.values", [[complex(0, -np.inf)] * 4] * 4, st.GridError,
     "values must be finite"),
    # tensor entries: text leaked an AttributeError, an array of text a
    # TypeError from isfinite
    ("LaguerreTensor.entries", "a", st.DimensionError, "tensor entries must"),
    ("LaguerreTensor.entries", np.array([["a", "b"]]), st.DimensionError,
     "tensor entries must be finite numbers"),
    ("LaguerreTensor.entries", [[1.0, np.nan], [0.0, 1.0]], st.DimensionError,
     "tensor entries must be finite"),
    ("LaguerreTensor.entries", [[1.0, 2.0]], st.DimensionError,
     r"tensor entries: K=2, n=1 needs 2x2 entries, got shape \(1, 2\)"),
    ("LaguerreTensor.entries", [[True, False], [False, True]], st.DimensionError,
     "tensor entries must"),
]


@pytest.mark.parametrize(
    "entry, value, error, names",
    _BAD,
    ids=[f"{entry}-{value!r}"[:60] for entry, value, _, _ in _BAD],
)
def test_bad_input_names_the_argument(entry, value, error, names):
    with pytest.raises(error, match=names):
        _ENTRIES[entry](value)


def test_field_file_with_a_nan_sample_names_the_file(tmp_path):
    path = tmp_path / "nan.field"
    _F2.save(path)
    data = bytearray(path.read_bytes())
    # the first sample's real part: after the 16-byte head and two axes
    data[16 + 24 * 2 : 16 + 24 * 2 + 8] = np.float64(np.nan).tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(st.GridError, match=re.escape(f"{path}: field values must be")):
        SampledField.load(path)


def test_valid_input_still_works():
    # l_2^(1.5)(0.5) = sqrt(2 / Gamma(4.5)) 0.5^0.75 e^(-0.25) L_2^(1.5)(0.5),
    # and L_2^(1.5)(0.5) = 2.5 * 3.5 / 2 - 3.5 * 0.5 + 0.5^2 / 2 = 2.75
    want = math.sqrt(2.0 / math.gamma(4.5)) * 0.5**0.75 * math.exp(-0.25) * 2.75
    assert st.laguerre_l(2, 1.5, 0.5) == pytest.approx(want, rel=1e-14)
    # numpy integers and floats are numbers like Python's
    assert st.laguerre_poly(np.int64(2), np.float64(1.5), 0.5) == st.laguerre_poly(
        2, 1.5, 0.5
    )
    assert _FRAME2.slot(np.int32(1)).mu[0] == _FRAME2.mu[1]
    p = _H1.dilate(np.float32(2.0), _H1.point([1.0, 0.0], [1.0]))
    assert p.y.tolist() == [2.0, 0.0] and p.t.tolist() == [4.0]
    fr = st.normalize(_H1, np.array([1.0], dtype=np.float32), tol=np.float64(1e-8))
    assert fr.tau.dtype == float and fr.mu[0] == pytest.approx(1.0, rel=1e-15)
    assert Axis(np.float64(-1.0), np.float32(0.5), np.int64(4)).hi == 0.5
    assert st.abel_approx_identity(_F3, _H1, np.float64(0.5)).values.shape == (4,) * 3
    report = run_suite("spectral", seed=np.int64(42))[0]
    assert report == run_suite("spectral", seed=42)[0]
    # an empty scan is an empty report, a scalar sample a one-row one
    assert st.degeneracy_scan(_H1, []).rows == ()
    assert len(st.degeneracy_scan(_H1, 2.0).rows) == 1
    # a nested list is a tensor's entries, complex or not
    for entries in ([[1, 2], [3, 4]], [[1.0, 2j], [3.0, 4.0]]):
        listed = st.LaguerreTensor(_FRAME, 2, entries)
        array = st.LaguerreTensor(_FRAME, 2, np.array(entries))
        assert listed.entries.dtype == complex
        assert listed.entries.tobytes() == array.entries.tobytes()
    # a list of numbers is a field's values
    field = SampledField((_AX, _AX), [[1.0] * 4] * 4)
    assert field.values.dtype == complex and not field.values.flags.writeable
    # a (y, t) pair is a probe point like a GroupPoint
    pair = ([1.0, 0.0], [0.5])
    assert (
        st.horizontal_laplacian_residual(_H1, [pair], h=1e-2)[0]
        == st.horizontal_laplacian_residual(_H1, [_H1.point(*pair)], h=1e-2)[0]
    )
    assert st.shift_apply(_FRAME, ["Z", 0], _IDX) == st.shift_apply(_FRAME, ("Z", 0), _IDX)


# junk of every kind the converters refuse: text, None, bools, NaN,
# the infinities and lists of text
_JUNK = hs.one_of(
    hs.text(max_size=3),
    hs.none(),
    hs.booleans(),
    hs.sampled_from([np.nan, np.inf, -np.inf]),
    hs.lists(hs.text(max_size=2), min_size=1, max_size=3),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(hs.sampled_from(sorted(_ENTRIES)), _JUNK)
def test_fuzzed_arguments_are_clean(entry, junk):
    try:
        _ENTRIES[entry](junk)
    except st.SteptwoError:
        pass


# shapes: empty lists, ragged nesting and a last axis of 5 or 7, which no
# entry point's fixed shape allows
_SHAPES = hs.one_of(
    hs.sampled_from([[], [[]], [[0.5], [0.5, 0.5]]]),
    hs.tuples(hs.integers(1, 2), hs.sampled_from([5, 7])).map(
        lambda shape: np.full(shape, 0.5).tolist()
    ),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(hs.sampled_from(sorted(_ENTRIES)), _SHAPES)
def test_fuzzed_shapes_are_clean(entry, shape):
    try:
        _ENTRIES[entry](shape)
    except st.SteptwoError:
        pass
