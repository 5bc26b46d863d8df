import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import steptwo as st
from steptwo.cli import run
from steptwo.fields import SampledField, lattice_points, symmetric_axis
from steptwo.selftest import run_suite
from conftest import kaplan_fundamental


def run_cli(argv, capsys):
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_group_preset(capsys):
    code, out, _ = run_cli(["group", "--group", "preset:quaternionic-heisenberg"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2 and data["r"] == 3 and len(data["B"]) == 3


def test_group_file_and_malformed(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(st.heisenberg(2).to_json())
    code, out, _ = run_cli(["group", "--group", str(path)], capsys)
    assert code == 0 and json.loads(out)["n"] == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["group", "--group", str(bad)], capsys)
    assert code == 1 and "malformed" in err


def test_spectral_normalize(capsys):
    code, out, _ = run_cli(
        ["spectral", "normalize", "--group", "preset:quaternionic-heisenberg",
         "--tau", "1,0,0"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    np.testing.assert_allclose(data["mu"], [1.0, 1.0], atol=1e-12)
    assert data["residual_normal_form"] < 1e-10
    assert data["residual_orthogonality"] < 1e-10


def test_spectral_normalize_large_frequency(capsys):
    code, out, err = run_cli(
        ["spectral", "normalize", "--group", "preset:quaternionic-heisenberg",
         "--tau", "1e6,0,0"],
        capsys,
    )
    assert code == 0, err
    assert json.loads(out)["mu"] == pytest.approx([1e6, 1e6], rel=1e-12)


def test_spectral_normalize_degenerate_exit_code(capsys):
    code, _, err = run_cli(
        ["spectral", "normalize", "--group", "preset:heisenberg-1", "--tau", "0"],
        capsys,
    )
    assert code == 1 and "tau != 0" in err


def test_spectral_scan_csv(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        ["spectral", "scan", "--group", "preset:quaternionic-heisenberg",
         "--samples", "7", "--seed", "3", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    rows = out_path.read_text().strip().splitlines()
    assert rows[0] == "tau0,tau1,tau2,mu0,mu1,min_gap,flagged"
    assert len(rows) == 8


def test_laguerre_eval(capsys):
    code, out, _ = run_cli(
        ["laguerre", "eval", "--k", "3", "--p", "2", "--sigma", "0.7"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["polynomial"] == pytest.approx(4.167833333333333)


def test_laguerre_field_csv(tmp_path, capsys):
    out_path = tmp_path / "field.csv"
    code, _, _ = run_cli(
        ["laguerre", "field", "--group", "preset:heisenberg-1", "--tau", "1",
         "--k", "1", "--p", "-1", "--grid", "5,16", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    rows = out_path.read_text().strip().splitlines()
    assert rows[0] == "x0,x1,re,im"
    assert len(rows) == 257


def test_fundamental_point(capsys):
    code, out, _ = run_cli(
        ["fundamental", "--group", "preset:heisenberg-1", "--point", "1,0,0"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["value_re"] == pytest.approx(1.0, abs=1e-8)
    assert abs(data["value_im"]) < 1e-12
    assert data["est_error"] < 1e-9 and data["nodes_used"] > 0
    # a value starting with "-digit" is a value, not an unknown option
    code, out, _ = run_cli(
        ["fundamental", "--group", "preset:heisenberg-1", "--point", "-0.5,0.2,0.1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["point"] == [-0.5, 0.2, 0.1]


def test_fundamental_quaternionic_near_axis(quat, capsys):
    # |y|^2/|t| = 0.1, where the sphere product rule does not converge
    y, t = np.array([0.3, 0.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8])
    point = ",".join(repr(float(v)) for v in np.r_[y, t])
    code, out, _ = run_cli(
        ["fundamental", "--group=preset:quaternionic-heisenberg", f"--point={point}"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["value_re"] == pytest.approx(kaplan_fundamental(quat, y, t), rel=1e-10)
    assert data["value_im"] == 0.0


def test_fundamental_quaternionic_grid_matches_library(quat, capsys):
    t = [3.0, -4.0, 2.0]
    code, out, _ = run_cli(
        ["fundamental", "--group=preset:quaternionic-heisenberg",
         "--point=0,0,0,0,3,-4,2", "--grid=2,3"],
        capsys,
    )
    assert code == 0
    axis = symmetric_axis(2.0, 3)
    rows = ["y0,y1,y2,y3,t0,t1,t2,value_re,value_im,est_error"]
    for y in lattice_points([axis.points()] * 4):
        if not np.any(y):
            continue
        res = st.fundamental_solution(quat, y, t)
        vals = list(y) + t + [res.value.real, res.value.imag, res.est_error]
        rows.append(",".join(repr(float(v)) for v in vals))
    assert out == "\n".join(rows) + "\n"


def test_fundamental_bad_point(capsys):
    code, _, err = run_cli(
        ["fundamental", "--group", "preset:heisenberg-1", "--point", "1,0"],
        capsys,
    )
    assert code == 1 and "--point needs 3" in err
    code, _, err = run_cli(
        ["fundamental", "--group", "preset:heisenberg-1", "--point", "0,0,1"],
        capsys,
    )
    assert code == 1 and "y != 0" in err


def test_szego_point(capsys):
    code, out, _ = run_cli(
        ["szego", "--k", "1", "--y", "1,0,0,0", "--s", "0,0,0"], capsys
    )
    assert code == 0
    data = json.loads(out)
    expected = 24.0 / np.pi**4
    np.testing.assert_allclose(
        data["matrix_re"], expected * np.eye(2), atol=1e-10
    )
    code, out, _ = run_cli(
        ["szego", "--k", "1", "--y", "-0.5,0.2,0.1,0.3", "--s", "0,0,0"], capsys
    )
    assert code == 0
    assert json.loads(out)["y"] == [-0.5, 0.2, 0.1, 0.3]


def test_szego_level_below_one(capsys):
    for k in ("0", "-2"):
        code, out, err = run_cli(
            ["szego", "--k", k, "--y", "1,0,0,0", "--s", "0,0,0"], capsys
        )
        assert code == 1 and out == ""
        assert "level k" in err and "Traceback" not in err


def test_convolve_twisted_paths(tmp_path, capsys):
    ax = symmetric_axis(6.0, 64)
    tau = np.array([1.0])
    h1 = st.heisenberg(1)
    fr = st.normalize(h1, tau)
    f = SampledField.from_function(
        (ax, ax), lambda p: np.exp(-1.3 * np.sum(p**2, -1)) + 0j
    )
    fa, fb = tmp_path / "a.field", tmp_path / "b.field"
    f.save(fa)
    f.save(fb)
    out1 = tmp_path / "direct.field"
    code, _, _ = run_cli(
        ["convolve", "--a", str(fa), "--b", str(fb), "--group",
         "preset:heisenberg-1", "--tau", "1", "--path", "direct",
         "--out", str(out1)],
        capsys,
    )
    assert code == 0
    out2 = tmp_path / "tensor.field"
    code, _, _ = run_cli(
        ["convolve", "--a", str(fa), "--b", str(fb), "--group",
         "preset:heisenberg-1", "--tau", "1", "--path", "tensor",
         "--K", "6", "--out", str(out2)],
        capsys,
    )
    assert code == 0
    direct = SampledField.load(out1)
    tens = SampledField.load(out2)
    assert np.abs(direct.values - tens.values).max() < 1e-3
    # the inputs carry no group or tau; both outputs record the command's
    for out in (direct, tens):
        assert out.tau.tolist() == [1.0] and np.array_equal(out.group.B, h1.B)

    code, _, err = run_cli(
        ["convolve", "--a", str(fa), "--b", str(fb), "--group",
         "preset:heisenberg-1", "--tau", "1", "--path", "fourier",
         "--out", str(tmp_path / "x.field")],
        capsys,
    )
    assert code == 1 and "direct or tensor" in err


def test_convolve_tensor_path_takes_b_on_another_grid(tmp_path, capsys):
    h1 = st.heisenberg(1)
    gauss = lambda p: np.exp(-1.3 * np.sum(p**2, -1)) + 0j  # noqa: E731
    a = SampledField.from_function((symmetric_axis(6.0, 64),) * 2, gauss)
    b = SampledField.from_function((symmetric_axis(5.0, 72),) * 2, gauss)
    fa, fb = tmp_path / "a.field", tmp_path / "b.field"
    a.save(fa)
    b.save(fb)
    out = tmp_path / "tensor.field"
    common = ["convolve", "--a", str(fa), "--b", str(fb), "--group",
              "preset:heisenberg-1", "--tau", "1", "--out", str(out)]
    code, _, err = run_cli(common + ["--path", "tensor", "--K", "6"], capsys)
    assert code == 0, err
    want = st.twisted_product(a, b, st.normalize(h1, [1.0]), 6)
    got = SampledField.load(out)
    assert got.axes == a.axes and np.array_equal(got.values, want)

    code, _, err = run_cli(common + ["--path", "direct"], capsys)
    assert code == 1 and "share the same grid" in err


def test_convolve_needs_an_output_before_it_loads(tmp_path, capsys):
    # the inputs do not exist: the missing output is reported, not the inputs
    missing = str(tmp_path / "missing.field")
    code, out, err = run_cli(
        ["convolve", "--a", missing, "--b", missing, "--group",
         "preset:heisenberg-1", "--tau", "1"],
        capsys,
    )
    assert code == 1 and out == ""
    assert "needs --out and/or --csv" in err and "cannot open" not in err


def test_convolve_csv_has_one_row_per_grid_point(tmp_path, capsys):
    ax = symmetric_axis(4.0, 12)
    f = SampledField.from_function((ax, ax), lambda p: np.exp(-np.sum(p**2, -1)) + 0j)
    fa = tmp_path / "a.field"
    f.save(fa)
    csv_path, field_path = tmp_path / "c.csv", tmp_path / "c.field"
    code, _, _ = run_cli(
        ["convolve", "--a", str(fa), "--b", str(fa), "--group",
         "preset:heisenberg-1", "--tau", "1", "--csv", str(csv_path),
         "--out", str(field_path)],
        capsys,
    )
    assert code == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "x0,x1,re,im"
    data = np.loadtxt(rows[1:], delimiter=",")
    assert data.shape == (12 * 12, 4)
    np.testing.assert_array_equal(data[:, :2], lattice_points([ax.points()] * 2))
    values = SampledField.load(field_path).values.reshape(-1)
    np.testing.assert_allclose(data[:, 2] + 1j * data[:, 3], values, rtol=1e-15)


def test_convolve_rejects_fields_of_the_wrong_dimension(tmp_path, capsys):
    ax = symmetric_axis(4.0, 12)
    f = SampledField.from_function((ax, ax), lambda p: np.exp(-np.sum(p**2, -1)) + 0j)
    fa = tmp_path / "a.field"
    f.save(fa)
    code, out, err = run_cli(
        ["convolve", f"--a={fa}", f"--b={fa}", "--tau=1,0,0",
         "--group=preset:quaternionic-heisenberg", "--path=direct",
         f"--out={tmp_path / 'c.field'}"],
        capsys,
    )
    assert code == 1 and out == ""
    assert "4 horizontal axes" in err and "got 2" in err
    assert "Traceback" not in err


def test_convolve_rejects_damaged_containers(tmp_path, capsys):
    ax = symmetric_axis(4.0, 12)
    f = SampledField.from_function((ax, ax), lambda p: np.exp(-np.sum(p**2, -1)) + 0j)
    good = tmp_path / "good.field"
    f.save(good)
    data = good.read_bytes()
    truncated = tmp_path / "truncated.field"
    truncated.write_bytes(data[:-100])
    corrupted = tmp_path / "corrupted.field"
    corrupted.write_bytes(data[:56] + (2**62).to_bytes(8, "little") + data[64:])
    for bad in (truncated, corrupted):
        proc = subprocess.run(
            [sys.executable, "-m", "steptwo.cli", "convolve", "--a", str(bad),
             "--b", str(good), "--group", "preset:heisenberg-1", "--tau", "1",
             "--out", str(tmp_path / "c.field")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "payload bytes" in proc.stderr and "Traceback" not in proc.stderr


def test_convolve_group_fourier(tmp_path, capsys):
    axes = (symmetric_axis(4.0, 10),) * 2 + (symmetric_axis(6.0, 10),)
    f = SampledField.from_function(axes, lambda p: np.exp(-np.sum(p**2, -1)) + 0j)
    fa = tmp_path / "a.field"
    f.save(fa)
    outd = tmp_path / "d.field"
    outf = tmp_path / "f.field"
    for path, dest in (("direct", outd), ("fourier", outf)):
        code, _, _ = run_cli(
            ["convolve", "--a", str(fa), "--b", str(fa), "--group",
             "preset:heisenberg-1", "--path", path, "--out", str(dest)],
            capsys,
        )
        assert code == 0
    vd = SampledField.load(outd).values
    vf = SampledField.load(outf).values
    assert np.abs(vd - vf).max() < 5e-3 * np.abs(vd).max()


def test_tensor_subcommands(tmp_path, capsys):
    ax = symmetric_axis(6.0, 64)
    f = SampledField.from_function(
        (ax, ax), lambda p: np.exp(-1.1 * np.sum(p**2, -1)) + 0j
    )
    fpath = tmp_path / "f.field"
    f.save(fpath)
    tpath = tmp_path / "T.json"
    code, _, _ = run_cli(
        ["tensor", "of-field", "--field", str(fpath), "--group",
         "preset:heisenberg-1", "--tau", "1", "--K", "5", "--out", str(tpath)],
        capsys,
    )
    assert code == 0
    ppath = tmp_path / "P.json"
    code, _, _ = run_cli(
        ["tensor", "multiply", "--a", str(tpath), "--b", str(tpath),
         "--out", str(ppath)],
        capsys,
    )
    assert code == 0
    data = json.loads(ppath.read_text())
    assert data["K"] == 5
    entries = np.asarray(data["entries_re"]) + 1j * np.asarray(data["entries_im"])
    # product of a diagonal-ish radial tensor stays near-diagonal
    assert np.isfinite(entries).all()


def test_usage_error_exit_code(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "steptwo.cli", "nonsense"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    # an unknown option stays a usage error, also with a negative value
    for extra in (["--bogus"], ["--bogus", "-1"], ["--radial", "40"],
                  ["--sphere-level", "24"]):
        with pytest.raises(SystemExit) as exc:
            run(["fundamental", "--group", "preset:heisenberg-1", "--point", "1,0,0", *extra])
        assert exc.value.code == 2
    for threads in ("x", "0"):
        with pytest.raises(SystemExit) as exc:
            run(["selftest", "all", "--threads", threads])
        assert exc.value.code == 2
    # the axis count is checked by the library, with the option's message
    for grid in ("3,0", "3,1"):
        with pytest.raises(SystemExit) as exc:
            run(["fundamental", "--group", "preset:heisenberg-1", "--point", "1,0,1",
                 "--grid", grid])
        assert exc.value.code == 2
        assert (f"argument --grid: expected radius,count with radius > 0 and "
                f"count >= 2, got '{grid}'") in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, names",
    [
        (["spectral", "normalize", "--group", "preset:heisenberg-1", "--tau", "nan"],
         "--tau"),
        (["spectral", "normalize", "--group", "preset:quaternionic-heisenberg",
          "--tau", "inf,0,0"], "--tau"),
        (["spectral", "normalize", "--group", "preset:heisenberg-1", "--tau", "abc"],
         "--tau"),
        (["group", "--group", "NAN_GROUP"], "finite"),
        (["fundamental", "--group", "preset:heisenberg-1", "--point", "nan,0,0"],
         "--point"),
        (["szego", "--k", "1", "--y", "nan,0,0,0", "--s", "0,0,0"], "--y"),
        (["laguerre", "field", "--group", "preset:heisenberg-1", "--tau", "1",
          "--k", "0", "--p", "x", "--out", "OUT"], "--p"),
        (["fundamental", "--group", "preset:heisenberg-1", "--point", "0,0,1",
          "--grid", "6"], "--grid"),
        (["spectral", "scan", "--group", "preset:heisenberg-1", "--samples", "-3"],
         "--samples"),
        (["fundamental", "--group", "preset:heisenberg-1", "--point", "1,0,1",
          "--radial", "40"], "--radial"),
        (["laguerre", "eval", "--k", "1", "--p", "0", "--sigma", "nan"], "--sigma"),
        (["spectral", "scan", "--group", "preset:heisenberg-1", "--seed", "-3"],
         "--seed"),
        (["spectral", "normalize", "--group", "preset:heisenberg-1", "--tau", "1",
          "--tol", "nan"], "--tol"),
        (["tensor", "multiply", "--a", "BAD_JSON", "--b", "BAD_JSON"], "BAD_JSON"),
        (["tensor", "multiply", "--a", "NO_GROUP", "--b", "NO_GROUP"], "NO_GROUP"),
        (["convolve", "--a", "BAD_SIDECAR", "--b", "BAD_SIDECAR", "--group",
          "preset:heisenberg-1", "--tau", "1", "--out", "OUT"], "SIDECAR"),
        (["tensor", "of-field", "--field", "BAD_SIDECAR", "--group",
          "preset:heisenberg-1", "--tau", "1"], "SIDECAR"),
        (["group", "--group", "DIR"], "DIR"),
        (["group", "--group", "preset:heisenberg-1", "--out", "MISSING_DIR"],
         "cannot open"),
        (["laguerre", "eval", "--k", "3", "--p", "2", "--sigma", "1e200"], "sigma"),
        (["group", "--group", "preset:heisenberg-n"], "unknown group preset"),
        (["group", "--group", "NO_FILE"], "CANNOT_OPEN_NO_FILE"),
        (["group", "--group", "heisenberg-1"], "cannot open heisenberg-1"),
        (["tensor", "multiply", "--a", "K0_TENSOR", "--b", "K0_TENSOR"],
         "truncation K"),
        (["tensor", "multiply", "--a", "K2.5_TENSOR", "--b", "K2.5_TENSOR"],
         "truncation K"),
        (["group", "--group", "FLOAT_DIMS"], "n must be an integer"),
        (["group", "--group", "SCALAR_B"], "B must be a list"),
        (["group", "--group", "NULL_B"], "B[0] must be finite real numbers"),
        # a structure matrix of 284 PiB: refused at once, never allocated
        (["group", "--group", "preset:heisenberg-99999999"], "out of memory"),
        (["tensor", "multiply", "--a", "NAN_TAU_TENSOR", "--b", "NAN_TAU_TENSOR"],
         "NAN_TAU_TENSOR"),
        # one NaN sample: both group convolution paths returned NaN output
        (["convolve", "--a", "NAN_FIELD", "--b", "NAN_FIELD", "--group",
          "preset:heisenberg-1", "--path", "direct", "--out", "OUT"], "NAN_FIELD"),
        (["convolve", "--a", "NAN_FIELD", "--b", "NAN_FIELD", "--group",
          "preset:heisenberg-1", "--path", "fourier", "--out", "OUT"], "finite"),
        # outside the domain [0, inf) of l_k^(p)
        (["laguerre", "eval", "--k", "3", "--p", "2", "--sigma", "-1"], "sigma >= 0"),
    ],
)
def test_bad_input_is_a_clean_error(argv, names, tmp_path, capsys):
    nan_group = tmp_path / "nan.json"
    nan_group.write_text('{"n": 1, "r": 1, "B": [[NaN]]}')
    for name, group in (("float_dims", '{"n": 1.9, "r": 1.2, "B": [[1.0]]}'),
                        ("scalar_b", '{"n": 1, "r": 1, "B": 5}'),
                        ("null_b", '{"n": 1, "r": 1, "B": [null]}')):
        (tmp_path / f"{name}.json").write_text(group)
    (tmp_path / "bad.json").write_text('{"K": 2,')
    (tmp_path / "no_group.json").write_text('{"K": 2}')
    h1_dict = json.loads(st.heisenberg(1).to_json())
    for name, K, side, tau in (("k0", 0, 1, 1.0), ("k2.5", 2.5, 2, 1.0),
                               ("nan_tau", 2, 2, np.nan)):
        (tmp_path / f"{name}.json").write_text(json.dumps({
            "K": K, "tau": [tau], "group": h1_dict,
            "entries_re": np.eye(side).tolist(),
            "entries_im": np.zeros((side, side)).tolist(),
        }))
    ax = symmetric_axis(6.0, 48)
    bad_sidecar = tmp_path / "f.field"
    SampledField(axes=(ax, ax), values=np.zeros((48, 48))).save(bad_sidecar)
    (tmp_path / "f.field.json").write_text("{")
    ax8 = symmetric_axis(4.0, 8)
    nan_field = tmp_path / "nan.field"
    SampledField(axes=(ax8,) * 3, values=np.ones((8, 8, 8))).save(nan_field)
    data = bytearray(nan_field.read_bytes())
    data[-16:-8] = np.float64(np.nan).tobytes()  # the last sample's real part
    nan_field.write_bytes(bytes(data))
    paths = {
        "NAN_GROUP": str(nan_group),
        "FLOAT_DIMS": str(tmp_path / "float_dims.json"),
        "SCALAR_B": str(tmp_path / "scalar_b.json"),
        "NULL_B": str(tmp_path / "null_b.json"),
        "OUT": str(tmp_path / "out.csv"),
        "BAD_JSON": str(tmp_path / "bad.json"),
        "NO_GROUP": str(tmp_path / "no_group.json"),
        "K0_TENSOR": str(tmp_path / "k0.json"),
        "K2.5_TENSOR": str(tmp_path / "k2.5.json"),
        "NAN_TAU_TENSOR": str(tmp_path / "nan_tau.json"),
        "BAD_SIDECAR": str(bad_sidecar),
        "NAN_FIELD": str(nan_field),
        "SIDECAR": str(bad_sidecar) + ".json",
        "DIR": str(tmp_path),
        "MISSING_DIR": str(tmp_path / "missing" / "out.json"),
        "NO_FILE": str(tmp_path / "no_such.json"),
        "CANNOT_OPEN_NO_FILE": f"cannot open {tmp_path / 'no_such.json'}",
    }
    try:
        code = run([paths.get(a, a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (1, 2), (code, err)
    assert "Traceback" not in err
    assert code != 0 or "nan" not in out.lower()
    assert paths.get(names, names) in err


def test_parser_is_built_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argv = ["laguerre", "eval", "--k", "1", "--p", "0", "--sigma", "0.5"]
    assert run(argv) == 0
    first = len(built)
    assert run(argv) == 0
    assert len(built) == first


def test_in_process_calls_match_fresh_processes(capsys):
    # one shared parser serves every call: defaults, negative values and
    # per-command options must not carry over from one call to the next
    sequence = [
        ["spectral", "scan", "--group", "preset:heisenberg-2", "--samples", "4",
         "--seed", "5"],
        ["spectral", "scan", "--group", "preset:heisenberg-2"],
        ["fundamental", "--group", "preset:heisenberg-1", "--point", "-0.5,0.2,-1"],
        ["fundamental", "--group", "preset:heisenberg-1", "--point", "0,0,1",
         "--grid", "1,2"],
        ["laguerre", "eval", "--k", "3", "--p", "2", "--sigma", "0.7"],
    ]
    for argv in sequence:
        code, out, _ = run_cli(argv, capsys)
        fresh = subprocess.run(
            [sys.executable, "-m", "steptwo.cli", *argv],
            capture_output=True,
            text=True,
        )
        assert (code, out) == (0, fresh.stdout) and fresh.returncode == 0, argv


def test_closed_stdout_ends_quietly():
    # 2000 scan rows overflow the pipe buffer, so the CLI is still writing
    # when the reader hangs up after the header line
    proc = subprocess.Popen(
        [sys.executable, "-m", "steptwo.cli", "spectral", "scan", "--group",
         "preset:quaternionic-heisenberg", "--samples", "2000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    header = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert header.startswith(b"tau0,tau1,tau2,")
    assert err == b""


# sha256 of the stdout of ``selftest all --seed 42`` with numpy's SIMD
# loops capped at its x86-64 baseline and OpenBLAS at one core type, so
# the digest does not depend on the CPU of the machine that runs it.  A
# change that alters the report must update this digest and say why.
SELFTEST_ALL_SHA256 = "c69463ef3cdc8fc9a8ed1cb3fd07a0cedbbd5963c171d178bc58e6fd3e698d56"
PINNED_DISPATCH = {
    "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
    "OPENBLAS_CORETYPE": "Prescott",
}


def test_selftest_report_is_pinned():
    proc = subprocess.run(
        [sys.executable, "-m", "steptwo.cli", "selftest", "all", "--seed", "42"],
        capture_output=True,
        env={**os.environ, **PINNED_DISPATCH},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == SELFTEST_ALL_SHA256


def test_selftest_threads_must_be_a_positive_integer():
    for threads in (0, -2, 2.0, True):
        with pytest.raises(st.DimensionError, match="threads"):
            run_suite("spectral", threads=threads)


def test_selftest_smoke(capsys):
    code, out, _ = run_cli(["selftest", "spectral", "--seed", "7"], capsys)
    assert code == 0
    assert "result=PASS" in out
    assert all(line.startswith(("PASS", "suite=")) for line in out.strip().splitlines())


# option values as text: numbers of every kind (NaN, infinities, the
# extremes of float) mixed with text argparse must reject
_number_text = hs.one_of(
    hs.floats().map(repr),
    hs.integers(-4, 4).map(str),
    hs.sampled_from(["", "abc", "1e999", "-0", "0x1", " 1", "1,", ",,"]),
)


def _vector_text(size):
    """A comma-separated list: often ``size`` moderate numbers, else anything."""
    return hs.one_of(
        hs.lists(hs.floats(-3.0, 3.0), min_size=size, max_size=size),
        hs.lists(_number_text, max_size=5),
    ).map(lambda v: ",".join(map(str, v)))


_int_text = hs.one_of(
    hs.integers(-3, 6).map(str), hs.sampled_from(["", "x", "1.5", "1e3", "600"])
)


@hs.composite
def _fuzzed_argv(draw):
    command = draw(hs.sampled_from(["normalize", "scan", "fundamental", "szego"]))
    if command == "normalize":
        group = draw(hs.sampled_from(["heisenberg-1", "quaternionic-heisenberg"]))
        return ["spectral", "normalize", "--group", f"preset:{group}",
                "--tau", draw(_vector_text(1 if group == "heisenberg-1" else 3))]
    if command == "scan":
        samples = draw(hs.one_of(hs.integers(-3, 40).map(str), _int_text))
        return ["spectral", "scan", "--group", "preset:heisenberg-1",
                "--samples", samples]
    if command == "fundamental":
        argv = ["fundamental", "--group", "preset:heisenberg-1",
                "--point", draw(_vector_text(3))]
        if draw(hs.booleans()):
            # a few lattice points at most: each is one kernel quadrature
            radius = draw(hs.one_of(hs.floats(-1.0, 3.0), hs.just(float("nan"))))
            count = draw(hs.integers(-1, 3))
            argv += ["--grid", draw(hs.sampled_from([f"{radius},{count}", "2", "a,b"]))]
        return argv
    return ["szego", "--k", draw(_int_text), "--y", draw(_vector_text(4)),
            "--s", draw(_vector_text(3))]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_fuzzed_argv())
def test_fuzzed_option_values_are_clean(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    assert code != 0 or "nan" not in out.getvalue().lower(), argv
