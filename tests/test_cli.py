import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import steptwo as st
from steptwo.cli import run
from steptwo.fields import SampledField, symmetric_axis


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

    code, _, err = run_cli(
        ["convolve", "--a", str(fa), "--b", str(fb), "--group",
         "preset:heisenberg-1", "--tau", "1", "--path", "fourier",
         "--out", str(tmp_path / "x.field")],
        capsys,
    )
    assert code == 1 and "direct or tensor" in err


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


def test_usage_error_exit_code(monkeypatch):
    proc = subprocess.run(
        [sys.executable, "-m", "steptwo.cli", "nonsense"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    # an unknown option stays a usage error, also with a negative value
    for extra in (["--bogus"], ["--bogus", "-1"]):
        with pytest.raises(SystemExit) as exc:
            run(["fundamental", "--group", "preset:heisenberg-1", "--point", "1,0,0", *extra])
        assert exc.value.code == 2
    monkeypatch.setenv("STEPTWO_THREADS", "x")
    with pytest.raises(SystemExit) as exc:
        run(["selftest", "all"])
    assert exc.value.code == 2


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
          "--radial", "0"], "--radial"),
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
    ],
)
def test_bad_input_is_a_clean_error(argv, names, tmp_path, capsys):
    nan_group = tmp_path / "nan.json"
    nan_group.write_text('{"n": 1, "r": 1, "B": [[NaN]]}')
    (tmp_path / "bad.json").write_text('{"K": 2,')
    (tmp_path / "no_group.json").write_text('{"K": 2}')
    h1_dict = json.loads(st.heisenberg(1).to_json())
    for K, side in ((0, 1), (2.5, 2)):
        (tmp_path / f"k{K}.json").write_text(json.dumps({
            "K": K, "tau": [1.0], "group": h1_dict,
            "entries_re": np.eye(side).tolist(),
            "entries_im": np.zeros((side, side)).tolist(),
        }))
    ax = symmetric_axis(6.0, 48)
    bad_sidecar = tmp_path / "f.field"
    SampledField(axes=(ax, ax), values=np.zeros((48, 48))).save(bad_sidecar)
    (tmp_path / "f.field.json").write_text("{")
    paths = {
        "NAN_GROUP": str(nan_group),
        "OUT": str(tmp_path / "out.csv"),
        "BAD_JSON": str(tmp_path / "bad.json"),
        "NO_GROUP": str(tmp_path / "no_group.json"),
        "K0_TENSOR": str(tmp_path / "k0.json"),
        "K2.5_TENSOR": str(tmp_path / "k2.5.json"),
        "BAD_SIDECAR": str(bad_sidecar),
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
                "--point", draw(_vector_text(3)), "--radial", "40"]
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
