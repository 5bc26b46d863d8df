"""Self-test of the benchmark's checker: a perturbed output must fail its job.

    python3 -m pytest perfbench/test_checks.py -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import run_rounds  # noqa: E402


def test_check_close():
    ref = np.array([1.0, -2.0, 0.5j])
    assert checks.check_close("x", ref.copy(), ref, 1e-12) == []
    assert checks.check_close("x", ref + 1e-6, ref, 1e-9)
    assert checks.check_close("x", np.full(3, np.nan), ref, 1e-9)
    assert checks.check_close("x", ref[:2], ref, 1e-9)


def test_check_strictly_decreasing():
    assert checks.check_strictly_decreasing("x", [0.3, 0.1, 0.01]) == []
    assert checks.check_strictly_decreasing("x", [0.3, 0.3, 0.01])
    assert checks.check_strictly_decreasing("x", [0.3, np.nan, 0.01])


def _one_job(workload, tmp_path, seed=7):
    w = workload(seed, str(tmp_path))
    w.setup()
    return w.jobs()


def _perturbing_cli(monkeypatch, perturb):
    real = workloads.cli

    def cli(argv):
        code, out, err = real(argv)
        return perturb(argv, code, out, err)

    monkeypatch.setattr(workloads, "cli", cli)


def _bump_field_file(argv, code, out, err):
    """Add 1e-9 of the largest sample to one sample of the written field."""
    path = next(a.split("=", 1)[1] for a in argv if a.startswith("--out="))
    axes, values = checks.read_field(path)
    raw = bytearray(Path(path).read_bytes())
    offset = 16 + 24 * len(axes) + 16 * (values.size // 2)
    bumped = values.reshape(-1)[values.size // 2] + 1e-9 * np.abs(values).max()
    raw[offset : offset + 16] = np.array([bumped]).tobytes()
    Path(path).write_bytes(bytes(raw))
    return code, out, err


def test_twisted_job_passes_unperturbed(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.TwistedH1, "jobs_per_round", 1)
    result = run_rounds(_one_job(workloads.TwistedH1, tmp_path), 0, None)
    assert (result["attempted"], result["failed"]) == (1, 0), result["problems"]


def test_perturbed_field_output_fails_job(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.TwistedH1, "jobs_per_round", 1)
    _perturbing_cli(monkeypatch, _bump_field_file)
    result = run_rounds(_one_job(workloads.TwistedH1, tmp_path), 0, None)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert len(result["problems"]) == 2  # both convolution paths


def test_perturbed_kernel_value_fails_job(tmp_path, monkeypatch):
    def scale_value(argv, code, out, err):
        payload = json.loads(out)
        for key in ("value_re", "matrix_re"):
            if key in payload:
                payload[key] = (np.asarray(payload[key]) * (1 + 1e-7)).tolist()
        return code, json.dumps(payload), err

    monkeypatch.setattr(workloads.Kernels, "angles_deg", (12.0,))
    _perturbing_cli(monkeypatch, scale_value)
    result = run_rounds(_one_job(workloads.Kernels, tmp_path), 0, None)
    assert (result["attempted"], result["failed"]) == (1, 1)
    # H1 and quaternionic fundamental solutions and the s = 0 Szego value;
    # the homogeneity pairs scale together and still agree
    assert len(result["problems"]) == 3


@pytest.mark.parametrize("ratio, counted", [(0.2, "baseline"), (2.0, "failure")])
def test_nonconvergence_counts_only_inside_recorded_regime(monkeypatch, ratio, counted):
    monkeypatch.setattr(workloads, "cli", lambda argv: (1, "", "error: quadrature did not converge"))
    k = workloads.Kernels(0, None)
    y = np.array([np.sqrt(ratio), 0.0, 0.0, 0.0])
    t = np.array([1.0, 0.0, 0.0])
    payload, problems, baseline = k._call(["fundamental"], y, t, k.fundamental_baseline_ratio)
    assert payload is None
    assert (baseline, len(problems)) == ((1, 0) if counted == "baseline" else (0, 1))
