"""The four workloads: seeded input generation and the fixed job list.

Every CLI argument is passed as ``--opt=value``.  argparse reads a
separate value that starts with ``-`` (``--point -0.5,0.2,0.1``) as an
unknown option and exits with a usage error; that is a defect of the
``steptwo`` CLI, left for a later change, and this spelling avoids it.

A job returns ``(problems, baseline)``: the list of failed checks (empty
when the job passed) and the number of CLI calls that ended in the
quadrature non-convergence recorded in commit 3698430 (see ``Kernels``).
"""

import contextlib
import io
import json
import os

import numpy as np
import steptwo
import steptwo.cli

import checks

H1 = "preset:heisenberg-1"
QUAT = "preset:quaternionic-heisenberg"


def csv(values):
    return ",".join(repr(float(v)) for v in np.asarray(values).reshape(-1))


def cli(argv):
    """One in-process ``steptwo`` command; returns (exit code, stdout, stderr).

    ``steptwo.cli.run`` is looked up at call time so that the traced run's
    wrapper is the one called.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = steptwo.cli.run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_problem(label, code, err):
    return f"{label}: exit {code}: {err.strip()[-200:]}"


def _random_coeffs(rng, side):
    return (rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))) / side


class _Workload:
    """Seeded inputs in ``workdir``; ``setup`` fills ``cases``, one per job."""

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.cases = []

    def path(self, name):
        return os.path.join(self.workdir, name)

    def save(self, axes, values, group, tau, name):
        steptwo.SampledField(axes=axes, values=values, group=group, tau=tau).save(self.path(name))

    def jobs(self):
        return [lambda case=case: self._job(*case) for case in self.cases]


class TwistedH1(_Workload):
    """Twisted convolution on H1 at tau = 1, direct quadrature and tensor path.

    Inputs are random finite Laguerre expansions with addresses in
    {1,2,3}; their twisted product is the expansion of the product of the
    coefficient matrices, which the K = 6 tensor path represents exactly.
    """

    name = "twisted-h1"
    jobs_per_round = 3
    grid = (6.0, 64)
    input_K = 3
    tensor_K = 6
    tol = 1e-12

    def setup(self):
        group = steptwo.preset("heisenberg-1")
        tau = np.array([1.0])
        frame = steptwo.normalize(group, tau)
        axis = steptwo.symmetric_axis(*self.grid)
        self.frame = (frame.O, frame.mu_unit, frame.tau_mag)
        self.mesh = checks.mesh([axis] * 2)
        for j in range(self.jobs_per_round):
            A = _random_coeffs(self.rng, self.input_K)
            B = _random_coeffs(self.rng, self.input_K)
            for name, C in ((f"a{j}", A), (f"b{j}", B)):
                values = checks.expansion(C, *self.frame, self.mesh)
                self.save((axis, axis), values, group, tau, name)
            self.cases.append((j, A @ B))

    def _job(self, j, product):
        problems = []
        base = [f"--a={self.path(f'a{j}')}", f"--b={self.path(f'b{j}')}", f"--group={H1}", "--tau=1"]
        outputs = []
        for label, extra in (("direct", ["--path=direct"]), ("tensor", ["--path=tensor", f"--K={self.tensor_K}"])):
            out = self.path(f"{label}{j}")
            code, _, err = cli(["convolve", *base, *extra, f"--out={out}"])
            if code != 0:
                problems.append(_cli_problem(f"convolve {label}", code, err))
            else:
                outputs.append((label, checks.read_field(out)[1]))
        ref = checks.expansion(product, *self.frame, self.mesh)
        for label, values in outputs:
            problems += checks.check_close(f"convolve {label} vs exact product", values, ref, self.tol)
        return problems, 0


class TensorQuat(_Workload):
    """Tensor-path twisted convolution on the quaternionic group, K = 2.

    Inputs are band-limited to K = 2 at a random frequency of size about
    0.8, so the truncated symbol product is exact.
    """

    name = "tensor-quat"
    jobs_per_round = 3
    grid = (4.0, 20)
    K = 2
    tol = 1e-5

    def setup(self):
        group = steptwo.preset("quaternionic-heisenberg")
        axis = steptwo.symmetric_axis(*self.grid)
        self.mesh = checks.mesh([axis] * 4)
        for j in range(self.jobs_per_round):
            direction = self.rng.standard_normal(3)
            tau = self.rng.uniform(0.75, 0.85) * direction / np.linalg.norm(direction)
            frame = steptwo.normalize(group, tau)
            fr = (frame.O, frame.mu_unit, frame.tau_mag)
            A = _random_coeffs(self.rng, self.K**2)
            B = _random_coeffs(self.rng, self.K**2)
            for name, C in ((f"a{j}", A), (f"b{j}", B)):
                self.save((axis,) * 4, checks.expansion(C, *fr, self.mesh), group, tau, name)
            self.cases.append((j, tau, fr, A @ B))

    def _job(self, j, tau, frame, product):
        out = self.path(f"conv{j}")
        code, _, err = cli(
            [
                "convolve",
                f"--a={self.path(f'a{j}')}",
                f"--b={self.path(f'b{j}')}",
                f"--group={QUAT}",
                f"--tau={csv(tau)}",
                "--path=tensor",
                f"--K={self.K}",
                f"--out={out}",
            ]
        )
        if code != 0:
            return [_cli_problem("convolve tensor", code, err)], 0
        ref = checks.expansion(product, *frame, self.mesh)
        return checks.check_close("convolve tensor vs exact product", checks.read_field(out)[1], ref, self.tol), 0


class GroupH1(_Workload):
    """Group convolution on H1 by both paths, then Abel summation.

    The direct and Fourier paths are different discretizations of the
    same integral; they are compared away from the window edge, where the
    periodized Fourier path wraps.
    """

    name = "group-h1"
    jobs_per_round = 4
    grid = ((5.0, 16), (8.0, 16))
    agree_tol = 2e-2
    inner = (slice(2, -2), slice(2, -2), slice(4, -4))
    abel_R = (0.5, 0.9, 0.99)

    def setup(self):
        self.group = steptwo.preset("heisenberg-1")
        ay = steptwo.symmetric_axis(*self.grid[0])
        at = steptwo.symmetric_axis(*self.grid[1])
        axes = (ay, ay, at)
        pts = checks.mesh(axes)
        for j in range(self.jobs_per_round):
            fields = []
            for name in (f"phi{j}", f"psi{j}"):
                values = self._mixture(pts)
                self.save(axes, values, self.group, None, name)
                fields.append(steptwo.SampledField(axes=axes, values=values, group=self.group))
            self.cases.append((j, fields[0]))

    def _mixture(self, pts):
        c = self.rng.standard_normal(2) + 1j * self.rng.standard_normal(2)
        o = 0.4 * self.rng.standard_normal((2, 3))
        a = 0.8 + 0.4 * self.rng.random(2)
        b = 0.6 + 0.3 * self.rng.random(2)
        return sum(
            c[i] * np.exp(-a[i] * np.sum((pts[..., :2] - o[i, :2]) ** 2, -1) - b[i] * (pts[..., 2] - o[i, 2]) ** 2)
            for i in range(2)
        )

    def _job(self, j, phi):
        problems, results = [], {}
        for path in ("direct", "fourier"):
            out = self.path(f"{path}{j}")
            code, _, err = cli(
                ["convolve", f"--a={self.path(f'phi{j}')}", f"--b={self.path(f'psi{j}')}", f"--group={H1}", f"--path={path}", f"--out={out}"]
            )
            if code != 0:
                problems.append(_cli_problem(f"convolve {path}", code, err))
            else:
                results[path] = checks.read_field(out)[1]
        if len(results) == 2:
            problems += checks.check_close(
                "group convolution direct vs fourier", results["fourier"][self.inner], results["direct"][self.inner], self.agree_tol
            )
        # Abel has no CLI command; looked up on the package so the traced run sees it
        errs = [
            float(np.abs(steptwo.abel_approx_identity(phi, self.group, R).values - phi.values).max())
            for R in self.abel_R
        ]
        problems += checks.check_strictly_decreasing("Abel sup error over R", errs)
        return problems, 0


class Kernels(_Workload):
    """Fundamental solutions on H1 and the quaternionic group, Szego kernels.

    One job per parabolic angle theta: |y|^2 = cos(theta), |t| = sin(theta)
    on the unit gauge sphere, then scaled by lambda in [0.5, 2].  The
    directions of y and t, lambda and a jitter of +-0.5 degrees on theta
    are seeded.  Each job checks the Szego kernel of one degree k at the
    unit and the scaled point; the four angles off the central axis take
    k = 1..4, so a round checks every degree where the quadrature
    converges, and the near-axis angle takes k = 1.  Running k = 1..4 in
    every job made a round about 10 s long, too long for its time to be a
    median over several rounds.  The angles sit inside the ranges where the number of
    refinement passes does not depend on the direction (2, 3, 3-4, 4 and
    all passes, from the axis of y to the central axis), so every seed
    runs the same mix of pass counts and a round costs the same; seeded
    angles over whole strata made the round time differ by a third
    between seeds.

    Near the central axis the quaternionic quadratures stop converging in
    commit 3698430 (``QuadratureError``, CLI exit 1 "did not converge"):
    the Szego kernel once |y|^2/|t| < 0.41 and the fundamental solution
    once |y|^2/|t| < 0.37, measured over many directions.  A call that
    ends that way at a ratio below the recorded bound is counted as a
    baseline failure, not as a failed check; anywhere else it fails the
    job.  A value that is returned is always checked.
    """

    name = "kernels"
    angles_deg = (12.0, 30.0, 52.0, 64.0, 80.0)
    szego_k = (1, 2, 3, 4, 1)  # Szego degree checked at each angle
    jitter_deg = 0.5
    # |y|^2/|t| below which "did not converge" is the recorded baseline
    fundamental_baseline_ratio = 0.40
    szego_baseline_ratio = 0.45
    tol_h1 = 1e-10
    tol_quat = 1e-9
    tol_szego = 1e-9
    tol_homogeneity = 1e-9

    def setup(self):
        for angle, k in zip(self.angles_deg, self.szego_k):
            theta = np.radians(angle + self.rng.uniform(-self.jitter_deg, self.jitter_deg))
            y = self.rng.standard_normal(4)
            t = self.rng.standard_normal(3)
            y *= np.sqrt(np.cos(theta)) / np.linalg.norm(y)
            t *= np.sin(theta) / np.linalg.norm(t)
            yh = self.rng.standard_normal(2)
            yh *= np.sqrt(np.cos(theta)) / np.linalg.norm(yh)
            th = np.array([np.sin(theta) * self.rng.choice([-1.0, 1.0])])
            lam = self.rng.uniform(0.5, 2.0)
            self.cases.append((y, t, yh, th, lam, k))

    def jobs(self):
        return [lambda case=case: self._job(*case) for case in self.cases]

    def _call(self, argv, y, t, baseline_ratio=0.0):
        """Run one kernel command; return (payload or None, problems, baseline)."""
        code, out, err = cli(argv)
        if code == 0:
            return json.loads(out), [], 0
        ratio = float(np.dot(y, y)) / max(float(np.linalg.norm(t)), 1e-300)
        if code == 1 and "did not converge" in err and ratio < baseline_ratio:
            return None, [], 1
        return None, [_cli_problem(f"{argv[0]} at |y|^2/|t|={ratio:.3f}", code, err)], 0

    def _job(self, y, t, yh, th, lam, k):
        problems, baseline = [], 0

        def record(result):
            nonlocal baseline
            payload, probs, base = result
            problems.extend(probs)
            baseline += base
            return payload

        Y, T = lam * yh, lam**2 * th
        res = record(self._call(["fundamental", f"--group={H1}", f"--point={csv(np.r_[Y, T])}"], Y, T))
        if res is not None:
            problems += checks.check_close("fundamental H1", res["value_re"] + 1j * res["value_im"], checks.fundamental_h1(Y, T), self.tol_h1)

        Y, T = lam * y, lam**2 * t
        res = record(self._call(
            ["fundamental", f"--group={QUAT}", f"--point={csv(np.r_[Y, T])}"], Y, T, self.fundamental_baseline_ratio
        ))
        if res is not None:
            problems += checks.check_close("fundamental quat", res["value_re"] + 1j * res["value_im"], checks.fundamental_quat(Y, T), self.tol_quat)

        zero = np.zeros(3)
        res = record(self._call(["szego", "--k=1", f"--y={csv(Y)}", f"--s={csv(zero)}"], Y, zero))
        if res is not None:
            problems += checks.check_close("szego k=1 s=0", _matrix(res), checks.szego_k1_at_s0(Y), self.tol_szego)

        bound = self.szego_baseline_ratio
        unit = record(self._call(["szego", f"--k={k}", f"--y={csv(y)}", f"--s={csv(t)}"], y, t, bound))
        scaled = record(self._call(["szego", f"--k={k}", f"--y={csv(Y)}", f"--s={csv(T)}"], Y, T, bound))
        if unit is not None and scaled is not None:
            problems += checks.check_close(
                f"szego k={k} homogeneity", _matrix(scaled), lam**checks.SZEGO_DEGREE * _matrix(unit), self.tol_homogeneity
            )
        return problems, baseline


def _matrix(payload):
    return np.asarray(payload["matrix_re"]) + 1j * np.asarray(payload["matrix_im"])


WORKLOADS = {w.name: w for w in (TwistedH1, TensorQuat, Kernels, GroupH1)}
