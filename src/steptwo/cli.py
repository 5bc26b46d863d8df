"""Command-line interface.

One subcommand per public operation family.  Domain errors exit with
status 1 and a message naming the violated precondition; usage errors
exit with status 2 (argparse's convention); a reader that closes stdout
early ends the run quietly with status 1.  All output is deterministic
for a fixed command line and seed, independent of the thread count.
"""

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import fields, groups, kernels, laguerre, spectral, tensors
from .errors import SteptwoError
from .selftest import SUITES, run_suite


def _checked(convert, ok, expected):
    """An argparse type: ``convert`` the text and require ``ok`` of it, so a
    bad value exits 2 with a message naming the option."""

    def parse(text):
        try:
            value = convert(text)
        except (ValueError, SteptwoError):
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


def _split(text, convert):
    return [convert(v) for v in text.split(",") if v != ""]


def _symmetric_axis(text):
    radius, count = text.split(",")
    count = int(count)
    return fields.symmetric_axis(float(radius), count) if count >= 2 else None


_floats = _checked(
    lambda t: np.array(_split(t, float)),
    lambda v: np.isfinite(v).all(),
    "comma-separated finite numbers",
)
_number = _checked(float, math.isfinite, "a finite number")
_tolerance = _checked(float, lambda v: 0 < v < math.inf, "a positive number")
_ints = _checked(lambda t: tuple(_split(t, int)), bool, "comma-separated integers")
_count = _checked(int, lambda v: v >= 1, "a positive integer")
_seed = _checked(int, lambda v: v >= 0, "a non-negative integer")
_grid_axis = _checked(
    _symmetric_axis, bool, "radius,count with radius > 0 and count >= 2"
)


def _load_group(spec):
    if spec.startswith("preset:"):
        return groups.preset(spec[len("preset:"):])
    try:
        return groups.load_group(spec)
    except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
        raise SteptwoError(f"malformed group file {spec!r}: {exc}") from exc


def _write(args, text):
    """Write a report to --out when given, else to stdout."""
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(args, payload):
    _write(args, json.dumps(payload, indent=2, sort_keys=True))


def cmd_group(args):
    g = _load_group(args.group)
    _emit(args, {"n": g.n, "r": g.r, "m": g.m, "B": [b.tolist() for b in g.B]})
    return 0


def cmd_spectral_normalize(args):
    g = _load_group(args.group)
    fr = spectral.normalize(g, args.tau, tol=args.tol)
    resid, ortho = fr.residuals(g.b_tau(args.tau))
    _emit(
        args,
        {
            "tau": args.tau.tolist(),
            "mu": fr.mu.tolist(),
            "min_gap": fr.min_gap,
            "O": fr.O.tolist(),
            "residual_normal_form": resid,
            "residual_orthogonality": ortho,
        },
    )
    return 0


def cmd_spectral_scan(args):
    g = _load_group(args.group)
    rng = np.random.default_rng(args.seed)
    samples = rng.standard_normal((args.samples, g.r))
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    report = spectral.degeneracy_scan(g, samples, tol=args.tol)
    lines = [
        ",".join(
            [f"tau{i}" for i in range(g.r)]
            + [f"mu{j}" for j in range(g.n)]
            + ["min_gap", "flagged"]
        )
    ]
    for row in report.rows:
        lines.append(
            ",".join(
                [repr(float(v)) for v in row.tau]
                + [repr(float(v)) for v in row.mu]
                + [repr(float(row.min_gap)), str(int(row.flagged))]
            )
        )
    _write(args, "\n".join(lines))
    return 0


def cmd_laguerre_eval(args):
    _emit(
        args,
        {
            "k": args.k,
            "p": args.p,
            "sigma": args.sigma,
            "polynomial": laguerre.laguerre_poly(args.k, args.p, args.sigma).item(),
            "normalized": laguerre.laguerre_l(args.k, args.p, args.sigma).item(),
        },
    )
    return 0


def cmd_laguerre_field(args):
    g = _load_group(args.group)
    fr = spectral.normalize(g, args.tau)
    idx = laguerre.raw_index(args.k, args.p)
    field = fields.SampledField.from_function(
        (args.grid,) * g.m,
        lambda p: laguerre.exp_laguerre(fr, idx, p),
        group=g,
        tau=args.tau,
    )
    field.to_csv(args.out)
    return 0


def cmd_convolve(args):
    g = _load_group(args.group)
    a = fields.SampledField.load(args.a)
    b = fields.SampledField.load(args.b)
    if args.tau is not None:
        if args.path == "direct":
            out = fields.twisted_convolve(a, b, g, args.tau)
        elif args.path == "tensor":
            fr = spectral.normalize(g, args.tau)
            T = tensors.tensor_multiply(
                tensors.laguerre_coefficients(a, fr, args.K),
                tensors.laguerre_coefficients(b, fr, args.K),
            )
            out = a.with_values(
                tensors.synthesize(T, a.mesh())
            )
        else:
            raise SteptwoError(
                "twisted convolution supports --path direct or tensor"
            )
    else:
        if args.path == "direct":
            out = fields.group_convolve(a, b, g)
        elif args.path == "fourier":
            out = fields.group_convolve_fourier(a, b, g)
        else:
            raise SteptwoError(
                "group convolution supports --path direct or fourier "
                "(pass --tau for the tensor path)"
            )
    if args.csv:
        out.to_csv(args.csv)
    if args.out:
        out.save(args.out)
    if not args.csv and not args.out:
        raise SteptwoError("convolve needs --out and/or --csv")
    return 0


def _tensor_payload(T, g):
    return {
        "K": T.K,
        "tau": np.asarray(T.frame.tau).tolist(),
        "group": json.loads(g.to_json()),
        "entries_re": T.entries.real.tolist(),
        "entries_im": T.entries.imag.tolist(),
    }


def _load_tensor(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
            g = groups.group_from_dict(data["group"])
            tau = np.asarray(data["tau"], dtype=float)
            entries = np.asarray(data["entries_re"]) + 1j * np.asarray(
                data["entries_im"]
            )
            K = data["K"]
        except (ValueError, KeyError, TypeError) as exc:
            raise SteptwoError(f"malformed tensor file {path!r}: {exc!r}") from exc
    fr = spectral.normalize(g, tau)
    return tensors.LaguerreTensor(frame=fr, K=K, entries=entries), g


def cmd_tensor_of_field(args):
    g = _load_group(args.group)
    f = fields.SampledField.load(args.field)
    fr = spectral.normalize(g, args.tau)
    T = tensors.laguerre_coefficients(f, fr, args.K)
    _emit(args, _tensor_payload(T, g))
    return 0


def cmd_tensor_multiply(args):
    A, g = _load_tensor(args.a)
    B, _ = _load_tensor(args.b)
    _emit(args, _tensor_payload(tensors.tensor_multiply(A, B), g))
    return 0


def cmd_fundamental(args):
    g = _load_group(args.group)
    coords = args.point
    if coords.size != g.dim:
        raise SteptwoError(
            f"--point needs {g.dim} comma-separated coordinates "
            f"(2n={g.m} horizontal then r={g.r} central), got {coords.size}"
        )
    y, t = coords[: g.m], coords[g.m :]
    quad = dict(radial=args.radial, sphere_level=args.sphere_level, tol=args.tol)
    if args.grid:
        # horizontal grid sweep at the fixed central part; the singular
        # y = 0 lattice point (where the kernel needs analytic
        # continuation) is skipped
        axes = (args.grid,) * g.m
        rows = []
        for yy in fields.lattice_points([a.points() for a in axes]):
            if np.linalg.norm(yy) < 1e-12:
                continue
            res = kernels.fundamental_solution(g, yy, t, **quad)
            rows.append(
                list(yy)
                + list(t)
                + [res.value.real, res.value.imag, res.est_error]
            )
        header = ",".join(
            [f"y{i}" for i in range(g.m)]
            + [f"t{i}" for i in range(g.r)]
            + ["value_re", "value_im", "est_error"]
        )
        _write(
            args,
            "\n".join(
                [header] + [",".join(repr(float(v)) for v in r) for r in rows]
            ),
        )
        return 0
    res = kernels.fundamental_solution(g, y, t, **quad)
    _emit(
        args,
        {
            "point": coords.tolist(),
            "value_re": float(res.value.real),
            "value_im": float(res.value.imag),
            "est_error": res.est_error,
            "nodes_used": res.nodes_used,
        },
    )
    return 0


def cmd_szego(args):
    res = kernels.szego_kernel(args.k, args.y, args.s)
    _emit(
        args,
        {
            "k": args.k,
            "y": args.y.tolist(),
            "s": args.s.tolist(),
            "matrix_re": res.value.real.tolist(),
            "matrix_im": res.value.imag.tolist(),
            "est_error": res.est_error,
            "nodes_used": res.nodes_used,
        },
    )
    return 0


def cmd_selftest(args):
    report, ok = run_suite(args.suite, seed=args.seed, threads=args.threads)
    print(report)
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="steptwo",
        description=(
            "Laguerre calculus on step-two nilpotent Lie groups: normal "
            "forms, Laguerre bases, twisted convolution, kernel integrals. "
            "Groups are given as preset:NAME (heisenberg-N, "
            "quaternionic-heisenberg) or a JSON file {n, r, B}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="validate and print a group definition")
    p.add_argument("--group", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("spectral", help="normal forms and degeneracy scans")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    pn = ssub.add_parser("normalize")
    pn.add_argument("--group", required=True)
    pn.add_argument(
        "--tau", type=_floats, required=True, help="comma-separated frequency"
    )
    pn.add_argument("--tol", type=_tolerance, default=spectral.DEGENERACY_RTOL)
    pn.add_argument("--out")
    pn.set_defaults(fn=cmd_spectral_normalize)
    ps = ssub.add_parser("scan")
    ps.add_argument("--group", required=True)
    ps.add_argument("--samples", type=_count, default=100)
    ps.add_argument("--seed", type=_seed, default=0)
    ps.add_argument("--tol", type=_tolerance, default=spectral.DEGENERACY_RTOL)
    ps.add_argument("--out")
    ps.set_defaults(fn=cmd_spectral_scan)

    p = sub.add_parser("laguerre", help="Laguerre values and basis fields")
    lsub = p.add_subparsers(dest="subcommand", required=True)
    pe = lsub.add_parser("eval")
    pe.add_argument("--k", type=int, required=True)
    pe.add_argument("--p", type=int, required=True)
    pe.add_argument("--sigma", type=_number, required=True)
    pe.add_argument("--out")
    pe.set_defaults(fn=cmd_laguerre_eval)
    pf = lsub.add_parser("field")
    pf.add_argument("--group", required=True)
    pf.add_argument("--tau", type=_floats, required=True)
    pf.add_argument(
        "--k", type=_ints, required=True, help="comma-separated radial indices"
    )
    pf.add_argument(
        "--p", type=_ints, required=True, help="comma-separated angular indices"
    )
    pf.add_argument(
        "--grid", type=_grid_axis, default="6,64", help="radius,count per axis"
    )
    pf.add_argument("--out", required=True, help="CSV output path")
    pf.set_defaults(fn=cmd_laguerre_field)

    p = sub.add_parser(
        "convolve",
        help="group convolution (no --tau: direct|fourier) or twisted "
        "convolution at --tau (direct|tensor)",
    )
    p.add_argument("--a", required=True, help="field container path")
    p.add_argument("--b", required=True, help="field container path")
    p.add_argument("--group", required=True)
    p.add_argument("--path", choices=["direct", "fourier", "tensor"], default="direct")
    p.add_argument("--tau", type=_floats)
    p.add_argument("--K", type=_count, default=8, help="truncation for --path tensor")
    p.add_argument("--out", help="binary field output")
    p.add_argument("--csv", help="CSV output")
    p.set_defaults(fn=cmd_convolve)

    p = sub.add_parser("tensor", help="Laguerre tensors of sampled fields")
    tsub = p.add_subparsers(dest="subcommand", required=True)
    tf = tsub.add_parser("of-field")
    tf.add_argument("--field", required=True)
    tf.add_argument("--group", required=True)
    tf.add_argument("--tau", type=_floats, required=True)
    tf.add_argument("--K", type=_count, default=8)
    tf.add_argument("--out")
    tf.set_defaults(fn=cmd_tensor_of_field)
    tm = tsub.add_parser("multiply")
    tm.add_argument("--a", required=True, help="tensor JSON path")
    tm.add_argument("--b", required=True, help="tensor JSON path")
    tm.add_argument("--out")
    tm.set_defaults(fn=cmd_tensor_multiply)

    p = sub.add_parser("fundamental", help="fundamental solution values")
    p.add_argument("--group", required=True)
    p.add_argument(
        "--point",
        type=_floats,
        required=True,
        help="2n horizontal then r central coordinates, comma-separated",
    )
    p.add_argument(
        "--grid",
        type=_grid_axis,
        help="radius,count: sweep the horizontal plane at the fixed central "
        "part and emit CSV (y = 0 skipped)",
    )
    p.add_argument("--radial", type=_count, default=120)
    p.add_argument("--sphere-level", type=_count, default=24)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_fundamental)

    p = sub.add_parser("szego", help="Szego kernel matrix at a point")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--y", type=_floats, required=True, help="4 comma-separated coordinates"
    )
    p.add_argument(
        "--s", type=_floats, required=True, help="3 comma-separated coordinates"
    )
    p.add_argument("--out")
    p.set_defaults(fn=cmd_szego)

    p = sub.add_parser("selftest", help="run the invariant battery")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument(
        "--threads",
        type=_count,
        default=os.environ.get("STEPTWO_THREADS", "1"),
        help="worker threads for the battery (env STEPTWO_THREADS)",
    )
    p.set_defaults(fn=cmd_selftest)
    return parser


def _attach_negative_values(argv):
    """Spell ``--opt -0.5,0.2`` as ``--opt=-0.5,0.2``: argparse would read
    a separate value list that starts with ``-`` as an unknown option."""
    out = []
    for tok in argv:
        if out and re.match(r"--[^=]+$", out[-1]) and re.match(r"-\.?\d", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def run(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_attach_negative_values(argv))
    try:
        return args.fn(args)
    except SteptwoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        raise
    except OSError as exc:
        print(f"error: cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): end quietly, with
        # stdout pointed at devnull so the interpreter's final flush
        # cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
