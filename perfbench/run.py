"""CLI-level benchmark of steptwo: one workload per invocation.

    python3 perfbench/run.py --workload twisted-h1 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src``
there.  Each job is a short list of ``steptwo.cli.run`` calls made in
process (closed loop, one client), plus a check of their output against
an independent reference.  Every measurement runs in a fresh worker
process with BLAS and OpenMP pools pinned to one thread.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
several worker starts of the time from process start to the first job),
``wall_s`` (time of one round of the workload's fixed job list, summed
from each job's median time), ``job_p50_s`` (median over the jobs of
their median time) and ``peak_rss_mb`` (peak resident set of the worker
that ran the jobs).  ``--trace 1`` runs the job list once with spans
around each layer's public functions, then untraced for the rest of the
time, and prints the per-layer metrics and the tracing overhead.  The
worker starts count against ``--seconds``, so a run lasts about that.

The last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record (machine, versions, source
revision, raw timings, failed checks) goes to ``.perfbench/results``; the
spans of a traced run go beside it.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("twisted-h1", "tensor-quat", "kernels", "group-h1")
SETUPS = 5  # worker starts per run that contribute a set-up sample
BLAS_THREADS = 1
DEADLINE_S = 170.0  # every worker is stopped before the run reaches this
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class WorkerError(RuntimeError):
    pass


def git_revision():
    """Commit of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def machine():
    uname = os.uname()
    return {
        "system": f"{uname.sysname} {uname.release}",
        "machine": uname.machine,
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
    }


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args, deadline, extra):
    """Run one worker to completion; its JSON line plus the set-up time."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("no time left for another worker")
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--out-dir={OUT}",
        *extra,
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerError(f"worker exceeded the {DEADLINE_S:.0f} s budget") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, deadline):
    started = time.monotonic()
    setups = [spawn(args, deadline, ["--setup-only"])["setup_s"] for _ in range(SETUPS - 1)]
    # the set-up samples and the job worker's own set-up count against --seconds
    left = args.seconds - (time.monotonic() - started) - statistics.median(setups)
    run = spawn(args, deadline, [f"--seconds={max(left, 0.0)}"])
    setups.append(run["setup_s"])
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(run["round_s"], "s"),
        "job_p50_s": metric(run["job_p50_s"], "s"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
    }
    return metrics, [run], {"setup_samples_s": setups}


def per_layer(args, deadline):
    started = time.monotonic()
    traced = spawn(args, deadline, ["--seconds=0", "--trace"])
    left = args.seconds - (time.monotonic() - started) - traced["setup_s"]
    plain = spawn(args, deadline, [f"--seconds={max(left, 0.0)}"])
    metrics = {name: metric(value, unit) for name, (value, unit) in traced["layers"].items()}
    traced_wall = traced["round_s"]
    plain_wall = plain["round_s"]
    metrics["trace.wall_s"] = metric(traced_wall, "s")
    metrics["trace.overhead_s"] = metric(traced_wall - plain_wall, "s")
    return metrics, [plain, traced], {}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "steptwo" / "__init__.py").is_file():
        print(f"error: no steptwo sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, workers, extra = measure(args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    baseline = sum(w["baseline_failures"] for w in workers)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "revision": git_revision(),
        "machine": machine(),
        "versions": workers[0]["versions"],
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "baseline_failures": baseline,
        "problems": [p for w in workers for p in w["problems"]],
        "rounds_s": [w["rounds_s"] for w in workers],
        "jobs_s": [w["jobs_s"] for w in workers],
        **extra,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# revision {record['revision']}; {json.dumps(record['machine'])}; {json.dumps(record['versions'])}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(
        f"# jobs attempted {attempted}, failed {failed} ({failed / attempted:.1%}); "
        f"quadrature calls ending in the recorded near-axis non-convergence: {baseline}"
    )
    for problem in record["problems"][:5]:
        print(f"# FAILED: {problem.splitlines()[0]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
