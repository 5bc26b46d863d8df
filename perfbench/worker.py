"""One workload process: import, set up, then run the job list in rounds.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Prints one JSON line.  ``ready`` is the monotonic clock reading
when set-up ended (import, group and preset construction, input
generation, input files written); the parent subtracts its own reading
from just before the process was started.  With ``--setup-only`` the
process stops there.  Otherwise it runs the fixed job list once, then
keeps cycling through it while the next job still fits in ``--seconds``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    import numpy
    import scipy
    import steptwo  # noqa: F401

    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        jobs = workload.jobs()
        ready = time.monotonic()
        result = {"ready": ready}
        if not args.setup_only:
            result.update(run_rounds(jobs, args.seconds, tracer))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
        if tracer:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            tracer.write(os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def run_rounds(jobs, seconds, tracer):
    """Run the job list once, then keep cycling through it while time is left.

    After the first round a job starts only if its median time still fits
    in ``seconds``, so the whole budget is measured even when a round is a
    large share of it; jobs early in the list may get one sample more.
    """
    rounds, problems = [], []
    job_times = [[] for _ in jobs]  # per job, one time per execution
    attempted = failed = baseline = 0
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for index, job in enumerate(jobs):
            if rounds and time.perf_counter() - start + statistics.median(job_times[index]) > seconds:
                break
            if tracer:
                tracer.job = f"r{len(rounds)}j{index}"
            t_job = time.perf_counter()
            try:
                job_problems, job_baseline = job()
            except Exception:  # a job that raises is a failed job, not a dead run
                job_problems, job_baseline = [traceback.format_exc(limit=3)], 0
            job_times[index].append(time.perf_counter() - t_job)
            attempted += 1
            baseline += job_baseline
            if job_problems:
                failed += 1
                problems.extend(job_problems)
        else:
            rounds.append(time.perf_counter() - t_round)
            continue
        break
    medians = [statistics.median(times) for times in job_times]
    return {
        "rounds_s": rounds,
        "jobs_s": job_times,
        # one round as the sum of each job's median time, and the typical
        # job as the median of those, so that a burst of load on the host
        # during a few jobs does not count
        "round_s": sum(medians),
        "job_p50_s": statistics.median(medians),
        "attempted": attempted,
        "failed": failed,
        "baseline_failures": baseline,
        "problems": problems[:20],
    }


if __name__ == "__main__":
    main()
