"""One pass of a workload in a fresh interpreter.

Started by run.py, never by hand: it imports the program from ``src`` of the
checkout, builds the pass's jobs and inputs, marks the end of set-up with a
CLOCK_MONOTONIC stamp, then runs every job in order through
``koszul_rank.cli.main(argv)`` with stdout and stderr captured (one client,
closed loop, one thread).  After the timed phase it checks every result
against the frozen reference and prints one JSON line for run.py.

With ``--trace 1`` the tracer wraps the layers for the timed phase only and
writes its spans to ``--spans``.  Without it no wrapper is installed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def run_job(argv: list[str]) -> tuple[int, str, str, str]:
    """(exit code, stdout, stderr, error) of one in-process CLI call."""
    from koszul_rank import cli

    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a raising job is a failed job, not a crashed benchmark
            code, error = -1, traceback.format_exc(limit=3)
    return code, out.getvalue(), err.getvalue(), error


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="span file written by a traced pass")
    args = parser.parse_args(argv)

    import koszul_rank.cli  # noqa: F401  (set-up cost: the user entry point)

    if not Path(koszul_rank.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: koszul_rank imported from {koszul_rank.cli.__file__}", file=sys.stderr)
        return 2
    from calib import SpeedSampler, kernel_s, to_reference
    from workloads import build_jobs, check_job, load_reference

    jobs = build_jobs(args.workload, args.seed, args.pass_index, WORK_DIR)
    setup_done = time.monotonic()
    if args.setup_only:
        _cleanup(jobs)
        print(json.dumps({"setup_done": setup_done}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    kernel = [kernel_s()]
    for index, (key, job_argv) in enumerate(jobs):
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            if tracer is None:
                outcome = run_job(job_argv)
            else:
                tracer.job = index
                outcome = tracer.call("cli.main", run_job, job_argv)
            latency = time.perf_counter() - t0
        kernel.append(kernel_s())
        reference_s = to_reference(latency, [kernel[-2], *sampler.samples, kernel[-1]], sampler.spent_s)
        results.append((key, job_argv, latency, reference_s, outcome))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wrappers = 0
    if tracer is not None:
        wrappers = tracer.installed
        tracer.uninstall()

    reference = load_reference()
    report = []
    for key, job_argv, latency, reference_s, (code, stdout, stderr, error) in results:
        problems = [error.strip()] if error else check_job(key, code, stdout, reference)
        report.append({
            "key": key,
            "argv": job_argv,
            "wall_s": latency,
            "latency_s": reference_s,
            "completed": not error,
            "problems": problems,
            "stderr": stderr[-500:],
        })
    payload = {
        "setup_done": setup_done,
        "timed_s": sum(r[2] for r in results),
        "reference_s": sum(job["latency_s"] for job in report),
        "kernel_s": kernel,
        "peak_rss_mb": peak_rss_mb,
        "jobs": report,
        "wrappers_installed": wrappers,
        "threads_env": os.environ.get("KOSZUL_RANK_THREADS"),
    }
    if tracer is not None:
        # per-layer times in reference seconds too, at the pass's mean speed
        speed = payload["reference_s"] / payload["timed_s"] if payload["timed_s"] else 1.0
        payload["layers"] = {
            name: value * speed if name.endswith("self_s") else value / speed if name.endswith("_per_s") else value
            for name, value in tracer.metrics().items()
        }
        if args.spans:
            payload["spans"] = tracer.write(
                args.spans, {"workload": args.workload, "seed": args.seed, "jobs": [j[0] for j in jobs]}
            )
    _cleanup(jobs)
    print(json.dumps(payload))
    return 0


def _cleanup(jobs) -> None:
    for _key, job_argv in jobs:
        for item in job_argv:
            if item.startswith(str(WORK_DIR)):
                Path(item).unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
