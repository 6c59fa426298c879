"""Benchmark entry point: one workload, one seed, printed metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Every pass of the workload runs in a
fresh interpreter (worker.py) with KOSZUL_RANK_THREADS removed from its
environment; nothing is installed or built.

--trace 0  set-up probes, then passes with fresh derived job seeds until
           --seconds have been measured (at least MIN_PASSES); prints the
           end-to-end metrics.
--trace 1  pass 0 untraced, then pass 0 again with the outside-in tracer;
           prints the per-layer metrics and the tracing overhead.

The last stdout line is the result object; the line before it records the
run (commit, Python, nproc, seed, job count, per-job latencies, failures).
Exit code 2 means the checkout holds no program to measure; 1 means a pass
crashed or overran the time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import kernel_s, to_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
WORKLOADS = ("certify", "keylemma", "verify")
SETUP_PROBES = 5
# A certify or keylemma pass takes 13-22 s, so one pass often fills a
# 20-second run; two passes give every median at least two samples.
MIN_PASSES = 2
DEADLINE_S = 170.0  # every run must end within 180 s


class PassError(RuntimeError):
    pass


def clean_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "KOSZUL_RANK_THREADS"}
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git; 'unknown' outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
            return next(line.split()[0] for line in packed if line.endswith(" " + name))
        return ref
    except (OSError, StopIteration):
        return "unknown"


def run_worker(args: list[str], deadline: float) -> tuple[dict, float, float]:
    """Run worker.py to completion.

    Returns its JSON result, the set-up time in wall seconds (spawn until the
    first job could be issued), and the calibration kernel time just before
    the spawn.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise PassError("out of time before starting a pass")
    kernel = kernel_s()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=clean_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise PassError(f"pass {args} overran the time limit") from None
    if proc.returncode != 0:
        raise PassError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["setup_done"] - spawned, kernel


def tally(passes: list[dict]) -> tuple[int, int, list[dict]]:
    attempted = failed = 0
    failures = []
    for result in passes:
        for job in result["jobs"]:
            attempted += 1
            if job["problems"] or not job["completed"]:
                failed += 1
                failures.append({"argv": job["argv"], "problems": job["problems"], "stderr": job["stderr"]})
    return attempted, failed, failures


def plain_run(workload: str, seed: int, seconds: float, deadline: float, info: dict) -> dict:
    setup, setup_wall = [], []
    for _ in range(SETUP_PROBES):
        _, wall, before = run_worker(["--workload", workload, "--seed", str(seed), "--setup-only"], deadline)
        setup.append(to_reference(wall, [before, kernel_s()]))
        setup_wall.append(wall)
    passes = []
    measured = 0.0
    while len(passes) < MIN_PASSES or measured < seconds:
        result, wall, before = run_worker(
            ["--workload", workload, "--seed", str(seed), "--pass-index", str(len(passes))], deadline
        )
        setup.append(to_reference(wall, [before, result["kernel_s"][0]]))
        setup_wall.append(wall)
        if result["wrappers_installed"] or result["threads_env"] is not None:
            raise PassError("an untraced pass ran with wrappers or KOSZUL_RANK_THREADS")
        passes.append(result)
        measured += result["timed_s"]

    jobs = [job for result in passes for job in result["jobs"]]
    latencies = [job["latency_s"] for job in jobs]
    completed = sum(job["completed"] for job in jobs)
    attempted, failed, failures = tally(passes)
    info.update(
        passes=len(passes),
        setup_samples=len(setup),
        job_latency_samples=len(latencies),
        jobs=[[job["key"], round(job["latency_s"], 4), round(job["wall_s"], 4)] for job in passes[0]["jobs"]],
        wall=dict(
            setup_s=statistics.median(setup_wall),
            jobs_per_s=completed / sum(result["timed_s"] for result in passes),
            job_p50_s=statistics.median(job["wall_s"] for job in jobs),
            pass_timed_s=[result["timed_s"] for result in passes],
        ),
        kernel_median_s=statistics.median(k for result in passes for k in result["kernel_s"]),
        fail_ratio=failed / attempted,
        failures=failures,
    )
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (completed / sum(result["reference_s"] for result in passes), "jobs/s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_max_s": (statistics.median(max(j["latency_s"] for j in r["jobs"]) for r in passes), "s"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(result["peak_rss_mb"] for result in passes), "MB"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def traced_run(workload: str, seed: int, deadline: float, info: dict) -> dict:
    from tracer import per_layer_metric_names

    base = ["--workload", workload, "--seed", str(seed), "--pass-index", "0"]
    untraced, _, _ = run_worker(base, deadline)
    WORK_DIR.mkdir(exist_ok=True)
    spans_path = WORK_DIR / f"trace-{workload}-seed{seed}.jsonl.gz"
    traced, _, _ = run_worker(base + ["--trace", "1", "--spans", str(spans_path)], deadline)
    if untraced["wrappers_installed"]:
        raise PassError("the untraced pass installed wrappers")
    overhead = traced["reference_s"] - untraced["reference_s"]
    attempted, failed, failures = tally([untraced, traced])
    info.update(
        untraced_s=untraced["reference_s"],
        traced_s=traced["reference_s"],
        untraced_wall_s=untraced["timed_s"],
        traced_wall_s=traced["timed_s"],
        trace_overhead_s=overhead,
        wrappers_installed=traced["wrappers_installed"],
        spans=traced.get("spans"),
        span_file=str(spans_path.relative_to(ROOT)),
        jobs=[[job["key"], round(job["latency_s"], 4)] for job in untraced["jobs"]],
        fail_ratio=failed / attempted,
        failures=failures,
    )
    metrics = {name: (traced["layers"][name], unit) for name, unit in per_layer_metric_names()}
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / untraced["reference_s"], "ratio")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "koszul_rank" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'koszul_rank'} is missing", file=sys.stderr)
        return 2

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    try:
        if args.trace:
            outcome = traced_run(args.workload, args.seed, deadline, info)
        else:
            outcome = plain_run(args.workload, args.seed, args.seconds, deadline, info)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info["job_count"] = outcome["attempted"]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
