"""Regenerate reference.json from the program in this checkout.

    python3 perfbench/freeze.py [--seeds 1,2,3] [--workload certify ...]

Run it only on the commit whose results are the reference (the seed commit
of the benchmark).  Every job runs once per listed workload seed; a field that
differs between seeds is an error, because the gate compares against one
frozen value per job whatever seed the benchmark is given.
"""

from __future__ import annotations

import argparse
import json
import sys

from worker import WORK_DIR, _cleanup, run_job
from workloads import REFERENCE, WORKLOADS, build_jobs, observed_fields


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    seeds = [int(x) for x in args.seeds.split(",")]
    try:
        with open(REFERENCE, encoding="utf-8") as handle:
            reference = json.load(handle)
    except FileNotFoundError:
        reference = {}
    for workload in args.workload or sorted(WORKLOADS):
        for seed in seeds:
            jobs = build_jobs(workload, seed, 0, WORK_DIR)
            for key, job_argv in jobs:
                code, stdout, stderr, error = run_job(job_argv)
                if error:
                    print(f"error: {job_argv} raised:\n{error}", file=sys.stderr)
                    return 1
                fields = observed_fields(key, code, stdout)
                if seed != seeds[0] and reference.get(key) != fields:
                    print(f"error: {key!r} depends on the seed: {reference.get(key)} vs {fields}", file=sys.stderr)
                    return 1
                reference[key] = fields
                print(f"seed {seed}: {key}: {json.dumps(fields)[:120]}", flush=True)
            _cleanup(jobs)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
