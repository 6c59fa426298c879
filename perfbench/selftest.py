"""The benchmark's own tests.

    python3 perfbench/selftest.py

They use short jobs only (about ten seconds in all) and are kept out of the
repository's pytest suite on purpose: they test the benchmark, not the
program.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction

from run import ROOT, WORK_DIR, clean_env, tally
from tracer import per_layer_metric_names
from worker import HERE, run_job
from workloads import check_job, load_reference

# Job indices with short run times, per workload.
SHORT = {"certify": (0, 1, 3), "keylemma": (0,), "verify": (1, 2, 3)}

# Runs worker.main in a fresh interpreter on a subset of a workload's jobs.
SUBSET = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); import workloads, worker; "
    "w, keep = sys.argv.pop(1), [int(i) for i in sys.argv.pop(1).split(',')]; "
    "workloads.WORKLOADS[w] = tuple(workloads.WORKLOADS[w][i] for i in keep); "
    "sys.exit(worker.main(sys.argv[1:]))"
)


def worker(workload: str, jobs: tuple[int, ...], *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", SUBSET, str(HERE), workload, ",".join(map(str, jobs)),
         "--workload", workload, "--seed", "5", *args],
        cwd=ROOT, env=clean_env(), capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class GateTest(unittest.TestCase):
    def test_seed_results_pass(self):
        for workload, jobs in SHORT.items():
            result = worker(workload, jobs)
            self.assertEqual(tally([result])[1], 0, result["jobs"])

    def test_raised_bound_fails(self):
        key = "certify --matmul 3,3,3 --p 1"
        code, stdout, _, _ = run_job(key.split() + ["--seed", "3"])
        reference = load_reference()
        self.assertEqual(check_job(key, code, stdout, reference), [])
        reference[key]["bound"] += 1
        problems = check_job(key, code, stdout, reference)
        self.assertEqual(len(problems), 1)
        self.assertIn("bound", problems[0])

    def test_lower_trial_rank_fails(self):
        key = "certify --matmul 3,3,3 --p 1"
        code, stdout, _, _ = run_job(key.split() + ["--seed", "3"])
        payload = json.loads(stdout)
        self.assertEqual(check_job(key, code, stdout, load_reference()), [])
        payload["trial_ranks"][1] -= 1
        self.assertTrue(check_job(key, code, json.dumps(payload), load_reference()))

    def test_full_rank_shortcut_fails(self):
        # The generated tensor's flattening (160 x 160) has rank 120: a rank
        # or structure shortcut that assumes full rank must fail the gate.
        key = "certify --tensor <tensor> --p 2"
        full = {"bound": 27, "flattening_rank": 160, "trial_ranks": [160, 160, 160]}
        problems = check_job(key, 0, json.dumps(full), load_reference())
        self.assertEqual(len(problems), 3, problems)

    def test_witness_is_replayed(self):
        key = "keylemma --n 4 --p 1"
        reference = {key: {"exit": 0, "h_required": 4}}
        code, stdout, _, _ = run_job(key.split() + ["--seed", "2"])
        self.assertEqual(check_job(key, code, stdout, reference), [])
        payload = json.loads(stdout)
        forged = copy.deepcopy(payload)
        forged["grid_det"] = str(Fraction(payload["grid_det"]) + 1)
        self.assertTrue(check_job(key, code, json.dumps(forged), reference))
        forged = copy.deepcopy(payload)
        forged["h_achieved"] += 1
        self.assertTrue(check_job(key, code, json.dumps(forged), reference))

    def test_intentional_refutation_is_expected(self):
        key = "verify --suite remark-imp --format json"
        reference = load_reference()
        self.assertEqual(reference[key]["exit"], 1)
        self.assertIs(reference[key]["verdicts"]["p4-diagonal-excludes-extremes"], False)
        code, stdout, _, _ = run_job(key.split() + ["--seed", "0"])
        self.assertEqual(check_job(key, code, stdout, reference), [])
        flipped = json.loads(stdout)
        for check in flipped["checks"]:
            check["passed"] = True
        self.assertTrue(check_job(key, 0, json.dumps(flipped), reference))


class TraceTest(unittest.TestCase):
    def test_untraced_pass_installs_nothing(self):
        result = worker("verify", (2,))
        self.assertEqual(result["wrappers_installed"], 0)
        self.assertNotIn("layers", result)

    def test_counts_repeat_and_cover_every_metric(self):
        names = [name for name, _ in per_layer_metric_names()]
        for workload, jobs in SHORT.items():
            runs = [
                worker(workload, jobs, "--trace", "1")["layers"]
                for _ in range(2)
            ]
            self.assertEqual(sorted(runs[0]), sorted(names))
            counts = [
                {k: v for k, v in layers.items() if not k.endswith(("self_s", "evals_per_s"))}
                for layers in runs
            ]
            self.assertEqual(counts[0], counts[1], workload)
            self.assertGreater(runs[0]["cli.main.calls"], 0)


class HarnessTest(unittest.TestCase):
    def test_refuses_a_checkout_without_the_program(self):
        bare = WORK_DIR / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "certify", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
