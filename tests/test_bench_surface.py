"""The benchmark's tracer and correctness gate still fit the package surface.

perfbench/tracer.py wraps package functions and ExactMatrix.__mul__ by
name, reads symbolic grids through SymbolicBlockMatrix.labels and counts
key-lemma samples through the evaluate field of each stage's
PolynomialEvaluator, and reads rows and cols of the matrices it counts;
perfbench/workloads.py replays key-lemma witnesses from the CLI's JSON.  Both are loaded by path
and only read here.
"""

import importlib.util
import inspect
import json
from pathlib import Path

from koszul_rank import cli, flattening

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_traced_keylemma_run(capsys, n, p):
    tracer_module, workloads = load("tracer"), load("workloads")
    assert next(iter(inspect.signature(flattening.assemble).parameters)) == "sym"
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert tracer.installed > 0
        assert cli.main(["flatten", "--p", "2", "--numeric", "--n", "2"]) == 0
        capsys.readouterr()
        matmul_calls = tracer.calls["exact_linalg.matmul"]
        scalar_mults = tracer.counts["exact_linalg.matmul.scalar_mults"]
        assert cli.main(["keylemma", "--n", n, "--p", p]) == 0
        witness = json.loads(capsys.readouterr().out)
    finally:
        tracer.uninstall()
    assert tracer.installed == 0
    assert tracer.counts["flattening.assemble.blocks_nonzero"] > 0
    # the tracer wraps ExactMatrix.__mul__ by name; the final exact check of
    # the key-lemma run multiplies through it
    assert tracer.calls["exact_linalg.matmul"] > matmul_calls
    assert tracer.counts["exact_linalg.matmul.scalar_mults"] > scalar_mults
    # a stage evaluator that is not a PolynomialEvaluator would escape this count
    evaluations = tracer.counts["keylemma.evaluate.evaluations"]
    assert evaluations > 0
    assert tracer.counts["keylemma.evaluate.zero_evaluations"] <= evaluations
    assert workloads._check_witness(witness) == []


def test_traced_cli_runs_keep_the_benchmark_surface(capsys):
    check_traced_keylemma_run(capsys, "4", "2")


def test_traced_p1_keylemma_run_keeps_the_benchmark_surface(capsys):
    # the benchmark replays p = 1 witnesses too (n = 6 and 8)
    check_traced_keylemma_run(capsys, "3", "1")


def test_traced_verify_runs_keep_the_benchmark_surface(capsys):
    # the verify workload reaches det_exact, invert and ExactMatrix.__mul__
    # only through the identity suites
    tracer = load("tracer").Tracer()
    try:
        tracer.install()
        assert cli.main(["verify", "--suite", "detlemmas", "--trials", "3"]) == 0
        assert cli.main(["verify", "--suite", "p2", "--n", "2", "--trials", "1"]) == 0
        capsys.readouterr()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["exact_linalg.det_exact.cells"] > 0
    assert metrics["exact_linalg.invert.calls"] > 0
    assert metrics["exact_linalg.matmul.scalar_mults"] > 0
    assert metrics["suites.calls"] == 2 and metrics["suites.checks"] > 0
    assert metrics["suites.checks_failed"] == 0
