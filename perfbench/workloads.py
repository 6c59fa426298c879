"""Workload job lists, seed derivation, generated inputs and the correctness gate.

A job is one argv for ``koszul_rank.cli.main``.  Its reference key is the argv
without ``--seed`` and with the generated tensor path replaced by
``<tensor>``; ``reference.json`` maps each key to the result fields frozen
from the seed commit (see ``freeze.py``).  Only fields that set a result's
strength are compared, so an output that gains a field still passes.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

TENSOR = "<tensor>"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Generated tensor for the `certify --tensor` job: a sum of TENSOR_TERMS
# rank-one terms with sparse random integer factors, square slices.  Each
# term adds at most binom(4, 2) = 6 to the rank of the p=2 flattening
# (160 x 160), so its rank is at most 120 and the certified bound at most 20;
# for every seed checked it is exactly that (see NOTES.md).  A rank or
# structure shortcut that over-reports therefore fails the gate on this job,
# and the reference does not depend on the seed.
TENSOR_DIMS = (10, 16, 16)
TENSOR_TERMS = 20
TENSOR_SUPPORT = (2, 5, 5)  # nonzeros in each term's a, b and c factor
TENSOR_VALUES = (-3, -2, -1, 1, 2, 3)

WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    "certify": (
        ("certify", "--matmul", "3,3,3", "--p", "1"),
        ("certify", "--matmul", "3,3,3", "--p", "2"),
        ("certify", "--matmul", "3,3,3", "--p", "3"),
        ("certify", "--matmul", "4,4,4", "--p", "1"),
        ("certify", "--matmul", "4,4,4", "--p", "2"),
        ("certify", "--matmul", "5,5,5", "--p", "1"),
        ("certify", "--matmul", "5,5,5", "--p", "2"),
        ("certify", "--matmul", "3,3,5", "--p", "2"),
        ("certify", "--tensor", TENSOR, "--p", "2"),
    ),
    "keylemma": (
        ("keylemma", "--n", "5", "--p", "2"),
        ("keylemma", "--n", "6", "--p", "2"),
        ("keylemma", "--n", "7", "--p", "2"),
        ("keylemma", "--n", "8", "--p", "2"),
        ("keylemma", "--n", "6", "--p", "1"),
        ("keylemma", "--n", "8", "--p", "1"),
    ),
    "verify": (
        ("verify", "--suite", "remark-imp", "--p", "5", "--format", "json"),
        ("verify", "--suite", "remark-imp", "--format", "json"),
        ("verify", "--suite", "p3", "--format", "json"),
        ("flatten", "--p", "4", "--commutators"),
        ("flatten", "--p", "5"),
        ("verify", "--suite", "p2", "--n", "6", "--trials", "10", "--format", "json"),
        ("verify", "--suite", "p2", "--n", "8", "--trials", "10", "--format", "json"),
        ("verify", "--suite", "strassen", "--n", "8", "--format", "json"),
        ("verify", "--suite", "detlemmas", "--format", "json"),
    ),
}


def job_key(template: tuple[str, ...]) -> str:
    return " ".join(template)


def derive(seed: int, *tags: int) -> int:
    """Deterministic 31-bit seed from the workload seed and integer tags."""
    text = ":".join(str(x) for x in (seed, *tags)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") >> 1


def generic_tensor(seed: int) -> dict:
    """Tensor-file payload for the generated tensor of one pass."""
    rng = random.Random(seed)
    total: dict[tuple[int, int, int], int] = {}
    for _ in range(TENSOR_TERMS):
        a, b, c = (
            {i: rng.choice(TENSOR_VALUES) for i in rng.sample(range(dim), count)}
            for dim, count in zip(TENSOR_DIMS, TENSOR_SUPPORT)
        )
        for i, x in a.items():
            for j, y in b.items():
                for k, z in c.items():
                    total[i, j, k] = total.get((i, j, k), 0) + x * y * z
    entries = [[i, j, k, str(v)] for (i, j, k), v in sorted(total.items()) if v]
    return {"dims": list(TENSOR_DIMS), "entries": entries}


def build_jobs(workload: str, seed: int, pass_index: int, work_dir: Path) -> list[tuple[str, list[str]]]:
    """(reference key, argv) for every job of one pass; writes the tensor file."""
    templates = WORKLOADS[workload]
    tensor_path = None
    if any(TENSOR in t for t in templates):
        work_dir.mkdir(parents=True, exist_ok=True)
        tensor_path = work_dir / f"tensor-{workload}-{seed}-{pass_index}.json"
        tensor_path.write_text(json.dumps(generic_tensor(derive(seed, pass_index, 0))))
    jobs = []
    for index, template in enumerate(templates, start=1):
        argv = [str(tensor_path) if x == TENSOR else x for x in template]
        argv += ["--seed", str(derive(seed, pass_index, index))]
        jobs.append((job_key(template), argv))
    return jobs


# -- correctness gate --------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def symbolic_digest(text: str) -> dict:
    """Shape and digest of a printed token grid, independent of column padding."""
    rows = [line.split() for line in text.strip().splitlines()]
    canonical = "\n".join(" ".join(row) for row in rows)
    return {
        "rows": len(rows),
        "cols": len(rows[0]) if rows else 0,
        "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def observed_fields(key: str, code: int, stdout: str) -> dict:
    """The strength-setting fields of one job's result, as frozen in the reference."""
    command = key.split()[0]
    if command == "flatten":
        return {"exit": code, "grid": symbolic_digest(stdout) if code == 0 else None}
    if command == "verify":
        checks = json.loads(stdout)["checks"] if stdout.strip() else []
        return {"exit": code, "verdicts": {c["name"]: c["passed"] for c in checks}}
    payload = json.loads(stdout) if code == 0 else {}
    if command == "certify":
        return {
            "exit": code,
            "bound": payload.get("bound"),
            "flattening_rank": payload.get("flattening_rank"),
            "trial_ranks": payload.get("trial_ranks"),
        }
    if command == "keylemma":
        return {"exit": code, "h_required": payload.get("h_required")}
    raise ValueError(f"unknown command in {key!r}")


def check_job(key: str, code: int, stdout: str, reference: dict) -> list[str]:
    """Problems with one job's result; empty when it matches the reference."""
    expected = reference.get(key)
    if expected is None:
        return [f"no reference for {key!r}"]
    try:
        seen = observed_fields(key, code, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable output: {exc}"]
    problems = []
    if key.startswith("verify"):
        if seen["exit"] != expected["exit"]:
            problems.append(f"exit {seen['exit']} != {expected['exit']}")
        for name, verdict in expected["verdicts"].items():
            if seen["verdicts"].get(name) != verdict:
                problems.append(f"check {name}: {seen['verdicts'].get(name)} != {verdict}")
        return problems
    for field, value in expected.items():
        if seen.get(field) != value:
            problems.append(f"{field} {seen.get(field)!r} != {value!r}")
    if key.startswith("keylemma") and not problems:
        problems += _check_witness(json.loads(stdout))
    return problems


def _check_witness(payload: dict) -> list[str]:
    """h_achieved >= h_required, a nonzero grid_det, and a from-scratch replay."""
    from fractions import Fraction

    from koszul_rank.exact_linalg import matrix_from_json
    from koszul_rank.keylemma import KeyLemmaWitness, elementary_basis, validate_witness

    problems = []
    if payload["h_achieved"] < payload["h_required"]:
        problems.append(f"h_achieved {payload['h_achieved']} < h_required {payload['h_required']}")
    grid_det = Fraction(payload["grid_det"])
    if grid_det == 0:
        problems.append("grid_det is zero")
    supports = payload["supports"]
    witness = KeyLemmaWitness(
        n=payload["n"],
        p=payload["p"],
        seed=payload["seed"],
        support0=tuple(supports["s0"]),
        support1=tuple(supports["s1"]),
        support2=tuple(supports["s2"]),
        support3=tuple(supports["s3"]),
        alphas=tuple(matrix_from_json(a) for a in payload["alphas"]),
        h_achieved=payload["h_achieved"],
        h_required=payload["h_required"],
        union_size=payload["union_size"],
        grid_det=grid_det,
    )
    try:
        validate_witness(witness, elementary_basis(witness.n))
    except ValueError as exc:
        problems.append(f"witness does not validate: {exc}")
    return problems
