"""Command-line surface: bounds, crossover, flatten, certify, verify, keylemma.

Every command takes --seed (default 0) and echoes it in the output; identical
invocations produce byte-identical output.  bounds and crossover take
--format: md (default), csv or json; verify takes md (default) or json, since
its check details contain commas.  Exit codes: 0 success, 1 check failure,
2 input error, 3 degenerate computation.  Input beyond the size caps below
(MAX_SYMBOLIC_P for flatten and verify --p) and a keylemma --p without a
stage list exit 2 before anything is allocated; keylemma with 2p + 1 > n^2
exits 3, as certify does with 2p + 1 > dimA.  An --output path that cannot
be written exits 2 with one error line.

certify caps the dense flattening side comb(2p+1, p) * dimB even though a
matrix multiplication tensor M_{n,l,m} is certified on its reduced
flattening, m times smaller on each side (bounds.certify_border_rank).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .bounds import (
    BoundKind,
    DegenerateSubspaceError,
    best_mr,
    bound_value,
    certify_border_rank,
    crossover,
)
from .exact_linalg import ExactMatrix, _format_rational, matrix_to_json, random_int_matrix, vector_to_json
from .flattening import (
    MAX_SYMBOLIC_P,
    assemble,
    commutator_matrix,
    commutator_pattern,
    dump_symbolic,
    flattening_pattern,
)
from .keylemma import KeyLemmaStageError, key_lemma_search
from .suites import suite_detlemmas, suite_p2, suite_p3, suite_remark, suite_strassen
from .tensor_core import SliceFamily, matmul_tensor, tensor_from_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_DEGENERATE = 3

# Size caps; they admit M_5 (dims product 15625) and M_4 at p = 3 (side 560).
MAX_DIMS_PRODUCT = 100_000  # dimA * dimB * dimC of a certify tensor
MAX_FLATTENING_SIDE = 1000  # comb(2p+1, p) * dimB: certify, flatten --numeric, verify --n
# keylemma allocates the n^2 basis matrices (n^4 entries) before any stage;
# 31 is where mr:2 first beats Blaser's bound (crossover --a mr:2 --b blaser)
MAX_KEYLEMMA_N = 31
MAX_CROSSOVER_N = 100_000  # crossover --n-max: one exact evaluation per n
# bounds --p and the p of crossover's kinds: binomials of about 2p bits, two
# table rows per p for bounds, one exact evaluation per n for crossover
MAX_BOUNDS_P = 1000
# certify --trials (one flattening rank per trial, each draw made when it is
# ranked) and verify --trials (one seeded check per trial and n)
MAX_CERTIFY_TRIALS = 1000


def _input_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _flattening_too_large(p: int, size: int) -> bool:
    # comb(13, 6) > MAX_FLATTENING_SIDE: no p above MAX_SYMBOLIC_P fits, so skip its comb
    return p > MAX_SYMBOLIC_P or math.comb(2 * p + 1, p) * size > MAX_FLATTENING_SIDE


def _fmt_value(x) -> str:
    if isinstance(x, Fraction):
        return _format_rational(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "-"
    return str(x)


def _render_table(columns: Sequence[str], rows: Sequence[Sequence], fmt: str, seed: int, notes: Sequence[str] = ()) -> str:
    if fmt == "json":
        payload = {
            "seed": seed,
            "columns": list(columns),
            "rows": [[_fmt_value(x) for x in row] for row in rows],
            "notes": list(notes),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt_value(x) for x in row) for row in rows]
        lines += [f"# {note}" for note in notes]
        lines.append(f"# seed {seed}")
        return "\n".join(lines) + "\n"
    body = [_fmt_value(x) for x in columns]
    cells = [[_fmt_value(x) for x in row] for row in rows]
    widths = [max(len(body[j]), *(len(r[j]) for r in cells)) if cells else len(body[j]) for j in range(len(columns))]
    lines = [
        "| " + " | ".join(body[j].ljust(widths[j]) for j in range(len(columns))) + " |",
        "| " + " | ".join("-" * widths[j] for j in range(len(columns))) + " |",
    ]
    for r in cells:
        lines.append("| " + " | ".join(r[j].ljust(widths[j]) for j in range(len(columns))) + " |")
    lines.extend(notes)
    lines.append(f"seed: {seed}")
    return "\n".join(lines) + "\n"


def _emit(text: str, path: Optional[str]) -> int:
    """Write text to path ('-' for stdout); EXIT_OK, or EXIT_INPUT_ERROR if path is unwritable."""
    if path and path != "-":
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            return _input_error(f"cannot write --output {path}: {exc}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, formats: Sequence[str] = ()) -> None:
    """--seed and --output; --format too, with these choices, for the commands that read it."""
    parser.add_argument("--seed", type=int, default=0, help="root seed (echoed in output)")
    if formats:
        parser.add_argument("--format", choices=formats, default="md")
    parser.add_argument("--output", default="-", help="output path, '-' for stdout")


def _cmd_bounds(args) -> int:
    if args.n < 1:
        return _input_error("--n must be >= 1")
    if (args.m is not None and args.m < 1) or not 0 <= args.p <= MAX_BOUNDS_P:
        return _input_error(f"need --m >= 1 and 0 <= --p <= {MAX_BOUNDS_P}")
    rows = []
    skipped = []
    kinds: list[BoundKind] = [BoundKind("strassen"), BoundKind("blaser")]
    kinds += [BoundKind("landsberg", p) for p in range(1, args.p + 1)]
    kinds += [BoundKind("mr", p) for p in range(1, args.p + 1)]
    kinds += [BoundKind("mr_p2_refined"), BoundKind("mr_p3_refined")]
    for kind in kinds:
        try:
            report = bound_value(kind, args.n, args.m)
        except ValueError:
            skipped.append(str(kind))  # square-only kind at a rectangular shape
            continue
        rows.append(
            [kind.tag, report.n, report.m, kind.p, report.value, report.ceiling, report.vacuous]
        )
    p_star, best = best_mr(args.n)
    notes = [f"best mr p at n={args.n}: p={p_star} ceiling={best.ceiling}"]
    if skipped:
        notes.append("skipped (square-only at m != n): " + ", ".join(skipped))
    text = _render_table(
        ["kind", "n", "m", "p", "value", "ceiling", "vacuous"], rows, args.format, args.seed, notes
    )
    return _emit(text, args.output)


def _cmd_crossover(args) -> int:
    try:
        kind_a = BoundKind.parse(args.a)
        kind_b = BoundKind.parse(args.b)
    except ValueError as exc:
        return _input_error(str(exc))
    if not 1 <= args.n_max <= MAX_CROSSOVER_N:
        return _input_error(f"--n-max must be in 1..{MAX_CROSSOVER_N}")
    if any(kind.p is not None and kind.p > MAX_BOUNDS_P for kind in (kind_a, kind_b)):
        return _input_error(f"the p of --a and --b must be <= {MAX_BOUNDS_P}")
    report = crossover(kind_a, kind_b, args.n_max)
    notes = []
    pair = {str(kind_a), str(kind_b)}
    if pair == {"mr:3", "blaser"}:
        notes.append(
            "note: the closed forms cross at 92; a commonly quoted threshold "
            "for this comparison is 132 (documented discrepancy)"
        )
    rows = [[
        str(kind_a), str(kind_b), report.n_max, report.first_geq, report.first_strict,
        report.first_geq_ceiling, report.first_strict_ceiling, report.monotone_after,
    ]]
    text = _render_table(
        ["a", "b", "n_max", "first_geq", "first_strict", "first_geq_ceiling",
         "first_strict_ceiling", "monotone_after"],
        rows, args.format, args.seed, notes,
    )
    return _emit(text, args.output)


def _cmd_flatten(args) -> int:
    if not 1 <= args.p <= MAX_SYMBOLIC_P:
        return _input_error(f"--p must be in 1..{MAX_SYMBOLIC_P}")
    if args.numeric:
        n = args.n
        if n < 1:
            return _input_error("--numeric needs --n >= 1")
        if _flattening_too_large(args.p, n):
            return _input_error(f"flattening side exceeds {MAX_FLATTENING_SIDE}")
        rng = random.Random(args.seed)
        xs = tuple(random_int_matrix(rng, n, n) for _ in range(2 * args.p))
        family = SliceFamily(args.p, n, n, (ExactMatrix.identity(n), *xs))
        if args.commutators:
            numeric = commutator_matrix(family)
        else:
            numeric = assemble(flattening_pattern(args.p), family)
        payload = {"seed": args.seed, "p": args.p, "n": n, "matrix": matrix_to_json(numeric)}
        return _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)
    sym = commutator_pattern(args.p) if args.commutators else flattening_pattern(args.p)
    return _emit(dump_symbolic(sym, signed=not args.unsigned), args.output)


def _cmd_certify(args) -> int:
    if args.p < 1:
        return _input_error("--p must be >= 1")
    if not 1 <= args.trials <= MAX_CERTIFY_TRIALS:
        return _input_error(f"--trials must be in 1..{MAX_CERTIFY_TRIALS}")
    if args.tensor:
        try:
            with open(args.tensor, "r", encoding="utf-8") as handle:
                tensor = tensor_from_json(json.load(handle))
        except (OSError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
            # ArithmeticError: an entry "1/0", or dims or an index of 1e400 (JSON infinity)
            return _input_error(f"cannot read tensor file: {exc}")
        dims = tensor.dims
    elif args.matmul:
        try:
            n, l, m = (int(x) for x in args.matmul.split(","))
        except ValueError as exc:
            return _input_error(f"bad --matmul spec: {exc}")
        if min(n, l, m) < 1:
            return _input_error("bad --matmul spec: zero dimension")
        tensor, dims = None, (n * l, l * m, n * m)
    else:
        return _input_error("need --tensor FILE or --matmul n,l,m")
    if math.prod(dims) > MAX_DIMS_PRODUCT:
        return _input_error(f"tensor dims {list(dims)} exceed {MAX_DIMS_PRODUCT} cells")
    if _flattening_too_large(args.p, dims[1]):
        return _input_error(f"p={args.p} flattening side exceeds {MAX_FLATTENING_SIDE}")
    if tensor is None:
        tensor = matmul_tensor(n, l, m)
    try:
        certificate = certify_border_rank(tensor, args.p, seed=args.seed, trials=args.trials)
    except DegenerateSubspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    payload = {
        "bound": certificate.bound,
        "flattening_rank": certificate.flattening_rank,
        "divisor": certificate.divisor,
        "p": certificate.p,
        "prime": certificate.prime,
        "seed": certificate.seed,
        "trials": certificate.trials,
        "trial_ranks": list(certificate.trial_ranks),
        "alphas": [vector_to_json(a) for a in certificate.alphas],
    }
    return _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)


def _cmd_verify(args) -> int:
    if not 0 <= args.p <= MAX_SYMBOLIC_P or args.n < 0 or not 0 <= args.trials <= MAX_CERTIFY_TRIALS:
        return _input_error(
            f"need 0 <= --p <= {MAX_SYMBOLIC_P}, --n >= 0 and 0 <= --trials <= {MAX_CERTIFY_TRIALS}"
        )
    suite_p = {"strassen": 1, "p2": 2}.get(args.suite)
    if suite_p and _flattening_too_large(suite_p, args.n):
        return _input_error(f"flattening side exceeds {MAX_FLATTENING_SIDE}")
    n_values = (args.n,) if args.n else None
    if args.suite == "strassen":
        checks = suite_strassen(n_values or (2, 3, 4), args.trials or 30, args.seed)
    elif args.suite == "p2":
        checks = suite_p2(n_values or (2, 3), args.trials or 10, args.seed)
    elif args.suite == "p3":
        checks = suite_p3()
    elif args.suite == "remark-imp":
        checks = suite_remark((args.p,) if args.p else (2, 3, 4))
    elif args.suite == "detlemmas":
        checks = suite_detlemmas(args.trials or 50, args.seed)
    else:  # pragma: no cover - argparse restricts choices
        return EXIT_INPUT_ERROR
    if args.format == "json":
        payload = {
            "seed": args.seed,
            "suite": args.suite,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
            ],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [
            f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in checks
        ]
        lines.append(f"seed: {args.seed}")
        text = "\n".join(lines) + "\n"
    return _emit(text, args.output) or (EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK_FAILED)


def _cmd_keylemma(args) -> int:
    if not 2 <= args.n <= MAX_KEYLEMMA_N:
        return _input_error(f"--n must be in 2..{MAX_KEYLEMMA_N}")
    try:
        witness = key_lemma_search(args.n, args.p, seed=args.seed)
    except NotImplementedError as exc:  # raised before anything is allocated
        return _input_error(f"--p {args.p}: {exc}")
    except (KeyLemmaStageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    payload = {
        "n": witness.n,
        "p": witness.p,
        "seed": witness.seed,
        "supports": {
            "s0": list(witness.support0),
            "s1": list(witness.support1),
            "s2": list(witness.support2),
            "s3": list(witness.support3),
        },
        "union_size": witness.union_size,
        "h_achieved": witness.h_achieved,
        "h_required": witness.h_required,
        "grid_det": _fmt_value(witness.grid_det),
        "alphas": [matrix_to_json(a) for a in witness.alphas],
    }
    return _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parse_args does not mutate it."""
    parser = argparse.ArgumentParser(
        prog="koszul-rank",
        description="Flattening-based rank lower bounds for matrix multiplication tensors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="table of all bound formulas at n")
    p_bounds.add_argument("--n", type=int, required=True)
    p_bounds.add_argument("--m", type=int, default=None)
    p_bounds.add_argument("--p", type=int, default=3, help="max p for parametric kinds")
    _add_common(p_bounds, formats=("md", "csv", "json"))
    p_bounds.set_defaults(func=_cmd_bounds)

    p_cross = sub.add_parser("crossover", help="first n where bound a >= bound b")
    p_cross.add_argument("--a", required=True, help="bound kind, e.g. mr:3")
    p_cross.add_argument("--b", required=True)
    p_cross.add_argument("--n-max", type=int, default=1000)
    _add_common(p_cross, formats=("md", "csv", "json"))
    p_cross.set_defaults(func=_cmd_crossover)

    p_flat = sub.add_parser("flatten", help="dump symbolic or numeric flattening")
    p_flat.add_argument("--p", type=int, required=True)
    p_flat.add_argument("--commutators", action="store_true", help="dump the commutator grid")
    p_flat.add_argument("--unsigned", action="store_true", help="omit signs in tokens")
    p_flat.add_argument("--numeric", action="store_true", help="assemble random integer slices")
    p_flat.add_argument("--n", type=int, default=0, help="slice size for --numeric")
    _add_common(p_flat)
    p_flat.set_defaults(func=_cmd_flatten)

    p_cert = sub.add_parser("certify", help="border-rank certificate for a tensor")
    p_cert.add_argument("--tensor", help="tensor JSON file")
    p_cert.add_argument("--matmul", help="n,l,m shorthand instead of a file")
    p_cert.add_argument("--p", type=int, required=True)
    p_cert.add_argument("--trials", type=int, default=3)
    _add_common(p_cert)
    p_cert.set_defaults(func=_cmd_certify)

    p_verify = sub.add_parser("verify", help="run a seeded identity suite")
    p_verify.add_argument(
        "--suite", required=True, choices=("strassen", "p2", "p3", "remark-imp", "detlemmas")
    )
    p_verify.add_argument("--n", type=int, default=0)
    p_verify.add_argument("--p", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=0)
    _add_common(p_verify, formats=("md", "json"))
    p_verify.set_defaults(func=_cmd_verify)

    p_key = sub.add_parser("keylemma", help="run the staged witness pipeline")
    p_key.add_argument("--n", type=int, required=True)
    p_key.add_argument("--p", type=int, required=True)
    _add_common(p_key)
    p_key.set_defaults(func=_cmd_keylemma)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
