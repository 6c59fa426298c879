"""CLI surface: output values, formats, exit codes, byte determinism."""

import hashlib
import json

import pytest

from koszul_rank.cli import (
    MAX_BOUNDS_P,
    MAX_CERTIFY_TRIALS,
    MAX_CROSSOVER_N,
    MAX_DIMS_PRODUCT,
    MAX_KEYLEMMA_N,
    _flattening_too_large,
    build_parser,
    main,
)
from koszul_rank import keylemma
from koszul_rank.keylemma import KeyLemmaWitness, elementary_basis, validate_witness
from koszul_rank.bounds import BoundKind, crossover
from koszul_rank.exact_linalg import matrix_from_json
from koszul_rank.tensor_core import matmul_tensor, tensor_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_bounds_table_values(capsys):
    code, out = run(capsys, "bounds", "--n", "100", "--p", "3")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("|")]
    mr3 = next(line for line in rows if line.startswith("| mr ") and "| 3 " in line)
    assert "24900" in mr3
    blaser = next(line for line in rows if "blaser" in line)
    assert "24700" in blaser
    assert "seed: 0" in out


def test_bounds_csv_equality_at_24(capsys):
    code, out = run(capsys, "bounds", "--n", "24", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    value = {line.split(",")[0]: line.split(",")[4] for line in lines[1:] if "," in line}
    assert value["mr_p2_refined"] == value["blaser"] == "1368"


def test_bounds_rectangular_skips_square_only_kinds(capsys):
    code, out = run(capsys, "bounds", "--n", "100", "--m", "50")
    assert code == 0
    assert "16150" in out  # mr:3 at (100, 50)
    assert "skipped (square-only at m != n)" in out
    assert "| strassen" not in out


def test_bounds_rejects_bad_n(capsys):
    assert main(["bounds", "--n", "0"]) == 2
    assert capsys.readouterr().err == "error: --n must be >= 1\n"


def test_bounds_accepts_p_from_zero_to_the_cap(capsys):
    code, out = run(capsys, "bounds", "--n", "5", "--p", "0", "--format", "csv")
    assert code == 0
    assert {line.split(",")[0] for line in out.splitlines()[1:] if "," in line} == {
        "strassen", "blaser", "mr_p2_refined", "mr_p3_refined"
    }
    code, out = run(capsys, "bounds", "--n", "5", "--p", str(MAX_BOUNDS_P), "--format", "csv")
    assert code == 0 and f"mr,5,5,{MAX_BOUNDS_P}," in out


def test_crossover_values_and_note(capsys):
    code, out = run(capsys, "crossover", "--a", "mr_p3_refined", "--b", "mr_p2_refined")
    assert code == 0 and "| 120" in out
    code, out = run(capsys, "crossover", "--a", "mr:3", "--b", "blaser")
    assert code == 0 and "| 92 " in out
    assert "132" in out  # documented discrepancy note
    code, out = run(capsys, "crossover", "--a", "blaser", "--b", "blaser")
    assert code == 0 and "| 1 " in out


def test_crossover_unknown_kind(capsys):
    code, _ = run(capsys, "crossover", "--a", "nope", "--b", "blaser")
    assert code == 2


def test_flatten_symbolic(capsys):
    code, out = run(capsys, "flatten", "--p", "1")
    assert code == 0
    assert out.split() == ["+X1", "-X2", ".", "+X0", ".", "-X2", ".", "+X0", "-X1"]
    code, out = run(capsys, "flatten", "--p", "2", "--commutators")
    assert code == 0 and out.splitlines()[0].split() == ["+X23", "-X24", "+X34", "."]
    code, out = run(capsys, "flatten", "--p", "3", "--commutators", "--unsigned")
    assert code == 0 and out.splitlines()[0].split()[0] == "X34"


def test_flatten_numeric(capsys):
    code, out = run(capsys, "flatten", "--p", "1", "--numeric", "--n", "2", "--seed", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 4
    matrix = matrix_from_json(payload["matrix"])
    assert matrix.shape == (6, 6)


def test_certify_from_file(tmp_path, capsys):
    path = tmp_path / "m222.json"
    path.write_text(json.dumps(tensor_to_json(matmul_tensor(2, 2, 2))))
    code, out = run(capsys, "certify", "--tensor", str(path), "--p", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == 6
    assert payload["divisor"] == 2
    assert payload["flattening_rank"] == 12
    assert payload["prime"] == 2**61 - 1
    assert payload["seed"] == 0
    assert len(payload["alphas"]) == 3


def test_certify_zero_tensor(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"dims": [3, 3, 3], "entries": []}))
    code, out = run(capsys, "certify", "--tensor", str(path), "--p", "1")
    assert code == 0 and json.loads(out)["bound"] == 0


def test_certify_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "certify", "--tensor", str(bad), "--p", "1")[0] == 2
    assert run(capsys, "certify", "--p", "1")[0] == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"dims": [2, 2, 2], "entries": [[0, 0, 0, "1/0"]]}',
        '{"dims": [2, 2, 1e400], "entries": []}',
        '{"dims": [2, 2, 2], "entries": [[1e400, 0, 0, 1]]}',
    ],
    ids=["zero-denominator", "infinite-dims", "infinite-index"],
)
def test_certify_bad_numbers_in_tensor_file_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = main(["certify", "--tensor", str(path), "--p", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot read tensor file")
    assert "Traceback" not in err


def test_certify_degenerate_exit(tmp_path, capsys):
    path = tmp_path / "m222.json"
    path.write_text(json.dumps(tensor_to_json(matmul_tensor(2, 2, 2))))
    code, _ = run(capsys, "certify", "--tensor", str(path), "--p", "3")
    assert code == 3


def test_verify_suites_pass(capsys):
    assert run(capsys, "verify", "--suite", "strassen", "--n", "3", "--seed", "7", "--trials", "5")[0] == 0
    assert run(capsys, "verify", "--suite", "p2", "--n", "2", "--trials", "2")[0] == 0
    assert run(capsys, "verify", "--suite", "p3")[0] == 0
    assert run(capsys, "verify", "--suite", "detlemmas", "--trials", "10")[0] == 0


def test_verify_remark_suite_reports_p4_refutation(capsys):
    # honest failure: the p=4 index-exclusion claim is refuted by the builder
    code, out = run(capsys, "verify", "--suite", "remark-imp")
    assert code == 1
    assert "FAIL p4-diagonal-excludes-extremes" in out
    assert "PASS p3-diagonal-excludes-extremes" in out
    code, out = run(capsys, "verify", "--suite", "remark-imp", "--p", "3")
    assert code == 0


def test_verify_json_format(capsys):
    code, out = run(capsys, "verify", "--suite", "detlemmas", "--trials", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "detlemmas"
    assert all(c["passed"] for c in payload["checks"])


def test_keylemma_output_validates(capsys):
    code, out = run(capsys, "keylemma", "--n", "3", "--p", "1", "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    witness = KeyLemmaWitness(
        n=payload["n"],
        p=payload["p"],
        seed=payload["seed"],
        support0=tuple(payload["supports"]["s0"]),
        support1=tuple(payload["supports"]["s1"]),
        support2=tuple(payload["supports"]["s2"]),
        support3=tuple(payload["supports"]["s3"]),
        alphas=tuple(matrix_from_json(a) for a in payload["alphas"]),
        h_achieved=payload["h_achieved"],
        h_required=payload["h_required"],
        union_size=payload["union_size"],
        grid_det=__import__("fractions").Fraction(payload["grid_det"]),
    )
    validate_witness(witness, elementary_basis(3))


# sha256 of the keylemma stdout, frozen before the stage evaluators switched
# from exact determinants to residues mod 2^61 - 1: the search must keep the
# same trajectory and print the same witnesses
KEYLEMMA_GOLDEN = {
    ("5", "2"): "d8df950702d14bad2a682a76493e0139390bbd07e0257e7ce3cc7171a86ee61e",
    ("6", "1"): "e647d1547878364493cf8e15e02be647a82dcf905713aa31cc8be7a5f8a9128b",
}


@pytest.mark.parametrize("n, p", sorted(KEYLEMMA_GOLDEN))
def test_keylemma_golden_output(capsys, n, p):
    code, out = run(capsys, "keylemma", "--n", n, "--p", p, "--seed", "0")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == KEYLEMMA_GOLDEN[n, p]


# sha256 of keylemma and certify stdout, frozen before the key-lemma stage
# evaluators moved to residue rows and the modular elimination to lazy
# reduction: these keylemma runs reach long stage-3 searches, and the
# certify runs go through rank_mod
SEEDED_GOLDEN = {
    ("keylemma", "--n", "8", "--p", "2", "--seed", "5"): (
        "47ebd080211abc3116abd761b0359a1ea0577f2f70da938ef10e17d7f2c590dc"
    ),
    ("keylemma", "--n", "7", "--p", "2", "--seed", "3"): (
        "3937a959fdbccfa348bcd22484ba9f6247978b3c89925cf639a2f32d4f5a6777"
    ),
    ("keylemma", "--n", "8", "--p", "1", "--seed", "9"): (
        "806ce943fd0202fe126d7e8e21fbc16bce24cb178ff3ce382d070cbd5a52dbcb"
    ),
    ("certify", "--matmul", "3,3,3", "--p", "3", "--seed", "0"): (
        "1a39c764c7cafde54a5bd84265066850bfe43de42127ffb9f2d2958cf08d5938"
    ),
    ("certify", "--matmul", "5,5,5", "--p", "2", "--seed", "0"): (
        "171cba2e924d11651ee2d802abc53b2e9036787e3533840d548b38221fbe8a3b"
    ),
}


@pytest.mark.parametrize("argv", sorted(SEEDED_GOLDEN))
def test_seeded_golden_output(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SEEDED_GOLDEN[argv]


# sha256 of verify --format json stdout, frozen before the fraction-free
# elimination skipped its no-op updates: every determinant these suites
# compare goes through that kernel
VERIFY_GOLDEN = {
    ("--suite", "p2", "--n", "6", "--seed", "0"): (
        "8ed446ec3414e7778a99e05f795cd04dd7752a72ea91af54520431a7d9ca5768"
    ),
    ("--suite", "p2", "--n", "6", "--seed", "7"): (
        "9f4c320debdd99db35643570ded660398517b48bea419a9ffd913afbb04d6cc8"
    ),
    ("--suite", "p2", "--n", "8", "--trials", "10", "--seed", "0"): (
        "5a9d596922b6c0fdb9ad133cc6aedb24e6b1ed2a59a27ada5d7b1581965933e4"
    ),
    ("--suite", "p2", "--n", "8", "--trials", "10", "--seed", "7"): (
        "ef695de0766b3fbcbb6c9fc74147f6ef0ee8dfe764628eed90df2037d93cc045"
    ),
    ("--suite", "strassen", "--n", "8", "--seed", "0"): (
        "0102a323f04a8282997b977e5bb63600000a75637d3585f194ac0180878501b2"
    ),
    ("--suite", "strassen", "--n", "8", "--seed", "7"): (
        "035ef4a75a64ac3ae9742fd5ffaba351f596bf9ab24cdab62d32afd9dbc7d9ac"
    ),
    ("--suite", "detlemmas", "--seed", "0"): (
        "15033af0714a55166626c1c2a5826b3cfef630194f67e142d53e3089335f1c21"
    ),
    ("--suite", "detlemmas", "--seed", "7"): (
        "dc5a0131f94eac2eb2e157992b6999af74e8f406a414299a87368145dc390608"
    ),
}


@pytest.mark.parametrize("argv", sorted(VERIFY_GOLDEN))
def test_verify_golden_output(capsys, argv):
    code, out = run(capsys, "verify", *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_GOLDEN[argv]


# sha256 of the printed symbolic grids, frozen before the flattening and
# commutator grids were built from their nonzero blocks only
FLATTEN_GOLDEN = {
    ("1", False): "783be74c96f84be1fe0014532b3fcea89d87fb2ec775d9a1b1c59ba879bce427",
    ("1", True): "b40843cbe0d8190c686ad18fe1c9341c4b6872922a65d4a9a3e547e68b85d3b5",
    ("2", False): "7d6296ce2cd1112fa234b90600ea936570e34a74ccf582d1143b5220f9fe694d",
    ("2", True): "369b81df41ea5ef3b75f05fff38ffc9986e12e467cf99b0e2a57e6a8aeb926e4",
    ("3", False): "85e2dc1a36d7053c17dd64f1c079fa9b7c78e6e400a2d8b7a9e5337611680505",
    ("3", True): "2d70086cbd2af223feb25cfd045a63e6a778f3c4f2298823775e7fb99614c0da",
    ("4", False): "8b4de017b0ea77fc03157473bcce071b2f702144136d5c758cbda2a6286cf916",
    ("4", True): "febf3de6011260a450311378b632b3f08b219a52849449b0aadde9cf018d4e6f",
    ("5", False): "bfff68316398fc83d07935d978a4b964f753fa7aff5aea8900edc67ffd8cbc57",
    ("5", True): "c222b6255fbda33c1f68f29065d537618d5787213323a910cf755b9269d1e34c",
}


@pytest.mark.parametrize("p, commutators", sorted(FLATTEN_GOLDEN))
def test_flatten_golden_output(capsys, p, commutators):
    argv = ["flatten", "--p", p] + (["--commutators"] if commutators else [])
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FLATTEN_GOLDEN[p, commutators]


# sha256 of `flatten --p P [--commutators] --unsigned`, frozen before the
# symbolic grids were stored by their nonzero cells
FLATTEN_UNSIGNED_GOLDEN = {
    ("1", False): "dcae1b797ceb9d6283176af9f3e2e3cc4df0d6698fe54f912c5b6e3226b06d06",
    ("1", True): "e9389fb4d260d02a839533a78c52bd5de5584794761af8176c2e5450ce87f9bc",
    ("2", False): "8b00365926189d3431f5df168e883cfba1b847b9e29b4a9de15ad73b9ff5dbd4",
    ("2", True): "87a5437d6d7515c07bc50768bce4beade20fb281d35b0aff5ea31512f0e8a6f0",
    ("3", False): "018983ada8cd57256e3e5dc15bb5071ad26f83f6aaa3129c635d647c2a7e2c83",
    ("3", True): "542c1ba9a503e60cb4b758c0216a42796765333a68f5832ac6750db9051d0b5c",
    ("4", False): "0cba9af74aeb812add9bbf089dae20a03d36b2771aa822c61d8557bf5a75155d",
    ("4", True): "10cc2923ef7fe20ba32ba8e7759fc76744c73f8f92b964cbc46535002cacd59b",
    ("5", False): "992b6530ccfd3ce541e70d027956ae66ea14fd6bdf021b89b6ee6f10a3eb7891",
    ("5", True): "2f82e109ff99de3e90bad5aed2265e92c3488d804486c905bf29c834300a5d6b",
}


@pytest.mark.parametrize("p, commutators", sorted(FLATTEN_UNSIGNED_GOLDEN))
def test_flatten_unsigned_golden_output(capsys, p, commutators):
    argv = ["flatten", "--p", p, "--unsigned"] + (["--commutators"] if commutators else [])
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FLATTEN_UNSIGNED_GOLDEN[p, commutators]


# every argv here is rejected before anything is allocated
@pytest.mark.parametrize(
    "argv",
    [
        ("flatten", "--p", "40"),
        ("flatten", "--p", "6", "--commutators"),
        ("flatten", "--p", "1", "--numeric", "--n", "100000"),
        ("certify", "--matmul", "2000,2000,2000", "--p", "1"),
        ("certify", "--matmul", "4,4,4", "--p", "4"),
        ("certify", "--matmul", "2,2,2", "--p", "0"),
        ("certify", "--matmul", "2,0,2", "--p", "1"),
        ("certify", "--matmul", "2,2,2", "--p", "1", "--trials", "0"),
        ("certify", "--matmul", "2,2,2", "--p", "1", "--trials", "-3"),
        ("keylemma", "--n", "1", "--p", "2"),
        ("keylemma", "--n", "1000", "--p", "2"),
        ("crossover", "--a", "mr:2", "--b", "blaser", "--n-max", "0"),
        ("crossover", "--a", "mr:2", "--b", "blaser", "--n-max", "1000000000"),
        ("verify", "--suite", "remark-imp", "--p", "6"),
        ("verify", "--suite", "strassen", "--n", "-1"),
        ("verify", "--suite", "p2", "--n", "1000"),
        ("verify", "--suite", "detlemmas", "--trials", "-1"),
        ("bounds", "--n", "0"),
        ("bounds", "--n", "-3"),
        ("bounds", "--n", "5", "--m", "-3"),
        ("bounds", "--n", "5", "--m", "0"),
        ("bounds", "--n", "5", "--p", "-1"),
        ("bounds", "--n", "5", "--p", str(MAX_BOUNDS_P + 1)),
        ("bounds", "--n", "5", "--p", "8000"),
        ("keylemma", "--n", "4", "--p", "3"),
        ("keylemma", "--n", "4", "--p", "0"),
        ("certify", "--matmul", "3,3,3", "--p", "1", "--trials", str(MAX_CERTIFY_TRIALS + 1)),
        ("certify", "--matmul", "3,3,3", "--p", "1", "--trials", "300000"),
        ("crossover", "--a", "landsberg:1000000", "--b", "blaser", "--n-max", "2"),
        ("crossover", "--a", "mr:10000000", "--b", "blaser"),
        ("crossover", "--a", "blaser", "--b", f"mr:{MAX_BOUNDS_P + 1}", "--n-max", "2"),
        ("keylemma", "--n", "2", "--p", "3"),
        ("verify", "--suite", "detlemmas", "--trials", "100000000"),
        ("verify", "--suite", "strassen", "--n", "2", "--trials", "100000000"),
        ("verify", "--suite", "p2", "--n", "2", "--trials", "100000000"),
        ("verify", "--suite", "detlemmas", "--trials", str(MAX_CERTIFY_TRIALS + 1)),
    ],
)
def test_bad_or_oversized_input_exits_2(capsys, argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_repeated_main_calls_share_one_parser_and_print_the_same_bytes(capsys):
    # the argparse tree is built once per process, so no parse may leave a
    # trace in it: not a flag value, a default or an error exit
    runs = [
        ("bounds", "--n", "5", "--format", "csv"),
        ("flatten", "--p", "2", "--unsigned"),
        ("certify", "--matmul", "2,2,2", "--p", "1", "--trials", "1"),
        ("certify", "--matmul", "2,2,2", "--p", "1"),
        ("verify", "--suite", "detlemmas", "--trials", "3", "--seed", "4"),
    ]
    first = [run(capsys, *argv) for argv in runs]
    assert main(["bounds", "--n", "0"]) == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["certify", "--p", "1", "--bogus"])
    assert exit_info.value.code == 2
    capsys.readouterr()
    assert [run(capsys, *argv) for argv in reversed(runs)][::-1] == first
    assert build_parser() is build_parser()


def test_crossover_takes_p_up_to_the_bounds_cap(capsys):
    code, out = run(capsys, "crossover", "--a", f"landsberg:{MAX_BOUNDS_P}", "--b", "blaser", "--n-max", "3")
    assert code == 0 and f"landsberg:{MAX_BOUNDS_P}" in out


def test_keylemma_with_more_alphas_than_matrix_dimensions_exits_3_at_once(capsys, monkeypatch):
    # 2p + 1 = 5 alphas cannot be independent among 2 x 2 matrices
    monkeypatch.setattr(keylemma, "_run_pipeline", lambda *args: pytest.fail("an attempt ran"))
    assert main(["keylemma", "--n", "2", "--p", "2"]) == 3
    assert capsys.readouterr().err.startswith("error: p too large for n")


def test_keylemma_p_without_a_stage_list_exits_2_before_the_basis_is_built(capsys, monkeypatch):
    monkeypatch.setattr(keylemma, "elementary_basis", lambda n: pytest.fail("basis built"))
    assert main(["keylemma", "--n", "4", "--p", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: --p ")


@pytest.mark.parametrize(
    "argv",
    [
        ("certify", "--matmul", "3,3,3", "--p", "2"),
        ("keylemma", "--n", "4", "--p", "2"),
        ("flatten", "--p", "2"),
    ],
)
def test_format_is_an_error_where_no_table_is_printed(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main([*argv, "--format", "csv"])
    assert info.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


def test_verify_format_csv_is_an_error(capsys):
    # check details contain commas, so verify prints no CSV
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "p3", "--format", "csv"])
    assert info.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_format_is_taken_by_the_table_commands(capsys):
    for argv in (
        ("bounds", "--n", "5"),
        ("crossover", "--a", "mr:2", "--b", "blaser", "--n-max", "40"),
        ("verify", "--suite", "p3"),
    ):
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)["seed"] == 0, argv


@pytest.mark.parametrize("dims, p", [([3, 100000, 100000], "1"), ([5, 101, 101], "2")])
def test_certify_rejects_oversized_tensor_file(tmp_path, capsys, dims, p):
    # the first exceeds the dims product cap, the second only the flattening side
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dims": dims, "entries": []}))
    assert main(["certify", "--tensor", str(path), "--p", p]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_size_caps_admit_desk_scale_inputs():
    assert 25**3 <= MAX_DIMS_PRODUCT  # M_5
    assert not _flattening_too_large(3, 9)  # M_3 at p = 3: side 315
    assert not _flattening_too_large(3, 16)  # M_4 at p = 3: side 560
    assert not _flattening_too_large(2, 16)  # the 160 x 160 generated tensor flattening
    assert _flattening_too_large(6, 1)
    # keylemma must reach the n where mr:2 first beats Blaser's bound (31)
    first = crossover(BoundKind.parse("mr:2"), BoundKind.parse("blaser"), 100).first_strict
    assert first == 31 and MAX_KEYLEMMA_N >= first
    assert MAX_CROSSOVER_N >= 1000  # the default --n-max


def test_byte_determinism(capsys):
    first = run(capsys, "bounds", "--n", "50")[1]
    second = run(capsys, "bounds", "--n", "50")[1]
    assert first == second
    first = run(capsys, "certify", "--matmul", "2,2,2", "--p", "1", "--seed", "6")[1]
    second = run(capsys, "certify", "--matmul", "2,2,2", "--p", "1", "--seed", "6")[1]
    assert first == second


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "table.md"
    code, out = run(capsys, "bounds", "--n", "10", "--output", str(target))
    assert code == 0 and out == ""
    assert "strassen" in target.read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--n", "5"),
        ("certify", "--matmul", "2,2,2", "--p", "1"),
        ("keylemma", "--n", "3", "--p", "1"),
    ],
)
@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_unwritable_output_exits_2(tmp_path, capsys, argv, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
    code = main([*argv, "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: cannot write --output {target}: ")
    assert "Traceback" not in captured.err
