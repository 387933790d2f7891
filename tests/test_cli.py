import json
import time

import jsonschema
import pytest

from tring import cli, rt0
from tring.poly import MAX_EXPONENT, MAX_NESTING, MAX_PRODUCT_PAIRS
from tring.verify import REPORT_SCHEMA, Bounds, CheckResult, SuiteReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    code, out, _ = run_cli(capsys, "eval", "t0^2*t1 + 2*t0*t1^2")
    assert code == 0
    assert out == "t0^2*t1 + 2*t0*t1^2\n"


def test_dot_odot_iota(capsys):
    code, out, _ = run_cli(capsys, "dot", "t1", "t1")
    assert (code, out) == (0, "t1^2 + 2*t1*t2\n")
    code, out, _ = run_cli(capsys, "odot", "1", "t0+t1")
    assert (code, out) == (0, "t0*t1 + t1^2 + 2*t1*t2\n")
    code, out, _ = run_cli(capsys, "iota", "t0^2*t1")
    assert code == 0
    assert out == (
        "t0^2*t1 + 2*t0*t1^2 + 4*t0*t1*t2 + t1^3 + 3*t1^2*t2 + 3*t1*t2^2"
        " + 6*t1*t2*t3\n"
    )


def test_basis(capsys):
    code, out, _ = run_cli(capsys, "basis", "t1")
    assert (code, out) == (0, "1 * (1 (*) 1)\n")
    code, out, _ = run_cli(capsys, "basis", "t0")
    assert (code, out) == (0, "1 * (t0)\n")
    code, out, _ = run_cli(capsys, "basis", "t0*t1 + t1^2 + 2*t1*t2")
    assert (code, out) == (0, "1 * (1 (*) t0) + 1 * (1 (*) 1 (*) 1)\n")
    code, out, _ = run_cli(capsys, "basis", "t1", "--which", "iota-basis")
    assert (code, out) == (0, "1 * (1 (*) 1)\n")
    code, out, _ = run_cli(capsys, "basis", "0")
    assert (code, out) == (0, "0\n")


def test_expressions_with_a_leading_minus(capsys):
    assert run_cli(capsys, "eval", "-2*t1") == (0, "-2*t1\n", "")
    assert run_cli(capsys, "dot", "-t0-t1", "t1") == (0, "-t0*t1 - t1^2 - 2*t1*t2\n", "")
    assert run_cli(capsys, "odot", "-1", "-(t0+t1)") == (0, "t0*t1 + t1^2 + 2*t1*t2\n", "")
    assert run_cli(capsys, "basis", "-t0", "--which", "iota-basis") == (
        0,
        "-1 * ((t0+t1)) + 1 * (1 (*) 1)\n",
        "",
    )
    assert run_cli(capsys, "eval", "--", "-2*t1") == (0, "-2*t1\n", "")
    # parse errors point into the expression as typed
    assert run_cli(capsys, "eval", "-2*t1+") == (
        2,
        "",
        "error: unexpected '' (at position 6)\n",
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "-x"], "the following arguments are required: expression"),
        (["eval", "--foo", "t1"], "unrecognized arguments: --foo"),
        (["eval", "--foo", "-t0"], "the following arguments are required: expression"),
        (["eval", "t1", "-t0"], "unrecognized arguments: -t0"),
        (["basis", "t0", "--which", "-t0"], "argument --which: expected one argument"),
    ],
)
def test_options_next_to_a_leading_minus(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.splitlines()[-1].endswith(f"error: {message}")
    assert "\0" not in err


def test_help_is_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tring eval [-h] expression")


@pytest.mark.parametrize("which", ["structure", "iota-basis"])
@pytest.mark.parametrize("expression, degree", [("t0^9", 9), ("t0^20*t1^10", 30)])
def test_basis_degree_bound(capsys, which, expression, degree):
    misses = rt0._basis_matrix.cache_info().misses
    assert run_cli(capsys, "basis", expression, "--which", which) == (
        2,
        "",
        f"error: basis expansion supports degree at most {rt0.MAX_BASIS_DEGREE}, "
        f"got degree {degree}\n",
    )
    assert rt0._basis_matrix.cache_info().misses == misses


def test_parse_and_validation_errors(capsys):
    code, _, err = run_cli(capsys, "eval", "t1 +")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "eval", "t1*t3")
    assert code == 2 and "t1*t3" in err
    code, _, err = run_cli(capsys, "verify", "ring", "--base", "/no/such/file")
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "no-such-suite"])
    assert exc.value.code == 2


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "dim", "--max-degree", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["suite"] == "dim"
    assert payload["total"] == 7
    assert "duration_seconds" not in payload


def test_verify_json_timings(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "dim", "--max-degree", "3", "--json", "--timings"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert "duration_seconds" in payload


def test_verify_deterministic_output(capsys):
    first = run_cli(capsys, "verify", "identity", "--max-n", "4", "--json")
    second = run_cli(capsys, "verify", "identity", "--max-n", "4", "--json")
    assert first == second
    first = run_cli(capsys, "verify", "ring", "--seed", "7")
    second = run_cli(capsys, "verify", "ring", "--seed", "7")
    assert first == second


def test_verify_seed_recorded(capsys):
    code, out, _ = run_cli(capsys, "verify", "ring", "--seed", "99", "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 99


def test_verify_failure_exit_code(capsys, monkeypatch):
    def failing(bounds: Bounds) -> SuiteReport:
        report = SuiteReport("ring", bounds.seed, {})
        report.checks.append(
            CheckResult("forced", "unit test", False, "synthetic counterexample")
        )
        return report

    from tring import verify

    monkeypatch.setitem(verify.SUITES, "ring", failing)
    code, out, _ = run_cli(capsys, "verify", "ring")
    assert code == 1
    assert "FAIL" in out and "synthetic counterexample" in out


def test_verify_with_config_file(capsys, tmp_path):
    # an axiom run at arity <= 2 produces intermediate arities up to 4,
    # so the config must declare those algebras and clutching maps
    lines = []
    for arity in (2, 3, 4):
        lines += [
            f"[algebra n={arity}]",
            "basis one deg 0",
            "basis h deg 1",
            "mul one one = one",
            "mul one h = h",
            "mul h h = 0",
        ]
        lines += [f"phi {slot} = h" for slot in range(arity + 1)]
    for m, n in ((2, 2), (3, 2), (2, 3)):
        for j in range(1, m + 1):
            lines += [
                f"clutch m={m} n={n} j={j} one one = one",
                f"clutch m={m} n={n} j={j} one h = h",
                f"clutch m={m} n={n} j={j} h one = h",
                f"clutch m={m} n={n} j={j} h h = 0",
            ]
    config = tmp_path / "tiny.base"
    config.write_text("\n".join(lines))
    code, out, _ = run_cli(
        capsys,
        "verify",
        "operad-axioms",
        "--base",
        str(config),
        "--max-arity",
        "2",
        "--max-degree",
        "1",
    )
    assert code == 0
    assert "axiom4" in out


def test_non_canonical_variable_names_rejected(capsys):
    for text in ("t01", "t007", "t1*t02"):
        code, out, err = run_cli(capsys, "eval", text)
        assert code == 2 and out == ""
        assert "unknown variable" in err
    code, out, _ = run_cli(capsys, "eval", "t0")
    assert (code, out) == (0, "t0\n")


def test_deep_nesting_is_a_parse_error(capsys):
    # 3,000 levels used to overflow the stack with an uncaught RecursionError
    for argv in (
        ["eval", "(" * 3000 + "t1" + ")" * 3000],
        ["eval", "--", "-" * 3000 + "t1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: expression nested too deeply")
        assert err.count("\n") == 1
    nested = "(" * MAX_NESTING + "t1" + ")" * MAX_NESTING
    assert run_cli(capsys, "eval", nested) == (0, "t1\n", "")


@pytest.mark.parametrize(
    "text",
    [
        # degree 120, but a degree bound applies only after the expansion
        "(t0+t1+t1^2+t1^3)^40",
        # 30 terms to the 12th power; eval has no degree bound
        "(" + "+".join(f"t{i}" for i in range(1, 31)) + ")^12",
    ],
)
def test_parsed_products_are_bounded(capsys, text):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", text)
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert err.startswith("error: product of ")
    assert err.count("\n") == 1


def test_product_bound_is_inclusive(capsys):
    widest = "+".join(f"t1^{i}" for i in range(1, MAX_PRODUCT_PAIRS + 1))
    code, out, _ = run_cli(capsys, "eval", f"({widest})*t2")
    assert code == 0 and out.count("*t2") == MAX_PRODUCT_PAIRS
    code, out, err = run_cli(capsys, "eval", f"({widest})*(t2+t3)")
    assert code == 2 and out == ""
    assert err.startswith(f"error: product of {MAX_PRODUCT_PAIRS} and 2 terms")


def test_parsed_exponents_are_bounded(capsys):
    # refused before the power is formed, and before int() meets a string
    # above the interpreter's digit limit
    for text in ("2^1000000", "t1^" + "9" * 5000, f"t1^{MAX_EXPONENT + 1}"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "eval", text)
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (2, "")
        assert err.startswith(f"error: exponent above the bound of {MAX_EXPONENT} ")
        assert err.count("\n") == 1
    assert run_cli(capsys, "eval", f"t1^{MAX_EXPONENT}") == (0, f"t1^{MAX_EXPONENT}\n", "")


def test_consistency_error_exit_code(capsys, monkeypatch):
    # a singular word basis matrix is an internal error, not a failed identity
    monkeypatch.setattr(rt0, "solve_exact", lambda matrix, rhs: None)
    code, out, err = run_cli(capsys, "basis", "t1")
    assert (code, out) == (3, "")
    assert err == "internal error: degree-1 word basis matrix is singular\n"


def test_concatenation_form_is_checked_by_verify_only(capsys, monkeypatch):
    # odot does not recompute the concatenation form; the odot suite
    # compares the two paths
    monkeypatch.setattr(rt0, "_concatenation", lambda x, y: rt0.RT0Element.zero())
    assert run_cli(capsys, "odot", "1", "1") == (0, "t1\n", "")
    code, out, _ = run_cli(capsys, "verify", "odot", "--max-degree", "1", "--max-n", "2")
    assert code == 1
    assert "FAIL concatenation_consistency" in out


@pytest.mark.parametrize(
    "argv, degree",
    [
        (["iota", "t0^13"], 13),
        (["dot", "t0^6", "t0^7"], 13),
        (["odot", "t0^6", "t0^6"], 13),
        (["odot", "1", "(t0+t1)^12"], 13),
    ],
)
def test_result_degree_bound(capsys, monkeypatch, argv, degree):
    def refuse(*args):
        raise AssertionError("a product was computed")

    for name in ("iota", "dot_mul", "odot"):
        monkeypatch.setattr(cli, name, refuse)
    assert run_cli(capsys, *argv) == (
        2,
        "",
        f"error: result degree {degree} is above the bound {cli.MAX_RESULT_DEGREE}\n",
    )


def test_result_degree_bound_admits(capsys):
    assert cli.MAX_RESULT_DEGREE == 12
    code, out, _ = run_cli(capsys, "iota", "t0^12")
    assert code == 0 and out.count(" + ") + out.count(" - ") + 1 == 2**12
    # a zero factor makes a zero product, whatever the other's degree
    assert run_cli(capsys, "dot", "0", "t0^20") == (0, "0\n", "")
    assert run_cli(capsys, "odot", "t0^20", "0") == (0, "0\n", "")
    code, out, _ = run_cli(capsys, "odot", "t0^5", "t0^6")
    assert code == 0 and rt0.RT0Element.from_text(out).degree() == 12


def test_basis_reevaluation_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "evaluate_structure_word", lambda word: rt0.RT0Element.zero())
    code, out, err = run_cli(capsys, "basis", "t1")
    assert (code, out) == (3, "")
    assert err == "internal error: expansion does not re-evaluate to the input\n"
