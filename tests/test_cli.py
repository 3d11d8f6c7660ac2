import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hochschild import cli, engine, ideals
from hochschild.cli import _json, build_parser, main
from hochschild.grading import NotWeightedHomogeneousError
from hochschild.parsing import parse_polynomial
from hochschild.poly import Polynomial
from reference import report_payload
from test_series import weighted_homogeneous


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weights_command(capsys):
    code, out, err = run(capsys, "weights", "--poly", "z1^2 + z2^2*z3 + z3^4")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload == {"f": "z1^2 + z2^2*z3 + z3^4", "weights": [4, 3, 2],
                       "degree": 8, "underdetermined": False}


def test_weights_beyond_search_bound(capsys):
    code, out, err = run(capsys, "weights", "--poly", "z1^41*z3+z2*z3")
    assert code == 0 and err == ""
    payload = json.loads(out)
    w1, w2, w3 = payload["weights"]
    assert w2 == 41 * w1 and payload["degree"] == w2 + w3
    assert payload["underdetermined"] is True


def test_milnor_infinite_is_success(capsys):
    code, out, _ = run(capsys, "milnor", "--poly", "z1^2*z2")
    assert code == 0
    assert json.loads(out)["milnor"] == "infinite"


@pytest.mark.parametrize("argv", [
    ["milnor"],
    ["cohomology", "--mode", "structural", "--max-degree", "0"],
    ["homology", "--mode", "graded", "--max-degree", "0"],
])
def test_huge_milnor_basis_is_refused_before_the_walk(capsys, argv):
    # 10^11 - 2 standard monomials: exit 1 with the bound, in no time
    code, out, err = run(capsys, *argv, "--poly", "z1^99999999999")
    assert (code, out) == (1, "")
    assert err == ("error: the standard monomial basis may hold up to "
                   "99999999998 monomials, above the limit of 2000000\n")


@pytest.mark.parametrize("mode", ["both", "graded", "structural"])
def test_oversized_scan_window_is_refused(capsys, mode):
    # the window of degree 1 reaches weight 2000001, one past the limit;
    # nothing is listed by weight before the refusal (CI runs the same
    # command at a cutoff whose lists would not fit in memory)
    code, out, err = run(capsys, "cohomology", "--poly", "z1^2",
                         "--max-degree", "1", "--weight-cutoff", "2000000",
                         "--mode", mode)
    assert (code, out) == (1, "")
    assert err == ("error: the scan window reaches weight 2000001, above "
                   "the limit of 2000000\n")


@pytest.mark.parametrize("argv, message", [
    (("cohomology", "--poly", "z1^2", "--mode", "structural"),
     "the report would list 70000007 (degree, weight) slices, above the "
     "limit of 2000000"),
    (("homology", "--poly", "z1^2+z2^3", "--mode", "graded"),
     "the scan window reaches weight 30000017, above the limit of 2000000"),
])
def test_huge_max_degree_is_refused_before_the_windows(capsys, argv,
                                                        message):
    # the cohomology windows of z1^2 never pass weight 7, but 10^7 + 1
    # degrees of 7 weights each are too many slices; the homology
    # windows of z1^2+z2^3 grow with p.  Both end in no time, without
    # listing a window for each degree
    code, out, err = run(capsys, *argv, "--max-degree", "10000000")
    assert (code, out, err) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("argv", [
    ("cohomology", "--poly", "(z1+z2+z3)^200"),
    ("milnor", "--poly", "(z1+z2+z3)^200"),
    ("groebner", "--gens", "z1^2; (z1+z2+z3)^200"),
])
def test_huge_power_is_refused_before_it_expands(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.endswith("may expand to 20301 terms, above the limit of "
                        "1000\n")
    assert err.count("\n") == 1 and err.startswith("error: the power at ")


def test_huge_product_is_refused_before_it_expands(capsys):
    cube = "*".join(["(z1+z2+z3)^43"] * 3)
    code, out, err = run(capsys, "groebner", "--gens", cube)
    assert (code, out, err) == (
        1, "", "error: the product at offset 27 multiplies 3789720 pairs "
        "of terms, above the limit of 1000000\n")


@pytest.mark.parametrize("poly, message", [
    ("(3*z1)^99999999", "the power at offset 7 may reach a coefficient of "
     "60206000 digits"),
    ("(3*z1)^10000", "the power at offset 7 may reach a coefficient of "
     "6021 digits"),
    ("3^1200*3^1200*z1^2", "the product at offset 6 may reach a "
     "coefficient of 1146 digits"),
    ("7" * 5000 + "*z1^2", "the number at offset 0 has 5000 digits"),
    ("1/" + "7" * 5000 + "*z1^2", "the number at offset 0 has 5000 digits"),
    ("0" * 5000 + "7" * 1001 + "*z1^2",
     "the number at offset 0 has 1001 digits"),
])
def test_huge_coefficient_is_refused_before_it_is_computed(capsys, poly,
                                                          message):
    # the first would compute for minutes, and the others used to end
    # in a traceback: Python prints no int of more than 4300 digits
    for argv in (("weights", "--poly", poly), ("groebner", "--gens", poly)):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (
            1, "", "error: %s, above the limit of 1000\n" % message)


def test_near_limit_walk_is_refused_in_little_memory(capsys):
    # z1^2+z2^2+z3^2 has about 4 * 10^6 standard monomials through
    # weight 1999990, and the walk used to stack the 2 * 10^6 prefixes of
    # one coordinate, 370 MB, before it counted the first run
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "cohomology", "--mode", "graded",
                             "--max-degree", "0", "--poly", "z1^2+z2^2+z3^2",
                             "--weight-cutoff", "1999990")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == ("error: the standard monomials of weight at most 1999990 "
                   "number at least 3999981, above the limit of 2000000\n")
    assert peak < 20 * 2 ** 20


TRINOMIALS = ("-2*z1*z2^2*z3^2+3*z1*z3-3*z2^2*z3;"
              "z1^2*z2^2*z3^2+z1^2*z2-z1*z3;"
              "-7/3*z1^2*z2^2-2*z1*z3^2-3*z2^2*z3")


def test_groebner_basis_with_a_huge_coefficient_is_refused(capsys):
    # about 40 S-pairs in, a basis element already holds a coefficient
    # of 16,533 bits; unbounded, the run did not end within 10 s
    code, out, err = run(capsys, "groebner", "--gens=" + TRINOMIALS)
    assert (code, out, err) == (
        1, "", "error: a Groebner basis element has a coefficient of 16533 "
        "bits, above the limit of 10000\n")


@pytest.mark.parametrize("argv", [
    ("milnor", "--poly", "z1^3+z2^3+11*z1*z2"),
    ("cohomology", "--poly", "z1^3+9*z2^3"),
    ("homology", "--poly", "z1^3+9*z2^3", "--mode", "graded"),
    ("cohomology", "--poly", "z1^3+9*z2^3", "--mode", "structural"),
    # the minimal basis z1 - 3*z2, z2 - 3*z3 passes the bound, and the
    # reduced basis's z1 - 9*z3 does not
    ("groebner", "--gens", "z1-3*z2; z2-3*z3"),
])
def test_every_command_refuses_a_basis_past_the_coefficient_bound(
        capsys, monkeypatch, argv):
    monkeypatch.setattr(ideals, "MAX_COEFFICIENT_BITS", 3)
    assert run(capsys, *argv) == (
        1, "", "error: a Groebner basis element has a coefficient of 4 "
        "bits, above the limit of 3\n")


def test_milnor_finite(capsys):
    code, out, _ = run(capsys, "milnor", "--catalog", "e8-curve")
    assert code == 0
    assert json.loads(out)["milnor"] == 8


def test_milnor_says_global_when_not_weighted_homogeneous(capsys):
    # the local Milnor number at 0 is 1; the global count is 5
    poly = "z1^2+z2^2+z3^2+z1*z2*z3"
    code, out, _ = run(capsys, "milnor", "--poly", poly)
    assert code == 0
    payload = json.loads(out)
    assert payload["milnor"] == 5
    assert len(payload["notes"]) == 1 and "global" in payload["notes"][0]
    code, out, _ = run(capsys, "milnor", "--poly", poly, "--format", "table")
    assert code == 0
    assert out.splitlines()[0] == "milnor = 5"
    assert "global" in out


def test_milnor_weighted_homogeneous_has_no_note(capsys):
    code, out, _ = run(capsys, "milnor", "--catalog", "e8-curve")
    assert json.loads(out) == {"f": "z1^3 + z2^5", "milnor": 8}
    code, out, _ = run(capsys, "milnor", "--catalog", "e8-curve",
                       "--format", "table")
    assert out == "milnor = 8\n"
    # weighted homogeneous with w2 = 41 w1, beyond the weight search
    code, out, _ = run(capsys, "milnor", "--poly", "z1^41*z3+z2*z3")
    assert code == 0 and "notes" not in json.loads(out)


def test_cohomology_json_shape(capsys):
    code, out, _ = run(capsys, "cohomology", "--catalog", "a2-curve")
    assert code == 0
    payload = json.loads(out)
    assert payload["milnor"] == 2
    assert payload["crosscheck"] == "agree"
    assert payload["homology"] is None
    assert [d["p"] for d in payload["cohomology"]] == list(range(7))
    assert payload["cohomology"][2]["structure"] == "C^2"
    assert payload["cohomology"][2]["graded_dims"] == [[0, 1], [2, 1]]
    assert payload["kernel_verified"] is True


def test_homology_json_shape(capsys):
    code, out, _ = run(capsys, "homology", "--catalog", "a2-curve",
                       "--max-degree", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["cohomology"] is None
    assert len(payload["homology"]) == 4


def test_byte_stable_output(capsys):
    _, first, _ = run(capsys, "cohomology", "--catalog", "d4-surface")
    _, second, _ = run(capsys, "cohomology", "--catalog", "d4-surface")
    assert first == second


def test_groebner_command(capsys):
    code, out, _ = run(capsys, "groebner", "--gens",
                       "z1^2*z2 + z2^3; z1^2 + 3*z2^2")
    assert code == 0
    assert json.loads(out)["basis"] == ["z1^2 + 3*z2^2", "z2^3"]


def test_groebner_jacobian_flag(capsys):
    code, out, _ = run(capsys, "groebner", "--gens", "z1^3 + z2^2",
                       "--jacobian")
    assert code == 0
    assert json.loads(out)["basis"] == ["z1^2", "z2"]


@pytest.mark.parametrize("gens", ["x^2+z1", "x^2;z1*z2"])
def test_groebner_rejects_mixed_alphabets(capsys, gens):
    # within one generator or across two, x must not be read as z1
    code, out, err = run(capsys, "groebner", "--gens", gens)
    assert (code, out) == (2, "")
    assert "cannot mix z-variables with x, y" in err


def test_bar_oracle_command(capsys):
    code, out, _ = run(capsys, "bar-oracle", "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["cohomology"] == [3, 2, 2, 2]
    assert payload["homology"] == [3, 2, 2, 2]


def test_bar_oracle_resource_limit(capsys):
    code, _, err = run(capsys, "bar-oracle", "--k", "5")
    assert code == 1
    assert "limited" in err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    names = json.loads(out)["names"]
    assert "d5-surface" in names and "d3-curve" not in names


def test_catalog_entry_details(capsys):
    code, out, _ = run(capsys, "catalog", "--name", "d4-surface")
    assert code == 0
    payload = json.loads(out)
    assert payload["expected_milnor"] == 5
    assert "invariants" in payload


def test_verify_invariants_all(capsys):
    code, out, _ = run(capsys, "verify-invariants")
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results) == 19
    assert all(r["relation_holds"] for r in results)


@pytest.mark.parametrize("argv, message", [
    (("milnor", "--poly", "2z1"),
     "implicit multiplication is not allowed (at offset 1)"),
    *[((command, "--poly", "z1^"), "exponent must be a natural number "
       "(at offset 3)")
      for command in ("cohomology", "homology", "milnor", "weights")],
    (("groebner", "--gens", "z1^2; z1^"), "exponent must be a natural "
     "number (at offset 3)"),
])
def test_parse_error_is_usage_error(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", "error: parse error: %s\n" % message)


def test_precondition_error_exit_code(capsys):
    code, _, err = run(capsys, "cohomology", "--poly", "z1^2 + z1^3")
    assert code == 1
    assert "weight" in err


@pytest.mark.parametrize("mode", ["both", "graded", "structural"])
def test_non_isolated_cohomology_exit_code(capsys, mode):
    # classifier preconditions fail (Milnor infinite): mode both prints
    # the report and exits 1 on its note, mode graded never runs the
    # classifier, and mode structural has no report to print
    code, out, err = run(capsys, "cohomology", "--poly", "z1^2*z2",
                         "--max-degree", "2", "--mode", mode)
    if mode == "structural":
        assert (code, out) == (1, "")
        assert err.startswith("error: non-isolated singularity")
        return
    payload = json.loads(out)
    assert payload["milnor"] == "infinite"
    assert payload["crosscheck"] == "skipped"
    if mode == "both":
        assert code == 1
        assert err == "classifier disabled: non-isolated singularity: " \
            "Milnor algebra is infinite-dimensional\n"
        assert payload["notes"] == [err.rstrip("\n")]
    else:
        assert (code, err) == (0, "")
        assert "notes" not in payload


# Each command's computation, by the name `cli` reaches it through: the
# refusal table in `main` must give every one the same exit code
_COMPUTATIONS = [
    (("cohomology", "--poly", "z1^3+z2^2"), "hochschild.engine.analyze"),
    (("homology", "--poly", "z1^3+z2^2"), "hochschild.engine.analyze"),
    (("groebner", "--gens", "z1^2"), "hochschild.cli.buchberger"),
    (("milnor", "--poly", "z1^3"), "hochschild.cli.milnor_number"),
    (("weights", "--poly", "z1^3"), "hochschild.cli.detect_weights"),
    (("weights", "--poly", "z1^3"), "hochschild.cli.parse_polynomial"),
    (("groebner", "--gens", "z1^2"), "hochschild.cli.parse_polynomials"),
]


def _raiser(exc):
    def raise_(*args, **kwargs):
        raise exc
    return raise_


@pytest.mark.parametrize("refusal", cli._REFUSALS,
                         ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("argv, target", _COMPUTATIONS,
                         ids=lambda v: v if type(v) is str else v[0])
def test_every_refusal_exits_1_with_one_line(capsys, monkeypatch, argv,
                                             target, refusal):
    monkeypatch.setattr(target, _raiser(refusal("refused here")))
    assert run(capsys, *argv) == (1, "", "error: refused here\n")


@pytest.mark.parametrize("argv, target", _COMPUTATIONS,
                         ids=lambda v: v if type(v) is str else v[0])
def test_a_bug_in_a_handler_is_not_a_refusal(monkeypatch, argv, target):
    # the table names its classes: an AssertionError, such as a failed
    # internal check, still escapes `main` with its traceback
    monkeypatch.setattr(target, _raiser(AssertionError("a bug")))
    with pytest.raises(AssertionError, match="a bug"):
        main(list(argv))


@st.composite
def poly_texts(draw):
    """Short polynomial texts: up to 3 terms in z1..z3, exponents up to
    6, some with a stray token put in anywhere, so that parse errors
    and refusals come up as well as reports."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = draw(st.sampled_from(["", "2*", "-", "1/2*", "7"]))
        powers = draw(st.lists(st.tuples(st.integers(1, 3),
                                         st.integers(0, 6)),
                               min_size=1, max_size=3))
        terms.append(coeff + "*".join("z%d^%d" % vp for vp in powers))
    text = "+".join(terms)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        token = draw(st.sampled_from(
            ["+", "-", "*", "^", "(", ")", "/", "0", "z4", "x", " ", "^-1"]))
        text = text[:at] + token + text[at:]
    return text


_STRUCTURAL = ("cohomology", "--mode", "structural", "--max-degree", "2")


@settings(max_examples=150, deadline=None)
@given(poly_texts(), st.sampled_from([("weights",), _STRUCTURAL]))
@example("z1^2*z2", _STRUCTURAL)
@example("z1^", ("weights",))
@example("5", ("weights",))
def test_every_text_exits_0_1_or_2_without_a_traceback(text, command):
    # a traceback would escape `main` and fail the test; a refusal or a
    # parse error is one line on stderr and nothing on stdout
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*command, "--poly=" + text])
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() == ""
        lines = err.getvalue().split("\n")
        assert len(lines) == 2 and lines[0].startswith("error: ") \
            and lines[1] == "", err.getvalue()


def test_missing_poly_is_usage_error(capsys):
    code, _, err = run(capsys, "milnor")
    assert code == 2
    assert "required" in err


def test_poly_with_a_leading_minus_takes_the_equals_form(capsys,
                                                         monkeypatch):
    # after a space argparse reads the value as an option and exits 2;
    # the --poly= form documented in --help and the README reaches f
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--poly", "-z1*z2+z1*z3-z2^2-z2*z3"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    code, out, err = run(capsys, "cohomology",
                         "--poly=-z1*z2+z1*z3-z2^2-z2*z3")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["f"] == "-z1*z2 + z1*z3 - z2^2 - z2*z3"
    assert payload["crosscheck"] == "agree"
    monkeypatch.setenv("COLUMNS", "80")     # the width argparse wraps at
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--help"])
    assert exc.value.code == 0
    assert "--poly=-z1*z2+..." in capsys.readouterr().out


@pytest.mark.parametrize("command",
                         ["cohomology", "homology", "milnor", "weights"])
def test_poly_and_catalog_together_exit_2(capsys, command):
    # neither option may silently win over the other
    with pytest.raises(SystemExit) as exc:
        main([command, "--poly", "z1^2+z2^3", "--catalog", "a1-curve"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with" in captured.err


def test_table_format(capsys):
    code, out, _ = run(capsys, "cohomology", "--catalog", "a1-curve",
                       "--format", "table")
    assert code == 0
    assert "crosscheck: agree" in out


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("cohomology", "--poly", "z1^3+z2^2", "--max-degree", "-1"),
    ("homology", "--poly", "z1^3+z2^2", "--weight-cutoff", "-3"),
    ("bar-oracle", "--k", "3", "--max-degree", "-1"),
])
def test_negative_degree_or_cutoff_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be >= 0" in captured.err


@pytest.mark.parametrize("argv, expected, line", [
    (("groebner", "--gens", " ; "), 2, "error: no generators given"),
    (("weights", "--poly", "z1^2*z2^3+z1"), 1,
     "error: homogeneity equations force a non-positive weight"),
    (("homology", "--catalog", "a0-curve"), 2,
     "error: A_k curves need k >= 1"),
    (("verify-invariants", "--name", "a3-curve"), 2,
     "error: a3-curve has no invariant data"),
    (("bar-oracle", "--k", "0"), 2, "error: k must be positive"),
    # argparse rejects the value itself and exits
    (("cohomology", "--poly", "z1^2", "--max-degree", "x"), SystemExit(2),
     "hh cohomology: error: argument --max-degree: invalid int value: 'x'"),
])
def test_usage_error_exit_code_and_message(capsys, argv, expected, line):
    try:
        outcome = main(list(argv))
    except SystemExit as exc:
        outcome = exc
    assert repr(outcome) == repr(expected)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == line


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_shared_parser_keeps_defaults_between_calls(capsys):
    code, out, _ = run(capsys, "cohomology", "--catalog", "a1-curve",
                       "--max-degree", "2", "--format", "table")
    assert code == 0 and out.startswith("f = ")
    code, out, _ = run(capsys, "cohomology", "--catalog", "a1-curve")
    assert code == 0
    assert [d["p"] for d in json.loads(out)["cohomology"]] == list(range(7))


# strings: quotes, backslashes, control and non-ASCII characters
_texts = st.text(alphabet=st.sampled_from(
    'a"\\/\n\t\x00\x1f\x7f\xe9\u20ac\U0001f600')) | st.text(max_size=8)
_ints = st.integers(min_value=-2 ** 70, max_value=2 ** 70)
_scalars = st.none() | st.booleans() | _ints | _texts
# row shapes: equal-length int rows, like a report's graded_dims, and
# rows holding a bool, ragged or empty
_int_rows = st.integers(1, 3).flatmap(lambda w: st.lists(
    st.lists(_ints, min_size=w, max_size=w), min_size=1, max_size=4))
_mixed_rows = st.lists(st.lists(_ints | st.booleans(), max_size=3),
                       max_size=4)
_json_values = st.recursive(
    _scalars | _int_rows | _mixed_rows,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(_texts, inner, max_size=4),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example([[0, 1], [2, True]])
@example([[0, 1], [2]])
@example([[], []])
@example({"graded_dims": [[0, 1], [2, 1]], "basis": None})
@example([(1, 2), (3, 4)])
def test_json_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    1.5, Fraction(1, 2), {1: "a"}, [[0, 1], [2, 0.5]], {"a": [Fraction(1)]},
])
def test_json_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        _json(value)


_ALL_COMMANDS = [
    ("cohomology", "--catalog", "a2-curve"),
    ("cohomology", "--catalog", "d4-surface", "--mode", "structural"),
    ("homology", "--catalog", "e6-curve", "--max-degree", "4"),
    ("homology", "--catalog", "d4-surface", "--mode", "structural"),
    ("cohomology", "--poly", "z1^2*z2", "--max-degree", "2"),
    # every basis null; one degree; a note
    ("cohomology", "--catalog", "e6-curve", "--mode", "graded"),
    ("homology", "--catalog", "d4-surface", "--max-degree", "0"),
    ("homology", "--poly", "z1*z2", "--mode", "both"),
    ("groebner", "--gens", "z1^2*z2 + z2^3; z1^2 + 3*z2^2"),
    ("milnor", "--catalog", "e8-curve"),
    ("milnor", "--poly", "z1^2+z2^2+z3^2+z1*z2*z3"),
    ("weights", "--poly", "z1^41*z3+z2*z3"),
    ("bar-oracle", "--k", "3"),
    ("catalog",),
    ("catalog", "--name", "d4-surface"),
    ("verify-invariants",),
]


@pytest.mark.parametrize("argv", _ALL_COMMANDS)
def test_every_command_prints_json_dumps_bytes(capsys, argv):
    _, out, _ = run(capsys, *argv)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@settings(max_examples=60, deadline=None)
@given(weighted_homogeneous(), st.sampled_from(["cohomology", "homology"]),
       st.sampled_from(["structural", "graded", "both"]), st.integers(0, 4),
       st.none() | st.integers(0, 12))
@example(((1, 1), 2, Polynomial(2, {(1, 1): 1})), "homology", "both", 1, 0)
@example(((1,), 1, Polynomial(1, {(1,): 1})), "cohomology", "structural", 2,
         None)
def test_report_writer_prints_the_reference_payload(case, direction, mode,
                                                    p_max, cutoff):
    # the streamed report is byte for byte json.dumps of the payload,
    # for every mode, at cutoff 0, with notes, shared bases and, for a
    # smooth f, empty ones; f is read back from its text, as the command
    # sizes the ring by the variables the text names
    f = parse_polynomial(case[2].to_str())
    argv = [direction, "--poly=" + f.to_str(), "--mode", mode,
            "--max-degree", str(p_max)]
    if cutoff is not None:
        argv += ["--weight-cutoff", str(cutoff)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    try:
        report = engine.analyze(f, direction=direction, p_max=p_max,
                                cutoff=cutoff, mode=mode)
    except (engine.PreconditionError, NotWeightedHomogeneousError):
        assert (code, out.getvalue()) == (1, "")
        return
    assert out.getvalue() == json.dumps(report_payload(report),
                                        indent=2) + "\n"
    assert code == (1 if report.notes else 0)


def test_report_writer_sorts_rows_and_escapes_labels():
    # the engine lists slices by rising weight and labels are plain
    # monomials, but the writer does not rely on either
    report = engine.analyze(parse_polynomial("z1^3+z2^2"), p_max=1)
    shared = ("z\"1", "\u00e9\\")
    report = report._replace(degrees=[
        deg._replace(oracle_graded={5: 1, 0: 2, 3: 1}, basis=shared)
        for deg in report.degrees])
    out = io.StringIO()
    with redirect_stdout(out):
        cli._write_report(report)
    assert out.getvalue() == json.dumps(report_payload(report),
                                        indent=2) + "\n"


def test_json_report_builds_no_table(capsys, monkeypatch):
    def refuse(report):
        raise AssertionError("table text built for a JSON report")

    monkeypatch.setattr(cli, "_report_table", refuse)
    code, out, _ = run(capsys, "cohomology", "--catalog", "a2-curve")
    assert code == 0 and json.loads(out)["crosscheck"] == "agree"
    with pytest.raises(AssertionError):
        main(["homology", "--catalog", "a2-curve", "--format", "table"])


@pytest.mark.parametrize("argv, expected", [
    (("cohomology", "--catalog", "a2-curve", "--max-degree", "3"),
     "f = z1^3 + z2^2\n"
     "weights = [2, 3], degree = 6\n"
     "milnor = 2\n"
     "HH^0   A                        0:1 2:1 3:1 4:1 5:1 6:1 7:1 8:1 9:1"
     " 10:1 11:1 12:1 13:1 14:1 15:1 16:1 17:1 18:1\n"
     "HH^1   A + C^2                  6:1 7:1 8:1 9:1 10:1 11:1 12:1 13:1"
     " 14:1 15:1 16:1 17:1 18:1 19:1 20:1 21:1\n"
     "HH^2   C^2                      0:1 2:1\n"
     "HH^3   C^2                      6:1 8:1\n"
     "crosscheck: agree\n"),
    (("groebner", "--gens", "z1^3+z2^2", "--jacobian"), "z1^2\nz2\n"),
    (("milnor", "--poly", "z1^2+z2^2+z3^2+z1*z2*z3"),
     "milnor = 5\nglobal dim C[z]/<grad f>: f is not weighted homogeneous,"
     " so this need not be the local Milnor number at 0\n"),
    (("weights", "--poly", "z1^41*z3+z2*z3"),
     "weights = [1, 41, 41], degree = 82 (underdetermined)\n"),
    (("bar-oracle", "--k", "2", "--max-degree", "2"),
     "cohomology: [2, 1, 1]\nhomology:   [2, 1, 1]\n"),
    (("catalog", "--name", "d4-surface"),
     "d4-surface: f = z1^2 + z2^2*z3 + z3^4, milnor = 5\n"),
    (("verify-invariants", "--name", "e6-surface"), "e6-surface: ok\n"),
])
def test_table_output(capsys, argv, expected):
    code, out, err = run(capsys, *argv, "--format", "table")
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("argv, code", [
    (("milnor", "--catalog", "e8-curve"), 0),
    (("cohomology", "--poly", "z1^2*z2", "--mode", "structural"), 1),
    (("milnor", "--poly", "2z1"), 2),
    # rejected by the resource guard before any table is built
    (("bar-oracle", "--k", "100"), 1),
    # the commands that import `catalog` or `bar` when they run
    (("cohomology", "--catalog", "a2-curve"), 0),
    (("catalog", "--name", "e8-surface"), 0),
    (("verify-invariants",), 0),
    (("bar-oracle", "--k", "3"), 0),
])
def test_module_entry_point_exit_codes(argv, code):
    # the real process, through the module's __main__ block: in-process
    # tests import `catalog` and `bar` themselves, so only a fresh
    # interpreter catches a command that uses one it never imports
    proc = _fresh_python("-m", "hochschild.cli", *argv)
    assert proc.returncode == code, proc.stderr


def test_closed_stdout_exits_1_without_traceback():
    # the report is about 480 kB, more than a pipe holds, so the writer
    # is still writing when the reader closes the pipe after one line
    with subprocess.Popen(
            [sys.executable, "-m", "hochschild.cli", "cohomology", "--poly",
             "z1^7+z2^11+z3^13", "--mode", "structural"],
            env=_fresh_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert err == ""


def _fresh_env():
    """The environment of a new interpreter that imports the package
    from this src/."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _fresh_python(*args):
    """Run a new interpreter that imports the package from this src/."""
    return subprocess.run([sys.executable, *args], env=_fresh_env(),
                          capture_output=True, text=True, timeout=120)


# Prints, as JSON, the modules loaded since the start of the probe:
# after `import hochschild.cli`, then after each `hh` argument list of
# argv[1] has run (with its exit code).
_IMPORT_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import hochschild.cli
out = [[None, sorted(set(sys.modules) - before)]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = hochschild.cli.main(argv)
    out.append([code, sorted(set(sys.modules) - before)])
print(json.dumps(out))
"""


def test_cli_import_and_poly_reports_load_no_bar_catalog_or_dataclasses():
    # in a fresh interpreter, against the modules loaded before the import
    argvs = [["cohomology", "--poly", "z1^3+z2^4", "--mode", "structural"],
             ["milnor", "--poly", "z1^3+z2^4"]]
    proc = _fresh_python("-c", _IMPORT_PROBE, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    (_, imported), *runs = json.loads(proc.stdout)
    assert "hochschild.cli" in imported
    for name in ("dataclasses", "hochschild.bar", "hochschild.catalog"):
        assert name not in imported
    for argv, (code, loaded) in zip(argvs, runs):
        assert code == 0, argv
        assert "hochschild.bar" not in loaded, argv
        assert "hochschild.catalog" not in loaded, argv


@pytest.fixture
def collector():
    """Re-enable the cyclic collector when the test ends, however it
    ends, so that a failure cannot leave the rest of the run without
    it."""
    yield
    gc.enable()


@pytest.mark.parametrize("argv, code", [
    (("cohomology", "--catalog", "d4-surface", "--mode", "both"), 0),
    (("cohomology", "--poly", "z1^7+z2^11+z3^13", "--max-degree", "2"), 0),
    # underdetermined weights and a graded walk of a non-isolated f
    (("cohomology", "--poly", "z1^2*z2", "--mode", "graded",
      "--max-degree", "2"), 0),
    # the loop: route search ends without a Koszul route
    (("cohomology", "--poly", "z1^3*z2+z2^3*z3+z3^3*z1", "--mode",
      "structural"), 1),
    (("cohomology", "--poly", "z1^2", "--mode", "structural",
      "--max-degree", "10000000"), 1),
    (("groebner", "--gens", "z1^2*z2 + z2^3; z1^2 + 3*z2^2"), 0),
    (("milnor", "--poly", "z1^3+z2^4"), 0),
])
def test_a_command_leaves_no_cyclic_garbage(capsys, collector, argv, code):
    # `main` runs its handler with the collector paused, so a cycle made
    # there would live until the process next collects.  The first run
    # warms up: building the shared parser, on the first call in a
    # process, leaves one-off argparse HelpFormatter cycles.
    assert main(list(argv)) == code
    gc.collect()
    gc.disable()
    assert main(list(argv)) == code
    assert gc.collect() == 0


def test_handler_runs_with_the_collector_paused(capsys, collector,
                                                monkeypatch):
    seen = []

    def record(args):
        seen.append(gc.isenabled())
        return 0

    monkeypatch.setattr(cli, "_run_weights", record)
    gc.enable()
    assert main(["weights", "--poly", "z1^2+z2^3"]) == 0
    assert seen == [False] and gc.isenabled()


def _raise(*args, **kwargs):
    raise RuntimeError("escapes the handler")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, exit_", [
    (("weights", "--poly", "z1^2+z2^3"), 0),
    (("cohomology", "--poly", "z1^2 + z1^3"), 1),        # a refusal
    # argparse's, before the handler runs
    (("cohomology", "--poly", "z1^2", "--max-degree", "-1"), SystemExit),
    # `analyze` is made to raise it, and it escapes `main`
    (("cohomology", "--poly", "z1^2+z2^3"), RuntimeError),
])
def test_main_leaves_the_collector_as_it_found_it(capsys, collector,
                                                  monkeypatch, enabled,
                                                  argv, exit_):
    if exit_ is RuntimeError:
        monkeypatch.setattr(engine, "analyze", _raise)
    (gc.enable if enabled else gc.disable)()
    if isinstance(exit_, int):
        assert main(list(argv)) == exit_
    else:
        with pytest.raises(exit_) as exc:
            main(list(argv))
        if exit_ is SystemExit:
            assert exc.value.code == 2
    assert gc.isenabled() is enabled
