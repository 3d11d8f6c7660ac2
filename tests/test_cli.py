import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hochschild import cli
from hochschild.cli import _json, build_parser, main


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


def test_parse_error_is_usage_error(capsys):
    code, out, err = run(capsys, "milnor", "--poly", "2z1")
    assert code == 2
    assert out == "" and "parse error" in err


def test_precondition_error_exit_code(capsys):
    code, _, err = run(capsys, "cohomology", "--poly", "z1^2 + z1^3")
    assert code == 1
    assert "weight" in err


def test_non_isolated_cohomology_exit_code(capsys):
    # classifier preconditions fail (Milnor infinite) in default both mode
    code, out, err = run(capsys, "cohomology", "--poly", "z1^2*z2",
                         "--max-degree", "2")
    assert code == 1
    assert "classifier disabled" in err
    payload = json.loads(out)
    assert payload["milnor"] == "infinite"
    assert payload["crosscheck"] == "skipped"


def test_missing_poly_is_usage_error(capsys):
    code, _, err = run(capsys, "milnor")
    assert code == 2
    assert "required" in err


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
# row shapes: equal-length int rows (the fast path) and rows that must
# leave it, holding a bool, ragged or empty
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
