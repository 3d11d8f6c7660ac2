"""Byte stability of `hh` reports outside the benchmark's inputs.

Each case is one argument list for `hochschild.cli.main`; its exit code
and the SHA-256 of its stdout and stderr are pinned in
`report_digests.json`.  The polynomials cover what the benchmark's
catalog, stress and seeded sets do not: n = 1, the loop and the A1 node
(no elimination route), a non-isolated f, Fraction, negative and
non-unit coefficients, and the kernel patterns (Brieskorn-Pham, the D
curve and the D surface) written with other coefficients.  `hh groebner`
is pinned on ideals whose minimal bases have tails to interreduce,
`hh milnor` on some of the polynomials, and `hh bar-oracle`, the other
caller of the sparse rank, for every k it accepts.  The last two
polynomials are rank-heavy: at p <= 6 their largest slices have 114
rows and 150 keys (the first) and 165 rows and 225 keys (the second),
and their tallest 138 rows and 58 keys and 210 rows and 90 keys.
Two graded reports have an f with a zero partial (`z1^2+z3^3` and
`z1*z3^2+z3^4`, where d_2 f = 0), so their Koszul complexes are built
without any term of d_2 f.

New cases are pinned without touching the others; the command exits 1,
writing nothing, if any existing pin would change:

    PYTHONPATH=src python3 tests/test_report_digests.py --add

A deliberate output change re-records every digest:

    PYTHONPATH=src python3 tests/test_report_digests.py --record
"""

import contextlib
import functools
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from hochschild import cli

DIGESTS = Path(__file__).with_name("report_digests.json")

POLYNOMIALS = (
    "z1^3*z2+z2^3*z3+z3^3*z1",
    "z1*z2",
    "z1^2*z2",
    "z1^5",
    "3*z1^4",
    "2*z1^3+3*z2^4",
    "1/2*z1^3+z2^5",
    "-z1^4+2*z2^6",
    "z1^2*z2+z2^3",
    "z1^2*z2+z2^5",
    "2*z1^2*z2+z2^4",
    "z1^2*z2-z2^5",
    "z1^3+z1*z2^3",
    "z1^2+z2^2*z3+z3^2",
    "z1^2+z2^2*z3+z3^5",
    "z1^2+3*z2^2*z3+z3^4",
    "z1^2+z2^3+z3^7",
    "2*z1^3+z2^3+5*z3^4",
    "z1^3+z2^3+z3^3+z1*z2*z3",
    "z1^3+1/2*z1^2*z2^2+z2^6+z3^3",
    "z1^4+z2^4+z3^4+z1*z2*z3^2",
    "z1^5+z2^5+z3^5+z1*z2*z3^3",
)

GROEBNER = (
    ["--gens=z1^3-2*z1*z2;z1^2*z2-2*z2^2+z1"],
    ["--gens=z1^2+z2^2*z3;z1*z2-z3^2;z2^3-z1*z3"],
    ["--gens=z1^3+z2^3+z3^3+z1*z2*z3", "--jacobian"],
    ["--gens=z1^3+1/2*z1^2*z2^2+z2^6", "--jacobian"],
    ["--gens=1/2*z1^2+z2*z3;z2^2-3/4*z1*z3;z3^2-z1*z2"],
    ["--gens=z1^2*z2+z2^3;z1*z2^2-z1^3+2/3*z2", "--format", "table"],
    ["--gens=z1^2+z2^2*z3+z3^5", "--jacobian", "--format", "table"],
)

# long-tail graded reports: at p 12 most differentials are translates of
# earlier ones, so the oracle ranks a few and reuses their rank columns
# for the rest; mode graded has no crosscheck, so these pins alone guard
# that reuse there
TAILS = (
    "z1^2+z2^3+z3^5",
    "1/2*z1^3+z2^5",
    "z1^4+z2^4+z3^4+z1*z2*z3^2",
)

# f with a zero partial, d_2 f = 0, both ways in mode graded at p <= 6
ZERO_PARTIALS = (
    "z1^2+z3^3",
    "z1*z3^2+z3^4",
)

MILNOR = (
    "z1^3*z2+z2^3*z3+z3^3*z1",
    "z1^2*z2",
    "1/2*z1^3+z2^5",
    "z1^2+3*z2^2*z3+z3^4",
    "z1^3+1/2*z1^2*z2^2+z2^6+z3^3",
)


def cases() -> list:
    """Every polynomial both ways in each mode, p <= 6, then the long
    tails both ways in mode graded, p <= 12, at the default weight
    cutoff, 0 and 1, then the zero-partial f both ways in mode graded,
    p <= 6, then the `groebner`, `milnor` and `bar-oracle` cases.
    Polynomials are passed as --poly=... or --gens=..., so a leading
    minus is not read as an option."""
    return ([[direction, "--poly=" + f, "--max-degree", "6", "--mode", mode]
             for f in POLYNOMIALS
             for direction in ("cohomology", "homology")
             for mode in ("structural", "graded", "both")]
            + [[direction, "--poly=" + f, "--max-degree", "12", "--mode",
                "graded"] + cutoff
               for f in TAILS
               for direction in ("cohomology", "homology")
               for cutoff in ([], ["--weight-cutoff", "0"],
                              ["--weight-cutoff", "1"])]
            + [[direction, "--poly=" + f, "--max-degree", "6", "--mode",
                "graded"]
               for f in ZERO_PARTIALS
               for direction in ("cohomology", "homology")]
            + [["groebner"] + args for args in GROEBNER]
            + [["milnor", "--poly=" + f] for f in MILNOR]
            + [["bar-oracle", "--k", str(k), "--max-degree", "3",
                "--format", fmt]
               for k in range(1, 5) for fmt in ("json", "table")])


def run(argv: list) -> list:
    """[exit code, SHA-256 of stdout, SHA-256 of stderr] of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code] + [hashlib.sha256(s.getvalue().encode()).hexdigest()
                     for s in (out, err)]


@functools.cache
def pinned() -> dict:
    return json.loads(DIGESTS.read_text())


def test_every_case_is_pinned():
    assert sorted(pinned()) == sorted(" ".join(argv) for argv in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_report_bytes_are_stable(argv):
    assert run(argv) == pinned()[" ".join(argv)]


def write(digests: dict) -> None:
    DIGESTS.write_text("{\n%s\n}\n" % ",\n".join(
        "%s: %s" % (json.dumps(key), json.dumps(value))
        for key, value in digests.items()))


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        write({" ".join(argv): run(argv) for argv in cases()})
    elif sys.argv[1:] == ["--add"]:
        old = pinned()
        new = {" ".join(argv): run(argv) for argv in cases()}
        changed = [key for key in old if key in new and old[key] != new[key]]
        if changed:
            sys.exit("not written: %d pinned case(s) would change, first "
                     "%r" % (len(changed), changed[0]))
        write({key: old.get(key, value) for key, value in new.items()})
        print("pinned %d new case(s)" % len(new.keys() - old.keys()))
    else:
        sys.exit("usage: test_report_digests.py --add | --record")
