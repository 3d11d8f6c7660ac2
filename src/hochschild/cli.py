"""Command line interface.

Commands: cohomology, homology, groebner, milnor, weights, bar-oracle,
catalog, verify-invariants.  Output is deterministic JSON on stdout (or
a plain table with --format table); diagnostics go to stderr.  Exit
codes: 0 success, 1 computational precondition failure or crosscheck
disagreement, 2 usage errors.  `bar` and `catalog` are imported by the
commands that read them, so a `--poly` report loads neither.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _escape

from . import engine
from .grading import (
    NotWeightedHomogeneousError,
    detect_weights,
    is_weighted_homogeneous,
)
from .ideals import INFINITE, WalkLimitError, buchberger, milnor_number
from .parsing import ParseError, parse_polynomial, parse_polynomials
from .poly import Polynomial


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _resolve_poly(args) -> Polynomial:
    if getattr(args, "catalog", None):
        from . import catalog
        try:
            return catalog.catalog_instance(args.catalog).f
        except ValueError as exc:
            raise CliError(str(exc), 2)
    if getattr(args, "poly", None):
        try:
            return parse_polynomial(args.poly)
        except ParseError as exc:
            raise CliError("parse error: %s" % exc, 2)
    raise CliError("one of --poly or --catalog is required", 2)


def _degree_json(deg: engine.DegreeReport) -> dict:
    graded = deg.oracle_graded if deg.oracle_graded is not None \
        else deg.expected_graded
    return {
        "p": deg.p,
        "structure": deg.structure,
        "finite_dim": deg.finite_dim,
        "basis": list(deg.basis) if deg.basis is not None else None,
        "graded_dims": [[s, graded[s]] for s in sorted(graded)]
        if graded is not None else None,
        "top_weight": deg.top_weight,
        "window": list(deg.window),
    }


def _report_json(report: engine.Report) -> dict:
    degrees = [_degree_json(d) for d in report.degrees]
    out = {
        "f": report.f.to_str(),
        "weights": list(report.weights.weights),
        "degree": report.weights.degree,
        "milnor": "infinite" if report.milnor is INFINITE else report.milnor,
        "cohomology": degrees if report.direction == "cohomology" else None,
        "homology": degrees if report.direction == "homology" else None,
        "crosscheck": report.crosscheck,
    }
    if report.kernel is not None:
        out["kernel_generators"] = [
            {"name": fam.name,
             "vector": [g.to_str() for g in fam.vector],
             "multipliers": fam.cofactor_monomials}
            for fam in report.kernel.families]
        out["kernel_verified"] = report.kernel.verified
    if report.notes:
        out["notes"] = list(report.notes)
    return out


def _report_table(report: engine.Report) -> str:
    lines = ["f = %s" % report.f.to_str(),
             "weights = %s, degree = %d" % (list(report.weights.weights),
                                            report.weights.degree),
             "milnor = %s" % ("infinite" if report.milnor is INFINITE
                              else report.milnor)]
    head = "HH^%d" if report.direction == "cohomology" else "HH_%d"
    for deg in report.degrees:
        graded = deg.oracle_graded if deg.oracle_graded is not None \
            else deg.expected_graded
        gstr = " ".join("%d:%d" % (s, graded[s]) for s in sorted(graded)) \
            if graded else ""
        lines.append("%-6s %-24s %s" % (head % deg.p,
                                        deg.structure or "(oracle only)", gstr))
    lines.append("crosscheck: %s" % report.crosscheck)
    return "\n".join(lines)


# JSON text of a scalar, looked up by exact type so that a bool is not
# written as an int
_SCALARS = {
    str: _escape,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json(obj, pad: str = "") -> str:
    """`obj` as `json.dumps(obj, indent=2)` writes it, nested at indent
    `pad`, for the types reports are made of: dicts with str keys, lists
    and tuples, str, int, bool and None.  Anything else raises
    TypeError.  A list of equal-length rows of plain ints (the
    `graded_dims` pairs) is written with one %-template."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    t = type(obj)
    inner = pad + "  "
    if t is dict:
        if not obj:
            return "{}"
        if set(map(type, obj)) != {str}:
            raise TypeError("dict keys must be str: %r" % (list(obj),))
        return "{\n%s\n%s}" % (",\n".join(
            [inner + _escape(k) + ": " + text
             for k, text in zip(obj, _items(obj.values(), inner))]), pad)
    if t is not list and t is not tuple:
        raise TypeError("Object of type %s is not JSON serializable"
                        % t.__name__)
    if not obj:
        return "[]"
    if t is list and set(map(type, obj)) == {list}:
        widths = set(map(len, obj))
        if len(widths) == 1 and 0 not in widths:
            cells = tuple(chain.from_iterable(obj))
            if set(map(type, cells)) == {int}:
                row = "%s[\n%s\n%s]" % (
                    inner, ",\n".join([inner + "  %d"] * widths.pop()), inner)
                return "[\n%s\n%s]" % (
                    ",\n".join([row] * len(obj)) % cells, pad)
    return "[\n%s\n%s]" % (",\n".join([inner + text
                                         for text in _items(obj, inner)]),
                           pad)


def _items(values, pad: str) -> list:
    """The JSON text of each of `values` at indent `pad`: scalars are
    written here, containers by `_json`."""
    out = []
    for v in values:
        scalar = _SCALARS.get(type(v))
        out.append(scalar(v) if scalar else _json(v, pad))
    return out


def _emit(args, payload, table):
    """Print `payload` as JSON, or under --format table the text that
    `table()` returns; the table text is built only then."""
    if args.format == "table":
        print(table())
    else:
        print(_json(payload))


def _run_homology_command(args, direction: str) -> int:
    f = _resolve_poly(args)
    try:
        report = engine.analyze(f, direction=direction,
                                p_max=args.max_degree,
                                cutoff=args.weight_cutoff,
                                mode=args.mode)
    except (engine.PreconditionError, NotWeightedHomogeneousError,
            WalkLimitError) as exc:
        raise CliError(str(exc), 1)
    _emit(args, _report_json(report), lambda: _report_table(report))
    if report.crosscheck == "disagree":
        print("crosscheck disagreement between classifier and oracle",
              file=sys.stderr)
        return 1
    if args.mode == "both" and not report.classifier_ok:
        for note in report.notes:
            print(note, file=sys.stderr)
        return 1
    return 0


def _run_groebner(args) -> int:
    try:
        gens = parse_polynomials([s.strip() for s in args.gens.split(";")
                                  if s.strip()])
    except ParseError as exc:
        raise CliError("parse error: %s" % exc, 2)
    if not gens:
        raise CliError("no generators given", 2)
    if args.jacobian:
        extended = []
        for g in gens:
            extended.append(g)
            extended.extend(d for d in g.gradient() if not d.is_zero())
        gens = extended
    gb = buchberger(gens)
    payload = {"generators": [g.to_str() for g in gens],
               "basis": [g.to_str() for g in gb]}
    _emit(args, payload, lambda: "\n".join(g.to_str() for g in gb))
    return 0


def _run_milnor(args) -> int:
    f = _resolve_poly(args)
    try:
        mu = milnor_number(f)
    except ValueError as exc:
        raise CliError(str(exc), 1)
    value = "infinite" if mu is INFINITE else mu
    payload = {"f": f.to_str(), "milnor": value}
    table = "milnor = %s" % value
    if not is_weighted_homogeneous(f):
        note = ("global dim C[z]/<grad f>: f is not weighted homogeneous, "
                "so this need not be the local Milnor number at 0")
        payload["notes"] = [note]
        table += "\n" + note
    _emit(args, payload, lambda: table)
    return 0


def _run_weights(args) -> int:
    f = _resolve_poly(args)
    try:
        ws = detect_weights(f)
    except NotWeightedHomogeneousError as exc:
        raise CliError(str(exc), 1)
    payload = {"f": f.to_str(), "weights": list(ws.weights),
               "degree": ws.degree, "underdetermined": ws.underdetermined}
    _emit(args, payload,
          lambda: "weights = %s, degree = %d%s" % (
              list(ws.weights), ws.degree,
              " (underdetermined)" if ws.underdetermined else ""))
    return 0


def _run_bar_oracle(args) -> int:
    from . import bar
    try:
        coh = bar.bar_cohomology_dims(args.k, args.max_degree)
        hom = bar.bar_homology_dims(args.k, args.max_degree)
    except bar.ResourceLimitError as exc:
        raise CliError(str(exc), 1)
    except ValueError as exc:
        raise CliError(str(exc), 2)
    payload = {"k": args.k, "max_degree": args.max_degree,
               "cohomology": coh, "homology": hom}
    _emit(args, payload,
          lambda: "cohomology: %s\nhomology:   %s" % (coh, hom))
    return 0


def _run_catalog(args) -> int:
    from . import catalog
    if args.name:
        try:
            entry = catalog.catalog_instance(args.name)
        except ValueError as exc:
            raise CliError(str(exc), 2)
        payload = {"name": entry.name, "family": entry.family,
                   "variant": entry.variant, "k": entry.k,
                   "f": entry.f.to_str(),
                   "expected_milnor": entry.expected_milnor,
                   "flags": list(entry.flags)}
        if entry.invariants is not None:
            payload["invariants"] = [e.to_str(names=("x", "y"))
                                     for e in entry.invariants]
            payload["original_f"] = entry.original_f.to_str()
        _emit(args, payload, lambda: "%s: f = %s, milnor = %d"
              % (entry.name, entry.f.to_str(), entry.expected_milnor))
        return 0
    names = catalog.catalog_names()
    _emit(args, {"names": names}, lambda: "\n".join(names))
    return 0


def _run_verify_invariants(args) -> int:
    from . import catalog
    names = [args.name] if args.name else \
        [n for n in catalog.catalog_names() if n.endswith("-surface")]
    results = []
    ok = True
    for name in names:
        try:
            entry = catalog.catalog_instance(name)
        except ValueError as exc:
            raise CliError(str(exc), 2)
        if entry.invariants is None:
            raise CliError("%s has no invariant data" % name, 2)
        holds = catalog.verify_invariant_relation(entry)
        ok = ok and holds
        results.append({"name": name, "relation_holds": holds})
    _emit(args, {"results": results},
          lambda: "\n".join("%s: %s" % (r["name"], "ok" if r["relation_holds"]
                                        else "FAIL") for r in results))
    return 0 if ok else 1


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `hh` parser, built on first use and then shared: parsing
    leaves it unchanged, and each call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="hh",
        description="Exact Hochschild (co)homology of hypersurface "
                    "algebras C[z1..zn]/<f> for n <= 3")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_poly_options(p, with_report=False):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--poly", help="polynomial in z1, z2, z3")
        source.add_argument("--catalog", help="catalog name, e.g. d5-surface")
        p.add_argument("--format", choices=("json", "table"), default="json")
        if with_report:
            p.add_argument("--max-degree", type=_nonnegative_int, default=6,
                           help="highest (co)homological degree (default 6)")
            p.add_argument("--weight-cutoff", type=_nonnegative_int,
                           default=None,
                           help="scan window length (default 3d)")
            p.add_argument("--mode",
                           choices=("structural", "graded", "both"),
                           default="both")

    add_poly_options(sub.add_parser(
        "cohomology", help="Hochschild cohomology report"), True)
    add_poly_options(sub.add_parser(
        "homology", help="Hochschild homology report"), True)

    g = sub.add_parser("groebner", help="reduced Groebner basis (lex)")
    g.add_argument("--gens", required=True,
                   help="semicolon-separated generators")
    g.add_argument("--jacobian", action="store_true",
                   help="append all partial derivatives of each generator")
    g.add_argument("--format", choices=("json", "table"), default="json")

    add_poly_options(sub.add_parser("milnor", help="Milnor number"))
    add_poly_options(sub.add_parser("weights", help="weight system of f"))

    b = sub.add_parser("bar-oracle",
                       help="bar-complex dims for C[z]/<z^k> (k <= 4)")
    b.add_argument("--k", type=int, required=True,
                   help="the algebra is C[z]/<z^k>; 1 <= k <= 4")
    b.add_argument("--max-degree", type=_nonnegative_int, default=3)
    b.add_argument("--format", choices=("json", "table"), default="json")

    c = sub.add_parser("catalog", help="list or show catalog entries")
    c.add_argument("--name")
    c.add_argument("--format", choices=("json", "table"), default="json")

    v = sub.add_parser("verify-invariants",
                       help="check f(e1,e2,e3) = 0 for Klein surfaces")
    v.add_argument("--name")
    v.add_argument("--format", choices=("json", "table"), default="json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "cohomology": lambda a: _run_homology_command(a, "cohomology"),
        "homology": lambda a: _run_homology_command(a, "homology"),
        "groebner": _run_groebner,
        "milnor": _run_milnor,
        "weights": _run_weights,
        "bar-oracle": _run_bar_oracle,
        "catalog": _run_catalog,
        "verify-invariants": _run_verify_invariants,
    }
    try:
        return handlers[args.command](args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code


def run() -> int:
    """`main` as a process of its own: the `hh` script and
    `python -m hochschild.cli`.  When the reader closes stdout early
    (`hh ... | head -1`) the command exits 1 with no traceback: stdout
    is pointed at devnull, as Python's documentation on SIGPIPE
    advises, so that the flush at exit cannot fail again."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(run())
