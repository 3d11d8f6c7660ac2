"""Benchmark inputs: one list of `hh` argument vectors per workload.

Every input is a plain argument list for `hochschild.cli.main`; the
program sees nothing but these strings.  The seed picks the order of
every workload and the coefficients of the `structural` polynomials.
"""

from __future__ import annotations

import random
from itertools import product
from math import lcm

DIRECTIONS = ("cohomology", "homology")

# ROADMAP stress set: (polynomial, highest degree).
STRESS = (
    ("z1^4+z2^4+z3^4+z1*z2*z3^2", 6),
    ("z1^4+z1*z2^3+z2*z3^3", 6),
    ("z1^7+z2^11+z3^13", 6),
    ("z1^2+z2^3+z3^5", 48),
)

# structural: polynomials per pass, Brieskorn-Pham exponent range per
# number of variables, mixed-term coefficients, and the fixed draw of
# exponents and monomials.
STRUCTURAL_COUNT = 150
EXPONENTS = {2: (2, 9), 3: (2, 6)}
COEFFICIENTS = (-3, -2, -1, 1, 2, 3)
SHAPE_SEED = 0

# The 37 members of `hochschild.catalog.catalog_names()`, written out so
# that the workload stays fixed if the catalog grows.
CATALOG = (["a%d-curve" % k for k in range(1, 10)]
           + ["d%d-curve" % k for k in range(4, 10)]
           + ["e6-curve", "e7-curve", "e8-curve"]
           + ["a%d-surface" % k for k in range(1, 10)]
           + ["d%d-surface" % k for k in range(3, 10)]
           + ["e6-surface", "e7-surface", "e8-surface"])


def catalog_inputs(seed: int) -> list:
    """Every catalog member in both directions, p <= 6, mode both."""
    argvs = [[direction, "--catalog", name, "--max-degree", "6",
              "--mode", "both"]
             for name in CATALOG for direction in DIRECTIONS]
    random.Random(seed).shuffle(argvs)
    return argvs


def stress_inputs(seed: int) -> list:
    """The stress set in both directions, mode both."""
    argvs = [[direction, "--poly", f, "--max-degree", str(p_max),
              "--mode", "both"]
             for f, p_max in STRESS for direction in DIRECTIONS]
    random.Random(seed).shuffle(argvs)
    return argvs


def _monomial(exps) -> str:
    factors = ["z%d" % (i + 1) if e == 1 else "z%d^%d" % (i + 1, e)
               for i, e in enumerate(exps) if e]
    return "*".join(factors)


def _shape(rng: random.Random, n: int, mixed: int) -> tuple:
    """Brieskorn-Pham exponents a and up to `mixed` distinct mixed
    monomials of the weighted degree lcm(a)."""
    lo, hi = EXPONENTS[n]
    a = [rng.randint(lo, hi) for _ in range(n)]
    d = lcm(*a)
    w = [d // ai for ai in a]
    candidates = [e for e in product(*(range(ai) for ai in a))
                  if sum(1 for x in e if x) >= 2
                  and sum(wi * x for wi, x in zip(w, e)) == d]
    return a, rng.sample(candidates, min(mixed, len(candidates)))


def _polynomial(a, mixed, coefficients) -> str:
    text = "+".join("z%d^%d" % (i + 1, ai) for i, ai in enumerate(a))
    for e, c in zip(mixed, coefficients):
        mono = _monomial(e)
        text += ("+" if c > 0 else "-") + \
            ("" if abs(c) == 1 else "%d*" % abs(c)) + mono
    return text


def structural_polynomials(seed: int, count: int) -> list:
    """`count` weighted-homogeneous polynomials: a Brieskorn-Pham base
    plus 0-3 mixed monomials of the same weighted degree, with small
    integer coefficients drawn from `seed`.

    Slot k has n = 2 + k % 2 variables and asks for (k // 2) % 4 mixed
    monomials.  The exponents and monomials of slot k come from a fixed
    draw (SHAPE_SEED), because the cost of a report is set almost
    entirely by which monomials f has: drawn afresh per seed, a handful
    of slow shapes moved the total time of 200 polynomials by up to a
    factor of three from one seed to the next.
    """
    shapes = random.Random(SHAPE_SEED)
    rng = random.Random(seed)
    out = []
    for k in range(count):
        a, mixed = _shape(shapes, 2 + k % 2, (k // 2) % 4)
        out.append(_polynomial(a, mixed,
                               [rng.choice(COEFFICIENTS) for _ in mixed]))
    return out


def structural_inputs(seed: int, count: int) -> list:
    """Each seeded polynomial in both directions, mode structural."""
    argvs = [[direction, "--poly", f, "--mode", "structural"]
             for f in structural_polynomials(seed, count)
             for direction in DIRECTIONS]
    random.Random(seed).shuffle(argvs)
    return argvs


def build(workload: str, seed: int) -> list:
    """The argument vectors of one pass of `workload`."""
    if workload == "catalog":
        return catalog_inputs(seed)
    if workload == "stress":
        return stress_inputs(seed)
    if workload == "structural":
        return structural_inputs(seed, STRUCTURAL_COUNT)
    raise ValueError("unknown workload %r" % workload)
