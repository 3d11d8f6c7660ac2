"""ADE plane curves and Klein surfaces.

Curves are the ADE singularities in two variables.  Surfaces come from
the quotient singularities C^2/G for the finite subgroups G of SL(2,C):
each entry carries the simplified normal form used for computations,
the classical fundamental invariants e1, e2, e3 of G in x, y, and the
original relation polynomial with integer content factored in, so the
syzygy f(e1, e2, e3) = 0 can be verified exactly.
"""

from __future__ import annotations

from typing import NamedTuple

from .poly import Polynomial


def _p2(spec: dict) -> Polynomial:
    return Polynomial(2, {e: c for e, c in spec.items()})


def _p3(spec: dict) -> Polynomial:
    return Polynomial(3, {e: c for e, c in spec.items()})


class CatalogEntry(NamedTuple):
    name: str              # CLI name, e.g. "d5-surface"
    family: str            # "A", "D", "E6", "E7", "E8"
    variant: str           # "curve" | "surface"
    k: int | None
    f: Polynomial          # simplified normal form used for computation
    expected_milnor: int
    invariants: tuple | None = None    # (e1, e2, e3) in x, y, surfaces only
    original_f: Polynomial | None = None  # relation with f(e1,e2,e3) = 0
    flags: tuple = ()


def curve_entry(family: str, k: int | None = None) -> CatalogEntry:
    if family == "A":
        if k is None or k < 1:
            raise ValueError("A_k curves need k >= 1")
        f = _p2({(k + 1, 0): 1, (0, 2): 1})
        return CatalogEntry("a%d-curve" % k, "A", "curve", k, f, k)
    if family == "D":
        if k is None or k < 3:
            raise ValueError("D_k curves need k >= 3")
        flags = ()
        if k == 3:
            flags = ("k=3 is equivalent to the A_3 normal form",)
        f = _p2({(2, 1): 1, (0, k - 1): 1})
        return CatalogEntry("d%d-curve" % k, "D", "curve", k, f, k, flags=flags)
    if family == "E6":
        return CatalogEntry("e6-curve", "E6", "curve", None,
                            _p2({(3, 0): 1, (0, 4): 1}), 6)
    if family == "E7":
        return CatalogEntry("e7-curve", "E7", "curve", None,
                            _p2({(3, 0): 1, (1, 3): 1}), 7)
    if family == "E8":
        return CatalogEntry("e8-curve", "E8", "curve", None,
                            _p2({(3, 0): 1, (0, 5): 1}), 8)
    raise ValueError("unknown curve family %r" % family)


def _a_surface_invariants(k: int):
    e1 = _p2({(k, 0): 1})
    e2 = _p2({(0, k): 1})
    e3 = _p2({(1, 1): 1})
    original = _p3({(1, 1, 0): -k, (0, 0, k): k})
    return (e1, e2, e3), original


def _d_surface_invariants(k: int):
    s = 1 if k % 2 == 0 else -1   # (-1)^k
    e1 = _p2({(2 * k + 1, 1): 1, (1, 2 * k + 1): -s})
    e2 = _p2({(2 * k, 0): 1, (0, 2 * k): s})
    e3 = _p2({(2, 2): 1})
    lam = 2 * k * (-s)            # lambda_k = 2k(-1)^(k+1)
    original = _p3({(2, 0, 0): lam * s, (0, 2, 1): -lam * s,
                    (0, 0, k + 1): 4 * lam})
    return (e1, e2, e3), original


_E6_INVARIANTS = (
    _p2({(4, 8): 33, (0, 12): -1, (8, 4): 33, (12, 0): -1}),
    _p2({(4, 4): 14, (8, 0): 1, (0, 8): 1}),
    _p2({(5, 1): 1, (1, 5): -1}),
)
_E6_ORIGINAL = _p3({(2, 0, 0): 4, (0, 3, 0): -4, (0, 0, 4): 432})

_E7_INVARIANTS = (
    _p2({(5, 13): -34, (17, 1): -1, (13, 5): 34, (1, 17): 1}),
    _p2({(2, 10): -3, (6, 6): 6, (10, 2): -3}),
    _p2({(4, 4): 14, (8, 0): 1, (0, 8): 1}),
)
_E7_ORIGINAL = _p3({(2, 0, 0): 24, (0, 3, 0): -96, (0, 1, 3): 8})

_E8_INVARIANTS = (
    _p2({(30, 0): 1, (25, 5): 522, (20, 10): -10005,
         (10, 20): -10005, (5, 25): -522, (0, 30): 1}),
    _p2({(20, 0): 1, (15, 5): -228, (10, 10): 494,
         (5, 15): 228, (0, 20): 1}),
    _p2({(11, 1): 1, (6, 6): 11, (1, 11): -1}),
)
_E8_ORIGINAL = _p3({(2, 0, 0): -10, (0, 3, 0): 10, (0, 0, 5): 17280})


def surface_entry(family: str, k: int | None = None) -> CatalogEntry:
    if family == "A":
        if k is None or k < 1:
            raise ValueError("A_k surfaces need k >= 1")
        f = _p3({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, k): 1})
        inv, orig = _a_surface_invariants(k)
        return CatalogEntry("a%d-surface" % k, "A", "surface", k, f, k - 1,
                            inv, orig)
    if family == "D":
        if k is None or k < 3:
            raise ValueError("D_k surfaces need k >= 3")
        f = _p3({(2, 0, 0): 1, (0, 2, 1): 1, (0, 0, k): 1})
        inv, orig = _d_surface_invariants(k)
        flags = ("simplified form uses z3^k where the invariant relation "
                 "carries z3^(k+1); the Milnor number k+1 matches the "
                 "simplified form",)
        return CatalogEntry("d%d-surface" % k, "D", "surface", k, f, k + 1,
                            inv, orig, flags)
    if family == "E6":
        f = _p3({(2, 0, 0): 1, (0, 3, 0): 1, (0, 0, 4): 1})
        return CatalogEntry("e6-surface", "E6", "surface", None, f, 6,
                            _E6_INVARIANTS, _E6_ORIGINAL)
    if family == "E7":
        f = _p3({(2, 0, 0): 1, (0, 3, 0): 1, (0, 1, 3): 1})
        return CatalogEntry("e7-surface", "E7", "surface", None, f, 7,
                            _E7_INVARIANTS, _E7_ORIGINAL)
    if family == "E8":
        f = _p3({(2, 0, 0): 1, (0, 3, 0): 1, (0, 0, 5): 1})
        return CatalogEntry("e8-surface", "E8", "surface", None, f, 8,
                            _E8_INVARIANTS, _E8_ORIGINAL)
    raise ValueError("unknown surface family %r" % family)


def catalog_names() -> list:
    names = []
    names += ["a%d-curve" % k for k in range(1, 10)]
    names += ["d%d-curve" % k for k in range(4, 10)]
    names += ["e6-curve", "e7-curve", "e8-curve"]
    names += ["a%d-surface" % k for k in range(1, 10)]
    names += ["d%d-surface" % k for k in range(3, 10)]
    names += ["e6-surface", "e7-surface", "e8-surface"]
    return names


def catalog_instance(name: str) -> CatalogEntry:
    """Resolve a CLI catalog name like "d5-surface" or "e7-curve"."""
    parts = name.lower().split("-")
    if len(parts) != 2 or parts[1] not in ("curve", "surface"):
        raise ValueError("catalog names look like a3-curve or d5-surface")
    head, variant = parts
    if head in ("e6", "e7", "e8"):
        family, k = head.upper(), None
    elif head[:1] in ("a", "d") and head[1:].isdigit():
        family, k = head[0].upper(), int(head[1:])
    else:
        raise ValueError("unknown catalog family %r" % head)
    if variant == "curve":
        return curve_entry(family, k)
    return surface_entry(family, k)


def verify_invariant_relation(entry: CatalogEntry) -> bool:
    """Check f(e1, e2, e3) = 0 for the surface's fundamental invariants."""
    if entry.invariants is None or entry.original_f is None:
        raise ValueError("entry %s carries no invariant data" % entry.name)
    value = entry.original_f.substitute(list(entry.invariants))
    return value.is_zero()
