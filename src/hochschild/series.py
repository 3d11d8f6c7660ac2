"""Closed-form graded dimensions of A = C[z]/<f>.

For f weighted homogeneous of degree d under positive weights w, f is a
non-zero-divisor of degree d, so the Poincare series of A is
(1 - t^d) / prod_i (1 - t^{w_i}) (Milnor-Orlik, Topology 9, 1970): dim
A_s is the number of monomials of weight s minus the number of weight
s - d.  No Groebner basis and no monomial enumeration is involved.
`poincare_dims` returns the list through one top weight; nothing is
kept between calls, since a report asks for it once.
"""

from __future__ import annotations

from operator import sub
from typing import Sequence


def poincare_dims(weights: Sequence[int], degree: int, top: int) -> list:
    """[dim A_s for s = 0..top], the exact integer coefficients of
    (1 - t^d) / prod_i (1 - t^{w_i}) through t^top: the monomial counts
    c_s, the coefficients of 1 / prod_i (1 - t^{w_i}), less c_(s - d).
    Empty when top < 0."""
    counts = ([1] + [0] * top)[:top + 1]
    for w in weights:
        for k in range(w, top + 1):
            counts[k] += counts[k - w]
    return counts[:degree] + list(map(sub, counts[degree:], counts))
