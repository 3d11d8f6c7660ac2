"""Closed-form graded dimensions of A = C[z]/<f>.

For f weighted homogeneous of degree d under positive weights w, f is a
non-zero-divisor of degree d, so the Poincare series of A is
(1 - t^d) / prod_i (1 - t^{w_i}) (Milnor-Orlik, Topology 9, 1970): dim
A_s is the number of monomials of weight s minus the number of weight
s - d.  No Groebner basis and no monomial enumeration is involved.
"""

from __future__ import annotations

from operator import sub
from typing import Sequence


class PoincareSeries:
    """Exact integer coefficients of (1 - t^d) / prod_i (1 - t^{w_i}).

    The table of monomial counts (the coefficients of
    1 / prod_i (1 - t^{w_i})) is grown on demand, at least doubling."""

    def __init__(self, weights: Sequence[int], degree: int):
        self.weights = tuple(weights)
        self.degree = degree
        self._counts = [1]

    def dim(self, s: int) -> int:
        """dim A_s, 0 for s < 0."""
        if s < 0:
            return 0
        counts = self._counts
        if s >= len(counts):
            counts = [1] + [0] * max(s, 2 * len(counts) - 1)
            for w in self.weights:
                for k in range(w, len(counts)):
                    counts[k] += counts[k - w]
            self._counts = counts
        d = self.degree
        return counts[s] - (counts[s - d] if s >= d else 0)

    def dims(self, top: int) -> list:
        """[dim A_s for s = 0..top]."""
        self.dim(top)                   # grows the table through top
        counts = self._counts[:top + 1]
        d = self.degree
        return counts[:d] + list(map(sub, counts[d:], counts))
