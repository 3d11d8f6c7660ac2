"""Sparse multivariate polynomials over exact rationals.

A polynomial is a dict from exponent tuples to nonzero coefficients, an
int when integral and a Fraction otherwise, never a float: operations
narrow their results and divide only through `exact_quotient`, so
integral arithmetic stays on the fast int path.  Instances are treated
as immutable; every operation returns a fresh polynomial with zero
coefficients stripped, so equality is plain dict equality.  The one
monomial order is lex with z1 > z2 > ... > zn, which is Python's own
comparison of exponent tuples: leading terms and sorts use it directly.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

Exponents = tuple  # tuple[int, ...]
_NAMES = tuple("z%d" % i for i in range(1, 10))   # default variable names


def _coefficient(c) -> int | Fraction:
    if isinstance(c, (int, Fraction)):
        return int_or_fraction(c)
    raise TypeError("coefficient must be int or Fraction, got %r" % (c,))


def int_or_fraction(c) -> int | Fraction:
    """c as an int when it is integral, else c: int arithmetic keeps
    sparse assembly and elimination off the slower Fraction path."""
    return c.numerator if c.denominator == 1 else c


def exact_quotient(a, b) -> int | Fraction:
    """a / b for int or Fraction a and nonzero b: an int when b divides
    a, else a Fraction.  The one division of the package."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return int_or_fraction(a / b)


def _narrowed(terms: dict) -> dict:
    """terms, each integral Fraction value replaced by its int in place."""
    for e, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[e] = c.numerator
    return terms


class Term(NamedTuple):
    coefficient: int | Fraction
    exponents: Exponents


def monomial_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Exponents, b: Exponents) -> bool:
    """True if monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Exponents, b: Exponents) -> Exponents:
    """Quotient exponent tuple a - b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def _default_names(n: int) -> Sequence[str]:
    return _NAMES if n <= len(_NAMES) else ["z%d" % (i + 1) for i in range(n)]


def monomial_str(exps: Exponents, names: Sequence[str] | None = None) -> str:
    """The monomial z^exps in the syntax the expression parser accepts,
    e.g. "z1^2*z3" for (2, 0, 1), and "1" for the constant monomial."""
    if names is None:
        names = _default_names(len(exps))
    return "*".join(name if e == 1 else "%s^%d" % (name, e)
                    for name, e in zip(names, exps) if e) or "1"


def monomial_strs(monomials: Sequence[Exponents]) -> tuple:
    """`monomial_str` of each monomial, n alike, in one pass per
    variable: each variable's column of exponents indexes its table of
    power names ("", "z1*", "z1^2*", ...), the names are joined per
    monomial and the trailing "*" is cut, "" becoming "1"."""
    columns = list(zip(*monomials))
    tables = [["", name + "*"]
              + ["%s^%d*" % (name, e) for e in range(2, max(column) + 1)]
              for name, column in zip(_default_names(len(columns)), columns)]
    labels = map("".join, zip(*[map(table.__getitem__, column)
                                for table, column in zip(tables, columns)]))
    return tuple(label[:-1] or "1" for label in labels)


class Polynomial:
    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        if terms:
            self.terms = {e: _coefficient(c) for e, c in terms.items() if c}
        else:
            self.terms = {}

    # constructors

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n)

    @staticmethod
    def constant(n: int, c) -> "Polynomial":
        return Polynomial(n, {(0,) * n: _coefficient(c)})

    @staticmethod
    def one(n: int) -> "Polynomial":
        return Polynomial.constant(n, 1)

    @staticmethod
    def variable(n: int, i: int) -> "Polynomial":
        """The variable z_i, 1-based."""
        if not 1 <= i <= n:
            raise ValueError("variable index %d out of range for n=%d" % (i, n))
        exps = tuple(1 if j == i - 1 else 0 for j in range(n))
        return Polynomial(n, {exps: 1})

    @staticmethod
    def monomial(n: int, exps: Sequence[int], coeff=1) -> "Polynomial":
        return Polynomial(n, {tuple(exps): _coefficient(coeff)})

    # predicates and accessors

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def leading_term(self) -> Term:
        """The lex-largest term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms)
        return Term(self.terms[exps], exps)

    # arithmetic

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        if self.n != other.n:
            raise ValueError("mixed variable counts %d and %d" % (self.n, other.n))
        acc = dict(self.terms)
        for e, c in other.terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
        return trusted_polynomial(self.n, _narrowed(acc))

    __radd__ = __add__

    def __neg__(self):
        return trusted_polynomial(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.n, {e: other * v
                                       for e, v in self.terms.items()})
        if self.n != other.n:
            raise ValueError("mixed variable counts %d and %d" % (self.n, other.n))
        acc: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = monomial_mul(e1, e2)
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                elif e in acc:
                    del acc[e]
        return trusted_polynomial(self.n, _narrowed(acc))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative exponent")
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            return trusted_polynomial(
                self.n, {tuple([x * k for x in e]): int_or_fraction(c ** k)})
        result = Polynomial.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        return isinstance(other, Polynomial) and self.n == other.n \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # calculus and grading

    def diff(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to z_i, 1-based."""
        if not 1 <= i <= self.n:
            raise ValueError("variable index %d out of range" % i)
        j = i - 1
        acc = {}
        for exps, c in self.terms.items():
            e = exps[j]
            if e:
                dexps = exps[:j] + (e - 1,) + exps[j + 1:]
                acc[dexps] = acc.get(dexps, 0) + c * e
        return Polynomial(self.n, acc)

    def gradient(self) -> tuple:
        return tuple(self.diff(i) for i in range(1, self.n + 1))

    def weighted_degrees(self, weights: Sequence[int]) -> set:
        return {sum(map(mul, weights, exps)) for exps in self.terms}

    def is_weighted_homogeneous(self, weights: Sequence[int]) -> bool:
        return len(self.weighted_degrees(weights)) <= 1

    def substitute(self, values: Sequence["Polynomial"]) -> "Polynomial":
        """Evaluate at z_i = values[i]; values live in a common ring."""
        if len(values) != self.n:
            raise ValueError("need one value per variable")
        m = values[0].n
        result = Polynomial.zero(m)
        for exps, c in self.terms.items():
            term = Polynomial.constant(m, c)
            for v, e in zip(values, exps):
                if e:
                    term = term * v ** e
            result = result + term
        return result

    # display

    def to_str(self, names: Sequence[str] | None = None) -> str:
        """Render in the syntax the expression parser accepts, terms in
        descending lex order."""
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            body = monomial_str(exps, names)
            if abs(c) != 1:
                body = "%s*%s" % (abs(c), body) if any(exps) else str(abs(c))
            pieces.append(("- " if c < 0 else "+ ") + body)
        out = " ".join(pieces)
        if out.startswith("+ "):
            return out[2:]
        return "-" + out[2:]

    def __repr__(self):
        return "Polynomial(%s)" % self.to_str()


def trusted_polynomial(n: int, terms: dict) -> Polynomial:
    """A polynomial on `terms`, a dict of nonzero coefficients, integral
    ones int, taken as it is: neither copied nor checked."""
    p = Polynomial.__new__(Polynomial)
    p.n = n
    p.terms = terms
    return p
