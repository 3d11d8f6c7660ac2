"""Recursive-descent parser for polynomial expressions.

Grammar:
    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := var | rational | '(' expr ')'

Variables are z1, z2, z3 (the number of ring variables is the maximal
index used) or x, y in invariant contexts; the two alphabets cannot be
mixed, within one polynomial or across polynomials parsed together.
Rationals are nat or nat/nat.  There is no implicit multiplication and
no unary minus except a single leading sign.

Powers and products are expanded, and an expansion too large to finish
promptly is refused before it starts (`ExpansionLimitError`): a power
of a t-term base to the k >= 2 whose bound C(k + t - 1, t - 1) on its
terms passes MAX_POWER_TERMS, or a product whose factors' term pairs
pass MAX_TERM_PAIRS.

No coefficient of a parsed polynomial has a numerator or denominator
of more than MAX_COEFFICIENT_DIGITS decimal digits, so every one can be
printed.  A longer number literal is refused, and so is a power or a
product whose coefficients may pass the bound, before it is computed.
Every numerator and denominator of a polynomial is at most its top,
the larger of L and max |c L| over its coefficients c, L their least
common denominator, and a sum is refused once computed when its top
has more digits than the bound.  Powers and products are read from
bit lengths, the height h of a polynomial being ceil(log2) of its
top: a product's coefficients are fractions of integers at most
2^(h + h' + ceil(log2 of its term pairs)), and those of a t-term base
to the k at most 2^(k (h + ceil(log2 t))).  A number at most 2^b has
at most floor(b log10 2) + 1 digits.  The heights are the operands' exact
ones (`_height`), but the estimates are upper bounds: 3^k is taken for
2^(2k).  So where an estimate passes the limit for a power of a
one-term base c z^e, or for a product with a one-term factor, the
result is computed and its digits counted (`_bound_exactly`), unless
c^k is past the limit already by its lower bound 2^(k floor(log2))
of the larger of c's numerator and denominator.  Those results have
at most about twice the limit's digits.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, lcm

from .poly import Polynomial

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z]\w*)"
                    r"|(?P<op>[-+*^()]))")


# each keeps one expansion with integer coefficients to about a second
# or less (2-core host, Python 3.11)
MAX_POWER_TERMS = 1_000
MAX_TERM_PAIRS = 1_000_000
# well under the 4,300 digits Python converts between int and str
MAX_COEFFICIENT_DIGITS = 1_000
_LIMIT = 10 ** MAX_COEFFICIENT_DIGITS     # the least of 1,001 digits


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__("%s (at offset %d)" % (message, position))
        self.position = position


class ExpansionLimitError(ValueError):
    """A power or product would expand past its bound, or a coefficient
    would pass MAX_COEFFICIENT_DIGITS."""


def _integer(digits: str, pos: int) -> int:
    """The number literal `digits`, refused past MAX_COEFFICIENT_DIGITS
    before it is converted.  Leading zeros are dropped first, as Python
    counts them against its own limit on the digits it converts."""
    digits = digits.lstrip("0")
    if len(digits) > MAX_COEFFICIENT_DIGITS:
        raise ExpansionLimitError(
            "the number at offset %d has %d digits, above the limit of %d"
            % (pos, len(digits), MAX_COEFFICIENT_DIGITS))
    return int(digits or "0")


def _top(p: Polynomial) -> int:
    """The larger of L and max |c L| over the coefficients c of p, L
    their least common denominator; 1 for p = 0."""
    cs = p.terms.values()
    den = lcm(*(c.denominator for c in cs))
    return max([den, *(abs(c.numerator) * (den // c.denominator)
                       for c in cs)])


def _height(p: Polynomial) -> int:
    """ceil(log2) of `_top(p)`; 0 for p = 0."""
    return (_top(p) - 1).bit_length()


def _digits(bits: int) -> int:
    """The most decimal digits of an integer at most 2^bits; 30103 / 10^5
    is just above log10 2."""
    return bits * 30103 // 100_000 + 1


def _bound(digits: int, what: str, pos: int) -> None:
    """Refuse the `what` at offset `pos` if its coefficients may have
    `digits` digits, past MAX_COEFFICIENT_DIGITS."""
    if digits > MAX_COEFFICIENT_DIGITS:
        raise ExpansionLimitError(
            "the %s at offset %d may reach a coefficient of %d digits, "
            "above the limit of %d"
            % (what, pos, digits, MAX_COEFFICIENT_DIGITS))


def _bound_exactly(p: Polynomial, what: str, pos: int) -> Polynomial:
    """`p`, the `what` at offset `pos`, refused if a numerator or
    denominator of its coefficients has more than MAX_COEFFICIENT_DIGITS
    digits."""
    top = max([max(abs(c.numerator), c.denominator)
               for c in p.terms.values()], default=0)
    _bound(len(str(top)), what, pos)
    return p


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError("unexpected character %r" % stripped[0],
                             len(text) - len(stripped))
        if m.group("num"):
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        elif m.group("op"):
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


_Z_NAME = re.compile(r"^z([123])$")


def _variable_map(tokens):
    """Map variable names to 0-based indices and fix the ring size."""
    names = {tok[1] for tok in tokens if tok[0] == "name"}
    if not names:
        return {}, 1
    uses_z = any(_Z_NAME.match(s) for s in names)
    uses_xy = any(s in ("x", "y") for s in names)
    if uses_z and uses_xy:
        raise ParseError("cannot mix z-variables with x, y", 0)
    if uses_xy:
        bad = names - {"x", "y"}
        if bad:
            raise ParseError("unknown variable %r" % sorted(bad)[0], 0)
        return {"x": 0, "y": 1}, 2
    bad = [s for s in sorted(names) if not _Z_NAME.match(s)]
    if bad:
        raise ParseError("unknown variable %r (use z1, z2, z3 or x, y)"
                         % bad[0], 0)
    n = max(int(_Z_NAME.match(s).group(1)) for s in names)
    return {"z%d" % (i + 1): i for i in range(n)}, n


class _Parser:
    def __init__(self, tokens, varmap, n):
        self.tokens = tokens
        self.i = 0
        self.varmap = varmap
        self.n = n

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError("expected %r" % op, pos)
        return self.take()

    def expr(self) -> Polynomial:
        negate = False
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.take()
            negate = True
        result = self.term()
        if negate:
            result = -result
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.term()
                result = result + rhs if value == "+" else result - rhs
                top = _top(result)
                if top >= _LIMIT:
                    _bound(len(str(top)), "sum", pos)
            else:
                return result

    def term(self) -> Polynomial:
        result = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.take()
                rhs = self.factor()
                pairs = len(result.terms) * len(rhs.terms)
                if pairs > MAX_TERM_PAIRS:
                    raise ExpansionLimitError(
                        "the product at offset %d multiplies %d pairs of terms, "
                        "above the limit of %d" % (pos, pairs, MAX_TERM_PAIRS))
                bits = (_height(result) + _height(rhs)
                        + (pairs - 1).bit_length())
                if 1 in (len(result.terms), len(rhs.terms)) \
                        and _digits(bits) > MAX_COEFFICIENT_DIGITS:
                    # c z^e times q: c times each coefficient of q
                    result = _bound_exactly(result * rhs, "product", pos)
                else:
                    _bound(_digits(bits), "product", pos)
                    result = result * rhs
            elif kind in ("name", "num") or (kind == "op" and value == "("):
                raise ParseError("implicit multiplication is not allowed", pos)
            else:
                return result

    def factor(self) -> Polynomial:
        base = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.take()
            kind, value, pos = self.peek()
            if kind != "num" or "/" in value:
                raise ParseError("exponent must be a natural number", pos)
            self.take()
            k, t = _integer(value, pos), len(base.terms)
            bound = comb(k + t - 1, t - 1) if k > 1 and t > 1 else 1
            if bound > MAX_POWER_TERMS:
                raise ExpansionLimitError(
                    "the power at offset %d may expand to %d terms, above "
                    "the limit of %d" % (pos, bound, MAX_POWER_TERMS))
            bits = k * (_height(base) + max(t - 1, 0).bit_length())
            if t == 1 and _digits(bits) > MAX_COEFFICIENT_DIGITS:
                # (c z^e)^k: the numerator or denominator of c^k reaches
                # 2^floor_bits, whose digits 30102 / 10^5, just under
                # log10 2, bounds from below
                (c,) = base.terms.values()
                floor_bits = k * (max(abs(c.numerator),
                                      c.denominator).bit_length() - 1)
                if floor_bits * 30102 // 100_000 < MAX_COEFFICIENT_DIGITS:
                    return _bound_exactly(base ** k, "power", pos)
            _bound(_digits(bits), "power", pos)
            return base ** k
        return base

    def base(self) -> Polynomial:
        kind, value, pos = self.take()
        if kind == "num":
            if "/" in value:
                a, b = (_integer(x, pos) for x in value.split("/"))
                if b == 0:
                    raise ParseError("zero denominator", pos)
                return Polynomial.constant(self.n, Fraction(a, b))
            return Polynomial.constant(self.n, _integer(value, pos))
        if kind == "name":
            return Polynomial.variable(self.n, self.varmap[value] + 1)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a variable, number or parenthesis", pos)


def parse_polynomials(texts) -> list:
    """Parse each text into a polynomial over one ring, the variables
    all of the texts use, which must come from one alphabet."""
    tokens = [_tokenize(text) for text in texts]
    varmap, size = _variable_map([tok for toks in tokens for tok in toks])
    out = []
    for toks in tokens:
        if len(toks) == 1:
            raise ParseError("empty expression", 0)
        parser = _Parser(toks, varmap, size)
        out.append(parser.expr())
        kind, _, pos = parser.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
    return out


def parse_polynomial(text: str) -> Polynomial:
    """Parse text into a polynomial in as many variables as it uses."""
    return parse_polynomials([text])[0]
