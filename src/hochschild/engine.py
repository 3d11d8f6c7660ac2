"""Hochschild (co)homology of C[z1..zn]/<f>: classifier and graded oracle.

Two independent routes to the same numbers:

* The classifier follows one rule for every n (`_degree`).  grad f is
  a regular sequence and f lies in its ideal (Euler identity), so the
  Koszul complex of grad f over A has homology only at its two ends.
  Hence degree p < n holds the Euler characteristic of free A-modules
  (plus, in cohomology, a finite piece), and degree p >= n a finite
  piece alone, alternating with the parity of p between the two ends.
  Finite pieces are either the Milnor algebra C[z]/<grad f> or a
  colon-ideal quotient K/J with J = <f> + J'_i, J'_i the partials other
  than d_i f, and K = (J : d_i f), which packages the back-substitution
  argument for the kernel of g . grad f.  For isolated f no colon ideal
  is computed: by the Euler identity J = J'_i + <z_i d_i f>, and d_i f
  is a non-zero-divisor modulo J'_i because grad f is a regular
  sequence, so K = <J'_i, z_i>.  The argument is valid exactly when K
  has finite colength (see `Route`), which `_classify` checks before it
  predicts any degree.  Dimensions of A itself come from its closed-form
  Poincare series (`hochschild.series`), not from a monomial basis.

* The graded oracle slices every module by internal weight, restricts
  the differential matrices to each finite-dimensional slice over the
  standard monomial basis of A, and computes exact ranks: the weight-s
  slice of degree p is its module total sum_t dim A_(s - t) minus the
  ranks of the differentials joining p to p - 1 and p + 1.  Every
  differential is generated as (row, i, k) terms, the entry k * d_i f
  for an integer k (their shape is checked by `verify_entries`, and
  d^2 = 0 on them).  The module totals are read from one list of dim A
  per report.  One call scans every degree's window: each differential
  is ranked once, at the weights of its two ends' windows where both
  ends' totals are nonzero, and its ranks are subtracted from both
  ends.  A differential is cut into strand blocks, the connected
  pieces of the graph joining every domain component to the codomain
  components its entries hit, read from those entries; a slice's rank
  is the sum of its blocks' ranks, and the weights are ranked in one
  pass over the blocks.  A block slice is assembled sparse from the
  multiplication maps M_i(u), d_i f times A_u into A_(u + d - w_i),
  each reduced once by `Analysis._map` to positions in the bases of A:
  a standard product is read from the position index of
  `GradedQuotient`, any other takes one reduction step by f, and the
  products still not standard go through `ideals._reduce`.  A row is
  its codomain component's offset, read from the dim A list, plus a
  position.

  A block slice's rank is cached at two levels, both scoped to the
  block's signature (its column terms and relative shifts, see
  `_slice_map`), so a block that recurs, in another differential or in
  the 2-periodic tail, shares both tables.  The first is keyed by the
  relative weight s - base.  On a miss there, the slice's content key
  is looked up in the second: in column order, one id per (domain
  component at shift t, term of partial i), the id of M_i(s - t), which
  `_map` interns so that maps of equal content share one id.  Only a
  second miss assembles the slice and ranks it.  The key is complete:
  the signature fixes each component's (row, i, k) terms, a map holds
  one image per domain monomial, so its length is the component's
  domain count, and the images give each term's (position,
  coefficient) entries; so two slices with one key are one matrix up
  to an injective renumbering of rows (a row is its component's offset
  plus a position below that component's dim), and have one rank.

`_classify` returns one prediction per degree and `oracle_dim` one
{s: dim} per degree.  When both run, `analyze` compares the two lists:
the verdict is "agree" exactly when every degree's expected slices
equal the oracle's, and "disagree" otherwise.

The report types (`Report`, `DegreeReport`, `KernelDescription`,
`KernelFamily`, `Route`) are named tuples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import add, mul, sub
from typing import NamedTuple

from . import ideals
from .grading import (
    GradedQuotient,
    WeightSystem,
    detect_weights,
    euler_identity_holds,
)
from .ideals import INFINITE, buchberger
from .koszul import chain_complex, cochain_complex, module, shift
from .linalg import rank_sparse
from .poly import Polynomial, exact_quotient, int_or_fraction, monomial_str
from .series import poincare_dims


class PreconditionError(ValueError):
    """A computation's mathematical preconditions are not met."""


class Route(NamedTuple):
    """Validated elimination route for the odd-degree kernel analysis.

    solved is the first index i for which K = <J'_i, z_i> has finite
    colength, J'_i being the partials other than d_i f (the ones
    back-substituted), and J = <f> + J'_i.  For isolated f,
    K = (J : d_i f), and the route is valid exactly when K has finite
    colength: then J'_i, z_i is a regular sequence, so z_i and d_i f are
    non-zero-divisors modulo J'_i, and so is f, which the Euler identity
    puts in z_i d_i f + J'_i up to a unit; hence J'_i, f is a regular sequence in any order
    (homogeneous regular sequences permute; Bruns-Herzog, Cohen-Macaulay
    Rings, Thm. 2.1.2) and J has finite colength.  Conversely, if some
    ordering of f and J'_i is regular, z_i is a non-zero-divisor modulo
    J'_i and K is finite.  basis is std(J) minus std(K), the monomial
    basis of K/J.
    """
    solved: int
    basis: tuple        # monomial exponent tuples, std(J) minus std(K)


class _SliceMap(NamedTuple):
    """One strand block of a differential as the oracle slices it: the
    domain components of one connected piece of the differential and
    the codomain components their entries hit, rows numbered within the
    block.  Both rank tables are shared by blocks of equal signature and
    by no others."""
    ranks: dict       # s - base -> rank
    contents: dict    # content key (see `_block_rank`) -> rank
    base: int         # first domain shift
    dom: tuple        # domain component shifts
    cod: tuple        # codomain component shifts
    columns: tuple    # per domain component: (row, i, k / first k) terms


class DegreeReport(NamedTuple):
    p: int
    kind: str                  # "A" | "A_plus_finite" | "free_plus_finite"
    #                            | "module_quotient" | "finite" | "oracle"
    structure: str | None
    finite_dim: int | None
    basis: tuple | None        # monomial label strings for the finite part
    top_weight: int | None
    window: tuple
    expected_graded: dict | None
    oracle_graded: dict | None


class Report(NamedTuple):
    f: Polynomial
    direction: str             # "cohomology" | "homology"
    weights: WeightSystem
    milnor: object             # int or INFINITE
    degrees: list
    kernel: object | None
    crosscheck: str            # "agree" | "disagree" | "skipped"
    classifier_ok: bool
    notes: list


class KernelFamily(NamedTuple):
    name: str
    vector: tuple              # one Polynomial per variable
    cofactor_monomials: str    # human note on the multiplier family


class KernelDescription(NamedTuple):
    families: list
    verified: bool             # each family lies in the kernel; this does
    #                            not say that the families generate it


class Analysis:
    """Shared exact data for one hypersurface f: weights, the Groebner
    basis of f, the graded quotient A, the Milnor number and the graded
    oracle's caches; `oracle_dim` builds the Koszul complexes."""

    def __init__(self, f: Polynomial):
        if f.is_zero() or f.is_constant():
            raise PreconditionError("f must be a nonconstant polynomial")
        self.f = f
        self.n = f.n
        self.ws = detect_weights(f)
        if not euler_identity_holds(f, self.ws):
            raise AssertionError("Euler identity fails for detected weights")
        self.gb_f = buchberger([f])
        self.A = GradedQuotient(self.gb_f, self.ws.weights)
        # the one monic f as (leading exponents, tail scaled by -1): the
        # reduction step of `_map`
        (self._step,) = self.gb_f._divisors
        self.grad = f.gradient()
        grad_nz = [g for g in self.grad if not g.is_zero()]
        std = ideals.standard_monomials(buchberger(grad_nz), self.n)
        if std.finite:
            self.milnor = len(std.monomials)
            self.milnor_basis = std.monomials
        else:
            self.milnor = INFINITE
            self.milnor_basis = None
        # graded-oracle caches (see _slice_map and _map)
        self._tables: dict = {}   # signature -> (ranks, contents)
        self._maps = [[] for _ in range(self.n)]   # per partial: u -> id
        self._ids = {(): 0}       # map content -> id; 0 for an empty domain
        self._interned = [()]     # id -> map content

    # ---- route search -------------------------------------------------

    def route(self) -> Route | None:
        """The elimination route: the first i with C[z]/<J'_i, z_i>
        finite-dimensional, where J'_i holds the partials other than
        d_i f.  That ideal is K, and J = <f> + J'_i (see `Route`).  None
        when f is not isolated or no i gives one.  Each call searches
        afresh; `analyze` calls it once per report."""
        if self.milnor is INFINITE:
            return None
        n = self.n
        for i in range(1, n + 1):
            others = [g for j, g in enumerate(self.grad, 1) if j != i]
            gb_k = buchberger(others + [Polynomial.variable(n, i)])
            std_k = ideals.standard_monomials(gb_k, n)
            if not std_k.finite:
                continue
            std_j = ideals.standard_monomials(
                buchberger([self.f] + others), n)
            in_k = set(std_k.monomials)
            return Route(i, tuple(m for m in std_j.monomials
                                  if m not in in_k))
        return None

    # ---- graded oracle ------------------------------------------------

    def _slice_map(self, columns, dom: tuple, cod: tuple) -> _SliceMap:
        """Key a strand block by its content.  Each column's (row, i, k)
        terms are divided by the column's first k, which scales the
        column and leaves every slice rank unchanged.  The signature is
        those terms plus the shifts relative to the first domain shift
        `base`; the slice at weight s is then a function of the
        signature and s - base, so blocks of equal signature share one
        rank table keyed by s - base, and one keyed by slice content."""
        base = dom[0]
        normed = tuple(tuple((r, i, exact_quotient(k, col[0][2]))
                             for r, i, k in col)
                       for col in columns)
        signature = (normed, tuple(t - base for t in dom),
                     tuple(t - base for t in cod))
        tables = self._tables.get(signature)
        if tables is None:
            tables = self._tables[signature] = ({}, {})
        return _SliceMap(*tables, base, dom, cod, normed)

    def _map(self, i: int, u: int) -> int:
        """The id of M_i(u), multiplication by d_i f from A_u: one image
        per monomial z^m of `self.A.basis(u)`, in that order, the normal
        form of d_i f * z^m as (position, coefficient) pairs, positions
        in the basis of the product's weight, integral coefficients as
        int.  `self.A` must be filled through weight u + d - w_i.

        Each term v * z^e of d_i f gives a = e + m.  A standard z^a is
        read from the position index.  Otherwise the leading monomial of
        f divides z^a, and one reduction step replaces it by the scaled
        tail of f times z^(a - lead), whose products are read from the
        index in turn.  An image's products that are still not standard
        are reduced together by `ideals._reduce`, and its remainder read
        from the index.  The tuple of images is interned: maps of equal
        content, at any partial and weight, share one small int id,
        stored per partial at index u of the list `self._maps[i - 1]`
        (no int per entry, as a dict would keep); `self._interned[id]` is
        the map.  Each call reduces afresh: `_block_rank` reads that
        list first and calls `_map` only on a miss."""
        position = self.A.position
        lead, tail = self._step
        grad = self.grad[i - 1].terms.items()
        images = []
        for mono in self.A.basis(u):
            acc: dict = {}
            rest: dict = {}     # non-standard tail products -> coefficient
            for e, v in grad:
                a = tuple(map(add, e, mono))
                r = position.get(a)
                if r is not None:
                    acc[r] = acc.get(r, 0) + v
                    continue
                q = tuple(map(sub, a, lead))
                if min(q) < 0:
                    raise LookupError("standard monomial %r lies above the "
                                      "filled basis of A" % (a,))
                for t, c in tail:
                    b = tuple(map(add, t, q))
                    r = position.get(b)
                    if r is not None:
                        acc[r] = acc.get(r, 0) + v * c
                        continue
                    x = rest.get(b, 0) + v * c
                    if x:
                        rest[b] = x
                    else:
                        del rest[b]
            if rest:
                for b, c in ideals._reduce(rest, (self._step,)).items():
                    r = position.get(b)
                    if r is None:
                        raise LookupError("standard monomial %r lies above "
                                          "the filled basis of A" % (b,))
                    acc[r] = acc.get(r, 0) + c
            images.append(tuple((r, int_or_fraction(c))
                                for r, c in acc.items() if c))
        images = tuple(images)
        mid = self._ids.get(images)
        if mid is None:
            mid = self._ids[images] = len(self._interned)
            self._interned.append(images)
        maps = self._maps[i - 1]
        maps.extend([None] * (u + 1 - len(maps)))
        maps[u] = mid
        return mid

    def oracle_dim(self, direction: str, windows: list) -> list:
        """One {s: dim} per degree p of `windows`, each a (lo, hi) scan
        window: the nonzero weight-s slices of degree-p (co)homology,
        each the module total sum_t dim A_(s - t) over degree p's shifts
        less the ranks of the differentials joining p to p - 1 and to
        p + 1.

        The complex is built, checked and weighted through one degree
        past the last window.  Each differential is ranked once, in one
        pass over its strand blocks, at the weights of its two ends'
        windows where both ends' module totals are nonzero; elsewhere
        its rank is 0.  A block's rank tables are keyed by its signature
        and by slice content, never by degree, so periodicity is not
        assumed: the 2-periodic tail hits them because its blocks
        repeat."""
        build = cochain_complex if direction == "cohomology" else chain_complex
        cx = build(self.f, len(windows))
        terms = cx.verify_entries()
        cx.verify_d_squared_zero(terms)
        cx.assign_weights(self.ws)
        # degree q is read on its own window and, as the far end of a
        # differential, on its neighbours' windows
        spans = []
        for q in range(len(cx.modules)):
            near = windows[max(q - 1, 0):q + 2]
            spans.append((min(lo for lo, _ in near),
                          max(hi for _, hi in near)))
        # the scan asks for A at s - t, s in a window and t a shift,
        # and shifts are >= 0 whenever each w_i <= d: one staircase
        # walk to the highest window top then fills every basis, and
        # dim A is read from it once
        self.A.basis(max(hi for _, hi in windows))
        top = max(hi - min(m.shifts) for m, (_, hi) in zip(cx.modules, spans))
        dims = [len(self.A.basis(s)) for s in range(top + 1)]
        totals = [(lo, _module_totals(dims, [(1, t) for t in m.shifts],
                                      lo, hi))
                  for m, (lo, hi) in zip(cx.modules, spans)]
        graded = [column[lo - start:hi - start + 1]
                  for (lo, hi), (start, column) in zip(windows, totals)]
        for k, columns in enumerate(terms):
            ends = windows[k:k + 2]
            (near_lo, near), (far_lo, far) = totals[k], totals[k + 1]
            weights = set().union(*(range(lo, hi + 1) for lo, hi in ends))
            todo = [s for s in sorted(weights)
                    if near[s - near_lo] and far[s - far_lo]]
            if not todo:
                continue
            src, tgt = cx.ends(k)
            dom, cod = cx.modules[src].shifts, cx.modules[tgt].shifts
            ranks = [0] * len(todo)
            for cs, rs, block in _strand_blocks(columns):
                block = self._slice_map(block, tuple(dom[c] for c in cs),
                                        tuple(cod[r] for r in rs))
                table, first = block.ranks, block.base
                for j, s in enumerate(todo):
                    rank = table.get(s - first)
                    if rank is None:
                        rank = table[s - first] = self._block_rank(
                            block, s, dims)
                    ranks[j] += rank
            for (lo, hi), g in zip(ends, graded[k:k + 2]):
                for s, rank in zip(todo, ranks):
                    if lo <= s <= hi:
                        g[s - lo] -= rank
        return [{s: dim for s, dim in enumerate(g, lo) if dim}
                for (lo, _), g in zip(windows, graded)]

    def _block_rank(self, block: _SliceMap, s: int, dims: list) -> int:
        """Rank of a strand block's weight-s slice.  Rows are numbered by
        codomain component, the component at shift t taking dims[s - t]
        rows from its offset, so an image position plus its component's
        offset is the row.  A block slice with no columns or no rows, as
        read from dims, has rank 0 and is not assembled.

        Otherwise the slice's content key is read: the id of M_i(s - t)
        for each domain component at shift t and each of its (row, i, k)
        terms, in column order, from the map id caches (only a miss
        calls `_map`), or 0, the id of the empty map, where s - t is
        negative.  A key found in `block.contents` gives the rank; a
        new key's slice is assembled sparse from the interned maps, one
        column per domain monomial, ranked, and stored under the key."""
        for t in block.dom:
            if s >= t and dims[s - t]:
                break
        else:
            return 0
        offsets = []
        count = 0
        for t in block.cod:
            offsets.append(count)
            if s >= t:
                count += dims[s - t]
        if not count:
            return 0
        key = []
        cache = self._maps
        for t, terms in zip(block.dom, block.columns):
            u = s - t
            if u < 0:
                key += [0] * len(terms)
                continue
            for _, i, _ in terms:
                maps = cache[i - 1]
                mid = maps[u] if u < len(maps) else None
                key.append(self._map(i, u) if mid is None else mid)
        key = tuple(key)
        rank = block.contents.get(key)
        if rank is None:
            interned = self._interned
            cols = []
            ids = iter(key)
            for terms in block.columns:
                rows = [(offsets[r], k) for r, _, k in terms]
                for images in zip(*[interned[next(ids)] for _ in terms]):
                    col = {offset + pos: k * v
                           for (offset, k), image in zip(rows, images)
                           for pos, v in image}
                    if col:
                        cols.append(col)
            rank = block.contents[key] = rank_sparse(cols) if cols else 0
        return rank


def _strand_blocks(columns) -> list:
    """The strand blocks of a differential given as columns of
    (row, i, k) terms, one column per domain component: the connected
    pieces of the graph joining each domain component to the codomain
    components its terms hit.  Returns (domain components, codomain
    components, columns) per block, ordered by first domain component,
    each column's rows renumbered by position among the block's
    codomain components.  A zero column and a codomain component no
    column hits add nothing to any rank and belong to no block."""
    pieces = []             # (domain components, codomain components)
    for c, terms in enumerate(columns):
        if not terms:
            continue
        cs, rs = [c], {r for r, _, _ in terms}
        rest = []
        for piece in pieces:
            if piece[1] & rs:
                cs += piece[0]
                rs |= piece[1]
            else:
                rest.append(piece)
        pieces = rest + [(cs, rs)]
    blocks = []
    for cs, rs in sorted((sorted(cs), sorted(rs)) for cs, rs in pieces):
        local = {r: j for j, r in enumerate(rs)}
        blocks.append((tuple(cs), tuple(rs),
                       tuple(tuple((local[r], i, k) for r, i, k in columns[c])
                             for c in cs)))
    return blocks


def _module_totals(dims: list, terms, lo: int, hi: int) -> list:
    """sum sign * dims[s - t] over the (sign, t) pairs, sign 1 or -1,
    for s = lo..hi, where an index below 0 reads 0 (A has no negative
    weights); dims must reach hi - t for every t."""
    column = [0] * (hi - lo + 1)
    for sign, t in terms:
        first = max(lo, t)      # lowest s with s - t >= 0
        column[first - lo:] = map(add if sign > 0 else sub,
                                  column[first - lo:],
                                  dims[first - t:hi - t + 1])
    return column


# ---- classifier -------------------------------------------------------


def _degree(an: Analysis, route: Route, direction: str, p: int) -> tuple:
    """(kind, structure, finite source, shift, free part) for degree p.

    structure is the report's label, with %d where the finite dimension
    goes; finite source is "milnor", "kj" or None, placed at weight
    shift; the free part is a tuple of (sign, t) pairs standing for
    sum sign * dim A_(s - t).

    One rule serves every n.  The component of module p with j odd
    generators lies on a strand of the Koszul complex of grad f over
    A.  grad f is a regular sequence in C[z] and f lies in its ideal
    (Euler identity), so that complex is exact except at its two ends,
    where its homology is M_f.  Below degree n the strand through j = p
    is cut at p (no cochain map into it, no chain map out of it), which
    leaves the Euler characteristic of its free modules past the cut.
    From degree n on no strand is cut and only the two ends remain, one
    for each parity of p: the Milnor algebra, and the route's K/J.
    """
    n, d, w = an.n, an.ws.degree, an.ws.weights
    w_s = w[route.solved - 1]
    if p == 0:
        return ("A", "A", None, None, ((1, 0),))
    if direction == "cohomology":
        source, shift = ("kj", d - w_s) if p % 2 else ("milnor", 0)
        if p >= n:
            return ("finite", "C^%d", source, shift, ())
        free = tuple(((-1) ** (k - p - 1), sum(d - wi for wi in S))
                     for k in range(p + 1, n + 1)
                     for S in combinations(w, k))
        if p == n - 1:
            return ("A_plus_finite", "A + C^%d", source, shift, free)
        return ("free_plus_finite", "(grad f ^ A^3) + C^%d", source, shift,
                free)
    if p < n:
        free = tuple(((-1) ** (p - k), (p - k) * d + sum(S))
                     for k in range(p + 1) for S in combinations(w, k))
        structure = ("A^2/(A grad f)" if (p, n) == (1, 2)
                     else "grad f ^ A^3" if (p, n) == (1, 3)
                     else "A^3/(grad f ^ A^3)")
        return ("module_quotient", structure, None, None, free)
    q, r = divmod(p - n, 2)
    if r == 0:
        return ("finite", "C^%d", "milnor", q * d + sum(w), ())
    return ("finite", "C^%d", "kj", (q + 1) * d + sum(w) - w_s, ())


def _classify(an: Analysis, direction: str, windows: list) -> list:
    """The classifier's prediction for each degree p of `windows`:
    (kind, structure, finite dim, basis labels, top weight, {s: dim}),
    the last the nonzero expected slices over p's (lo, hi) window.
    PreconditionError when f is not isolated or has no route.

    A degree's slices are its free part, read from one dim A list of
    the closed-form series, plus its finite source (the Milnor algebra
    or the route's K/J) graded by weight and placed at the shift
    `_degree` gives.  Each source is graded and labelled once."""
    if an.milnor is INFINITE:
        raise PreconditionError("non-isolated singularity: Milnor "
                                "algebra is infinite-dimensional")
    route = an.route()
    if route is None:
        raise PreconditionError("no valid elimination route: "
                                "C[z]/<J'_i, z_i> is infinite-"
                                "dimensional for every i")
    # the free shifts are >= 0, since each w_i <= d when f is isolated
    dims = poincare_dims(an.ws.weights, an.ws.degree,
                         max(hi for _, hi in windows))
    parts: dict = {}    # finite source -> (dim, {t: dim}, labels)
    classes = []
    for p, (lo, hi) in enumerate(windows):
        kind, structure, source, shift, free = _degree(an, route,
                                                       direction, p)
        finite_dim = basis = top_weight = None
        finite: dict = {}
        if source is not None:
            if source not in parts:
                monomials = (an.milnor_basis if source == "milnor"
                             else route.basis)
                graded: dict = {}
                for m in monomials:
                    t = sum(map(mul, an.ws.weights, m))
                    graded[t] = graded.get(t, 0) + 1
                parts[source] = (len(monomials), graded,
                                 tuple(map(monomial_str, monomials)))
            finite_dim, graded, basis = parts[source]
            finite = {t + shift: dim for t, dim in graded.items()}
            top_weight = max(finite, default=None)
            structure %= finite_dim
        elif kind == "A":
            finite_dim = 0
        expected = {}
        for s, val in enumerate(_module_totals(dims, free, lo, hi), lo):
            val += finite.get(s, 0)
            if val:
                expected[s] = val
        classes.append((kind, structure, finite_dim, basis, top_weight,
                        expected))
    return classes


# ---- top-level entry point -------------------------------------------


def analyze(f: Polynomial, direction: str = "cohomology", p_max: int = 6,
            cutoff: int | None = None, mode: str = "both",
            analysis: Analysis | None = None) -> Report:
    """Compute a full (co)homology report for A = C[z]/<f>.

    mode selects the computation route: "structural" runs only the
    classifier, "graded" only the weight-by-weight oracle, "both" runs
    the two independently and records whether they agree; crosscheck
    is "skipped" unless both ran.  In mode both a classifier
    precondition failure becomes a note.
    """
    if direction not in ("cohomology", "homology"):
        raise ValueError("direction must be cohomology or homology")
    if mode not in ("structural", "graded", "both"):
        raise ValueError("mode must be structural, graded or both")
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    if cutoff is not None and cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    an = analysis or Analysis(f)
    if cutoff is None:
        cutoff = 3 * an.ws.degree
    windows = [_window(an, direction, p, cutoff) for p in range(p_max + 1)]
    notes: list = []
    classes = oracle = None
    if mode != "graded":
        try:
            classes = _classify(an, direction, windows)
        except PreconditionError as exc:
            if mode == "structural":
                raise
            notes.append("classifier disabled: %s" % exc)
    if mode != "structural":
        oracle = an.oracle_dim(direction, windows)

    rows = zip(windows, classes or [("oracle",) + (None,) * 5] * len(windows),
               oracle or [None] * len(windows))
    degrees = [DegreeReport(p, *found, window, expected, graded)
               for p, (window, (*found, expected), graded) in enumerate(rows)]
    crosscheck = ("skipped" if classes is None or oracle is None
                  else "agree" if [c[-1] for c in classes] == oracle
                  else "disagree")
    kernel = (kernel_description(an)
              if direction == "cohomology" and classes is not None else None)
    return Report(f, direction, an.ws, an.milnor, degrees, kernel,
                  crosscheck, classes is not None, notes)


def _window(an: Analysis, direction: str, p: int, cutoff: int) -> tuple:
    side = "cochain" if direction == "cohomology" else "chain"
    lo = min(shift(side, an.ws, e) for e in module(an.n, p))
    return (lo, lo + cutoff)


# ---- kernel generator families ---------------------------------------


def kernel_description(an: Analysis) -> KernelDescription:
    """Families of vector fields g with g . grad f = 0 mod f.

    Always listed: for n = 1, where f is c*z1^d, the Euler field over
    w1, (z1,), whose multiples z1*A are the whole kernel; for n = 2 the
    Hamiltonian field; for n = 3 the three wedge fields grad f ^ e_i.
    When f is written as one of three normal forms (`_pattern`), the
    Euler field E = sum w_i z_i e_i, rescaled, is added with its
    finite-part monomial range, and for the D forms one more field.
    Outside those patterns the list need not generate the kernel, since
    E is not a combination of the gradient fields modulo f: e7-curve
    lists only the Hamiltonian field, and e7-surface only the three
    wedge fields.

    `verified` re-checks by reduction mod f that every listed field lies
    in the kernel; it does not check that the fields generate it.
    """
    n, D, w = an.n, an.grad, an.ws.weights
    z = [Polynomial.variable(n, i) for i in range(1, n + 1)]

    def euler(j):
        """E scaled to coefficient 1 at z_j: E / w_j."""
        return tuple(exact_quotient(wi, w[j - 1]) * zi
                     for wi, zi in zip(w, z))

    if n == 1:
        families = [KernelFamily("euler", euler(1),
                                 "any multiple; z1*A is the whole kernel")]
    elif n == 2:
        families = [KernelFamily("hamiltonian", (D[1], -D[0]),
                                 "any monomial multiple stays in the kernel")]
    else:
        Z = Polynomial.zero(n)
        families = [
            KernelFamily("grad_wedge_e1", (Z, D[2], -D[1]),
                         "any monomial multiple"),
            KernelFamily("grad_wedge_e2", (-D[2], Z, D[0]),
                         "any monomial multiple"),
            KernelFamily("grad_wedge_e3", (D[1], -D[0], Z),
                         "any monomial multiple")]
    pattern, k = _pattern(an.f) if n > 1 else (None, None)
    if pattern == "separate_variables":
        families.append(KernelFamily(
            "separate_variables", euler(n),
            "z1^i*z2^(j-1) for 0<=i<=%d, 1<=j<=%d" % (k[0] - 2, k[1] - 1)
            if n == 2 else "z1^p*z2^q*z3^(r-1) over the Milnor-box range"))
    elif pattern == "d" and n == 2:
        families += [
            KernelFamily("d_curve_b", euler(1), "z2^j for 0<=j<=%d" % (k - 2)),
            KernelFamily("d_curve_a",
                         (z[1] ** (k - 1), Fraction(2, 1 - k) * z[0] * z[1]),
                         "single")]
    elif pattern == "d":
        families += [
            KernelFamily("d_surface_b", euler(2),
                         "z3^j for 0<=j<=%d" % (k - 2)),
            KernelFamily("d_surface_a",
                         (Fraction(1, 1 - k) * z[0] * z[1], z[2] ** (k - 1),
                          Fraction(2, 1 - k) * z[1] * z[2]),
                         "single")]
    verified = all(
        an.gb_f.normal_form(
            sum((g * D[i] for i, g in enumerate(fam.vector)),
                Polynomial.zero(n))).is_zero()
        for fam in families)
    return KernelDescription(families, verified)


# the D curve z1^2*z2 + z2^m and the D surface z1^2 + z2^2*z3 + z3^m
# without their last term
_D_HEADS = {2: [(2, 1)], 3: [(2, 0, 0), (0, 2, 1)]}


def _pattern(f: Polynomial) -> tuple:
    """The normal form f is written in, matched term for term:
    ("separate_variables", [a_1, .., a_n]) for sum c_i z_i^(a_i) with
    any nonzero c_i; ("d", m) for the D curve or the D surface, every
    coefficient 1 and m >= 2; otherwise (None, None)."""
    terms = sorted(f.terms, reverse=True)       # lex: z1^a_1 first
    if len(terms) == f.n and all(e[i] == sum(e) > 0
                                 for i, e in enumerate(terms)):
        return "separate_variables", [e[i] for i, e in enumerate(terms)]
    *head, last = terms
    if (head == _D_HEADS.get(f.n) and last[-1] == sum(last) >= 2
            and set(f.terms.values()) == {1}):
        return "d", last[-1]
    return None, None
