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
  for an integer k, with no term where d_i f is 0 (`verify_entries`
  checks their shape, and d^2 = 0 on them).  Every report builds and
  checks its own complex, and finds strand blocks once per distinct
  scaled columns.  One call scans every degree's window, its totals,
  ranks and slices held as dense columns over the window's weights and
  combined in whole-list passes; each distinct differential is ranked
  once, where both ends' totals are nonzero, one strand block (a
  connected piece of the graph joining domain to codomain components,
  read from its entries) over all its weights per
  `Analysis._block_ranks` call; a slice's rank is the sum of its
  blocks' ranks.  Block slices are assembled sparse, one column per
  domain monomial, from the multiplication maps M_i(u), d_i f times A_u
  into A_(u + d - w_i): a domain component of one term (its k is 1, as
  each column is scaled by its first k) whose codomain component's rows
  start at 0 takes each nonempty image as its column, copied whole, and
  every other component sums its images per monomial.
  `Analysis._reduce_maps` reduces the maps to positions
  in the bases of A before any block is ranked, every u a report reads
  in one call per partial, over a frontier of exponent offsets: the
  products at one offset are read as one position column, and those
  not standard, checked divisible by lead(f) at once through their
  exponent columns' least entries, step by f to lower offsets.  A step
  lowers an offset in lex order, so taking the lex-highest offset
  first finds every product complete, each reduced once.

  Ranks are cached by what they read.  The rank of a differential at s
  reads dims and maps at s - t only, t a shift, so `oracle_dim` keys
  each differential by its column terms, each column scaled by its
  first k, its domain shifts less a and its width b - a, for a..b the
  weights of its two ends' windows (a term of d_i f joins domain shift
  t to codomain shift t - (d - w_i), so the terms and domain shifts fix
  every codomain shift a rank reads): a differential whose key
  recurs, as the 2-periodic tail's do (translated by d in homology),
  takes the first one's whole rank column, and a module
  whose shifts and span recur relative to the span's low edge takes
  the first one's totals column.  Periodicity is not assumed; the tail
  hits because its keys repeat.  Below that, each strand block's
  signature, its terms and its domain shifts relative to the first,
  keys one table of ranks by slice content, one map id per
  (domain component at shift t, term of partial i), the id of
  M_i(s - t), maps of equal content sharing one id.  The content key
  is complete: the signature fixes each component's (row, i, k) terms
  and a map holds one image per domain monomial, so two slices with
  one key are one matrix up to an injective renumbering of rows, and
  have one rank.

`_classify` returns one prediction per degree and `oracle_dim` one
{s: dim} per degree.  When both run, `analyze` compares the two lists:
the verdict is "agree" exactly when every degree's expected slices
equal the oracle's, and "disagree" otherwise.

The report types (`Report`, `DegreeReport`, `KernelDescription`,
`KernelFamily`, `Route`) are named tuples.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, compress, repeat
from operator import add, lt, mul, sub
from typing import NamedTuple

from . import ideals
from .grading import (
    GradedQuotient,
    WeightSystem,
    detect_weights,
    euler_identity_holds,
)
from .ideals import INFINITE, buchberger
from .koszul import chain_complex, cochain_complex, lowest_shift
from .linalg import rank_sparse
from .poly import Polynomial, exact_quotient, int_or_fraction, monomial_strs
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
    puts in z_i d_i f + J'_i up to a unit; hence J'_i, f is a regular
    sequence in any order (homogeneous regular sequences permute;
    Bruns-Herzog, Cohen-Macaulay Rings, Thm. 2.1.2) and J has finite
    colength.  Conversely, if some ordering of f and J'_i is regular,
    z_i is a non-zero-divisor modulo J'_i and K is finite.  basis is
    std(J) minus std(K), the monomial basis of K/J.
    """
    solved: int
    basis: tuple        # monomial exponent tuples, std(J) minus std(K)


class DegreeReport(NamedTuple):
    p: int
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
        # the one monic f as (leading exponents, tail scaled by -1): in
        # `_reduce_maps` a product divisible by the leading monomial steps
        # to one lex-lower offset per tail term, so the frontier taken
        # lex-highest first never returns to an offset it has taken
        (self._step,) = self.gb_f._divisors
        self.grad = f.gradient()
        std = ideals.standard_monomials(buchberger(self.grad), self.n)
        self.milnor = INFINITE if std is None else len(std)
        self.milnor_basis = std
        # graded-oracle caches (see _block_ranks and _reduce_maps)
        self._tables: dict = {}   # block signature -> {content: rank}
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
            if std_k is None:
                continue
            in_k = set(std_k)
            std_j = ideals.standard_monomials(buchberger([self.f] + others), n)
            return Route(i, tuple(m for m in std_j if m not in in_k))
        return None

    # ---- graded oracle ------------------------------------------------

    def _reduce_maps(self, i: int, last: int) -> None:
        """Reduce M_i(u), multiplication by d_i f != 0 from A_u, for
        every u from the first not yet reduced through `last`, and append
        its id to `self._maps[i - 1]`, which so holds the id of M_i(u) at
        index u (the complex has no term of a zero partial).  A map holds
        one image per monomial z^m of A_u, in basis order: the normal
        form of d_i f * z^m as (position, coefficient) pairs, integral
        coefficients int.  A is filled through `last`; the position index
        must already reach last + d - w_i.

        The monomials z^m, in ascending u, are reduced together over a
        frontier: `pending` maps an exponent offset o to its sources,
        each some images and their coefficients at the products
        z^(m + o), one source per term of d_i f to begin with.  The
        lex-highest offset is taken, its sources summed per image, and
        one position column read (`_positions`): a standard product is a
        term of its image, and any other must be divisible by lead(f),
        which is checked for the column's missed products at once, and
        steps by f to one offset o - lead + t per tail term t.  As
        t < lead in lex order, offsets only fall: a product is complete
        when its offset is taken, each image meets an offset once, and
        the positions within an image are distinct.  LookupError when a
        product lies past the filled basis, naming the column's first
        such product.  Maps of equal content share one small int id,
        and `self._interned[id]` is the map."""
        maps = self._maps[i - 1]
        us = range(len(maps), last + 1)
        self.A.basis(last)
        bases, position = self.A.bases, self.A.position
        monos = [m for u in us for m in bases[u]]
        lead, tail = self._step
        images = [()] * len(monos)
        pending = {e: [(range(len(monos)), repeat(int_or_fraction(v)))]
                   for e, v in self.grad[i - 1].terms.items()}
        while pending:
            o = max(pending)
            sources = pending.pop(o)
            if len(sources) == 1:
                (js, cs), = sources
            else:
                acc: dict = {}      # image -> summed coefficient
                for js, cs in sources:
                    for j, c in zip(js, cs):
                        acc[j] = acc.get(j, 0) + c
                js = [j for j, c in acc.items() if c]
                cs = [int_or_fraction(acc[j]) for j in js]
            missed, left = [], []
            for j, c, r in zip(js, cs, _positions(map(monos.__getitem__, js),
                                                  o, position)):
                if r is None:
                    missed.append(j)
                    left.append(c)
                else:
                    images[j] += ((r, c),)
            if not missed:
                continue
            # lead(f) divides every missed product exactly when no entry
            # of lead passes its exponent column's least entry plus the
            # offset; if one does, the first product it fails is named
            if any(map(lt, map(add, map(min, zip(*map(monos.__getitem__,
                                                      missed))), o), lead)):
                for j in missed:
                    a = tuple(map(add, monos[j], o))
                    if min(map(sub, a, lead)) < 0:
                        raise LookupError("standard monomial %r lies above "
                                          "the filled basis of A" % (a,))
            for t, c in tail:
                # one coefficient object per value, shared by its images:
                # at large mu an int per image entry costs megabytes
                scaled = {x: int_or_fraction(x * c) for x in set(left)}
                step = tuple(map(sub, map(add, o, t), lead))
                pending.setdefault(step, []).append(
                    (missed, list(map(scaled.__getitem__, left))))
        ids, interned = self._ids, self._interned
        end = 0
        for u in us:
            start, end = end, end + len(bases[u])
            content = tuple(images[start:end])
            mid = ids.get(content)
            if mid is None:
                mid = ids[content] = len(interned)
                interned.append(content)
            maps.append(mid)

    def oracle_dim(self, direction: str, windows: list) -> list:
        """One {s: dim} per degree p of `windows`, each a (lo, hi) scan
        window: the nonzero weight-s slices of degree-p (co)homology,
        each the module total sum_t dim A_(s - t) over degree p's shifts
        less the ranks of the differentials joining p to p - 1 and to
        p + 1.

        The complex is built, checked and weighted through one degree
        past the last window, each window's low edge checked against
        its degree's lowest shift, and A filled through the highest weight
        `top` a slice reads.  Three passes follow.  Every multiplication
        map a slice reads is reduced, one `_reduce_maps` call per
        nonzero partial.  Each distinct differential is ranked once, one
        `_block_ranks` call per strand block, at the weights of its two
        ends' windows where both ends' module totals are nonzero, into
        one dense rank column over the two windows, 0 elsewhere.  Each
        slice column is then its total less the rank columns on its two
        sides, and its nonzero weights, ascending, are its {s: dim}.
        Nothing is keyed by degree.  A module's totals column is shared
        by every module of equal shifts and span relative to the span's
        low edge, and a differential's rank column by every differential
        of equal scaled columns, domain shifts relative to a and width
        b - a: the rank at s reads dims and maps at s - t only, and each
        term's codomain shift is its domain shift less d - w_i, as
        `assign_weights` checks.  The 2-periodic tail hits both because
        its modules and differentials repeat, so its differentials are
        ranked once per report each."""
        build = cochain_complex if direction == "cohomology" else chain_complex
        cx = build(self.f, len(windows))
        terms = cx.verify_entries()
        cx.verify_d_squared_zero(terms)
        cx.assign_weights(self.ws)
        # both witnesses read the windows from `lowest_shift`: one that
        # starts too high drops a slice from both, which their verdict
        # cannot see, so each low edge is checked against the module
        for p, (m, (lo, _)) in enumerate(zip(cx.modules, windows)):
            if lo != min(m.shifts):
                raise AssertionError(
                    "degree %d: the scan window starts at weight %d, not at "
                    "the lowest shift %d" % (p, lo, min(m.shifts)))
        # degree q is read on its own window and, as the far end of a
        # differential, on its neighbours' windows
        spans = []
        for q in range(len(cx.modules)):
            near = windows[max(q - 1, 0):q + 2]
            spans.append((min(lo for lo, _ in near),
                          max(hi for _, hi in near)))
        # the scan asks for A at s - t, s in a window and t a shift, so
        # at weights up to `top`, and every image M_i(u) lies at some
        # s - t' for a codomain shift t': one staircase walk through
        # `top` fills every basis, and dim A is read from it once
        top = max(hi - min(m.shifts) for m, (_, hi) in zip(cx.modules, spans))
        self.A.basis(top)
        dims = list(map(len, self.A.bases[:top + 1]))
        # a term of d_i f joins shift t to shift t - (d - w_i), and every
        # slice lies inside its codomain's span, so each M_i(u) a slice
        # reads has u + d - w_i <= top: reduce them all, once per partial
        d = self.ws.degree
        for i, (g, w) in enumerate(zip(self.grad, self.ws.weights), 1):
            if not g.is_zero():
                self._reduce_maps(i, top - (d - w))
        # a total at s reads dims at s - t only, so it is a function of
        # s - lo, and a module whose shifts and span recur relative to
        # the span's low edge lo shares one totals column
        modules: dict = {}  # (shifts - lo, hi - lo) -> totals over lo..hi
        totals = []
        for m, (lo, hi) in zip(cx.modules, spans):
            key = (tuple(t - lo for t in m.shifts), hi - lo)
            if key not in modules:
                modules[key] = _module_totals(
                    dims, [(1, t) for t in m.shifts], lo, hi)
            totals.append((lo, modules[key]))
        differentials: dict = {}    # relative differential -> rank column
        ranks = []          # per differential: (a, rank at s = a..b)
        split: dict = {}    # scaled columns -> strand blocks, by index
        for k, columns in enumerate(terms):
            a = min(lo for lo, _ in windows[k:k + 2])
            b = max(hi for _, hi in windows[k:k + 2])
            src, tgt = cx.ends(k)
            dom, cod = cx.modules[src].shifts, cx.modules[tgt].shifts
            # dividing a column by its first k scales it and leaves every
            # rank unchanged; the rank at s reads dims and maps at s - t
            # only, so a differential whose scaled columns, domain shifts
            # less a and width b - a recur has the rank column of the first
            columns = tuple([col if not col or col[0][2] == 1 else
                             tuple([(r, i, exact_quotient(c, col[0][2]))
                                    for r, i, c in col]) for col in columns])
            key = (columns, tuple(t - a for t in dom), b - a)
            rank = differentials.get(key)
            if rank is not None:
                ranks.append((a, rank))
                continue
            rank = differentials[key] = [0] * (b - a + 1)
            ranks.append((a, rank))
            # the weights of an end's window where both ends' totals are
            # nonzero, read as their nonzero products (totals are >= 0):
            # a gap between the two windows lies below the upper one's
            # lowest shift, where its totals are 0
            (near_lo, near), (far_lo, far) = totals[k], totals[k + 1]
            todo = list(compress(range(a, b + 1), map(
                mul, near[a - near_lo:b - near_lo + 1],
                far[a - far_lo:b - far_lo + 1])))
            if not todo:
                continue
            # a block's components depend on the scaled columns alone:
            # found once per report as indices, read as shifts here
            if columns not in split:
                split[columns] = _strand_blocks(columns)
            summed = [0] * len(todo)
            for block, cs, rs in split[columns]:
                summed = list(map(add, summed, self._block_ranks(
                    block, tuple(map(dom.__getitem__, cs)),
                    tuple(map(cod.__getitem__, rs)), todo, dims)))
            for s, r in compress(zip(todo, summed), summed):
                rank[s - a] = r
        slices = []
        for p, ((lo, hi), (start, total)) in enumerate(zip(windows, totals)):
            column = total[lo - start:hi - start + 1]
            for a, rank in ranks[max(p - 1, 0):p + 1]:
                column = map(sub, column, rank[lo - a:hi - a + 1])
            column = list(column)
            slices.append(dict(compress(enumerate(column, lo), column)))
        return slices

    def _block_ranks(self, columns, dom: tuple, cod: tuple, todo: list,
                     dims: list) -> list:
        """The rank of a strand block's slice at each weight s of `todo`:
        `columns` holds the block's (row, i, k) terms per domain
        component, each column divided by its first k and rows numbered
        within the block, and `dom` and `cod` its domain and codomain
        component shifts.  The signature is those terms plus the domain
        shifts relative to the first, which fix `cod` (see `oracle_dim`);
        blocks of equal signature share one table in `self._tables`, of
        ranks by slice content.

        Slices are ranked from maps `oracle_dim` has reduced; this
        method reduces none.  A slice's content key holds the id of
        M_i(s - t) per domain component at shift t and (row, i, k) term,
        in column order, 0 (the empty map) where s < t: one id column
        per (component, term), zipped.  A known key gives the rank; a
        new key's slice is assembled sparse from the interned maps, one
        column per domain monomial with a nonempty image, ranked and
        stored.  Rows are numbered by codomain component, the one at
        shift t taking dims[s - t] rows from its offset: a row is that
        offset plus an image position.  Each component's (row, k) terms
        are read once per call and the offsets once per slice.  A
        component of one term has k = 1, so where its codomain
        component's offset is 0 each nonempty image is copied as its
        column; every other component sums its images times their k,
        moved by their offsets, per monomial.  A slice with an empty
        domain reads only empty maps and has no columns, so it is rank 0
        with no elimination."""
        base = dom[0]
        contents = self._tables.setdefault(
            (columns, tuple(t - base for t in dom)), {})
        maps = self._maps
        keys = zip(*[[maps[i - 1][s - t] if s >= t else 0 for s in todo]
                     for t, terms in zip(dom, columns)
                     for _, i, _ in terms])
        interned = self._interned
        # per domain component, its (row, k) terms, read once per call
        components = [[(r, k) for r, _, k in terms] for terms in columns]
        ranks = []
        for s, key in zip(todo, keys):
            rank = contents.get(key)
            if rank is None:
                offsets, end = [], 0
                for t in cod:
                    offsets.append(end)
                    if s >= t:
                        end += dims[s - t]
                cols = []
                ids = iter(key)
                for rows in components:
                    if len(rows) == 1 and not offsets[rows[0][0]]:
                        # one term (k is 1) at offset 0: each nonempty
                        # image is its column as it stands
                        cols += map(dict, filter(None, interned[next(ids)]))
                    else:
                        rows = [(offsets[r], k) for r, k in rows]
                        for images in zip(*[interned[next(ids)]
                                            for _ in rows]):
                            col = {offset + pos: k * v
                                   for (offset, k), image in zip(rows, images)
                                   for pos, v in image}
                            if col:
                                cols.append(col)
                rank = contents[key] = rank_sparse(cols) if cols else 0
            ranks.append(rank)
        return ranks


def _strand_blocks(columns) -> list:
    """The strand blocks of a differential given as columns of
    (row, i, k) terms, one column per domain component: the connected
    pieces of the graph joining each domain component to the codomain
    components its terms hit.  Returns (columns, domain components,
    codomain components) per block, components as indices, ordered by
    first domain component, each column's rows renumbered by position
    among the block's codomain components.  A zero column and a
    codomain component no column hits add nothing to any rank and
    belong to no block."""
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
        blocks.append((tuple(tuple((local[r], i, k) for r, i, k in columns[c])
                             for c in cs), tuple(cs), tuple(rs)))
    return blocks


def _positions(monos, o, position):
    """The position of z^(m + o) in its weight's basis for each
    monomial m of `monos`, None where the index has none, as an
    iterator.  The monomials are read as one exponent column per
    variable, and each column is shifted whole."""
    return map(position.get, zip(*[map(add, c, repeat(x)) if x else c
                                   for c, x in zip(zip(*monos), o)]))


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


def _graded(weights, monomials) -> Counter:
    """{t: number of monomials of weight t}, keys in order of first
    occurrence, the weights summed one exponent column at a time."""
    degrees = repeat(0, len(monomials))
    for w, column in zip(weights, zip(*monomials)):
        degrees = map(add, degrees, map(mul, column, repeat(w)))
    return Counter(degrees)


def _degree(an: Analysis, route: Route, direction: str, p: int) -> tuple:
    """(structure, finite source, shift, free part) for degree p.

    structure is the report's label, which names the degree's form,
    with %d where the finite dimension goes; finite source is "milnor",
    "kj" or None, placed at weight shift; the free part is a tuple of
    (sign, t) pairs standing for sum sign * dim A_(s - t).

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
        return ("A", None, None, ((1, 0),))
    if direction == "cohomology":
        source, shift = ("kj", d - w_s) if p % 2 else ("milnor", 0)
        if p >= n:
            return ("C^%d", source, shift, ())
        free = tuple(((-1) ** (k - p - 1), sum(d - wi for wi in S))
                     for k in range(p + 1, n + 1)
                     for S in combinations(w, k))
        if p == n - 1:
            return ("A + C^%d", source, shift, free)
        return ("(grad f ^ A^3) + C^%d", source, shift, free)
    if p < n:
        free = tuple(((-1) ** (p - k), (p - k) * d + sum(S))
                     for k in range(p + 1) for S in combinations(w, k))
        structure = ("A^2/(A grad f)" if (p, n) == (1, 2)
                     else "grad f ^ A^3" if (p, n) == (1, 3)
                     else "A^3/(grad f ^ A^3)")
        return (structure, None, None, free)
    q, r = divmod(p - n, 2)
    if r == 0:
        return ("C^%d", "milnor", q * d + sum(w), ())
    return ("C^%d", "kj", (q + 1) * d + sum(w) - w_s, ())


def _classify(an: Analysis, direction: str, windows: list) -> list:
    """The classifier's prediction for each degree p of `windows`:
    (structure, finite dim, basis labels, top weight, {s: dim}),
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
        structure, source, shift, free = _degree(an, route, direction, p)
        finite_dim = basis = top_weight = None
        finite: dict = {}
        if source is not None:
            if source not in parts:
                monomials = (an.milnor_basis if source == "milnor"
                             else route.basis)
                parts[source] = (len(monomials),
                                 _graded(an.ws.weights, monomials),
                                 monomial_strs(monomials))
            finite_dim, graded, basis = parts[source]
            finite = {t + shift: dim for t, dim in graded.items()}
            top_weight = max(finite, default=None)
            structure %= finite_dim
        elif p == 0:
            finite_dim = 0
        column = _module_totals(dims, free, lo, hi)
        for s, dim in finite.items():
            if lo <= s <= hi:
                column[s - lo] += dim
        expected = dict(compress(enumerate(column, lo), column))
        classes.append((structure, finite_dim, basis, top_weight, expected))
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
    precondition failure becomes a note, the only kind of note.  A scan
    window that reaches past weight MAX_STANDARD_MONOMIALS, or windows
    that would hold more (degree, weight) slices than that, raise
    `ideals.WalkLimitError` before any window is listed: the top weight
    is read from the at most n + 4 windows of `_top_degrees`.
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
    limit = ideals.MAX_STANDARD_MONOMIALS
    tops = {p: _window(an, direction, p, cutoff)
            for p in _top_degrees(an.n, p_max)}
    top = max(hi for _, hi in tops.values())
    if top > limit:
        raise ideals.WalkLimitError(
            "the scan window reaches weight %d, above the limit of %d"
            % (top, limit))
    slices = (p_max + 1) * (cutoff + 1)
    if slices > limit:
        raise ideals.WalkLimitError(
            "the report would list %d (degree, weight) slices, above the "
            "limit of %d" % (slices, limit))
    windows = [tops.get(p) or _window(an, direction, p, cutoff)
               for p in range(p_max + 1)]
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

    rows = zip(windows, classes or [(None,) * 5] * len(windows),
               oracle or [None] * len(windows))
    degrees = [DegreeReport(p, *found, window, expected, graded)
               for p, (window, (*found, expected), graded) in enumerate(rows)]
    crosscheck = ("skipped" if classes is None or oracle is None
                  else "agree" if [c[-1] for c in classes] == oracle
                  else "disagree")
    kernel = (kernel_description(an)
              if direction == "cohomology" and classes is not None else None)
    return Report(f, direction, an.ws, an.milnor, degrees, kernel,
                  crosscheck, notes)


def _window(an: Analysis, direction: str, p: int, cutoff: int) -> tuple:
    lo = lowest_shift("cochain" if direction == "cohomology" else "chain",
                      an.ws, p)
    return (lo, lo + cutoff)


def _top_degrees(n: int, p_max: int) -> set:
    """At most n + 4 of the degrees 0..p_max, among them one whose
    window reaches highest in either direction.  For p >= n,
    `lowest_shift` depends on p only through its parity on the cochain
    side, and grows by d every two degrees on the chain side, so past
    n + 1 only p_max - 1 and p_max can be highest."""
    return {*range(min(p_max, n + 1) + 1), max(p_max - 1, 0), p_max}


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
