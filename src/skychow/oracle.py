"""Brute-force graded quotient arithmetic over the integers.

This module is the independent check on the rewrite engine: it never looks
at proximity data or canonical forms, only at a list of homogeneous
generators.  Each graded slice of the ideal is materialized as an integer
row lattice.  Every row, a generator times a complementary monomial, goes
through add_row (a repeat reduces to zero there), which keeps the lattice
in reduced row echelon form over Z, i.e. column-style Hermite normal form,
after every row: a new or changed pivot row is reduced, and so is each
row above it with an entry in the pivot's column, so entries stay small.
Membership, canonical coset representatives, quotient ranks, torsion and
minimal generator counts all come out of that lattice by exact arithmetic.

Slices are built in ascending degree.  A built slice whose Hermite form
has a row that is the single entry 1 puts that row's monomial in the
ideal; the monomial is then dead: every proper multiple of it is a unit
vector of its own slice's lattice, so the lattice splits off those columns
and nothing is lost by dropping them (the row selection of F4's symbolic
preprocessing, Faugere 1999, without any Groebner step).  A slice's
columns are therefore the monomials of its degree with no dead proper
divisor, listed largest-first in the global graded lex order, so the
pivots eat the large monomials and the surviving representatives are
supported on the small ones.  The Hermite form on those columns is the
full one restricted, and membership, representatives, ranks and torsion
are those of the full slice.  A generator's terms that are dead in its
own degree drop out of every multiple of it, so its live terms are
recorded once, when that degree is published; the slices above fold its
multiples from them, and a generator with no live term enters none.

When every pivot of a slice is 1, its fully reduced rows are zero on every
pivot column but their own, so reduction is a linear map read off the rows
(F4's normal form as one product with a reduced echelon matrix): the slice
stores each column's image, and a query sums the images of its terms in
the scan that finds their columns.  Other slices reduce a fresh vector
against the rows.  Either way a published slice is never mutated.

Queries take a term dict: _slice_vector finds a query's slice and its
representative's vector, and _reduce_terms returns that as a term dict.
These cores trust their callers, as Polynomial._of does: every term is of
the ideal's length and of one degree in the materialized range, and any
term missing from the slice is dead.  membership, reduce and
rational_membership check a Polynomial once (_check_query) and wrap the
cores, so a caller comparing many term dicts that are valid by
construction builds no Polynomial and runs no check per query.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd
from operator import itemgetter, mul

from .poly import Polynomial, _checked_weights


def _xgcd(a, b):
    """(x, y, g) with a*x + b*y == g == gcd(a, b), g > 0 for nonzero input."""
    x0, y0, r0 = 1, 0, a
    x1, y1, r1 = 0, 1, b
    while r1:
        q = r0 // r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
        r0, r1 = r1, r0 - q * r1
    if r0 < 0:
        return -x0, -y0, -r0
    return x0, y0, r0


class HermiteLattice:
    """A sublattice of Z^width held in Hermite normal form.

    Vectors are {column: entry} dicts with columns in 0..width-1.  Each row
    is stored that way without zeros, and every elimination step walks only
    nonzero columns, in ascending order.  The rows are in row echelon form
    with positive pivots, and every entry above a pivot lies in [0, pivot):
    add_row restores that form before it returns, so there is one state,
    and queries on a published slice only read it.
    """

    __slots__ = ("width", "pivot_cols", "_rows", "_pivots")

    def __init__(self, width):
        self.width = width
        self.pivot_cols = []
        self._rows = []  # sparse rows in pivot_cols order
        self._pivots = {}  # pivot column -> its row

    @property
    def rank(self):
        return len(self._rows)

    @property
    def rows(self):
        """The rows as fresh dense lists."""
        dense = []
        for row in self._rows:
            out = [0] * self.width
            for t, c in row.items():
                out[t] = c
            dense.append(out)
        return dense

    def pivot_values(self):
        return [row[c] for row, c in zip(self._rows, self.pivot_cols)]

    def copy(self):
        other = HermiteLattice(self.width)
        other.pivot_cols = list(self.pivot_cols)
        other._rows = [dict(row) for row in self._rows]
        other._pivots = dict(zip(other.pivot_cols, other._rows))
        return other

    def _sparse(self, vec, what):
        """A fresh zero-free copy of vec, its columns checked against the width."""
        v = {t: c for t, c in vec.items() if c}
        if v and not (0 <= min(v) and max(v) < self.width):
            raise ValueError("%s has a column outside 0..%d" % (what, self.width - 1))
        return v

    def add_row(self, vec):
        """Fold a vector into the lattice, keeping Hermite form; True if the
        rank grew."""
        vec = self._sparse(vec, "row")
        pivots = self._pivots
        heap = sorted(vec)  # a sorted list is already a heap
        while heap:
            j = heappop(heap)
            vj = vec.get(j)
            if vj is None:
                continue  # cancelled since it was pushed
            row = pivots.get(j)
            if row is None:
                if vj < 0:
                    vec = {t: -c for t, c in vec.items()}
                pos = bisect_left(self.pivot_cols, j)
                self.pivot_cols.insert(pos, j)
                self._rows.insert(pos, vec)
                pivots[j] = vec
                self._settle(j, vec, pos)
                return True
            a = row[j]
            if vj % a == 0:
                _axpy(vec, -(vj // a), row, heap, None)
            else:
                # replace (row, vec) by (x*row + y*vec, ag*vec - bg*row):
                # a unimodular step that leaves gcd(a, vj) at column j of row
                x, y, g = _xgcd(a, vj)
                ag, bg = a // g, vj // g
                for t in row.keys() | vec.keys():
                    rt, vt = row.get(t, 0), vec.get(t, 0)
                    _put(row, t, x * rt + y * vt)
                    if not vt:
                        heappush(heap, t)
                    _put(vec, t, ag * vt - bg * rt)
                self._settle(j, row, bisect_left(self.pivot_cols, j))
        return False

    def _settle(self, j, row, pos):
        """Restore Hermite form after the row at pivot column j, position
        pos, is new or changed (Kannan & Bachem 1979): reduce it right of j,
        then each row above it that has an entry in column j, from j on.
        Each reduction reads only the echelon pivots, so the order is free.
        """
        if len(row) > 1:  # a single entry is its pivot
            self._reduce_in_place(row, j + 1)
        p = row[j]
        for rk in self._rows[:pos]:
            if rk.get(j, 0) // p:  # outside [0, p); the rest of rk is reduced
                self._reduce_in_place(rk, j)

    def _reduce_in_place(self, v, lo):
        """Reduce v at each of its pivot columns from lo on, and at any that
        fills in; return v.

        Columns are visited in ascending order, so each pivot's entry ends
        in [0, pivot) and later subtractions cannot disturb it.
        """
        pivots = self._pivots
        heap = [t for t in v if t >= lo and t in pivots]
        heapify(heap)
        while heap:
            j = heappop(heap)
            vj = v.get(j)
            if vj is None:
                continue
            row = pivots[j]
            q = vj // row[j]
            if q:
                _axpy(v, -q, row, heap, pivots)
        return v

    def reduce_vector(self, vec):
        """Canonical coset representative of vec modulo the lattice, zero-free."""
        return self._reduce_in_place(self._sparse(vec, "vector"), 0)

    def unit_pivot_images(self):
        """Each column's canonical representative, or None unless every pivot is 1.

        A fully reduced row with pivot 1 is zero on every other pivot
        column, so reduce_vector is then linear: a free column t maps to
        {t: 1} and a pivot column p to minus row p without its pivot entry.
        Images are tuples of (column, entry) pairs; the rows are only read.
        """
        images = [((t, 1),) for t in range(self.width)]
        for p, row in self._pivots.items():
            if row[p] != 1:
                return None
            images[p] = tuple([(u, -c) for u, c in row.items() if u != p])
        return tuple(images)

    def elementary_divisors(self):
        """Smith normal form divisors of the row matrix (rank many, positive).

        Alternating Hermite forms (Kannan & Bachem 1979): the columns of the
        rows span the transpose, whose Hermite form has the same divisors.
        Each pass folds them into a fresh lattice, which add_row keeps in
        Hermite form, until every row has one entry.  The lattice itself is
        only read.
        """
        if all(p == 1 for p in self.pivot_values()):
            # unit pivots: the rows extend to a basis of Z^width
            return [1] * self.rank
        rows = self._rows
        while any(len(row) > 1 for row in rows):
            columns = {}
            for k, row in enumerate(rows):
                for t, c in row.items():
                    columns.setdefault(t, {})[k] = c
            lat = HermiteLattice(len(rows))
            for t in sorted(columns):
                lat.add_row(columns[t])
            rows = lat._rows
        divisors = [c for row in rows for c in row.values()]
        # enforce the divisibility chain d_1 | d_2 | ...
        for i in range(len(divisors)):
            for j in range(i + 1, len(divisors)):
                a, b = divisors[i], divisors[j]
                if b % a:
                    g = gcd(a, b)
                    divisors[i], divisors[j] = g, a * b // g
        return divisors


def _put(v, t, c):
    """Set entry t of a sparse vector, keeping it free of zeros."""
    if c:
        v[t] = c
    else:
        v.pop(t, None)


def _axpy(v, q, row, heap, watch):
    """v += q * row in place; columns that turn nonzero in v are pushed on
    heap, all of them when watch is None, else only those in watch."""
    for t, rt in row.items():
        vt = v.get(t)
        if vt is None:
            v[t] = q * rt
            if watch is None or t in watch:
                heappush(heap, t)
        else:
            vt += q * rt
            if vt:
                v[t] = vt
            else:
                del v[t]


@dataclass(frozen=True)
class GradedPiece:
    """One degree slice: its columns (largest first) and the ideal lattice.

    The columns are the slice's monomials with no dead proper divisor (one
    whose row in its own slice is the single entry 1); every other monomial
    of the degree is a dead column, whose unit vector the full lattice
    holds, so it is left out.
    new_generators is rank(I_d) - rank((m*I)_d) with m the irrelevant ideal:
    how many of the degree-d generators a minimal generating set needs.
    images is set when every pivot of the lattice is 1: then reduction is
    the linear map that sends column t to images[t], a tuple of (column,
    coefficient) pairs read off the Hermite rows.  It is None otherwise,
    and queries reduce a fresh vector against the rows.  Neither route
    mutates the lattice, the index or the images.
    """

    degree: int
    monomials: tuple
    index: dict
    lattice: HermiteLattice
    new_generators: int
    images: tuple | None = None


class QuotientSlice(namedtuple("QuotientSlice", ("degree", "rank", "torsion"))):
    """Free rank and torsion divisors (each > 1) of one graded quotient slice."""

    __slots__ = ()

    @property
    def torsion_free(self):
        return not self.torsion


class GradedIdeal:
    """A homogeneous ideal of Z[v_0..v_{nvars-1}] with slices built on demand.

    Generators must be homogeneous under the (optionally weighted) grading
    and of degree at most max_degree; slices above max_degree are not
    materialized and querying them raises.  piece(d) builds every missing
    slice up to d in ascending degree: each slice's columns grow from the
    live columns of the slices below, those whose Hermite row is not the
    single entry 1.  Slice construction is guarded by a lock so concurrent
    readers share one build; a slice is published only once it is built,
    and its lattice is in Hermite form after every row, so a lookup of a
    published slice takes no lock.
    """

    def __init__(self, nvars, generators, max_degree, weights=None):
        weights = _checked_weights(nvars, weights)
        kept = []  # (degree, generator)
        for g in generators:
            if g.nvars != nvars:
                raise ValueError("generator has %d variables, expected %d" % (g.nvars, nvars))
            if g.is_zero():
                continue
            d = g.homogeneous_degree(weights)
            if d > max_degree:
                raise ValueError(
                    "generator of degree %d exceeds max_degree %d" % (d, max_degree)
                )
            kept.append((d, g))
        # Ascending degree, stable: a slice then folds every proper multiple
        # before the rows of its own degree's generators.
        kept.sort(key=itemgetter(0))
        self.nvars = nvars
        self.generators = tuple(g for _, g in kept)
        self._degrees = tuple(d for d, _ in kept)  # homogeneous degree of each generator
        self.max_degree = int(max_degree)
        self.weights = weights
        # A monomial of degree at most max_degree has no exponent above it, so
        # with base max_degree + 1 the digits never carry: key(a*b) is
        # key(a) + key(b), and keys order like the global monomial order.
        base = max(self.max_degree, 0) + 1
        self._powers = tuple(base**i for i in range(nvars))
        powers = self._powers
        self._terms = tuple(
            tuple((sum(map(mul, exps, powers)), coef) for exps, coef in g.terms.items())
            for g in self.generators
        )
        self._standard = {}  # degree -> its live columns {key: (exps, support)}
        # (live terms, degree) of each generator with a live term in its own
        # degree, in generator order, recorded as that degree is published
        self._live = []
        self._pieces = {}
        self._lock = threading.Lock()

    def _columns_of(self, d):
        """The degree-d columns, largest first, as (key, exps, support) with
        support the ascending indices of the nonzero exponents.

        Every proper divisor of a column is live, so the live monomials form
        an order ideal: every column but 1 is m*x_i with m live in degree
        d - w_i and i its largest variable, and the candidate is kept when
        dividing out each other variable of its support also lands on a live
        monomial.  The slices below d must be built.
        """
        if d == 0:
            return [(0, (0,) * self.nvars, ())]
        powers, weights = self._powers, self.weights
        lower = {w: self._standard[d - w] for w in set(weights) if w <= d}
        cols = []
        for i, w in enumerate(weights):
            below = lower.get(w)
            if not below:
                continue
            step = powers[i]
            for key, (exps, support) in below.items():
                top = support[-1] if support else -1
                if top > i:
                    continue
                k = key + step
                for j in support:
                    if j != i and k - powers[j] not in lower[weights[j]]:
                        break
                else:
                    e = list(exps)
                    e[i] += 1
                    cols.append((k, tuple(e), support if top == i else support + (i,)))
        cols.sort(reverse=True)  # keys are distinct: the global order
        return cols

    def _build_piece(self, d):
        cols = self._columns_of(d)
        column = {key: pos for pos, (key, _, _) in enumerate(cols)}
        monos = tuple(exps for _, exps, _ in cols)
        lat = HermiteLattice(len(cols))
        standard = self._standard
        # The full lattice holds the unit vector of every dead column, so it
        # splits as Z^dead + (its projection onto the columns): a row is g*m
        # with its dead terms dropped, and a row with no column left is
        # skipped.  A multiple of a dead monomial is dead, so a term of g*m
        # is a column only if m is live in degree r and, for r > 0, the
        # term of g is live in g's own degree: a generator enters the
        # slices above its degree with the live terms recorded when its
        # degree was published, and one with none enters none of them.
        # Every other row goes through add_row: a repeat of an earlier row
        # already lies in the lattice, so it reduces to zero and adds nothing.
        # Generators ascend in degree, so the rows of degree-d generators
        # (r == 0) come after every proper multiple; the ones that raise the
        # rank are rank(I_d) - rank((m*I)_d).  Multipliers go smallest
        # first, so a new pivot tends to land above the rows folded so far,
        # and fewer rows above it need repair.
        own = [terms for terms, dg in zip(self._terms, self._degrees) if dg == d]
        new = 0
        for terms, dg in self._live + [(terms, d) for terms in own]:
            r = d - dg
            for k in reversed(standard[r] if r < d else column):
                row = {}
                for key, coef in terms:
                    pos = column.get(key + k)
                    if pos is not None:
                        row[pos] = coef
                if row and lat.add_row(row) and not r:
                    new += 1
        # a row that is the single entry 1 puts its monomial in the ideal
        dead = {cols[p][0] for p, row in lat._pivots.items() if len(row) == 1 and row[p] == 1}
        live = standard[d] = {key: (exps, sup) for key, exps, sup in cols if key not in dead}
        for terms in own:
            terms = [t for t in terms if t[0] in live]
            if terms:
                self._live.append((terms, d))
        images = lat.unit_pivot_images()
        index = {m: i for i, m in enumerate(monos)}
        return GradedPiece(d, monos, index, lat, new, images)

    def piece(self, d):
        if not 0 <= d <= self.max_degree:
            raise ValueError(
                "degree %d outside the materialized range 0..%d" % (d, self.max_degree)
            )
        piece = self._pieces.get(d)  # a published slice is complete and final
        if piece is None:
            with self._lock:
                # slices are built in ascending degree, so 0..len-1 exist
                pieces = self._pieces
                for k in range(len(pieces), d + 1):
                    pieces[k] = self._build_piece(k)
                piece = pieces[d]
        return piece


def _check_query(ideal: GradedIdeal, p: Polynomial) -> None:
    """Raise unless a nonzero polynomial is a query the cores take, checking
    in this order: it is homogeneous under the ideal's weights, its degree
    lies in the materialized range, and each term has the ideal's length.
    The public queries run it once, before their core."""
    d = p.homogeneous_degree(ideal.weights)
    ideal.piece(d)
    nvars = ideal.nvars
    for exps in p.terms:
        if len(exps) != nvars:
            raise ValueError("monomial %r does not have degree %d" % (exps, d))


def _slice_vector(ideal: GradedIdeal, terms: dict):
    """The slice holding a nonzero term dict, and a fresh sparse vector of
    the terms' canonical representative in it, whose entries may be zero
    where images cancel.

    The core trusts its caller: the terms are homogeneous, of a degree in
    the materialized range, and each of the ideal's length, as _check_query
    checks.  The degree is read off the first term, and a term missing from
    that slice's index is dead: it lies in the ideal and is dropped.  On a
    slice with images the representative is summed from the images of the
    terms in that same scan; on any other slice the terms' vector is
    reduced against the rows.
    """
    piece = ideal.piece(sum(map(mul, next(iter(terms)), ideal.weights)))
    index = piece.index
    images = piece.images
    v = {}
    for exps, coef in terms.items():
        pos = index.get(exps)
        if pos is None:
            continue  # dead
        if images is None:
            v[pos] = coef
        else:
            for t, c in images[pos]:
                v[t] = v.get(t, 0) + coef * c
    if images is None:
        piece.lattice._reduce_in_place(v, 0)
    return piece, v


def _reduce_terms(ideal: GradedIdeal, terms: dict) -> dict:
    """reduce's core: the term dict of the canonical representative of a
    term dict, {} for {}; the query's dict is only read, and trusted as
    _slice_vector trusts it."""
    if not terms:
        return {}
    piece, v = _slice_vector(ideal, terms)
    monos = piece.monomials
    return {monos[t]: c for t, c in v.items() if c}


def membership(ideal: GradedIdeal, p: Polynomial) -> bool:
    """Exact test p in ideal, for homogeneous p of degree <= max_degree."""
    if not p.terms:
        return True
    _check_query(ideal, p)
    return not any(_slice_vector(ideal, p.terms)[1].values())


def reduce(ideal: GradedIdeal, p: Polynomial) -> Polynomial:
    """Canonical coset representative of p modulo the ideal's slice lattice.

    Representatives are unique per coset, so reduce(p) == reduce(q) exactly
    when p - q lies in the ideal's degree slice.  A nonzero p is checked
    once; the result wraps the term dict _reduce_terms reads off the
    representative's vector.
    """
    if p.terms:
        _check_query(ideal, p)
    return Polynomial._of(ideal.nvars, _reduce_terms(ideal, p.terms))


def quotient_structure(ideal: GradedIdeal, d: int) -> QuotientSlice:
    """Free rank plus torsion divisors of (degree-d forms)/(ideal slice)."""
    piece = ideal.piece(d)
    rank = len(piece.monomials) - piece.lattice.rank
    torsion = tuple(e for e in piece.lattice.elementary_divisors() if e != 1)
    return QuotientSlice(d, rank, torsion)


def quotient_rank(ideal: GradedIdeal, d: int) -> int:
    """Free rank of (degree-d forms)/(ideal slice), read off the echelon form."""
    piece = ideal.piece(d)
    return len(piece.monomials) - piece.lattice.rank


def rational_membership(ideal: GradedIdeal, p: Polynomial) -> bool:
    """True when some nonzero integer multiple of p lies in the ideal slice:
    p's representative differs from p by a lattice vector, so folding it
    into a copy of the lattice raises the rank exactly when p would."""
    if p.is_zero():
        return True
    _check_query(ideal, p)
    piece, v = _slice_vector(ideal, p.terms)
    return not piece.lattice.copy().add_row(v)


def minimal_generator_count(ideal: GradedIdeal) -> dict:
    """Degrees and counts of a minimal homogeneous generating set.

    In degree d the count is rank(I_d) - rank((m*I)_d) with m the irrelevant
    ideal, which each slice records as it is built (new_generators).  It can
    be nonzero only in a degree that has generators, and every generator
    degree lies in the materialized range.  Only degrees with a nonzero
    count are reported.
    """
    counts = {}
    for d in dict.fromkeys(ideal._degrees):  # ascending, each once
        new = ideal.piece(d).new_generators
        if new:
            counts[d] = new
    return counts
