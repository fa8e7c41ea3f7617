"""Brute-force graded quotient arithmetic over the integers.

This module is the independent check on the rewrite engine: it never looks
at proximity data or canonical forms, only at a list of homogeneous
generators.  Each graded slice of the ideal is materialized as an integer
row lattice (generator times complementary monomial), kept in reduced row
echelon form over Z, i.e. column-style Hermite normal form.  Membership,
canonical coset representatives, quotient ranks, torsion and minimal
generator counts all come out of that lattice by exact arithmetic.

Columns are monomials of the slice's degree listed largest-first in the
global graded lex order, so the pivots eat the large monomials and the
surviving representatives are supported on the small ones.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add

from .poly import Polynomial, monomials_of_degree


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
    """A sublattice of Z^width held in row echelon form with positive pivots.

    Each row is stored sparse, as a {column: entry} dict without zeros, and
    every elimination step walks only nonzero columns, in ascending order.
    Rows are added one at a time; above-pivot reduction is deferred until a
    query needs the fully reduced (Hermite) form.  All mutation happens
    through add_row, queries never mutate.

    Vectors may be given dense, as a sequence of length width, or sparse,
    as a {column: entry} dict with columns in 0..width-1; reduce_vector
    answers in the form it was given.
    """

    __slots__ = ("width", "pivot_cols", "_rows", "_pivots", "_reduced")

    def __init__(self, width):
        self.width = width
        self.pivot_cols = []
        self._rows = []  # sparse rows in pivot_cols order
        self._pivots = {}  # pivot column -> its row
        self._reduced = True

    @property
    def rank(self):
        return len(self._rows)

    @property
    def rows(self):
        """The rows as fresh dense lists."""
        return [_dense(row, self.width) for row in self._rows]

    def pivot_values(self):
        return [row[c] for row, c in zip(self._rows, self.pivot_cols)]

    def copy(self):
        other = HermiteLattice(self.width)
        other.pivot_cols = list(self.pivot_cols)
        other._rows = [dict(row) for row in self._rows]
        other._pivots = dict(zip(other.pivot_cols, other._rows))
        other._reduced = self._reduced
        return other

    def _sparse(self, vec, what):
        """A fresh zero-free {column: entry} dict of either vector form."""
        if isinstance(vec, dict):
            v = {t: c for t, c in vec.items() if c}
            if v and not (0 <= min(v) and max(v) < self.width):
                raise ValueError("%s has a column outside 0..%d" % (what, self.width - 1))
            return v
        vec = list(vec)
        if len(vec) != self.width:
            raise ValueError("%s has length %d, expected %d" % (what, len(vec), self.width))
        return {t: c for t, c in enumerate(vec) if c}

    def add_row(self, vec):
        """Fold a vector into the lattice; True if the rank grew."""
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
                self._reduced = False
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
                self._reduced = False
        return False

    def _reduce_in_place(self, v, cols):
        """Reduce v at each pivot column among cols, and at any that fills in.

        Columns are visited in ascending order, so each pivot's entry ends
        in [0, pivot) and later subtractions cannot disturb it.
        """
        pivots = self._pivots
        heap = [t for t in cols if t in pivots]
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

    def _ensure_reduced(self):
        # Back-substitution: make every entry above a pivot lie in [0, pivot).
        if self._reduced:
            return
        rows, pcols = self._rows, self.pivot_cols
        for k in range(len(rows) - 2, -1, -1):
            rk, own = rows[k], pcols[k]
            self._reduce_in_place(rk, [t for t in rk if t != own])
        self._reduced = True

    def _residue(self, vec):
        v = self._sparse(vec, "vector")
        self._ensure_reduced()
        self._reduce_in_place(v, list(v))
        return v

    def reduce_vector(self, vec):
        """Canonical coset representative of vec modulo the lattice."""
        v = self._residue(vec)
        return v if isinstance(vec, dict) else _dense(v, self.width)

    def contains(self, vec):
        return not self._residue(vec)

    def elementary_divisors(self):
        """Smith normal form divisors of the row matrix (rank many, positive)."""
        if all(p == 1 for p in self.pivot_values()):
            # unit pivots: the rows extend to a basis of Z^width
            return [1] * self.rank
        return _smith_divisors(self.rows, self.width)


def _dense(row, width):
    out = [0] * width
    for t, c in row.items():
        out[t] = c
    return out


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


def _smith_divisors(m, ncols):
    nr = len(m)
    divisors = []
    k = 0
    while k < nr and k < ncols:
        best = None
        for i in range(k, nr):
            row = m[i]
            for j in range(k, ncols):
                v = row[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, i0, j0 = best
        m[k], m[i0] = m[i0], m[k]
        if j0 != k:
            for row in m:
                row[k], row[j0] = row[j0], row[k]
        done = False
        while not done:
            done = True
            piv = m[k][k]
            for i in range(k + 1, nr):
                v = m[i][k]
                if v:
                    q = v // piv
                    if q:
                        mi, mk = m[i], m[k]
                        for t in range(k, ncols):
                            mi[t] -= q * mk[t]
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        done = False
                        piv = m[k][k]
            for j in range(k + 1, ncols):
                v = m[k][j]
                if v:
                    q = v // piv
                    if q:
                        for row in m:
                            row[j] -= q * row[k]
                    if m[k][j]:
                        for row in m:
                            row[k], row[j] = row[j], row[k]
                        done = False
                        piv = m[k][k]
        divisors.append(abs(m[k][k]))
        k += 1
    # enforce the divisibility chain d_1 | d_2 | ...
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            a, b = divisors[i], divisors[j]
            if b % a:
                g = gcd(a, b)
                divisors[i], divisors[j] = g, a * b // g
    return divisors


@dataclass(frozen=True)
class GradedPiece:
    """One degree slice: its monomials (largest first) and the ideal lattice."""

    degree: int
    monomials: tuple
    index: dict
    lattice: HermiteLattice

    def vector_of(self, p):
        """The sparse {column: coefficient} vector of a polynomial of this degree."""
        v = {}
        for exps, coef in p.terms.items():
            pos = self.index.get(exps)
            if pos is None:
                raise ValueError(
                    "monomial %r does not have degree %d" % (exps, self.degree)
                )
            v[pos] = coef
        return v

    def polynomial_of(self, vec, nvars):
        """The polynomial of a sparse vector, inverse to vector_of."""
        monos = self.monomials
        return Polynomial._of(nvars, {monos[pos]: coef for pos, coef in vec.items() if coef})


@dataclass(frozen=True)
class QuotientSlice:
    """Free rank and torsion divisors (each > 1) of one graded quotient slice."""

    degree: int
    rank: int
    torsion: tuple

    @property
    def torsion_free(self):
        return not self.torsion


class GradedIdeal:
    """A homogeneous ideal of Z[v_0..v_{nvars-1}] with slices built on demand.

    Generators must be homogeneous under the (optionally weighted) grading
    and of degree at most max_degree; slices above max_degree are not
    materialized and querying them raises.  Slice construction is guarded
    by a lock so concurrent readers share one build.
    """

    def __init__(self, nvars, generators, max_degree, weights=None):
        if weights is None:
            weights = (1,) * nvars
        weights = tuple(int(w) for w in weights)
        if len(weights) != nvars or any(w < 1 for w in weights):
            raise ValueError("weights must be %d positive integers" % nvars)
        gens, degrees = [], []
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
            gens.append(g)
            degrees.append(d)
        self.nvars = nvars
        self.generators = tuple(gens)
        self._degrees = tuple(degrees)  # homogeneous degree of each generator
        self.max_degree = int(max_degree)
        self.weights = weights
        self._pieces = {}
        self._lock = threading.Lock()

    def _build_piece(self, d, proper_multiples_only):
        monos = monomials_of_degree(self.nvars, d, self.weights)
        index = {m: i for i, m in enumerate(monos)}
        lat = HermiteLattice(len(monos))
        piece = GradedPiece(d, tuple(monos), index, lat)
        low = 1 if proper_multiples_only else 0
        multipliers = {}  # degree r -> the monomials of degree r
        # A row equal to an earlier one already lies in the lattice, and
        # folding a lattice vector changes nothing.  Monomial generators
        # repeat single-entry rows (x_i x_j times m meets x_i x_k times m'),
        # so each distinct (column, coefficient) single is folded once.
        singles = set()
        for g, dg in zip(self.generators, self._degrees):
            r = d - dg
            if r < low:
                continue
            shifts = multipliers.get(r)
            if shifts is None:
                shifts = multipliers[r] = monomials_of_degree(self.nvars, r, self.weights)
            terms = g.terms.items()
            if len(terms) == 1:
                ((exps, coef),) = terms
                for m in shifts:
                    single = (index[tuple(map(add, exps, m))], coef)
                    if single not in singles:
                        singles.add(single)
                        lat.add_row(dict((single,)))
                continue
            for m in shifts:
                # shifting by m is injective, so g*m has one entry per term
                lat.add_row({index[tuple(map(add, exps, m))]: coef for exps, coef in terms})
        return piece

    def piece(self, d, proper_multiples_only=False):
        if not 0 <= d <= self.max_degree:
            raise ValueError(
                "degree %d outside the materialized range 0..%d" % (d, self.max_degree)
            )
        key = (d, proper_multiples_only)
        with self._lock:
            piece = self._pieces.get(key)
            if piece is None:
                piece = self._build_piece(d, proper_multiples_only)
                self._pieces[key] = piece
        return piece


def membership(ideal: GradedIdeal, p: Polynomial) -> bool:
    """Exact test p in ideal, for homogeneous p of degree <= max_degree."""
    if p.is_zero():
        return True
    d = p.homogeneous_degree(ideal.weights)
    piece = ideal.piece(d)
    return piece.lattice.contains(piece.vector_of(p))


def reduce(ideal: GradedIdeal, p: Polynomial) -> Polynomial:
    """Canonical coset representative of p modulo the ideal's slice lattice.

    Representatives are unique per coset, so reduce(p) == reduce(q) exactly
    when p - q lies in the ideal's degree slice.
    """
    if p.is_zero():
        return Polynomial.zero(ideal.nvars)
    d = p.homogeneous_degree(ideal.weights)
    piece = ideal.piece(d)
    residue = piece.lattice.reduce_vector(piece.vector_of(p))
    return piece.polynomial_of(residue, ideal.nvars)


def quotient_structure(ideal: GradedIdeal, d: int) -> QuotientSlice:
    """Free rank plus torsion divisors of (degree-d forms)/(ideal slice)."""
    piece = ideal.piece(d)
    rank = len(piece.monomials) - piece.lattice.rank
    torsion = tuple(e for e in piece.lattice.elementary_divisors() if e != 1)
    return QuotientSlice(d, rank, torsion)


def quotient_rank(ideal: GradedIdeal, d: int) -> int:
    return quotient_structure(ideal, d).rank


def rational_membership(ideal: GradedIdeal, p: Polynomial) -> bool:
    """True when some nonzero integer multiple of p lies in the ideal slice."""
    if p.is_zero():
        return True
    d = p.homogeneous_degree(ideal.weights)
    piece = ideal.piece(d)
    probe = piece.lattice.copy()
    return not probe.add_row(piece.vector_of(p))


def minimal_generator_count(ideal: GradedIdeal) -> dict:
    """Degrees and counts of a minimal homogeneous generating set.

    In degree d the count is rank(I_d) - rank((m*I)_d) with m the irrelevant
    ideal; nothing new can appear above the top generator degree, so the
    scan stops there.  Only degrees with a nonzero count are reported.
    """
    if not ideal.generators:
        return {}
    top = max(ideal._degrees)
    if top > ideal.max_degree - 1:
        raise ValueError(
            "minimal generator counts need max_degree >= top generator degree + 1"
        )
    counts = {}
    for d in range(0, top + 1):
        full = ideal.piece(d).lattice.rank
        proper = ideal.piece(d, proper_multiples_only=True).lattice.rank
        if full - proper:
            counts[d] = full - proper
    return counts
