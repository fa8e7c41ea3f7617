"""Exact arithmetic in the Chow ring of projective 3-space blown up along a curve.

The ring has generators x0 (hyperplane pullback), x1 (the exceptional
divisor) and a weight-2 class w1, with integer parameters gamma (the
degree of the curve) and c1 (the degree of its normal bundle's first
Chern class).  The grading is weighted: deg x0 = deg x1 = 1, deg w1 = 2.
Additively the ring is spanned by {1; x0, x1; x0^2, w1; x0^3} and degree
4 vanishes up to possible finite torsion, which the checks report.

A ring element is an immutable named tuple: its parameters, then its six
coordinates over the basis.  A product of two elements is the rewrite of
their product as polynomials.  Two reduction routes are implemented: a
rewrite system driving every monomial to the canonical basis, and the
generic graded-lattice oracle on the defining ideal.  curve_ring_checks
compares them on all 22 monomials of weighted degree at most 4 and
classifies any difference as torsion (a class killed by an integer
multiple) or a genuine failure.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass
from operator import add, itemgetter

from . import oracle
from .poly import Polynomial, format_monomial, format_polynomial, format_terms
from .poly import monomial_key, monomials_of_degree

# public variable order and weights
CURVE_VARIABLES = ("x0", "x1", "w1")
CURVE_WEIGHTS = (1, 1, 2)
TOP_DEGREE = 3

# the basis monomials' public exponents, in coordinate order
_BASIS_EXPONENTS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 0, 0), (0, 0, 1), (3, 0, 0))
_BASIS_LABELS = tuple(format_monomial(e, CURVE_VARIABLES) or "1" for e in _BASIS_EXPONENTS)
# format_polynomial's term order on the basis (x0^3, x0^2, w1, x1, x0, 1):
# those monomials' texts, and the element fields that hold their coordinates
_by_print = sorted(range(6), key=lambda k: monomial_key(_BASIS_EXPONENTS[k]), reverse=True)
_PRINT_ORDER = tuple(format_monomial(_BASIS_EXPONENTS[k], CURVE_VARIABLES) for k in _by_print)
_print_coords = itemgetter(*(k + 1 for k in _by_print))


def _basis_terms(coords) -> dict:
    """The public-order term dict of six basis coordinates."""
    return {e: c for e, c in zip(_BASIS_EXPONENTS, coords) if c}


@dataclass(frozen=True)
class CurveRingParams:
    """gamma: curve degree (>= 1, degree 1 warned); c1: normal bundle degree."""

    gamma: int
    c1: int

    def __post_init__(self):
        # type, not isinstance: True is an int too
        if type(self.gamma) is not int or self.gamma < 1:
            raise ValueError("gamma must be a positive integer, got %r" % (self.gamma,))
        if type(self.c1) is not int:
            raise ValueError("c1 must be an integer, got %r" % (self.c1,))
        if self.gamma == 1:
            warnings.warn(
                "gamma=1 (a line) is below the usual range for this model; "
                "the arithmetic goes through unchanged",
                UserWarning,
                stacklevel=3,
            )


class CurveRingElement(
    namedtuple(
        "CurveRingElement",
        ("params", "unit", "x0", "x1", "x0_sq", "w1", "x0_cu"),
        defaults=(0, 0, 0, 0, 0, 0),
    )
):
    """Coordinates over the canonical basis {1; x0, x1; x0^2, w1; x0^3}."""

    __slots__ = ()

    def coords(self):
        return self[1:]

    def is_zero(self):
        return not any(self.coords())

    def to_polynomial(self) -> Polynomial:
        return Polynomial._of(3, _basis_terms(self.coords()))

    def __add__(self, other):
        if not isinstance(other, CurveRingElement):
            return NotImplemented
        if self.params != other.params:
            raise ValueError("elements belong to different parameter values")
        return CurveRingElement(self.params, *map(add, self.coords(), other.coords()))

    def __mul__(self, other):
        if isinstance(other, int):
            return CurveRingElement(self.params, *(c * other for c in self.coords()))
        if not isinstance(other, CurveRingElement):
            return NotImplemented
        if self.params != other.params:
            raise ValueError("elements belong to different parameter values")
        # curve_normal_form of the product, one pair of basis terms at a time
        acc = [self.params, 0, 0, 0, 0, 0, 0]
        for (a, b, c), x in zip(_BASIS_EXPONENTS, self.coords()):
            if x:
                for (d, e, f), y in zip(_BASIS_EXPONENTS, other.coords()):
                    if y:
                        _put(acc, a + d, b + e, c + f, x * y)
        return tuple.__new__(CurveRingElement, acc)

    __rmul__ = __mul__

    def __str__(self):
        return format_terms(
            (mono, c) for mono, c in zip(_PRINT_ORDER, _print_coords(self)) if c
        )


def curve_ideal_generators(params: CurveRingParams) -> tuple:
    """Defining relations in the public (x0, x1, w1) exponent order."""
    g, c1 = params.gamma, params.c1
    return (
        Polynomial(3, {(2, 1, 0): 1}),                       # x0^2 x1
        Polynomial(3, {(1, 1, 0): 1, (0, 0, 1): -g}),        # x0 x1 - gamma w1
        Polynomial(3, {(0, 2, 0): 1, (0, 0, 1): -c1, (2, 0, 0): g}),  # x1^2 - c1 w1 + gamma x0^2
        Polynomial(3, {(1, 0, 1): 1}),                       # x0 w1
        Polynomial(3, {(3, 0, 0): 1, (0, 1, 1): 1}),         # x0^3 + x1 w1
    )


# The oracle's global monomial order makes the LAST variable largest.  For
# the canonical basis to be exactly the non-pivot monomials we need x1 to
# outrank w1, so oracle-side exponent vectors use the order (x0, w1, x1).

def _swapped(terms: dict) -> dict:
    # swapping the last two exponents is an involution: this also maps back
    return {(a, c, b): k for (a, b, c), k in terms.items()}


def _to_oracle(p: Polynomial) -> Polynomial:
    return Polynomial._of(3, _swapped(p.terms))


def curve_ideal(params: CurveRingParams) -> oracle.GradedIdeal:
    """The defining ideal as a graded-lattice oracle (internal variable order),
    with slices up to one degree past the top, where everything dies."""
    gens = [_to_oracle(g) for g in curve_ideal_generators(params)]
    return oracle.GradedIdeal(3, gens, TOP_DEGREE + 1, weights=(1, 2, 1))


def _put(acc, a, b, c, coef):
    """Add coef * x0^a x1^b w1^c, rewritten, to acc = [params, six coordinates]."""
    if a + b + 2 * c > TOP_DEGREE:
        return
    if b >= 2:
        _put(acc, a, b - 2, c + 1, coef * acc[0].c1)
        _put(acc, a + 2, b - 2, c, -coef * acc[0].gamma)
    elif a >= 1 and b >= 1:
        _put(acc, a - 1, b - 1, c + 1, coef * acc[0].gamma)
    elif b >= 1 and c >= 1:
        _put(acc, a + 3, b - 1, c - 1, -coef)
    elif a >= 1 and c >= 1:
        return
    elif c >= 1:
        acc[5] += coef  # bare w1 (c == 1; larger c is over the degree cap)
    elif b == 1:
        acc[3] += coef
    elif a == 0:
        acc[1] += coef
    elif a == 1:
        acc[2] += coef
    elif a == 2:
        acc[4] += coef
    else:  # a == 3; higher pure powers are over the degree cap
        acc[6] += coef


def curve_normal_form(params: CurveRingParams, p: Polynomial) -> CurveRingElement:
    """Rewrite to the canonical basis.

    Monomial rules, applied to fixpoint: anything of weighted degree above
    3 dies; x1^2 -> c1*w1 - gamma*x0^2; x0*x1 -> gamma*w1; x1*w1 -> -x0^3;
    x0*w1 -> 0.  Every rule preserves the weighted degree and strictly
    drops the x1 count, so the process terminates.
    """
    if p.nvars != 3:
        raise ValueError("polynomial has %d variables, expected 3" % p.nvars)
    acc = [params, 0, 0, 0, 0, 0, 0]
    for (a, b, c), coef in p.terms.items():
        _put(acc, a, b, c, coef)
    return tuple.__new__(CurveRingElement, acc)


@dataclass(frozen=True)
class CurveCheckReport:
    """Outcome of the dual-route consistency run for one parameter value."""

    ranks: tuple
    expected_ranks: tuple
    torsion: dict
    torsion_resolved: tuple
    mismatches: tuple
    compared: int  # monomials whose two routes were compared

    @property
    def ranks_ok(self):
        return self.ranks == self.expected_ranks

    @property
    def routes_ok(self):
        """True when some monomial was compared and none mismatched."""
        return self.compared > 0 and not self.mismatches

    @property
    def passed(self):
        return self.ranks_ok and self.routes_ok

    def summary_lines(self):
        lines = []
        lines.append(
            "%s ranks by degree %s (expected %s)"
            % ("PASS" if self.ranks_ok else "FAIL", self.ranks, self.expected_ranks)
        )
        lines.append(
            "%s rewrite vs oracle on %d monomials of weighted degree <= 4: "
            "%d torsion-resolved, %d mismatches"
            % (
                "PASS" if self.routes_ok else "FAIL",
                self.compared,
                len(self.torsion_resolved),
                len(self.mismatches),
            )
        )
        for d in sorted(self.torsion):
            lines.append(
                "REPORT degree %d torsion: Z/%s"
                % (d, " + Z/".join(str(t) for t in self.torsion[d]))
            )
        if not self.torsion:
            lines.append("REPORT no torsion in degrees 0..4")
        for mono, rw, orc in self.torsion_resolved:
            lines.append(
                "REPORT torsion class: %s rewrites to %s, oracle residue %s"
                % (
                    format_polynomial(mono, CURVE_VARIABLES),
                    format_polynomial(rw, CURVE_VARIABLES),
                    format_polynomial(orc, CURVE_VARIABLES),
                )
            )
        for mono, rw, orc in self.mismatches:
            lines.append(
                "FAIL confluence: %s rewrites to %s but oracle says %s"
                % (
                    format_polynomial(mono, CURVE_VARIABLES),
                    format_polynomial(rw, CURVE_VARIABLES),
                    format_polynomial(orc, CURVE_VARIABLES),
                )
            )
        return lines


def curve_ring_checks(params: CurveRingParams) -> CurveCheckReport:
    """Compare the rewrite system against the lattice oracle, degree by degree."""
    ideal = curve_ideal(params)
    slices = [oracle.quotient_structure(ideal, d) for d in range(0, 5)]
    ranks = tuple(slice_.rank for slice_ in slices)
    torsion = {slice_.degree: slice_.torsion for slice_ in slices if slice_.torsion}
    resolved = []
    mismatches = []
    compared = 0
    for d in range(0, 5):
        for a, b, c in monomials_of_degree(3, d, CURVE_WEIGHTS):
            compared += 1
            mono = Polynomial._of(3, {(a, b, c): 1})
            # both routes as term dicts in public order; the polynomials a
            # report line prints are built only when the routes differ, and
            # the monomial, valid by construction, goes to the oracle's core
            rewrite = _basis_terms(curve_normal_form(params, mono).coords())
            residue = _swapped(oracle._reduce_terms(ideal, {(a, c, b): 1}))
            if rewrite == residue:
                continue
            rewrite, residue = Polynomial._of(3, rewrite), Polynomial._of(3, residue)
            diff = _to_oracle(rewrite - residue)
            if oracle.rational_membership(ideal, diff) and not oracle.membership(
                ideal, diff
            ):
                resolved.append((mono, rewrite, residue))
            else:
                mismatches.append((mono, rewrite, residue))
    return CurveCheckReport(
        ranks=ranks,
        expected_ranks=(1, 2, 2, 1, 0),
        torsion=torsion,
        torsion_resolved=tuple(resolved),
        mismatches=tuple(mismatches),
        compared=compared,
    )


def curve_basis_elements(params: CurveRingParams) -> list:
    """The canonical basis as ring elements, paired with display labels."""
    units = []
    for k, label in enumerate(_BASIS_LABELS):
        coords = [0] * 6
        coords[k] = 1
        units.append((label, CurveRingElement(params, *coords)))
    return units
