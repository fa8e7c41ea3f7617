"""Exact arithmetic in the Chow ring of projective 3-space blown up along a curve.

The ring has generators x0 (hyperplane pullback), x1 (the exceptional
divisor) and a weight-2 class w1, with integer parameters gamma (the
degree of the curve) and c1 (the degree of its normal bundle's first
Chern class).  The grading is weighted: deg x0 = deg x1 = 1, deg w1 = 2.
Additively the ring is spanned by {1; x0, x1; x0^2, w1; x0^3} and degree
4 vanishes up to possible finite torsion, which the checks report.

Two reduction routes are implemented: a rewrite system driving every
monomial to the canonical basis, and the generic graded-lattice oracle on
the defining ideal.  curve_ring_checks compares them on every monomial of
weighted degree at most 4 and classifies any difference as torsion (a
class killed by an integer multiple) or a genuine failure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from . import oracle
from .poly import Polynomial, format_polynomial, monomials_of_degree

# public variable order and weights
CURVE_VARIABLES = ("x0", "x1", "w1")
CURVE_WEIGHTS = (1, 1, 2)
TOP_DEGREE = 3

_BASIS_LABELS = ("1", "x0", "x1", "x0^2", "w1", "x0^3")


@dataclass(frozen=True)
class CurveRingParams:
    """gamma: curve degree (>= 1, degree 1 warned); c1: normal bundle degree."""

    gamma: int
    c1: int

    def __post_init__(self):
        if not isinstance(self.gamma, int) or self.gamma < 1:
            raise ValueError("gamma must be a positive integer, got %r" % (self.gamma,))
        if not isinstance(self.c1, int):
            raise ValueError("c1 must be an integer, got %r" % (self.c1,))
        if self.gamma == 1:
            warnings.warn(
                "gamma=1 (a line) is below the usual range for this model; "
                "the arithmetic goes through unchanged",
                UserWarning,
                stacklevel=3,
            )


@dataclass(frozen=True)
class CurveRingElement:
    """Coordinates over the canonical basis {1; x0, x1; x0^2, w1; x0^3}."""

    params: CurveRingParams
    unit: int = 0
    x0: int = 0
    x1: int = 0
    x0_sq: int = 0
    w1: int = 0
    x0_cu: int = 0

    def coords(self):
        return (self.unit, self.x0, self.x1, self.x0_sq, self.w1, self.x0_cu)

    def is_zero(self):
        return not any(self.coords())

    def to_polynomial(self) -> Polynomial:
        terms = {
            (0, 0, 0): self.unit,
            (1, 0, 0): self.x0,
            (0, 1, 0): self.x1,
            (2, 0, 0): self.x0_sq,
            (0, 0, 1): self.w1,
            (3, 0, 0): self.x0_cu,
        }
        return Polynomial(3, {e: c for e, c in terms.items() if c})

    def __add__(self, other):
        if not isinstance(other, CurveRingElement):
            return NotImplemented
        if self.params != other.params:
            raise ValueError("elements belong to different parameter values")
        a, b = self.coords(), other.coords()
        return CurveRingElement(self.params, *(x + y for x, y in zip(a, b)))

    def __mul__(self, other):
        if isinstance(other, int):
            return CurveRingElement(self.params, *(c * other for c in self.coords()))
        if not isinstance(other, CurveRingElement):
            return NotImplemented
        if self.params != other.params:
            raise ValueError("elements belong to different parameter values")
        return curve_normal_form(self.params, self.to_polynomial() * other.to_polynomial())

    __rmul__ = __mul__

    def __str__(self):
        return format_polynomial(self.to_polynomial(), CURVE_VARIABLES)


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

def _to_oracle(p: Polynomial) -> Polynomial:
    # swapping the last two exponents is an involution: this also maps back
    return Polynomial(3, {(a, c, b): k for (a, b, c), k in p.terms.items()})


def curve_ideal(params: CurveRingParams, max_degree: int = 4) -> oracle.GradedIdeal:
    """The defining ideal as a graded-lattice oracle (internal variable order)."""
    gens = [_to_oracle(g) for g in curve_ideal_generators(params)]
    return oracle.GradedIdeal(3, gens, max_degree, weights=(1, 2, 1))


def curve_normal_form(params: CurveRingParams, p: Polynomial) -> CurveRingElement:
    """Rewrite to the canonical basis.

    Monomial rules, applied to fixpoint: anything of weighted degree above
    3 dies; x1^2 -> c1*w1 - gamma*x0^2; x0*x1 -> gamma*w1; x1*w1 -> -x0^3;
    x0*w1 -> 0.  Every rule preserves the weighted degree and strictly
    drops the x1 count, so the process terminates.
    """
    if p.nvars != 3:
        raise ValueError("polynomial has %d variables, expected 3" % p.nvars)
    g, c1 = params.gamma, params.c1
    acc = [0, 0, 0, 0, 0, 0]  # unit, x0, x1, x0^2, w1, x0^3

    def put(a, b, c, coef):
        if a + b + 2 * c > TOP_DEGREE:
            return
        if b >= 2:
            put(a, b - 2, c + 1, coef * c1)
            put(a + 2, b - 2, c, -coef * g)
        elif a >= 1 and b >= 1:
            put(a - 1, b - 1, c + 1, coef * g)
        elif b >= 1 and c >= 1:
            put(a + 3, b - 1, c - 1, -coef)
        elif a >= 1 and c >= 1:
            return
        elif c >= 1:
            acc[4] += coef  # bare w1 (c == 1; larger c is over the degree cap)
        elif b == 1:
            acc[2] += coef
        elif a == 0:
            acc[0] += coef
        elif a == 1:
            acc[1] += coef
        elif a == 2:
            acc[3] += coef
        else:  # a == 3; higher pure powers are over the degree cap
            acc[5] += coef

    for (a, b, c), coef in p.terms.items():
        put(a, b, c, coef)
    return CurveRingElement(params, *acc)


def curve_degree_integral(element: CurveRingElement) -> int:
    """Coefficient of the point class x0^3."""
    return element.x0_cu


@dataclass(frozen=True)
class CurveCheckReport:
    """Outcome of the dual-route consistency run for one parameter value."""

    params: CurveRingParams
    ranks: tuple
    expected_ranks: tuple
    torsion: dict
    torsion_resolved: tuple
    mismatches: tuple

    @property
    def ranks_ok(self):
        return self.ranks == self.expected_ranks

    @property
    def passed(self):
        return self.ranks_ok and not self.mismatches

    def summary_lines(self):
        lines = []
        lines.append(
            "%s ranks by degree %s (expected %s)"
            % ("PASS" if self.ranks_ok else "FAIL", self.ranks, self.expected_ranks)
        )
        total = sum(
            len(monomials_of_degree(3, d, CURVE_WEIGHTS)) for d in range(0, 5)
        )
        lines.append(
            "%s rewrite vs oracle on %d monomials of weighted degree <= 4: "
            "%d torsion-resolved, %d mismatches"
            % (
                "PASS" if not self.mismatches else "FAIL",
                total,
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
    for d in range(0, 5):
        for exps in monomials_of_degree(3, d, CURVE_WEIGHTS):
            mono = Polynomial.monomial(3, exps)
            rewrite = curve_normal_form(params, mono).to_polynomial()
            residue = _to_oracle(oracle.reduce(ideal, _to_oracle(mono)))
            if rewrite == residue:
                continue
            diff = _to_oracle(rewrite - residue)
            if oracle.rational_membership(ideal, diff) and not oracle.membership(
                ideal, diff
            ):
                resolved.append((mono, rewrite, residue))
            else:
                mismatches.append((mono, rewrite, residue))
    return CurveCheckReport(
        params=params,
        ranks=ranks,
        expected_ranks=(1, 2, 2, 1, 0),
        torsion=torsion,
        torsion_resolved=tuple(resolved),
        mismatches=tuple(mismatches),
    )


def curve_basis_elements(params: CurveRingParams) -> list:
    """The canonical basis as ring elements, paired with display labels."""
    units = []
    for k, label in enumerate(_BASIS_LABELS):
        coords = [0] * 6
        coords[k] = 1
        units.append((label, CurveRingElement(params, *coords)))
    return units
