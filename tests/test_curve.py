"""The curve blow-up ring: rewrite rules, oracle agreement, torsion."""

from __future__ import annotations

import io
import warnings
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from functools import lru_cache
from math import gcd
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import skychow.cli as cli
import skychow.curve as curve_mod
from helpers import reference_curve_normal_form, reference_curve_product, reference_curve_str
from skychow import oracle
from skychow.curve import (
    CurveRingElement,
    CurveRingParams,
    curve_basis_elements,
    curve_ideal,
    curve_ideal_generators,
    curve_normal_form,
    curve_ring_checks,
    _to_oracle,
)
from skychow.finality import DivisorFinality
from skychow.oracle import QuotientSlice
from skychow.poly import Polynomial, monomials_of_degree, random_homogeneous

GAMMAS = (1, 2, 3)
C1S = (-2, 0, 6)


def params_grid():
    out = []
    for g in GAMMAS:
        for c in C1S:
            ctx = pytest.warns(UserWarning) if g == 1 else nullcontext()
            with ctx:
                out.append(CurveRingParams(gamma=g, c1=c))
    return out


def full_grid():
    """Every gamma in 1..8 with every c1 in -8..8: 136 parameter values."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # gamma = 1
        return [CurveRingParams(gamma=g, c1=c) for g in range(1, 9) for c in range(-8, 9)]


def random_elements(params, rng, count):
    """Seeded elements whose coordinates mix 0, +-1, small and large values."""
    def coord():
        return rng.choice((0, 0, 1, -1, rng.randint(-9, 9), rng.randint(-10**12, 10**12)))

    return [CurveRingElement(params, *(coord() for _ in range(6))) for _ in range(count)]


def mono(a, b, c):
    return Polynomial.monomial(3, (a, b, c))


class TestParams:
    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            CurveRingParams(gamma=0, c1=3)
        with pytest.raises(ValueError):
            CurveRingParams(gamma=-2, c1=3)

    @pytest.mark.parametrize(
        "gamma,c1,message",
        [
            (2, True, "c1 must be an integer, got True"),
            (True, 3, "gamma must be a positive integer, got True"),
            (2, 3.0, "c1 must be an integer, got 3.0"),
        ],
        ids=["c1-true", "gamma-true", "c1-float"],
    )
    def test_rejects_bools_and_non_integers(self, gamma, c1, message):
        with pytest.raises(ValueError) as exc:
            CurveRingParams(gamma=gamma, c1=c1)
        assert str(exc.value) == message

    def test_line_warns_but_works(self):
        with pytest.warns(UserWarning, match="gamma=1"):
            params = CurveRingParams(gamma=1, c1=0)
        assert params.gamma == 1


class TestRewrite:
    # hand-derived reduction table; P = CurveRingParams(2, 6) unless stated
    P = CurveRingParams(gamma=2, c1=6)

    def check(self, a, b, c, expected_coords):
        el = curve_normal_form(self.P, mono(a, b, c))
        assert el.coords() == expected_coords

    def test_basis_monomials_are_fixed(self):
        self.check(0, 0, 0, (1, 0, 0, 0, 0, 0))
        self.check(1, 0, 0, (0, 1, 0, 0, 0, 0))
        self.check(0, 1, 0, (0, 0, 1, 0, 0, 0))
        self.check(2, 0, 0, (0, 0, 0, 1, 0, 0))
        self.check(0, 0, 1, (0, 0, 0, 0, 1, 0))
        self.check(3, 0, 0, (0, 0, 0, 0, 0, 1))

    def test_degree_two_rules(self):
        self.check(1, 1, 0, (0, 0, 0, 0, 2, 0))  # x0*x1 -> gamma*w1
        self.check(0, 2, 0, (0, 0, 0, -2, 6, 0))  # x1^2 -> c1*w1 - gamma*x0^2

    def test_degree_three_rules(self):
        self.check(2, 1, 0, (0, 0, 0, 0, 0, 0))  # x0^2*x1 is a relation
        self.check(1, 2, 0, (0, 0, 0, 0, 0, -2))  # x0*x1^2 -> -gamma*x0^3
        self.check(0, 3, 0, (0, 0, 0, 0, 0, -6))  # x1^3 -> -c1*x0^3
        self.check(1, 0, 1, (0, 0, 0, 0, 0, 0))  # x0*w1 is a relation
        self.check(0, 1, 1, (0, 0, 0, 0, 0, -1))  # x1*w1 -> -x0^3

    def test_degree_four_dies(self):
        for exps in monomials_of_degree(3, 4, weights=(1, 1, 2)):
            assert curve_normal_form(self.P, Polynomial.monomial(3, exps)).is_zero()

    def test_wrong_variable_count(self):
        with pytest.raises(ValueError):
            curve_normal_form(self.P, Polynomial.monomial(2, (1, 0)))

    @given(st.integers(0, 2**30))
    def test_linearity(self, seed):
        rng = Random(seed)
        d = rng.randint(1, 4)
        p = random_homogeneous(rng, 3, d, weights=(1, 1, 2))
        q = random_homogeneous(rng, 3, d, weights=(1, 1, 2))
        left = curve_normal_form(self.P, p + q)
        right = curve_normal_form(self.P, p) + curve_normal_form(self.P, q)
        assert left.coords() == right.coords()

    def test_degree_integral(self):
        assert curve_normal_form(self.P, mono(0, 1, 1)).x0_cu == -1

    def test_mixed_params_are_rejected(self):
        other = CurveRingParams(gamma=3, c1=6)
        with pytest.raises(ValueError, match="different parameter"):
            CurveRingElement(self.P, x0=1) * CurveRingElement(other, x1=1)


class TestRewriteMatchesReference:
    """curve_normal_form against the closure-based rewrite it replaced, kept
    in tests/helpers.py, up to weighted degree 6 (past the cap of 3)."""

    @staticmethod
    def polynomials(rng):
        """Zero, every monomial of weighted degree 0..6, and seeded sums of
        random forms of mixed degrees with small and large coefficients."""
        out = [Polynomial.zero(3)]
        out.extend(mono(*e) for d in range(7) for e in monomials_of_degree(3, d, (1, 1, 2)))
        for _ in range(25):
            p = Polynomial.zero(3)
            for d in rng.sample(range(7), rng.randint(1, 7)):
                form = random_homogeneous(rng, 3, d, weights=(1, 1, 2))
                p = p + form * rng.choice((1, -1, 10**12 + 7))
            out.append(p)
        return out

    def test_every_grid_point(self):
        rng = Random(25)
        for params in full_grid():
            for p in self.polynomials(rng):
                got = curve_normal_form(params, p)
                want = reference_curve_normal_form(params, p)
                assert type(got) is CurveRingElement
                assert got.params == params
                assert got.coords() == want.coords(), (params, p)


class TestClosedFormProduct:
    """Products against the basis's structure constants and printing against
    the printed representative, both kept in tests/helpers.py."""

    def test_basis_pairs_match_the_reference(self):
        # both routes are bilinear in the coordinates and linear in
        # (gamma, c1), so the basis pairs on this grid decide equality
        for params in full_grid():
            basis = [el for _, el in curve_basis_elements(params)]
            for a in basis:
                for b in basis:
                    assert a * b == reference_curve_product(a, b), (params, a, b)

    def test_str_matches_the_reference(self):
        params = CurveRingParams(gamma=2, c1=6)
        zero = CurveRingElement(params)
        assert str(zero) == reference_curve_str(zero) == "0"
        for el in random_elements(params, Random(5), 3000):
            assert str(el) == reference_curve_str(el), el

    def test_curve_example_matches_the_reference_route(self, monkeypatch):
        def run_grid():
            runs = []
            for params in full_grid():
                out, err = io.StringIO(), io.StringIO()
                argv = ["curve-example", "--gamma", str(params.gamma),
                        "--c1", str(params.c1), "--check"]
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(argv)
                runs.append((code, out.getvalue(), err.getvalue()))
            return runs

        rewritten = run_grid()
        monkeypatch.setattr(CurveRingElement, "__mul__", reference_curve_product)
        monkeypatch.setattr(CurveRingElement, "__rmul__", reference_curve_product)
        monkeypatch.setattr(CurveRingElement, "__str__", reference_curve_str)
        assert run_grid() == rewritten


class TestRingLaws:
    """The product makes the six coordinates a commutative ring."""

    @staticmethod
    @lru_cache(maxsize=None)
    def triples():
        """50 seeded triples at each grid point, built once for every law."""
        rng = Random(13)
        out = []
        for params in full_grid():
            elements = random_elements(params, rng, 150)
            out.extend(zip(elements[0::3], elements[1::3], elements[2::3]))
        return out

    def test_commutative(self):
        for a, b, _ in self.triples():
            assert a * b == b * a

    def test_associative(self):
        for a, b, c in self.triples():
            assert (a * b) * c == a * (b * c)

    def test_unit(self):
        for a, _, _ in self.triples():
            one = CurveRingElement(a.params, unit=1)
            assert one * a == a * one == a

    def test_distributive(self):
        for a, b, c in self.triples():
            assert a * (b + c) == a * b + a * c
            assert 3 * a == a * 3 == a + a + a


class TestOracleSide:
    def test_x0_fourth_power_is_in_the_ideal(self):
        # x0*(x0^3 + x1*w1) - x1*(x0*w1) == x0^4, a pure polynomial identity
        for params in params_grid():
            gens = curve_ideal_generators(params)
            x0 = Polynomial.variable(3, 0)
            x1 = Polynomial.variable(3, 1)
            combo = x0 * gens[4] - x1 * gens[3]
            assert combo == x0**4
            assert oracle.membership(curve_ideal(params), _to_oracle(x0**4))

    def test_ranks_across_grid(self):
        for params in params_grid():
            ideal = curve_ideal(params)
            ranks = tuple(oracle.quotient_rank(ideal, d) for d in range(5))
            assert ranks == (1, 2, 2, 1, 0)

    def test_degree_four_torsion_is_gcd(self):
        # d*w1^2 lies in the ideal exactly when gcd(gamma, c1) divides d
        for params in params_grid():
            ideal = curve_ideal(params)
            slice4 = oracle.quotient_structure(ideal, 4)
            g = gcd(params.gamma, params.c1)
            if g > 1:
                assert slice4.torsion == (g,)
            else:
                assert slice4.torsion == ()

    def test_degree_two_residue_matches_rewrite(self):
        params = CurveRingParams(gamma=3, c1=6)
        ideal = curve_ideal(params)
        x1sq = _to_oracle(mono(0, 2, 0))
        residue = oracle.reduce(ideal, x1sq)
        expected = _to_oracle(Polynomial(3, {(0, 0, 1): 6, (2, 0, 0): -3}))
        assert residue == expected


class TestChecks:
    def test_grid_passes(self):
        for params in params_grid():
            report = curve_ring_checks(params)
            assert report.ranks_ok
            assert report.mismatches == ()
            assert report.passed

    def test_torsion_is_reported_not_hidden(self):
        params = CurveRingParams(gamma=2, c1=6)
        report = curve_ring_checks(params)
        assert report.torsion == {4: (2,)}
        assert len(report.torsion_resolved) == 1
        mono_, rewrite, residue = report.torsion_resolved[0]
        assert mono_ == Polynomial.monomial(3, (0, 0, 2))  # w1^2
        assert rewrite.is_zero()
        assert not residue.is_zero()
        lines = "\n".join(report.summary_lines())
        assert "torsion" in lines and "Z/2" in lines

    def test_printed_count_is_the_number_compared(self, monkeypatch):
        params = CurveRingParams(gamma=2, c1=6)
        report = curve_ring_checks(params)
        assert report.compared == 22
        assert " on 22 monomials " in report.summary_lines()[1]
        # a compared set without degree 4 prints the smaller count
        real = curve_mod.monomials_of_degree
        monkeypatch.setattr(
            curve_mod, "monomials_of_degree", lambda nv, d, w=None: [] if d == 4 else real(nv, d, w)
        )
        short = curve_ring_checks(params)
        assert short.compared == 22 - len(real(3, 4, curve_mod.CURVE_WEIGHTS)) == 13
        assert short.summary_lines()[1].startswith("PASS rewrite vs oracle on 13 monomials ")
        # comparing nothing is not a pass
        monkeypatch.setattr(curve_mod, "monomials_of_degree", lambda nv, d, w=None: [])
        empty = curve_ring_checks(params)
        assert empty.compared == 0 and not empty.passed
        assert empty.summary_lines()[1].startswith("FAIL rewrite vs oracle on 0 monomials ")

    def test_no_torsion_when_coprime(self):
        params = CurveRingParams(gamma=2, c1=-3)
        report = curve_ring_checks(params)
        assert report.torsion == {}
        assert report.torsion_resolved == ()
        assert report.passed


class TestRecordValues:
    """The tuple-backed records keep the value semantics of frozen
    dataclasses: read-only fields, equality and hash by value, defaults and
    keyword construction, the same repr."""

    P = CurveRingParams(gamma=2, c1=6)

    def records(self):
        """(record, an equal record built another way, a different record)"""
        return [
            (
                CurveRingElement(self.P, x0=1, w1=-3),
                CurveRingElement(self.P, 0, 1, 0, 0, -3),
                CurveRingElement(self.P, x0=1, w1=3),
            ),
            (
                QuotientSlice(4, 0, (2,)),
                QuotientSlice(degree=4, rank=0, torsion=(2,)),
                QuotientSlice(4, 0, ()),
            ),
            (
                DivisorFinality(1, True, True, None),
                DivisorFinality(index=1, final_proximity=True, final_chow=True, witness=None),
                DivisorFinality(1, True, False, None),
            ),
        ]

    FIELDS = {
        CurveRingElement: ("params", "unit", "x0", "x1", "x0_sq", "w1", "x0_cu"),
        QuotientSlice: ("degree", "rank", "torsion"),
        DivisorFinality: ("index", "final_proximity", "final_chow", "witness"),
    }

    def test_fields_are_read_only(self):
        for record, _, _ in self.records():
            for name in self.FIELDS[type(record)]:
                with pytest.raises(AttributeError):
                    setattr(record, name, 0)
                with pytest.raises(AttributeError):
                    delattr(record, name)
            with pytest.raises(AttributeError):
                record.extra = 0

    def test_equality_and_hash_by_value(self):
        for record, same, other in self.records():
            assert record == same and not record != same
            assert hash(record) == hash(same)
            assert record != other
            assert len({record, same, other}) == 2

    def test_defaults_and_keywords(self):
        zero = CurveRingElement(self.P)
        assert zero.coords() == (0, 0, 0, 0, 0, 0) and zero.is_zero()
        el = CurveRingElement(self.P, x0_cu=5, unit=2)
        assert (el.params, el.unit, el.x0_cu) == (self.P, 2, 5)
        assert el.coords() == (2, 0, 0, 0, 0, 5)
        assert QuotientSlice(3, 1, ()).torsion_free
        assert not QuotientSlice(4, 0, (2,)).torsion_free
        assert DivisorFinality(2, True, None, "w").agree is False

    def test_repr(self):
        assert repr(CurveRingElement(self.P, x0=1)) == (
            "CurveRingElement(params=CurveRingParams(gamma=2, c1=6), "
            "unit=0, x0=1, x1=0, x0_sq=0, w1=0, x0_cu=0)"
        )
        assert repr(QuotientSlice(4, 0, (2,))) == "QuotientSlice(degree=4, rank=0, torsion=(2,))"
        assert repr(DivisorFinality(1, True, False, "w")) == (
            "DivisorFinality(index=1, final_proximity=True, final_chow=False, witness='w')"
        )

    def test_mixed_params_are_rejected_by_add(self):
        other = CurveRingParams(gamma=3, c1=6)
        with pytest.raises(ValueError, match="different parameter"):
            CurveRingElement(self.P, x0=1) + CurveRingElement(other, x1=1)
