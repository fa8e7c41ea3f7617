"""The integer lattice machinery and the graded ideal oracle.

The lattice layer is cross-checked against sympy's Smith normal form and
rank on random matrices; the ideal layer is pinned down by hand-derived
memberships and by coset identities that hold for any correct reduction.
"""

from __future__ import annotations

import ast
import sys
import threading
import warnings
from math import gcd
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

import skychow.oracle
import skychow.cli
from helpers import (
    DenseHermiteLattice,
    cached_total_ideal,
    full_piece,
    full_reduce,
    full_vector,
    random_config,
    reference_verify_samples,
)
from skychow.chowring import _rho_images, strict_presentation, total_presentation
from skychow.cli import load_config, main
from skychow.curve import CurveRingParams, curve_ideal
from skychow.oracle import (
    GradedIdeal,
    HermiteLattice,
    _reduce_terms,
    membership,
    minimal_generator_count,
    quotient_rank,
    quotient_structure,
    rational_membership,
    reduce,
)
from skychow.poly import Polynomial, monomials_of_degree, random_homogeneous
from skychow.proximity import ProximityConfig, enumerate_proximity_configs


def random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


# entries sharing factors: non-unit pivots and xgcd merges are common
SHARED_FACTORS = (-12, -6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 12)


def sympy_divisors(m):
    """The nonzero Smith divisors of an integer matrix, ascending, by sympy."""
    snf = smith_normal_form(Matrix(m))
    return sorted(abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i] != 0)


def sparse(vec):
    """The {column: entry} form HermiteLattice takes, of a dense vector."""
    return {t: c for t, c in enumerate(vec) if c}


def minus(v, residue):
    """v - residue for a dense v and a sparse residue, as a sparse vector."""
    return sparse([a - residue.get(t, 0) for t, a in enumerate(v)])


class TestHermiteLattice:
    def test_single_row_normalizes_sign(self):
        lat = HermiteLattice(2)
        assert lat.add_row(sparse([-3, 6]))
        assert lat.rows == [[3, -6]]
        assert lat.pivot_cols == [0]

    def test_gcd_of_colinear_rows(self):
        lat = HermiteLattice(2)
        lat.add_row(sparse([4, 0]))
        grew = lat.add_row(sparse([6, 0]))
        assert not grew  # same pivot column, rank unchanged
        assert lat.pivot_values() == [2]
        assert not lat.reduce_vector(sparse([2, 0]))
        assert lat.reduce_vector(sparse([1, 0]))

    def test_a_repeated_row_leaves_the_lattice_unchanged(self):
        # a slice build folds every row, repeats included: a repeat already
        # lies in the lattice, so it reduces to zero and changes nothing,
        # also after an xgcd step rewrote the rows it was folded into
        for rows in ([[0, 3, 0]], [[2, 1, 0], [0, 3, 1]], [[4, 0, 1], [6, 1, 0]]):
            lat = HermiteLattice(3)
            for row in rows:
                lat.add_row(sparse(row))
            folded = (lat.rows, list(lat.pivot_cols))
            for row in rows:
                assert not lat.add_row(sparse(row))
                assert (lat.rows, lat.pivot_cols) == folded

    def test_coprime_singles_at_one_column_settle_at_pivot_one(self):
        lat = HermiteLattice(3)
        assert lat.add_row({1: 2})
        assert not lat.add_row({1: 3})  # gcd(2, 3) = 1 at column 1
        assert lat.rows == [[0, 1, 0]]
        for c in (2, 3, 1):
            assert not lat.add_row({1: c})
            assert lat.rows == [[0, 1, 0]] and lat.pivot_cols == [1]

    def test_gcd_step_matches_the_dense_reference(self):
        # pivots a and b that divide neither way: add_row replaces the two
        # rows by a unimodular combination, leaving gcd(a, b) as the pivot
        steps = 0
        for a in range(2, 10):
            for b in range(2, 10):
                if a % b == 0 or b % a == 0:
                    continue
                for rows in ([[a, 1, 0], [b, 0, 1]], [[0, a, 2, 1], [3, 0, 0, 0], [0, b, 0, 5]]):
                    width = len(rows[0])
                    lat, ref = HermiteLattice(width), DenseHermiteLattice(width)
                    for row in rows:
                        assert lat.add_row(sparse(row)) == ref.add_row(row)
                        ref._ensure_reduced()  # the reference defers; lat never does
                        assert lat.rows == ref.rows
                        assert lat.pivot_cols == ref.pivot_cols
                    # echelon: each row's first entry sits at its own pivot
                    assert [min(sparse(r)) for r in lat.rows] == lat.pivot_cols
                    col = rows[0].index(a)
                    assert lat.pivot_values()[lat.pivot_cols.index(col)] == gcd(a, b)
                    steps += 1
        assert steps == 2 * 44

    def test_membership_frozen_case(self):
        # rows (2, 1, 0) and (0, 3, 1): their sum and integer combos only
        lat = HermiteLattice(3)
        lat.add_row(sparse([2, 1, 0]))
        lat.add_row(sparse([0, 3, 1]))
        assert not lat.reduce_vector(sparse([2, 4, 1]))
        assert not lat.reduce_vector(sparse([4, 2, 0]))
        assert lat.reduce_vector(sparse([1, 2, 0]))
        assert lat.reduce_vector(sparse([0, 0, 1]))

    def test_reduce_is_canonical_on_cosets(self):
        lat = HermiteLattice(3)
        lat.add_row(sparse([2, 1, 0]))
        lat.add_row(sparse([0, 3, 1]))
        v = [5, -7, 2]
        shifted = [5 + 2, -7 + 1, 2]
        assert lat.reduce_vector(sparse(v)) == lat.reduce_vector(sparse(shifted))
        residue = lat.reduce_vector(sparse(v))
        # the residue differs from v by a lattice element
        assert not lat.reduce_vector(minus(v, residue))

    def test_width_mismatch(self):
        lat = HermiteLattice(2)
        for column in (-1, 2):
            with pytest.raises(ValueError, match="outside 0..1"):
                lat.add_row({column: 1})
            with pytest.raises(ValueError, match="outside 0..1"):
                lat.reduce_vector({0: 1, column: 1})

    @given(st.integers(0, 2**30))
    def test_rank_and_divisors_match_sympy(self, seed):
        # Entries sharing factors make non-unit pivots, so the alternating
        # Hermite passes run on most draws.
        rng = Random(seed)
        cols = rng.randint(1, 12)
        density = rng.uniform(0.1, 1)
        m = [
            [rng.choice(SHARED_FACTORS) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rng.randint(1, 12))
        ]
        lat = HermiteLattice(cols)
        for row in m:
            lat.add_row(sparse(row))
        assert lat.rank == Matrix(m).rank()
        assert sorted(lat.elementary_divisors()) == sympy_divisors(m)

    @pytest.mark.parametrize(
        "seed, torsion", [(1257, [2, 2]), (2000, [6, 6, 72]), (2267, [2, 24])]
    )
    def test_smith_form_finishes_where_dense_elimination_stalled(self, seed, torsion):
        # Lattices on which a dense Smith elimination took 0.6 s, >20 s, >20 s.
        rng = Random(seed)
        width = rng.randint(4, 12)
        density = rng.uniform(0.3, 1)
        m = [
            [rng.choice(SHARED_FACTORS) if rng.random() < density else 0 for _ in range(width)]
            for _ in range(rng.randint(4, 12))
        ]
        lat = HermiteLattice(width)
        for row in m:
            lat.add_row(sparse(row))
        divisors = lat.elementary_divisors()
        assert [e for e in divisors if e != 1] == torsion
        assert sorted(divisors) == sympy_divisors(m)

    def test_smith_form_leaves_the_lattice_alone(self):
        m = [
            [-6, -2, 2, 3, 12, 0, -2, -6],
            [2, 12, -4, -12, 1, -2, 6, -12],
            [2, -12, -1, 12, 12, 12, 6, 6],
            [-6, 12, 4, 0, 3, -1, 12, -2],
            [4, 6, 4, -2, 4, 6, 1, 4],
        ]
        lat = HermiteLattice(8)
        for row in m:
            lat.add_row(sparse(row))
        assert lat.pivot_values() == [2, 2, 1, 1, 29846]
        rows, pivot_cols = lat.rows, list(lat.pivot_cols)
        assert lat.elementary_divisors() == [1] * 5 == sympy_divisors(m)
        assert lat.rows == rows and lat.pivot_cols == pivot_cols

    @given(st.integers(0, 2**30))
    def test_reduce_kills_exactly_the_lattice(self, seed):
        rng = Random(seed)
        cols = rng.randint(2, 5)
        m = random_matrix(rng, rng.randint(1, 4), cols, bound=5)
        lat = HermiteLattice(cols)
        for row in m:
            lat.add_row(sparse(row))
        v = [rng.randint(-9, 9) for _ in range(cols)]
        residue = lat.reduce_vector(sparse(v))
        assert not lat.reduce_vector(minus(v, residue))
        # shifting by any input row leaves the canonical representative alone
        for row in m:
            shifted = [a + b for a, b in zip(v, row)]
            assert lat.reduce_vector(sparse(shifted)) == residue

    @given(st.integers(0, 2**30))
    def test_matches_the_dense_reference(self, seed):
        # At most six rows: the dense Smith reference grows its entries fast.
        rng = Random(seed)
        width = rng.randint(1, 12)
        density = rng.uniform(0.1, 1)

        def draw():
            return [rng.choice(SHARED_FACTORS) if rng.random() < density else 0 for _ in range(width)]

        lat, ref = HermiteLattice(width), DenseHermiteLattice(width)
        added = []
        for _ in range(rng.randint(1, 6)):
            row = draw()
            added.append(row)
            assert lat.add_row(sparse(row)) == ref.add_row(row)
            ref._ensure_reduced()  # the reference defers; lat never does
            assert lat.rows == ref.rows
            assert lat.pivot_cols == ref.pivot_cols
            coefs = [rng.randint(-2, 2) for _ in added]
            member = [sum(k * r[t] for k, r in zip(coefs, added)) for t in range(width)]
            for v in (draw(), member):
                residue = ref.reduce_vector(v)
                assert lat.reduce_vector(sparse(v)) == sparse(residue)
                assert (not lat.reduce_vector(sparse(v))) == ref.contains(v)
            assert ref.contains(member)
            assert lat.rows == ref.rows  # the queries left the rows alone
            assert lat.elementary_divisors() == ref.elementary_divisors()


SURFACE_IDEAL = cached_total_ideal(2, 2)


class TestGradedIdeal:
    def test_surface_ranks(self):
        assert [quotient_rank(SURFACE_IDEAL, d) for d in range(0, 4)] == [1, 3, 1, 0]
        for d in range(0, 4):
            assert quotient_structure(SURFACE_IDEAL, d).torsion_free

    def test_surface_minimal_generators(self):
        assert minimal_generator_count(SURFACE_IDEAL) == {2: 5}

    def test_threefold_minimal_generators_split_by_degree(self):
        ideal = cached_total_ideal(3, 3)
        assert minimal_generator_count(ideal) == {2: 6, 3: 3}
        assert [quotient_rank(ideal, d) for d in range(0, 5)] == [1, 4, 4, 1, 0]

    def test_x0_cube_membership_via_explicit_combination(self):
        # x0*(x1^2 + x0^2) - x1*(x0*x1) == x0^3, hence membership must hold
        x0 = Polynomial.variable(3, 0)
        x1 = Polynomial.variable(3, 1)
        combo = x0 * (x1 * x1 + x0 * x0) - x1 * (x0 * x1)
        assert combo == x0**3
        assert membership(SURFACE_IDEAL, x0**3)

    def test_non_member(self):
        x0 = Polynomial.variable(3, 0)
        assert not membership(SURFACE_IDEAL, x0 * x0)

    def test_reduce_examples(self):
        x1sq = Polynomial.monomial(3, (0, 2, 0))
        x0sq = Polynomial.monomial(3, (2, 0, 0))
        assert reduce(SURFACE_IDEAL, x1sq) == -1 * x0sq
        for g in total_presentation(ProximityConfig(n=2, s=2)).relations:
            assert reduce(SURFACE_IDEAL, g).is_zero()
        mixed = Polynomial(3, {(1, 1, 0): 1, (2, 0, 0): 1})
        assert reduce(SURFACE_IDEAL, mixed) == x0sq

    def test_zero_polynomial(self):
        assert membership(SURFACE_IDEAL, Polynomial.zero(3))
        assert reduce(SURFACE_IDEAL, Polynomial.zero(3)).is_zero()

    def test_inhomogeneous_input_rejected(self):
        p = Polynomial(3, {(1, 0, 0): 1, (2, 0, 0): 1})
        with pytest.raises(ValueError, match="homogeneous"):
            membership(SURFACE_IDEAL, p)

    def test_degree_above_bound_rejected(self):
        p = Polynomial.monomial(3, (4, 0, 0))
        with pytest.raises(ValueError, match="materialized"):
            membership(SURFACE_IDEAL, p)

    # (ideal, polynomial terms in one order, message or (message, message
    # for the reversed order)); each case also runs with its terms reversed,
    # since a query reads the degree off one term
    BAD_QUERIES = [
        # mixed, with the first term's degree outside the range: the
        # homogeneity error still comes first
        ("binary", [((9, 0), 1), ((1, 1), 2)], "polynomial is not homogeneous: degrees [2, 9]"),
        ("binary", [((2, 0), 1), ((0, 1), 1)], "polynomial is not homogeneous: degrees [1, 2]"),
        ("binary", [((5, 0), 1), ((4, 1), -3)], "degree 5 outside the materialized range 0..3"),
        ("binary", [((3, 0), 1), ((0, 3), 2)], None),  # well formed: no error
        # x0^2*x1 is a dead term (a multiple of x0*x1): dropped, not an error
        ("binary", [((2, 1), 1), ((0, 3), 2)], None),
        ("binary", [((2, 1), 1), ((1, 0), 2)], "polynomial is not homogeneous: degrees [1, 3]"),
        # three variables against two weights: degrees count the first two
        # exponents, so this one reads as homogeneous and then fails at the
        # first term that the slice's index lacks
        (
            "binary",
            [((1, 1, 0), 1), ((0, 2, 5), 1)],
            ("monomial (1, 1, 0) does not have degree 2", "monomial (0, 2, 5) does not have degree 2"),
        ),
        ("binary", [((1, 1, 0), 1), ((0, 0, 3), 1)], "polynomial is not homogeneous: degrees [0, 2]"),
        ("weighted", [((1, 0), 1), ((0, 1), 1)], "polynomial is not homogeneous: degrees [1, 2]"),
        ("weighted", [((3, 0), 1), ((1, 1), 1)], "degree 3 outside the materialized range 0..2"),
    ]

    @pytest.mark.parametrize("case", range(len(BAD_QUERIES)))
    @pytest.mark.parametrize("order", (1, -1))
    @pytest.mark.parametrize("query", (membership, reduce, rational_membership))
    def test_bad_queries_raise_in_the_order_of_the_checks(self, case, order, query):
        name, terms, message = self.BAD_QUERIES[case]
        x = [Polynomial.variable(2, i) for i in range(2)]
        ideal = {
            "binary": GradedIdeal(2, [x[0] * x[1]], 3),
            "weighted": GradedIdeal(2, [x[0] ** 2], 2, weights=(1, 2)),
        }[name]
        p = Polynomial(len(terms[0][0]), terms[::order])
        assert list(p.terms) == [e for e, _ in terms[::order]]
        if message is None:
            query(ideal, p)
            return
        if isinstance(message, tuple):
            message = message[order < 0]
        with pytest.raises(ValueError) as err:
            query(ideal, p)
        assert str(err.value) == message

    def test_dead_terms_are_dropped(self):
        # x0*x1 is a unit monomial generator: in degree 3 every multiple of
        # it is a dead column, so x0*x1*x2 is no column and lies in the ideal
        x = [Polynomial.variable(3, i) for i in range(3)]
        piece = SURFACE_IDEAL.piece(3)
        dead = x[0] * x[1] * x[2]
        assert (1, 1, 1) not in piece.index
        live = x[0] ** 3 + 2 * x[2] ** 3
        p = live + 5 * dead
        assert _reduce_terms(SURFACE_IDEAL, p.terms) == _reduce_terms(SURFACE_IDEAL, live.terms)
        assert _reduce_terms(SURFACE_IDEAL, live.terms) == reduce(SURFACE_IDEAL, live).terms
        assert _reduce_terms(SURFACE_IDEAL, dead.terms) == {}
        assert reduce(SURFACE_IDEAL, p) == reduce(SURFACE_IDEAL, live)
        assert membership(SURFACE_IDEAL, dead)
        assert membership(SURFACE_IDEAL, p) == membership(SURFACE_IDEAL, live)
        assert rational_membership(SURFACE_IDEAL, dead)

    @pytest.mark.parametrize("weights", [(1.5, 1), (True, 1), ("1", 1)])
    def test_weights_must_be_ints(self, weights):
        with pytest.raises(ValueError, match="weights must be 2 positive integers"):
            GradedIdeal(2, [], 3, weights=weights)

    def test_generators_must_share_the_variable_count(self):
        with pytest.raises(ValueError, match="^generator has 2 variables, expected 3$"):
            GradedIdeal(3, [Polynomial.variable(2, 0)], 2)

    def test_zero_generators_are_skipped(self):
        x = [Polynomial.variable(3, i) for i in range(3)]
        gens = [x[0] * x[1], x[1] * x[2]]
        with_zero = GradedIdeal(3, gens[:1] + [Polynomial.zero(3)] + gens[1:], 3)
        assert with_zero.generators == tuple(gens)
        assert minimal_generator_count(with_zero) == minimal_generator_count(
            GradedIdeal(3, gens, 3)
        ) == {2: 2}
        assert GradedIdeal(3, [Polynomial.zero(3)], 2).generators == ()

    def test_generator_degree_must_fit(self):
        gens = total_presentation(ProximityConfig(n=2, s=2)).relations
        with pytest.raises(ValueError, match="max_degree"):
            GradedIdeal(3, gens, 1)

    def test_quotient_rank_needs_no_smith_form(self, monkeypatch):
        def no_smith(lattice):
            raise AssertionError("quotient_rank computed a Smith form")

        # gamma=2, c1=6 has Z/2 torsion in degree 4, so its Smith form is not trivial
        ideal = curve_ideal(CurveRingParams(gamma=2, c1=6))
        monkeypatch.setattr(HermiteLattice, "elementary_divisors", no_smith)
        assert tuple(quotient_rank(ideal, d) for d in range(5)) == (1, 2, 2, 1, 0)

    @pytest.mark.parametrize("n, s", [(2, 2), (3, 4), (2, 5), (4, 3)])
    def test_minimal_generators_need_no_headroom(self, n, s):
        # the counts read slices only up to the top generator degree (n)
        gens = total_presentation(ProximityConfig(n=n, s=s)).relations
        tight = GradedIdeal(s + 1, gens, n)
        assert minimal_generator_count(tight) == minimal_generator_count(
            GradedIdeal(s + 1, gens, n + 1)
        )

    @given(st.integers(0, 2**30))
    def test_reduce_is_constant_on_cosets(self, seed):
        rng = Random(seed)
        gens = SURFACE_IDEAL.generators
        d = rng.randint(2, 3)
        p = random_homogeneous(rng, 3, d)
        g = gens[rng.randrange(len(gens))]
        dg = g.homogeneous_degree()
        if dg > d:
            return
        shift = g * random_homogeneous(rng, 3, d - dg) if d > dg else g * rng.randint(1, 3)
        assert reduce(SURFACE_IDEAL, p + shift) == reduce(SURFACE_IDEAL, p)

    def test_rational_membership_detects_saturation(self):
        # 2*v in the lattice but v not: v is rationally inside, integrally out
        gens = (Polynomial.monomial(2, (2, 0), 2),)  # 2*x0^2
        ideal = GradedIdeal(2, gens, 3)
        x0sq = Polynomial.monomial(2, (2, 0))
        assert rational_membership(ideal, x0sq)
        assert not membership(ideal, x0sq)
        x1sq = Polynomial.monomial(2, (0, 2))
        assert not rational_membership(ideal, x1sq)

    def test_weighted_grading_is_respected(self):
        # generator homogeneous only under weights (1, 2)
        gens = (Polynomial(2, {(2, 0): 1, (0, 1): -1}),)
        ideal = GradedIdeal(2, gens, 4, weights=(1, 2))
        w = Polynomial.monomial(2, (0, 1))
        x0sq = Polynomial.monomial(2, (2, 0))
        assert reduce(ideal, x0sq) == reduce(ideal, w)
        assert membership(ideal, x0sq - w)


class TestUnitWeightScan:
    """Queries on unit-weight ideals.  On the total ideals (n = 2, 3 with
    s = 3) a bad query raises what the term-by-term checks raise, before
    any core runs, and dead terms of the slice's degree are dropped."""

    S = 3

    def _bad_queries(self, n):
        nv = self.S + 1
        x0sq, x1, x0x1 = (2, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)
        x0x1x2, x2cube, above = (1, 1, 1, 0), (0, 0, 3, 0), (0, n + 2, 0, 0)
        mixed = "polynomial is not homogeneous: degrees [%d, %d]"
        return [
            # the first term is a column; a later one of higher degree is a
            # multiple of a unit monomial generator, of lower degree a variable
            (Polynomial(nv, [(x0sq, 1), (x0x1x2, 2)]), mixed % (2, 3)),
            (Polynomial(nv, [(x0sq, 1), (x1, -1)]), mixed % (1, 2)),
            # the first term is dead in its degree
            (Polynomial(nv, [(x0x1, 1), (x2cube, 1)]), mixed % (2, 3)),
            (Polynomial(nv, [(x0x1, 1), (x1, 1)]), mixed % (1, 2)),
            # above max_degree = n + 1, alone and before a term in range
            (
                Polynomial(nv, [(above, 1)]),
                "degree %d outside the materialized range 0..%d" % (n + 2, n + 1),
            ),
            (Polynomial(nv, [(above, 1), (x1, 1)]), mixed % (1, n + 2)),
            # a term of a ring with one more variable is never dead, even where
            # its first exponents spell a dead monomial
            (Polynomial(nv + 1, [((1, 1, 0, 0, 0), 1), ((0, 0, 0, 0, 2), 1)]), mixed % (0, 2)),
        ]

    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize("query", (membership, reduce, rational_membership))
    def test_bad_queries_raise_what_the_full_checks_raise(self, n, query):
        ideal = cached_total_ideal(n, self.S)
        for p, message in self._bad_queries(n):
            with pytest.raises(ValueError) as err:
                query(ideal, p)
            assert str(err.value) == message, p

    @pytest.mark.parametrize("n", (2, 3))
    def test_bad_queries_never_reach_the_core(self, n, monkeypatch):
        # each public query checks its polynomial before the term-dict
        # cores run, on the total ideal and on weighted curve ideals
        reached = []
        for name in ("_slice_vector", "_reduce_terms"):
            core = getattr(skychow.oracle, name)

            def record(*args, core=core, name=name):
                reached.append(name)
                return core(*args)

            monkeypatch.setattr(skychow.oracle, name, record)
        ideal = cached_total_ideal(n, self.S)
        for p, _ in self._bad_queries(n):
            for query in (membership, reduce, rational_membership):
                with pytest.raises(ValueError):
                    query(ideal, p)
        assert_bad_queries_agree(ideal)
        for gamma, c1 in ((2, 6), (3, -4), (4, 5)):
            assert_bad_queries_agree(curve_ideal(CurveRingParams(gamma=gamma, c1=c1)))
        assert reached == []
        # the recording sees a good query reach the cores
        reduce(ideal, Polynomial.monomial(self.S + 1, (2, 0, 0, 0)))
        assert reached == ["_reduce_terms", "_slice_vector"]

    @pytest.mark.parametrize("n", (2, 3))
    def test_dead_terms_of_the_degree_are_dropped(self, n):
        ideal = cached_total_ideal(n, self.S)
        nv = self.S + 1
        for d in range(2, n + 2):
            live = Polynomial(nv, [((d, 0, 0, 0), 3), ((0, 0, d, 0), -2)])
            dead = Polynomial(nv, [((d - 1, 1, 0, 0), 5), ((0, 0, 1, d - 1), -7)])
            assert membership(ideal, dead)
            assert rational_membership(ideal, dead)
            assert reduce(ideal, dead).is_zero()
            # dead terms first, last and in between
            for p in (dead + live, live + dead):
                assert reduce(ideal, p) == reduce(ideal, live)
                assert membership(ideal, p) == membership(ideal, live)
            assert membership(ideal, live) == (d == n + 1)


class TestAgainstRewriteEngine:
    @given(st.integers(0, 2**30))
    def test_reduce_matches_normal_form(self, seed):
        from skychow.chowring import normal_form

        rng = Random(seed)
        n, s = rng.choice(((2, 2), (2, 3), (3, 2)))
        cfg = ProximityConfig(n=n, s=s)
        ideal = cached_total_ideal(n, s)
        d = rng.randint(1, n + 1)
        p = random_homogeneous(rng, s + 1, d)
        nf = normal_form(cfg, p).to_polynomial()
        assert reduce(ideal, p) == nf
        assert membership(ideal, p) == nf.is_zero()

    # The exhaustive checks stop at s <= 5; these random configs reach the
    # verify width cap (the top slice stays within 4096 columns).
    @pytest.mark.parametrize("n, s_max", [(2, 26), (3, 15), (4, 10)])
    @settings(max_examples=8)
    @given(seed=st.integers(0, 2**30))
    def test_matches_on_random_configs_up_to_the_width_cap(self, n, s_max, seed):
        from skychow.chowring import normal_form, rho

        rng = Random(seed)
        cfg = random_config(rng, n, rng.randint(6, s_max))
        total = total_presentation(cfg).relations
        ideal = GradedIdeal(cfg.s + 1, total, n + 1)
        for g in strict_presentation(cfg).relations:
            assert membership(ideal, rho(cfg, g))
        for _ in range(40):
            d = rng.randint(1, n + 1)
            p = random_homogeneous(rng, cfg.s + 1, d)
            g = total[rng.randrange(len(total))]
            if rng.random() < 0.5 and g.homogeneous_degree() <= d:
                # add an ideal element so that members are drawn too
                p = p + g * random_homogeneous(rng, cfg.s + 1, d - g.homogeneous_degree())
            nf = normal_form(cfg, p).to_polynomial()
            assert reduce(ideal, p) == nf
            assert membership(ideal, p) == nf.is_zero()


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
# Named, not globbed: an example added to configs/ must not set the cost
# of the full-slice reference tests below.
EXAMPLE_CONFIGS = ("satellite.json", "surface.json", "threefold_chain.json")


def example_ideals():
    for name in EXAMPLE_CONFIGS:
        cfg = load_config(str(CONFIG_DIR / name))
        for pres in (total_presentation(cfg), strict_presentation(cfg)):
            yield GradedIdeal(cfg.s + 1, pres.relations, cfg.n + 1)
    for gamma, c1 in ((2, 4), (3, 6), (4, -2), (5, 7), (6, 1)):
        yield curve_ideal(CurveRingParams(gamma=gamma, c1=c1))
    for seed in (3, 11, 29):
        cfg = random_config(Random(seed), 4, 4)
        for pres in (total_presentation(cfg), strict_presentation(cfg)):
            yield GradedIdeal(cfg.s + 1, pres.relations, cfg.n + 1)


def product_rows_lattice(ideal, full, proper_multiples_only):
    """Fold the rows g*m, as Polynomial products, into the dense reference."""
    width = len(full.monomials)
    lat = DenseHermiteLattice(width)
    low = 1 if proper_multiples_only else 0
    for g in ideal.generators:
        r = full.degree - g.homogeneous_degree(ideal.weights)
        if r < low:
            continue
        for m in monomials_of_degree(ideal.nvars, r, ideal.weights):
            row = [0] * width
            for exps, coef in (g * Polynomial.monomial(ideal.nvars, m)).terms.items():
                row[full.index[exps]] = coef
            lat.add_row(row)
    lat._ensure_reduced()  # slices are published in Hermite form
    return lat


def assert_full_reference_is_product_rows(ideal, full):
    """The full reference slice against the rows g*m built as Polynomial products."""
    rows = product_rows_lattice(ideal, full, False)
    proper = product_rows_lattice(ideal, full, True)
    assert full.lattice.rows == rows.rows
    assert full.lattice.pivot_cols == rows.pivot_cols
    assert full.new_generators == rows.rank - proper.rank


def assert_matches_full(ideal, d):
    """The presolved slice against the full reference restricted to its columns.

    Every dropped column must be a pivot of the full Hermite form whose row
    is its unit vector; the other rows, restricted to the kept columns, are
    the presolved rows.  Ranks, torsion and new-generator counts agree.
    """
    piece, full = ideal.piece(d), full_piece(ideal, d)
    kept = [full.index[m] for m in piece.monomials]
    assert kept == sorted(kept)  # the full slice's order
    position = {c: k for k, c in enumerate(kept)}
    width = len(full.monomials)
    rows, pivots = [], []
    for row, c in zip(full.lattice.rows, full.lattice.pivot_cols):
        if c in position:
            rows.append([row[t] for t in kept])
            pivots.append(position[c])
        else:
            assert row == [int(t == c) for t in range(width)]
    assert set(full.lattice.pivot_cols) >= set(range(width)) - set(kept)
    assert piece.lattice.rows == rows
    assert piece.lattice.pivot_cols == pivots
    assert piece.new_generators == full.new_generators
    assert len(piece.monomials) - piece.lattice.rank == width - full.lattice.rank
    ours = [e for e in piece.lattice.elementary_divisors() if e != 1]
    theirs = [e for e in full.lattice.elementary_divisors() if e != 1]
    assert ours == theirs
    return piece, full


def assert_oracle_matches_full(ideal, rng, queries=20):
    """Every slice, the minimal generator counts, and reduce, membership and
    rational membership of random polynomials against the full reference."""
    fulls = [assert_matches_full(ideal, d)[1] for d in range(ideal.max_degree + 1)]
    expected = {full.degree: full.new_generators for full in fulls if full.new_generators}
    assert minimal_generator_count(ideal) == expected
    nvars, weights = ideal.nvars, ideal.weights
    for _ in range(queries):
        d = rng.randint(0, ideal.max_degree)
        p = random_homogeneous(rng, nvars, d, weights=weights)
        below = [(g, dg) for g, dg in zip(ideal.generators, ideal._degrees) if dg <= d]
        if below and rng.random() < 0.5:
            # add an ideal element so that members are drawn too
            g, dg = below[rng.randrange(len(below))]
            p = p + g * random_homogeneous(rng, nvars, d - dg, weights=weights)
        full = fulls[d]
        residue = full_reduce(full, p)
        assert reduce(ideal, p) == residue
        assert membership(ideal, p) == residue.is_zero()
        assert rational_membership(ideal, p) == (
            not full.lattice.copy().add_row(full_vector(full, p))
        )


def test_slices_match_polynomial_product_rows():
    # the threefold total relations listed top degree first: the one ideal
    # here whose generators arrive in descending degree
    threefold = total_presentation(ProximityConfig(n=3, s=3)).relations
    descending = GradedIdeal(4, threefold[::-1], 4)
    assert [g.homogeneous_degree() for g in descending.generators] == [2] * 6 + [3] * 3
    for ideal in (*example_ideals(), descending):
        for d in range(ideal.max_degree + 1):
            _, full = assert_matches_full(ideal, d)
            assert_full_reference_is_product_rows(ideal, full)
    assert minimal_generator_count(descending) == {2: 6, 3: 3}


@pytest.mark.parametrize("n", (2, 3))
def test_presolved_oracle_matches_the_full_reference(n):
    # the total ideal of each (n, s) and the strict ideal of every config
    rng = Random(n)
    configs = 0
    for s in range(1, 5):
        total = total_presentation(ProximityConfig(n=n, s=s)).relations
        assert_oracle_matches_full(GradedIdeal(s + 1, total, n + 1), rng)
        for cfg in enumerate_proximity_configs(n, s):
            configs += 1
            strict = strict_presentation(cfg).relations
            assert_oracle_matches_full(GradedIdeal(s + 1, strict, n + 1), rng)
    assert configs == {2: 67, 3: 75}[n]  # 142 in all


def test_presolved_curve_oracle_matches_the_full_reference():
    rng = Random(5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # gamma=1
        for gamma in range(1, 6):
            for c1 in range(-5, 6):
                ideal = curve_ideal(CurveRingParams(gamma=gamma, c1=c1))
                assert_oracle_matches_full(ideal, rng)


def full_check_error(ideal, p):
    """The message the full checks give a bad p: homogeneity, then range."""
    with pytest.raises(ValueError) as err:
        ideal.piece(p.homogeneous_degree(ideal.weights))
    return str(err.value)


def assert_routes_agree(ideal, rng, queries=6):
    """reduce and membership on every slice against HermiteLattice.reduce_vector.

    The heap route reduces the raw column vector, so it checks the images
    of a unit-pivot slice and the in-place reduction of any other slice
    alike.  Queries carry dead terms; bad ones must raise what the full
    checks raise.  Returns the counts of slices with and without images.
    """
    nvars, weights = ideal.nvars, ideal.weights
    routes = [0, 0]
    for d in range(ideal.max_degree + 1):
        piece = ideal.piece(d)
        lat = piece.lattice
        rows, pivot_cols = lat.rows, list(lat.pivot_cols)
        unit = set(lat.pivot_values()) <= {1}
        assert (piece.images is not None) == unit
        routes[not unit] += 1
        width = len(piece.monomials)
        if unit:
            assert len(piece.images) == width
            for t, image in enumerate(piece.images):
                assert dict(image) == lat.reduce_vector({t: 1})
        dead = [m for m in monomials_of_degree(nvars, d, weights) if m not in piece.index]
        for _ in range(queries):
            vec = {t: rng.randint(-9, 9) for t in rng.sample(range(width), min(width, 4))}
            residue = lat.reduce_vector(vec)
            member = {t: vec.get(t, 0) - residue.get(t, 0) for t in vec.keys() | residue.keys()}
            for v in (vec, member):
                terms = {piece.monomials[t]: c for t, c in v.items() if c}
                for m in rng.sample(dead, min(len(dead), rng.randint(0, 2))):
                    terms[m] = rng.choice((-2, 1, 5))
                p = Polynomial(nvars, terms)
                expected = lat.reduce_vector(v)
                assert reduce(ideal, p) == Polynomial(
                    nvars, {piece.monomials[t]: c for t, c in expected.items()}
                )
                assert membership(ideal, p) == (not expected)
        # one term of the slice beside one a variable higher, either order,
        # and a pure power past the materialized range
        mono = piece.monomials[0] if width else dead[0]
        higher = (mono[0] + 1,) + mono[1:]
        past = (ideal.max_degree + 1,) + (0,) * (nvars - 1)
        for terms in ([(mono, 1), (higher, 2)], [(higher, 2), (mono, 1)], [(past, 3)]):
            p = Polynomial(nvars, terms)
            message = full_check_error(ideal, p)
            for query in (membership, reduce):
                with pytest.raises(ValueError) as err:
                    query(ideal, p)
                assert str(err.value) == message
        assert lat.rows == rows and lat.pivot_cols == pivot_cols  # only read
    return routes


@pytest.mark.parametrize("n", (2, 3))
def test_image_route_matches_the_heap_route(n):
    # the total ideal of each (n, s) and the strict ideals of seeded configs
    rng = Random(40 + n)
    routes = [0, 0]
    for s in range(1, 6):
        total = total_presentation(ProximityConfig(n=n, s=s)).relations
        # every slice of a total ideal has unit pivots
        assert assert_routes_agree(GradedIdeal(s + 1, total, n + 1), rng) == [n + 2, 0]
        for _ in range(3):
            strict = strict_presentation(random_config(rng, n, s)).relations
            for k, count in enumerate(assert_routes_agree(GradedIdeal(s + 1, strict, n + 1), rng)):
                routes[k] += count
    assert sum(routes) == 5 * 3 * (n + 2) and routes[0]


def test_image_route_matches_the_heap_route_on_the_curve_grid():
    rng = Random(7)
    routes = [0, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # gamma=1
        for gamma in range(1, 9):
            for c1 in range(-8, 9):
                ideal = curve_ideal(CurveRingParams(gamma=gamma, c1=c1))
                for k, count in enumerate(assert_routes_agree(ideal, rng)):
                    routes[k] += count
    # the torsion slices: one per grid point with gcd(gamma, c1) > 1
    with_gcd = sum(gcd(g, c) > 1 for g in range(1, 9) for c in range(-8, 9))
    assert routes == [5 * 136 - with_gcd, with_gcd]


def assert_core_matches_reduce(ideal, p):
    """_reduce_terms gives reduce's terms on p's term dict and only reads it."""
    terms = dict(p.terms)
    assert _reduce_terms(ideal, terms) == reduce(ideal, p).terms
    assert terms == p.terms


def bad_query_message(ideal, terms):
    """The one message a bad term dict raises through each query that
    wraps the terms, unchecked, as a Polynomial."""
    p = Polynomial._of(ideal.nvars, terms)
    messages = set()
    for query in (reduce, membership, rational_membership):
        with pytest.raises(ValueError) as err:
            query(ideal, p)
        messages.add(str(err.value))
    (message,) = messages
    return message


def assert_bad_queries_agree(ideal):
    """Queries of a wrong degree raise what the full checks raise, through
    each wrapper; one with a term of the wrong length names that term and
    the query's degree."""
    nvars = ideal.nvars
    x0 = (1,) + (0,) * (nvars - 1)
    past = (ideal.max_degree + 1,) + (0,) * (nvars - 1)
    for terms in ({x0: 1, (2,) + x0[1:]: 2}, {(2,) + x0[1:]: 2, x0: 1}, {past: 3}):
        p = Polynomial._of(nvars, terms)
        assert bad_query_message(ideal, terms) == full_check_error(ideal, p)
    for wrong in (x0 + (0,), x0[:-1]):
        for terms in ({wrong: 2}, {x0: 1, wrong: 2}):
            assert bad_query_message(ideal, terms) == (
                "monomial %r does not have degree 1" % (wrong,)
            )


@pytest.mark.parametrize("n", (2, 3, 4))
def test_reduce_core_matches_reduce_on_verify_draws(n):
    # the term dicts verify's check 2 hands to _reduce_terms, drawn as it
    # draws them, on random configs and chains with s <= 7
    rng = Random(60 + n)
    for s in range(1, 8):
        nv = s + 1
        ideal = cached_total_ideal(n, s)
        chain = ProximityConfig(n=n, s=s, prox=frozenset((j, j - 1) for j in range(2, nv)))
        for config in (random_config(rng, n, s), chain):
            for p in reference_verify_samples(config, 30, rng.randrange(1000)):
                assert_core_matches_reduce(ideal, p)
        assert _reduce_terms(ideal, {}) == {} == reduce(ideal, Polynomial.zero(nv)).terms
        assert_bad_queries_agree(ideal)


def test_reduce_core_matches_reduce_on_the_curve_grid():
    # weighted slices, with and without unit-pivot images; each query beside
    # an ideal element of its degree, p minus its representative
    rng = Random(11)
    routes = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # gamma=1
        for gamma in range(1, 9):
            for c1 in range(-8, 9):
                ideal = curve_ideal(CurveRingParams(gamma=gamma, c1=c1))
                for d in range(ideal.max_degree + 1):
                    routes.add(ideal.piece(d).images is None)
                    p = random_homogeneous(rng, ideal.nvars, d, ideal.weights)
                    for q in (p, p - reduce(ideal, p)):
                        assert_core_matches_reduce(ideal, q)
                assert _reduce_terms(ideal, {}) == {}
                assert_bad_queries_agree(ideal)
    assert routes == {True, False}


def test_verify_builds_each_slice_once(monkeypatch, capsys):
    # each slice and the rho images once per run, and one substitute per
    # distinct factor of the strict relations, whose expansion verify never
    # needs; every _sparse call comes from add_row, since queries hand their
    # fresh vectors to the reduction and slices are published in Hermite
    # form; and nothing in verify builds the config's pair set
    n = 3
    built = []
    original = GradedIdeal._build_piece

    def build(self, d):
        piece = original(self, d)
        built.append(piece)
        return piece

    monkeypatch.setattr(GradedIdeal, "_build_piece", build)
    calls = {"add_row": 0, "_sparse": 0}
    for name in calls:
        method = getattr(HermiteLattice, name)

        def counting(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(HermiteLattice, name, counting)
    presentations = []

    def keep(config):
        pres = strict_presentation(config)
        presentations.append(pres)
        return pres

    monkeypatch.setattr(skychow.cli, "strict_presentation", keep)
    image_sets = []

    def counting_images(config):
        image_sets.append(_rho_images(config))
        return image_sets[-1]

    monkeypatch.setattr(skychow.cli, "_rho_images", counting_images)
    mapped = []
    substitute = Polynomial.substitute

    def counting_substitute(self, images):
        mapped.append((self, images))
        return substitute(self, images)

    monkeypatch.setattr(Polynomial, "substitute", counting_substitute)
    configs = []

    def loading(path):
        configs.append(load_config(path))
        return configs[-1]

    monkeypatch.setattr(skychow.cli, "load_config", loading)
    path = str(CONFIG_DIR / "threefold_chain.json")
    assert main(["verify", path, "--samples", "20"]) == 0
    (cfg,) = configs
    assert cfg.n == n
    assert "prox" not in vars(cfg)
    assert capsys.readouterr().out.count("PASS") == 5
    assert sorted(piece.degree for piece in built) == list(range(n + 2))
    assert calls["add_row"] > 0 and calls["_sparse"] == calls["add_row"]
    (pres,) = presentations
    assert "relations" not in pres.__dict__  # never expanded
    distinct = {id(f): f for factors in pres.factored for f in factors}
    assert len(mapped) == len(distinct) < sum(map(len, pres.factored))
    assert {id(f) for f, _ in mapped} == set(distinct)
    (images,) = image_sets
    assert all(handed is images for _, handed in mapped)


def test_concurrent_queries_share_one_build_per_slice(monkeypatch):
    # readers skip the lock once a slice is published; a reader must never
    # see a slice that is half built or not yet in Hermite form
    n, s = 3, 6
    rels = total_presentation(ProximityConfig(n=n, s=s)).relations
    rng = Random(8)
    polys = [random_homogeneous(rng, s + 1, rng.randint(1, n + 1)) for _ in range(60)]
    serial = GradedIdeal(s + 1, rels, n + 1)
    expected = [(reduce(serial, p), membership(serial, p)) for p in polys]

    ideal = GradedIdeal(s + 1, rels, n + 1)
    built = []
    original = GradedIdeal._build_piece

    def counting(self, d):
        built.append(d)
        return original(self, d)

    monkeypatch.setattr(GradedIdeal, "_build_piece", counting)
    results = {}

    def worker(k):
        order = polys[k:] + polys[:k]
        results[k] = [(reduce(ideal, p), membership(ideal, p)) for p in order]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert built == list(range(len(built)))  # each slice once, ascending
    for k in range(6):
        assert results[k] == expected[k:] + expected[:k]


@pytest.mark.parametrize("half", (0, 1))
@pytest.mark.parametrize("n", (2, 3))
def test_strict_presentation_is_complete(n, half):
    # rho(strict ideal) lies in the total ideal (verify checks that); a free
    # strict quotient with the total quotient's ranks makes the inclusion an
    # equality, so no strict relation is missing.  Every config with s <= 5,
    # alternate ones per half, so each test stays under the heap-step bound
    configs = [cfg for s in range(1, 6) for cfg in enumerate_proximity_configs(n, s)]
    assert len(configs) == {2: 683, 3: 1035}[n]  # 1718 in all
    for cfg in configs[half::2]:
        assert_strict_quotient_is_total(cfg)


def assert_strict_quotient_is_total(cfg):
    """The strict quotient is free with the ranks of the total quotient;
    returns the strict ideal."""
    n, s = cfg.n, cfg.s
    ideal = GradedIdeal(s + 1, strict_presentation(cfg).relations, n + 1)
    profile = [quotient_structure(ideal, d) for d in range(n + 2)]
    assert [q.rank for q in profile] == [1] + [s + 1] * (n - 1) + [1, 0], cfg
    assert all(q.torsion_free for q in profile), cfg
    return ideal


def test_strict_presentation_of_the_mixed_threefold_is_complete():
    # n=3, s=16: the derived dead columns keep every slice narrow
    cfg = load_config(str(Path(__file__).resolve().parent / "configs" / "threefold_mixed.json"))
    assert (cfg.n, cfg.s) == (3, 16)
    assert_strict_quotient_is_total(cfg)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n, s", [(3, 12), (3, 16), (4, 10)])
def test_seeded_strict_ideals_build_with_small_entries(n, s, seed):
    # Beyond the exhaustive s <= 5 range.  Entries stay small because
    # add_row keeps every lattice reduced; without that, xgcd steps grow
    # them without bound and half of these n = 4 builds stall.
    ideal = assert_strict_quotient_is_total(random_config(Random(seed), n, s))
    for d in range(n + 2):
        rows = ideal.piece(d).lattice.rows
        assert max((abs(c).bit_length() for row in rows for c in row), default=0) <= 8


def derived_dead_count(ideal, d):
    """How many monomials of degree d the slice drops that no unit monomial
    generator divides: the ones only a built slice's Hermite rows show dead."""
    units = [
        next(iter(g.terms)) for g in ideal.generators
        if len(g.terms) == 1 and abs(next(iter(g.terms.values()))) == 1
    ]
    kept = ideal.piece(d).index
    return sum(
        m not in kept and not any(all(a >= b for a, b in zip(m, u)) for u in units)
        for m in monomials_of_degree(ideal.nvars, d, ideal.weights)
    )


def small_ideal(rng, nvars=3, max_degree=4):
    """A seeded ideal of one- and two-term generators of degree 1 or 2 with
    coefficients up to 3, so single terms such as 2*v_i are common."""
    gens = []
    for _ in range(rng.randint(2, 5)):
        monos = monomials_of_degree(nvars, rng.randint(1, 2))
        chosen = rng.sample(monos, rng.randint(1, 2))
        gens.append(Polynomial(nvars, {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in chosen}))
    return GradedIdeal(nvars, gens, max_degree)


def test_derived_dead_columns_match_the_full_reference():
    # every slice of seeded n=3, s=5 strict ideals and of small ideals with
    # non-unit single terms against the full slice, which drops nothing
    rng = Random(28)
    ideals = [
        GradedIdeal(6, strict_presentation(random_config(rng, 3, 5)).relations, 4)
        for _ in range(4)
    ]
    ideals += [small_ideal(rng) for _ in range(40)]
    derived = 0
    for ideal in ideals:
        assert_oracle_matches_full(ideal, rng, queries=10)
        derived += sum(derived_dead_count(ideal, d) for d in range(ideal.max_degree + 1))
    assert derived  # some slice drops a monomial no unit generator divides


def test_top_slice_folds_every_single_repeats_included(monkeypatch):
    # n=3, s=7: the verify benchmark's top slice; the x_i*x_j are dead from
    # degree 2 on, so no multiple of one is folded, and every single goes
    # through add_row, a repeat too.  The lower slices are built first, so
    # only the top slice's rows are counted
    n, s = 3, 7
    ideal = GradedIdeal(s + 1, total_presentation(ProximityConfig(n=n, s=s)).relations, n + 1)
    ideal.piece(n)
    folded = []
    original = HermiteLattice.add_row

    def counting(self, vec):
        folded.append(dict(vec))
        return original(self, vec)

    monkeypatch.setattr(HermiteLattice, "add_row", counting)
    ideal.piece(n + 1)
    monkeypatch.undo()
    # x_i^3 +- x_0^3 times x_i leaves the single x_i^4, times x_0 the single
    # x_0^4 (7 times, each folded), and times any other variable nothing
    singles = [tuple(v.items()) for v in folded if len(v) == 1]
    assert len(singles) == len(folded) == 2 * s
    assert len(set(singles)) == s + 1
    piece, full = assert_matches_full(ideal, n + 1)
    assert piece.lattice.rank == len(piece.monomials) == s + 1
    assert len(full.monomials) == 330


def test_add_row_counts_are_pinned(monkeypatch):
    # the rows each build folds: slices 0..4 of the n=3, s=7 total ideal
    # (verify's benchmark shape) and slices 0..4 of each curve ideal of the
    # (gamma, c1) grid
    calls = []
    original = HermiteLattice.add_row

    def counting(self, vec):
        calls.append(len(vec))
        return original(self, vec)

    monkeypatch.setattr(HermiteLattice, "add_row", counting)
    n, s = 3, 7
    ideal = GradedIdeal(s + 1, total_presentation(ProximityConfig(n=n, s=s)).relations, n + 1)
    per_degree = []
    for d in range(n + 2):
        before = len(calls)
        ideal.piece(d)
        per_degree.append(len(calls) - before)
    # 28 singles x_i*x_j, 7 power relations, then their multiples by x_0
    # (the single x_0^4, 7 times) and by x_i (the single x_i^4)
    assert per_degree == [0, 0, 28, 7, 14]
    # each x_i*x_j is dead in its own degree, so no slice above multiplies
    # it out; each power relation enters those slices with both its terms
    assert [(len(terms), dg) for terms, dg in ideal._live] == [(2, n)] * s
    per_ideal = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # gamma = 1 warns
        grid = [CurveRingParams(gamma=g, c1=c1) for g in range(1, 9) for c1 in range(-8, 9)]
    for params in grid:
        before = len(calls)
        curve_ideal(params).piece(4)
        per_ideal.append(len(calls) - before)
    assert len(per_ideal) == 136
    assert sum(per_ideal) == 2296
    assert min(per_ideal) == 15 and max(per_ideal) == 17


def test_total_slices_keep_the_pure_powers_above_degree_two():
    # the x_i*x_j are unit monomial generators: above degree 2 only the
    # s + 1 pure powers are columns, and in degree 2 they stay as columns
    n, s = 3, 7
    ideal = GradedIdeal(s + 1, total_presentation(ProximityConfig(n=n, s=s)).relations, n + 1)
    powers = lambda d: tuple(tuple(d if t == i else 0 for t in range(s + 1)) for i in range(s, -1, -1))
    assert ideal.piece(n + 1).monomials == powers(n + 1)
    assert ideal.piece(n).monomials == powers(n)
    assert ideal.piece(2).monomials == tuple(monomials_of_degree(s + 1, 2))
    assert [len(ideal.piece(d).monomials) for d in range(n + 2)] == [1, 8, 36, 8, 8]


def test_singles_sharing_a_column_keep_their_coefficients():
    # 2*v0*v1 and 3*v1*v0 land in one column: folding only the first would
    # leave the pivot 2 where the lattice has gcd(2, 3) = 1.  That row is
    # then the single 1, so v0*v1 is dead above degree 2; the single row
    # 2*v0 of degree 2, with pivot 2, kills nothing
    v = [Polynomial.variable(3, i) for i in range(3)]
    ideal = GradedIdeal(3, [2 * v[0], 3 * v[1], 2 * v[0] * v[2], v[1] * v[2]], 3)
    for d in range(ideal.max_degree + 1):
        assert_matches_full(ideal, d)  # torsion included
    assert (1, 1, 0) in ideal.piece(2).index  # dead only above its own degree
    assert (1, 1, 1) not in ideal.piece(3).index
    assert (2, 0, 0) in ideal.piece(2).index
    assert (3, 0, 0) in ideal.piece(3).index  # its multiples stay columns
    assert (0, 1, 1) in ideal.piece(2).index  # a unit generator of its own degree
    assert (0, 2, 1) not in ideal.piece(3).index  # a multiple of one
    assert quotient_structure(ideal, 1).torsion == (6,)  # Z/2 + Z/3
    assert membership(ideal, v[0] * v[1])


def _package_imports(tree):
    """Names of skychow modules imported by a parsed module of the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = node.module.split(".") if node.module else []
            elif node.module.split(".")[0] == "skychow":
                parts = node.module.split(".")[1:]
            else:
                continue
            found.update(parts[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "skychow":
                    found.add(".".join(parts[1:2]) or "skychow")
    return found


def test_oracle_shares_no_code_with_the_rewrite_engine():
    # the oracle checks chowring/finality/proximity/curve, so it may only
    # build on the polynomial layer
    tree = ast.parse(Path(skychow.oracle.__file__).read_text(encoding="utf-8"))
    assert _package_imports(tree) == {"poly"}
