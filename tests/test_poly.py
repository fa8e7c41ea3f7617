"""Polynomial layer: arithmetic, the global monomial order, serialization."""

from __future__ import annotations

from itertools import product
from math import comb
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import assert_well_stored, cached_total_ideal, expand_substitute
from skychow import oracle
from skychow.chowring import normal_form
from skychow.poly import (
    Polynomial,
    format_polynomial,
    monomial_key,
    monomials_of_degree,
    poly_from_term_list,
    poly_to_term_list,
    random_homogeneous,
)
from skychow.proximity import ProximityConfig


def small_polys(nvars=3, max_exp=3, max_terms=4):
    exps = st.tuples(*(st.integers(0, max_exp) for _ in range(nvars)))
    term = st.tuples(exps, st.integers(-9, 9))
    return st.lists(term, max_size=max_terms).map(lambda t: Polynomial(nvars, t))


def test_monomial_order_degree_two_three_vars():
    # graded lex, last variable largest: anything containing x2 outranks the rest
    got = monomials_of_degree(3, 2)
    assert got == [
        (0, 0, 2),
        (0, 1, 1),
        (1, 0, 1),
        (0, 2, 0),
        (1, 1, 0),
        (2, 0, 0),
    ]
    # each call hands out a fresh list: mutating one leaves the next intact
    got.reverse()
    got.append((9, 9, 9))
    assert monomials_of_degree(3, 2)[0] == (0, 0, 2)
    assert len(monomials_of_degree(3, 2)) == 6


def test_monomial_order_is_graded():
    assert monomial_key((3, 0, 0)) < monomial_key((0, 0, 4))
    assert monomial_key((0, 2, 0)) < monomial_key((0, 0, 2))


def test_monomial_counts():
    for nvars in (2, 3, 5):
        for d in range(0, 5):
            assert len(monomials_of_degree(nvars, d)) == comb(d + nvars - 1, nvars - 1)


@given(
    st.integers(1, 6).flatmap(
        lambda nvars: st.tuples(
            st.just(nvars),
            st.integers(-1, 6),
            st.none() | st.tuples(*(st.integers(1, 3) for _ in range(nvars))),
        )
    )
)
def test_enumeration_matches_brute_force(case):
    nvars, d, weights = case
    w = weights or (1,) * nvars
    ranges = (range(d // wi + 1) for wi in w)
    expected = sorted(
        (e for e in product(*ranges) if sum(a * b for a, b in zip(e, w)) == d),
        key=lambda e: monomial_key(e, weights),
        reverse=True,
    )
    assert monomials_of_degree(nvars, d, weights) == expected


def test_weighted_enumeration_curve_grading():
    # three variables with weights (1, 1, 2): degree-4 slice has 9 monomials
    monos = monomials_of_degree(3, 4, weights=(1, 1, 2))
    assert len(monos) == 9
    assert all(a + b + 2 * c == 4 for a, b, c in monos)
    assert monomials_of_degree(3, 0, weights=(1, 1, 2)) == [(0, 0, 0)]


def test_constructor_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): 1})


def test_constructor_merges_and_drops_zeros():
    p = Polynomial(2, [((1, 0), 2), ((1, 0), -2), ((0, 1), 5)])
    assert p.terms == {(0, 1): 5}


@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p - p == Polynomial.zero(3)
    assert p * Polynomial.constant(3, 1) == p


@given(small_polys())
def test_pow_matches_repeated_mul(p):
    assert p**3 == p * p * p
    assert p**0 == Polynomial.constant(3, 1)


def test_homogeneous_degree():
    p = Polynomial(2, {(2, 0): 1, (0, 2): -1})
    assert p.homogeneous_degree() == 2
    mixed = Polynomial(2, {(2, 0): 1, (1, 0): 1})
    with pytest.raises(ValueError):
        mixed.homogeneous_degree()
    assert Polynomial.zero(2).homogeneous_degree() is None
    weighted = Polynomial(3, {(0, 0, 1): 3, (1, 1, 0): -2})
    assert weighted.homogeneous_degree(weights=(1, 1, 2)) == 2


def test_substitute():
    # p(y0, y1) = y1^2 under y1 -> x1 - x2 lands as a 3-variable polynomial
    p = Polynomial(2, {(0, 2): 1})
    x1 = Polynomial.variable(3, 1)
    x2 = Polynomial.variable(3, 2)
    image = p.substitute([Polynomial.variable(3, 0), x1 - x2])
    assert image == x1 * x1 - 2 * x1 * x2 + x2 * x2


def test_formatting():
    names = ("x0", "x1", "x2")
    assert format_polynomial(Polynomial.zero(3), names) == "0"
    assert format_polynomial(Polynomial.constant(3, -3), names) == "-3"
    p = Polynomial(3, {(0, 2, 0): 1, (2, 0, 0): 2})
    assert format_polynomial(p, names) == "x1^2 + 2*x0^2"
    q = Polynomial(3, {(2, 0, 0): -1, (1, 1, 0): 1})
    assert format_polynomial(q, names) == "x0*x1 - x0^2"


@given(small_polys())
def test_term_list_round_trip(p):
    assert poly_from_term_list(3, poly_to_term_list(p)) == p


def test_term_list_rejects_non_integer_coefficients():
    with pytest.raises(ValueError):
        poly_from_term_list(2, [{"exps": [1, 0], "coef": 1.5}])


@given(st.integers(0, 10_000), st.integers(1, 4))
def test_random_homogeneous_is_homogeneous(seed, degree):
    rng = Random(seed)
    p = random_homogeneous(rng, 4, degree)
    assert not p.is_zero()
    assert p.homogeneous_degree() == degree


def test_random_homogeneous_weighted_empty_slice():
    # no monomials of weighted degree 1 when every weight is 2
    rng = Random(0)
    p = random_homogeneous(rng, 2, 1, weights=(2, 2))
    assert p.is_zero()


# Drawn at a fixed seed before random_homogeneous stopped copying its slice
# and validating its output; verify --seed k samples through this function,
# so these strings pin the polynomials it checks.
PINNED_DRAWS = {
    0: [
        "-5*v7 + 6*v5 + 9*v3 - 8*v1",
        "5*v1*v7 + 9*v6^2 - 2*v4*v5",
        "-9*v2*v6*v7 - 8*v3*v5*v6 + v2*v3*v6 + 6*v3*v4*v5",
        "-v5^4",
        "2*v0^2*v2^2 + 4*v0^3*v2 - 3*v0^2*v1",
    ],
    1: [
        "-2*v6 - 8*v5",
        "-2*v6*v7 - v1*v7 - 7*v1*v6 + 5*v1*v2",
        "v5*v7^2",
        "6*v0*v6*v7^2 - 4*v2^3*v7 + 8*v2*v3*v5^2 - 4*v1*v2*v4^2",
        "9*v2^4 - 2*v0^2*v1 - 3*v1^2",
    ],
    61: [
        "-6*v6 - 5*v5 - v3 - 2*v0",
        "7*v7^2 + 6*v4*v6 + 2*v4^2 - 3*v0*v2",
        "-6*v5*v6^2 - 3*v2^2*v4 - 6*v0^2*v2",
        "-9*v3*v5^2*v7 - 2*v1*v3*v4*v7 + 8*v0^3*v7 - v1*v5^3",
        "3*v1^2",
    ],
}


@pytest.mark.parametrize("seed", sorted(PINNED_DRAWS))
def test_random_homogeneous_draws_are_pinned(seed):
    rng = Random(seed)
    names = tuple("v%d" % i for i in range(8))
    drawn = [format_polynomial(random_homogeneous(rng, 8, d), names) for d in (1, 2, 3, 4)]
    weighted = random_homogeneous(rng, 3, 4, weights=(1, 2, 1))
    drawn.append(format_polynomial(weighted, names[:3]))
    assert drawn == PINNED_DRAWS[seed]


@given(
    small_polys(),
    st.integers(1, 4).flatmap(lambda k: st.lists(small_polys(k, 2, 3), min_size=3, max_size=3)),
)
def test_substitute_matches_the_term_by_term_expansion(p, images):
    # images of any degree, homogeneous or not, zero included
    got = p.substitute(images)
    assert got == expand_substitute(p, images)
    assert_well_stored(got)


class TestStorageInvariant:
    """Polynomials made without revalidation still keep the storage invariant."""

    @given(small_polys(), small_polys(), st.integers(0, 3), st.integers(-2, 2))
    def test_arithmetic(self, p, q, k, c):
        for r in (p * q, p + q, p - q, p - p, p + (-p), p**k, p * c, c * p, p + c, c - p):
            assert_well_stored(r)

    @given(st.integers(0, 2**30))
    def test_sampling_reduction_and_normal_forms(self, seed):
        rng = Random(seed)
        n, s = rng.choice(((2, 2), (2, 4), (3, 3)))
        nv = s + 1
        d = rng.randint(2, n + 1)
        p = random_homogeneous(rng, nv, d)
        assert_well_stored(p)
        ideal = cached_total_ideal(n, s)
        g = ideal.generators[rng.randrange(len(ideal.generators))]
        member = g * random_homogeneous(rng, nv, d - g.homogeneous_degree())
        for r in (p, member, p + member, p - p):
            assert_well_stored(oracle.reduce(ideal, r))
            assert_well_stored(normal_form(ProximityConfig(n=n, s=s), r).to_polynomial())
        piece = ideal.piece(n)
        # a sparse vector with an explicit zero entry
        vec = {t: rng.randint(-2, 2) for t in rng.sample(range(len(piece.monomials)), 3)}
        assert_well_stored(piece.polynomial_of(vec, nv))
        images = [random_homogeneous(rng, 2, rng.randint(0, 2)) for _ in range(nv)]
        assert_well_stored(p.substitute(images))
