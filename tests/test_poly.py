"""Polynomial layer: arithmetic, the global monomial order, serialization."""

from __future__ import annotations

from itertools import product
from math import comb
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skychow.poly import (
    Polynomial,
    format_polynomial,
    monomial_key,
    monomials_of_degree,
    poly_from_term_list,
    poly_to_term_list,
    random_homogeneous,
)


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
