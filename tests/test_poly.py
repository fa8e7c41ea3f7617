"""Polynomial layer: arithmetic, the global monomial order, serialization."""

from __future__ import annotations

from itertools import product
from math import comb
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    assert_well_stored,
    cached_total_ideal,
    expand_substitute,
    reference_random_homogeneous,
    small_polys,
)
from skychow import oracle
from skychow.chowring import normal_form
from skychow.poly import (
    Polynomial,
    _slice,
    format_polynomial,
    monomial_key,
    monomials_of_degree,
    random_homogeneous,
)
from skychow.proximity import ProximityConfig


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


@pytest.mark.parametrize("weights", [(1.5, 1), (True, 1), ("1", 1)])
def test_weights_must_be_ints(weights):
    # a float, a bool or a string is refused, never read as an int
    message = "weights must be 2 positive integers"
    with pytest.raises(ValueError, match=message):
        monomials_of_degree(2, 2, weights)
    with pytest.raises(ValueError, match=message):
        random_homogeneous(Random(0), 2, 2, weights)


def test_constructor_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): 1})
    with pytest.raises(ValueError, match=r"^exponent vector \(1\.0, 0\) is not of nonnegative ints$"):
        Polynomial(2, {(1.0, 0): 1})


@pytest.mark.parametrize("coef", [0.5, True, "1"])
def test_constructor_rejects_non_int_coefficients(coef):
    # a float, a bool or a string is refused, never summed as a coefficient
    with pytest.raises(ValueError, match="^coefficient %r is not an int$" % (coef,)):
        Polynomial(2, {(1, 0): coef, (0, 1): 2})


def test_comparison_with_a_bool_reads_it_as_its_int():
    # the constructor refuses a bool term, but == follows Python's True == 1
    one = Polynomial.constant(2, 1)
    assert one == True and one != False
    assert Polynomial.zero(2) == False


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


def test_substitute_refuses_bad_images():
    p = Polynomial.variable(2, 0)
    with pytest.raises(ValueError, match="^need 2 images, got 1$"):
        p.substitute([Polynomial.variable(3, 0)])
    with pytest.raises(ValueError, match="^cannot substitute in a ring with no variables$"):
        Polynomial(0, {(): 2}).substitute([])
    with pytest.raises(ValueError, match="^images live in different rings$"):
        p.substitute([Polynomial.variable(3, 0), Polynomial.variable(2, 1)])


def test_no_variables_have_only_the_constant():
    assert monomials_of_degree(0, 0) == [()]
    assert monomials_of_degree(0, 1) == []


@pytest.mark.parametrize(
    "p",
    [
        Polynomial.variable(3, 1),  # the image itself, by the first power
        Polynomial(3, {(0, 1, 0): -2}),
        Polynomial(3, {(0, 1, 0): 1, (2, 0, 0): 1, (1, 2, 1): 3}),
    ],
    ids=["variable", "scaled-variable", "mixed"],
)
def test_substitute_leaves_the_images_alone(p):
    x = [Polynomial.variable(2, i) for i in range(2)]
    images = [x[0] + x[1], x[0] - 2 * x[1], x[1]]
    before = [dict(img.terms) for img in images]
    got = p.substitute(images)
    assert got == expand_substitute(p, images)
    assert [img.terms for img in images] == before
    assert all(got.terms is not img.terms for img in images)
    # the result is free to change without reaching an image
    got.terms.clear()
    assert [img.terms for img in images] == before


def test_formatting():
    names = ("x0", "x1", "x2")
    assert format_polynomial(Polynomial.zero(3), names) == "0"
    assert format_polynomial(Polynomial.constant(3, -3), names) == "-3"
    p = Polynomial(3, {(0, 2, 0): 1, (2, 0, 0): 2})
    assert format_polynomial(p, names) == "x1^2 + 2*x0^2"
    q = Polynomial(3, {(2, 0, 0): -1, (1, 1, 0): 1})
    assert format_polynomial(q, names) == "x0*x1 - x0^2"


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


def test_unweighted_slices_share_the_unit_weight_enumeration():
    for nvars, degree in ((1, 3), (4, 2), (8, 4)):
        assert _slice(nvars, degree, None) is _slice(nvars, degree, (1,) * nvars)
    assert _slice(3, -1, None) == ()
    for _ in range(2):  # a refused variable count is not cached
        with pytest.raises(ValueError, match="weights must be -1 positive integers"):
            monomials_of_degree(-1, 2)


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


# (nvars, degree) slices of 21 and 22 monomials: sample keeps a shrinking
# pool up to 21 items and rejects repeated positions above that
SAMPLE_EDGES = ((2, 20), (6, 2), (21, 1), (2, 21), (22, 1))


@pytest.mark.parametrize("weighted", (False, True))
def test_random_homogeneous_draws_what_the_stdlib_calls_draw(weighted):
    # the same terms in the same order, and the stream left at the same
    # place: the next draw from each generator agrees too
    shapes = [(nv, d) for nv in range(1, 11) for d in range(6)] + list(SAMPLE_EDGES)
    seen = set()
    for seed in range(12):
        pick = Random(1000 + seed)
        ours, theirs = Random(seed), Random(seed)
        for nvars, degree in shapes:
            weights = tuple(pick.randint(1, 3) for _ in range(nvars)) if weighted else None
            p = random_homogeneous(ours, nvars, degree, weights)
            q = reference_random_homogeneous(theirs, nvars, degree, weights)
            assert list(p.terms.items()) == list(q.terms.items())
            assert ours.random() == theirs.random()
            seen.add((len(_slice(nvars, degree, weights)) <= 21, len(p.terms)))
    expected = {(small, k) for small in (True, False) for k in range(1, 5)}
    assert seen >= expected


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
        images = [random_homogeneous(rng, 2, rng.randint(0, 2)) for _ in range(nv)]
        assert_well_stored(p.substitute(images))
