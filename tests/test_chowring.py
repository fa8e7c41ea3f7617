"""Canonical forms, ring arithmetic, presentations and the strict-to-total map."""

from __future__ import annotations

from math import comb
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import cached_total_ideal, random_config, reference_rho
from skychow import oracle
from skychow.chowring import (
    ChowElement,
    Presentation,
    degree_integral,
    divisor_product,
    from_divisor,
    graded_rank,
    normal_form,
    rho,
    strict_presentation,
    total_presentation,
)
from skychow.poly import Polynomial, format_polynomial, random_homogeneous
from skychow.proximity import (
    DivisorVector,
    ProximityConfig,
    change_of_basis,
    hyperplane,
    invert_unitriangular,
    strict_class_in_total,
    strict_exceptional,
    strict_to_total,
    total_exceptional,
)

SURFACE = ProximityConfig(n=2, s=2, prox=frozenset({(2, 1)}))
THREEFOLD = ProximityConfig(n=3, s=2, prox=frozenset({(2, 1)}))


def ring_elements(cfg, max_degree=None):
    top = cfg.n + 1 if max_degree is None else max_degree

    @st.composite
    def build(draw):
        seed = draw(st.integers(0, 2**30))
        degree = draw(st.integers(0, top))
        rng = Random(seed)
        if degree == 0:
            return ChowElement.one(cfg.n, cfg.s) * rng.randint(-4, 4)
        return normal_form(cfg, random_homogeneous(rng, cfg.s + 1, degree))

    return build()


class TestNormalForm:
    def test_mixed_monomials_vanish(self):
        p = Polynomial.monomial(3, (0, 1, 1))
        assert normal_form(SURFACE, p).is_zero()

    def test_pure_power_rewrites_with_sign(self):
        p = Polynomial.monomial(3, (0, 2, 0))
        el = normal_form(SURFACE, p)
        assert el.top == -1 and el.deg0 == 0
        assert str(el) == "-x0^2"

    def test_odd_dimension_drops_the_sign(self):
        p = Polynomial.monomial(3, (0, 3, 0))
        assert normal_form(THREEFOLD, p).top == 1

    def test_x0_power_above_top_degree_vanishes(self):
        p = Polynomial.monomial(3, (3, 0, 0))
        assert normal_form(SURFACE, p).is_zero()
        # independent confirmation: it really lies in the defining ideal
        assert oracle.membership(cached_total_ideal(2, 2), p)

    def test_variable_count_is_checked(self):
        with pytest.raises(ValueError, match="variables"):
            normal_form(SURFACE, Polynomial.monomial(2, (1, 0)))

    @given(ring_elements(SURFACE))
    def test_canonical_representative_round_trips(self, el):
        assert normal_form(SURFACE, el.to_polynomial()) == el

    @given(st.integers(0, 2**30))
    def test_normal_form_is_multiplicative(self, seed):
        rng = Random(seed)
        p = random_homogeneous(rng, 3, rng.randint(1, 2))
        q = random_homogeneous(rng, 3, rng.randint(1, 2))
        assert normal_form(SURFACE, p * q) == normal_form(SURFACE, p) * normal_form(
            SURFACE, q
        )


class TestStorage:
    """The sparse term dict: canonical keys only, printed like its polynomial."""

    @given(st.integers(2, 6), st.integers(1, 40), st.integers(0, 2**30))
    def test_printing_and_storage_invariants(self, n, s, seed):
        rng = Random(seed)
        cfg = ProximityConfig(n=n, s=s)
        # monomials on at most three variables, x0 favoured: pure powers
        # survive the normal form (and may cancel), mixed ones vanish
        terms = []
        for _ in range(rng.randint(0, 10)):
            exps = [0] * (s + 1)
            d = rng.randint(0, n + 1)
            for _ in range(d):
                exps[rng.choice((0, rng.randint(0, s), rng.randint(0, s)))] += 1
            terms.append((exps, rng.randint(-2, 2)))
        p = Polynomial(s + 1, terms)
        el = normal_form(cfg, p)
        names = tuple("x%d" % i for i in range(s + 1))
        assert str(el) == format_polynomial(el.to_polynomial(), names)
        assert all(el.terms.values())
        for d, i in el.terms:
            assert (d, i) in ((0, 0), (n, 0)) or (1 <= d < n and 0 <= i <= s)
        zero = el + (-el)
        assert zero == ChowElement.zero(n, s)
        assert hash(zero) == hash(ChowElement.zero(n, s))


class TestRingArithmetic:
    @given(ring_elements(SURFACE), ring_elements(SURFACE), ring_elements(SURFACE))
    def test_ring_axioms(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ChowElement.zero(2, 2)
        assert a * ChowElement.one(2, 2) == a

    def test_mismatched_rings_are_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            ChowElement.one(2, 2) * ChowElement.one(3, 2)

    def test_top_degree_truncates(self):
        h = from_divisor(SURFACE, hyperplane(SURFACE))
        assert (h**3).is_zero()
        assert degree_integral(h**2) == 1


class TestDivisors:
    def test_strict_class_canonical_form(self):
        e1 = from_divisor(SURFACE, strict_exceptional(SURFACE, 1))
        assert e1.component(1) == (0, 1, -1)

    def test_zero_vector_gives_zero(self):
        z = from_divisor(SURFACE, DivisorVector.total((0, 0, 0)))
        assert z.is_zero()

    def test_surface_intersection_numbers(self):
        e1 = from_divisor(SURFACE, strict_exceptional(SURFACE, 1))
        e2 = from_divisor(SURFACE, strict_exceptional(SURFACE, 2))
        assert degree_integral(e1 * e2) == 1
        assert degree_integral(e1 * e1) == -2
        assert degree_integral(e2 * e2) == -1

    @given(st.integers(0, 2**30))
    def test_total_self_intersections(self, seed):
        rng = Random(seed)
        cfg = random_config(rng, rng.choice((2, 3)), rng.randint(1, 4))
        n, s = cfg.n, cfg.s
        h = from_divisor(cfg, hyperplane(cfg))
        assert degree_integral(h**n) == 1
        for i in range(1, s + 1):
            ei_tot = from_divisor(
                cfg, DivisorVector.total(tuple(1 if t == i else 0 for t in range(s + 1)))
            )
            assert degree_integral(ei_tot**n) == (-1) ** (n + 1)
            assert (h * ei_tot).is_zero()

    @given(st.integers(0, 2**30))
    def test_strict_power_constant(self, seed):
        # (strict class)^n collapses to -((-1)^n + m_i) times the point class
        rng = Random(seed)
        cfg = random_config(rng, rng.choice((2, 3)), rng.randint(1, 4))
        n = cfg.n
        point = normal_form(cfg, Polynomial.monomial(cfg.s + 1, (n,) + (0,) * cfg.s))
        for i in range(1, cfg.s + 1):
            e = from_divisor(cfg, strict_exceptional(cfg, i))
            m_i = len(cfg.proximate_points(i))
            assert e**n == point * -((-1) ** n + m_i)


class TestClosedFormProducts:
    """divisor_product and strict_class_in_total against the dense, general routes."""

    @given(st.integers(2, 8), st.integers(1, 50), st.integers(0, 2**30))
    def test_product_matches_ring_products(self, n, s, seed):
        rng = Random(seed)
        cfg = random_config(rng, n, s)
        for _ in range(3):
            factors = []
            for _ in range(rng.randint(1, n)):
                kind = rng.choice("hEe")
                if kind == "h":
                    vec = hyperplane(cfg)
                elif kind == "E":
                    vec = total_exceptional(cfg, rng.randint(1, s))
                else:
                    vec = strict_exceptional(cfg, rng.randint(1, s))
                factors.append((vec, rng.randint(1, 3)))
            expected = ChowElement.one(n, s)
            for vec, k in factors:
                expected = expected * from_divisor(cfg, vec) ** k
            got = divisor_product(cfg, factors)
            assert got == expected
            assert str(got) == str(expected)

    @given(st.integers(2, 8), st.integers(1, 50), st.integers(0, 2**30))
    def test_sparse_strict_class_matches_the_dense_conversion(self, n, s, seed):
        cfg = random_config(Random(seed), n, s)
        for i in range(1, s + 1):
            dense = strict_to_total(cfg, strict_exceptional(cfg, i)).coords
            sparse = strict_class_in_total(cfg, i)
            assert list(sparse.items()) == [(t, c) for t, c in enumerate(dense) if c]

    def test_rejects_empty_products_and_zero_exponents(self):
        with pytest.raises(ValueError, match="at least one factor"):
            divisor_product(SURFACE, [])
        with pytest.raises(ValueError, match="exponent"):
            divisor_product(SURFACE, [(hyperplane(SURFACE), 1), (hyperplane(SURFACE), 0)])
        with pytest.raises(ValueError, match="out of range"):
            strict_class_in_total(SURFACE, 3)


class TestPresentations:
    def test_total_single_point(self):
        pres = total_presentation(ProximityConfig(n=2, s=1))
        x0x1 = Polynomial.monomial(2, (1, 1))
        binom = Polynomial(2, {(0, 2): 1, (2, 0): 1})
        assert pres.relations == (x0x1, binom)
        assert pres.variables == ("x0", "x1")
        assert pres.basis == "total"

    def test_total_relation_count(self):
        for n, s in ((2, 3), (3, 4), (4, 2)):
            pres = total_presentation(ProximityConfig(n=n, s=s))
            assert len(pres.relations) == comb(s + 1, 2) + s

    def test_total_is_proximity_independent(self):
        chain = ProximityConfig(n=2, s=3, prox=frozenset({(2, 1), (3, 2)}))
        scattered = ProximityConfig(n=2, s=3)
        assert total_presentation(chain) == total_presentation(scattered)

    def test_strict_surface_relations(self):
        pres = strict_presentation(SURFACE)
        y0y1 = Polynomial.monomial(3, (1, 1, 0))
        y0y2 = Polynomial.monomial(3, (1, 0, 1))
        mixed = Polynomial(3, {(0, 1, 1): 1, (0, 0, 2): 1})  # (y1 + y2) * y2
        pow1 = Polynomial(3, {(0, 2, 0): 1, (2, 0, 0): 2})
        pow2 = Polynomial(3, {(0, 0, 2): 1, (2, 0, 0): 1})
        assert set(pres.relations) == {y0y1, y0y2, mixed, pow1, pow2}
        assert pres.variables == ("y0", "y1", "y2")
        assert pres.basis == "strict"

    def test_strict_relations_are_homogeneous(self):
        cfg = ProximityConfig(n=3, s=4, prox=frozenset({(2, 1), (4, 2), (4, 3)}))
        for rel in strict_presentation(cfg).relations:
            assert rel.homogeneous_degree() in (2, 3)

    @given(st.integers(0, 2**30))
    def test_strict_relations_match_the_dense_inverse(self, seed):
        # reference: the mixed relations built from the dense matrix B^-1
        rng = Random(seed)
        cfg = random_config(rng, rng.randint(2, 4), rng.randint(1, 16))
        n, nv = cfg.n, cfg.s + 1
        binv = invert_unitriangular(change_of_basis(cfg, cfg.s))
        y = [Polynomial.variable(nv, t) for t in range(nv)]
        combos = [None]
        for i in range(1, nv):
            combo = y[i]
            for k in range(i + 1, nv):
                combo = combo + binv[k - 1][i - 1] * y[k]
            combos.append(combo)
        point = Polynomial.monomial(nv, (n,) + (0,) * cfg.s)
        expected = (
            [y[0] * y[i] for i in range(1, nv)]
            + [combos[i] * combos[j] for i in range(1, nv) for j in range(i + 1, nv)]
            + [
                y[i] ** n + ((-1) ** n + len(cfg.proximate_points(i))) * point
                for i in range(1, nv)
            ]
        )
        assert strict_presentation(cfg).relations == tuple(expected)

    @given(st.integers(0, 2**30))
    def test_strict_relations_map_into_the_total_ideal(self, seed):
        rng = Random(seed)
        cfg = random_config(rng, rng.choice((2, 3)), rng.randint(1, 4))
        ideal = cached_total_ideal(cfg.n, cfg.s)
        for rel in strict_presentation(cfg).relations:
            image = rho(cfg, rel)
            assert normal_form(cfg, image).is_zero()
            assert oracle.membership(ideal, image)


class TestRho:
    def test_images(self):
        # y1 picks up -x2 because the second point is proximate to the first
        y1 = Polynomial.variable(3, 1)
        assert rho(SURFACE, y1) == Polynomial(3, {(0, 1, 0): 1, (0, 0, 1): -1})
        y0 = Polynomial.variable(3, 0)
        assert rho(SURFACE, y0) == Polynomial.variable(3, 0)

    def test_power_relation_lands_in_the_ideal(self):
        rel = Polynomial(3, {(0, 2, 0): 1, (2, 0, 0): 2})  # y1^2 + 2 y0^2
        image = rho(SURFACE, rel)
        expected = Polynomial(
            3, {(0, 2, 0): 1, (0, 1, 1): -2, (0, 0, 2): 1, (2, 0, 0): 2}
        )
        assert image == expected
        assert normal_form(SURFACE, image).is_zero()

    @given(st.integers(0, 2**30))
    def test_rho_is_a_ring_map(self, seed):
        rng = Random(seed)
        cfg = random_config(rng, 2, 3)
        p = random_homogeneous(rng, 4, rng.randint(1, 2))
        q = random_homogeneous(rng, 4, rng.randint(1, 2))
        assert rho(cfg, p * q) == rho(cfg, p) * rho(cfg, q)
        assert rho(cfg, p + q) == rho(cfg, p) + rho(cfg, q)


    @given(st.integers(0, 2**30))
    def test_matches_the_term_by_term_expansion(self, seed):
        rng = Random(seed)
        n = rng.randint(2, 4)
        cfg = random_config(rng, n, rng.randint(1, 12))
        for rel in strict_presentation(cfg).relations:
            assert rho(cfg, rel) == reference_rho(cfg, rel)
        for _ in range(4):
            # a sum over several degrees, so inhomogeneous input is covered too
            p = Polynomial.zero(cfg.s + 1)
            for _ in range(rng.randint(1, 3)):
                p = p + random_homogeneous(rng, cfg.s + 1, rng.randint(0, n + 1))
            assert rho(cfg, p) == reference_rho(cfg, p)


class TestGradedRank:
    def test_profile(self):
        cfg = ProximityConfig(n=3, s=4)
        assert [graded_rank(cfg, d) for d in range(0, 6)] == [1, 5, 5, 1, 0, 0]

    def test_surface_profile(self):
        assert [graded_rank(SURFACE, d) for d in range(0, 4)] == [1, 3, 1, 0]

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            graded_rank(SURFACE, -1)


class TestSerialization:
    def test_json_round_trip_total(self):
        pres = total_presentation(SURFACE)
        doc = pres.to_json_dict()
        assert Presentation.from_json_dict(doc) == pres

    def test_json_round_trip_strict(self):
        cfg = ProximityConfig(n=3, s=3, prox=frozenset({(2, 1), (3, 1)}))
        pres = strict_presentation(cfg)
        assert Presentation.from_json_dict(pres.to_json_dict()) == pres

    def test_text_form(self):
        text = total_presentation(SURFACE).to_text()
        assert text.splitlines() == [
            "variables: x0 x1 x2",
            "x0*x1",
            "x0*x2",
            "x1*x2",
            "x1^2 + x0^2",
            "x2^2 + x0^2",
        ]
