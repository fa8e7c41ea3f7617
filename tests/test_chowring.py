"""Canonical forms, ring arithmetic, presentations and the strict-to-total map."""

from __future__ import annotations

import json
import re
from math import comb
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    assert_well_stored,
    cached_total_ideal,
    dense_class,
    parse_indent2,
    random_config,
    read_presentation,
    reference_rho,
    reference_verify_samples,
    small_polys,
    support,
)
from skychow import oracle
from skychow.chowring import (
    ChowElement,
    _add_power,
    _normal_terms,
    _power_terms,
    Presentation,
    degree_integral,
    from_divisor,
    graded_rank,
    normal_form,
    rho,
    sparse_product,
    strict_presentation,
    total_presentation,
)
from skychow.cli import load_config
from skychow.poly import Polynomial, format_polynomial, random_homogeneous
from skychow.proximity import (
    ProximityConfig,
    change_of_basis,
    enumerate_proximity_configs,
    invert_unitriangular,
    strict_class_in_total,
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


def list_rule_normal_form(config, p):
    """Reference for normal_form: the support of each term listed in full,
    mixed terms dropped, the rest through the rewrite rule."""
    terms = {}
    for exps, coef in p.terms.items():
        support = [i for i, e in enumerate(exps) if e]
        if len(support) > 1:
            continue
        i = support[0] if support else 0
        _add_power(terms, config.n, exps[i], i, coef)
    return ChowElement(config.n, config.s, terms)


@st.composite
def mixed_polynomials(draw):
    """(config, polynomial) with constants, pure powers and mixed terms of
    every degree up to past the top, in any term order."""
    n = draw(st.integers(2, 5))
    s = draw(st.integers(1, 6))
    nv = s + 1
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("constant", "pure", "mixed")))
        exps = [0] * nv
        if kind == "pure":
            exps[draw(st.integers(0, s))] = draw(st.integers(1, n + 2))
        elif kind == "mixed":
            for i in draw(st.lists(st.integers(0, s), min_size=2, max_size=4, unique=True)):
                exps[i] = draw(st.integers(1, 3))
        terms.append((tuple(exps), draw(st.integers(-9, 9))))
    return ProximityConfig(n=n, s=s), Polynomial(nv, terms)


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

    @given(mixed_polynomials())
    def test_matches_the_list_based_rule(self, case):
        cfg, p = case
        assert normal_form(cfg, p) == list_rule_normal_form(cfg, p)

    @given(st.integers(0, 2**30))
    def test_normal_form_is_multiplicative(self, seed):
        rng = Random(seed)
        p = random_homogeneous(rng, 3, rng.randint(1, 2))
        q = random_homogeneous(rng, 3, rng.randint(1, 2))
        assert normal_form(SURFACE, p * q) == normal_form(SURFACE, p) * normal_form(
            SURFACE, q
        )

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_term_dict_cores_match_the_wrappers(self, n):
        # verify's check 2 calls _power_terms(nv, _normal_terms(n, t)) on the
        # term dicts it draws; on such draws the cores give what normal_form
        # and to_polynomial give, and only read their input
        rng = Random(30 + n)
        seen = {True: 0, False: 0}  # zero and nonzero normal forms
        for s in range(1, 8):
            nv = s + 1
            chain = ProximityConfig(n=n, s=s, prox=frozenset((j, j - 1) for j in range(2, nv)))
            for config in (random_config(rng, n, s), chain):
                samples = reference_verify_samples(config, 30, rng.randrange(1000))
                for p in samples + [Polynomial.zero(nv)]:
                    terms = dict(p.terms)
                    canonical = _normal_terms(n, terms)
                    nf = normal_form(config, p)
                    assert canonical == nf.terms
                    assert _power_terms(nv, canonical) == nf.to_polynomial().terms
                    assert terms == p.terms
                    seen[not canonical] += 1
        assert _normal_terms(n, {}) == {} and _power_terms(3, {}) == {}
        assert min(seen.values()) > 20


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
    def test_constructor_refuses_small_n(self):
        with pytest.raises(ValueError, match="^need n >= 2 and s >= 1, got n=1 s=1$"):
            ChowElement(1, 1)

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
        h = from_divisor(SURFACE, {0: 1})
        assert (h**3).is_zero()
        assert degree_integral(h**2) == 1


class TestDivisors:
    def test_strict_class_canonical_form(self):
        e1 = from_divisor(SURFACE, strict_class_in_total(SURFACE, 1))
        assert e1.terms == {(1, 1): 1, (1, 2): -1}

    def test_zero_vector_gives_zero(self):
        assert from_divisor(SURFACE, {}).is_zero()
        assert from_divisor(SURFACE, {0: 0, 2: 0}).is_zero()

    def test_surface_intersection_numbers(self):
        e1 = from_divisor(SURFACE, strict_class_in_total(SURFACE, 1))
        e2 = from_divisor(SURFACE, strict_class_in_total(SURFACE, 2))
        assert degree_integral(e1 * e2) == 1
        assert degree_integral(e1 * e1) == -2
        assert degree_integral(e2 * e2) == -1

    @given(st.integers(0, 2**30))
    def test_total_self_intersections(self, seed):
        rng = Random(seed)
        cfg = random_config(rng, rng.choice((2, 3)), rng.randint(1, 4))
        n, s = cfg.n, cfg.s
        h = from_divisor(cfg, {0: 1})
        assert degree_integral(h**n) == 1
        for i in range(1, s + 1):
            ei_tot = from_divisor(cfg, {i: 1})
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
            e = from_divisor(cfg, strict_class_in_total(cfg, i))
            m_i = len(cfg.proximate_points(i))
            assert e**n == point * -((-1) ** n + m_i)


class TestClosedFormProducts:
    """sparse_product and strict_class_in_total against the dense, general routes."""

    @given(st.integers(2, 8), st.integers(1, 50), st.integers(0, 2**30))
    def test_product_matches_ring_products(self, n, s, seed):
        rng = Random(seed)
        cfg = random_config(rng, n, s)
        for _ in range(3):
            atoms = []
            for _ in range(rng.randint(1, n)):
                kind = rng.choice("hEe")
                atoms.append((kind, 0 if kind == "h" else rng.randint(1, s), rng.randint(1, 3)))
            expected = ChowElement.one(n, s)
            for kind, i, k in atoms:
                expected = expected * from_divisor(cfg, support(dense_class(cfg, kind, i))) ** k
            got = sparse_product(
                cfg,
                [
                    (strict_class_in_total(cfg, i) if kind == "e" else {i: 1}, k)
                    for kind, i, k in atoms
                ],
            )
            assert got == expected
            assert str(got) == str(expected)

    @given(st.integers(2, 8), st.integers(1, 50), st.integers(0, 2**30))
    def test_sparse_strict_class_matches_the_dense_conversion(
        self, tmp_path_factory, n, s, seed
    ):
        # a constructed config, and the same one written as JSON and loaded,
        # which holds only its targets lists
        cfg = random_config(Random(seed), n, s)
        doc = {
            "ambient_dimension": n,
            "points": [
                {"id": j, "proximate_to": cfg.proximity_targets(j)} for j in range(1, s + 1)
            ],
        }
        path = tmp_path_factory.getbasetemp() / "random.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        loaded = load_config(str(path))
        for i in range(1, s + 1):
            dense = [(t, c) for t, c in enumerate(dense_class(cfg, "e", i).coords) if c]
            assert list(strict_class_in_total(cfg, i).items()) == dense
            assert list(strict_class_in_total(loaded, i).items()) == dense

    def test_rejects_empty_products_and_zero_exponents(self):
        with pytest.raises(ValueError, match="at least one factor"):
            sparse_product(SURFACE, [])
        with pytest.raises(ValueError, match="exponent"):
            sparse_product(SURFACE, [({0: 1}, 1), ({0: 1}, 0)])
        with pytest.raises(ValueError, match="out of range"):
            strict_class_in_total(SURFACE, 3)

    def test_rejects_coordinates_outside_0_to_s(self):
        cfg = ProximityConfig(n=3, s=5)
        for v in ({6: 1}, {-1: 2}, {0: 1, 6: 1}, {-1: 1, 5: 1}):
            for k in (1, 3, 4):  # below, at and above the top degree
                with pytest.raises(ValueError, match="out of range 0..5"):
                    sparse_product(cfg, [({0: 1, 5: 1}, 1), (v, k)])
            with pytest.raises(ValueError, match="out of range 0..5"):
                from_divisor(cfg, v)
        assert degree_integral(sparse_product(cfg, [({0: 1, 5: 2}, 3)])) == 9
        assert from_divisor(cfg, {0: 1, 5: 2}).terms == {(1, 0): 1, (1, 5): 2}

    @pytest.mark.parametrize("key", [1.5, 1.0, True, "1"])
    def test_rejects_keys_that_are_not_ints(self, key):
        # type, not isinstance or value: True == 1 and 1.0 == 1 would pass
        cfg = ProximityConfig(n=2, s=3, prox=frozenset({(2, 1), (3, 1)}))
        message = "coordinate %r must be an integer" % (key,)
        with pytest.raises(ValueError, match=re.escape(message)):
            sparse_product(cfg, [({key: 1}, 2)])
        with pytest.raises(ValueError, match=re.escape(message)):
            from_divisor(cfg, {0: 1, key: 1})
        message = "exceptional index %r must be an integer" % (key,)
        with pytest.raises(ValueError, match=re.escape(message)):
            strict_class_in_total(cfg, key)


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

    def test_strict_power_relations_match_polynomial_arithmetic(self):
        # each power relation is written as a term dict; the reference builds
        # y_i^n + ((-1)^n + m_i) * y_0^n with Polynomial arithmetic
        rng = Random(29)
        configs = [random_config(rng, n, s) for n in range(2, 6) for s in range(1, 9)]
        # odd n with exactly one point proximate to 1: the constant cancels
        configs += [
            ProximityConfig(n=3, s=2, prox=frozenset({(2, 1)})),
            ProximityConfig(n=5, s=3, prox=frozenset({(3, 1), (3, 2)})),
        ]
        cancelled = 0
        for cfg in configs:
            n, nv = cfg.n, cfg.s + 1
            y = [Polynomial.variable(nv, t) for t in range(nv)]
            powers = strict_presentation(cfg).factored[-cfg.s :]
            for i, factors in enumerate(powers, start=1):
                m_i = len(cfg.proximate_points(i))
                expected = y[i] ** n + ((-1) ** n + m_i) * y[0] ** n
                assert factors == (expected,)
                assert_well_stored(factors[0])
                if (-1) ** n + m_i == 0:
                    cancelled += 1
                    assert factors[0].terms == {(0,) * i + (n,) + (0,) * (nv - 1 - i): 1}
        assert cancelled >= 3

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
        pres = strict_presentation(cfg)
        assert pres.relations == tuple(expected)
        # each L_i is one object, shared by every product it enters
        mixed = pres.factored[cfg.s : cfg.s + comb(cfg.s, 2)]
        pairs = [(i, j) for i in range(1, nv) for j in range(i + 1, nv)]
        shared = {}
        for (i, j), (a, b) in zip(pairs, mixed):
            for k, f in ((i, a), (j, b)):
                assert shared.setdefault(k, f) is f
                assert_well_stored(f)

    @given(st.integers(0, 2**30))
    def test_strict_relations_map_into_the_total_ideal(self, seed):
        rng = Random(seed)
        cfg = random_config(rng, rng.choice((2, 3)), rng.randint(1, 4))
        ideal = cached_total_ideal(cfg.n, cfg.s)
        for rel in strict_presentation(cfg).relations:
            image = rho(cfg, rel)
            assert normal_form(cfg, image).is_zero()
            assert oracle.membership(ideal, image)


class TestFactoredRelations:
    def test_rho_of_the_factors_is_rho_of_the_relation(self):
        # verify maps factors and multiplies the images; the expanded
        # relation must give the same image, on every small config
        configs = 0
        for n in (2, 3):
            for s in range(1, 5):
                for cfg in enumerate_proximity_configs(n, s):
                    configs += 1
                    pres = strict_presentation(cfg)
                    assert "relations" not in pres.__dict__  # not yet expanded
                    assert len(pres.factored) == comb(s + 1, 2) + s
                    for factors, rel in zip(pres.factored, pres.relations):
                        product = factors[0]
                        image = rho(cfg, factors[0])
                        for f in factors[1:]:
                            product = product * f
                            image = image * rho(cfg, f)
                        assert product == rel
                        assert image == rho(cfg, rel)
        assert configs == 142

    def test_products_keep_two_linear_factors(self):
        cfg = ProximityConfig(n=3, s=4, prox=frozenset({(2, 1), (4, 2), (4, 3)}))
        pres = strict_presentation(cfg)
        shapes = [tuple(f.homogeneous_degree() for f in factors) for factors in pres.factored]
        assert shapes == [(1, 1)] * (4 + comb(4, 2)) + [(3,)] * 4
        # L_i is shared by every product it enters
        mixed = pres.factored[4 : 4 + comb(4, 2)]
        assert mixed[0][0] is mixed[1][0] is mixed[2][0]

    def test_presentations_compare_by_their_relations(self):
        pres = strict_presentation(SURFACE)
        expanded = Presentation(pres.variables, tuple((r,) for r in pres.relations), "strict")
        assert expanded == pres and hash(expanded) == hash(pres)
        assert expanded != Presentation(pres.variables, expanded.factored, "total")


class TestRho:
    def test_images(self):
        # y1 picks up -x2 because the second point is proximate to the first
        y1 = Polynomial.variable(3, 1)
        assert rho(SURFACE, y1) == Polynomial(3, {(0, 1, 0): 1, (0, 0, 1): -1})
        y0 = Polynomial.variable(3, 0)
        assert rho(SURFACE, y0) == Polynomial.variable(3, 0)

    def test_variable_count_must_be_s_plus_one(self):
        with pytest.raises(ValueError, match=r"^polynomial has 2 variables, expected s \+ 1 = 3$"):
            rho(SURFACE, Polynomial.variable(2, 0))

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


    def test_images_follow_the_config_in_turn(self):
        # two configs with one (n, s) and different proximities, called in
        # turns, and an equal config that is a distinct object
        a = ProximityConfig(n=3, s=4, prox=frozenset({(2, 1), (3, 2)}))
        b = ProximityConfig(n=3, s=4, prox=frozenset({(3, 1), (4, 1), (4, 3)}))
        a_again = ProximityConfig(n=3, s=4, prox=frozenset({(3, 2), (2, 1)}))
        assert a_again == a and a_again is not a
        rng = Random(5)
        for cfg in (a, b, a, a_again, b, a_again):
            p = random_homogeneous(rng, 5, rng.randint(1, 3))
            assert rho(cfg, p) == reference_rho(cfg, p)
            for k in range(5):
                y = Polynomial.variable(5, k)
                assert rho(cfg, y) == reference_rho(cfg, y)

    def test_mutating_a_result_leaves_the_next_call_alone(self):
        cfg = ProximityConfig(n=2, s=3, prox=frozenset({(2, 1), (3, 1)}))
        for k in range(4):
            y = Polynomial.variable(4, k)
            first = rho(cfg, y)
            first.terms.clear()
            first.terms[(9, 9, 9, 9)] = 7
            assert rho(cfg, y) == reference_rho(cfg, y)


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
        assert read_presentation(json.loads(pres.to_json_text())) == pres

    def test_json_round_trip_strict(self):
        cfg = ProximityConfig(n=3, s=3, prox=frozenset({(2, 1), (3, 1)}))
        pres = strict_presentation(cfg)
        assert pres.basis == "strict"
        assert read_presentation(json.loads(pres.to_json_text())) == pres

    def test_json_text_matches_the_stdlib_encoder(self):
        configs = 0
        for n in (2, 3):
            total = {}
            for s in range(1, 5):
                total[s] = total_presentation(ProximityConfig(n=n, s=s))
                for cfg in enumerate_proximity_configs(n, s):
                    configs += 1
                    for pres in (total[s], strict_presentation(cfg)):
                        doc = parse_indent2(pres.to_json_text())
                        assert read_presentation(doc) == pres
        assert configs == 142

    @given(st.lists(small_polys(), max_size=3))
    def test_json_read_back_of_any_relations(self, relations):
        # not only the ring's relations: read_presentation holds each term
        # list to sorted_terms() order, each term once, with int fields
        factored = tuple((p,) for p in relations)
        pres = Presentation(("x0", "x1", "x2"), factored, "total")
        assert read_presentation(parse_indent2(pres.to_json_text())) == pres

    @pytest.mark.parametrize(
        "pres",
        [
            Presentation(("x0", "x1"), (), "total"),
            Presentation(("x0",), ((Polynomial.constant(1, 0),),), "total"),
            Presentation((), ((Polynomial.constant(0, 3),),), "strict"),
            Presentation(('a"b', "c\\d", "é∂", "\n"), (), "strict"),
        ],
        ids=["no-relations", "zero-relation", "no-variables", "escaped-names"],
    )
    def test_json_text_edge_cases(self, pres):
        assert read_presentation(parse_indent2(pres.to_json_text())) == pres

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
