"""The integer lattice machinery and the graded ideal oracle.

The lattice layer is cross-checked against sympy's Smith normal form and
rank on random matrices; the ideal layer is pinned down by hand-derived
memberships and by coset identities that hold for any correct reduction.
"""

from __future__ import annotations

import ast
from pathlib import Path
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

import skychow.oracle
from helpers import DenseHermiteLattice, cached_total_ideal
from skychow.chowring import strict_presentation, total_presentation
from skychow.cli import load_config
from skychow.curve import CurveRingParams, curve_ideal
from skychow.oracle import (
    GradedIdeal,
    HermiteLattice,
    membership,
    minimal_generator_count,
    quotient_rank,
    quotient_structure,
    rational_membership,
    reduce,
)
from skychow.poly import Polynomial, monomials_of_degree, random_homogeneous
from skychow.proximity import ProximityConfig


def random_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


class TestHermiteLattice:
    def test_single_row_normalizes_sign(self):
        lat = HermiteLattice(2)
        assert lat.add_row([-3, 6])
        assert lat.rows == [[3, -6]]
        assert lat.pivot_cols == [0]

    def test_gcd_of_colinear_rows(self):
        lat = HermiteLattice(2)
        lat.add_row([4, 0])
        grew = lat.add_row([6, 0])
        assert not grew  # same pivot column, rank unchanged
        assert lat.pivot_values() == [2]
        assert lat.contains([2, 0])
        assert not lat.contains([1, 0])

    def test_membership_frozen_case(self):
        # rows (2, 1, 0) and (0, 3, 1): their sum and integer combos only
        lat = HermiteLattice(3)
        lat.add_row([2, 1, 0])
        lat.add_row([0, 3, 1])
        assert lat.contains([2, 4, 1])
        assert lat.contains([4, 2, 0])
        assert not lat.contains([1, 2, 0])
        assert not lat.contains([0, 0, 1])

    def test_reduce_is_canonical_on_cosets(self):
        lat = HermiteLattice(3)
        lat.add_row([2, 1, 0])
        lat.add_row([0, 3, 1])
        v = [5, -7, 2]
        shifted = [5 + 2, -7 + 1, 2]
        assert lat.reduce_vector(v) == lat.reduce_vector(shifted)
        residue = lat.reduce_vector(v)
        # the residue differs from v by a lattice element
        assert lat.contains([a - b for a, b in zip(v, residue)])

    def test_width_mismatch(self):
        lat = HermiteLattice(2)
        with pytest.raises(ValueError):
            lat.add_row([1, 2, 3])
        with pytest.raises(ValueError):
            lat.reduce_vector([1])
        for column in (-1, 2):
            with pytest.raises(ValueError, match="outside 0..1"):
                lat.add_row({column: 1})
            with pytest.raises(ValueError, match="outside 0..1"):
                lat.contains({0: 1, column: 1})

    @given(st.integers(0, 2**30))
    def test_rank_and_divisors_match_sympy(self, seed):
        rng = Random(seed)
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, bound=6)
        lat = HermiteLattice(cols)
        for row in m:
            lat.add_row(row)
        sym = Matrix(m)
        assert lat.rank == sym.rank()
        snf = smith_normal_form(sym)
        expected = sorted(
            abs(snf[i, i]) for i in range(min(rows, cols)) if snf[i, i] != 0
        )
        assert sorted(lat.elementary_divisors()) == expected

    @given(st.integers(0, 2**30))
    def test_reduce_kills_exactly_the_lattice(self, seed):
        rng = Random(seed)
        cols = rng.randint(2, 5)
        m = random_matrix(rng, rng.randint(1, 4), cols, bound=5)
        lat = HermiteLattice(cols)
        for row in m:
            lat.add_row(row)
        v = [rng.randint(-9, 9) for _ in range(cols)]
        residue = lat.reduce_vector(v)
        assert lat.contains([a - b for a, b in zip(v, residue)])
        # shifting by any input row leaves the canonical representative alone
        for row in m:
            shifted = [a + b for a, b in zip(v, row)]
            assert lat.reduce_vector(shifted) == residue

    @given(st.integers(0, 2**30))
    def test_matches_the_dense_reference(self, seed):
        # Entries sharing factors make non-unit pivots and xgcd merges common.
        # At most six rows: the Smith reference grows its entries fast.
        rng = Random(seed)
        width = rng.randint(1, 12)
        density = rng.uniform(0.1, 1)
        entries = (-12, -6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 12)

        def draw():
            return [rng.choice(entries) if rng.random() < density else 0 for _ in range(width)]

        def sparse(vec):
            return {t: c for t, c in enumerate(vec) if c}

        lat, ref = HermiteLattice(width), DenseHermiteLattice(width)
        added = []
        for _ in range(rng.randint(1, 6)):
            row = draw()
            added.append(row)
            given_row = row if rng.random() < 0.5 else sparse(row)
            assert lat.add_row(given_row) == ref.add_row(row)
            assert lat.rows == ref.rows
            assert lat.pivot_cols == ref.pivot_cols
            coefs = [rng.randint(-2, 2) for _ in added]
            member = [sum(k * r[t] for k, r in zip(coefs, added)) for t in range(width)]
            for v in (draw(), member):
                residue = ref.reduce_vector(v)
                assert lat.reduce_vector(v) == residue
                assert lat.reduce_vector(sparse(v)) == sparse(residue)
                assert lat.contains(v) == ref.contains(v)
            assert ref.contains(member)
            assert lat.rows == ref.rows  # after back-substitution
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

    def test_generator_degree_must_fit(self):
        gens = total_presentation(ProximityConfig(n=2, s=2)).relations
        with pytest.raises(ValueError, match="max_degree"):
            GradedIdeal(3, gens, 1)

    def test_minimal_generators_need_headroom(self):
        gens = total_presentation(ProximityConfig(n=2, s=2)).relations
        tight = GradedIdeal(3, gens, 2)
        with pytest.raises(ValueError, match="max_degree"):
            minimal_generator_count(tight)

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


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def example_ideals():
    for path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = load_config(str(path))
        for pres in (total_presentation(cfg), strict_presentation(cfg)):
            yield GradedIdeal(cfg.s + 1, pres.relations, cfg.n + 1)
    for gamma, c1 in ((2, 4), (3, 6), (4, -2), (5, 7), (6, 1)):
        yield curve_ideal(CurveRingParams(gamma=gamma, c1=c1))


def reference_lattice(ideal, piece, proper_multiples_only):
    """Fold the rows g*m, as Polynomial products, into the dense reference."""
    width = len(piece.monomials)
    lat = DenseHermiteLattice(width)
    low = 1 if proper_multiples_only else 0
    for g in ideal.generators:
        r = piece.degree - g.homogeneous_degree(ideal.weights)
        if r < low:
            continue
        for m in monomials_of_degree(ideal.nvars, r, ideal.weights):
            row = [0] * width
            for exps, coef in (g * Polynomial.monomial(ideal.nvars, m)).terms.items():
                row[piece.index[exps]] = coef
            lat.add_row(row)
    return lat


def test_slices_match_polynomial_product_rows():
    for ideal in example_ideals():
        for d in range(ideal.max_degree + 1):
            for proper in (False, True):
                piece = ideal.piece(d, proper_multiples_only=proper)
                expected = reference_lattice(ideal, piece, proper)
                assert piece.lattice.rows == expected.rows
                assert piece.lattice.pivot_cols == expected.pivot_cols


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
