"""Proximity configurations, change-of-basis matrices, coordinate conversions."""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import dag_path_counts, random_config
from skychow.proximity import (
    DivisorVector,
    InvalidConfigError,
    ProximityConfig,
    augmented_change_of_basis,
    change_of_basis,
    enumerate_proximity_configs,
    invert_unitriangular,
    strict_to_total,
    total_to_strict,
    validate_config,
)

SURFACE = ProximityConfig(n=2, s=2, prox=frozenset({(2, 1)}))


def matvec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def configs(max_n=3, max_s=5):
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_n))
        s = draw(st.integers(1, max_s))
        seed = draw(st.integers(0, 2**30))
        return random_config(Random(seed), n, s)

    return build()


class TestValidation:
    def test_accepts_surface(self):
        assert validate_config(SURFACE) is SURFACE

    def test_rejects_low_dimension(self):
        with pytest.raises(InvalidConfigError, match="ambient dimension"):
            validate_config(ProximityConfig(n=1, s=2))

    def test_rejects_no_points(self):
        with pytest.raises(InvalidConfigError, match="number of points"):
            validate_config(ProximityConfig(n=2, s=0))

    def test_rejects_pair_out_of_order(self):
        with pytest.raises(InvalidConfigError, match="1 <= i < j <= s"):
            validate_config(ProximityConfig(n=2, s=3, prox=frozenset({(1, 2)})))

    def test_rejects_pair_out_of_range(self):
        with pytest.raises(InvalidConfigError, match="1 <= i < j <= s"):
            validate_config(ProximityConfig(n=2, s=2, prox=frozenset({(3, 1)})))

    def test_bad_pair_message_names_the_first_offender(self):
        prox = frozenset({(5, 1), (2, 3), (9, 1), (4, 4), (2, 1)})
        with pytest.raises(InvalidConfigError, match=r"pair \(2, 3\) must satisfy"):
            ProximityConfig(n=2, s=5, prox=prox)

    @pytest.mark.parametrize(
        "pair,shown",
        [((2.7, 1), "(2.7, 1)"), (("3", True), "('3', True)"), ((2, True), "(2, True)"),
         ((3, 1.0), "(3, 1.0)")],
        ids=["float", "str-and-bool", "bool", "integral-float"],
    )
    def test_rejects_pairs_that_are_not_two_integers(self, pair, shown):
        with pytest.raises(InvalidConfigError) as exc:
            ProximityConfig(n=3, s=3, prox={pair})
        assert str(exc.value) == "proximity pair %s must be two integers" % shown

    @pytest.mark.parametrize("prox", [{(1, 2, 3)}, {5}, None], ids=["triple", "int", "none"])
    def test_rejects_prox_that_does_not_hold_pairs(self, prox):
        with pytest.raises(InvalidConfigError, match=r"^prox must hold \(j, i\) pairs: "):
            ProximityConfig(n=2, s=3, prox=prox)

    @pytest.mark.parametrize("s", ["3", 2.5, None], ids=["str", "float", "none"])
    def test_pairs_leave_a_bad_size_to_the_rules(self, s):
        with pytest.raises(InvalidConfigError) as exc:
            ProximityConfig(n=2, s=s, prox={(2, 1)})
        assert str(exc.value) == "number of points must be an integer >= 1, got %r" % (s,)

    @pytest.mark.parametrize(
        "n,s,message",
        [
            (3, True, "number of points must be an integer >= 1, got True"),
            (True, 3, "ambient dimension must be an integer >= 2, got True"),
            (3, 2.0, "number of points must be an integer >= 1, got 2.0"),
        ],
        ids=["s-true", "n-true", "s-float"],
    )
    def test_rejects_sizes_that_are_not_integers(self, n, s, message):
        with pytest.raises(InvalidConfigError) as exc:
            ProximityConfig(n=n, s=s)
        assert str(exc.value) == message

    @pytest.mark.parametrize("flag", ["no", 0, 1, None], ids=["str", "zero", "one", "none"])
    def test_rejects_a_flag_that_is_not_a_bool(self, flag):
        with pytest.raises(InvalidConfigError) as exc:
            ProximityConfig(n=2, s=3, prox={(3, 1), (3, 2)}, strict_snc_check=flag)
        assert str(exc.value) == "strict_snc_check must be a boolean"

    def test_rejects_too_many_proximities(self):
        # the earliest offending point is the one named
        prox = frozenset({(4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3), (5, 4)})
        with pytest.raises(
            InvalidConfigError,
            match="point 4 is proximate to 3 points, more than the ambient dimension 2",
        ):
            cfg = ProximityConfig(n=2, s=5, prox=prox)
            validate_config(cfg)

    def test_replace_validates(self):
        with pytest.raises(InvalidConfigError, match="1 <= i < j <= s"):
            replace(SURFACE, prox=frozenset({(2, 1), (1, 2)}))
        with pytest.raises(InvalidConfigError, match="ambient dimension"):
            replace(SURFACE, n=1)
        assert replace(SURFACE, s=3) == ProximityConfig(n=2, s=3, prox=SURFACE.prox)

    def test_adjacency_is_not_part_of_the_value(self):
        used = ProximityConfig(n=2, s=3, prox=frozenset({(2, 1), (3, 1)}))
        assert used.proximate_points(1) == [2, 3]
        fresh = ProximityConfig(n=2, s=3, prox=used.prox)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert "adjacency" not in repr(used)

    def test_repr_does_not_depend_on_insertion_order(self):
        pairs = [(4, 1), (7, 2), (7, 1)]
        inserted = ProximityConfig(n=2, s=7, prox=frozenset(pairs))
        ascending = ProximityConfig(n=2, s=7, prox=frozenset(sorted(pairs)))
        assert inserted == ascending
        assert repr(inserted) == repr(ascending) == (
            "ProximityConfig(n=2, s=7, prox=frozenset({(4, 1), (7, 1), (7, 2)}), "
            "strict_snc_check=True)"
        )
        assert repr(ProximityConfig(n=3, s=1, strict_snc_check=False)) == (
            "ProximityConfig(n=3, s=1, prox=frozenset(), strict_snc_check=False)"
        )

    def test_lookups_return_fresh_lists(self):
        cfg = ProximityConfig(n=2, s=3, prox=frozenset({(2, 1), (3, 1)}))
        cfg.proximate_points(1).append(99)
        cfg.proximity_targets(3).clear()
        assert cfg.proximate_points(1) == [2, 3]
        assert cfg.proximity_targets(3) == [1]
        assert cfg.proximate_points(0) == [] and cfg.proximity_targets(7) == []

    def test_cardinality_check_can_be_disabled(self):
        cfg = ProximityConfig(
            n=2,
            s=4,
            prox=frozenset({(4, 1), (4, 2), (4, 3)}),
            strict_snc_check=False,
        )
        assert validate_config(cfg) is cfg


class TestMatrices:
    def test_surface_matrix(self):
        assert change_of_basis(SURFACE, 2) == ((1, 0), (-1, 1))

    def test_chain_matrix(self):
        cfg = ProximityConfig(n=3, s=3, prox=frozenset({(2, 1), (3, 2)}))
        assert change_of_basis(cfg, 3) == ((1, 0, 0), (-1, 1, 0), (0, -1, 1))

    def test_augmented_single_proximity(self):
        cfg = ProximityConfig(n=3, s=3, prox=frozenset({(3, 1)}))
        got = augmented_change_of_basis(cfg, 3)
        assert got == (
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, -1, 0, 1),
        )

    def test_truncation_drops_later_points(self):
        cfg = ProximityConfig(n=2, s=3, prox=frozenset({(2, 1), (3, 2)}))
        assert change_of_basis(cfg, 2) == ((1, 0), (-1, 1))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            change_of_basis(SURFACE, 0)
        with pytest.raises(ValueError):
            change_of_basis(SURFACE, 3)

    def test_invert_examples(self):
        assert invert_unitriangular(((1, 0), (-1, 1))) == ((1, 0), (1, 1))
        chain = ((1, 0, 0), (-1, 1, 0), (0, -1, 1))
        assert invert_unitriangular(chain) == ((1, 0, 0), (1, 1, 0), (1, 1, 1))

    def test_invert_rejects_non_unitriangular(self):
        with pytest.raises(ValueError):
            invert_unitriangular(((2, 0), (0, 1)))
        with pytest.raises(ValueError):
            invert_unitriangular(((1, 5), (0, 1)))

    @pytest.mark.parametrize("m", [((1, 0),), ((1,), (0, 1))], ids=["wide", "ragged"])
    def test_invert_rejects_non_square(self, m):
        with pytest.raises(ValueError, match="^matrix is not square$"):
            invert_unitriangular(m)

    @given(configs())
    def test_inverse_is_exact(self, cfg):
        m = change_of_basis(cfg, cfg.s)
        inv = invert_unitriangular(m)
        k = cfg.s
        prod = [
            [sum(m[r][t] * inv[t][c] for t in range(k)) for c in range(k)]
            for r in range(k)
        ]
        assert prod == [[1 if r == c else 0 for c in range(k)] for r in range(k)]

    @given(configs())
    def test_inverse_entries_count_proximity_chains(self, cfg):
        inv = invert_unitriangular(change_of_basis(cfg, cfg.s))
        for j in range(1, cfg.s + 1):
            for i in range(1, j + 1):
                expected = dag_path_counts(cfg, j, i)
                assert inv[j - 1][i - 1] == expected
                assert expected >= 0


class TestConversions:
    def test_strict_e1_in_total_coordinates(self):
        got = strict_to_total(SURFACE, DivisorVector.strict((0, 1, 0)))
        assert got == DivisorVector.total((0, 1, -1))

    def test_total_e1_in_strict_coordinates(self):
        got = total_to_strict(SURFACE, DivisorVector.total((0, 1, 0)))
        assert got == DivisorVector.strict((0, 1, 1))

    def test_last_exceptional_is_shared(self):
        cfg = ProximityConfig(n=2, s=4, prox=frozenset({(2, 1), (4, 3)}))
        got = strict_to_total(cfg, DivisorVector.strict((0, 0, 0, 0, 1)))
        assert got == DivisorVector.total((0, 0, 0, 0, 1))

    def test_basis_tag_is_enforced(self):
        with pytest.raises(ValueError, match="strict-basis"):
            strict_to_total(SURFACE, DivisorVector.total((0, 1, 0)))
        with pytest.raises(ValueError, match="total-basis"):
            total_to_strict(SURFACE, DivisorVector.strict((0, 1, 0)))

    def test_length_is_enforced(self):
        with pytest.raises(ValueError, match="length"):
            strict_to_total(SURFACE, DivisorVector.strict((0, 1)))

    def test_bad_basis_name(self):
        with pytest.raises(ValueError, match="basis"):
            DivisorVector("mixed", (1, 0))

    @given(
        configs(max_n=5, max_s=50),
        st.lists(st.integers(-5, 5), min_size=51, max_size=51),
    )
    def test_round_trip(self, cfg, coords):
        # the adjacency lookups agree with a scan of the pairs
        for t in range(cfg.s + 2):
            assert cfg.proximate_points(t) == sorted(j for j, i in cfg.prox if i == t)
            assert cfg.proximity_targets(t) == sorted(i for j, i in cfg.prox if j == t)
        # the dense matrices B and B^-1 are the reference for both conversions
        b = augmented_change_of_basis(cfg, cfg.s)
        v = DivisorVector.strict(tuple(coords[: cfg.s + 1]))
        total = strict_to_total(cfg, v)
        assert total.coords == matvec(b, v.coords)
        assert total_to_strict(cfg, total) == v
        w = DivisorVector.total(tuple(coords[: cfg.s + 1]))
        strict = total_to_strict(cfg, w)
        assert strict.coords == matvec(invert_unitriangular(b), w.coords)
        assert strict_to_total(cfg, strict) == w


class TestEnumeration:
    def test_counts(self):
        # product over j of the number of small subsets of {1..j-1}
        assert sum(1 for _ in enumerate_proximity_configs(2, 3)) == 8
        assert sum(1 for _ in enumerate_proximity_configs(2, 5)) == 616
        assert sum(1 for _ in enumerate_proximity_configs(3, 5)) == 960

    def test_all_valid_and_distinct(self):
        seen = set()
        for cfg in enumerate_proximity_configs(2, 4):
            validate_config(cfg)
            seen.add(cfg.prox)
        assert len(seen) == 56

    def test_single_point(self):
        (only,) = enumerate_proximity_configs(3, 1)
        assert only.prox == frozenset()
