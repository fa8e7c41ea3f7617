"""Finality deciders: combinatorial, ring-theoretic, and their agreement."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_config
from skychow.chowring import degree_integral, from_divisor
from skychow.finality import (
    _integral,
    _strict_classes,
    final_by_chow,
    final_by_proximity,
    finality_report,
    intersecting_indices,
)
from skychow.proximity import (
    InvalidConfigError,
    ProximityConfig,
    enumerate_proximity_configs,
    strict_exceptional,
)

SURFACE = ProximityConfig(n=2, s=2, prox=frozenset({(2, 1)}))
THREEFOLD = ProximityConfig(n=3, s=2, prox=frozenset({(2, 1)}))
SATELLITE = ProximityConfig(n=2, s=3, prox=frozenset({(2, 1), (3, 1), (3, 2)}))


class TestProximityDecider:
    def test_surface(self):
        assert not final_by_proximity(SURFACE, 1)
        assert final_by_proximity(SURFACE, 2)

    def test_index_range(self):
        with pytest.raises(ValueError):
            final_by_proximity(SURFACE, 0)
        with pytest.raises(ValueError):
            final_by_proximity(SURFACE, 3)

    def test_invalid_config_is_rejected(self):
        with pytest.raises(InvalidConfigError):
            bad = ProximityConfig(n=2, s=2, prox=frozenset({(1, 2)}))
            final_by_proximity(bad, 1)


class TestIntersectingIndices:
    def test_no_proximities_means_disjoint(self):
        cfg = ProximityConfig(n=2, s=3)
        for i in (1, 2, 3):
            assert intersecting_indices(cfg, i) == set()

    def test_surface(self):
        assert intersecting_indices(SURFACE, 1) == {2}
        assert intersecting_indices(SURFACE, 2) == {1}

    def test_satellite_separates_the_first_two(self):
        # the third center sits on both earlier divisors and splits them apart
        assert intersecting_indices(SATELLITE, 1) == {3}
        assert intersecting_indices(SATELLITE, 2) == {3}
        assert intersecting_indices(SATELLITE, 3) == {1, 2}


class TestChowDecider:
    def test_surface(self):
        assert not final_by_chow(SURFACE, 1)
        assert final_by_chow(SURFACE, 2)

    def test_satellite(self):
        assert not final_by_chow(SATELLITE, 1)
        assert not final_by_chow(SATELLITE, 2)
        assert final_by_chow(SATELLITE, 3)

    @given(st.integers(0, 2**30))
    def test_last_divisor_is_always_final(self, seed):
        rng = Random(seed)
        cfg = random_config(rng, rng.choice((2, 3)), rng.randint(1, 4))
        assert final_by_proximity(cfg, cfg.s)
        assert final_by_chow(cfg, cfg.s)


class TestReport:
    def test_surface_witness_names_condition_ten(self):
        report = finality_report(SURFACE)
        one, two = report.divisors
        assert (one.final_proximity, one.final_chow) == (False, False)
        assert "condition (10)" in one.witness
        assert "j=2" in one.witness and "r=1" in one.witness
        assert (two.final_proximity, two.final_chow) == (True, True)
        assert two.witness is None
        assert report.all_agree

    def test_threefold_witness_names_condition_eleven_with_sign(self):
        report = finality_report(THREEFOLD)
        one = report.divisors[0]
        assert not one.final_chow
        assert "condition (11)" in one.witness
        assert "integral -1" in one.witness

    def test_json_shape(self):
        doc = finality_report(SURFACE).to_json_dict()
        assert set(doc) == {"divisors"}
        assert [d["i"] for d in doc["divisors"]] == [1, 2]
        assert set(doc["divisors"][0]) == {
            "i",
            "final_proximity",
            "final_chow",
            "witness",
        }


class TestEquivalenceSamples:
    def test_exhaustive_tiny(self):
        for cfg in enumerate_proximity_configs(2, 3):
            for i in range(1, 4):
                assert final_by_proximity(cfg, i) == final_by_chow(cfg, i)

    @given(st.integers(0, 2**30))
    def test_random_agreement(self, seed):
        rng = Random(seed)
        cfg = random_config(rng, rng.choice((2, 3)), rng.randint(1, 4))
        for i in range(1, cfg.s + 1):
            assert final_by_proximity(cfg, i) == final_by_chow(cfg, i)


class TestClosedFormMatchesRing:
    """Closed-form integrals against full ChowElement products as the reference."""

    @settings(max_examples=25)
    @given(st.integers(2, 5), st.integers(1, 50), st.integers(0, 2**30))
    def test_meeting_and_condition_integrals(self, n, s, seed):
        cfg = random_config(Random(seed), n, s)
        powers = [None]
        for i in range(1, s + 1):
            e = from_divisor(cfg, strict_exceptional(cfg, i))
            powers.append([e**a for a in range(n + 1)])
        sparse = _strict_classes(cfg)
        for i in range(1, s + 1):
            meets = {
                j
                for j in range(1, s + 1)
                if j != i and not (powers[i][1] * powers[j][1]).is_zero()
            }
            assert intersecting_indices(cfg, i) == meets
            # conditions (10) and (11) integrate e_i^a e_j^(n-a) for a in 1..n
            for j in meets:
                for a in range(1, n + 1):
                    factors = [sparse[i]] * a + [sparse[j]] * (n - a)
                    ring = degree_integral(powers[i][a] * powers[j][n - a])
                    assert _integral(n, factors) == ring
