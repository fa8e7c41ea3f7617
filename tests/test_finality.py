"""Finality deciders: combinatorial, ring-theoretic, and their agreement."""

from __future__ import annotations

import json
import re
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    cached_total_ideal,
    dense_class,
    parse_indent2,
    random_config,
    read_divisors,
    reference_chow_conditions,
    reference_meeting,
    support,
)
from skychow import finality, oracle
from skychow.chowring import degree_integral, from_divisor
from skychow.poly import Polynomial
from skychow.finality import (
    _chow_conditions,
    _pairs,
    _self_integral,
    DivisorFinality,
    FinalityReport,
    final_by_chow,
    final_by_proximity,
    finality_report,
    intersecting_indices,
)
from skychow.proximity import (
    InvalidConfigError,
    ProximityConfig,
    enumerate_proximity_configs,
    strict_class_in_total,
)

SURFACE = ProximityConfig(n=2, s=2, prox=frozenset({(2, 1)}))
THREEFOLD = ProximityConfig(n=3, s=2, prox=frozenset({(2, 1)}))
SATELLITE = ProximityConfig(n=2, s=3, prox=frozenset({(2, 1), (3, 1), (3, 2)}))


def integral(n, r, direct, common):
    """Integral of e_i^(n-r) * e_j^r from the pair's two counts: the shared
    points are i, coefficients (1, -1), when direct is 1, j, (-1, 1), when
    direct is -1, and common points with (-1, -1), each E_t^n integrating
    to (-1)^(n+1)."""
    return (-1) ** (n + 1) * (
        (-1) ** r * (direct == 1) + (-1) ** (n - r) * (direct == -1) + (-1) ** n * common
    )


def meeting(config, i):
    """(j, (direct, common)) for each j != i, ascending, with e_i * e_j
    nonzero: the counts of _pairs, filtered at n = 2 as
    intersecting_indices filters them."""
    direct, common = _pairs(config, i)
    pairs = [(j, (direct[j], common.get(j, 0))) for j in sorted(direct)]
    if config.n == 2:
        return [(j, dc) for j, dc in pairs if integral(2, 1, *dc)]
    return pairs


def counts(shared):
    """(direct, common) of a reference list [(e_i[t], e_j[t]), ...]."""
    return sum(x for x, y in shared if x != y), sum(x == y for x, y in shared)


def fields(divisors):
    """Each divisor's fields in the order its JSON object lists them."""
    return [(d.index, d.final_proximity, d.final_chow, d.witness) for d in divisors]


class TestProximityDecider:
    def test_surface(self):
        assert not final_by_proximity(SURFACE, 1)
        assert final_by_proximity(SURFACE, 2)

    def test_index_range(self):
        with pytest.raises(ValueError):
            final_by_proximity(SURFACE, 0)
        with pytest.raises(ValueError):
            final_by_proximity(SURFACE, 3)

    @pytest.mark.parametrize("i", [2.5, 1.0, True, "1"])
    @pytest.mark.parametrize(
        "decider", [final_by_proximity, final_by_chow, intersecting_indices]
    )
    def test_index_must_be_an_int(self, decider, i):
        # type, not isinstance or value: True == 1 and 1.0 == 1 would pass
        cfg = ProximityConfig(n=2, s=3, prox=frozenset({(2, 1), (3, 1)}))
        message = "divisor index %r must be an integer" % (i,)
        with pytest.raises(ValueError, match=re.escape(message)):
            decider(cfg, i)

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

    def test_satellite_pair_counts(self):
        # the satellite's six candidate pairs (supports overlap) include 1-2
        # and 2-1, with |direct| = common = 1: point 3 is proximate to both,
        # so their product is 0 at n = 2 and the decider skips them
        assert [_pairs(SATELLITE, i) for i in (1, 2, 3)] == [
            ({2: -1, 3: -1}, {2: 1}),
            ({1: 1, 3: -1}, {1: 1}),
            ({1: 1, 2: 1}, {}),
        ]
        report = finality_report(SATELLITE)
        assert [d.final_chow for d in report.divisors] == [False, False, True]

    def test_json_shape(self):
        report = finality_report(SURFACE)
        rows = read_divisors(json.loads(report.to_json_text()))
        assert [i for i, *_ in rows] == [1, 2]
        assert rows == fields(report.divisors)


class TestConditionTenAtEvenR:
    """Condition (10)'s r = 2 comparison, on pairs put in by hand.

    On strict classes a pair that passes (11) and (10) at r = 1 passes
    (10) at r = 2 too, so no config reaches a failure there; these feed the
    decider e_i and the pair's counts directly (e_i through the config's
    proximity pairs, counts no config has in place of _pairs), to pin the
    comparison and its witness.
    """

    @pytest.mark.parametrize(
        "n, ei, direct, common, rhs",
        [
            # (11): d - c = 1; r = 1: d + c = -1 = e_i^3 = 1 - 2; r = 2: d - c
            (3, {1: 1, 2: -1, 3: -1}, 0, -1, 1),
            # (11): |d| - c = 1; r = 1: -1 = e_i^4 = -1; r = 2: -|d| - c
            (4, {1: 1}, 2, 1, -3),
        ],
    )
    def test_witness_names_r_2(self, monkeypatch, n, ei, direct, common, rhs):
        # e_1 is ei: the points it puts -1 on are proximate to 1
        prox = frozenset((t, 1) for t in ei if t != 1)
        cfg = ProximityConfig(n=n, s=max(2, *ei), prox=prox)
        assert strict_class_in_total(cfg, 1) == ei
        monkeypatch.setattr(finality, "_pairs", lambda config, i: ({2: direct}, {2: common}))
        witness = "condition (10) fails for j=2 at r=2: integral %d, expected -1" % rhs
        assert _chow_conditions(cfg, 1) == (False, witness)


class TestJsonText:
    """FinalityReport.to_json_text read back: the stdlib's indent=2 layout,
    and each divisor's fields, in order."""

    @staticmethod
    def blanked(report, method):
        # what final --method prints: the column not asked for, and the
        # witness, blanked to None
        if method == "both":
            return report
        blank = "final_chow" if method == "proximity" else "final_proximity"
        divisors = tuple(d._replace(**{blank: None, "witness": None}) for d in report.divisors)
        return replace(report, divisors=divisors)

    def test_every_small_config_and_method(self):
        configs = 0
        for n in (2, 3):
            for s in range(1, 5):
                for cfg in enumerate_proximity_configs(n, s):
                    configs += 1
                    report = finality_report(cfg)
                    for method in ("proximity", "chow", "both"):
                        shown = self.blanked(report, method)
                        rows = read_divisors(parse_indent2(shown.to_json_text()))
                        assert rows == fields(shown.divisors)
        assert configs == 142

    @pytest.mark.parametrize(
        "divisors",
        [
            (),
            (DivisorFinality(1, False, False, 'quote " backslash \\ \u00e9\u2202 \n'),),
            (DivisorFinality(1, None, True, ""), DivisorFinality(2, True, None, None)),
        ],
        ids=["empty", "escaped-witness", "blank-columns"],
    )
    def test_edge_cases(self, divisors):
        rows = read_divisors(parse_indent2(FinalityReport(divisors).to_json_text()))
        assert rows == fields(divisors)


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
            e = from_divisor(cfg, support(dense_class(cfg, "e", i)))
            powers.append([e**a for a in range(n + 1)])
        for i in range(1, s + 1):
            meets = {
                j
                for j in range(1, s + 1)
                if j != i and not (powers[i][1] * powers[j][1]).is_zero()
            }
            assert intersecting_indices(cfg, i) == meets
            pairs = meeting(cfg, i)
            assert [j for j, _ in pairs] == sorted(meets)
            assert _self_integral(n, cfg.proximate_points(i)) == degree_integral(powers[i][n])
            # conditions (10) and (11) integrate e_i^(n-r) e_j^r for r in 1..n-1,
            # each a closed form in the pair's two counts
            for j, (direct, common) in pairs:
                for r in range(1, n):
                    ring = degree_integral(powers[i][n - r] * powers[j][r])
                    assert integral(n, r, direct, common) == ring


class TestOracleCertifiesIntegrals:
    """The pair integrals certified by the lattice oracle, past s <= 5.

    Each strict class is built here as a Polynomial in the total generators,
    e_i = x_i - sum of x_j over the points j proximate to i, straight from
    the proximity relation.  An integral c of a degree-n product p holds
    exactly when p - c * x0^n lies in the total ideal, since x0^n does not.
    The n = 4 configs certify the -|direct| - common value at even r of an
    even n.
    """

    def test_meeting_pair_integrals(self):
        rng = Random(13)
        checked = nonzero = even_n_even_r = 0
        for n, s in (
            (2, 10), (2, 20), (2, 30), (2, 40), (3, 10), (3, 20), (3, 30), (3, 40),
            (4, 8), (4, 12), (5, 8), (5, 10),
        ):
            cfg = random_config(rng, n, s)
            ideal = cached_total_ideal(n, s)
            point = Polynomial.variable(s + 1, 0) ** n
            strict = [None] + [
                Polynomial.variable(s + 1, i)
                - sum(
                    (Polynomial.variable(s + 1, j) for j in cfg.proximate_points(i)),
                    Polynomial.constant(s + 1, 0),
                )
                for i in range(1, s + 1)
            ]
            def certify(p, c):
                nonlocal checked, nonzero
                assert oracle.membership(ideal, p - point * c)
                assert not oracle.membership(ideal, p - point * (c + 1))
                checked += 1
                nonzero += c != 0

            for i in range(1, s + 1):
                certify(strict[i] ** n, _self_integral(n, cfg.proximate_points(i)))
                for j, (direct, common) in meeting(cfg, i):
                    for r in range(1, n):
                        c = integral(n, r, direct, common)
                        certify(strict[i] ** (n - r) * strict[j] ** r, c)
                        even_n_even_r += not (n % 2 or r % 2)
        assert checked > 1800 and nonzero > 1700 and even_n_even_r > 70


class TestOnePassMatchesReference:
    """The decider against reference_chow_conditions (tests/helpers.py),
    which sums each integral on its own, on verdict and witness of every
    divisor, for n up to the CLI's limit of 64."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 64),
        st.integers(1, 40),
        st.booleans(),
        st.integers(0, 2**30),
    )
    def test_verdicts_and_witnesses(self, n, s, snc, seed):
        rng = Random(seed)
        prox = set()
        for j in range(2, s + 1):
            # without the check a point may be proximate to more than n others
            cap = min(n, j - 1) if snc else j - 1
            for i in rng.sample(range(1, j), rng.randint(0, cap)):
                prox.add((j, i))
        cfg = ProximityConfig(n=n, s=s, prox=frozenset(prox), strict_snc_check=snc)
        report = finality_report(cfg)
        for i in range(1, s + 1):
            want = reference_chow_conditions(cfg, i)
            assert _chow_conditions(cfg, i) == want
            d = report.divisors[i - 1]
            assert (d.final_chow, d.witness) == want
            ei = strict_class_in_total(cfg, i)
            want = reference_meeting(cfg, i, ei)
            assert meeting(cfg, i) == [(j, counts(sh)) for j, sh in want]
            assert intersecting_indices(cfg, i) == {j for j, _ in want}


class TestExhaustiveMatchesReference:
    """Every config with s <= 5 for n = 2 and n = 3: finality_report's
    verdicts and witnesses against reference_chow_conditions, and
    intersecting_indices against the nonzero ChowElement products."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_small_config(self, n):
        configs = 0
        for s in range(1, 6):
            for cfg in enumerate_proximity_configs(n, s):
                configs += 1
                e = [None] + [
                    from_divisor(cfg, support(dense_class(cfg, "e", i))) for i in range(1, s + 1)
                ]
                meets = {i: set() for i in range(1, s + 1)}
                for i in range(1, s + 1):
                    for j in range(i + 1, s + 1):
                        if not (e[i] * e[j]).is_zero():
                            meets[i].add(j)
                            meets[j].add(i)
                report = finality_report(cfg)
                for d in report.divisors:
                    i = d.index
                    assert d.final_proximity == (not cfg.proximate_points(i))
                    assert (d.final_chow, d.witness) == reference_chow_conditions(cfg, i)
                    assert intersecting_indices(cfg, i) == meets[i]
        assert configs == {2: 683, 3: 1035}[n]
