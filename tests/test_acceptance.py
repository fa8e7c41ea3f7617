"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Every test computes its result first, then prints a single
"ACCEPTANCE k (name): PASS/FAIL: detail" line outside pytest's capture so
the verdicts always appear in the run log, and finally asserts.
"""

from __future__ import annotations

import warnings
from math import comb, gcd
from random import Random

from helpers import cached_total_ideal, dense_class, random_config, support
from skychow import oracle
from skychow.chowring import (
    degree_integral,
    from_divisor,
    normal_form,
    rho,
    strict_presentation,
    total_presentation,
)
from skychow.curve import CurveRingParams, curve_basis_elements, curve_ring_checks
from skychow.finality import final_by_chow, final_by_proximity
from skychow.poly import Polynomial, random_homogeneous
from skychow.proximity import ProximityConfig, enumerate_proximity_configs

SURFACE = ProximityConfig(n=2, s=2, prox=frozenset({(2, 1)}))

# fixed configurations exercised by the oracle-heavy checks (4, 5, 6, 8)
TESTED_CONFIGS = (
    SURFACE,
    ProximityConfig(n=2, s=5, prox=frozenset({(2, 1), (3, 2), (4, 3), (5, 4)})),
    ProximityConfig(n=3, s=3, prox=frozenset({(2, 1), (3, 1), (3, 2)})),
    ProximityConfig(n=3, s=5, prox=frozenset({(2, 1), (3, 1), (5, 4)})),
    ProximityConfig(n=4, s=3, prox=frozenset({(3, 2)})),
)


def report(capsys, number, name, ok, detail, extra=()):
    line = "ACCEPTANCE %d (%s): %s: %s" % (
        number,
        name,
        "PASS" if ok else "FAIL",
        detail,
    )
    with capsys.disabled():
        print(line)
        for sub in extra:
            print("    " + sub)
    assert ok, line


def power(element, k):
    out = element
    for _ in range(k - 1):
        out = out * element
    return out


def test_1_classical_surface_numbers(capsys):
    cfg = SURFACE
    h, e1, e2, t1, t2 = (
        from_divisor(cfg, support(dense_class(cfg, kind, i)))
        for kind, i in (("h", 0), ("e", 1), ("e", 2), ("E", 1), ("E", 2))
    )
    integrals = (
        ("e1*e2", degree_integral(e1 * e2), 1),
        ("e1^2", degree_integral(e1 * e1), -2),
        ("e2^2", degree_integral(e2 * e2), -1),
        ("h^2", degree_integral(h * h), 1),
        ("E1^2", degree_integral(t1 * t1), -1),
        ("E2^2", degree_integral(t2 * t2), -1),
    )
    vanishing = (
        ("h*e1", h * e1),
        ("h*e2", h * e2),
        ("E1*E2", t1 * t2),
    )
    bad = [label for label, got, want in integrals if got != want]
    bad += [label for label, prod in vanishing if not prod.is_zero()]
    detail = (
        "all 9 products on the chained two-point surface are correct"
        if not bad
        else "wrong products: %s" % ", ".join(bad)
    )
    report(capsys, 1, "classical surface intersection numbers", not bad, detail)


def _degree_one_table(cfg):
    elements = [from_divisor(cfg, {t: 1}) for t in range(cfg.s + 1)]
    return tuple((a * b).to_polynomial() for a in elements for b in elements)


def test_2_total_ring_ignores_proximity(capsys):
    checked = 0
    bad = 0
    for n in (2, 3):
        for s in range(1, 6):
            variants = list(enumerate_proximity_configs(n, s))
            reference = variants[0]
            ref_presentation = total_presentation(reference)
            ref_table = _degree_one_table(reference)
            for cfg in variants:
                checked += 1
                same = (
                    total_presentation(cfg) == ref_presentation
                    and _degree_one_table(cfg) == ref_table
                )
                if not same:
                    bad += 1
    ok = bad == 0 and checked == 1718
    detail = (
        "%d configurations over (n, s) in {2,3} x {1..5}: presentations and "
        "degree-1 multiplication tables identical (%d deviations)" % (checked, bad)
    )
    report(capsys, 2, "total presentation is proximity independent", ok, detail)


def test_3_strict_relations_land_in_total_ideal(capsys):
    rng = Random(3)
    generators = 0
    bad = 0
    n_configs = 200
    for _ in range(n_configs):
        n = rng.choice((2, 3, 4))
        s = rng.randint(1, 6)
        cfg = random_config(rng, n, s)
        ideal = cached_total_ideal(n, s)
        for g in strict_presentation(cfg).relations:
            generators += 1
            image = rho(cfg, g)
            if not normal_form(cfg, image).is_zero():
                bad += 1
            elif not oracle.membership(ideal, image):
                bad += 1
    ok = bad == 0
    detail = (
        "%d random configurations (n <= 4, s <= 6, seed 3), %d substituted "
        "generators: %d outside the ideal" % (n_configs, generators, bad)
    )
    report(capsys, 3, "strict relations map into the total ideal", ok, detail)


def test_4_normal_form_matches_lattice_oracle(capsys):
    rng = Random(4)
    per_config = 1000
    reduce_bad = 0
    member_bad = 0
    for cfg in TESTED_CONFIGS:
        n, s = cfg.n, cfg.s
        ideal = cached_total_ideal(n, s)
        relations = total_presentation(cfg).relations
        for _ in range(per_config):
            d = rng.randint(1, n + 1)
            p = random_homogeneous(rng, s + 1, d)
            if rng.random() < 0.4:
                # stir in an ideal member so the zero branch is well fed
                g = relations[rng.randrange(len(relations))]
                dg = g.homogeneous_degree()
                if dg <= d:
                    p = p + g * random_homogeneous(rng, s + 1, d - dg)
            if rng.random() < 0.2:
                p = p + Polynomial.monomial(s + 1, (d,) + (0,) * s, rng.randint(-3, 3))
            element = normal_form(cfg, p)
            if oracle.reduce(ideal, p) != element.to_polynomial():
                reduce_bad += 1
            if oracle.membership(ideal, p) != element.is_zero():
                member_bad += 1
    ok = reduce_bad == 0 and member_bad == 0
    detail = (
        "%d sampled polynomials of degree <= n+1 per configuration, %d "
        "configurations (seed 4): %d representative mismatches, %d membership "
        "mismatches" % (per_config, len(TESTED_CONFIGS), reduce_bad, member_bad)
    )
    report(capsys, 4, "rewrite engine agrees with the lattice oracle", ok, detail)


def test_5_graded_ranks_and_torsion(capsys):
    bad = []
    for cfg in TESTED_CONFIGS:
        n, s = cfg.n, cfg.s
        ideal = cached_total_ideal(n, s)
        for d in range(0, n + 2):
            if d == 0 or d == n:
                want = 1
            elif d == n + 1:
                want = 0
            else:
                want = s + 1
            piece = oracle.quotient_structure(ideal, d)
            if piece.rank != want or not piece.torsion_free:
                bad.append("n=%d s=%d d=%d" % (n, s, d))
    ok = not bad
    detail = (
        "ranks are (1, s+1 through degree n-1, 1, 0) with no torsion on "
        "%d configurations" % len(TESTED_CONFIGS)
        if ok
        else "wrong slices: %s" % ", ".join(bad)
    )
    report(capsys, 5, "graded quotient ranks and torsion freeness", ok, detail)


def test_6_minimal_generator_count(capsys):
    ok = True
    rows = []
    for cfg in TESTED_CONFIGS:
        n, s = cfg.n, cfg.s
        computed = sum(oracle.minimal_generator_count(cached_total_ideal(n, s)).values())
        structural = comb(s + 1, 2) + s
        dimension_only = comb(n + 1, 2) + n
        ok = ok and computed == structural
        rows.append(
            "n=%d s=%d: computed %d; C(s+1,2)+s = %d (%s); binom(n+1,2)+n = %d (%s)"
            % (
                n,
                s,
                computed,
                structural,
                "match" if computed == structural else "MISMATCH",
                dimension_only,
                "match" if computed == dimension_only else "MISMATCH",
            )
        )
    detail = (
        "computed counts match C(s+1,2)+s on all %d configurations; the "
        "n-only formula disagrees whenever s != n" % len(TESTED_CONFIGS)
    )
    report(capsys, 6, "minimal generator counts", ok, detail, extra=rows)


def test_7_finality_deciders_agree(capsys):
    configs = 0
    divisors = 0
    disagreements = 0
    for n in (2, 3):
        for s in range(1, 6):
            for cfg in enumerate_proximity_configs(n, s):
                configs += 1
                for i in range(1, s + 1):
                    divisors += 1
                    if final_by_proximity(cfg, i) != final_by_chow(cfg, i):
                        disagreements += 1
    ok = disagreements == 0 and configs == 1718
    detail = (
        "%d divisors across %d configurations (n in {2,3}, s <= 5): "
        "%d disagreements" % (divisors, configs, disagreements)
    )
    report(capsys, 7, "proximity and ring-theoretic finality coincide", ok, detail)


def test_8_self_intersection_laws(capsys):
    rng = Random(8)
    configs = list(TESTED_CONFIGS)
    for _ in range(40):
        configs.append(random_config(rng, rng.choice((2, 3, 4)), rng.randint(1, 6)))
    checked = 0
    bad = 0
    for cfg in configs:
        n, s = cfg.n, cfg.s
        for i in range(1, s + 1):
            checked += 1
            total_power = power(from_divisor(cfg, {i: 1}), n)
            strict_power = power(from_divisor(cfg, support(dense_class(cfg, "e", i))), n)
            m_i = len(cfg.proximate_points(i))
            point = (n,) + (0,) * s
            want = Polynomial.monomial(s + 1, point, -((-1) ** n + m_i))
            if degree_integral(total_power) != (-1) ** (n + 1):
                bad += 1
            elif strict_power.to_polynomial() != want:
                bad += 1
    ok = bad == 0
    detail = (
        "%d divisors over %d configurations (5 fixed + 40 random, seed 8): "
        "total n-th powers integrate to (-1)^(n+1), strict n-th powers "
        "equal -((-1)^n + m_i) times the point class (%d failures)"
        % (checked, len(configs), bad)
    )
    report(capsys, 8, "exceptional self-intersection laws", ok, detail)


def test_9_curve_ring_grid(capsys):
    bad = []
    notes = []
    for g in (1, 2, 3):
        for c1 in (-2, 0, 6):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                params = CurveRingParams(gamma=g, c1=c1)
            outcome = curve_ring_checks(params)
            if not outcome.ranks_ok:
                bad.append("gamma=%d c1=%d: ranks %s" % (g, c1, (outcome.ranks,)))
            if outcome.mismatches:
                bad.append(
                    "gamma=%d c1=%d: %d confluence mismatches"
                    % (g, c1, len(outcome.mismatches))
                )
            by_label = dict(curve_basis_elements(params))
            x0, x1 = by_label["x0"], by_label["x1"]
            w1, x0_cubed = by_label["w1"], by_label["x0^3"]
            if not (x1 * w1 + x0_cubed).is_zero():
                bad.append("gamma=%d c1=%d: x1*w1 != -x0^3" % (g, c1))
            if not (x0 * w1).is_zero():
                bad.append("gamma=%d c1=%d: x0*w1 != 0" % (g, c1))
            if outcome.torsion:
                reported = ", ".join(
                    "degree %d: Z/%s" % (d, " + Z/".join(str(t) for t in ts))
                    for d, ts in sorted(outcome.torsion.items())
                )
                notes.append(
                    "gamma=%d c1=%d: torsion reported, not asserted (%s); "
                    "gcd(gamma, c1) = %d" % (g, c1, reported, gcd(g, c1))
                )
    ok = not bad
    detail = (
        "9 parameter pairs (gamma in {1,2,3}, c1 in {-2,0,6}): ranks "
        "(1,2,2,1,0), rewrite/oracle confluence on every monomial of degree "
        "<= 4, x1*w1 = -x0^3 and x0*w1 = 0"
        if ok
        else "; ".join(bad)
    )
    report(capsys, 9, "curve blow-up ring of projective 3-space", ok, detail, extra=notes)
