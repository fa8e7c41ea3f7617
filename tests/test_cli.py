"""Command line surface: config loading, output shapes, exit codes."""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import skychow
import skychow.cli as cli
from helpers import (
    dense_class,
    parse_indent2,
    random_config,
    read_presentation,
    reference_load_config,
    reference_main,
    reference_verify_samples,
    support,
)
from skychow import chowring, curve, finality, proximity
from skychow.chowring import (
    ChowElement,
    from_divisor,
    graded_rank,
    sparse_product,
    strict_presentation,
    total_presentation,
)
from skychow.finality import DivisorFinality, FinalityReport
from skychow.poly import Polynomial
from skychow.proximity import InvalidConfigError, ProximityConfig, enumerate_proximity_configs

SURFACE_DOC = {
    "ambient_dimension": 2,
    "points": [
        {"id": 1, "proximate_to": []},
        {"id": 2, "proximate_to": [1]},
    ],
}


@pytest.fixture
def surface_path(tmp_path):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(SURFACE_DOC))
    return str(path)


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
THREEFOLD_PATH = str(CONFIG_DIR / "threefold_chain.json")
SURFACE_PATH = str(CONFIG_DIR / "surface.json")
SATELLITE_PATH = str(CONFIG_DIR / "satellite.json")


def chain_doc(n, s):
    points = [{"id": j, "proximate_to": [j - 1] if j > 1 else []} for j in range(1, s + 1)]
    return {"ambient_dimension": n, "points": points}


def star_doc(n, s):
    points = [{"id": j, "proximate_to": [1] if j > 1 else []} for j in range(1, s + 1)]
    return {"ambient_dimension": n, "points": points}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoadConfig:
    def test_surface(self, surface_path):
        cfg = cli.load_config(surface_path)
        assert cfg == ProximityConfig(n=2, s=2, prox=frozenset({(2, 1)}))

    def test_missing_key(self, tmp_path):
        path = write_config(tmp_path, {"points": []})
        with pytest.raises(InvalidConfigError, match="ambient_dimension"):
            cli.load_config(path)

    def test_ids_must_be_sequential(self, tmp_path):
        doc = {
            "ambient_dimension": 2,
            "points": [{"id": 2, "proximate_to": []}],
        }
        path = write_config(tmp_path, doc)
        with pytest.raises(InvalidConfigError, match="ids must be 1..s in order"):
            cli.load_config(path)

    def test_proximate_to_must_point_backwards(self, tmp_path):
        doc = {
            "ambient_dimension": 2,
            "points": [
                {"id": 1, "proximate_to": []},
                {"id": 2, "proximate_to": [2]},
            ],
        }
        path = write_config(tmp_path, doc)
        with pytest.raises(InvalidConfigError, match="earlier ids"):
            cli.load_config(path)

    def test_cardinality_bound_applies(self, tmp_path):
        doc = {
            "ambient_dimension": 2,
            "points": [
                {"id": 1, "proximate_to": []},
                {"id": 2, "proximate_to": []},
                {"id": 3, "proximate_to": []},
                {"id": 4, "proximate_to": [1, 2, 3]},
            ],
        }
        path = write_config(tmp_path, doc)
        with pytest.raises(InvalidConfigError, match="ambient dimension"):
            cli.load_config(path)
        doc["strict_snc_check"] = False
        relaxed = write_config(tmp_path, doc, name="relaxed.json")
        cfg = cli.load_config(relaxed)
        assert cfg.strict_snc_check is False

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(InvalidConfigError, match="JSON"):
            cli.load_config(str(path))

    def test_not_utf8_is_a_user_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"points": "\xff"}')
        with pytest.raises(InvalidConfigError, match="UTF-8"):
            cli.load_config(str(path))
        assert cli.main(["final", str(path)]) == 2
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [65, 5000, 10**7])
    def test_ambient_dimension_is_bounded(self, tmp_path, capsys, n):
        path = write_config(tmp_path, chain_doc(n, 3))
        with pytest.raises(InvalidConfigError, match="above the limit of 64"):
            cli.load_config(path)
        for argv in (["final", path], ["intersect", path, "h*e1"], ["present", path]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "ambient dimension %d is above the limit of 64" % n in captured.err

    def test_ambient_dimension_at_the_limit_is_accepted(self, tmp_path):
        path = write_config(tmp_path, chain_doc(cli.MAX_AMBIENT_DIMENSION, 3))
        assert cli.load_config(path).n == 64

    @pytest.mark.parametrize("n", [1, 2.5, "3", True])
    def test_small_or_non_integer_dimension_keeps_its_message(self, tmp_path, n):
        path = write_config(tmp_path, chain_doc(n, 3))
        with pytest.raises(InvalidConfigError, match="must be an integer >= 2"):
            cli.load_config(path)

    def test_true_dimension_message_is_unchanged(self, tmp_path):
        path = write_config(tmp_path, chain_doc(True, 3))
        with pytest.raises(InvalidConfigError) as exc:
            cli.load_config(path)
        assert str(exc.value) == "ambient dimension must be an integer >= 2, got True"

    def test_deep_nesting_is_a_user_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        depth = 200_000
        path.write_text('{"ambient_dimension": 2, "points": %s%s}' % ("[" * depth, "]" * depth))
        assert cli.main(["final", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nested too deeply" in captured.err

    def test_overlong_integer_is_a_user_error(self, tmp_path, capsys):
        path = tmp_path / "digits.json"
        path.write_text('{"ambient_dimension": %s, "points": [{"id": 1}]}' % ("9" * 5000))
        assert cli.main(["final", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "integer too long" in captured.err

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_id_is_rejected(self, tmp_path, capsys, flag):
        # true == 1 in Python, so {"id": true} used to pass as the first point
        doc = chain_doc(2, 2)
        doc["points"][0]["id"] = flag
        path = write_config(tmp_path, doc)
        assert cli.main(["dot", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "point ids must be 1..s in order: entry 1 has id %r" % flag in captured.err

    @pytest.mark.parametrize("entry,pid", [(1, 1.0), (2, 2.0)])
    def test_float_id_is_rejected(self, tmp_path, capsys, entry, pid):
        # 1.0 == 1 in Python, so {"id": 1.0} used to pass as the first point
        doc = chain_doc(2, 2)
        doc["points"][entry - 1]["id"] = pid
        path = write_config(tmp_path, doc)
        assert cli.main(["dot", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "point ids must be 1..s in order: entry %d has id %r" % (entry, pid) in captured.err

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_proximity_target_is_rejected(self, tmp_path, capsys, flag):
        # [true] used to read as [1] and print p2 -> p1
        doc = chain_doc(2, 2)
        doc["points"][1]["proximate_to"] = [flag]
        path = write_config(tmp_path, doc)
        assert cli.main(["dot", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "point 2 lists %r in proximate_to; only earlier ids" % flag in captured.err

    @staticmethod
    def crowded_doc(**extra):
        """n=2 with point 4 proximate to 1, 2 and 3, one more than n allows."""
        doc = star_doc(2, 7)
        doc["points"][3]["proximate_to"] = [3, 1, 2]
        doc.update(extra)
        return doc

    def test_bad_id_is_named_before_a_crowded_point(self, tmp_path):
        doc = self.crowded_doc()
        doc["points"][5]["id"] = 7
        with pytest.raises(InvalidConfigError) as exc:
            cli.load_config(write_config(tmp_path, doc))
        assert str(exc.value) == "point ids must be 1..s in order: entry 6 has id 7"

    def test_bad_dimension_is_named_before_a_crowded_point(self, tmp_path):
        doc = self.crowded_doc(ambient_dimension="3")
        doc["points"][4]["proximate_to"] = [4, 3, 2, 1]
        with pytest.raises(InvalidConfigError) as exc:
            cli.load_config(write_config(tmp_path, doc))
        assert str(exc.value) == "ambient dimension must be an integer >= 2, got '3'"

    def test_bad_flag_is_named_before_a_crowded_point(self, tmp_path):
        doc = self.crowded_doc(strict_snc_check="yes")
        with pytest.raises(InvalidConfigError) as exc:
            cli.load_config(write_config(tmp_path, doc))
        assert str(exc.value) == "strict_snc_check must be a boolean"

    def test_crowded_point_is_named_last(self, tmp_path):
        doc = self.crowded_doc()
        doc["points"][4]["proximate_to"] = [1, 2, 3, 4]
        with pytest.raises(InvalidConfigError) as exc:
            cli.load_config(write_config(tmp_path, doc))
        assert str(exc.value) == (
            "point 4 is proximate to 3 points, more than the ambient dimension 2"
        )
        cfg = cli.load_config(write_config(tmp_path, self.crowded_doc(strict_snc_check=False)))
        assert cfg.proximity_targets(4) == [1, 2, 3]

    def test_crowded_point_reads_alike_loaded_or_built(self, tmp_path):
        # one rule check names the first crowded point for both builders
        doc = self.crowded_doc()
        doc["points"][6]["proximate_to"] = [1, 2, 3, 4, 5, 6]
        pairs = frozenset(
            (p["id"], t) for p in doc["points"] for t in p.get("proximate_to", [])
        )
        with pytest.raises(InvalidConfigError) as built:
            ProximityConfig(2, 7, pairs)
        with pytest.raises(InvalidConfigError) as loaded:
            cli.load_config(write_config(tmp_path, doc))
        assert str(loaded.value) == str(built.value) == (
            "point 4 is proximate to 3 points, more than the ambient dimension 2"
        )

    @pytest.mark.parametrize("n,s", [(1, 2), (2, 0)], ids=["bad-n", "bad-s"])
    def test_bad_flag_is_named_before_a_bad_size_on_both_routes(self, tmp_path, n, s):
        routes = [
            lambda: ProximityConfig(n, s, strict_snc_check="no"),
            lambda: ProximityConfig._of(n, s, {}, "no"),  # the loader's tail
        ]
        if s:  # a file cannot hold 0 points: the loader refuses it first
            path = write_config(tmp_path, dict(chain_doc(n, s), strict_snc_check="no"))
            routes += [lambda: cli.load_config(path), lambda: reference_load_config(path)]
        for route in routes:
            with pytest.raises(InvalidConfigError) as exc:
                route()
            assert str(exc.value) == "strict_snc_check must be a boolean"

    def test_unsorted_targets_with_repeats_read_as_a_set(self, tmp_path):
        doc = star_doc(3, 10)
        doc["points"][3]["proximate_to"] = [1, 3, 3]
        doc["points"][4]["proximate_to"] = [4, 1, 4, 2, 1]
        doc["points"][9]["proximate_to"] = [9, 1, 9]  # a set of {9, 1} iterates 9 first
        cfg = cli.load_config(write_config(tmp_path, doc))
        prox = {(j, 1) for j in range(2, 11)} | {(4, 3), (5, 2), (5, 4), (10, 9)}
        assert cfg == ProximityConfig(n=3, s=10, prox=frozenset(prox))
        assert cfg.proximity_targets(4) == [1, 3]
        assert cfg.proximity_targets(5) == [1, 2, 4]
        assert cfg.proximity_targets(10) == [1, 9]
        assert cfg.proximate_points(1) == list(range(2, 11))
        assert cfg.proximate_points(4) == [5]


LEAN_PATHS = (
    SATELLITE_PATH,
    THREEFOLD_PATH,
    str(CONFIG_DIR / "fourfold.json"),
    str(Path(__file__).resolve().parent / "configs" / "eightfold_mixed.json"),
)


class TestLeanLoader:
    """A loaded config keeps its targets lists as its data and builds the
    pair set prox and the reverse map only when something reads them."""

    @pytest.mark.parametrize("path", LEAN_PATHS, ids=lambda p: Path(p).stem)
    def test_intersect_never_builds_the_reverse_map(self, path, monkeypatch, capsys):
        cfg = cli.load_config(path)
        monkeypatch.setattr(cli, "load_config", lambda _: cfg)
        expr = "h*e1*E%d*e%d" % (cfg.s, cfg.s)
        assert cli.main(["intersect", path, expr]) == cli.EXIT_OK
        assert "_proximate" not in vars(cfg)
        assert cli.main(["final", path]) == cli.EXIT_OK
        assert "_proximate" in vars(cfg) and "prox" not in vars(cfg)

    @pytest.mark.parametrize("path", LEAN_PATHS, ids=lambda p: Path(p).stem)
    def test_intersect_and_final_never_build_prox(self, path):
        cfg = cli.load_config(path)
        assert "prox" not in vars(cfg)
        factors, _ = cli.parse_expression("h*e1*E%d*e%d" % (cfg.s, cfg.s), cfg)
        sparse_product(cfg, factors)
        assert "prox" not in vars(cfg)
        finality.finality_report(cfg)
        assert "prox" not in vars(cfg)

    @pytest.mark.parametrize("path", LEAN_PATHS, ids=lambda p: Path(p).stem)
    def test_validating_a_loaded_config_never_builds_prox(self, path):
        cfg = cli.load_config(path)
        assert proximity.validate_config(cfg) is cfg
        assert "prox" not in vars(cfg)

    @pytest.mark.parametrize("path", LEAN_PATHS, ids=lambda p: Path(p).stem)
    def test_value_matches_a_constructed_config(self, path, monkeypatch):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        pairs = frozenset(
            (p["id"], t) for p in doc["points"] for t in p.get("proximate_to", [])
        )
        built = ProximityConfig(doc["ambient_dimension"], len(doc["points"]), pairs)
        for read in (
            lambda c: c.prox,
            hash,
            repr,
            lambda c: replace(c, s=c.s),
            proximity.validate_config,
        ):
            cfg = cli.load_config(path)
            assert read(cfg) == read(built)
            assert cfg == built and vars(cfg)["prox"] == pairs
        assert cli.load_config(path) == built  # == alone builds it too
        dots = [run_quiet(["dot", path])]
        monkeypatch.setattr(cli, "load_config", lambda _: built)
        dots.append(run_quiet(["dot", path]))
        assert dots[0] == dots[1] and dots[0][0] == cli.EXIT_OK

    def test_strict_to_total_reads_the_targets_lists(self):
        cfg = cli.load_config(SATELLITE_PATH)
        v = proximity.DivisorVector.strict((0, 1, 0, 0))
        assert proximity.strict_to_total(cfg, v).coords == (0, 1, -1, -1)
        assert "prox" not in vars(cfg)

    @pytest.mark.parametrize("path", LEAN_PATHS, ids=lambda p: Path(p).stem)
    def test_both_routes_hold_only_the_targets_lists(self, path):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        pairs = frozenset(
            (p["id"], t) for p in doc["points"] for t in p.get("proximate_to", [])
        )
        build = (
            lambda: cli.load_config(path),
            lambda: ProximityConfig(doc["ambient_dimension"], len(doc["points"]), pairs),
        )
        unit = proximity.DivisorVector.strict((0, 1) + (0,) * (len(doc["points"]) - 1))
        for read in (repr, lambda c: proximity.strict_to_total(c, unit), proximity.validate_config):
            for cfg in (b() for b in build):
                assert set(vars(cfg)) == {"n", "s", "strict_snc_check", "_targets"}
                read(cfg)
                assert "prox" not in vars(cfg)
        assert [cfg.prox for cfg in (b() for b in build)] == [pairs, pairs]


class TestPresent:
    def test_text_output(self, surface_path, capsys):
        assert cli.main(["present", surface_path]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "variables: x0 x1 x2",
            "x0*x1",
            "x0*x2",
            "x1*x2",
            "x1^2 + x0^2",
            "x2^2 + x0^2",
        ]

    def test_json_round_trips(self, surface_path, capsys):
        assert cli.main(["present", surface_path, "--format", "json"]) == 0
        doc = parse_indent2(capsys.readouterr().out[:-1])  # print's newline
        cfg = ProximityConfig(n=2, s=2, prox=frozenset({(2, 1)}))
        assert read_presentation(doc) == total_presentation(cfg)

    def test_strict_json_round_trips(self, surface_path, capsys):
        assert cli.main(["present", surface_path, "--basis", "strict", "--format", "json"]) == 0
        doc = parse_indent2(capsys.readouterr().out[:-1])  # print's newline
        cfg = ProximityConfig(n=2, s=2, prox=frozenset({(2, 1)}))
        assert read_presentation(doc) == strict_presentation(cfg)

    def test_missing_file_is_a_user_error(self, capsys):
        assert cli.main(["present", "/no/such/file.json"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("basis", ["total", "strict"])
    def test_size_is_bounded_before_any_work(self, surface_path, capsys, monkeypatch, basis):
        def never(cfg):
            raise AssertionError("present built a presentation above the size limit")

        cfg = cli.load_config(surface_path)
        monkeypatch.setattr(cli, "MAX_PRESENT_ENTRIES", cli._present_entries(cfg, basis) - 1)
        monkeypatch.setattr(cli, "total_presentation", never)
        monkeypatch.setattr(cli, "strict_presentation", never)
        assert cli.main(["present", surface_path, "--basis", basis]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: present --basis %s with s=2 is above" % basis)

    @pytest.mark.parametrize("basis", ["total", "strict"])
    def test_size_at_the_bound_is_accepted(self, capsys, monkeypatch, basis):
        argv = ["present", THREEFOLD_PATH, "--basis", basis]
        assert cli.main(argv) == 0
        unbounded = capsys.readouterr().out
        cfg = cli.load_config(THREEFOLD_PATH)
        monkeypatch.setattr(cli, "MAX_PRESENT_ENTRIES", cli._present_entries(cfg, basis))
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == unbounded

    def test_bound_admits_the_documented_sizes(self, tmp_path, capsys):
        def entries(s, basis):
            cfg = ProximityConfig(n=3, s=s, prox=frozenset((j, j - 1) for j in range(2, s + 1)))
            return cli._present_entries(cfg, basis)

        limit = cli.MAX_PRESENT_ENTRIES
        assert entries(366, "total") <= limit < entries(367, "total")
        assert entries(45, "strict") <= limit < entries(46, "strict")
        # a strict chain past the bound, and a huge one whose total count
        # already exceeds it, are refused without listing any presentation
        for s in (46, 20000):
            path = write_config(tmp_path, chain_doc(3, s))
            assert cli.main(["present", path, "--basis", "strict"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "with s=%d is above the limit" % s in captured.err

    @pytest.mark.parametrize("n", (3, 64))
    def test_dense_strict_configs_are_refused_without_chain_counts(
        self, tmp_path, capsys, monkeypatch, n
    ):
        # s=366 (the total basis just fits), each point proximate to the n
        # before it: the support sizes |L_i| put the strict bound over the
        # limit, and they come from bitset unions, so the inverse columns
        # are never summed
        def never(config):
            raise AssertionError("present summed the proximity chain counts")

        monkeypatch.setattr(chowring, "_inverse_columns", never)
        s = 366
        points = [{"id": j, "proximate_to": list(range(max(1, j - n), j))} for j in range(1, s + 1)]
        path = write_config(tmp_path, {"ambient_dimension": n, "points": points})
        assert cli.main(["present", path, "--basis", "strict"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "with s=366 is above the limit" in captured.err

    def test_strict_bound_reads_the_inverse_column_sizes(self):
        # the support of L_i, from bitset unions, is the key set of inverse
        # column i (chain counts are positive), so the bound is the one the
        # columns' sizes give: 3s plus a * b for each pair of sizes
        def column_bound(cfg):
            sizes = [len(column) for _, column in chowring._inverse_columns(cfg)]
            total = sum(sizes)
            terms = 3 * cfg.s + (total * total - sum(a * a for a in sizes)) // 2
            return terms * (cfg.s + 1)

        configs = [
            cfg for n in (2, 3) for s in range(1, 6) for cfg in enumerate_proximity_configs(n, s)
        ]
        rng = Random(35)
        configs += [random_config(rng, rng.randint(2, 6), rng.randint(6, 60)) for _ in range(50)]
        assert len(configs) == 1718 + 50
        for cfg in configs:
            assert cli._present_entries(cfg, "strict") == column_bound(cfg)

    @given(st.integers(0, 2**30))
    def test_entry_counts_bound_the_presentations(self, seed):
        rng = Random(seed)
        cfg = random_config(rng, rng.randint(2, 4), rng.randint(1, 12))
        for basis, build in (("total", total_presentation), ("strict", strict_presentation)):
            terms = sum(len(rel.terms) for rel in build(cfg).relations)
            if basis == "total":
                assert cli._present_entries(cfg, basis) == terms * (cfg.s + 1)
            else:
                assert cli._present_entries(cfg, basis) >= terms * (cfg.s + 1)


class TestIntersect:
    @pytest.mark.parametrize(
        "expr,integral",
        [
            ("e1*e2", 1),
            ("e1^2", -2),
            ("e2^2", -1),
            ("E1*E2", 0),
            ("E1^2", -1),
            ("h^2", 1),
            ("h*e1", 0),
        ],
    )
    def test_surface_integrals(self, surface_path, capsys, expr, integral):
        assert cli.main(["intersect", surface_path, expr]) == 0
        out = capsys.readouterr().out
        assert "degree integral: %d" % integral in out

    def test_below_top_degree_prints_no_integral(self, surface_path, capsys):
        assert cli.main(["intersect", surface_path, "e1"]) == 0
        out = capsys.readouterr().out
        assert "normal form:" in out
        assert "degree integral" not in out

    def test_index_out_of_range(self, surface_path, capsys):
        assert cli.main(["intersect", surface_path, "e9"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_garbage_expression(self, surface_path, capsys):
        assert cli.main(["intersect", surface_path, "z1*e2"]) == 2
        assert "bad factor" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "expr",
        ["e١^２", "e١", "h^２", "E1^٢", "e1*e\U0001d7d0"],
        ids=["arabic-index-fullwidth-exponent", "arabic-index", "fullwidth-exponent",
             "arabic-exponent", "math-bold-index"],
    )
    def test_digits_outside_ascii_are_bad_factors(self, surface_path, capsys, expr):
        assert cli.main(["intersect", surface_path, expr]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad factor" in captured.err

    @pytest.mark.parametrize(
        "expr",
        [
            "h^2*e1^2",
            "h^3000000",
            "h^99999999999999999999",
            "h^" + "9" * 5000,
            "e1*h^" + "0" * 5000 + "3",
        ],
        ids=["degree-4", "h^3000000", "h^1e20", "5000-digit-exponent", "leading-zeros"],
    )
    def test_products_above_top_degree_vanish(self, capsys, expr):
        # n = 3: any product of four or more divisor classes is zero
        assert cli.main(["intersect", THREEFOLD_PATH, expr]) == 0
        captured = capsys.readouterr()
        assert captured.out == "normal form: 0\n"
        assert captured.err == ""

    @pytest.mark.parametrize(
        "expr,integral", [("e1^64", -2), ("h*e1^63", 0)], ids=["e1^64", "h*e1^63"]
    )
    def test_long_chain_in_high_dimension(self, tmp_path, capsys, expr, integral):
        # closed form, linear in s
        path = write_config(tmp_path, chain_doc(64, 2000))
        assert cli.main(["intersect", path, expr]) == 0
        out = capsys.readouterr().out
        assert out.endswith("degree integral: %d\n" % integral)

    @pytest.mark.parametrize(
        "expr,message",
        [
            ("h^5*e9", "out of range"),
            ("h^99999999999999999999*E0", "out of range"),
            ("e" + "9" * 5000, "out of range"),
            ("h^" + "0" * 5000, "at least 1"),
        ],
        ids=["e9", "E0-after-huge-power", "5000-digit-index", "5000-digit-zero"],
    )
    def test_atoms_are_validated_before_the_degree(self, capsys, expr, message):
        assert cli.main(["intersect", THREEFOLD_PATH, expr]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_repeated_atoms_build_one_class(self, tmp_path, capsys, monkeypatch):
        calls = []
        original = cli.strict_class_in_total

        def counting(config, i):
            calls.append(i)
            return original(config, i)

        monkeypatch.setattr(cli, "strict_class_in_total", counting)
        path = write_config(tmp_path, star_doc(3, 2000))
        assert cli.main(["intersect", path, "*".join(["e1"] * 20000)]) == 0
        assert capsys.readouterr().out == "normal form: 0\n"
        assert calls == [1]

    @pytest.mark.parametrize("expr,integral", [("e1*E7*e1", 1), ("e1^3", -1998)])
    def test_no_dense_divisor_vector(self, tmp_path, capsys, monkeypatch, expr, integral):
        def forbidden(*args, **kwargs):
            raise AssertionError("a dense divisor vector was built")

        assert not hasattr(chowring, "DivisorVector")
        assert not hasattr(chowring, "strict_to_total")
        # the original conversion builds its result through the module's name
        to_total = proximity.strict_to_total
        unit = proximity.DivisorVector.strict((0, 1))
        for module in (skychow, proximity):
            monkeypatch.setattr(module, "DivisorVector", forbidden)
            monkeypatch.setattr(module, "strict_to_total", forbidden)
        with pytest.raises(AssertionError):
            to_total(ProximityConfig(n=3, s=1), unit)
        path = write_config(tmp_path, star_doc(3, 2000))
        assert cli.main(["intersect", path, expr]) == 0
        assert capsys.readouterr().out.endswith("degree integral: %d\n" % integral)

    @given(st.integers(2, 8), st.integers(1, 50), st.integers(0, 2**30))
    def test_sparse_classes_match_the_dense_route(self, n, s, seed):
        # parse_expression and sparse_product against dense vectors,
        # strict_to_total and ChowElement products of from_divisor factors
        rng = Random(seed)
        cfg = random_config(rng, n, s)

        def dense(kind, i):
            return support(dense_class(cfg, kind, i))

        for _ in range(3):
            atoms = []
            for _ in range(rng.randint(1, n + 1)):
                kind = rng.choice("hEe")
                atoms.append((kind, 0 if kind == "h" else rng.randint(1, s), rng.randint(1, 3)))
            atoms += rng.sample(atoms, rng.randint(0, len(atoms)))  # repeated atoms
            rng.shuffle(atoms)
            huge = rng.random() < 0.2
            if huge:
                atoms[0] = (*atoms[0][:2], 10**30)
            text = "*".join(
                ("h" if kind == "h" else "%s%d" % (kind, i)) + ("^%d" % k if k > 1 else "")
                for kind, i, k in atoms
            )
            factors, degree = cli.parse_expression(text, cfg)

            merged = {}
            for kind, i, k in atoms:
                merged[kind, i] = merged.get((kind, i), 0) + k
            assert factors == [(dense(kind, i), min(k, n + 1)) for (kind, i), k in merged.items()]
            d = sum(k for _, _, k in atoms)
            assert degree == d if d <= n else degree > n

            expected = ChowElement.zero(n, s)
            if not huge:
                expected = ChowElement.one(n, s)
                for kind, i, k in atoms:
                    expected = expected * from_divisor(cfg, dense(kind, i)) ** k
            got = sparse_product(cfg, factors)
            assert got == expected and str(got) == str(expected)
            assert sparse_product(cfg, [(dense(kind, i), k) for kind, i, k in atoms]) == got


class TestFinal:
    def test_table(self, surface_path, capsys):
        assert cli.main(["final", surface_path]) == 0
        out = capsys.readouterr().out
        assert "non-final" in out and "final" in out
        assert "condition (10)" in out

    def test_json(self, surface_path, capsys):
        assert cli.main(["final", surface_path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["divisors"][0]["final_proximity"] is False
        assert doc["divisors"][1]["final_chow"] is True

    def test_single_method_skips_the_other(self, surface_path, capsys):
        assert cli.main(["final", surface_path, "--method", "proximity", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["divisors"][0]["final_chow"] is None

    def test_chow_method_prints_no_witness(self, surface_path, capsys):
        assert cli.main(["final", surface_path, "--method", "chow", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [d["final_chow"] for d in doc["divisors"]] == [False, True]
        assert all(d["final_proximity"] is None and d["witness"] is None for d in doc["divisors"])
        assert cli.main(["final", surface_path, "--method", "chow"]) == 0
        assert "condition" not in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["proximity", "chow", "both"])
    def test_strict_classes_are_built_once(self, tmp_path, capsys, monkeypatch, method):
        # finality reads each divisor's pairs off the adjacency lists once
        calls = []
        original = finality._pairs

        def counting(config, i):
            calls.append(i)
            return original(config, i)

        monkeypatch.setattr(finality, "_pairs", counting)
        assert not hasattr(finality, "strict_class_in_total")
        path = write_config(tmp_path, chain_doc(3, 6))
        assert cli.main(["final", path, "--method", method]) == 0
        assert calls == [1, 2, 3, 4, 5, 6]

    def test_long_chain(self, tmp_path, capsys):
        # every divisor but the last has a later point proximate to it
        path = write_config(tmp_path, chain_doc(3, 2000))
        assert cli.main(["final", path, "--format", "json"]) == 0
        divisors = json.loads(capsys.readouterr().out)["divisors"]
        assert len(divisors) == 2000
        for d in divisors[:-1]:
            assert d["final_proximity"] is False and d["final_chow"] is False
        assert divisors[-1]["final_proximity"] is True and divisors[-1]["final_chow"] is True
        assert divisors[0]["witness"] == "condition (11) fails for j=2: integral -1, expected 1"
        # divisor 2 meets 1 and 3, both failing: the witness names the smaller
        assert divisors[1]["witness"] == "condition (10) fails for j=1 at r=1: integral 1, expected 0"

    def test_disagreement_exit_code(self, surface_path, capsys, monkeypatch):
        fake = FinalityReport(
            (DivisorFinality(1, True, False, "synthetic"), DivisorFinality(2, True, True, None))
        )
        monkeypatch.setattr(cli, "finality_report", lambda _cfg: fake)
        assert cli.main(["final", surface_path]) == 3
        assert "disagree" in capsys.readouterr().err


class TestVerify:
    def test_surface_passes(self, surface_path, capsys):
        assert cli.main(["verify", surface_path, "--samples", "60"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 5
        assert all(l.startswith("PASS") for l in lines)
        assert any("C(s+1,2)+s" in l for l in lines)

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_are_rejected(self, surface_path, capsys, samples):
        assert cli.main(["verify", surface_path, "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "--samples" in captured.err

    @pytest.mark.parametrize("samples", [cli.MAX_VERIFY_SAMPLES + 1, 10**9, 10**40])
    def test_samples_are_bounded_before_the_config_is_read(
        self, surface_path, capsys, monkeypatch, samples
    ):
        def never(*args):
            raise AssertionError("verify read its config or started with --samples %d" % samples)

        monkeypatch.setattr(cli, "load_config", never)
        monkeypatch.setattr(cli, "_verify_checks", never)
        assert cli.main(["verify", surface_path, "--samples", str(samples)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --samples is %d; verify allows at most %d\n" % (
            samples,
            cli.MAX_VERIFY_SAMPLES,
        )

    def test_samples_at_the_bound_are_accepted(self, surface_path, capsys, monkeypatch):
        seen = []

        def record(cfg, samples, seed):
            seen.append(samples)
            yield True, "synthetic check", "%d samples" % samples

        monkeypatch.setattr(cli, "_verify_checks", record)
        argv = ["verify", surface_path, "--samples", str(cli.MAX_VERIFY_SAMPLES)]
        assert cli.main(argv) == 0
        assert seen == [cli.MAX_VERIFY_SAMPLES]
        assert capsys.readouterr().out == "PASS synthetic check (100000 samples)\n"

    def test_oracle_width_is_bounded_before_any_work(self, tmp_path, capsys, monkeypatch):
        def never(cfg, samples, seed):
            raise AssertionError("verify started on a config above the width limit")

        monkeypatch.setattr(cli, "_verify_checks", never)
        path = write_config(tmp_path, chain_doc(3, 16))  # comb(20, 4) = 4845 columns
        assert cli.main(["verify", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "4845 columns" in captured.err and "4096" in captured.err

    def test_widest_admitted_slice_passes(self, tmp_path, capsys):
        # n=3, s=15: the top slice has comb(19, 4) = 3876 columns, the widest
        # verify admits, so every oracle slice is built at its largest
        path = write_config(tmp_path, chain_doc(3, 15))
        assert cli.main(["verify", path, "--samples", "50"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert all(l.startswith("PASS") for l in lines)
        assert "(50 sampled polynomials (seed 0))" in lines[1]

    def test_finality_disagreement_fails_the_last_check(self, surface_path, capsys, monkeypatch):
        fake = FinalityReport((DivisorFinality(1, True, False, "synthetic"),))
        monkeypatch.setattr(cli, "finality_report", lambda _cfg: fake)
        assert cli.main(["verify", surface_path, "--samples", "5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL finality deciders agree on every divisor (s = 2 divisors)" in out

    def test_off_strict_power_constant_fails_the_first_check(
        self, surface_path, capsys, monkeypatch
    ):
        def off_by_one(config):
            # y_s^n + (c + 1) * y_0^n in place of the last power relation
            pres = strict_presentation(config)
            y0n = Polynomial.monomial(config.s + 1, (config.n,) + (0,) * config.s)
            (last,) = pres.factored[-1]
            return replace(pres, factored=pres.factored[:-1] + ((last + y0n,),))

        monkeypatch.setattr(cli, "strict_presentation", off_by_one)
        assert cli.main(["verify", surface_path, "--samples", "20"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "FAIL strict ideal maps into the total ideal (5 relations checked)"
        assert all(l.startswith("PASS") for l in lines[1:])

    def test_check_one_reads_the_strict_classes_intersect_reads(self, capsys, monkeypatch):
        # rho's images are the classes intersect multiplies, so a sign slip
        # in strict_class_in_total surfaces in verify's first check
        def flipped(config, i):
            e = proximity.strict_class_in_total(config, i)
            return {t: c if t == i else -c for t, c in e.items()}

        monkeypatch.setattr(chowring, "strict_class_in_total", flipped)
        assert cli.main(["verify", THREEFOLD_PATH, "--samples", "20"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("FAIL strict ideal maps into the total ideal")

    def test_flipped_point_class_sign_fails_the_second_check(
        self, surface_path, capsys, monkeypatch
    ):
        # both checks read the rewrite engine through its term-dict core;
        # check 1 asks only that each image reduces to zero, which a flipped
        # sign leaves alone
        def flipped(n, terms):
            out = chowring._normal_terms(n, terms)
            if (n, 0) in out:
                out[n, 0] = -out[n, 0]
            return out

        monkeypatch.setattr(cli, "_normal_terms", flipped)
        assert cli.main(["verify", surface_path, "--samples", "20"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == (
            "FAIL normal forms match the lattice oracle (20 sampled polynomials (seed 0))"
        )
        assert all(l.startswith("PASS") for l in lines[:1] + lines[2:])

    def test_flipped_oracle_point_class_sign_fails_the_second_check(
        self, surface_path, capsys, monkeypatch
    ):
        # the symmetric fault on the oracle's side of check 2: its core's
        # representative with the point class x_0^2 of the surface negated
        real = cli.oracle._reduce_terms

        def flipped(ideal, terms):
            out = real(ideal, terms)
            if (2, 0, 0) in out:
                out[2, 0, 0] = -out[2, 0, 0]
            return out

        monkeypatch.setattr(cli.oracle, "_reduce_terms", flipped)
        assert cli.main(["verify", surface_path, "--samples", "20"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == (
            "FAIL normal forms match the lattice oracle (20 sampled polynomials (seed 0))"
        )
        assert all(l.startswith("PASS") for l in lines[:1] + lines[2:])

    def test_inhomogeneous_image_fails_the_first_check(self, capsys, monkeypatch):
        # the oracle's core reads one term's degree and drops terms of any
        # other; with both cores calling every image zero, the image of the
        # extra relation y_1 + y_1^2 still fails on its mixed degrees
        def extended(config):
            pres = strict_presentation(config)
            extra = (Polynomial(3, {(0, 1, 0): 1, (0, 2, 0): 1}),)
            return replace(pres, factored=pres.factored + (extra,))

        monkeypatch.setattr(cli, "strict_presentation", extended)
        monkeypatch.setattr(cli, "_normal_terms", lambda n, terms: {})
        monkeypatch.setattr(cli.oracle, "_reduce_terms", lambda ideal, terms: {})
        assert cli.main(["verify", SURFACE_PATH, "--samples", "20"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "FAIL strict ideal maps into the total ideal (6 relations checked)"
        assert all(l.startswith("PASS") for l in lines[1:])

    def test_one_oracle_reduction_a_sample(self, capsys, monkeypatch):
        # check 2 reads membership off the representative of the oracle's
        # term-dict core and never builds a Polynomial for reduce; check 1
        # asks the same core once per strict relation, so no public query runs
        calls = {"_reduce_terms": 0, "reduce": 0, "membership": 0}

        def counted(name):
            real = getattr(cli.oracle, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(cli.oracle, name, counted(name))
        assert cli.main(["verify", SURFACE_PATH, "--samples", "20"]) == 0
        relations = len(strict_presentation(cli.load_config(SURFACE_PATH)).factored)
        assert relations == 5
        assert calls == {"_reduce_terms": 20 + relations, "reduce": 0, "membership": 0}

    @pytest.mark.parametrize("which", ("threefold_chain", "random n=3 s=7"))
    def test_sample_draws_are_pinned(self, monkeypatch, which):
        # check 2 draws straight from getrandbits; the term dicts it hands to
        # both engines' cores are those of Random's own calls, in the same
        # order, after check 1's one call to each core per strict relation
        if which == "threefold_chain":
            config = cli.load_config(THREEFOLD_PATH)
        else:
            config = random_config(Random(26), 3, 7)
        relations = len(strict_presentation(config).factored)
        to_oracle, to_rewrite = [], []
        real_reduce, real_normal = cli.oracle._reduce_terms, cli._normal_terms
        monkeypatch.setattr(
            cli.oracle,
            "_reduce_terms",
            lambda ideal, terms: to_oracle.append(dict(terms)) or real_reduce(ideal, terms),
        )
        monkeypatch.setattr(
            cli,
            "_normal_terms",
            lambda n, terms: to_rewrite.append(dict(terms)) or real_normal(n, terms),
        )
        for seed in range(5):
            to_oracle.clear()
            to_rewrite.clear()
            assert all(ok for ok, _, _ in cli._verify_checks(config, 250, seed))
            expected = [p.terms for p in reference_verify_samples(config, 250, seed)]
            assert to_oracle[relations:] == expected
            assert to_rewrite[relations:] == expected

    def test_zero_oracle_representatives_fail_the_second_check(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.oracle, "_reduce_terms", lambda ideal, terms: {})
        assert cli.main(["verify", SURFACE_PATH, "--samples", "20"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == (
            "FAIL normal forms match the lattice oracle (20 sampled polynomials (seed 0))"
        )
        assert all(l.startswith("PASS") for l in lines[:1] + lines[2:])

    def test_off_graded_rank_fails_the_third_check(self, surface_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "graded_rank", lambda config, d: graded_rank(config, d) + (d == 1))
        assert cli.main(["verify", surface_path, "--samples", "20"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == (
            "FAIL graded ranks are (1, s+1 repeated, 1, 0) and torsion-free (degrees 0..3)"
        )
        assert all(l.startswith("PASS") for l in lines[:2] + lines[3:])

    def test_dropped_total_relation_fails_the_rank_and_count_checks(
        self, surface_path, capsys, monkeypatch
    ):
        def dropped(config):
            pres = total_presentation(config)
            return replace(pres, factored=pres.factored[1:])

        monkeypatch.setattr(cli, "total_presentation", dropped)
        assert cli.main(["verify", surface_path, "--samples", "20"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == (
            "FAIL graded ranks are (1, s+1 repeated, 1, 0) and torsion-free (degrees 0..3)"
        )
        assert lines[3] == (
            "FAIL minimal generator count "
            "(computed 4; C(s+1,2)+s = 5 (MISMATCH); binom(n+1,2)+n = 5 (MISMATCH))"
        )

    def test_failure_exit_code(self, surface_path, capsys, monkeypatch):
        def broken(cfg, samples, seed):
            yield False, "synthetic check", "always fails"

        monkeypatch.setattr(cli, "_verify_checks", broken)
        assert cli.main(["verify", surface_path]) == 1
        assert "FAIL synthetic check" in capsys.readouterr().out


class TestDot:
    def test_satellite_graph(self, tmp_path, capsys):
        doc = {
            "ambient_dimension": 2,
            "points": [
                {"id": 1, "proximate_to": []},
                {"id": 2, "proximate_to": [1]},
                {"id": 3, "proximate_to": [1, 2]},
            ],
        }
        path = write_config(tmp_path, doc)
        assert cli.main(["dot", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph proximity {")
        assert "p2 -> p1;" in out
        assert "p3 -> p1;" in out
        assert "p3 -> p2;" in out
        # only the final divisor gets the double border
        assert out.count("peripheries=2") == 1
        assert 'p3 [label="P3", peripheries=2' in out


class TestCurveExample:
    def test_table_and_checks(self, capsys):
        assert cli.main(["curve-example", "--gamma", "2", "--c1", "6", "--check"]) == 0
        out = capsys.readouterr().out
        assert "multiplication table" in out
        assert "2*w1" in out
        assert "Z/2" in out

    def test_a_wrong_rewrite_fails_loudly(self, capsys, monkeypatch):
        # x1*w1 -> +x0^3 in place of -x0^3: the table prints the rewrite that
        # --check compares with the oracle, so its cell shows the FAIL's value
        real = curve._put

        def flipped(acc, a, b, c, coef):
            if (a, b, c) == (0, 1, 1):
                return real(acc, 3, 0, 0, coef)
            return real(acc, a, b, c, coef)

        monkeypatch.setattr(curve, "_put", flipped)
        assert cli.main(["curve-example", "--gamma", "2", "--c1", "3", "--check"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL confluence: x1*w1 rewrites to x0^3 but oracle says -x0^3" in lines
        # cells are padded to one width and joined by two spaces; none holds two
        cells = lambda line: re.split(r"\s{2,}", line.split(" | ", 1)[1].strip())
        labels = cells(lines[1])
        rows = {line.split()[0]: cells(line) for line in lines[3:8]}
        assert rows["x1"][labels.index("w1")] == "x0^3"
        assert rows["w1"][labels.index("x1")] == "x0^3"

    def test_bad_gamma(self, capsys):
        assert cli.main(["curve-example", "--gamma", "0", "--c1", "1"]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_line_note_is_printed_on_every_call(self):
        argv = ["curve-example", "--gamma", "1", "--c1", "0"]
        first, second = run_quiet(argv), run_quiet(argv)
        assert first == second
        code, out, err = first
        assert code == 0 and out.startswith("multiplication table, gamma=1")
        assert err == (
            "warning: gamma=1 (a line) is below the usual range for this model; "
            "the arithmetic goes through unchanged\n"
        )


class TestUsage:
    def test_internal_error_has_its_own_exit_code(self, surface_path, capsys, monkeypatch):
        def broken(_args):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(cli, "cmd_final", broken)
        assert cli.main(["final", surface_path]) == cli.EXIT_INTERNAL_ERROR == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" in captured.err and "RuntimeError: synthetic fault" in captured.err

    def test_unknown_command(self, capsys):
        assert cli.main(["no-such-command"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0


class TestRefusals:
    """Each subcommand raises UsageError on a bound it refuses, and main
    alone prints a refusal: one "error: " line on stderr and exit 2."""

    @staticmethod
    def handler_args(argv):
        return cli.build_parser().parse_args(argv)

    def test_present_raises_on_its_size_bound(self, monkeypatch):
        cfg = cli.load_config(SURFACE_PATH)
        monkeypatch.setattr(cli, "MAX_PRESENT_ENTRIES", cli._present_entries(cfg, "total") - 1)
        with pytest.raises(cli.UsageError, match=r"^present --basis total with s=2 is above"):
            cli.cmd_present(self.handler_args(["present", SURFACE_PATH]))

    @pytest.mark.parametrize(
        "samples, message",
        [
            (0, "--samples must be at least 1, got 0"),
            (
                cli.MAX_VERIFY_SAMPLES + 1,
                "--samples is %d; verify allows at most %d"
                % (cli.MAX_VERIFY_SAMPLES + 1, cli.MAX_VERIFY_SAMPLES),
            ),
        ],
        ids=["zero", "above-max"],
    )
    def test_verify_raises_on_its_sample_bounds(self, samples, message):
        args = self.handler_args(["verify", SURFACE_PATH, "--samples", str(samples)])
        with pytest.raises(cli.UsageError) as exc:
            cli.cmd_verify(args)
        assert str(exc.value) == message

    def test_verify_raises_on_its_width_bound(self, tmp_path):
        path = write_config(tmp_path, chain_doc(3, 16))
        with pytest.raises(cli.UsageError) as exc:
            cli.cmd_verify(self.handler_args(["verify", path]))
        assert str(exc.value) == (
            "the oracle's top slice would have 4845 columns (n=3, s=16); verify allows at most 4096"
        )

    def test_curve_example_raises_on_a_bad_gamma(self):
        args = self.handler_args(["curve-example", "--gamma", "0", "--c1", "1"])
        with pytest.raises(cli.UsageError) as exc:
            cli.cmd_curve_example(args)
        assert str(exc.value) == "gamma must be a positive integer, got 0"
        assert isinstance(exc.value.__cause__, ValueError)

    @pytest.mark.parametrize(
        "argv",
        [
            ["present", "{chain46}", "--basis", "strict"],
            ["verify", SURFACE_PATH, "--samples", "0"],
            ["verify", SURFACE_PATH, "--samples", str(cli.MAX_VERIFY_SAMPLES + 1)],
            ["verify", "{chain16}"],
            ["curve-example", "--gamma", "0", "--c1", "1"],
            ["intersect", SURFACE_PATH, "e3"],
            ["final", "/no/such/file.json"],
            ["dot", "{crowded}"],
        ],
        ids=["present-size", "samples-low", "samples-high", "oracle-width", "gamma",
             "expression", "missing-file", "bad-config"],
    )
    def test_main_prints_each_refusal_once(self, tmp_path, argv):
        paths = {
            "{chain46}": write_config(tmp_path, chain_doc(3, 46), "chain46.json"),
            "{chain16}": write_config(tmp_path, chain_doc(3, 16), "chain16.json"),
            "{crowded}": write_config(tmp_path, TestLoadConfig.crowded_doc(), "crowded.json"),
        }
        code, out, err = run_quiet([paths.get(word, word) for word in argv])
        assert code == cli.EXIT_USER_ERROR == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


REENTRANT_ARGVS = (
    ["present", SATELLITE_PATH, "--basis", "strict"],
    ["intersect", THREEFOLD_PATH, "e1*e2*h"],
    ["final", SATELLITE_PATH, "--format", "json"],
    ["verify", SURFACE_PATH, "--samples", "20"],
    ["dot", THREEFOLD_PATH],
    ["curve-example", "--gamma", "2", "--c1", "6", "--check"],
    ["--help"],
    ["final", "--help"],
    ["no-such-command"],
    ["present", SURFACE_PATH, "--format", "xml"],
    ["intersect", SURFACE_PATH],
    ["curve-example", "--gamma", "1", "--c1", "0"],
)


class TestReentrancy:
    """main builds its parser once per process; no call may see another."""

    def test_cached_parser_answers_like_a_fresh_one(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        fresh = []
        for argv in REENTRANT_ARGVS:
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(run_quiet(argv))
        assert [code for code, _, _ in fresh] == [0] * 8 + [2] * 3 + [0]

        build_parser, builds = cli.build_parser, []

        def counted():
            builds.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        monkeypatch.setattr(cli, "_parser", None)
        passes = [[run_quiet(argv) for argv in REENTRANT_ARGVS] for _ in range(2)]
        assert len(builds) == 1
        assert passes[0] == passes[1] == fresh


class TestDispatch:
    """main hands a leading subcommand's words straight to its parser; every
    exit code and byte of output matches the whole top-level parse."""

    ARGVS = (
        ["final", SURFACE_PATH, "extra"],
        ["intersect", SURFACE_PATH, "e1", "e2"],
        [],
        ["-h", "final"],
        ["final"],
        ["verify", SURFACE_PATH, "--samples", "x"],
        ["fin", SURFACE_PATH],
        ["--", "final", SURFACE_PATH],
        ["final", "--", SURFACE_PATH],
        ["final", SURFACE_PATH, "--format", "json"],
        ["intersect", SURFACE_PATH, "e1*e2"],
    )

    @staticmethod
    def both(argv):
        got = run_quiet(argv)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = reference_main(argv)
        return got, (code, out.getvalue(), err.getvalue())

    def test_matches_the_whole_parse(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for argv in self.ARGVS:
            got, want = self.both(argv)
            assert got == want, argv

    def test_leftover_words_get_the_top_level_usage(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        for argv, extras in (
            (["final", SURFACE_PATH, "extra"], "extra"),
            (["intersect", SURFACE_PATH, "e1", "e2"], "e2"),
        ):
            code, out, err = run_quiet(argv)
            assert (code, out) == (cli.EXIT_USER_ERROR, "")
            assert err.startswith("usage: skychow [-h] {present,")
            assert err.endswith("skychow: error: unrecognized arguments: %s\n" % extras)

    @pytest.mark.parametrize(
        "words", [["final", SURFACE_PATH, "--format", "json"], ["dot", SURFACE_PATH, "x"]]
    )
    def test_none_reads_sys_argv(self, monkeypatch, words):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setattr(sys, "argv", ["skychow"] + words)
        got, want = self.both(None)
        assert got == want == self.both(words)[1]


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.lists(st.integers(-2, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)


@st.composite
def expression_texts(draw):
    """Intersect expression text: mostly products of atoms, some free text."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=20))
    chunks = []
    for _ in range(draw(st.integers(1, 5))):
        atom = draw(st.sampled_from(("h", "E", "e")))
        if atom != "h":
            atom += str(draw(st.integers(0, 5)))
        if draw(st.booleans()):
            atom += "^%d" % draw(st.integers(0, 5))
        chunks.append(atom + draw(st.sampled_from(("", " "))))
    return "*".join(chunks)


@st.composite
def config_texts(draw):
    """Config file text: a valid document with at most one part broken."""
    n = draw(st.integers(2, 4))
    points = [{"id": 1}]
    for pos in range(2, draw(st.integers(1, 7)) + 1):
        targets = draw(st.lists(st.integers(1, pos - 1), max_size=n, unique=True))
        points.append({"id": pos, "proximate_to": targets})
    doc = {"ambient_dimension": n, "points": points}
    fault = draw(st.sampled_from((None, None, None, "text", "json", "dimension",
                                  "points", "id", "targets", "entry", "snc", "missing")))
    pos = draw(st.integers(0, len(points) - 1))
    if fault == "text":
        return draw(st.text(max_size=40))
    if fault == "json":
        return json.dumps(draw(JUNK))
    if fault == "dimension":
        doc["ambient_dimension"] = draw(st.one_of(st.integers(-1, 70), JUNK))
    elif fault == "points":
        doc["points"] = draw(JUNK)
    elif fault == "id":
        points[pos]["id"] = draw(st.one_of(st.integers(-1, 9), JUNK))
    elif fault == "targets":
        points[pos]["proximate_to"] = draw(
            st.one_of(st.lists(st.integers(-1, 9), max_size=5), JUNK)
        )
    elif fault == "entry":
        points[pos] = draw(JUNK)
    elif fault == "snc":
        doc["strict_snc_check"] = draw(st.one_of(st.booleans(), JUNK))
    elif fault == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    return json.dumps(doc)


@st.composite
def loose_config_texts(draw):
    """Config file text whose proximate_to lists hold up to six earlier ids
    in any order, with repeats, so some points are crowded; n or the flag
    may be a string or junk, and sometimes one id or target is broken."""
    n = draw(st.one_of(st.integers(2, 4), st.integers(2, 4).map(str), JUNK))
    points = [{"id": 1, "proximate_to": []}]
    for pos in range(2, draw(st.integers(1, 8)) + 1):
        targets = draw(st.lists(st.integers(1, pos - 1), max_size=6))
        points.append({"id": pos, "proximate_to": targets})
    doc = {"ambient_dimension": n, "points": points}
    if draw(st.booleans()):
        doc["strict_snc_check"] = draw(st.one_of(st.booleans(), JUNK))
    pos = draw(st.integers(0, len(points) - 1))
    fault = draw(st.sampled_from((None, None, "id", "target")))
    if fault == "id":
        points[pos]["id"] = draw(st.one_of(st.integers(-1, 9), JUNK))
    elif fault == "target" and points[pos]["proximate_to"]:
        targets = points[pos]["proximate_to"]
        targets[draw(st.integers(0, len(targets) - 1))] = draw(
            st.one_of(st.integers(-1, 9), JUNK)
        )
    return json.dumps(doc)


def option_texts(*ranges):
    """Integer option text: values from the given (low, high) ranges, and
    non-integers.  Decimal digits of any script stay out of the free text,
    so no draw runs verify on a large in-range --samples by accident."""
    return st.one_of(
        *(st.integers(lo, hi).map(str) for lo, hi in ranges),
        st.sampled_from(("", "-", "+3", " 4 ", "1_0", "1_000_000", "0x10", "1e3", "٣", "-h")),
        st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6),
    )


HUGE = 10**40


class TestLoaderMatchesReference:
    """load_config against the loader it replaced, kept in tests/helpers.py."""

    @given(st.one_of(config_texts(), loose_config_texts()))
    # repr does not depend on the listed order: point 7 lists its targets descending
    @example(text=json.dumps({"ambient_dimension": 2, "points": [
        {"id": 1}, {"id": 2}, {"id": 3}, {"id": 4, "proximate_to": [1]},
        {"id": 5}, {"id": 6}, {"id": 7, "proximate_to": [2, 1]},
    ]}))
    # the loader tests a falsy proximate_to first: a missing list and [] are
    # skipped, every other falsy value is refused as a non-list
    @example(text=json.dumps({"ambient_dimension": 2, "points": [
        {"id": 1}, {"id": 2, "proximate_to": [1]}, {"id": 3},
    ]}))
    @example(text=json.dumps({"ambient_dimension": 2, "points": [
        {"id": 1, "proximate_to": []}, {"id": 2, "proximate_to": []},
    ]}))
    @example(text=json.dumps({"ambient_dimension": 2, "points": [
        {"id": 1}, {"id": 2, "proximate_to": {}},
    ]}))
    @example(text=json.dumps({"ambient_dimension": 2, "points": [
        {"id": 1}, {"id": 2, "proximate_to": 0},
    ]}))
    @example(text=json.dumps({"ambient_dimension": 2, "points": [
        {"id": 1}, {"id": 2, "proximate_to": False},
    ]}))
    @example(text=json.dumps({"ambient_dimension": 2, "points": [
        {"id": 1}, {"id": 2, "proximate_to": ""},
    ]}))
    @example(text=json.dumps({"ambient_dimension": 2, "points": [
        {"id": 1, "proximate_to": None}, {"id": 2},
    ]}))
    def test_matches_the_reference_loader(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "loaded.json"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        results = []
        for load in (cli.load_config, reference_load_config):
            try:
                results.append(load(str(path)))
            except InvalidConfigError as exc:
                results.append(str(exc))
        got, want = results
        if isinstance(want, str):
            assert got == want
            return
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        points = range(1, want.s + 1)
        assert [got.proximity_targets(j) for j in points] == [
            want.proximity_targets(j) for j in points
        ]
        assert [got.proximate_points(i) for i in points] == [
            want.proximate_points(i) for i in points
        ]
        # total_to_strict substitutes forward, so the targets map must ascend
        assert list(got._targets) == list(want._targets)


class TestExitCodeFuzz:
    """Random input only ever succeeds or is refused as bad input, printing nothing."""

    @given(expression_texts())
    def test_intersect_expressions(self, text):
        code, out, _ = run_quiet(["intersect", THREEFOLD_PATH, text])
        assert code in (0, 2)
        if code == 2:
            assert out == ""

    @given(
        config_texts(),
        st.sampled_from(
            [
                ["final"],
                ["final", "--method", "chow", "--format", "json"],
                ["dot"],
                ["intersect", "h*e1^2"],
                ["present"],
                ["present", "--basis", "strict", "--format", "json"],
            ]
        ),
    )
    def test_config_documents(self, tmp_path_factory, text, command):
        path = tmp_path_factory.getbasetemp() / "fuzzed.json"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        code, out, _ = run_quiet([command[0], str(path)] + command[1:])
        assert code in (0, 2)
        if code == 2:
            assert out == ""

    @given(
        option_texts((-3, 30), (-HUGE, 0), (cli.MAX_VERIFY_SAMPLES + 1, HUGE)),
        option_texts((-5, 5), (-HUGE, HUGE)),
    )
    def test_verify_options(self, samples, seed):
        argv = ["verify", SURFACE_PATH, "--samples", samples, "--seed", seed]
        code, out, _ = run_quiet(argv)
        assert code in (0, 2)
        if code == 2:
            assert out == ""
        else:
            assert out.count("PASS") == 5

    @given(option_texts((-3, 9), (-HUGE, HUGE)), option_texts((-9, 9), (-HUGE, HUGE)), st.booleans())
    def test_curve_example_options(self, gamma, c1, check):
        argv = ["curve-example", "--gamma", gamma, "--c1", c1] + ["--check"] * check
        code, out, _ = run_quiet(argv)
        assert code in (0, 2)
        if code == 2:
            assert out == ""
