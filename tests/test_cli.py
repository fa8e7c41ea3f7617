"""Command line surface: config loading, output shapes, exit codes."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import skychow.cli as cli
from skychow import finality
from skychow.chowring import Presentation, total_presentation, strict_presentation
from skychow.finality import DivisorFinality, FinalityReport
from skychow.proximity import InvalidConfigError, ProximityConfig

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


def chain_doc(n, s):
    points = [{"id": j, "proximate_to": [j - 1] if j > 1 else []} for j in range(1, s + 1)]
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
        doc = json.loads(capsys.readouterr().out)
        cfg = ProximityConfig(n=2, s=2, prox=frozenset({(2, 1)}))
        assert Presentation.from_json_dict(doc) == total_presentation(cfg)

    def test_strict_json_round_trips(self, surface_path, capsys):
        assert cli.main(["present", surface_path, "--basis", "strict", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        cfg = ProximityConfig(n=2, s=2, prox=frozenset({(2, 1)}))
        assert Presentation.from_json_dict(doc) == strict_presentation(cfg)

    def test_missing_file_is_a_user_error(self, capsys):
        assert cli.main(["present", "/no/such/file.json"]) == 2
        assert "error" in capsys.readouterr().err


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
        calls = []
        original = finality._strict_classes

        def counting(config):
            calls.append(config.s)
            return original(config)

        monkeypatch.setattr(finality, "_strict_classes", counting)
        path = write_config(tmp_path, chain_doc(3, 6))
        assert cli.main(["final", path, "--method", method]) == 0
        assert calls == [6]

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
        cfg = cli.load_config(surface_path)
        fake = FinalityReport(
            cfg,
            (
                DivisorFinality(1, True, False, "synthetic"),
                DivisorFinality(2, True, True, None),
            ),
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
        cfg = cli.load_config(surface_path)
        fake = FinalityReport(cfg, (DivisorFinality(1, True, False, "synthetic"),))
        monkeypatch.setattr(cli, "finality_report", lambda _cfg: fake)
        assert cli.main(["verify", surface_path, "--samples", "5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL finality deciders agree on every divisor (s = 2 divisors)" in out

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

    def test_bad_gamma(self, capsys):
        assert cli.main(["curve-example", "--gamma", "0", "--c1", "1"]) == 2
        assert "gamma" in capsys.readouterr().err


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


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


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

    @pytest.mark.filterwarnings("ignore:gamma=1")
    @given(option_texts((-3, 9), (-HUGE, HUGE)), option_texts((-9, 9), (-HUGE, HUGE)), st.booleans())
    def test_curve_example_options(self, gamma, c1, check):
        argv = ["curve-example", "--gamma", gamma, "--c1", c1] + ["--check"] * check
        code, out, _ = run_quiet(argv)
        assert code in (0, 2)
        if code == 2:
            assert out == ""
