"""Default stdout and exit code of fixed CLI runs, diffed against checked-in files.

Each case's stdout is kept in tests/golden/<name>.out and its exit code in
tests/golden/exit_codes.json.  Regenerate them only when an output change is
intended:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest

from skychow.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = ("satellite", "surface", "threefold_chain")

# intersect products per config: total and strict classes, degree n and below
PRODUCTS = {
    "satellite": ("h^2", "e1*e2", "e3^2", "E1*E3", "h*e2"),
    "surface": ("h^2", "e1^2", "e1*e2", "E2^2"),
    "threefold_chain": ("h^3", "e1*e2*h", "E2^2*e3", "e4^3", "e1*e5", "h^4"),
}

# intersect products on tests/configs/threefold_mixed.json (n=3, s=16): strict
# classes with overlapping supports (e2, e3 share E4 and E5), unrelated pairs
# whose products are 0, mixes with h and E, repeated atoms, and degree above n
MIXED_PRODUCTS = (
    "e2*e3*E4",
    "e8*e9*e12",
    "h^2*e3",
    "e2*e3",
    "h*h",
    "e1*e13*e6",
    "e9*e16*e9",
    "e3^2*E7",
    "E10*e9",
    "e3^3",
    "e6*e9^2",
    "e3^2*e3^2",
)


def _cases():
    cases = {}
    for name in CONFIGS:
        cfg = "configs/%s.json" % name
        for basis in ("total", "strict"):
            for fmt in ("text", "json"):
                cases["present-%s-%s-%s" % (name, basis, fmt)] = [
                    "present", cfg, "--basis", basis, "--format", fmt,
                ]
        for method in ("proximity", "chow", "both"):
            for fmt in ("table", "json"):
                cases["final-%s-%s-%s" % (name, method, fmt)] = [
                    "final", cfg, "--method", method, "--format", fmt,
                ]
        for k, expr in enumerate(PRODUCTS[name]):
            cases["intersect-%s-%d" % (name, k)] = ["intersect", cfg, expr]
        cases["dot-%s" % name] = ["dot", cfg]
        for seed in (0, 7):
            cases["verify-%s-seed%d" % (name, seed)] = ["verify", cfg, "--seed", str(seed)]
    # a larger n=3 config whose witnesses name both condition (10) and (11);
    # it lives under tests/, since the oracle tests build every configs/ file
    cfg = "tests/configs/threefold_mixed.json"
    for method, fmt in (("both", "table"), ("both", "json"), ("chow", "json")):
        cases["final-threefold_mixed-%s-%s" % (method, fmt)] = [
            "final", cfg, "--method", method, "--format", fmt,
        ]
    for k, expr in enumerate(MIXED_PRODUCTS):
        cases["intersect-threefold_mixed-%d" % k] = ["intersect", cfg, expr]
    # seeded n=4, s=6 and n=5, s=5 examples, each with a final divisor that
    # meets another, so condition (10)'s even-r comparison runs at n >= 4
    for name in ("fourfold", "fivefold"):
        cfg = "configs/%s.json" % name
        cases["final-%s-both-table" % name] = [
            "final", cfg, "--method", "both", "--format", "table",
        ]
        cases["verify-%s-seed0" % name] = ["verify", cfg, "--seed", "0"]
    # an n=8, s=21 config (seeded, 0-3 proximities a point) with witnesses
    # for both conditions, so finality integrals above degree 3 are pinned
    cfg = "tests/configs/eightfold_mixed.json"
    for fmt in ("table", "json"):
        cases["final-eightfold_mixed-both-%s" % fmt] = [
            "final", cfg, "--method", "both", "--format", fmt,
        ]
    for gamma, c1 in ((1, 0), (2, 6), (3, -4)):
        cases["curve-g%d-c%d" % (gamma, c1)] = [
            "curve-example", "--gamma", str(gamma), "--c1", str(c1), "--check",
        ]
    cases["help"] = ["--help"]
    for command in ("present", "intersect", "final", "verify", "dot", "curve-example"):
        cases["%s-help" % command] = [command, "--help"]
    return cases


CASES = _cases()


def run(argv):
    """(stdout, exit code) of main(argv), config paths taken from the repo root.

    COLUMNS is pinned, since argparse wraps help text to the terminal width."""
    argv = [str(ROOT / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), patch.dict(os.environ, COLUMNS="80"):
        code = main(argv)
    return out.getvalue(), code


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


def test_every_case_has_a_golden_file(exit_codes):
    assert sorted(exit_codes) == sorted(CASES)
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, exit_codes):
    out, code = run(CASES[name])
    assert out == (GOLDEN / (name + ".out")).read_text(encoding="utf-8")
    assert code == exit_codes[name]


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        out, codes[name] = run(argv)
        (GOLDEN / (name + ".out")).write_text(out, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    sys.exit(regenerate())
