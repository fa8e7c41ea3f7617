"""Check that the test suite catches a listed set of single-token bugs.

Each mutant copies the tree into a temporary directory, makes one source
change there, and runs the suite with -x.  A mutant the suite passes
survives; the script prints the survivors and exits 1 if there are any
(2 if a mutation no longer matches its source).  Standard library only.

With --verify the mutated copy runs the user-facing checks instead of the
suite: `skychow verify` on every file in configs/ plus
tests/configs/threefold_mixed.json, with seeds 0-2, and `skychow
curve-example --check` on a few fixed (gamma, c1).  Each mutant is put in
one class against the unmutated tree's runs: "exit code" when some run's
exit code differs (a check failed or the run broke), "stdout only" when no
exit code differs but some stdout does (every check still passed), and
"missed" otherwise.  The script prints both counts, the mutants these
checks miss and the kill rate (the exit-code count), and exits 0 (2 if a
mutation is stale).

    python tools/mutants.py               # every mutant, about 10 s each
    python tools/mutants.py meeting-test  # only the named ones
    python tools/mutants.py --verify      # the user checks as the detector, about 4 s each
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> (file, text, mutated text); the text must occur exactly once
MUTANTS = {
    "point-integral-sign": (
        "src/skychow/finality.py",
        "point = odd = abs(d) - c",
        "point = odd = -abs(d) - c",
    ),
    "meeting-test": (
        "src/skychow/finality.py",
        "abs(direct[j]) != common.get(j, 0)}",
        "abs(direct[j]) > common.get(j, 0)}",
    ),
    "meeting-skip": (
        "src/skychow/finality.py",
        "if not point and n == 2:",
        "if not point and n != 2:",
    ),
    "condition-ten-parity": (
        "src/skychow/finality.py",
        "if ein != -odd:",
        "if ein != odd:",
    ),
    "condition-ten-even-bound": (
        "src/skychow/finality.py",
        "if n > 2 and ein != even:",
        "if n > 3 and ein != even:",
    ),
    "parity-integrals-select": (
        "src/skychow/finality.py",
        "if n % 2:\n            point = even",
        "if not n % 2:\n            point = even",
    ),
    "first-integral-sign": (
        "src/skychow/finality.py",
        "odd = -d - c",
        "odd = d - c",
    ),
    "lower-integral-sign": (
        "src/skychow/finality.py",
        "even = -abs(d) - c",
        "even = abs(d) - c",
    ),
    "self-integral-sign": (
        "src/skychow/finality.py",
        "else -1 - len(proximate)",
        "else 1 - len(proximate)",
    ),
    "pair-target-sign": (
        "src/skychow/finality.py",
        "dict.fromkeys(targets.get(i, ()), 1)",
        "dict.fromkeys(targets.get(i, ()), -1)",
    ),
    "pair-proximate-sign": (
        "src/skychow/finality.py",
        "direct[t] = -1",
        "direct[t] = 1",
    ),
    "pair-self-exclusion": (
        "src/skychow/finality.py",
        "if k != i:",
        "if k != t:",
    ),
    "substitution-order": (
        "src/skychow/poly.py",
        "for i, e in enumerate(exps):\n                if e:",
        "for i, e in enumerate(exps[::-1]):\n                if e:",
    ),
    "ascending-list-test": (
        "src/skychow/cli.py",
        "not prev < t < pos",
        "not prev <= t < pos",
    ),
    "falsy-targets-test": (
        "src/skychow/cli.py",
        "if not listed or type(listed)",
        "if listed or type(listed)",
    ),
    "verify-degree-bound": (
        "src/skychow/cli.py",
        "while d >= top:",
        "while d > top:",
    ),
    "sample-position-bound": (
        "src/skychow/poly.py",
        "while j >= n or j in picked:",
        "while j > n or j in picked:",
    ),
    "lazy-pair-orientation": (
        "src/skychow/proximity.py",
        "[(j, i) for j, row in",
        "[(i, j) for j, row in",
    ),
    "curve-product-exponent-sum": (
        "src/skychow/curve.py",
        "a + d, b + e, c + f",
        "a + d, b + e, c * f",
    ),
    "curve-rewrite-x1w1-sign": (
        "src/skychow/curve.py",
        "_put(acc, a + 3, b - 1, c - 1, -coef)",
        "_put(acc, a + 3, b - 1, c - 1, coef)",
    ),
    "power-rule-parity": (
        "src/skychow/chowring.py",
        "if not n % 2:",
        "if n % 2:",
    ),
    "hermite-reduce-step": (
        "src/skychow/oracle.py",
        "_axpy(v, -q, row, heap, pivots)",
        "_axpy(v, q, row, heap, pivots)",
    ),
    "hermite-gcd-step": (
        "src/skychow/oracle.py",
        "_put(vec, t, ag * vt - bg * rt)",
        "_put(vec, t, ag * vt + bg * rt)",
    ),
    "settle-rows-above": (
        "src/skychow/oracle.py",
        "self._reduce_in_place(rk, j)",
        "self._reduce_in_place(rk, j + 1)",
    ),
    "settle-changed-row": (
        "src/skychow/oracle.py",
        "if len(row) > 1:  # a single entry is its pivot",
        "if len(row) < 1:  # a single entry is its pivot",
    ),
    "reduction-image-sign": (
        "src/skychow/oracle.py",
        "tuple([(u, -c) for u, c in row.items() if u != p])",
        "tuple([(u, c) for u, c in row.items() if u != p])",
    ),
    "query-length-check": (
        "src/skychow/oracle.py",
        "if len(exps) != nvars:",
        "if len(exps) > nvars:",
    ),
    "membership-zero-test": (
        "src/skychow/oracle.py",
        "return not any(_slice_vector(ideal, p.terms)[1].values())",
        "return any(_slice_vector(ideal, p.terms)[1].values())",
    ),
    "derived-dead-pivot": (
        "src/skychow/oracle.py",
        "row[p] == 1",
        "row[p] >= 1",
    ),
    "live-term-filter": (
        "src/skychow/oracle.py",
        "terms = [t for t in terms if t[0] in live]",
        "terms = [t for t in terms if t[0] not in live]",
    ),
    "strict-power-constant": (
        "src/skychow/chowring.py",
        "c = sign + len(proximate.get(i, ()))",
        "c = sign - len(proximate.get(i, ()))",
    ),
    "stir-slice-index": (
        "src/skychow/cli.py",
        "_draw_terms(slices[d - dg], bits)",
        "_draw_terms(slices[dg - d], bits)",
    ),
    "strict-column-sum": (
        "src/skychow/chowring.py",
        "column[k] = column.get(k, 0) + c",
        "column[k] = c",
    ),
    "strict-class-sign": (
        "src/skychow/proximity.py",
        "out[j] = -1",
        "out[j] = 1",
    ),
    "support-range-check": (
        "src/skychow/chowring.py",
        "max(v) > config.s)",
        "max(v) > config.s + 1)",
    ),
    "strict-scan-membership": (
        "src/skychow/proximity.py",
        "if i in row:",
        "if i not in row:",
    ),
    "targets-orientation": (
        "src/skychow/proximity.py",
        "targets.setdefault(j, []).append(i)",
        "targets.setdefault(i, []).append(j)",
    ),
    "reverse-map-orientation": (
        "src/skychow/proximity.py",
        "proximate.setdefault(i, []).append(j)",
        "proximate.setdefault(j, []).append(i)",
    ),
    "power-terms-variable": (
        "src/skychow/chowring.py",
        "exps[i] = d",
        "exps[0] = d",
    ),
    "rho-image-sign": (
        "src/skychow/chowring.py",
        "{(1, t): c for t, c in strict_class_in_total",
        "{(1, t): -c for t, c in strict_class_in_total",
    ),
    "crowding-bound": (
        "src/skychow/proximity.py",
        "len(row) > n",
        "len(row) >= n",
    ),
    "dispatch-leftover-test": (
        "src/skychow/cli.py",
        "if extras:",
        "if not extras:",
    ),
    "weights-int-type": (
        "src/skychow/poly.py",
        "type(w) is not int or w < 1",
        "not isinstance(w, int) or w < 1",
    ),
    "coefficient-int-type": (
        "src/skychow/poly.py",
        "if type(coef) is not int:",
        "if not isinstance(coef, int):",
    ),
    "strict-support-union": (
        "src/skychow/cli.py",
        "supports[i] |= supports[j]",
        "supports[i] &= supports[j]",
    ),
    "json-list-close-pad": (
        "src/skychow/poly.py",
        "pad[:-2]",
        "pad[:-1]",
    ),
}

IGNORED = shutil.ignore_patterns(
    ".git", ".hypothesis", ".pytest_cache", ".perfbench_out", ".benchmarks", "__pycache__"
)

TIMEOUT_S = 600

# verify's fixed inputs, relative to the root of a tree
VERIFY_CONFIGS = sorted(
    str(p.relative_to(ROOT)) for p in (ROOT / "configs").glob("*.json")
) + ["tests/configs/threefold_mixed.json"]
VERIFY_SEEDS = (0, 1, 2)
# curve-example --check's fixed (gamma, c1): two with degree-4 torsion Z/2, one without
CURVE_PARAMS = ((2, 6), (3, -4), (4, 6))
VERIFY_TIMEOUT_S = 120
MAIN = "import sys; from skychow.cli import main; sys.exit(main(sys.argv[1:]))"
ENV = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")


@contextmanager
def tree_copy(name=None):
    """A temporary copy of the tree with the named mutant applied (none if
    name is None), or None when the text to mutate is not there once."""
    with tempfile.TemporaryDirectory(prefix="skychow-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        if name is not None:
            rel, text, mutated = MUTANTS[name]
            path = tree / rel
            source = path.read_text(encoding="utf-8")
            if source.count(text) != 1:
                yield None
                return
            path.write_text(source.replace(text, mutated), encoding="utf-8")
        yield tree


def run_mutant(name: str) -> str:
    """'killed', 'survived' or 'stale' (the text to mutate is not there once)."""
    with tree_copy(name) as tree:
        if tree is None:
            return "stale"
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                "--continue-on-collection-errors"]
        try:
            done = subprocess.run(argv, cwd=tree, env=ENV, capture_output=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"  # a hang is noticed too
        return "survived" if done.returncode == 0 else "killed"


def verify_outputs(tree: Path) -> list:
    """(exit code, stdout) of skychow verify on each fixed config and seed,
    then of curve-example --check on each fixed (gamma, c1)."""
    runs = [["verify", config, "--seed", str(seed)]
            for config in VERIFY_CONFIGS for seed in VERIFY_SEEDS]
    runs += [["curve-example", "--gamma", str(g), "--c1", str(c1), "--check"]
             for g, c1 in CURVE_PARAMS]
    outputs = []
    for args in runs:
        argv = [sys.executable, "-c", MAIN, *args]
        try:
            done = subprocess.run(argv, cwd=tree, env=ENV, capture_output=True,
                                  timeout=VERIFY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            outputs.append(("timeout", b""))
            continue
        outputs.append((done.returncode, done.stdout))
    return outputs


def verify_mutant(name: str, reference: list) -> str:
    """'exit code', 'stdout only', 'missed' or 'stale': what of the fixed
    runs' output changes?"""
    with tree_copy(name) as tree:
        if tree is None:
            return "stale"
        outputs = verify_outputs(tree)
    if any(code != ref for (code, _), (ref, _) in zip(outputs, reference)):
        return "exit code"
    return "missed" if outputs == reference else "stdout only"


def main(argv) -> int:
    verify = "--verify" in argv
    names = [a for a in argv if a != "--verify"]
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print("unknown mutant(s): %s; known: %s" % (", ".join(unknown), ", ".join(MUTANTS)))
        return 2
    if verify:
        with tree_copy() as tree:
            reference = verify_outputs(tree)
    verdicts = {}
    for name in names or MUTANTS:
        verdicts[name] = verify_mutant(name, reference) if verify else run_mutant(name)
        print("%-24s %s" % (name, verdicts[name]), flush=True)
    stale = "stale" in verdicts.values()
    if verify:
        missed = [n for n, v in verdicts.items() if v == "missed"]
        failed = sum(v == "exit code" for v in verdicts.values())
        stdout_only = sum(v == "stdout only" for v in verdicts.values())
        tried = failed + stdout_only + len(missed)
        print("user checks change an exit code on %d, only stdout on %d"
              % (failed, stdout_only))
        print("user checks miss: %s" % (", ".join(missed) or "none"))
        print("user checks kill rate: %d of %d (%.0f%%) over %d configs x %d seeds"
              " and %d curve-example runs"
              % (failed, tried, 100 * failed / max(tried, 1),
                 len(VERIFY_CONFIGS), len(VERIFY_SEEDS), len(CURVE_PARAMS)))
        return 2 if stale else 0
    survivors = [n for n, v in verdicts.items() if v == "survived"]
    print("surviving mutants: %s" % (", ".join(survivors) or "none"))
    if stale:
        return 2
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
