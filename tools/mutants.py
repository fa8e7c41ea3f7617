"""Check that the test suite catches a listed set of single-token bugs.

Each mutant copies the tree into a temporary directory, makes one source
change there, and runs the suite with -x.  A mutant the suite passes
survives; the script prints the survivors and exits 1 if there are any
(2 if a mutation no longer matches its source).  Standard library only.

    python tools/mutants.py               # every mutant, about 10 s each
    python tools/mutants.py meeting-test  # only the named ones
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> (file, text, mutated text); the text must occur exactly once
MUTANTS = {
    "point-integral-sign": (
        "src/skychow/finality.py",
        "total += x if n % 2 else -x * y",
        "total += x if n % 2 else x * y",
    ),
    "meeting-test": (
        "src/skychow/finality.py",
        "if _point_integral(2, sh)]",
        "if _point_integral(3, sh)]",
    ),
    "condition-ten-parity": (
        "src/skychow/finality.py",
        "if ein != -odd:",
        "if ein != odd:",
    ),
    # the next four keep the names of the running-product pass they once
    # targeted: condition (10)'s r = 2 bound, the parity selection of
    # _parity_integrals, and the signs of its odd-r and even-r values
    "running-product-bound": (
        "src/skychow/finality.py",
        "if n > 2 and ein != even:",
        "if n > 3 and ein != even:",
    ),
    "running-product-step": (
        "src/skychow/finality.py",
        "if n % 2:\n        return sum(",
        "if not n % 2:\n        return sum(",
    ),
    "first-integral-sign": (
        "src/skychow/finality.py",
        "return sum(y for _, y in shared), point",
        "return -sum(y for _, y in shared), point",
    ),
    "lower-integral-sign": (
        "src/skychow/finality.py",
        "return point, -len(shared)",
        "return point, len(shared)",
    ),
    "self-integral-sign": (
        "src/skychow/finality.py",
        "return 2 - len(ei) if n % 2 else -len(ei)",
        "return 2 - len(ei) if n % 2 else len(ei)",
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
    "curve-x1w1-sign": (
        "src/skychow/curve.py",
        "- a2 * b4 - a4 * b2",
        "+ a2 * b4 - a4 * b2",
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
    "reduction-image-sign": (
        "src/skychow/oracle.py",
        "tuple([(u, -c) for u, c in row.items() if u != p])",
        "tuple([(u, c) for u, c in row.items() if u != p])",
    ),
    "membership-zero-test": (
        "src/skychow/oracle.py",
        "return not any(_slice_vector(ideal, p, True)[1].values())",
        "return any(_slice_vector(ideal, p, True)[1].values())",
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
}

IGNORED = shutil.ignore_patterns(
    ".git", ".hypothesis", ".pytest_cache", ".perfbench_out", ".benchmarks", "__pycache__"
)

TIMEOUT_S = 600


def run_mutant(name: str) -> str:
    """'killed', 'survived' or 'stale' (the text to mutate is not there once)."""
    rel, text, mutated = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="skychow-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        path = tree / rel
        source = path.read_text(encoding="utf-8")
        if source.count(text) != 1:
            return "stale"
        path.write_text(source.replace(text, mutated), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                "--continue-on-collection-errors"]
        try:
            done = subprocess.run(argv, cwd=tree, env=env, capture_output=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"  # a hang is noticed too
        return "survived" if done.returncode == 0 else "killed"


def main(names) -> int:
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print("unknown mutant(s): %s; known: %s" % (", ".join(unknown), ", ".join(MUTANTS)))
        return 2
    verdicts = {}
    for name in names or MUTANTS:
        verdicts[name] = run_mutant(name)
        print("%-22s %s" % (name, verdicts[name]), flush=True)
    survivors = [n for n, v in verdicts.items() if v == "survived"]
    print("surviving mutants: %s" % (", ".join(survivors) or "none"))
    if "stale" in verdicts.values():
        return 2
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
