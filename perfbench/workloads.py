"""Seeded workloads for the skychow benchmark, and their reference checks.

Every workload is a list of ops.  An op is the argv of one ``skychow``
subcommand plus what its independent reference needs.  Config files are
generated from the workload seed, written as JSON, and never repeated within
one process: ``finality`` memoizes strict classes by config value, and a
repeated config would give a cache hit that a command-line user never gets.

The references share no code with the package.  They read the config file
back with ``json`` and use the closed form of a top-degree product of
degree-1 classes given in total coordinates v = (v_0; v_1..v_s):

    integral(v^(1) ... v^(n)) = prod_k v^(k)_0 + (-1)^(n+1) sum_{t>=1} prod_k v^(k)_t

where the strict class e_i is E_i minus the E_j of the points j proximate
to i.  This module imports nothing from skychow.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from random import Random

# Why each workload exists, its generator parameters, and how many ops per
# second of run time its config pool holds.  A pool holds several times the
# seed-commit throughput; a program fast enough to use it up before the run
# time ends is measured on the whole pool, over a shorter run.
WORKLOADS = {
    "final_report": {
        "why": "final <cfg> --format json; n=3 s=48, points proximate to 0-2 earlier ones; "
        "ChowElement products dominate, oracle never runs: closed-form finality target",
        "params": {"n": 3, "s": 48, "targets_per_point": "0, 1 or 2, balanced"},
        "pool_per_s": 16,
    },
    "verify_oracle": {
        "why": "verify <cfg> --seed k, 250 samples; n=3 s=7, top slice 330 columns; "
        "add_row slice builds beside reduce/membership reads: sparse rows, monomial caching",
        "params": {"n": 3, "s": 7, "targets_per_point": "0, 1 or 2, balanced", "samples": 250},
        "pool_per_s": 12,
    },
    "intersect_cli": {
        "why": "intersect <cfg> <h/Ei/ei 3-factor product, 2 strict on average>; "
        "n=3 s=300; strict_to_total rebuilds dense B per factor, load_config revalidates: caching B^-1",
        "params": {
            "n": 3,
            "s": 300,
            "targets_per_point": "0, 1 or 2, balanced",
            "strict_factors_per_op": "3,3,2,2,2,2,1,1 per block of 8",
        },
        "pool_per_s": 60,
    },
    "curve_torsion": {
        "why": "curve-example --check, gamma 1..8 x c1 -8..8 shuffled; "
        "weighted grading, non-unit pivots, Smith fallbacks on narrow dense slices: guards sparse-row changes",
        "params": {"gamma": [1, 8], "c1": [-8, 8], "order": "shuffled blocks of the grid"},
        "pool_per_s": 800,
    },
}


@dataclass
class Op:
    argv: list
    check: object  # callable(op, rc, stdout) -> None, raising CheckFailed
    data: dict = field(default_factory=dict)


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's own reference."""


def pool_size(workload: str, seconds: float) -> int:
    return max(1, math.ceil(WORKLOADS[workload]["pool_per_s"] * seconds))


# -- generation -------------------------------------------------------


def random_points(rng: Random, s: int, max_targets: int) -> list:
    """Point entries where each point is proximate to 0..max_targets earlier ones.

    The counts are balanced, each value on an equal share of the points in
    shuffled order, so every config has about the same number of pairs and
    the cost of a run does not hinge on the seed's luck.
    """
    counts = [k % (max_targets + 1) for k in range(s - 1)]
    rng.shuffle(counts)
    points = [{"id": 1, "proximate_to": []}]
    for j, k in enumerate(counts, start=2):
        points.append({"id": j, "proximate_to": sorted(rng.sample(range(1, j), min(k, j - 1)))})
    return points


def _fresh_configs(rng: Random, count: int, n: int, s: int, max_targets: int):
    """Yield `count` distinct config documents."""
    seen = set()
    while len(seen) < count:
        points = random_points(rng, s, max_targets)
        key = tuple(tuple(p["proximate_to"]) for p in points)
        if key in seen:
            continue
        seen.add(key)
        yield {"ambient_dimension": n, "points": points}


def write_config(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")))


def read_config(path: str):
    """(n, s, prox) straight from the file, prox as a set of (j, i) pairs."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    prox = {(p["id"], t) for p in doc["points"] for t in p["proximate_to"]}
    return doc["ambient_dimension"], len(doc["points"]), prox


# Eight expression shapes with 3, 3, 2, 2, 2, 2, 1 and 1 strict factors.
# Every block of eight ops holds each shape once, so the median of a run
# sits in the middle of the two-factor cost class and the tail in the
# three-factor class, whatever the seed.  Letters: e strict, E total,
# h hyperplane; a and b are point indices drawn per op.
_SHAPES = (
    ("ea", "ea", "ea"),
    ("ea", "ea", "eb"),
    ("ea", "eb", "Ea"),
    ("ea", "ea", "Eb"),
    ("h", "ea", "eb"),
    ("ea", "eb", "Eb"),
    ("ea", "Ea", "Eb"),
    ("h", "Ea", "eb"),
)


def _expression(shape, a: int, b: int) -> str:
    atoms = ["h" if tok == "h" else tok[0] + str(a if tok[1] == "a" else b) for tok in shape]
    parts = []
    for atom in atoms:
        if parts and parts[-1][0] == atom:
            parts[-1][1] += 1
        else:
            parts.append([atom, 1])
    return "*".join(a if k == 1 else "%s^%d" % (a, k) for a, k in parts)


def _related_pair(rng: Random, points: list):
    """Two point indices, related by proximity half of the time."""
    s = len(points)
    a = rng.randint(1, s)
    related = set(points[a - 1]["proximate_to"])
    related.update(p["id"] for p in points if a in p["proximate_to"])
    if related and rng.random() < 0.5:
        b = rng.choice(sorted(related))
    else:
        b = rng.randint(1, s)
    return a, b


def make_ops(workload: str, seed: int, seconds: float, workdir: str) -> list:
    """Generate, write and describe the workload's ops; nothing is loaded here."""
    spec = WORKLOADS[workload]
    params = spec["params"]
    rng = Random("%s:%d" % (workload, seed))
    count = pool_size(workload, seconds)
    ops = []
    if workload == "curve_torsion":
        grid = [
            (g, c)
            for g in range(params["gamma"][0], params["gamma"][1] + 1)
            for c in range(params["c1"][0], params["c1"][1] + 1)
        ]
        while len(ops) < count:
            block = grid[:]
            rng.shuffle(block)
            for g, c in block[: count - len(ops)]:
                argv = ["curve-example", "--gamma", str(g), "--c1", str(c), "--check"]
                ops.append(Op(argv, check_curve, {"gamma": g, "c1": c}))
        return ops
    n, s = params["n"], params["s"]
    configs = _fresh_configs(rng, count, n, s, 2)
    for k, doc in enumerate(configs):
        path = os.path.join(workdir, "%s-%d.json" % (workload, k))
        write_config(path, doc)
        if workload == "final_report":
            ops.append(Op(["final", path, "--format", "json"], check_final, {"path": path}))
        elif workload == "verify_oracle":
            argv = ["verify", path, "--seed", str(rng.randrange(10**6))]
            ops.append(Op(argv, check_verify, {"samples": params["samples"]}))
        else:
            if k % len(_SHAPES) == 0:
                order = list(range(len(_SHAPES)))
                rng.shuffle(order)
            a, b = _related_pair(rng, doc["points"])
            expr = _expression(_SHAPES[order[k % len(_SHAPES)]], a, b)
            ops.append(Op(["intersect", path, expr], check_intersect, {"path": path, "expr": expr}))
    return ops


# -- references ---------------------------------------------------------


def total_vector(prox, atom: str) -> dict:
    """Sparse total coordinates {index: coef} of h, Ei or ei; index 0 is h."""
    if atom == "h":
        return {0: 1}
    i = int(atom[1:])
    vec = {i: 1}
    if atom[0] == "e":
        for j, t in prox:
            if t == i:
                vec[j] = -1
    return vec


def closed_form_integral(n: int, vectors) -> int:
    """Integral of a product of n degree-1 classes in total coordinates."""
    if len(vectors) != n:
        raise ValueError("need %d factors, got %d" % (n, len(vectors)))
    hyper = math.prod(v.get(0, 0) for v in vectors)
    common = set(vectors[0]).intersection(*vectors[1:]) - {0}
    rest = sum(math.prod(v[t] for v in vectors) for t in common)
    return hyper + (-1) ** (n + 1) * rest


def _expect(cond: bool, message: str, *args) -> None:
    if not cond:
        raise CheckFailed(message % args)


def _expect_ok(rc: int) -> None:
    _expect(rc == 0, "exit code %d, expected 0", rc)


_W11 = re.compile(r"condition \(11\) fails for j=(\d+): integral (-?\d+), expected 1$")
_W10 = re.compile(
    r"condition \(10\) fails for j=(\d+) at r=(\d+): integral (-?\d+), expected (-?\d+)$"
)


def check_final(op: Op, rc: int, out: str) -> None:
    _expect_ok(rc)
    n, s, prox = read_config(op.data["path"])
    divisors = json.loads(out)["divisors"]
    _expect(len(divisors) == s, "%d divisors listed, expected %d", len(divisors), s)
    targets = {t for _, t in prox}
    for i, d in enumerate(divisors, start=1):
        final = i not in targets
        _expect(d["i"] == i, "divisor %r listed at position %d", d["i"], i)
        _expect(
            d["final_proximity"] == final and d["final_chow"] == final,
            "divisor %d: proximity %r, chow %r, expected %r",
            i, d["final_proximity"], d["final_chow"], final,
        )
        witness = d["witness"]
        if final:
            _expect(witness is None, "final divisor %d has witness %r", i, witness)
            continue
        ei = total_vector(prox, "e%d" % i)
        m11, m10 = _W11.match(witness or ""), _W10.match(witness or "")
        if m11:
            j, got = int(m11.group(1)), int(m11.group(2))
            ej = total_vector(prox, "e%d" % j)
            want = closed_form_integral(n, [ej] * (n - 1) + [ei])
            _expect(got == want != 1, "divisor %d: witness %r, closed form %d", i, witness, want)
        elif m10:
            j, r, got, expected = (int(g) for g in m10.groups())
            ej = total_vector(prox, "e%d" % j)
            want = (-1) ** r * closed_form_integral(n, [ei] * (n - r) + [ej] * r)
            ein = closed_form_integral(n, [ei] * n)
            _expect(
                1 <= r < n and got == want and expected == ein and want != ein,
                "divisor %d: witness %r, closed forms %d and %d", i, witness, want, ein,
            )
        else:
            _expect(False, "divisor %d: unreadable witness %r", i, witness)


def check_intersect(op: Op, rc: int, out: str) -> None:
    _expect_ok(rc)
    n, _, prox = read_config(op.data["path"])
    vectors = []
    for chunk in op.data["expr"].split("*"):
        atom, _, power = chunk.partition("^")
        vectors.extend([total_vector(prox, atom)] * int(power or 1))
    want = closed_form_integral(n, vectors)
    lines = [l for l in out.splitlines() if l.startswith("degree integral: ")]
    _expect(
        lines == ["degree integral: %d" % want],
        "%s: printed %r, closed form %d", op.data["expr"], lines, want,
    )


_SAMPLES = re.compile(r"^PASS normal forms match the lattice oracle \((\d+) sampled")


def check_verify(op: Op, rc: int, out: str) -> None:
    _expect_ok(rc)
    lines = out.splitlines()
    _expect(
        len(lines) == 5 and all(l.startswith("PASS ") for l in lines),
        "expected exactly five PASS lines, got %r", lines,
    )
    counts = [int(m.group(1)) for m in map(_SAMPLES.match, lines) if m]
    _expect(
        counts == [op.data["samples"]] and counts[0] > 0,
        "sampled-polynomial count %r, expected %d", counts, op.data["samples"],
    )


def check_curve(op: Op, rc: int, out: str) -> None:
    _expect_ok(rc)
    lines = out.splitlines()
    g = math.gcd(op.data["gamma"], op.data["c1"])
    want = ["REPORT degree 4 torsion: Z/%d" % g] if g > 1 else []
    torsion = [l for l in lines if l.startswith("REPORT degree")]
    _expect(torsion == want, "gamma=%d c1=%d: torsion %r, expected %r",
            op.data["gamma"], op.data["c1"], torsion, want)
    passes = [l for l in lines if l.startswith("PASS ")]
    _expect(len(passes) == 2 and not any(l.startswith("FAIL") for l in lines),
            "expected two PASS lines and no FAIL, got %r", passes)
    if g == 1:
        _expect("REPORT no torsion in degrees 0..4" in lines, "missing no-torsion line")
