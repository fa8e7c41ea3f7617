"""Command line front end.

Subcommands: present (print a presentation), intersect (evaluate an
intersection product), final (finality report), verify (cross-check the
rewrite engine against the lattice oracle), dot (proximity graph), and
curve-example (the curve blow-up ring).  Exit codes: 0 success, 1 a check
failed, 2 bad user input, 3 the two finality deciders disagreed, 4 an
internal error (an unexpected exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace
from math import comb
from random import Random

from . import curve as curve_mod
from . import oracle
from .chowring import (
    degree_integral,
    divisor_product,
    graded_rank,
    normal_form,
    rho,
    strict_presentation,
    total_presentation,
)
from .finality import final_by_proximity, finality_report
from .poly import Polynomial, format_polynomial, random_homogeneous
from .proximity import (
    DivisorVector,
    InvalidConfigError,
    ProximityConfig,
    hyperplane,
    total_exceptional,
    strict_exceptional,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USER_ERROR = 2
EXIT_DISAGREEMENT = 3
EXIT_INTERNAL_ERROR = 4

# Widest oracle slice verify builds: the top slice (degree n + 1 in s + 1
# variables) has comb(s + n + 1, n + 1) columns.  Rows are sparse, so memory
# grows with the width rather than its square; the bound caps the time spent
# listing slices and folding their rows.  4096 admits n=3 with s <= 15 and
# n=4 with s <= 10.
MAX_ORACLE_WIDTH = 4096

# Most polynomials verify samples.  Each sample costs a reduce and a
# membership query on a cached slice, about 0.06 ms at n=3 with s=7 or s=15
# on a 2-vCPU host, so the largest admitted run takes seconds, not days.
MAX_VERIFY_SAMPLES = 100_000

# Largest ambient dimension a config file may ask for.  final and intersect
# evaluate degree-1 products in closed form, so their cost is linear in s (a
# chain with n=64, s=2000: intersect "e1^64" about 0.02 s, final about 0.2 s
# on a 2-vCPU host); final's condition checks still cost n^2 per meeting pair.
MAX_AMBIENT_DIMENSION = 64


class ExpressionError(ValueError):
    pass


def load_config(path: str) -> ProximityConfig:
    """Read a sequence configuration file; the returned config is valid."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidConfigError("config is not valid JSON: %s" % exc) from exc
        except UnicodeDecodeError as exc:
            raise InvalidConfigError("config is not UTF-8 text: %s" % exc) from exc
        except RecursionError as exc:
            raise InvalidConfigError("config is nested too deeply: %s" % exc) from exc
        except ValueError as exc:
            # an integer literal longer than the interpreter converts (4300 digits)
            raise InvalidConfigError("config holds an integer too long to read") from exc
    if not isinstance(doc, dict):
        raise InvalidConfigError("config must be a JSON object")
    try:
        n = doc["ambient_dimension"]
        points = doc["points"]
    except KeyError as exc:
        raise InvalidConfigError("config is missing the %s key" % exc) from exc
    if isinstance(n, int) and n > MAX_AMBIENT_DIMENSION:
        raise InvalidConfigError(
            "ambient dimension %d is above the limit of %d" % (n, MAX_AMBIENT_DIMENSION)
        )
    if not isinstance(points, list) or not points:
        raise InvalidConfigError("points must be a nonempty list")
    prox = set()
    for pos, entry in enumerate(points, start=1):
        if not isinstance(entry, dict):
            raise InvalidConfigError("point entry %d must be an object" % pos)
        pid = entry.get("id")
        # type, not equality: a JSON true equals 1 and 1.0 equals 1
        if type(pid) is not int or pid != pos:
            raise InvalidConfigError(
                "point ids must be 1..s in order: entry %d has id %r" % (pos, pid)
            )
        targets = entry.get("proximate_to", [])
        if not isinstance(targets, list):
            raise InvalidConfigError("proximate_to of point %d must be a list" % pos)
        for t in targets:
            # type, not isinstance: a JSON true or false is a bool, an int subclass
            if type(t) is not int or not 1 <= t < pos:
                raise InvalidConfigError(
                    "point %d lists %r in proximate_to; only earlier ids are allowed"
                    % (pos, t)
                )
            prox.add((pos, t))
    snc = doc.get("strict_snc_check", True)
    if not isinstance(snc, bool):
        raise InvalidConfigError("strict_snc_check must be a boolean")
    return ProximityConfig(
        n=n, s=len(points), prox=frozenset(prox), strict_snc_check=snc
    )


_ATOM_RE = re.compile(r"^(h|[Ee]\d+)(?:\^(\d+))?$")


def _decimal(digits: str) -> str:
    """str(int(digits)) for a string of decimal digits, at any length."""
    return "".join(str(int(c)) for c in digits).lstrip("0") or "0"


def _bounded_int(digits: str, bound: int) -> int:
    """min(int(digits), bound), without converting a long digit string."""
    text = _decimal(digits)
    return bound if len(text) > len(str(bound)) else min(int(text), bound)


def parse_expression(text: str, config: ProximityConfig):
    """Parse 'h^2*e1*E3' style products into divisor factors.

    Returns (factors, formal_degree) where factors is a list of
    (DivisorVector, exponent) pairs.  Every product of more than n divisor
    classes vanishes, so exponents are clamped to n + 1: the formal degree
    is exact when it is at most n and above n otherwise.
    """
    if not text or not text.strip():
        raise ExpressionError("empty expression")
    factors = []
    for chunk in text.split("*"):
        token = chunk.strip()
        m = _ATOM_RE.match(token)
        if not m:
            raise ExpressionError(
                "bad factor %r: expected h, Ei or ei with an optional ^k" % token
            )
        atom, exp = m.group(1), m.group(2)
        k = _bounded_int(exp, config.n + 1) if exp is not None else 1
        if k < 1:
            raise ExpressionError("exponent in %r must be at least 1" % token)
        if atom == "h":
            vec = hyperplane(config)
        else:
            idx = _bounded_int(atom[1:], config.s + 1)
            if not 1 <= idx <= config.s:
                raise ExpressionError(
                    "index %s in %r out of range 1..%d"
                    % (_decimal(atom[1:]), token, config.s)
                )
            if atom[0] == "E":
                vec = total_exceptional(config, idx)
            else:
                vec = strict_exceptional(config, idx)
        factors.append((vec, k))
    return factors, sum(k for _, k in factors)


def cmd_present(args) -> int:
    config = load_config(args.config)
    pres = (
        total_presentation(config)
        if args.basis == "total"
        else strict_presentation(config)
    )
    if args.format == "json":
        print(json.dumps(pres.to_json_dict(), indent=2))
    else:
        print(pres.to_text())
    return EXIT_OK


def cmd_intersect(args) -> int:
    config = load_config(args.config)
    factors, degree = parse_expression(args.expression, config)
    result = divisor_product(config, factors)
    print("normal form: %s" % result)
    if degree == config.n:
        print("degree integral: %d" % degree_integral(result))
    return EXIT_OK


def cmd_final(args) -> int:
    config = load_config(args.config)
    report = finality_report(config)
    if args.method != "both":
        # blank the column that was not asked for, and the witness
        blank = "final_chow" if args.method == "proximity" else "final_proximity"
        divisors = tuple(replace(d, **{blank: None, "witness": None}) for d in report.divisors)
        report = replace(report, divisors=divisors)
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        fmt = lambda v: "-" if v is None else ("final" if v else "non-final")
        print("i  proximity  chow       witness")
        for d in report.divisors:
            p, c = fmt(d.final_proximity), fmt(d.final_chow)
            print("%-2d %-10s %-10s %s" % (d.index, p, c, d.witness or ""))
    if args.method == "both" and not report.all_agree:
        print("error: the two finality deciders disagree", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def _verify_checks(config, samples, seed):
    """Cross-checks behind cmd_verify; yields (ok, name, detail) triples."""
    n, s = config.n, config.s
    rng = Random(seed)
    total = total_presentation(config)
    strict = strict_presentation(config)
    ideal = oracle.GradedIdeal(s + 1, total.relations, n + 1)

    bad = 0
    for g in strict.relations:
        image = rho(config, g)
        if not normal_form(config, image).is_zero() or not oracle.membership(
            ideal, image
        ):
            bad += 1
    yield (
        bad == 0,
        "strict ideal maps into the total ideal",
        "%d relations checked" % len(strict.relations),
    )

    mismatches = 0
    for _ in range(samples):
        d = rng.randint(1, n + 1)
        p = random_homogeneous(rng, s + 1, d)
        if rng.random() < 0.5:
            # stir in an ideal element so both membership branches get hit
            g = total.relations[rng.randrange(len(total.relations))]
            dg = g.homogeneous_degree()
            if dg <= d:
                p = p + g * random_homogeneous(rng, s + 1, d - dg)
        nf = normal_form(config, p)
        if oracle.reduce(ideal, p) != nf.to_polynomial():
            mismatches += 1
        if oracle.membership(ideal, p) != nf.is_zero():
            mismatches += 1
    yield (
        mismatches == 0,
        "normal forms match the lattice oracle",
        "%d sampled polynomials (seed %d)" % (samples, seed),
    )

    rank_bad = []
    for d in range(0, n + 2):
        slice_ = oracle.quotient_structure(ideal, d)
        if slice_.rank != graded_rank(config, d) or not slice_.torsion_free:
            rank_bad.append(d)
    yield (
        not rank_bad,
        "graded ranks are (1, s+1 repeated, 1, 0) and torsion-free",
        "degrees 0..%d" % (n + 1),
    )

    counts = oracle.minimal_generator_count(ideal)
    computed = sum(counts.values())
    structural = s * (s + 1) // 2 + s
    printed = n * (n + 1) // 2 + n
    ok = computed == structural
    detail = "computed %d; C(s+1,2)+s = %d (%s); binom(n+1,2)+n = %d (%s)" % (
        computed,
        structural,
        "match" if computed == structural else "MISMATCH",
        printed,
        "match" if computed == printed else "MISMATCH",
    )
    yield ok, "minimal generator count", detail

    yield (
        finality_report(config).all_agree,
        "finality deciders agree on every divisor",
        "s = %d divisors" % s,
    )


def cmd_verify(args) -> int:
    if args.samples < 1:
        print("error: --samples must be at least 1, got %d" % args.samples, file=sys.stderr)
        return EXIT_USER_ERROR
    if args.samples > MAX_VERIFY_SAMPLES:
        print(
            "error: --samples is %d; verify allows at most %d"
            % (args.samples, MAX_VERIFY_SAMPLES),
            file=sys.stderr,
        )
        return EXIT_USER_ERROR
    config = load_config(args.config)
    width = comb(config.s + config.n + 1, config.n + 1)
    if width > MAX_ORACLE_WIDTH:
        print(
            "error: the oracle's top slice would have %d columns (n=%d, s=%d); "
            "verify allows at most %d" % (width, config.n, config.s, MAX_ORACLE_WIDTH),
            file=sys.stderr,
        )
        return EXIT_USER_ERROR
    failed = 0
    for ok, name, detail in _verify_checks(config, args.samples, args.seed):
        print("%s %s (%s)" % ("PASS" if ok else "FAIL", name, detail))
        if not ok:
            failed += 1
    if failed:
        print("%d check(s) failed" % failed, file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_dot(args) -> int:
    config = load_config(args.config)
    lines = ["digraph proximity {"]
    lines.append("  rankdir=BT;")
    lines.append("  node [shape=circle];")
    for i in range(1, config.s + 1):
        style = ", peripheries=2, style=bold" if final_by_proximity(config, i) else ""
        lines.append('  p%d [label="P%d"%s];' % (i, i, style))
    for j, i in sorted(config.prox):
        lines.append("  p%d -> p%d;" % (j, i))
    lines.append("}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_curve_example(args) -> int:
    try:
        params = curve_mod.CurveRingParams(gamma=args.gamma, c1=args.c1)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USER_ERROR
    basis = curve_mod.curve_basis_elements(params)[1:]  # drop the unit row
    labels = [label for label, _ in basis]
    width = max(len(str(el * other)) for _, el in basis for _, other in basis)
    width = max(width, max(len(l) for l in labels))
    print(
        "multiplication table, gamma=%d c1=%d (weighted degrees 1,1,2)"
        % (params.gamma, params.c1)
    )
    header = "%-6s | " % "" + "  ".join("%-*s" % (width, l) for l in labels)
    print(header)
    print("-" * len(header))
    for label, el in basis:
        cells = ["%-*s" % (width, str(el * other)) for _, other in basis]
        print("%-6s | %s" % (label, "  ".join(cells)))
    if not args.check:
        return EXIT_OK
    report = curve_mod.curve_ring_checks(params)
    print()
    for line in report.summary_lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skychow",
        description="Exact Chow ring arithmetic for point blow-up sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("present", help="print a ring presentation")
    p.add_argument("config")
    p.add_argument("--basis", choices=("total", "strict"), default="total")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_present)

    p = sub.add_parser("intersect", help="evaluate an intersection product")
    p.add_argument("config")
    p.add_argument("expression", help="product of h, Ei (total), ei (strict), e.g. 'e1*e2' or 'h^2'")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("final", help="finality of each exceptional divisor")
    p.add_argument("config")
    p.add_argument("--method", choices=("proximity", "chow", "both"), default="both")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_final)

    p = sub.add_parser("verify", help="cross-check rewrite engine vs lattice oracle")
    p.add_argument("config")
    p.add_argument("--samples", type=int, default=250)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dot", help="proximity graph in DOT format")
    p.add_argument("config")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("curve-example", help="the curve blow-up ring of P^3")
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_curve_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, which matches our contract
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (InvalidConfigError, ExpressionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USER_ERROR
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USER_ERROR
    except Exception:
        # imported only on this path, which keeps importing the CLI cheap
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
