"""Command line front end.

Subcommands: present (print a presentation), intersect (evaluate an
intersection product), final (finality report), verify (cross-check the
rewrite engine against the lattice oracle), dot (proximity graph), and
curve-example (the curve blow-up ring).  Exit codes: 0 success, 1 a check
failed, 2 bad user input, 3 the two finality deciders disagreed, 4 an
internal error (an unexpected exception; its traceback goes to stderr).

A handler refuses input by raising: UsageError for a bound or a bad
expression, InvalidConfigError for a bad config, OSError for a file it
cannot read.  main prints each refusal once, as one "error: " line on
stderr, and returns exit 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from math import comb
from random import Random

from . import curve as curve_mod
from . import oracle
from .chowring import (
    _normal_terms,
    _power_terms,
    _rho_images,
    degree_integral,
    graded_rank,
    sparse_product,
    strict_presentation,
    total_presentation,
)
from .finality import FinalityReport, final_by_proximity, finality_report
from .poly import _draw_terms, _mul_terms, _slice, format_polynomial
from .proximity import InvalidConfigError, ProximityConfig, strict_class_in_total

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USER_ERROR = 2
EXIT_DISAGREEMENT = 3
EXIT_INTERNAL_ERROR = 4

# Widest full slice verify admits: the top slice (degree n + 1 in s + 1
# variables) has comb(s + n + 1, n + 1) monomials.  The oracle's lattice
# keeps only the monomials no x_i*x_j divides (s + 1 above degree 2), so the
# bound now guards the sampler, which lists each whole slice to draw from.
# 4096 admits n=3 with s <= 15 and n=4 with s <= 10.
MAX_ORACLE_WIDTH = 4096

# Most polynomials verify samples.  Each sample costs its draw plus one oracle
# reduction on a cached slice and one normal form, compared as term dicts,
# about 0.008-0.012 ms at n=3 with s=7 or s=15, at n=4 with s=10 and at n=2
# with s=26 (in process on a shared 2-vCPU host: 2250 samples less 250, best
# of several runs, median of 7 processes), so the largest admitted run takes
# seconds, not days.
MAX_VERIFY_SAMPLES = 100_000

# Most exponent entries present may build.  Every term of a presentation
# holds a dense exponent tuple of length s + 1, so a presentation of T terms
# holds T * (s + 1) entries; present --basis total on an n=3 chain with
# s=300 takes 1.3 s and 140 MiB as a whole process (text output, 2-vCPU
# host).  The bound admits the total basis up to s=366 and the strict basis
# of a chain up to s=45.
MAX_PRESENT_ENTRIES = 25_000_000

# Largest ambient dimension a config file may ask for.  final and intersect
# evaluate degree-1 products in closed form, so their cost is linear in s (a
# chain with n=64, s=2000: intersect "e1^64" about 0.002 s, final about
# 0.010 s in either format; a seeded random n=64, s=2000 config with 0-3
# proximities a point: final about 0.012 s; in-process, best of 40 runs,
# fastest of 12 processes, 2-vCPU host).  final reads two counts per meeting
# pair off the adjacency lists once and evaluates condition (11)'s integral
# from them first; only a pair that passes it has condition (10) compared,
# at r = 1 and r = 2, as its integral depends on r's parity only.
MAX_AMBIENT_DIMENSION = 64


class UsageError(ValueError):
    """Input a subcommand refuses; main prints it and returns exit 2."""


_NO_TARGETS = []  # a missing proximate_to; shared, so never stored or changed


def load_config(path: str) -> ProximityConfig:
    """Read a sequence configuration file; the returned config is valid.

    One pass over the points checks each entry and keeps its proximate_to
    list as the config's data, the targets lists; the pair set prox and
    the reverse map (point -> the points proximate to it) are built from
    them only when something reads them.  A strictly ascending proximate_to
    list is kept as it is; any other is checked, then sorted with its
    repeats dropped.
    """
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
    targets = {}
    for pos, entry in enumerate(points, start=1):
        if not isinstance(entry, dict):
            raise InvalidConfigError("point entry %d must be an object" % pos)
        pid = entry.get("id")
        # type, not equality: a JSON true equals 1 and 1.0 equals 1
        if type(pid) is not int or pid != pos:
            raise InvalidConfigError(
                "point ids must be 1..s in order: entry %d has id %r" % (pos, pid)
            )
        listed = entry.get("proximate_to", _NO_TARGETS)
        # falsy first: a missing or empty list skips on, and {}, 0, false,
        # "" and null fail the type test like any other non-list
        if not listed or type(listed) is not list:
            if type(listed) is not list:
                raise InvalidConfigError("proximate_to of point %d must be a list" % pos)
            continue
        prev = 0
        for t in listed:
            # type, not isinstance: a JSON true or false is a bool, an int subclass
            if type(t) is not int or not prev < t < pos:
                listed = _checked_targets(pos, listed)
                break
            prev = t
        targets[pos] = listed
    return ProximityConfig._of(n, len(points), targets, doc.get("strict_snc_check", True))


def _checked_targets(pos: int, listed: list) -> list:
    """A proximate_to list that is not strictly ascending, sorted without
    repeats once every entry is an earlier id."""
    for t in listed:
        if type(t) is not int or not 1 <= t < pos:
            raise InvalidConfigError(
                "point %d lists %r in proximate_to; only earlier ids are allowed" % (pos, t)
            )
    return sorted(set(listed))


# ASCII digits only: \d would also take every other Unicode decimal digit
_ATOM_RE = re.compile(r"^(h|[Ee][0-9]+)(?:\^([0-9]+))?$")


def _decimal(digits: str) -> str:
    """str(int(digits)) for a string of ASCII digits, at any length."""
    return digits.lstrip("0") or "0"


def _bounded_int(digits: str, bound: int) -> int:
    """min(int(digits), bound), without converting a long digit string."""
    text = _decimal(digits)
    return bound if len(text) > len(str(bound)) else min(int(text), bound)


def parse_expression(text: str, config: ProximityConfig):
    """Parse 'h^2*e1*E3' style products into sparse divisor classes.

    Returns (factors, formal_degree) where factors is a list of
    ({t: coefficient}, exponent) pairs, each class in total coordinates with
    its zeros left out (t = 0 is h), in the order the atoms first appear.
    The product commutes, so a repeated atom is one factor whose exponent is
    the sum of its own, and each class is built once.  Every product of more
    than n divisor classes vanishes, so exponents are clamped to n + 1: the
    formal degree is exact when it is at most n and above n otherwise.
    Atoms are checked in order, so the first bad one is the one reported.
    """
    if not text or not text.strip():
        raise UsageError("empty expression")
    exponents = {}  # (index, letter) of each distinct atom, h at index 0 -> exponent
    for chunk in text.split("*"):
        token = chunk.strip()
        m = _ATOM_RE.match(token)
        if not m:
            raise UsageError(
                "bad factor %r: expected h, Ei or ei with an optional ^k" % token
            )
        atom, exp = m.group(1), m.group(2)
        k = _bounded_int(exp, config.n + 1) if exp is not None else 1
        if k < 1:
            raise UsageError("exponent in %r must be at least 1" % token)
        if atom == "h":
            key = (0, "h")
        else:
            idx = _bounded_int(atom[1:], config.s + 1)
            if not 1 <= idx <= config.s:
                raise UsageError(
                    "index %s in %r out of range 1..%d"
                    % (_decimal(atom[1:]), token, config.s)
                )
            key = (idx, atom[0])
        exponents[key] = min(exponents.get(key, 0) + k, config.n + 1)
    factors = [
        (strict_class_in_total(config, idx) if kind == "e" else {idx: 1}, k)
        for (idx, kind), k in exponents.items()
    ]
    return factors, sum(exponents.values())


def _present_entries(config: ProximityConfig, basis: str) -> int:
    """Exponent entries a presentation holds: exact for the total basis, an
    upper bound for the strict one, or a count already over the limit."""
    s = config.s
    terms = comb(s + 1, 2) + 2 * s  # the total basis
    if basis == "strict" and terms * (s + 1) <= MAX_PRESENT_ENTRIES:
        # 3s terms for y_0*y_i and the power relations, at most |L_i| * |L_j|
        # for each L_i*L_j; the support of L_i is i and those of the points
        # proximate to i, one descending pass of bitset unions
        proximate, supports = config._proximate, [0] * (s + 1)
        for i in range(s, 0, -1):
            supports[i] = 1 << i
            for j in proximate.get(i, ()):
                supports[i] |= supports[j]
        sizes = [support.bit_count() for support in supports]  # supports[0] is 0
        total = sum(sizes)
        terms = 3 * s + (total * total - sum(a * a for a in sizes)) // 2
    return terms * (s + 1)


def cmd_present(args) -> int:
    config = load_config(args.config)
    if _present_entries(config, args.basis) > MAX_PRESENT_ENTRIES:
        raise UsageError(
            "present --basis %s with s=%d is above the limit of %d exponent "
            "entries (terms times s+1)" % (args.basis, config.s, MAX_PRESENT_ENTRIES)
        )
    pres = (
        total_presentation(config)
        if args.basis == "total"
        else strict_presentation(config)
    )
    if args.format == "json":
        print(pres.to_json_text())
    else:
        print(pres.to_text())
    return EXIT_OK


def cmd_intersect(args) -> int:
    config = load_config(args.config)
    factors, degree = parse_expression(args.expression, config)
    result = sparse_product(config, factors)
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
        divisors = tuple(d._replace(**{blank: None, "witness": None}) for d in report.divisors)
        report = FinalityReport(divisors)
    if args.format == "json":
        print(report.to_json_text())
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

    # rho is a ring map, so a relation's image is the product of its factors'
    # images; the images of y_0..y_s are built once, and each shared factor
    # (y_i, L_i) is mapped once, keyed by identity.  Each image must be
    # homogeneous, since the oracle's core reads the degree off one term,
    # and both engines' cores, as in check 2, must reduce it to zero.
    rho_images = _rho_images(config)
    images = {}
    bad = 0
    for factors in strict.factored:
        image = None
        for f in factors:
            img = images.get(id(f))
            if img is None:
                img = images[id(f)] = f.substitute(rho_images)
            image = img if image is None else image * img
        terms = image.terms
        if (
            len(set(map(sum, terms))) > 1
            or _normal_terms(n, terms)
            or oracle._reduce_terms(ideal, terms)
        ):
            bad += 1
    yield (
        bad == 0,
        "strict ideal maps into the total ideal",
        "%d relations checked" % len(strict.factored),
    )

    # randint(1, n + 1) and randrange(len(relations)) by Random's rule, as
    # random_homogeneous draws its picks: the bound's bit length in bits,
    # drawn again while the value is the bound or more.  Each sample and
    # each stirred-in q is random_homogeneous(rng, s + 1, degree)'s term
    # dict, drawn by its core from the slices of degrees 0..n+1, looked up
    # once here.
    bits = rng.getrandbits
    nv = s + 1
    slices = [_slice(nv, d, None) for d in range(n + 2)]
    relations = total.relations
    degrees = [g.homogeneous_degree() for g in relations]
    top, top_len = n + 1, (n + 1).bit_length()
    rels, rels_len = len(relations), len(relations).bit_length()
    mismatches = 0
    for _ in range(samples):
        d = bits(top_len)
        while d >= top:
            d = bits(top_len)
        d += 1
        terms = _draw_terms(slices[d], bits)
        if rng.random() < 0.5:
            # stir in an ideal element so both zero and nonzero representatives occur
            r = bits(rels_len)
            while r >= rels:
                r = bits(rels_len)
            dg = degrees[r]
            if dg <= d:
                # relation * q, added into the sample's own fresh dict
                _mul_terms(relations[r].terms, _draw_terms(slices[d - dg], bits), terms)
        # one oracle query, on the engines' term-dict cores: equal
        # representatives are zero together, so this also compares
        # membership in the ideal with the normal form being zero
        if oracle._reduce_terms(ideal, terms) != _power_terms(nv, _normal_terms(n, terms)):
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
        raise UsageError("--samples must be at least 1, got %d" % args.samples)
    if args.samples > MAX_VERIFY_SAMPLES:
        raise UsageError(
            "--samples is %d; verify allows at most %d" % (args.samples, MAX_VERIFY_SAMPLES)
        )
    config = load_config(args.config)
    width = comb(config.s + config.n + 1, config.n + 1)
    if width > MAX_ORACLE_WIDTH:
        raise UsageError(
            "the oracle's top slice would have %d columns (n=%d, s=%d); "
            "verify allows at most %d" % (width, config.n, config.s, MAX_ORACLE_WIDTH)
        )
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
    for j, row in config._targets.items():
        for i in row:
            lines.append("  p%d -> p%d;" % (j, i))
    lines.append("}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_curve_example(args) -> int:
    # The library warns on gamma=1.  Python's warning machinery would print
    # that once per process, with a source location; print it on every run.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            params = curve_mod.CurveRingParams(gamma=args.gamma, c1=args.c1)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    for w in caught:
        print("warning: %s" % w.message, file=sys.stderr)
    basis = curve_mod.curve_basis_elements(params)[1:]  # drop the unit row
    labels = [label for label, _ in basis]
    table = [[str(el * other) for _, other in basis] for _, el in basis]
    width = max(len(cell) for cells in table for cell in cells)
    width = max(width, max(len(l) for l in labels))
    print(
        "multiplication table, gamma=%d c1=%d (weighted degrees 1,1,2)"
        % (params.gamma, params.c1)
    )
    header = "%-6s | " % "" + "  ".join("%-*s" % (width, l) for l in labels)
    print(header)
    print("-" * len(header))
    for label, cells in zip(labels, table):
        print("%-6s | %s" % (label, "  ".join("%-*s" % (width, cell) for cell in cells)))
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
    # name -> subcommand parser: main hands a leading subcommand name's
    # words straight to its parser
    parser.subcommands = sub.choices

    p = sub.add_parser("present", help="print a ring presentation")
    p.add_argument("config")
    p.add_argument("--basis", choices=("total", "strict"), default="total")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("intersect", help="evaluate an intersection product")
    p.add_argument("config")
    p.add_argument("expression", help="product of h, Ei (total), ei (strict), e.g. 'e1*e2' or 'h^2'")

    p = sub.add_parser("final", help="finality of each exceptional divisor")
    p.add_argument("config")
    p.add_argument("--method", choices=("proximity", "chow", "both"), default="both")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("verify", help="cross-check rewrite engine vs lattice oracle")
    p.add_argument("config")
    p.add_argument("--samples", type=int, default=250)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("dot", help="proximity graph in DOT format")
    p.add_argument("config")

    p = sub.add_parser("curve-example", help="the curve blow-up ring of P^3")
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--check", action="store_true")

    return parser


# The parser main reuses, built on its first call rather than at import.
# parse_args leaves a parser unchanged, and argparse reads the terminal width
# and sys.stdout / sys.stderr when it prints, not when it is built.
_parser = None


def main(argv=None) -> int:
    """Run one subcommand in-process and return its exit code; never raises
    SystemExit.

    When the first word names a subcommand, that subcommand's parser reads
    the rest, as the top-level parser would hand it over, and any words it
    leaves get the top-level parser's "unrecognized arguments" error.  Any
    other argv goes through the top-level parser.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        sub = _parser.subcommands.get(argv[0]) if argv else None
        if sub is None:
            args = _parser.parse_args(argv)
        else:
            args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if extras:
                _parser.error("unrecognized arguments: %s" % " ".join(extras))
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, which matches our contract
        return int(exc.code) if exc.code else EXIT_OK
    # looked up per call, so a rebound cmd_* function takes effect
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (InvalidConfigError, UsageError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USER_ERROR
    except Exception:
        # imported only on this path, which keeps importing the CLI cheap
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
