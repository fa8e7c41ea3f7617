"""Shared test utilities: cached ideals, random configs, independent oracles."""

from __future__ import annotations

import json
import sys
from bisect import bisect_left
from functools import lru_cache
from math import gcd
from operator import mul
from random import Random

from hypothesis import strategies as st

from skychow import cli
from skychow.chowring import Presentation, total_presentation
from skychow.cli import MAX_AMBIENT_DIMENSION
from skychow.curve import (
    CURVE_VARIABLES,
    TOP_DEGREE,
    CurveRingElement,
    CurveRingParams,
)
from skychow.oracle import GradedIdeal, GradedPiece, HermiteLattice, _xgcd
from skychow.poly import Polynomial, _slice, format_polynomial, monomials_of_degree
from skychow.proximity import (
    DivisorVector,
    InvalidConfigError,
    ProximityConfig,
    strict_class_in_total,
    strict_to_total,
    validate_config,
)


@lru_cache(maxsize=None)
def cached_total_ideal(n: int, s: int) -> GradedIdeal:
    """The total-basis ideal for (n, s); proximity plays no role in it."""
    cfg = ProximityConfig(n=n, s=s)
    pres = total_presentation(cfg)
    return GradedIdeal(s + 1, pres.relations, n + 1)


def random_config(rng: Random, n: int, s: int) -> ProximityConfig:
    """Uniform-ish random valid configuration for fixed (n, s)."""
    prox = set()
    for j in range(2, s + 1):
        k = rng.randint(0, min(j - 1, n))
        for i in rng.sample(range(1, j), k):
            prox.add((j, i))
    return validate_config(ProximityConfig(n=n, s=s, prox=frozenset(prox)))


def reference_random_homogeneous(rng, nvars, degree, weights=None) -> Polynomial:
    """Reference for random_homogeneous: the same picks through Random's own
    randint, sample and choice."""
    monos = _slice(nvars, degree, weights)
    if not monos:
        return Polynomial.zero(nvars)
    k = rng.randint(1, min(4, len(monos)))
    chosen = rng.sample(monos, k)
    terms = {}
    for exps in chosen:
        c = rng.randint(1, 9) * rng.choice((1, -1))
        terms[exps] = c
    return Polynomial._of(nvars, terms)


def reference_verify_samples(config: ProximityConfig, samples: int, seed: int) -> list:
    """Reference for the draws of verify's check 2 (cli._verify_checks): the
    polynomials it hands to oracle.reduce, in order, drawn through Random's
    own randint, randrange and random and reference_random_homogeneous."""
    n, s = config.n, config.s
    rng = Random(seed)
    relations = total_presentation(config).relations
    drawn = []
    for _ in range(samples):
        d = rng.randint(1, n + 1)
        p = reference_random_homogeneous(rng, s + 1, d)
        if rng.random() < 0.5:
            g = relations[rng.randrange(len(relations))]
            dg = g.homogeneous_degree()
            if dg <= d:
                p = p + g * reference_random_homogeneous(rng, s + 1, d - dg)
        drawn.append(p)
    return drawn


def reference_load_config(path: str) -> ProximityConfig:
    """Reference for cli.load_config: the per-point lists become a set of
    pairs, and ProximityConfig construction validates them."""
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


def reference_main(argv=None) -> int:
    """Reference for cli.main's dispatch: every argv through the whole
    top-level parser, a fresh one, then the handler named by args.command."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else cli.EXIT_OK
    handler = getattr(cli, "cmd_" + args.command.replace("-", "_"))
    try:
        return handler(args)
    except (InvalidConfigError, cli.UsageError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return cli.EXIT_USER_ERROR


def reference_curve_product(a: CurveRingElement, b: CurveRingElement) -> CurveRingElement:
    """Reference for CurveRingElement.__mul__: the structure constants of the
    basis, written out by hand from the ring's relations."""
    params, a0, a1, a2, a3, a4, a5 = a
    other_params, b0, b1, b2, b3, b4, b5 = b
    if params != other_params:
        raise ValueError("elements belong to different parameter values")
    g, c1 = params.gamma, params.c1
    # x0*x0 = x0^2, x0*x1 = gamma*w1, x1*x1 = c1*w1 - gamma*x0^2,
    # x0*x0^2 = x0^3, x1*w1 = -x0^3, x0*w1 = x1*x0^2 = 0, and every product
    # above degree 3 dies
    return CurveRingElement(
        params,
        a0 * b0,
        a0 * b1 + a1 * b0,
        a0 * b2 + a2 * b0,
        a0 * b3 + a3 * b0 + a1 * b1 - g * a2 * b2,
        a0 * b4 + a4 * b0 + g * (a1 * b2 + a2 * b1) + c1 * a2 * b2,
        a0 * b5 + a5 * b0 + a1 * b3 + a3 * b1 - a2 * b4 - a4 * b2,
    )


def reference_curve_str(a: CurveRingElement) -> str:
    """Reference for CurveRingElement.__str__: the representative, printed."""
    return format_polynomial(a.to_polynomial(), CURVE_VARIABLES)


def reference_curve_normal_form(params: CurveRingParams, p: Polynomial) -> CurveRingElement:
    """Reference for curve_normal_form: the same rules, applied by a closure
    that fills a list of the six coordinates."""
    if p.nvars != 3:
        raise ValueError("polynomial has %d variables, expected 3" % p.nvars)
    g, c1 = params.gamma, params.c1
    acc = [0, 0, 0, 0, 0, 0]  # unit, x0, x1, x0^2, w1, x0^3

    def put(a, b, c, coef):
        if a + b + 2 * c > TOP_DEGREE:
            return
        if b >= 2:
            put(a, b - 2, c + 1, coef * c1)
            put(a + 2, b - 2, c, -coef * g)
        elif a >= 1 and b >= 1:
            put(a - 1, b - 1, c + 1, coef * g)
        elif b >= 1 and c >= 1:
            put(a + 3, b - 1, c - 1, -coef)
        elif a >= 1 and c >= 1:
            return
        elif c >= 1:
            acc[4] += coef  # bare w1 (c == 1; larger c is over the degree cap)
        elif b == 1:
            acc[2] += coef
        elif a == 0:
            acc[0] += coef
        elif a == 1:
            acc[1] += coef
        elif a == 2:
            acc[3] += coef
        else:  # a == 3; higher pure powers are over the degree cap
            acc[5] += coef

    for (a, b, c), coef in p.terms.items():
        put(a, b, c, coef)
    return CurveRingElement(params, *acc)


def expand_substitute(p: Polynomial, images) -> Polynomial:
    """Reference for Polynomial.substitute: every term expanded on its own,
    each image power rebuilt by repeated multiplication."""
    tgt = images[0].nvars
    result = Polynomial.constant(tgt, 0)
    for exps, coef in p.terms.items():
        term = Polynomial.constant(tgt, coef)
        for img, e in zip(images, exps):
            for _ in range(e):
                term = term * img
        result = result + term
    return result


def dense_class(config: ProximityConfig, kind: str, i: int = 0) -> DivisorVector:
    """Reference for the sparse degree-1 classes: h (kind "h"), E_i ("E") or
    e_i ("e") as a dense total-basis vector, e_i through strict_to_total."""
    unit = tuple(int(t == i) for t in range(config.s + 1))
    if kind == "e":
        return strict_to_total(config, DivisorVector.strict(unit))
    return DivisorVector.total(unit)


def support(v: DivisorVector) -> dict[int, int]:
    """The nonzero coordinates {t: c} of a dense vector."""
    return {t: c for t, c in enumerate(v.coords) if c}


def reference_rho(config: ProximityConfig, p: Polynomial) -> Polynomial:
    """Reference for rho: y_i -> x_i minus the x_j of the points j proximate
    to i, built by subtraction and substituted term by term."""
    nv = config.s + 1

    def x(i):
        return Polynomial.monomial(nv, [1 if t == i else 0 for t in range(nv)])

    images = [x(0)]
    for i in range(1, nv):
        img = x(i)
        for j in config.proximate_points(i):
            img = img - x(j)
        images.append(img)
    return expand_substitute(p, images)


def assert_well_stored(p: Polynomial) -> None:
    """The storage invariant every Polynomial keeps, however it was made:
    no zero coefficients, keys are tuples of nvars nonnegative ints."""
    assert isinstance(p, Polynomial) and type(p.nvars) is int
    for exps, coef in p.terms.items():
        assert type(exps) is tuple and len(exps) == p.nvars, exps
        assert all(type(e) is int and e >= 0 for e in exps), exps
        assert type(coef) is int and coef != 0, (exps, coef)


def small_polys(nvars=3, max_exp=3, max_terms=4):
    """Hypothesis strategy: polynomials of up to max_terms terms, exponents
    up to max_exp, coefficients in -9..9 (terms may merge or cancel)."""
    exps = st.tuples(*(st.integers(0, max_exp) for _ in range(nvars)))
    term = st.tuples(exps, st.integers(-9, 9))
    return st.lists(term, max_size=max_terms).map(lambda t: Polynomial(nvars, t))


def parse_indent2(text: str):
    """The JSON document text holds, asserted to be laid out exactly as
    json.dumps(..., indent=2) lays it out."""
    doc = json.loads(text)
    assert json.dumps(doc, indent=2) == text
    return doc


def read_presentation(doc: dict) -> Presentation:
    """A presentation read back from its JSON document, one factor a relation.

    Asserts the document's shape on the way: keys in the order vars, basis,
    relations and exps, coef, and each relation listing its terms once,
    largest monomial first (sorted_terms() order), with plain int fields.
    """
    assert list(doc) == ["vars", "basis", "relations"]
    nvars = len(doc["vars"])
    relations = []
    for rel in doc["relations"]:
        assert all(list(t) == ["exps", "coef"] for t in rel)
        terms = [(tuple(t["exps"]), t["coef"]) for t in rel]
        assert all(type(x) is int for exps, coef in terms for x in (*exps, coef))
        poly = Polynomial(nvars, terms)
        assert terms == poly.sorted_terms()
        relations.append((poly,))
    return Presentation(tuple(doc["vars"]), tuple(relations), doc["basis"])


def read_divisors(doc: dict) -> list:
    """The (i, final_proximity, final_chow, witness) rows of a finality
    report's JSON document, its keys asserted in that order and each value
    of the type the report holds: i an int, the verdicts bool or None, the
    witness str or None."""
    assert list(doc) == ["divisors"]
    rows = []
    for d in doc["divisors"]:
        assert list(d) == ["i", "final_proximity", "final_chow", "witness"]
        i, by_proximity, by_chow, witness = row = tuple(d.values())
        assert type(i) is int
        assert {type(by_proximity), type(by_chow)} <= {bool, type(None)}
        assert witness is None or type(witness) is str
        rows.append(row)
    return rows


def reference_pair_integral(n, shared, r):
    """Integral of e_i^(n-r) * e_j^r, given shared = [(e_i[t], e_j[t]) for
    each t in both supports].

    Mixed products vanish and each E_t^n integrates to (-1)^(n+1), so only
    the support points the two classes share contribute.
    """
    return (1 if n % 2 else -1) * sum(x ** (n - r) * y ** r for x, y in shared)


def reference_meeting(config, i, ei):
    """Reference for the meeting pairs of finality._pairs, filtered at n = 2
    as intersecting_indices filters them: (j, shared) for each j != i,
    ascending, with e_i * e_j nonzero; the n = 2 test by reference_pair_integral."""
    targets = config._targets
    shared = {}
    for t, x in ei.items():
        if t != i:
            shared.setdefault(t, []).append((x, 1))
        for k in targets.get(t, ()):
            if k != i:
                shared.setdefault(k, []).append((x, -1))
    pairs = sorted(shared.items())
    if config.n == 2:
        return [(j, sh) for j, sh in pairs if reference_pair_integral(2, sh, 1)]
    return pairs


def reference_chow_conditions(config, i):
    """Reference for finality._chow_conditions: every integral its own sum
    of powers over the shared support, e_i^n up front, (11)'s integral
    computed again as (10)'s r = n-1."""
    n, ei = config.n, strict_class_in_total(config, i)
    # e_i^n pairs e_i with itself over its whole support
    ein = reference_pair_integral(n, [(x, x) for x in ei.values()], 0)
    for j, shared in reference_meeting(config, i, ei):
        # condition (11): e_j^(n-1) * e_i must be the point class
        lhs = reference_pair_integral(n, shared, n - 1)
        if lhs != 1:
            return (
                False,
                "condition (11) fails for j=%d: integral %d, expected 1" % (j, lhs),
            )
        # condition (10): e_i^n == (-1)^r e_i^(n-r) e_j^r for every r
        for r in range(1, n):
            rhs = reference_pair_integral(n, shared, r) * (-1) ** r
            if ein != rhs:
                return (
                    False,
                    "condition (10) fails for j=%d at r=%d: integral %d, expected %d"
                    % (j, r, rhs, ein),
                )
    return True, None


def dag_path_counts(config: ProximityConfig, j: int, i: int) -> int:
    """Number of proximity chains j -> ... -> i, counted by brute force."""
    if j == i:
        return 1
    total = 0
    for t in config.proximity_targets(j):
        if t >= i:
            total += dag_path_counts(config, t, i)
    return total


def _smith_divisors(m, ncols):
    nr = len(m)
    divisors = []
    k = 0
    while k < nr and k < ncols:
        best = None
        for i in range(k, nr):
            row = m[i]
            for j in range(k, ncols):
                v = row[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, i0, j0 = best
        m[k], m[i0] = m[i0], m[k]
        if j0 != k:
            for row in m:
                row[k], row[j0] = row[j0], row[k]
        done = False
        while not done:
            done = True
            piv = m[k][k]
            for i in range(k + 1, nr):
                v = m[i][k]
                if v:
                    q = v // piv
                    if q:
                        mi, mk = m[i], m[k]
                        for t in range(k, ncols):
                            mi[t] -= q * mk[t]
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        done = False
                        piv = m[k][k]
            for j in range(k + 1, ncols):
                v = m[k][j]
                if v:
                    q = v // piv
                    if q:
                        for row in m:
                            row[j] -= q * row[k]
                    if m[k][j]:
                        for row in m:
                            row[k], row[j] = row[j], row[k]
                        done = False
                        piv = m[k][k]
        divisors.append(abs(m[k][k]))
        k += 1
    # enforce the divisibility chain d_1 | d_2 | ...
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            a, b = divisors[i], divisors[j]
            if b % a:
                g = gcd(a, b)
                divisors[i], divisors[j] = g, a * b // g
    return divisors


class DenseHermiteLattice:
    """Reference for HermiteLattice: the same echelon algorithm on dense rows.

    Every step runs over all columns from the pivot to the end, and
    back-substitution waits for the first query.  Hermite form is unique,
    so the sparse lattice, which keeps it after every row, must match the
    back-substituted rows entry for entry.
    """

    def __init__(self, width):
        self.width = width
        self.rows = []
        self.pivot_cols = []
        self._reduced = True

    @property
    def rank(self):
        return len(self.rows)

    def add_row(self, vec):
        vec = list(vec)
        assert len(vec) == self.width
        rows, pcols = self.rows, self.pivot_cols
        for j in range(self.width):
            vj = vec[j]
            if not vj:
                continue
            pos = bisect_left(pcols, j)
            if pos < len(pcols) and pcols[pos] == j:
                row = rows[pos]
                a = row[j]
                if vj % a == 0:
                    q = vj // a
                    for t in range(j, self.width):
                        vec[t] -= q * row[t]
                else:
                    x, y, g = _xgcd(a, vj)
                    ag, bg = a // g, vj // g
                    for t in range(j, self.width):
                        rt, vt = row[t], vec[t]
                        row[t] = x * rt + y * vt
                        vec[t] = ag * vt - bg * rt
                    self._reduced = False
            else:
                if vj < 0:
                    vec = [-c for c in vec]
                rows.insert(pos, vec)
                pcols.insert(pos, j)
                self._reduced = False
                return True
        return False

    def _ensure_reduced(self):
        if self._reduced:
            return
        rows, pcols = self.rows, self.pivot_cols
        r = len(rows)
        for k in range(r - 2, -1, -1):
            rk = rows[k]
            for m in range(k + 1, r):
                jm = pcols[m]
                piv = rows[m][jm]
                q = rk[jm] // piv
                if q:
                    rm = rows[m]
                    for t in range(jm, self.width):
                        rk[t] -= q * rm[t]
        self._reduced = True

    def reduce_vector(self, vec):
        assert len(vec) == self.width
        self._ensure_reduced()
        v = list(vec)
        for row, j in zip(self.rows, self.pivot_cols):
            if v[j]:
                q = v[j] // row[j]
                if q:
                    for t in range(j, self.width):
                        v[t] -= q * row[t]
        return v

    def contains(self, vec):
        return not any(self.reduce_vector(vec))

    def elementary_divisors(self):
        if all(row[c] == 1 for row, c in zip(self.rows, self.pivot_cols)):
            return [1] * self.rank
        return _smith_divisors([row[:] for row in self.rows], self.width)


def full_piece(ideal: GradedIdeal, d: int) -> GradedPiece:
    """Reference for GradedIdeal.piece: the degree-d slice over every monomial
    of the degree, with every row g*m of every generator folded in.

    It drops no dead column, so the oracle's slice must equal it restricted
    to the oracle's columns, and each column left out must have the unit
    vector as its row here.
    """
    nvars, weights = ideal.nvars, ideal.weights
    monos = monomials_of_degree(nvars, d, weights)
    index = {m: i for i, m in enumerate(monos)}
    # No exponent in a degree-d slice exceeds d, so base-(d+1) digits
    # never carry: key(g*m) = key(g) + key(m), under any weights.
    powers = [(d + 1) ** i for i in range(nvars)]
    column = {sum(map(mul, m, powers)): i for i, m in enumerate(monos)}
    lat = HermiteLattice(len(monos))
    singles = set()  # a repeated single-entry row adds nothing
    new = 0
    for g, dg in zip(ideal.generators, ideal._degrees):
        r = d - dg
        if r < 0:
            break
        shifts = [sum(map(mul, m, powers)) for m in monomials_of_degree(nvars, r, weights)]
        terms = [(sum(map(mul, exps, powers)), coef) for exps, coef in g.terms.items()]
        for k in shifts:
            row = {column[key + k]: coef for key, coef in terms}
            if len(row) == 1:
                (single,) = row.items()
                if single in singles:
                    continue
                singles.add(single)
            if lat.add_row(row) and not r:
                new += 1
    return GradedPiece(d, tuple(monos), index, lat, new)


def full_vector(full: GradedPiece, p: Polynomial) -> dict:
    """The {column: coefficient} vector of a p of a full reference slice's
    degree: that slice has a column for every monomial of the degree."""
    return {full.index[exps]: coef for exps, coef in p.terms.items()}


def full_reduce(full: GradedPiece, p: Polynomial) -> Polynomial:
    """reduce on a full reference slice, for a p of its degree."""
    monos = full.monomials
    v = full.lattice.reduce_vector(full_vector(full, p))
    return Polynomial(p.nvars, {monos[t]: c for t, c in v.items()})
