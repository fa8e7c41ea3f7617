"""Canonical arithmetic in the Chow ring of an iterated point blow-up.

In the total transform basis the ring is Z[x_0..x_s] modulo all mixed
products x_i*x_j (i < j) together with one binomial per exceptional class
tying its n-th power to the hyperplane power x_0^n.  Those relations are
confluent as rewrite rules, so every class has a unique canonical form over
the pure powers

    1,  x_i^d for 1 <= d <= n-1 and 0 <= i <= s,  x_0^n,

where x_0^n is the point class, whose integral against the fundamental
class is 1.  ChowElement stores the nonzero coefficients of that form, and
_add_power is the one place that applies the rewrite rule.  A degree-1
class is a sparse {t: c} dict over x_0 = h and x_t = E_t in total
coordinates; a strict class e_i enters as strict_class_in_total gives it.

normal_form and ChowElement.to_polynomial wrap term-dict cores,
_normal_terms ({exps: c} to {(d, i): c}) and _power_terms (back), so a
caller comparing many term dicts with the oracle's builds no Polynomial or
ChowElement per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import mul

from .poly import Polynomial, _json_list, format_polynomial, format_terms
from .proximity import ProximityConfig, strict_class_in_total


def _add_power(terms, n, d, i, c):
    """Add c * x_i^d to a canonical term dict, in place.

    The rewrite rule of the ring: x_i^n (i >= 1) becomes (-1)^(n+1) x_0^n and
    every pure power above degree n vanishes.  Entries that cancel to zero
    are removed, so the dict stays canonical.
    """
    if d > n or not c:
        return
    if d == n and i:
        i = 0
        if not n % 2:
            c = -c
    key = (d, i)
    c += terms.get(key, 0)
    if c:
        terms[key] = c
    else:
        del terms[key]


class ChowElement:
    """A ring element in canonical form for a fixed (n, s).

    ``terms`` maps (d, i) to the nonzero coefficient of x_i^d: the key is
    (0, 0) for the constant, (d, i) with 1 <= d <= n-1 and 0 <= i <= s in the
    middle degrees, and (n, 0) for x_0^n.  The constructor takes such a dict
    as is; the functions of this module build it through _add_power.
    Instances are immutable; all arithmetic returns fresh objects.
    """

    __slots__ = ("n", "s", "terms")

    def __init__(self, n, s, terms=None):
        if n < 2 or s < 1:
            raise ValueError("need n >= 2 and s >= 1, got n=%d s=%d" % (n, s))
        self.n = n
        self.s = s
        self.terms = {} if terms is None else terms

    @classmethod
    def _of(cls, n, s, terms):
        """Wrap a canonical term dict for a checked (n, s), unchecked and uncopied."""
        a = object.__new__(cls)
        a.n = n
        a.s = s
        a.terms = terms
        return a

    @classmethod
    def zero(cls, n, s):
        return cls(n, s)

    @classmethod
    def one(cls, n, s):
        return cls(n, s, {(0, 0): 1})

    @property
    def deg0(self):
        return self.terms.get((0, 0), 0)

    @property
    def top(self):
        return self.terms.get((self.n, 0), 0)

    def is_zero(self):
        return not self.terms

    def _check_match(self, other):
        if (self.n, self.s) != (other.n, other.s):
            raise ValueError(
                "mismatched rings: (n=%d, s=%d) vs (n=%d, s=%d)"
                % (self.n, self.s, other.n, other.s)
            )

    def __eq__(self, other):
        if not isinstance(other, ChowElement):
            return NotImplemented
        return (self.n, self.s, self.terms) == (other.n, other.s, other.terms)

    def __hash__(self):
        return hash((self.n, self.s, frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, ChowElement):
            return NotImplemented
        self._check_match(other)
        terms = dict(self.terms)
        for (d, i), c in other.terms.items():
            _add_power(terms, self.n, d, i, c)
        return ChowElement(self.n, self.s, terms)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if not isinstance(other, ChowElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            terms = {key: c * other for key, c in self.terms.items()} if other else {}
            return ChowElement(self.n, self.s, terms)
        if not isinstance(other, ChowElement):
            return NotImplemented
        self._check_match(other)
        n, b_terms = self.n, other.terms
        terms = {}
        for (d1, i), a in self.terms.items():
            if d1 == 0:
                for (d2, j), b in b_terms.items():
                    _add_power(terms, n, d2, j, a * b)
                continue
            _add_power(terms, n, d1, i, a * other.deg0)
            # x_i^d1 meets only powers of the same variable: mixed products vanish
            for d2 in range(1, n - d1 + 1):
                _add_power(terms, n, d1 + d2, i, a * b_terms.get((d2, i), 0))
        return ChowElement(n, self.s, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = ChowElement.one(self.n, self.s)
        for _ in range(k):
            result = result * self
        return result

    def to_polynomial(self):
        """The canonical representative as a polynomial in x_0..x_s."""
        nv = self.s + 1
        return Polynomial._of(nv, _power_terms(nv, self.terms))

    def __str__(self):
        # descending (d, i) is the global monomial order restricted to pure powers
        pairs = []
        for d, i in sorted(self.terms, reverse=True):
            mono = "" if d == 0 else "x%d" % i if d == 1 else "x%d^%d" % (i, d)
            pairs.append((mono, self.terms[d, i]))
        return format_terms(pairs)

    def __repr__(self):
        return "ChowElement(n=%d, s=%d, %s)" % (self.n, self.s, self)


def normal_form(config: ProximityConfig, p: Polynomial) -> ChowElement:
    """Canonical form of a polynomial in the total transform variables.

    Rules: mixed monomials vanish; x_i^n rewrites to (-1)^(n+1) x_0^n for
    i >= 1; pure powers of degree above n vanish.  Proximity data is not
    consulted, which is the point: the total presentation only depends on
    (n, s).
    """
    n, s = config.n, config.s
    if p.nvars != s + 1:
        raise ValueError(
            "polynomial has %d variables, expected s + 1 = %d" % (p.nvars, s + 1)
        )
    # a config holds n >= 2 and s >= 1, so the constructor's check is skipped
    return ChowElement._of(n, s, _normal_terms(n, p.terms))


def _normal_terms(n, terms):
    """normal_form's core: the canonical {(d, i): c} dict of a term dict
    {exps: c} in the total variables, whose length it does not check."""
    out = {}
    for exps, coef in terms.items():
        d = max(exps)
        # exponents are nonnegative: the term is a pure power (or the
        # constant, whose top exponent 0 sits first) exactly when one
        # exponent carries the whole degree
        if d == sum(exps):
            _add_power(out, n, d, exps.index(d), coef)
    return out


def _power_terms(nv, terms):
    """to_polynomial's core: the term dict {exps: c} over nv variables of a
    {(d, i): c} dict, each x_i^d with a fresh exponent tuple.  The
    presentations and rho's images write their pure powers through it too."""
    out = {}
    for (d, i), c in terms.items():
        exps = [0] * nv
        exps[i] = d
        out[tuple(exps)] = c
    return out


def _check_support(config: ProximityConfig, v: dict[int, int]) -> None:
    """Raise ValueError unless every key of the {t: c} class v is an int in 0..s."""
    for t in v:
        if type(t) is not int:  # not isinstance: True is an int
            raise ValueError("coordinate %r must be an integer" % (t,))
    if v and (min(v) < 0 or max(v) > config.s):
        bad = min(v) if min(v) < 0 else max(v)
        raise ValueError("coordinate %d out of range 0..%d" % (bad, config.s))


def from_divisor(config: ProximityConfig, v: dict[int, int]) -> ChowElement:
    """Degree-1 class of sum c x_t over a {t: c} dict, 0 <= t <= s, in canonical form."""
    _check_support(config, v)
    terms = {(1, t): c for t, c in v.items() if c}
    return ChowElement(config.n, config.s, terms)


def sparse_product(config: ProximityConfig, factors) -> ChowElement:
    """Canonical form of a product of ({t: c}, k) factors, each meaning v^k.

    A factor's dict holds the nonzero total coordinates of a degree-1 class
    sum of c x_t, with 0 <= t <= s (x_0 the hyperplane class).  Degree-1
    classes multiply coordinate-wise, so the product of degree d is the sum
    over the t in every factor's support of (prod v_t) x_t^d, which the
    rewrite rule turns into prod v_0 + (-1)^(n+1) * sum over t >= 1 of
    prod v_t times x_0^n when d = n.  A product of more than n classes is
    zero.  Equal to the ChowElement product of the degree-1 factors, without
    forming any intermediate element.  Raises ValueError for an empty
    product, an exponent below 1 or a coordinate outside 0..s.
    """
    if not factors or min(k for _, k in factors) < 1:
        raise ValueError("need at least one factor, each with exponent >= 1")
    for v, _ in factors:
        _check_support(config, v)
    n, s = config.n, config.s
    d = sum(k for _, k in factors)
    if d > n:
        # the product vanishes; skip raising coordinates to large exponents
        return ChowElement.zero(n, s)
    # the product lives on the intersection of the supports: start from the smallest
    factors = sorted(factors, key=lambda f: len(f[0]))
    v, k = factors[0]
    coords = {t: c**k for t, c in v.items()}
    for v, k in factors[1:]:
        coords = {t: a * v[t] ** k for t, a in coords.items() if t in v}
    terms = {}
    for t in sorted(coords):
        _add_power(terms, n, d, t, coords[t])
    return ChowElement(n, s, terms)


def degree_integral(a: ChowElement) -> int:
    """Integral of the degree-n part against the fundamental class."""
    return a.top


def graded_rank(config: ProximityConfig, d: int) -> int:
    """Rank of the degree-d piece: 1, s+1 (middle degrees), 1, then 0."""
    if d < 0:
        raise ValueError("degree must be nonnegative, got %d" % d)
    if d == 0 or d == config.n:
        return 1
    if 1 <= d <= config.n - 1:
        return config.s + 1
    return 0


@dataclass(frozen=True, eq=False)
class Presentation:
    """A finite presentation of the ring: variable names plus relation polynomials.

    Each relation is stored as the tuple of factors whose product it is, one
    factor when it is not a product.  ``relations`` expands them on first
    use, so a caller that maps relations factor by factor never pays for the
    expansion.  Presentations compare by their expanded relations.
    """

    variables: tuple[str, ...]
    factored: tuple[tuple[Polynomial, ...], ...]
    basis: str

    @cached_property
    def relations(self) -> tuple[Polynomial, ...]:
        return tuple(reduce(mul, factors) for factors in self.factored)

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return (self.variables, self.basis, self.relations) == (
            other.variables,
            other.basis,
            other.relations,
        )

    def __hash__(self):
        return hash((self.variables, self.basis, self.relations))

    def to_text(self) -> str:
        lines = ["variables: " + " ".join(self.variables)]
        for rel in self.relations:
            lines.append(format_polynomial(rel, self.variables))
        return "\n".join(lines)

    def to_json_text(self) -> str:
        """The presentation as JSON in json.dumps's indent-2 layout: "vars",
        "basis", then "relations", each relation a list of {"exps", "coef"}
        terms, largest monomial first.

        The stdlib drops to its pure-Python encoder whenever indent is set;
        strings go through the C function it would use for them.
        """
        from json.encoder import encode_basestring_ascii as quote

        relations = [
            _json_list(
                [
                    '{\n        "exps": %s,\n        "coef": %d\n      }'
                    % (_json_list(list(map(str, exps)), " " * 10), coef)
                    for exps, coef in rel.sorted_terms()
                ],
                " " * 6,
            )
            for rel in self.relations
        ]
        return '{\n  "vars": %s,\n  "basis": %s,\n  "relations": %s\n}' % (
            _json_list([quote(v) for v in self.variables], " " * 4),
            quote(self.basis),
            _json_list(relations, " " * 4),
        )


def total_presentation(config: ProximityConfig) -> Presentation:
    """Relations among the total transform generators; depends only on (n, s)."""
    n, s = config.n, config.s
    nv = s + 1
    rels = []
    row = [0] * nv
    for i in range(nv):
        row[i] = 1
        for j in range(i + 1, nv):
            row[j] = 1
            rels.append((Polynomial._of(nv, {tuple(row): 1}),))
            row[j] = 0
        row[i] = 0
    sign = (-1) ** n
    for i in range(1, nv):
        rels.append((Polynomial._of(nv, _power_terms(nv, {(n, i): sign, (n, 0): 1})),))
    names = tuple("x%d" % i for i in range(nv))
    return Presentation(names, tuple(rels), "total")


def strict_presentation(config: ProximityConfig) -> Presentation:
    """Relations among the strict transform generators.

    The mixed relations pair the combinations L_i = y_i + sum b_{k,i} y_k,
    where the b's are entries of the inverse proximity matrix (they count
    proximity chains, so they are nonnegative); the power relations carry
    the constant (-1)^n + #(points proximate to the i-th).  The relations
    y_0*y_i and L_i*L_j keep their two factors, shared between relations.
    """
    n, s = config.n, config.s
    nv = s + 1
    rels = []
    y = [Polynomial.variable(nv, k) for k in range(nv)]
    for i in range(1, nv):
        rels.append((y[0], y[i]))
    combos = {}
    for i, column in _inverse_columns(config):
        # a point nothing is proximate to keeps L_i = y_i, the same object
        combos[i] = y[i] if len(column) == 1 else Polynomial._of(
            nv, _power_terms(nv, {(1, k): column[k] for k in sorted(column)})
        )
    for i in range(1, nv):
        for j in range(i + 1, nv):
            rels.append((combos[i], combos[j]))
    # y_i^n + ((-1)^n + m_i) * y_0^n with m_i = #(points proximate to i);
    # the y_0^n term vanishes when m_i = -(-1)^n
    proximate = config._proximate
    sign = (-1) ** n
    for i in range(1, nv):
        c = sign + len(proximate.get(i, ()))
        powers = {(n, i): 1, (n, 0): c} if c else {(n, i): 1}
        rels.append((Polynomial._of(nv, _power_terms(nv, powers)),))
    names = tuple("y%d" % i for i in range(nv))
    return Presentation(names, tuple(rels), "strict")


def _inverse_columns(config: ProximityConfig):
    """Yield (i, column i of the inverse proximity matrix) for i = s..1.

    Column i (E_i in strict coordinates, the coefficients of L_i) counts the
    proximity chains down to i, so it is the unit at i plus the columns of
    the points proximate to i: one descending pass builds them.  Each column
    is a {k: count} dict, its keys the support of L_i.
    """
    proximate = config._proximate
    columns = {}
    for i in range(config.s, 0, -1):
        column = columns[i] = {i: 1}
        for j in proximate.get(i, ()):
            for k, c in columns[j].items():
                column[k] = column.get(k, 0) + c
        yield i, column


def rho(config: ProximityConfig, p: Polynomial) -> Polynomial:
    """Rewrite a strict-variable polynomial in the total variables.

    y_0 goes to x_0 and y_i to x_i minus the sum of x_j over the points j
    proximate to i.  This is the ring map under which every strict relation
    must land in the total ideal; tests check exactly that.
    """
    s = config.s
    if p.nvars != s + 1:
        raise ValueError(
            "polynomial has %d variables, expected s + 1 = %d" % (p.nvars, s + 1)
        )
    return p.substitute(_rho_images(config))


def _rho_images(config: ProximityConfig) -> tuple[Polynomial, ...]:
    """The images of y_0..y_s under rho.

    substitute only reads them and returns fresh terms, so a caller mapping
    many polynomials builds them once and hands them to each substitute.
    The image of y_i is the strict class strict_class_in_total gives, the
    one intersect multiplies.
    """
    nv = config.s + 1
    images = [Polynomial.variable(nv, 0)]
    for i in range(1, nv):
        terms = {(1, t): c for t, c in strict_class_in_total(config, i).items()}
        images.append(Polynomial._of(nv, _power_terms(nv, terms)))
    return tuple(images)
