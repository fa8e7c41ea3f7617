"""Canonical arithmetic in the Chow ring of an iterated point blow-up.

In the total transform basis the ring is Z[x_0..x_s] modulo all mixed
products x_i*x_j (i < j) together with one binomial per exceptional class
tying its n-th power to the hyperplane power x_0^n.  Those relations are
confluent as rewrite rules, so every class has a unique canonical form over
the pure powers

    1,  x_i^d for 1 <= d <= n-1 and 0 <= i <= s,  x_0^n,

where x_0^n is the point class, whose integral against the fundamental
class is 1.  ChowElement stores the nonzero coefficients of that form, and
_add_power is the one place that applies the rewrite rule.  Strict transform
input is converted at the boundary by the proximity change of basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import (
    Polynomial,
    format_polynomial,
    format_terms,
    poly_from_term_list,
    poly_to_term_list,
)
from .proximity import (
    DivisorVector,
    ProximityConfig,
    strict_to_total,
    total_exceptional,
    total_to_strict,
)


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

    def component(self, d):
        """Degree-d data: an int for d in {0, n}, a coefficient tuple otherwise."""
        if d == 0:
            return self.deg0
        if d == self.n:
            return self.top
        if 1 <= d < self.n:
            return tuple(self.terms.get((d, i), 0) for i in range(self.s + 1))
        return 0

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
        terms = {}
        for (d, i), c in self.terms.items():
            exps = [0] * nv
            exps[i] = d
            terms[tuple(exps)] = c
        return Polynomial._of(nv, terms)

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
    terms = {}
    for exps, coef in p.terms.items():
        support = [i for i, e in enumerate(exps) if e]
        if len(support) > 1:
            continue
        i = support[0] if support else 0
        _add_power(terms, n, exps[i], i, coef)
    return ChowElement(n, s, terms)


def _total_coords(config: ProximityConfig, v: DivisorVector) -> tuple[int, ...]:
    """Coordinates of v in the total basis, checked to have length s + 1."""
    if v.basis == "strict":
        v = strict_to_total(config, v)
    if len(v.coords) != config.s + 1:
        raise ValueError(
            "coordinate vector has length %d, expected %d"
            % (len(v.coords), config.s + 1)
        )
    return v.coords


def from_divisor(config: ProximityConfig, v: DivisorVector) -> ChowElement:
    """Degree-1 class of a divisor coordinate vector, in canonical form."""
    terms = {(1, t): c for t, c in enumerate(_total_coords(config, v)) if c}
    return ChowElement(config.n, config.s, terms)


def divisor_product(config: ProximityConfig, factors) -> ChowElement:
    """Canonical form of a product of (DivisorVector, k) factors, each meaning v^k.

    Degree-1 classes multiply coordinate-wise: the product of degree d is
    sum over t of (prod v_t) x_t^d, which the rewrite rule turns into
    prod v_0 + (-1)^(n+1) * sum over t >= 1 of prod v_t times x_0^n when
    d = n.  A product of more than n classes is zero.  Equal to the ChowElement product of
    the from_divisor factors, without forming any intermediate element.
    """
    if not factors or min(k for _, k in factors) < 1:
        raise ValueError("need at least one factor, each with exponent >= 1")
    n, s = config.n, config.s
    d = sum(k for _, k in factors)
    if d > n:
        # the product vanishes; skip raising coordinates to large exponents
        return ChowElement.zero(n, s)
    coords = [1] * (s + 1)
    for v, k in factors:
        coords = [a * c**k for a, c in zip(coords, _total_coords(config, v))]
    terms = {}
    for t, c in enumerate(coords):
        _add_power(terms, n, d, t, c)
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


@dataclass(frozen=True)
class Presentation:
    """A finite presentation of the ring: variable names plus relation polynomials."""

    variables: tuple[str, ...]
    relations: tuple[Polynomial, ...]
    basis: str

    def to_text(self) -> str:
        lines = ["variables: " + " ".join(self.variables)]
        for rel in self.relations:
            lines.append(format_polynomial(rel, self.variables))
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.variables),
            "basis": self.basis,
            "relations": [poly_to_term_list(rel) for rel in self.relations],
        }

    @classmethod
    def from_json_dict(cls, doc) -> "Presentation":
        variables = tuple(str(v) for v in doc["vars"])
        basis = doc.get("basis", "total")
        if basis not in ("total", "strict"):
            raise ValueError("basis must be 'total' or 'strict', got %r" % basis)
        nvars = len(variables)
        relations = tuple(poly_from_term_list(nvars, rel) for rel in doc["relations"])
        return cls(variables, relations, basis)


def total_presentation(config: ProximityConfig) -> Presentation:
    """Relations among the total transform generators; depends only on (n, s)."""
    n, s = config.n, config.s
    nv = s + 1
    rels = []
    for i in range(nv):
        for j in range(i + 1, nv):
            exps = tuple(1 if t in (i, j) else 0 for t in range(nv))
            rels.append(Polynomial.monomial(nv, exps))
    sign = (-1) ** n
    x0n = tuple(n if t == 0 else 0 for t in range(nv))
    for i in range(1, nv):
        xin = tuple(n if t == i else 0 for t in range(nv))
        rels.append(Polynomial(nv, {xin: sign, x0n: 1}))
    names = tuple("x%d" % i for i in range(nv))
    return Presentation(names, tuple(rels), "total")


def strict_presentation(config: ProximityConfig) -> Presentation:
    """Relations among the strict transform generators.

    The mixed relations pair the combinations L_i = y_i + sum b_{k,i} y_k,
    where the b's are entries of the inverse proximity matrix (they count
    proximity chains, so they are nonnegative); the power relations carry
    the constant (-1)^n + #(points proximate to the i-th).
    """
    n, s = config.n, config.s
    nv = s + 1
    rels = []
    y = [Polynomial.variable(nv, t) for t in range(nv)]
    for i in range(1, nv):
        rels.append(y[0] * y[i])
    combos = {}
    for i in range(1, nv):
        # column i of the inverse proximity matrix is E_i in strict coordinates
        column = total_to_strict(config, total_exceptional(config, i)).coords
        L = y[i]
        for k in range(i + 1, nv):
            c = column[k]
            if c:
                L = L + c * y[k]
        combos[i] = L
    for i in range(1, nv):
        for j in range(i + 1, nv):
            rels.append(combos[i] * combos[j])
    sign = (-1) ** n
    y0n = Polynomial.monomial(nv, tuple(n if t == 0 else 0 for t in range(nv)))
    for i in range(1, nv):
        m_i = len(config.proximate_points(i))
        rels.append(y[i] ** n + (sign + m_i) * y0n)
    names = tuple("y%d" % i for i in range(nv))
    return Presentation(names, tuple(rels), "strict")


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
    nv = s + 1
    units = []
    for i in range(nv):
        exps = [0] * nv
        exps[i] = 1
        units.append(tuple(exps))
    images = []
    for i, unit in enumerate(units):
        img = {unit: 1}
        if i:
            for j in config.proximate_points(i):
                img[units[j]] = -1
        images.append(Polynomial._of(nv, img))
    return p.substitute(images)
