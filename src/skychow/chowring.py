"""Canonical arithmetic in the Chow ring of an iterated point blow-up.

In the total transform basis the ring is Z[x_0..x_s] modulo all mixed
products x_i*x_j (i < j) together with one binomial per exceptional class
tying its n-th power to the hyperplane power x_0^n.  Those relations are
confluent as rewrite rules, so every class has a unique canonical form

    scalar  +  (one coefficient per variable per degree 1..n-1)  +  top,

with the top slot holding the coefficient of x_0^n, whose integral against
the fundamental class is 1.  ChowElement stores exactly that data; strict
transform input is converted at the boundary by the proximity change of basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import (
    Polynomial,
    format_polynomial,
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


class ChowElement:
    """A ring element in canonical form for a fixed (n, s).

    ``graded[d-1][i]`` is the coefficient of x_i^d for 1 <= d <= n-1;
    ``deg0`` and ``top`` are the coefficients of 1 and of x_0^n.  Instances
    are immutable; all arithmetic returns fresh objects.
    """

    __slots__ = ("n", "s", "deg0", "graded", "top")

    def __init__(self, n, s, deg0=0, graded=None, top=0):
        if n < 2 or s < 1:
            raise ValueError("need n >= 2 and s >= 1, got n=%d s=%d" % (n, s))
        if graded is None:
            graded = tuple((0,) * (s + 1) for _ in range(n - 1))
        else:
            graded = tuple(tuple(int(c) for c in vec) for vec in graded)
            if len(graded) != n - 1 or any(len(vec) != s + 1 for vec in graded):
                raise ValueError("graded part must be (n-1) vectors of length s+1")
        self.n = n
        self.s = s
        self.deg0 = int(deg0)
        self.graded = graded
        self.top = int(top)

    @classmethod
    def zero(cls, n, s):
        return cls(n, s)

    @classmethod
    def one(cls, n, s):
        return cls(n, s, deg0=1)

    def is_zero(self):
        return (
            self.deg0 == 0
            and self.top == 0
            and all(c == 0 for vec in self.graded for c in vec)
        )

    def component(self, d):
        """Degree-d data: an int for d in {0, n}, a coefficient tuple otherwise."""
        if d == 0:
            return self.deg0
        if d == self.n:
            return self.top
        if 1 <= d < self.n:
            return self.graded[d - 1]
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
        return (
            (self.n, self.s) == (other.n, other.s)
            and self.deg0 == other.deg0
            and self.graded == other.graded
            and self.top == other.top
        )

    def __hash__(self):
        return hash((self.n, self.s, self.deg0, self.graded, self.top))

    def __add__(self, other):
        if not isinstance(other, ChowElement):
            return NotImplemented
        self._check_match(other)
        graded = tuple(
            tuple(a + b for a, b in zip(va, vb))
            for va, vb in zip(self.graded, other.graded)
        )
        return ChowElement(
            self.n, self.s, self.deg0 + other.deg0, graded, self.top + other.top
        )

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if not isinstance(other, ChowElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            graded = tuple(tuple(c * other for c in vec) for vec in self.graded)
            return ChowElement(
                self.n, self.s, self.deg0 * other, graded, self.top * other
            )
        if not isinstance(other, ChowElement):
            return NotImplemented
        self._check_match(other)
        n, s = self.n, self.s
        a0, b0 = self.deg0, other.deg0
        # (-1)^(n+1): the sign picked up when x_i^n (i >= 1) rewrites to x_0^n.
        sign = 1 if n % 2 else -1
        top = a0 * other.top + b0 * self.top
        for d1 in range(1, n):
            va = self.graded[d1 - 1]
            vb = other.graded[n - d1 - 1]
            top += va[0] * vb[0]
            top += sign * sum(va[i] * vb[i] for i in range(1, s + 1))
        graded = []
        for d in range(1, n):
            vec = [
                a0 * other.graded[d - 1][i] + b0 * self.graded[d - 1][i]
                for i in range(s + 1)
            ]
            for d1 in range(1, d):
                va = self.graded[d1 - 1]
                vb = other.graded[d - d1 - 1]
                for i in range(s + 1):
                    vec[i] += va[i] * vb[i]
            graded.append(vec)
        return ChowElement(n, s, a0 * b0, graded, top)

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
        n, s = self.n, self.s
        terms = {}
        if self.deg0:
            terms[(0,) * (s + 1)] = self.deg0
        for d in range(1, n):
            vec = self.graded[d - 1]
            for i in range(s + 1):
                if vec[i]:
                    exps = tuple(d if t == i else 0 for t in range(s + 1))
                    terms[exps] = vec[i]
        if self.top:
            terms[(n,) + (0,) * s] = self.top
        return Polynomial(s + 1, terms)

    def __str__(self):
        names = tuple("x%d" % i for i in range(self.s + 1))
        return format_polynomial(self.to_polynomial(), names)

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
    deg0 = 0
    graded = [[0] * (s + 1) for _ in range(n - 1)]
    top = 0
    sign = 1 if n % 2 else -1
    for exps, coef in p.terms.items():
        support = [i for i, e in enumerate(exps) if e]
        if len(support) > 1:
            continue
        if not support:
            deg0 += coef
            continue
        i = support[0]
        d = exps[i]
        if d < n:
            graded[d - 1][i] += coef
        elif d == n:
            top += coef if i == 0 else sign * coef
        # d > n: the pure power already lies in the ideal
    return ChowElement(n, s, deg0, graded, top)


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
    graded = [[0] * (config.s + 1) for _ in range(config.n - 1)]
    graded[0] = list(_total_coords(config, v))
    return ChowElement(config.n, config.s, 0, graded, 0)


def divisor_product(config: ProximityConfig, factors) -> ChowElement:
    """Canonical form of a product of (DivisorVector, k) factors, each meaning v^k.

    Degree-1 classes multiply coordinate-wise: below the top degree slot t of
    the product is prod v_t, and in degree n the x_0^n coefficient is
    prod v_0 + (-1)^(n+1) * sum over t >= 1 of prod v_t.  A product of more
    than n classes is zero.  Equal to the ChowElement product of the
    from_divisor factors, without forming any intermediate element.
    """
    if not factors or min(k for _, k in factors) < 1:
        raise ValueError("need at least one factor, each with exponent >= 1")
    n, s = config.n, config.s
    d = sum(k for _, k in factors)
    if d > n:
        return ChowElement.zero(n, s)
    coords = [1] * (s + 1)
    for v, k in factors:
        coords = [a * c**k for a, c in zip(coords, _total_coords(config, v))]
    if d == n:
        sign = 1 if n % 2 else -1
        return ChowElement(n, s, top=coords[0] + sign * sum(coords[1:]))
    graded = [[0] * (s + 1) for _ in range(n - 1)]
    graded[d - 1] = coords
    return ChowElement(n, s, 0, graded, 0)


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
    images = [Polynomial.variable(nv, 0)]
    for i in range(1, nv):
        img = Polynomial.variable(nv, i)
        for j in config.proximate_points(i):
            img = img - Polynomial.variable(nv, j)
        images.append(img)
    return p.substitute(images)
