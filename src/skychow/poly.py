"""Sparse multivariate polynomials over the integers.

Exponent vectors are tuples of length ``nvars`` and coefficients are plain
Python ints, so every computation in the package is exact at any size; the
public ``Polynomial`` constructor refuses any other type, bools included.  A
single graded lexicographic order (variable 0 smallest, the last variable
largest) is used everywhere: it fixes the column order of the brute-force
ideal slices, the pivot choice of their echelon forms, and the term order
of printed and serialized polynomials, which is what makes canonical forms
comparable across independent code paths.

An optional positive weight vector generalizes the grading; the default
weight of every variable is 1.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import lru_cache
from operator import add, mul
from random import Random

Exps = tuple[int, ...]


def monomial_degree(exps: Sequence[int], weights: Sequence[int] | None = None) -> int:
    if weights is None:
        return sum(exps)
    return sum(map(mul, exps, weights))


def _checked_weights(nvars: int, weights: Sequence[int] | None) -> Exps:
    """The weights of a grading of nvars variables as a tuple, every weight
    1 for None; ValueError unless they are nvars ints (bools refused), each
    at least 1."""
    weights = (1,) * nvars if weights is None else tuple(weights)
    if len(weights) != nvars or any(type(w) is not int or w < 1 for w in weights):
        raise ValueError("weights must be %d positive integers" % nvars)
    return weights


def monomial_key(exps: Sequence[int], weights: Sequence[int] | None = None):
    """Sort key realizing graded lex with the last variable most significant."""
    return (monomial_degree(exps, weights), tuple(reversed(exps)))


def monomials_of_degree(
    nvars: int, degree: int, weights: Sequence[int] | None = None
) -> list[Exps]:
    """All exponent vectors of the given weighted degree, largest first.

    Each (nvars, degree, weights) slice is enumerated once per process and
    kept in a bounded cache; every call returns a fresh list, so callers may
    mutate it.
    """
    return list(_slice(nvars, degree, weights))


def _slice(nvars: int, degree: int, weights: Sequence[int] | None) -> tuple[Exps, ...]:
    """The cached slice itself, shared between callers: never mutate it.

    Unit weights, given or implied, share one cache entry (the checked
    weights tuple); a refused variable count or weight vector raises
    before the cache is reached.
    """
    if degree < 0:
        return ()
    return _slice_monomials(nvars, degree, _checked_weights(nvars, weights))


@lru_cache(maxsize=128)
def _slice_monomials(nvars: int, degree: int, weights: Exps) -> tuple[Exps, ...]:
    # All monomials of a slice share one weighted degree, so the global order
    # restricted to it is descending lex on the reversed exponent vector:
    # recurse from the last variable down, largest exponent first.
    if nvars == 0:
        return ((),) if degree == 0 else ()
    out: list[Exps] = []
    exps = [0] * nvars

    def rec(i: int, remaining: int) -> None:
        w = weights[i]
        if i == 0:
            if remaining % w == 0:
                exps[0] = remaining // w
                out.append(tuple(exps))
            return
        for e in range(remaining // w, -1, -1):
            exps[i] = e
            rec(i - 1, remaining - e * w)

    rec(nvars - 1, degree)
    return tuple(out)


def _mul_terms(a: dict, b: dict, out: dict | None = None) -> dict[Exps, int]:
    """The zero-free term dict of the product of two term dicts, added into
    the zero-free dict out in place when one is given."""
    if out is None:
        out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            elif e in out:
                del out[e]
    return out


class Polynomial:
    """Immutable sparse polynomial; ``terms`` maps exponent tuples to nonzero ints.

    The public constructor checks and merges its input.  Code of this
    package whose terms are valid by construction (a zero-free dict keyed by
    exponent tuples of length ``nvars``) goes through ``_of`` instead.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: dict[Exps, int] = {}
        for exps, coef in items:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(
                    "exponent vector %r has length %d, expected %d"
                    % (exps, len(exps), nvars)
                )
            # type, not isinstance: True is an int, and a float would add inexactly
            if any(type(e) is not int or e < 0 for e in exps):
                raise ValueError("exponent vector %r is not of nonnegative ints" % (exps,))
            if type(coef) is not int:
                raise ValueError("coefficient %r is not an int" % (coef,))
            c = merged.get(exps, 0) + coef
            if c:
                merged[exps] = c
            elif exps in merged:
                del merged[exps]
        self.nvars = nvars
        self.terms = merged

    @classmethod
    def _of(cls, nvars: int, terms: dict[Exps, int]) -> "Polynomial":
        """Wrap an already valid term dict, unchecked and uncopied."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise ValueError("variable index %d out of range" % i)
        exps = [0] * nvars
        exps[i] = 1
        return cls._of(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coef: int = 1) -> "Polynomial":
        return cls(nvars, {tuple(exps): coef} if coef else {})

    # -- basic protocol ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):  # a bool compares as the int it equals
            other = Polynomial.constant(self.nvars, int(other))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        names = tuple("v%d" % i for i in range(self.nvars))
        return "Polynomial(%s)" % format_polynomial(self, names)

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                "mixed variable counts: %d vs %d" % (self.nvars, other.nvars)
            )

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(self.nvars, other)
        self._check_compatible(other)
        out = dict(self.terms)
        for exps, coef in other.terms.items():
            c = out.get(exps, 0) + coef
            if c:
                out[exps] = c
            elif exps in out:
                del out[exps]
        return Polynomial._of(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            if not other:
                return Polynomial.zero(self.nvars)
            return Polynomial._of(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check_compatible(other)
        return Polynomial._of(self.nvars, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.nvars, 1)
        for _ in range(k):
            result = result * self
        return result

    # -- structure ----------------------------------------------------

    def homogeneous_degree(self, weights: Sequence[int] | None = None) -> int | None:
        """Common degree of all terms, None for zero, ValueError if mixed."""
        if not self.terms:
            return None
        degs = {monomial_degree(e, weights) for e in self.terms}
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous: degrees %s" % sorted(degs))
        return degs.pop()

    def sorted_terms(self) -> list[tuple[Exps, int]]:
        """Terms largest-monomial first under the global order."""
        return sorted(
            self.terms.items(),
            key=lambda item: monomial_key(item[0]),
            reverse=True,
        )

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Evaluate at variable images, all living in a common target ring.

        Each image is raised to each exponent it needs once per call, and
        every term's product is added into one result dict.
        """
        if len(images) != self.nvars:
            raise ValueError(
                "need %d images, got %d" % (self.nvars, len(images))
            )
        if not images:
            raise ValueError("cannot substitute in a ring with no variables")
        tgt = images[0].nvars
        for img in images:
            if img.nvars != tgt:
                raise ValueError("images live in different rings")
        one = {(0,) * tgt: 1}
        # powers[i][e] = images[i]**e; e = 1 is the image's own dict, only read
        powers: list[list[dict]] = [[one, img.terms] for img in images]

        def power(i: int, e: int) -> dict:
            known = powers[i]
            while len(known) <= e:
                known.append(_mul_terms(known[-1], images[i].terms))
            return known[e]

        out: dict[Exps, int] = {}
        for exps, coef in self.terms.items():
            term = one
            for i, e in enumerate(exps):
                if e:
                    term = power(i, e) if term is one else _mul_terms(term, power(i, e))
            for e, c in term.items():
                out[e] = out.get(e, 0) + coef * c
        return Polynomial._of(tgt, {e: c for e, c in out.items() if c})


# -- presentation helpers ---------------------------------------------


def format_monomial(exps: Sequence[int], names: Sequence[str]) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(names[i])
        elif e > 1:
            parts.append("%s^%d" % (names[i], e))
    return "*".join(parts)


def format_terms(pairs) -> str:
    """Join (monomial text, nonzero coefficient) pairs, already in print order.

    The empty monomial text stands for the constant term; no pairs give "0".
    """
    chunks = []
    for mono, coef in pairs:
        mag = abs(coef)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%d*%s" % (mag, mono)
        if not chunks:
            chunks.append(("-" if coef < 0 else "") + body)
        else:
            chunks.append(("- " if coef < 0 else "+ ") + body)
    return " ".join(chunks) or "0"


def _json_list(items, pad: str) -> str:
    """json.dumps's indent-2 layout of a list whose items are already
    rendered: each item on its own line after pad, the bracket two less."""
    if not items:
        return "[]"
    return "[\n" + pad + (",\n" + pad).join(items) + "\n" + pad[:-2] + "]"


def format_polynomial(p: Polynomial, names: Sequence[str]) -> str:
    """Human-readable form, terms largest first, explicit * and ^."""
    if p.is_zero():
        return "0"
    if len(names) != p.nvars:
        raise ValueError("need %d variable names" % p.nvars)
    return format_terms(
        (format_monomial(exps, names), coef) for exps, coef in p.sorted_terms()
    )


def random_homogeneous(
    rng: Random,
    nvars: int,
    degree: int,
    weights: Sequence[int] | None = None,
) -> Polynomial:
    """Random homogeneous polynomial of 1 to 4 terms with coefficients in
    +-1..9; it is zero only if no monomials exist.

    The picks are those of rng.randint(1, min(4, N)) for the number of
    terms k, then rng.sample(monos, k) over the N monomials of the slice,
    then rng.randint(1, 9) * rng.choice((1, -1)) per picked monomial, in
    that order.  They are drawn straight from rng.getrandbits by the same
    rules (see _draw_terms), so a seed's picks, their term order and the
    stream position after the call are unchanged from those calls.
    """
    return Polynomial._of(nvars, _draw_terms(_slice(nvars, degree, weights), rng.getrandbits))


def _draw_terms(monos: Sequence[Exps], bits) -> dict[Exps, int]:
    """The fresh term dict random_homogeneous draws from the slice monos,
    with bits a Random's getrandbits; empty when the slice is.

    Callers that draw many polynomials from a few slices look each slice
    up once and call this directly.
    """
    n = len(monos)
    if not n:
        return {}
    # Random's rule for an int below a bound: draw the bound's bit length in
    # bits, and draw again while the value is the bound or more.
    m = min(4, n)
    mlen = m.bit_length()
    k = bits(mlen)  # k + 1 terms
    while k >= m:
        k = bits(mlen)
    chosen = []
    if n <= 21:
        # sample's shrinking pool: the last unpicked item fills each gap
        pool = list(monos)
        for size in range(n, n - 1 - k, -1):
            slen = size.bit_length()
            j = bits(slen)
            while j >= size:
                j = bits(slen)
            chosen.append(pool[j])
            pool[j] = pool[size - 1]
    else:
        # sample's set of picked positions: a repeat is drawn again
        nlen = n.bit_length()
        picked = set()
        for _ in range(k + 1):
            j = bits(nlen)
            while j >= n or j in picked:
                j = bits(nlen)
            picked.add(j)
            chosen.append(monos[j])
    terms = {}
    for exps in chosen:
        c = bits(4)  # randint(1, 9)
        while c >= 9:
            c = bits(4)
        sign = bits(2)  # choice((1, -1))
        while sign >= 2:
            sign = bits(2)
        terms[exps] = -1 - c if sign else 1 + c
    return terms
