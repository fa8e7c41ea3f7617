"""Proximity data for a sequence of point blow-ups.

A configuration records the ambient dimension n, the number of blown-up
points s, and which later centers are proximate to which earlier ones,
i.e. lie on the strict transform of that earlier exceptional divisor.
A degree-1 class is a sparse {t: c} dict in the total transform basis
(t = 0 the hyperplane class); strict_class_in_total reads the strict
class e_i that way straight from the targets lists.  The dense
change-of-basis matrices between the total and strict bases, and the
DivisorVector conversions through them, are the reference it is checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

IntMatrix = tuple[tuple[int, ...], ...]


class InvalidConfigError(ValueError):
    """A proximity configuration violates a structural invariant."""


class _LazyPairs:
    """The prox field of ProximityConfig: frozenset() as the default, and on
    a config, which holds only its targets lists, the pairs built from them
    on first read and then kept.

    It defines no __set__, so a prox in the instance's __dict__ is read
    without calling it.
    """

    def __get__(self, config, owner=None):
        if config is None:
            return frozenset()
        prox = config.__dict__["prox"] = frozenset(_pairs(config._targets))
        return prox


def _pairs(targets) -> list:
    """The (j, i) pairs of a targets map, sorted: its keys and rows ascend."""
    return [(j, i) for j, row in targets.items() for i in row]


@dataclass(frozen=True, repr=False)
class ProximityConfig:
    """Blow-up sequence data: s points in P^n plus the proximity relation.

    ``prox`` holds pairs (j, i) with j > i meaning the j-th center is
    proximate to the i-th.  ``strict_snc_check`` keeps the validation rule
    that no point is proximate to more than n earlier ones; turn it off to
    experiment with degenerate configurations.  A config holds n, s, the
    flag and its targets lists (each point that is proximate to others ->
    the ascending list of those points, keys ascending), whichever route
    built it: the constructor checks the pairs, turns them into the lists
    and keeps no pair set; a loader hands its checked lists to _of.  Both
    end in validate_config.  ``prox`` is built from the lists when it is
    first read, then kept.  The repr lists the pairs sorted, so equal
    configs print alike.
    """

    n: int
    s: int
    prox: frozenset = _LazyPairs()
    strict_snc_check: bool = True

    def __post_init__(self):
        targets = self.__dict__["_targets"] = {}
        for j, i in sorted(_checked_pairs(self.__dict__.pop("prox"), self.s)):
            targets.setdefault(j, []).append(i)
        validate_config(self)

    def __repr__(self):
        pairs = "{%s}" % ", ".join(map(repr, _pairs(self._targets))) if self._targets else ""
        return "ProximityConfig(n=%r, s=%r, prox=frozenset(%s), strict_snc_check=%r)" % (
            self.n, self.s, pairs, self.strict_snc_check
        )

    @classmethod
    def _of(cls, n, s, targets, strict_snc_check):
        """Wrap the targets lists a loader has already checked, uncopied.

        targets maps each point that is proximate to others to the ascending
        list of those points, its keys ascending, every pair with
        1 <= i < j <= s: the lists the constructor builds from its pairs.
        validate_config checks the rest, as it does for the constructor.
        """
        config = cls.__new__(cls)
        config.__dict__.update(
            n=n, s=s, strict_snc_check=strict_snc_check, _targets=targets
        )
        return validate_config(config)

    @cached_property
    def _proximate(self):
        # point -> ascending list of the points proximate to it: the keys of
        # _targets ascend, so each row is appended to in ascending order
        proximate = {}
        for j, row in self._targets.items():
            for i in row:
                proximate.setdefault(i, []).append(j)
        return proximate

    def proximate_points(self, i: int) -> list[int]:
        """Indices j with the j-th point proximate to the i-th (all j > i)."""
        return list(self._proximate.get(i, ()))

    def proximity_targets(self, j: int) -> list[int]:
        """Indices i that the j-th point is proximate to (all i < j)."""
        return list(self._targets.get(j, ()))


def _checked_pairs(prox, s) -> set:
    """The constructor's pairs as a set, or InvalidConfigError naming the
    first bad one: each must be two ints with 1 <= i < j <= s.  A bound s
    that is not an int is left for validate_config to refuse."""
    try:
        pairs = {(j, i) for j, i in prox}
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError("prox must hold (j, i) pairs: %s" % exc) from None
    # type, not isinstance: True is an int, and int() would read 2.7 or "3"
    bad = [(j, i) for j, i in pairs if type(j) is not int or type(i) is not int]
    if bad:
        raise InvalidConfigError(
            "proximity pair (%r, %r) must be two integers" % min(bad, key=repr)
        )
    bad = [(j, i) for j, i in pairs if not 1 <= i < j or type(s) is int and j > s]
    if bad:
        raise InvalidConfigError(
            "proximity pair (%r, %r) must satisfy 1 <= i < j <= s = %r" % (*min(bad), s)
        )
    return pairs


def validate_config(config: ProximityConfig) -> ProximityConfig:
    """Return the config unchanged, or raise InvalidConfigError naming the
    first rule it breaks, checked in this order: the flag is a bool, n and
    s are in range, and (with the flag set) no point is proximate to more
    than n others; the first such point, by id, is named.

    Both construction routes end here, on the config's targets lists, so an
    invalid config never exists.
    """
    n, s = config.n, config.s
    if not isinstance(config.strict_snc_check, bool):
        raise InvalidConfigError("strict_snc_check must be a boolean")
    if type(n) is not int or n < 2:
        raise InvalidConfigError("ambient dimension must be an integer >= 2, got %r" % (n,))
    if type(s) is not int or s < 1:
        raise InvalidConfigError("number of points must be an integer >= 1, got %r" % (s,))
    if config.strict_snc_check:
        for j, row in config._targets.items():
            if len(row) > n:
                raise InvalidConfigError(
                    "point %d is proximate to %d points, more than the ambient dimension %d"
                    % (j, len(row), n)
                )
    return config


def change_of_basis(config: ProximityConfig, k: int) -> IntMatrix:
    """k x k lower unitriangular matrix with entry (j, i) = -1 when j is proximate to i.

    Rows and columns are indexed by the exceptional classes of the first k
    points; multiplying a strict-basis coordinate vector by it (see
    strict_to_total) rewrites the class in the total transform basis.
    """
    if not 1 <= k <= config.s:
        raise ValueError("k must be in 1..%d, got %d" % (config.s, k))
    rows = []
    for j in range(1, k + 1):
        row = [0] * k
        row[j - 1] = 1
        for i in config.proximity_targets(j):
            row[i - 1] = -1
        rows.append(tuple(row))
    return tuple(rows)


def augmented_change_of_basis(config: ProximityConfig, k: int) -> IntMatrix:
    """(k+1) x (k+1) version with a leading 1 for the hyperplane class."""
    inner = change_of_basis(config, k)
    rows = [tuple([1] + [0] * k)]
    for r in inner:
        rows.append(tuple([0] + list(r)))
    return tuple(rows)


def invert_unitriangular(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a lower unitriangular integer matrix.

    Forward substitution only, so every entry of the result is an integer.
    Raises ValueError if the input is not lower unitriangular.
    """
    k = len(m)
    for r, row in enumerate(m):
        if len(row) != k:
            raise ValueError("matrix is not square")
        if row[r] != 1:
            raise ValueError("diagonal entry at %d is %r, expected 1" % (r, row[r]))
        if any(row[c] for c in range(r + 1, k)):
            raise ValueError("nonzero entry above the diagonal in row %d" % r)
    inv: list[list[int]] = []
    for r in range(k):
        row = [0] * k
        row[r] = 1
        for c in range(r):
            f = m[r][c]
            if f:
                prev = inv[c]
                for t in range(c + 1):
                    row[t] -= f * prev[t]
        inv.append(row)
    return tuple(tuple(r) for r in inv)


@dataclass(frozen=True)
class DivisorVector:
    """Coordinates of a degree-1 class in a tagged basis.

    Index 0 is the hyperplane class; index i >= 1 is the class of the i-th
    exceptional divisor, total transforms under the "total" tag and strict
    transforms under "strict".
    """

    basis: str
    coords: tuple[int, ...]

    def __post_init__(self):
        if self.basis not in ("total", "strict"):
            raise ValueError("basis must be 'total' or 'strict', got %r" % self.basis)
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))

    @classmethod
    def total(cls, coords) -> "DivisorVector":
        return cls("total", tuple(coords))

    @classmethod
    def strict(cls, coords) -> "DivisorVector":
        return cls("strict", tuple(coords))


def _check_length(config: ProximityConfig, v: DivisorVector) -> None:
    if len(v.coords) != config.s + 1:
        raise ValueError(
            "coordinate vector has length %d, expected s + 1 = %d"
            % (len(v.coords), config.s + 1)
        )


def strict_to_total(config: ProximityConfig, v: DivisorVector) -> DivisorVector:
    """Multiply by the augmented change of basis B, one proximity pair at a time."""
    if v.basis != "strict":
        raise ValueError("expected a strict-basis vector, got basis %r" % v.basis)
    _check_length(config, v)
    out = list(v.coords)
    for j, i in _pairs(config._targets):
        out[j] -= v.coords[i]
    return DivisorVector("total", tuple(out))


def total_to_strict(config: ProximityConfig, v: DivisorVector) -> DivisorVector:
    """Solve B x = v by forward substitution over the pairs in order of j."""
    if v.basis != "total":
        raise ValueError("expected a total-basis vector, got basis %r" % v.basis)
    _check_length(config, v)
    out = list(v.coords)
    for j, targets in config._targets.items():
        out[j] += sum(out[i] for i in targets)
    return DivisorVector("strict", tuple(out))


def strict_class_in_total(config: ProximityConfig, i: int) -> dict[int, int]:
    """The i-th strict exceptional class in total coordinates, zeros left out.

    e_i = E_i - sum of E_j over the points j proximate to i, as an ascending
    {t: coefficient of E_t} dict: the nonzero entries of strict_to_total of
    the i-th strict unit vector, without a length-(s+1) vector.  The one row
    costs a pass over the targets lists, whose keys ascend, so a config that
    never builds its reverse map (a loaded one, say) does not build it here.
    """
    if type(i) is not int:
        raise ValueError("exceptional index %r must be an integer" % (i,))
    if not 1 <= i <= config.s:
        raise ValueError("exceptional index %d out of range 1..%d" % (i, config.s))
    out = {i: 1}
    for j, row in config._targets.items():
        if i in row:
            out[j] = -1
    return out


def enumerate_proximity_configs(n: int, s: int):
    """Yield every valid configuration for the given (n, s), in a fixed order.

    For each point j the predecessors it is proximate to form an arbitrary
    subset of {1..j-1} of size at most n; the product of these independent
    choices is exactly the valid set.
    """
    per_point = []
    for j in range(2, s + 1):
        choices = []
        for size in range(0, min(j - 1, n) + 1):
            choices.extend(combinations(range(1, j), size))
        per_point.append([(j, c) for c in choices])
    for combo in product(*per_point):
        prox = frozenset((j, i) for j, chosen in combo for i in chosen)
        yield ProximityConfig(n=n, s=s, prox=prox)
