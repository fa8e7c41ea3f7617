"""Two independent deciders for finality of an exceptional divisor.

The combinatorial one reads the proximity relation: a divisor is final
when no later point is proximate to it.  The ring-theoretic one never
looks at proximity; it writes each strict class in total coordinates and
evaluates intersection numbers in closed form on those vectors, finds the
divisors meeting E_i, and then tests, pair by pair, the two
intersection-product conditions that characterize finality: condition
(11) first, and condition (10) only on a pair that passes it.  Every
coefficient of a strict class is +-1, so condition (10)'s integral takes
one value at odd r and one at even r, and comparing r = 1 and r = 2
covers every r.  The two
deciders provably agree, and the test suite checks that exhaustively on
small cases; a disagreement would mean an implementation bug, not a
mathematical surprise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .proximity import ProximityConfig, strict_class_in_total


def _point_integral(n, shared):
    """Integral of e_i * e_j^(n-1), condition (11)'s, given shared =
    [(e_i[t], e_j[t]) for each t in both supports].

    Mixed products vanish and each E_t^n integrates to (-1)^(n+1), so only
    the shared points contribute.  Every coefficient of a strict class is
    +-1, so x^(n-r) * y^r depends only on the parities of n and r; here,
    at r = n-1, it is x for odd n and x * y for even n.
    """
    total = 0
    for x, y in shared:
        total += x if n % 2 else -x * y
    return total


def _parity_integrals(n, shared, point):
    """(odd, even): the integral of e_i^(n-r) * e_j^r at odd r and at even
    r, point being _point_integral's value, the one at r = n-1.

    x^(n-r) * y^r is y at odd r and x at even r for odd n, x * y and 1 for
    even n.
    """
    if n % 2:
        return sum(y for _, y in shared), point
    return point, -len(shared)


def _self_integral(n, ei):
    """Integral of e_i^n, e_i being E_i minus the E_t of the points
    proximate to i."""
    return 2 - len(ei) if n % 2 else -len(ei)


def _candidates(config, i, ei):
    """(j, shared) for each j != i, ascending, whose support overlaps e_i's.

    ei is e_i as strict_class_in_total gives it.  The classes holding a
    support point t are e_t, with coefficient 1, and the e_k of the points
    t is proximate to, with coefficient -1; so shared, the list the pair
    integrals read, comes from one pass over e_i's support, and every
    coefficient in it is +-1.
    """
    targets = config._adjacency[0]
    shared = {}
    for t, x in ei.items():
        if t != i:
            shared.setdefault(t, []).append((x, 1))
        for k in targets.get(t, ()):
            if k != i:
                shared.setdefault(k, []).append((x, -1))
    return sorted(shared.items())


def _meeting(config, i, ei):
    """(j, shared) for each j != i, ascending, with e_i * e_j nonzero.

    Below degree n the product is coordinate-wise: nonzero iff the supports
    overlap.  For n = 2 the product is the point integral, which can still
    be zero.
    """
    pairs = _candidates(config, i, ei)
    if config.n == 2:
        return [(j, sh) for j, sh in pairs if _point_integral(2, sh)]
    return pairs


def _check_index(config, i):
    if not 1 <= i <= config.s:
        raise ValueError("divisor index %d out of range 1..%d" % (i, config.s))


def final_by_proximity(config: ProximityConfig, i: int) -> bool:
    """No later point proximate to the i-th: the divisor survives unchanged."""
    _check_index(config, i)
    return not config.proximate_points(i)


def intersecting_indices(config: ProximityConfig, i: int) -> set:
    """Indices j != i whose strict class has nonzero product with the i-th.

    Computed in the ring, not from proximity; on iterated blow-ups the two
    can differ (a satellite point can separate two earlier divisors).
    """
    _check_index(config, i)
    return {j for j, _ in _meeting(config, i, strict_class_in_total(config, i))}


_CONDITION_TEN = "condition (10) fails for j=%d at r=%d: integral %d, expected %d"


def _chow_conditions(config, i):
    """(final?, witness) from the intersection-product characterization.

    Each meeting pair's condition (11) integral is read first, once: at
    n = 2 it is the product e_i * e_j itself, and a candidate whose value
    is 0 does not meet e_i.  Only a pair that passes it has condition (10)
    compared, at r = 1 and then, for n >= 3, at r = 2, and e_i^n is
    computed once, when the first pair gets that far.
    """
    n, ei = config.n, strict_class_in_total(config, i)
    ein = None
    for j, shared in _candidates(config, i, ei):
        # condition (11): e_j^(n-1) * e_i must be the point class
        point = _point_integral(n, shared)
        if point != 1:
            if not point and n == 2:
                continue  # e_i * e_j = 0: j does not meet i (see _meeting)
            return (
                False,
                "condition (11) fails for j=%d: integral %d, expected 1" % (j, point),
            )
        if ein is None:
            ein = _self_integral(n, ei)
        # condition (10): e_i^n == (-1)^r e_i^(n-r) e_j^r for every r; the
        # integral takes one value at odd r and one at even r, so r = 1 and,
        # for n >= 3, r = 2 stand for all of them
        odd, even = _parity_integrals(n, shared, point)
        if ein != -odd:
            return False, _CONDITION_TEN % (j, 1, -odd, ein)
        if n > 2 and ein != even:
            return False, _CONDITION_TEN % (j, 2, even, ein)
    return True, None


def final_by_chow(config: ProximityConfig, i: int) -> bool:
    """Finality decided purely from intersection products."""
    _check_index(config, i)
    ok, _ = _chow_conditions(config, i)
    return ok


@dataclass(frozen=True)
class DivisorFinality:
    """One divisor's verdicts; a decider that was not run leaves None."""

    index: int
    final_proximity: bool | None
    final_chow: bool | None
    witness: str | None

    @property
    def agree(self):
        return self.final_proximity == self.final_chow


@dataclass(frozen=True)
class FinalityReport:
    config: ProximityConfig
    divisors: tuple

    @property
    def all_agree(self):
        return all(d.agree for d in self.divisors)

    def to_json_dict(self):
        return {
            "divisors": [
                {
                    "i": d.index,
                    "final_proximity": d.final_proximity,
                    "final_chow": d.final_chow,
                    "witness": d.witness,
                }
                for d in self.divisors
            ]
        }

    def to_json_text(self):
        """json.dumps(self.to_json_dict(), indent=2), written directly.

        The stdlib drops to its pure-Python encoder whenever indent is set;
        strings go through the C function it would use for them.
        """
        from json.encoder import encode_basestring_ascii as quote

        if not self.divisors:
            return '{\n  "divisors": []\n}'
        word = {True: "true", False: "false", None: "null"}
        items = [
            '    {\n      "i": %d,\n      "final_proximity": %s,\n'
            '      "final_chow": %s,\n      "witness": %s\n    }'
            % (
                d.index,
                word[d.final_proximity],
                word[d.final_chow],
                "null" if d.witness is None else quote(d.witness),
            )
            for d in self.divisors
        ]
        return '{\n  "divisors": [\n' + ",\n".join(items) + "\n  ]\n}"


def finality_report(config: ProximityConfig) -> FinalityReport:
    """Both deciders on every divisor, with a witness for each chow failure."""
    entries = []
    for i in range(1, config.s + 1):
        by_prox = final_by_proximity(config, i)
        by_chow, witness = _chow_conditions(config, i)
        entries.append(DivisorFinality(i, by_prox, by_chow, witness))
    return FinalityReport(config, tuple(entries))
