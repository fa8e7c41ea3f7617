"""Two independent deciders for finality of an exceptional divisor.

The combinatorial one reads the proximity relation: a divisor is final
when no later point is proximate to it.  The ring-theoretic one decides
from intersection numbers alone.  Every coefficient of a strict class
is +-1 (e_i is E_i minus the E_t of the points proximate to i), so each
integral e_i^(n-r) * e_j^r depends on two counts per pair, read straight
off the adjacency lists: whether one point is proximate to the other,
and how many points are proximate to both.  From those it finds the
divisors meeting E_i and tests, pair by pair, the two
intersection-product conditions that characterize finality: condition
(11) first, and condition (10) only on a pair that passes it.  Condition
(10)'s integral takes one value at odd r and one at even r, so comparing
r = 1 and r = 2 covers every r.  The two deciders provably agree, and the
test suite checks that exhaustively on small cases; a disagreement would
mean an implementation bug, not a mathematical surprise.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .poly import _json_list
from .proximity import ProximityConfig


def _self_integral(n, proximate):
    """Integral of e_i^n, given the points proximate to i.

    e_i is E_i minus the E_t of those points, so its n-th power integrates
    to (-1)^(n+1) * (1 + (-1)^n * len(proximate)).
    """
    return 1 - len(proximate) if n % 2 else -1 - len(proximate)


def _pairs(config, i):
    """(direct, common) for e_i, read off the adjacency lists in one pass.

    direct has a key for each j != i whose strict class shares a support
    point with e_i: its value is 1 when i is proximate to j, -1 when j is
    proximate to i, and 0 otherwise.  common[j] counts the points
    proximate to both i and j.  e_i is +1 at i and -1 on P(i), the points
    proximate to i, and e_j likewise, so the points the two share are i
    (coefficients (1, -1), when i is proximate to j), j ((-1, 1), when j is
    in P(i)) and the points of P(i) proximate to j ((-1, -1) each).
    """
    targets, proximate = config._targets, config._proximate
    direct = dict.fromkeys(targets.get(i, ()), 1)
    common = {}
    for t in proximate.get(i, ()):
        direct[t] = -1
        for k in targets[t]:
            if k != i:
                direct.setdefault(k, 0)
                common[k] = common.get(k, 0) + 1
    return direct, common


def _check_index(config, i):
    # type, not isinstance: True is an int, and 2.5 passes the range test
    if type(i) is not int:
        raise ValueError("divisor index %r must be an integer" % (i,))
    if not 1 <= i <= config.s:
        raise ValueError("divisor index %d out of range 1..%d" % (i, config.s))


def final_by_proximity(config: ProximityConfig, i: int) -> bool:
    """No later point proximate to the i-th: the divisor survives unchanged."""
    _check_index(config, i)
    return i not in config._proximate


def intersecting_indices(config: ProximityConfig, i: int) -> set:
    """Indices j != i whose strict class has nonzero product with the i-th.

    Computed in the ring, not from proximity; on iterated blow-ups the two
    can differ (a satellite point can separate two earlier divisors).  Below
    degree n the product is coordinate-wise, nonzero iff the supports
    overlap, which _pairs reads off; for n = 2 it is the point integral
    |direct| - common, which can still be zero.
    """
    _check_index(config, i)
    direct, common = _pairs(config, i)
    if config.n == 2:
        return {j for j in direct if abs(direct[j]) != common.get(j, 0)}
    return set(direct)


_CONDITION_TEN = "condition (10) fails for j=%d at r=%d: integral %d, expected %d"


def _chow_conditions(config, i):
    """(final?, witness) from the intersection-product characterization.

    With d = direct[j] and c = common[j], e_i^(n-r) * e_j^r integrates to
    (-1)^(n+1) * ((-1)^r [d = 1] + (-1)^(n-r) [d = -1] + (-1)^n c), which
    takes one value at odd r and one at even r; condition (11)'s r = n-1
    is among them.  Each meeting pair's condition (11) is checked first: at
    n = 2 its integral is the product e_i * e_j itself, and a candidate
    whose value is 0 does not meet e_i.  Only a pair that passes it has
    condition (10) compared, at r = 1 and then, for n >= 3, at r = 2, and
    e_i^n is computed once, when the first pair gets that far.
    """
    n, (direct, common) = config.n, _pairs(config, i)
    ein = None
    for j in sorted(direct):
        d, c = direct[j], common.get(j, 0)
        # the integral at even r and at odd r; r = n-1 is the point integral
        if n % 2:
            point = even = d - c
            odd = -d - c
        else:
            point = odd = abs(d) - c
            even = -abs(d) - c
        # condition (11): e_j^(n-1) * e_i must be the point class
        if point != 1:
            if not point and n == 2:
                continue  # e_i * e_j = 0: j does not meet i (see intersecting_indices)
            return (
                False,
                "condition (11) fails for j=%d: integral %d, expected 1" % (j, point),
            )
        if ein is None:
            ein = _self_integral(n, config._proximate.get(i, ()))
        # condition (10): e_i^n == (-1)^r e_i^(n-r) e_j^r for every r; r = 1
        # and, for n >= 3, r = 2 stand for all of them
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


class DivisorFinality(
    namedtuple("DivisorFinality", ("index", "final_proximity", "final_chow", "witness"))
):
    """One divisor's verdicts; a decider that was not run leaves None."""

    __slots__ = ()

    @property
    def agree(self):
        return self.final_proximity == self.final_chow


@dataclass(frozen=True)
class FinalityReport:
    divisors: tuple

    @property
    def all_agree(self):
        return all(d.agree for d in self.divisors)

    def to_json_text(self):
        """The report as JSON in json.dumps's indent-2 layout: a "divisors"
        list with one {"i", "final_proximity", "final_chow", "witness"}
        object per divisor.

        The stdlib drops to its pure-Python encoder whenever indent is set;
        strings go through the C function it would use for them.
        """
        from json.encoder import encode_basestring_ascii as quote

        word = {True: "true", False: "false", None: "null"}
        items = [
            '{\n      "i": %d,\n      "final_proximity": %s,\n'
            '      "final_chow": %s,\n      "witness": %s\n    }'
            % (
                d.index,
                word[d.final_proximity],
                word[d.final_chow],
                "null" if d.witness is None else quote(d.witness),
            )
            for d in self.divisors
        ]
        return '{\n  "divisors": %s\n}' % _json_list(items, " " * 4)


def finality_report(config: ProximityConfig) -> FinalityReport:
    """Both deciders on every divisor, with a witness for each chow failure."""
    proximate = config._proximate
    entries = []
    for i in range(1, config.s + 1):
        by_chow, witness = _chow_conditions(config, i)
        entries.append(DivisorFinality(i, i not in proximate, by_chow, witness))
    return FinalityReport(tuple(entries))
