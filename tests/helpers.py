"""Shared test utilities: cached ideals, random configs, independent oracles."""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from random import Random

from skychow.chowring import total_presentation
from skychow.oracle import GradedIdeal, _smith_divisors, _xgcd
from skychow.proximity import ProximityConfig, validate_config


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


def dag_path_counts(config: ProximityConfig, j: int, i: int) -> int:
    """Number of proximity chains j -> ... -> i, counted by brute force."""
    if j == i:
        return 1
    total = 0
    for t in config.proximity_targets(j):
        if t >= i:
            total += dag_path_counts(config, t, i)
    return total


class DenseHermiteLattice:
    """Reference for HermiteLattice: the same echelon algorithm on dense rows.

    Every step runs over all columns from the pivot to the end, so the
    sparse lattice must match it entry for entry after every row.
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
