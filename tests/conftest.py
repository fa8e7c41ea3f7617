from heapq import heappop

import pytest
from hypothesis import settings

import skychow.oracle

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

# The most any test pops from the oracle's elimination heaps is about 3.2e5
# (one n = 3 half of the strict completeness sweep).
# A broken elimination step can cycle for ever; past this bound the test
# fails within seconds instead of hanging the run.
HEAP_STEP_LIMIT = 1_000_000

# The widest entry any test hands the oracle's gcd step has under 50 bits
# (the sympy cross-check's random matrices, or a seeded n = 3, s = 16
# strict ideal mid-build).  A lattice left unreduced between rows grows
# its entries without bound and stalls on big-integer arithmetic after few
# heap pops; past this bound the test fails instead.
GCD_BITS_LIMIT = 1024


@pytest.fixture(autouse=True)
def bounded_heap_steps(monkeypatch):
    steps = [0]

    def counting_heappop(heap):
        steps[0] += 1
        if steps[0] > HEAP_STEP_LIMIT:
            raise AssertionError(
                "the oracle popped more than %d heap entries" % HEAP_STEP_LIMIT
            )
        return heappop(heap)

    monkeypatch.setattr(skychow.oracle, "heappop", counting_heappop)


@pytest.fixture(autouse=True)
def bounded_gcd_entries(monkeypatch):
    xgcd = skychow.oracle._xgcd

    def checked_xgcd(a, b):
        if max(abs(a), abs(b)).bit_length() > GCD_BITS_LIMIT:
            raise AssertionError(
                "the oracle took a gcd step on an entry over %d bits" % GCD_BITS_LIMIT
            )
        return xgcd(a, b)

    monkeypatch.setattr(skychow.oracle, "_xgcd", checked_xgcd)
