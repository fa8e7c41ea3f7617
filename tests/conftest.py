from heapq import heappop

import pytest
from hypothesis import settings

import skychow.oracle

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

# The most any test pops from the oracle's elimination heaps is about 4.9e5
# (one n = 3 half of the strict completeness sweep).
# A broken elimination step can cycle for ever; past this bound the test
# fails within seconds instead of hanging the run.
HEAP_STEP_LIMIT = 1_000_000


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
