"""Readback memory grows linearly with the number read back.

The evaluators and the machine run on linear environments, where a
variable's one lookup clears its cell. An environment that kept
consumed bindings reachable would grow quadratically with the work
done. Each readback of `@pred N` runs at N = 40 and N = 120 under
tracemalloc, and the peak at 120 may be at most 4 times the peak at 40
(linear growth gives about 3). A full collection first empties the
interpreter's free lists, so earlier allocations do not hide new ones.
"""

import gc
import tracemalloc

import pytest

from lrec.evaluation import force_numeral
from lrec.machine import machine_force_numeral
from lrec.parser import parse

READBACKS = {
    "cbn": lambda t: force_numeral(t, 10**7),
    "cbv": lambda t: force_numeral(t, 10**7, cbv=True),
    "machine": lambda t: machine_force_numeral(t, 10**7),
}


def _peak(readback, n: int) -> int:
    t = parse(f"@pred {n}")
    gc.collect()
    tracemalloc.start()
    try:
        assert readback(t) == n - 1
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", READBACKS)
def test_readback_memory_grows_linearly(name):
    small, large = _peak(READBACKS[name], 40), _peak(READBACKS[name], 120)
    assert large <= 4 * small, (small, large)
