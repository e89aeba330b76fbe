"""A fixed pure-Python workload that measures how fast the host runs
right now.

On a shared machine the speed of the same code drifts by a fifth or more
over a few seconds, which would swamp any change worth measuring. The
benchmark therefore times this loop between jobs and reports every time
scaled to a host on which the loop takes REFERENCE_S: a job that took
twice the loop's time reads 2 * REFERENCE_S. The loop does what the
interpreter under test does most (allocating small slotted objects,
recursion, isinstance dispatch through `match`, frozenset unions) and
imports nothing from it, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

# The loop's median time on the machine the benchmark was written on
# (2 shared cores, Python 3.11.7); it only sets the scale of the figures.
REFERENCE_S = 0.011


class _Node:
    __slots__ = ("left", "right", "names")

    def __init__(self, left, right, names):
        self.left = left
        self.right = right
        self.names = names


def _build(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node(None, None, frozenset((f"x{i % 7}",)))
    a = _build(depth - 1, 2 * i)
    b = _build(depth - 1, 2 * i + 1)
    return _Node(a, b, a.names | b.names)


def _walk(t: _Node) -> int:
    match t:
        case _Node(left=None):
            return 1
        case _Node(left=a, right=b):
            return _walk(a) + _walk(b) + len(t.names)
    return 0


def sample() -> float:
    """Seconds the reference work takes now."""
    t0 = time.perf_counter()
    for k in range(4):
        _walk(_build(10, k))
    return time.perf_counter() - t0
