"""Fixed pure-Python loops that measure how fast the host runs right now.

Shared hosts change speed by up to 2x for minutes at a time: on a shared
2-CPU x86-64 VM, ten back-to-back paper_image runs read uncalibrated passes
from 4.6 s to 8.7 s, a spread (IQR/median) of 0.35, above the 0.25 bound.
Not all code slows down alike.  The program mixes two kinds of work, and
one loop imitates each:

* a walk over a 15 MB ring of linked lists, bound by cache misses like the
  image trees and tables.  Over 30 back-to-back half-scale generations, log
  generation time against log walk time had a slope of 0.97;
* updates of a 1024-key dict and a sort of 60k ints, all in cache like the
  constraint resolver and the word models.  Over 30 batches of subset-sum
  solves the slope against it was 1.00, and over 30 text-content runs 0.89.

Each slope against the other loop was about 0.7, so :func:`slowdown` is the
geometric mean of both loops' times relative to the reference host.  The
loops call nothing in the program, so no change to the program can speed
them up.  Two limits: the slopes were fitted to the program as it is, so a
change that moves much of its work into numpy should fit them again; and
with a 400 MB heap allocated the walk read 0-15% slower, so a change that
grows memory may hide a few percent of its cost, which ``peak_rss_mb``
shows instead.  The wall-clock figures are kept beside the calibrated ones
in every run's detail line.
"""

from __future__ import annotations

import functools
import math
import random
import time

#: Nodes in the ring the walk follows (about 15 MB).
RING_NODES = 150_000

#: Seconds the walk and the dict loop take on the reference host: about the
#: fastest times seen on a 2-CPU x86-64 VM.  They only set the scale; runs
#: are compared with each other, and every run divides by the same values.
WALK_REFERENCE_S = 0.03
DICT_REFERENCE_S = 0.025


@functools.lru_cache(maxsize=1)
def _ring() -> list:
    """``[value, next]`` nodes linked in one fixed shuffled cycle."""
    order = list(range(RING_NODES))
    random.Random(0).shuffle(order)
    nodes: list[list] = [[index, None] for index in range(RING_NODES)]
    for position, index in enumerate(order):
        nodes[index][1] = nodes[order[(position + 1) % RING_NODES]]
    return nodes


def _walk_seconds() -> float:
    node = _ring()[0]
    total = 0
    start = time.perf_counter()
    for _ in range(RING_NODES):
        total += node[0]
        node = node[1]
    return time.perf_counter() - start


def _dict_seconds() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    for value in range(150_000):
        key = value & 1023
        table[key] = table.get(key, 0) + value
    sorted(range(60_000), key=lambda value: -value)
    return time.perf_counter() - start


def slowdown() -> float:
    """How many times slower than the reference host the host runs now."""
    return math.sqrt(
        _walk_seconds() / WALK_REFERENCE_S * _dict_seconds() / DICT_REFERENCE_S
    )
