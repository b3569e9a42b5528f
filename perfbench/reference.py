"""A fixed slice of reference work that gauges the machine's current speed.

The shared hosts this benchmark runs on change speed by up to 2x for
seconds or minutes at a time, with CPU time rising along with wall time,
so the slowdowns are the machine's and not waits for the scheduler. A
run therefore times ``slice_seconds()`` between items, and run.py
expresses each item's time at the reference speed: the item's wall time
times ``NOMINAL_S`` over the mean of the slices just before and just
after it. A time then reads as it would on a machine that runs one
slice in ``NOMINAL_S`` seconds.

The slice left-weights a fixed sequence of B_5 permutation factors by
the same sliding of crossings that braidkit's pure-Python kernel does,
written out here so that no change to the package can change the gauge.
Its slowdowns track those of the workloads, whose time is mostly spent
in that kind of loop, more closely than other loops tried (a dict
counter, a sort of tuples). Keep this file fixed: changing the slice
changes the scale of every end-to-end figure.
"""

from __future__ import annotations

import random
import time

# Seconds one slice is taken to last at the reference speed: the scale
# of the end-to-end figures. A slice took 0.6-1.2 ms on a shared 2-core
# x86-64 host under Python 3.11, depending on the host's load.
NOMINAL_S = 0.001
_N = 5
_ROUNDS = 5


def _factors() -> bytes:
    rng = random.Random("perfbench/reference")
    return b"".join(bytes(rng.sample(range(_N), _N)) for _ in range(12))


_FLAT = _factors()


def _left_weight(n: int, flat: bytes) -> bytes:
    """Slide crossings from each factor's front to its predecessor's back
    until no pass changes anything."""
    m = len(flat) // n
    buf = bytearray(flat)
    inv = bytearray(n)
    changed = True
    while changed:
        changed = False
        for k in range(m - 1):
            a = k * n
            b = a + n
            for t in range(n):
                inv[buf[a + t]] = t
            while True:
                move = -1
                for i in range(n - 1):
                    if buf[b + i] > buf[b + i + 1] and inv[i] < inv[i + 1]:
                        move = i
                        break
                if move < 0:
                    break
                changed = True
                buf[b + move], buf[b + move + 1] = buf[b + move + 1], buf[b + move]
                pa, pb = inv[move], inv[move + 1]
                buf[a + pa] = move + 1
                buf[a + pb] = move
                inv[move], inv[move + 1] = pb, pa
    return bytes(buf)


def slice_seconds() -> float:
    """Wall time of one reference slice."""
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        _left_weight(_N, _FLAT)
    return time.perf_counter() - start
