"""Pure-Python permutation-braid kernels.

``braidkit._speedups`` is the compiled twin of this module, written in
C against the CPython API; ``braidkit._kernel`` selects one of the two
at import time. The twins share the algorithm, not only the results:
both append one factor at a time and slide it leftward (``_left_weight``)
and both return bit-identical keys (tests/test_kernel.py checks this on
random inputs and on whole workloads). The compiled twin also checks
its arguments; this module is called only with the Garside layer's own
keys and checks nothing on the hot path.

Data layout: a canonical factor of B_n is a permutation of
``{0, ..., n-1}`` stored as ``n`` bytes, image of ``k`` at offset ``k``.
A factor sequence is the concatenation of its factors' buffers, so
``len(flat) == factors * n``. The pair ``(delta, flat)`` denotes the
braid ``Delta^delta * A_1 * ... * A_l``.

Descent conventions (0-based index ``i`` names the crossing of positions
``i`` and ``i+1``): ``i`` is in the starting set of a factor ``A`` iff
``A[i] > A[i+1]``, and in the finishing set iff ``A^-1`` has a descent at
``i``. A sequence is left-weighted when every adjacent pair ``(A, B)``
satisfies ``starting(B) <= finishing(A)``.

The flip automorphism tau, conjugation by Delta, maps a factor ``A`` to
``k -> n-1-A[n-1-k]`` and keeps a sequence left-weighted. ``_tau_flat``
applies it to a whole sequence with one reversal and one translate. The
Garside layer uses it too, to move Delta powers and to flip whole
summit elements.
"""

from __future__ import annotations

import functools
from typing import Sequence

BACKEND = "python"


def _is_w0(buf: bytearray, off: int, n: int) -> bool:
    for t in range(n):
        if buf[off + t] != n - 1 - t:
            return False
    return True


def _is_id(buf: bytearray, off: int, n: int) -> bool:
    for t in range(n):
        if buf[off + t] != t:
            return False
    return True


def _left_weight(n: int, delta: int, flat: bytes, start: int) -> tuple[int, bytes]:
    """Normal form of Delta^delta * flat whose first ``start`` factors are
    already left-weighted.

    Each later factor is appended in turn and slid leftward: the pair
    (A, B) moves crossings from the front of B to the back of A, smallest
    eligible index i first, while some i is a descent of B but not of
    A^-1; then the pair before it, whose right factor has grown, and so
    on, stopping at the first pair that does not change (El-Rifai &
    Morton, "Algorithms for positive braids", Quart. J. Math. 45, 1994).
    At the end every leading factor equal to Delta migrates into the
    Delta power and every trailing identity factor is dropped.
    """
    if n == 1:
        # B_1 is trivial and Delta is the identity, so everything collapses.
        return 0, b""
    m = len(flat) // n
    if m == 0:
        return delta, b""
    buf = bytearray(flat)
    inv = bytearray(n)
    for b in range(max(start, 1) * n, m * n, n):
        while b:
            a = b - n
            for t in range(n):
                inv[buf[a + t]] = t
            moves = 0
            while True:
                move = -1
                for i in range(n - 1):
                    if buf[b + i] > buf[b + i + 1] and inv[i] < inv[i + 1]:
                        move = i
                        break
                if move < 0:
                    break
                # Each move removes one inversion from B, so a pair takes
                # at most n(n-1)/2 of them.
                moves += 1
                # Strip crossing `move` from the front of B: swap entries.
                buf[b + move], buf[b + move + 1] = buf[b + move + 1], buf[b + move]
                # Append it to A: swap the values move, move+1.
                pa, pb = inv[move], inv[move + 1]
                buf[a + pa] = move + 1
                buf[a + pb] = move
                inv[move], inv[move + 1] = pb, pa
            if not moves:
                break
            b = a
    lo = 0
    while lo < m and _is_w0(buf, lo * n, n):
        lo += 1
    hi = m
    while hi > lo and _is_id(buf, (hi - 1) * n, n):
        hi -= 1
    return delta + lo, bytes(buf[lo * n : hi * n])


def normalize(n: int, delta: int, flat: bytes) -> tuple[int, bytes]:
    """Left-weight a factor sequence; absorb Delta factors, drop trivial ones."""
    return _left_weight(n, delta, flat, 1)


@functools.lru_cache(maxsize=None)
def _flip_table(n: int) -> bytes:
    """The translate table of v -> n-1-v."""
    return bytes(range(n - 1, -1, -1)).ljust(256, b"\0")


def _tau_flat(n: int, flat: bytes) -> bytes:
    """Apply the flip automorphism to every factor: tau(A)[k] = n-1-A[n-1-k].

    Reversing the buffer reverses each factor, and the factor order with
    it; one translate maps every value v to n-1-v, and the factors are
    then put back in order.
    """
    out = flat[::-1].translate(_flip_table(n))
    if len(out) <= n:
        return out
    return b"".join(out[off - n : off] for off in range(len(out), 0, -n))


def multiply(n: int, p1: int, flat1: bytes, p2: int, flat2: bytes) -> tuple[int, bytes]:
    """Normal form of (Delta^p1 * flat1) * (Delta^p2 * flat2).

    Precondition: ``(p1, flat1)`` is a normal form, as every caller's
    normal-form key is. Delta^p2 moves to the front through flat1,
    twisting each factor by the flip automorphism when p2 is odd; the
    twisted sequence is still left-weighted, so the slides start at the
    first factor of flat2. A left operand that is not left-weighted gives
    a wrong result.
    """
    if n == 1:
        return 0, b""
    first = _tau_flat(n, flat1) if p2 % 2 else flat1
    return _left_weight(n, p1 + p2, first + flat2, len(flat1) // n)


def conjugate_batch(
    n: int, p: int, flat: bytes, simples: Sequence[bytes]
) -> list[tuple[int, bytes]]:
    """Normal forms of s^-1 * (Delta^p * flat) * s for each simple element
    s of ``simples``, in order.

    s^-1 = Delta^-1 * (Delta s^-1) and Delta s^-1 is again simple, the
    permutation t -> s^-1(n-1-t), so each conjugate rewrites to
    Delta^(p-1) * tau^p(Delta s^-1) * flat * s; tau(Delta s^-1) is
    t -> n-1-s^-1(t).
    """
    if n == 1:
        return [(0, b"")] * len(simples)
    out = []
    for s in simples:
        inv = bytearray(n)
        for t in range(n):
            inv[s[t]] = t
        head = inv.translate(_flip_table(n)) if p % 2 else inv[::-1]
        out.append(_left_weight(n, p - 1, bytes(head) + flat + s, 1))
    return out
