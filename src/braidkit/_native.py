"""Pure-Python permutation-braid kernels.

``braidkit._speedups`` is the compiled twin of this module, written in
C against the CPython API; ``braidkit._kernel`` selects one of the two
at import time. The twins share the algorithm, not only the results:
both append one factor at a time and slide it leftward, resuming each
pair's scan at i-1 after a move at i (``_left_weight``); both take the
summit walk's step, a vertex's minimal simple elements, by the same
pushes and joins on inversion sets (``minimal_simples``), deriving the
vertex's inverse from the complements of its factors (``_inverse``);
and both return bit-identical results (tests/test_kernel.py checks this
on random inputs, on every vertex of summit sets and on whole
workloads). Only this twin memoizes pushes, in a dict that the caller
keeps for each strand count across walks (garside._push_table). The
compiled twin also checks its arguments; this module is called only
with the Garside layer's own keys and checks nothing on the hot path.

Data layout: a canonical factor of B_n is a permutation of
``{0, ..., n-1}`` stored as ``n`` bytes, image of ``k`` at offset ``k``.
A factor sequence is the concatenation of its factors' buffers, so
``len(flat) == factors * n``. The pair ``(delta, flat)`` denotes the
braid ``Delta^delta * A_1 * ... * A_l``. A normal form ends with a trim
of whole rows: ``_left_weight`` moves each leading Delta row into the
Delta power and drops each trailing identity row, testing a row by one
``startswith`` at its offset.

Descent conventions (0-based index ``i`` names the crossing of positions
``i`` and ``i+1``): ``i`` is in the starting set of a factor ``A`` iff
``A[i] > A[i+1]``, and in the finishing set iff ``A^-1`` has a descent at
``i``. A sequence is left-weighted when every adjacent pair ``(A, B)``
satisfies ``starting(B) <= finishing(A)``.

The flip automorphism tau, conjugation by Delta, maps a factor ``A`` to
``k -> n-1-A[n-1-k]`` and keeps a sequence left-weighted. ``_tau_flat``
applies it to a whole sequence with one reversal and one translate.
A^-1 = Delta^-1 (Delta A^-1), and the complement Delta A^-1 is again
simple; ``_complement`` gives it, flipped or not, and ``_inverse``
inverts a whole normal form with it. These three are the package's one
Python flip, complement and inverse: the Garside layer uses them too, to
move Delta powers, flip summit elements, invert keys and build its
letter table.
"""

from __future__ import annotations

import functools
from typing import Sequence

BACKEND = "python"


def _left_weight(n: int, delta: int, flat: bytes, start: int) -> tuple[int, bytes]:
    """Normal form of Delta^delta * flat whose first ``start`` factors are
    already left-weighted.

    Each later factor is appended in turn and slid leftward: the pair
    (A, B) moves crossings from the front of B to the back of A, smallest
    eligible index i first, while some i is a descent of B but not of
    A^-1; then the pair before it, whose right factor has grown, and so
    on, stopping at the first pair that does not change (El-Rifai &
    Morton, "Algorithms for positive braids", Quart. J. Math. 45, 1994).
    A move at i changes only the tests at i-1, i and i+1, so the scan for
    the smallest eligible index resumes at i-1: the same moves as a
    rescan from 0. Then the rows are trimmed at both ends.
    """
    if n == 1:
        # B_1 is trivial and Delta is the identity, so every key collapses;
        # multiply and conjugate_batch rely on this too.
        return 0, b""
    buf = bytearray(flat)
    inv = bytearray(n)
    for b in range(max(start, 1) * n, len(buf), n):
        while b:
            a = b - n
            for t in range(n):
                inv[buf[a + t]] = t
            moves = i = 0
            while i < n - 1:
                if not (buf[b + i] > buf[b + i + 1] and inv[i] < inv[i + 1]):
                    i += 1
                    continue
                # Each move removes one inversion from B, so a pair takes
                # at most n(n-1)/2 of them.
                moves += 1
                # Strip crossing i from the front of B: swap entries.
                buf[b + i], buf[b + i + 1] = buf[b + i + 1], buf[b + i]
                # Append it to A: swap the values i, i+1.
                pa, pb = inv[i], inv[i + 1]
                buf[a + pa] = i + 1
                buf[a + pb] = i
                inv[i], inv[i + 1] = pb, pa
                if i:
                    i -= 1
            if not moves:
                break
            b = a
    w0 = _flip_table(n)[:n]
    identity = w0[::-1]
    lo, hi = 0, len(buf)
    while buf.startswith(w0, lo):
        lo += n
    while hi > lo and buf.startswith(identity, hi - n):
        hi -= n
    return delta + lo // n, bytes(buf[lo:hi])


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
    return b"".join([out[off - n : off] for off in range(len(out), 0, -n)])


def multiply(n: int, p1: int, flat1: bytes, p2: int, flat2: bytes) -> tuple[int, bytes]:
    """Normal form of (Delta^p1 * flat1) * (Delta^p2 * flat2).

    Precondition: ``(p1, flat1)`` is a normal form, as every caller's
    normal-form key is. Delta^p2 moves to the front through flat1,
    twisting each factor by the flip automorphism when p2 is odd; the
    twisted sequence is still left-weighted, so the slides start at the
    first factor of flat2. A left operand that is not left-weighted gives
    a wrong result.
    """
    first = _tau_flat(n, flat1) if p2 % 2 else flat1
    return _left_weight(n, p1 + p2, first + flat2, len(flat1) // n)


def _complement(n: int, s: bytes, odd: int) -> bytes:
    """tau^odd(Delta s^-1), for a simple element s and odd in {0, 1}.

    s^-1 = Delta^-1 * (Delta s^-1), and Delta s^-1 is again simple, the
    permutation t -> s^-1(n-1-t); its flip tau(Delta s^-1) is
    t -> n-1-s^-1(t).
    """
    inv = bytearray(n)
    for t in range(n):
        inv[s[t]] = t
    return bytes(inv.translate(_flip_table(n)) if odd else inv[::-1])


def _inverse(n: int, p: int, flat: bytes) -> tuple[int, bytes]:
    """(Delta^p A_1..A_l)^-1, the product over j = l, ..., 1 of
    A_j^-1 = Delta^-1 (Delta A_j^-1), times the trailing Delta^-p.

    With the Delta powers pushed to the front this is Delta^(-p-l) times
    tau^(p+j-1)(Delta A_j^-1) for j = l down to 1. For a normal form that
    is already a normal form: the complement of a canonical factor is
    canonical, and A_j | A_(j+1) left-weighted makes the pair of their
    twisted complements, taken in reverse order, left-weighted.
    """
    factors = [
        _complement(n, flat[off : off + n], (p + off // n) % 2)
        for off in range(len(flat) - n, -1, -n)
    ]
    return -p - len(flat) // n, b"".join(factors)


def conjugate_batch(
    n: int, p: int, flat: bytes, simples: Sequence[bytes]
) -> list[tuple[int, bytes]]:
    """Normal forms of s^-1 * (Delta^p * flat) * s for each simple element
    s of ``simples``, in order: Delta^(p-1) * tau^p(Delta s^-1) * flat * s.
    """
    return [_left_weight(n, p - 1, _complement(n, s, p % 2) + flat + s, 1) for s in simples]


# -- the prefix order and minimal simple elements ---------------------------------
#
# A simple element s is a prefix of t (s <= t: s^-1 t is positive) iff the
# position-inversion set of s, the pairs i < j with s[i] > s[j], lies in
# that of t. A product s * u of simple elements whose lengths add is the
# permutation k -> u[s[k]].


def _inversions(perm: bytes) -> int:
    """The position-inversion set of a simple element as a bitmask: bit
    i*n + j is set iff i < j and perm[i] > perm[j]."""
    n = len(perm)
    positions = bytearray(n)
    for k, v in enumerate(perm):
        positions[v] = k
    below = [0] * n  # below[v]: the positions of the values under v
    mask = 0
    for v, pos in enumerate(positions):
        below[v] = mask
        mask |= 1 << pos
    out = 0
    for i, v in enumerate(perm):
        out |= (below[v] & -(2 << i)) << (i * n)
    return out


@functools.lru_cache(maxsize=None)
def _columns(n: int) -> tuple[int, ...]:
    """Mask k selects the inversion bits (i, k), i < k."""
    return tuple(sum(1 << (i * n + k) for i in range(k)) for k in range(n))


def _closure_simple(n: int, inversions: int) -> bytes:
    """The simple element whose inversion set is the transitive closure of
    ``inversions``. For the union of two inversion sets that is their
    join, the least common multiple in the prefix order."""
    full = (1 << n) - 1
    for i in range(n - 3, -1, -1):
        # The rows below i are closed, so adding theirs closes row i.
        row = pending = inversions >> (i * n) & full
        while pending:
            low = pending & -pending
            row |= inversions >> ((low.bit_length() - 1) * n) & full
            pending ^= low
        inversions |= row << (i * n)
    # The value at k counts the positions holding smaller values: the
    # inversions (k, j) to its right and the non-inversions (i, k) to its left.
    columns = _columns(n)
    return bytes(
        (inversions >> (k * n) & full).bit_count() + k - (inversions & columns[k]).bit_count()
        for k in range(n)
    )


def _known(memo: dict, perm: bytes) -> tuple[bytes, int]:
    """The memo's one copy of a simple element, with its inversion set."""
    found = memo.get(perm)
    if found is None:
        found = memo[perm] = perm, _inversions(perm)
    return found


def _push(memo: dict, pair: bytes, a: bytes, f: bytes) -> bytes:
    """f^-1 (a v f): the simple element y0 such that a <= f * y iff y0 <= y,
    for every positive y, computed and kept in the memo under ``pair``,
    the concatenation a + f. Callers take memo hits themselves."""
    joined = _closure_simple(len(f), _known(memo, a)[1] | _known(memo, f)[1])
    quotient = bytearray(len(f))
    for k, v in enumerate(f):
        quotient[v] = joined[k]
    return memo.setdefault(pair, _known(memo, bytes(quotient))[0])


def minimal_simples(n: int, p: int, flat: bytes, memo: dict) -> list[bytes]:
    """The minimal simple elements of a summit element x = Delta^p * flat,
    in atom order.

    For each atom sigma_i, rho(sigma_i) is the least simple s >= sigma_i
    with s^-1 x s in the super summit set. The minimal simple elements are
    the prefix-minimal rho's, at most n-1 of them, and the summit set is
    connected under them (Franco & Gonzalez-Meneses, "Conjugacy problem
    for braid groups and Garside groups", J. Algebra 266, 2003).

    For x = Delta^p x_1..x_r, inf(s^-1 x s) >= p iff tau^p(s) <= x_1..x_r s,
    that is iff a, tau^p(s) pushed through x_1, ..., x_r, is a prefix of
    s. Otherwise the join s v a is a larger lower bound for every
    admissible s. The same test on x^-1 (_inverse) keeps sup, and
    rho(sigma_i) is the first s, raised from sigma_i, that passes both
    tests.

    ``memo`` is a dict of B_n's simple elements, each held once with its
    inversion set, and of pushes; every entry is a pure function of its
    key, so a memo warmed by any earlier call of the same strand count
    gives the same result as an empty one. Summit walks meet the same
    few simple elements at vertex after vertex, and the caller keeps one
    memo per strand count across walks. The C twin ignores it.
    """
    identity = bytes(range(n))
    sides = [
        (q % 2, [f[off : off + n] for off in range(0, len(f), n)])
        for q, f in ((p, flat), _inverse(n, p, flat))
    ]
    rhos = []
    for i in range(n - 1):
        atom = bytearray(identity)
        atom[i], atom[i + 1] = i + 1, i
        s = bytes(atom)
        settled = side = 0
        while settled < 2:
            odd, factors = sides[side]
            side ^= 1
            a = _tau_flat(n, s) if odd else s
            for f in factors:
                if a == identity:  # the identity pushes to itself
                    break
                pair = a + f
                a = memo.get(pair) or _push(memo, pair, a, f)
            below = _known(memo, s)[1]
            missing = _known(memo, a)[1] & ~below
            if missing:
                s = _closure_simple(n, below | missing)
                settled = 0
            else:
                settled += 1
        rhos.append(s)
    # rho(sigma_j) <= rho(sigma_i) whenever sigma_j <= rho(sigma_i), so
    # rho(sigma_i) is minimal iff every atom prefix of it has the same rho.
    minimal: list[bytes] = []
    for rho in rhos:
        if rho not in minimal and all(rhos[j] == rho for j in range(n - 1) if rho[j] > rho[j + 1]):
            minimal.append(rho)
    return minimal
