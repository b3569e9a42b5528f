"""The braid action on the free group, curve classes, and the
periodic / reducible / pseudo-Anosov classification predicate.

The fundamental group of the n-times punctured disc is free on
``x_1, ..., x_n``, one loop per puncture. A braid acts on it by the
substitution

    sigma_i:  x_i -> x_i x_{i+1} x_i^-1,   x_{i+1} -> x_i

(all other generators fixed), letters applied left to right. The action
is faithful, which makes it the package's independent equality oracle
for braid words.

An isotopy class of simple closed curves around punctures is modelled as
the conjugacy class of an unoriented cyclic free-group word. That is
exact arithmetic and serves the public predicates, image and
preservation of curve classes, for any named curve. :func:`classify`
needs only round curves, which it names by their spans (i, j), and
tests them without free words: a simple element maps the round curve
around punctures i..j to a round curve exactly when its permutation
maps positions i..j onto an interval, and linking numbers rule most
(curve, braid) pairs out before any power is taken. It reads each
summit element's conjugator as a permutation from the summit set
(SuperSummitSet.conjugator_permutation), and builds a curve class and
runs the free-group action only for the witness it returns.

Free-group letters are signed 1-based generator indices (``-i`` is
``x_i^-1``). Canonical forms order letters by ``(index, sign)`` with the
positive letter first, so ``x_1 < x_1^-1 < x_2 < ...``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator

from .garside import (
    DEFAULT_SSS_LIMIT,
    ResourceLimitError,
    _check_cap,
    _nf_of_word,
    _permutation_of_key,
    _powers,
    _word_of_key,
    super_summit_set,
)
from .words import BraidWord, _free_reduce

__all__ = [
    "ClassificationResult",
    "CurveClass",
    "DEFAULT_IMAGE_LIMIT",
    "FreeWord",
    "artin_action",
    "classify",
    "curve_class_round",
    "image_curve_class",
    "is_periodic",
    "preserves_curve_class",
    "round_span",
]

# Image words longer than this abort the computation; see artin_action.
DEFAULT_IMAGE_LIMIT = 2_000_000


@dataclasses.dataclass(frozen=True)
class FreeWord:
    """A freely reduced word in the free group of the given rank.

    Construction reduces: adjacent inverse pairs cancel, so the stored
    letter sequence is always reduced.
    """

    rank: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.rank:
                raise ValueError(f"letter {letter} is not a generator of F_{self.rank}")
        object.__setattr__(self, "letters", _free_reduce(self.letters))

    def inverse(self) -> FreeWord:
        return FreeWord(self.rank, tuple(-letter for letter in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(f"x{letter}" if letter > 0 else f"x{-letter}^-1" for letter in self.letters)


def _apply_letter(letter: int, word: list[int], limit: int | None) -> list[int]:
    """Substitute one braid letter into a reduced letter list, reducing as
    it goes. Raises ResourceLimitError past ``limit`` letters."""
    i = abs(letter)
    j = i + 1
    out: list[int] = []
    push = out.append
    if letter > 0:
        # x_i -> x_i x_{i+1} x_i^-1 ; x_{i+1} -> x_i
        subs = {i: (i, j, -i), -i: (i, -j, -i), j: (i,), -j: (-i,)}
    else:
        # x_i -> x_{i+1} ; x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}
        subs = {i: (j,), -i: (-j,), j: (-j, i, j), -j: (-j, -i, j)}
    for g in word:
        for image in subs.get(g, (g,)):
            if out and out[-1] == -image:
                out.pop()
            else:
                push(image)
    if limit is not None and len(out) > limit:
        raise ResourceLimitError("free-group image exceeded the letter limit", len(out))
    return out


def artin_action(w: BraidWord, g: FreeWord, max_letters: int | None = None) -> FreeWord:
    """Image of ``g`` under the braid ``w``, letters applied left to right.

    ``artin_action(concat(u, v), g) == artin_action(v, artin_action(u, g))``.
    ``max_letters`` guards against the exponential growth that long
    pseudo-Anosov words cause; exceeding it raises ResourceLimitError.
    """
    if g.rank != w.strands:
        raise ValueError(f"rank mismatch: word on {w.strands} strands, rank {g.rank}")
    current = list(g.letters)
    for letter in w.letters:
        current = _apply_letter(letter, current, max_letters)
    return FreeWord(w.strands, tuple(current))


def _cyclic_reduce(letters: tuple[int, ...]) -> tuple[int, ...]:
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
        lo += 1
        hi -= 1
    return letters[lo:hi]


def _letter_rank(letter: int) -> int:
    # x_1 < x_1^-1 < x_2 < x_2^-1 < ...
    return 2 * abs(letter) + (0 if letter > 0 else 1)


def _least_rotation(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Booth's least-rotation algorithm under the letter order above."""
    enc = [_letter_rank(letter) for letter in seq] * 2
    fail = [-1] * len(enc)
    k = 0
    for j in range(1, len(enc)):
        sj = enc[j]
        i = fail[j - k - 1]
        while i != -1 and sj != enc[k + i + 1]:
            if sj < enc[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if sj != enc[k + i + 1]:
            if sj < enc[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    k %= len(seq)
    return seq[k:] + seq[:k]


def _canonical_cycle(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Least rotation of the cyclic word or of its inverse, whichever is
    smaller; this is the unoriented-curve canonical form."""
    reduced = _cyclic_reduce(letters)
    if not reduced:
        return ()
    forward = _least_rotation(reduced)
    backward = _least_rotation(tuple(-letter for letter in reversed(reduced)))
    fkey = tuple(_letter_rank(letter) for letter in forward)
    bkey = tuple(_letter_rank(letter) for letter in backward)
    return forward if fkey <= bkey else backward


@dataclasses.dataclass(frozen=True)
class CurveClass:
    """An unoriented conjugacy class of a cyclically reduced free word;
    the model for isotopy classes of curves around punctures.

    The stored representative is canonical: cyclically reduced and least,
    under the module's letter order, among all rotations of itself and of
    its inverse.
    """

    rank: int
    representative: FreeWord

    def __post_init__(self):
        if self.representative.rank != self.rank:
            raise ValueError("representative rank mismatch")
        canonical = _canonical_cycle(self.representative.letters)
        if not canonical:
            raise ValueError("the trivial loop does not define a curve class")
        object.__setattr__(self, "representative", FreeWord(self.rank, canonical))

    def __str__(self) -> str:
        return str(self.representative)


def curve_class_round(i: int, j: int, n: int) -> CurveClass:
    """The round curve enclosing punctures i..j: the class of x_i ... x_j.

    Curves enclosing fewer than 2 or all n punctures are degenerate
    (isotopic to a puncture or to the boundary) and are rejected.
    """
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    if j - i + 1 > n - 1:
        raise ValueError(f"curve around punctures {i}..{j} of {n} is degenerate")
    return CurveClass(n, FreeWord(n, tuple(range(i, j + 1))))


def round_span(c: CurveClass) -> tuple[int, int] | None:
    """(i, j) when the class is the round curve around punctures i..j."""
    letters = c.representative.letters
    expected = tuple(range(letters[0], letters[0] + len(letters)))
    if letters == expected and letters[0] >= 1:
        return letters[0], letters[-1]
    return None


def preserves_curve_class(w: BraidWord, c: CurveClass, max_letters: int | None = None) -> bool:
    """True iff the image of the class under ``w`` is the class itself,
    as unoriented curves (the image may match the inverse)."""
    return image_curve_class(w, c, max_letters) == c


def image_curve_class(w: BraidWord, c: CurveClass, max_letters: int | None = None) -> CurveClass:
    """The curve class of the image of ``c`` under ``w``."""
    if w.strands != c.rank:
        raise ValueError(f"rank mismatch: word on {w.strands} strands, curve rank {c.rank}")
    return CurveClass(c.rank, artin_action(w, c.representative, max_letters=max_letters))


def is_periodic(w: BraidWord) -> bool:
    """True iff some power of ``w`` is a power of Delta.

    Checking w^n and w^(n-1) suffices: periodic braids are conjugates of
    powers of the two rotation braids, whose n-th resp. (n-1)-th powers
    are full twists. Accepting odd Delta powers is sound, since
    w^N = Delta^j gives the central w^(2N) = Delta^(2j). The powers are
    products of normal forms, and a power of Delta is a normal form
    without factors.
    """
    n = w.strands
    if n == 1:
        return True
    powers = _powers(n, _nf_of_word(w), n)
    return not powers[n - 1][1] or not powers[n - 2][1]


@dataclasses.dataclass(frozen=True, slots=True)
class ClassificationResult:
    """Outcome of :func:`classify`.

    ``kind`` is one of ``"periodic"``, ``"reducible"``,
    ``"pseudo_anosov"``. Reducible results carry a verified witness: a
    round curve class, the power of the summit conjugate that preserves
    it, and the conjugator from the input to that summit conjugate.
    """

    kind: str
    curve: CurveClass | None = None
    power: int | None = None
    conjugator: BraidWord | None = None


def _round_curves(n: int) -> Iterator[tuple[int, int]]:
    """The spans (i, j) of the round curves of B_n, ordered by (i, j)."""
    return ((i, j) for i in range(1, n) for j in range(i + 1, n + 1) if j - i + 1 <= n - 1)


def _preserves_round_curve(n: int, key: tuple[int, bytes], i: int, j: int) -> bool:
    """Whether the braid with normal-form key ``key`` maps the round curve
    i..j to itself, walking the factors and demanding round images
    throughout.

    A simple element maps the round curve around an interval of
    punctures to a round curve exactly when its permutation maps the
    interval onto an interval, and the image is the curve around that
    interval: a strand from outside ends on the same side of all the
    curve's strands or crosses each of them once, so they move as one
    tube. The walk is exact: a braid sending a round curve to a round
    curve sends it to a round curve after every normal-form prefix, so
    an intermediate non-round image already refutes preservation. The
    full twist acts trivially on curve classes and the half twist flips
    spans, which handles the Delta power.
    """
    p, flat = key
    lo, hi = (n - j, n - i) if p % 2 else (i - 1, j - 1)
    for off in range(0, len(flat), n):
        images = flat[off + lo : off + hi + 1]
        lo, hi = min(images), max(images)
        if hi - lo != j - i:
            return False
    return (lo, hi) == (i - 1, j - 1)


def _crossings_of_power(n: int, letters: tuple[int, ...], perm: bytes) -> list[list[int]]:
    """Signed crossing counts of w^m, m the order of w's permutation
    ``perm`` (0-based images), from the letters of w: entry [a][b] counts
    the crossings between the strands that start at 0-based positions a
    and b, sigma_i as +1 and its inverse as -1.

    The strands that start a copy of w at (a, b) start the next copy at
    (perm[a], perm[b]), so over w^m a pair's count is w's count summed
    along the pair's orbit under perm, repeated m/L times for an orbit of
    length L: m times the orbit's average. No copy of w is multiplied out.
    """
    at = list(range(n))
    once = [[0] * n for _ in range(n)]
    for letter in letters:
        t = abs(letter) - 1
        a, b = at[t], at[t + 1]
        sign = 1 if letter > 0 else -1
        once[a][b] += sign
        once[b][a] += sign
        at[t], at[t + 1] = b, a
    orbits = []
    seen: set[tuple[int, int]] = set()
    for a in range(n):
        for b in range(n):
            if (a, b) in seen:
                continue
            orbit = []
            x, y = a, b
            while (x, y) not in seen:
                seen.add((x, y))
                orbit.append((x, y))
                x, y = perm[x], perm[y]
            orbits.append(orbit)
    m = math.lcm(*map(len, orbits))
    counts = [[0] * n for _ in range(n)]
    for orbit in orbits:
        total = sum(once[x][y] for x, y in orbit) * (m // len(orbit))
        for x, y in orbit:
            counts[x][y] = total
    return counts


def _tube_ruled_out(crossings: list[list[int]], inside: bytes) -> bool:
    """Whether w^m's crossing counts (:func:`_crossings_of_power`) rule
    out a tube around ``inside``, a set of w's 0-based strands: some
    strand outside it crosses two strands inside it a different number
    of times."""
    return any(len({row[a] for a in inside}) > 1 for o, row in enumerate(crossings) if o not in inside)


def classify(w: BraidWord, max_sss: int = DEFAULT_SSS_LIMIT) -> ClassificationResult:
    """Nielsen-Thurston type of a braid: periodic, reducible, or
    pseudo-Anosov (by elimination).

    Reducibility scan: some super-summit conjugate of a reducible braid
    preserves a round curve, so (round curve, summit element, power <= n)
    triples are tested in that lexicographic order (curves by (i, j),
    elements in canonical summit order, powers ascending) and the first
    hit is the witness, re-verified through the raw free-group action
    before returning. Preservation is decided by the factor walk of
    :func:`_preserves_round_curve`, which is exact and builds no free
    words.

    Two tests pass over triples before any power is computed or walked.
    Each passes over only triples without a hit, so the first hit, and
    with it the witness, its power and its conjugator, is that of the
    full scan:

    - Delta-orbits. The flip tau(x) = Delta^-1 x Delta maps the round
      curve i..j to (n+1-j)..(n+1-i), tau(x)^k = tau(x^k), and the summit
      set is closed under tau, so x^k preserves C exactly when tau(x)^k
      preserves tau(C). A curve whose flip came earlier is skipped, as
      the flip had no hit.
    - Linking numbers. Let m be the order of w's permutation. An element
      y = c w c^-1, c its conjugator, has the pure power y^m = c w^m c^-1,
      whose strands starting at a and b cross as often as those of w^m
      starting at c(a) and c(b), c read as a permutation. If some power
      y^k preserved the curve, the pure braid y^lcm(k, m) would move the
      curve's strands as one tube, so every strand outside would cross
      each of them equally often; crossing counts of pure braids add
      under products, so y^m would show the same. When some strand
      outside does not, no power of y preserves the curve. The answer
      depends only on the set of w's strands inside, so each call tests
      each set once and reuses its answer for every (curve, element)
      pair that meets it. w^m's counts are read once per call
      (:func:`_crossings_of_power`), c's permutation off the closure
      tree (SuperSummitSet.conjugator_permutation).

    Every power k <= n of an element that passes is walked. A power
    whose permutation does not map the curve's punctures onto themselves
    fails the walk's last check, so testing only multiples of the
    punctures' period would find the same first hit.

    Each element's powers are keys, computed once when first needed, by
    repeated products (garside._powers). super_summit_set verified
    every element conjugate to w by its closure edge; only the witness's
    curve class and conjugator are built, the conjugator along the
    closure tree and re-verified end to end
    (SuperSummitSet.conjugator_key).

    Raises ValueError if ``max_sss`` < 1, ResourceLimitError if the summit
    set outgrows it. The witness re-check stops at DEFAULT_IMAGE_LIMIT
    letters.
    """
    _check_cap(max_sss)
    n = w.strands
    if n < 2:
        raise ValueError("classification needs at least 2 strands")
    if is_periodic(w):
        return ClassificationResult("periodic")
    sss = super_summit_set(w, max_size=max_sss)
    crossings = _crossings_of_power(n, w.letters, _permutation_of_key(n, sss.word_key))
    powers: dict[tuple[int, bytes], list[tuple[int, bytes]]] = {}
    ruled_out: dict[bytes, bool] = {}
    for i, j in _round_curves(n):
        if i + j > n + 1:
            continue
        for key in sss.keys:
            inside = bytes(sorted(sss.conjugator_permutation(key)[i - 1 : j]))
            if inside not in ruled_out:
                ruled_out[inside] = _tube_ruled_out(crossings, inside)
            if ruled_out[inside]:
                continue
            if key not in powers:
                powers[key] = _powers(n, key, n)
            for k, x in enumerate(powers[key], 1):
                if _preserves_round_curve(n, x, i, j):
                    curve = curve_class_round(i, j, n)
                    witness_word = BraidWord(n, _word_of_key(n, key) * k)
                    if not preserves_curve_class(witness_word, curve, DEFAULT_IMAGE_LIMIT):
                        raise RuntimeError("internal error: witness failed re-verification")
                    conjugator = BraidWord(n, _word_of_key(n, sss.conjugator_key(key)))
                    return ClassificationResult("reducible", curve, k, conjugator)
    return ClassificationResult("pseudo_anosov")
