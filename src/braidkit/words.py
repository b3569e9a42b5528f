"""Braid words over the Artin presentation.

A word in the braid group on ``n`` strands is a sequence of signed
generator letters: the integer ``+i`` stands for the generator crossing
strands ``i`` and ``i+1`` positively, ``-i`` for its inverse. Words are
stored verbatim; no operation here rewrites a word. Canonical forms live
in :mod:`braidkit.garside`. The one helper that cancels letters,
_free_reduce, reduces a letter sequence for garside's normal forms and
for the free-group words of :mod:`braidkit.curves`.

Global convention, shared by every module in the package: words act left
to right. The first letter of a word is the crossing applied first, and
``permutation_of_word(concat(u, v))`` is the permutation of ``u``
followed by the permutation of ``v``.

Text format (used by the CLI): ``n: l1 l2 ... lk`` where each ``lj`` is a
nonzero integer, e.g. ``3: 1 2 -1``. An empty letter list is allowed.
"""

from __future__ import annotations

import dataclasses

__all__ = [
    "BraidWord",
    "Permutation",
    "SplitMix64",
    "concat",
    "derive_seed",
    "exponent_sum",
    "format_word",
    "invert_word",
    "parse_word",
    "permutation_of_word",
    "random_letters",
    "random_word",
]


@dataclasses.dataclass(frozen=True, slots=True)
class BraidWord:
    """A word in the Artin generators of the braid group on ``strands`` strands.

    The strand count is part of the word's identity: the same letter
    sequence on a different strand count is a different braid, and
    operations on mismatched counts raise ``ValueError`` instead of
    promoting implicitly.
    """

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError(f"strand count must be >= 1, got {self.strands}")
        letters = tuple(self.letters)
        for letter in letters:
            if letter == 0 or not 1 <= abs(letter) <= self.strands - 1:
                raise ValueError(f"letter {letter} is not a generator of B_{self.strands}")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)


@dataclasses.dataclass(frozen=True)
class Permutation:
    """The underlying permutation of a braid.

    ``images[k-1]`` is the position where the strand starting at position
    ``k`` ends, so composition follows the package-wide left-to-right
    convention.
    """

    size: int
    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if len(images) != self.size or sorted(images) != list(range(1, self.size + 1)):
            raise ValueError(f"{images!r} is not a permutation of 1..{self.size}")

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(n, tuple(range(1, n + 1)))

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def inverse(self) -> Permutation:
        inv = [0] * self.size
        for k, v in enumerate(self.images, start=1):
            inv[v - 1] = k
        return Permutation(self.size, tuple(inv))

    def cycle_type(self) -> tuple[int, ...]:
        """Sorted cycle lengths; invariant under conjugation."""
        seen = [False] * self.size
        lengths = []
        for start in range(1, self.size + 1):
            if seen[start - 1]:
                continue
            length = 0
            k = start
            while not seen[k - 1]:
                seen[k - 1] = True
                k = self.images[k - 1]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths))

    def __str__(self) -> str:
        return "(" + " ".join(str(v) for v in self.images) + ")"


def _free_reduce(letters) -> tuple[int, ...]:
    """Cancel each letter against an inverse neighbour, in one stack pass,
    so nested pairs such as ``1 2 -2 -1`` vanish too."""
    out: list[int] = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def concat(*words: BraidWord) -> BraidWord:
    """Concatenate words on a common strand count (left factor acts first)."""
    if not words:
        raise ValueError("concat needs at least one word")
    n = words[0].strands
    letters: list[int] = []
    for w in words:
        if w.strands != n:
            raise ValueError(f"strand count mismatch: {w.strands} != {n}")
        letters.extend(w.letters)
    return BraidWord(n, tuple(letters))


def invert_word(w: BraidWord) -> BraidWord:
    """Reverse the letter sequence and flip every sign."""
    return BraidWord(w.strands, tuple(-letter for letter in reversed(w.letters)))


def exponent_sum(w: BraidWord) -> int:
    """Sum of letter signs (the abelianization); a conjugacy invariant."""
    return sum(1 if letter > 0 else -1 for letter in w.letters)


def permutation_of_word(w: BraidWord) -> Permutation:
    """Compose one transposition per letter, first letter first.

    Signs are irrelevant: a crossing and its inverse induce the same
    transposition.
    """
    # occupants[p-1] = which strand currently sits at position p
    occupants = list(range(1, w.strands + 1))
    for letter in w.letters:
        i = abs(letter)
        occupants[i - 1], occupants[i] = occupants[i], occupants[i - 1]
    images = [0] * w.strands
    for pos, strand in enumerate(occupants, start=1):
        images[strand - 1] = pos
    return Permutation(w.strands, tuple(images))


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit generator (SplitMix64), written out in full so
    any implementation in any language can reproduce the same streams.

    State update::

        state = (state + 0x9E3779B97F4A7C15) mod 2**64

    Output function applied to the updated state::

        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2**64
        return z ^ (z >> 31)

    All randomized operations in this package draw from this generator
    and nothing else, so identical seeds give identical results on every
    platform.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        return _mix64(self.state)

    def below(self, bound: int) -> int:
        """``next_u64() mod bound``. The modulo bias is negligible for the
        small bounds used here and keeps the draw rule trivial to restate."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound


def derive_seed(seed: int, index: int) -> int:
    """Per-trial sub-seed: the SplitMix64 output function applied to
    ``(seed + (index + 1) * 0x9E3779B97F4A7C15) mod 2**64``."""
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


def random_letters(rng: SplitMix64, n: int, length: int) -> tuple[int, ...]:
    """Draw ``length`` letters for B_n, one ``rng`` draw per letter.

    Draw rule: ``r = rng.below(2 * (n - 1))``; the generator index is
    ``r // 2 + 1`` and the sign is positive for even ``r``. B_1 has no
    letters, so it is refused only when ``length`` asks for some.
    """
    if n < 2 and length > 0:
        raise ValueError(f"random letters need at least 2 strands, got {n}")
    letters = []
    for _ in range(length):
        r = rng.below(2 * (n - 1))
        index = r // 2 + 1
        letters.append(index if r % 2 == 0 else -index)
    return tuple(letters)


def random_word(n: int, length: int, seed: int) -> BraidWord:
    """Uniform random word of ``length`` letters in B_n, deterministic in
    ``(n, length, seed)``. See :class:`SplitMix64` for the exact stream."""
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    return BraidWord(n, random_letters(SplitMix64(seed), n, length))


def format_word(w: BraidWord) -> str:
    """Render in the text format ``n: l1 l2 ... lk``."""
    head = f"{w.strands}:"
    if not w.letters:
        return head
    return head + " " + " ".join(str(letter) for letter in w.letters)


def parse_word(text: str) -> BraidWord:
    """Parse the text format ``n: l1 l2 ... lk``; raises ValueError on junk."""
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"expected 'n: l1 l2 ...', got {text!r}")
    try:
        strands = int(head.strip())
        letters = tuple(int(token) for token in rest.split())
    except ValueError:
        raise ValueError(f"cannot parse braid word {text!r}") from None
    return BraidWord(strands, letters)
