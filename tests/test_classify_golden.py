"""Golden outputs of ``classify`` and a reference check of ``is_periodic``.

``classify`` returns the first witness of its scan (round curve, summit
element in canonical order, power ascending), so the witness it reports
depends on how the scan is carried out, not only on the braid. The
sha256 hashes below pin ``(kind, round_span(curve), power, conjugator)``
for a fixed sample; any change to the scan order or to the summit
conjugators shows up here. For the larger samples the witness
``(kind, span, power)``, which depends only on the summit elements, and
the conjugator, which is the track of the closure's walk to the witness
element, are pinned apart: the first must never change, the second was
re-pinned when the closure moved to minimal simple elements, and when
keys with a negative Delta power came to be spelled as D^-1 P. Every word
of the sample classifies in under a second on the pure-Python backend.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from braidkit import (
    BraidWord,
    classify,
    concat,
    embed_standard,
    format_word,
    invert_word,
    is_delta_power,
    is_periodic,
    round_span,
)

# The curated words of acceptance criterion 8.
CURATED = [(3, (1, 2)), (3, (1,)), (3, (1, -2))]

# Nontrivial B_3 words, classified through the standard embedding in B_5.
EMBEDDED_B3 = [
    (-1, 2, 1, -1),
    (2, -2, 1, 1),
    (-1, 1, -1, 2),
    (-1, 1, 1, 2),
    (-2, -1, 1, -1),
    (1, 2, 2, 2),
    (-1, -1, 1, -1),
    (1, -1, 2, 2),
    (-2, -2, -2, 2),
    (1, 1, -1, -2),
    (1, 2, -2, 1),
    (-1, 2, -2, 2),
    (1, 1, -1, 2),
    (-1, 2, -2, -2),
    (-2, -1, 2, -2),
    (-1, -2, 2, -2),
    (1, 1, 1, -1),
    (-2, -1, -1, -1),
    (2, -1, 2, -1),
    (2, -1, -2, -1),
]

# Conjugated B_4 braids of known type: powers of the rotation braids
# s1 s2 s3 and s1 s2 s3 s1, B_3 words read in B_4, Penner words (positive
# twists about the curves (1,2) and (3,4), negative about (2,3)), and two
# braids that swap the curves (1,2) and (3,4), so that only their squares
# preserve a round curve.
CONJUGATED_B4 = [
    ("periodic", (-1, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1)),
    ("reducible", (-3, 3, -1, 1, -1, -3, 3)),
    ("pseudo_anosov", (-1, 3, 1, 1, 3, 3, -2, -2, -3, 1)),
    ("periodic", (2, 1, -1, -3, -2, -1, -1, -3, -2, -1, -1, -3, -2, -1, -1, -2)),
    ("reducible", (-1, -1, 2, -2, 1, -1, 2, 1, 1)),
    ("pseudo_anosov", (2, 3, 2, 3, 3, 1, 1, -2, -2, -2, -3, -2)),
    ("periodic", (-1, 2, -3, 1, 2, 3, 1, 2, 3, 3, -2, 1)),
    ("reducible", (-3, -1, 1, -1, -1, -1, 1, -1, -1, 1, 3)),
    ("pseudo_anosov", (-3, -3, 1, 1, 3, 3, -2, -2, 3, 3)),
    ("periodic", (-3, 1, 2, 3, 1, 3)),
    ("reducible", (2, 3, -3, 2, -1, 2, -1, 3, -3, -2)),
    ("pseudo_anosov", (-3, -1, -2, -2, 3, 3, 1, 1, 1, 3)),
    ("reducible", (1, -3, 2, 1, 3, 2, 1, 3, -1)),
    ("reducible", (-2, 3, 1, 2, 1, 3, 2, 1, 1, 1, -1, -3, 2)),
]


def _row(w: BraidWord) -> tuple:
    result = classify(w)
    span = round_span(result.curve) if result.curve is not None else None
    conjugator = format_word(result.conjugator) if result.conjugator is not None else None
    return result.kind, span, result.power, conjugator


def _digest(rows: list) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _digests(rows: list[tuple]) -> tuple[str, str]:
    """Hashes of the witnesses (kind, span, power) and of the conjugators."""
    return _digest([row[:3] for row in rows]), _digest([row[3] for row in rows])


def test_curated_words():
    rows = [_row(BraidWord(n, letters)) for n, letters in CURATED]
    assert [row[0] for row in rows] == ["periodic", "reducible", "pseudo_anosov"]
    assert _digest(rows) == "60bc25ca8bae10d627df183e919898d16b12f0820caabffda2b8963e337f6064"


def test_embedded_b3_words():
    rows = [_row(embed_standard(BraidWord(3, letters), 5)) for letters in EMBEDDED_B3]
    assert {row[0] for row in rows} == {"reducible"}
    assert _digests(rows) == (
        "91caa77feba1c045b4d2d71166a1d8486ac29aea9d481a7541f50c7c8ba4c6d6",
        "e55f87f0cc86609d12aa37721a13d92b1f63674ceaa1b5d333050ed4d2be3263",
    )


def test_conjugated_b4_words():
    rows = [_row(BraidWord(4, letters)) for _, letters in CONJUGATED_B4]
    assert [row[0] for row in rows] == [kind for kind, _ in CONJUGATED_B4]
    assert [row[2] for row in rows[-2:]] == [2, 2]
    assert _digests(rows) == (
        "36b24f2255d9b87f8adda4891126bd6aaf25462534e5c5367003890d5e64c8fa",
        "1b18422a9e3e12d758e5a496a5167c45ca886fe96d82c687fc02afec0273dd88",
    )


def _reference_is_periodic(w: BraidWord) -> bool:
    """The definition by word powers: w^n or w^(n-1) is a power of Delta."""
    n = w.strands
    if n == 1:
        return True
    for k in (n, n - 1):
        if k >= 1 and is_delta_power(concat(*([w] * k))) is not None:
            return True
    return False


def _random_word(rng: random.Random, n: int, length: int) -> BraidWord:
    return BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_is_periodic_matches_word_powers(n):
    """Random words, and conjugated powers of the two rotation braids so
    that both verdicts occur."""
    rng = random.Random(1000 + n)
    rotations = (tuple(range(1, n)), tuple(range(1, n)) + (1,))
    verdicts = set()
    for trial in range(60):
        if trial % 3:
            w = _random_word(rng, n, rng.randint(0, 8))
        else:
            root = BraidWord(n, rng.choice(rotations) * rng.randint(1, 3))
            c = _random_word(rng, n, rng.randint(0, 3))
            w = concat(c, root if rng.random() < 0.5 else invert_word(root), invert_word(c))
        expected = _reference_is_periodic(w)
        assert is_periodic(w) == expected, format_word(w)
        verdicts.add(expected)
    # B_2 is generated by Delta, so every braid in it is periodic.
    assert verdicts == ({True} if n == 2 else {True, False})
