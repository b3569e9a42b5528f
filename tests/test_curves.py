"""Free-group action, curve classes, periodicity, classification."""

from __future__ import annotations

import itertools
import math
import random
import time

import pytest
from conftest import braid_word_pairs, braid_words, free_words
from hypothesis import given, settings
from hypothesis import strategies as st

from braidkit import (
    BraidWord,
    CurveClass,
    FreeWord,
    ResourceLimitError,
    artin_action,
    classify,
    concat,
    curve_class_round,
    embed_general,
    embed_standard,
    equal_words,
    format_word,
    image_curve_class,
    invert_word,
    is_periodic,
    permutation_of_word,
    preserves_curve_class,
    random_word,
    round_span,
    super_summit_set,
)
from braidkit import curves
from braidkit.curves import (
    _canonical_cycle,
    _crossings_of_power,
    _cyclic_reduce,
    _least_rotation,
    _preserves_round_curve,
    _round_curves,
    _tube_ruled_out,
)
from braidkit.garside import _flip_key, _permutation_of_key, _powers, _simple_letters, _word_of_key


class TestFreeWord:
    def test_construction_reduces(self):
        assert FreeWord(3, (1, 2, -2, -1, 3)).letters == (3,)

    def test_nested_cancellation(self):
        assert FreeWord(2, (1, 2, -2, 1, -1, -1)).letters == ()

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            FreeWord(2, (3,))
        with pytest.raises(ValueError):
            FreeWord(2, (0,))

    def test_str(self):
        assert str(FreeWord(3, (1, 2, -1))) == "x1 x2 x1^-1"
        assert str(FreeWord(3)) == "1"

    @given(free_words())
    def test_inverse_cancels(self, g):
        product = FreeWord(g.rank, g.letters + g.inverse().letters)
        assert product.letters == ()

    @given(free_words())
    def test_reduced_invariant(self, g):
        assert all(a != -b for a, b in zip(g.letters, g.letters[1:]))


class TestArtinAction:
    def test_defining_rules(self):
        w = BraidWord(3, (1,))
        assert artin_action(w, FreeWord(3, (1,))).letters == (1, 2, -1)
        assert artin_action(w, FreeWord(3, (2,))).letters == (1,)
        assert artin_action(w, FreeWord(3, (3,))).letters == (3,)

    def test_inverse_rules(self):
        w = BraidWord(3, (-1,))
        assert artin_action(w, FreeWord(3, (1,))).letters == (2,)
        assert artin_action(w, FreeWord(3, (2,))).letters == (-2, 1, 2)

    def test_product_collapses(self):
        assert artin_action(BraidWord(3, (1,)), FreeWord(3, (1, 2))).letters == (1, 2)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            artin_action(BraidWord(3, (1,)), FreeWord(4, (1,)))

    def test_braid_relation_acts_identically(self):
        for k in (1, 2, 3):
            g = FreeWord(3, (k,))
            assert artin_action(BraidWord(3, (1, 2, 1)), g) == artin_action(
                BraidWord(3, (2, 1, 2)), g
            )

    @given(braid_words(max_strands=4, max_len=8))
    @settings(max_examples=60)
    def test_total_product_conserved(self, w):
        boundary = FreeWord(w.strands, tuple(range(1, w.strands + 1)))
        assert artin_action(w, boundary) == boundary

    @given(braid_word_pairs(max_strands=4, max_len=5), free_words(max_rank=3, max_len=4))
    @settings(max_examples=60)
    def test_composition(self, pair, g):
        u, v = pair
        g = FreeWord(u.strands, tuple(l for l in g.letters if abs(l) <= u.strands))
        assert artin_action(concat(u, v), g) == artin_action(v, artin_action(u, g))

    def test_inverse_action_undoes(self):
        w = random_word(4, 10, 3)
        g = FreeWord(4, (2, -3, 1))
        assert artin_action(concat(w, invert_word(w)), g) == g

    def test_image_guard(self):
        # (s1 s2^-1)^12 is pseudo-Anosov, so images grow without bound.
        w = BraidWord(3, (1, -2) * 12)
        with pytest.raises(ResourceLimitError):
            artin_action(w, FreeWord(3, (1,)), max_letters=50)


class TestCanonicalCycle:
    @given(st.lists(st.integers(-3, 3).filter(lambda x: x != 0), max_size=8))
    def test_least_rotation_is_minimal(self, letters):
        seq = tuple(letters)
        if not seq:
            return
        rotations = {seq[k:] + seq[:k] for k in range(len(seq))}
        from braidkit.curves import _letter_rank

        best = min(rotations, key=lambda rot: tuple(_letter_rank(l) for l in rot))
        assert _least_rotation(seq) == best

    def test_cyclic_reduce(self):
        assert _cyclic_reduce((1, 2, -1)) == (2,)
        assert _cyclic_reduce((1, -1)) == ()

    def test_orientation_ignored(self):
        forward = _canonical_cycle((1, 2, 3))
        backward = _canonical_cycle((-3, -2, -1))
        assert forward == backward


class TestCurveClass:
    def test_round_examples(self):
        assert curve_class_round(1, 2, 3).representative.letters == (1, 2)
        assert curve_class_round(2, 3, 4).representative.letters == (2, 3)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            curve_class_round(1, 3, 3)  # all punctures
        with pytest.raises(ValueError):
            curve_class_round(2, 2, 4)  # single puncture

    def test_trivial_loop_rejected(self):
        with pytest.raises(ValueError):
            CurveClass(3, FreeWord(3, (1, -1)))

    def test_matches_inverse(self):
        c1 = CurveClass(3, FreeWord(3, (1, 2)))
        c2 = CurveClass(3, FreeWord(3, (-2, -1)))
        assert c1 == c2

    def test_rotation_invariant(self):
        assert CurveClass(3, FreeWord(3, (2, 1))) == CurveClass(3, FreeWord(3, (1, 2)))

    def test_round_span(self):
        assert round_span(curve_class_round(2, 4, 5)) == (2, 4)
        assert round_span(CurveClass(3, FreeWord(3, (1, -2)))) is None


class TestPreservesCurveClass:
    def test_sigma1_preserves_its_circle(self):
        assert preserves_curve_class(BraidWord(3, (1,)), curve_class_round(1, 2, 3))

    def test_sigma2_moves_it(self):
        assert not preserves_curve_class(BraidWord(3, (2,)), curve_class_round(1, 2, 3))

    def test_embedded_words_preserve_boundary(self):
        boundary = curve_class_round(1, 3, 5)
        for seed in range(20):
            a = random_word(3, 9, seed)
            assert preserves_curve_class(embed_standard(a, 5), boundary)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            preserves_curve_class(BraidWord(4, (1,)), curve_class_round(1, 2, 3))

    @given(braid_word_pairs(min_strands=3, max_strands=4, max_len=5))
    @settings(max_examples=40)
    def test_equivariance_under_conjugation(self, pair):
        # The word g w g^-1 acts as act(g^-1) o act(w) o act(g) under the
        # left-to-right composition convention, so it preserves the image
        # of the curve under g^-1.
        w, g = pair
        curve = curve_class_round(1, 2, w.strands)
        conjugated = concat(g, w, invert_word(g))
        image = image_curve_class(invert_word(g), curve)
        assert preserves_curve_class(w, curve) == preserves_curve_class(conjugated, image)

    def test_equivariance_worked_example(self):
        # s2 s1 s2^-1 preserves the image of x1 x2 under s2^-1, the class
        # of x1 x3.
        conjugated = BraidWord(3, (2, 1, -2))
        image = image_curve_class(BraidWord(3, (-2,)), curve_class_round(1, 2, 3))
        assert image == CurveClass(3, FreeWord(3, (1, 3)))
        assert preserves_curve_class(conjugated, image)


class TestIsPeriodic:
    def test_rotation_braid(self):
        assert is_periodic(BraidWord(3, (1, 2)))

    def test_half_twist(self):
        assert is_periodic(BraidWord(3, (1, 2, 1)))

    def test_single_generator_is_not(self):
        assert not is_periodic(BraidWord(3, (1,)))

    def test_identity_and_b2(self):
        assert is_periodic(BraidWord(3))
        assert is_periodic(BraidWord(2, (1, 1, 1)))  # B_2 = <Delta>

    def test_other_rotation(self):
        # s1 s2 s1 has order 4 modulo the center in B_3? No: it *is* Delta,
        # and (s1 s2)^3 = Delta^2; both rotations are periodic.
        assert is_periodic(BraidWord(4, (1, 2, 3)))
        assert is_periodic(BraidWord(4, (1, 2, 3, 1)))


class TestClassify:
    def test_periodic(self):
        assert classify(BraidWord(3, (1, 2))).kind == "periodic"

    def test_reducible_generator(self):
        result = classify(BraidWord(3, (1,)))
        assert result.kind == "reducible"
        assert round_span(result.curve) == (1, 2)
        assert result.power == 1
        assert result.conjugator is not None

    def test_pseudo_anosov(self):
        assert classify(BraidWord(3, (1, -2))).kind == "pseudo_anosov"

    def test_needs_two_strands(self):
        with pytest.raises(ValueError):
            classify(BraidWord(1))

    def test_embedded_braids_are_reducible(self):
        count = 0
        for seed in range(200):
            a = random_word(3, 10, seed)
            if equal_words(a, BraidWord(3)):
                continue
            result = classify(embed_standard(a, 5))
            assert result.kind == "reducible", format_word(a)
            count += 1
            if count == 12:
                break
        assert count == 12

    def test_reducible_witness_reverifies(self):
        result = classify(embed_standard(BraidWord(3, (1, -2, 1, 1)), 5))
        assert result.kind == "reducible"
        witness_word = concat(
            result.conjugator,
            embed_standard(BraidWord(3, (1, -2, 1, 1)), 5),
            invert_word(result.conjugator),
        )
        power = concat(*([witness_word] * result.power))
        assert preserves_curve_class(power, result.curve)

    def test_classification_is_conjugacy_invariant(self):
        for seed in range(8):
            w = random_word(3, 6, seed)
            g = random_word(3, 5, seed + 777)
            conjugated = concat(g, w, invert_word(g))
            assert classify(w).kind == classify(conjugated).kind


def set_period(perm, punctures: set[int], n: int) -> int | None:
    """The orbit period of a puncture set, one Permutation image at a time."""
    current = punctures
    for k in range(1, n + 1):
        current = {perm(p) for p in current}
        if current == punctures:
            return k
    return None


def full_scan(w: BraidWord, spans=None):
    """classify's reducibility scan without its Delta-orbit and linking
    skips, as a reference: every round curve (or those of ``spans``),
    every summit element and every power whose Permutation-set period
    allows it, each element's powers as plain products. Returns (kind,
    span, power, conjugator letters)."""
    n = w.strands
    if is_periodic(w):
        return "periodic", None, None, None
    if spans is None:
        spans = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1) if j - i + 1 <= n - 1]
    sss = super_summit_set(w)
    perms = {key: permutation_of_word(BraidWord(n, _word_of_key(n, key))) for key in sss.keys}
    powers = {}
    for i, j in spans:
        for key in sss.keys:
            period = set_period(perms[key], set(range(i, j + 1)), n)
            if period is None:
                continue
            if key not in powers:
                powers[key] = _powers(n, key, n)
            for k in range(period, n + 1, period):
                if _preserves_round_curve(n, powers[key][k - 1], i, j):
                    return "reducible", (i, j), k, _word_of_key(n, sss.conjugator_key(key))
    return "pseudo_anosov", None, None, None


def scanned(w: BraidWord, **options):
    """What classify returns, in the form of full_scan."""
    r = classify(w, **options)
    if r.kind != "reducible":
        return r.kind, None, None, None
    return r.kind, round_span(r.curve), r.power, r.conjugator.letters


def penner(rng: random.Random, n: int = 4) -> BraidWord:
    """A Penner-type pseudo-Anosov B_n braid, conjugated by a short word:
    positive squares of the odd generators, negative squares of the even
    ones, every generator present."""
    while True:
        blocks = [rng.choice(range(1, n)) for _ in range(rng.randint(n - 1, n))]
        if set(blocks) == set(range(1, n)):
            break
    letters = [g if g % 2 else -g for g in blocks for _ in range(2)]
    c = random_word(n, rng.randint(1, 3), rng.randrange(2**32))
    return concat(c, BraidWord(n, tuple(letters)), invert_word(c))


def crossings_by_copies(n: int, letters, copies: int) -> list[list[int]]:
    """Signed crossing counts of ``copies`` copies of a word, one letter
    at a time: the reference for _crossings_of_power."""
    at = list(range(n))
    counts = [[0] * n for _ in range(n)]
    for letter in tuple(letters) * copies:
        t = abs(letter) - 1
        a, b = at[t], at[t + 1]
        counts[a][b] += 1 if letter > 0 else -1
        counts[b][a] += 1 if letter > 0 else -1
        at[t], at[t + 1] = b, a
    return counts


def order(perm: bytes) -> int:
    lengths = []
    for start in range(len(perm)):
        v, length = perm[start], 1
        while v != start:
            v, length = perm[v], length + 1
        lengths.append(length)
    return math.lcm(*lengths)


def shift(n: int, src: tuple[int, int], dst: tuple[int, int]) -> bytes:
    """The simple element that moves the punctures of span ``src``, in
    order, onto span ``dst`` (1-based, equal sizes) and keeps the order
    of the others, as 0-based images."""
    inside = list(range(src[0] - 1, src[1]))
    arranged = [v for v in range(n) if v not in inside]
    arranged[dst[0] - 1 : dst[0] - 1] = inside
    images = bytearray(n)
    for position, v in enumerate(arranged):
        images[v] = position
    return bytes(images)


class TestClassifyScanIsExact:
    """classify skips each round curve whose flip came earlier and each
    (curve, element) pair that linking numbers rule out, and walks every
    power up to n; its verdict, witness and conjugator must be those of
    the full scan, which walks only the powers that return the curve's
    punctures."""

    def test_penner_pseudo_anosov(self):
        rng = random.Random(5)
        for _ in range(6):
            w = penner(rng)
            assert scanned(w) == full_scan(w) == ("pseudo_anosov", None, None, None)

    def test_embedded_reducibles(self):
        found = 0
        for seed in range(40):
            a = random_word(3, 6, 300 + seed)
            if is_periodic(a):
                continue
            g = random_word(5, 2, 700 + seed)
            w = embed_general(a, 5, g)
            expected = full_scan(w)
            assert expected[0] == "reducible"
            assert scanned(w) == expected
            found += 1
        assert found >= 20

    @pytest.mark.parametrize(
        "letters",
        [(1, 3), (1, 3, 2, 2), (2, 2, 2), (2, 1, 3, 2, -1, -3), (1, 3, -2), (-1, -3, 2, 2, 2)],
    )
    def test_summit_sets_with_tau_fixed_elements(self, letters):
        w = BraidWord(4, letters)
        assert any(_flip_key(4, key) == key for key in super_summit_set(w).keys)
        assert scanned(w) == full_scan(w)

    @pytest.mark.parametrize("n", [5, 6])
    def test_penner_and_embedded_words_in_b5_and_b6(self, n):
        """Beyond B_4 a permutation can have order above 4, so a curve's
        punctures can take up to n powers to return, or in B_5 never
        return (a 2-cycle with a 3-cycle has order 6); classify walks
        every power while the full scan walks only multiples of the
        period. Words with summit sets over 600 elements are passed
        over to keep the test short."""
        rng = random.Random(40 + n)
        checked = 0
        while checked < 10:
            w = (penner, reducibles)[checked % 2](rng, n)
            try:
                got = scanned(w, max_sss=600)
            except ResourceLimitError:
                continue
            assert got == full_scan(w)
            checked += 1

    @pytest.mark.parametrize("twist", [(1, 2), (-1, -2)])
    def test_a_first_hit_at_power_n(self, twist):
        """Two tubes of three punctures swapped, with a rotation of one
        of them: the square rotates each tube, so of the powers up to 6
        only the sixth maps the round curve (1, 2), inside a tube, to
        itself, and the scan must walk powers up to n."""
        swap = (3, 2, 4, 1, 3, 5, 2, 4, 3)
        w = BraidWord(6, swap + twist)
        assert scanned(w)[:3] == ("reducible", (1, 2), 6)
        assert scanned(w) == full_scan(w)

    @pytest.mark.parametrize(
        "letters, repeated_before, witness_fixed",
        [
            ((2, 2, 2), 0, True),
            ((1, 2, 3, 2, 1, 2, 2), 0, True),
            ((1, 2, 1, 2, 2), 0, False),
            ((-3, -3, -2, 1, -2), 1, False),
            ((-2, -1, -1, -2, 1), 2, False),
            ((-1, 1, 3, 2, 2, 3, -2), 4, False),
        ],
    )
    def test_on_the_self_flip_curve(self, monkeypatch, letters, repeated_before, witness_fixed):
        """Both scans restricted to (2, 3), the round curve of B_4 equal
        to its flip. No B_4 word was found whose first hit lies there
        (each had one on (1, 2) or (1, 3) first), so only the restriction
        puts the witness there. ``repeated_before`` counts the elements
        before the witness that follow their flip and whose punctures can
        return: classify tests them on (2, 3) after their twin had no hit
        there."""
        real = curves._round_curves
        monkeypatch.setattr(curves, "_round_curves", lambda n: [span for span in real(n) if span == (2, 3)])
        w = BraidWord(4, letters)
        expected = full_scan(w, spans=[(2, 3)])
        assert expected[:2] == ("reducible", (2, 3))
        assert scanned(w) == expected
        sss = super_summit_set(w)
        witness = next(k for k in sss.keys if _word_of_key(4, sss.conjugator_key(k)) == expected[3])
        repeated = [
            key
            for key in sss.keys[: sss.keys.index(witness)]
            if _flip_key(4, key) < key
            and set_period(permutation_of_word(BraidWord(4, _word_of_key(4, key))), {2, 3}, 4)
        ]
        assert len(repeated) == repeated_before
        assert (_flip_key(4, witness) == witness) == witness_fixed


class TestOneTubeTestPerStrandSet:
    def test_each_strand_set_is_tested_once(self, monkeypatch):
        """On a seeded pseudo-Anosov B_5 word, whose scan meets every
        (curve, element) pair, classify runs the linking-number test once
        per distinct set of w's strands inside a curve, with that set."""
        w = penner(random.Random(55), 5)
        sss = super_summit_set(w)
        pairs = [(i, j, key) for i, j in _round_curves(5) if i + j <= 6 for key in sss.keys]
        met = {frozenset(sss.conjugator_permutation(key)[i - 1 : j]) for i, j, key in pairs}
        calls = []
        real = curves._tube_ruled_out

        def counted(crossings, inside):
            calls.append(frozenset(inside))
            return real(crossings, inside)

        monkeypatch.setattr(curves, "_tube_ruled_out", counted)
        assert classify(w).kind == "pseudo_anosov"
        assert len(calls) == len(set(calls)) and set(calls) == met
        assert (len(pairs), len(met)) == (2880, 25)


class TestRoundImages:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_simple_element_against_the_free_group_action(self, n):
        """A simple element maps the round curve around i..j to a round
        curve exactly when its permutation maps i..j onto an interval,
        and the image is the curve around that interval. The factor walk
        is compared with image_curve_class on every simple element s and
        round curve: it is run on s followed by a factor that moves each
        round span D of the curve's size back onto (i, j), and must report
        the curve preserved exactly when s maps it to the curve around D."""
        for images in itertools.permutations(range(n)):
            s = bytes(images)
            word = BraidWord(n, _simple_letters(n, s))
            for i, j in _round_curves(n):
                image = round_span(image_curve_class(word, curve_class_round(i, j, n)))
                for a in range(1, n + 1 - (j - i)):
                    d = (a, a + j - i)
                    assert _preserves_round_curve(n, (0, s + shift(n, d, (i, j))), i, j) == (image == d)


class TestCrossingsOfPower:
    def test_orbit_sums_match_the_m_fold_count(self):
        rng = random.Random(3)
        checked = 0
        while checked < 200:
            n = rng.randint(2, 6)
            w = random_word(n, rng.randint(0, 12), rng.randrange(2**32))
            perm = bytes(v - 1 for v in permutation_of_word(w).images)
            m = order(perm)
            assert _crossings_of_power(n, w.letters, perm) == crossings_by_copies(n, w.letters, m)
            checked += 1

    def test_order_2310_on_30_strands(self):
        """Cycles of lengths 2, 3, 5, 7 and 11: the reference walks 2,310
        copies of the word, the orbit sums walk one."""
        letters: list[int] = []
        start = 1
        for length in (2, 3, 5, 7, 11):
            letters += range(start, start + length - 1)
            start += length
        w = BraidWord(30, tuple(letters))
        perm = bytes(v - 1 for v in permutation_of_word(w).images)
        assert order(perm) == 2310
        began = time.perf_counter()
        counts = _crossings_of_power(30, w.letters, perm)
        elapsed = time.perf_counter() - began
        assert counts == crossings_by_copies(30, w.letters, 2310)
        assert elapsed < 0.5


def reducibles(rng: random.Random, n: int) -> BraidWord:
    """A B_m word embedded in B_n around a random puncture interval and
    conjugated by a short word."""
    while True:
        m = rng.randint(2, n - 1)
        a = random_word(m, rng.randint(2, 6), rng.randrange(2**32))
        if a.letters:
            return embed_general(a, n, random_word(n, rng.randint(1, 3), rng.randrange(2**32)))


def periodics(rng: random.Random, n: int) -> BraidWord:
    """A nonzero power of sigma_1..sigma_{n-1} or of sigma_1..sigma_{n-1}
    sigma_1, conjugated by a short word."""
    root = tuple(range(1, n)) + rng.choice(((), (1,)))
    k = rng.choice((-1, 1)) * rng.randint(1, n)
    letters = root * k if k > 0 else tuple(-g for g in reversed(root)) * -k
    c = random_word(n, rng.randint(1, 3), rng.randrange(2**32))
    return concat(c, BraidWord(n, letters), invert_word(c))


class TestLinkingSkipIsSound:
    """classify passes over a (round curve, summit element) pair when the
    crossing counts of the element's pure power rule out a tube around
    the curve. For every pair that the test rules out, no power k <= n
    may preserve the curve, and classify must return what the full scan
    does."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("make", [penner, reducibles, periodics])
    def test_ruled_out_pairs_have_no_hit(self, n, make):
        rng = random.Random(100 * n + len(make.__name__))
        ruled_out = 0
        for _ in range(4):
            w = make(rng, n)
            sss = super_summit_set(w)
            crossings = _crossings_of_power(n, w.letters, _permutation_of_key(n, sss.word_key))
            for key in sss.keys:
                track = sss.conjugator_permutation(key)
                assert track == _permutation_of_key(n, sss.conjugator_key(key))
                powers = _powers(n, key, n)
                for i, j in _round_curves(n):
                    if _tube_ruled_out(crossings, track[i - 1 : j]):
                        ruled_out += 1
                        assert not any(_preserves_round_curve(n, x, i, j) for x in powers)
            assert scanned(w) == full_scan(w)
        if make is penner:
            assert ruled_out
