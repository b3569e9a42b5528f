"""Braid word model: inversion, exponent sums, permutations, RNG, text format."""

from __future__ import annotations

import pytest
from conftest import braid_word_pairs, braid_words, rewritten_equivalent
from hypothesis import given
from hypothesis import strategies as st

from braidkit import (
    BraidWord,
    Permutation,
    SplitMix64,
    concat,
    exponent_sum,
    format_word,
    invert_word,
    parse_word,
    permutation_of_word,
    random_letters,
    random_word,
)


class TestBraidWord:
    def test_letters_coerced_to_tuple(self):
        assert BraidWord(3, [1, -2]).letters == (1, -2)

    def test_empty_word_is_valid(self):
        assert len(BraidWord(3)) == 0

    @pytest.mark.parametrize("letters", [(0,), (3,), (-3,)])
    def test_out_of_range_letters_rejected(self, letters):
        with pytest.raises(ValueError):
            BraidWord(3, letters)

    def test_single_strand_group_is_trivial(self):
        assert BraidWord(1).letters == ()
        with pytest.raises(ValueError):
            BraidWord(1, (1,))

    def test_strand_count_mismatch_in_concat(self):
        with pytest.raises(ValueError):
            concat(BraidWord(3, (1,)), BraidWord(4, (1,)))


class TestInvertWord:
    def test_reverse_and_flip(self):
        assert invert_word(BraidWord(3, (1, -2))).letters == (2, -1)

    def test_empty(self):
        assert invert_word(BraidWord(3)).letters == ()

    def test_positive_pair(self):
        assert invert_word(BraidWord(2, (1, 1))).letters == (-1, -1)

    @given(braid_words())
    def test_involution(self, w):
        assert invert_word(invert_word(w)) == w


class TestExponentSum:
    def test_examples(self):
        assert exponent_sum(BraidWord(3, (1, 2, -1))) == 1
        assert exponent_sum(BraidWord(3, (1, 2, 1))) == 3
        assert exponent_sum(BraidWord(3)) == 0

    @given(braid_word_pairs())
    def test_additive_on_concat(self, pair):
        u, v = pair
        assert exponent_sum(concat(u, v)) == exponent_sum(u) + exponent_sum(v)

    @given(braid_words())
    def test_negated_by_inversion(self, w):
        assert exponent_sum(invert_word(w)) == -exponent_sum(w)


class TestPermutationOfWord:
    def test_single_generator(self):
        assert permutation_of_word(BraidWord(3, (1,))).images == (2, 1, 3)

    def test_two_letters(self):
        assert permutation_of_word(BraidWord(3, (2, 1))).images == (2, 3, 1)

    def test_half_twist_reverses(self):
        assert permutation_of_word(BraidWord(3, (1, 2, 1))).images == (3, 2, 1)
        assert permutation_of_word(BraidWord(4, (1, 2, 1, 3, 2, 1))).images == (4, 3, 2, 1)

    def test_signs_are_irrelevant(self):
        assert permutation_of_word(BraidWord(3, (-1, 2))) == permutation_of_word(
            BraidWord(3, (1, -2))
        )

    @given(braid_word_pairs())
    def test_homomorphism(self, pair):
        u, v = pair
        uv = permutation_of_word(concat(u, v))
        pu = permutation_of_word(u)
        pv = permutation_of_word(v)
        assert uv.images == tuple(pv(pu(k)) for k in range(1, u.strands + 1))

    @given(braid_words(), st.integers(0, 2**32))
    def test_invariant_under_relation_rewrites(self, w, seed):
        rewritten = rewritten_equivalent(w, SplitMix64(seed), steps=8)
        assert permutation_of_word(rewritten) == permutation_of_word(w)
        assert exponent_sum(rewritten) == exponent_sum(w)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation(3, (1, 1, 2))

    def test_inverse(self):
        assert Permutation(3, (2, 3, 1)).inverse().images == (3, 1, 2)

    def test_cycle_type(self):
        assert Permutation(3, (2, 3, 1)).cycle_type() == (3,)
        assert Permutation(4, (2, 1, 4, 3)).cycle_type() == (2, 2)
        assert Permutation(3, (1, 2, 3)).cycle_type() == (1, 1, 1)


class TestRandomWord:
    def test_zero_length(self):
        assert random_word(3, 0, 99).letters == ()

    def test_deterministic(self):
        assert random_word(3, 5, 7) == random_word(3, 5, 7)

    def test_seeds_differ(self):
        differing = sum(
            random_word(3, 5, s) != random_word(3, 5, s + 1) for s in range(100)
        )
        assert differing >= 95

    def test_letters_in_range(self):
        w = random_word(4, 200, 3)
        assert all(1 <= abs(l) <= 3 for l in w.letters)
        # All six signed generators should show up in 200 draws.
        assert {abs(l) for l in w.letters} == {1, 2, 3}
        assert {l > 0 for l in w.letters} == {True, False}

    def test_too_few_strands(self):
        for length in (1, 5):
            with pytest.raises(ValueError, match="at least 2 strands"):
                random_word(1, length, 0)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_zero_letters_in_b1(self, seed):
        """B_1 has only the empty word, and drawing it takes nothing
        from the stream."""
        assert random_word(1, 0, seed) == BraidWord(1)
        rng = SplitMix64(seed)
        assert random_letters(rng, 1, 0) == ()
        assert rng.state == SplitMix64(seed).state


class TestTextFormat:
    @pytest.mark.parametrize(
        "text, strands, letters",
        [
            ("3: 1 2 -1", 3, (1, 2, -1)),
            ("3:", 3, ()),
            ("  2 :  1   1 ", 2, (1, 1)),
        ],
    )
    def test_parse(self, text, strands, letters):
        w = parse_word(text)
        assert (w.strands, w.letters) == (strands, letters)

    @pytest.mark.parametrize("text", ["", "3", "3: x", "a: 1", "3: 0", "3: 5"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_word(text)

    @given(braid_words())
    def test_round_trip(self, w):
        assert parse_word(format_word(w)) == w

    def test_format_examples(self):
        assert format_word(BraidWord(3, (1, 2, -1))) == "3: 1 2 -1"
        assert format_word(BraidWord(5)) == "5:"
