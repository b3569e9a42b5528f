"""Geometric embeddings: homomorphism, injectivity, conjugacy transfer."""

from __future__ import annotations

import pytest
from conftest import braid_word_pairs
from hypothesis import given

from braidkit import (
    BraidWord,
    ResourceLimitError,
    are_conjugate,
    concat,
    embed_general,
    embed_standard,
    equal_words,
    invert_word,
    is_in_standard_image,
    random_word,
)


class TestEmbedStandard:
    def test_letters_unchanged(self):
        assert embed_standard(BraidWord(2, (1, 1, 1)), 4) == BraidWord(4, (1, 1, 1))

    def test_identity_to_identity(self):
        assert embed_standard(BraidWord(2), 5) == BraidWord(5)

    def test_same_count_is_identity_map(self):
        w = BraidWord(3, (1, -2))
        assert embed_standard(w, 3) == w

    def test_smaller_target_rejected(self):
        with pytest.raises(ValueError):
            embed_standard(BraidWord(4, (3,)), 3)

    @given(braid_word_pairs(max_strands=4))
    def test_homomorphism(self, pair):
        u, v = pair
        n = u.strands + 2
        assert embed_standard(concat(u, v), n) == concat(
            embed_standard(u, n), embed_standard(v, n)
        )

    def test_injectivity_on_samples(self):
        for seed in range(25):
            u = random_word(3, 7, seed)
            v = random_word(3, 7, seed + 4000)
            assert equal_words(u, v) == equal_words(embed_standard(u, 5), embed_standard(v, 5))


class TestEmbedGeneral:
    def test_identity_conjugator(self):
        w = BraidWord(2, (1, -1, 1))
        assert embed_general(w, 3, BraidWord(3)) == embed_standard(w, 3)

    def test_definition(self):
        assert embed_general(BraidWord(2, (1,)), 3, BraidWord(3, (2,))) == BraidWord(
            3, (-2, 1, 2)
        )

    def test_conjugator_strand_mismatch(self):
        with pytest.raises(ValueError):
            embed_general(BraidWord(2, (1,)), 3, BraidWord(4, (2,)))

    def test_homomorphism_in_w_for_fixed_g(self):
        g = BraidWord(4, (2, -3))
        u = BraidWord(3, (1, 2))
        v = BraidWord(3, (-2, 1))
        lhs = embed_general(concat(u, v), 4, g)
        rhs = concat(embed_general(u, 4, g), embed_general(v, 4, g))
        assert equal_words(lhs, rhs)

    def test_conjugacy_verdict_matches_standard(self):
        g = random_word(4, 6, 123)
        for seed in range(12):
            a = random_word(2, 6, seed)
            b = random_word(2, 6, seed + 900)
            standard = are_conjugate(embed_standard(a, 4), embed_standard(b, 4))
            general = are_conjugate(embed_general(a, 4, g), embed_general(b, 4, g))
            assert (standard is None) == (general is None)


class TestConjugacyTransfer:
    def test_certificate_embeds(self):
        for seed in range(12):
            a = random_word(3, 6, seed)
            g = random_word(3, 5, seed + 50)
            b = concat(g, a, invert_word(g))
            cert = are_conjugate(a, b)
            assert cert is not None
            embedded_c = embed_standard(cert.conjugator, 5)
            ea, eb = embed_standard(a, 5), embed_standard(b, 5)
            assert equal_words(concat(embedded_c, ea, invert_word(embedded_c)), eb)


class TestIsInStandardImage:
    def test_embedded_generator(self):
        assert is_in_standard_image(BraidWord(3, (1,)), 2)

    def test_sigma2_is_outside(self):
        assert not is_in_standard_image(BraidWord(3, (2,)), 2)

    def test_full_twist_is_outside(self):
        delta2 = BraidWord(3, (1, 2, 1, 1, 2, 1))
        assert not is_in_standard_image(delta2, 2)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            is_in_standard_image(BraidWord(3, (1,)), 4)
        with pytest.raises(ValueError):
            is_in_standard_image(BraidWord(3, (1,)), 0)

    def test_all_embedded_samples_pass(self):
        for seed in range(30):
            m = 2 + seed % 3
            a = random_word(m, 8, seed)
            assert is_in_standard_image(embed_standard(a, m + 2), m)

    def test_whole_group_membership_is_trivial(self):
        assert is_in_standard_image(BraidWord(3, (2, -1)), 3)

    def test_image_growth_is_capped(self):
        # Free-group images of this pseudo-Anosov word grow exponentially.
        with pytest.raises(ResourceLimitError):
            is_in_standard_image(BraidWord(3, (1, -2) * 16), 2)
