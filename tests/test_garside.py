"""Garside engine: normal forms, cycling, summit sets, conjugacy."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import math
import random
from collections import deque

import pytest
from conftest import artin_oracle_equal, braid_word_pairs, braid_words, rewritten_equivalent
from hypothesis import given, settings
from hypothesis import strategies as st

from braidkit import (
    BraidWord,
    NormalForm,
    Permutation,
    ResourceLimitError,
    SimpleElement,
    SplitMix64,
    are_conjugate,
    classify,
    concat,
    cycling,
    delta_simple,
    divisor_sets,
    equal_words,
    exponent_sum,
    format_word,
    invert_word,
    is_delta_power,
    normal_form,
    parse_word,
    permutation_of_word,
    random_word,
    super_summit_set,
)
from braidkit import _kernel, _native, garside
from braidkit._native import _inverse, _tau_flat
from braidkit.garside import (
    DEFAULT_SSS_LIMIT,
    _assemble,
    _cycle_key,
    _decycle_key,
    _drive_to_summit,
    _flip_edges,
    _flip_key,
    _letter_items,
    _letters_to_factors,
    _mul,
    _nf_of_word,
    _permutation_of_key,
    _summit_closure,
    _word_of_key,
)


def delta_word(n: int) -> BraidWord:
    return delta_simple(n).word()


class TestDeltaSimple:
    def test_two_strands(self):
        d = delta_simple(2)
        assert d.perm.images == (2, 1)
        assert d.word() == BraidWord(2, (1,))

    def test_three_strands(self):
        d = delta_simple(3)
        assert d.perm.images == (3, 2, 1)
        assert d.word() == BraidWord(3, (1, 2, 1))
        # an honest reduced word: length equals the inversion count
        assert len(d.word()) == 3

    def test_one_strand_degenerate(self):
        d = delta_simple(1)
        assert d.perm.images == (1,)
        assert d.word() == BraidWord(1)

    def test_beyond_the_kernel_limit(self):
        """The views of a simple element refuse 300 strands with the
        kernel's limit, as words and normal forms do, and work at 255."""
        d = delta_simple(300)
        views = (d.word, d.starting_set, d.finishing_set, lambda: divisor_sets(d))
        for read in views:
            with pytest.raises(ValueError, match="limit of 255 strands"):
                read()
        w = delta_simple(255).word()
        assert len(w) == 255 * 254 // 2
        assert divisor_sets(delta_simple(255)) == (frozenset(range(1, 255)),) * 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            delta_simple(0)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_word_realizes_reversal(self, n):
        assert permutation_of_word(delta_word(n)).images == tuple(range(n, 0, -1))


class TestDivisorSets:
    def test_delta_has_everything(self):
        s, f = divisor_sets(delta_simple(3))
        assert s == f == {1, 2}

    def test_two_letter_simple(self):
        s, f = divisor_sets(SimpleElement(Permutation(3, (2, 3, 1))))
        assert (s, f) == (frozenset({2}), frozenset({1}))

    def test_identity_empty(self):
        s, f = divisor_sets(SimpleElement(Permutation(3, (1, 2, 3))))
        assert s == f == frozenset()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_starting_set_matches_front_stripping(self, n):
        # i is in S(s) iff stripping sigma_i off the front leaves a
        # permutation braid, i.e. drops the inversion count by one.
        def inversions(images):
            return sum(
                1 for a, b in itertools.combinations(range(n), 2) if images[a] > images[b]
            )

        for images in itertools.permutations(range(1, n + 1)):
            element = SimpleElement(Permutation(n, images))
            starting, _ = divisor_sets(element)
            for i in range(1, n):
                stripped = list(images)
                stripped[i - 1], stripped[i] = stripped[i], stripped[i - 1]
                drops = inversions(stripped) == inversions(images) - 1
                assert drops == (i in starting)


class TestNormalForm:
    def test_full_twist_in_b2(self):
        nf = normal_form(BraidWord(2, (1, 1)))
        assert (nf.delta_power, nf.factors) == (2, ())

    def test_delta_times_sigma2(self):
        nf = normal_form(BraidWord(3, (1, 2, 1, 2)))
        assert nf.delta_power == 1
        assert [f.perm.images for f in nf.factors] == [(1, 3, 2)]

    def test_two_letters_merge_into_one_factor(self):
        nf = normal_form(BraidWord(3, (2, 1)))
        assert nf.delta_power == 0
        assert [f.perm.images for f in nf.factors] == [(2, 3, 1)]

    def test_free_cancellation(self):
        nf = normal_form(BraidWord(3, (1, -1)))
        assert (nf.delta_power, nf.factors) == (0, ())

    def test_inf_sup_length(self):
        nf = normal_form(BraidWord(3, (1, 2, 2)))
        assert (nf.inf, nf.sup, nf.canonical_length) == (0, 2, 2)

    def test_str_format(self):
        assert str(normal_form(BraidWord(3, (1, 2, 1, 2)))) == "D^1 | (1 3 2)"
        assert str(normal_form(BraidWord(3, (1, -1)))) == "D^0"

    def test_word_round_trips(self):
        for seed in range(30):
            w = random_word(4, seed % 11, seed)
            assert equal_words(normal_form(w).word(), w)

    @given(braid_words(), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_constant_on_rewrite_classes(self, w, seed):
        assert normal_form(rewritten_equivalent(w, SplitMix64(seed), 10)) == normal_form(w)


class TestEqualWords:
    def test_braid_relation(self):
        assert equal_words(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))

    def test_far_generators_differ(self):
        assert not equal_words(BraidWord(3, (1, 2)), BraidWord(3, (2, 1)))

    def test_free_insertion(self):
        w = BraidWord(3, (2, -1))
        assert equal_words(w, concat(w, BraidWord(3, (1, -1))))

    def test_strand_mismatch(self):
        with pytest.raises(ValueError):
            equal_words(BraidWord(3, (1,)), BraidWord(4, (1,)))

    @given(braid_word_pairs(max_strands=4, max_len=6))
    @settings(max_examples=60)
    def test_agrees_with_faithful_action(self, pair):
        u, v = pair
        assert equal_words(u, v) == artin_oracle_equal(u, v)


class TestGarsideIdentities:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_delta_conjugation_flips_generators(self, n):
        d = delta_word(n)
        for i in range(1, n):
            left = concat(d, BraidWord(n, (i,)), invert_word(d))
            assert equal_words(left, BraidWord(n, (n - i,)))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_full_twist_is_central(self, n):
        twist = concat(delta_word(n), delta_word(n))
        for i in range(1, n):
            gen = BraidWord(n, (i,))
            assert equal_words(concat(twist, gen), concat(gen, twist))


class TestIsDeltaPower:
    def test_full_twist(self):
        assert is_delta_power(concat(delta_word(3), delta_word(3))) == 2

    def test_exponent_six_is_not_enough(self):
        assert is_delta_power(BraidWord(3, (1,) * 6)) is None

    def test_identity(self):
        assert is_delta_power(BraidWord(3)) == 0

    def test_negative_power(self):
        assert is_delta_power(invert_word(delta_word(4))) == -1


class TestCycling:
    def test_absorbs_into_delta(self):
        x = normal_form(BraidWord(3, (1, 2, 2)))
        y, conj = cycling(x, "front")
        assert (y.delta_power, y.factors) == (1, ())
        assert equal_words(concat(conj, BraidWord(3, (1, 2, 2)), invert_word(conj)), y.word())

    def test_power_of_generator_is_fixed(self):
        x = normal_form(BraidWord(3, (1, 1)))
        y, conj = cycling(x, "front")
        assert y == x
        assert equal_words(concat(conj, x.word(), invert_word(conj)), x.word())

    def test_pure_delta_power_is_noop(self):
        x = normal_form(concat(delta_word(3), delta_word(3)))
        for direction in ("front", "back"):
            y, conj = cycling(x, direction)
            assert y == x
            assert conj == BraidWord(3)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            cycling(normal_form(BraidWord(3, (1,))), "sideways")

    @given(braid_words(max_strands=4, max_len=7), st.sampled_from(["front", "back"]))
    @settings(max_examples=60)
    def test_conjugator_verifies(self, w, direction):
        x = normal_form(w)
        y, conj = cycling(x, direction)
        assert equal_words(concat(conj, w, invert_word(conj)), y.word())


class TestSuperSummitSet:
    def test_single_generator(self):
        sss = super_summit_set(BraidWord(3, (1,)))
        assert [str(e) for e in sss.elements] == ["D^0 | (1 3 2)", "D^0 | (2 1 3)"]
        assert all(e.inf == 0 and e.sup == 1 for e in sss)

    def test_full_twist_is_alone(self):
        sss = super_summit_set(concat(delta_word(3), delta_word(3)))
        assert [str(e) for e in sss.elements] == ["D^2"]

    def test_identity(self):
        sss = super_summit_set(BraidWord(3))
        assert [str(e) for e in sss.elements] == ["D^0"]

    def test_conjugators_verify(self):
        w = random_word(4, 8, 11)
        sss = super_summit_set(w)
        for element in sss:
            conj = sss.conjugators[element]
            assert equal_words(concat(conj, w, invert_word(conj)), element.word())

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError) as info:
            super_summit_set(BraidWord(3, (1, 1, 1)), max_size=1)
        assert info.value.partial_count == 1
        # A closure that passes the cap has kept exactly max_size vertices.
        w = random_word(4, 8, 0)
        size = len(super_summit_set(w))
        for cap in (1, 2, size // 2, size - 1):
            with pytest.raises(ResourceLimitError) as info:
                super_summit_set(w, max_size=cap)
            assert info.value.partial_count == cap
        assert len(super_summit_set(w, max_size=size)) == size

    def test_cap_below_one_is_rejected(self):
        for cap in (0, -3):
            with pytest.raises(ValueError, match="max_sss must be >= 1"):
                super_summit_set(BraidWord(3), max_size=cap)
            with pytest.raises(ValueError, match="max_sss must be >= 1"):
                are_conjugate(BraidWord(3, (1,)), BraidWord(3, (1,)), max_sss=cap)
            with pytest.raises(ValueError, match="max_sss must be >= 1"):
                classify(BraidWord(3, (1, 2)), max_sss=cap)

    def test_deterministic(self):
        w = random_word(4, 9, 5)
        first = super_summit_set(w)
        second = super_summit_set(w)
        assert first.elements == second.elements
        assert first.conjugators == second.conjugators

    def test_golden(self):
        """Elements in canonical order and their conjugator words, for 30
        seeded words in B_3..B_5 (668 elements, each set under 1 s on the
        pure-Python backend), pinned by two hashes. The element hash must
        never change. The conjugator hash follows the closure's walk
        order, because a conjugator is the track of the path that first
        reached its element; it was re-pinned when the closure moved to
        minimal simple elements, and when keys with a negative Delta
        power came to be spelled as D^-1 P (garside._word_of_key)."""
        elements, conjugators = [], []
        for n, length in ((3, 8), (4, 8), (5, 6)):
            for seed in range(10):
                sss = super_summit_set(random_word(n, length, seed))
                elements.append([str(e) for e in sss.elements])
                conjugators.append([format_word(sss.conjugators[e]) for e in sss.elements])
        digest = hashlib.sha256(repr(elements).encode()).hexdigest()
        assert digest == "84e34035c221935412dfa6d5b37d5862c20aacd097cd1412385eb7594a117e6e"
        digest = hashlib.sha256(repr(conjugators).encode()).hexdigest()
        assert digest == "bd1e8f9bdfc470bc200d846a335c61c2892dce297ad271eb80901124aaba4466"

    def test_pairs_and_equality(self):
        """On the golden words, the (element, conjugator) key pairs are
        pinned by a hash, and two sets are equal exactly when their words
        are the same braid: a second spelling of a word gives an equal,
        equally hashed set, and the 30 words give 30 different sets."""
        sets, pairs = [], []
        for n, length in ((3, 8), (4, 8), (5, 6)):
            for seed in range(10):
                w = random_word(n, length, seed)
                sss = super_summit_set(w)
                respelt = super_summit_set(concat(w, BraidWord(n, (1, -1))))
                assert sss == respelt and hash(sss) == hash(respelt)
                sets.append(sss)
                pairs.append(sss.pairs)
        digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
        assert digest == "7e0cf6f340a29747a48dad5b57895a24112619e915ee8fdac935143c2150357a"
        assert all(a != b for a, b in itertools.combinations(sets, 2))

    def test_a_wrong_conjugate_fails_its_edge(self, monkeypatch):
        """A kernel that answers a conjugation with another summit element,
        the flip tau of the right one, is caught by the edge check inside
        super_summit_set, before any conjugator is built."""
        honest = _kernel.conjugate_batch

        def flipped(n, p, flat, simples):
            return [(q, _tau_flat(n, f)) for q, f in honest(n, p, flat, simples)]

        w = parse_word("4: 2 1 1 -2 -2 3 3 -1 -2")
        monkeypatch.setattr(_kernel, "conjugate_batch", flipped)
        with pytest.raises(RuntimeError, match="summit edge failed verification"):
            super_summit_set(w)

    def test_conjugators_are_reverified_on_read(self):
        """A conjugator is checked against the word when it is built: a set
        whose seed track is wrong raises on reading pairs or a conjugator."""
        sss = super_summit_set(parse_word("4: 2 1 1 -2 -2 3 3 -1 -2"))
        broken = dataclasses.replace(sss, seed_track=(0, b""))
        assert len(broken) == 62
        with pytest.raises(RuntimeError, match="summit conjugator failed verification"):
            broken.pairs
        with pytest.raises(RuntimeError, match="summit conjugator failed verification"):
            broken.conjugator_key(broken.keys[0])
        assert sss.conjugator_key(sss.keys[-1]) == sss.pairs[-1][1]

    def test_multiply_counts(self, monkeypatch):
        """Exact kernel products for a 62-element set, which show that
        neither len() nor classify builds the conjugator pairs. The set
        takes 136: 12 conjugator products while driving w to the summit,
        2 to verify the seed's conjugator, 2 per edge for the other 61
        elements. Reading pairs adds 185: 61 conjugator products and 2
        verification products per element. classify takes 205: 3 for the
        powers in is_periodic, the set's 136, and powers up to 4 of 22
        elements, 3 products each: the 14 that linking numbers leave on
        (1, 2), and the 8 they leave on (2, 3). The result is
        pseudo-Anosov, so no witness conjugator is built. The closure
        expands one vertex of each pair {x, tau(x)}: 31 conjugate_batch
        calls, 61 conjugations."""
        calls = []
        batches = []
        multiply = _kernel.multiply
        conjugate_batch = _kernel.conjugate_batch

        def counted(*args):
            calls.append(args)
            return multiply(*args)

        def counted_batch(n, p, flat, simples):
            batches.append(len(simples))
            return conjugate_batch(n, p, flat, simples)

        monkeypatch.setattr(_kernel, "multiply", counted)
        monkeypatch.setattr(_kernel, "conjugate_batch", counted_batch)
        w = parse_word("4: 2 1 1 -2 -2 3 3 -1 -2")
        sss = super_summit_set(w)
        assert (len(sss), len(calls)) == (62, 136)
        assert (len(batches), sum(batches)) == (31, 61)
        sss.pairs
        assert len(calls) == 136 + 185
        calls.clear()
        assert classify(w).kind == "pseudo_anosov"
        assert len(calls) == 205


def _minimal_simples(n, key, memo, kernel=_kernel):
    """The minimal simple elements of the summit element ``key``."""
    return kernel.minimal_simples(n, *key, memo)


def _expand_every_vertex(n, seed, max_size):
    """The summit closure as it was before twins were read off by the
    flip: every vertex is expanded by its minimal simple elements and one
    conjugate_batch call. The reference for the walk's edges and cap."""
    memo = {}
    yield seed, None, None
    seen = {seed}
    queue = deque([seed])
    while queue:
        key = queue.popleft()
        simples = _minimal_simples(n, key, memo)
        for s, result in zip(simples, _kernel.conjugate_batch(n, key[0], key[1], simples)):
            if result in seen:
                continue
            yield result, key, s
            if len(seen) >= max_size:
                raise ResourceLimitError("super summit set exceeded its cap", len(seen))
            seen.add(result)
            queue.append(result)


def _tree_edges(n, seed, cap):
    """The summit closure's vertices, each as the edge (key, parent, s)
    that the walk stored for it in its tree."""
    tree = {}
    for key in _summit_closure(n, seed, cap, tree):
        yield (key, *tree[key])


def _walk(closure, n, seed, cap):
    """(edges, partial count), the count None when the walk finished."""
    edges = []
    try:
        for edge in closure(n, seed, cap):
            edges.append(edge)
    except ResourceLimitError as error:
        return edges, error.partial_count
    return edges, None


def _direct_edges(n, key):
    simples = _minimal_simples(n, key, {})
    return list(zip(simples, _kernel.conjugate_batch(n, key[0], key[1], simples)))


class TestFlipTwins:
    """The closure expands one vertex of each pair {x, tau(x)} and reads
    the other's edges off by the flip."""

    @pytest.mark.parametrize(
        "n, length, words", [(3, 8, 8), (4, 8, 8), (5, 6, 8), (6, 5, 6), (7, 4, 4)]
    )
    def test_same_walk_as_expanding_every_vertex(self, n, length, words):
        """The same edges, read from the walk's tree, in the same order,
        and the same partial count under every cap, as the walk that
        expands every vertex."""
        derived = 0
        for seed in range(words):
            summit, _ = _drive_to_summit(n, _word_key(random_word(n, length, 900 + seed)))
            for cap in (1, 3, 50, DEFAULT_SSS_LIMIT):
                walk = _walk(_tree_edges, n, summit, cap)
                assert walk == _walk(_expand_every_vertex, n, summit, cap)
            keys = {key for key, _, _ in walk[0]}
            derived += sum(1 for key in keys if _flip_key(n, key) != key)
        assert derived > 0

    @pytest.mark.parametrize("n, length, words", [(3, 8, 8), (4, 6, 8), (5, 6, 8), (6, 4, 4)])
    def test_flipped_edges_match_direct_expansion(self, n, length, words):
        """On every vertex x of seeded summit sets, the flips of x's edges
        are the minimal simple elements of tau(x), in order, and their
        kernel conjugates."""
        flipped = 0
        for seed in range(words):
            for key in super_summit_set(random_word(n, length, 700 + seed)).keys:
                twin = _flip_key(n, key)
                assert _flip_edges(n, _direct_edges(n, key)) == _direct_edges(n, twin)
                flipped += twin != key
        assert flipped > 0

    def test_flipped_edges_keep_atom_order(self):
        """The flip reverses the atoms, but not always the order of the
        minimal simple elements: in this B_4 set, two twins each have two,
        with atom prefixes {1, 3} and {2}, listed in that order on both
        sides."""
        keys = super_summit_set(parse_word("4: 1 -1 -3 2 -1 2 -3 1 -3 -2")).keys
        not_reversed = 0
        for key in keys:
            edges = _direct_edges(4, key)
            flipped = _flip_edges(4, edges)
            assert flipped == _direct_edges(4, _flip_key(4, key))
            not_reversed += flipped != [(_tau_flat(4, s), _flip_key(4, c)) for s, c in edges[::-1]]
        assert (len(keys), not_reversed) == (4, 2)

    def test_a_wrong_flip_fails_its_edge(self, monkeypatch):
        """A flip that pairs each derived simple element with the conjugate
        of the one before it names summit elements that the edge does not
        reach; super_summit_set catches them by the edge check. (Leaving
        the conjugates unflipped would name x's neighbours, which the walk
        has seen already and skips.)"""
        honest = garside._flip_edges

        def mispaired(n, edges):
            flipped = honest(n, edges)
            return [(s, flipped[k - 1][1]) for k, (s, _) in enumerate(flipped)]

        monkeypatch.setattr(garside, "_flip_edges", mispaired)
        with pytest.raises(RuntimeError, match="summit edge failed verification"):
            super_summit_set(parse_word("4: 2 1 1 -2 -2 3 3 -1 -2"))

    def test_a_short_walk_fails_the_tau_check(self, monkeypatch):
        """A flip that leaves the conjugates unflipped names x's own
        neighbours, which the walk has seen and skips: no wrong edge is
        yielded, but the walk runs out after 39 of the 62 elements. That
        set is not closed under tau, so the walk raises instead of ending,
        super_summit_set raises instead of returning it, and are_conjugate
        raises instead of answering "not conjugate" for an element the
        walk missed."""
        w = parse_word("4: 2 1 1 -2 -2 3 3 -1 -2")
        keys = super_summit_set(w).keys
        summit, _ = _drive_to_summit(4, _word_key(w))
        honest = garside._flip_edges

        def unflipped(n, edges):
            return [(s, _flip_key(n, key)) for s, key in honest(n, edges)]

        monkeypatch.setattr(garside, "_flip_edges", unflipped)
        walked = {}
        with pytest.raises(RuntimeError, match="not closed under tau"):
            for _ in _summit_closure(4, summit, DEFAULT_SSS_LIMIT, walked):
                pass
        assert (len(keys), len(walked)) == (62, 39)
        with pytest.raises(RuntimeError, match="not closed under tau"):
            super_summit_set(w)
        missed = next(key for key in keys if _drive_to_summit(4, key)[0] not in walked)
        b = BraidWord(4, _word_of_key(4, missed))
        with pytest.raises(RuntimeError, match="not closed under tau"):
            are_conjugate(w, b)
        monkeypatch.setattr(garside, "_flip_edges", honest)
        assert are_conjugate(w, b).verifies(w, b)


@pytest.fixture
def push_tables(monkeypatch):
    """garside._push_table, emptied before and after the test, with the
    summit walk's step on the pure-Python kernel, which alone reads the
    tables, whatever backend is active."""
    monkeypatch.setattr(_kernel, "minimal_simples", _native.minimal_simples)
    garside._push_table.cache_clear()
    yield garside._push_table
    garside._push_table.cache_clear()


def _is_table_key(n, key):
    """A simple element of B_n (n bytes) or a push of two (2n bytes)."""
    return len(key) in (n, 2 * n) and all(
        sorted(key[off : off + n]) == list(range(n)) for off in range(0, len(key), n)
    )


class TestPushTables:
    """The pure-Python summit step keeps one push table per strand count
    for the life of the process; a warm table must change no result, and
    between walks no table may keep more than the cap."""

    def test_a_warm_table_gives_the_results_of_an_empty_one(self, push_tables):
        """Every strand count's table is warmed by the walks of every
        count, its own included, before its vertices are checked."""
        sets = {
            n: [super_summit_set(random_word(n, length, 700 + seed)) for seed in range(words)]
            for n, length, words in ((3, 8, 8), (4, 8, 8), (5, 6, 8), (6, 5, 5), (7, 4, 3))
        }
        vertices = 0
        for n, summit_sets in sets.items():
            table = push_tables(n)
            assert table
            for sss in summit_sets:
                for key in sss.keys:
                    assert _native.minimal_simples(n, *key, table) == _minimal_simples(n, key, {})
                    vertices += 1
        assert vertices > 500

    def test_walks_of_other_counts_change_no_set(self, push_tables):
        """B_8, then B_4, then B_8 and B_4 again, each against the set a
        walk from empty tables gives. A B_4 push key has the length of a
        B_8 simple element but never its bytes, as a push repeats each
        value, so one table shared by every count would give the same
        sets: each table must also hold its own count's keys only."""
        words = [
            random_word(8, 3, 801),
            random_word(4, 8, 401),
            random_word(8, 2, 805),
            random_word(4, 8, 402),
        ]
        fresh = []
        for w in words:
            push_tables.cache_clear()
            sss = super_summit_set(w)
            fresh.append((sss.keys, sss.tree))
        push_tables.cache_clear()
        for w, expected in zip(words, fresh):
            sss = super_summit_set(w)
            assert (sss.keys, sss.tree) == expected
        for n in (4, 8):
            assert push_tables(n) and all(_is_table_key(n, key) for key in push_tables(n))

    def test_no_table_keeps_more_than_the_cap(self, push_tables, monkeypatch):
        """With the cap at 100 entries, walks that grow the B_5 table past
        it, whether they run out, hit the summit-set cap or are stopped
        early by are_conjugate, leave it emptied; a walk that stays under
        the cap leaves its table as it was."""
        monkeypatch.setattr(garside, "_PUSH_TABLE_CAP", 100)
        table = push_tables(5)
        sizes = []
        step = _native.minimal_simples

        def measured(n, p, flat, memo):
            simples = step(n, p, flat, memo)
            sizes.append(len(memo))
            return simples

        monkeypatch.setattr(_kernel, "minimal_simples", measured)
        w = random_word(5, 6, 703)
        a = concat(random_word(5, 3, 17), w, invert_word(random_word(5, 3, 17)))
        walks = [
            lambda: super_summit_set(w),
            lambda: pytest.raises(ResourceLimitError, super_summit_set, w, 20),
            lambda: are_conjugate(w, a),
        ]
        steps = []
        for walk in walks:
            sizes.clear()
            assert walk()
            assert max(sizes) > 100 and len(table) <= 100
            steps.append(len(sizes))
        assert steps[0] > max(steps[1:])
        super_summit_set(random_word(4, 8, 401))
        kept = dict(push_tables(4))
        assert 0 < len(kept) <= 100
        super_summit_set(random_word(4, 8, 401))
        assert push_tables(4) == kept


class TestAreConjugate:
    def test_generators_are_conjugate(self):
        cert = are_conjugate(BraidWord(3, (1,)), BraidWord(3, (2,)))
        assert cert is not None
        assert cert.verifies(BraidWord(3, (1,)), BraidWord(3, (2,)))

    def test_spec_conjugator_also_works(self):
        # (s1 s2) s1 (s1 s2)^-1 = s2 by the braid relation
        c = BraidWord(3, (1, 2))
        assert equal_words(
            concat(c, BraidWord(3, (1,)), invert_word(c)), BraidWord(3, (2,))
        )

    def test_exponent_sum_separates(self):
        assert are_conjugate(BraidWord(3, (1,)), BraidWord(3, (-1,))) is None

    def test_equal_exponent_sums_can_still_fail(self):
        assert are_conjugate(BraidWord(3, (1, 1, 1)), BraidWord(3, (1, 2, 1))) is None

    def test_strand_mismatch(self):
        with pytest.raises(ValueError):
            are_conjugate(BraidWord(3, (1,)), BraidWord(4, (1,)))

    def test_constructed_conjugates(self):
        for seed in range(25):
            a = random_word(4, 6, seed)
            g = random_word(4, 6, seed + 1000)
            b = concat(g, a, invert_word(g))
            cert = are_conjugate(a, b)
            assert cert is not None
            assert cert.verifies(a, b)

    def test_symmetry(self):
        for seed in range(20):
            a = random_word(3, 5, seed)
            b = random_word(3, 5, seed + 500)
            assert (are_conjugate(a, b) is None) == (are_conjugate(b, a) is None)

    def test_transitivity_on_constructed_triples(self):
        for seed in range(10):
            a = random_word(3, 5, seed)
            g = random_word(3, 4, seed + 100)
            h = random_word(3, 4, seed + 200)
            b = concat(g, a, invert_word(g))
            c = concat(h, b, invert_word(h))
            assert are_conjugate(a, b) is not None
            assert are_conjugate(b, c) is not None
            assert are_conjugate(a, c) is not None

    def test_never_contradicts_cheap_invariants(self):
        for seed in range(40):
            a = random_word(4, 6, seed)
            b = random_word(4, 6, seed + 31337)
            if are_conjugate(a, b) is not None:
                assert exponent_sum(a) == exponent_sum(b)
                assert (
                    permutation_of_word(a).cycle_type() == permutation_of_word(b).cycle_type()
                )

    def test_resource_limit_propagates(self):
        a = BraidWord(4, (-1, 1, -1, 3, -1, 1))
        g = BraidWord(4, (3, -1, -1, -2, -1, 1))
        b = concat(g, a, invert_word(g))
        with pytest.raises(ResourceLimitError):
            are_conjugate(a, b, max_sss=1)
        assert are_conjugate(a, b) is not None

    def test_target_past_the_cap_is_still_found(self):
        # The summits of s1 and s2 are the two elements of one summit set.
        # The search meets s2's as the vertex that would pass a cap of 1,
        # and returns it before the cap fires.
        a, b = BraidWord(3, (1,)), BraidWord(3, (2,))
        cert = are_conjugate(a, b, max_sss=1)
        assert cert is not None and cert.verifies(a, b)


class TestNormalFormValidation:
    def test_rejects_non_left_weighted(self):
        s1 = SimpleElement(Permutation(3, (2, 1, 3)))
        s21 = SimpleElement(Permutation(3, (2, 3, 1)))  # starting set {2}
        with pytest.raises(ValueError):
            NormalForm(3, 0, (s1, s21))

    def test_rejects_delta_factor(self):
        with pytest.raises(ValueError):
            NormalForm(3, 0, (delta_simple(3),))

    def test_beyond_the_kernel_limit(self):
        """A normal form on more than 255 strands is refused where it
        becomes a key, as a word is (tests/test_cli.py)."""
        x = NormalForm(256, 1, ())
        for read in (x.word, lambda: cycling(x, "front")):
            with pytest.raises(ValueError, match="limit of 255 strands"):
                read()


def _word_key(w: BraidWord) -> tuple[int, bytes]:
    return _kernel.normalize(w.strands, *_letters_to_factors(w.strands, w.letters))


def _per_letter_key(w: BraidWord) -> tuple[int, bytes]:
    """The reference path: one item per letter, no cancellation, then the
    kernel's normal form."""
    items = _letter_items(w.strands)
    return _kernel.normalize(w.strands, *_assemble(w.strands, [items[g] for g in w.letters]))


def _freely_reduced(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The reference reducer: delete the first inverse pair until none is left."""
    letters = list(letters)
    while True:
        for i in range(len(letters) - 1):
            if letters[i] == -letters[i + 1]:
                del letters[i : i + 2]
                break
        else:
            return tuple(letters)


def _spliced_words(seed: int, count: int) -> list[BraidWord]:
    """Seeded words of B_2..B_7 with inverse pairs spliced in at random
    places, a third of them nested (``g h -h -g``)."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.randint(2, 7)
        letters = list(random_word(n, rng.randint(0, 14), rng.randrange(2**32)).letters)
        for _ in range(rng.randint(1, 5)):
            g, h = (rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(2))
            pair = [g, h, -h, -g] if rng.random() < 1 / 3 else [g, -g]
            at = rng.randint(0, len(letters))
            letters[at:at] = pair
        words.append(BraidWord(n, tuple(letters)))
    return words


class TestFreeReduction:
    def test_normal_forms_match_the_per_letter_path(self):
        for w in _spliced_words(19, 500):
            assert _nf_of_word(w) == _per_letter_key(w)

    def test_factors_are_those_of_the_freely_reduced_word(self):
        for w in _spliced_words(20, 500):
            reduced = _freely_reduced(w.letters)
            assert len(reduced) < len(w)
            assert _letters_to_factors(w.strands, w.letters) == _letters_to_factors(
                w.strands, reduced
            )

    def test_nested_pairs_cascade_to_nothing(self):
        assert _letters_to_factors(4, (1, -1, 2, 3, -3, -2) * 20) == (0, b"")
        assert _letters_to_factors(3, (1, 2, -2, -1)) == (0, b"")

    def test_same_sign_neighbours_stay(self):
        items = _letter_items(3)
        assert _letters_to_factors(3, (1, 1, -2, -2)) == _assemble(
            3, [items[1], items[1], items[-2], items[-2]]
        )


class TestKeyInverse:
    def test_inverse_is_already_normal(self):
        """The assembled inverse needs no normalization, and it inverts."""
        rng = random.Random(6)
        for _ in range(600):
            n = rng.randint(2, 7)
            x = _word_key(random_word(n, rng.randint(0, 12), rng.randrange(2**32)))
            inverse = _inverse(n, *x)
            assert _kernel.normalize(n, *inverse) == inverse
            assert _mul(n, x, inverse) == (0, b"")

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_simple_inverses_need_no_normalization(self, n):
        """The summit walk, its tree and the drive to the summit invert one
        canonical factor at a time, as (-1, Delta s^-1) from _inverse with no
        kernel normalize: on every tree edge s and every cycling
        conjugator u of seeded summit sets, that key is the kernel's normal
        form of Delta^-1 (Delta s^-1)."""
        simples = set()
        for seed in range(6):
            w = random_word(n, 6, 500 + seed)
            try:
                sss = super_summit_set(w, 2000)
            except ResourceLimitError:
                continue
            simples.update(s for _, s in sss.tree.values() if s is not None)
            for key in (_word_key(w), *sss.keys):
                if key[1]:
                    simples.add(_cycle_key(n, key)[1])
        # B_3 has only four canonical factors.
        assert len(simples) >= min(10, math.factorial(n) - 2)
        for s in simples:
            complement = bytes(s.index(t) for t in range(n))[::-1]
            assert _inverse(n, 0, s) == (-1, complement) == _kernel.normalize(n, -1, complement)


def _crossings(perm: bytes) -> int:
    """Letters in a reduced word of a simple element: its inversions."""
    return sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))


def _spelled_keys(seed: int, count: int):
    """(n, key, case) for seeded keys of B_1..B_7, the Delta power p set
    against the factor count l so that each case occurs: p >= 0,
    0 < -p < l, -p == l, -p > l and l == 0. B_1 has one key, the
    identity (its Delta is trivial); B_2 has no canonical factor."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 7)
        if n == 1:
            yield n, (0, b""), "l=0"
            continue
        flat = _word_key(random_word(n, rng.randint(0, 16), rng.randrange(2**32)))[1]
        l = len(flat) // n
        p = rng.choice([rng.randint(0, 3), -rng.randint(1, max(l - 1, 1)), -l, -l - rng.randint(1, 3)])
        if l == 0:
            case = "l=0"
        elif p >= 0:
            case = "p>=0"
        else:
            case = "-p<l" if -p < l else "-p=l" if -p == l else "-p>l"
        yield n, (p, flat), case


class TestWordOfKey:
    """The package's one speller: Delta^p A_1..A_l for p >= 0, and the
    mixed normal form D^-1 P for p < 0, where D = (Delta^p A_1..A_m)^-1,
    m = min(-p, l), and P = A_(m+1)..A_l."""

    @staticmethod
    def expected_length(n: int, key: tuple[int, bytes]) -> int:
        p, flat = key
        half = n * (n - 1) // 2
        factors = [_crossings(flat[off : off + n]) for off in range(0, len(flat), n)]
        if p >= 0:
            return p * half + sum(factors)
        m = min(-p, len(factors))
        return half * (-p - m) + sum(half - a for a in factors[:m]) + sum(factors[m:])

    def test_spells_each_key_freely_reduced_at_its_length(self):
        cases = set()
        for n, key, case in _spelled_keys(26, 3000):
            letters = _word_of_key(n, key)
            assert _nf_of_word(BraidWord(n, letters)) == key, (n, key)
            assert all(x != -y for x, y in zip(letters, letters[1:])), (n, key, letters)
            assert len(letters) == self.expected_length(n, key), (n, key, letters)
            cases.add(case)
        assert cases == {"p>=0", "-p<l", "-p=l", "-p>l", "l=0"}

    def test_small_cases(self):
        """Delta^-1 sigma_1 in B_3 is (sigma_2 sigma_1)^-1; Delta^-2 in B_3
        is two Delta^-1 words; Delta^-1 A with A = sigma_2 sigma_1 is the
        inverse of its right complement A^-1 Delta = sigma_2."""
        assert _word_of_key(3, (-1, bytes([1, 0, 2]))) == (-1, -2)
        assert _word_of_key(3, (-2, b"")) == (-1, -2, -1) * 2
        assert _word_of_key(3, (-1, bytes([1, 2, 0]))) == (-2,)
        assert _word_of_key(3, (1, bytes([0, 2, 1]))) == (1, 2, 1, 2)


class TestPermutationOfKey:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_matches_the_word(self, n):
        """The 0-based images read off a key, one translate per factor,
        are those of the permutation of the key's word, for Delta powers
        that are odd, negative and zero."""
        for seed in range(20):
            _, flat = _word_key(random_word(n, 10, 900 + seed))
            for p in (-3, -2, -1, 0, 1, 4):
                key = (p, flat)
                expected = permutation_of_word(BraidWord(n, _word_of_key(n, key)))
                images = _permutation_of_key(n, key)
                assert isinstance(images, bytes)
                assert images == bytes(v - 1 for v in expected.images)


class TestDriveToSummit:
    @staticmethod
    def bound_only(n: int, key: tuple[int, bytes]) -> tuple[int, int]:
        """(inf, sup) after cycling, then decycling, until n(n-1)/2
        consecutive steps bring no improvement."""
        bound = max(1, n * (n - 1) // 2)
        for step, better in ((_cycle_key, 1), (_decycle_key, -1)):
            fails = 0
            while key[1] and fails < bound:
                old = key[0] if better > 0 else key[0] + len(key[1])
                key, _ = step(n, key)
                new = key[0] if better > 0 else key[0] + len(key[1])
                fails = 0 if (new - old) * better > 0 else fails + 1
        return key[0], key[0] + len(key[1])

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_reaches_the_summit(self, n):
        for seed in range(12):
            w = random_word(n, 5, 300 + seed)
            w_key = _word_key(w)
            key, track = _drive_to_summit(n, w_key)
            assert (key[0], key[0] + len(key[1])) == self.bound_only(n, w_key)
            assert key in dict(super_summit_set(w).pairs)
            assert _mul(n, _mul(n, track, w_key), _inverse(n, *track)) == key


class TestMinimalSimples:
    def test_match_brute_force(self):
        self.check_brute_force(_native)

    def test_match_brute_force_compiled(self, speedups):
        self.check_brute_force(speedups)

    @staticmethod
    def check_brute_force(kernel):
        """On every vertex of seeded summit sets in B_3..B_5, the minimal
        simple elements are the prefix-minimal simple elements whose
        conjugate stays in the summit set, found over all n! - 1 of them.
        The prefix order here is read off the kernel: s <= t iff s^-1 t
        has inf >= 0."""
        vertices = 0
        for n in (3, 4, 5):
            simples = [bytes(p) for p in itertools.permutations(range(n))][1:]

            @functools.cache
            def prefix(s: bytes, t: bytes) -> bool:
                return _kernel.normalize(n, -1, _native._complement(n, s, 0) + t)[0] >= 0

            for seed in range(8):
                w = random_word(n, 6, 700 + seed)
                for key, _ in super_summit_set(w).pairs:
                    conjugates = _kernel.conjugate_batch(n, key[0], key[1], simples)
                    hits = [
                        s
                        for s, (p, flat) in zip(simples, conjugates)
                        if p == key[0] and len(flat) == len(key[1])
                    ]
                    expected = {
                        s for s in hits if not any(t != s and prefix(t, s) for t in hits)
                    }
                    found = _minimal_simples(n, key, {}, kernel)
                    assert len(found) == len(set(found)) <= n - 1
                    assert set(found) == expected
                    vertices += 1
        assert vertices > 300
