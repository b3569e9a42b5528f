"""Garside normal forms and the conjugacy machinery of braid groups.

Every braid has a unique left normal form ``Delta^p A_1 ... A_l`` where
Delta is the positive half twist (every pair of strands crosses exactly
once), each ``A_k`` is a simple element (a permutation braid: every pair
of strands crosses at most once, positively) that is neither trivial nor
Delta, and consecutive factors are left-weighted: the starting set of
``A_{k+1}`` is contained in the finishing set of ``A_k``. Equality of
braids is identity of normal forms.

``inf = p`` and ``sup = p + l`` become conjugacy invariants once
maximized resp. minimized over a conjugacy class by cycling and
decycling; the conjugates realizing both extremes at once form the super
summit set, a finite canonically-ordered set that decides conjugacy: two
braids are conjugate iff their super summit sets coincide.

Simple elements are stored as permutations, never as words; reduced
words are produced on demand by front-stripping descents. The hot loops
run in the kernel backend selected by :mod:`braidkit._kernel`, on the
flat byte layout documented in :mod:`braidkit._native`.

Conjugation convention used everywhere: ``c`` conjugates ``a`` to
``c * a * c^-1``.

What is verified, and when. The summit closure walks the super summit
set breadth first and keeps, for each element, only the edge that
reached it: a parent and a simple element. It writes the edges into one
tree that its caller owns, which is also its record of the elements it
has reached; super_summit_set hands that tree to the SuperSummitSet it
returns, and are_conjugate reads the found element's path from it. It
expands one vertex of each pair {x, tau(x)}; the other's edges are flips
of x's and cost no kernel conjugation. super_summit_set checks the
seed's conjugator against the input end to end and every edge, derived
by a flip or not, by one product on each side, so each element it
returns is proven conjugate to the input; a conjugator is built from the
edges, and re-verified end to end, only when one is read
(SuperSummitSet). are_conjugate builds the conjugator of the vertex it
finds and re-checks the certificate it returns through the word
equation. The walk checks its own closure under tau, as every summit set
is closed: it ends only when each expanded vertex's flip was reached, so
super_summit_set returns no short set and are_conjugate answers "not
conjugate" only after a complete walk. Any failed check raises
RuntimeError.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import deque
from typing import Callable, Iterator

from . import _kernel
from ._native import _complement, _id_flat, _inv_flat, _inverse, _tau_flat, _w0_flat
from .words import (
    BraidWord,
    Permutation,
    _free_reduce,
    concat,
    exponent_sum,
    invert_word,
    permutation_of_word,
)

__all__ = [
    "ConjugacyCertificate",
    "DEFAULT_SSS_LIMIT",
    "NormalForm",
    "ResourceLimitError",
    "SimpleElement",
    "SuperSummitSet",
    "are_conjugate",
    "cycling",
    "delta_simple",
    "divisor_sets",
    "equal_words",
    "is_delta_power",
    "normal_form",
    "super_summit_set",
]

DEFAULT_SSS_LIMIT = 100_000
# Entries that one strand count's push table (_push_table) may keep from
# one summit walk to the next. Over the benchmark corpora the B_3 table
# stops growing at 24 entries and the B_4 table at about 340; the B_6
# table reaches 5,138 over the 1,500 nm-wide-b6 items, so it is emptied
# now and then. Within a walk a table grows as the walk needs: 39,486
# entries for the 17,344-element summit set of
# "6: -2 3 3 5 5 1 1 -4 -4 -2 -2 1 1 2", 8,733 for the 752 elements of
# random_word(7, 40, 3).
_PUSH_TABLE_CAP = 1 << 12
# The kernel's largest strand count (MAX_N in _speedups.c).
_MAX_STRANDS = 255

_NfKey = tuple[int, bytes]
_KeyPair = tuple[_NfKey, _NfKey]
# A closure tree maps each key to the edge (parent, s) that reached it,
# key being s^-1 * parent * s, and the seed to (None, None).
_Tree = dict[_NfKey, tuple[_NfKey | None, bytes | None]]


class ResourceLimitError(Exception):
    """A summit-set computation outgrew its configured cardinality cap."""

    def __init__(self, message: str, partial_count: int):
        super().__init__(f"{message} (partial count: {partial_count})")
        self.partial_count = partial_count


# -- permutation helpers on the 0-based flat layout ---------------------------


def _descents(perm: bytes) -> frozenset[int]:
    """1-based generator indices i with perm(i) > perm(i+1)."""
    return frozenset(i + 1 for i in range(len(perm) - 1) if perm[i] > perm[i + 1])


def _simple_letters(n: int, perm: bytes) -> tuple[int, ...]:
    """Reduced word for a permutation braid: repeatedly strip the
    smallest descent from the front."""
    arr = bytearray(perm)
    letters = []
    while True:
        for i in range(n - 1):
            if arr[i] > arr[i + 1]:
                letters.append(i + 1)
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                break
        else:
            return tuple(letters)


@functools.lru_cache(maxsize=None)
def _delta_letters(n: int) -> tuple[int, ...]:
    return _simple_letters(n, _w0_flat(n))


def _flat_of_perm(perm: Permutation) -> bytes:
    _check_strands(perm.size)
    return bytes(v - 1 for v in perm.images)


# -- public types --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SimpleElement:
    """A permutation braid, the positive lift of its permutation."""

    perm: Permutation

    @property
    def strands(self) -> int:
        return self.perm.size

    def is_trivial(self) -> bool:
        return self.perm.images == tuple(range(1, self.perm.size + 1))

    def is_delta(self) -> bool:
        return self.perm.images == tuple(range(self.perm.size, 0, -1))

    def starting_set(self) -> frozenset[int]:
        """Indices i such that sigma_i left-divides this element."""
        return _descents(_flat_of_perm(self.perm))

    def finishing_set(self) -> frozenset[int]:
        """Indices i such that sigma_i right-divides this element."""
        return _descents(_inv_flat(_flat_of_perm(self.perm)))

    def word(self) -> BraidWord:
        """Canonical reduced word, stripping the smallest descent first."""
        n = self.perm.size
        return BraidWord(n, _simple_letters(n, _flat_of_perm(self.perm)))

    def __str__(self) -> str:
        return str(self.perm)


@dataclasses.dataclass(frozen=True)
class NormalForm:
    """Left normal form ``Delta^delta_power * factors``; inf, sup and
    canonical length read off the fields directly."""

    strands: int
    delta_power: int
    factors: tuple[SimpleElement, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError(f"strand count must be >= 1, got {self.strands}")
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        for factor in factors:
            if factor.perm.size != self.strands:
                raise ValueError("factor strand count mismatch")
            if factor.is_trivial() or factor.is_delta():
                raise ValueError(f"{factor} may not appear as a canonical factor")
        for left, right in zip(factors, factors[1:]):
            if not right.starting_set() <= left.finishing_set():
                raise ValueError(f"factors {left} | {right} are not left-weighted")

    @property
    def inf(self) -> int:
        return self.delta_power

    @property
    def sup(self) -> int:
        return self.delta_power + len(self.factors)

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    def word(self) -> BraidWord:
        """A braid word for this element: Delta-power letters followed by
        one reduced word per factor when delta_power >= 0, and the mixed
        normal form D^-1 P, a negative word then a positive one, when it is
        negative (_word_of_key)."""
        return BraidWord(self.strands, _word_of_key(self.strands, _key_of_nf(self)))

    def __str__(self) -> str:
        parts = [f"D^{self.delta_power}"]
        parts.extend(str(f.perm) for f in self.factors)
        return " | ".join(parts)


@dataclasses.dataclass(frozen=True, slots=True)
class ConjugacyCertificate:
    """A conjugating element ``c`` with ``c * a * c^-1 = b`` for the pair
    it certifies, kept as its normal-form key. are_conjugate re-checks the
    equation before returning one, and raises if it fails."""

    strands: int
    key: _NfKey

    @property
    def conjugator(self) -> BraidWord:
        """A word for c, spelled from the key on each read by
        _word_of_key: D^-1 P when c's Delta power is negative, so
        verifies normalizes no Delta^-1 that the factors would cancel."""
        return BraidWord(self.strands, _word_of_key(self.strands, self.key))

    def verifies(self, a: BraidWord, b: BraidWord) -> bool:
        """Re-run the conjugation equation through equal_words."""
        c = self.conjugator
        return equal_words(concat(c, a, invert_word(c)), b)


@dataclasses.dataclass(frozen=True)
class SuperSummitSet:
    """All conjugates of a braid w with maximal inf and minimal sup, as a
    view over normal-form keys.

    ``keys`` lists the elements in canonical order (delta power, factor
    count, lexicographic factor images). ``seed`` is the element that
    cycling and decycling reached from w, and its conjugator
    ``seed_track`` satisfies ``seed_track * w * seed_track^-1 = seed``.
    ``tree`` maps each element, in the breadth-first order of the summit
    closure, to the edge that reached it: ``(parent, s)`` with
    ``s^-1 * parent * s`` equal to the element, or ``(None, None)`` for
    the seed. An element's conjugator is s^-1 times its parent's, so
    every value below is read along the tree path from the seed
    (_along_tree). super_summit_set verifies the seed's track and every
    edge before returning, so every element is conjugate to w;
    ``word_key`` is w's key.

    ``len()`` and ``keys`` build no conjugator, and neither does
    ``conjugator_permutation(key)``, the permutation of one element's
    conjugator, one translate per edge, each kept for later reads.
    ``pairs``, ``conjugators`` and ``elements`` are built on first read;
    ``pairs`` and ``conjugator_key`` re-verify each conjugator c they
    build against w, ``c * w * c^-1 = element``, and raise RuntimeError
    if one fails.
    """

    strands: int
    word_key: _NfKey
    seed: _NfKey
    seed_track: _NfKey
    keys: tuple[_NfKey, ...]
    tree: _Tree = dataclasses.field(hash=False)

    def _track(self, tracks: dict[_NfKey, _NfKey], key: _NfKey) -> _NfKey:
        track = _along_tree(self.tree, tracks, key, functools.partial(_edge_track, self.strands))
        _verify_track(self.strands, self.word_key, key, track)
        return track

    def conjugator_key(self, key: _NfKey) -> _NfKey:
        """The conjugator of one element, built along its tree path and
        verified end to end."""
        return self._track({self.seed: self.seed_track}, key)

    def conjugator_permutation(self, key: _NfKey) -> bytes:
        """The permutation of an element's conjugator, as 0-based images."""
        return _along_tree(self.tree, self._permutations, key, _edge_permutation)

    @functools.cached_property
    def _permutations(self) -> dict[_NfKey, bytes]:
        return {self.seed: _permutation_of_key(self.strands, self.seed_track)}

    @functools.cached_property
    def pairs(self) -> tuple[_KeyPair, ...]:
        """(element, conjugator) key pairs in canonical order."""
        tracks = {self.seed: self.seed_track}
        return tuple((key, self._track(tracks, key)) for key in self.keys)

    @functools.cached_property
    def conjugators(self) -> dict[NormalForm, BraidWord]:
        n = self.strands
        return {_nf_public(n, k): BraidWord(n, _word_of_key(n, c)) for k, c in self.pairs}

    @functools.cached_property
    def elements(self) -> tuple[NormalForm, ...]:
        return tuple(_nf_public(self.strands, key) for key in self.keys)

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[NormalForm]:
        return iter(self.elements)


# -- words to normal forms ------------------------------------------------------


def _assemble(n: int, items: list[tuple[int, bytes]]) -> tuple[int, bytes]:
    """Collect ``prod(Delta^s_j * F_j)`` into ``(p, flat)`` by pushing
    every Delta power to the front; a factor picks up one flip per Delta
    passing through it."""
    acc = 0
    out: list[bytes] = []
    for shift, perm in reversed(items):
        out.append(_tau_flat(n, perm) if acc % 2 else perm)
        acc += shift
    out.reverse()
    return acc, b"".join(out)


@functools.lru_cache(maxsize=None)
def _letter_items(n: int) -> dict[int, tuple[int, bytes]]:
    """The ``(Delta shift, factor)`` item of every letter of B_n: sigma_i
    is the transposition of i and i+1, and sigma_i^-1 = Delta^-1 (Delta sigma_i^-1)."""
    items: dict[int, tuple[int, bytes]] = {}
    for i in range(1, n):
        swap = bytearray(_id_flat(n))
        swap[i - 1], swap[i] = swap[i], swap[i - 1]
        items[i] = (0, bytes(swap))
        items[-i] = (-1, _complement(n, items[i][1], 0))
    return items


def _letters_to_factors(n: int, letters: tuple[int, ...]) -> tuple[int, bytes]:
    """Freely reduce the word, then assemble its per-letter items; the
    result still needs kernel normalization.

    Free reduction (_free_reduce) cancels each letter against an inverse
    neighbour, nested pairs such as ``1 2 -2 -1`` included. sigma_i
    sigma_i^-1 is the identity, so the reduced word names the same braid,
    and as normal forms are unique every key taken from it is the key of
    the full word; the kernel just slides fewer factors."""
    items = _letter_items(n)
    return _assemble(n, [items[letter] for letter in _free_reduce(letters)])


def _check_strands(n: int) -> None:
    """Refuse strand counts beyond the kernel's limit, on both backends."""
    if n > _MAX_STRANDS:
        raise ValueError(f"B_{n} is beyond the kernel's limit of {_MAX_STRANDS} strands")


def _nf_of_word(w: BraidWord) -> _NfKey:
    """The normal-form key of a word. The kernel normalizes the freely
    reduced word (_letters_to_factors), which has the same unique normal
    form as w, so the key is the one the unreduced word would give."""
    _check_strands(w.strands)
    p, flat = _letters_to_factors(w.strands, w.letters)
    return _kernel.normalize(w.strands, p, flat)


def _key_of_nf(nf: NormalForm) -> _NfKey:
    _check_strands(nf.strands)
    return nf.delta_power, b"".join(_flat_of_perm(f.perm) for f in nf.factors)


def _nf_public(n: int, key: _NfKey) -> NormalForm:
    p, flat = key
    factors = tuple(
        SimpleElement(Permutation(n, tuple(v + 1 for v in flat[off : off + n])))
        for off in range(0, len(flat), n)
    )
    return NormalForm(n, p, factors)


def _word_of_key(n: int, key: _NfKey) -> tuple[int, ...]:
    """The package's one word for a key Delta^p A_1..A_l.

    For p >= 0: p Delta words, then one reduced word per factor. For
    p < 0, the mixed normal form D^-1 P: with m = min(-p, l), the
    denominator D = (Delta^p A_1..A_m)^-1 is positive (_inverse gives
    it as Delta^(-p-m) and m complements), so the word is the inverse of
    D's positive word followed by the numerator P = A_(m+1)..A_l. Each
    of the first m factors costs the letters of its complement instead
    of a whole Delta^-1 plus its own. The word is freely reduced: D^-1
    is negative, P positive, and where they meet D's first factor, the
    right complement of A_m, starts with no letter that A_(m+1) starts
    with, since A_m | A_(m+1) is left-weighted."""
    p, flat = key
    if p >= 0:
        letters = list(_delta_letters(n) * p)
        for off in range(0, len(flat), n):
            letters.extend(_simple_letters(n, flat[off : off + n]))
        return tuple(letters)
    cut = min(-p, len(flat) // n) * n
    denominator = _word_of_key(n, _inverse(n, p, flat[:cut]))
    return tuple(-i for i in reversed(denominator)) + _word_of_key(n, (0, flat[cut:]))


def _permutation_of_key(n: int, key: _NfKey) -> bytes:
    """The permutation of Delta^p A_1..A_l as 0-based images: the flip
    v -> n-1-v when p is odd, then one translate by each factor in turn."""
    p, flat = key
    images = _w0_flat(n) if p % 2 else _id_flat(n)
    for off in range(0, len(flat), n):
        images = images.translate(flat[off : off + n].ljust(256, b"\0"))
    return images


# -- normal-form arithmetic on keys ---------------------------------------------


def _mul(n: int, x: _NfKey, y: _NfKey) -> _NfKey:
    return _kernel.multiply(n, x[0], x[1], y[0], y[1])


def _powers(n: int, x: _NfKey, top: int) -> list[_NfKey]:
    """Keys of x^1, ..., x^top, each the product of the one before and x."""
    powers = [x]
    for _ in range(top - 1):
        powers.append(_mul(n, powers[-1], x))
    return powers


def _flip_key(n: int, x: _NfKey) -> _NfKey:
    """tau(x) = Delta^-1 x Delta: the flip of each factor keeps a normal form."""
    return x[0], _tau_flat(n, x[1])


# -- public operations -----------------------------------------------------------


def delta_simple(n: int) -> SimpleElement:
    """The half twist: the simple element with permutation i -> n+1-i."""
    if n < 1:
        raise ValueError(f"strand count must be >= 1, got {n}")
    return SimpleElement(Permutation(n, tuple(range(n, 0, -1))))


def divisor_sets(s: SimpleElement) -> tuple[frozenset[int], frozenset[int]]:
    """(starting set, finishing set) of a simple element."""
    return s.starting_set(), s.finishing_set()


def normal_form(w: BraidWord) -> NormalForm:
    """The unique left normal form of the braid represented by ``w``."""
    return _nf_public(w.strands, _nf_of_word(w))


def equal_words(u: BraidWord, v: BraidWord) -> bool:
    """True iff the words represent the same braid (identical normal forms)."""
    if u.strands != v.strands:
        raise ValueError(f"strand count mismatch: {u.strands} != {v.strands}")
    return _nf_of_word(u) == _nf_of_word(v)


def is_delta_power(w: BraidWord) -> int | None:
    """The exponent j if w equals Delta^j, else None."""
    p, flat = _nf_of_word(w)
    return p if not flat else None


def _cycle_key(n: int, key: _NfKey) -> tuple[_NfKey, bytes]:
    """One cycling step: returns the new key and the simple element u the
    input was conjugated by (result = u^-1 x u, u = tau^-p(A_1))."""
    p, flat = key
    first = flat[:n]
    u = _tau_flat(n, first) if p % 2 else first
    new = _kernel.normalize(n, p, flat[n:] + u)
    return new, u


def _decycle_key(n: int, key: _NfKey) -> tuple[_NfKey, bytes]:
    """One decycling step: returns the new key and the simple element u
    with result = u x u^-1 (u = A_l, the last factor)."""
    p, flat = key
    last = flat[-n:]
    twisted = _tau_flat(n, last) if p % 2 else last
    new = _kernel.normalize(n, p, twisted + flat[:-n])
    return new, last


def cycling(x: NormalForm, direction: str = "front") -> tuple[NormalForm, BraidWord]:
    """Cycling ("front") or decycling ("back") of a normal form.

    Returns the renormalized result together with a word ``c`` such that
    ``c * x * c^-1`` equals the result. Cycling conjugates by the
    twisted first factor tau^-p(A_1), moving it to the end; decycling
    conjugates by the inverse of the last factor, moving it to the
    front. With no factors either direction is a no-op with identity
    conjugator.
    """
    if direction not in ("front", "back"):
        raise ValueError(f"direction must be 'front' or 'back', got {direction!r}")
    n = x.strands
    key = _key_of_nf(x)
    if not key[1]:
        return x, BraidWord(n)
    if direction == "front":
        new, u = _cycle_key(n, key)
        conj = invert_word(BraidWord(n, _simple_letters(n, u)))
    else:
        new, u = _decycle_key(n, key)
        conj = BraidWord(n, _simple_letters(n, u))
    return _nf_public(n, new), conj


def _drive_to_summit(n: int, key: _NfKey) -> _KeyPair:
    """Cycle until inf stops rising, then decycle until sup stops falling.

    Each phase is a step, a score to lower (-inf, then sup) and the
    conjugator of a step's simple element u: cycling conjugates by u^-1,
    decycling by u. Stop rule: n(n-1)/2 consecutive steps without
    improvement declare the current value extremal. A step is
    deterministic, so a key that recurs since the last improvement closes
    an orbit that cannot improve, and ends the phase at once. ``track``,
    from the identity on, keeps track * w * track^-1 equal to the current
    key.
    """
    track: _NfKey = (0, b"")
    bound = max(1, n * (n - 1) // 2)
    phases = (
        (_cycle_key, lambda x: -x[0], lambda u: _inverse(n, 0, u)),
        # A canonical factor is its own normal form.
        (_decycle_key, lambda x: x[0] + len(x[1]), lambda u: (0, u)),
    )
    for step, score, conjugator in phases:
        fails = 0
        orbit = {key}
        while key[1] and fails < bound:
            old = score(key)
            key, u = step(n, key)
            track = _mul(n, conjugator(u), track)
            if score(key) < old:
                fails = 0
                orbit.clear()
            elif key in orbit:
                break
            else:
                fails += 1
            orbit.add(key)
    return key, track


def _flip_edges(n: int, edges: list[tuple[bytes, _NfKey]]) -> list[tuple[bytes, _NfKey]]:
    """The edges (s, s^-1 x s) of a vertex x, turned into those of tau(x).

    tau preserves the prefix order, so rho_tau(x)(sigma_i) is
    tau(rho_x(sigma_(n-i))) and the minimal simple elements of tau(x) are
    the flips of x's; tau(s)^-1 tau(x) tau(s) = tau(s^-1 x s). Every atom
    prefix of a minimal simple element has it as its rho, so the
    kernel's minimal_simples lists each at its least atom prefix: sorting
    by that gives its order.
    """
    flipped = [(_tau_flat(n, s), _flip_key(n, key)) for s, key in edges]
    return sorted(flipped, key=lambda edge: min(_descents(edge[0])))


@functools.lru_cache(maxsize=None)
def _push_table(n: int) -> dict:
    """B_n's table for the pure-Python minimal_simples, for the life of
    the process: each simple element once, with its inversion set, and
    every push. Keys of different strand counts never meet in one table,
    and an overfull table of one count is emptied without touching the
    others (_summit_closure). The C twin ignores it."""
    return {}


def _check_cap(max_sss: int) -> None:
    if max_sss < 1:
        raise ValueError("max_sss must be >= 1")


def _summit_closure(n: int, seed: _NfKey, max_size: int, tree: _Tree) -> Iterator[_NfKey]:
    """Breadth-first walk of the super summit set of ``seed``, a summit
    element, under conjugation by each vertex's minimal simple elements.

    Yields each vertex's key once, the seed first. Before it does, it
    stores in ``tree``, which the caller owns, the edge that first
    reached the vertex: ``tree[key] = (parent, s)``, ``key`` being the
    kernel's normal form of ``s^-1 * parent * s``, and
    ``tree[seed] = (None, None)``. The tree is also the walk's record of
    the vertices it has reached. The walk computes no conjugators and
    verifies no edge: callers do that for the vertices they keep. A
    vertex is recorded and yielded before the cap check, so a caller
    that stops at it never sees the cap; walking on past ``max_size``
    vertices raises ResourceLimitError.

    Conjugation by Delta, the flip tau, is a Garside automorphism: it maps
    the summit set onto itself and carries the edges of x onto those of
    tau(x) (_flip_edges). So only one vertex of each pair {x, tau(x)} is
    expanded, by one minimal_simples and one conjugate_batch kernel call;
    its edges are kept until its twin is dequeued, which reads its own off
    by the flip, with no kernel call, and drops them. Every vertex still
    gets exactly the edges, in the same order, that expanding it would
    give, so the walk, its tree, its cap and its completeness (the summit
    set is connected under minimal simple elements) are unchanged.

    The pure-Python kernel's pushes are kept in B_n's table
    (_push_table), shared with every earlier walk of the process: a push
    is a pure function of its simple elements, so a warm table changes
    no edge. However the walk ends, exhausted, capped or closed early by
    its caller, a table holding more than _PUSH_TABLE_CAP entries is
    emptied, so between walks no strand count keeps more.

    The walk checks its own tau-closure, which every summit set has: a
    vertex's kept edges are dropped only when its twin is dequeued, so
    when the queue empties, edges still kept name a vertex whose flip the
    walk never reached. It stopped short, and RuntimeError is raised
    instead of ending the walk.
    """
    inf0 = seed[0]
    len0 = len(seed[1])
    memo = _push_table(n)
    try:
        expanded: dict[_NfKey, list[tuple[bytes, _NfKey]]] = {}
        tree[seed] = (None, None)
        yield seed
        queue: deque[_NfKey] = deque([seed])
        while queue:
            key = queue.popleft()
            twin = _flip_key(n, key)
            if twin in expanded:
                edges = _flip_edges(n, expanded.pop(twin))
            else:
                simples = _kernel.minimal_simples(n, *key, memo)
                edges = list(zip(simples, _kernel.conjugate_batch(n, key[0], key[1], simples)))
                if twin != key:
                    expanded[key] = edges
            for s, result in edges:
                if result[0] != inf0 or len(result[1]) != len0:
                    raise RuntimeError(
                        "internal error: a minimal simple element left the summit set"
                    )
                if result in tree:
                    continue
                tree[result] = (key, s)
                yield result
                if len(tree) > max_size:
                    raise ResourceLimitError("super summit set exceeded its cap", max_size)
                queue.append(result)
        if expanded:
            raise RuntimeError("internal error: the summit set is not closed under tau")
    finally:
        # However the walk ended: exhausted, capped, or closed by its caller.
        if len(memo) > _PUSH_TABLE_CAP:
            memo.clear()


def _along_tree(tree: _Tree, known: dict, key: _NfKey, step: Callable):
    """The value at ``key``, filled into ``known`` along the tree path
    from the nearest element already there: an element reached by the
    edge (parent, s) takes ``step(s, value at parent)``. This is the one
    walk over closure edges."""
    path = []
    while key not in known:
        parent, s = tree[key]
        path.append((key, s))
        key = parent
    value = known[key]
    for key, s in reversed(path):
        value = known[key] = step(s, value)
    return value


def _edge_track(n: int, s: bytes, track: _NfKey) -> _NfKey:
    return _mul(n, _inverse(n, 0, s), track)


def _edge_permutation(s: bytes, perm: bytes) -> bytes:
    return _inv_flat(s).translate(perm.ljust(256, b"\0"))


def _verify_track(n: int, w_key: _NfKey, key: _NfKey, track: _NfKey) -> None:
    """Raise unless track * w * track^-1 is the element ``key``."""
    if _mul(n, _mul(n, track, w_key), _inverse(n, *track)) != key:
        raise RuntimeError("internal error: summit conjugator failed verification")


def super_summit_set(w: BraidWord, max_size: int = DEFAULT_SSS_LIMIT) -> SuperSummitSet:
    """The full super summit set of ``w``, as a view over the keys of its
    elements and the breadth-first tree that the summit closure fills in
    place: this function owns the tree, reads each element's edge from
    it as the walk yields the element, and keeps it in the result.

    Verified before returning: the seed's track end to end,
    ``track * w * track^-1 = seed``, and every other element by its edge,
    ``parent * s = s * element``, two products with a one-factor operand.
    By induction every element is conjugate to w; the walk raises unless
    the set is closed under tau (_summit_closure). No conjugator is built
    here; SuperSummitSet builds and re-verifies them when they are read.

    Raises ValueError when ``max_size`` < 1, ResourceLimitError when the
    set would exceed it, RuntimeError when a check fails.
    """
    _check_cap(max_size)
    n = w.strands
    w_key = _nf_of_word(w)
    seed, seed_track = _drive_to_summit(n, w_key)
    _verify_track(n, w_key, seed, seed_track)
    tree: _Tree = {}
    for key in _summit_closure(n, seed, max_size, tree):
        parent, s = tree[key]
        if parent is not None:
            # (0, s) is the normal form of s. s is never Delta: a vertex
            # without factors is its only conjugate, and one with factors
            # has an atom whose rho lies below its cycling conjugator.
            if _mul(n, parent, (0, s)) != _mul(n, (0, s), key):
                raise RuntimeError("internal error: a summit edge failed verification")
    # Every element has the seed's inf and canonical length, so plain key
    # order is the canonical order.
    return SuperSummitSet(n, w_key, seed, seed_track, tuple(sorted(tree)), tree)


def are_conjugate(
    a: BraidWord, b: BraidWord, max_sss: int = DEFAULT_SSS_LIMIT
) -> ConjugacyCertificate | None:
    """Decide conjugacy; on success return a verified certificate ``c``
    with ``c * a * c^-1 = b``, otherwise None.

    Cheap invariants (exponent sum, permutation cycle type) are checked
    first; then both words are driven to their summits, whose (inf, sup)
    must agree; the verdict is membership of b's summit representative in
    the summit closure of a's, which doubles as the conjugator search.
    Raises ValueError when ``max_sss`` < 1 or the strand count is beyond
    the kernel's limit, whatever the invariants say, and
    ResourceLimitError when the closure outgrows ``max_sss`` before
    meeting b's summit.
    """
    _check_cap(max_sss)
    if a.strands != b.strands:
        raise ValueError(f"strand count mismatch: {a.strands} != {b.strands}")
    n = a.strands
    _check_strands(n)
    if exponent_sum(a) != exponent_sum(b):
        return None
    if permutation_of_word(a).cycle_type() != permutation_of_word(b).cycle_type():
        return None
    a_summit, a_track = _drive_to_summit(n, _nf_of_word(a))
    b_summit, b_track = _drive_to_summit(n, _nf_of_word(b))
    if a_summit[0] != b_summit[0] or len(a_summit[1]) != len(b_summit[1]):
        return None
    tree: _Tree = {}
    if b_summit not in _summit_closure(n, a_summit, max_sss, tree):
        return None
    found = _along_tree(tree, {a_summit: a_track}, b_summit, functools.partial(_edge_track, n))
    certificate = ConjugacyCertificate(n, _mul(n, _inverse(n, *b_track), found))
    if not certificate.verifies(a, b):
        raise RuntimeError("internal error: conjugacy certificate failed verification")
    return certificate
