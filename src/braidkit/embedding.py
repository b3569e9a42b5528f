"""Geometric embeddings of braid groups.

The standard embedding of B_m into B_n (n >= m) adds n-m trivial strands
on the right: on Artin generators it is literally the identity on
letters. Every geometric embedding is conjugate to the standard one, so
general embeddings are realized here as a conjugation: this module fixes
the convention

    embed_general(w, n, g) = g^-1 * embed_standard(w, n) * g.

The orientation of that conjugation (g versus g^-1) is pure bookkeeping
with no effect on any conjugacy statement; it is fixed once and for all
here.
"""

from __future__ import annotations

from .curves import DEFAULT_IMAGE_LIMIT, FreeWord, artin_action
from .words import BraidWord, concat, invert_word

__all__ = ["embed_general", "embed_standard", "is_in_standard_image"]


def embed_standard(w: BraidWord, n: int) -> BraidWord:
    """The same letters read in B_n; a homomorphism B_m -> B_n for n >= m."""
    if n < w.strands:
        raise ValueError(f"cannot embed B_{w.strands} into the smaller B_{n}")
    return BraidWord(n, w.letters)


def embed_general(w: BraidWord, n: int, g: BraidWord) -> BraidWord:
    """The geometric embedding conjugate to the standard one by ``g``."""
    if g.strands != n:
        raise ValueError(f"conjugator lives in B_{g.strands}, expected B_{n}")
    return concat(invert_word(g), embed_standard(w, n), g)


def is_in_standard_image(x: BraidWord, m: int) -> bool:
    """Whether ``x`` looks like the standard image of some B_m braid.

    Tests that the free-group action of ``x`` fixes every generator
    x_j with j > m and maps each x_i with i <= m into the subgroup
    generated by x_1..x_m. Sound by construction for embedded words;
    completeness rests on the classical characterization of braid
    automorphisms and is validated here only by sampling.

    Raises ResourceLimitError when a generator's image outgrows
    DEFAULT_IMAGE_LIMIT letters, which long pseudo-Anosov words reach.
    """
    n = x.strands
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= {n}, got {m}")
    for j in range(1, n + 1):
        image = artin_action(x, FreeWord(n, (j,)), max_letters=DEFAULT_IMAGE_LIMIT)
        if j > m:
            if image.letters != (j,):
                return False
        elif any(abs(letter) > m for letter in image.letters):
            return False
    return True
