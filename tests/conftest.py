"""Shared test helpers: relation rewriting, oracles, word strategies, and
the compiled kernel built from its C source."""

from __future__ import annotations

import importlib.util
import pathlib
import shutil
import subprocess
import sys
import sysconfig

import pytest

# The suite leaves no bytecode under src/: this runs before braidkit is imported.
sys.dont_write_bytecode = True

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from braidkit import BraidWord, FreeWord, SplitMix64, artin_action

SPEEDUPS_C = pathlib.Path(__file__).resolve().parent.parent / "src" / "braidkit" / "_speedups.c"

settings.register_profile(
    "braidkit",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("braidkit")


def rewritten_equivalent(word: BraidWord, rng: SplitMix64, steps: int) -> BraidWord:
    """A different word for the same braid.

    Each step applies one relation consequence: a far commutation
    (|i-j| > 1, any signs), a braid-relation rewrite on a same-signed
    triple (i j i -> j i j), a free cancellation, or a free insertion
    (always available, so every step changes something).
    """
    n = word.strands
    letters = list(word.letters)
    for _ in range(steps):
        choice = rng.below(4)
        if choice == 0 and n >= 4:
            sites = [
                p
                for p in range(len(letters) - 1)
                if abs(abs(letters[p]) - abs(letters[p + 1])) > 1
            ]
            if sites:
                p = sites[rng.below(len(sites))]
                letters[p], letters[p + 1] = letters[p + 1], letters[p]
                continue
        if choice == 1:
            sites = [
                p
                for p in range(len(letters) - 2)
                if abs(abs(letters[p]) - abs(letters[p + 1])) == 1
                and letters[p + 2] == letters[p]
                and (letters[p] > 0) == (letters[p + 1] > 0)
            ]
            if sites:
                p = sites[rng.below(len(sites))]
                i, j = letters[p], letters[p + 1]
                letters[p : p + 3] = [j, i, j]
                continue
        if choice == 2:
            sites = [p for p in range(len(letters) - 1) if letters[p] == -letters[p + 1]]
            if sites:
                p = sites[rng.below(len(sites))]
                del letters[p : p + 2]
                continue
        index = rng.below(n - 1) + 1
        sign = 1 if rng.below(2) == 0 else -1
        p = rng.below(len(letters) + 1)
        letters[p:p] = [index * sign, -index * sign]
    return BraidWord(n, tuple(letters))


def artin_oracle_equal(u: BraidWord, v: BraidWord) -> bool:
    """Independent equality oracle: the braid action on the free group is
    faithful, so words are equal iff all generator images coincide."""
    n = u.strands
    return all(
        artin_action(u, FreeWord(n, (k,))).letters == artin_action(v, FreeWord(n, (k,))).letters
        for k in range(1, n + 1)
    )


def braid_words(
    min_strands: int = 2, max_strands: int = 5, max_len: int = 8
) -> st.SearchStrategy[BraidWord]:
    def words_for(n: int) -> st.SearchStrategy[BraidWord]:
        letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))).map(
            lambda t: t[0] * t[1]
        )
        return st.lists(letter, max_size=max_len).map(lambda ls: BraidWord(n, tuple(ls)))

    return st.integers(min_strands, max_strands).flatmap(words_for)


def braid_word_pairs(
    min_strands: int = 2, max_strands: int = 5, max_len: int = 8
) -> st.SearchStrategy[tuple[BraidWord, BraidWord]]:
    def pairs_for(n: int) -> st.SearchStrategy[tuple[BraidWord, BraidWord]]:
        letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))).map(
            lambda t: t[0] * t[1]
        )
        letters = st.lists(letter, max_size=max_len)
        return st.tuples(letters, letters).map(
            lambda pair: (BraidWord(n, tuple(pair[0])), BraidWord(n, tuple(pair[1])))
        )

    return st.integers(min_strands, max_strands).flatmap(pairs_for)


def free_words(max_rank: int = 5, max_len: int = 12) -> st.SearchStrategy[FreeWord]:
    def words_for(n: int) -> st.SearchStrategy[FreeWord]:
        letter = st.tuples(st.integers(1, n), st.sampled_from((1, -1))).map(lambda t: t[0] * t[1])
        return st.lists(letter, max_size=max_len).map(lambda ls: FreeWord(n, tuple(ls)))

    return st.integers(1, max_rank).flatmap(words_for)


@pytest.fixture(scope="session")
def speedups(tmp_path_factory):
    """``braidkit._speedups`` compiled from its C source by the system C
    compiler into a temp dir, and loaded from there.

    Nothing is written under src/: a compiled module left beside the
    package would make every later import of braidkit in that checkout
    pick the C backend. A compiler warning fails the build. Skips only
    when there is no C compiler.
    """
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler: cc is not on PATH")
    out = tmp_path_factory.mktemp("speedups") / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    include = sysconfig.get_paths()["include"]
    flags = ["-O2", "-shared", "-fPIC", "-Wall", "-Wextra", "-Werror"]
    subprocess.run([cc, *flags, "-I", include, str(SPEEDUPS_C), "-o", str(out)], check=True)
    spec = importlib.util.spec_from_file_location("braidkit._speedups", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
