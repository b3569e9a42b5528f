"""Kernel backends: the compiled and pure-Python twins must agree bit for
bit, and normalize must emit genuinely left-weighted factor sequences.

The compiled twin is built from its C source by the session fixture
``speedups`` (tests/conftest.py), never from a module left in the checkout.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import pathlib
import random
import re
import shutil
import subprocess
import sys
import tracemalloc

import pytest
import test_classify_golden
import test_garside
import test_report_bytes

from braidkit import _kernel, _native, garside
from braidkit.garside import _letters_to_factors
from braidkit.words import BraidWord, random_word


KERNEL_FUNCTIONS = ("normalize", "multiply", "conjugate_batch", "minimal_simples")


def random_flat(rng: random.Random, n: int, factors: int) -> bytes:
    out = b""
    for _ in range(factors):
        perm = list(range(n))
        rng.shuffle(perm)
        out += bytes(perm)
    return out


def descents(flat: bytes) -> set[int]:
    return {i for i in range(len(flat) - 1) if flat[i] > flat[i + 1]}


def inverse(flat: bytes) -> bytes:
    inv = bytearray(len(flat))
    for k, v in enumerate(flat):
        inv[v] = k
    return bytes(inv)


def fixpoint_normalize(n: int, delta: int, flat: bytes) -> tuple[int, bytes]:
    """The reference normal form: sliding passes over every adjacent pair,
    repeated until one pass changes nothing, then Delta factors absorbed
    from the front and identity factors dropped from the back."""
    if n == 1:
        return 0, b""
    m = len(flat) // n
    buf = bytearray(flat)
    changed = True
    while changed:
        changed = False
        for a in range(0, (m - 1) * n, n):
            b = a + n
            inv = inverse(bytes(buf[a:b]))
            while True:
                move = next(
                    (i for i in range(n - 1) if buf[b + i] > buf[b + i + 1] and inv[i] < inv[i + 1]),
                    None,
                )
                if move is None:
                    break
                changed = True
                buf[b + move], buf[b + move + 1] = buf[b + move + 1], buf[b + move]
                pa, pb = inv[move], inv[move + 1]
                buf[a + pa], buf[a + pb] = move + 1, move
                inv = inv[:move] + bytes((pb, pa)) + inv[move + 2 :]
    w0, ident = bytes(range(n - 1, -1, -1)), bytes(range(n))
    factors = [bytes(buf[off : off + n]) for off in range(0, m * n, n)]
    lo = 0
    while lo < m and factors[lo] == w0:
        lo += 1
    hi = m
    while hi > lo and factors[hi - 1] == ident:
        hi -= 1
    return delta + lo, b"".join(factors[lo:hi])


def special_flat(rng: random.Random, n: int, factors: int) -> bytes:
    """Random factors with Delta and the identity each drawn a fifth of
    the time."""
    out = b""
    for _ in range(factors):
        draw = rng.random()
        if draw < 0.2:
            out += bytes(range(n - 1, -1, -1))
        elif draw < 0.4:
            out += bytes(range(n))
        else:
            out += random_flat(rng, n, 1)
    return out


class TestAgainstFixpoint:
    """The kernel appends one factor at a time and slides it leftward
    once; the reference repeats full passes until nothing moves."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_normalize(self, n):
        rng = random.Random(100 + n)
        for _ in range(150):
            draw = special_flat if rng.random() < 0.5 else random_flat
            args = (n, rng.randint(-3, 3), draw(rng, n, rng.randint(0, 40)))
            assert _native.normalize(*args) == fixpoint_normalize(*args)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_products_of_normal_forms(self, n):
        rng = random.Random(200 + n)
        for _ in range(100):
            x, y = (
                _native.normalize(n, rng.randint(-3, 3), special_flat(rng, n, rng.randint(0, 12)))
                for _ in range(2)
            )
            (p1, flat1), (p2, flat2) = x, y
            twisted = _native._tau_flat(n, flat1) if p2 % 2 else flat1
            assert _native.multiply(n, *x, *y) == fixpoint_normalize(n, p1 + p2, twisted + flat2)
            s = random_flat(rng, n, 1)
            head = inverse(s)[::-1]
            if p1 % 2:
                head = _native._tau_flat(n, head)
            assert _native.conjugate_batch(n, *x, [s])[0] == fixpoint_normalize(
                n, p1 - 1, head + flat1 + s
            )


class TestEndTrim:
    """normalize moves leading Delta rows into the Delta power and drops
    trailing identity rows, on both backends. random_flat almost never
    draws such rows, so the inputs here are explicit."""

    @staticmethod
    def inputs(n: int) -> list[bytes]:
        w0, ident = bytes(range(n - 1, -1, -1)), bytes(range(n))
        # For n >= 3, sigma_1 and sigma_(n-1) are neither trivial nor Delta.
        first = bytes((1, 0)) + ident[2:] if n >= 3 else w0
        last = ident[:-2] + bytes((n - 1, n - 2)) if n >= 3 else ident
        return [
            w0,
            w0 * 3,
            ident,
            ident * 3,
            w0 * 2 + first,
            first + ident * 2,
            w0 * 2 + first + last + ident * 2,
            w0 + ident + w0,
            ident + w0 + ident,
            first + w0 + last,
            ident + first + w0,
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_both_backends(self, speedups, n):
        for flat in self.inputs(n):
            for delta in (-3, 0, 1, 2):
                expected = fixpoint_normalize(n, delta, flat)
                assert _native.normalize(n, delta, flat) == expected
                assert speedups.normalize(n, delta, flat) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_whole_rows(self, speedups, n):
        w0, ident = bytes(range(n - 1, -1, -1)), bytes(range(n))
        for kernel in (_native, speedups):
            for k in (1, 2, 5):
                assert kernel.normalize(n, 1, w0 * k) == (1 + k, b"")
                assert kernel.normalize(n, -1, ident * k) == (-1, b"")
                assert kernel.normalize(n, 0, w0 * k + ident * k) == (k, b"")


class TestTauFlat:
    @staticmethod
    def byte_loop(n: int, flat: bytes) -> bytes:
        """tau(A)[k] = n-1-A[n-1-k], factor by factor, byte by byte."""
        out = bytearray(len(flat))
        for off in range(0, len(flat), n):
            for t in range(n):
                out[off + t] = n - 1 - flat[off + n - 1 - t]
        return bytes(out)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_byte_loop(self, n):
        """Empty, one-factor and many-factor flats, including the identity
        and Delta, which tau fixes."""
        rng = random.Random(300 + n)
        flats = [b"", bytes(range(n)), bytes(range(n))[::-1]]
        flats += [random_flat(rng, n, factors) for factors in (1, 1, 2, 3, 7, 20)]
        for flat in flats:
            assert _native._tau_flat(n, flat) == self.byte_loop(n, flat)
            assert _native._tau_flat(n, _native._tau_flat(n, flat)) == flat


class TestNormalizeContract:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_output_is_left_weighted(self, n):
        rng = random.Random(n)
        for _ in range(200):
            delta, flat = _native.normalize(n, 0, random_flat(rng, n, rng.randint(0, 6)))
            factors = [flat[off : off + n] for off in range(0, len(flat), n)]
            for factor in factors:
                assert factor != bytes(range(n))
                assert factor != bytes(range(n - 1, -1, -1))
                assert sorted(factor) == list(range(n))
            for a, b in zip(factors, factors[1:]):
                assert descents(b) <= descents(inverse(a))

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(2, 6)
            result = _native.normalize(n, rng.randint(-3, 3), random_flat(rng, n, rng.randint(0, 5)))
            assert _native.normalize(n, *result) == result

    def test_single_strand_collapses(self):
        assert _native.normalize(1, 7, b"\x00\x00") == (0, b"")

    def test_empty(self):
        assert _native.normalize(4, -2, b"") == (-2, b"")


class TestBackendParity:
    def test_normalize(self, speedups):
        rng = random.Random(42)
        for _ in range(3000):
            n = rng.randint(1, 7)
            draw = special_flat if rng.random() < 0.3 else random_flat
            args = (n, rng.randint(-4, 4), draw(rng, n, rng.randint(0, 6)))
            assert _native.normalize(*args) == speedups.normalize(*args)

    def test_multiply(self, speedups):
        rng = random.Random(43)
        for _ in range(1500):
            n = rng.randint(1, 6)
            x = _native.normalize(n, rng.randint(-3, 3), random_flat(rng, n, rng.randint(0, 4)))
            y = _native.normalize(n, rng.randint(-3, 3), random_flat(rng, n, rng.randint(0, 4)))
            assert _native.multiply(n, *x, *y) == speedups.multiply(n, *x, *y)

    def test_conjugate(self, speedups):
        rng = random.Random(44)
        for _ in range(1500):
            n = rng.randint(1, 6)
            x = _native.normalize(n, rng.randint(-3, 3), random_flat(rng, n, rng.randint(0, 4)))
            s = random_flat(rng, n, 1)
            assert _native.conjugate_batch(n, *x, [s]) == speedups.conjugate_batch(n, *x, [s])

    def test_conjugate_batch(self, speedups):
        rng = random.Random(45)
        for n in (2, 3, 4):
            # Every nontrivial simple element; the first permutation is the identity.
            simples = [bytes(p) for p in itertools.permutations(range(n))][1:]
            for _ in range(50):
                x = _native.normalize(n, rng.randint(-2, 2), random_flat(rng, n, rng.randint(0, 4)))
                assert _native.conjugate_batch(n, *x, simples) == speedups.conjugate_batch(
                    n, *x, simples
                )
        assert speedups.conjugate_batch(4, 1, bytes(range(4)), []) == []

    def test_on_real_words(self, speedups):
        for seed in range(100):
            n = 2 + seed % 5
            word = random_word(n, 3 * (seed % 8), seed)
            p, flat = _letters_to_factors(n, word.letters)
            assert _native.normalize(n, p, flat) == speedups.normalize(n, p, flat)

    def test_long_sequences(self, speedups):
        """Many factors in B_7 and B_12, where one appended factor can
        slide back through several pairs."""
        rng = random.Random(46)
        for n, factors in ((7, 60), (12, 30)):
            for _ in range(20):
                args = (n, rng.randint(-3, 3), random_flat(rng, n, factors))
                assert _native.normalize(*args) == speedups.normalize(*args)
                x = _native.normalize(*args)
                y = _native.normalize(n, 1, random_flat(rng, n, factors // 2))
                assert _native.multiply(n, *x, *y) == speedups.multiply(n, *x, *y)


class TestMinimalSimplesParity:
    """The C twin of minimal_simples, which keeps no memo, against
    _native's, which keeps one per walk as garside does. Each twin is
    handed only the vertex and derives its inverse itself."""

    @staticmethod
    def both(speedups, n, key, memo):
        expected = _native.minimal_simples(n, *key, memo)
        assert speedups.minimal_simples(n, *key, None) == expected
        return expected

    @pytest.mark.parametrize("n, length", [(3, 8), (4, 8), (5, 6), (6, 5), (7, 4)])
    def test_every_vertex_of_summit_sets(self, speedups, n, length):
        """Summit sets of eight seeded words each, those of up to 1,000
        elements."""
        vertices = 0
        for seed in range(8):
            try:
                keys = garside.super_summit_set(random_word(n, length, 1100 + seed), 1000).keys
            except garside.ResourceLimitError:
                continue
            memo = {}
            for key in keys:
                self.both(speedups, n, key, memo)
            vertices += len(keys)
        assert vertices >= 30

    def test_random_summit_elements(self, speedups):
        """The summit elements include odd and negative Delta powers and
        odd and even factor counts, so every parity of the twist that
        each twin gives its derived inverse's factors is met."""
        rng = random.Random(47)
        shapes = set()
        for _ in range(400):
            n = rng.randint(1, 8)
            word = random_word(n, rng.randint(0, 14), rng.randrange(2**32)) if n > 1 else None
            key = garside._nf_of_word(word) if word else (rng.randint(-3, 3), b"")
            summit, _ = garside._drive_to_summit(n, key)
            found = self.both(speedups, n, summit, {})
            assert len(found) == len(set(found)) <= max(n - 1, 0)
            if summit[1]:
                shapes.add((summit[0] % 2, summit[0] < 0, len(summit[1]) // n % 2))
        assert {odd for odd, _, _ in shapes} == {0, 1}
        assert {negative for _, negative, _ in shapes} == {False, True}
        assert {length for _, _, length in shapes} == {0, 1}

    @pytest.mark.parametrize(
        "n, letters",
        [(64, (62, 63, -62, 1)), (65, (62, 63, 64, -64, 63, 1, -60)), (129, (63, 64, 65, -128))],
        ids=["64", "65", "129"],
    )
    def test_rows_of_several_words(self, speedups, n, letters):
        """Inversion rows of one, two and three 64-bit words, with
        crossings over the boundaries between them, on elements that need
        not be summit elements: the twins run one algorithm on any key."""
        self.both(speedups, n, garside._nf_of_word(BraidWord(n, letters)), {})


class TestCompiledArguments:
    """The C kernel checks what it is given, so no input makes it read or
    write outside its buffers; _native is called only with the Garside
    layer's own keys and checks nothing."""

    @pytest.mark.parametrize("n", [0, -1, 256, 1000])
    def test_strand_count_out_of_range(self, speedups, n):
        with pytest.raises(ValueError, match="strand count"):
            speedups.normalize(n, 0, b"")
        with pytest.raises(ValueError, match="strand count"):
            speedups.multiply(n, 0, b"", 0, b"")
        with pytest.raises(ValueError, match="strand count"):
            speedups.conjugate_batch(n, 0, b"", [])
        with pytest.raises(ValueError, match="strand count"):
            speedups.minimal_simples(n, 0, b"", None)

    def test_largest_strand_count(self, speedups):
        """n = 255 is the kernel's limit, MAX_N in _speedups.c, which the
        Garside layer enforces on both backends (tests/test_cli.py)."""
        delta, ident = bytes(range(254, -1, -1)), bytes(range(255))
        assert speedups.normalize(255, 0, delta + ident) == (1, b"")
        assert speedups.conjugate_batch(255, 2, b"", [delta]) == [(2, b"")]
        atoms = [bytes(ident[:i] + bytes((i + 1, i)) + ident[i + 2 :]) for i in range(254)]
        assert speedups.minimal_simples(255, 2, b"", None) == atoms

    def test_partial_factors(self, speedups):
        whole, partial = bytes((1, 0, 2)), bytes((1, 0))
        with pytest.raises(ValueError, match="multiple of n"):
            speedups.normalize(3, 0, whole + partial)
        with pytest.raises(ValueError, match="multiple of n"):
            speedups.multiply(3, 0, partial, 0, whole)
        with pytest.raises(ValueError, match="multiple of n"):
            speedups.multiply(3, 0, whole, 0, partial)
        with pytest.raises(ValueError, match="multiple of n"):
            speedups.conjugate_batch(3, 0, partial, [whole])
        with pytest.raises(ValueError, match="multiple of n"):
            speedups.minimal_simples(3, 0, whole + partial, None)
        with pytest.raises(ValueError, match="multiple of n"):
            speedups.minimal_simples(3, 0, partial, None)

    @pytest.mark.parametrize("s", [b"", bytes((1,)), bytes((1, 0)), bytes((1, 0, 2, 3))])
    def test_simple_element_of_the_wrong_length(self, speedups, s):
        """A short simple element would otherwise be read past its end."""
        with pytest.raises(ValueError, match="n bytes long"):
            speedups.conjugate_batch(3, 0, bytes((1, 0, 2)), [bytes((0, 2, 1)), s])

    @pytest.mark.parametrize("bad", [bytearray(3), memoryview(bytes(3)), "abc", None, [0, 1, 2]])
    def test_non_bytes(self, speedups, bad):
        with pytest.raises(TypeError):
            speedups.normalize(3, 0, bad)
        with pytest.raises(TypeError):
            speedups.multiply(3, 0, b"", 0, bad)
        with pytest.raises(TypeError):
            speedups.conjugate_batch(3, 0, bad, [])
        with pytest.raises(TypeError):
            speedups.conjugate_batch(3, 0, b"", [bytes((0, 2, 1)), bad])
        with pytest.raises(TypeError):
            speedups.conjugate_batch(3, "0", b"", [])
        with pytest.raises(TypeError):
            speedups.minimal_simples(3, 0, bad, None)
        with pytest.raises(TypeError):
            speedups.minimal_simples(3, "0", b"", None)

    def test_wrong_arguments(self, speedups):
        """Arguments are read by position, so a call with too few must not
        reach the missing ones; keywords and a strand count that is not
        an int are refused too."""
        with pytest.raises(TypeError, match="takes 3 arguments"):
            speedups.normalize(3, 0)
        with pytest.raises(TypeError, match="takes 5 arguments"):
            speedups.multiply(3, 0, b"", 0)
        with pytest.raises(TypeError, match="takes 4 arguments"):
            speedups.conjugate_batch(3, 0, b"", [], [])
        with pytest.raises(TypeError, match="takes 4 arguments"):
            speedups.minimal_simples(3, 0, b"")
        with pytest.raises(TypeError, match="takes 4 arguments"):
            speedups.minimal_simples(3, 0, b"", None, None)
        with pytest.raises(TypeError):
            speedups.normalize(n=3, delta=0, flat=b"")
        with pytest.raises(TypeError):
            speedups.normalize("3", 0, b"")
        with pytest.raises(TypeError):
            speedups.conjugate_batch(3.0, 0, b"", [])

    def test_errors_free_what_they_took(self, speedups):
        """Failed calls hold on to nothing: the list of simple elements a
        generator was turned into is released, and memory stays flat over
        many failures."""
        simples = [bytes((0, 2, 1)), bytes((1, 0))]
        refs = sys.getrefcount(simples)
        flat = bytes((1, 0, 2)) * 500

        def fail() -> int:
            raised = 0
            for args in (
                (3, 0, flat, simples),
                (3, 0, flat, iter(simples)),
                (3, 0, flat, (s for s in simples)),
                (3, 0, flat, [bytes((0, 2, 1)), None]),
            ):
                try:
                    speedups.conjugate_batch(*args)
                except (TypeError, ValueError):
                    raised += 1
            return raised

        assert fail() == 4
        tracemalloc.start()
        try:
            # The first round fills the interpreter's free lists; a leak
            # keeps growing through the second.
            traced = []
            for _ in range(2):
                for _ in range(3000):
                    fail()
                traced.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert traced[1] - traced[0] < 10_000
        assert sys.getrefcount(simples) == refs

    def test_minimal_simples_hold_nothing(self, speedups):
        """Neither failed nor finished calls of minimal_simples hold on to
        their arguments or their buffer: refcounts are unchanged, and
        memory stays flat over many calls."""
        key = _native.normalize(5, -1, bytes((1, 0, 3, 4, 2, 4, 3, 2, 1, 0)))
        memo = {}
        refs = [sys.getrefcount(arg) for arg in (key[1], memo)]

        def calls() -> int:
            raised = 0
            for args in (
                (5, key[0], None, memo),
                (5, key[0], key[1][:-1], memo),
                (300, *key, memo),
                (5, *key),
            ):
                try:
                    speedups.minimal_simples(*args)
                except (TypeError, ValueError):
                    raised += 1
            assert speedups.minimal_simples(5, *key, memo)
            return raised

        assert calls() == 4
        tracemalloc.start()
        try:
            traced = []
            for _ in range(2):
                for _ in range(3000):
                    calls()
                traced.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert traced[1] - traced[0] < 10_000
        assert [sys.getrefcount(arg) for arg in (key[1], memo)] == refs
        assert memo == {}

    def test_deltas_beyond_the_kernel(self, speedups):
        with pytest.raises(OverflowError):
            speedups.normalize(3, 2**62, b"")
        with pytest.raises(OverflowError):
            speedups.multiply(3, 0, b"", -(2**70), b"")
        with pytest.raises(OverflowError):
            speedups.minimal_simples(3, 2**62, b"", None)


class TestCompiledWorkloads:
    """Pinned workloads, run with every kernel call of the Garside layer
    on the compiled kernel, minimal_simples included."""

    @pytest.fixture
    def compiled(self, speedups, monkeypatch):
        for name in KERNEL_FUNCTIONS:
            monkeypatch.setattr(_kernel, name, getattr(speedups, name))

    def test_goldens(self, compiled):
        """The SSS and classify goldens give their pinned element and
        conjugator hashes."""
        test_garside.TestSuperSummitSet().test_golden()
        test_classify_golden.test_curated_words()
        test_classify_golden.test_embedded_b3_words()
        test_classify_golden.test_conjugated_b4_words()

    @pytest.mark.parametrize("suite", ["plain", "general", "skips"])
    def test_report_bytes(self, compiled, suite):
        """The verify suites of test_report_bytes render their pinned
        bytes in every format, conjugators built by are_conjugate
        included. The suite runs afresh, not from that module's cache."""
        summary = test_report_bytes.SUITES[suite]()
        for fmt in ("records", "json", "text"):
            text = test_report_bytes.RENDERERS[fmt](summary)
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest == test_report_bytes.EXPECTED[suite, fmt], (fmt, text)


class TestArity:
    """Each kernel function has one arity, the same in both twins."""

    @pytest.mark.parametrize("name", KERNEL_FUNCTIONS)
    def test_twins_take_the_same_arguments(self, speedups, name):
        """The C twin names its arity in the TypeError of a call with no
        arguments; the _native twin's signature has that many parameters."""
        with pytest.raises(TypeError, match="takes [0-9]+ arguments") as raised:
            getattr(speedups, name)()
        arity = int(re.search("takes ([0-9]+) arguments", str(raised.value)).group(1))
        assert len(inspect.signature(getattr(_native, name)).parameters) == arity


class TestBackendSelection:
    """The backend is chosen by what is installed: the C twin when the
    built module imports, the pure-Python twin otherwise."""

    SNIPPET = (
        "import braidkit; "
        "print(braidkit.backend_name()); "
        "print(braidkit.normal_form(braidkit.BraidWord(3, (1, 2, 1, 2))))"
    )

    @staticmethod
    def copy_package(tmp_path: pathlib.Path) -> pathlib.Path:
        """A copy of the package's sources, with no built module."""
        package = pathlib.Path(garside.__file__).parent
        copy = tmp_path / "braidkit"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__", "*.so"))
        return copy

    def run(self, src: pathlib.Path) -> list[str]:
        env = {"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"}
        result = subprocess.run(
            [sys.executable, "-c", self.SNIPPET],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return result.stdout.splitlines()

    def test_forced_pure_backend(self, tmp_path):
        """A copy of the package without the built module, as an install
        without a compiler leaves it, picks the pure-Python backend."""
        self.copy_package(tmp_path)
        backend, nf = self.run(tmp_path)
        assert backend == "python"
        assert nf == "D^1 | (1 3 2)"

    def test_default_prefers_compiled(self, speedups, tmp_path):
        """A copy of the package with the built module beside it, as an
        install with a compiler leaves it, picks the C backend."""
        shutil.copy(speedups.__file__, self.copy_package(tmp_path))
        backend, nf = self.run(tmp_path)
        assert backend == "c"
        assert nf == "D^1 | (1 3 2)"
