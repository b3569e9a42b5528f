"""Acceptance suite: one test per criterion, each printing a PASS line
with its elapsed time (run with -s or check the -v test names).

All expected values are either asserted directly, re-derived through the
independent oracles (the faithful free-group action for equality, a
bounded brute-force conjugator search for conjugacy), or are invariants
whose violation would be a fatal engine bug.
"""

from __future__ import annotations

import itertools
import pathlib
import subprocess
import sys
import time

from conftest import artin_oracle_equal, rewritten_equivalent

from braidkit import (
    BraidWord,
    SplitMix64,
    SuiteConfig,
    are_conjugate,
    boundary_suite,
    classify,
    concat,
    derive_seed,
    embed_standard,
    equal_words,
    invert_word,
    random_word,
    round_span,
    verify_nonmerging,
)
from braidkit.garside import _mul, _nf_of_word
from braidkit.harness import render_json, render_records
from braidkit.words import random_letters

# Fixed 40-word sample in B_3 (lengths <= 4) for the brute-force
# conjugacy cross-check: a curated head plus a frozen random tail.
SAMPLE_40 = [
    (),
    (1,),
    (2,),
    (-1,),
    (-2,),
    (1, 2, 1),
    (1, 2),
    (1, 1),
    (1, -2),
    (1, 2, 1, 2),
    (1, 1, 1, 1),
    (2, -1, 2, 1),
    (1, 1, 2),
    (-1, 1),
    (1, -1, 2, 1),
    (-1, 2, -1),
    (2, 2),
    (2, 2, 1),
    (-2, -2, -1, 2),
    (2, -2, 2, -1),
    (-2, 2, 2),
    (-1, -1, -2),
    (2, -2, -1, 1),
    (1, 1, -2, -1),
    (-1, 1, -1, 2),
    (2, -1),
    (-2, -1),
    (-2, 1, -2),
    (-1, 2, -2),
    (1, -1, -2),
    (2, -2, 1),
    (-2, 1),
    (-1, 1, 2, 1),
    (-1, 1, -2),
    (1, 1, 1, 2),
    (1, -1),
    (-1, -2),
    (-2, -1, -1),
    (2, -2),
    (-2, 1, 1, -2),
]


def _report(number: int, name: str, started: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: PASS in {elapsed:.2f}s{suffix}")


def test_criterion_1_equality_oracle_agreement():
    started = time.perf_counter()
    checked = 0
    for n in (3, 4):
        for trial in range(500):
            rng = SplitMix64(derive_seed(0xACCE551 + n, trial))
            u = BraidWord(n, random_letters(rng, n, rng.below(9)))
            if trial % 2 == 0:
                v = rewritten_equivalent(u, rng, steps=8)
            else:
                v = BraidWord(n, random_letters(rng, n, rng.below(9)))
            assert equal_words(u, v) == artin_oracle_equal(u, v)
            checked += 1
    assert checked == 1000
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(1, "equality-oracle agreement", started, "1000 pairs")


def test_criterion_2_garside_identities():
    started = time.perf_counter()
    for n in range(2, 7):
        delta = BraidWord(n, tuple(itertools.chain(*(range(k, 0, -1) for k in range(1, n)))))
        assert _nf_of_word(delta) == (1, b"")  # the word really is the half twist
        twist = concat(delta, delta)
        for i in range(1, n):
            gen = BraidWord(n, (i,))
            flipped = BraidWord(n, (n - i,))
            assert equal_words(concat(delta, gen, invert_word(delta)), flipped)
            assert equal_words(concat(twist, gen), concat(gen, twist))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(2, "Garside identities for n <= 6", started)


def test_criterion_3_certificate_soundness():
    started = time.perf_counter()
    produced = 0
    for seed in range(60):
        n = 3 + seed % 2
        a = random_word(n, 8, seed)
        if seed % 2 == 0:
            g = random_word(n, 8, seed + 10_000)
            b = concat(g, a, invert_word(g))
        else:
            b = random_word(n, 8, seed + 20_000)
        cert = are_conjugate(a, b)
        if cert is not None:
            produced += 1
            assert cert.verifies(a, b)
            assert equal_words(concat(cert.conjugator, a, invert_word(cert.conjugator)), b)
    assert produced >= 30  # the constructed half must all certify
    _report(3, "certificate soundness", started, f"{produced} certificates")


def test_criterion_4_brute_force_conjugacy_cross_check():
    started = time.perf_counter()
    words = [BraidWord(3, letters) for letters in SAMPLE_40]
    assert len(set(words)) == 40 and all(len(w) <= 4 for w in words)

    generators = (1, -1, 2, -2)
    keys = {w: _nf_of_word(w) for w in words}
    letter_keys = [
        (_nf_of_word(BraidWord(3, (g,))), _nf_of_word(BraidWord(3, (-g,)))) for g in generators
    ]

    def bounded_conjugates(a: BraidWord) -> set:
        """Keys of c a c^-1 over all conjugators c of at most 6 letters,
        breadth first: g c' conjugates a to g (c' a c'^-1) g^-1, so each
        level conjugates the previous level's new keys by one letter."""
        reachable = frontier = {keys[a]}
        for _ in range(6):
            frontier = {_mul(3, _mul(3, g, y), g_inv) for y in frontier for g, g_inv in letter_keys}
            frontier -= reachable
            reachable = reachable | frontier
        return reachable

    def enumerated_conjugates(a: BraidWord) -> set:
        """The same set, from each of the 5,461 words of length <= 6."""
        reachable = set()
        for length in range(7):
            for letters in itertools.product(generators, repeat=length):
                c = BraidWord(3, letters)
                reachable.add(_nf_of_word(concat(c, a, invert_word(c))))
        return reachable

    conjugate_sets = {w: bounded_conjugates(w) for w in words}
    for a in (BraidWord(3, (1,)), BraidWord(3, (1, 2, 1))):
        assert conjugate_sets[a] == enumerated_conjugates(a)
    agreements = 0
    for a in words:
        for b in words:
            brute = keys[b] in conjugate_sets[a]
            cert = are_conjugate(a, b)
            engine = cert is not None
            # brute force can only under-approximate (conjugators <= 6)
            if brute:
                assert engine, (a, b)
            if not engine:
                assert not brute, (a, b)
            if engine:
                assert cert.verifies(a, b)
            agreements += brute == engine
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    _report(
        4,
        "brute-force conjugacy cross-check",
        started,
        f"1600 ordered pairs, {agreements} exact agreements",
    )


CONFIGURATIONS = ((2, 3), (2, 4), (3, 4), (3, 5))
SUITE_SEED = 0x5EED2025


def test_criterion_5_nonmerging_suite():
    started = time.perf_counter()
    for m, n in CONFIGURATIONS:
        config_started = time.perf_counter()
        summary = verify_nonmerging(
            SuiteConfig(m=m, n=n, trials=200, maxlen=10, seed=SUITE_SEED)
        )
        elapsed = time.perf_counter() - config_started
        assert summary.inconsistent == 0, (m, n)
        assert summary.theorem_violations == 0, (m, n)
        assert summary.certificate_failures == 0, (m, n)
        assert summary.skip_rate <= 0.05, (m, n)
        assert elapsed < 600.0, (m, n)
        for report in summary.reports:
            if report.certificate_m is not None:
                assert report.certificate_m.verifies(report.a, report.b)
            if report.certificate_n is not None:
                assert report.certificate_n.verifies(
                    embed_standard(report.a, n), embed_standard(report.b, n)
                )
            if report.verdict_n:
                assert report.lifted_witness is not None
                assert equal_words(
                    concat(report.lifted_witness, report.a, invert_word(report.lifted_witness)),
                    report.b,
                )
    _report(5, "non-merging across embeddings", started, "4 configurations x 200 trials")


def test_criterion_6_general_embedding_suite():
    started = time.perf_counter()
    for m, n in CONFIGURATIONS:
        config_started = time.perf_counter()
        summary = verify_nonmerging(
            SuiteConfig(
                m=m, n=n, trials=200, maxlen=10, seed=SUITE_SEED, general_conj_len=6
            )
        )
        elapsed = time.perf_counter() - config_started
        assert summary.general_mismatches == 0, (m, n)
        assert summary.inconsistent == 0, (m, n)
        assert summary.skip_rate <= 0.05, (m, n)
        assert elapsed < 600.0, (m, n)
        for report in summary.reports:
            if not report.skipped:
                assert report.verdict_general == report.verdict_n
    _report(6, "conjugated embeddings agree", started, "4 configurations x 200 trials")


def test_criterion_7_boundary_and_torsion_suite():
    started = time.perf_counter()
    for m in (2, 3):
        summary = boundary_suite(m, m + 2, 100, seed=SUITE_SEED)
        assert summary.boundary_passes == 100, m
        assert summary.torsion_passes == summary.torsion_checked, m
        assert not summary.failures
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(7, "boundary curve and torsion", started, "2 x 100 trials")


def test_criterion_8_classification_regressions():
    started = time.perf_counter()
    assert classify(BraidWord(3, (1, 2))).kind == "periodic"

    reducible = classify(BraidWord(3, (1,)))
    assert reducible.kind == "reducible"
    assert round_span(reducible.curve) == (1, 2)

    assert classify(BraidWord(3, (1, -2))).kind == "pseudo_anosov"

    classified = 0
    seed = 0
    while classified < 50:
        a = random_word(3, 10, derive_seed(SUITE_SEED, seed))
        seed += 1
        if equal_words(a, BraidWord(3)):
            continue
        result = classify(embed_standard(a, 5))
        assert result.kind == "reducible", a
        classified += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(8, "classification regressions", started, "3 curated + 50 embedded")


def test_criterion_9_determinism():
    started = time.perf_counter()
    cfg = SuiteConfig(m=2, n=4, trials=60, maxlen=10, seed=SUITE_SEED, general_conj_len=6)
    records = [render_records(verify_nonmerging(cfg)) for _ in range(2)]
    assert records[0] == records[1]
    documents = [render_json(verify_nonmerging(cfg)) for _ in range(2)]
    assert documents[0] == documents[1]

    from braidkit.harness import render_boundary_json, render_boundary_records

    boundary = [boundary_suite(2, 4, 50, seed=SUITE_SEED) for _ in range(2)]
    assert render_boundary_records(boundary[0]) == render_boundary_records(boundary[1])
    assert render_boundary_json(boundary[0]) == render_boundary_json(boundary[1])

    # And across OS processes, where hash randomization could bite.
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    argv = [
        sys.executable, "-m", "braidkit", "verify-nonmerging",
        "--m", "2", "--n", "4", "--trials", "40", "--maxlen", "10",
        "--seed", str(SUITE_SEED), "--format", "records",
    ]
    outputs = {
        subprocess.run(
            argv,
            capture_output=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"},
            check=True,
        ).stdout
        for _ in range(2)
    }
    assert len(outputs) == 1
    _report(9, "byte-identical machine-readable reports", started)
