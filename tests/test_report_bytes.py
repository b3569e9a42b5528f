"""Exact bytes of every suite report format, pinned by sha256.

The other report tests compare two runs with each other, so a change that
alters the bytes of every run alike would pass them. These pin the bytes
themselves, for the library renderers and for the command line. The
text format shows wall-clock times, so it is pinned with
each "(N us / N us)" masked.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re

import pytest

from braidkit import (
    SuiteConfig,
    boundary_suite,
    concat,
    embed_standard,
    equal_words,
    invert_word,
    parse_word,
    verify_nonmerging,
)
from braidkit.cli import main
from braidkit.harness import (
    render_boundary_json,
    render_boundary_records,
    render_boundary_text,
    render_json,
    render_records,
    render_text,
)

TIMES = re.compile(r"\(\d+ us / \d+ us\)")

SUITES = {
    "plain": lambda: verify_nonmerging(SuiteConfig(m=2, n=3, trials=12, maxlen=8, seed=99)),
    "general": lambda: verify_nonmerging(
        SuiteConfig(m=2, n=3, trials=12, maxlen=8, seed=99, general_conj_len=4)
    ),
    # max_sss=1 skips most conjugate pairs of B_3 words; exit code 3.
    "skips": lambda: verify_nonmerging(
        SuiteConfig(m=3, n=4, trials=12, maxlen=8, seed=5, conjugate_fraction=0.75, max_sss=1)
    ),
    "boundary": lambda: boundary_suite(2, 4, 12, seed=1, maxlen=8),
}

RENDERERS = {
    "records": render_records,
    "json": render_json,
    "text": lambda summary: TIMES.sub("(N us / N us)", render_text(summary)),
    "boundary-records": render_boundary_records,
    "boundary-json": render_boundary_json,
    "boundary-text": render_boundary_text,
}

EXPECTED = {
    ("plain", "records"): "9973d0cc05a0ad99adaa8bbff637532c6996d898d31764db0b519d090c11f7a7",
    ("plain", "json"): "0c7744f0ad9d0da2689f92e646ec617a74211f09af6bce44c0dc9e26520586a0",
    ("plain", "text"): "65938c4f38d5ded620ab4898ac831ddf223198555e50268b288d47e4bf1c041e",
    ("general", "records"): "78009ef9fae8fa3fa3a71490b0f710ff9905e7e3aff73a17e8a7a3f83f0cb4b6",
    ("general", "json"): "a6648d65bd5abd59ffb1f2435dd5e8298706d606368bbda342b6245d8d9b142b",
    ("general", "text"): "b13d23c7b866a3f935564b17bd4f1a031e634ed80b463ad6edcae90a66dda9ad",
    ("skips", "records"): "e8b960d559c39d6df0579e2a56393b3f5e403a567bdb2b70224bb742dc21f57c",
    ("skips", "json"): "00ccde3bb831be0932e1f2c6b9fa3b9ea18bd6f39552a6ebdafa40e1fc31b69f",
    ("skips", "text"): "d8508201fd94284ce49adc53ac563c692141c3712384491c79ff80a7d69f17f7",
    ("boundary", "boundary-records"):
        "4a61c277325b5161d051ea5bd26edacb7da2c312aba8c7c7c627abbe89157782",
    ("boundary", "boundary-json"):
        "6b5cb9ab7486b94ac1fb8fe2be8e2f5fa7dc302e7271d7784c4f53ee71c87380",
    ("boundary", "boundary-text"):
        "26df4bdcdebc739bfb2008f939a41d0ec47db4215a0f2ebca895bd3ebe402775",
}


@functools.cache
def _summary(suite):
    return SUITES[suite]()


@pytest.mark.parametrize("suite, fmt", sorted(EXPECTED))
def test_report_bytes(suite, fmt):
    text = RENDERERS[fmt](_summary(suite))
    assert hashlib.sha256(text.encode()).hexdigest() == EXPECTED[suite, fmt], text


@pytest.mark.parametrize("suite", ["plain", "general", "skips"])
def test_json_conjugators_verify(suite):
    """Every conjugator the pinned verify suites print conjugates its
    pair: c * a * c^-1 = b for conjugator_m and lifted_witness, and the
    same for the standard images in B_n for conjugator_n. A re-pin of the
    json hashes above thus rests on a check, not only on a hash."""
    document = json.loads(render_json(_summary(suite)))
    n = document["config"]["n"]
    checked = 0
    for trial in document["trials"]:
        a, b = parse_word(trial["a"]), parse_word(trial["b"])
        pairs = {
            "conjugator_m": (a, b),
            "lifted_witness": (a, b),
            "conjugator_n": (embed_standard(a, n), embed_standard(b, n)),
        }
        for field, (x, y) in pairs.items():
            if trial[field] is not None:
                c = parse_word(trial[field])
                assert equal_words(concat(c, x, invert_word(c)), y), (trial["trial"], field)
                checked += 1
    assert checked > 0


# Command lines that run the "plain" and "boundary" suites above.
COMMANDS = {
    "plain": "verify-nonmerging --m 2 --n 3 --trials 12 --maxlen 8 --seed 99",
    "boundary": "boundary-suite --m 2 --n 4 --trials 12 --seed 1 --maxlen 8",
}


@pytest.mark.parametrize("suite", sorted(COMMANDS))
@pytest.mark.parametrize("fmt", ["records", "json", "text"])
def test_cli_output_bytes(capsys, suite, fmt):
    assert main(COMMANDS[suite].split() + ["--format", fmt]) == 0
    out = TIMES.sub("(N us / N us)", capsys.readouterr().out)
    key = fmt if suite == "plain" else f"boundary-{fmt}"
    assert hashlib.sha256(out.encode()).hexdigest() == EXPECTED[suite, key], out
