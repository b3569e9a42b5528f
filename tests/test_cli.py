"""Command-line interface: outputs, formats, exit codes."""

from __future__ import annotations

import json

import pytest

from braidkit import _kernel, _native, concat, equal_words, harness, invert_word, parse_word
from braidkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOneShotCommands:
    def test_nf(self, capsys):
        code, out, _ = run(capsys, "nf", "3: 1 2 1 2")
        assert code == 0
        assert out == "D^1 | (1 3 2)\n"

    def test_eq_true(self, capsys):
        code, out, _ = run(capsys, "eq", "3: 1 2 1", "3: 2 1 2")
        assert (code, out) == (0, "true\n")

    def test_eq_false(self, capsys):
        code, out, _ = run(capsys, "eq", "3: 1 2", "3: 2 1")
        assert (code, out) == (0, "false\n")

    def test_eq_strand_mismatch_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eq", "3: 1", "4: 1")
        assert code == 2
        assert "error" in err

    def test_conj_positive(self, capsys):
        code, out, _ = run(capsys, "conj", "3: 1", "3: 2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "conjugate"
        assert lines[1].startswith("3:")

    def test_conj_prints_the_mixed_word(self, capsys):
        # The certificate's key is Delta^-1 sigma_1; its word is D^-1 with
        # D = sigma_2 sigma_1, two letters in place of four.
        code, out, _ = run(capsys, "conj", "3: 1", "3: 2")
        assert (code, out) == (0, "conjugate\n3: -1 -2\n")

    def test_conj_wide_group(self, capsys):
        # The summit closure takes at most n-1 conjugations per vertex;
        # trying every simple element of B_12 would take 479M of them.
        code, out, _ = run(capsys, "conj", "12: 1", "12: 11")
        assert code == 0
        verdict, conjugator = out.splitlines()
        assert verdict == "conjugate"
        a, b, c = parse_word("12: 1"), parse_word("12: 11"), parse_word(conjugator)
        assert equal_words(concat(c, a, invert_word(c)), b)

    def test_conj_negative(self, capsys):
        code, out, _ = run(capsys, "conj", "3: 1", "3: -1")
        assert (code, out) == (0, "non-conjugate\n")

    def test_embed(self, capsys):
        code, out, _ = run(capsys, "embed", "2: 1 1 1", "4")
        assert (code, out) == (0, "4: 1 1 1\n")

    def test_embed_with_conjugator(self, capsys):
        code, out, _ = run(capsys, "embed", "2: 1", "3", "--conjugator", "3: 2")
        assert (code, out) == (0, "3: -2 1 2\n")

    def test_classify_periodic(self, capsys):
        assert run(capsys, "classify", "3: 1 2")[:2] == (0, "periodic\n")

    def test_classify_reducible(self, capsys):
        code, out, _ = run(capsys, "classify", "3: 1")
        assert code == 0
        assert out.startswith("reducible curve=1..2 power=1 conjugator=3:")

    def test_classify_pseudo_anosov(self, capsys):
        assert run(capsys, "classify", "3: 1 -2")[:2] == (0, "pseudo-anosov\n")

    def test_malformed_word(self, capsys):
        code, _, err = run(capsys, "nf", "3: x")
        assert code == 2
        assert "error" in err

    def test_backend_info(self, capsys):
        code, out, _ = run(capsys, "--backend-info")
        assert code == 0
        assert out.strip() in ("c", "python")

    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2


class TestSuiteCommands:
    VERIFY = (
        "verify-nonmerging",
        "--m", "2", "--n", "3", "--trials", "12", "--maxlen", "8", "--seed", "99",
    )

    def test_verify_text(self, capsys):
        code, out, _ = run(capsys, *self.VERIFY)
        assert code == 0
        assert "summary:" in out

    def test_verify_records_reproducible(self, capsys):
        code1, out1, _ = run(capsys, *self.VERIFY, "--format", "records")
        code2, out2, _ = run(capsys, *self.VERIFY, "--format", "records")
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.splitlines()[0].startswith("trial=0 mode=")

    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, *self.VERIFY, "--format", "json")
        assert code == 0
        assert json.loads(out)["summary"]["inconsistent"] == 0

    def test_verify_general(self, capsys):
        code, out, _ = run(capsys, *self.VERIFY, "--general-conj-len", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["summary"]["general_mismatches"] == 0

    def test_verify_skip_exit_code(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-nonmerging",
            "--m", "3", "--n", "4", "--trials", "8", "--maxlen", "8", "--seed", "5",
            "--conjugate-fraction", "1.0", "--max-sss", "1",
        )
        assert code == 3

    def test_boundary(self, capsys):
        code, out, _ = run(
            capsys, "boundary-suite", "--m", "2", "--n", "4", "--trials", "20", "--seed", "1"
        )
        assert code == 0
        assert "20/20" in out

    def test_boundary_json(self, capsys):
        code, out, _ = run(
            capsys,
            "boundary-suite",
            "--m", "2", "--n", "4", "--trials", "5", "--seed", "1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["summary"]["boundary_passes"] == 5


class TestSuiteFormats:
    """Every format of both suites prints exactly what the harness
    renderer makes of the summary that the command ran, and exits with
    that summary's code."""

    VERIFY = (
        "verify-nonmerging",
        "--m", "2", "--n", "4", "--trials", "6", "--maxlen", "6", "--seed", "3",
    )
    BOUNDARY = ("boundary-suite", "--m", "2", "--n", "4", "--trials", "6", "--seed", "3")

    @staticmethod
    def summaries(monkeypatch, suite: str) -> list:
        """The summaries that harness.<suite> returns from now on."""
        ran = []
        original = getattr(harness, suite)

        def recorded(*args, **kwargs):
            ran.append(original(*args, **kwargs))
            return ran[-1]

        monkeypatch.setattr(harness, suite, recorded)
        return ran

    @pytest.mark.parametrize(
        "fmt, times",
        [("text", False), ("records", False), ("records", True), ("json", False), ("json", True)],
    )
    def test_verify(self, capsys, monkeypatch, fmt, times):
        ran = self.summaries(monkeypatch, "verify_nonmerging")
        code, out, _ = run(capsys, *self.VERIFY, "--format", fmt, *(("--times",) if times else ()))
        [summary] = ran
        render = getattr(harness, f"render_{fmt}")
        assert out == (render(summary, include_times=True) if times else render(summary))
        assert code == summary.exit_code == 0

    @pytest.mark.parametrize("fmt", ["text", "records", "json"])
    def test_boundary(self, capsys, monkeypatch, fmt):
        ran = self.summaries(monkeypatch, "boundary_suite")
        code, out, _ = run(capsys, *self.BOUNDARY, "--format", fmt)
        [summary] = ran
        assert out == getattr(harness, f"render_boundary_{fmt}")(summary)
        assert code == summary.exit_code == 0


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify-nonmerging", "--m", "2"])
        assert info.value.code == 2

    # Each test adds the flag it checks; verify-nonmerging also needs --maxlen.
    VERIFY = ("verify-nonmerging", "--m", "2", "--n", "3", "--trials", "4", "--seed", "1")
    BOUNDARY = ("boundary-suite", "--m", "2", "--n", "3", "--seed", "1")

    @pytest.mark.parametrize("rate", ["-0.5", "1.5"])
    def test_max_skip_rate_out_of_range(self, capsys, rate):
        code, out, err = run(capsys, *self.VERIFY, "--maxlen", "4", "--max-skip-rate", rate)
        assert (code, out) == (2, "")
        assert "max_skip_rate" in err

    def test_boundary_needs_a_trial(self, capsys):
        code, out, err = run(capsys, *self.BOUNDARY, "--trials", "0")
        assert (code, out) == (2, "")
        assert "trial" in err

    @pytest.mark.parametrize("argv", [VERIFY, BOUNDARY + ("--trials", "4")])
    def test_negative_maxlen(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--maxlen", "-1")
        assert (code, out) == (2, "")
        assert "maxlen" in err

    # Equal words, words told apart by their exponent sums, a periodic and
    # a pseudo-Anosov word: the cap is checked before any early answer.
    @pytest.mark.parametrize(
        "argv",
        [
            ("conj", "3: 1", "3: 1", "--max-sss", "-5"),
            ("conj", "3: 1", "3: -1", "--max-sss", "0"),
            ("classify", "3: 1 2", "--max-sss", "0"),
            ("classify", "3: 1 -2", "--max-sss", "0"),
        ],
    )
    def test_max_sss_below_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "max_sss" in err


class TestStrandLimit:
    """Both backends refuse braids on more than the kernel's 255 strands
    with one message, before any kernel call, and take 255 itself."""

    @pytest.fixture(params=["python", "c"])
    def kernel_calls(self, request, monkeypatch):
        """The Garside layer on one backend, each kernel call recorded."""
        backend = _native if request.param == "python" else request.getfixturevalue("speedups")
        calls = []
        for name in ("normalize", "multiply", "conjugate_batch", "minimal_simples"):

            def recorded(*args, _fn=getattr(backend, name)):
                calls.append(args[0])
                return _fn(*args)

            monkeypatch.setattr(_kernel, name, recorded)
        return calls

    @pytest.mark.parametrize(
        "argv",
        [
            ("nf", "256: 1 2 255"),
            ("nf", "300: 1 2"),
            ("eq", "256: 1", "256: 1"),
            ("conj", "300: 1 2", "300: 2 1"),
            # Exponent sums differ, but the limit is checked first.
            ("conj", "300: 1", "300: 2 3"),
            ("classify", "256: 1 -2"),
        ],
    )
    def test_beyond_the_limit(self, capsys, kernel_calls, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "limit of 255 strands" in err
        assert kernel_calls == []

    def test_at_the_limit(self, capsys, kernel_calls):
        code, out, _ = run(capsys, "nf", "255: 1 2 254")
        assert code == 0
        assert out.startswith("D^0 | (3 1 2 4 ")
        assert set(kernel_calls) == {255}
