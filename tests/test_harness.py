"""Verification suites: pair generation, reports, determinism, exit codes."""

from __future__ import annotations

import gc
import json
import pickle
import tracemalloc

import pytest

from braidkit import (
    BoundaryReport,
    BoundarySummary,
    BraidWord,
    EmbeddingMergeError,
    SuiteConfig,
    TrialReport,
    VerifySummary,
    boundary_suite,
    concat,
    equal_words,
    generate_pair,
    invert_word,
    lift_witness,
    verify_nonmerging,
)
from braidkit import harness
from braidkit.harness import (
    render_boundary_json,
    render_boundary_records,
    render_boundary_text,
    render_json,
    render_records,
    render_text,
)

BASE = dict(m=2, n=3, trials=30, maxlen=8, seed=20240817)


class TestSuiteConfig:
    def test_valid(self):
        SuiteConfig(**BASE)

    @pytest.mark.parametrize(
        "override",
        [
            {"m": 1},
            {"n": 2},
            {"trials": 0},
            {"maxlen": -1},
            {"conjugate_fraction": 1.5},
            {"general_conj_len": -1},
            {"max_sss": 0},
        ],
    )
    def test_invalid(self, override):
        with pytest.raises(ValueError):
            SuiteConfig(**{**BASE, **override})


class TestGeneratePair:
    def test_deterministic(self):
        cfg = SuiteConfig(**BASE)
        assert generate_pair(cfg, 3) == generate_pair(cfg, 3)

    def test_trials_differ(self):
        cfg = SuiteConfig(**BASE)
        pairs = {generate_pair(cfg, t) for t in range(20)}
        assert len(pairs) >= 18

    def test_constructed_pairs_are_conjugate_by_construction(self):
        cfg = SuiteConfig(**{**BASE, "conjugate_fraction": 1.0})
        for trial in range(10):
            a, b, mode = generate_pair(cfg, trial)
            assert mode == "constructed"
            # b was literally built as w a w^-1, so some conjugator exists
            assert len(b) >= len(a)
            assert (len(b) - len(a)) % 2 == 0

    def test_modes_respect_fraction(self):
        all_random = SuiteConfig(**{**BASE, "conjugate_fraction": 0.0})
        assert all(generate_pair(all_random, t)[2] == "random" for t in range(10))

    def test_length_bounds(self):
        cfg = SuiteConfig(**BASE)
        for trial in range(30):
            a, b, mode = generate_pair(cfg, trial)
            assert len(a) <= cfg.maxlen
            bound = 3 * cfg.maxlen if mode == "constructed" else cfg.maxlen
            assert len(b) <= bound


class TestVerifyNonmerging:
    def test_small_run_is_clean(self):
        summary = verify_nonmerging(SuiteConfig(**BASE))
        assert summary.exit_code == 0
        assert summary.inconsistent == 0
        assert summary.theorem_violations == 0
        assert summary.skipped == 0
        assert summary.conjugate + summary.non_conjugate == len(summary.reports)
        assert summary.conjugate > 0 and summary.non_conjugate > 0

    @pytest.mark.parametrize("m, n", [(2, 3), (3, 5)])
    def test_constructed_pairs_always_come_back_conjugate(self, m, n):
        # Constructed pairs are conjugate by construction; a false verdict
        # would be consistent across levels yet still an engine bug.
        cfg = SuiteConfig(m=m, n=n, trials=25, maxlen=10, seed=77, conjugate_fraction=1.0)
        summary = verify_nonmerging(cfg)
        for report in summary.reports:
            if not report.skipped:
                assert report.verdict_m is True and report.verdict_n is True

    def test_verdicts_fill_reports(self):
        summary = verify_nonmerging(SuiteConfig(**{**BASE, "trials": 10}))
        for report in summary.reports:
            assert report.consistent is True
            assert (report.lifted_witness is not None) == bool(report.verdict_n)
            if report.verdict_m:
                assert report.certificate_m is not None
                assert equal_words(
                    concat(
                        report.certificate_m.conjugator,
                        report.a,
                        invert_word(report.certificate_m.conjugator),
                    ),
                    report.b,
                )

    def test_general_embedding_agrees(self):
        cfg = SuiteConfig(**{**BASE, "trials": 15, "general_conj_len": 5})
        summary = verify_nonmerging(cfg)
        assert summary.general_mismatches == 0
        assert all(r.verdict_general is not None for r in summary.reports if not r.skipped)

    def test_skips_counted_and_exit_code_3(self):
        cfg = SuiteConfig(
            **{**BASE, "m": 3, "n": 4, "trials": 10, "conjugate_fraction": 1.0, "max_sss": 1}
        )
        summary = verify_nonmerging(cfg)
        assert summary.skipped > 0
        assert summary.skip_rate > cfg.max_skip_rate
        assert summary.exit_code == 3
        for report in summary.reports:
            if report.skipped:
                assert "resource-limit" in report.skip_reason


class TestReportModel:
    """Tallies and failures are derived from the reports alone; these
    reports are built by hand, since a sound engine never produces them."""

    def test_verify_tallies(self):
        cfg = SuiteConfig(**{**BASE, "trials": 4, "general_conj_len": 2})
        reports = (
            TrialReport(cfg, 0, verdict_m=True, verdict_n=True, verdict_general=True),
            TrialReport(cfg, 1, verdict_m=False, verdict_n=True, verdict_general=True),
            TrialReport(cfg, 2, verdict_m=False, verdict_n=False, verdict_general=True),
            TrialReport(cfg, 3, skip_reason="resource-limit: cap"),
        )
        summary = VerifySummary(cfg, reports)
        assert [r.consistent for r in reports] == [True, False, True, None]
        assert [r.theorem_violation for r in reports] == [False, True, False, False]
        assert summary.tallies == {
            "conjugate": 1,
            "non_conjugate": 1,
            "inconsistent": 1,
            "skipped": 1,
            "theorem_violations": 1,
            "general_mismatches": 1,
            "certificate_failures": 0,
        }
        # The theorem violation is one of the inconsistencies, counted once.
        assert summary.violations == 2
        assert summary.exit_code == 1
        text = render_text(summary)
        assert "non-conjugate  INCONSISTENT general=ok" in text
        assert "non-conjugate  ok general=MISMATCH" in text

    def test_boundary_failures(self):
        reports = (
            BoundaryReport(0, BraidWord(2, (1,)), boundary_preserved=False, periodic=True),
            BoundaryReport(1, BraidWord(2), boundary_preserved=True, periodic=None),
        )
        summary = BoundarySummary(2, 4, 2, seed=0, maxlen=1, reports=reports)
        tallies = (summary.boundary_passes, summary.torsion_checked, summary.torsion_passes)
        assert tallies == (1, 1, 0)
        assert [what for _, _, what in summary.failures] == [
            "boundary curve not preserved",
            "nontrivial embedded word is periodic",
        ]
        assert summary.exit_code == 1
        text = render_boundary_text(summary)
        assert "  FAIL trial 0: boundary curve not preserved: 2: 1\n" in text
        assert render_boundary_records(summary).endswith("failures=2\n")

    def test_each_document_counts_once(self, monkeypatch):
        """A render counts the reports into the tallies once, and lists a
        boundary suite's failures once, however many summary fields read
        them."""
        tallied = []
        listed = []
        tally = harness._tally
        failures = BoundarySummary.failures

        def counted_tally(reports, tests):
            tallied.append(tests)
            return tally(reports, tests)

        def counted_failures(summary):
            listed.append(summary)
            return failures.fget(summary)

        monkeypatch.setattr(harness, "_tally", counted_tally)
        monkeypatch.setattr(BoundarySummary, "failures", property(counted_failures))
        cfg = SuiteConfig(**{**BASE, "trials": 2})
        verify = VerifySummary(cfg, (TrialReport(cfg, 0, skip_reason="resource-limit: cap"),))
        assert verify.document()["summary"]["exit_code"] == 3
        assert len(tallied) == 1
        reports = (BoundaryReport(0, BraidWord(2, (1,)), boundary_preserved=False, periodic=True),)
        boundary = BoundarySummary(2, 4, 1, seed=0, maxlen=1, reports=reports)
        assert boundary.document()["summary"]["exit_code"] == 1
        assert (len(tallied), len(listed)) == (2, 1)


class TestReportsDeriveTheirPair:
    @pytest.mark.parametrize(
        "fields",
        [
            {"m": 3, "n": 5, "trials": 20, "general_conj_len": 4},
            {"m": 3, "n": 4, "trials": 12, "conjugate_fraction": 1.0, "max_sss": 1},
        ],
    )
    def test_pair_and_mode_are_generate_pair(self, fields):
        cfg = SuiteConfig(**{**BASE, **fields})
        summary = verify_nonmerging(cfg)
        if cfg.max_sss == 1:
            assert 0 < summary.skipped < len(summary.reports)
        for r in summary.reports:
            assert r.config is cfg
            assert (r.a, r.b, r.mode) == generate_pair(cfg, r.trial)

    def test_no_slot_holds_a_word(self):
        assert not {"a", "b", "mode"} & set(TrialReport.__slots__)
        summary = verify_nonmerging(SuiteConfig(**{**BASE, "trials": 5}))
        for r in summary.reports:
            assert not any(isinstance(getattr(r, s), BraidWord) for s in TrialReport.__slots__)


class TestReportMemory:
    def test_reports_keep_keys_not_words(self):
        # Certificates hold normal-form keys, reports re-derive their pair
        # and use slots: a summary takes about 280 bytes a trial on CPython
        # 3.11, against 540 with the pair's words in each report and 1,190
        # with a conjugator word and a __dict__ on each object as well. A
        # caller that keeps many summaries pays this per trial. The summary
        # is rebuilt from its pickle under tracemalloc, so that only its
        # own objects are traced and not the work of the decisions.
        cfg = SuiteConfig(m=3, n=6, trials=100, maxlen=6, seed=7)
        summary = verify_nonmerging(cfg)
        assert summary.conjugate > 0
        data = pickle.dumps(summary)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rebuilt = pickle.loads(data)
            gc.collect()  # also empties the free lists of the unpickler's temporaries
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert rebuilt == summary
        assert retained / cfg.trials < 700


class TestLiftWitness:
    def test_conjugate_pair_lifts(self):
        witness = lift_witness(BraidWord(3, (1,)), BraidWord(3, (2,)), 5)
        assert witness is not None
        assert witness.strands == 3
        assert equal_words(
            concat(witness, BraidWord(3, (1,)), invert_word(witness)), BraidWord(3, (2,))
        )

    def test_nonconjugate_pair_returns_none(self):
        assert lift_witness(BraidWord(2, (1,)), BraidWord(2, (-1,)), 3) is None

    def test_constructed_pair_lifts(self):
        a = BraidWord(3, (1, -2, 1))
        g = BraidWord(3, (2, 2, -1))
        b = concat(g, a, invert_word(g))
        witness = lift_witness(a, b, 4)
        assert witness is not None
        assert equal_words(concat(witness, a, invert_word(witness)), b)

    def test_requires_added_strands(self):
        with pytest.raises(ValueError):
            lift_witness(BraidWord(3, (1,)), BraidWord(3, (2,)), 3)


class TestBoundarySuite:
    def test_clean_run(self):
        summary = boundary_suite(2, 4, 50, seed=7)
        assert summary.exit_code == 0
        assert summary.boundary_passes == 50
        assert summary.torsion_passes == summary.torsion_checked
        assert not summary.failures

    def test_validation(self):
        with pytest.raises(ValueError):
            boundary_suite(3, 3, 10, seed=0)


class TestRendering:
    def test_records_are_reproducible(self):
        cfg = SuiteConfig(**{**BASE, "trials": 12})
        first = render_records(verify_nonmerging(cfg))
        second = render_records(verify_nonmerging(cfg))
        assert first == second

    def test_json_is_reproducible_and_parses(self):
        cfg = SuiteConfig(**{**BASE, "trials": 12})
        first = render_json(verify_nonmerging(cfg))
        second = render_json(verify_nonmerging(cfg))
        assert first == second
        document = json.loads(first)
        assert document["summary"]["inconsistent"] == 0
        assert len(document["trials"]) == 12

    def test_times_break_nothing_but_are_present(self):
        cfg = SuiteConfig(**{**BASE, "trials": 4})
        records = render_records(verify_nonmerging(cfg), include_times=True)
        assert "time_m_us=" in records
        document = json.loads(render_json(verify_nonmerging(cfg), include_times=True))
        assert "time_m_us" in document["trials"][0]

    def test_record_field_order(self):
        cfg = SuiteConfig(**{**BASE, "trials": 2})
        line = render_records(verify_nonmerging(cfg)).splitlines()[0]
        keys = [field.split("=")[0] for field in line.split()]
        assert keys == ["trial", "mode", "verdict_m", "verdict_n", "consistent", "skipped"]

    def test_text_mentions_summary(self):
        cfg = SuiteConfig(**{**BASE, "trials": 4})
        text = render_text(verify_nonmerging(cfg))
        assert "summary:" in text
        assert "us)" in text  # per-decision timings

    def test_boundary_renderers(self):
        summary = boundary_suite(2, 4, 10, seed=3)
        assert "boundary curve preserved: 10/10" in render_boundary_text(summary)
        records = render_boundary_records(summary)
        assert records == render_boundary_records(boundary_suite(2, 4, 10, seed=3))
        document = json.loads(render_boundary_json(summary))
        assert document["summary"]["boundary_passes"] == 10
