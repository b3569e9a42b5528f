"""Randomized verification suites for the embedding conjugacy property.

The headline suite, verify_nonmerging, draws pairs (a, b) in B_m and
decides conjugacy twice: once in B_m and once for the standard images in
B_n. The two verdicts must always agree: embedded conjugacy implies
conjugacy downstairs (geometric embeddings do not merge conjugacy
classes) and the converse direction is trivial. Any disagreement is a
fatal finding, reported with a nonzero exit status, since it can only
come from an engine bug.

Both decisions are computed independently; the B_m verdict is never used
to shortcut the B_n one, otherwise the suite would be vacuous.

All randomness flows through the documented SplitMix64 streams: trial t
of a suite with seed s draws from derive_seed(s, t), and the optional
general-embedding conjugator from derive_seed(s ^ GENERAL_SALT, t), so
reports are bitwise reproducible.

Report model. A summary keeps its configuration and what each trial
produced, and derives everything else. A TrialReport stores the
summary's configuration object and its trial id, the verdicts (B_m, B_n
and the optional conjugated embedding), the two certificates, the skip
reason and the two decision times. Its pair and mode are not stored:
``a``, ``b`` and ``mode`` re-derive them with generate_pair, which is
deterministic in (config, trial), so a kept summary holds no words.
``skipped``, ``consistent``, ``general_consistent``,
``theorem_violation`` and ``lifted_witness`` are read-only properties
over those fields. One function, _tally, counts the reports into the
summary's tallies:

    conjugate            both verdicts true
    non_conjugate        both verdicts false
    inconsistent         verdict_m != verdict_n
    skipped              stopped by a resource limit
    theorem_violations   conjugate in B_n but not in B_m; a subset of
                         the inconsistent trials
    general_mismatches   conjugated-embedding verdict != verdict_n
    certificate_failures always 0 (are_conjugate raises instead)

The exit code is 1 exactly when a trial is inconsistent or has a general
mismatch, else 3 when the skip rate passes max_skip_rate, else 0. The
boundary suite follows the same model with BoundaryReport and the
tallies boundary_passes, torsion_checked and torsion_passes.

Every output format of a suite (text, records, JSON) is rendered from
one dict in the shape of the JSON document, which each renderer builds
once with the summary's ``document()``. Its words and certificates stay
objects until render_json spells them, as no other format prints them.
It holds the decision times; records and JSON leave them out unless
asked, so identical flags reproduce identical bytes. Neither the dict
nor the tallies are cached: a summary kept after rendering holds only
its configuration and reports.
"""

from __future__ import annotations

import dataclasses
import json
import time

from .curves import curve_class_round, is_periodic, preserves_curve_class
from .embedding import embed_general, embed_standard
from .garside import (
    DEFAULT_SSS_LIMIT,
    ConjugacyCertificate,
    ResourceLimitError,
    _check_cap,
    are_conjugate,
    equal_words,
)
from .words import (
    BraidWord,
    SplitMix64,
    concat,
    derive_seed,
    format_word,
    invert_word,
    random_letters,
)

__all__ = [
    "BoundaryReport",
    "BoundarySummary",
    "EmbeddingMergeError",
    "SuiteConfig",
    "TrialReport",
    "VerifySummary",
    "boundary_suite",
    "generate_pair",
    "lift_witness",
    "render_boundary_json",
    "render_boundary_records",
    "render_boundary_text",
    "render_json",
    "render_records",
    "render_text",
    "verify_nonmerging",
]

GENERAL_SALT = 0xC2B2AE3D27D4EB4F


class EmbeddingMergeError(Exception):
    """Embedded words were conjugate upstairs but not downstairs.

    Geometric embeddings never merge conjugacy classes, so reaching this
    always means the engine has a bug; it is reported as a fatal finding,
    never swallowed.
    """


def _check_suite(m: int, n: int, trials: int, maxlen: int) -> None:
    """Refuse the (m, n, trials, maxlen) that no suite can run."""
    if not n > m >= 2:
        raise ValueError(f"need n > m >= 2, got m={m}, n={n}")
    if trials < 1:
        raise ValueError("need at least one trial")
    if maxlen < 0:
        raise ValueError("maxlen must be >= 0")


@dataclasses.dataclass(frozen=True, slots=True)
class SuiteConfig:
    """Configuration of a verify_nonmerging run."""

    m: int
    n: int
    trials: int
    maxlen: int
    seed: int
    conjugate_fraction: float = 0.5
    general_conj_len: int | None = None
    max_sss: int = DEFAULT_SSS_LIMIT
    max_skip_rate: float = 0.05

    def __post_init__(self):
        _check_suite(self.m, self.n, self.trials, self.maxlen)
        if not 0.0 <= self.conjugate_fraction <= 1.0:
            raise ValueError("conjugate_fraction must lie in [0, 1]")
        if self.general_conj_len is not None and self.general_conj_len < 0:
            raise ValueError("general_conj_len must be >= 0")
        _check_cap(self.max_sss)
        if not 0.0 <= self.max_skip_rate <= 1.0:
            raise ValueError("max_skip_rate must lie in [0, 1]")


@dataclasses.dataclass(frozen=True, slots=True)
class TrialReport:
    """What one trial produced. The verdicts are None exactly when the
    trial was skipped on a resource limit, and ``verdict_general`` also
    when the suite has no general conjugator.

    The report keeps its suite's configuration (the summary's own object)
    and its trial id, not the pair: ``a``, ``b`` and ``mode`` re-derive it
    with generate_pair, which is deterministic in (config, trial)."""

    config: SuiteConfig
    trial: int
    verdict_m: bool | None = None
    verdict_n: bool | None = None
    verdict_general: bool | None = None
    certificate_m: ConjugacyCertificate | None = None
    certificate_n: ConjugacyCertificate | None = None
    skip_reason: str | None = None
    time_m_us: int = 0
    time_n_us: int = 0

    @property
    def a(self) -> BraidWord:
        return generate_pair(self.config, self.trial)[0]

    @property
    def b(self) -> BraidWord:
        return generate_pair(self.config, self.trial)[1]

    @property
    def mode(self) -> str:
        return generate_pair(self.config, self.trial)[2]

    @property
    def skipped(self) -> bool:
        return self.skip_reason is not None

    @property
    def consistent(self) -> bool | None:
        return None if self.skipped else self.verdict_m == self.verdict_n

    @property
    def general_consistent(self) -> bool | None:
        return None if self.verdict_general is None else self.verdict_general == self.verdict_n

    @property
    def theorem_violation(self) -> bool:
        """Conjugate in B_n but not in B_m: a merged conjugacy class."""
        return bool(self.verdict_n and not self.verdict_m)

    @property
    def lifted_witness(self) -> BraidWord | None:
        """A B_m conjugator for a pair whose images are conjugate in B_n.

        It is the B_m certificate itself; its absence would contradict the
        embedding property (see lift_witness for the standalone operation).
        """
        if self.verdict_n and self.certificate_m is not None:
            return self.certificate_m.conjugator
        return None


def _tally(reports, tests) -> dict[str, int]:
    """For each named test, how many reports pass it."""
    return {name: sum(1 for r in reports if test(r)) for name, test in tests.items()}


def _tallied(name: str) -> property:
    return property(lambda self: self.tallies[name], doc=f"The {name} tally of the reports.")


# In the order of the records summary line.
_VERIFY_TALLIES = {
    "conjugate": lambda r: r.verdict_m and r.verdict_n,
    "non_conjugate": lambda r: r.verdict_m is False and r.verdict_n is False,
    "inconsistent": lambda r: r.consistent is False,
    "skipped": lambda r: r.skipped,
    "theorem_violations": lambda r: r.theorem_violation,
    "general_mismatches": lambda r: r.general_consistent is False,
    # are_conjugate re-checks each certificate and raises if it fails.
    "certificate_failures": lambda r: False,
}


@dataclasses.dataclass(frozen=True, slots=True)
class VerifySummary:
    config: SuiteConfig
    reports: tuple[TrialReport, ...]

    @property
    def tallies(self) -> dict[str, int]:
        return _tally(self.reports, _VERIFY_TALLIES)

    conjugate = _tallied("conjugate")
    non_conjugate = _tallied("non_conjugate")
    inconsistent = _tallied("inconsistent")
    skipped = _tallied("skipped")
    theorem_violations = _tallied("theorem_violations")
    general_mismatches = _tallied("general_mismatches")
    certificate_failures = _tallied("certificate_failures")

    @property
    def skip_rate(self) -> float:
        return self.skipped / len(self.reports) if self.reports else 0.0

    @property
    def violations(self) -> int:
        """Trials that break the property; theorem violations are already
        among the inconsistent ones."""
        return self.inconsistent + self.general_mismatches

    @property
    def exit_code(self) -> int:
        if self.violations:
            return 1
        if self.skip_rate > self.config.max_skip_rate:
            return 3
        return 0

    def document(self) -> dict:
        """The report every format is rendered from, times included."""
        return {
            "config": dataclasses.asdict(self.config),
            "trials": [_trial_document(r) for r in self.reports],
            "summary": {
                "trials": len(self.reports),
                **self.tallies,
                "skip_rate": self.skip_rate,
                "exit_code": self.exit_code,
            },
        }


def generate_pair(cfg: SuiteConfig, trial: int) -> tuple[BraidWord, BraidWord, str]:
    """The trial's pair, deterministic in (cfg.seed, trial).

    Draw order from the trial stream: mode (one 32-bit compare against
    the configured fraction), then |a| and a's letters, then either the
    conjugating word w for b = w a w^-1 or b's own length and letters.
    """
    rng = SplitMix64(derive_seed(cfg.seed, trial))
    threshold = round(cfg.conjugate_fraction * (1 << 32))
    constructed = rng.below(1 << 32) < threshold
    a = BraidWord(cfg.m, random_letters(rng, cfg.m, rng.below(cfg.maxlen + 1)))
    if constructed:
        w = BraidWord(cfg.m, random_letters(rng, cfg.m, rng.below(cfg.maxlen + 1)))
        return a, concat(w, a, invert_word(w)), "constructed"
    b = BraidWord(cfg.m, random_letters(rng, cfg.m, rng.below(cfg.maxlen + 1)))
    return a, b, "random"


def _general_conjugator(cfg: SuiteConfig, trial: int) -> BraidWord:
    rng = SplitMix64(derive_seed(cfg.seed ^ GENERAL_SALT, trial))
    length = rng.below(cfg.general_conj_len + 1)
    return BraidWord(cfg.n, random_letters(rng, cfg.n, length))


def _run_trial(cfg: SuiteConfig, trial: int) -> TrialReport:
    a, b, _ = generate_pair(cfg, trial)
    try:
        start = time.perf_counter_ns()
        cert_m = are_conjugate(a, b, max_sss=cfg.max_sss)
        time_m_us = (time.perf_counter_ns() - start) // 1000

        ea = embed_standard(a, cfg.n)
        eb = embed_standard(b, cfg.n)
        start = time.perf_counter_ns()
        cert_n = are_conjugate(ea, eb, max_sss=cfg.max_sss)
        time_n_us = (time.perf_counter_ns() - start) // 1000

        verdict_general = None
        if cfg.general_conj_len is not None:
            g = _general_conjugator(cfg, trial)
            cert_g = are_conjugate(
                embed_general(a, cfg.n, g), embed_general(b, cfg.n, g), max_sss=cfg.max_sss
            )
            verdict_general = cert_g is not None
    except ResourceLimitError as exc:
        return TrialReport(cfg, trial, skip_reason=f"resource-limit: {exc}")
    return TrialReport(
        cfg,
        trial,
        verdict_m=cert_m is not None,
        verdict_n=cert_n is not None,
        verdict_general=verdict_general,
        certificate_m=cert_m,
        certificate_n=cert_n,
        time_m_us=time_m_us,
        time_n_us=time_n_us,
    )


def verify_nonmerging(cfg: SuiteConfig) -> VerifySummary:
    """Run all trials; the summary tallies their verdicts.

    Trials that hit the summit-set cap are reported as skipped, never
    silently dropped and never retried (retrying would break
    reproducibility); the summary's exit code turns nonzero when the
    skip rate passes the configured threshold.
    """
    return VerifySummary(cfg, tuple(_run_trial(cfg, trial) for trial in range(cfg.trials)))


def lift_witness(
    a: BraidWord, b: BraidWord, n: int, max_sss: int = DEFAULT_SSS_LIMIT
) -> BraidWord | None:
    """Conjugator in B_m for a pair whose standard images are conjugate in B_n.

    Returns None when the embedded words are not conjugate. When they
    are, a conjugator must exist downstairs as well; it is found by
    solving conjugacy directly in B_m, and its absence raises
    EmbeddingMergeError (a fatal finding).
    """
    if a.strands != b.strands:
        raise ValueError(f"strand count mismatch: {a.strands} != {b.strands}")
    if n <= a.strands:
        raise ValueError(f"target must add strands: need n > {a.strands}, got {n}")
    embedded = are_conjugate(embed_standard(a, n), embed_standard(b, n), max_sss=max_sss)
    if embedded is None:
        return None
    cert = are_conjugate(a, b, max_sss=max_sss)
    if cert is None:
        raise EmbeddingMergeError(
            f"images of {format_word(a)} and {format_word(b)} are conjugate in "
            f"B_{n} but no conjugator exists in B_{a.strands}"
        )
    return cert.conjugator


@dataclasses.dataclass(frozen=True)
class BoundaryReport:
    """What one boundary-suite trial produced. ``periodic`` is None when
    the word is trivial, which is not checked for torsion."""

    trial: int
    word: BraidWord
    boundary_preserved: bool
    periodic: bool | None


_BOUNDARY_TALLIES = {
    "boundary_passes": lambda r: r.boundary_preserved,
    "torsion_checked": lambda r: r.periodic is not None,
    "torsion_passes": lambda r: r.periodic is False,
}


@dataclasses.dataclass(frozen=True)
class BoundarySummary:
    m: int
    n: int
    trials: int
    seed: int
    maxlen: int
    reports: tuple[BoundaryReport, ...]

    @property
    def tallies(self) -> dict[str, int]:
        return _tally(self.reports, _BOUNDARY_TALLIES)

    boundary_passes = _tallied("boundary_passes")
    torsion_checked = _tallied("torsion_checked")
    torsion_passes = _tallied("torsion_passes")

    @property
    def failures(self) -> list[tuple[int, BraidWord, str]]:
        failures = []
        for r in self.reports:
            if not r.boundary_preserved:
                failures.append((r.trial, r.word, "boundary curve not preserved"))
            if r.periodic:
                failures.append((r.trial, r.word, "nontrivial embedded word is periodic"))
        return failures

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0

    def document(self) -> dict:
        """The report every format is rendered from."""
        return {
            "config": {
                "m": self.m,
                "n": self.n,
                "trials": self.trials,
                "seed": self.seed,
                "maxlen": self.maxlen,
            },
            "summary": {
                **self.tallies,
                "failures": [
                    {"trial": trial, "word": format_word(word), "what": what}
                    for trial, word, what in self.failures
                ],
                "exit_code": self.exit_code,
            },
        }


def boundary_suite(
    m: int, n: int, trials: int, seed: int, maxlen: int = 10
) -> BoundarySummary:
    """Check that embedded braids preserve the boundary curve of the
    embedded disc (the round curve around punctures 1..m) and that
    nontrivial embedded braids are never periodic."""
    _check_suite(m, n, trials, maxlen)
    boundary = curve_class_round(1, m, n)
    identity = BraidWord(m)
    reports = []
    for trial in range(trials):
        rng = SplitMix64(derive_seed(seed, trial))
        a = BraidWord(m, random_letters(rng, m, rng.below(maxlen + 1)))
        embedded = embed_standard(a, n)
        preserved = preserves_curve_class(embedded, boundary)
        periodic = None if equal_words(a, identity) else is_periodic(embedded)
        reports.append(BoundaryReport(trial, a, preserved, periodic))
    return BoundarySummary(m, n, trials, seed, maxlen, tuple(reports))


# -- report rendering ----------------------------------------------------------

_TIMES = ("time_m_us", "time_n_us")


def _trial_document(r: TrialReport) -> dict:
    """One trial of the document, with its pair derived once; render_json
    spells its words and certificates with :func:`_spell`."""
    a, b, mode = generate_pair(r.config, r.trial)
    return {
        "trial": r.trial,
        "mode": mode,
        "a": a,
        "b": b,
        "verdict_m": r.verdict_m,
        "verdict_n": r.verdict_n,
        "verdict_general": r.verdict_general,
        "consistent": r.consistent,
        "skipped": r.skipped,
        "skip_reason": r.skip_reason,
        "conjugator_m": r.certificate_m,
        "conjugator_n": r.certificate_n,
        # TrialReport.lifted_witness: the B_m conjugator, when verdict_n holds.
        "lifted_witness": r.certificate_m if r.verdict_n else None,
        "theorem_violation": r.theorem_violation,
        "time_m_us": r.time_m_us,
        "time_n_us": r.time_n_us,
    }


def _spell(value: BraidWord | ConjugacyCertificate) -> str:
    """A word, or a certificate's conjugator, in the text format."""
    return format_word(value.conjugator if isinstance(value, ConjugacyCertificate) else value)


def _tristate(value: bool | None) -> str:
    if value is None:
        return "na"
    return "true" if value else "false"


def render_records(summary: VerifySummary, include_times: bool = False) -> str:
    """One machine-readable line per trial plus a final summary line.

    Field order is fixed: trial id, mode, verdict_m, verdict_n,
    consistent, skipped, then the per-decision times when requested.
    Times are excluded by default so that identical flags reproduce
    byte-identical reports.
    """
    document = summary.document()
    general = document["config"]["general_conj_len"] is not None
    lines = []
    for t in document["trials"]:
        fields = [f"trial={t['trial']}", f"mode={t['mode']}"]
        fields += [f"{k}={_tristate(t[k])}" for k in ("verdict_m", "verdict_n", "consistent")]
        fields.append(f"skipped={'yes' if t['skipped'] else 'no'}")
        if general:
            fields.append(f"verdict_general={_tristate(t['verdict_general'])}")
        if include_times:
            fields += [f"{key}={t[key]}" for key in _TIMES]
        lines.append(" ".join(fields))
    tallies = document["summary"]
    lines.append(
        "summary " + " ".join(f"{key}={tallies[key]}" for key in ("trials", *_VERIFY_TALLIES))
    )
    return "\n".join(lines) + "\n"


def render_json(summary: VerifySummary, include_times: bool = False) -> str:
    """The whole report as one JSON document; deterministic for identical
    flags unless times are requested."""
    document = summary.document()
    if not include_times:
        trials = [{k: v for k, v in t.items() if k not in _TIMES} for t in document["trials"]]
        document = {**document, "trials": trials}
    return json.dumps(document, sort_keys=True, indent=2, default=_spell) + "\n"


def render_text(summary: VerifySummary) -> str:
    """Human-readable report with per-decision wall-clock times."""
    document = summary.document()
    cfg = document["config"]
    lines = [
        f"verify-nonmerging: B_{cfg['m']} -> B_{cfg['n']}, {cfg['trials']} trials, "
        f"maxlen {cfg['maxlen']}, seed {cfg['seed']}"
        + (
            f", general conjugator length <= {cfg['general_conj_len']}"
            if cfg["general_conj_len"] is not None
            else ""
        )
    ]
    for t in document["trials"]:
        if t["skipped"]:
            lines.append(f"  trial {t['trial']:4d} [{t['mode']:11s}] skipped ({t['skip_reason']})")
            continue
        verdict = "conjugate" if t["verdict_m"] else "non-conjugate"
        flag = "ok" if t["consistent"] else "INCONSISTENT"
        extra = ""
        if t["verdict_general"] is not None:
            agree = t["verdict_general"] == t["verdict_n"]
            extra = " general=ok" if agree else " general=MISMATCH"
        lines.append(
            f"  trial {t['trial']:4d} [{t['mode']:11s}] {verdict:14s} {flag}{extra} "
            f"({t['time_m_us']} us / {t['time_n_us']} us)"
        )
    s = document["summary"]
    lines.append(
        f"summary: {s['conjugate']} conjugate, {s['non_conjugate']} non-conjugate, "
        f"{s['inconsistent']} inconsistent, {s['skipped']} skipped "
        f"({100 * s['skip_rate']:.1f}%), {s['theorem_violations']} theorem violations, "
        f"{s['general_mismatches']} general mismatches"
    )
    return "\n".join(lines) + "\n"


def render_boundary_text(summary: BoundarySummary) -> str:
    document = summary.document()
    cfg, s = document["config"], document["summary"]
    lines = [
        f"boundary-suite: B_{cfg['m']} -> B_{cfg['n']}, {cfg['trials']} trials, "
        f"maxlen {cfg['maxlen']}, seed {cfg['seed']}",
        f"  boundary curve preserved: {s['boundary_passes']}/{cfg['trials']}",
        f"  nontrivial and non-periodic: {s['torsion_passes']}/{s['torsion_checked']}",
    ]
    for f in s["failures"]:
        lines.append(f"  FAIL trial {f['trial']}: {f['what']}: {f['word']}")
    return "\n".join(lines) + "\n"


def render_boundary_records(summary: BoundarySummary) -> str:
    document = summary.document()
    cfg, s = document["config"], document["summary"]
    lines = [
        f"m={cfg['m']} n={cfg['n']} trials={cfg['trials']} seed={cfg['seed']} "
        f"maxlen={cfg['maxlen']}",
        f"boundary_passes={s['boundary_passes']} torsion_passes={s['torsion_passes']} "
        f"torsion_checked={s['torsion_checked']} failures={len(s['failures'])}",
    ]
    return "\n".join(lines) + "\n"


def render_boundary_json(summary: BoundarySummary) -> str:
    return json.dumps(summary.document(), sort_keys=True, indent=2) + "\n"
