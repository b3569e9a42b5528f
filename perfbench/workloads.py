"""Workloads of the layered benchmark: input candidates, the timed item,
and the correctness gate that re-checks each item's outcome.

Inputs reach a run in two steps. ``corpus.py`` draws candidates from a
fixed generator seed, screens them and sorts them by the time they take;
a run then draws its items from that sorted corpus with ``--seed`` (see
``corpus.draws``). The package receives only the
generated inputs: a one-trial ``SuiteConfig`` per item for the
non-merging workloads, a braid word per item for ``classify-b4``.

The gate runs outside the timed part and does not trust the engine's own
checks. Certificates are re-checked through the free-group action: when
the images of x_1..x_n stay below ``EXACT_IMAGE_LETTERS`` letters they
are compared exactly with ``braidkit.artin_action``; past that (long
pseudo-Anosov words grow their images exponentially) the same
substitution rules are evaluated in SL(2, Z/p), see ``_action_mod_p``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import braidkit as bk
from braidkit import harness

# Past this many letters the exact free-group images are abandoned for
# the SL(2, Z/p) evaluation of the same action.
EXACT_IMAGE_LETTERS = 1024
# A prime near 2**61; with fixed random matrices a false match is negligible.
_P = (1 << 61) - 1


def _random_letters(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    return tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))


# -- free-group re-check -------------------------------------------------------


def _mat_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % _P, (a * f + b * h) % _P, (c * e + d * g) % _P, (c * f + d * h) % _P)


def _mat_inv(x):
    a, b, c, d = x
    return (d, -b % _P, -c % _P, a)


def _generator_matrices(n: int) -> list[tuple[int, int, int, int]]:
    """Fixed elements of SL(2, Z/p) standing for x_1..x_n."""
    rng = random.Random(f"sl2/{n}")
    mats = []
    for _ in range(n):
        a, b, c = (rng.randrange(1, _P) for _ in range(3))
        d = (1 + b * c) * pow(a, -1, _P) % _P  # a*d - b*c = 1
        mats.append((a, b, c, d))
    return mats


def _action_mod_p(w: bk.BraidWord) -> tuple:
    """rho(image of x_j under w) for every j, where rho sends x_j to a fixed
    matrix: the free-group action of ``artin_action`` composed with rho.

    Letters act left to right on words, so the composite rho . phi_w is
    built from the last letter back to the first, each step substituting
    the letter's images of x_i, x_{i+1} into the current values.
    """
    vals = _generator_matrices(w.strands)
    for letter in reversed(w.letters):
        i = abs(letter) - 1
        xi, xj = vals[i], vals[i + 1]
        if letter > 0:  # x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i
            vals[i] = _mat_mul(_mat_mul(xi, xj), _mat_inv(xi))
            vals[i + 1] = xi
        else:  # x_i -> x_{i+1}, x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}
            vals[i] = xj
            vals[i + 1] = _mat_mul(_mat_mul(_mat_inv(xj), xi), xj)
    return tuple(vals)


def same_action(u: bk.BraidWord, v: bk.BraidWord) -> tuple[bool, str]:
    """Whether u and v act alike on x_1..x_n; the second item names the method."""
    n = u.strands
    try:
        for j in range(1, n + 1):
            x = bk.FreeWord(n, (j,))
            left = bk.artin_action(u, x, max_letters=EXACT_IMAGE_LETTERS)
            right = bk.artin_action(v, x, max_letters=EXACT_IMAGE_LETTERS)
            if left != right:
                return False, "exact"
        return True, "exact"
    except bk.ResourceLimitError:
        return _action_mod_p(u) == _action_mod_p(v), "mod_p"


def certificate_holds(cert, a: bk.BraidWord, b: bk.BraidWord) -> tuple[bool, str]:
    """Re-check c * a * c^-1 = b for a certificate c, as c * a = b * c."""
    c = cert.conjugator
    return same_action(bk.concat(c, a), bk.concat(b, c))


# -- workloads -----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Nonmerging:
    """``verify_nonmerging`` for B_m -> B_n, one single-trial suite per item.

    A corpus entry is a suite seed; the package draws the pair from it
    exactly as ``braidkit verify-nonmerging --trials 1 --seed S
    --conjugate-fraction F`` would, kept when the package draws words of
    at least ``min_len`` letters. Random pairs are nearly all told apart
    by exponent sum or permutation at once; at the CLI's default F = 0.5
    such instant verdicts make up half the corpus, and the median item
    would sit on the edge between them and the real decisions.
    """

    name: str
    why: str
    m: int
    n: int
    maxlen: int
    conjugate_fraction: float
    min_len: int  # shortest a, and conjugating word or b, kept in the corpus
    screen_sss: int  # corpus screening cap on summit-set size
    corpus_size: int
    tail_pct: float
    round_items: int  # a power of two; each round is a stratified sample
    trace_rate: float  # traced items per second of --seconds
    pin_trials: int  # trials of the pinned records suite

    def candidates(self, rng: random.Random):
        while True:
            seed = rng.getrandbits(63)
            a, b, mode = harness.generate_pair(self.config(seed), 0)
            other = (len(b) - len(a)) // 2 if mode == "constructed" else len(b)
            if min(len(a), other) >= self.min_len:
                yield seed

    def config(self, seed: int, trials: int = 1, max_sss: int = bk.DEFAULT_SSS_LIMIT):
        return harness.SuiteConfig(
            self.m, self.n, trials, self.maxlen, seed,
            conjugate_fraction=self.conjugate_fraction, max_sss=max_sss,
        )

    def screen(self, entry) -> bool:
        """Run the item once under a ``screen_sss`` summit-set cap; True
        when it finished within the cap."""
        return not harness.verify_nonmerging(self.config(entry, max_sss=self.screen_sss)).skipped

    def item(self, entry):
        return self.config(entry)

    @staticmethod
    def run(cfg):
        summary = harness.verify_nonmerging(cfg)
        harness.render_records(summary)
        return summary

    def warmup_item(self):
        return self.config(1)

    def check(self, cfg, summary, methods: dict) -> list[str]:
        """Failures of one item; ``methods`` counts how certificates were checked."""
        problems = []
        for r in summary.reports:
            where = f"{self.name} seed={cfg.seed} trial={r.trial}"
            if r.skipped:
                problems.append(f"{where}: skipped ({r.skip_reason})")
                continue
            if r.mode == "constructed" and not r.verdict_m:
                problems.append(f"{where}: constructed pair judged not conjugate")
            if r.verdict_m != r.verdict_n:
                problems.append(f"{where}: verdict_m={r.verdict_m} verdict_n={r.verdict_n}")
            for cert, k in ((r.certificate_m, self.m), (r.certificate_n, self.n)):
                if cert is None:
                    continue
                ok, method = certificate_holds(
                    cert, bk.BraidWord(k, r.a.letters), bk.BraidWord(k, r.b.letters)
                )
                methods[method] = methods.get(method, 0) + 1
                if not ok:
                    problems.append(f"{where}: B_{k} certificate fails the free-group check")
        return problems

    def records_sha256(self, seed: int, trials: int) -> str:
        """sha256 of ``render_records``, without times, of a whole suite."""
        summary = harness.verify_nonmerging(self.config(seed, trials=trials))
        return hashlib.sha256(harness.render_records(summary).encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class Classify:
    """``classify`` on conjugated B_4 braids whose type is known by construction.

    Candidates cycle through pseudo-Anosov, reducible, pseudo-Anosov,
    periodic, pseudo-Anosov, so that the median item is a pseudo-Anosov
    one and not the edge between those and the cheap periodic and
    reducible verdicts. Each base braid is conjugated by a random word of
    ``conj_len`` letters before the package sees it. A corpus entry is
    ``[expected kind, letters]``.
    """

    name: str
    why: str
    conj_len: tuple[int, int]
    screen_sss: int
    corpus_size: int
    tail_pct: float
    round_items: int
    trace_rate: float
    pin_trials: int = 0
    n: int = 4
    PATTERN = ("pseudo_anosov", "reducible", "pseudo_anosov", "periodic", "pseudo_anosov")

    @staticmethod
    def _penner(rng: random.Random) -> tuple[int, ...]:
        """Positive twists about the curves around punctures (1,2) and (3,4),
        negative twists about (2,3), every curve twisted: Penner's
        construction, so the braid is pseudo-Anosov. Three or four
        twists: with three the summit set has 16 elements, with four 100,
        and longer words or higher powers reach 284 and take seconds."""
        while True:
            blocks = [rng.choice((1, 2, 3)) for _ in range(rng.randint(3, 4))]
            if set(blocks) == {1, 2, 3}:
                break
        letters: list[int] = []
        for g in blocks:
            letters += [g, g] if g % 2 else [-g, -g]
        return tuple(letters)

    @staticmethod
    def _periodic(rng: random.Random) -> tuple[int, ...]:
        """A nonzero power of sigma_1 sigma_2 sigma_3 or of sigma_1 sigma_2 sigma_3 sigma_1."""
        root = rng.choice(((1, 2, 3), (1, 2, 3, 1)))
        k = rng.randint(1, 6)
        letters = root * k
        return letters if rng.random() < 0.5 else tuple(-g for g in reversed(letters))

    @staticmethod
    def _reducible(rng: random.Random) -> tuple[int, ...]:
        """A nontrivial B_3 word, read in B_4 through the standard embedding."""
        while True:
            w = bk.BraidWord(3, _random_letters(rng, 3, rng.randint(3, 8)))
            if any(bk.artin_action(w, bk.FreeWord(3, (j,))).letters != (j,) for j in (1, 2, 3)):
                return w.letters

    def candidates(self, rng: random.Random):
        make = {"pseudo_anosov": self._penner, "periodic": self._periodic, "reducible": self._reducible}
        index = 0
        while True:
            expected = self.PATTERN[index % len(self.PATTERN)]
            c = bk.BraidWord(self.n, _random_letters(rng, self.n, rng.randint(*self.conj_len)))
            word = bk.concat(c, bk.BraidWord(self.n, make[expected](rng)), bk.invert_word(c))
            yield [expected, list(word.letters)]
            index += 1

    def screen(self, entry) -> bool:
        """Classify once under a ``screen_sss`` summit-set cap; True when
        it finished within the cap."""
        try:
            bk.classify(self.item(entry)[1], max_sss=self.screen_sss)
        except bk.ResourceLimitError:
            return False
        return True

    def item(self, entry):
        return entry[0], bk.BraidWord(self.n, tuple(entry[1]))

    @staticmethod
    def run(item):
        return bk.classify(item[1])

    def warmup_item(self):
        return self.item(["pseudo_anosov", [2, 1, 1, -2, -2, 3, 3, -1, -2]])

    def check(self, item, result, methods: dict) -> list[str]:
        expected, word = item
        if result.kind != expected:
            return [f"{self.name} {bk.format_word(word)}: classified {result.kind}, built {expected}"]
        return []


WORKLOADS = {
    w.name: w
    for w in (
        Nonmerging(
            name="nm-long-b4",
            why="verify_nonmerging B_3->B_4, maxlen 40: normal forms of long words dominate",
            m=3,
            n=4,
            maxlen=40,
            conjugate_fraction=0.75,
            min_len=0,
            screen_sss=2000,
            corpus_size=3000,
            tail_pct=95.0,
            round_items=64,
            trace_rate=8.0,
            pin_trials=40,
        ),
        Nonmerging(
            name="nm-wide-b6",
            why="verify_nonmerging B_3->B_6, conjugate pairs of 4-6 letter words: the summit closure over 719 simples is 40% of the time",
            m=3,
            n=6,
            maxlen=6,
            conjugate_fraction=1.0,
            min_len=4,
            screen_sss=150,
            corpus_size=1500,
            tail_pct=95.0,
            round_items=64,
            trace_rate=5.0,
            pin_trials=20,
        ),
        Classify(
            name="classify-b4",
            why="classify on conjugated B_4 braids of known type: full super summit sets and powers",
            conj_len=(1, 3),
            screen_sss=400,
            corpus_size=1200,
            tail_pct=94.0,
            round_items=32,
            trace_rate=3.0,
        ),
    )
}
