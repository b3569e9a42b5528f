"""Input corpora of the layered benchmark, and the per-seed draw from them.

Decision costs in braid groups are heavy-tailed and lumpy: in B_7 about
a third of the trials expand closure vertices of 5039 conjugations each
and take 0.2-1.2 s, while the median trial takes about 10 ms. Drawing each
run's items independently would let a seed change a run's mix of cheap
and costly items, and with it every end-to-end figure. So each workload
keeps a corpus: candidates drawn from the fixed generator seed
``corpus/<workload>``, screened by the package's own summit-set cap
(``screen_sss``; candidates over it are counted, not kept), and sorted by
the time their screening run took on the machine that built the corpus.
(Counts of kernel work sort worse: items with equal counts differed up
to 4x in time.) A run draws item k at rank ``(v(k) + u) mod 1`` of that
order, where v is the base-2 van der Corput sequence and u comes from
``--seed``: every aligned block of 2^j draws takes one item from each
2^-j slice of the cost order, so seeds change the items but hardly the
mix, and the run's rounds of ``round_items`` items all have the same mix.

``python3 perfbench/corpus.py [workload ...]`` rebuilds the named
corpora (all by default) and the pinned records hashes in ``pins.json``;
run it only when the workloads change, and commit the result.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
PIN_SEED = 1


def corpus_path(name: str) -> Path:
    return HERE / "corpus" / f"{name}.json"


def load(name: str) -> list:
    """Corpus entries of a workload, cheapest first."""
    with open(corpus_path(name)) as f:
        return [entry for _seconds, entry in json.load(f)["items"]]


def _van_der_corput(k: int) -> float:
    value, scale = 0.0, 0.5
    while k:
        if k & 1:
            value += scale
        k >>= 1
        scale /= 2
    return value


def draws(entries: list, name: str, seed: int):
    """Endless stratified draw from ``entries``, fixed by (name, seed)."""
    shift = random.Random(f"{name}/{seed}").random()
    size = len(entries)
    k = 0
    while True:
        yield entries[int(size * ((_van_der_corput(k) + shift) % 1.0))]
        k += 1


def build(workload) -> dict:
    """Draw, screen and time candidates until the corpus is full."""
    rng = random.Random(f"corpus/{workload.name}")
    workload.run(workload.warmup_item())
    kept, screened_out = [], 0
    for entry in workload.candidates(rng):
        if len(kept) == workload.corpus_size:
            break
        start = time.perf_counter()
        within_cap = workload.screen(entry)
        seconds = time.perf_counter() - start
        if within_cap:
            kept.append([round(seconds, 6), entry])
        else:
            screened_out += 1
    kept.sort(key=lambda pair: pair[0])
    return {
        "workload": workload.name,
        "generator_seed": f"corpus/{workload.name}",
        "screen_sss": workload.screen_sss,
        "drawn": len(kept) + screened_out,
        "screened_out": screened_out,
        "items": kept,
    }


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import WORKLOADS

    for name in argv or list(WORKLOADS):
        workload = WORKLOADS[name]
        start = time.perf_counter()
        data = build(workload)
        corpus_path(name).parent.mkdir(exist_ok=True)
        meta = json.dumps({k: v for k, v in data.items() if k != "items"}, indent=1)
        rows = ",\n".join("  " + json.dumps(item) for item in data["items"])
        corpus_path(name).write_text(meta[:-2] + ',\n "items": [\n' + rows + "\n ]\n}\n")
        print(
            f"{name}: kept {len(data['items'])} of {data['drawn']} "
            f"({data['screened_out']} over {workload.screen_sss} summit elements) "
            f"in {time.perf_counter() - start:.0f} s"
        )
    pins = {
        name: {
            "seed": PIN_SEED,
            "trials": w.pin_trials,
            "sha256": w.records_sha256(PIN_SEED, w.pin_trials),
        }
        for name, w in WORKLOADS.items()
        if w.pin_trials
    }
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
