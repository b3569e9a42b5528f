"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds the files that ``run.py --out FILE`` wrote, one per
run. For every workload and every end-to-end metric of BENCHMARK.json
the script prints both medians, their quartiles, and the change in the
metric's ``better`` direction as a share of the base median, flagging a
change worse than the metric's bound. Results from different backends
measure different programs: the script refuses them (exit 2). Exit 1
when some metric got worse than its bound, else 0.
"""

from __future__ import annotations

import collections
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list[dict]:
    runs = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    return [r for r in runs if r["stamp"]["trace"] == 0]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, head = load(argv[0]), load(argv[1])
    backends = {r["stamp"]["backend"] for r in base + head}
    if len(backends) != 1:
        print(f"refusing to compare results from different backends: {sorted(backends)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    by_workload: dict = collections.defaultdict(lambda: ([], []))
    for side, runs in enumerate((base, head)):
        for r in runs:
            by_workload[r["stamp"]["workload"]][side].append(r["result"]["metrics"])
    worse = False
    print(f"backend {backends.pop()}")
    print(f"{'workload':14s} {'metric':14s} {'base q1/med/q3':>30s} {'head q1/med/q3':>30s} {'change':>8s} bound")
    for workload, (b_runs, h_runs) in sorted(by_workload.items()):
        if not b_runs or not h_runs:
            print(f"{workload:14s} missing on one side")
            continue
        for metric in spec:
            name = metric["name"]
            b = quartiles([m[name]["value"] for m in b_runs])
            h = quartiles([m[name]["value"] for m in h_runs])
            sign = 1 if metric["better"] == "higher" else -1
            change = sign * (h[1] - b[1]) / b[1]
            flag = " WORSE" if change < -metric["bound"] else ""
            worse = worse or bool(flag)
            print(
                f"{workload:14s} {name:14s} {'%.4g/%.4g/%.4g' % b:>30s} {'%.4g/%.4g/%.4g' % h:>30s} "
                f"{change:+8.1%} {metric['bound']}{flag}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
