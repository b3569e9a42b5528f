"""Self-test of the benchmark: repeatable layer counts and complete output.

    python3 perfbench/selftest.py

For every workload it makes two traced runs and one untraced run of a
tiny seed. The per-layer counts (every ``*_calls``,
``conjugations_tried``, ``summit_hits``, ``sss_elements``) must match
exactly between the two traced runs, every run must pass its
correctness gate, and every metric name of BENCHMARK.json must appear
with its unit. Exit 0 when all of that holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SECONDS = 1


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {out.returncode}:\n{out.stdout}{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def is_count(name: str) -> bool:
    return name.endswith(("_calls", "conjugations_tried", "summit_hits", "sss_elements"))


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        before = len(problems)
        try:
            first, second, plain = run(workload, 1), run(workload, 1), run(workload, 0)
        except AssertionError as exc:
            problems.append(str(exc))
            continue
        for section, result in (("per_layer", first), ("per_layer", second), ("end_to_end", plain)):
            for metric in spec[section]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload}: {metric['name']} missing or not in {metric['unit']}")
        counts = {k: v["value"] for k, v in first["metrics"].items() if is_count(k)}
        again = {k: v["value"] for k, v in second["metrics"].items() if is_count(k)}
        if counts != again:
            problems.append(f"{workload}: layer counts differ between traced runs: {counts} vs {again}")
        print(f"{workload}: {'ok' if len(problems) == before else 'FAILED'} "
              f"({', '.join(f'{k}={v}' for k, v in sorted(counts.items()))})")
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("passed" if not problems else f"failed: {len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
