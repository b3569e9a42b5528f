"""Layered benchmark of braidkit: one closed-loop workload per run.

    python3 perfbench/run.py --workload nm-long-b4 --seed 3 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports braidkit from
``src/`` and from nowhere else, and exits 1 without a result when that
source is missing. One client submits one item at a time, each after the
previous one finished, for ``--seconds`` seconds. Items are drawn from
the workload's corpus by ``--seed`` (see corpus.py), in rounds of
``round_items`` that each sample the whole corpus.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each time
expressed at a reference machine speed: a fixed slice of reference work
(reference.py) is timed before the first item and after every item, and
each item's time is scaled by ``NOMINAL_S`` over the mean of the slices
around it, so that the host's swings in speed cancel. The wall-clock
figures are printed too, as ``wall_*`` lines. ``--trace 1`` instead
runs a fixed number of items, ``seconds * trace_rate``, with spans and
counts recorded at braidkit's module boundaries (tracer.py), reports
the per-layer metrics, writes the spans to
``perfbench/out/<workload>-seed<seed>.spans.jsonl``, and takes the
tracing overhead as the traced time minus the time fresh processes need
for the same items untraced, one run just before the traced pass and one
just after, so that a drift in machine speed cancels.

After the timed part a correctness gate re-checks every item
(workloads.py), and the non-merging workloads rerun a pinned suite whose
records report must hash to the value in pins.json. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it stamp the
run (backend, Python, nproc, git sha, seed) and print every figure by
name with its unit. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh interpreters timed per run; setup_s is their median.
SETUP_PROBES = 9
# Reference slices timed on each side of a setup probe.
SETUP_SLICES = 3
# item_p50_ms and item_tail_ms are means of bands of the sorted item
# times this wide, centred on the median and on the tail percentile.
P50_BAND = 0.1
TAIL_BAND = 0.04
# End-to-end times also printed on the wall clock.
WALL_METRICS = ("items_per_s", "item_p50_ms", "item_tail_ms", "setup_s")


def import_package():
    """braidkit from this checkout's src/, or exit 1."""
    if not (SRC / "braidkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no braidkit source at {SRC / 'braidkit'}")
    sys.path.insert(0, str(SRC))
    import braidkit

    if Path(braidkit.__file__).resolve().parent != SRC / "braidkit":
        sys.exit(f"perfbench: imported braidkit from {braidkit.__file__}, not from {SRC}")
    return braidkit


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _self_command(*args: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), *args]


def measure_setup(name: str) -> tuple[float, float]:
    """Median time of a fresh interpreter that imports braidkit and
    finishes one warm-up decision of the workload, at the reference speed
    and on the wall clock. The probes run on one CPU with the reference
    slices around them: the CPUs of a shared host can run at different
    speeds at the same time."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        scaled, wall = [], []
        after = [reference.slice_seconds() for _ in range(SETUP_SLICES)]
        for _ in range(SETUP_PROBES):
            before = after
            start = time.perf_counter()
            subprocess.run(_self_command("--workload", name, "--setup-probe"), check=True)
            wall.append(time.perf_counter() - start)
            after = [reference.slice_seconds() for _ in range(SETUP_SLICES)]
            scaled.append(wall[-1] * reference.NOMINAL_S / statistics.mean(before + after))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(scaled), statistics.median(wall)


def untraced_pass(name: str, seed: int, count: int) -> float:
    """Item time of the first ``count`` items in a fresh process, untraced."""
    out = subprocess.run(
        _self_command("--workload", name, "--seed", str(seed), "--untraced-pass", str(count)),
        check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout.splitlines()[-1])["seconds"]


def run_items(workload, items, seconds: float | None = None, gauge: bool = False):
    """Run and time items one after another, all of them or, given
    ``seconds``, until that much time has passed (at least one item).
    Returns the items run, their wall times, their results (an exception
    becomes its item's result) and, with ``gauge``, the times of the
    reference slices taken before the first item and after each one."""
    done, times, results = [], [], []
    slices = [reference.slice_seconds()] if gauge else []
    deadline = None if seconds is None else time.perf_counter() + seconds
    for item in items:
        start = time.perf_counter()
        try:
            result = workload.run(item)
        except Exception as exc:  # an engine fault fails the item, not the run
            result = exc
        times.append(time.perf_counter() - start)
        if gauge:
            slices.append(reference.slice_seconds())
        done.append(item)
        results.append(result)
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return done, times, results, slices


def at_reference_speed(times: list[float], slices: list[float]) -> list[float]:
    """Each item time scaled by NOMINAL_S over the mean of the reference
    slices on either side of it."""
    return [t * 2 * reference.NOMINAL_S / (slices[i] + slices[i + 1]) for i, t in enumerate(times)]


def gate(workload, items, results) -> tuple[list[list[str]], dict]:
    """Failures by item, and how many certificates each method checked."""
    failures, methods = [], {}
    for item, result in zip(items, results):
        if isinstance(result, Exception):
            failures.append([f"{workload.name}: {type(result).__name__}: {result}"])
        else:
            failures.append(workload.check(item, result, methods))
    return failures, methods


def check_pin(workload) -> str | None:
    """None when the pinned suite's records hash matches, else a message."""
    pins = json.loads((HERE / "pins.json").read_text())
    pin = pins.get(workload.name)
    if pin is None:
        return None
    got = workload.records_sha256(pin["seed"], pin["trials"])
    if got != pin["sha256"]:
        return f"records of the pinned suite (seed {pin['seed']}, {pin['trials']} trials) hash to {got}, pinned {pin['sha256']}"
    return None


def band(ordered: list[float], centre: float, share: float) -> tuple[float, int]:
    """Mean of the share ``share`` of sorted values (at least one) centred
    on quantile ``centre``, and how many values lie above that band.
    Item costs are lumpy, and a single order statistic jumps between
    their clusters; a band around it does not."""
    k = max(1, round(share * len(ordered)))
    lo = min(max(0, round(centre * len(ordered) - k / 2)), len(ordered) - k)
    return statistics.mean(ordered[lo : lo + k]), len(ordered) - lo - k


def end_to_end(workload, times: list[float], setup_s: float, peak_rss_mb: float):
    """items_per_s is the median over the run's complete rounds, so that a
    passing slowdown of the machine moves it less; p50 and tail use every
    item."""
    size = workload.round_items
    rounds = [size / sum(times[i : i + size]) for i in range(0, len(times) - size + 1, size)]
    ordered = sorted(times)
    p50, _ = band(ordered, 0.5, P50_BAND)
    tail_s, beyond = band(ordered, workload.tail_pct / 100, TAIL_BAND)
    tail = {
        "percentile": workload.tail_pct,
        "samples": len(ordered),
        "beyond": beyond,
        "rounds": len(rounds),
    }
    metrics = {
        "items_per_s": (statistics.median(rounds) if rounds else len(times) / sum(times), "1/s"),
        "item_p50_ms": (p50 * 1000, "ms"),
        "item_tail_ms": (tail_s * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, tail


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the stamped result to this JSON file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--untraced-pass", type=int, metavar="K", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bk = import_package()
    import corpus
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.run(workload.warmup_item())
        return 0

    draws = corpus.draws(corpus.load(workload.name), workload.name, args.seed)
    if args.untraced_pass:
        items = [workload.item(next(draws)) for _ in range(args.untraced_pass)]
        workload.run(workload.warmup_item())
        _, times, _, _ = run_items(workload, items)
        print(json.dumps({"seconds": sum(times)}))
        return 0

    stamp = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": bk.backend_name(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }
    print("stamp " + json.dumps(stamp))

    detail = {}
    if args.trace:
        count = max(1, round(args.seconds * workload.trace_rate))
        items = [workload.item(next(draws)) for _ in range(count)]
        untraced_before = untraced_pass(workload.name, args.seed, count)
        workload.run(workload.warmup_item())
        tracer = Tracer()
        tracer.install()
        try:
            items, times, results, _ = run_items(workload, items)
        finally:
            tracer.uninstall()
        untraced_s = (untraced_before + untraced_pass(workload.name, args.seed, count)) / 2
        metrics = tracer.layer_metrics(getattr(workload, "m", None), workload.n)
        metrics["trace.items"] = (count, "count")
        metrics["trace.traced_s"] = (sum(times), "s")
        metrics["trace.untraced_s"] = (untraced_s, "s")
        metrics["trace.overhead_s"] = (sum(times) - untraced_s, "s")
        (HERE / "out").mkdir(exist_ok=True)
        spans_path = HERE / "out" / f"{workload.name}-seed{args.seed}.spans.jsonl"
        tracer.write(spans_path)
        print(f"trace: {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        for target in tracer.missing:
            print(f"trace: {target} not found, its layer reads 0")
    else:
        setup_s, wall_setup_s = measure_setup(workload.name)
        workload.run(workload.warmup_item())
        items, times, results, slices = run_items(
            workload, (workload.item(entry) for entry in draws), args.seconds, gauge=True
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics, detail = end_to_end(
            workload, at_reference_speed(times, slices), setup_s, peak_rss_mb
        )
        wall, _ = end_to_end(workload, times, wall_setup_s, peak_rss_mb)
        detail["wall"] = {name: wall[name][0] for name in WALL_METRICS}
        detail["slice_ms"] = [q * 1000 for q in statistics.quantiles(slices, n=4)]

    failures, methods = gate(workload, items, results)
    failed = sum(1 for problems in failures if problems)
    pin_problem = check_pin(workload)
    for problems in failures:
        for problem in problems:
            print("FAIL " + problem)
    if pin_problem:
        print("FAIL " + pin_problem)
    if methods:
        print("gate: certificates re-checked " + ", ".join(f"{k}={v}" for k, v in sorted(methods.items())))
    print(f"failed_frac {failed / len(items):.6g} ratio ({failed} of {len(items)} items)")
    if detail:
        print(
            f"items_per_s is the median of {detail['rounds']} rounds of {workload.round_items} items; "
            f"item_p50_ms is the mean of the middle {P50_BAND:.0%} of the item times; "
            f"item_tail_ms is the mean of the {TAIL_BAND:.0%} around p{detail['percentile']:g} "
            f"of {detail['samples']} items, {detail['beyond']} beyond it"
        )
        q1, q2, q3 = detail["slice_ms"]
        print(
            f"reference slice {q2:.4g} ms (quartiles {q1:.4g}, {q3:.4g}; "
            f"{reference.NOMINAL_S * 1000:g} ms at the reference speed)"
        )
        for name, value in detail["wall"].items():
            print(f"wall_{name} {value:.6g} {metrics[name][1]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    result = {
        "correct": failed == 0 and pin_problem is None,
        "attempted": len(items),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out:
        Path(args.out).write_text(
            json.dumps({"stamp": stamp, "tail": detail, "result": result}, indent=1) + "\n"
        )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
