"""Alternating pairs of benchmark runs in two checkouts: the way to size a speed claim.

Usage:

    python3 tools/ab_pairs.py PARENT CHANGE --workload rate-suite

PARENT and CHANGE are the roots of two checkouts, such as the parent commit
made with `git archive` and the working tree. A pair is one run of
`perfbench/run.py --workload W --seed 0 --trace 0` in each checkout, one
after the other, each run importing netoco from its own src/ and lasting as
long as the benchmark's default run. The side that runs first alternates from
pair to pair, so a drift in the host's speed falls on both sides alike. Each
run has PYTHONDONTWRITEBYTECODE=1, and a checkout with a __pycache__ directory
under src/ or perfbench/ is refused, so both sides compile netoco at import,
as a fresh checkout does: stale bytecode on one side only skews setup_s and
peak_rss_mb. The tool reads only the last line of each run's output, the
benchmark's JSON result, and writes no file.

It runs PAIRS pairs and prints each pair's end-to-end metrics, then for each
metric the median of each side, the parent's interquartile range and the
pairs the change won, strictly, in the metric's better direction. A claimed
gain holds when the change wins nearly every pair and the medians differ by
more than the parent's IQR. Exits 1 if a run fails or reads not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
# Metrics where a higher value is better; every other end-to-end metric is better lower.
HIGHER_IS_BETTER = {"seed_rounds_per_ref_s"}


def run_once(checkout: Path, workload: str) -> dict:
    """The end-to-end metrics of one benchmark run in checkout, as {name: value}."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--trace", "0"]
    environment = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.run(command, cwd=checkout, env=environment, capture_output=True, text=True)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: exit {child.returncode}\n{child.stderr}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise SystemExit(f"{checkout}: the last line of the run's output is not JSON: {lines[-1]!r}") from None
    if result["correct"] is not True:
        raise SystemExit(f"{checkout}: not correct, {result['failed']} of {result['attempted']} failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def wins(name: str, parent: float, change: float) -> bool:
    return change > parent if name in HIGHER_IS_BETTER else change < parent


def iqr(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")
        for part in ("src", "perfbench"):
            cache = next((checkout / part).rglob("__pycache__"), None)
            if cache is not None:
                parser.error(f"{cache} holds bytecode, which the other side may lack; remove it")

    pairs = []
    for k in range(PAIRS):
        sides = {}
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side] = run_once(getattr(args, side), args.workload)
        pairs.append(sides)
        cells = "  ".join(
            f"{name} {sides['parent'][name]:.6g} -> {value:.6g}" for name, value in sides["change"].items()
        )
        print(f"pair {k + 1} ({order[0]} first): {cells}", flush=True)

    print(f"{args.workload}, {PAIRS} pairs")
    print(f"{'metric':<24} {'parent':>11} {'change':>11} {'change %':>9} {'parent IQR':>11} {'won':>7}")
    for name in pairs[0]["parent"]:
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        before, after = statistics.median(parent), statistics.median(change)
        won = sum(wins(name, p, c) for p, c in zip(parent, change))
        print(
            f"{name:<24} {before:>11.6g} {after:>11.6g} {100.0 * (after - before) / before:>+9.2f} "
            f"{iqr(parent):>11.4g} {won:>3}/{PAIRS:<3}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
