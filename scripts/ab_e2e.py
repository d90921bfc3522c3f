"""Alternating parent/change pairs of the ``benchmarks.e2e`` run.

    python scripts/ab_e2e.py BASE_DIR [--workload W ...] [--pairs 10] [--seed 42]

``BASE_DIR`` is a checkout of the parent commit (``git clone`` or ``git
worktree``); the change is the tree this script lives in.  Each pair runs
``python benchmarks/e2e/__main__.py --workload W --seed S --seconds 22
--trace 0`` once on each side, a fresh interpreter each, and pairs alternate
which side goes first — the procedure of the choosing-metrics guide, §8, and
of ``benchmarks/e2e/README.md``.  Per workload and end-to-end metric it
prints both medians and quartiles, the change's wins and ties over the pairs,
and the verdict:

* ``gain`` — the change wins at least nine tenths of the pairs (a tie counts
  for neither side) and the medians differ by more than the distance between
  the parent's quartiles;
* ``worse`` — the change's median is worse than the parent's by more than the
  bound ``BENCHMARK.json`` fixes for the metric;
* ``unresolved`` — the parent's own runs spread wider than that bound (and
  the change's runs are not all better than all of the parent's);
* ``same`` — otherwise.

It shells out to the unchanged entry point of either tree; keep the machine
otherwise idle.  Exit status 1 if any run failed its own checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(tree: str, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One benchmark run in ``tree``; the result object is its last stdout line."""
    done = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "e2e", "__main__.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0 or not done.stdout.strip():
        sys.exit(f"{tree}: benchmark run failed ({done.returncode})\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def shown(values: Tuple[float, float, float]) -> str:
    return " / ".join(f"{v:.0f}" if abs(v) >= 1000 else f"{v:.4g}" for v in values)


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(base: List[float], change: List[float], higher_is_better: bool, bound: float) -> Tuple[int, int, str]:
    """The change's wins and ties over the pairs, and the verdict."""
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    ties = sum(c == b for b, c in zip(base, change))
    b1, b2, b3 = quartiles(base)
    gain = sign * (quartiles(change)[1] - b2)  # positive: the change is better
    if wins >= 0.9 * len(base) and gain > b3 - b1:
        verdict = "gain"
    elif min(sign * c for c in change) > max(sign * b for b in base):
        verdict = "same"  # every run better, yet inside the parent's spread
    elif b2 and (b3 - b1) / abs(b2) > bound:
        verdict = "unresolved"
    else:
        verdict = "worse" if b2 and -gain / abs(b2) > bound else "same"
    return wins, ties, verdict


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir", help="a checkout of the parent commit")
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    seconds = float(contract["run_seconds"])
    trees = {"base": os.path.abspath(args.base_dir), "change": ROOT}

    failed = False
    for workload in workloads:
        runs: Dict[str, List[Dict[str, Any]]] = {"base": [], "change": []}
        for pair in range(args.pairs):
            for side in ("base", "change") if pair % 2 == 0 else ("change", "base"):
                result = run_once(trees[side], workload, args.seed, seconds)
                runs[side].append(result)
                failed |= not result["correct"] or result["failed"] > 0
            last = {side: runs[side][-1]["metrics"]["tx_per_s"]["value"] for side in runs}
            print(f"# {workload} pair {pair + 1}/{args.pairs}: tx_per_s base {last['base']:.0f}"
                  f" change {last['change']:.0f}", file=sys.stderr, flush=True)
        fails = {side: sum(r["failed"] for r in runs[side]) for side in runs}
        print(f"\n{workload}  seed {args.seed}  {args.pairs} pairs  failed operations: base"
              f" {fails['base']}, change {fails['change']}")
        print(f"{'metric':<20} {'base q1/median/q3':>30} {'change q1/median/q3':>30}"
              f" {'delta':>7} {'wins':>5} {'ties':>4}  verdict")
        for metric in contract["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            base, change = ([r["metrics"][name]["value"] for r in runs[side]] for side in ("base", "change"))
            wins, ties, verdict = judge(base, change, higher, metric["bound"])
            b2, c2 = quartiles(base)[1], quartiles(change)[1]
            delta = f"{100 * (c2 - b2) / b2:+.1f}%" if b2 else "n/a"
            print(f"{name:<20} {shown(quartiles(base)):>30} {shown(quartiles(change)):>30}"
                  f" {delta:>7} {wins:>5} {ties:>4}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
