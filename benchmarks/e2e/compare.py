"""``python -m benchmarks.e2e compare A.json B.json`` — B judged against A.

Per workload and end-to-end metric: both medians with quartiles, the
change in the metric's *worse* direction, the bound, and a verdict —

* ``unchanged``  — within the bound, or the difference is below the
  metric's absolute floor;
* ``regressed``  — worse by more than the bound (and the floor);
* ``improved``   — the mirror image of ``regressed``: better by more than
  the bound (and the floor), with the two sides' [q1, q3] intervals
  apart.  Two sets of one commit differ by up to 6% here, so anything
  smaller is ``unchanged``.  Even so it is not a claim of a gain: that
  takes the ten alternating pairs of the choosing-metrics guide;
* ``unresolved`` — no regression seen, but a side's run-to-run spread is
  wider than the bound, so "unchanged" cannot be claimed either.

Exit status is non-zero on any regression or any rise in failed share.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List, Tuple

from .spec import FLOORS, load_contract


def verdict(
    a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float, floor: float
) -> Tuple[str, float]:
    """The verdict and B's relative change in the worse direction."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"])
    relative = worse_by / a["median"] if a["median"] else 0.0
    spread = max(
        (side["q3"] - side["q1"]) / side["median"] if side["median"] else 0.0 for side in (a, b)
    )
    if abs(worse_by) <= floor:
        return "unchanged", relative
    if relative > bound:
        return "regressed", relative
    if spread > bound:
        return "unresolved", relative
    apart = b["q3"] < a["q1"] if b["median"] < a["median"] else b["q1"] > a["q3"]
    if -relative > bound and apart:
        return "improved", relative
    return "unchanged", relative


def compare(a: Dict[str, Any], b: Dict[str, Any], contract: Dict[str, Any]) -> Tuple[List[str], bool]:
    lines: List[str] = []
    bad = False
    if a["kernel_hash"] != b["kernel_hash"]:
        return ["the two files were measured with different calibration kernels"], True
    for name in [w["name"] for w in contract["workloads"]]:
        left, right = a["workloads"].get(name), b["workloads"].get(name)
        if not left or not right or "end_to_end" not in left or "end_to_end" not in right:
            lines.append(f"== {name} == missing on one side")
            bad = True
            continue
        lines.append(f"== {name} ==")
        for metric in contract["end_to_end"]:
            key = metric["name"]
            row_a, row_b = left["end_to_end"][key], right["end_to_end"][key]
            word, relative = verdict(
                row_a, row_b, metric["better"], metric["bound"], FLOORS.get(key, 0.0)
            )
            bad = bad or word == "regressed"
            lines.append(
                f"  {key:<18} {metric['unit']:<4} "
                f"A {row_a['median']:>11.4f} [{row_a['q1']:.4f}, {row_a['q3']:.4f}] n={row_a['n']}  "
                f"B {row_b['median']:>11.4f} [{row_b['q1']:.4f}, {row_b['q3']:.4f}] n={row_b['n']}  "
                f"worse by {relative:+.1%} (bound {metric['bound']:.0%})  {word}"
            )
        if right["failed_share"] > left["failed_share"]:
            lines.append(
                f"  failed share rose: {left['failed_share']:.6f} -> {right['failed_share']:.6f}"
            )
            bad = True
    return lines, bad


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare", description=__doc__)
    parser.add_argument("a", help="baseline result file")
    parser.add_argument("b", help="candidate result file")
    args = parser.parse_args(argv)
    documents = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    lines, bad = compare(documents[0], documents[1], load_contract())
    print("\n".join(lines))
    print("REGRESSION" if bad else "no regression")
    return 1 if bad else 0
