"""Sample one ``benchmarks.e2e`` block loop with ``setitimer(ITIMER_PROF)``.

    python scripts/profile_e2e.py --workload mint-rush [--seed 42] [--top 30]
    python scripts/profile_e2e.py --workload mainnet --tree [--min 2.0]

Prints, per function, the share of CPU-time samples with it on the stack
(inclusive) and at the top (self); with ``--tree``, the inclusive shares as
a call tree under the block loop, children by weight, cut below ``--min``
percent — the flat list cannot show which callers reach a function (that
``receipts_root`` runs once under the seal and once under the validator, for
instance), the tree can.  A sampler charges no per-call
cost, so — unlike cProfile, which inflates this code base's many small
calls and mis-ranks its layers — the shares are those of an unprofiled run.
Only the block loop is sampled (not boot, genesis, shutdown, recovery), and
only this process (not a pool's workers).  Samples that land in the
benchmark's calibration kernel (``kernel.py``, a fifth of a ``mainnet``
pass) are the instrument, not the program: they are dropped, so shares are
of the node's own time.  The collector is reported apart, too: a signal that
arrives during a collection is handled at the first bytecode after it, which
is a ``gc.callbacks`` hook — charged to whichever function that is, a whole
generation-2 pause reads as that hook's "self" time and generations 0 and 1
show nowhere.  So each collection is timed through ``gc.callbacks`` (CPU
seconds) and printed as its own ``gc gen0|gen1|gen2`` row — count, total ms,
share of the node's own CPU time in the loop — and ticks that fell into one
are dropped from the function shares.  Under those rows, a census of the heap
a collection walks: the objects the collector tracks when the loop starts
(after boot) and when it ends, and the growth between the two, in all and
for the eight types that grew most.  Each census first collects
until a collection untracks nothing more, so it counts live objects only —
not whatever garbage generation 0 held at that moment — and reads the same
from run to run.  The timer ticks with the scheduler (~4 ms), so one
pass gives a few hundred samples: read shares, not digits.
"""

from __future__ import annotations

import argparse
import collections
import gc
import os
import shutil
import signal
import sys
import time
from types import FrameType
from typing import Any, Counter, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from benchmarks.e2e import lifecycle  # noqa: E402
from benchmarks.e2e.kernel import Kernel  # noqa: E402
from benchmarks.e2e.spec import WORKLOADS  # noqa: E402


class Node:
    """One frame of the call tree: samples at or below it, and its callees."""

    def __init__(self) -> None:
        self.count = 0
        self.children: Dict[str, Node] = {}


def print_tree(stacks: Counter[Tuple[str, ...]], total: int, min_pct: float) -> None:
    """Inclusive shares as a call tree rooted at the block loop."""
    root = Node()
    for stack, count in stacks.items():
        names = [name.split(":", 1)[1] for name in stack]
        if "_drive_blocks" not in names:
            continue  # the tick fell between arming the timer and the loop
        node = root
        node.count += count
        for name in stack[names.index("_drive_blocks") + 1 :]:
            node = node.children.setdefault(name, Node())
            node.count += count

    def walk(node: Node, depth: int) -> None:
        for name, child in sorted(node.children.items(), key=lambda kv: -kv[1].count):
            if 100 * child.count / total >= min_pct:
                print(f"{100 * child.count / total:6.1f}  {'  ' * depth}{name}")
                walk(child, depth + 1)

    print(f"{'incl%':>6}  call tree under _drive_blocks ({100 * root.count / total:.1f}% of samples)")
    walk(root, 0)


def census() -> Counter[str]:
    """The live objects the cyclic collector tracks, by type name: collect
    until the count stops falling (a collection frees garbage, and untracks
    a tuple of untracked items one nesting level at a time), then count."""
    tracked = -1
    while True:
        gc.collect()
        objects = gc.get_objects()
        if len(objects) == tracked:
            return collections.Counter(type(obj).__name__ for obj in objects)
        tracked = len(objects)
        del objects  # else the next list holds this one, and the count grows by one a round


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="mainnet")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("--tree", action="store_true", help="call tree instead of the flat list")
    parser.add_argument("--min", type=float, default=1.0, help="smallest share the tree prints (percent)")
    args = parser.parse_args()

    stacks: Counter[Tuple[str, ...]] = collections.Counter()  # outermost frame first
    in_kernel = in_gc = 0
    gc_runs, gc_cpu = [0, 0, 0], [0.0, 0.0, 0.0]  # collections and their CPU seconds, per generation
    gc_started: Optional[float] = None
    loop_cpu = 0.0
    censuses: List[Counter[str]] = []  # at the start and at the end of the loop

    def on_gc(phase: str, info: Dict[str, int]) -> None:
        nonlocal gc_started
        if phase == "start":
            gc_started = time.process_time()
        elif gc_started is not None:
            gc_runs[info["generation"]] += 1
            gc_cpu[info["generation"]] += time.process_time() - gc_started
            gc_started = None

    def on_tick(signum: int, frame: Optional[FrameType]) -> None:
        nonlocal in_kernel, in_gc
        if gc_started is not None:  # the tick fell into the collection just ending
            in_gc += 1
            return
        stack = []
        while frame is not None:
            code = frame.f_code
            stack.append(f"{os.path.basename(code.co_filename)}:{code.co_qualname}")
            frame = frame.f_back
        if any(name.startswith("kernel.py:") for name in stack):
            in_kernel += 1
        else:
            stacks[tuple(reversed(stack))] += 1

    drive = lifecycle._drive_blocks

    def sampled_drive(*a: Any, **kw: Any) -> None:
        nonlocal loop_cpu
        censuses.append(census())
        signal.signal(signal.SIGPROF, on_tick)
        gc.callbacks.append(on_gc)
        started = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, 0.001, 0.001)
        try:
            drive(*a, **kw)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            loop_cpu = time.process_time() - started
            gc.callbacks.remove(on_gc)
            censuses.append(census())

    lifecycle._drive_blocks = sampled_drive  # run_pass looks the name up at call time
    workload = WORKLOADS[args.workload]
    root = lifecycle.make_root()
    try:
        result = lifecycle.run_pass(workload, args.seed, root, Kernel(), blocks=workload.blocks)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    total = sum(stacks.values()) or 1
    print(
        f"{args.workload} seed {args.seed}: {total} samples over {len(result.blocks)} blocks"
        f" (+{in_kernel} in the calibration kernel, +{in_gc} in a collection, dropped)"
    )
    # the loop's CPU seconds less the calibration kernel's, by its share of ticks
    own_cpu = loop_cpu * (total + in_gc) / (total + in_gc + in_kernel)
    print(f"{'runs':>6} {'ms':>8} {'own%':>6}  collector, of {own_cpu:.2f} CPU s of the node's own")
    for generation, (runs, seconds) in enumerate(zip(gc_runs, gc_cpu)):
        share = 100 * seconds / own_cpu if own_cpu else 0.0
        print(f"{runs:6d} {1000 * seconds:8.1f} {share:6.1f}  gc gen{generation}")
    boot, end = censuses
    print(f"{'boot':>8} {'end':>8} {'growth':>8}  live objects the collector tracks at the start and end of the loop")
    print(f"{sum(boot.values()):8d} {sum(end.values()):8d} {sum(end.values()) - sum(boot.values()):+8d}  all")
    growth = end.copy()
    growth.subtract(boot)
    for name, grew in growth.most_common(8):
        print(f"{boot[name]:8d} {end[name]:8d} {grew:+8d}  {name}")
    if args.tree:
        print_tree(stacks, total, args.min)
    else:
        inclusive: Counter[str] = collections.Counter()
        own: Counter[str] = collections.Counter()
        for stack, count in stacks.items():
            own[stack[-1]] += count
            for name in set(stack):
                inclusive[name] += count
        print(f"{'incl%':>6} {'self%':>6}  function")
        for name, count in inclusive.most_common(args.top):
            print(f"{100 * count / total:6.1f} {100 * own[name] / total:6.1f}  {name}")
    return 1 if result.problems else 0


if __name__ == "__main__":
    sys.exit(main())
