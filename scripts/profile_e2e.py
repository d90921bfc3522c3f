"""Sample one ``benchmarks.e2e`` block loop with ``setitimer(ITIMER_PROF)``.

    python scripts/profile_e2e.py --workload mint-rush [--seed 42] [--top 30]
    python scripts/profile_e2e.py --workload mainnet --tree [--min 2.0]
    python scripts/profile_e2e.py --workload longtail-payments --clock wall
    python scripts/profile_e2e.py --workload mainnet --phase recover [--tree]

Prints, per function, the share of CPU-time samples with it on the stack
(inclusive) and at the top (self); with ``--tree``, the inclusive shares as
a call tree under the block loop, children by weight, cut below ``--min``
percent — the flat list cannot show which callers reach a function (that
``receipts_root`` runs once under the seal and once under the validator, for
instance), the tree can.  A sampler charges no per-call
cost, so — unlike cProfile, which inflates this code base's many small
calls and mis-ranks its layers — the shares are those of an unprofiled run.
Only the block loop is sampled (not boot, genesis, shutdown, recovery), and
only this process (not a pool's workers) — or, with ``--phase recover``,
only ``recover()``: after the pass's own recovery, the pass's data dir is
recovered again, sampled, until at least :data:`RECOVER_SAMPLES` samples are
in, and the same flat list or tree is printed, rooted at ``recover`` (the
block loop's tables do not apply and are left out).  Samples that land in the
benchmark's calibration kernel (``kernel.py``, a fifth of a ``mainnet``
pass) are the instrument, not the program: they are dropped, so shares are
of the node's own time.  The collector is reported apart, too: a signal that
arrives during a collection is handled at the first bytecode after it, which
is a ``gc.callbacks`` hook — charged to whichever function that is, a whole
generation-2 pause reads as that hook's "self" time and generations 0 and 1
show nowhere.  So each collection is timed through ``gc.callbacks`` (CPU
seconds) and printed as its own ``gc gen0|gen1|gen2`` row — count, count per
block, total ms, share of the node's own CPU time in the loop, under a header
naming ``gc.get_threshold()`` — and ticks that fell into one are dropped from
the function shares.  Under those rows, a census of the heap
a collection walks: the objects the collector tracks when the loop starts
(after boot) and when it ends, and the growth between the two, in all and
for the eight types that grew most.  Each census first collects
until a collection untracks nothing more, so it counts live objects only —
not whatever garbage generation 0 held at that moment — and reads the same
from run to run.  Then the memory layer table: this process's peak RSS
(``ru_maxrss``) when the loop starts and when it ends, the height and stage
(generate / build / receive, or the calibration kernel) at which it last
rose, and per stage the MB it added to that peak and to the resident set
over the loop — a peak set at boot reads as no rise at all.  The timer
ticks with the scheduler (~4 ms), so one pass gives a few hundred samples:
read shares, not digits.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import os
import resource
import shutil
import signal
import sys
import time
from types import FrameType
from typing import Any, Callable, Counter, Dict, Iterator, List, Optional, Tuple

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


#: ``--phase recover`` recovers the data dir until this many samples are in
RECOVER_SAMPLES = 200

#: the function each phase samples under (a frame's qualified name)
ROOTS = {"loop": "_drive_blocks", "recover": "recover"}


def print_tree(stacks: Counter[Tuple[str, ...]], total: float, min_pct: float, top: str) -> None:
    """Inclusive shares as a call tree rooted at the sampled phase's ``top``."""
    root = Node()
    for stack, count in stacks.items():
        names = [name.split(":", 1)[1] for name in stack]
        if top not in names:
            continue  # the tick fell between arming the timer and the phase
        node = root
        node.count += count
        for name in stack[names.index(top) + 1 :]:
            node = node.children.setdefault(name, Node())
            node.count += count

    def walk(node: Node, depth: int) -> None:
        for name, child in sorted(node.children.items(), key=lambda kv: -kv[1].count):
            if 100 * child.count / total >= min_pct:
                print(f"{100 * child.count / total:6.1f}  {'  ' * depth}{name}")
                walk(child, depth + 1)

    print(f"{'incl%':>6}  call tree under {top} ({100 * root.count / total:.1f}% of samples)")
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


PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def max_rss_mb() -> float:
    """This process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb() -> float:
    """This process's resident set now."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


class RssWatch:
    """Which stage of which block raised the process's peak RSS.  Each stage
    is wrapped on its owner's instance and ``ru_maxrss`` read around it, with
    the resident set itself: a stage can set a new peak with a transient on
    top of what an earlier stage left live, so the two columns differ."""

    STAGES = ("generate", "build", "receive", "kernel")

    def __init__(self) -> None:
        self.start = self.end = self.rss_start = self.rss_end = 0.0
        self.height = 0
        self.peak_rise: Dict[str, float] = dict.fromkeys(self.STAGES, 0.0)
        self.rss_change: Dict[str, float] = dict.fromkeys(self.STAGES, 0.0)
        self.last: Optional[Tuple[int, str]] = None

    def attach(self, node: Any, kernel: Any) -> None:
        chain = node.chain

        def watched(stage: str, call: Callable[..., Any]) -> Callable[..., Any]:
            def rss_watched(*args: Any, **kwargs: Any) -> Any:
                if stage == "generate":  # each block starts here, on its parent
                    self.height = chain.head.number + 1
                peak, now = max_rss_mb(), rss_mb()
                try:
                    return call(*args, **kwargs)
                finally:
                    self.rss_change[stage] += rss_mb() - now
                    rise = max_rss_mb() - peak
                    if rise > 0:
                        self.peak_rise[stage] += rise
                        self.last = (self.height, stage)

            return rss_watched

        node.generator.generate_block_txs = watched("generate", node.generator.generate_block_txs)
        node.proposer.build_block = watched("build", node.proposer.build_block)
        node.validator.receive_blocks = watched("receive", node.validator.receive_blocks)
        kernel.run = watched("kernel", kernel.run)

    def report(self) -> None:
        where = f"height {self.last[0]} in {self.last[1]}" if self.last else "boot (no rise in the loop)"
        print(
            f"peak RSS {self.start:.1f} MB when the loop starts, {self.end:.1f} MB when it ends;"
            f" last rose at {where}"
        )
        print(f"{'peak+':>8} {'rss+':>8}  MB each stage added to the peak and to the resident set, over the loop")
        for stage in self.STAGES:
            print(f"{self.peak_rise[stage]:8.1f} {self.rss_change[stage]:8.1f}  {stage}")
        other_peak = self.end - self.start - sum(self.peak_rise.values())
        other_rss = self.rss_end - self.rss_start - sum(self.rss_change.values())
        print(f"{other_peak:8.1f} {other_rss:8.1f}  other (between the stages)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="mainnet")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("--tree", action="store_true", help="call tree instead of the flat list")
    parser.add_argument("--min", type=float, default=1.0, help="smallest share the tree prints (percent)")
    parser.add_argument(
        "--clock", choices=("cpu", "wall"), default="cpu", help="wall: also sample wall time, and rank by it"
    )
    parser.add_argument(
        "--phase", choices=sorted(ROOTS), default="loop", help="recover: sample recover() on the pass's data dir"
    )
    args = parser.parse_args()
    top = ROOTS[args.phase]

    # outermost frame first; CPU ticks count 1 each, wall samples their seconds
    stacks: Counter[Tuple[str, ...]] = collections.Counter()
    wall_stacks: Counter[Tuple[str, ...]] = collections.Counter()
    dropped: Counter[str] = collections.Counter()  # ticks in the calibration kernel or a collection
    wall_dropped: Counter[str] = collections.Counter()  # and seconds of wall samples there
    last_wall = 0.0
    gc_runs, gc_cpu = [0, 0, 0], [0.0, 0.0, 0.0]  # collections and their CPU seconds, per generation
    gc_started: Optional[float] = None
    loop_cpu = 0.0
    censuses: List[Counter[str]] = []  # at the start and at the end of the loop
    rss = RssWatch()

    def on_gc(phase: str, info: Dict[str, int]) -> None:
        nonlocal gc_started
        # the thread's clock: while ITIMER_PROF is armed the process clock
        # advances in whole scheduler ticks (~4 ms), longer than a collection
        if phase == "start":
            gc_started = time.thread_time()
        elif gc_started is not None:
            gc_runs[info["generation"]] += 1
            gc_cpu[info["generation"]] += time.thread_time() - gc_started
            gc_started = None

    def sampler(
        into: Counter[Tuple[str, ...]], drop: Counter[str], weigh: Callable[[], float]
    ) -> Callable[[int, Optional[FrameType]], None]:
        def on_signal(signum: int, frame: Optional[FrameType]) -> None:
            weight = weigh()
            if gc_started is not None:  # the signal fell into the collection just ending
                drop["gc"] += weight
                return
            stack = []
            inside = 0  # frames below the phase's root (innermost first)
            while frame is not None:
                code = frame.f_code
                if code.co_name != "rss_watched":  # the RSS table's wrapper is not the node's
                    stack.append(f"{os.path.basename(code.co_filename)}:{code.co_qualname}")
                if code.co_qualname == top and not inside:
                    inside = len(stack)
                frame = frame.f_back
            # recovery runs inside the kernel's ``timed``: only a kernel frame
            # under the root is the instrument
            if any(name.startswith("kernel.py:") for name in stack[:inside]):
                drop["kernel"] += weight
            else:
                into[tuple(reversed(stack))] += weight

        return on_signal

    def since_last_wall() -> float:
        nonlocal last_wall
        now = time.perf_counter()
        elapsed, last_wall = now - last_wall, now
        return elapsed

    @contextlib.contextmanager
    def sampling() -> Iterator[None]:
        nonlocal loop_cpu, last_wall
        signal.signal(signal.SIGPROF, sampler(stacks, dropped, lambda: 1))
        gc.callbacks.append(on_gc)
        started = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, 0.001, 0.001)
        if args.clock == "wall":
            signal.signal(signal.SIGALRM, sampler(wall_stacks, wall_dropped, since_last_wall))
            last_wall = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.setitimer(signal.ITIMER_PROF, 0)
            loop_cpu = time.process_time() - started
            gc.callbacks.remove(on_gc)

    drive = lifecycle._drive_blocks

    def sampled_drive(node: Any, blocks: int, kernel: Any, *a: Any, **kw: Any) -> None:
        censuses.append(census())
        rss.attach(node, kernel)
        rss.start, rss.rss_start = max_rss_mb(), rss_mb()
        try:
            with sampling():
                drive(node, blocks, kernel, *a, **kw)
        finally:
            rss.end, rss.rss_end = max_rss_mb(), rss_mb()
            censuses.append(census())

    real_recover = lifecycle.recover
    recoveries = 0

    def sampled_recover(data_dir: str, genesis: Any, **kw: Any) -> Any:
        """The pass's own recovery, then as many sampled ones of its data
        dir (sealed and complete, so each rebuilds the same chain) as it
        takes to collect :data:`RECOVER_SAMPLES`."""
        nonlocal recoveries
        result = real_recover(data_dir, genesis, **kw)
        with sampling():
            while sum(stacks.values()) < RECOVER_SAMPLES:
                again = real_recover(data_dir, genesis, **kw)
                if again.log is not None:
                    again.log.close()
                recoveries += 1
        return result

    # run_pass looks both names up at call time
    if args.phase == "recover":
        lifecycle.recover = sampled_recover
    else:
        lifecycle._drive_blocks = sampled_drive
    workload = WORKLOADS[args.workload]
    root = lifecycle.make_root()
    try:
        result = lifecycle.run_pass(workload, args.seed, root, Kernel(), blocks=workload.blocks)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    total = sum(stacks.values()) or 1
    in_kernel, in_gc = dropped["kernel"], dropped["gc"]
    # what the samples cover: the loop's blocks, or the sampled recover() calls
    units = recoveries if args.phase == "recover" else len(result.blocks)
    unit, plural = ("recovery", "recoveries") if args.phase == "recover" else ("block", "blocks")
    print(
        f"{args.workload} seed {args.seed}: {total} samples over {units} {plural}"
        f" (+{in_kernel} in the calibration kernel, +{in_gc} in a collection, dropped)"
    )
    wall_total = sum(wall_stacks.values())
    if args.clock == "wall":
        print(
            f"wall: {wall_total:.2f} s sampled"
            f" (+{wall_dropped['kernel']:.2f} s in the calibration kernel,"
            f" +{wall_dropped['gc']:.2f} s in a collection, dropped)"
        )
    # the sampled CPU seconds less the calibration kernel's, by its share of ticks
    own_cpu = loop_cpu * (total + in_gc) / (total + in_gc + in_kernel)
    # the schedule the node's boot set, which the loop ran under
    print(
        f"{'runs':>6} {'/' + unit:>6} {'ms':>8} {'own%':>6}  collector, of {own_cpu:.2f} CPU s of the node's own,"
        f" threshold {gc.get_threshold()}"
    )
    for generation, (runs, seconds) in enumerate(zip(gc_runs, gc_cpu)):
        share = 100 * seconds / own_cpu if own_cpu else 0.0
        per_unit = runs / units if units else 0.0
        print(f"{runs:6d} {per_unit:6.2f} {1000 * seconds:8.1f} {share:6.1f}  gc gen{generation}")
    if args.phase == "loop":
        loop_tables(censuses, rss)
    if args.tree:
        if args.clock == "wall":
            print_tree(wall_stacks, wall_total or 1.0, args.min, top)
        else:
            print_tree(stacks, total, args.min, top)
    elif args.clock == "wall":
        cpu_incl, cpu_self = shares(stacks)
        wall_incl, wall_self = shares(wall_stacks)
        print(f"{'wall':>6} {'self':>6} {'cpu':>6} {'self':>6}  function (inclusive and self %, ranked by wall)")
        for name, share in wall_incl.most_common(args.top):
            print(f"{share:6.1f} {wall_self[name]:6.1f} {cpu_incl[name]:6.1f} {cpu_self[name]:6.1f}  {name}")
    else:
        inclusive, own = shares(stacks)
        print(f"{'incl%':>6} {'self%':>6}  function")
        for name, share in inclusive.most_common(args.top):
            print(f"{share:6.1f} {own[name]:6.1f}  {name}")
    return 1 if result.problems else 0


def loop_tables(censuses: List[Counter[str]], rss: RssWatch) -> None:
    """The block loop's census of tracked objects and its memory table."""
    boot, end = censuses
    print(f"{'boot':>8} {'end':>8} {'growth':>8}  live objects the collector tracks at the start and end of the loop")
    print(f"{sum(boot.values()):8d} {sum(end.values()):8d} {sum(end.values()) - sum(boot.values()):+8d}  all")
    growth = end.copy()
    growth.subtract(boot)
    for name, grew in growth.most_common(8):
        print(f"{boot[name]:8d} {end[name]:8d} {grew:+8d}  {name}")
    rss.report()


def shares(stacks: Counter[Tuple[str, ...]]) -> Tuple[Counter[str], Counter[str]]:
    """Per function, the percentage of the samples' weight with it on the
    stack (inclusive) and at the top (self)."""
    total = sum(stacks.values()) or 1
    inclusive: Counter[str] = collections.Counter()
    own: Counter[str] = collections.Counter()
    for stack, weight in stacks.items():
        own[stack[-1]] += 100 * weight / total
        for name in set(stack):
            inclusive[name] += 100 * weight / total
    return inclusive, own


if __name__ == "__main__":
    sys.exit(main())
