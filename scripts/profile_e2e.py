"""Sample one ``benchmarks.e2e`` block loop with ``setitimer(ITIMER_PROF)``.

    python scripts/profile_e2e.py --workload mint-rush [--seed 42] [--top 30]

Prints, per function, the share of CPU-time samples with it on the stack
(inclusive) and at the top (self).  A sampler charges no per-call cost, so
— unlike cProfile, which inflates this code base's many small calls and
mis-ranks its layers — the shares are those of an unprofiled run.  Only
the block loop is sampled (not boot, genesis, shutdown, recovery), and only
this process (not a pool's workers).  The timer ticks with the scheduler
(~4 ms), so one pass gives a few hundred samples: read shares, not digits.
"""

from __future__ import annotations

import argparse
import collections
import os
import shutil
import signal
import sys
from types import FrameType
from typing import Any, Counter, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from benchmarks.e2e import lifecycle  # noqa: E402
from benchmarks.e2e.kernel import Kernel  # noqa: E402
from benchmarks.e2e.spec import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="mainnet")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--top", type=int, default=30)
    args = parser.parse_args()

    inclusive: Counter[str] = collections.Counter()
    own: Counter[str] = collections.Counter()

    def on_tick(signum: int, frame: Optional[FrameType]) -> None:
        stack = []
        while frame is not None:
            code = frame.f_code
            stack.append(f"{os.path.basename(code.co_filename)}:{code.co_qualname}")
            frame = frame.f_back
        own[stack[0]] += 1
        inclusive.update(set(stack))

    drive = lifecycle._drive_blocks

    def sampled_drive(*a: Any, **kw: Any) -> None:
        signal.signal(signal.SIGPROF, on_tick)
        signal.setitimer(signal.ITIMER_PROF, 0.001, 0.001)
        try:
            drive(*a, **kw)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)

    lifecycle._drive_blocks = sampled_drive  # run_pass looks the name up at call time
    workload = WORKLOADS[args.workload]
    root = lifecycle.make_root()
    try:
        result = lifecycle.run_pass(workload, args.seed, root, Kernel(), blocks=workload.blocks)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    total = sum(own.values()) or 1
    print(f"{args.workload} seed {args.seed}: {total} samples over {len(result.blocks)} blocks")
    print(f"{'incl%':>6} {'self%':>6}  function")
    for name, count in inclusive.most_common(args.top):
        print(f"{100 * count / total:6.1f} {100 * own[name] / total:6.1f}  {name}")
    return 1 if result.problems else 0


if __name__ == "__main__":
    sys.exit(main())
