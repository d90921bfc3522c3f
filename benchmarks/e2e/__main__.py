"""``python -m benchmarks.e2e`` (or ``python benchmarks/e2e/__main__.py``).

* no subcommand — one run, the form ``BENCHMARK.json``'s ``command`` takes:
  ``--workload W --seed N --seconds S --trace 0|1``;
* ``run`` — a full set: interleaved repeats of every workload, each in a
  fresh child interpreter, one traced run per workload, every check;
* ``compare A.json B.json`` — verdict per workload and end-to-end metric.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional


def _bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.e2e`` importable from a bare checkout."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"benchmarks.e2e: no program to measure ({src}/repro is missing)")
    for path in (root, src):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _bootstrap()
    if argv and argv[0] == "compare":
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(argv[1:])
    if argv and argv[0] == "run":
        from benchmarks.e2e.suite import main as suite_main

        return suite_main(argv[1:])

    # the kernel is stdlib-only, so it can time the import of everything else
    from benchmarks.e2e.kernel import Kernel, calibrated

    kernel = Kernel()
    k_before = kernel.run()
    started = time.perf_counter()
    from benchmarks.e2e import single

    wall = time.perf_counter() - started
    import_s = calibrated(wall, k_before, kernel.run())
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    single.add_arguments(parser)
    return single.run(parser.parse_args(argv), kernel, import_s)


if __name__ == "__main__":
    sys.exit(main())
