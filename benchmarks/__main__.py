"""``python -m benchmarks`` — the one way to emit, gate or regenerate an experiment.

* ``list`` — the manifest as a table;
* ``run NAME…`` — those experiments; with no name, ``--suite sim|wall``
  picks by clock, and neither means all of them.

Each run prints its table, writes it (and a golden's ``BENCH_<name>.json``)
under ``--results-dir`` — by default ``benchmarks/results``, so a bare run
*is* the golden regeneration — and judges its shape assertions.
``--compare`` also gates every golden against the committed file;
``--blocks N`` overrides the pinned chain length for a deeper run.  Exit
status 1 on a failed check, a regression, or a key missing from a golden.
The wall-clock node benchmark is ``python -m benchmarks.e2e``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:  # a bare checkout: nothing installed, no PYTHONPATH
    sys.path.insert(0, _SRC)

from benchmarks.manifest import MANIFEST, RESULTS_DIR  # noqa: E402
from benchmarks.world import World  # noqa: E402
from repro.obs.export import format_table  # noqa: E402


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("action", nargs="?", choices=("list", "run"), default="run")
    parser.add_argument("names", nargs="*", metavar="NAME", help="experiments to run")
    parser.add_argument("--suite", choices=("sim", "wall"), help="run every experiment on this clock")
    parser.add_argument("--compare", action="store_true", help="gate goldens against the committed files")
    parser.add_argument("--results-dir", default=RESULTS_DIR, help="where tables and BENCH_*.json land")
    parser.add_argument("--blocks", type=int, help="chain length, instead of each experiment's pinned one")
    args = parser.parse_args(argv)

    if args.action == "list":
        rows = [
            {
                "name": e.name,
                "clock": e.clock,
                "golden": f"BENCH_{e.name}.json" if e.golden else "—",
                "params": " ".join(f"{k}={v}" for k, v in e.params.items()) or "—",
                "markers": " ".join(e.markers) or "—",
            }
            for e in MANIFEST
        ]
        print(format_table(rows, title="python -m benchmarks run NAME…"), end="")
        return 0

    by_name = {e.name: e for e in MANIFEST}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown experiment(s) {', '.join(unknown)} — see `python -m benchmarks list`")
    selected = [by_name[name] for name in args.names] or [
        e for e in MANIFEST if args.suite in (None, e.clock)
    ]

    world = World()
    failed = []
    for experiment in selected:
        print(f"=== {experiment.name}")
        try:
            outcome, comparison = experiment.execute(
                world, args.results_dir, blocks=args.blocks, gate=args.compare
            )
        except AssertionError as exc:
            print(f"  CHECK FAILED: {exc!r}")
            failed.append(experiment.name)
            continue
        print(outcome.report, end="")
        if comparison is not None:
            print(comparison.summary())
            if comparison.missing_keys:
                print(f"  missing keys vs golden: {', '.join(comparison.missing_keys)}")
            if not comparison.ok or comparison.missing_keys:
                failed.append(experiment.name)
    print(f"{len(selected)} experiments, {len(failed)} failed" + (": " + " ".join(failed) if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
