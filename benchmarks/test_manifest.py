"""The manifest under pytest (``pytest benchmarks/``, and the marker tiers).

Every experiment runs with its pinned params and is judged by its ``check``;
every golden regenerates byte for byte; the goldens, the committed files and
the ``.gitignore`` whitelist name the same set; and the entry point does all
of it from a bare checkout, twice, with the same bytes.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.manifest import MANIFEST, RESULTS_DIR
from benchmarks.world import World

REPO = Path(__file__).resolve().parent.parent
GOLDENS = sorted(f"BENCH_{e.name}.json" for e in MANIFEST if e.golden)


@pytest.fixture(scope="session")
def world():
    return World()


@pytest.mark.parametrize(
    "experiment",
    [
        pytest.param(e, id=e.name, marks=[getattr(pytest.mark, m) for m in e.markers])
        for e in MANIFEST
    ],
)
def test_experiment(experiment, world, tmp_path, capsys):
    outcome, comparison = experiment.execute(world, str(tmp_path), gate=True)
    with capsys.disabled():
        print("\n" + outcome.report, end="")
    if experiment.golden:
        assert comparison.ok and not comparison.missing_keys, comparison.summary()
        golden = f"BENCH_{experiment.name}.json"
        assert (tmp_path / golden).read_bytes() == Path(RESULTS_DIR, golden).read_bytes()


def test_goldens_files_and_whitelist_are_one_set():
    on_disk = sorted(path.name for path in Path(RESULTS_DIR).glob("BENCH_*.json"))
    whitelist = sorted(
        re.findall(r"^!benchmarks/results/(BENCH_\w+\.json)$", (REPO / ".gitignore").read_text(), re.M)
    )
    assert GOLDENS == on_disk == whitelist
    assert len({e.name for e in MANIFEST}) == len(MANIFEST)


def test_entry_point_regenerates_the_goldens_twice(tmp_path):
    """The local gate is CI's gate: one process, no environment, exit 0 —
    and a second run writes the bytes the first one did (no exception list)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for attempt in ("first", "second"):
        out = tmp_path / attempt
        subprocess.run(
            [sys.executable, "-m", "benchmarks", "--suite", "sim", "--compare", "--results-dir", str(out)],
            cwd=REPO, env=env, check=True, timeout=600, stdout=subprocess.DEVNULL,
        )
        for golden in GOLDENS:
            assert (out / golden).read_bytes() == Path(RESULTS_DIR, golden).read_bytes(), golden
