"""Serve soak: long run, seeded SIGKILL/resume cycles, golden differential.

Env-tunable so the CI soak job can scale it up without code changes:

* ``REPRO_SOAK_BLOCKS`` — target chain height (default 40 locally,
  5000 in the CI soak job);
* ``REPRO_SOAK_KILLS``  — number of kill/resume cycles (default 3);
* ``REPRO_SOAK_SEED``   — seed for picking kill heights (default 1).

Each cycle arms one ``after_append``/``torn_append`` crash point at a
seeded height (``os._exit(137)`` — indistinguishable from SIGKILL) and
resumes; the final run must seal at the target with a head hash equal to
an uninterrupted golden run's.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.store.manifest import Manifest

pytestmark = [pytest.mark.store, pytest.mark.soak, pytest.mark.slow]

REPO_ROOT = Path(__file__).resolve().parents[1]

BLOCKS = int(os.environ.get("REPRO_SOAK_BLOCKS", "40"))
KILLS = int(os.environ.get("REPRO_SOAK_KILLS", "3"))
SEED = int(os.environ.get("REPRO_SOAK_SEED", "1"))


def _serve(data_dir, *, crash=None, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_STORE_CRASH", None)
    if crash:
        env["REPRO_STORE_CRASH"] = crash
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "--txs-per-block",
            "12",
            "serve",
            "--data-dir",
            str(data_dir),
            "--blocks",
            str(BLOCKS),
            "--snapshot-interval",
            "16",
            "--no-fsync",
        ],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=3600,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"serve failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}"
        )
    return proc


def _manifest(data_dir):
    return Manifest.load(str(data_dir))


def test_soak_kill_resume_matches_uninterrupted_golden(tmp_path):
    golden_dir = tmp_path / "golden"
    _serve(golden_dir)
    golden = _manifest(golden_dir)
    assert golden.height == BLOCKS

    rng = random.Random(SEED)
    # seeded, strictly increasing kill heights spread over the run
    kill_heights = sorted(rng.sample(range(2, BLOCKS), KILLS))
    victim_dir = tmp_path / "victim"
    for index, height in enumerate(kill_heights):
        event = "torn_append" if index % 2 else "after_append"
        proc = _serve(victim_dir, crash=f"{event}:{height}", check=False)
        assert proc.returncode == 137, (
            f"kill {index} at {event}:{height} exited "
            f"{proc.returncode}:\n{proc.stderr}"
        )

    final = _serve(victim_dir)
    assert "sealed=True" in final.stdout
    manifest = _manifest(victim_dir)
    assert manifest.height == BLOCKS
    assert manifest.head_hash == golden.head_hash, (
        "kill-and-resume chain diverged from the uninterrupted golden:\n"
        f"golden root {golden.state_root}\nvictim root {manifest.state_root}"
    )
    assert manifest.state_root == golden.state_root
    assert manifest.clean is True
