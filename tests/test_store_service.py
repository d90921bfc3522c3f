"""Kill-and-resume differential: `python -m repro serve` as a subprocess.

The central acceptance test of the durability engine: a run killed at
seeded crash points and resumed must converge on a chain byte-identical
to one produced by an uninterrupted run — witnessed by the manifest's
head hash, which transitively commits to every header, transaction and
receipt before it.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.store.errors import ManifestError
from repro.store.manifest import Manifest

pytestmark = pytest.mark.store

REPO_ROOT = Path(__file__).resolve().parents[1]
SERVE_ARGS = ["--txs-per-block", "12"]
TARGET = "8"


def _serve(data_dir, *extra, crash=None, check=True, seed=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_STORE_CRASH", None)
    if crash:
        env["REPRO_STORE_CRASH"] = crash
    seed_args = ["--seed", str(seed)] if seed is not None else []
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            *SERVE_ARGS,
            *seed_args,
            "serve",
            "--data-dir",
            str(data_dir),
            "--snapshot-interval",
            "4",
            "--no-fsync",
            *extra,
        ],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"serve failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}"
        )
    return proc


def _manifest(data_dir):
    return Manifest.load(str(data_dir))


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """The uninterrupted reference run every resume must converge on."""
    data_dir = tmp_path_factory.mktemp("golden") / "node"
    _serve(data_dir, "--blocks", TARGET)
    return _manifest(data_dir)


class TestServeLifecycle:
    def test_reaches_target_and_seals(self, tmp_path, golden):
        data_dir = tmp_path / "node"
        proc = _serve(data_dir, "--blocks", TARGET)
        assert "sealed=True" in proc.stdout
        manifest = _manifest(data_dir)
        assert manifest.height == int(TARGET)
        assert manifest.clean is True
        assert manifest.head_hash == golden.head_hash

    def test_restart_of_sealed_dir_is_noop_run(self, tmp_path, golden):
        data_dir = tmp_path / "node"
        _serve(data_dir, "--blocks", TARGET)
        proc = _serve(data_dir, "--blocks", TARGET)
        assert "produced=0" in proc.stdout
        assert _manifest(data_dir).head_hash == golden.head_hash

    def test_config_mismatch_refused(self, tmp_path):
        data_dir = tmp_path / "node"
        _serve(data_dir, "--blocks", "4")
        proc = _serve(data_dir, "--blocks", TARGET, seed=7, check=False)
        assert proc.returncode != 0
        assert "ConfigMismatch" in proc.stderr


class TestKillAndResume:
    @pytest.mark.parametrize(
        "crash",
        [
            "after_append:3",
            "torn_append:5",
            "after_snapshot:4",
            "after_manifest:6",
            "in_compaction:4",  # stale new-generation file left for the retry
            "after_append:2,torn_append:6",  # two kills, two resumes
        ],
    )
    def test_resumed_chain_is_byte_identical(self, tmp_path, golden, crash):
        data_dir = tmp_path / "node"
        points = crash.split(",")
        survivors = list(points)
        # each run consumes (at most) the earliest remaining crash point
        while survivors:
            proc = _serve(
                data_dir, "--blocks", TARGET, crash=",".join(survivors), check=False
            )
            assert proc.returncode == 137, proc.stderr
            survivors.pop(0)
        final = _serve(data_dir, "--blocks", TARGET)
        assert "sealed=True" in final.stdout
        manifest = _manifest(data_dir)
        assert manifest.height == int(TARGET)
        assert manifest.head_hash == golden.head_hash
        assert manifest.state_root == golden.state_root

    def test_crash_before_seal_resumes_clean(self, tmp_path, golden):
        data_dir = tmp_path / "node"
        proc = _serve(
            data_dir, "--blocks", TARGET, crash="before_seal:8", check=False
        )
        assert proc.returncode == 137
        # all 8 blocks are durable; the resume only needs to seal
        final = _serve(data_dir, "--blocks", TARGET)
        assert "produced=0" in final.stdout
        assert _manifest(data_dir).head_hash == golden.head_hash


class TestSignals:
    def _spawn_unbounded(self, data_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop("REPRO_STORE_CRASH", None)
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                *SERVE_ARGS,
                "serve",
                "--data-dir",
                str(data_dir),
                "--snapshot-interval",
                "4",
                "--no-fsync",
            ],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def _wait_for_height(self, data_dir, height, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if _manifest(data_dir).height >= height:
                    return
            except (OSError, ManifestError):
                pass
            time.sleep(0.1)
        raise AssertionError(f"height {height} not reached within {timeout}s")

    @pytest.mark.parametrize(
        "signum,expected_code",
        [(signal.SIGINT, 130), (signal.SIGTERM, 0)],
    )
    def test_signal_seals_and_exits(self, tmp_path, signum, expected_code):
        data_dir = tmp_path / "node"
        proc = self._spawn_unbounded(data_dir)
        try:
            self._wait_for_height(data_dir, 2)
            proc.send_signal(signum)
            stdout, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == expected_code
        assert "sealed=True" in stdout
        assert _manifest(data_dir).clean is True


class TestKeyboardInterruptSatellite:
    def test_non_serve_command_exits_130(self):
        """Any command dying on KeyboardInterrupt maps to 130 + summary."""
        code = (
            "import repro.__main__ as m\n"
            "m.COMMANDS['demo'] = lambda args: (_ for _ in ()).throw(KeyboardInterrupt())\n"
            "import sys\n"
            "sys.exit(m.main(['demo']))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 130
        assert "interrupted" in proc.stderr
        assert "demo" in proc.stderr
