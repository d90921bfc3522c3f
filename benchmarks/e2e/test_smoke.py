"""Smoke test: ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (< 30 s).

A ``--quick`` set (2 blocks, 1 run, all four workloads) is checked against
``BENCHMARK.json``: every named metric present for every workload, and the
contract's own shape limits.  Tier-1 (``testpaths = ["tests"]``) does not
collect this file.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

from benchmarks.e2e.spec import FLOORS, HERE, OUT_DIR, REPO_ROOT, WORKLOADS, load_contract

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
        check=False,
    )


def test_contract_shape() -> None:
    contract = load_contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert contract["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert 1 <= contract["run_seconds"] <= 60
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in contract[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert {w["name"] for w in contract["workloads"]} == set(WORKLOADS)
    for entry in contract["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    for entry in contract["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.15  # the issue's ceiling; the contract's is 0.25
    for entry in contract["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("higher", "lower")
    setup = next(e for e in contract["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in contract["end_to_end"])
    assert set(FLOORS) <= {e["name"] for e in contract["end_to_end"]}


def test_committed_same_commit_pair_is_all_unchanged() -> None:
    pair = [os.path.join(HERE, "results", name) for name in ("aa-1.json", "aa-2.json")]
    done = _run("compare", *pair)
    assert done.returncode == 0, done.stdout
    for word in ("improved", "regressed", "unresolved", "missing"):
        assert word not in done.stdout, done.stdout


def test_quick_set_emits_every_metric() -> None:
    contract = load_contract()
    out = os.path.join(OUT_DIR, "smoke.json")
    done = _run("run", "--quick", "--out", out)
    assert done.returncode == 0, done.stdout[-2000:]
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    assert result["problems"] == []
    for workload in contract["workloads"]:
        data = result["workloads"][workload["name"]]
        assert data["ops_attempted"] > 0 and data["ops_failed"] == 0
        for metric in contract["end_to_end"]:
            row = data["end_to_end"][metric["name"]]
            assert row["unit"] == metric["unit"] and row["median"] > 0, metric["name"]
        for metric in contract["per_layer"]:
            row = data["per_layer"][metric["name"]]
            assert row["unit"] == metric["unit"], metric["name"]
            assert isinstance(row["value"], (int, float)), metric["name"]
        # every metric is printed by name with its unit
        for metric in contract["end_to_end"] + contract["per_layer"]:
            assert re.search(
                rf"^\s+{re.escape(metric['name'])}\s.*\s{re.escape(metric['unit'])}\b",
                done.stdout,
                re.MULTILINE,
            ), metric["name"]
    # a file compared with itself: nothing regressed, nothing unresolved
    same = _run("compare", out, out)
    assert same.returncode == 0, same.stdout
    assert "regressed" not in same.stdout and "unresolved" not in same.stdout
    os.remove(out)
