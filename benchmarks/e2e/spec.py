"""What is measured: the four workloads and the metric contract.

``BENCHMARK.json`` at the repo root is the single source of metric names,
units, directions and regression bounds; this module reads it and adds the
two things its fixed schema has no key for — each workload's parameters
and each bound's absolute floor.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
#: Every byte the benchmark writes lands under here (git-ignored).
OUT_DIR = os.path.join(HERE, "out")

TXS_PER_BLOCK = 132
#: simulated seconds between header timestamps, as ``serve`` defaults
BLOCK_INTERVAL = 12
SNAPSHOT_INTERVAL = 16


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``repro.workload.scenarios`` registry name; None = the mainnet mix
    #: over ``build_universe()``, exactly as ``serve`` without ``--scenario``
    scenario: Optional[str]
    #: chosen so 8 blocks lie past the last snapshot at shutdown
    blocks: int
    #: ``repro.exec`` backend handed to both nodes; None = ``serve``'s default
    #: substrate (``backend=None``, the simulated-lane engines)
    backend: Optional[str] = None
    workers: int = 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("mainnet", None, 24),
        Workload("longtail-payments", "long-tail", 40),
        Workload("mint-rush", "nft-mint-rush", 24),
        Workload("mainnet-process", None, 8, backend="process", workers=min(2, os.cpu_count() or 1)),
    )
}

#: A difference smaller than this counts as unchanged whatever the relative
#: bound says (``setup_s`` is ~20 ms on two workloads and ~1 s on the others).
FLOORS: Dict[str, float] = {
    "setup_s": 0.050,
    "recover_s": 0.050,
    "block_ms_p50": 5.0,
    "peak_rss_mb": 8.0,
}


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def metric_names(contract: Dict[str, Any], section: str) -> List[str]:
    return [entry["name"] for entry in contract[section]]
