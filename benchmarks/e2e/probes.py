"""Layer probes: replay one run's sealed blocks into one layer at a time.

Each probe calls a single layer's public API on the traced pass's real
blocks, so its number says what that layer alone costs on this workload —
the figure an optimisation of that layer should move first.  Times are
calibrated milliseconds per block (or per call where the name says so).
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, Callable, Dict, List, Tuple

from repro.chain.block import receipts_root, transactions_root
from repro.common.hashing import Hash32
from repro.core.baselines import SerialExecutor
from repro.core.depgraph import build_dependency_graph
from repro.core.scheduler import schedule_components
from repro.exec.backend import get_backend
from repro.state.serialize import snapshot_from_json, snapshot_to_json
from repro.store.blocklog import BlockLog
from repro.store.codec import decode_block, encode_block
from repro.store.snapshots import load_snapshot, write_snapshot
from repro.txpool.pool import TxPool

from .kernel import Kernel
from .lifecycle import PassResult
from .spec import Workload

#: payloads per ``exec.roundtrip_ms`` map call — about one proposer wave
ROUNDTRIP_TASKS = 16
ROUNDTRIP_CALLS = 20


def _noop(shared: Any, payload: Any) -> Any:
    return payload


def _timed(kernel: Kernel, fn: Callable[[], Any]) -> Tuple[float, Any]:
    """Calibrated seconds of ``fn()`` and its result."""
    value, _, seconds = kernel.timed(fn)
    return seconds, value


def run_probes(
    traced: PassResult, workload: Workload, root: str, kernel: Kernel
) -> Dict[str, float]:
    """Probe values by metric name; a disagreement with the sealed chain is
    appended to ``traced.problems``."""
    sealed = traced.sealed
    blocks = [block for block, _, _ in sealed]
    n = len(blocks)
    out: Dict[str, float] = {}

    def per_block_ms(seconds: float) -> float:
        return seconds * 1000.0 / n

    # evm: serial re-execution; its fresh post-states feed the root probe
    executor = SerialExecutor()
    seconds, executed = _timed(
        kernel,
        lambda: [executor.execute_block(block, parent) for block, parent, _ in sealed],
    )
    out["evm.serial_exec_ms"] = per_block_ms(seconds)

    # state: hashing the dirty paths of each freshly executed post-state
    seconds, roots = _timed(
        kernel, lambda: [result.post_state.state_root() for result in executed]
    )
    out["state.root_ms"] = per_block_ms(seconds)
    if any(root_ != block.header.state_root for root_, block in zip(roots, blocks)):
        traced.problems.append("serial re-execution disagrees with a sealed state root")

    # state: every genesis trie rebuilt from flat accounts and hashed to the
    # root — the trie work inside set-up (the top-level root alone is ~2% of it)
    flat_genesis = snapshot_to_json(traced.genesis)
    seconds, _ = _timed(
        kernel, lambda: snapshot_from_json(flat_genesis, verify_root=False).state_root()
    )
    out["state.genesis_root_ms"] = seconds * 1000.0

    seconds, _ = _timed(
        kernel,
        lambda: [
            (transactions_root(b.transactions), receipts_root(b.receipts)) for b in blocks
        ],
    )
    out["chain.roots_ms"] = per_block_ms(seconds)

    seconds, encoded = _timed(kernel, lambda: [encode_block(b) for b in blocks])
    out["common.rlp_encode_ms"] = per_block_ms(seconds)
    out["common.rlp_bytes"] = sum(len(data) for data in encoded) / n
    seconds, _ = _timed(kernel, lambda: [decode_block(data) for data in encoded])
    out["common.rlp_decode_ms"] = per_block_ms(seconds)

    def plan_all() -> None:
        for block in blocks:
            entries = block.profile.entries
            graph = build_dependency_graph(
                [entry.rw.touched_addresses() for entry in entries],
                [entry.gas_used for entry in entries],
            )
            schedule_components(graph, 16)

    seconds, _ = _timed(kernel, plan_all)
    out["core.plan_ms"] = per_block_ms(seconds)

    def drain_all() -> None:
        for _, _, txs in sealed:
            pool = TxPool()
            pool.add_many(txs)
            while (tx := pool.pop_best()) is not None:
                pool.mark_packed(tx)

    seconds, _ = _timed(kernel, drain_all)
    out["txpool.drain_ms"] = per_block_ms(seconds)

    out.update(_store_probes(traced, blocks, root, kernel))
    out["exec.roundtrip_ms"] = _roundtrip_ms(workload, kernel)
    return out


def _store_probes(
    traced: PassResult, blocks: List[Any], root: str, kernel: Kernel
) -> Dict[str, float]:
    out: Dict[str, float] = {}
    scratch = tempfile.mkdtemp(prefix="probe-", dir=root)
    log = BlockLog(os.path.join(scratch, "probe.log"), fsync=False)
    try:
        seconds, _ = _timed(kernel, lambda: [log.append(b) for b in blocks])
    finally:
        log.close()
    out["store.append_ms"] = seconds * 1000.0 / len(blocks)

    state = traced.final_state
    seconds, (filename, digest) = _timed(
        kernel, lambda: write_snapshot(scratch, len(blocks), state, fsync=False)
    )
    out["store.snapshot_write_ms"] = seconds * 1000.0
    seconds, _ = _timed(
        kernel,
        lambda: load_snapshot(
            scratch,
            filename,
            expect_sha256=digest,
            expect_root=Hash32(bytes(state.state_root())),
        ),
    )
    out["store.snapshot_load_ms"] = seconds * 1000.0
    return out


def _roundtrip_ms(workload: Workload, kernel: Kernel) -> float:
    """One ``backend.map`` of a no-op over trivial payloads (0 without a pool)."""
    backend = get_backend(workload.backend, workload.workers)
    if backend is None:
        return 0.0
    with backend:
        backend.open(None)
        payloads = list(range(ROUNDTRIP_TASKS))
        backend.map(_noop, payloads)  # the first call forks the workers
        seconds, _ = _timed(
            kernel, lambda: [backend.map(_noop, payloads) for _ in range(ROUNDTRIP_CALLS)]
        )
    return seconds * 1000.0 / ROUNDTRIP_CALLS
