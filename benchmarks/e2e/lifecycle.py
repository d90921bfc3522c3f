"""One pass of the node lifecycle: boot → closed loop → shutdown → recover.

This is the program under test, driven through the same public calls
``NodeService.run`` makes.  The loop is *closed with one client*: the
transactions of block N+1 are generated only after block N is durable.

Every timed interval is bracketed by the calibration kernel (see
``kernel.py``); the kernel itself is never inside a timed interval.  A
block is two intervals — generate+propose, then validate+persist — so
the kernel samples the host's speed twice per block.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import AbstractSet, Any, Dict, Iterator, List, Optional, Tuple

from repro.chain.block import Block
from repro.core.proposer import SealedProposal, seal_block
from repro.evm.interpreter import ExecutionContext
from repro.exec.backend import get_backend
from repro.network.node import ProposerNode, ValidatorNode
from repro.state.statedb import StateSnapshot
from repro.store import open_store, recover
from repro.txpool.pool import TxPool
from repro.workload.generator import BlockWorkloadGenerator
from repro.workload.scenarios import get_scenario, mainnet_scenario
from repro.workload.universe import build_universe

from .kernel import Kernel, calibrated
from .spec import BLOCK_INTERVAL, OUT_DIR, SNAPSHOT_INTERVAL, TXS_PER_BLOCK, Workload
from .trace import SpanRecorder, TracedBackend, TracedStore


GENERATE, PROPOSE, VALIDATE = 0, 1, 2


@dataclass
class BlockSample:
    """One block: raw wall seconds per stage, the full-heap collector pauses
    that landed inside each stage, and the three kernel runs bracketing the
    block's two timed intervals (generate+propose | validate)."""

    height: int
    generated: int
    committed: int
    wall_s: Tuple[float, float, float]
    gc_s: Tuple[float, float, float]
    kernel_s: Tuple[float, float, float]  # (before, between, after)

    def factor(self, stage: int) -> float:
        """Wall → calibrated multiplier of the interval ``stage`` lies in."""
        first = stage != VALIDATE
        return calibrated(1.0, self.kernel_s[0 if first else 1], self.kernel_s[1 if first else 2])

    def cal(self, stage: int) -> float:
        """Calibrated seconds of one stage, collector pauses included."""
        return self.wall_s[stage] * self.factor(stage)

    def gc_cal(self, stage: int) -> float:
        return self.gc_s[stage] * self.factor(stage)

    @property
    def total_wall(self) -> float:
        return sum(self.wall_s)

    @property
    def total_cal(self) -> float:
        return sum(self.cal(stage) for stage in (GENERATE, PROPOSE, VALIDATE))

    @property
    def total_gc_cal(self) -> float:
        return sum(self.gc_cal(stage) for stage in (GENERATE, PROPOSE, VALIDATE))


class FullCollections:
    """Seconds spent in generation-2 collections, via ``gc.callbacks``.

    The collector stays on (users pay it).  A full collection is triggered
    by allocation accumulated over *all* stages, yet its ~50 ms pause lands
    on whichever stage happens to be running — a coin flip that moves with
    the seed.  Metering the pauses lets per-stage rates bill them in
    proportion to each stage's own time instead (see ``single.end_to_end``).
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started

    def __enter__(self) -> "FullCollections":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self._callback)


@dataclass
class Timed:
    wall_s: float
    cal_s: float


@dataclass
class PassResult:
    blocks: List[BlockSample] = field(default_factory=list)
    setup: Optional[Timed] = None
    recover: Optional[Timed] = None
    #: peak RSS of this process (plus its largest reaped pool worker) once
    #: the pass has ended
    peak_rss_mb: float = 0.0
    #: canonical block hash per height, 1-based heights at index height-1
    heads: List[str] = field(default_factory=list)
    #: exact counts read off result objects (identical traced or not)
    counts: Dict[str, float] = field(default_factory=dict)
    #: what crossed ``ExecutionBackend.map`` — counted by the traced proxy only
    exec_counts: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: every correctness check that tripped, in words
    problems: List[str] = field(default_factory=list)
    # what the layer probes replay — kept by the traced pass only, so that
    # untraced passes do not pin a universe each in memory:
    #: (block, parent state, generated txs) per height
    sealed: List[tuple] = field(default_factory=list)
    genesis: Optional[StateSnapshot] = None
    final_state: Optional[StateSnapshot] = None

    def drop_replay_material(self) -> None:
        self.sealed, self.genesis, self.final_state = [], None, None


@dataclass
class Node:
    universe: Any
    generator: Any
    chain: Any
    store: Any
    proposer: ProposerNode
    validator: ValidatorNode
    backend: Any

    def shutdown(self, *, seal: bool) -> None:
        """``NodeService.run``'s exit path, plus the pool it was handed."""
        try:
            if seal:
                self.store.seal()
        finally:
            self.validator.pipeline.close()
            self.store.close()
            if self.backend is not None:
                self.backend.close()


def boot(
    workload: Workload,
    seed: int,
    data_dir: str,
    *,
    metrics: Any = None,
    recorder: Optional[SpanRecorder] = None,
) -> Node:
    """Everything before the first block can be generated."""
    if workload.scenario is None:
        universe = build_universe()
        generator = BlockWorkloadGenerator(
            universe,
            dataclasses.replace(mainnet_scenario(seed=seed), txs_per_block=TXS_PER_BLOCK),
        )
    else:
        generator = get_scenario(workload.scenario, seed=seed, txs_per_block=TXS_PER_BLOCK)
        universe = generator.universe
    chain, store, _ = open_store(
        data_dir,
        universe.genesis,
        snapshot_interval=SNAPSHOT_INTERVAL,
        compact=True,
        fsync=False,
        metrics=metrics,
    )
    backend = get_backend(workload.backend, workload.workers)
    if recorder is not None:
        chain.attach_store(TracedStore(store, recorder))
        if backend is not None:
            backend = TracedBackend(backend, recorder)
    proposer = ProposerNode("serve-proposer", metrics=metrics, backend=backend)
    validator = ValidatorNode(
        "serve-validator", universe.genesis, chain=chain, metrics=metrics, backend=backend
    )
    return Node(universe, generator, chain, store, proposer, validator, backend)


def traced_build_block(
    proposer: ProposerNode,
    parent: Any,
    parent_state: StateSnapshot,
    pending: List[Any],
    timestamp: int,
    recorder: SpanRecorder,
) -> SealedProposal:
    """``ProposerNode.build_block`` composed from its public parts, with a
    span around each.  The traced pass must seal the same head as the
    untraced one, which is what keeps this copy honest."""
    with recorder.span("txpool.admit"):
        pool = TxPool()
        pool.add_many(pending)
    gas_limit = proposer.engine.config.gas_limit
    ctx = ExecutionContext(
        block_number=parent.number + 1,
        timestamp=timestamp,
        coinbase=proposer.coinbase,
        gas_limit=gas_limit,
    )
    with recorder.span("core.propose"):
        proposal = proposer.engine.propose(parent_state, pool, ctx)
    with recorder.span("core.seal"):
        return seal_block(
            proposal,
            parent,
            coinbase=proposer.coinbase,
            timestamp=timestamp,
            gas_limit=gas_limit,
            proposer_id=proposer.node_id,
            params=proposer.params,
            metrics=proposer.metrics,
        )


def _count_block(counts: Dict[str, float], sealed: SealedProposal, outcome: Any) -> None:
    def add(name: str, amount: float) -> None:
        counts[name] = counts.get(name, 0) + amount

    stats = sealed.proposal.stats
    add("core.executions", stats.tasks)
    add("core.aborts", stats.aborts)
    add("core.commits", len(sealed.proposal.committed))
    add("chain.gas", sealed.proposal.gas_used)
    pipeline = outcome.pipeline
    add("core.serial_fallbacks", pipeline.stats.serial_fallbacks)
    add("core.exec_retries", pipeline.stats.exec_retries)
    for result in pipeline.results:
        if result is not None and result.graph is not None:
            add("core.planned_blocks", 1)
            add("core.components", len(result.graph.components))
            add("core.largest_component_ratio_sum", result.graph.largest_component_ratio())


def run_pass(
    workload: Workload,
    seed: int,
    root: str,
    kernel: Kernel,
    *,
    blocks: int,
    home_cpus: Optional[AbstractSet[int]] = None,
    recorder: Optional[SpanRecorder] = None,
    metrics: Any = None,
) -> PassResult:
    """One full lifecycle in a fresh data dir under ``root``.

    ``home_cpus`` is what :func:`pin_to_one_cpu` returned: the CPUs a pool
    workload's block loop is let back onto."""
    result = PassResult()
    data_dir = tempfile.mkdtemp(prefix="node-", dir=root)
    node: Optional[Node] = None
    try:
        node, wall, cal = kernel.timed(
            lambda: boot(workload, seed, data_dir, metrics=metrics, recorder=recorder)
        )
        result.setup = Timed(wall, cal)
        genesis = node.universe.genesis

        with _loop_placement(workload, home_cpus), FullCollections() as pauses:
            _drive_blocks(node, blocks, kernel, kernel.last_s, recorder, pauses, result)

        result.counts["workload.txs_generated"] = result.attempted
        traced_backend = node.backend if isinstance(node.backend, TracedBackend) else None
        for name in ("map_calls", "tasks", "payload_bytes"):
            result.exec_counts["exec." + name] = getattr(traced_backend, name, 0)
        if recorder is not None:
            result.genesis, result.final_state = genesis, node.chain.head_state
        head_hash = bytes(node.chain.head.hash).hex()
        sealed_cleanly = not result.problems
        node.shutdown(seal=sealed_cleanly)
        node = None

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result.peak_rss_mb = (usage + workers) / 1024.0

        if sealed_cleanly:
            recovery, wall, cal = kernel.timed(lambda: recover(data_dir, genesis, fsync=False))
            result.recover = Timed(wall, cal)
            if recovery.log is not None:
                recovery.log.close()
            recovered = bytes(recovery.chain.head.hash).hex()
            if recovered != head_hash:
                result.problems.append(
                    f"recover() head {recovered[:12]} != pre-shutdown head {head_hash[:12]}"
                )
            expect_replay = blocks % SNAPSHOT_INTERVAL
            if recovery.replayed != expect_replay:
                result.problems.append(
                    f"recover() replayed {recovery.replayed} blocks, expected {expect_replay}"
                )
    finally:
        if node is not None:
            node.shutdown(seal=False)
        shutil.rmtree(data_dir, ignore_errors=True)
    return result


def _drive_blocks(
    node: Node,
    blocks: int,
    kernel: Kernel,
    k_prev: float,
    recorder: Optional[SpanRecorder],
    pauses: FullCollections,
    result: PassResult,
) -> None:
    """The closed loop; stops at the first rejected block."""
    span = recorder.span if recorder is not None else (lambda name: contextlib.nullcontext())
    chain, proposer, validator = node.chain, node.proposer, node.validator
    for _ in range(blocks):
        head = chain.head
        if recorder is not None:
            recorder.height = head.number + 1
        with span("block"):
            t0, g0 = time.perf_counter(), pauses.seconds
            parent_state = chain.state_at(head.hash)
            with span("workload.generate"):
                txs = node.generator.generate_block_txs()
            t1, g1 = time.perf_counter(), pauses.seconds
            timestamp = head.header.timestamp + BLOCK_INTERVAL
            if recorder is None:
                sealed = proposer.build_block(head.header, parent_state, txs, timestamp=timestamp)
            else:
                sealed = traced_build_block(
                    proposer, head.header, parent_state, txs, timestamp, recorder
                )
            t2, g2 = time.perf_counter(), pauses.seconds
            with span("trace.kernel"):
                k_mid = kernel.run()
            t3, g3 = time.perf_counter(), pauses.seconds
            with span("core.validate"):
                outcome = validator.receive_blocks([sealed.block])
            t4, g4 = time.perf_counter(), pauses.seconds
        k_after = kernel.run()

        block: Block = sealed.block
        result.attempted += len(txs)
        if not outcome.accepted:
            failure = next((f for f in outcome.failures if f), None)
            reason = failure.reason.value if failure else "unknown"
            result.problems.append(f"block {block.number} rejected: {reason}")
            result.failed += len(txs)
            return
        packed = {bytes(tx.hash) for tx in block.transactions}
        result.failed += sum(1 for tx in txs if bytes(tx.hash) not in packed)
        result.blocks.append(
            BlockSample(
                height=block.number,
                generated=len(txs),
                committed=len(block.transactions),
                wall_s=(t1 - t0, t2 - t1, t4 - t3),
                gc_s=(g1 - g0, g2 - g1, g4 - g3),
                kernel_s=(k_prev, k_mid, k_after),
            )
        )
        k_prev = k_after
        result.heads.append(bytes(chain.head.hash).hex())
        _count_block(result.counts, sealed, outcome)
        if recorder is not None:
            result.sealed.append((block, parent_state, txs))


def pin_to_one_cpu() -> Optional[AbstractSet[int]]:
    """Keep this process on one CPU; returns the CPUs it was started on
    (None, and no pinning, where the OS cannot).

    The program is single-threaded outside a pool's ``map``, and hopping
    between vCPUs only adds slow phases: measured run-to-run range 10-18%
    unpinned against 4-5% pinned, medians equal to 0.2%.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(home)})
    return home


@contextlib.contextmanager
def _loop_placement(workload: Workload, home_cpus: Optional[AbstractSet[int]]) -> Iterator[None]:
    """Around the block loop of a pool workload, hand placement back to the
    scheduler — within the CPUs the run was started on, so a ``taskset``
    holds: workers inherit the affinity of the moment they are forked."""
    if workload.backend is None or home_cpus is None:
        yield
        return
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, home_cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def make_root() -> str:
    """The one temp root all data dirs of a run live under."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
