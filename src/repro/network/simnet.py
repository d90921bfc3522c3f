"""Whole-network simulation: many proposers, many validators, many rounds.

The DiCE loop of Figure 1, closed: each consensus round one (or, with
``fork_probability``, several) proposer(s) build blocks over the canonical
head; every validator pipelines the received block set, extends its chain,
and the network's chains stay in consensus.  Collected statistics give the
system-level view the paper motivates with — execution-layer TPS under
serial vs parallel validation, uncle rates, validator occupancy.

This is a logical-round model (no message latency) by default:
dissemination details are out of the paper's scope, and the interesting
contention — multiple same-height blocks hitting each validator — is
produced directly by the fork probability.  Passing a ``FaultConfig``
replaces the perfect channel with a :class:`FaultyChannel` per validator
(drop, duplication, reordering, bounded delay, with guaranteed
retransmission of drops the following round), and
``byzantine_proposers`` makes chosen proposers publish corrupted blocks —
the adversarial workload the hardened validator stack is built for.

With ``followers > 0`` every validator becomes the master of its own
follower pool (:mod:`repro.distributed`): received blocks are partitioned
into gas-weighted shards and validated across follower nodes, with the
single-node path as the serial fallback.  Results are bit-identical either
way — the knob only changes who does the work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chain.block import Block
from repro.core.validator import Distributor
from repro.faults.injector import FaultConfig, FaultInjector, FaultyChannel
from repro.network.node import ProposerNode, ReceiveOutcome, ValidatorNode
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.workload.generator import BlockWorkloadGenerator, WorkloadConfig
from repro.workload.universe import Universe

__all__ = ["NetworkConfig", "RoundRecord", "NetworkResult", "NetworkSimulation"]


@dataclass(frozen=True)
class NetworkConfig:
    n_proposers: int = 3
    n_validators: int = 2
    rounds: int = 5
    #: probability that a second proposer races the round winner
    fork_probability: float = 0.3
    seed: int = 101
    #: indices into the proposer set whose sealed blocks get corrupted.
    #: Out-of-range indices are a configuration error and raise
    #: ``ValueError`` at construction (a typo'd adversary must not silently
    #: run the honest scenario).
    byzantine_proposers: Tuple[int, ...] = ()
    #: which corruption a byzantine proposer applies (see CORRUPTION_KINDS)
    corruption: str = "profile_write_value"
    #: byzantine strikes before a validator refuses a proposer outright
    quarantine_threshold: int = 3
    #: follower nodes per validator for distributed sharded validation
    #: (0 = single-node validation, the seed behaviour)
    followers: int = 0


@dataclass
class RoundRecord:
    """What happened in one consensus round."""

    height: int
    proposer_ids: List[str]
    block_txs: List[int]
    accepted: int
    pipeline_speedup: float
    pipeline_makespan: float
    serial_time: float


@dataclass
class NetworkResult:
    rounds: List[RoundRecord]
    final_height: int
    final_root_hex: str
    uncle_count: int
    chains_agree: bool
    #: typed rejection counts seen by validator 0 (reason value -> count)
    failure_counts: Dict[str, int] = field(default_factory=dict)
    #: summed FaultyChannel counters (None on the perfect channel)
    channel_counters: Optional[Dict[str, int]] = None
    #: proposers validator 0 has quarantined by the end of the run
    quarantined: List[str] = field(default_factory=list)
    #: transactions actually on the reference chain at the end of the run
    #: (``Blockchain.canonical_tx_count()``, not per-round guesses — under
    #: reordering/corruption the round's first block need not be the one
    #: that committed)
    canonical_txs: int = 0

    @property
    def total_txs(self) -> int:
        """Transactions on the canonical chain (one block per height)."""
        return self.canonical_txs

    @property
    def parallel_tps(self) -> float:
        """Transactions per simulated second through the validator pipelines."""
        makespan_us = sum(r.pipeline_makespan for r in self.rounds)
        return sum(sum(r.block_txs) for r in self.rounds) / (makespan_us / 1_000_000.0)

    @property
    def serial_tps(self) -> float:
        """Transactions per simulated second, executed serially."""
        serial_us = sum(r.serial_time for r in self.rounds)
        return sum(sum(r.block_txs) for r in self.rounds) / (serial_us / 1_000_000.0)


class NetworkSimulation:
    """Drives proposers and validators through consensus rounds."""

    def __init__(
        self,
        universe: Universe,
        *,
        config: Optional[NetworkConfig] = None,
        workload: Optional[WorkloadConfig] = None,
        generator: Optional[Any] = None,
        faults: Optional[FaultConfig] = None,
        tracer: Any = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.universe = universe
        self.config = config or NetworkConfig()
        self.faults = faults
        #: Root tracer: every node registers itself as one trace process.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics or NULL_METRICS
        self.injector = FaultInjector(faults or FaultConfig(seed=self.config.seed))
        self.rng = random.Random(self.config.seed)
        #: ``generator`` overrides the default workload with any block
        #: source exposing ``generate_block_txs`` (e.g. a scenario stream)
        self.generator = generator or BlockWorkloadGenerator(
            universe, workload or WorkloadConfig(seed=self.config.seed)
        )
        # every node runs its role's default config (16 lanes)
        self.proposers = [
            ProposerNode(f"proposer-{i}", tracer=self.tracer, metrics=metrics)
            for i in range(self.config.n_proposers)
        ]
        for index in self.config.byzantine_proposers:
            if not 0 <= index < len(self.proposers):
                raise ValueError(
                    f"byzantine_proposers index {index} out of range for "
                    f"{len(self.proposers)} proposers"
                )
        self.byzantine_ids = {
            self.proposers[i].node_id for i in self.config.byzantine_proposers
        }
        if self.config.followers < 0:
            raise ValueError(f"followers must be >= 0, got {self.config.followers}")
        self.validators = [
            ValidatorNode(
                f"validator-{i}",
                universe.genesis,
                quarantine_threshold=self.config.quarantine_threshold,
                tracer=self.tracer,
                metrics=metrics,
                distributor=self._build_distributor(f"validator-{i}"),
            )
            for i in range(self.config.n_validators)
        ]
        self.channels: Optional[Dict[str, FaultyChannel]] = (
            {v.node_id: FaultyChannel(faults, v.node_id) for v in self.validators}
            if faults is not None
            else None
        )

    def _build_distributor(self, master_id: str) -> Optional[Distributor]:
        """A per-validator follower pool, or ``None`` when followers == 0."""
        if self.config.followers <= 0:
            return None
        from repro.distributed import ShardCoordinator

        return ShardCoordinator(
            self.config.followers,
            master_id=master_id,
            injector=self.injector if self.faults is not None else None,
            tracer=self.tracer,
            metrics=self.metrics,
        )

    # ------------------------------------------------------------------ #

    def run(self) -> NetworkResult:
        cfg = self.config
        records: List[RoundRecord] = []
        failure_counts: Dict[str, int] = {}

        for round_no in range(cfg.rounds):
            # all nodes share the canonical view of validator 0
            reference = self.validators[0].chain
            parent = reference.head
            parent_state = reference.state_at(parent.hash)

            txs = self.generator.generate_block_txs()
            winner = self.rng.choice(self.proposers)
            contenders = [winner]
            if cfg.n_proposers > 1 and self.rng.random() < cfg.fork_probability:
                rival = self.rng.choice(
                    [p for p in self.proposers if p is not winner]
                )
                contenders.append(rival)

            blocks = []
            for node in contenders:
                view = list(txs)
                self.rng.shuffle(view)
                view.sort(key=lambda t: t.nonce)
                block = node.build_block(parent.header, parent_state, view).block
                if node.node_id in self.byzantine_ids:
                    block = self.injector.corrupt_block(block, cfg.corruption)
                blocks.append(block)

            speedups = []
            makespans = []
            serials = []
            accepted_counts = []
            for validator in self.validators:
                outcome = self._deliver(validator, round_no, blocks)
                accepted_counts.append(len(outcome.accepted))
                speedups.append(outcome.pipeline.speedup)
                makespans.append(outcome.pipeline.makespan)
                serials.append(outcome.pipeline.serial_time)
                if validator is self.validators[0]:
                    self._count_failures(failure_counts, outcome)

            # On the perfect channel every validator sees the same batch, so
            # acceptance must be unanimous; byzantine blocks are rejected by
            # everyone (the corruption is deterministic), honest ones by
            # no one.  Under channel faults delivery differs per validator
            # within a round, so the invariant moves to end-of-run agreement.
            if self.channels is None:
                honest = sum(
                    1 for b in blocks
                    if b.header.proposer_id not in self.byzantine_ids
                )
                expected = honest if self.byzantine_ids else len(blocks)
                if len(set(accepted_counts)) != 1 or accepted_counts[0] > expected:
                    raise AssertionError(
                        f"validators disagree on acceptance: {accepted_counts}"
                    )

            records.append(
                RoundRecord(
                    height=parent.number + 1,
                    proposer_ids=[n.node_id for n in contenders],
                    block_txs=[len(b) for b in blocks],
                    accepted=accepted_counts[0],
                    pipeline_speedup=speedups[0],
                    pipeline_makespan=makespans[0],
                    serial_time=serials[0],
                )
            )

        channel_counters = self._drain_channels(failure_counts)

        heads = {v.chain.head.hash for v in self.validators}
        roots = {v.chain.head_state.state_root() for v in self.validators}
        reference = self.validators[0].chain
        return NetworkResult(
            rounds=records,
            final_height=reference.height(),
            final_root_hex=reference.head_state.state_root().hex(),
            uncle_count=reference.uncle_count(),
            chains_agree=len(heads) == 1 and len(roots) == 1,
            failure_counts=failure_counts,
            channel_counters=channel_counters,
            quarantined=sorted(self.validators[0].quarantined_proposers),
            canonical_txs=reference.canonical_tx_count(),
        )

    # ------------------------------------------------------------------ #

    def _deliver(
        self, validator: ValidatorNode, round_no: int, blocks: Sequence[Block]
    ) -> ReceiveOutcome:
        """Hand a round's blocks to one validator, through its channel."""
        trace_on = self.tracer.enabled
        self.metrics.counter("net.blocks_sent").inc(len(blocks))
        if trace_on:
            for block in blocks:
                self.tracer.instant(
                    "send",
                    float(round_no),
                    block=block.hash.hex()[:8],
                    to=validator.node_id,
                )
        if self.channels is None:
            self.metrics.counter("net.blocks_delivered").inc(len(blocks))
            return validator.receive_blocks(blocks)
        deliveries = self.channels[validator.node_id].deliver(round_no, blocks)
        self.metrics.counter("net.blocks_delivered").inc(len(deliveries))
        if trace_on:
            for block, arrival in deliveries:
                self.tracer.instant(
                    "receive",
                    arrival,
                    block=block.hash.hex()[:8],
                    at=validator.node_id,
                )
        return validator.receive_blocks(
            [block for block, _ in deliveries],
            arrivals=[arrival for _, arrival in deliveries],
        )

    def _drain_channels(
        self, failure_counts: Dict[str, int]
    ) -> Optional[Dict[str, int]]:
        """Deliver every backlogged retransmission, then sum channel stats."""
        if self.channels is None:
            return None
        for validator in self.validators:
            leftovers = self.channels[validator.node_id].flush()
            if leftovers:
                # flushed retransmissions are deliveries like any other —
                # without this the sent/delivered metrics can never
                # reconcile even though every drop is retransmitted
                self.metrics.counter("net.blocks_delivered").inc(len(leftovers))
                outcome = validator.receive_blocks(
                    [block for block, _ in leftovers],
                    arrivals=[arrival for _, arrival in leftovers],
                )
                if validator is self.validators[0]:
                    self._count_failures(failure_counts, outcome)
        totals: Dict[str, int] = {}
        for channel in self.channels.values():
            for key, value in channel.counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    @staticmethod
    def _count_failures(counts: Dict[str, int], outcome: ReceiveOutcome) -> None:
        for failure in outcome.failures:
            if failure is not None:
                key = failure.reason.value
                counts[key] = counts.get(key, 0) + 1
