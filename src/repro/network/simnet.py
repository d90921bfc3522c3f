"""Whole-network simulation: many proposers, many validators, many rounds.

The DiCE loop of Figure 1, closed: each consensus round one (or, with
``fork_probability``, several) proposer(s) build blocks over the canonical
head; every validator pipelines the received block set, extends its chain,
and the network's chains stay in consensus.  Collected statistics give the
system-level view the paper motivates with — execution-layer TPS under
serial vs parallel validation, uncle rates, validator occupancy.

This is a logical-round model (no message latency, no loss): every
validator receives each round's blocks as one same-height batch.
Dissemination details are out of the paper's scope, and the interesting
contention — multiple same-height blocks hitting each validator — is
produced directly by the fork probability.  A proposer in ``proposers``
may be swapped for one that publishes corrupted blocks (a test-side
fake); every validator then rejects them alike.

With ``followers > 0`` every validator becomes the master of its own
follower pool (:mod:`repro.distributed`): received blocks are partitioned
into gas-weighted shards and validated across follower nodes, with the
single-node path as the serial fallback.  Results are bit-identical either
way — the knob only changes who does the work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.chain.block import Block
from repro.core.validator import Distributor
from repro.network.dissemination import race
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
    #: transactions actually on the reference chain at the end of the run
    #: (``Blockchain.canonical_tx_count()``, not per-round guesses — the
    #: round's first block need not be the one that committed)
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
        tracer: Any = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.universe = universe
        self.config = config or NetworkConfig()
        #: Root tracer: every node registers itself as one trace process.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics or NULL_METRICS
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
        if self.config.followers < 0:
            raise ValueError(f"followers must be >= 0, got {self.config.followers}")
        self.validators = [
            ValidatorNode(
                f"validator-{i}",
                universe.genesis,
                tracer=self.tracer,
                metrics=metrics,
                distributor=self._build_distributor(f"validator-{i}"),
            )
            for i in range(self.config.n_validators)
        ]

    def _build_distributor(self, master_id: str) -> Optional[Distributor]:
        """A per-validator follower pool, or ``None`` when followers == 0."""
        if self.config.followers <= 0:
            return None
        from repro.distributed import ShardCoordinator

        return ShardCoordinator(
            self.config.followers,
            master_id=master_id,
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

            blocks = [
                sealed.block
                for sealed in race(
                    contenders, parent.header, parent_state, txs, self.rng
                )
            ]

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

            # Every validator sees the same batch, so acceptance must be
            # unanimous.
            if len(set(accepted_counts)) != 1:
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
            canonical_txs=reference.canonical_tx_count(),
        )

    # ------------------------------------------------------------------ #

    def _deliver(
        self, validator: ValidatorNode, round_no: int, blocks: Sequence[Block]
    ) -> ReceiveOutcome:
        """Hand a round's blocks to one validator as one batch."""
        self.metrics.counter("net.blocks_sent").inc(len(blocks))
        if self.tracer.enabled:
            for block in blocks:
                self.tracer.instant(
                    "send",
                    float(round_no),
                    block=block.hash.hex()[:8],
                    to=validator.node_id,
                )
        return validator.receive_blocks(blocks)

    @staticmethod
    def _count_failures(counts: Dict[str, int], outcome: ReceiveOutcome) -> None:
        for failure in outcome.failures:
            if failure is not None:
                key = failure.reason.value
                counts[key] = counts.get(key, 0) + 1
