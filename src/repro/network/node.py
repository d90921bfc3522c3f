"""Proposer and validator node roles."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.chain.block import Block, BlockHeader
from repro.chain.blockchain import Blockchain
from repro.chain.params import DEFAULT_CHAIN_PARAMS, ChainParams
from repro.common.types import Address, Hash32
from repro.core.occ_wsi import ProposerConfig
from repro.core.strategies import build_proposer
from repro.core.pipeline import PipelineResult, ValidatorPipeline
from repro.core.proposer import SealedProposal, seal_block
from repro.core.validator import Distributor, ValidatorConfig
from repro.evm.interpreter import ExecutionContext
from repro.faults.errors import BYZANTINE_REASONS, FailureReason, ValidationFailure
from repro.faults.injector import FaultInjector
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.state.statedb import StateSnapshot
from repro.txpool.pool import TxPool
from repro.txpool.transaction import Transaction

if TYPE_CHECKING:
    from repro.exec.backend import ExecutionBackend

__all__ = ["ProposerNode", "ReceiveOutcome", "ValidatorNode"]


class ProposerNode:
    """A block-building node; the execution engine is picked by
    ``ProposerConfig.strategy`` (OCC-WSI by default, paper §4.2)."""

    def __init__(
        self,
        node_id: str,
        *,
        coinbase: Optional[Address] = None,
        config: Optional[ProposerConfig] = None,
        params: ChainParams = DEFAULT_CHAIN_PARAMS,
        tracer: Any = None,
        metrics: Optional[MetricsRegistry] = None,
        backend: Optional["ExecutionBackend"] = None,
    ) -> None:
        self.node_id = node_id
        self.params = params
        self.coinbase = coinbase or Address(
            (b"\xbb" + node_id.encode("utf-8")).ljust(20, b"\x00")[:20]
        )
        # each node is one Chrome-trace "process"; its proposer spans
        # (execute/abort/commit per lane) live under that pid
        self.tracer = tracer.for_process(node_id) if tracer is not None else NULL_TRACER
        self.metrics = metrics or NULL_METRICS
        self.engine = build_proposer(
            config,
            tracer=self.tracer,
            metrics=metrics,
            backend=backend,
        )

    def build_block(
        self,
        parent: BlockHeader,
        parent_state: StateSnapshot,
        pending: Iterable[Transaction],
        *,
        timestamp: Optional[int] = None,
        include_profile: bool = True,
        uncles: Sequence[BlockHeader] = (),
    ) -> SealedProposal:
        """Select, execute in parallel, and seal the next block."""
        pool = TxPool()
        pool.add_many(pending)
        ctx = ExecutionContext(
            block_number=parent.number + 1,
            timestamp=timestamp if timestamp is not None else parent.timestamp + 12,
            coinbase=self.coinbase,
            gas_limit=self.engine.config.gas_limit,
        )
        proposal = self.engine.propose(parent_state, pool, ctx)
        return seal_block(
            proposal,
            parent,
            coinbase=self.coinbase,
            timestamp=ctx.timestamp,
            gas_limit=self.engine.config.gas_limit,
            proposer_id=self.node_id,
            include_profile=include_profile,
            uncles=uncles,
            params=self.params,
            metrics=self.metrics,
        )


@dataclass
class ReceiveOutcome:
    """What happened when a validator processed a batch of blocks."""

    pipeline: PipelineResult
    accepted: List[Block]
    rejected: List[Block]
    new_head: bool
    #: Blocks refused without validation because their proposer is
    #: quarantined (also included in ``rejected``).
    quarantined: List[Block] = field(default_factory=list)
    #: Typed failure per input block, aligned with the ``blocks`` argument
    #: (None for accepted blocks).
    failures: List[Optional[ValidationFailure]] = field(default_factory=list)
    #: Transactions from rejected blocks returned to the node's
    #: pending pool this batch (0 when the node has no pool attached).
    restored_txs: int = 0


class ValidatorNode:
    """A validating node: owns a chain, pipelines received blocks (§4.3).

    Hardening on top of the paper's validator:

    * **Proposer quarantine** — a proposer whose blocks accumulate
      ``quarantine_threshold`` byzantine failures (lying profiles, bad
      roots, malformed bodies) is refused outright from then on; its
      blocks are rejected with ``PROPOSER_QUARANTINED`` without burning
      validation work.
    * **Transaction recovery** — when a ``txpool`` is attached, the
      transactions of rejected blocks are returned to it
      exactly once (fork siblings carrying the same tx do not duplicate
      it, and txs already committed by an accepted sibling stay out).
    """

    def __init__(
        self,
        node_id: str,
        genesis_state: StateSnapshot,
        *,
        config: Optional[ValidatorConfig] = None,
        injector: Optional[FaultInjector] = None,
        quarantine_threshold: int = 3,
        txpool: Optional[TxPool] = None,
        chain: Optional[Blockchain] = None,
        tracer: Any = None,
        metrics: Optional[MetricsRegistry] = None,
        backend: Optional["ExecutionBackend"] = None,
        distributor: Optional[Distributor] = None,
    ) -> None:
        self.node_id = node_id
        # an injected chain lets long-running services hand the node a
        # recovered (and store-attached) chain instead of a fresh one
        self.chain = chain if chain is not None else Blockchain(genesis_state)
        self.tracer = tracer.for_process(node_id) if tracer is not None else NULL_TRACER
        self.metrics = metrics or NULL_METRICS
        self.pipeline = ValidatorPipeline(
            config=config,
            injector=injector,
            tracer=self.tracer,
            metrics=metrics,
            backend=backend,
            distributor=distributor,
        )
        self.quarantine_threshold = quarantine_threshold
        self.txpool = txpool
        self.quarantined_proposers: Set[str] = set()
        self._strikes: Dict[str, int] = {}
        self._restore_attempted: Set[bytes] = set()

    def receive_blocks(
        self,
        blocks: Sequence[Block],
        *,
        arrivals: Optional[Sequence[float]] = None,
    ) -> ReceiveOutcome:
        """Validate a batch of (possibly same-height) blocks, extend the chain.

        Parent states are resolved from this node's chain; blocks whose
        parents are unknown are rejected (no orphan pool in this model).
        """
        tracer = self.tracer
        trace_on = tracer.enabled
        admitted: List[Block] = []
        admitted_arrivals: List[float] = []
        failure_by_hash: Dict[bytes, Optional[ValidationFailure]] = {}
        quarantined: List[Block] = []
        for index, block in enumerate(blocks):
            arrival = arrivals[index] if arrivals is not None else 0.0
            proposer = block.header.proposer_id
            if trace_on:
                tracer.instant(
                    "block_received",
                    arrival,
                    block=block.hash.hex()[:8],
                    number=block.header.number,
                    proposer=proposer,
                )
            if proposer and proposer in self.quarantined_proposers:
                quarantined.append(block)
                failure_by_hash[block.hash] = ValidationFailure(
                    FailureReason.PROPOSER_QUARANTINED,
                    detail=f"proposer {proposer} quarantined after "
                    f"{self._strikes.get(proposer, 0)} byzantine blocks",
                )
                if trace_on:
                    tracer.instant(
                        "quarantine_reject",
                        arrival,
                        block=block.hash.hex()[:8],
                        proposer=proposer,
                        reason=FailureReason.PROPOSER_QUARANTINED.value,
                    )
                continue
            admitted.append(block)
            admitted_arrivals.append(arrival)

        parent_states: Dict[Hash32, StateSnapshot] = {}
        for block in admitted:
            snapshot = self.chain.state_at(block.header.parent_hash)
            if snapshot is not None:
                parent_states[block.header.parent_hash] = snapshot
        result = self.pipeline.process_blocks(
            admitted,
            parent_states,
            arrivals=admitted_arrivals if arrivals is not None else None,
        )

        accepted: List[Block] = []
        rejected: List[Block] = []
        new_head = False
        additions: List[Tuple[Block, StateSnapshot]] = []
        for block, validation in zip(admitted, result.results):
            if (
                validation is not None
                and validation.accepted
                and validation.post_state is not None
            ):
                additions.append((block, validation.post_state))
                accepted.append(block)
                failure_by_hash.setdefault(block.hash, None)
            else:
                rejected.append(block)
                failure = validation.failure if validation is not None else None
                failure_by_hash.setdefault(block.hash, failure)
                self._record_strike(block, failure)
        rejected.extend(quarantined)

        # Parents first: a reordered delivery can place a child before its
        # in-batch parent, and heights strictly increase along a chain.
        additions.sort(key=lambda pair: pair[0].header.number)
        for block, post_state in additions:
            if block.hash not in self.chain:
                became_head = self.chain.add_block(block, post_state)
                new_head = new_head or became_head

        restored = self._restore_transactions(accepted, rejected)
        # accepted blocks are counted once, as validator.blocks_accepted
        self.metrics.counter("node.blocks_received").inc(len(blocks))
        self.metrics.counter("node.blocks_rejected").inc(len(rejected))
        self.metrics.counter("node.blocks_quarantined").inc(len(quarantined))
        self.metrics.counter("node.restored_txs").inc(restored)
        if new_head:
            self.metrics.gauge("node.height").set(float(self.chain.height()))
        return ReceiveOutcome(
            pipeline=result,
            accepted=accepted,
            rejected=rejected,
            new_head=new_head,
            quarantined=quarantined,
            failures=[failure_by_hash.get(b.hash) for b in blocks],
            restored_txs=restored,
        )

    # ------------------------------------------------------------------ #

    def _record_strike(
        self, block: Block, failure: Optional[ValidationFailure]
    ) -> None:
        """Count byzantine rejections per proposer; quarantine repeat liars."""
        if failure is None or failure.reason not in BYZANTINE_REASONS:
            return
        proposer = block.header.proposer_id
        if not proposer or self.quarantine_threshold <= 0:
            return
        self._strikes[proposer] = self._strikes.get(proposer, 0) + 1
        if (
            self._strikes[proposer] >= self.quarantine_threshold
            and proposer not in self.quarantined_proposers
        ):
            self.quarantined_proposers.add(proposer)
            self.metrics.counter("node.proposers_quarantined").inc()
            if self.tracer.enabled:
                self.tracer.instant(
                    "proposer_quarantined",
                    0.0,
                    proposer=proposer,
                    strikes=self._strikes[proposer],
                )

    def _restore_transactions(
        self, accepted: Sequence[Block], rejected: Sequence[Block]
    ) -> int:
        """Return rejected blocks' transactions to the pool, exactly once.

        A tx committed by an accepted sibling (or already on the canonical
        chain) stays out; a tx carried by several rejected siblings is
        re-added at most once, and never twice across batches.
        """
        if self.txpool is None or not rejected:
            return 0
        committed = {tx.hash for b in accepted for tx in b.transactions}
        restored = 0
        for block in rejected:
            for tx in block.transactions:
                key = tx.hash
                if key in committed or key in self._restore_attempted:
                    continue
                self._restore_attempted.add(key)
                if self.txpool.restore(tx):
                    restored += 1
        return restored
