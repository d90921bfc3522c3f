"""Proposer and validator node roles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

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
from repro.faults.errors import ValidationFailure
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
    #: Typed failure per input block, aligned with the ``blocks`` argument
    #: (None for accepted blocks).
    failures: List[Optional[ValidationFailure]]


class ValidatorNode:
    """A validating node: owns a chain, pipelines received blocks (§4.3).

    Each block is judged on its own: a rejection changes nothing on the
    node but the verdict it returns.  The node keeps no memory of who
    sent a rejected block — nothing authenticates the header's
    ``proposer_id`` or the profile, so a relay could forge either — and
    hands no transaction anywhere.
    """

    def __init__(
        self,
        node_id: str,
        genesis_state: StateSnapshot,
        *,
        config: Optional[ValidatorConfig] = None,
        injector: Optional[FaultInjector] = None,
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

    def receive_blocks(self, blocks: Sequence[Block]) -> ReceiveOutcome:
        """Validate a batch of (possibly same-height) blocks, extend the chain.

        Parent states are resolved from this node's chain; blocks whose
        parents are unknown are rejected (no orphan pool in this model).
        """
        tracer = self.tracer
        if tracer.enabled:
            for block in blocks:
                tracer.instant(
                    "block_received",
                    0.0,
                    block=block.hash.hex()[:8],
                    number=block.header.number,
                    proposer=block.header.proposer_id,
                )

        parent_states: Dict[Hash32, StateSnapshot] = {}
        for block in blocks:
            snapshot = self.chain.state_at(block.header.parent_hash)
            if snapshot is not None:
                parent_states[block.header.parent_hash] = snapshot
        result = self.pipeline.process_blocks(blocks, parent_states)

        accepted: List[Block] = []
        rejected: List[Block] = []
        # by position, not by hash: a forged copy keeps its original's hash
        failures: List[Optional[ValidationFailure]] = []
        new_head = False
        additions: List[Tuple[Block, StateSnapshot]] = []
        for block, validation in zip(blocks, result.results):
            if validation.accepted and validation.post_state is not None:
                additions.append((block, validation.post_state))
                accepted.append(block)
                failures.append(None)
            else:
                rejected.append(block)
                failures.append(validation.failure)

        # Parents first: a batch may place a child before its in-batch
        # parent, and heights strictly increase along a chain.
        additions.sort(key=lambda pair: pair[0].header.number)
        for block, post_state in additions:
            if block.hash not in self.chain:
                became_head = self.chain.add_block(block, post_state)
                new_head = new_head or became_head

        # accepted blocks are counted once, as validator.blocks_accepted
        self.metrics.counter("node.blocks_received").inc(len(blocks))
        self.metrics.counter("node.blocks_rejected").inc(len(rejected))
        if new_head:
            self.metrics.gauge("node.height").set(float(self.chain.height()))
        return ReceiveOutcome(
            pipeline=result,
            accepted=accepted,
            rejected=rejected,
            new_head=new_head,
            failures=failures,
        )
