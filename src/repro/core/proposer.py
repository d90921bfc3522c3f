"""Block sealing: turn an OCC-WSI run into a broadcast-ready block.

The sealed block carries everything Figure 3 shows leaving the proposer:
the ordered transactions (commit order = block order), receipts, the
post-state root, and the **block profile** with each transaction's
read/write sets and gas — "execution details like read and write sets
about their transactions in the block profile" (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.chain.block import (
    Block,
    BlockHeader,
    BlockProfile,
    TxProfileEntry,
    build_receipts,
    receipts_root,
    transactions_root,
)
from repro.chain.bloom import bloom_from_logs
from repro.chain.params import DEFAULT_CHAIN_PARAMS, ChainParams
from repro.common.types import Address
from repro.core.session import ProposalResult, materialize_store
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.state.statedb import StateDB, StateSnapshot

__all__ = ["SealedProposal", "seal_block", "finalize_block_state"]


def finalize_block_state(
    db: StateDB,
    *,
    coinbase: Address,
    total_fees: int,
    block_number: int = 0,
    uncles: Sequence[BlockHeader] = (),
    params: ChainParams = DEFAULT_CHAIN_PARAMS,
) -> StateSnapshot:
    """Apply end-of-block value flows — deferred fees and rewards — to the
    block's still-open ``db`` and commit it: one commit per block.

    This is the only place a fee reaches the coinbase (§4.2): crediting it
    inside each transaction would make *every* pair of transactions
    conflict on the coinbase balance, so the interpreter returns each
    transaction's fee (:attr:`~repro.evm.interpreter.TxResult.fee`) and
    the block credits their sum once, here.  Block and uncle rewards
    follow :class:`~repro.chain.params.ChainParams`.  Proposers apply this
    when sealing (to the materialised proposal) and validators apply the
    identical update after re-execution (to the overlay they executed
    into), so state roots stay comparable.
    """
    proposer_credit = (
        total_fees + params.block_reward + params.nephew_reward(len(uncles))
    )
    if proposer_credit:
        db.add_balance(coinbase, proposer_credit)
    for uncle in uncles:
        reward = params.uncle_reward(block_number, uncle.number)
        if reward:
            db.add_balance(uncle.coinbase, reward)
    return db.commit()


@dataclass(frozen=True)
class SealedProposal:
    """A sealed block plus the proposer's local artifacts."""

    block: Block
    post_state: StateSnapshot
    proposal: ProposalResult


def seal_block(
    proposal: ProposalResult,
    parent: BlockHeader,
    *,
    coinbase: Address,
    timestamp: int,
    gas_limit: int,
    proposer_id: str = "",
    include_profile: bool = True,
    uncles: Sequence[BlockHeader] = (),
    params: ChainParams = DEFAULT_CHAIN_PARAMS,
    metrics: Optional[MetricsRegistry] = None,
) -> SealedProposal:
    """Assemble header, receipts and profile from a proposing run.

    ``include_profile=False`` produces a legacy block without execution
    details (the validator must then fall back to pre-execution in its
    preparation phase — an ablation the benchmarks exercise).

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) observes
    the sealed block's composition — transaction count, gas, and the
    profile bytes the proposer ships to validators.
    """
    committed = proposal.committed
    txs = tuple(c.tx for c in committed)

    receipts = build_receipts(txs, [c.result for c in committed])

    profile: Optional[BlockProfile] = None
    if include_profile:
        profile = BlockProfile(
            entries=tuple(
                TxProfileEntry(
                    tx_hash=c.tx.hash,
                    rw=c.rw.freeze(),
                    gas_used=c.result.gas_used,
                    success=c.result.success,
                )
                for c in committed
            )
        )

    if len(uncles) > params.max_uncles:
        raise ValueError(f"too many uncles: {len(uncles)} > {params.max_uncles}")
    block_number = parent.number + 1
    for uncle in uncles:
        if not params.validate_uncle(block_number, uncle.number):
            raise ValueError(
                f"uncle at height {uncle.number} out of range for block {block_number}"
            )
    post_state = finalize_block_state(
        materialize_store(proposal.base, proposal.store),
        coinbase=coinbase,
        total_fees=proposal.total_fees,
        block_number=block_number,
        uncles=uncles,
        params=params,
    )

    logs_bloom = bloom_from_logs(
        log for receipt in receipts for log in receipt.logs
    ).to_bytes()

    header = BlockHeader(
        parent_hash=parent.hash,
        number=block_number,
        state_root=post_state.state_root(),
        transactions_root=transactions_root(txs),
        receipts_root=receipts_root(receipts),
        gas_used=proposal.gas_used,
        gas_limit=gas_limit,
        coinbase=coinbase,
        timestamp=timestamp,
        proposer_id=proposer_id,
        logs_bloom=logs_bloom,
    )
    block = Block(header, txs, receipts, profile, uncles=tuple(uncles))
    metrics = metrics or NULL_METRICS
    metrics.counter("proposer.blocks_sealed").inc()
    metrics.gauge("proposer.block_txs").set(len(txs))
    metrics.gauge("proposer.block_gas").set(proposal.gas_used)
    if profile is not None:
        metrics.gauge("proposer.profile_entries").set(len(profile.entries))
    return SealedProposal(block=block, post_state=post_state, proposal=proposal)
