"""What the experiments share: the calibrated world, one chain, one result shape.

Everything heavy (universe genesis, a chain of sealed blocks) is built at
most once per :class:`World`; the entry point and the pytest module each
create one and hand it to every experiment, which asks for the prefix of
the chain it needs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, List, Mapping, NamedTuple

from repro.chain.block import Block, BlockHeader
from repro.chain.blockchain import Blockchain
from repro.core.baselines import SerialExecutor
from repro.core.occ_wsi import ProposerConfig
from repro.evm.interpreter import ExecutionContext
from repro.network.node import ProposerNode
from repro.state.statedb import StateSnapshot
from repro.txpool.pool import TxPool
from repro.workload.generator import BlockWorkloadGenerator
from repro.workload.scenarios import mainnet_scenario
from repro.workload.universe import Universe, build_universe

THREAD_SWEEP = (2, 4, 8, 16)


class Outcome(NamedTuple):
    """One experiment run: the numbers its ``check`` judges (and, for a
    golden, ``BENCH_<name>.json`` records next to ``config``) and the
    rendered table."""

    headline: dict
    report: str
    config: Mapping = {}


@dataclass
class BenchBlock:
    """One pre-proposed block with everything experiments need."""

    block: Block
    parent_state: StateSnapshot
    parent_header: BlockHeader
    txs: list
    serial_time: float

    def ctx(self) -> ExecutionContext:
        """The context the block was proposed under."""
        header = self.block.header
        return ExecutionContext(
            block_number=header.number,
            timestamp=header.timestamp,
            coinbase=header.coinbase,
            gas_limit=header.gas_limit,
        )

    def fresh_pool(self) -> TxPool:
        """A pool holding exactly the block's pending set."""
        pool = TxPool()
        pool.add_many(sorted(self.txs, key=lambda t: t.nonce))
        return pool


class World:
    """The calibrated universe and the benchmark chain, built on first use."""

    def __init__(self) -> None:
        self._chain: List[BenchBlock] = []
        self._sealing = self._seal_blocks()

    @functools.cached_property
    def universe(self) -> Universe:
        return build_universe()

    def chain(self, blocks: int) -> List[BenchBlock]:
        """The first ``blocks`` blocks (the paper uses 100k mainnet blocks; the
        shapes stabilise after a dozen generated ones — see EXPERIMENTS.md).
        Grown on demand, so a shorter chain is a prefix of a longer one."""
        while len(self._chain) < blocks:
            self._chain.append(next(self._sealing))
        return self._chain[:blocks]

    def _seal_blocks(self) -> Iterator[BenchBlock]:
        """Block after block sealed by a 16-lane OCC-WSI proposer; each entry
        carries its parent state so any executor can re-run it in isolation."""
        universe = self.universe
        generator = BlockWorkloadGenerator(universe, mainnet_scenario())
        proposer = ProposerNode("bench", config=ProposerConfig(lanes=16))
        serial = SerialExecutor()
        parent_header = Blockchain(universe.genesis).genesis.header
        parent_state = universe.genesis
        while True:
            txs = generator.generate_block_txs()
            sealed = proposer.build_block(parent_header, parent_state, txs)
            sres = serial.execute_block(sealed.block, parent_state)
            assert sres.post_state.state_root() == sealed.block.header.state_root
            yield BenchBlock(sealed.block, parent_state, parent_header, txs, sres.total_time)
            parent_header = sealed.block.header
            parent_state = sres.post_state
