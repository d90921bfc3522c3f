"""BlockPilot: a proposer-validator parallel execution framework for
blockchain (reproduction of Zhang et al., ICPP 2023).

Quick tour::

    from repro import (
        build_universe, BlockWorkloadGenerator, ProposerNode, ValidatorNode,
    )

    universe = build_universe()
    generator = BlockWorkloadGenerator(universe)
    txs = generator.generate_block_txs()

    proposer = ProposerNode("alice")
    validator = ValidatorNode("bob", universe.genesis)
    sealed = proposer.build_block(
        validator.chain.genesis.header, universe.genesis, txs
    )
    outcome = validator.receive_blocks([sealed.block])
    assert outcome.accepted

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every figure.
"""

from repro.common import Address, Hash32
from repro.chain import Block, BlockHeader, BlockProfile, Blockchain, ChainParams, ETHEREUM_POW_PARAMS
from repro.core import (
    OCCWSIProposer,
    ProposerConfig,
    ParallelValidator,
    ValidatorConfig,
    ValidatorPipeline,
    SerialExecutor,
    TwoPhaseOCCExecutor,
    build_dependency_graph,
    schedule_components,
    seal_block,
)
from repro.evm import EVM, ExecutionContext
from repro.network import ForkSimulator, ProposerNode, ValidatorNode
from repro.simcore import COST_MODEL, CostModel
from repro.state import StateDB, StateSnapshot, genesis_snapshot
from repro.txpool import Transaction, TxPool
from repro.workload import (
    BlockWorkloadGenerator,
    WorkloadConfig,
    Universe,
    UniverseConfig,
    build_universe,
)

__version__ = "1.0.0"

__all__ = [
    "Address",
    "Hash32",
    "Block",
    "BlockHeader",
    "BlockProfile",
    "Blockchain",
    "ChainParams",
    "ETHEREUM_POW_PARAMS",
    "OCCWSIProposer",
    "ProposerConfig",
    "ParallelValidator",
    "ValidatorConfig",
    "ValidatorPipeline",
    "SerialExecutor",
    "TwoPhaseOCCExecutor",
    "build_dependency_graph",
    "schedule_components",
    "seal_block",
    "EVM",
    "ExecutionContext",
    "ForkSimulator",
    "ProposerNode",
    "ValidatorNode",
    "COST_MODEL",
    "CostModel",
    "StateDB",
    "StateSnapshot",
    "genesis_snapshot",
    "Transaction",
    "TxPool",
    "BlockWorkloadGenerator",
    "WorkloadConfig",
    "Universe",
    "UniverseConfig",
    "build_universe",
    "__version__",
]
