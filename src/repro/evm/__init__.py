"""A from-scratch Ethereum-style virtual machine.

The paper's framework is EVM-compatible by design (§4, "Compatibility with
EVM"); every conflict pattern it studies — storage races through
SLOAD/SSTORE, counter races through balances and nonces (§2.3, §3.1) —
arises from real bytecode execution.  This package provides that substrate:

* a 256-bit stack machine with ~70 opcodes, byte-addressed memory,
  journaled storage access and inter-contract ``CALL``, run as a flat
  loop over a per-code-blob analysis (:func:`analyse`);
* an Ethereum-style gas schedule (:mod:`repro.evm.gas`) whose heavy
  storage costs make gas the scheduling proxy §4.3 relies on;
* per-category execution tracing feeding the simulated cost model;
* an assembler DSL (:mod:`repro.evm.asm`) used by the workload layer to
  author the hotspot contracts (ERC-20, AMM, NFT mint, airdrop).

The interpreter executes against any object implementing the StateDB
interface, so the same bytecode runs under serial execution, OCC snapshot
views and validator re-execution.
"""

from repro.evm.opcodes import Op, OPCODES, opcode_by_name
from repro.evm.gas import GasSchedule, DEFAULT_GAS_SCHEDULE, OutOfGas
from repro.evm.interpreter import (
    EVM,
    EVMConfig,
    ExecutionContext,
    Message,
    MessageResult,
    TxResult,
    Log,
    InvalidTransaction,
    analyse,
)
from repro.evm.asm import Assembler, asm

__all__ = [
    "Op",
    "OPCODES",
    "opcode_by_name",
    "GasSchedule",
    "DEFAULT_GAS_SCHEDULE",
    "OutOfGas",
    "EVM",
    "EVMConfig",
    "ExecutionContext",
    "Message",
    "MessageResult",
    "TxResult",
    "Log",
    "InvalidTransaction",
    "analyse",
    "Assembler",
    "asm",
]
