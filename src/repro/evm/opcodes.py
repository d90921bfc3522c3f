"""Opcode table: byte values, base gas, trace categories.

Gas values follow the Ethereum mainnet schedule circa the paper's
evaluation window (Geth v1.10, pre-Berlin access lists): VERYLOW=3, LOW=5,
SLOAD=800, SSTORE handled dynamically, CALL=700, SHA3=30+6/word.  The
``category`` drives the simulated cost model — storage ops are the
expensive classes (paper §4.3: "the most time-consuming operations, namely
SLOAD and SSTORE, have very high gas costs").
"""

from __future__ import annotations

from typing import Dict, NamedTuple

__all__ = ["Op", "OPCODES", "opcode_by_name", "PUSH1", "DUP1", "SWAP1", "LOG0"]


class Op(NamedTuple):
    code: int
    name: str
    gas: int
    pops: int
    pushes: int
    category: str


def _ops() -> Dict[int, Op]:
    table: Dict[int, Op] = {}

    def op(code: int, name: str, gas: int, pops: int, pushes: int, category: str) -> None:
        if code in table:
            raise ValueError(f"duplicate opcode 0x{code:02x}")
        table[code] = Op(code, name, gas, pops, pushes, category)

    # 0x00s: stop & arithmetic
    op(0x00, "STOP", 0, 0, 0, "base")
    op(0x01, "ADD", 3, 2, 1, "base")
    op(0x02, "MUL", 5, 2, 1, "arith")
    op(0x03, "SUB", 3, 2, 1, "base")
    op(0x04, "DIV", 5, 2, 1, "arith")
    op(0x05, "SDIV", 5, 2, 1, "arith")
    op(0x06, "MOD", 5, 2, 1, "arith")
    op(0x07, "SMOD", 5, 2, 1, "arith")
    op(0x08, "ADDMOD", 8, 3, 1, "arith")
    op(0x09, "MULMOD", 8, 3, 1, "arith")
    op(0x0A, "EXP", 10, 2, 1, "arith")  # + 50/byte dynamic
    op(0x0B, "SIGNEXTEND", 5, 2, 1, "arith")

    # 0x10s: comparison & bitwise
    op(0x10, "LT", 3, 2, 1, "base")
    op(0x11, "GT", 3, 2, 1, "base")
    op(0x12, "SLT", 3, 2, 1, "base")
    op(0x13, "SGT", 3, 2, 1, "base")
    op(0x14, "EQ", 3, 2, 1, "base")
    op(0x15, "ISZERO", 3, 1, 1, "base")
    op(0x16, "AND", 3, 2, 1, "base")
    op(0x17, "OR", 3, 2, 1, "base")
    op(0x18, "XOR", 3, 2, 1, "base")
    op(0x19, "NOT", 3, 1, 1, "base")
    op(0x1A, "BYTE", 3, 2, 1, "base")
    op(0x1B, "SHL", 3, 2, 1, "base")
    op(0x1C, "SHR", 3, 2, 1, "base")
    op(0x1D, "SAR", 3, 2, 1, "base")

    # 0x20s: hashing
    op(0x20, "SHA3", 30, 2, 1, "sha3")  # + 6/word dynamic

    # 0x30s: environment
    op(0x30, "ADDRESS", 2, 0, 1, "env")
    op(0x31, "BALANCE", 400, 1, 1, "balance")
    op(0x32, "ORIGIN", 2, 0, 1, "env")
    op(0x33, "CALLER", 2, 0, 1, "env")
    op(0x34, "CALLVALUE", 2, 0, 1, "env")
    op(0x35, "CALLDATALOAD", 3, 1, 1, "env")
    op(0x36, "CALLDATASIZE", 2, 0, 1, "env")
    op(0x37, "CALLDATACOPY", 3, 3, 0, "memory")  # + copy dynamic
    op(0x38, "CODESIZE", 2, 0, 1, "env")
    op(0x39, "CODECOPY", 3, 3, 0, "memory")  # + copy dynamic
    op(0x3A, "GASPRICE", 2, 0, 1, "env")
    op(0x3B, "EXTCODESIZE", 400, 1, 1, "balance")
    op(0x3C, "EXTCODECOPY", 400, 4, 0, "balance")  # + copy dynamic
    op(0x3D, "RETURNDATASIZE", 2, 0, 1, "env")
    op(0x3E, "RETURNDATACOPY", 3, 3, 0, "memory")
    op(0x3F, "EXTCODEHASH", 400, 1, 1, "balance")

    # 0x40s: block context
    op(0x40, "BLOCKHASH", 20, 1, 1, "env")
    op(0x41, "COINBASE", 2, 0, 1, "env")
    op(0x42, "TIMESTAMP", 2, 0, 1, "env")
    op(0x43, "NUMBER", 2, 0, 1, "env")
    op(0x45, "GASLIMIT", 2, 0, 1, "env")
    op(0x46, "CHAINID", 2, 0, 1, "env")
    op(0x47, "SELFBALANCE", 5, 0, 1, "balance")

    # 0x50s: stack/memory/storage/control
    op(0x50, "POP", 2, 1, 0, "base")
    op(0x51, "MLOAD", 3, 1, 1, "memory")
    op(0x52, "MSTORE", 3, 2, 0, "memory")
    op(0x53, "MSTORE8", 3, 2, 0, "memory")
    op(0x54, "SLOAD", 800, 1, 1, "storage_read")
    op(0x55, "SSTORE", 0, 2, 0, "storage_write")  # fully dynamic
    op(0x56, "JUMP", 8, 1, 0, "base")
    op(0x57, "JUMPI", 10, 2, 0, "base")
    op(0x58, "PC", 2, 0, 1, "base")
    op(0x59, "MSIZE", 2, 0, 1, "base")
    op(0x5A, "GAS", 2, 0, 1, "base")
    op(0x5B, "JUMPDEST", 1, 0, 0, "base")

    # 0x60-0x7f: PUSH1..PUSH32
    for n in range(1, 33):
        op(0x60 + n - 1, f"PUSH{n}", 3, 0, 1, "base")
    # 0x80-0x8f: DUP1..DUP16
    for n in range(1, 17):
        op(0x80 + n - 1, f"DUP{n}", 3, n, n + 1, "base")
    # 0x90-0x9f: SWAP1..SWAP16
    for n in range(1, 17):
        op(0x90 + n - 1, f"SWAP{n}", 3, n + 1, n + 1, "base")
    # 0xa0-0xa4: LOG0..LOG4
    for n in range(5):
        op(0xA0 + n, f"LOG{n}", 375 + 375 * n, 2 + n, 0, "log")

    # 0xf0s: system
    op(0xF0, "CREATE", 32000, 3, 1, "create")
    op(0xF1, "CALL", 700, 7, 1, "call")
    op(0xF3, "RETURN", 0, 2, 0, "base")
    op(0xF4, "DELEGATECALL", 700, 6, 1, "call")
    op(0xF5, "CREATE2", 32000, 4, 1, "create")
    op(0xFA, "STATICCALL", 700, 6, 1, "call")
    op(0xFD, "REVERT", 0, 2, 0, "base")

    return table


OPCODES: Dict[int, Op] = _ops()

_BY_NAME: Dict[str, Op] = {op.name: op for op in OPCODES.values()}

PUSH1 = _BY_NAME["PUSH1"].code
DUP1 = _BY_NAME["DUP1"].code
SWAP1 = _BY_NAME["SWAP1"].code
LOG0 = _BY_NAME["LOG0"].code


def opcode_by_name(name: str) -> Op:
    """Look up an opcode by mnemonic; raises KeyError for unknown names."""
    return _BY_NAME[name.upper()]
