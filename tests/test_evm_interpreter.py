"""Interpreter semantics: opcodes, control flow, failure modes, calls."""

import pytest

from repro.common.hashing import keccak
from repro.common.types import address_from_int, address_to_int
from repro.evm.asm import Assembler, asm
from repro.core.proposer import finalize_block_state
from repro.evm.interpreter import EVM, ExecutionContext, InvalidTransaction
from repro.evm.interpreter import contract_address
from repro.state.account import AccountData
from repro.state.statedb import StateDB, genesis_snapshot
from repro.txpool.transaction import Transaction

SENDER = address_from_int(0xAAAA)
CONTRACT = address_from_int(0xCCCC)
OTHER = address_from_int(0xDDDD)
ETHER = 10**18


def make_state(code=b"", storage=None, extra=None):
    alloc = {
        SENDER: AccountData(balance=1000 * ETHER),
        CONTRACT: AccountData(code=code, storage=storage or {}),
    }
    if extra:
        alloc.update(extra)
    return StateDB(genesis_snapshot(alloc))


def run_code(code, data=b"", value=0, gas=2_000_000, storage=None, extra=None, nonce=0):
    state = make_state(code, storage, extra)
    tx = Transaction(
        sender=SENDER,
        to=CONTRACT,
        value=value,
        data=data,
        gas_limit=gas,
        gas_price=0,
        nonce=nonce,
    )
    result = EVM().apply_transaction(state, tx, ExecutionContext())
    return result, state


def returns_top_of_stack(program):
    """Wrap a program so its stack top is returned as a 32-byte word."""
    return asm(list(program) + [0, "MSTORE", 32, 0, "RETURN"])


def word(result):
    return int.from_bytes(result.output, "big")


class TestArithmetic:
    @pytest.mark.parametrize(
        "program,expected",
        [
            ([3, 4, "ADD"], 7),
            ([3, 4, "MUL"], 12),
            ([3, 10, "SUB"], 7),  # top - next = 10 - 3
            ([3, 12, "DIV"], 4),
            ([0, 12, "DIV"], 0),  # div by zero -> 0
            ([5, 17, "MOD"], 2),
            ([0, 17, "MOD"], 0),
            ([7, 3, 5, "ADDMOD"], 1),  # (5 + 3) % 7
            ([7, 3, 5, "MULMOD"], 1),  # (5 * 3) % 7
            ([3, 2, "EXP"], 8),  # 2 ** 3
            ([5, 9, "LT"], 0),  # 9 < 5
            ([9, 5, "LT"], 1),
            ([5, 9, "GT"], 1),
            ([9, 9, "EQ"], 1),
            ([0, "ISZERO"], 1),
            ([5, "ISZERO"], 0),
            ([0b1100, 0b1010, "AND"], 0b1000),
            ([0b1100, 0b1010, "OR"], 0b1110),
            ([0b1100, 0b1010, "XOR"], 0b0110),
            ([1, 4, "SHL"], 16),  # value=1, shift=4 on top
            ([16, 4, "SHR"], 1),
            ([0xFF, 31, "BYTE"], 0xFF),  # index on top; 31 = lowest byte
            ([0xFF, 0, "BYTE"], 0),
        ],
    )
    def test_binary_ops(self, program, expected):
        result, _ = run_code(returns_top_of_stack(program))
        assert result.success, result.error
        assert word(result) == expected

    def test_not(self):
        result, _ = run_code(returns_top_of_stack([0, "NOT"]))
        assert word(result) == (1 << 256) - 1

    def test_signed_division(self):
        # -8 / 2 == -4 (two's complement)
        minus8 = (1 << 256) - 8
        result, _ = run_code(returns_top_of_stack([2, minus8, "SDIV"]))
        assert word(result) == (1 << 256) - 4

    def test_signed_comparison(self):
        minus1 = (1 << 256) - 1
        result, _ = run_code(returns_top_of_stack([1, minus1, "SLT"]))
        assert word(result) == 1  # -1 < 1


class TestControlFlow:
    def test_jump_skips_code(self):
        program = asm(
            [("jump", "end"), 99, 0, "MSTORE", (":", "end"), 42]
            + [0, "MSTORE", 32, 0, "RETURN"]
        )
        result, _ = run_code(program)
        assert result.success
        assert word(result) == 42

    def test_jumpi_taken(self):
        # JUMPI pops dest then cond: push cond first, dest last
        program = asm(
            [1, ("@", "yes"), "JUMPI", 0, "STOP", (":", "yes"), 7]
            + [0, "MSTORE", 32, 0, "RETURN"]
        )
        result, _ = run_code(program)
        assert result.success
        assert word(result) == 7

    def test_jumpi_not_taken(self):
        program = asm(
            [0, ("@", "yes"), "JUMPI", 5]
            + [0, "MSTORE", 32, 0, "RETURN"]
            + [(":", "yes"), "STOP"]
        )
        result, _ = run_code(program)
        assert result.success
        assert word(result) == 5

    def test_invalid_jump_fails(self):
        result, _ = run_code(asm([3, "JUMP", "STOP"]))
        assert not result.success
        assert "jump" in result.error

    def test_jump_into_push_data_fails(self):
        # 0x5B inside PUSH immediate is not a valid JUMPDEST
        code = bytes([0x60, 0x5B, 0x60, 0x01, 0x56])  # PUSH1 0x5b PUSH1 1 JUMP
        result, _ = run_code(code)
        assert not result.success

    def test_invalid_opcode_fails(self):
        result, _ = run_code(b"\xef")
        assert not result.success
        assert "invalid opcode" in result.error

    def test_implicit_stop_at_code_end(self):
        result, _ = run_code(asm([1, 2, "ADD"]))
        assert result.success
        assert result.output == b""

    def test_pc_opcode(self):
        result, _ = run_code(returns_top_of_stack(["PC"]))
        assert word(result) == 0

    def test_stack_underflow_fails(self):
        result, _ = run_code(asm(["POP"]))
        assert not result.success


class TestEnvironment:
    def test_caller_and_address(self):
        result, _ = run_code(returns_top_of_stack(["CALLER"]))
        assert word(result) == address_to_int(SENDER)
        result, _ = run_code(returns_top_of_stack(["ADDRESS"]))
        assert word(result) == address_to_int(CONTRACT)

    def test_callvalue(self):
        result, _ = run_code(returns_top_of_stack(["CALLVALUE"]), value=123)
        assert word(result) == 123

    def test_calldata(self):
        data = (0x42).to_bytes(32, "big")
        result, _ = run_code(returns_top_of_stack([0, "CALLDATALOAD"]), data=data)
        assert word(result) == 0x42
        result, _ = run_code(returns_top_of_stack(["CALLDATASIZE"]), data=data)
        assert word(result) == 32

    def test_calldata_out_of_range_zero_padded(self):
        result, _ = run_code(returns_top_of_stack([100, "CALLDATALOAD"]), data=b"\x01")
        assert word(result) == 0

    def test_block_context(self):
        state = make_state(returns_top_of_stack(["NUMBER"]))
        tx = Transaction(SENDER, CONTRACT, 0, b"", 100_000, 0, 0)
        ctx = ExecutionContext(block_number=77, timestamp=123456)
        result = EVM().apply_transaction(state, tx, ctx)
        assert word(result) == 77

    def test_balance_opcode(self):
        program = returns_top_of_stack([address_to_int(CONTRACT), "BALANCE"])
        result, _ = run_code(program, value=55)
        assert word(result) == 55  # value arrived before execution

    def test_selfbalance(self):
        result, _ = run_code(returns_top_of_stack(["SELFBALANCE"]), value=7)
        assert word(result) == 7

    def test_sha3_matches_keccak(self):
        # store 32-byte word 1 at mem[0], hash it
        program = returns_top_of_stack([1, 0, "MSTORE", 32, 0, "SHA3"])
        result, _ = run_code(program)
        assert word(result) == int.from_bytes(keccak((1).to_bytes(32, "big")), "big")


class TestStorage:
    def test_sstore_persists(self):
        result, state = run_code(asm([99, 5, "SSTORE", "STOP"]))
        assert result.success
        assert state.get_storage(CONTRACT, 5) == 99

    def test_sload_reads_genesis_storage(self):
        result, _ = run_code(
            returns_top_of_stack([7, "SLOAD"]), storage={7: 1234}
        )
        assert word(result) == 1234

    def test_revert_rolls_back_storage(self):
        program = asm([99, 5, "SSTORE", 0, 0, "REVERT"])
        result, state = run_code(program, storage={5: 1})
        assert not result.success
        assert result.error == "revert"
        assert state.get_storage(CONTRACT, 5) == 1

    def test_revert_returns_data(self):
        # mstore a marker, revert with it
        program = asm([0xAB, 0, "MSTORE", 32, 0, "REVERT"])
        result, _ = run_code(program)
        assert not result.success
        assert int.from_bytes(result.output, "big") == 0xAB

    def test_out_of_gas_rolls_back_and_consumes_all(self):
        program = asm([99, 5, "SSTORE", 99, 6, "SSTORE", "STOP"])
        # enough intrinsic+first sstore, not the second
        gas = 21000 + 3 * 6 + 20000 + 2000
        result, state = run_code(program, gas=gas)
        assert not result.success
        assert state.get_storage(CONTRACT, 5) == 0
        assert result.gas_used == gas  # everything consumed

    def test_sstore_gas_noop_cheap(self):
        noop = asm([1, 5, "SSTORE", "STOP"])
        write = asm([2, 5, "SSTORE", "STOP"])
        r_noop, _ = run_code(noop, storage={5: 1})
        r_write, _ = run_code(write, storage={5: 1})
        assert r_noop.gas_used < r_write.gas_used


class TestLogs:
    def test_log_collected(self):
        program = asm([0xAA, 0, "MSTORE", 0x1234, 32, 0, "LOG1", "STOP"])
        result, _ = run_code(program)
        assert result.success
        assert len(result.logs) == 1
        log = result.logs[0]
        assert log.address == CONTRACT
        assert log.topics == (0x1234,)
        assert int.from_bytes(log.data, "big") == 0xAA

    def test_logs_dropped_on_revert(self):
        program = asm([0, 0, "LOG0", 0, 0, "REVERT"])
        result, _ = run_code(program)
        assert not result.success
        assert result.logs == []

    def test_trace_counts_log(self):
        program = asm([0, 0, "LOG0", "STOP"])
        result, _ = run_code(program)
        assert result.trace.counts.get("log") == 1


class TestCalls:
    def make_callee(self, program):
        return {OTHER: AccountData(code=asm(program))}

    def call_program(self, callee_gas=100_000, value=0, out_size=32):
        """CALL OTHER with no calldata, copy out_size bytes of returndata."""
        return [
            out_size, 0, 0, 0, value, address_to_int(OTHER), callee_gas, "CALL",
        ]

    def test_call_executes_callee(self):
        callee = self.make_callee([42, 0, "MSTORE", 32, 0, "RETURN"])
        program = asm(
            self.call_program() + ["POP", 32, 0, "RETURN"]
        )
        result, _ = run_code(program, extra=callee)
        assert result.success
        assert word(result) == 42

    def test_call_value_transfer(self):
        callee = self.make_callee(["STOP"])
        program = asm(self.call_program(value=500) + ["STOP"])
        result, state = run_code(program, value=500, extra=callee)
        assert result.success
        assert state.get_balance(OTHER) == 500
        assert state.get_balance(CONTRACT) == 0

    def test_call_failure_pushes_zero_and_reverts_callee(self):
        callee = self.make_callee([1, 5, "SSTORE", 0, 0, "REVERT"])
        program = asm(
            self.call_program(out_size=0)
            + [0, "MSTORE", 32, 0, "RETURN"]
        )
        result, state = run_code(program, extra=callee)
        assert result.success  # caller continues
        assert word(result) == 0  # CALL pushed failure
        assert state.get_storage(OTHER, 5) == 0

    def test_callee_cannot_corrupt_caller_on_failure(self):
        # caller writes storage, callee fails; caller's write survives
        callee = self.make_callee(["POP"])  # stack underflow -> failure
        program = asm(
            [7, 1, "SSTORE"] + self.call_program(out_size=0) + ["POP", "STOP"]
        )
        result, state = run_code(program, extra=callee)
        assert result.success
        assert state.get_storage(CONTRACT, 1) == 7

    def test_staticcall_blocks_writes(self):
        callee = self.make_callee([1, 5, "SSTORE", "STOP"])
        program = asm(
            [32, 0, 0, 0, address_to_int(OTHER), 100_000, "STATICCALL"]
            + [0, "MSTORE", 32, 0, "RETURN"]
        )
        result, state = run_code(program, extra=callee)
        assert result.success
        assert word(result) == 0  # callee failed on write protection
        assert state.get_storage(OTHER, 5) == 0

    def test_returndatasize_and_copy(self):
        callee = self.make_callee([0xBEEF, 0, "MSTORE", 32, 0, "RETURN"])
        program = asm(
            self.call_program(out_size=0)
            + ["POP", "RETURNDATASIZE"]
            + [0, "MSTORE", 32, 0, "RETURN"]
        )
        result, _ = run_code(program, extra=callee)
        assert word(result) == 32

    def test_call_depth_limit(self):
        # self-recursive contract: CALL itself forever
        a = Assembler()
        a.push(0).push(0).push(0).push(0).push(0)
        a.push(address_to_int(CONTRACT)).push(500_000).op("CALL").op("POP").op("STOP")
        result, _ = run_code(a.assemble(), gas=10_000_000)
        # recursion terminates via depth limit / 63/64 rule without crashing
        assert result.success

    def test_trace_counts_call(self):
        callee = self.make_callee(["STOP"])
        program = asm(self.call_program(out_size=0) + ["POP", "STOP"])
        result, _ = run_code(program, extra=callee)
        assert result.trace.counts.get("call") == 1


class TestCreate:
    def test_create_deploys_code(self):
        # initcode returns 2 bytes of runtime code: STOP STOP
        # build initcode: PUSH2 0x0000(code) ... simplest: mstore8 twice, return 2 bytes
        initcode = asm([0x00, 0, "MSTORE8", 0x00, 1, "MSTORE8", 2, 0, "RETURN"])
        a = Assembler()
        # store initcode in memory via CODECOPY of a trailing data blob is
        # overkill: use CALLDATACOPY instead, initcode passed as tx data
        # CALLDATACOPY pops dst, src, size — push size first, dst last
        a.op("CALLDATASIZE").push(0).push(0).op("CALLDATACOPY")
        a.op("CALLDATASIZE").push(0).push(0).op("CREATE")
        a.push(0).op("MSTORE").push(32).push(0).op("RETURN")
        result, state = run_code(a.assemble(), data=initcode, gas=3_000_000)
        assert result.success
        created = address_from_int(word(result))
        assert created != address_from_int(0)
        assert state.get_code(created) == b"\x00\x00"

    def test_top_level_create_transaction(self):
        initcode = asm([0x01, 0, "MSTORE8", 1, 0, "RETURN"])
        state = make_state()
        tx = Transaction(SENDER, None, 0, initcode, 3_000_000, 0, 0)
        result = EVM().apply_transaction(state, tx, ExecutionContext())
        assert result.success
        assert result.created == contract_address(SENDER, 0)
        assert state.get_code(result.created) == b"\x01"

    def test_create_address_derivation_deterministic(self):
        assert contract_address(SENDER, 0) == contract_address(SENDER, 0)
        assert contract_address(SENDER, 0) != contract_address(SENDER, 1)


class TestApplyTransaction:
    def test_plain_transfer(self):
        state = make_state()
        tx = Transaction(SENDER, OTHER, 1000, b"", 21000, 1, 0)
        result = EVM().apply_transaction(state, tx, ExecutionContext())
        assert result.success
        assert state.get_balance(OTHER) == 1000
        assert result.gas_used == 21000
        assert result.fee == 21000

    def test_nonce_mismatch_rejected(self):
        state = make_state()
        tx = Transaction(SENDER, OTHER, 0, b"", 21000, 0, 5)
        with pytest.raises(InvalidTransaction):
            EVM().apply_transaction(state, tx, ExecutionContext())

    def test_insufficient_funds_rejected(self):
        state = make_state()
        tx = Transaction(SENDER, OTHER, 2000 * ETHER, b"", 21000, 0, 0)
        with pytest.raises(InvalidTransaction):
            EVM().apply_transaction(state, tx, ExecutionContext())

    def test_intrinsic_gas_over_limit_rejected(self):
        state = make_state()
        tx = Transaction(SENDER, OTHER, 0, b"\x01" * 100, 21000, 0, 0)
        with pytest.raises(InvalidTransaction):
            EVM().apply_transaction(state, tx, ExecutionContext())

    def test_nonce_incremented_even_on_revert(self):
        program = asm([0, 0, "REVERT"])
        result, state = run_code(program)
        assert not result.success
        assert state.get_nonce(SENDER) == 1

    def test_fee_charged_and_refunded(self):
        state = make_state()
        before = state.get_balance(SENDER)
        tx = Transaction(SENDER, OTHER, 0, b"", 100_000, 3, 0)
        result = EVM().apply_transaction(state, tx, ExecutionContext())
        # only 21000 used; rest refunded
        assert state.get_balance(SENDER) == before - 21000 * 3
        assert result.fee == 21000 * 3

    def test_deferred_coinbase_not_credited_inline(self):
        state = make_state()
        coinbase = address_from_int(0xFEE)
        ctx = ExecutionContext(coinbase=coinbase)
        tx = Transaction(SENDER, OTHER, 0, b"", 21000, 2, 0)
        EVM().apply_transaction(state, tx, ctx)
        assert state.get_balance(coinbase) == 0  # deferred (default config)

    def test_block_credits_each_fee_once(self):
        """Fees reach the coinbase once, as their sum, when the block is
        finalised (§4.2) — never inside a transaction."""
        state = make_state()
        coinbase = address_from_int(0xFEE)
        ctx = ExecutionContext(coinbase=coinbase)
        fees = 0
        for nonce in range(2):
            tx = Transaction(SENDER, OTHER, 0, b"", 21000, 2, nonce)
            fees += EVM().apply_transaction(state, tx, ctx).fee
            assert state.get_balance(coinbase) == 0
        post = finalize_block_state(state, coinbase=coinbase, total_fees=fees)
        assert fees == 2 * 42000
        assert post.account(coinbase).balance == fees

    def test_failed_tx_still_pays_fee(self):
        state = make_state(asm([0, 0, "REVERT"]))
        before = state.get_balance(SENDER)
        tx = Transaction(SENDER, CONTRACT, 0, b"", 100_000, 5, 0)
        result = EVM().apply_transaction(state, tx, ExecutionContext())
        assert not result.success
        assert state.get_balance(SENDER) == before - result.gas_used * 5
