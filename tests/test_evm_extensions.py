"""Tests for the extended opcodes (SIGNEXTEND, EXTCODE*, BLOCKHASH) and
the disassembler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import hash_of
from repro.common.types import Address
from repro.evm.asm import asm
from repro.evm.disasm import disassemble, format_disassembly, reassembles_identically
from repro.evm.interpreter import EVM, ExecutionContext, analyse
from repro.state.account import AccountData
from repro.txpool.transaction import Transaction
from tests.test_evm_interpreter import (
    CONTRACT,
    OTHER,
    SENDER,
    make_state,
    returns_top_of_stack,
    run_code,
    word,
)


class TestSignExtend:
    @pytest.mark.parametrize(
        "b,x,expected",
        [
            (0, 0xFF, (1 << 256) - 1),  # sign-extend byte 0: 0xff -> -1
            (0, 0x7F, 0x7F),
            (1, 0x80FF, 0x80FF),  # bit 15 is 1? 0x80ff bit15=1 -> extend
            (31, 0x1234, 0x1234),  # b >= 31: unchanged
            (100, 0x1234, 0x1234),
        ],
    )
    def test_cases(self, b, x, expected):
        if (b, x) == (1, 0x80FF):
            expected = ((1 << 256) - 1) ^ 0xFFFF | 0x80FF
        result, _ = run_code(returns_top_of_stack([x, b, "SIGNEXTEND"]))
        assert result.success
        assert word(result) == expected

    @given(st.integers(0, 255))
    def test_byte0_matches_int8_semantics(self, value):
        result, _ = run_code(returns_top_of_stack([value, 0, "SIGNEXTEND"]))
        signed = value - 256 if value >= 128 else value
        assert word(result) == signed % (1 << 256)


class TestExtCode:
    def test_extcodesize(self):
        extra = {OTHER: AccountData(code=b"\x01\x02\x03")}
        result, _ = run_code(
            returns_top_of_stack([OTHER.to_int(), "EXTCODESIZE"]), extra=extra
        )
        assert word(result) == 3

    def test_extcodesize_empty_account(self):
        result, _ = run_code(
            returns_top_of_stack([Address.from_int(0x1234).to_int(), "EXTCODESIZE"])
        )
        assert word(result) == 0

    def test_extcodecopy(self):
        extra = {OTHER: AccountData(code=bytes(range(1, 33)))}
        # copy other's code[0:32] to mem[0], return it
        program = asm(
            [32, 0, 0, OTHER.to_int(), "EXTCODECOPY", 32, 0, "RETURN"]
        )
        result, _ = run_code(program, extra=extra)
        assert result.success
        assert result.output == bytes(range(1, 33))

    def test_extcodecopy_pads_with_zeros(self):
        extra = {OTHER: AccountData(code=b"\xaa")}
        program = asm([4, 0, 0, OTHER.to_int(), "EXTCODECOPY", 4, 0, "RETURN"])
        result, _ = run_code(program, extra=extra)
        assert result.output == b"\xaa\x00\x00\x00"


class TestBlockhash:
    def run_with_hashes(self, program, number, hashes):
        state = make_state(program)
        tx = Transaction(SENDER, CONTRACT, 0, b"", 200_000, 0, 0)
        ctx = ExecutionContext(
            block_number=number,
            recent_block_hashes=tuple((n, bytes(h)) for n, h in hashes),
        )
        return EVM().apply_transaction(state, tx, ctx)

    def test_known_ancestor(self):
        h = hash_of(b"block-9")
        result = self.run_with_hashes(
            returns_top_of_stack([9, "BLOCKHASH"]), 10, [(9, h)]
        )
        assert word(result) == int.from_bytes(h, "big")

    def test_future_block_is_zero(self):
        result = self.run_with_hashes(
            returns_top_of_stack([10, "BLOCKHASH"]), 10, []
        )
        assert word(result) == 0

    def test_too_old_is_zero(self):
        h = hash_of(b"old")
        result = self.run_with_hashes(
            returns_top_of_stack([1, "BLOCKHASH"]), 400, [(1, h)]
        )
        assert word(result) == 0

    def test_unknown_recent_is_zero(self):
        result = self.run_with_hashes(
            returns_top_of_stack([9, "BLOCKHASH"]), 10, []
        )
        assert word(result) == 0


class TestDisassembler:
    def test_simple_listing(self):
        code = asm([1, 2, "ADD", "STOP"])
        instructions = disassemble(code)
        assert [i.render() for i in instructions] == [
            "PUSH1 0x01",
            "PUSH1 0x02",
            "ADD",
            "STOP",
        ]
        assert [i.pc for i in instructions] == [0, 2, 4, 5]

    def test_invalid_bytes_rendered(self):
        instructions = disassemble(b"\xef\x01")
        assert instructions[0].name == "INVALID(0xef)"
        assert instructions[1].name == "ADD"

    def test_truncated_push_immediate(self):
        # PUSH4 with only 2 bytes of immediate left
        instructions = disassemble(bytes([0x63, 0xAA, 0xBB]))
        assert instructions[0].immediate == b"\xaa\xbb"

    def test_format_marks_jumpdests(self):
        code = asm([("jump", "end"), (":", "end")])
        listing = format_disassembly(code)
        assert ">" in listing
        assert "JUMPDEST" in listing

    def test_empty_code(self):
        assert disassemble(b"") == []
        assert format_disassembly(b"") == ""

    def test_workload_contracts_disassemble_cleanly(self):
        from repro.workload.contracts import airdrop_code, erc20_code, nft_code

        for code in (erc20_code(), nft_code(), airdrop_code()):
            instructions = disassemble(code)
            assert not any(i.name.startswith("INVALID") for i in instructions)
            assert reassembles_identically(code)

    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=200))
    def test_reassembly_identity_on_arbitrary_bytes(self, code):
        assert reassembles_identically(code)


class TestOneBytecodeWalk:
    """``analyse`` is the only walk of raw bytecode; the disassembler and
    the dispatch loop both read its result."""

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200))
    def test_disassembly_starts_are_the_analysed_starts(self, code):
        program = analyse(code)
        starts = list(program.starts())
        assert [i.pc for i in disassemble(code)] == starts
        assert len(program.instrs) == len(code) + 1
        assert program.jumpdests == {pc for pc in starts if code[pc] == 0x5B}

    def test_push_data_is_not_a_jump_destination(self):
        code = bytes([0x60, 0x5B, 0x5B, 0x61, 0x5B, 0x5B, 0x5B])
        assert analyse(code).jumpdests == {2, 6}

    def test_truncated_push_is_zero_padded_on_the_right(self):
        code = bytes([0x63, 0xAA, 0xBB])  # PUSH4 with two bytes left
        *_, immediate, next_pc = analyse(code).instrs[0]
        assert immediate == 0xAABB0000 and next_pc == len(code)
        assert run_code(code)[0].success  # then runs off the end: implicit STOP

    def test_jump_into_an_immediate_fails_the_frame(self):
        # PUSH1 4, JUMP, PUSH1 0x5b (the 0x5b at pc 4 is data), STOP
        code = bytes([0x60, 0x04, 0x56, 0x60, 0x5B, 0x00])
        result, _ = run_code(code, gas=100_000)
        assert not result.success
        assert "jump" in result.error and result.gas_used == 100_000
        # one byte further is a real JUMPDEST
        code = bytes([0x60, 0x05, 0x56, 0x60, 0x5B, 0x5B, 0x00])
        assert run_code(code)[0].success

