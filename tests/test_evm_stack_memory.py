"""The EVM operand stack (at bytecode level) and memory."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.types import MAX_U256
from repro.evm.asm import asm
from repro.evm.interpreter import MAX_STACK_DEPTH
from repro.evm.memory import MAX_MEMORY_BYTES, Memory
from repro.evm.opcodes import OPCODES
from tests.test_evm_interpreter import CONTRACT, run_code


def run_and_pop(program, count, gas=2_000_000):
    """Run ``program``, then pop ``count`` words into the returned list
    (index 0 is the top of the stack)."""
    tail = []
    for i in range(count):
        tail += [32 * i, "MSTORE"]
    result, state = run_code(asm(list(program) + tail + [32 * count, 0, "RETURN"]), gas=gas)
    words = [int.from_bytes(result.output[i : i + 32], "big") for i in range(0, 32 * count, 32)]
    return result, words, state


def assert_stack_failure(result, gas):
    """A frame that breaks a stack bound consumes its gas and reverts."""
    assert not result.success
    assert "stack" in result.error
    assert result.gas_used == gas


#: every opcode a handler executes, i.e. not one of the loop's inline families
HANDLER_OPS = [
    op for op in OPCODES.values()
    if not op.name.startswith(("PUSH", "DUP", "SWAP"))
    and op.name not in ("STOP", "POP", "JUMP", "JUMPI", "JUMPDEST", "PC")
]


class TestStack:
    """The operand stack, driven through bytecode: the dispatch loop checks
    each instruction once against the opcode table's arity (these cases
    drove a ``Stack`` class before the loop took the checks over)."""

    def test_push_pop(self):
        result, words, _ = run_and_pop([1, 2], 2)
        assert result.success and words == [2, 1]

    def test_pop_empty_raises(self):
        # the SSTORE before the underflowing POP must be rolled back
        result, state = run_code(asm([1, 0, "SSTORE", "POP"]), gas=100_000)
        assert_stack_failure(result, 100_000)
        assert "underflow" in result.error
        assert state.get_storage(CONTRACT, 0) == 0

    def test_push_masks_wide_values(self):
        """No defensive mask on push any more: results are reduced exactly
        where arithmetic can leave the 256-bit range."""
        top = MAX_U256
        for program, expected in [
            ([1, top, "ADD"], 0),
            ([1, 0, "SUB"], top),
            ([top, top, "MUL"], 1),
            ([0, "NOT"], top),
            ([top, 255, "SHL"], 1 << 255),
            ([256, 2, "EXP"], 0),
            ([top, 0, "SIGNEXTEND"], top),
            ([top, 1 << 255, "SDIV"], 1 << 255),
            ([top, 1, "SAR"], top),
        ]:
            result, words, _ = run_and_pop(program, 1)
            assert result.success and words == [expected], program

    def test_overflow(self):
        """Depth 1024 is accepted, 1025 fails — for an inline PUSH, a DUP,
        the PC push and handlers that push."""
        gas = 200_000
        for pusher in (7, "DUP1", "PC", "CALLER", "MSIZE"):
            fill = [7] * (MAX_STACK_DEPTH - 1) + [pusher]
            result, _ = run_code(asm(fill), gas=gas)
            assert result.success, pusher
            result, _ = run_code(asm(fill + [pusher]), gas=gas)
            assert_stack_failure(result, gas)
            assert "overflow" in result.error

    def test_pop_n_order(self):
        # multi-operand handlers take the top first: 10 - 3, (5 + 3) % 7
        result, words, _ = run_and_pop([3, 10, "SUB", 7, 3, 5, "ADDMOD"], 2)
        assert result.success and words == [1, 7]

    def test_pop_n_underflow(self):
        """Every handler arity: one operand short fails as a stack error
        before the handler runs; with all operands it is no stack error."""
        gas = 150_000
        for op in HANDLER_OPS:
            if op.pops:
                result, _ = run_code(asm([0] * (op.pops - 1) + [op.name]), gas=gas)
                assert_stack_failure(result, gas)
                assert "underflow" in result.error, op.name
            result, _ = run_code(asm([0] * op.pops + [op.name]), gas=gas)
            assert result.error is None or "stack" not in result.error, op.name

    def test_peek(self):
        # DUP reads without consuming: the original stays where it was
        result, words, _ = run_and_pop([10, 20, "DUP2"], 3)
        assert result.success and words == [10, 20, 10]

    def test_peek_too_deep(self):
        result, _ = run_code(asm(["DUP1"]), gas=50_000)
        assert_stack_failure(result, 50_000)

    def test_dup(self):
        result, words, _ = run_and_pop([7, 8, "DUP2"], 2)
        assert result.success and words[:2] == [7, 8]

    def test_dup_underflow(self):
        for n in range(1, 17):
            result, _ = run_code(asm([1] * (n - 1) + [f"DUP{n}"]), gas=50_000)
            assert_stack_failure(result, 50_000)
            result, words, _ = run_and_pop(list(range(100, 100 + n)) + [f"DUP{n}"], 1)
            assert result.success and words == [100]

    def test_swap(self):
        result, words, _ = run_and_pop([1, 2, 3, "SWAP2"], 3)
        assert result.success and words == [1, 2, 3]

    def test_swap_underflow(self):
        for n in range(1, 17):
            result, _ = run_code(asm([1] * n + [f"SWAP{n}"]), gas=50_000)
            assert_stack_failure(result, 50_000)
            result, words, _ = run_and_pop(list(range(100, 101 + n)) + [f"SWAP{n}"], n + 1)
            assert result.success and words == [100] + list(range(99 + n, 100, -1)) + [100 + n]

    @given(st.lists(st.integers(min_value=0, max_value=MAX_U256), max_size=40))
    def test_lifo_property(self, values):
        result, words, _ = run_and_pop(values, len(values))
        assert result.success and words == list(reversed(values))


class TestMemory:
    def test_starts_empty(self):
        assert len(Memory()) == 0

    def test_reads_are_zero_filled(self):
        m = Memory()
        assert m.read(100, 4) == b"\x00" * 4

    def test_write_then_read(self):
        m = Memory()
        m.write(10, b"hello")
        assert m.read(10, 5) == b"hello"

    def test_expansion_rounds_to_words(self):
        m = Memory()
        m.write(0, b"x")
        assert len(m) == 32
        m.write(33, b"y")
        assert len(m) == 64

    def test_word_round_trip(self):
        m = Memory()
        m.write_word(64, 0xDEADBEEF)
        assert m.read_word(64) == 0xDEADBEEF

    def test_write_byte(self):
        m = Memory()
        m.write_byte(5, 0x1FF)  # masked to one byte
        assert m.read(5, 1) == b"\xff"

    def test_touch_zero_size_no_expansion(self):
        m = Memory()
        assert m.touch(10_000, 0) == 0
        assert len(m) == 0

    def test_cap_enforced(self):
        m = Memory()
        with pytest.raises(MemoryError):
            m.touch(MAX_MEMORY_BYTES, 1)

    def test_negative_access_rejected(self):
        with pytest.raises(ValueError):
            Memory().touch(-1, 4)

    def test_words_property(self):
        m = Memory()
        m.write(0, b"\x01" * 40)
        assert m.words == 2
