"""Tests for the assembler DSL and the gas schedule helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.evm.asm import Assembler, AssemblyError, asm
from repro.evm.gas import DEFAULT_GAS_SCHEDULE, GasSchedule, intrinsic_gas
from repro.evm.opcodes import OPCODES, opcode_by_name
from tests.evm_oracle import intrinsic_gas_per_byte


class TestOpcodeTable:
    def test_no_gaps_in_push_dup_swap(self):
        for n in range(1, 33):
            assert opcode_by_name(f"PUSH{n}").code == 0x60 + n - 1
        for n in range(1, 17):
            assert opcode_by_name(f"DUP{n}").code == 0x80 + n - 1
            assert opcode_by_name(f"SWAP{n}").code == 0x90 + n - 1

    def test_categories_cover_cost_model(self):
        from repro.simcore.costmodel import DEFAULT_WEIGHTS

        categories = {op.category for op in OPCODES.values()}
        # every interpreter category must be priced
        missing = categories - set(DEFAULT_WEIGHTS)
        assert not missing, f"unpriced categories: {missing}"

    def test_storage_ops_are_expensive(self):
        assert opcode_by_name("SLOAD").gas >= 100 * opcode_by_name("ADD").gas


class TestAssembler:
    def test_simple_program(self):
        code = Assembler().push(1).push(2).op("ADD").op("STOP").assemble()
        assert code == bytes([0x60, 1, 0x60, 2, 0x01, 0x00])

    def test_push_auto_width(self):
        code = Assembler().push(0x1234).assemble()
        assert code == bytes([0x61, 0x12, 0x34])  # PUSH2

    def test_push_explicit_width(self):
        code = Assembler().push(1, width=4).assemble()
        assert code == bytes([0x63, 0, 0, 0, 1])

    def test_push_width_too_small(self):
        with pytest.raises(AssemblyError):
            Assembler().push(0x1234, width=1)

    def test_push_negative_rejected(self):
        with pytest.raises(AssemblyError):
            Assembler().push(-1)

    def test_label_forward_reference(self):
        code = Assembler().jump_to("end").op("POP").label("end").assemble()
        # PUSH2 0x0005 JUMP POP JUMPDEST (label sits at offset 5)
        assert code == bytes([0x61, 0x00, 0x05, 0x56, 0x50, 0x5B])

    def test_duplicate_label_rejected(self):
        a = Assembler().label("x").label("x")
        with pytest.raises(AssemblyError):
            a.assemble()

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblyError):
            Assembler().jump_to("nowhere").assemble()

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblyError):
            Assembler().op("FROBNICATE")

    def test_push_via_op_rejected(self):
        with pytest.raises(AssemblyError):
            Assembler().op("PUSH1")

    def test_asm_shorthand(self):
        code = asm([1, 2, "ADD", "STOP"])
        assert code == bytes([0x60, 1, 0x60, 2, 0x01, 0x00])

    def test_asm_labels(self):
        code = asm([("jump", "end"), "POP", (":", "end")])
        assert code[-1] == 0x5B

    def test_asm_rejects_bool(self):
        with pytest.raises(AssemblyError):
            asm([True])

    def test_asm_rejects_unknown_directive(self):
        with pytest.raises(AssemblyError):
            asm([("?", "x")])

    def test_push_bytes(self):
        code = Assembler().push_bytes(b"\xaa\xbb").assemble()
        assert code == bytes([0x61, 0xAA, 0xBB])

    def test_push_bytes_length_limits(self):
        with pytest.raises(AssemblyError):
            Assembler().push_bytes(b"")
        with pytest.raises(AssemblyError):
            Assembler().push_bytes(b"\x00" * 33)


class TestGasSchedule:
    def test_memory_cost_quadratic(self):
        g = GasSchedule()
        linear_region = g.memory_cost(10) - g.memory_cost(9)
        far_region = g.memory_cost(10_000) - g.memory_cost(9_999)
        assert far_region > linear_region

    def test_memory_expansion_no_shrink_charge(self):
        g = GasSchedule()
        assert g.memory_expansion_cost(10, 5) == 0
        assert g.memory_expansion_cost(10, 10) == 0
        assert g.memory_expansion_cost(0, 1) == g.memory_cost(1)

    def test_sha3_cost_per_word(self):
        g = GasSchedule()
        assert g.sha3_cost(0) == 0
        assert g.sha3_cost(1) == g.sha3_word
        assert g.sha3_cost(32) == g.sha3_word
        assert g.sha3_cost(33) == 2 * g.sha3_word

    def test_sstore_cases(self):
        g = GasSchedule()
        assert g.sstore_cost(0, 5) == g.sstore_set
        assert g.sstore_cost(5, 7) == g.sstore_reset
        assert g.sstore_cost(5, 0) == g.sstore_reset
        assert g.sstore_cost(5, 5) == g.sstore_noop

    def test_exp_cost_by_exponent_size(self):
        g = GasSchedule()
        assert g.exp_cost(0) == 0
        assert g.exp_cost(255) == g.exp_byte
        assert g.exp_cost(256) == 2 * g.exp_byte

    def test_max_call_gas_keeps_64th(self):
        g = GasSchedule()
        assert g.max_call_gas(6400) == 6300

    def test_intrinsic_gas(self):
        g = DEFAULT_GAS_SCHEDULE
        assert intrinsic_gas(g, b"", False) == g.tx_base
        assert intrinsic_gas(g, b"\x00\x01", False) == (
            g.tx_base + g.tx_data_zero + g.tx_data_nonzero
        )
        assert intrinsic_gas(g, b"", True) == g.tx_base + g.tx_create

    @given(st.binary(max_size=300), st.booleans())
    def test_intrinsic_gas_equals_the_per_byte_definition(self, data, is_create):
        g = DEFAULT_GAS_SCHEDULE
        assert intrinsic_gas(g, data, is_create) == intrinsic_gas_per_byte(g, data, is_create)
        skewed = GasSchedule(tx_data_zero=7, tx_data_nonzero=11, tx_create=5, tx_base=3)
        assert intrinsic_gas(skewed, data, is_create) == intrinsic_gas_per_byte(
            skewed, data, is_create
        )

