"""Fine-grained gas accounting tests: exact charges per operation."""


from repro.evm.asm import asm
from repro.evm.gas import DEFAULT_GAS_SCHEDULE as G
from tests.test_evm_interpreter import run_code


def gas_of(program, storage=None, data=b""):
    result, _ = run_code(asm(program), storage=storage, data=data)
    assert result.success, result.error
    return result.gas_used - 21000 - sum(
        G.tx_data_nonzero if b else G.tx_data_zero for b in data
    )


class TestExactCharges:
    def test_add(self):
        assert gas_of([1, 2, "ADD"]) == 3 + 3 + 3  # two pushes + ADD

    def test_sload(self):
        assert gas_of([5, "SLOAD"]) == 3 + 800

    def test_sstore_fresh(self):
        assert gas_of([1, 5, "SSTORE"]) == 3 + 3 + 20000

    def test_sstore_reset(self):
        assert gas_of([2, 5, "SSTORE"], storage={5: 1}) == 3 + 3 + 5000

    def test_sstore_noop(self):
        assert gas_of([1, 5, "SSTORE"], storage={5: 1}) == 3 + 3 + 800

    def test_sha3_one_word(self):
        # PUSH 32, PUSH 0, SHA3 over fresh memory word
        cost = gas_of([32, 0, "SHA3"])
        assert cost == 3 + 3 + 30 + G.sha3_word + G.memory_cost(1)

    def test_mstore_expansion(self):
        base = gas_of([1, 0, "MSTORE"])
        far = gas_of([1, 320, "MSTORE"])  # ends at byte 352 = 11 words
        assert base == 3 + 3 + 3 + G.memory_cost(1)
        # PUSH widths don't change gas (always 3), so the delta is purely
        # the quadratic memory expansion
        assert far - base == G.memory_cost(11) - G.memory_cost(1)

    def test_exp_dynamic(self):
        small = gas_of([1, 2, "EXP"])  # exponent 1: one byte
        large = gas_of([1 << 16, 2, "EXP"])  # exponent 3 bytes
        # PUSH1 and PUSH3 both cost 3 gas, so the delta is exactly the two
        # extra exponent bytes
        assert large - small == 2 * G.exp_byte

    def test_log_data_cost(self):
        empty = gas_of([0, 0, "LOG0"])
        with_data = gas_of([32, 0, "LOG0"])
        assert with_data - empty == 32 * G.log_data_byte + G.memory_cost(1)

    def test_call_expands_memory_once_to_the_larger_end(self):
        """A call's in- and out-ranges are one expansion (yellow paper
        μ′ᵢ = M(M(μᵢ, in), out)): both ``[0, 64)`` on fresh memory cost two
        words, not two words twice; an empty range expands nothing, wherever
        it points."""

        def call(in_off, in_size, out_off, out_size):
            return gas_of([out_size, out_off, in_size, in_off, 0, 0x99, 0, "CALL"]) - 7 * 3 - 700

        assert call(0, 64, 0, 64) == G.memory_cost(2) == 6
        assert call(0, 32, 0, 96) == call(0, 96, 0, 32) == G.memory_cost(3)
        assert call(2**255, 0, 0, 32) == call(0, 32, 2**255, 0) == G.memory_cost(1)
        assert call(0, 0, 0, 0) == 0

    def test_calldata_intrinsic_split(self):
        """Zero bytes cost 4, nonzero 16 (yellow paper G_txdatazero/nonzero)."""
        result_zero, _ = run_code(asm(["STOP"]), data=b"\x00" * 10)
        result_nonzero, _ = run_code(asm(["STOP"]), data=b"\x01" * 10)
        assert result_nonzero.gas_used - result_zero.gas_used == 10 * (16 - 4)


class TestGasIntrospection:
    def test_gas_opcode_reports_remaining(self):
        from tests.test_evm_interpreter import returns_top_of_stack, word

        result, _ = run_code(returns_top_of_stack(["GAS"]), gas=100_000)
        remaining = word(result)
        # after intrinsic 21000 and the GAS opcode's own 2 gas
        assert remaining == 100_000 - 21000 - 2

    def test_unused_gas_refunded_exactly(self):
        result, _ = run_code(asm([1, 2, "ADD", "STOP"]), gas=500_000)
        assert result.gas_used == 21000 + 9
