"""Gas accounting: schedule constants and dynamic cost helpers.

Static per-opcode gas lives in the opcode table; this module holds the
dynamic parts (SSTORE, SHA3 words, memory expansion, copies, calls,
transaction intrinsic gas) and the :class:`GasSchedule` bundle so
experiments can vary the schedule (the validator's scheduler quality
depends on how well gas predicts execution time, §5.4).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["GasSchedule", "DEFAULT_GAS_SCHEDULE", "OutOfGas", "intrinsic_gas"]


class OutOfGas(Exception):
    """Execution ran out of gas; the current frame reverts."""


@dataclass(frozen=True)
class GasSchedule:
    """Gas constants (Geth v1.10-era mainnet values, pre-access-lists)."""

    tx_base: int = 21000
    tx_create: int = 32000
    tx_data_zero: int = 4
    tx_data_nonzero: int = 16

    sstore_set: int = 20000  # zero -> nonzero
    sstore_reset: int = 5000  # nonzero -> anything
    sstore_noop: int = 800  # value unchanged
    sstore_clear_refund: int = 15000  # nonzero -> zero refund
    #: refunds are capped to gas_used / refund_quotient (pre-London: 2)
    refund_quotient: int = 2

    sha3_word: int = 6
    copy_word: int = 3
    exp_byte: int = 50
    log_data_byte: int = 8

    memory_word: int = 3
    memory_quad_divisor: int = 512

    call_value_transfer: int = 9000
    call_new_account: int = 25000
    call_stipend: int = 2300
    call_gas_retention: int = 64  # caller keeps 1/64 of remaining gas

    def __post_init__(self) -> None:
        # a compiled run reserves ``sstore_set`` per SSTORE at its head
        if self.sstore_set < max(self.sstore_reset, self.sstore_noop):
            raise ValueError("sstore_set must be the dearest SSTORE cost")

    def memory_cost(self, words: int) -> int:
        """Total cost of having ``words`` 32-byte words of memory."""
        return self.memory_word * words + (words * words) // self.memory_quad_divisor

    def memory_expansion_cost(self, current_words: int, new_words: int) -> int:
        if new_words <= current_words:
            return 0
        return self.memory_cost(new_words) - self.memory_cost(current_words)

    def sha3_cost(self, length: int) -> int:
        """Dynamic part of SHA3 over ``length`` bytes."""
        return self.sha3_word * ((length + 31) // 32)

    def copy_cost(self, length: int) -> int:
        return self.copy_word * ((length + 31) // 32)

    def sstore_cost(self, current: int, new: int) -> int:
        if current == new:
            return self.sstore_noop
        if current == 0:
            return self.sstore_set
        return self.sstore_reset

    def exp_cost(self, exponent: int) -> int:
        if exponent == 0:
            return 0
        return self.exp_byte * ((exponent.bit_length() + 7) // 8)

    def max_call_gas(self, remaining: int) -> int:
        """EIP-150: a call may receive at most 63/64 of remaining gas."""
        return remaining - remaining // self.call_gas_retention


DEFAULT_GAS_SCHEDULE = GasSchedule()


def intrinsic_gas(schedule: GasSchedule, data: bytes, is_create: bool) -> int:
    """Up-front gas charged before any bytecode executes (yellow paper G_tx)."""
    gas = schedule.tx_base
    if is_create:
        gas += schedule.tx_create
    zeros = data.count(0)
    return gas + schedule.tx_data_zero * zeros + schedule.tx_data_nonzero * (len(data) - zeros)
