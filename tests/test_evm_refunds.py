"""SSTORE clearing-refund tests (journaled across call frames)."""


from repro.common.types import address_to_int
from repro.evm.asm import asm
from repro.evm.gas import DEFAULT_GAS_SCHEDULE as G
from repro.state.account import AccountData
from tests.test_evm_interpreter import OTHER, run_code


class TestRefunds:
    def test_clearing_slot_refunds(self):
        # slot 5 starts at 1; writing 0 clears it
        clear = asm([0, 5, "SSTORE", "STOP"])
        keep = asm([2, 5, "SSTORE", "STOP"])
        r_clear, _ = run_code(clear, storage={5: 1})
        r_keep, _ = run_code(keep, storage={5: 1})
        # both pay sstore_reset, but the clear gets a refund (capped at half)
        assert r_clear.gas_used < r_keep.gas_used

    def test_refund_capped_at_half_gas_used(self):
        # one cheap clear: the 15000 refund exceeds half the consumed gas,
        # so only half comes back
        clear = asm([0, 5, "SSTORE", "STOP"])
        result, _ = run_code(clear, storage={5: 1})
        pre_refund = 21000 + 3 + 3 + G.sstore_reset
        assert result.gas_used == pre_refund - pre_refund // 2

    def test_multiple_clears_accumulate(self):
        two_clears = asm([0, 5, "SSTORE", 0, 6, "SSTORE", "STOP"])
        one_clear = asm([0, 5, "SSTORE", 2, 6, "SSTORE", "STOP"])
        r_two, _ = run_code(two_clears, storage={5: 1, 6: 1})
        r_one, _ = run_code(one_clear, storage={5: 1, 6: 1})
        assert r_two.gas_used < r_one.gas_used

    def test_reverted_frame_refund_discarded(self):
        # clear a slot, then revert: no refund survives
        program = asm([0, 5, "SSTORE", 0, 0, "REVERT"])
        result, state = run_code(program, storage={5: 1}, gas=100_000)
        assert not result.success
        assert state.get_storage(
            __import__("tests.test_evm_interpreter", fromlist=["CONTRACT"]).CONTRACT, 5
        ) == 1
        # gas consumed without any refund: full 21000 + pushes + sstore
        assert result.gas_used == 21000 + 3 + 3 + G.sstore_reset + 3 + 3

    def test_failed_child_call_refund_discarded(self):
        """A child that clears a slot and then fails must not leak its
        refund into the parent's ledger."""
        callee_clear_then_fail = asm([0, 5, "SSTORE", "POP"])  # POP underflows
        callee_clear_ok = asm([0, 5, "SSTORE", "STOP"])
        caller = asm(
            [0, 0, 0, 0, 0, address_to_int(OTHER), 100_000, "CALL", "POP", "STOP"]
        )
        r_fail, _ = run_code(
            caller,
            extra={OTHER: AccountData(code=callee_clear_then_fail, storage={5: 1})},
            gas=300_000,
        )
        r_ok, _ = run_code(
            caller,
            extra={OTHER: AccountData(code=callee_clear_ok, storage={5: 1})},
            gas=300_000,
        )
        assert r_fail.success and r_ok.success  # caller survives either way
        # the successful clear earns a refund; the failed one does not, and
        # the failed child also burns its forwarded gas
        assert r_ok.gas_used < r_fail.gas_used

    def test_erc20_transfer_emptying_balance_gets_refund(self, small_universe):
        """Economic effect in the real workload: sending your whole token
        balance clears the storage slot and earns a refund."""
        from repro.evm.interpreter import EVM, ExecutionContext
        from repro.state.statedb import StateDB
        from repro.txpool.transaction import Transaction
        from repro.workload.contracts import erc20_balance_slot, erc20_transfer_calldata

        uni = small_universe
        token = uni.tokens[0]
        db = StateDB(uni.genesis)
        sender = next(
            e for e in uni.eoas if db.get_storage(token, erc20_balance_slot(e)) > 0
        )
        balance = db.get_storage(token, erc20_balance_slot(sender))
        receiver = uni.eoas[1]

        full = Transaction(
            sender, token, 0, erc20_transfer_calldata(receiver, balance),
            400_000, 0, 0,
        )
        partial = Transaction(
            sender, token, 0, erc20_transfer_calldata(receiver, balance // 2),
            400_000, 0, 0,
        )
        evm = EVM()
        r_full = evm.apply_transaction(StateDB(uni.genesis), full, ExecutionContext())
        r_partial = evm.apply_transaction(
            StateDB(uni.genesis), partial, ExecutionContext()
        )
        assert r_full.success and r_partial.success
        assert r_full.gas_used < r_partial.gas_used
