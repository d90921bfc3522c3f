"""Advanced call semantics: DELEGATECALL, reentrancy, stipends, depth."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import address_from_int, address_to_int
from repro.evm.asm import Assembler, asm
from repro.state.account import AccountData
from repro.state.statedb import StateDB, genesis_snapshot
from tests.test_evm_interpreter import CONTRACT, OTHER, SENDER, run_code, word

LIB = address_from_int(0xEEEE)


class TestDelegateCall:
    def delegate_to_lib(self, out_size=0):
        """DELEGATECALL LIB with no calldata."""
        return [out_size, 0, 0, 0, address_to_int(LIB), 200_000, "DELEGATECALL"]

    def test_writes_land_in_caller_storage(self):
        # library writes 7 to slot 1 — of the *caller's* storage
        lib_code = asm([7, 1, "SSTORE", "STOP"])
        program = asm(self.delegate_to_lib() + ["POP", "STOP"])
        result, state = run_code(
            program, extra={LIB: AccountData(code=lib_code)}
        )
        assert result.success, result.error
        assert state.get_storage(CONTRACT, 1) == 7
        assert state.get_storage(LIB, 1) == 0

    def test_caller_and_value_preserved(self):
        # library returns CALLER — must be the original tx sender, not the
        # delegating contract
        lib_code = asm(["CALLER", 0, "MSTORE", 32, 0, "RETURN"])
        program = asm(
            self.delegate_to_lib(out_size=32) + ["POP", 32, 0, "RETURN"]
        )
        result, _ = run_code(
            program, extra={LIB: AccountData(code=lib_code)}, value=0
        )
        assert result.success
        assert word(result) == address_to_int(SENDER)

    def test_empty_library_succeeds(self):
        program = asm(self.delegate_to_lib() + [0, "MSTORE", 32, 0, "RETURN"])
        result, _ = run_code(program)  # LIB has no code
        assert result.success
        assert word(result) == 1  # DELEGATECALL pushed success

    def test_failing_library_reverts_only_its_frame(self):
        lib_code = asm([9, 2, "SSTORE", "POP"])  # POP underflows after write
        program = asm(
            [5, 1, "SSTORE"]  # caller's own write first
            + self.delegate_to_lib()
            + [0, "MSTORE", 32, 0, "RETURN"]
        )
        result, state = run_code(program, extra={LIB: AccountData(code=lib_code)})
        assert result.success
        assert word(result) == 0  # delegatecall failed
        assert state.get_storage(CONTRACT, 1) == 5  # caller write intact
        assert state.get_storage(CONTRACT, 2) == 0  # library write reverted


class TestReentrancy:
    def test_reentrant_call_sees_callers_partial_state(self):
        """Classic reentrancy shape: A calls B, B calls back into A; the
        nested A-frame observes A's uncommitted storage write (no isolation
        between frames of one transaction — Ethereum semantics)."""
        # contract A: if slot0 == 0: set slot0 = 1, CALL B, then STOP
        #             else: (reentered) write slot1 = sload(0), STOP
        a = Assembler()
        a.push(0).op("SLOAD").jumpi_to("reentered")
        a.push(1).push(0).op("SSTORE")
        # call OTHER (B) with no data
        a.push(0).push(0).push(0).push(0).push(0)
        a.push(address_to_int(OTHER)).push(150_000).op("CALL").op("POP")
        a.op("STOP")
        a.label("reentered")
        a.push(0).op("SLOAD").push(1).op("SSTORE")
        a.op("STOP")
        a_code = a.assemble()

        # contract B: call back into A
        b = Assembler()
        b.push(0).push(0).push(0).push(0).push(0)
        b.push(address_to_int(CONTRACT)).push(100_000).op("CALL").op("POP").op("STOP")
        b_code = b.assemble()

        result, state = run_code(a_code, extra={OTHER: AccountData(code=b_code)})
        assert result.success, result.error
        # the reentered frame saw slot0 == 1 (the outer frame's write)
        assert state.get_storage(CONTRACT, 1) == 1

    def test_deep_recursion_bounded(self):
        """Self-recursion halts at the depth limit without blowing the
        Python stack or consuming unbounded gas."""
        a = Assembler()
        a.push(0).push(0).push(0).push(0).push(0)
        a.push(address_to_int(CONTRACT)).push(10_000_000).op("CALL")
        a.push(0).op("MSTORE").push(32).push(0).op("RETURN")
        result, _ = run_code(a.assemble(), gas=5_000_000)
        assert result.success  # outermost frame survives

    def test_call_past_the_depth_limit_returns_its_gas(self):
        """The refused call hands back what it was forwarded (yellow paper;
        geth's ``return nil, gas, ErrDepth``), so 17 nested calls cost the
        same whatever the gas limit — not a 64th of it per level."""
        a = Assembler()
        a.push(0).push(0).push(0).push(0).push(0)
        a.push(address_to_int(CONTRACT)).op("GAS").op("CALL").op("STOP")
        used = [run_code(a.assemble(), gas=gas)[0].gas_used for gas in (200_000, 2_000_000)]
        assert used[0] == used[1] <= 40_000


class TestStateDBJournalProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["balance", "nonce", "storage", "code"]),
                st.integers(0, 3),  # account index
                st.integers(0, 5),  # slot / value selector
            ),
            max_size=25,
        )
    )
    def test_full_revert_is_identity(self, ops):
        """Any op sequence followed by revert_to(0) leaves state (and its
        committed root) exactly as before."""
        accounts = [address_from_int(0x40 + i) for i in range(4)]
        base = genesis_snapshot(
            {a: AccountData(balance=1000, storage={1: 7}) for a in accounts}
        )
        db = StateDB(base)
        mark = db.snapshot()
        for kind, ai, v in ops:
            address = accounts[ai]
            if kind == "balance":
                db.set_balance(address, v * 100)
            elif kind == "nonce":
                db.set_nonce(address, v)
            elif kind == "storage":
                db.set_storage(address, v, v * 11)
            else:
                db.set_code(address, bytes([v]))
        db.revert_to(mark)
        assert db.commit().state_root() == base.state_root()
        for a in accounts:
            assert db.get_balance(a) == 1000
            assert db.get_storage(a, 1) == 7
