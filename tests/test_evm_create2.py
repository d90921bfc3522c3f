"""CREATE2 (EIP-1014) tests: salted, counterfactual contract addresses."""


from repro.common.hashing import keccak
from repro.common.types import address, address_from_int, address_to_int
from repro.evm.asm import Assembler, asm
from repro.evm.interpreter import contract_address2
from tests.test_evm_interpreter import CONTRACT, run_code, word


def create2_program(salt, out_to_stack=True):
    """Copy tx calldata as initcode, CREATE2 it with ``salt``."""
    a = Assembler()
    a.op("CALLDATASIZE").push(0).push(0).op("CALLDATACOPY")
    a.push(salt)  # salt (deepest)
    a.op("CALLDATASIZE")  # size
    a.push(0)  # offset
    a.push(0)  # value (top)
    a.op("CREATE2")
    if out_to_stack:
        a.push(0).op("MSTORE").push(32).push(0).op("RETURN")
    return a.assemble()


INITCODE = asm([0x01, 0, "MSTORE8", 1, 0, "RETURN"])  # deploys code b"\x01"


class TestCreate2:
    def test_address_matches_eip1014_formula(self):
        result, state = run_code(
            create2_program(salt=42), data=INITCODE, gas=3_000_000
        )
        assert result.success
        created = address_from_int(word(result))
        assert created == contract_address2(CONTRACT, 42, INITCODE)
        assert state.get_code(created) == b"\x01"

    def test_different_salts_different_addresses(self):
        r1, _ = run_code(create2_program(salt=1), data=INITCODE, gas=3_000_000)
        r2, _ = run_code(create2_program(salt=2), data=INITCODE, gas=3_000_000)
        assert word(r1) != word(r2)
        assert word(r1) != 0 and word(r2) != 0

    def test_same_salt_same_code_deterministic(self):
        r1, _ = run_code(create2_program(salt=7), data=INITCODE, gas=3_000_000)
        r2, _ = run_code(create2_program(salt=7), data=INITCODE, gas=3_000_000)
        assert word(r1) == word(r2)

    def test_redeploy_at_same_address_fails(self):
        # deploy twice with the same salt in one transaction: the second
        # CREATE2 collides and pushes 0
        a = Assembler()
        a.op("CALLDATASIZE").push(0).push(0).op("CALLDATACOPY")
        for _ in range(2):
            a.push(9)
            a.op("CALLDATASIZE")
            a.push(0)
            a.push(0)
            a.op("CREATE2")
        # stack: [addr2, addr1]; return addr2 (top)
        a.push(0).op("MSTORE").push(32).push(0).op("RETURN")
        result, _ = run_code(a.assemble(), data=INITCODE, gas=5_000_000)
        assert result.success
        assert word(result) == 0  # collision

    def test_formula_independent_of_nonce(self):
        """CREATE2 addressing ignores the creator's nonce entirely."""
        a = contract_address2(CONTRACT, 5, INITCODE)
        b = contract_address2(CONTRACT, 5, INITCODE)
        assert a == b
        assert a == address(
            keccak(
                b"\xff"
                + bytes(CONTRACT)
                + (5).to_bytes(32, "big")
                + keccak(INITCODE)
            )[12:]
        )

    def test_create2_in_static_context_blocked(self):
        from repro.evm.asm import asm as _asm
        from repro.state.account import AccountData
        from tests.test_evm_interpreter import OTHER

        creator = create2_program(salt=1, out_to_stack=False) + bytes([0x00])
        program = _asm(
            [32, 0, 0, 0, address_to_int(OTHER), 500_000, "STATICCALL"]
            + [0, "MSTORE", 32, 0, "RETURN"]
        )
        result, _ = run_code(
            program, extra={OTHER: AccountData(code=creator)}, gas=2_000_000
        )
        assert result.success
        assert word(result) == 0  # inner CREATE2 hit write protection
