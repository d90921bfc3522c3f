"""Compiled runs: invisible at their boundaries, compiled lazily and once.

A code blob's second execution walks a table in which every straight-line
run is one entry (``repro.evm.interpreter.compile_runs``).  Nothing a
transaction can observe may depend on that: the first class forces the same
code through both tables — decoded and compiled — and compares results,
refunds and the trace dict *in insertion order* at every gas limit and stack
height that can starve some instruction of some run.  The second class pins
the compilation budget.
"""

import linecache
import random
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.hashing import keccak
from repro.evm import interpreter
from repro.evm.asm import asm
from repro.evm.disasm import format_disassembly
from repro.evm.interpreter import EVM, Message, _RUN, _TxEnv, analyse, compile_runs
from repro.exec.tasks import export_overlay
from repro.state.account import AccountData
from repro.state.statedb import StateDB, genesis_snapshot
from repro.txpool.transaction import Transaction
from repro.workload import contracts
from tests.evm_oracle import OracleEVM
from tests.test_evm_oracle import (
    CALLEE,
    CONTRACT,
    CTX,
    SENDER,
    make_genesis,
    make_tx,
    observe,
    programs,
    truncated,
)

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@lru_cache(maxsize=16)
def tables(code):
    """The two tables one blob can be walked through."""
    return {False: analyse(code).instrs, True: compile_runs(code)}


def run_heads(code):
    return [pc for pc, entry in enumerate(tables(code)[True]) if entry[0] == _RUN]


def execute(genesis, data, gas, *, compiled, evm=EVM, value=0):
    """One message to CONTRACT with every deployed blob forced onto one
    table (``compiled`` may also be a table for CONTRACT's code); returns
    everything the frame tree can show."""
    for address in (CONTRACT, CALLEE):
        code = genesis.account(address).code
        given = isinstance(compiled, tuple) and address == CONTRACT
        analyse(code).compiled = compiled if given else tables(code)[bool(compiled)]
    state = StateDB(genesis)
    machine = evm()
    env = _TxEnv(machine, CTX, machine.config.schedule, SENDER, 1, {})
    r = machine._execute_message(state, Message(SENDER, CONTRACT, value, data, gas), env, depth=0)
    shown = (r.success, r.gas_left, r.output, r.logs, r.error, list(env.refunds), list(env.trace.items()))
    return shown, export_overlay(state)


def assert_invisible(genesis, data, gas, value=0):
    decoded = execute(genesis, data, gas, compiled=False, value=value)
    assert execute(genesis, data, gas, compiled=True, value=value) == decoded
    return decoded[0]


def gas_needed(genesis, data):
    success, gas_left, *_ = execute(genesis, data, 400_000, compiled=False)[0]
    assert success
    return 400_000 - gas_left


def word(value):
    return value.to_bytes(32, "big")


#: every workload contract on the path its traffic takes
WORKLOAD_CALLS = {
    "erc20-transfer": (contracts.erc20_code(), contracts.erc20_transfer_calldata(CALLEE, 1)),
    "erc20-mint": (contracts.erc20_code(), contracts.erc20_mint_calldata(CALLEE, 3)),
    "erc20-shared": (
        contracts.erc20_shared_counter_code(),
        contracts.erc20_counted_transfer_calldata(CALLEE, 1, 2),
    ),
    "erc20-partitioned": (
        contracts.erc20_partitioned_counter_code(),
        contracts.erc20_counted_transfer_calldata(CALLEE, 1, 2),
    ),
    "amm": (contracts.amm_code(CALLEE), contracts.amm_swap_calldata(1)),
    "nft": (contracts.nft_code(), contracts.nft_mint_calldata()),
    "airdrop": (contracts.airdrop_code(), contracts.airdrop_claim_calldata()),
}


def workload_genesis(code):
    """``make_genesis`` with what the contracts' happy paths need: a token
    balance for the sender, AMM reserves, airdrop supply."""
    storage = {0: 7, 1: 2**256 - 1, 32: 1, contracts.erc20_balance_slot(SENDER): 10**6}
    callee_storage = {contracts.erc20_balance_slot(CONTRACT): 10**6}
    return genesis_snapshot(
        {
            SENDER: AccountData(balance=10**21),
            CONTRACT: AccountData(code=code, storage=storage, balance=5),
            CALLEE: AccountData(code=contracts.erc20_code(), storage=callee_storage),
        }
    )


class TestRunBoundariesAreInvisible:
    @pytest.mark.parametrize("name", WORKLOAD_CALLS)
    def test_workload_contracts_at_every_gas_limit(self, name):
        """Each gas value starves a different instruction of some run: the
        pre-check must refuse exactly when some instruction would, and the
        fallback must then fail at that instruction with its counts."""
        code, data = WORKLOAD_CALLS[name]
        genesis = workload_genesis(code)
        assert len(run_heads(code)) >= 4
        needed = gas_needed(genesis, data)
        outcomes = {assert_invisible(genesis, data, gas)[0] for gas in range(needed + 2)}
        assert outcomes == {False, True}

    @settings(max_examples=150, **COMMON)
    @given(programs, programs, st.binary(max_size=68), st.integers(0, 400_000), st.sampled_from([0, 0, 1]))
    def test_generated_programs(self, code, callee, data, gas, value):
        assert_invisible(make_genesis(code, callee), data, gas, value)

    @settings(max_examples=100, **COMMON)
    @given(truncated(), truncated(), st.integers(0, 60_000))
    def test_truncated_tails(self, code, callee, gas):
        assert_invisible(make_genesis(code, callee), b"", gas)

    @settings(max_examples=300, **COMMON)
    @given(programs, st.integers(0, 40))
    def test_gas_dies_at_every_point(self, code, shave):
        """Find the exact cost, then starve the run by 0..40 gas: both
        tables agree, and the compiled one agrees with the oracle stepper."""
        self.check_starved(code, shave)

    @pytest.mark.slow
    @pytest.mark.fuzz
    @settings(max_examples=2000, **COMMON)
    @given(programs, st.integers(0, 400))
    def test_gas_starvation_campaign(self, code, shave):
        self.check_starved(code, shave)

    @staticmethod
    def check_starved(code, shave):
        genesis = make_genesis(code, b"")
        full = observe(OracleEVM(), genesis, make_tx(b"", 400_000, 0, 0))
        limit = max(21_000, full["gas_used"] - shave)
        assert_invisible(genesis, b"", limit - 21_000)
        analyse(code).compiled = tables(code)[True]
        tx = make_tx(b"", limit, 0, 0)
        assert observe(EVM(), genesis, tx) == observe(OracleEVM(), genesis, tx)

    @pytest.mark.parametrize("inner_gas", [None, 30_000])
    def test_every_entry_height(self, inner_gas):
        """A run entered at heights 0…needs and room…1024: it needs three
        words and grows by two, so heights 0-2 underflow (0 and 1 at the
        first ADD, 2 at the second) and 1023-1024 overflow (at the second
        CALLER, at the first).  With ``inner_gas`` the
        run executes in a nested frame, called with the words pushed there."""
        body = ["JUMPDEST", "ADD", "ADD", "DUP1", "DUP1", "SWAP2", "CALLER", "CALLER", "POP", "POP", "STOP"]
        seen = set()
        for height in [0, 1, 2, 3, 4, 500, 1021, 1022, 1023, 1024]:
            code = asm([1] * height + body)
            head = 2 * height
            kind, _, _, _, needs, room, _, _ = tables(code)[True][head]
            assert (kind, needs, room) == (_RUN, 3, 1022)
            if inner_gas is None:
                genesis = make_genesis(code, b"")
            else:
                caller = asm([0, 0, 0, 0, 0, CALLEE.to_int(), inner_gas, "CALL", 0, "MSTORE", 32, 0, "RETURN"])
                genesis = make_genesis(caller, code)
            success, _, output, _, error, _, trace = assert_invisible(genesis, b"", 100_000)
            inner_ok = success if inner_gas is None else output == word(1)
            assert inner_ok == (3 <= height <= 1022)
            seen.add(error if inner_gas is None else inner_ok)
        assert seen == ({None, "stack underflow", "stack overflow"} if inner_gas is None else {True, False})

    def test_jumpdest_in_straight_line_code_starts_a_run(self):
        code = asm([1, 2, "ADD", (":", "mid"), 3, "ADD", 0, "MSTORE", ("jump", "mid")])
        assert run_heads(code) == [0, 5, 12]
        genesis = make_genesis(code, b"")
        for gas in range(0, 400):  # loops until it starves, wherever that is
            assert not assert_invisible(genesis, b"", gas)[0]

    def test_truncated_push_ends_a_run(self):
        code = asm([5, "DUP1", "ADD"]) + b"\x63\xaa\xbb"  # PUSH4 with two bytes left
        assert run_heads(code) == [0]
        assert tables(code)[True][0][-1] == len(code)
        genesis = make_genesis(code, b"")
        assert [assert_invisible(genesis, b"", gas)[0] for gas in (11, 12)] == [False, True]

    def test_folded_jumpi_taken_and_not_taken(self):
        code = asm([0, "CALLDATALOAD", ("jumpi", "yes"), 1, 0, "SSTORE", "STOP",
                    (":", "yes"), 2, 0, "SSTORE", "STOP"])
        assert "JUMPI folded" in format_disassembly(code, show_runs=True)
        genesis = make_genesis(code, b"")
        for data, stored in ((word(0), 1), (word(9), 2), (b"", 1)):
            for gas in range(0, 5_100):
                shown, overlay = execute(genesis, data, gas, compiled=True)
                assert (shown, overlay) == execute(genesis, data, gas, compiled=False)
            assert shown[0] and overlay[CONTRACT][4][0] == stored

    def test_literal_destination_that_is_no_jumpdest_stays_unfused(self):
        """``PUSH 7 JUMPI`` where pc 7 is PUSH data: the run ends before
        the JUMPI, which fails at run time — and only when taken."""
        code = asm([0, "CALLDATALOAD", 7, "JUMPI", 0x5B, "POP", "STOP"])
        assert code[7] == 0x5B and 7 not in analyse(code).jumpdests
        assert run_heads(code) == [0, 6] and tables(code)[True][0][-1] == 5  # the JUMPI's pc
        assert "folded" not in format_disassembly(code, show_runs=True)
        genesis = make_genesis(code, b"")
        for data, ok in ((word(0), True), (word(1), False)):
            for gas in range(0, 60):
                assert_invisible(genesis, data, gas)
            success, _, _, _, error, _, _ = assert_invisible(genesis, data, 1_000)
            assert success == ok and (ok or error == "invalid jump destination 7")

    def test_a_run_precharging_one_instruction_too_many_is_caught(self):
        """The sweep above has teeth: with a run's gas off by one opcode,
        or with the fallback never taken, some gas limit tells the tables
        apart."""
        code, data = WORKLOAD_CALLS["nft"]
        genesis = workload_genesis(code)
        honest = tables(code)[True]

        def differs(table):
            return any(
                execute(genesis, data, gas, compiled=table) != execute(genesis, data, gas, compiled=False)
                for gas in range(gas_needed(genesis, data) + 2)
            )

        def tampered(change):
            return tuple(change(entry) if entry[0] == _RUN else entry for entry in honest)

        assert not differs(honest)
        assert differs(tampered(lambda e: e[:2] + (e[2] + 3,) + e[3:]))  # one PUSH too many
        assert differs(tampered(lambda e: e[:2] + (0,) + e[3:]))  # the pre-check never refuses


class TestListing:
    def test_show_runs_brackets_each_run_and_changes_nothing_else(self):
        code = contracts.nft_code()
        plain = format_disassembly(code).splitlines()
        shown = format_disassembly(code, show_runs=True).splitlines()
        assert all(with_runs.startswith(line) for with_runs, line in zip(shown, plain, strict=True))
        assert shown[0].endswith("┐ run: gas 34, needs 0, grows 3, JUMPI folded")
        assert sum("┐" in line for line in shown) == sum("┘" in line for line in shown) == len(run_heads(code))
        assert format_disassembly(b"", show_runs=True) == ""


class TestCompilationBudget:
    @pytest.fixture()
    def compilations(self, monkeypatch):
        """Every ``compile_runs`` call and every ``exec`` of generated source."""
        calls = {"compile_runs": [], "exec": []}
        real_compile, real_load = interpreter.compile_runs, interpreter._load

        def counting_compile(code):
            calls["compile_runs"].append(code)
            return real_compile(code)

        def counting_load(filename, source):
            calls["exec"].append(filename)
            return real_load(filename, source)

        monkeypatch.setattr(interpreter, "compile_runs", counting_compile)
        monkeypatch.setattr(interpreter, "_load", counting_load)
        analyse.cache_clear()
        return calls

    @staticmethod
    def send(state, to, data=b"", nonce=0):
        tx = Transaction(
            sender=SENDER, to=to, value=0, data=data, gas_limit=400_000, gas_price=1, nonce=nonce
        )
        return EVM().apply_transaction(state, tx, CTX)

    def test_code_that_runs_once_is_never_compiled(self, compilations):
        """200 distinct initcodes, deployed once each: zero compilations."""
        state = StateDB(make_genesis(b"", b""))
        for n in range(200):
            runtime = asm([n, 1, "ADD", 0, "SSTORE", "STOP"])
            result = self.send(state, None, contracts.deploy_initcode(runtime), nonce=n)
            assert result.success and result.created is not None
        assert compilations == {"compile_runs": [], "exec": []}

    def test_code_that_runs_again_is_compiled_exactly_once(self, compilations):
        code = contracts.nft_code()
        genesis = make_genesis(code, b"")
        results = [self.send(StateDB(genesis), CONTRACT, contracts.nft_mint_calldata()) for _ in range(5)]
        assert all(r.success for r in results)
        assert len({(r.gas_used, tuple(r.trace.counts.items())) for r in results}) == 1
        assert compilations == {"compile_runs": [code], "exec": [f"<evm runs {keccak(code).hex()[:8]}>"]}
        assert analyse(code).compiled[0][0] == _RUN

    def test_the_analyse_cache_is_the_only_cache(self, compilations):
        """600 blobs run twice each: 512 programs stay, and the generated
        source of the evicted ones leaves ``linecache`` with them."""
        assert analyse.cache_info().maxsize == 512
        for n in range(600):
            code = asm([n, 1, "ADD", "POP", "STOP"])
            genesis = make_genesis(code, b"")
            for _ in range(2):
                assert self.send(StateDB(genesis), CONTRACT).success
        assert len(compilations["exec"]) == 600
        assert analyse.cache_info().currsize == 512
        held = [name for name in linecache.cache if name.startswith("<evm runs ")]
        assert len(held) <= 512

    def test_generated_source_always_compiles(self):
        """Nothing reaches ``exec`` but the fixed table and ``hex()`` of
        immediates: 2 000 random byte strings, none fails to compile."""
        rng = random.Random(24)
        for _ in range(2_000):
            code = rng.randbytes(rng.randrange(1, 120))
            table = compile_runs(code)
            assert len(table) == len(code) + 1
            for entry in table:
                if entry[0] == _RUN:
                    assert entry[1].__name__.startswith("run_") and entry[6] in analyse(code).instrs
