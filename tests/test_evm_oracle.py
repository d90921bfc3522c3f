"""The analysed-program loop against the parent commit's stepper.

``tests/evm_oracle.py`` keeps the interpreter this loop replaced.  Both run
the same transactions — generated programs, raw bytes, truncated tails,
calls and creates into a second contract, gas limits that die mid-program,
and the workload's own contracts — and must agree on everything a
transaction can observe: success, gas, output, logs, created address, error
class, final state, recorded rw-set, and ``trace.counts`` *in insertion
order* (the cost model sums in that order; the sim goldens pin the last
bit).  The same file holds the module docstring's promise that nothing but
``InvalidTransaction`` escapes ``apply_transaction``.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.types import Address
from repro.evm.asm import asm
from repro.evm.interpreter import EVM, ExecutionContext, InvalidTransaction
from repro.evm.opcodes import OPCODES
from repro.exec.tasks import export_overlay
from repro.state.access import RecordingState
from repro.state.account import AccountData
from repro.state.statedb import StateDB, genesis_snapshot
from repro.txpool.transaction import Transaction
from repro.workload import contracts
from repro.workload.generator import BlockWorkloadGenerator, WorkloadConfig
from tests.evm_oracle import OracleEVM

SENDER = Address.from_int(0xAAAA)
CONTRACT = Address.from_int(0xCCCC)
CALLEE = Address.from_int(0xDDDD)
CTX = ExecutionContext(
    block_number=300,
    timestamp=1_700_000_000,
    coinbase=Address.from_int(0xC0),
    recent_block_hashes=((299, b"\x11" * 32), (44, b"\x22" * 32)),
)

#: the issue's boundary operands: shift/byte/signextend edges, the memory
#: cap (2**24) and its neighbours, the address mask, the sign bit, the top
BOUNDARY = [0, 1, 31, 32, 33, 2**24 - 1, 2**24, 2**24 + 1, 2**160 - 1, 2**255, 2**256 - 1]

#: mostly small (so memory and storage operands stay affordable and the
#: program runs on), otherwise a boundary, an address or anything
words = st.one_of(
    st.integers(0, 96),
    st.integers(0, 96),
    st.integers(0, 96),
    st.sampled_from(BOUNDARY),
    st.sampled_from([CALLEE.to_int(), CONTRACT.to_int(), SENDER.to_int()]),
    st.integers(0, 2**256 - 1),
)

PLAIN_OPS = [op for op in OPCODES.values() if not op.name.startswith("PUSH")]
#: ops that usually end the frame on generated operands; drawn rarely
ENDING = {"STOP", "RETURN", "REVERT", "JUMP", "JUMPI"}
RUNNING_OPS = [op for op in PLAIN_OPS if op.name not in ENDING]


def _push(value: int) -> bytes:
    return asm([value])


@st.composite
def steps(draw) -> bytes:
    """One opcode with its operands pushed per the table's arity."""
    op = draw(st.one_of(*[st.sampled_from(RUNNING_OPS)] * 9, st.sampled_from(PLAIN_OPS)))
    operands = [draw(words) for _ in range(op.pops)]
    if op.name in ("CALL", "STATICCALL", "DELEGATECALL"):
        # bottom-to-top push order: the last operand pushed is the gas
        operands[-1] = draw(st.sampled_from([0, 700, 5_000, 50_000, 2**256 - 1]))
        operands[-2] = draw(st.sampled_from([CALLEE.to_int(), CONTRACT.to_int(), 0x99]))
        for i in range(len(operands) - 2):
            operands[i] = draw(st.integers(0, 96))
    elif op.name in ("CREATE", "CREATE2"):
        operands[-1] = draw(st.sampled_from([0, 1]))  # value
        operands[-2] = draw(st.integers(0, 64))  # offset
        operands[-3] = draw(st.integers(0, 64))  # size
    return b"".join(_push(v) for v in operands) + bytes([op.code])


@st.composite
def skips(draw) -> bytes:
    """A taken forward jump over junk that contains 0x5b as PUSH data
    (zero padding keeps a PUSH in the junk from swallowing the target)."""
    junk = draw(st.binary(max_size=6))
    return asm([("jump", "over"), b"\x60\x5b" + junk + b"\x00" * 32, (":", "over")])


def _relocate(chunks) -> bytes:
    """Concatenate chunks; ``skips`` assembled their jumps from offset 0,
    so re-assemble each with the right base by pushing absolute targets."""
    out = b""
    for chunk in chunks:
        if chunk[:1] == b"\x61" and chunk[3:4] == b"\x56":  # PUSH2 dest JUMP
            dest = int.from_bytes(chunk[1:3], "big") + len(out)
            chunk = b"\x61" + dest.to_bytes(2, "big") + chunk[3:]
        out += chunk
    return out


structured = st.lists(st.one_of(*[steps()] * 5, skips()), max_size=24).map(_relocate)
programs = st.one_of(structured, structured, structured, st.binary(max_size=96))


@st.composite
def truncated(draw) -> bytes:
    code = draw(programs)
    cut = draw(st.integers(0, len(code)))
    tail = draw(st.sampled_from([b"", b"\x7f", b"\x7f\x01\x02", b"\x61\x5b", b"\x60"]))
    return code[:cut] + tail


gas_limits = st.one_of(
    st.sampled_from([22_100, 22_103, 22_900, 25_000, 60_000, 400_000]),
    st.integers(22_100, 400_000),
)


def make_tx(data: bytes, gas_limit: int, value: int, gas_price: int, to=CONTRACT) -> Transaction:
    return Transaction(
        sender=SENDER, to=to, value=value, data=data,
        gas_limit=gas_limit, gas_price=gas_price, nonce=0,
    )


def make_genesis(code: bytes, callee_code: bytes):
    storage = {0: 7, 1: 2**256 - 1, 32: 1}
    return genesis_snapshot(
        {
            SENDER: AccountData(balance=10**21),
            CONTRACT: AccountData(code=code, storage=dict(storage), balance=5),
            CALLEE: AccountData(code=callee_code, storage=dict(storage)),
        }
    )


def error_class(error):
    """Collapse error strings to the kinds a caller can tell apart."""
    if error is None:
        return None
    for prefix, kind in [
        ("revert", "revert"),
        ("need ", "out of gas"),
        ("invalid jump", "jump"),
        ("invalid opcode", "opcode"),
        ("write protection", "static"),
        ("returndata", "returndata"),
        ("memory access", "memory"),
        ("negative", "memory"),
    ]:
        if error.startswith(prefix):
            return kind
    if "underflow" in error or "overflow" in error:
        return "stack"
    return error  # call depth, insufficient balance, collision, deposit


def observe(evm, genesis, tx):
    """Everything one transaction can show, through the recording path."""
    db = StateDB(genesis)
    rec = RecordingState(db)
    try:
        r = evm.apply_transaction(rec, tx, CTX)
    except InvalidTransaction as exc:
        return ("invalid", str(exc))
    return {
        "success": r.success,
        "gas_used": r.gas_used,
        "fee": r.fee,
        "output": r.output,
        "logs": r.logs,
        "created": r.created,
        "error": error_class(r.error),
        "trace": list(r.trace.counts.items()),
        "state": export_overlay(db),
        "reads": list(rec.rw.reads),
        "writes": rec.rw.writes,
    }


def assert_same(genesis, tx):
    new, old = observe(EVM(), genesis, tx), observe(OracleEVM(), genesis, tx)
    assert new == old


COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


class TestAgainstParentStepper:
    @settings(max_examples=400, **COMMON)
    @given(programs, programs, st.binary(max_size=68), gas_limits,
           st.sampled_from([0, 0, 1, 10**18]), st.sampled_from([0, 3]))
    def test_generated_programs(self, code, callee, data, gas_limit, value, gas_price):
        assert_same(make_genesis(code, callee), make_tx(data, gas_limit, value, gas_price))

    @settings(max_examples=200, **COMMON)
    @given(truncated(), truncated(), st.binary(max_size=36), gas_limits)
    def test_truncated_tails(self, code, callee, data, gas_limit):
        assert_same(make_genesis(code, callee), make_tx(data, gas_limit, 0, 1))

    @settings(max_examples=150, **COMMON)
    @given(programs, gas_limits, st.sampled_from([0, 1]))
    def test_create_transactions(self, initcode, gas_limit, value):
        # the program is the initcode: CREATE at depth 0, deposit gas included
        tx = make_tx(initcode, gas_limit + 32_000, value, 1, to=None)
        assert_same(make_genesis(b"", b""), tx)

    @settings(max_examples=300, **COMMON)
    @given(programs, st.integers(0, 40))
    def test_gas_dies_at_every_point(self, code, shave):
        """Find the exact cost, then starve the run by 1..40 gas."""
        genesis = make_genesis(code, b"")
        full = observe(OracleEVM(), genesis, make_tx(b"", 400_000, 0, 0))
        if full == "invalid" or not isinstance(full, dict):
            return
        limit = max(21_000, full["gas_used"] - shave)
        assert_same(genesis, make_tx(b"", limit, 0, 0))

    def test_inner_creates_and_calls_reach_the_second_contract(self):
        """A hand-written program that must take the CALL/CREATE paths
        (guards the generators against silently never reaching them)."""
        callee = asm([1, 0, "SSTORE", 0x2A, 0, "MSTORE", 32, 0, "LOG0", 32, 0, "RETURN"])
        initcode = contracts.deploy_initcode(callee)
        program = [32, 0, 0, 0, 0, CALLEE.to_int(), 50_000, "CALL", "POP"]
        program += [32, 0, 0, 0, CALLEE.to_int(), 50_000, "STATICCALL", "POP"]
        program += [32, 0, 0, 0, CALLEE.to_int(), 50_000, "DELEGATECALL", "POP"]
        program += [len(initcode), 0, 0, "CALLDATACOPY", len(initcode), 0, 0, "CREATE"]
        program += [0, "MSTORE", 7, len(initcode), 0, 0, "CREATE2", 32, "MSTORE", 64, 0, "RETURN"]
        genesis = make_genesis(asm(program), callee)
        tx = make_tx(initcode, 400_000, 0, 1)
        seen = observe(EVM(), genesis, tx)
        assert seen["success"] and dict(seen["trace"])["call"] == 3
        # each CREATE counts twice: the instruction and the account creation
        assert dict(seen["trace"])["create"] == 4 and any(seen["output"])
        assert_same(genesis, tx)


class TestWorkloadContracts:
    def test_generated_blocks_execute_identically(self, small_universe):
        """Every contract family of ``workload/contracts.py`` under its own
        traffic: three blocks, serially, one shared state per side."""
        gen = BlockWorkloadGenerator(
            small_universe,
            WorkloadConfig(
                txs_per_block=120, tx_count_jitter=0.0, seed=9, deploy_fraction=0.05, revert_fraction=0.1
            ),
        )
        new_db, old_db = StateDB(small_universe.genesis), StateDB(small_universe.genesis)
        kinds = set()
        for _ in range(3):
            for tx in gen.generate_block_txs():
                sides = []
                for evm, db in ((EVM(), new_db), (OracleEVM(), old_db)):
                    rec = RecordingState(db)
                    try:
                        r = evm.apply_transaction(rec, tx, CTX)
                        r = dataclasses.replace(r, error=error_class(r.error))
                        kinds.update(r.trace.counts)
                        sides.append((r, list(r.trace.counts.items()), list(rec.rw.reads), rec.rw.writes))
                    except InvalidTransaction as exc:
                        sides.append(str(exc))
                assert sides[0] == sides[1]
        assert export_overlay(new_db) == export_overlay(old_db)
        assert {"storage_write", "sha3", "log", "call", "create", "transfer"} <= kinds

    @pytest.mark.parametrize(
        "code",
        [
            contracts.erc20_code(),
            contracts.erc20_shared_counter_code(),
            contracts.erc20_partitioned_counter_code(),
            contracts.amm_code(CALLEE),
            contracts.nft_code(),
            contracts.airdrop_code(),
        ],
        ids=["erc20", "erc20-shared", "erc20-partitioned", "amm", "nft", "airdrop"],
    )
    @settings(max_examples=40, **COMMON)
    @given(st.integers(0, 6), st.lists(words, max_size=3), gas_limits)
    def test_each_contract_under_arbitrary_calldata(self, code, selector, args, gas_limit):
        data = selector.to_bytes(4, "big") + b"".join(a.to_bytes(32, "big") for a in args)
        assert_same(make_genesis(code, contracts.erc20_code()), make_tx(data, gas_limit, 0, 1))


class TestOnlyInvalidTransactionEscapes:
    """With ``Stack.push``'s defensive mask gone, a handler that leaked a
    wide int would surface as ``OverflowError`` from ``to_bytes`` — which
    the frame does not catch.  Any exception but ``InvalidTransaction``
    fails these tests by propagating."""

    @settings(max_examples=1500, **COMMON)
    @given(st.binary(max_size=128), st.binary(max_size=40), gas_limits)
    def test_random_bytes(self, code, data, gas_limit):
        observe(EVM(), make_genesis(code, code[::-1]), make_tx(data, gas_limit, 0, 0))

    @settings(max_examples=600, **COMMON)
    @given(programs, programs, gas_limits)
    def test_generated_programs_store_what_they_compute(self, code, callee, gas_limit):
        # every computed word is written to memory, where a wide one overflows
        stored = code.replace(b"\x50", b"\x60\x00\x52")  # POP -> PUSH1 0 MSTORE
        observe(EVM(), make_genesis(stored, callee), make_tx(b"\x01" * 36, gas_limit, 1, 0))

    @pytest.mark.parametrize("op", [op for op in PLAIN_OPS if op.pushes > op.pops or op.pushes == 1],
                             ids=lambda op: op.name)
    def test_every_pushing_opcode_yields_a_word(self, op):
        """Boundary operands through each value-producing opcode, result
        stored with MSTORE: in range or the frame failed cleanly."""
        for operand in BOUNDARY:
            program = [operand] * op.pops + [op.name, 0, "MSTORE", 32, 0, "RETURN"]
            result = observe(EVM(), make_genesis(asm(program), b"\x00"), make_tx(b"", 300_000, 1, 0))
            assert result == "invalid" or len(result["output"]) in (0, 32)
