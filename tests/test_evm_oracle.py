"""The analysed-program loop against the parent commit's stepper.

``tests/evm_oracle.py`` keeps the interpreter this loop replaced.  Both run
the same transactions — generated programs, raw bytes, truncated tails,
calls and creates into a second contract, gas limits that die mid-program,
and the workload's own contracts — and must agree on everything a
transaction can observe: success, gas, output, logs, created address, error
class, final state, recorded rw-set, and ``trace.counts`` *in insertion
order* (the cost model sums in that order; the sim goldens pin the last
bit).  The same file holds the module docstring's promise that nothing but
``InvalidTransaction`` escapes ``apply_transaction``, and
``TestEnvelopeOnEverySurface``: the stepper's four-call sender prologue
against the one ``charge_sender`` call, on every state surface.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.types import address_from_int, address_to_int
from repro.evm.asm import asm
from repro.evm.interpreter import EVM, ExecutionContext, InvalidTransaction, contract_address
from repro.evm.opcodes import OPCODES
from repro.exec.tasks import (
    BlockSTMView,
    FootprintMiss,
    GuardedSnapshot,
    SliceSnapshot,
    _WaveOverlayStore,
    build_state_slice,
    export_overlay,
)
from repro.state.access import RecordingState, balance_key, storage_key
from repro.state.account import AccountData
from repro.state.statedb import StateDB, genesis_snapshot
from repro.state.versioned import MultiVersionStore, OCCStateView
from repro.txpool.transaction import Transaction
from repro.workload import contracts
from repro.workload.generator import BlockWorkloadGenerator, WorkloadConfig
from tests.evm_oracle import OracleEVM

SENDER = address_from_int(0xAAAA)
CONTRACT = address_from_int(0xCCCC)
CALLEE = address_from_int(0xDDDD)
CTX = ExecutionContext(
    block_number=300,
    timestamp=1_700_000_000,
    coinbase=address_from_int(0xC0),
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
    st.sampled_from([address_to_int(CALLEE), address_to_int(CONTRACT), address_to_int(SENDER)]),
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
        operands[-2] = draw(st.sampled_from([address_to_int(CALLEE), address_to_int(CONTRACT), 0x99]))
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
        program = [32, 0, 0, 0, 0, address_to_int(CALLEE), 50_000, "CALL", "POP"]
        program += [32, 0, 0, 0, address_to_int(CALLEE), 50_000, "STATICCALL", "POP"]
        program += [32, 0, 0, 0, address_to_int(CALLEE), 50_000, "DELEGATECALL", "POP"]
        program += [len(initcode), 0, 0, "CALLDATACOPY", len(initcode), 0, 0, "CREATE"]
        program += [0, "MSTORE", 7, len(initcode), 0, 0, "CREATE2", 32, "MSTORE", 64, 0, "RETURN"]
        genesis = make_genesis(asm(program), callee)
        tx = make_tx(initcode, 400_000, 0, 1)
        seen = observe(EVM(), genesis, tx)
        assert seen["success"] and dict(seen["trace"])["call"] == 3
        # each CREATE counts twice: the instruction and the account creation
        assert dict(seen["trace"])["create"] == 4 and any(seen["output"])
        assert_same(genesis, tx)


    @pytest.mark.parametrize("op", ["CALL", "STATICCALL", "DELEGATECALL"])
    def test_a_short_return_leaves_the_charged_tail_backed(self, op):
        """The call charges memory to its out-range's end and grows it there,
        whatever the callee returns: after a 32-byte return into a 256-byte
        out-range, MSIZE reads 256 and a load in the unwritten tail costs what
        a load at offset 0 does — it is not charged the expansion again.  Run
        twice per program, so the compiled runs are checked too."""
        callee = asm([0x2A, 0, "MSTORE", 32, 0, "RETURN"])
        value = [0] if op == "CALL" else []

        def program(load_at):
            return asm(
                [256, 0, 0, 0, *value, address_to_int(CALLEE), 50_000, op, "POP"]
                + ["MSIZE", 0, "MSTORE", load_at, "MLOAD", 32, "MSTORE", 64, 0, "RETURN"]
            )

        seen = {}
        for load_at in (224, 0):
            genesis = make_genesis(program(load_at), callee)
            tx = make_tx(b"", 200_000, 0, 1)
            for _ in range(2):
                assert_same(genesis, tx)
            seen[load_at] = observe(EVM(), genesis, tx)
        tail, head = seen[224], seen[0]
        assert tail["success"] and int.from_bytes(tail["output"][:32], "big") == 256
        assert tail["gas_used"] == head["gas_used"]


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


# ---------------------------------------------------------------------- #
# the transaction envelope on every state surface                        #
# ---------------------------------------------------------------------- #

FRESH = address_from_int(0xF00D)  # no account at genesis
OUTSIDER = address_from_int(0xBAD)  # funded, but outside every footprint
#: what the guarded surfaces serve; anything else is a FootprintMiss, which
#: both sides must raise at the same access
FOOTPRINT = frozenset({SENDER, CONTRACT, CALLEE, FRESH, contract_address(SENDER, 0)})


def _surfaces(genesis):
    """Every state object ``apply_transaction`` runs on, as factories of a
    fresh one: ``name -> () -> (state, rw_of, state_of)``.  What a surface
    holds includes its journal's length (the mark a frame would take next),
    so an extra no-op write shows too."""

    def bare():
        db = StateDB(genesis)
        return db, lambda: None, lambda: (export_overlay(db), db.snapshot())

    def recording(base):
        def make():
            db = StateDB(base())
            rec = RecordingState(db)
            return (
                rec,
                lambda: (list(rec.rw.reads.items()), list(rec.rw.writes.items())),
                lambda: (export_overlay(db), db.snapshot()),
            )

        return make

    def keyed(build):
        def make():
            view = build()
            return (
                view,
                lambda: (list(view.reads.items()), list(view.writes.items())),
                lambda: (list(view.buffered_writes.items()), view.snapshot()),
            )

        return make

    # a committed prefix below the transaction: values it must read through
    overlay = {balance_key(CALLEE): 99, storage_key(CONTRACT, 0): 5}
    mv = {storage_key(CONTRACT, 1): ((0, 0, 123, False),)}
    return {
        "statedb": bare,
        "recording": recording(lambda: genesis),
        "recording-guarded": recording(lambda: GuardedSnapshot(genesis, FOOTPRINT)),
        "recording-slice": recording(lambda: SliceSnapshot(build_state_slice(genesis, FOOTPRINT))),
        "occ-store": keyed(lambda: OCCStateView(MultiVersionStore(genesis), 0)),
        "occ-wave-overlay": keyed(lambda: OCCStateView(_WaveOverlayStore(genesis, overlay), 0)),
        "block-stm": keyed(lambda: BlockSTMView(genesis, overlay, mv, 1)),
    }


SURFACES = list(_surfaces(None))


def observe_on(evm, make, tx):
    """Everything one execution shows on one surface — an invalid one too:
    its message, and what it recorded and wrote before it was refused."""
    state, rw_of, state_of = make()
    try:
        r = evm.apply_transaction(state, tx, CTX)
    except InvalidTransaction as exc:
        return ("invalid", str(exc), rw_of(), state_of())
    except FootprintMiss as exc:
        return ("footprint miss", exc.address, rw_of())
    fields = dataclasses.asdict(r)
    fields["error"] = error_class(r.error)
    fields["trace"] = list(r.trace.counts.items())
    return fields, rw_of(), state_of()


def assert_same_on(surface, genesis, tx):
    make = _surfaces(genesis)[surface]
    new, old = observe_on(EVM(), make, tx), observe_on(OracleEVM(), make, tx)
    assert new == old
    return new


def envelope_genesis(code=b"", callee=b""):
    genesis = make_genesis(code, callee)
    alloc = {address: genesis.account(address) for address in (SENDER, CONTRACT, CALLEE)}
    alloc[OUTSIDER] = AccountData(balance=10**21)
    return genesis_snapshot(alloc)


def tx_from(sender=SENDER, to=FRESH, value=0, data=b"", gas_limit=60_000, gas_price=3, nonce=0):
    return Transaction(sender=sender, to=to, value=value, data=data,
                       gas_limit=gas_limit, gas_price=gas_price, nonce=nonce)


#: (case id, transaction) — each a path through the envelope
ENVELOPE_CASES = [
    ("plain-transfer", tx_from(value=10**18)),
    ("bad-nonce-and-no-funds", tx_from(value=10**30, nonce=1)),
    ("intrinsic-over-limit-and-bad-nonce", tx_from(gas_limit=20_000, nonce=4)),
    ("intrinsic-over-limit-and-no-funds", tx_from(gas_limit=20_000, value=10**30)),
    ("gas-price-zero", tx_from(gas_price=0)),
    ("gas-price-zero-with-value", tx_from(gas_price=0, value=7)),
    ("value-to-self", tx_from(to=SENDER, value=10**18)),
    ("funds-cover-gas-not-value", tx_from(value=10**21)),
    ("create", tx_from(to=None, value=1, gas_limit=200_000,
                       data=contracts.deploy_initcode(asm([1, 0, "SSTORE"])))),
    ("call-with-value", tx_from(to=CONTRACT, value=5, data=b"\x01" * 36, gas_limit=200_000)),
    ("call-gas-price-zero", tx_from(to=CONTRACT, gas_price=0, gas_limit=200_000)),
]

#: a contract that reads what the surfaces' committed prefixes hold, pays
#: the callee and reverts half the time on calldata
ENVELOPE_CODE = asm(
    [0, "SLOAD", 1, "SLOAD", "ADD", 0, "SSTORE", address_to_int(CALLEE), "BALANCE", "POP",
     0, 0, 0, 0, 1, address_to_int(CALLEE), 50_000, "CALL", "POP",
     0, "CALLDATALOAD", ("jumpi", "bail"), "STOP", (":", "bail"), 0, 0, "REVERT"]
)


class TestEnvelopeOnEverySurface:
    """The one sender call, the depth-0 transfer and the refund against the
    parent's four-call prologue, on a fresh copy of each surface per side:
    result fields, trace order, rw-set insertion order, what was written,
    and the refusal message with what the refusal left recorded."""

    @pytest.mark.parametrize("surface", SURFACES)
    @pytest.mark.parametrize("case", ENVELOPE_CASES, ids=[case for case, _ in ENVELOPE_CASES])
    def test_each_envelope_path(self, surface, case):
        name, tx = case
        seen = assert_same_on(surface, envelope_genesis(ENVELOPE_CODE, b"\x00"), tx)
        if name.startswith(("bad-nonce", "intrinsic-over-limit-and-bad")):
            assert seen[1].startswith("nonce mismatch")
        elif name.startswith("intrinsic"):
            assert seen[1].startswith("intrinsic gas")
        elif name.startswith("funds"):
            assert seen[1].startswith("insufficient funds")
        else:
            assert seen[0]["gas_used"] > 0

    @pytest.mark.parametrize("surface", ["recording-guarded", "recording-slice"])
    def test_an_out_of_footprint_sender_is_a_footprint_miss(self, surface):
        seen = assert_same_on(surface, envelope_genesis(), tx_from(sender=OUTSIDER, value=1))
        assert seen[:2] == ("footprint miss", OUTSIDER)

    @pytest.mark.parametrize("surface", SURFACES)
    @settings(max_examples=40, **COMMON)
    @given(programs, programs, st.binary(max_size=36), gas_limits,
           st.sampled_from([0, 1, 10**18, 10**22]), st.sampled_from([0, 3]), st.sampled_from([0, 0, 1]))
    def test_generated_programs(self, surface, code, callee, data, gas_limit, value, gas_price, nonce):
        tx = tx_from(to=CONTRACT, value=value, data=data, gas_limit=gas_limit,
                     gas_price=gas_price, nonce=nonce)
        assert_same_on(surface, envelope_genesis(code, callee), tx)
