"""Property-based tests of the core concurrency invariants.

Random miniature worlds (few accounts, random payments and counter
contracts, random gas prices) are pushed through the full OCC-WSI →
seal → validate loop; hypothesis shrinks any violating schedule.
"""

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chain.blockchain import Blockchain
from repro.common.types import address_from_int
from repro.core.occ_wsi import OCCWSIProposer, ProposerConfig
from repro.core.proposer import seal_block
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.evm.asm import asm
from repro.evm.interpreter import EVM, ExecutionContext
from repro.state.account import AccountData
from repro.state.statedb import StateDB, genesis_snapshot
from repro.txpool.pool import TxPool
from repro.txpool.transaction import Transaction

ETHER = 10**18
N_ACCOUNTS = 6
ACCOUNTS = [address_from_int(0x500 + i) for i in range(N_ACCOUNTS)]
COUNTER = address_from_int(0x7777)
#: bump(): slot0 += 1 — the purest §2.3 counter conflict
COUNTER_CODE = asm([0, "SLOAD", 1, "ADD", 0, "SSTORE", "STOP"])
CTX = ExecutionContext(block_number=1, timestamp=5)


def base_state():
    alloc = {a: AccountData(balance=100 * ETHER) for a in ACCOUNTS}
    alloc[COUNTER] = AccountData(code=COUNTER_CODE)
    return genesis_snapshot(alloc)


@st.composite
def tx_batches(draw):
    """A random valid batch: per-sender nonce chains, mixed payment/bump."""
    n = draw(st.integers(1, 25))
    nonces = {a: 0 for a in ACCOUNTS}
    txs = []
    for _ in range(n):
        sender = ACCOUNTS[draw(st.integers(0, N_ACCOUNTS - 1))]
        nonce = nonces[sender]
        nonces[sender] += 1
        price = draw(st.integers(1, 50))
        if draw(st.booleans()):
            to = ACCOUNTS[draw(st.integers(0, N_ACCOUNTS - 1))]
            txs.append(
                Transaction(sender, to, draw(st.integers(0, 1000)), b"", 60_000, price, nonce)
            )
        else:
            txs.append(Transaction(sender, COUNTER, 0, b"", 100_000, price, nonce))
    return txs


@st.composite
def batches_and_lanes(draw):
    return draw(tx_batches()), draw(st.integers(1, 8))


class TestOCCWSIProperties:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(batches_and_lanes())
    def test_serializable_and_complete(self, data):
        """Every batch fully packs; commit-order serial replay reproduces
        the parallel state; per-sender nonces appear in order."""
        txs, lanes = data
        base = base_state()
        pool = TxPool()
        pool.add_many(sorted(txs, key=lambda t: t.nonce))
        proposer = OCCWSIProposer(config=ProposerConfig(lanes=lanes))
        result = proposer.propose(base, pool, CTX)

        # completeness: everything valid got packed
        assert len(result.committed) == len(txs)
        assert len(pool) == 0

        # per-sender order preserved
        seen = {}
        for c in result.committed:
            expected = seen.get(c.tx.sender, 0)
            assert c.tx.nonce == expected
            seen[c.tx.sender] = expected + 1

        # serializability witness
        parallel_root = result.final_state().state_root()
        db = StateDB(base)
        evm = EVM()
        for c in result.committed:
            evm.apply_transaction(db, c.tx, CTX)
        assert db.commit().state_root() == parallel_root

        # the counter ends exactly at the number of bump transactions —
        # no lost updates despite write-write racing
        bumps = sum(1 for t in txs if t.to == COUNTER)
        final = result.final_state()
        counter_acct = final.account(COUNTER)
        observed = counter_acct.storage.get(0, 0) if counter_acct else 0
        assert observed == bumps

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(batches_and_lanes())
    def test_sealed_block_always_validates(self, data):
        """Any OCC-WSI output, sealed, is accepted by the validator at any
        thread count (determinism across contexts, §3.3)."""
        txs, lanes = data
        base = base_state()
        pool = TxPool()
        pool.add_many(sorted(txs, key=lambda t: t.nonce))
        proposer = OCCWSIProposer(config=ProposerConfig(lanes=lanes))
        result = proposer.propose(base, pool, CTX)
        chain = Blockchain(base)
        sealed = seal_block(
            result,
            chain.genesis.header,
            coinbase=address_from_int(0xFEE),
            timestamp=5,
            gas_limit=30_000_000,
        )
        validator = ParallelValidator(config=ValidatorConfig(lanes=3))
        res = validator.validate_block(sealed.block, base)
        assert res.accepted, res.reason
        assert res.post_state.state_root() == sealed.block.header.state_root

    @settings(max_examples=20, deadline=None)
    @given(tx_batches())
    def test_lane_count_never_changes_packed_set(self, txs):
        """Different lane counts pick different serializable orders, but the
        packed transaction *set* and the application-level outcome (counter
        value, value transfers) are identical.

        Note: full state roots may legitimately differ across orders —
        SSTORE gas depends on the slot's prior value (20000 to set, 5000 to
        reset), so *fees* are schedule-dependent.  With zero gas prices that
        channel closes and the roots must coincide exactly.
        """
        zero_fee = [dataclasses.replace(t, gas_price=0) for t in txs]
        roots = set()
        packed_sets = []
        counters = set()
        for lanes in (1, 4, 7):
            base = base_state()
            pool = TxPool()
            pool.add_many(sorted(zero_fee, key=lambda t: t.nonce))
            result = OCCWSIProposer(config=ProposerConfig(lanes=lanes)).propose(
                base, pool, CTX
            )
            packed_sets.append({c.tx.hash for c in result.committed})
            final = result.final_state()
            roots.add(final.state_root())
            counter_acct = final.account(COUNTER)
            counters.add(counter_acct.storage.get(0, 0) if counter_acct else 0)
        assert packed_sets[0] == packed_sets[1] == packed_sets[2]
        assert len(counters) == 1
        assert len(roots) == 1
