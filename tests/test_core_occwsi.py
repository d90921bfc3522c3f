"""OCC-WSI proposer tests: packing, abort semantics, serializability.

The central property (checked here and relied on everywhere): replaying
the committed transactions *serially in commit order* over the same base
state reproduces exactly the state OCC-WSI materialises — i.e. the
parallel schedule is serializable and the block order is its witness.
"""


from repro.common.types import address_from_int
from repro.core import session
from repro.core.baselines import SerialExecutor
from repro.core.occ_wsi import OCCWSIProposer, ProposerConfig
from repro.evm.interpreter import EVM, ExecutionContext
from repro.state.account import AccountData
from repro.state.statedb import StateDB, genesis_snapshot
from repro.txpool.pool import TxPool
from repro.txpool.transaction import Transaction

ETHER = 10**18
CTX = ExecutionContext(block_number=1, timestamp=12)


def simple_world(n=10):
    eoas = [address_from_int(0x100 + i) for i in range(n)]
    return eoas, genesis_snapshot({a: AccountData(balance=ETHER) for a in eoas})


def payment(sender, to, nonce=0, price=10, value=100):
    return Transaction(sender, to, value, b"", 60_000, price, nonce)


def run_proposer(base, txs, lanes=4, **cfg):
    pool = TxPool()
    pool.add_many(sorted(txs, key=lambda t: t.nonce))
    proposer = OCCWSIProposer(config=ProposerConfig(lanes=lanes, **cfg))
    return proposer.propose(base, pool, CTX), pool


class TestPacking:
    def test_packs_all_independent_txs(self):
        eoas, base = simple_world()
        txs = [payment(eoas[i], eoas[i + 5]) for i in range(5)]
        result, pool = run_proposer(base, txs)
        assert len(result.committed) == 5
        assert len(pool) == 0
        assert result.stats.aborts == 0  # fully disjoint

    def test_versions_are_sequential(self):
        eoas, base = simple_world()
        txs = [payment(eoas[i], eoas[i + 5]) for i in range(5)]
        result, _ = run_proposer(base, txs)
        assert [c.version for c in result.committed] == [1, 2, 3, 4, 5]

    def test_gas_limit_respected(self):
        eoas, base = simple_world()
        txs = [payment(eoas[i], eoas[i + 5]) for i in range(5)]
        result, pool = run_proposer(base, txs, gas_limit=21000 * 2)
        # limit reached after ~2 txs; the rest stay pooled
        assert 2 <= len(result.committed) <= 3
        assert len(pool) == 5 - len(result.committed)

    def test_same_sender_nonce_order_in_block(self):
        eoas, base = simple_world()
        txs = [payment(eoas[0], eoas[1], nonce=n, price=10 + n) for n in range(4)]
        result, _ = run_proposer(base, txs)
        nonces = [c.tx.nonce for c in result.committed]
        assert nonces == [0, 1, 2, 3]

    def test_invalid_tx_dropped(self):
        eoas, base = simple_world()
        bad = payment(eoas[0], eoas[1], value=100 * ETHER)  # unaffordable
        good = payment(eoas[2], eoas[3])
        result, _ = run_proposer(base, [bad, good])
        assert len(result.committed) == 1
        assert result.invalid_dropped == 1

    def test_empty_pool(self):
        _, base = simple_world()
        result, _ = run_proposer(base, [])
        assert result.committed == []
        assert result.stats.makespan == 0.0


class TestConflicts:
    def test_conflicting_payments_all_commit(self):
        # many payments to the same receiver: balance read-write chain
        eoas, base = simple_world()
        hot = eoas[9]
        txs = [payment(eoas[i], hot) for i in range(8)]
        result, _ = run_proposer(base, txs, lanes=8)
        assert len(result.committed) == 8
        assert result.stats.aborts > 0  # contention produced retries
        final = result.final_state()
        assert final.account(hot).balance == ETHER + 8 * 100

    def test_single_lane_never_aborts(self):
        eoas, base = simple_world()
        hot = eoas[9]
        txs = [payment(eoas[i], hot) for i in range(8)]
        result, _ = run_proposer(base, txs, lanes=1)
        assert result.stats.aborts == 0

    def test_retries_exhausted_drops_tx(self, monkeypatch):
        monkeypatch.setattr(session, "MAX_RETRIES", 1)
        eoas, base = simple_world()
        hot = eoas[9]
        txs = [payment(eoas[i], hot) for i in range(6)]
        result, _ = run_proposer(base, txs, lanes=6)
        assert result.retries_exhausted > 0
        assert len(result.committed) + result.retries_exhausted == 6


class TestSerializability:
    def replay_serially(self, base, committed, coinbase=None):
        db = StateDB(base)
        evm = EVM()
        for c in committed:
            evm.apply_transaction(db, c.tx, CTX)
        return db.commit()

    def test_commit_order_replay_matches_parallel_state(self):
        eoas, base = simple_world()
        hot = eoas[9]
        txs = [payment(eoas[i], hot) for i in range(6)]
        txs += [payment(eoas[6], eoas[7]), payment(eoas[8], eoas[5])]
        result, _ = run_proposer(base, txs, lanes=8)
        assert len(result.committed) == 8
        parallel_state = result.final_state()
        serial_state = self.replay_serially(base, result.committed)
        assert parallel_state.state_root() == serial_state.state_root()

    def test_serializability_under_heavy_contention(self, small_universe, small_generator):
        txs = small_generator.generate_block_txs()
        result, pool = run_proposer(small_universe.genesis, txs, lanes=16)
        assert len(pool) == 0
        parallel_state = result.final_state()
        ctx = CTX
        db = StateDB(small_universe.genesis)
        evm = EVM()
        for c in result.committed:
            evm.apply_transaction(db, c.tx, ctx)
        assert db.commit().state_root() == parallel_state.state_root()

    def test_rw_sets_match_serial_replay(self, small_universe, small_generator):
        """The profile rw-sets the proposer publishes are exactly what a
        serial re-execution in block order observes (what Algorithm 2
        checks on the validator side)."""
        from repro.state.access import RecordingState

        txs = small_generator.generate_block_txs()
        result, _ = run_proposer(small_universe.genesis, txs, lanes=16)
        db = StateDB(small_universe.genesis)
        evm = EVM()
        for c in result.committed:
            rec = RecordingState(db)
            replay = evm.apply_transaction(rec, c.tx, CTX)
            assert replay.gas_used == c.result.gas_used
            assert replay.success == c.result.success
            assert set(rec.rw.reads) == set(c.rw.reads)
            assert rec.rw.writes == c.rw.writes


class TestStatsAndDeterminism:
    def test_parallel_not_slower_than_serial_often(self, small_universe, small_generator):
        txs = small_generator.generate_block_txs()
        result, _ = run_proposer(small_universe.genesis, txs, lanes=8)
        serial = SerialExecutor()
        pool = TxPool()
        pool.add_many(sorted(txs, key=lambda t: t.nonce))
        sres = serial.propose_serial(small_universe.genesis, pool, CTX)
        assert result.stats.makespan < sres.total_time

    def test_deterministic_given_same_inputs(self, small_universe, small_generator):
        txs = small_generator.generate_block_txs()
        r1, _ = run_proposer(small_universe.genesis, txs, lanes=8)
        r2, _ = run_proposer(small_universe.genesis, txs, lanes=8)
        assert [c.tx.hash for c in r1.committed] == [c.tx.hash for c in r2.committed]
        assert r1.stats.makespan == r2.stats.makespan
        assert r1.final_state().state_root() == r2.final_state().state_root()

    def test_stats_consistency(self):
        eoas, base = simple_world()
        txs = [payment(eoas[i], eoas[9]) for i in range(5)]
        result, _ = run_proposer(base, txs, lanes=4)
        assert result.stats.tasks == len(result.committed) + result.stats.aborts
        assert result.stats.extra["committed"] == len(result.committed)

    def test_fees_accumulated(self):
        eoas, base = simple_world()
        txs = [payment(eoas[i], eoas[i + 5], price=7) for i in range(3)]
        result, _ = run_proposer(base, txs)
        assert result.total_fees == 3 * 21000 * 7

    def test_final_state_with_coinbase(self):
        eoas, base = simple_world()
        coinbase = address_from_int(0xFEE)
        txs = [payment(eoas[0], eoas[1], price=2)]
        result, _ = run_proposer(base, txs)
        state = result.final_state(coinbase=coinbase)
        assert state.account(coinbase).balance == 21000 * 2
