"""Cross-strategy equivalence: one workload, three engines, one answer.

What "equivalent" means here, precisely:

* On **commutative workloads** (plain value transfers — the final state
  is order-independent): identical committed transaction sets, identical
  per-transaction receipts, and identical final state roots across
  ``occ-wsi | two-phase | block-stm``, on every execution backend.
* On **arbitrary workloads** (contract calls whose storage writes are
  order-dependent): each strategy is individually serializable — its own
  commit order replayed serially reproduces its own root — and all
  strategies commit the same transaction set.  Roots may legitimately
  differ: OCC-WSI commits in discovery order, the other two in (mostly)
  preset order, and both are valid serializations.
"""

import pytest

from repro.common.types import address_from_int
from repro.core.occ_wsi import ProposerConfig
from repro.core.strategies import STRATEGY_CHOICES, build_proposer
from repro.evm.interpreter import EVM, ExecutionContext
from repro.state.account import AccountData
from repro.state.statedb import StateDB, genesis_snapshot
from repro.txpool.pool import TxPool
from repro.txpool.transaction import Transaction

pytestmark = pytest.mark.blockstm

ETHER = 10**18
CTX = ExecutionContext(block_number=1, timestamp=12)


def propose(strategy, base, txs, lanes=8, backend=None):
    pool = TxPool()
    pool.add_many(sorted(txs, key=lambda t: t.nonce))
    engine = build_proposer(
        ProposerConfig(lanes=lanes, strategy=strategy, strict_checks=True),
        backend=backend,
    )
    return engine.propose(base, pool, CTX)


def receipts_by_hash(result):
    return {
        bytes(c.tx.hash): (c.result.success, c.result.gas_used, c.result.fee)
        for c in result.committed
    }


def commutative_workload(n=14, hot_share=0.5):
    """Plain transfers, half aimed at one hot receiver: contended but
    order-independent (sums commute)."""
    eoas = [address_from_int(0x300 + i) for i in range(n + 2)]
    base = genesis_snapshot({a: AccountData(balance=ETHER) for a in eoas})
    hot = eoas[-1]
    txs = []
    for i in range(n):
        to = hot if i < n * hot_share else eoas[(i + 1) % n]
        txs.append(Transaction(eoas[i], to, 100 + i, b"", 60_000, 10, 0))
    return base, txs


class TestCommutativeEquivalence:
    def test_roots_receipts_and_sets_match(self):
        base, txs = commutative_workload()
        results = {s: propose(s, base, txs) for s in STRATEGY_CHOICES}
        roots = {
            s: bytes(r.final_state(coinbase=CTX.coinbase).state_root())
            for s, r in results.items()
        }
        assert len(set(roots.values())) == 1, roots
        receipt_maps = [receipts_by_hash(r) for r in results.values()]
        assert receipt_maps[0] == receipt_maps[1] == receipt_maps[2]
        committed_sets = {
            s: frozenset(bytes(c.tx.hash) for c in r.committed)
            for s, r in results.items()
        }
        assert len(set(committed_sets.values())) == 1

    @pytest.mark.slow
    def test_equivalent_on_every_backend(self):
        from repro.exec import get_backend

        base, txs = commutative_workload(n=10)
        want = None
        for strategy in STRATEGY_CHOICES:
            for name in (None, "serial", "thread"):
                backend = get_backend(name or "sim", 2)
                try:
                    result = propose(strategy, base, txs, lanes=4, backend=backend)
                    root = bytes(
                        result.final_state(coinbase=CTX.coinbase).state_root()
                    )
                    if want is None:
                        want = (root, receipts_by_hash(result))
                    else:
                        assert (root, receipts_by_hash(result)) == want, (
                            strategy,
                            name,
                        )
                finally:
                    if backend is not None:
                        backend.close()


class TestArbitraryWorkloadEquivalence:
    def replay(self, base, committed):
        db = StateDB(base)
        evm = EVM()
        for c in committed:
            evm.apply_transaction(db, c.tx, CTX)
        return db.commit()

    def test_each_strategy_serializable_same_committed_set(
        self, small_universe, small_generator
    ):
        txs = small_generator.generate_block_txs()
        sets = {}
        for strategy in STRATEGY_CHOICES:
            result = propose(strategy, small_universe.genesis, txs, lanes=16)
            # own commit order replayed serially == own materialised state
            assert (
                self.replay(small_universe.genesis, result.committed).state_root()
                == result.final_state().state_root()
            ), strategy
            sets[strategy] = frozenset(bytes(c.tx.hash) for c in result.committed)
        assert len(set(sets.values())) == 1, {s: len(v) for s, v in sets.items()}

    def test_deterministic_per_strategy(self, small_universe, small_generator):
        txs = small_generator.generate_block_txs()
        for strategy in STRATEGY_CHOICES:
            r1 = propose(strategy, small_universe.genesis, txs)
            r2 = propose(strategy, small_universe.genesis, txs)
            assert [c.tx.hash for c in r1.committed] == [
                c.tx.hash for c in r2.committed
            ]
            assert r1.stats.makespan == r2.stats.makespan
            assert (
                r1.final_state().state_root() == r2.final_state().state_root()
            )


class TestHotspotProperties:
    """Seeded hotspot sweeps: ESTIMATE/suspend bookkeeping invariants."""

    def hotspot(self, seed, n=16):
        import random

        rng = random.Random(seed)
        eoas = [address_from_int(0x400 + i) for i in range(n + 4)]
        base = genesis_snapshot({a: AccountData(balance=ETHER) for a in eoas})
        hot = eoas[-1]
        txs = [
            Transaction(
                eoas[i],
                hot if rng.random() < 0.75 else eoas[rng.randrange(n)],
                rng.randrange(50, 500),
                b"",
                60_000,
                10,
                0,
            )
            for i in range(n)
        ]
        return base, txs

    def test_suspend_invariants_over_seeds(self):
        for seed in range(8):
            base, txs = self.hotspot(seed)
            result = propose("block-stm", base, txs, lanes=8)
            extra = result.stats.extra
            assert len(result.committed) == len(txs)
            # every suspension belongs to an execution attempt that later
            # re-ran; executions = commits + validation aborts
            assert result.stats.tasks == len(result.committed) + result.stats.aborts
            # convergence stayed shallow: incarnations are bounded by the
            # abort count, and waves by executions
            assert extra["max_incarnation"] <= max(1, result.stats.aborts)
            assert extra["waves"] <= result.stats.tasks + extra["suspensions"] + 1

    def test_blockstm_wastes_less_than_occ_under_hotspot(self):
        total_stm = total_occ = 0.0
        for seed in range(4):
            base, txs = self.hotspot(seed)
            stm = propose("block-stm", base, txs, lanes=8)
            occ = propose("occ-wsi", base, txs, lanes=8)
            total_stm += stm.stats.total_work
            total_occ += occ.stats.total_work
        assert total_stm <= total_occ
