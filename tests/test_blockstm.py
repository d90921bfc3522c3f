"""Block-STM proposer engine: scheduling, convergence, oracle semantics.

The engine's contract (and what this module pins down):

* **Serializability in preset order** — replaying the committed
  transactions serially in commit order reproduces the materialised
  state exactly, under arbitrary contention and arbitrary fuzzed wave
  schedules.
* **Bit-identity across substrates** — the same workload produces the
  same sealed content on ``sim | serial | thread | process``; all
  scheduling decisions are parent-side.
* **Suspension, not abort storms** — hotspot chains convert stale-read
  retries into ESTIMATE suspensions; incarnations stay low.
* **Multiversion read witnesses** — every non-base read names an actual
  committed writer; the ``unwitnessed_read`` oracle rule (semantics
  picked by strategy) catches fabricated versions that the global
  snapshot-counter rules cannot see.
"""

import pytest

from repro.check.oracle import verify_commit_order, verify_schedule
from repro.common.types import address_from_int
from repro.core.blockstm import BlockSTMProposer
from repro.core.occ_wsi import ProposerConfig
from repro.core.strategies import STRATEGY_CHOICES, build_proposer
from repro.evm.interpreter import EVM, ExecutionContext
from repro.state.access import balance_key
from repro.state.account import AccountData
from repro.state.statedb import StateDB, genesis_snapshot
from repro.txpool.pool import TxPool
from repro.txpool.transaction import Transaction

pytestmark = pytest.mark.blockstm

ETHER = 10**18
CTX = ExecutionContext(block_number=1, timestamp=12)


def simple_world(n=12):
    eoas = [address_from_int(0x200 + i) for i in range(n)]
    return eoas, genesis_snapshot({a: AccountData(balance=ETHER) for a in eoas})


def payment(sender, to, nonce=0, price=10, value=100):
    return Transaction(sender, to, value, b"", 60_000, price, nonce)


def run_blockstm(base, txs, lanes=4, probe=None, backend=None, **cfg):
    pool = TxPool()
    pool.add_many(sorted(txs, key=lambda t: t.nonce))
    proposer = BlockSTMProposer(
        config=ProposerConfig(lanes=lanes, strategy="block-stm", **cfg),
        probe=probe,
        backend=backend,
    )
    return proposer.propose(base, pool, CTX), pool


def replay_serially(base, committed):
    db = StateDB(base)
    evm = EVM()
    for c in committed:
        evm.apply_transaction(db, c.tx, CTX)
    return db.commit()


class TestPacking:
    def test_packs_all_independent_txs(self):
        eoas, base = simple_world()
        txs = [payment(eoas[i], eoas[i + 6]) for i in range(6)]
        result, pool = run_blockstm(base, txs)
        assert len(result.committed) == 6
        assert len(pool) == 0
        assert result.stats.aborts == 0
        assert result.strategy == "block-stm"

    def test_versions_are_sequential(self):
        eoas, base = simple_world()
        txs = [payment(eoas[i], eoas[i + 6]) for i in range(6)]
        result, _ = run_blockstm(base, txs)
        assert [c.version for c in result.committed] == [1, 2, 3, 4, 5, 6]
        assert all(c.snapshot_version == c.version - 1 for c in result.committed)

    def test_gas_limit_returns_suffix_to_pool(self):
        eoas, base = simple_world()
        txs = [payment(eoas[i], eoas[i + 6]) for i in range(6)]
        result, pool = run_blockstm(base, txs, gas_limit=21000 * 2)
        assert 2 <= len(result.committed) <= 3
        assert len(pool) == 6 - len(result.committed)

    def test_same_sender_nonce_order_in_block(self):
        eoas, base = simple_world()
        txs = [payment(eoas[0], eoas[1], nonce=n, price=10 + n) for n in range(4)]
        result, _ = run_blockstm(base, txs)
        assert [c.tx.nonce for c in result.committed] == [0, 1, 2, 3]

    def test_invalid_tx_dropped(self):
        eoas, base = simple_world()
        bad = payment(eoas[0], eoas[1], value=100 * ETHER)  # unaffordable
        good = payment(eoas[2], eoas[3])
        result, _ = run_blockstm(base, [bad, good])
        assert len(result.committed) == 1
        assert result.invalid_dropped == 1

    def test_empty_pool(self):
        _, base = simple_world()
        result, _ = run_blockstm(base, [])
        assert result.committed == []
        assert result.stats.makespan == 0.0


class TestSuspension:
    """Hotspot chains become suspensions, not abort storms."""

    def hot_chain(self, n=8):
        eoas, base = simple_world(n + 2)
        hot = eoas[-1]
        return base, hot, [payment(eoas[i], hot) for i in range(n)]

    def test_hot_chain_commits_fully(self):
        base, hot, txs = self.hot_chain()
        result, _ = run_blockstm(base, txs, lanes=8)
        assert len(result.committed) == 8
        assert result.final_state().account(hot).balance == ETHER + 8 * 100
        # the dependency chain surfaced as estimates: suspensions and/or
        # validation aborts happened, but re-execution converged fast
        extra = result.stats.extra
        assert extra["suspensions"] + result.stats.aborts > 0
        assert extra["max_incarnation"] <= 3

    def test_suspensions_cheaper_than_occ_aborts(self):
        """Same hot chain: Block-STM must re-execute strictly less than
        OCC-WSI aborts-and-retries (the design claim, in miniature)."""
        from repro.core.occ_wsi import OCCWSIProposer

        base, _, txs = self.hot_chain()
        stm, _ = run_blockstm(base, txs, lanes=8)
        pool = TxPool()
        pool.add_many(sorted(txs, key=lambda t: t.nonce))
        occ = OCCWSIProposer(config=ProposerConfig(lanes=8)).propose(base, pool, CTX)
        assert stm.stats.aborts <= occ.stats.aborts
        assert stm.stats.total_work <= occ.stats.total_work

    def test_single_lane_never_suspends(self):
        base, _, txs = self.hot_chain()
        result, _ = run_blockstm(base, txs, lanes=1)
        assert result.stats.aborts == 0
        assert result.stats.extra["suspensions"] == 0

    def test_serializable_under_contention(self):
        base, _, txs = self.hot_chain()
        txs += [payment(txs[0].sender, txs[1].to, nonce=1)]
        result, _ = run_blockstm(base, txs, lanes=8)
        assert len(result.committed) == 9
        assert (
            replay_serially(base, result.committed).state_root()
            == result.final_state().state_root()
        )


class TestFuzzedSchedules:
    """Probe-steered wave schedules: every interleaving converges to the
    same block and passes the full conformance chain."""

    def test_width_one_waves_match_default(self, small_universe, small_generator):
        from repro.exec.hooks import ScheduleProbe

        class WidthOne(ScheduleProbe):
            def blockstm_wave_width(self, wave_index, max_width):
                return 1

        txs = small_generator.generate_block_txs()
        default, _ = run_blockstm(small_universe.genesis, txs, lanes=8)
        narrow, _ = run_blockstm(small_universe.genesis, txs, lanes=8, probe=WidthOne())
        assert [c.tx.hash for c in default.committed] == [
            c.tx.hash for c in narrow.committed
        ]
        assert (
            default.final_state().state_root() == narrow.final_state().state_root()
        )

    @pytest.mark.fuzz
    def test_seeded_schedules_conformant(self):
        from repro.check.fuzzer import ConformanceScenario, FuzzSchedule, run_schedule

        scenario = ConformanceScenario.hotspot(n_txs=12, seed=5, strategy="block-stm")
        for seed in range(12):
            failure = run_schedule(scenario, FuzzSchedule(seed=seed))
            assert failure is None, failure.describe()


class TestBackendBitIdentity:
    def _signature(self, result):
        return (
            tuple(bytes(c.tx.hash) for c in result.committed),
            tuple(
                (c.version, c.result.success, c.result.gas_used)
                for c in result.committed
            ),
            bytes(result.final_state(coinbase=CTX.coinbase).state_root()),
        )

    @pytest.mark.slow
    def test_identical_across_backends(self, small_universe, small_generator):
        from repro.exec import get_backend

        txs = small_generator.generate_block_txs()
        reference, _ = run_blockstm(small_universe.genesis, txs, lanes=4)
        want = self._signature(reference)
        for name in ("serial", "thread", "process"):
            backend = get_backend(name, 2)
            try:
                result, _ = run_blockstm(
                    small_universe.genesis, txs, lanes=4, backend=backend
                )
                assert self._signature(result) == want, name
            finally:
                backend.close()


class TestOracleSemantics:
    def build_proposal(self):
        eoas, base = simple_world()
        hot = eoas[-1]
        txs = [payment(eoas[i], hot) for i in range(4)]
        txs.append(payment(eoas[4], eoas[5]))
        result, _ = run_blockstm(base, txs, lanes=4)
        assert len(result.committed) == 5
        return base, result

    def test_commit_order_clean(self):
        _, result = self.build_proposal()
        report = verify_commit_order(result)
        assert report.ok, report.summary()
        assert report.strategy == "block-stm"

    def test_unwitnessed_read_flagged(self):
        """A read version pointing at a position that never wrote the key
        passes the snapshot rules but fails the multiversion witness."""
        _, result = self.build_proposal()
        # the disjoint payment read its sender balance from base (v0); no
        # committed tx wrote that key, so claiming v1 is unwitnessed
        victim = result.committed[-1]
        key = balance_key(victim.tx.sender)
        assert victim.rw.reads.get(key) == 0
        victim.rw.reads[key] = 1
        report = verify_commit_order(result)
        assert not report.ok
        assert any(v.kind == "unwitnessed_read" for v in report.violations)
        assert report.summary().startswith("[block-stm]")

    def test_snapshot_semantics_misses_it(self):
        """The identical mutation under occ-wsi (snapshot) semantics is
        invisible — which is exactly why block-stm needs the witness rule."""
        _, result = self.build_proposal()
        victim = result.committed[-1]
        key = balance_key(victim.tx.sender)
        victim.rw.reads[key] = 1
        object.__setattr__(result, "strategy", "occ-wsi")
        report = verify_commit_order(result)
        assert not any(v.kind == "unwitnessed_read" for v in report.violations)

    def test_verify_schedule_names_strategy(self, small_universe, small_generator):
        from repro.core.proposer import seal_block
        from repro.chain.blockchain import Blockchain

        txs = small_generator.generate_block_txs()
        pool = TxPool()
        pool.add_many(sorted(txs, key=lambda t: t.nonce))
        engine = build_proposer(ProposerConfig(lanes=4, strategy="block-stm"))
        genesis_header = Blockchain(small_universe.genesis).genesis.header
        ctx = ExecutionContext(
            block_number=1, timestamp=genesis_header.timestamp + 12
        )
        proposal = engine.propose(small_universe.genesis, pool, ctx)
        sealed = seal_block(
            proposal,
            genesis_header,
            coinbase=ctx.coinbase,
            timestamp=ctx.timestamp,
            gas_limit=engine.config.gas_limit,
        )
        report = verify_schedule(sealed.block, strategy="block-stm")
        assert report.ok, report.summary()
        assert report.strategy == "block-stm"
        assert report.summary().startswith("[block-stm]")


class TestStrategyRegistry:
    def test_choices_cover_engines(self):
        assert set(STRATEGY_CHOICES) == {"occ-wsi", "two-phase", "block-stm"}

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError, match="block-stm"):
            build_proposer(ProposerConfig(strategy="speculative-magic"))

    def test_builder_dispatch(self):
        from repro.core.occ_wsi import OCCWSIProposer
        from repro.core.strategies import TwoPhaseProposer

        assert isinstance(
            build_proposer(ProposerConfig(strategy="occ-wsi")), OCCWSIProposer
        )
        assert isinstance(
            build_proposer(ProposerConfig(strategy="two-phase")), TwoPhaseProposer
        )
        assert isinstance(
            build_proposer(ProposerConfig(strategy="block-stm")), BlockSTMProposer
        )
