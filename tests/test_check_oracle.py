"""Serializability oracle: honest blocks prove clean, reordered blocks don't.

Covers the local invariants (future/stale reads) on synthetic rw-sets, the
cycle search, sealed blocks from the paper's benchmark scenarios (Fig. 6/7a
single blocks, Fig. 9 multi-block chains, Fig. 8 hotspot intensities), the
swap-two-conflicting-transactions rejection with a cycle witness, and the
``strict_checks`` post-propose hook on both proposer paths.
"""

import dataclasses
import types

import pytest

from repro.chain.block import BlockProfile
from repro.check.oracle import (
    ConflictEdge,
    ScheduleReport,
    ScheduleViolation,
    ScheduleViolationError,
    _check_entries,
    _find_cycle,
    verify_commit_order,
    verify_schedule,
)
from repro.common.types import address, address_from_int
from repro.core.occ_wsi import OCCWSIProposer, ProposerConfig
from repro.evm.interpreter import ExecutionContext
from repro.exec import ThreadBackend
from repro.network.node import ProposerNode
from repro.state.access import balance_key, storage_key
from repro.txpool.pool import TxPool
from repro.workload.generator import BlockWorkloadGenerator
from repro.workload.scenarios import hotspot_scenario

K1 = balance_key(address_from_int(1))
K2 = storage_key(address_from_int(2), 7)


def _ctx():
    return ExecutionContext(
        block_number=1,
        timestamp=1_000,
        coinbase=address(b"\xcc" * 20),
        gas_limit=30_000_000,
    )


class TestLocalInvariants:
    def test_clean_pipeline_is_serializable(self):
        # t1 writes K1 from the base snapshot; t2 observes it at snapshot 1
        entries = [
            (((K2, 0),), (K1,)),
            (((K1, 1),), (K2,)),
        ]
        report = _check_entries(entries)
        assert report.ok
        assert ("wr", 1, 2) in [(e.kind, e.src, e.dst) for e in report.edges]

    def test_disjoint_txs_have_no_edges(self):
        entries = [
            (((K1, 0),), (K1,)),
            (((K2, 0),), (K2,)),
        ]
        report = _check_entries(entries)
        assert report.ok
        assert report.edges == []

    def test_future_read_rejected(self):
        # position 1 claiming snapshot 1 means it observed its own commit
        report = _check_entries([(((K1, 1),), ())])
        assert not report.ok
        assert [v.kind for v in report.violations] == ["future_read"]
        assert report.violations[0].tx == 1

    def test_stale_read_rejected_with_two_cycle_witness(self):
        # t1 writes K1 as version 1; t2 read K1 at snapshot 0, i.e. it
        # missed the write it was supposed to see — OCC-WSI would abort
        entries = [
            ((), (K1,)),
            (((K1, 0),), ()),
        ]
        report = _check_entries(entries)
        assert not report.ok
        stale = [v for v in report.violations if v.kind == "stale_read"]
        assert len(stale) == 1
        witness_kinds = {(e.kind, e.src, e.dst) for e in stale[0].witness}
        assert ("wr", 1, 2) in witness_kinds
        assert ("rw", 2, 1) in witness_kinds
        assert report.cycle is not None

    def test_base_snapshot_reads_always_legal(self):
        # reads at snapshot 0 of never-written keys observe genesis: fine
        report = _check_entries([(((K1, 0), (K2, 0)), ())])
        assert report.ok

    def test_ww_edges_follow_version_order(self):
        entries = [((), (K1,)), ((), (K1,)), ((), (K1,))]
        report = _check_entries(entries)
        assert report.ok
        ww = [(e.src, e.dst) for e in report.edges if e.kind == "ww"]
        assert ww == [(1, 2), (2, 3)]


class TestCycleSearch:
    def _edges(self, *pairs):
        return [ConflictEdge(a, b, "rw", K1) for a, b in pairs]

    def test_acyclic_returns_none(self):
        assert _find_cycle(4, self._edges((1, 2), (2, 3), (1, 4))) is None

    def test_simple_cycle_found_as_edge_path(self):
        cycle = _find_cycle(3, self._edges((1, 2), (2, 3), (3, 1)))
        assert cycle is not None
        assert [e.src for e in cycle] == [1, 2, 3]
        assert cycle[-1].dst == cycle[0].src

    def test_cycle_off_the_main_path(self):
        cycle = _find_cycle(5, self._edges((1, 2), (3, 4), (4, 5), (5, 3)))
        assert cycle is not None
        assert {e.src for e in cycle} == {3, 4, 5}

    def test_self_loops_ignored(self):
        assert _find_cycle(2, self._edges((1, 1), (1, 2))) is None


class TestSealedBlocks:
    def _sealed(self, universe, chain, txs):
        return ProposerNode("oracle-test").build_block(
            chain.genesis.header, universe.genesis, txs
        )

    def test_benchmark_block_proves_serializable(
        self, small_universe, small_generator, genesis_chain
    ):
        # the Fig. 6 / Fig. 7(a) unit of work: one contended block
        sealed = self._sealed(
            small_universe, genesis_chain, small_generator.generate_block_txs()
        )
        report = verify_schedule(sealed.block)
        assert report.ok, report.summary()
        assert report.n_txs == len(sealed.block.transactions)
        assert sum(report.edge_counts().values()) > 0, (
            "benchmark workload should carry real conflicts"
        )

    def test_multi_block_chain_proves_serializable(
        self, small_universe, small_generator, genesis_chain
    ):
        # the Fig. 9 shape: consecutive blocks, each from its parent state
        from repro.core.baselines import SerialExecutor

        serial = SerialExecutor()
        parent_header = genesis_chain.genesis.header
        parent_state = small_universe.genesis
        for _ in range(3):
            txs = small_generator.generate_block_txs()
            sealed = ProposerNode("chain").build_block(
                parent_header, parent_state, txs
            )
            assert verify_schedule(sealed.block).ok
            sres = serial.execute_block(sealed.block, parent_state)
            parent_header = sealed.block.header
            parent_state = sres.post_state

    @pytest.mark.parametrize("intensity", [0.0, 1.0])
    def test_hotspot_extremes_prove_serializable(
        self, small_universe, genesis_chain, intensity
    ):
        generator = BlockWorkloadGenerator(
            small_universe, hotspot_scenario(intensity, seed=3)
        )
        sealed = self._sealed(
            small_universe, genesis_chain, generator.generate_block_txs()
        )
        assert verify_schedule(sealed.block).ok

    def test_swapped_conflicting_txs_rejected_with_cycle_witness(
        self, small_universe, small_generator, genesis_chain
    ):
        sealed = self._sealed(
            small_universe, genesis_chain, small_generator.generate_block_txs()
        )
        block = sealed.block
        honest = verify_schedule(block)
        conflicts = [
            (e.src, e.dst) for e in honest.edges if e.kind in ("wr", "ww")
        ]
        assert conflicts, "need at least one dependent pair to swap"
        src, dst = conflicts[0]
        order = list(range(len(block.transactions)))
        order[src - 1], order[dst - 1] = order[dst - 1], order[src - 1]
        reordered = dataclasses.replace(
            block,
            transactions=tuple(block.transactions[i] for i in order),
            profile=BlockProfile(
                entries=tuple(block.profile.entries[i] for i in order)
            ),
        )
        report = verify_schedule(reordered)
        assert not report.ok
        assert report.cycle is not None, "violation must carry a cycle witness"
        # the witness names the swapped conflict, in reordered positions
        touched = {e.src for e in report.cycle} | {e.dst for e in report.cycle}
        assert touched & {src, dst}

    def test_missing_profile_is_a_violation(
        self, small_universe, small_generator, genesis_chain
    ):
        sealed = self._sealed(
            small_universe, genesis_chain, small_generator.generate_block_txs()
        )
        stripped = dataclasses.replace(sealed.block, profile=None)
        report = verify_schedule(stripped)
        assert not report.ok
        assert report.violations[0].kind == "missing_profile"


class TestCommitOrder:
    def _propose(self, universe, generator, backend=None, **cfg):
        pool = TxPool()
        pool.add_many(generator.generate_block_txs())
        proposer = OCCWSIProposer(
            config=ProposerConfig(lanes=4, **cfg), backend=backend
        )
        return proposer.propose(universe.genesis, pool, _ctx())

    def test_live_proposal_verifies(self, small_universe, small_generator):
        result = self._propose(small_universe, small_generator)
        report = verify_commit_order(result)
        assert report.ok, report.summary()

    def test_strict_checks_pass_on_sim_path(self, small_universe, small_generator):
        result = self._propose(small_universe, small_generator, strict_checks=True)
        assert result.committed

    def test_strict_checks_pass_on_backend_path(
        self, small_universe, small_generator
    ):
        with ThreadBackend(2) as backend:
            result = self._propose(
                small_universe, small_generator, backend=backend, strict_checks=True
            )
        assert result.committed

    def test_store_drift_reported(self, small_universe, small_generator):
        result = self._propose(small_universe, small_generator)
        honest = result.store.key_versions()
        drifted = dict(honest)
        drifted.pop(next(iter(drifted)))

        class DriftedStore:
            def key_versions(self):
                return drifted

        fake = types.SimpleNamespace(
            committed=result.committed, store=DriftedStore()
        )
        report = verify_commit_order(fake)
        assert not report.ok
        assert any(v.kind == "store_mismatch" for v in report.violations)

    def test_strict_checks_raise_on_violation(
        self, small_universe, small_generator, monkeypatch
    ):
        failing = ScheduleReport(ok=False, n_txs=1)
        failing.violations.append(
            ScheduleViolation("stale_read", 1, K1, "injected for test")
        )
        monkeypatch.setattr(
            "repro.check.oracle.verify_commit_order", lambda result: failing
        )
        with pytest.raises(ScheduleViolationError) as exc:
            self._propose(small_universe, small_generator, strict_checks=True)
        assert exc.value.report is failing
        assert "stale_read" in str(exc.value)

    def test_without_strict_checks_nothing_raises(
        self, small_universe, small_generator, monkeypatch
    ):
        failing = ScheduleReport(ok=False, n_txs=1)
        failing.violations.append(
            ScheduleViolation("stale_read", 1, K1, "injected for test")
        )
        monkeypatch.setattr(
            "repro.check.oracle.verify_commit_order", lambda result: failing
        )
        result = self._propose(small_universe, small_generator)
        assert result.committed
