"""Recovery edge cases: fresh dirs, snapshots, forks, double restarts."""

import dataclasses
import gc
import hashlib
import os

import pytest

from repro.chain.blockchain import Blockchain
from repro.state.serialize import snapshot_to_json
from repro.store import (
    GC_GEN0_THRESHOLD,
    DiskStore,
    Manifest,
    SnapshotCorruptError,
    StoreError,
    chain_digest,
    encode_header,
    open_store,
    recover,
)

pytestmark = pytest.mark.store


def _populate(data_dir, genesis_state, pairs, **kwargs):
    """Write ``pairs`` through a DiskStore and close it (no seal)."""
    store = DiskStore(str(data_dir), fsync=False, **kwargs)
    chain = Blockchain(genesis_state, store=store)
    store.initialize(encode_header(chain.genesis.header), genesis_state)
    for block, post_state in pairs:
        chain.add_block(block, post_state)
    store.close()
    return chain


class TestFreshDir:
    def test_empty_dir_starts_from_genesis(self, tmp_path, small_universe):
        result = recover(str(tmp_path / "empty"), small_universe.genesis)
        assert result.fresh is True
        assert result.chain.height() == 0
        assert result.replayed == 0
        assert result.chain.head.header.state_root == (
            small_universe.genesis.state_root()
        )

    def test_empty_dir_without_genesis_refused(self, tmp_path):
        with pytest.raises(StoreError):
            recover(str(tmp_path / "empty"))


class TestRoundTrip:
    def test_unsealed_dir_recovers_every_block(
        self, tmp_path, small_universe, build_chain
    ):
        pairs = build_chain(4)
        original = _populate(
            tmp_path / "node", small_universe.genesis, pairs, snapshot_interval=0
        )
        result = recover(str(tmp_path / "node"), small_universe.genesis)
        assert result.fresh is False
        assert result.replayed == 4
        assert not (result.manifest.clean and not result.healed)  # never sealed
        assert chain_digest(result.chain.canonical_chain()) == chain_digest(
            original.canonical_chain()
        )

    def test_sealed_dir_reports_clean(self, tmp_path, small_universe, build_chain):
        store = DiskStore(str(tmp_path / "node"), fsync=False, snapshot_interval=0)
        chain = Blockchain(small_universe.genesis, store=store)
        store.initialize(
            encode_header(chain.genesis.header), small_universe.genesis
        )
        for block, post_state in build_chain(2):
            chain.add_block(block, post_state)
        store.seal()
        store.close()
        result = recover(str(tmp_path / "node"), small_universe.genesis)
        assert result.manifest.clean and not result.healed
        assert result.chain.height() == 2

    def test_recovery_verifies_roots_by_reexecution(
        self, tmp_path, small_universe, build_chain
    ):
        _populate(
            tmp_path / "node",
            small_universe.genesis,
            build_chain(3),
            snapshot_interval=0,
        )
        result = recover(str(tmp_path / "node"), small_universe.genesis)
        # every replayed block's root was re-derived, not trusted
        assert result.replayed == 3
        for block in result.chain.canonical_chain()[1:]:
            state = result.chain.state_at(block.hash)
            assert state.state_root() == block.header.state_root


class TestSnapshotBoot:
    def test_snapshot_with_no_log_tail(self, tmp_path, small_universe, build_chain):
        # snapshot lands on the final block; compaction empties the log
        pairs = build_chain(4)
        original = _populate(
            tmp_path / "node", small_universe.genesis, pairs, snapshot_interval=4
        )
        result = recover(str(tmp_path / "node"), small_universe.genesis)
        assert result.base_height == 4
        assert result.replayed == 0
        assert result.chain.height() == 4
        assert result.chain.head.hash == original.head.hash
        assert result.chain.head.header == original.head.header

    def test_log_tail_replays_on_top_of_snapshot(
        self, tmp_path, small_universe, build_chain
    ):
        pairs = build_chain(5)
        original = _populate(
            tmp_path / "node", small_universe.genesis, pairs, snapshot_interval=2
        )
        result = recover(str(tmp_path / "node"), small_universe.genesis)
        assert result.base_height == 4
        assert result.replayed == 1
        assert result.chain.head.hash == original.head.hash
        # the recovered suffix is byte-identical to the original's
        skip = result.base_height  # original chain includes genesis at [0]
        assert chain_digest(
            original.canonical_chain()[skip + 1 :]
        ) == chain_digest(result.chain.canonical_chain()[1:])

    def test_log_with_no_snapshot_replays_from_genesis(
        self, tmp_path, small_universe, build_chain
    ):
        _populate(
            tmp_path / "node",
            small_universe.genesis,
            build_chain(3),
            snapshot_interval=0,
        )
        # strip the snapshot reference and delete the file: recovery must
        # fall back to the supplied genesis state and replay the full log
        manifest = Manifest.load(str(tmp_path / "node"))
        os.remove(tmp_path / "node" / manifest.snapshot.file)
        manifest.snapshot = None
        manifest.write(str(tmp_path / "node"), fsync=False)
        result = recover(str(tmp_path / "node"), small_universe.genesis)
        assert result.base_height == 0
        assert result.replayed == 3
        assert result.chain.height() == 3

    def test_a_json_snapshot_from_an_older_version_is_refused(
        self, tmp_path, small_universe, build_chain
    ):
        """Earlier versions wrote the snapshot as a JSON document: its
        digest still matches, but the store reads one format and names the
        other unsupported rather than falling back to a second reader."""
        data_dir = tmp_path / "node"
        _populate(data_dir, small_universe.genesis, build_chain(2), snapshot_interval=0)
        manifest = Manifest.load(str(data_dir))
        os.remove(data_dir / manifest.snapshot.file)
        raw = snapshot_to_json(small_universe.genesis, note="height=0").encode()
        (data_dir / "snapshot_00000000.json").write_bytes(raw)
        manifest.snapshot = dataclasses.replace(
            manifest.snapshot,
            file="snapshot_00000000.json",
            sha256=hashlib.sha256(raw).hexdigest(),
        )
        manifest.write(str(data_dir), fsync=False, both=True)
        with pytest.raises(SnapshotCorruptError, match="unsupported format"):
            recover(str(data_dir), small_universe.genesis)


class TestForks:
    def test_abandoned_sibling_replays_as_non_head(
        self, tmp_path, small_universe, build_chain, small_generator
    ):
        from repro.core.baselines import SerialExecutor
        from repro.network.node import ProposerNode

        pairs = build_chain(2)
        store = DiskStore(str(tmp_path / "node"), fsync=False, snapshot_interval=0)
        chain = Blockchain(small_universe.genesis, store=store)
        store.initialize(
            encode_header(chain.genesis.header), small_universe.genesis
        )
        chain.add_block(*pairs[0])
        # a losing sibling of block 1 from a different proposer: persisted
        # (head=False) and replayed on recovery without stealing the head
        rival = ProposerNode("rival")
        txs = small_generator.generate_block_txs()
        sealed = rival.build_block(
            chain.genesis.header, small_universe.genesis, txs
        )
        sres = SerialExecutor().execute_block(sealed.block, small_universe.genesis)
        assert chain.add_block(sealed.block, sres.post_state) is False
        chain.add_block(*pairs[1])
        store.close()

        result = recover(str(tmp_path / "node"), small_universe.genesis)
        assert result.replayed == 3
        assert result.chain.head.hash == chain.head.hash
        assert sealed.block.hash in result.chain
        assert result.chain.uncle_count() == 1

    def test_sibling_below_snapshot_horizon_is_skipped_not_silent(
        self, tmp_path, small_universe, build_chain, small_generator
    ):
        from repro.core.baselines import SerialExecutor
        from repro.network.node import ProposerNode

        pairs = build_chain(2)
        store = DiskStore(
            str(tmp_path / "node"),
            fsync=False,
            snapshot_interval=2,
            compact=False,  # keep the fork record in the log
        )
        chain = Blockchain(small_universe.genesis, store=store)
        store.initialize(
            encode_header(chain.genesis.header), small_universe.genesis
        )
        chain.add_block(*pairs[0])
        rival = ProposerNode("rival")
        txs = small_generator.generate_block_txs()
        sealed = rival.build_block(
            chain.genesis.header, small_universe.genesis, txs
        )
        sres = SerialExecutor().execute_block(sealed.block, small_universe.genesis)
        chain.add_block(sealed.block, sres.post_state)
        chain.add_block(*pairs[1])  # height 2 → snapshot at horizon 2
        store.close()

        result = recover(str(tmp_path / "node"), small_universe.genesis)
        assert result.base_height == 2
        assert result.replayed == 0
        # all three records fall at/below the horizon: recorded, not lost
        assert len(result.skipped) == 3
        assert result.chain.head.hash == chain.head.hash


class TestDoubleRestart:
    def test_recover_twice_is_idempotent(
        self, tmp_path, small_universe, build_chain
    ):
        _populate(
            tmp_path / "node",
            small_universe.genesis,
            build_chain(4),
            snapshot_interval=2,
        )
        first = recover(str(tmp_path / "node"), small_universe.genesis)
        first_digest = chain_digest(first.chain.canonical_chain()[1:])
        first.log.close()
        second = recover(str(tmp_path / "node"), small_universe.genesis)
        assert second.chain.head.hash == first.chain.head.hash
        assert chain_digest(second.chain.canonical_chain()[1:]) == first_digest
        assert second.replayed == first.replayed
        assert second.healed == []

    def test_open_store_resume_then_extend(
        self, tmp_path, small_universe, build_chain
    ):
        pairs = build_chain(4)
        _populate(
            tmp_path / "node",
            small_universe.genesis,
            pairs[:2],
            snapshot_interval=0,
        )
        chain, store, result = open_store(
            str(tmp_path / "node"),
            small_universe.genesis,
            snapshot_interval=0,
            fsync=False,
        )
        assert result.replayed == 2
        for block, post_state in pairs[2:]:
            chain.add_block(block, post_state)
        store.seal()
        store.close()
        final = recover(str(tmp_path / "node"), small_universe.genesis)
        assert final.chain.height() == 4
        assert final.manifest.clean and not final.healed


class TestCollectorSchedule:
    def test_open_store_sets_the_generation0_threshold(self, tmp_path, small_universe):
        """The durable node's boot sets the collector's schedule; a process
        starts on CPython's default, so the test starts there too."""
        found = gc.get_threshold()
        gc.set_threshold(700, 10, 10)
        try:
            _, store, _ = open_store(
                str(tmp_path / "node"), small_universe.genesis, fsync=False
            )
            store.close()
            assert gc.get_threshold() == (GC_GEN0_THRESHOLD, 10, 10)
            assert GC_GEN0_THRESHOLD > 700
        finally:
            gc.set_threshold(*found)
