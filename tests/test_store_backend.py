"""DiskStore commit path: manifests, snapshots, compaction, metrics."""

import os

import pytest

from repro.chain.blockchain import Blockchain
from repro.obs.metrics import MetricsRegistry
from repro.store import (
    DiskStore,
    Manifest,
    MemoryStore,
    StoreError,
    encode_header,
    recover,
)
from repro.store.blocklog import LOG_MAGIC

pytestmark = pytest.mark.store


def _open_disk_chain(data_dir, genesis_state, **kwargs):
    store = DiskStore(str(data_dir), fsync=False, **kwargs)
    chain = Blockchain(genesis_state, store=store)
    store.initialize(encode_header(chain.genesis.header), genesis_state)
    return chain, store


class TestInitialize:
    def test_fresh_dir_layout(self, tmp_path, small_universe):
        chain, store = _open_disk_chain(tmp_path / "node", small_universe.genesis)
        files = sorted(os.listdir(tmp_path / "node"))
        assert files == ["blocks.log", "manifest.json", "snapshot_00000000.json"]
        manifest = Manifest.load(str(tmp_path / "node"))
        assert manifest.height == 0
        assert manifest.clean is False  # open store = not sealed
        assert manifest.snapshot is not None
        assert manifest.snapshot.height == 0
        assert manifest.snapshot.state_root == bytes(
            small_universe.genesis.state_root()
        ).hex()
        store.close()

    def test_fresh_log_is_magic_only(self, tmp_path, small_universe):
        chain, store = _open_disk_chain(tmp_path / "node", small_universe.genesis)
        assert (tmp_path / "node" / "blocks.log").read_bytes() == LOG_MAGIC
        store.close()


class TestCommitPath:
    def test_every_accepted_block_advances_the_manifest(
        self, tmp_path, small_universe, build_chain
    ):
        chain, store = _open_disk_chain(
            tmp_path / "node", small_universe.genesis, snapshot_interval=0
        )
        for block, post_state in build_chain(3):
            chain.add_block(block, post_state)
            manifest = Manifest.load(str(tmp_path / "node"))
            assert manifest.height == block.number
            assert manifest.head_hash == bytes(block.hash).hex()
            assert manifest.state_root == bytes(block.header.state_root).hex()
            assert manifest.log_bytes == store.log.size
        store.close()

    def test_snapshot_written_at_interval(
        self, tmp_path, small_universe, build_chain
    ):
        chain, store = _open_disk_chain(
            tmp_path / "node",
            small_universe.genesis,
            snapshot_interval=2,
            compact=False,
        )
        pairs = build_chain(4)
        for block, post_state in pairs:
            chain.add_block(block, post_state)
        manifest = Manifest.load(str(tmp_path / "node"))
        assert manifest.snapshot.height == 4
        assert manifest.snapshot.file == "snapshot_00000004.json"
        assert manifest.snapshot.state_root == bytes(
            pairs[3][1].state_root()
        ).hex()
        store.close()

    def test_seal_marks_manifest_clean(self, tmp_path, small_universe, build_chain):
        chain, store = _open_disk_chain(
            tmp_path / "node", small_universe.genesis, snapshot_interval=0
        )
        block, post_state = build_chain(1)[0]
        chain.add_block(block, post_state)
        assert Manifest.load(str(tmp_path / "node")).clean is False
        store.seal()
        assert Manifest.load(str(tmp_path / "node")).clean is True
        store.close()

    def test_store_metrics_counters(self, tmp_path, small_universe, build_chain):
        metrics = MetricsRegistry()
        store = DiskStore(
            str(tmp_path / "node"),
            fsync=False,
            snapshot_interval=2,
            metrics=metrics,
        )
        chain = Blockchain(small_universe.genesis, store=store)
        store.initialize(encode_header(chain.genesis.header), small_universe.genesis)
        for block, post_state in build_chain(2):
            chain.add_block(block, post_state)
        snap = metrics.snapshot()
        assert snap["counters"]["store.blocks_appended"] == 2
        assert snap["counters"]["store.snapshots"] == 1
        assert snap["counters"]["store.manifest_writes"] == 2  # one per block
        assert snap["counters"]["store.bytes_appended"] > 0
        store.close()


class TestCompaction:
    def test_snapshot_triggers_generation_rollover(
        self, tmp_path, small_universe, build_chain
    ):
        chain, store = _open_disk_chain(
            tmp_path / "node", small_universe.genesis, snapshot_interval=2
        )
        for block, post_state in build_chain(5):
            chain.add_block(block, post_state)
        manifest = Manifest.load(str(tmp_path / "node"))
        # blocks 1-4 superseded by the height-4 snapshot: only 5 remains
        assert manifest.log_file == "blocks_00000004.log"
        assert manifest.log_start_height == 5
        assert [b.number for b in store.log.read_all()] == [5]
        # only the live generation and the referenced snapshot survive
        files = sorted(os.listdir(tmp_path / "node"))
        assert files == [
            "blocks_00000004.log",
            "manifest.json",
            "snapshot_00000004.json",
        ]
        store.close()

    def test_retry_clobbers_stale_partial_generation(
        self, tmp_path, small_universe, build_chain
    ):
        """A crash between writing a new generation and repointing the
        manifest leaves a stale — possibly torn — ``blocks_<horizon>.log``;
        the retry at the same horizon must replace it atomically, never
        append survivors after the remnant bytes."""
        chain, store = _open_disk_chain(
            tmp_path / "node", small_universe.genesis, snapshot_interval=2
        )
        pairs = build_chain(3)
        chain.add_block(*pairs[0])
        # forge the remnant at the exact path compaction will use when
        # block 2's snapshot lands (horizon 2): magic + a torn record
        remnant = tmp_path / "node" / "blocks_00000002.log"
        remnant.write_bytes(LOG_MAGIC + b"\x99\x00\x00\x00\xde\xad")
        for pair in pairs[1:]:
            chain.add_block(*pair)
        assert [b.number for b in store.log.read_all()] == [3]
        store.close()
        result = recover(str(tmp_path / "node"), small_universe.genesis)
        assert result.chain.height() == 3
        assert result.chain.head.hash == pairs[2][0].hash

    def test_compaction_disabled_keeps_full_log(
        self, tmp_path, small_universe, build_chain
    ):
        chain, store = _open_disk_chain(
            tmp_path / "node",
            small_universe.genesis,
            snapshot_interval=2,
            compact=False,
        )
        for block, post_state in build_chain(4):
            chain.add_block(block, post_state)
        assert [b.number for b in store.log.read_all()] == [1, 2, 3, 4]
        assert Manifest.load(str(tmp_path / "node")).log_file == "blocks.log"
        store.close()


class TestVerifyWrites:
    def test_unserialisable_block_refused_before_append(
        self, tmp_path, small_universe, build_chain, monkeypatch
    ):
        """The codec self-check runs before the record hits the log, and
        a store failure propagates with the head unpublished."""
        import repro.store.backend as backend_mod

        chain, store = _open_disk_chain(
            tmp_path / "node", small_universe.genesis, snapshot_interval=0
        )
        monkeypatch.setattr(
            backend_mod, "verify_roundtrip", lambda block, payload: "forced divergence"
        )
        block, post_state = build_chain(1)[0]
        with pytest.raises(StoreError, match="codec round-trip"):
            chain.add_block(block, post_state)
        assert store.log.read_all() == []
        # the block is resident as a sibling, but never became canonical
        assert block.hash in chain
        assert chain.head.number == 0
        store.close()

    def test_verify_writes_can_be_disabled(
        self, tmp_path, small_universe, build_chain, monkeypatch
    ):
        import repro.store.backend as backend_mod

        chain, store = _open_disk_chain(
            tmp_path / "node",
            small_universe.genesis,
            snapshot_interval=0,
            verify_writes=False,
        )
        monkeypatch.setattr(
            backend_mod, "verify_roundtrip", lambda block, payload: "forced divergence"
        )
        block, post_state = build_chain(1)[0]
        assert chain.add_block(block, post_state) is True
        assert [b.number for b in store.log.read_all()] == [1]
        store.close()


    @pytest.mark.parametrize("verify_writes", [True, False])
    def test_block_is_encoded_once_per_commit(
        self, tmp_path, small_universe, build_chain, monkeypatch, verify_writes
    ):
        """The self-check and the append share one ``encode_block`` result."""
        import repro.store.backend as backend_mod
        import repro.store.blocklog as blocklog_mod
        from repro.store.codec import encode_block

        calls = []

        def counting(block):
            calls.append(block.number)
            return encode_block(block)

        monkeypatch.setattr(backend_mod, "encode_block", counting)
        monkeypatch.setattr(blocklog_mod, "encode_block", counting)
        chain, store = _open_disk_chain(
            tmp_path / "node",
            small_universe.genesis,
            snapshot_interval=0,
            verify_writes=verify_writes,
        )
        for block, post_state in build_chain(3):
            chain.add_block(block, post_state)
        assert calls == [1, 2, 3]
        assert [b.number for b in store.log.read_all()] == [1, 2, 3]
        store.close()


class TestMemoryStore:
    def test_null_object_protocol(self, small_universe, build_chain):
        store = MemoryStore()
        chain = Blockchain(small_universe.genesis, store=store)
        block, post_state = build_chain(1)[0]
        assert chain.add_block(block, post_state) is True
        store.flush()
        store.seal()
        store.close()

    def test_default_chain_has_no_store(self, small_universe, build_chain):
        chain = Blockchain(small_universe.genesis)
        block, post_state = build_chain(1)[0]
        assert chain.add_block(block, post_state) is True
        assert chain._store is None
