"""DiskStore commit path: manifests, snapshots, compaction, metrics."""

import os

import pytest

from repro.chain.blockchain import Blockchain
from repro.obs.metrics import MetricsRegistry
from repro.store import (
    BlockLogCorruptError,
    DiskStore,
    Manifest,
    MemoryStore,
    StoreError,
    encode_header,
    recover,
)
from repro.store.blocklog import LOG_MAGIC
from repro.store.codec import decode_block, encode_block

pytestmark = pytest.mark.store


def _open_disk_chain(data_dir, genesis_state, **kwargs):
    kwargs.setdefault("fsync", False)
    store = DiskStore(str(data_dir), **kwargs)
    chain = Blockchain(genesis_state, store=store)
    store.initialize(encode_header(chain.genesis.header), genesis_state)
    return chain, store


class TestInitialize:
    def test_fresh_dir_layout(self, tmp_path, small_universe):
        chain, store = _open_disk_chain(tmp_path / "node", small_universe.genesis)
        files = sorted(os.listdir(tmp_path / "node"))
        assert files == ["blocks.log", "manifest.json", "snapshot_00000000.snap"]
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
        assert manifest.snapshot.file == "snapshot_00000004.snap"
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
        assert [b.number for _, b in store.log.scan()] == [5]
        # only the live generation and the referenced snapshot survive
        files = sorted(os.listdir(tmp_path / "node"))
        assert files == [
            "blocks_00000004.log",
            "manifest.json",
            "snapshot_00000004.snap",
        ]
        store.close()

    def test_superseded_snapshots_are_deleted(self, tmp_path, small_universe, build_chain):
        chain, store = _open_disk_chain(
            tmp_path / "node", small_universe.genesis, snapshot_interval=2
        )
        for block, post_state in build_chain(6):
            chain.add_block(block, post_state)
        store.close()
        snapshots = [n for n in os.listdir(tmp_path / "node") if n.startswith("snapshot_")]
        assert snapshots == [Manifest.load(str(tmp_path / "node")).snapshot.file]
        assert snapshots == ["snapshot_00000006.snap"]

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
        assert [b.number for _, b in store.log.scan()] == [3]
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
        assert [b.number for _, b in store.log.scan()] == [1, 2, 3, 4]
        assert Manifest.load(str(tmp_path / "node")).log_file == "blocks.log"
        store.close()

    def test_compaction_counts_the_records_it_drops(self, tmp_path):
        """Each snapshot at 4, 8 and 12 leaves the four records below it
        behind: the counters and the event say so, per generation."""
        from repro.obs.events import read_events
        from repro.store.service import NodeService, ServeConfig

        metrics = MetricsRegistry()
        cfg = ServeConfig(
            data_dir=str(tmp_path / "node"),
            txs_per_block=12,
            max_height=12,
            snapshot_interval=4,
            fsync=False,
            events=True,
        )
        NodeService(cfg, metrics=metrics).run(handle_signals=False)
        counters = metrics.snapshot()["counters"]
        assert counters["store.compactions"] == 3
        assert counters["store.compacted_blocks"] == 12
        for generation in (1, 2, 3):
            assert counters[f"store.compacted_blocks.gen.{generation}"] == 4
        events = read_events(str(tmp_path / "node" / "events.jsonl"))
        assert [
            (e["horizon"], e["generation"], e["dropped"])
            for e in events
            if e["kind"] == "store_compaction"
        ] == [(4, 1, 4), (8, 2, 4), (12, 3, 4)]


class TestCompactionCopiesBytes:
    """Compaction reads one integer per record and moves survivors as the
    bytes they are; what it carries forward it has still seen decode."""

    def _store_at_a_compaction_height(self, tmp_path, small_universe, pairs):
        """Blocks 1-3 committed (horizon-2 compaction done), then block 5
        as a fork sibling *before* block 4: block 4's snapshot compacts a
        log that holds [3, 5, 4] and must keep the 5 alone."""
        chain, store = _open_disk_chain(
            tmp_path / "node", small_universe.genesis, snapshot_interval=2
        )
        for pair in pairs[:3]:
            chain.add_block(*pair)
        store.on_block(*pairs[4], head=False)
        return store

    def test_survivors_are_copied_verbatim_and_decoded_once_each(
        self, tmp_path, small_universe, build_chain, monkeypatch
    ):
        import repro.store.backend as backend_mod
        import repro.store.blocklog as blocklog_mod
        import repro.store.codec as codec_mod

        pairs = build_chain(5)
        store = self._store_at_a_compaction_height(tmp_path, small_universe, pairs)
        before = open(store.log.path, "rb").read()
        offsets = [offset for offset, _ in store.log.scan_records()]
        assert len(offsets) == 2  # block 3, then the sibling at height 5
        sibling_record = before[offsets[1] :]

        decoded = []

        def counting(payload):
            block = decode_block(payload)
            decoded.append(block.number)
            return block

        for module in (backend_mod, blocklog_mod, codec_mod):
            monkeypatch.setattr(module, "decode_block", counting)
        monkeypatch.setattr(
            backend_mod,
            "encode_block",
            lambda block: (decoded.append("encode"), encode_block(block))[1],
        )
        store.on_block(*pairs[3], head=True)
        # block 4 encoded once and appended, then the one survivor decoded;
        # blocks 3 and 4 are dropped on their header alone, and nothing is
        # re-encoded on the way into the new generation
        assert decoded == ["encode", 5]
        assert store.manifest.log_file == "blocks_00000004.log"
        assert open(store.log.path, "rb").read() == LOG_MAGIC + sibling_record
        assert [b.hash for _, b in store.log.scan()] == [pairs[4][0].hash]
        store.close()

    @pytest.mark.parametrize(
        "payload",
        [
            b"\x00garbage that is no rlp at all",
            b"\x83abc",  # a string, not a list
            b"\xc0",  # a list with no header in it
            b"\xc3\xc2\x01\x02",  # a two-field header
            None,  # a real record cut off inside its header
        ],
        ids=["garbage", "non-list", "empty-list", "short-header", "truncated"],
    )
    def test_a_record_without_a_readable_header_is_corruption(
        self, tmp_path, small_universe, build_chain, payload
    ):
        """The header peek runs on bytes that passed their checksum but may
        be anything: a typed error carrying the record's offset, never an
        ``IndexError`` or a bare ``RLPDecodeError``."""
        pairs = build_chain(5)
        store = self._store_at_a_compaction_height(tmp_path, small_universe, pairs)
        if payload is None:
            payload = encode_block(pairs[4][0])[:40]
        offset = store.log.append_payload(payload)
        with pytest.raises(BlockLogCorruptError) as excinfo:
            store.on_block(*pairs[3], head=True)
        assert excinfo.value.offset == offset
        assert type(excinfo.value) is BlockLogCorruptError
        store.close()

    def test_a_survivor_that_no_longer_decodes_is_not_carried_forward(
        self, tmp_path, small_universe, build_chain
    ):
        """A readable header above the horizon is not enough: the whole
        record must decode before a new generation may hold it."""
        pairs = build_chain(5)
        store = self._store_at_a_compaction_height(tmp_path, small_universe, pairs)
        good = encode_block(pairs[4][0])
        # same header, transaction section replaced by a string: the peek
        # reads height 5, ``decode_block`` refuses
        from repro.common.rlp import rlp_list
        from repro.store.codec import encode_header

        bad = rlp_list((encode_header(pairs[4][0].header), b"\x83abc", b"\xc0"))
        assert bad != good
        offset = store.log.append_payload(bad)
        with pytest.raises(BlockLogCorruptError) as excinfo:
            store.on_block(*pairs[3], head=True)
        assert excinfo.value.offset == offset
        assert store.manifest.log_file == "blocks_00000002.log"  # not repointed
        store.close()


class TestVerifyWrites:
    def test_a_store_failure_leaves_the_head_unpublished(
        self, tmp_path, small_universe, build_chain, monkeypatch
    ):
        """A failed append propagates out of ``add_block`` with the head
        unchanged: disk never trails the advertised canonical chain."""
        from repro.store.blocklog import BlockLog

        chain, store = _open_disk_chain(
            tmp_path / "node", small_universe.genesis, snapshot_interval=0
        )

        def failing_append(self, payload, **kwargs):
            raise StoreError("disk full")

        monkeypatch.setattr(BlockLog, "append_payload", failing_append)
        block, post_state = build_chain(1)[0]
        with pytest.raises(StoreError, match="disk full"):
            chain.add_block(block, post_state)
        monkeypatch.undo()
        assert list(store.log.scan()) == []
        assert Manifest.load(str(tmp_path / "node")).height == 0
        # the block is resident as a sibling, but never became canonical
        assert block.hash in chain
        assert chain.head.number == 0
        store.close()

    @pytest.mark.parametrize("fsync", [True, False])
    def test_block_is_encoded_once_per_commit(
        self, tmp_path, small_universe, build_chain, monkeypatch, fsync
    ):
        """``on_block`` encodes once and appends those bytes; nothing
        decodes them again on the commit path, durable or not."""
        import repro.store.backend as backend_mod
        import repro.store.blocklog as blocklog_mod

        calls = []

        def counting(block):
            calls.append(block.number)
            return encode_block(block)

        def no_decode(data):
            raise AssertionError("the commit path decoded a record")

        monkeypatch.setattr(backend_mod, "encode_block", counting)
        monkeypatch.setattr(blocklog_mod, "encode_block", counting)
        monkeypatch.setattr(backend_mod, "decode_block", no_decode)
        monkeypatch.setattr(blocklog_mod, "decode_block", no_decode)
        chain, store = _open_disk_chain(
            tmp_path / "node",
            small_universe.genesis,
            snapshot_interval=0,
            fsync=fsync,
        )
        for block, post_state in build_chain(3):
            chain.add_block(block, post_state)
        assert calls == [1, 2, 3]
        monkeypatch.undo()
        assert [b.number for _, b in store.log.scan()] == [1, 2, 3]
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
