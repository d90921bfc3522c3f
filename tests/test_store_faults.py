"""Storage-fault detection: every injected fault → a typed error, never silence."""

import pytest

from repro.chain.blockchain import Blockchain
from repro.faults.storage import (
    CRASH_EVENTS,
    CrashPlan,
    corrupt_manifest,
    corrupt_snapshot_file,
    flip_log_byte,
    lose_fsync_window,
    tear_log_tail,
)
from repro.store import (
    BlockLogCorruptError,
    DiskStore,
    ManifestError,
    ReplayDivergenceError,
    SnapshotCorruptError,
    StaleManifestError,
    StoreError,
    encode_header,
    recover,
)

pytestmark = [pytest.mark.store, pytest.mark.faults]


@pytest.fixture()
def populated_dir(tmp_path, small_universe, build_chain):
    """An unsealed data dir holding 4 blocks (no compaction, no snapshot)."""
    store = DiskStore(str(tmp_path / "node"), fsync=False, snapshot_interval=0)
    chain = Blockchain(small_universe.genesis, store=store)
    store.initialize(encode_header(chain.genesis.header), small_universe.genesis)
    for block, post_state in build_chain(4):
        chain.add_block(block, post_state)
    store.close()
    return str(tmp_path / "node")


class TestTamperDetection:
    def test_interior_byte_flip_detected(self, populated_dir, small_universe):
        flip_log_byte(populated_dir, seed=3)
        # a mid-log flip is either a checksum failure (corrupt record) or,
        # if it lands on framing, a truncation the manifest contradicts —
        # both are typed, neither is silent
        with pytest.raises((BlockLogCorruptError, StaleManifestError)):
            recover(populated_dir, small_universe.genesis)

    def test_interior_length_corruption_preserved_not_truncated(
        self, populated_dir, small_universe
    ):
        """A corrupted length field below the durable horizon must raise
        BlockLogCorruptError with the log left byte-for-byte intact —
        truncating there would destroy every later (valid) record."""
        import os
        import struct

        path = os.path.join(populated_dir, "blocks.log")
        with open(path, "r+b") as fh:
            fh.seek(8)  # first record's length field, deep in the durable region
            fh.write(struct.pack("<I", 0xFFFFFFF0))
        with open(path, "rb") as fh:
            before = fh.read()
        with pytest.raises(BlockLogCorruptError):
            recover(populated_dir, small_universe.genesis)
        with open(path, "rb") as fh:
            assert fh.read() == before

    def test_torn_tail_of_sealed_bytes_detected(
        self, populated_dir, small_universe
    ):
        # shaving bytes the manifest already covers is a lost-fsync story,
        # not a healable crash tail: recovery must refuse to rewind
        tear_log_tail(populated_dir, seed=1)
        with pytest.raises(StaleManifestError):
            recover(populated_dir, small_universe.genesis)

    def test_lost_fsync_window_detected(self, populated_dir, small_universe):
        lose_fsync_window(populated_dir, records=1)
        with pytest.raises(StaleManifestError):
            recover(populated_dir, small_universe.genesis)

    def test_corrupt_snapshot_detected(
        self, tmp_path, small_universe, build_chain
    ):
        store = DiskStore(
            str(tmp_path / "node"), fsync=False, snapshot_interval=2
        )
        chain = Blockchain(small_universe.genesis, store=store)
        store.initialize(
            encode_header(chain.genesis.header), small_universe.genesis
        )
        for block, post_state in build_chain(2):
            chain.add_block(block, post_state)
        store.close()
        corrupt_snapshot_file(str(tmp_path / "node"), seed=2)
        with pytest.raises(SnapshotCorruptError):
            recover(str(tmp_path / "node"), small_universe.genesis)

    def test_corrupt_manifest_detected(self, populated_dir, small_universe):
        corrupt_manifest(populated_dir)
        with pytest.raises(ManifestError):
            recover(populated_dir, small_universe.genesis)

    def test_corrupt_newest_manifest_slot_falls_back(self, populated_dir, small_universe):
        """Only the newest slot damaged: the other, one commit older, wins,
        and the replay past its ``logBytes`` reaches the same head."""
        intact = recover(populated_dir, small_universe.genesis)
        intact.log.close()
        corrupt_manifest(populated_dir, slots="newest")
        result = recover(populated_dir, small_universe.genesis)
        result.log.close()
        assert result.manifest.height == 3
        assert result.chain.head.hash == intact.chain.head.hash
        assert result.chain.height() == 4

    def test_missing_log_detected(self, populated_dir, small_universe):
        import os

        os.remove(os.path.join(populated_dir, "blocks.log"))
        with pytest.raises(StaleManifestError):
            recover(populated_dir, small_universe.genesis)

    def test_tampered_block_body_diverges_on_replay(
        self, tmp_path, small_universe, build_chain
    ):
        """A record that decodes but lies about its state root is caught."""
        import dataclasses
        import os

        from repro.chain.block import Block
        from repro.common.types import hash32
        from repro.store.blocklog import write_log
        from repro.store.codec import encode_block
        from repro.store.manifest import Manifest

        pairs = build_chain(2)
        store = DiskStore(str(tmp_path / "node"), fsync=False, snapshot_interval=0)
        chain = Blockchain(small_universe.genesis, store=store)
        store.initialize(
            encode_header(chain.genesis.header), small_universe.genesis
        )
        chain.add_block(*pairs[0])
        store.close()

        # rewrite block 1 with a forged state root (valid CRC, valid RLP)
        data_dir = str(tmp_path / "node")
        forged_header = dataclasses.replace(
            pairs[0][0].header, state_root=hash32(b"\xee" * 32)
        )
        forged = Block(
            forged_header, pairs[0][0].transactions, pairs[0][0].receipts
        )
        log_path = f"{data_dir}/blocks.log"
        write_log(log_path, map(encode_block, [forged]), fsync=False)
        manifest = Manifest.load(data_dir)
        manifest.head_hash = bytes(forged.hash).hex()
        manifest.state_root = bytes(forged_header.state_root).hex()
        manifest.log_bytes = os.path.getsize(log_path)
        manifest.write(data_dir, fsync=False)

        with pytest.raises(ReplayDivergenceError) as excinfo:
            recover(data_dir, small_universe.genesis)
        assert excinfo.value.height == 1

    def test_all_typed_errors_are_store_errors(self):
        for err in (
            BlockLogCorruptError,
            ManifestError,
            SnapshotCorruptError,
            StaleManifestError,
            ReplayDivergenceError,
        ):
            assert issubclass(err, StoreError)


class TestCrashPlan:
    def test_parse_round_trip(self):
        plan = CrashPlan.parse("after_append:7, torn_append:12", seed=9)
        assert plan.is_armed("after_append", 7)
        assert plan.is_armed("torn_append", 12)
        assert not plan.is_armed("after_append", 12)
        assert plan.seed == 9

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError):
            CrashPlan.parse("before_breakfast:1")

    def test_from_env(self):
        env = {"REPRO_STORE_CRASH": "after_manifest:3", "REPRO_STORE_CRASH_SEED": "5"}
        plan = CrashPlan.from_env(env)
        assert plan.is_armed("after_manifest", 3)
        assert plan.seed == 5
        assert CrashPlan.from_env({}) is None

    def test_tear_bytes_seeded_and_partial(self):
        plan = CrashPlan.parse("torn_append:4", seed=11)
        cut = plan.tear_bytes(4, 500)
        assert cut == plan.tear_bytes(4, 500)  # deterministic
        assert 1 <= cut < 500  # strictly torn
        assert plan.tear_bytes(5, 500) is None  # not armed there

    def test_events_cover_the_commit_path(self):
        assert CRASH_EVENTS == (
            "torn_append",
            "after_append",
            "after_snapshot",
            "after_manifest",
            "in_compaction",
            "before_seal",
        )
