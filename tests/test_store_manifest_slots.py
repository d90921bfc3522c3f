"""The two-slot manifest under power cuts, and the commit path's file calls.

A power cut during :meth:`Manifest.write` can leave the slot write lost,
torn at any 512-byte sector boundary, or complete; decay can flip bytes in
one slot or both.  Each such file must load to the manifest from before the
write, to the one after it, or — both slots bad — to ``ManifestError``, and
recovery over it must reach the sealed head or raise a typed ``StoreError``.
"""

import os
import shutil

import pytest

from repro.chain.blockchain import Blockchain
from repro.faults.storage import corrupt_manifest
from repro.store import DiskStore, ManifestError, StoreError, encode_header, open_store, recover
from repro.store.manifest import SLOT, Manifest, manifest_path

pytestmark = pytest.mark.store

SECTOR = 512


def _open(data_dir, genesis, **kwargs):
    store = DiskStore(str(data_dir), **kwargs)
    chain = Blockchain(genesis, store=store)
    store.initialize(encode_header(chain.genesis.header), genesis)
    return chain, store


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _flip(raw, slots):
    raw = bytearray(raw)
    for index in slots:
        raw[index * SLOT + 40] ^= 0x01  # inside the document, clear of the padding
    return bytes(raw)


def _crash_states(before, offset, data):
    """Every manifest file a power cut during one slot write, or decay of
    the written file, can leave, with whether both slots are bad in it."""
    after = before[:offset] + data + before[offset + len(data) :]
    yield "lost", before, False
    for cut in range(SECTOR, len(data), SECTOR):
        yield f"torn@{cut}", before[:offset] + data[:cut] + before[offset + cut :], False
    yield "complete", after, False
    yield "flip0", _flip(after, (0,)), False
    yield "flip1", _flip(after, (1,)), False
    yield "flip-both", _flip(after, (0, 1)), True


@pytest.fixture()
def recorded_write(tmp_path, small_universe, build_chain, monkeypatch):
    """A 6-block run (snapshots every 4, compaction, fsync on) whose block-6
    manifest write is recorded: the file before it, and the ``pwrite``."""
    data_dir = tmp_path / "node"
    chain, store = _open(data_dir, small_universe.genesis, snapshot_interval=4, fsync=True)
    pairs = build_chain(6)
    for pair in pairs[:5]:
        chain.add_block(*pair)
    path = manifest_path(str(data_dir))
    before = _read(path)
    pre = Manifest.load(str(data_dir))
    writes = []
    real_pwrite = os.pwrite

    def spy(fd, data, offset):
        writes.append((bytes(data), offset))
        return real_pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", spy)
    chain.add_block(*pairs[5])
    monkeypatch.undo()
    post = Manifest.load(str(data_dir))
    store.seal()
    store.close()
    assert len(writes) == 1 and len(writes[0][0]) == SLOT
    return data_dir, before, writes[0], pre, post, chain.head.hash


class TestPowerCutDuringSlotWrite:
    def test_every_crash_state_loads_and_recovers(self, tmp_path, recorded_write, small_universe):
        data_dir, before, (data, offset), pre, post, sealed_head = recorded_write
        assert (pre.height, post.height) == (5, 6)
        states = list(_crash_states(before, offset, data))
        assert len(states) == 1 + (SLOT // SECTOR - 1) + 1 + 3
        # recovery changes no file here (no torn log tail), so one copy serves
        # every state; each is written over the manifest in place
        victim = str(tmp_path / "victim")
        shutil.copytree(data_dir, victim)
        for name, raw, both_bad in states:
            with open(manifest_path(victim), "r+b") as fh:
                fh.write(raw)
            if both_bad:
                with pytest.raises(ManifestError):
                    Manifest.load(victim)
                with pytest.raises(ManifestError):
                    recover(victim, small_universe.genesis, fsync=False)
                continue
            assert Manifest.load(victim) in (pre, post), name
            try:
                result = recover(victim, small_universe.genesis, fsync=False)
            except StoreError as exc:  # typed, but none is expected here
                pytest.fail(f"{name}: {exc!r}")
            result.log.close()
            assert result.chain.head.hash == sealed_head, name

    def test_the_write_goes_to_the_older_slot_and_a_torn_document_never_wins(self, recorded_write):
        data_dir, before, (data, offset), pre, post, _ = recorded_write
        assert offset == SLOT * (post.seq % 2) and post.seq == pre.seq + 1
        document = len(data.rstrip(b" \n"))
        victim = str(data_dir)
        for name, raw, _ in _crash_states(before, offset, data):
            if name.startswith("torn@") and int(name[5:]) < document:
                with open(manifest_path(victim), "r+b") as fh:
                    fh.write(raw)
                assert Manifest.load(victim).seq == pre.seq, name


class TestCompactionWritesBothSlots:
    def test_a_corrupt_newest_slot_after_compaction_still_finds_the_log(
        self, tmp_path, small_universe, build_chain
    ):
        """Compaction deletes the log the block's own slot write named; the
        other slot must not name it too, or losing the newest slot would
        leave recovery pointing at a deleted file."""
        data_dir = str(tmp_path / "node")
        chain, store = _open(data_dir, small_universe.genesis, snapshot_interval=4, fsync=False)
        for pair in build_chain(4):
            chain.add_block(*pair)
        store.close()  # no seal: the newest slot is compaction's
        assert "blocks.log" not in os.listdir(data_dir)
        corrupt_manifest(data_dir, slots="newest")
        fallback = Manifest.load(data_dir)
        assert fallback.log_file == "blocks_00000004.log"
        result = recover(data_dir, small_universe.genesis, fsync=False)
        result.log.close()
        assert result.chain.head.hash == chain.head.hash


class TestNoRenameOnAPlainBlock:
    @pytest.mark.parametrize("fsync", [True, False], ids=["fsync", "no-fsync"])
    def test_a_plain_block_renames_and_deletes_nothing(
        self, tmp_path, small_universe, build_chain, monkeypatch, fsync
    ):
        chain, store = _open(tmp_path / "node", small_universe.genesis, snapshot_interval=4, fsync=fsync)
        pairs = build_chain(3)
        for pair in pairs[:2]:
            chain.add_block(*pair)
        calls = []

        def spy(name):
            real = getattr(os, name)

            def call(*args, **kwargs):
                calls.append((name, args[1:] if name == "pwrite" else args))
                return real(*args, **kwargs)

            return call

        for name in ("replace", "rename", "unlink", "remove", "pwrite"):
            monkeypatch.setattr(os, name, spy(name))
        chain.add_block(*pairs[2])  # height 3: no snapshot, no compaction
        monkeypatch.undo()
        store.close()
        assert [name for name, _ in calls] == ["pwrite"]
        data, offset = calls[0][1]
        assert len(data) == SLOT and offset == SLOT * (store.manifest.seq % 2)


class TestStraysAfterACrash:
    def test_a_compaction_killed_before_its_delete_leaks_nothing(
        self, tmp_path, small_universe, build_chain, monkeypatch
    ):
        """Killed between repointing the manifest and deleting the old
        generation, a compaction strands the whole pre-compaction log; the
        resumed store deletes it, and any publish temp file, once both
        manifest slots name the live log."""
        data_dir = tmp_path / "node"
        pairs = build_chain(12)
        chain, store = _open(data_dir, small_universe.genesis, snapshot_interval=4, fsync=False)

        class Killed(BaseException):
            pass

        real_remove = os.remove

        def remove(path):
            if os.path.basename(path) == "blocks.log":
                raise Killed(path)
            real_remove(path)

        monkeypatch.setattr(os, "remove", remove)
        for pair in pairs[:3]:
            chain.add_block(*pair)
        with pytest.raises(Killed):
            chain.add_block(*pairs[3])
        monkeypatch.undo()
        assert {"blocks.log", "blocks_00000004.log"} <= set(os.listdir(data_dir))
        (data_dir / "snapshot_00000008.snap.tmp").write_bytes(b"half a snap")
        (data_dir / "events.jsonl").write_bytes(b"")

        chain, store, result = open_store(
            str(data_dir), small_universe.genesis, snapshot_interval=4, fsync=False
        )
        assert result.chain.height() == 4
        assert sorted(os.listdir(data_dir)) == [
            "blocks_00000004.log",
            "events.jsonl",
            "manifest.json",
            "snapshot_00000000.snap",
            "snapshot_00000004.snap",
        ]
        for pair in pairs[4:]:
            chain.add_block(*pair)
        store.seal()
        store.close()
        assert sorted(os.listdir(data_dir)) == [
            "blocks_00000012.log",
            "events.jsonl",
            "manifest.json",
            "snapshot_00000012.snap",
        ]
