"""Block log framing: append/scan round trips, torn tails, corruption."""

import zlib

import pytest

from repro.store.blocklog import LOG_MAGIC, RECORD_HEADER, BlockLog
from repro.store.codec import encode_block, encode_header
from repro.store.errors import BlockLogCorruptError, TornTailError

pytestmark = pytest.mark.store


@pytest.fixture()
def blocks(build_chain):
    return [b for b, _ in build_chain(3)]


class TestAppendScan:
    def test_round_trip_preserves_hashes(self, tmp_path, blocks):
        with BlockLog(str(tmp_path / "blocks.log"), fsync=False) as log:
            offsets = [log.append(b) for b in blocks]
            scanned = list(log.scan())
        assert [off for off, _ in scanned] == offsets
        assert [b.hash for _, b in scanned] == [b.hash for b in blocks]
        # transactions and receipts survive byte-identically too
        for original, (_, decoded) in zip(blocks, scanned):
            assert [t.hash for t in decoded.transactions] == [
                t.hash for t in original.transactions
            ]
            assert [r.encode() for r in decoded.receipts] == [
                r.encode() for r in original.receipts
            ]

    def test_appending_a_ready_payload_writes_the_same_record(self, tmp_path, blocks):
        """``DiskStore.on_block`` encodes once and hands the bytes over; the
        record must be what ``append(block)`` writes, and scan — framing,
        CRC, decode — must not tell the two apart."""
        by_block, by_payload = str(tmp_path / "a.log"), str(tmp_path / "b.log")
        with BlockLog(by_block, fsync=False) as log_a, BlockLog(by_payload, fsync=False) as log_b:
            offsets_a = [log_a.append(b) for b in blocks]
            offsets_b = [log_b.append_payload(encode_block(b)) for b in blocks]
            assert offsets_a == offsets_b
            scanned = list(log_b.scan())
        with open(by_block, "rb") as fa, open(by_payload, "rb") as fb:
            data = fb.read()
            assert fa.read() == data
        assert [off for off, _ in scanned] == offsets_b
        assert [encode_block(b) for _, b in scanned] == [encode_block(b) for b in blocks]
        length, crc = RECORD_HEADER.unpack_from(data, offsets_b[0])
        payload = data[offsets_b[0] + RECORD_HEADER.size :][:length]
        assert payload == encode_block(blocks[0]) and zlib.crc32(payload) == crc

    def test_fresh_log_is_magic_only(self, tmp_path):
        with BlockLog(str(tmp_path / "blocks.log"), fsync=False) as log:
            assert log.size == len(LOG_MAGIC)
            assert list(log.scan()) == []

    def test_reopen_appends_after_existing_records(self, tmp_path, blocks):
        path = str(tmp_path / "blocks.log")
        with BlockLog(path, fsync=False) as log:
            log.append(blocks[0])
        with BlockLog(path, fsync=False) as log:
            log.append(blocks[1])
            assert [b.hash for _, b in log.scan()] == [
                blocks[0].hash,
                blocks[1].hash,
            ]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "blocks.log"
        path.write_bytes(b"NOTALOG!" + b"\x00" * 32)
        with pytest.raises(BlockLogCorruptError):
            BlockLog(str(path), fsync=False)


class TestTornTail:
    def test_torn_record_raises_with_truncation_offset(self, tmp_path, blocks):
        with BlockLog(str(tmp_path / "blocks.log"), fsync=False) as log:
            log.append(blocks[0])
            torn_at = log.size
            log.append(blocks[1], tear_after=RECORD_HEADER.size + 5)
            with pytest.raises(TornTailError) as excinfo:
                list(log.scan())
            assert excinfo.value.offset == torn_at

    def test_torn_append_crash_point_tears_the_same_bytes(
        self, tmp_path, small_universe, blocks
    ):
        """The ``torn_append`` point of the commit path leaves exactly the
        seeded prefix of the record ``append`` would have written."""
        import dataclasses

        from repro.chain.blockchain import Blockchain
        from repro.faults.storage import CrashPlan
        from repro.store import DiskStore

        class Died(Exception):
            pass

        @dataclasses.dataclass(frozen=True)
        class RaisingPlan(CrashPlan):
            def fire(self, event, height):
                if self.is_armed(event, height):
                    raise Died(event)

        plan = RaisingPlan.parse("torn_append:2", seed=13)
        store = DiskStore(str(tmp_path / "node"), fsync=False, snapshot_interval=0, crash=plan)
        chain = Blockchain(small_universe.genesis, store=store)
        store.initialize(encode_header(chain.genesis.header), small_universe.genesis)
        store.on_block(blocks[0], small_universe.genesis, head=True)
        with pytest.raises(Died):
            store.on_block(blocks[1], small_universe.genesis, head=True)
        store.close()

        records = []
        for block in blocks[:2]:
            payload = encode_block(block)
            records.append(RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload)
        cut = plan.tear_bytes(2, len(records[1]))
        assert 1 <= cut < len(records[1])
        on_disk = (tmp_path / "node" / "blocks.log").read_bytes()
        assert on_disk == LOG_MAGIC + records[0] + records[1][:cut]

    def test_truncation_heals_torn_tail(self, tmp_path, blocks):
        with BlockLog(str(tmp_path / "blocks.log"), fsync=False) as log:
            log.append(blocks[0])
            torn_at = log.size
            log.append(blocks[1], tear_after=3)  # even the header is torn
            log.truncate_to(torn_at)
            assert [b.hash for _, b in log.scan()] == [blocks[0].hash]
            # the healed log accepts fresh appends
            log.append(blocks[1])
            assert len(list(log.scan())) == 2

    def test_cannot_truncate_into_magic(self, tmp_path, blocks):
        with BlockLog(str(tmp_path / "blocks.log"), fsync=False) as log:
            log.append(blocks[0])
            with pytest.raises(ValueError):
                log.truncate_to(3)


class TestInteriorCorruption:
    def _flip_payload_byte(self, path, record_offset):
        """Flip a byte safely inside a record's payload (past its header)."""
        with open(path, "r+b") as fh:
            fh.seek(record_offset + RECORD_HEADER.size + 10)
            byte = fh.read(1)[0]
            fh.seek(record_offset + RECORD_HEADER.size + 10)
            fh.write(bytes([byte ^ 0xFF]))

    def test_non_final_damage_is_corruption_not_torn(self, tmp_path, blocks):
        path = str(tmp_path / "blocks.log")
        with BlockLog(path, fsync=False) as log:
            first = log.append(blocks[0])
            log.append(blocks[1])
        self._flip_payload_byte(path, first)
        with BlockLog(path, fsync=False) as log:
            with pytest.raises(BlockLogCorruptError) as excinfo:
                list(log.scan())
        assert excinfo.value.offset == first

    def test_final_record_damage_is_torn(self, tmp_path, blocks):
        path = str(tmp_path / "blocks.log")
        with BlockLog(path, fsync=False) as log:
            log.append(blocks[0])
            last = log.append(blocks[1])
        self._flip_payload_byte(path, last)
        with BlockLog(path, fsync=False) as log:
            with pytest.raises(TornTailError) as excinfo:
                list(log.scan())
        assert excinfo.value.offset == last
