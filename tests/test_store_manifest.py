"""``Manifest.load`` on damaged files: whatever the bytes, a ``Manifest`` or a
``ManifestError`` — never a stray ``UnicodeDecodeError``, ``RecursionError``
or ``OverflowError``.  ``TestDamagedManifests`` damages a legacy
single-document file, ``TestDamagedSlots`` each slot of a two-slot file."""

import json
import os

import pytest

from repro.store.errors import ManifestError
from repro.store.manifest import SLOT, Manifest, SnapshotRef, manifest_path

pytestmark = [pytest.mark.store, pytest.mark.robustness]

#: values a field must not be trusted with: JSON's non-standard constants, a
#: float literal that parses as infinity, a list, and a nesting deep enough
#: to be slow to print but shallow enough for the decoder to read
_BAD_VALUES = ["Infinity", "-Infinity", "NaN", "1e400", "[1, 2]", "[" * 900 + "]" * 900]

#: a nesting no decoder frame budget survives
_TOO_DEEP = "[" * 100_000 + "]" * 100_000


def _manifest(height=7):
    return Manifest(
        height=height,
        head_hash="ab" * 32,
        state_root="cd" * 32,
        log_bytes=4096,
        snapshot=SnapshotRef("snap-4.bin", 4, "ef" * 32, "01" * 32, "02" * 40),
        serve={"seed": 42, "txs_per_block": 12},
    )


def _valid(tmp_path):
    """A legacy (version 1) single-document manifest file, as the store
    wrote it before the two slots."""
    manifest = _manifest()
    body = {**manifest._body(), "version": 1}
    body["checksum"] = Manifest._checksum(body)
    with open(manifest_path(str(tmp_path)), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(body, indent=1, sort_keys=True) + "\n")
    return manifest


def _two_slots(tmp_path):
    """A two-slot file whose slots differ: the older holds height 6, the
    newer height 7.  Returns ``(older, newer)``."""
    older = _manifest(6)
    older.write(str(tmp_path), fsync=False)
    newer = _manifest(7)
    newer.seq = older.seq
    newer.write(str(tmp_path), fsync=False)
    return older, newer


def _slot_doc(raw, index):
    return json.loads(raw[index * SLOT : (index + 1) * SLOT])


def _load_or_manifest_error(tmp_path, raw):
    # rewritten in place: truncating and refilling the file would make the
    # file system free and reallocate its blocks on every call
    fd = os.open(manifest_path(str(tmp_path)), os.O_WRONLY | os.O_CREAT)
    try:
        os.pwrite(fd, raw, 0)
        os.ftruncate(fd, len(raw))
    finally:
        os.close(fd)
    try:
        return Manifest.load(str(tmp_path))
    except ManifestError:
        return None


def _fields(doc, prefix=()):
    """The path of every field of the document, nested ones included."""
    for key, value in doc.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _fields(value, (*prefix, key))


def _rechecksummed(doc, field, literal):
    """The manifest text with ``field`` set to the JSON ``literal`` and its
    checksum recomputed over what the loader will read."""
    marker = "\x00marker\x00"
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = marker
    text = json.dumps(doc, indent=1, sort_keys=True).replace(json.dumps(marker), literal)
    body = json.loads(text)
    del body["checksum"]
    return text.replace(doc["checksum"], Manifest._checksum(body)).encode()


class TestDamagedManifests:
    def test_the_valid_manifest_loads(self, tmp_path):
        expected = _valid(tmp_path)
        loaded = Manifest.load(str(tmp_path))
        assert loaded == expected
        assert loaded.seq == 0

    @pytest.mark.parametrize("mask", [0x01, 0x20, 0x80, 0xFF])
    def test_every_single_byte_flip(self, tmp_path, mask):
        _valid(tmp_path)
        with open(manifest_path(str(tmp_path)), "rb") as fh:
            raw = fh.read()
        for index in range(len(raw)):
            flipped = raw[:index] + bytes((raw[index] ^ mask,)) + raw[index + 1 :]
            loaded = _load_or_manifest_error(tmp_path, flipped)
            assert loaded is None or isinstance(loaded, Manifest)

    @pytest.mark.parametrize("literal", _BAD_VALUES, ids=["inf", "-inf", "nan", "1e400", "list", "nested"])
    def test_every_field_rechecksummed_to_a_bad_value(self, tmp_path, literal):
        _valid(tmp_path)
        with open(manifest_path(str(tmp_path)), "rb") as fh:
            doc = json.loads(fh.read())
        fields = [field for field in _fields(doc) if field != ("checksum",)]
        assert ("snapshot", "height") in fields and ("height",) in fields
        for field in fields:
            loaded = _load_or_manifest_error(tmp_path, _rechecksummed(doc, field, literal))
            assert loaded is None or isinstance(loaded, Manifest), field

    @pytest.mark.parametrize("text", [_TOO_DEEP, '{"height": ' + _TOO_DEEP + "}"], ids=["bare", "in-a-field"])
    def test_a_document_nested_past_the_decoder(self, tmp_path, text):
        assert _load_or_manifest_error(tmp_path, text.encode()) is None


class TestDamagedSlots:
    def test_the_newest_slot_loads(self, tmp_path):
        older, newer = _two_slots(tmp_path)
        assert (older.seq, newer.seq) == (2, 3)
        loaded = Manifest.load(str(tmp_path))
        assert loaded == newer and loaded.seq == 3
        with open(manifest_path(str(tmp_path)), "rb") as fh:
            raw = fh.read()
        assert len(raw) == 2 * SLOT
        for index in (0, 1):
            slot = raw[index * SLOT : (index + 1) * SLOT]
            assert slot.endswith(b" \n") and _slot_doc(raw, index)["seq"] % 2 == index

    def test_a_write_leaves_the_newest_slot_alone(self, tmp_path):
        _, newer = _two_slots(tmp_path)
        with open(manifest_path(str(tmp_path)), "rb") as fh:
            before = fh.read()
        newer.height = 8
        newer.write(str(tmp_path), fsync=False)
        with open(manifest_path(str(tmp_path)), "rb") as fh:
            after = fh.read()
        assert after[SLOT:] == before[SLOT:]  # slot 1 held sequence 3
        assert _slot_doc(after, 0)["seq"] == 4
        assert Manifest.load(str(tmp_path)).height == 8

    def test_both_slots_on_request(self, tmp_path):
        _, newer = _two_slots(tmp_path)
        newer.log_file = "blocks_00000004.log"
        newer.write(str(tmp_path), fsync=False, both=True)
        with open(manifest_path(str(tmp_path)), "rb") as fh:
            raw = fh.read()
        assert [_slot_doc(raw, i)["logFile"] for i in (0, 1)] == ["blocks_00000004.log"] * 2
        assert newer.seq == 5

    def test_a_legacy_file_converts_on_its_first_write(self, tmp_path):
        expected = _valid(tmp_path)
        loaded = Manifest.load(str(tmp_path))
        loaded.write(str(tmp_path), fsync=False)
        with open(manifest_path(str(tmp_path)), "rb") as fh:
            raw = fh.read()
        assert len(raw) == 2 * SLOT
        assert [_slot_doc(raw, i)["version"] for i in (0, 1)] == [2, 2]
        again = Manifest.load(str(tmp_path))
        assert again == expected and again.seq == loaded.seq == 2

    def test_a_manifest_too_big_for_its_slot(self, tmp_path):
        _, newer = _two_slots(tmp_path)
        with open(manifest_path(str(tmp_path)), "rb") as fh:
            before = fh.read()
        newer.serve = {"note": "x" * SLOT}
        with pytest.raises(ManifestError):
            newer.write(str(tmp_path), fsync=False)
        with open(manifest_path(str(tmp_path)), "rb") as fh:
            assert fh.read() == before
        assert newer.seq == 3  # nothing written, so the next write still targets the older slot

    @pytest.mark.parametrize("mask", [0x01, 0x20, 0x80, 0xFF])
    def test_every_single_byte_flip_in_one_slot(self, tmp_path, mask):
        older, newer = _two_slots(tmp_path)
        with open(manifest_path(str(tmp_path)), "rb") as fh:
            raw = fh.read()
        for index, survivor in ((0, newer), (1, older)):
            base = index * SLOT
            document = len(_slot_doc_text(raw, index))
            # every byte of the document, then the padding's first and last few
            offsets = [*range(document + 4), *range(SLOT - 4, SLOT)]
            for offset in offsets:
                at = base + offset
                flipped = raw[:at] + bytes((raw[at] ^ mask,)) + raw[at + 1 :]
                loaded = _load_or_manifest_error(tmp_path, flipped)
                assert loaded == survivor, (index, offset)

    def test_both_slots_flipped(self, tmp_path):
        _two_slots(tmp_path)
        with open(manifest_path(str(tmp_path)), "rb") as fh:
            raw = bytearray(fh.read())
        for at in (40, SLOT + 40):
            raw[at] ^= 0x01
        assert _load_or_manifest_error(tmp_path, bytes(raw)) is None

    @pytest.mark.parametrize("literal", _BAD_VALUES, ids=["inf", "-inf", "nan", "1e400", "list", "nested"])
    def test_every_field_of_a_slot_rechecksummed_to_a_bad_value(self, tmp_path, literal):
        older, newer = _two_slots(tmp_path)
        with open(manifest_path(str(tmp_path)), "rb") as fh:
            raw = fh.read()
        for index, survivor in ((0, newer), (1, older)):
            doc = _slot_doc(raw, index)
            fields = [field for field in _fields(doc) if field != ("checksum",)]
            assert ("seq",) in fields and ("snapshot", "height") in fields
            for field in fields:
                slot = _rechecksummed_slot(doc, field, literal)
                damaged = raw[: index * SLOT] + slot + raw[(index + 1) * SLOT :]
                loaded = _load_or_manifest_error(tmp_path, damaged)
                assert loaded is None or isinstance(loaded, Manifest), field
                if loaded is not None and loaded != survivor:
                    # the bad value was coerced, not refused: it came from this slot
                    assert loaded.seq % 2 == index, field


def _slot_doc_text(raw, index):
    return raw[index * SLOT : (index + 1) * SLOT].rstrip(b" \n")


def _rechecksummed_slot(doc, field, literal):
    """Slot bytes holding ``doc`` with ``field`` set to the JSON ``literal``
    and its checksum recomputed over what the loader will read."""
    marker = "\x00marker\x00"
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = marker
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")).replace(json.dumps(marker), literal)
    body = json.loads(text)
    del body["checksum"]
    text = text.replace(doc["checksum"], Manifest._checksum(body))
    assert len(text) < SLOT
    return (text.ljust(SLOT - 1) + "\n").encode()
