"""``Manifest.load`` on damaged files: whatever the bytes, a ``Manifest`` or a
``ManifestError`` — never a stray ``UnicodeDecodeError``, ``RecursionError``
or ``OverflowError``."""

import hashlib
import json

import pytest

from repro.store.errors import ManifestError
from repro.store.manifest import Manifest, SnapshotRef, manifest_path

pytestmark = pytest.mark.store

#: values a field must not be trusted with: JSON's non-standard constants, a
#: float literal that parses as infinity, a list, and a nesting deep enough
#: to be slow to print but shallow enough for the decoder to read
_BAD_VALUES = ["Infinity", "-Infinity", "NaN", "1e400", "[1, 2]", "[" * 900 + "]" * 900]

#: a nesting no decoder frame budget survives
_TOO_DEEP = "[" * 100_000 + "]" * 100_000


def _valid(tmp_path):
    manifest = Manifest(
        height=7,
        head_hash="ab" * 32,
        state_root="cd" * 32,
        log_bytes=4096,
        snapshot=SnapshotRef("snap-4.bin", 4, "ef" * 32, "01" * 32, "02" * 40),
        serve={"seed": 42, "txs_per_block": 12},
    )
    manifest.write(str(tmp_path), fsync=False)
    return manifest


def _load_or_manifest_error(tmp_path, raw):
    with open(manifest_path(str(tmp_path)), "wb") as fh:
        fh.write(raw)
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
        assert Manifest.load(str(tmp_path)) == expected

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
