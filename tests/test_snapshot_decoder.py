"""``snapshot_from_json`` answers every document with a snapshot or a
:class:`SnapshotFormatError` — never another exception.

A snapshot file only reaches the decoder once its sha256 matches the
manifest's, so these cases call the decoder directly, and one goes through
``load_snapshot`` with a tampered file and the digest recomputed to match,
where the typed error becomes :class:`SnapshotCorruptError`.
"""

import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.types import address_from_int
from repro.state.account import AccountData
from repro.state.serialize import SnapshotFormatError, snapshot_from_json, snapshot_to_json
from repro.state.statedb import StateSnapshot, genesis_snapshot
from repro.store.errors import SnapshotCorruptError
from repro.store.snapshots import load_snapshot

pytestmark = pytest.mark.robustness

HOLDER = address_from_int(0x77)
CONTRACT = address_from_int(0x88)


def _valid_doc():
    snapshot = genesis_snapshot(
        {
            HOLDER: AccountData(balance=5 * 10**18, nonce=3),
            CONTRACT: AccountData(code=b"\x60\x00", storage={1: 42, 2**200: 7}),
        }
    )
    return json.loads(snapshot_to_json(snapshot))


def _decodes_or_format_error(text):
    """The contract: a snapshot, or ``SnapshotFormatError`` (``None``);
    any other exception fails the calling test by propagating."""
    try:
        snapshot = snapshot_from_json(text)
    except SnapshotFormatError:
        return None
    assert isinstance(snapshot, StateSnapshot)
    return snapshot


def _doc_with(path, value):
    doc = _valid_doc()
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return json.dumps(doc)


class TestStrayExceptions:
    """Each case escaped as another exception before the decoder checked
    shapes: ``AttributeError`` for the three lists, ``TypeError`` for the
    root, ``RecursionError`` for the nesting."""

    @pytest.mark.parametrize(
        "path",
        [("accounts",), ("accounts", HOLDER.hex()), ("accounts", CONTRACT.hex(), "storage")],
        ids=["accounts", "account-entry", "storage"],
    )
    def test_a_list_where_an_object_belongs(self, path):
        with pytest.raises(SnapshotFormatError):
            snapshot_from_json(_doc_with(path, [1, 2]))

    @pytest.mark.parametrize("root", [12345, ["ab"], {"x": 1}, 1.5], ids=["int", "list", "object", "float"])
    def test_a_state_root_that_is_not_a_string(self, root):
        with pytest.raises(SnapshotFormatError):
            snapshot_from_json(_doc_with(("stateRoot",), root))

    def test_a_document_nested_past_the_parser(self):
        with pytest.raises(SnapshotFormatError):
            snapshot_from_json("[" * 100_000 + "]" * 100_000)

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e400"])
    def test_a_number_no_integer_holds(self, literal):
        text = _doc_with(("accounts", HOLDER.hex(), "nonce"), "@").replace('"@"', literal)
        with pytest.raises(SnapshotFormatError):
            snapshot_from_json(text)

    def test_the_valid_document_still_decodes(self):
        doc = _valid_doc()
        assert snapshot_from_json(json.dumps(doc)).state_root().hex() == doc["stateRoot"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))


class TestEveryDocument:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data(), json_values)
    def test_any_value_anywhere(self, data, value):
        paths = [path for path in _paths(_valid_doc()) if path]
        path = data.draw(st.sampled_from(paths))
        _decodes_or_format_error(_doc_with(path, value))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_byte_flipped(self, data):
        text = json.dumps(_valid_doc())
        index = data.draw(st.integers(0, len(text) - 1))
        char = data.draw(st.characters(max_codepoint=0x7F))
        _decodes_or_format_error(text[:index] + char + text[index + 1 :])


class TestThroughTheStore:
    def test_a_tampered_pair_is_a_corrupt_snapshot(self, tmp_path):
        raw = _doc_with(("accounts", HOLDER.hex()), ["tampered"]).encode()
        (tmp_path / "snap.json").write_bytes(raw)
        with pytest.raises(SnapshotCorruptError):
            load_snapshot(
                str(tmp_path),
                "snap.json",
                expect_sha256=hashlib.sha256(raw).hexdigest(),
                expect_root=bytes(32),
            )
