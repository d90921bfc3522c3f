"""Tests for the library-facade snapshot serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import address_from_int
from repro.state.account import AccountData
from repro.state.serialize import (
    SnapshotFormatError,
    snapshot_from_json,
    snapshot_to_json,
)
from repro.state.statedb import genesis_snapshot

ETHER = 10**18
SENDER = address_from_int(0x77)
CONTRACT = address_from_int(0x88)


class TestSnapshotSerialization:
    def make(self):
        return genesis_snapshot(
            {
                SENDER: AccountData(balance=5 * ETHER, nonce=3),
                CONTRACT: AccountData(
                    code=b"\x60\x00", storage={1: 42, 2**200: 7}
                ),
            }
        )

    def test_round_trip_preserves_root(self):
        snap = self.make()
        rebuilt = snapshot_from_json(snapshot_to_json(snap))
        assert rebuilt.state_root() == snap.state_root()
        assert rebuilt.account(SENDER).balance == 5 * ETHER
        assert rebuilt.account(CONTRACT).storage[2**200] == 7

    def test_universe_genesis_round_trips(self, small_universe):
        text = snapshot_to_json(small_universe.genesis)
        rebuilt = snapshot_from_json(text)
        assert rebuilt.state_root() == small_universe.genesis.state_root()

    def test_tampered_root_detected(self):
        text = snapshot_to_json(self.make())
        tampered = text.replace('"stateRoot": "', '"stateRoot": "00', 1)
        with pytest.raises(SnapshotFormatError, match="root mismatch"):
            snapshot_from_json(tampered)

    def test_verify_can_be_skipped(self):
        text = snapshot_to_json(self.make())
        tampered = text.replace('"stateRoot": "', '"stateRoot": "00', 1)
        snapshot_from_json(tampered, verify_root=False)  # no raise

    def test_garbage_rejected(self):
        with pytest.raises(SnapshotFormatError):
            snapshot_from_json("[]")
        with pytest.raises(SnapshotFormatError):
            snapshot_from_json("{nope")

    @settings(max_examples=25, deadline=None)
    @given(
        st.dictionaries(
            st.integers(1, 50),
            st.tuples(st.integers(0, 10**20), st.integers(0, 5)),
            max_size=10,
        )
    )
    def test_property_round_trip(self, raw):
        alloc = {
            address_from_int(0x1000 + k): AccountData(balance=b, nonce=n)
            for k, (b, n) in raw.items()
        }
        snap = genesis_snapshot(alloc)
        rebuilt = snapshot_from_json(snapshot_to_json(snap))
        assert rebuilt.state_root() == snap.state_root()
