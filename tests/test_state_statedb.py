"""StateDB tests: overlay reads, journal/revert, commit and root hashing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import address_from_int
from repro.state.account import AccountData
from repro.state.statedb import StateDB, genesis_snapshot

A1 = address_from_int(1)
A2 = address_from_int(2)
A3 = address_from_int(3)


def make_base():
    return genesis_snapshot(
        {
            A1: AccountData(balance=1000),
            A2: AccountData(balance=500, code=b"\x00", storage={1: 42}),
        }
    )


class TestReads:
    def test_base_values_visible(self):
        db = StateDB(make_base())
        assert db.get_balance(A1) == 1000
        assert db.get_storage(A2, 1) == 42
        assert db.get_code(A2) == b"\x00"

    def test_missing_account_defaults(self):
        db = StateDB(make_base())
        assert db.get_balance(A3) == 0
        assert db.get_nonce(A3) == 0
        assert db.get_code(A3) == b""
        assert db.get_storage(A3, 0) == 0
        assert not db.account_exists(A3)

    def test_missing_slot_is_zero(self):
        db = StateDB(make_base())
        assert db.get_storage(A2, 999) == 0


class TestWrites:
    def test_balance_update(self):
        db = StateDB(make_base())
        db.sub_balance(A1, 100)
        db.add_balance(A2, 100)
        assert db.get_balance(A1) == 900
        assert db.get_balance(A2) == 600

    def test_negative_balance_rejected(self):
        db = StateDB(make_base())
        with pytest.raises(ValueError):
            db.sub_balance(A1, 2000)

    def test_write_creates_account(self):
        db = StateDB(make_base())
        db.add_balance(A3, 5)
        assert db.account_exists(A3)

    def test_storage_write_read(self):
        db = StateDB(make_base())
        db.set_storage(A2, 7, 99)
        assert db.get_storage(A2, 7) == 99
        assert db.get_storage(A2, 1) == 42  # untouched slot still visible

    def test_nonce_increment(self):
        db = StateDB(make_base())
        db.increment_nonce(A1)
        db.increment_nonce(A1)
        assert db.get_nonce(A1) == 2


class TestJournal:
    def test_revert_restores_balance(self):
        db = StateDB(make_base())
        mark = db.snapshot()
        db.sub_balance(A1, 100)
        db.revert_to(mark)
        assert db.get_balance(A1) == 1000

    def test_revert_restores_storage(self):
        db = StateDB(make_base())
        mark = db.snapshot()
        db.set_storage(A2, 1, 0)
        db.set_storage(A2, 5, 123)
        db.revert_to(mark)
        assert db.get_storage(A2, 1) == 42
        assert db.get_storage(A2, 5) == 0

    def test_nested_reverts(self):
        db = StateDB(make_base())
        db.sub_balance(A1, 100)  # kept
        outer = db.snapshot()
        db.sub_balance(A1, 100)
        inner = db.snapshot()
        db.sub_balance(A1, 100)
        db.revert_to(inner)
        assert db.get_balance(A1) == 800
        db.revert_to(outer)
        assert db.get_balance(A1) == 900

    def test_revert_removes_created_account(self):
        db = StateDB(make_base())
        mark = db.snapshot()
        db.add_balance(A3, 1)
        db.revert_to(mark)
        assert not db.account_exists(A3)
        snap = db.commit()
        assert snap.account(A3) is None

    def test_invalid_mark_rejected(self):
        db = StateDB(make_base())
        with pytest.raises(ValueError):
            db.revert_to(99)
        with pytest.raises(ValueError):
            db.revert_to(-1)


class TestCommit:
    def test_commit_folds_changes(self):
        db = StateDB(make_base())
        db.sub_balance(A1, 100)
        db.set_storage(A2, 1, 43)
        snap = db.commit()
        assert snap.account(A1).balance == 900
        assert snap.account(A2).storage[1] == 43

    def test_commit_changes_root(self):
        base = make_base()
        db = StateDB(base)
        db.sub_balance(A1, 1)
        snap = db.commit()
        assert snap.state_root() != base.state_root()

    def test_noop_commit_preserves_root(self):
        base = make_base()
        snap = StateDB(base).commit()
        assert snap.state_root() == base.state_root()

    def test_read_only_touch_preserves_root(self):
        base = make_base()
        db = StateDB(base)
        db.get_balance(A1)
        db.get_storage(A2, 1)
        assert db.commit().state_root() == base.state_root()

    def test_equal_states_equal_roots_different_histories(self):
        base = make_base()
        db1 = StateDB(base)
        db1.sub_balance(A1, 100)
        db1.add_balance(A2, 100)

        db2 = StateDB(base)
        db2.add_balance(A2, 100)
        db2.sub_balance(A1, 100)
        assert db1.commit().state_root() == db2.commit().state_root()

    def test_storage_zeroing_restores_root(self):
        base = make_base()
        db = StateDB(base)
        db.set_storage(A2, 50, 7)
        mid = db.commit()
        db2 = StateDB(mid)
        db2.set_storage(A2, 50, 0)
        assert db2.commit().state_root() == base.state_root()

    def test_empty_account_pruned(self):
        base = make_base()
        db = StateDB(base)
        db.add_balance(A3, 10)
        db.sub_balance(A3, 10)
        snap = db.commit()
        assert snap.account(A3) is None
        assert snap.state_root() == base.state_root()

    def test_genesis_of_zero_slots_only_is_empty(self):
        """A zero slot is an absent slot, at genesis as after a commit: an
        alloc entry of zero slots only is an empty account."""
        snap = genesis_snapshot({A3: AccountData(storage={1: 0})})
        assert snap.state_root() == genesis_snapshot({}).state_root()
        assert dict(snap.accounts) == {}

    def test_base_snapshot_untouched_by_commit(self):
        base = make_base()
        db = StateDB(base)
        db.set_storage(A2, 1, 777)
        db.commit()
        assert base.account(A2).storage[1] == 42

    def test_chained_commits(self):
        base = make_base()
        db1 = StateDB(base)
        db1.sub_balance(A1, 10)
        s1 = db1.commit()
        db2 = StateDB(s1)
        db2.sub_balance(A1, 10)
        s2 = db2.commit()
        assert s2.account(A1).balance == 980
        assert len({base.state_root(), s1.state_root(), s2.state_root()}) == 3

    def test_storage_root_tracks_contract_storage(self):
        base = make_base()
        db = StateDB(base)
        db.set_storage(A2, 2, 5)
        snap = db.commit()
        assert snap.storage_root(A2) != base.storage_root(A2)
        assert snap.storage_root(A1) == base.storage_root(A1)


# --------------------------------------------------------------------------- #
# genesis_snapshot over a base: the delta build against the from-scratch one
# --------------------------------------------------------------------------- #

#: small slot and value ranges, so a draw often changes, zeroes or re-adds a
#: slot the base holds
_SLOTS = st.dictionaries(st.integers(0, 6), st.integers(0, 3), max_size=5)
_ACCOUNTS = st.builds(
    AccountData,
    nonce=st.integers(0, 2),
    balance=st.integers(0, 3),
    code=st.sampled_from([b"", b"\x00", b"\x60\x00"]),
    storage=_SLOTS,
)


@st.composite
def _base_and_target(draw):
    """A base allocation and a target drawn from it: each base account is
    kept as is, dropped, or edited (nonce, balance, code, and slots added,
    changed, removed or set to zero); new accounts join."""
    base_alloc = draw(st.dictionaries(st.integers(1, 8), _ACCOUNTS, max_size=6))
    target = {}
    for key, data in base_alloc.items():
        fate = draw(st.sampled_from(["keep", "drop", "edit"]))
        if fate == "keep":
            target[key] = data
        elif fate == "edit":
            storage = dict(data.storage)
            for slot in draw(st.lists(st.sampled_from(sorted(storage)), unique=True)) if storage else ():
                storage[slot] = draw(st.integers(0, 3))  # 0: the slot is deleted
            for slot in draw(st.lists(st.sampled_from(sorted(storage)), unique=True)) if storage else ():
                del storage[slot]
            storage.update(draw(_SLOTS))
            target[key] = AccountData(
                draw(st.sampled_from([data.nonce, data.nonce + 1])),
                draw(st.sampled_from([data.balance, data.balance + 1])),
                draw(st.sampled_from([data.code, b"\x60\x01"])),
                storage,
            )
    for key, data in draw(st.dictionaries(st.integers(9, 14), _ACCOUNTS, max_size=4)).items():
        target[key] = data
    return _alloc(base_alloc), _alloc(target)


def _alloc(raw):
    return {address_from_int(key): data for key, data in raw.items()}


class TestGenesisOverABase:
    @settings(max_examples=200, deadline=None)
    @given(_base_and_target())
    def test_the_delta_build_equals_the_scratch_build(self, allocs):
        base_alloc, target = allocs
        base = genesis_snapshot(base_alloc)
        delta = genesis_snapshot(target, base)
        scratch = genesis_snapshot(target)
        assert delta.state_root() == scratch.state_root()
        assert dict(delta.accounts) == dict(scratch.accounts)
        for address in scratch.accounts:
            assert delta.storage_root(address) == scratch.storage_root(address)
        # the saving: an account left as the base holds it keeps its trie
        for address, data in target.items():
            if data is base_alloc.get(address) and address in base._storage_tries:
                assert delta._storage_tries[address] is base._storage_tries[address]

    def test_an_untouched_contract_keeps_the_base_trie(self):
        base = make_base()
        delta = genesis_snapshot({A2: base.accounts[A2], A3: AccountData(balance=1)}, base)
        assert delta._storage_tries[A2] is base._storage_tries[A2]
        assert delta.accounts[A2] is base.accounts[A2]
        assert A1 not in delta.accounts
        assert delta.state_root() == genesis_snapshot(
            {A2: base.accounts[A2], A3: AccountData(balance=1)}
        ).state_root()

    def test_a_zero_slot_over_a_base_slot_deletes_it(self):
        base = make_base()
        target = {
            A1: base.accounts[A1],
            A2: AccountData(balance=500, code=b"\x00", storage={1: 0, 2: 9}),
        }
        delta = genesis_snapshot(target, base)
        assert dict(delta.accounts[A2].storage) == {2: 9}
        assert delta.state_root() == genesis_snapshot(target).state_root()
        assert delta.storage_root(A2) == genesis_snapshot(target).storage_root(A2)

    def test_no_allocation_over_a_base_is_the_empty_state(self):
        assert genesis_snapshot({}, make_base()).state_root() == genesis_snapshot({}).state_root()
