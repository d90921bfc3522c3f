"""Validator + applier tests: acceptance, Algorithm-2 rejection paths,
phase timing, and fault injection against tampered blocks/profiles."""

import dataclasses

import pytest

from repro.chain.block import Block, BlockProfile, TxProfileEntry
from repro.common.types import address_from_int, hash32
from repro.core.applier import Applier, ProfileMismatch
from repro.core.baselines import SerialExecutor
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.faults.errors import FailureReason
from repro.faults.injector import FaultConfig, FaultInjector
from repro.network.node import ProposerNode
from repro.state.access import FrozenRWSet, ReadWriteSet, storage_key


@pytest.fixture()
def sealed(small_universe, small_generator, genesis_chain):
    txs = small_generator.generate_block_txs()
    node = ProposerNode("alice")
    return node.build_block(
        genesis_chain.genesis.header, small_universe.genesis, txs
    )


class TestAcceptance:
    def test_honest_block_accepted(self, sealed, small_universe):
        validator = ParallelValidator()
        res = validator.validate_block(sealed.block, small_universe.genesis)
        assert res.accepted, res.reason
        assert res.post_state.state_root() == sealed.block.header.state_root

    def test_matches_serial_execution(self, sealed, small_universe):
        validator = ParallelValidator()
        serial = SerialExecutor()
        res = validator.validate_block(sealed.block, small_universe.genesis)
        sres = serial.execute_block(sealed.block, small_universe.genesis)
        assert res.post_state.state_root() == sres.post_state.state_root()

    def test_phase_times_ordered(self, sealed, small_universe):
        res = ParallelValidator().validate_block(sealed.block, small_universe.genesis)
        p = res.phases
        assert 0 < p.prep_end <= p.exec_end <= p.validate_end < p.commit_end

    def test_speedup_positive_and_bounded(self, sealed, small_universe):
        for lanes in (1, 2, 8):
            res = ParallelValidator(
                config=ValidatorConfig(lanes=lanes)
            ).validate_block(sealed.block, small_universe.genesis)
            assert res.accepted
            assert 0.2 < res.speedup <= lanes + 1

    def test_more_lanes_never_hurt_much(self, sealed, small_universe):
        r2 = ParallelValidator(config=ValidatorConfig(lanes=2)).validate_block(
            sealed.block, small_universe.genesis
        )
        r16 = ParallelValidator(config=ValidatorConfig(lanes=16)).validate_block(
            sealed.block, small_universe.genesis
        )
        assert r16.makespan <= r2.makespan * 1.01

    def test_empty_block_accepted(self, small_universe, genesis_chain):
        node = ProposerNode("alice")
        sealed = node.build_block(
            genesis_chain.genesis.header, small_universe.genesis, []
        )
        res = ParallelValidator().validate_block(sealed.block, small_universe.genesis)
        assert res.accepted
        assert res.graph.tx_count == 0

    def test_deterministic(self, sealed, small_universe):
        v = ParallelValidator()
        r1 = v.validate_block(sealed.block, small_universe.genesis)
        r2 = v.validate_block(sealed.block, small_universe.genesis)
        assert r1.makespan == r2.makespan
        assert r1.post_state.state_root() == r2.post_state.state_root()


def tamper(block: Block, **header_changes) -> Block:
    header = dataclasses.replace(block.header, **header_changes)
    return dataclasses.replace(block, header=header)


class TestRejection:
    def test_wrong_state_root_rejected(self, sealed, small_universe):
        bad = tamper(sealed.block, state_root=hash32(b"\x01" * 32))
        res = ParallelValidator().validate_block(bad, small_universe.genesis)
        assert not res.accepted
        assert "state root" in res.reason

    def test_wrong_gas_used_rejected(self, sealed, small_universe):
        bad = tamper(sealed.block, gas_used=sealed.block.header.gas_used + 1)
        res = ParallelValidator().validate_block(bad, small_universe.genesis)
        assert not res.accepted
        assert "gas" in res.reason

    def test_tampered_tx_list_rejected(self, sealed, small_universe):
        block = sealed.block
        reordered = dataclasses.replace(
            block, transactions=tuple(reversed(block.transactions))
        )
        res = ParallelValidator().validate_block(reordered, small_universe.genesis)
        assert not res.accepted
        assert "structure" in res.reason

    def test_missing_profile_rejected_by_default(self, sealed, small_universe):
        stripped = dataclasses.replace(sealed.block, profile=None)
        res = ParallelValidator().validate_block(stripped, small_universe.genesis)
        assert not res.accepted
        assert "profile" in res.reason

    def test_missing_profile_fallback_accepts(self, sealed, small_universe):
        stripped = dataclasses.replace(sealed.block, profile=None)
        validator = ParallelValidator(
            config=ValidatorConfig(preexecute_fallback=True)
        )
        res = validator.validate_block(stripped, small_universe.genesis)
        assert res.accepted
        # the fallback pays serial pre-execution in the preparation phase
        assert res.prep_cost > sum(res.tx_costs)

    def test_lying_profile_rw_set_rejected(self, sealed, small_universe):
        block = sealed.block
        entries = list(block.profile.entries)
        victim = entries[0]
        fake_rw = ReadWriteSet()
        fake_rw.record_write(storage_key(address_from_int(0x666), 1), 1)
        entries[0] = dataclasses.replace(victim, rw=fake_rw.freeze())
        lying = dataclasses.replace(block, profile=BlockProfile(tuple(entries)))
        res = ParallelValidator().validate_block(lying, small_universe.genesis)
        assert not res.accepted
        assert "profile mismatch" in res.reason

    def test_lying_profile_gas_rejected(self, sealed, small_universe):
        block = sealed.block
        entries = list(block.profile.entries)
        entries[2] = dataclasses.replace(entries[2], gas_used=entries[2].gas_used + 1)
        lying = dataclasses.replace(block, profile=BlockProfile(tuple(entries)))
        res = ParallelValidator().validate_block(lying, small_universe.genesis)
        assert not res.accepted
        assert "tx 2" in res.reason

    def test_wrong_parent_state_rejected(self, sealed, small_universe):
        from repro.state.statedb import StateDB

        db = StateDB(small_universe.genesis)
        db.add_balance(address_from_int(0x1000_0000), 12345)
        divergent = db.commit()
        res = ParallelValidator().validate_block(sealed.block, divergent)
        assert not res.accepted

    def test_profile_verification_can_be_disabled(self, sealed, small_universe):
        """Ablation: with verify_profile=False a lying rw-set passes the
        per-tx check but the state root still protects the chain."""
        block = sealed.block
        entries = list(block.profile.entries)
        fake_rw = ReadWriteSet()
        fake_rw.record_write(storage_key(address_from_int(0x666), 1), 1)
        entries[0] = dataclasses.replace(entries[0], rw=fake_rw.freeze())
        lying = dataclasses.replace(block, profile=BlockProfile(tuple(entries)))
        validator = ParallelValidator(config=ValidatorConfig(verify_profile=False))
        res = validator.validate_block(lying, small_universe.genesis)
        # state root still matches (execution was honest), so accepted:
        # the profile lie only corrupted scheduling hints
        assert res.accepted


class TestAdversarialProfileMatrix:
    """Every corruption kind maps to exactly one typed FailureReason.

    The matrix pins the failure *taxonomy*, not just rejection: a
    validator that rejects a lying profile as a state-root mismatch has
    lost the diagnostic that tells operators which peer lied and how.
    """

    MATRIX = [
        ("drop_profile", FailureReason.MALFORMED_BLOCK),
        ("truncate_txs", FailureReason.MALFORMED_BLOCK),
        ("reorder_txs", FailureReason.MALFORMED_BLOCK),
        ("state_root", FailureReason.STATE_ROOT_MISMATCH),
        ("header_gas", FailureReason.RECEIPT_MISMATCH),
        ("profile_read_drop", FailureReason.PROFILE_READ_MISMATCH),
        ("profile_read_add", FailureReason.PROFILE_READ_MISMATCH),
        ("profile_write_swap", FailureReason.PROFILE_WRITE_MISMATCH),
        ("profile_write_value", FailureReason.PROFILE_WRITE_MISMATCH),
        ("profile_gas", FailureReason.PROFILE_GAS_MISMATCH),
        ("profile_status", FailureReason.PROFILE_GAS_MISMATCH),
    ]

    @pytest.mark.parametrize("kind,expected", MATRIX, ids=[k for k, _ in MATRIX])
    def test_corruption_yields_typed_reason(
        self, sealed, small_universe, kind, expected
    ):
        corrupted = FaultInjector(FaultConfig(seed=3)).corrupt_block(
            sealed.block, kind
        )
        res = ParallelValidator().validate_block(corrupted, small_universe.genesis)
        assert not res.accepted
        assert res.failure is not None
        assert res.failure.reason is expected, (
            f"{kind}: got {res.failure.reason}, want {expected}"
        )

    @pytest.mark.parametrize("kind,expected", MATRIX, ids=[k for k, _ in MATRIX])
    def test_corruption_seed_independent(
        self, sealed, small_universe, kind, expected
    ):
        # the *reason* must not depend on which tx the injector picked
        corrupted = FaultInjector(FaultConfig(seed=1234)).corrupt_block(
            sealed.block, kind
        )
        res = ParallelValidator().validate_block(corrupted, small_universe.genesis)
        assert not res.accepted
        assert res.failure.reason is expected

    def test_swapped_rw_sets_between_entries_rejected(
        self, sealed, small_universe
    ):
        # hand-rolled shuffle: two entries trade whole rw-sets
        block = sealed.block
        entries = list(block.profile.entries)
        i, j = 0, len(entries) - 1
        assert entries[i].rw != entries[j].rw
        entries[i], entries[j] = (
            dataclasses.replace(entries[i], rw=entries[j].rw),
            dataclasses.replace(entries[j], rw=entries[i].rw),
        )
        lying = dataclasses.replace(block, profile=BlockProfile(tuple(entries)))
        res = ParallelValidator().validate_block(lying, small_universe.genesis)
        assert not res.accepted
        assert res.failure.reason in (
            FailureReason.PROFILE_READ_MISMATCH,
            FailureReason.PROFILE_WRITE_MISMATCH,
        )

    def test_superset_profile_rejected(self, sealed, small_universe):
        # declaring MORE than the tx touches is as dishonest as less: an
        # inflated footprint degrades the schedule other validators build
        block = sealed.block
        entries = list(block.profile.entries)
        victim = entries[0]
        padded = FrozenRWSet(
            reads=victim.rw.reads
            + ((storage_key(address_from_int(0x7777), 1), 0),),
            writes=victim.rw.writes,
        )
        entries[0] = dataclasses.replace(victim, rw=padded)
        lying = dataclasses.replace(block, profile=BlockProfile(tuple(entries)))
        res = ParallelValidator().validate_block(lying, small_universe.genesis)
        assert not res.accepted
        assert res.failure.reason is FailureReason.PROFILE_READ_MISMATCH

    def test_subset_profile_rejected(self, sealed, small_universe):
        block = sealed.block
        entries = list(block.profile.entries)
        victim = next(e for e in entries if e.rw.reads)
        index = entries.index(victim)
        stripped = FrozenRWSet(reads=victim.rw.reads[1:], writes=victim.rw.writes)
        entries[index] = dataclasses.replace(victim, rw=stripped)
        lying = dataclasses.replace(block, profile=BlockProfile(tuple(entries)))
        res = ParallelValidator().validate_block(lying, small_universe.genesis)
        assert not res.accepted
        assert res.failure.reason is FailureReason.PROFILE_READ_MISMATCH


class TestApplierUnit:
    def make_entry(self, rw: ReadWriteSet, gas=1000, success=True):
        from repro.common.hashing import hash_of

        return TxProfileEntry(
            tx_hash=hash_of(b"t"), rw=rw.freeze(), gas_used=gas, success=success
        )

    def test_exact_match_passes(self):
        rw = ReadWriteSet()
        rw.record_read(storage_key(address_from_int(1), 0), 0)
        rw.record_write(storage_key(address_from_int(1), 0), 5)
        entry = self.make_entry(rw)

        class R:
            gas_used = 1000
            success = True

        Applier().verify_tx(0, entry, rw, R())

    def test_read_versions_not_compared(self):
        rw_prop = ReadWriteSet()
        rw_prop.record_read(storage_key(address_from_int(1), 0), version=7)
        rw_val = ReadWriteSet()
        rw_val.record_read(storage_key(address_from_int(1), 0), version=0)
        entry = self.make_entry(rw_prop)

        class R:
            gas_used = 1000
            success = True

        Applier().verify_tx(0, entry, rw_val, R())  # must not raise

    def test_extra_read_rejected(self):
        entry = self.make_entry(ReadWriteSet())
        rw = ReadWriteSet()
        rw.record_read(storage_key(address_from_int(1), 0), 0)

        class R:
            gas_used = 1000
            success = True

        with pytest.raises(ProfileMismatch, match="read set"):
            Applier().verify_tx(3, entry, rw, R())

    def test_wrong_write_value_rejected(self):
        rw_prop = ReadWriteSet()
        rw_prop.record_write(storage_key(address_from_int(1), 0), 5)
        rw_val = ReadWriteSet()
        rw_val.record_write(storage_key(address_from_int(1), 0), 6)
        entry = self.make_entry(rw_prop)

        class R:
            gas_used = 1000
            success = True

        with pytest.raises(ProfileMismatch, match="write set"):
            Applier().verify_tx(0, entry, rw_val, R())

    def test_status_mismatch_rejected(self):
        entry = self.make_entry(ReadWriteSet(), success=True)

        class R:
            gas_used = 1000
            success = False

        with pytest.raises(ProfileMismatch, match="status"):
            Applier().verify_tx(0, entry, ReadWriteSet(), R())
