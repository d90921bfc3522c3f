"""Unit tests for the real-parallelism backend layer (repro.exec)."""

import dataclasses
import io
import multiprocessing.process
import os
import pickle
import pickletools
import signal
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import build_parser
from repro.chain.blockchain import Blockchain
from repro.common.types import address, address_from_int
from repro.core.occ_wsi import OCCWSIProposer, ProposerConfig
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.evm.interpreter import ExecutionContext
from repro.exec import (
    BACKEND_CHOICES,
    FootprintMiss,
    GuardedSnapshot,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    get_backend,
)
from repro.exec import backend as backend_module
from repro.exec import validating as validating_module
from repro.exec.backend import BackendError, apply_delta, diff_accounts
from repro.exec.tasks import (
    ProposeChunk,
    ProposeShared,
    build_state_slice,
    run_propose_chunk,
)
from repro.network.node import ProposerNode, ValidatorNode
from repro.obs.metrics import MetricsRegistry
from repro.state.account import AccountData
from repro.state.statedb import StateSnapshot, genesis_snapshot
from repro.store.codec import encode_block
from repro.txpool.pool import TxPool
from repro.workload.generator import BlockWorkloadGenerator
from repro.workload.scenarios import mainnet_scenario
from repro.workload.universe import build_universe

pytestmark = pytest.mark.exec


def _double(shared, payload):
    """Module-level so the process pool can pickle it by reference."""
    return (shared, payload * 2)


def _shared_and_pid(shared, payload):
    return (shared, os.getpid())


def _pid(shared, payload):
    return os.getpid()


def _misbehave(shared, payload):
    """``"raise"`` raises, ``"die"`` kills its own worker, a number sleeps."""
    if payload == "raise":
        raise ValueError("boom")
    if payload == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    if isinstance(payload, float):
        time.sleep(payload)
    return payload


class TestFactory:
    def test_sim_and_none_select_the_simulator(self):
        assert get_backend(None) is None
        assert get_backend("sim") is None

    @pytest.mark.parametrize(
        "name, cls",
        [("serial", SerialBackend), ("thread", ThreadBackend), ("process", ProcessBackend)],
    )
    def test_real_backends(self, name, cls):
        backend = get_backend(name, workers=2)
        assert isinstance(backend, cls)
        assert backend.name == name
        backend.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("gpu")

    def test_choices_cover_factory(self):
        assert set(BACKEND_CHOICES) == {"sim", "serial", "thread", "process"}

    def test_serial_is_single_worker(self):
        assert SerialBackend(workers=8).workers == 1


class TestMapContract:
    @pytest.mark.parametrize("factory", [SerialBackend, lambda: ThreadBackend(3)])
    def test_in_memory_map_order_and_shared(self, factory):
        with factory() as backend:
            backend.open("session")
            out = backend.map(_double, list(range(20)))
        assert out == [("session", i * 2) for i in range(20)]

    def test_process_map_order_and_shared(self):
        with ProcessBackend(workers=2) as backend:
            backend.open({"k": 7})
            out = backend.map(_double, list(range(8)))
        assert out == [({"k": 7}, i * 2) for i in range(8)]

    def test_process_map_requires_open(self):
        backend = ProcessBackend(workers=1)
        with pytest.raises(RuntimeError, match="before open"):
            backend.map(_double, [1])

    def test_process_reopen_same_shared_is_idempotent(self):
        """One set of workers serves every ``open``: the same shared object
        costs nothing, a new one reaches the *same* processes, and no
        ``map`` after ``open(B)`` ever sees ``A``."""
        backend = ProcessBackend(workers=2)
        try:
            a, b = ("A",), ("B",)
            backend.open(a)
            pids = {pid for _, pid in backend.map(_shared_and_pid, range(4))}
            sent = backend.stats["messages"]
            backend.open(a)
            assert backend.stats["messages"] == sent  # same identity: nothing crosses
            backend.open(b)
            seen = backend.map(_shared_and_pid, range(4))
            assert {shared for shared, _ in seen} == {b}
            assert {pid for _, pid in seen} == pids and len(pids) == 2
            assert backend.stats["workers_forked"] == 2
        finally:
            backend.close()

    def test_close_is_idempotent(self):
        backend = ThreadBackend(workers=1)
        backend.open(None)
        backend.map(_double, [1])
        backend.close()
        backend.close()


class TestFootprintGuards:
    A = address(b"\xaa" * 20)
    B = address(b"\xbb" * 20)
    C = address(b"\xcc" * 20)

    def test_guarded_snapshot_allows_footprint(self):
        view = GuardedSnapshot({self.A: "acct-a"}, frozenset([self.A]))
        assert view.account(self.A) == "acct-a"

    def test_guarded_snapshot_rejects_outside_footprint(self):
        view = GuardedSnapshot({}, frozenset([self.A]))
        with pytest.raises(FootprintMiss) as exc:
            view.account(self.B)
        assert exc.value.address == self.B

    def test_slice_snapshot_mirrors_guard_semantics(self):
        """A guard over a follower's shipped slice reads exactly as one over
        the whole state: footprint accounts (present or absent) are served,
        anything else is a miss even when a recorder observes it first."""
        footprint = frozenset([self.A, self.C])
        base = genesis_snapshot({self.A: AccountData(balance=7), self.B: AccountData(balance=9)})
        seen = []
        sliced = GuardedSnapshot(build_state_slice(base, footprint), footprint, seen.append)
        whole = GuardedSnapshot(base.accounts, footprint)
        for view in (sliced, whole):
            assert view.account(self.A) == base.account(self.A)
            assert view.account(self.C) is None
            with pytest.raises(FootprintMiss):
                view.account(self.B)
        assert seen == [self.B]

    def test_footprint_miss_not_swallowed_by_evm_frames(self):
        # the EVM frame loop catches ValueError/MemoryError as in-frame
        # failures; a footprint miss must escape to abort the whole attempt
        assert not issubclass(FootprintMiss, ValueError)
        assert not issubclass(FootprintMiss, MemoryError)


class TestCliSurface:
    def test_backend_flag_defaults_to_sim(self):
        args = build_parser().parse_args(["demo"])
        assert args.backend == "sim"
        assert args.workers is None

    def test_backend_flag_accepts_all_choices(self):
        for name in BACKEND_CHOICES:
            args = build_parser().parse_args(["--backend", name, "demo"])
            assert args.backend == name

    def test_backend_flag_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--backend", "gpu", "demo"])

    def test_workers_flag(self):
        args = build_parser().parse_args(["--backend", "process", "--workers", "3", "demo"])
        assert args.workers == 3


# --------------------------------------------------------------------- #
# resident process workers                                              #
# --------------------------------------------------------------------- #


def _ctx(number=1):
    return ExecutionContext(
        block_number=number, timestamp=1_000, coinbase=address(b"\xcc" * 20), gas_limit=30_000_000
    )


def _propose_shared(base):
    return ProposeShared(base, _ctx(), kept=[0, {}])


def _wait_dead(pid):
    """Until the killed worker is gone (``active_children`` also reaps it)."""
    deadline = time.monotonic() + 10
    while any(child.pid == pid for child in multiprocessing.active_children()):
        assert time.monotonic() < deadline, f"pid {pid} survived SIGKILL"
        time.sleep(0.01)


def _kill_a_worker(backend, index=1):
    pid = backend.map(_pid, range(backend.workers))[index]
    os.kill(pid, signal.SIGKILL)
    _wait_dead(pid)
    return pid


class _NoStatePickler(pickle.Pickler):
    """``pickle.dumps`` that refuses to walk into a world state or a slice."""

    def reducer_override(self, obj):
        if isinstance(obj, (StateSnapshot, GuardedSnapshot)):
            raise AssertionError(f"a payload reaches a {type(obj).__name__}")
        return NotImplemented


def _payload_size(payload):
    buffer = io.BytesIO()
    _NoStatePickler(buffer, pickle.HIGHEST_PROTOCOL).dump(payload)
    return len(buffer.getvalue())


class _CountingProxy(backend_module.ExecutionBackend):
    """What ``benchmarks/e2e/trace.py::TracedBackend`` is to the program:
    exactly ``open``, ``map`` and ``close``, every payload sized by pickling
    it — so whatever this sees is what the benchmark's counters see."""

    def __init__(self, inner):
        super().__init__(inner.workers)
        self.name, self.shares_memory, self._inner = inner.name, inner.shares_memory, inner
        #: per ``open``: (shared, bytes the inner backend sent per worker for it)
        self.opens = []
        #: per ``map``: (fn, payloads, pickled size per payload)
        self.maps = []

    def open(self, shared):
        before = self._inner.stats["bytes_out"]
        self._inner.open(shared)
        self.opens.append((shared, (self._inner.stats["bytes_out"] - before) // self.workers))

    def map(self, fn, payloads):
        self.maps.append((fn, list(payloads), [_payload_size(p) for p in payloads]))
        return self._inner.map(fn, payloads)

    def close(self):
        self._inner.close()


def _pickled_globals(blob):
    """Every ``(module, name)`` a pickle refers to, read off its opcodes: a
    protocol-4 ``STACK_GLOBAL`` takes the two strings pushed just before it,
    either literally or fetched back from the memo."""
    memo, strings, named = [], [], set()
    value = None  # what the previous opcode pushed, when it was a string
    for op, arg, _ in pickletools.genops(blob):
        if op.name == "MEMOIZE":
            memo.append(value)
            continue
        value = None
        if op.name in ("SHORT_BINUNICODE", "BINUNICODE", "UNICODE"):
            value = arg
        elif op.name in ("BINGET", "LONG_BINGET", "GET"):
            value = memo[int(arg)]
        elif op.name == "STACK_GLOBAL":
            named.add((strings[-2], strings[-1]))
        elif op.name == "GLOBAL":
            named.add(tuple(arg.split(" ", 1)))
        strings.append(value)
    return named


def _drive(universe, generator, backend, blocks):
    """``serve``'s loop: one proposer and one validator on one backend."""
    chain = Blockchain(universe.genesis)
    proposer = ProposerNode("exec-proposer", backend=backend)
    validator = ValidatorNode("exec-validator", universe.genesis, chain=chain, backend=backend)
    sealed = []
    for _ in range(blocks):
        proposal = proposer.build_block(
            chain.head.header, chain.head_state, generator.generate_block_txs()
        )
        assert validator.receive_blocks([proposal.block]).accepted
        sealed.append(proposal.block)
    return sealed


class TestResidentWorkers:
    def test_two_roles_on_one_backend_fork_once(self, small_universe, small_generator, monkeypatch):
        """The regression: a proposer and a validator sharing one backend used
        to tear the pool down at every hand-over (16 pools in 8 blocks)."""
        started = []
        start = multiprocessing.process.BaseProcess.start
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess,
            "start",
            lambda self: (started.append(self), start(self))[1],
        )
        with ProcessBackend(2) as backend:
            _drive(small_universe, small_generator, backend, 8)
            pids = set(backend.map(_pid, range(4)))
            stats = backend.stats.copy()
        assert len(started) == 2 and pids == {process.pid for process in started}
        assert stats["workers_forked"] == 2
        # the genesis came with the fork; each later head is one delta
        assert (stats["sync_fork"], stats["sync_delta"], stats["sync_full"]) == (1, 7, 0)

    def test_state_first_seen_by_live_workers_is_a_full_sync(self, small_universe):
        with ProcessBackend(2) as backend:
            backend.open(("no state yet",))
            backend.open(_propose_shared(small_universe.genesis))
            assert (backend.stats["sync_fork"], backend.stats["sync_full"]) == (0, 1)
            backend.open(_propose_shared(small_universe.genesis))  # held: only its root crosses
            assert backend.stats["sync_full"] + backend.stats["sync_delta"] == 1

    def test_close_joins_and_reopen_reforks(self):
        backend = ProcessBackend(2)
        backend.open(None)
        pids = backend.map(_pid, range(2))
        backend.close()
        assert not multiprocessing.active_children()
        for pid in pids:  # reaped, not abandoned: RUSAGE_CHILDREN only counts those
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        backend.open(None)
        assert not set(backend.map(_pid, range(2))) & set(pids)
        backend.close()
        backend.close()

    def test_in_memory_backends_count_nothing(self):
        metrics = MetricsRegistry()
        for backend in (SerialBackend(), ThreadBackend(2)):
            with backend:
                since = backend.stats.copy()
                backend.open("session")
                backend.map(_double, [1, 2])
                assert backend.stats["messages"] == backend.stats["bytes_out"] == 0
                backend.publish(metrics, since)
        assert not metrics.snapshot()["counters"]

    def test_session_publishes_what_it_shipped(self, small_universe, small_generator):
        metrics = MetricsRegistry()
        pool = TxPool()
        pool.add_many(small_generator.generate_block_txs())
        with ProcessBackend(2) as backend:
            backend.open(None)  # traffic before the session must not be billed to it
            before = backend.stats.copy()
            result = OCCWSIProposer(
                config=ProposerConfig(lanes=4), backend=backend, metrics=metrics
            ).propose(small_universe.genesis, pool, _ctx())
            gained = backend.stats - before
        counters = metrics.snapshot()["counters"]
        assert {name: counters["exec." + name] for name in gained} == dict(gained)
        assert gained["messages"] == 2 * (1 + result.stats.extra["waves"])
        assert gained["bytes_out"] > 0 and gained["bytes_in"] > 0 and gained["sync_full"] == 1
        assert metrics.counter_value("exec.messages") == gained["messages"]
        assert "metrics" not in result.stats.extra  # the registry is the one place they live


class TestLostWorker:
    """A lost or wedged worker is a typed error within a bounded wait."""

    def test_killed_between_two_maps(self):
        with ProcessBackend(2) as backend:
            shared = ("session",)
            backend.open(shared)
            pids = backend.map(_pid, range(2))
            _kill_a_worker(backend, 1)
            with pytest.raises(BackendError, match=rf"worker 1 \(pid {pids[1]}\) lost"):
                backend.map(_pid, range(2))
            with pytest.raises(RuntimeError, match="before open"):  # all discarded
                backend.map(_pid, range(2))
            backend.open(shared)  # the same shared object re-forks all the same
            assert not set(backend.map(_pid, range(2))) & set(pids)
            assert backend.stats["workers_forked"] == 4

    def test_killed_inside_a_map(self):
        with ProcessBackend(2) as backend:
            backend.open(None)
            with pytest.raises(BackendError, match=r"worker 0 \(pid \d+\) lost"):
                backend.map(_misbehave, ["die", 1, 2, 3])
            backend.open(None)
            assert backend.map(_misbehave, [1, 2, 3]) == [1, 2, 3]

    def test_wedged_worker_times_out(self, monkeypatch):
        monkeypatch.setattr(backend_module, "WORKER_WAIT_S", 0.3)
        with ProcessBackend(2) as backend:
            backend.open(None)
            pids = backend.map(_pid, range(2))
            begun = time.monotonic()
            with pytest.raises(BackendError, match=r"worker 1 .*no answer within 0.3 s"):
                backend.map(_misbehave, [1, 60.0])
            assert time.monotonic() - begun < 10
            for pid in pids:  # killed and reaped, the sleeper included
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)

    def test_wedged_thread_times_out(self, monkeypatch, small_universe, small_generator):
        monkeypatch.setattr(backend_module, "WORKER_WAIT_S", 0.3)
        release = threading.Event()

        def wedged(shared, payload):
            release.wait(30)

        genesis = small_universe.genesis
        txs = small_generator.generate_block_txs()
        block = ProposerNode("honest").build_block(Blockchain(genesis).head.header, genesis, txs).block
        metrics = MetricsRegistry()
        with ThreadBackend(2) as backend:
            backend.open(None)
            begun = time.monotonic()
            with pytest.raises(BackendError, match=r"thread task gave no answer within 0.3 s"):
                backend.map(wedged, range(3))
            assert time.monotonic() - begun < 10
            release.set()
            assert backend.map(_misbehave, [1, 2, 3]) == [1, 2, 3]  # a fresh pool

            validator = ParallelValidator(
                config=ValidatorConfig(lanes=4), backend=backend, metrics=metrics
            )
            reference = validator.validate_block(block, genesis)
            assert reference.accepted and metrics.counter_value("validator.backend_blocks") == 1
            release.clear()
            monkeypatch.setattr(validating_module, "run_validate_lane", wedged)
            survived = validator.validate_block(block, genesis)
            release.set()
            assert survived.accepted, survived.reason
            assert survived.post_state.state_root() == reference.post_state.state_root()
            assert survived.tx_results == reference.tx_results
            assert survived.phases == reference.phases
            assert metrics.counter_value("validator.backend_worker_lost") == 1
            assert metrics.counter_value("validator.backend_blocks") == 1  # the reference loop took it

    def test_task_exception_reaches_the_parent_and_spares_the_pool(self):
        with ProcessBackend(2) as backend:
            backend.open(None)
            pids = backend.map(_pid, range(2))
            with pytest.raises(ValueError, match="boom") as info:
                backend.map(_misbehave, [1, "raise", 3])
            assert f"in worker pid {pids[1]}" in info.value.__notes__[0]
            assert "_misbehave" in info.value.__notes__[0]  # the remote traceback
            assert backend.map(_pid, range(2)) == pids
            assert backend.stats["workers_forked"] == 2

    def test_worker_refuses_a_state_it_does_not_hold(self, small_universe):
        stranger = genesis_snapshot({address(b"\x01" * 20): AccountData(balance=1)})
        with ProcessBackend(2) as backend:
            backend.open(_propose_shared(small_universe.genesis))
            # desynchronise the parent's mirror: it now believes ``stranger`` was sent
            backend._resident[bytes(stranger.state_root())] = stranger.accounts
            with pytest.raises(BackendError, match="not resident in pid"):
                backend.open(_propose_shared(stranger))
            backend.open(_propose_shared(stranger))  # re-forked, re-synced
            assert backend.stats["sync_fork"] == 2 and backend.stats["workers_forked"] == 4

    def test_worker_refuses_a_round_out_of_sequence(self, small_universe):
        with ProcessBackend(2) as backend:
            backend.open(_propose_shared(small_universe.genesis))
            skipped = ProposeChunk((), 0, {}, seq=1)
            with pytest.raises(BackendError, match="round 1 out of sequence: expected 0"):
                backend.map(run_propose_chunk, [skipped, skipped])
            with pytest.raises(RuntimeError, match="before open"):
                backend.map(_pid, range(2))

    def test_validator_falls_back_and_proposer_propagates(self, small_universe, small_generator):
        genesis = small_universe.genesis
        txs = small_generator.generate_block_txs()
        block = ProposerNode("honest").build_block(Blockchain(genesis).head.header, genesis, txs).block
        metrics = MetricsRegistry()

        def counter(name):
            return metrics.snapshot()["counters"].get(name, 0)

        with ProcessBackend(2) as backend:
            validator = ParallelValidator(
                config=ValidatorConfig(lanes=4), backend=backend, metrics=metrics
            )
            reference = validator.validate_block(block, genesis)
            assert reference.accepted and counter("validator.backend_blocks") == 1
            _kill_a_worker(backend)
            survived = validator.validate_block(block, genesis)
            assert survived.accepted, survived.reason
            assert survived.post_state.state_root() == reference.post_state.state_root()
            assert counter("validator.backend_worker_lost") == 1
            assert counter("validator.backend_blocks") == 1  # the reference loop took it
            assert validator.validate_block(block, genesis).accepted
            assert counter("validator.backend_blocks") == 2  # fresh workers took this one
            assert counter("exec.workers_forked") == 4

            _kill_a_worker(backend)
            pool = TxPool()
            pool.add_many(txs)
            with pytest.raises(BackendError, match="lost"):
                OCCWSIProposer(backend=backend).propose(genesis, pool, _ctx())


class TestWhatCrosses:
    """The boundary, seen through the proxy the benchmark also uses."""

    def test_round_payloads_carry_only_their_delta(self, small_universe, small_generator):
        pool = TxPool()
        pool.add_many(small_generator.generate_block_txs())
        with _CountingProxy(ProcessBackend(2)) as proxy:
            result = OCCWSIProposer(config=ProposerConfig(lanes=4), backend=proxy).propose(
                small_universe.genesis, pool, _ctx()
            )
        rounds = [(chunks, sizes) for fn, chunks, sizes in proxy.maps if fn is run_propose_chunk]
        assert len(rounds) == result.stats.extra["waves"] >= 8
        versions = result.store.key_versions()
        previous = 0
        for seq, (chunks, _) in enumerate(rounds):
            assert [chunk.seq for chunk in chunks] == [seq, seq]  # every worker, every round
            snapshot = chunks[0].snapshot_version
            fresh = {k for k, vs in versions.items() if any(previous < v <= snapshot for v in vs)}
            assert all(set(chunk.writes) == fresh for chunk in chunks)
            previous = snapshot
        # the parent put the whole overlay into every transaction's task, so a
        # round's bytes grew with its position; now the last is no fatter than the rest
        whole = len(pickle.dumps(result.store.final_values(), pickle.HIGHEST_PROTOCOL))
        totals = [sum(sizes) for _, sizes in rounds]
        assert sum(totals[-3:]) / 3 < whole
        assert sum(totals[-3:]) < 2 * sum(totals[1:4])

    @pytest.mark.parametrize("strategy", ("occ-wsi", "two-phase", "block-stm"))
    def test_no_payload_reaches_a_state(self, small_universe, small_generator, strategy):
        """``_CountingProxy.map`` pickles every payload with a pickler that
        raises on a ``StateSnapshot`` or a ``GuardedSnapshot``."""
        genesis = small_universe.genesis
        chain = Blockchain(genesis)
        with _CountingProxy(ProcessBackend(2)) as proxy:
            proposer = ProposerNode(
                "exec-proposer", config=ProposerConfig(lanes=4, strategy=strategy), backend=proxy
            )
            block = proposer.build_block(
                chain.head.header, genesis, small_generator.generate_block_txs()
            ).block
            validator = ParallelValidator(config=ValidatorConfig(lanes=4), backend=proxy)
            assert validator.validate_block(block, genesis).accepted
        lanes = [payloads for fn, payloads, _ in proxy.maps if fn.__name__ == "run_validate_lane"]
        assert lanes and len(proxy.maps) > len(lanes)  # both roles crossed
        assert all(task.slice_accounts is None for lane in lanes[0] for task in lane)
        # the state rode on ``open``, by root: a few hundred bytes per worker
        assert [shared.base for shared, _ in proxy.opens] == [genesis, genesis]
        assert all(sent < 2048 for _, sent in proxy.opens)

    def test_a_dispatch_names_no_identifier_or_key_class(self, small_universe, small_generator):
        """Addresses and hashes are plain ``bytes`` and state keys plain
        tuples, so what ``ProcessBackend.map`` sends a worker holds pickle's
        native byte strings and tuples: no class from ``repro.common.types``
        or ``repro.state.access`` for the worker to look up."""
        with _CountingProxy(ProcessBackend(2)) as proxy:
            _drive(small_universe, small_generator, proxy, 2)
        named = set()
        for fn, payloads, _ in proxy.maps:
            named |= _pickled_globals(pickle.dumps(("map", fn, payloads), pickle.HIGHEST_PROTOCOL))
        # the scan sees globals: the task functions cross by reference
        assert {("repro.exec.tasks", "run_propose_chunk"), ("repro.exec.tasks", "run_validate_lane")} <= named
        assert not {module for module, _ in named} & {"repro.common.types", "repro.state.access"}

    def test_mainnet_block_syncs_less_than_twice_its_encoding(self):
        universe = build_universe()
        generator = BlockWorkloadGenerator(
            universe, dataclasses.replace(mainnet_scenario(seed=42), txs_per_block=132)
        )
        inner = ProcessBackend(2)
        with _CountingProxy(inner) as proxy:
            blocks = _drive(universe, generator, proxy, 8)
            stats = inner.stats.copy()
        assert (stats["sync_fork"], stats["sync_delta"], stats["sync_full"]) == (1, 7, 0)
        proposer_opens = [sent for shared, sent in proxy.opens if isinstance(shared, ProposeShared)]
        validator_opens = [sent for shared, sent in proxy.opens if sent not in proposer_opens]
        assert len(proposer_opens) == len(validator_opens) == 8
        assert proposer_opens[0] < 2048  # the first state came with the fork
        assert all(sent < 2048 for sent in validator_opens)  # its parent state is the held head
        for sent, previous in zip(proposer_opens[1:], blocks):
            assert 2048 < sent < 2 * len(encode_block(previous))


# --------------------------------------------------------------------- #
# the state delta                                                       #
# --------------------------------------------------------------------- #

_ADDRESSES = [address_from_int(0x700 + i) for i in range(8)]
_accounts = st.builds(
    AccountData,
    nonce=st.integers(0, 3),
    balance=st.integers(0, 10**20),
    code=st.sampled_from([b"", b"\x60\x00", b"\x60\x01\x60\x02\x01"]),
    storage=st.dictionaries(st.integers(0, 5), st.integers(1, 2**200), max_size=4),
)
#: what a block may do to an address: delete it (EIP-158), create or replace
#: it, bump its nonce (the storage map stays shared), or set / clear slots
_edits = st.one_of(
    st.none(),
    _accounts,
    st.just("bump"),
    st.dictionaries(st.integers(0, 5), st.integers(0, 9), min_size=1, max_size=4),
)


class TestStateDelta:
    @settings(max_examples=200, deadline=None)
    @given(
        old=st.dictionaries(st.sampled_from(_ADDRESSES), _accounts),
        edits=st.dictionaries(st.sampled_from(_ADDRESSES), _edits),
    )
    def test_apply_of_diff_is_the_new_map(self, old, edits):
        new = dict(old)
        for address, edit in edits.items():
            before = old.get(address)
            if edit is None:
                new.pop(address, None)
            elif isinstance(edit, AccountData):
                new[address] = edit
            elif before is not None and edit == "bump":
                new[address] = dataclasses.replace(before, nonce=before.nonce + 1)
            elif before is not None:
                storage = {k: v for k, v in {**before.storage, **edit}.items() if v}
                new[address] = dataclasses.replace(before, storage=storage)
        delta = diff_accounts(old, new)
        applied = apply_delta(old, delta)
        assert applied == new
        assert old == {a: old[a] for a in old}  # ``old`` untouched
        for address, account in new.items():
            if account is old.get(address):  # untouched accounts never travel
                assert address not in delta[0] and applied[address] is account
            elif address in old and account.storage is old[address].storage:
                assert applied[address].storage is account.storage  # nor does their storage
                assert delta[0][address][3] == {}
        assert set(delta[1]) == old.keys() - new.keys()
        assert diff_accounts(new, new) == ({}, ())
        assert pickle.loads(pickle.dumps(delta)) == delta
