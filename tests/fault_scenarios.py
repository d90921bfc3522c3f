"""Runnable fault scenarios — one per :class:`FailureReason` variant.

Each scenario builds a small honest world, applies exactly one fault
through the injector, and drives the result through the *public* validator
surface (``ParallelValidator.validate_block`` or
``ValidatorPipeline.process_blocks``) — never by constructing failures
directly.  The registry doubles as the
taxonomy's executable specification: ``run_scenario(name)`` reproduces a
failure deterministically from its seed, and the test suite asserts every
enum variant is reachable this way.

Degradation scenarios (``degrade_serial_fallback``, ``degrade_transient``)
end in *acceptance*: they demonstrate the Block-STM guarantee that worker
faults cost throughput, never correctness — no reason in the taxonomy is
a local fault.

The module also holds the fakes for faults the node never injects
itself: :class:`LyingProposer` (swapped into
``NetworkSimulation.proposers``) publishes corrupted blocks, and
:class:`FaultyFollower` (swapped into ``ShardCoordinator.followers`` by
:func:`faulty_followers`) crashes, stalls or lies on seeded rolls.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chain.blockchain import Blockchain
from repro.core.pipeline import ValidatorPipeline
from repro.core.proposer import SealedProposal
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.faults.errors import FailureReason, ValidationFailure
from repro.distributed import ShardCoordinator
from repro.exec.tasks import ComponentOutcome
from repro.faults.injector import FaultConfig, FaultInjector, _keyed_rng
from repro.network.node import ProposerNode
from repro.network.shardrpc import FollowerNode, ShardAssignment, ShardReply
from repro.workload.generator import BlockWorkloadGenerator, WorkloadConfig
from repro.workload.universe import UniverseConfig, build_universe

__all__ = [
    "ScenarioEnv",
    "ScenarioOutcome",
    "FaultScenario",
    "SCENARIOS",
    "SCENARIO_FOR_REASON",
    "build_env",
    "run_scenario",
    "LyingProposer",
    "lying_proposer",
    "FaultyFollower",
    "faulty_followers",
]

#: Worker lanes used by every scenario validator (small => fast tests).
_LANES = 4


@dataclass
class ScenarioEnv:
    """The honest starting point every scenario perturbs."""

    universe: object
    generator: BlockWorkloadGenerator
    proposer: ProposerNode
    honest: SealedProposal  # sealed block #1 over genesis
    parent_header: object
    parent_state: object
    injector: FaultInjector
    seed: int

    @property
    def genesis_hash(self):
        return self.parent_header.hash

    def fresh_validator(self, **config) -> ParallelValidator:
        config.setdefault("lanes", _LANES)
        injector = config.pop("injector", None)
        return ParallelValidator(
            config=ValidatorConfig(**config), injector=injector
        )


@dataclass
class ScenarioOutcome:
    """What a scenario observed through the public API."""

    name: str
    expected: Optional[FailureReason]
    #: per examined block: the typed failure (None = accepted)
    failures: List[Optional[ValidationFailure]]
    accepted: List[bool]
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def observed(self) -> List[FailureReason]:
        return [f.reason for f in self.failures if f is not None]

    @property
    def triggered(self) -> bool:
        """Did the scenario produce its expected reason (or, for a
        degradation scenario, end in acceptance)?"""
        if self.expected is None:
            return bool(self.accepted) and all(self.accepted)
        return self.expected in self.observed


@dataclass(frozen=True)
class FaultScenario:
    name: str
    reason: Optional[FailureReason]
    description: str
    run: Callable[[ScenarioEnv], ScenarioOutcome]


# --------------------------------------------------------------------- #
# environment


def build_env(seed: int = 0, txs_per_block: int = 24) -> ScenarioEnv:
    """A compact universe, one proposer, one honest sealed block."""
    universe = build_universe(
        UniverseConfig(
            n_eoas=120,
            n_tokens=4,
            n_amms=2,
            n_nfts=1,
            n_airdrops=1,
            seed=11 + seed,
        )
    )
    generator = BlockWorkloadGenerator(
        universe,
        WorkloadConfig(txs_per_block=txs_per_block, tx_count_jitter=0.0, seed=5 + seed),
    )
    chain = Blockchain(universe.genesis)
    proposer = ProposerNode("proposer-0")
    txs = generator.generate_block_txs()
    honest = proposer.build_block(chain.head.header, chain.head_state, txs)
    return ScenarioEnv(
        universe=universe,
        generator=generator,
        proposer=proposer,
        honest=honest,
        parent_header=chain.head.header,
        parent_state=chain.head_state,
        injector=FaultInjector(FaultConfig(seed=seed)),
        seed=seed,
    )


def _single(env: ScenarioEnv, name, expected, result, **extra) -> ScenarioOutcome:
    return ScenarioOutcome(
        name=name,
        expected=expected,
        failures=[result.failure],
        accepted=[result.accepted],
        extra=extra,
    )


def _corruption_scenario(name: str, kind: str, expected: FailureReason):
    def run(env: ScenarioEnv) -> ScenarioOutcome:
        bad = env.injector.corrupt_block(env.honest.block, kind)
        result = env.fresh_validator().validate_block(bad, env.parent_state)
        return _single(env, name, expected, result, corruption=kind)

    return FaultScenario(
        name,
        expected,
        f"byzantine proposer applies {kind!r}; validator must reject",
        run,
    )


# --------------------------------------------------------------------- #
# per-reason scenarios


def _run_unknown_parent(env: ScenarioEnv) -> ScenarioOutcome:
    pipeline = ValidatorPipeline(config=ValidatorConfig(lanes=_LANES))
    result = pipeline.process_blocks([env.honest.block], parent_states={})
    return ScenarioOutcome(
        name="unknown_parent",
        expected=FailureReason.UNKNOWN_PARENT,
        failures=list(result.failures),
        accepted=[r.accepted for r in result.results],
    )


def _run_parent_rejected(env: ScenarioEnv) -> ScenarioOutcome:
    # corrupt block #1's profile (hash unchanged, so #2 still links to it),
    # then submit the pair: #1 rejected for lying, #2 for its parent
    child_txs = env.generator.generate_block_txs()
    child = env.proposer.build_block(
        env.honest.block.header, env.honest.post_state, child_txs
    ).block
    bad_parent = env.injector.corrupt_block(env.honest.block, "profile_write_value")
    assert bad_parent.hash == env.honest.block.hash  # profile is not sealed
    pipeline = ValidatorPipeline(config=ValidatorConfig(lanes=_LANES))
    result = pipeline.process_blocks(
        [bad_parent, child], parent_states={env.genesis_hash: env.parent_state}
    )
    return ScenarioOutcome(
        name="parent_rejected",
        expected=FailureReason.PARENT_REJECTED,
        failures=list(result.failures),
        accepted=[r.accepted for r in result.results],
    )


# --------------------------------------------------------------------- #
# degradation scenarios (expected = None: they must end accepted)


def _run_degrade_serial_fallback(env: ScenarioEnv) -> ScenarioOutcome:
    # crashes persist through every parallel retry; the injector-free
    # serial pass must still commit the identical state root
    injector = FaultInjector(
        FaultConfig(seed=env.seed, worker_fault_rate=1.0, worker_fault_attempts=10**6)
    )
    validator = env.fresh_validator(injector=injector)
    result = validator.validate_block(env.honest.block, env.parent_state)
    honest = env.fresh_validator().validate_block(env.honest.block, env.parent_state)
    return _single(
        env,
        "degrade_serial_fallback",
        None,
        result,
        serial_pass=result.used_serial_fallback,
        worker_faults=result.worker_faults,
        exec_attempts=result.exec_attempts,
        state_root=(
            result.post_state.state_root() if result.post_state else None
        ),
        honest_state_root=(
            honest.post_state.state_root() if honest.post_state else None
        ),
    )


def _run_degrade_transient(env: ScenarioEnv) -> ScenarioOutcome:
    # the crash heals after one attempt: a single parallel retry recovers
    injector = FaultInjector(
        FaultConfig(seed=env.seed, worker_fault_rate=1.0, worker_fault_attempts=1)
    )
    validator = env.fresh_validator(injector=injector)
    result = validator.validate_block(env.honest.block, env.parent_state)
    return _single(
        env,
        "degrade_transient",
        None,
        result,
        serial_pass=result.used_serial_fallback,
        worker_faults=result.worker_faults,
        exec_attempts=result.exec_attempts,
    )


# --------------------------------------------------------------------- #
# registry

SCENARIOS: Dict[str, FaultScenario] = {
    s.name: s
    for s in [
        _corruption_scenario(
            "malformed_block", "truncate_txs", FailureReason.MALFORMED_BLOCK
        ),
        _corruption_scenario(
            "profile_read_mismatch",
            "profile_read_add",
            FailureReason.PROFILE_READ_MISMATCH,
        ),
        _corruption_scenario(
            "profile_write_mismatch",
            "profile_write_value",
            FailureReason.PROFILE_WRITE_MISMATCH,
        ),
        _corruption_scenario(
            "profile_gas_mismatch", "profile_gas", FailureReason.PROFILE_GAS_MISMATCH
        ),
        _corruption_scenario(
            "receipt_mismatch", "header_gas", FailureReason.RECEIPT_MISMATCH
        ),
        _corruption_scenario(
            "state_root_mismatch", "state_root", FailureReason.STATE_ROOT_MISMATCH
        ),
        FaultScenario(
            "unknown_parent",
            FailureReason.UNKNOWN_PARENT,
            "block whose parent state the pipeline does not know",
            _run_unknown_parent,
        ),
        FaultScenario(
            "parent_rejected",
            FailureReason.PARENT_REJECTED,
            "child of a block rejected in the same batch",
            _run_parent_rejected,
        ),
        FaultScenario(
            "degrade_serial_fallback",
            None,
            "permanent crashes degrade to serial re-execution, still commit",
            _run_degrade_serial_fallback,
        ),
        FaultScenario(
            "degrade_transient",
            None,
            "transient crash healed by one parallel retry",
            _run_degrade_transient,
        ),
    ]
}

#: Reverse index: every FailureReason -> the scenario that triggers it.
SCENARIO_FOR_REASON: Dict[FailureReason, FaultScenario] = {
    s.reason: s for s in SCENARIOS.values() if s.reason is not None
}


def run_scenario(name: str, seed: int = 0) -> ScenarioOutcome:
    """Build a fresh environment and execute one registered scenario."""
    scenario = SCENARIOS[name]
    return scenario.run(build_env(seed))


# --------------------------------------------------------------------- #
# fakes for the faults a node never injects itself


class LyingProposer(ProposerNode):
    """A byzantine proposer: seals an honest block, publishes a copy
    tampered with ``FaultInjector.corrupt_block(block, kind)``.

    Swap one into ``NetworkSimulation.proposers[i]`` under the node id it
    replaces; the corruption is keyed by ``seed`` and the block hash, so
    every validator sees the identical lie.
    """

    def __init__(self, node_id: str, *, kind: str, seed: int = 0, **node: Any) -> None:
        super().__init__(node_id, **node)
        self.kind = kind
        self.injector = FaultInjector(FaultConfig(seed=seed))

    def build_block(self, *args: Any, **kwargs: Any) -> SealedProposal:
        sealed = super().build_block(*args, **kwargs)
        return dataclasses.replace(
            sealed, block=self.injector.corrupt_block(sealed.block, self.kind)
        )


def lying_proposer(sim: Any, index: int, kind: str = "profile_write_value") -> Any:
    """Swap ``sim.proposers[index]`` (a ``NetworkSimulation``'s) for a
    :class:`LyingProposer` with the same id, seeded by the run's seed."""
    honest = sim.proposers[index]
    sim.proposers[index] = LyingProposer(
        honest.node_id,
        kind=kind,
        seed=sim.config.seed,
        tracer=sim.tracer,
        metrics=sim.metrics,
    )
    return sim


class FaultyFollower(FollowerNode):
    """A follower that crashes, stalls or returns a tampered reply.

    Each fault is a seeded roll keyed by (block, shard, follower,
    attempt): a follower fails a shard the same way whenever it is asked,
    and a re-assignment (the next attempt) rolls afresh.
    """

    def __init__(
        self,
        follower_id: str,
        *,
        seed: int = 0,
        crash_rate: float = 0.0,
        stall_rate: float = 0.0,
        stall_us: float = 50_000.0,
        byzantine_rate: float = 0.0,
    ) -> None:
        super().__init__(follower_id)
        self.seed = seed
        self.rates = {"crash": crash_rate, "stall": stall_rate, "byz": byzantine_rate}
        #: sized to blow the coordinator's straggler deadline
        self.stall_us = stall_us

    def _key(self, assignment: ShardAssignment) -> Tuple[object, ...]:
        return (
            bytes(assignment.block_hash).hex(),
            assignment.shard_id,
            self.follower_id,
            assignment.attempt,
        )

    def _rolls(self, fault: str, assignment: ShardAssignment) -> bool:
        rate = self.rates[fault]
        if rate <= 0.0:
            return False
        roll = _keyed_rng(self.seed, f"follower_{fault}", *self._key(assignment))
        return roll.random() < rate

    def handle(self, assignment: ShardAssignment) -> Optional[ShardReply]:
        if self._rolls("crash", assignment):
            return None
        reply = super().handle(assignment)
        assert reply is not None
        if self._rolls("stall", assignment):
            reply = dataclasses.replace(reply, stall_us=self.stall_us)
        if self._rolls("byz", assignment):
            reply = dataclasses.replace(
                reply, outcomes=self._tamper(assignment, reply.outcomes)
            )
        return reply

    def _tamper(
        self,
        assignment: ShardAssignment,
        outcomes: Tuple[ComponentOutcome, ...],
    ) -> Tuple[ComponentOutcome, ...]:
        """Change one transaction's ``gas_used``: the master's Algorithm-2
        cross-check against the block profile must flag the reply."""
        rng = _keyed_rng(self.seed, "follower_tamper", *self._key(assignment))
        candidates = [i for i, o in enumerate(outcomes) if o.results]
        if not candidates:
            return outcomes
        ci = rng.choice(candidates)
        outcome = outcomes[ci]
        ti = rng.randrange(len(outcome.results))
        results = list(outcome.results)
        results[ti] = dataclasses.replace(
            results[ti], gas_used=results[ti].gas_used + 1 + rng.randrange(1000)
        )
        tampered = outcome._replace(results=tuple(results))
        return outcomes[:ci] + (tampered,) + outcomes[ci + 1 :]


def faulty_followers(coordinator: ShardCoordinator, **faults: Any) -> ShardCoordinator:
    """Replace every follower of ``coordinator`` by a :class:`FaultyFollower`
    with the same id and the given ``seed``/rates."""
    coordinator.followers = [
        FaultyFollower(follower.follower_id, **faults)
        for follower in coordinator.followers
    ]
    return coordinator
