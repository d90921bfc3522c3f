"""Runnable fault scenarios — one per :class:`FailureReason` variant.

Each scenario builds a small honest world, applies exactly one fault
through the injector, and drives the result through the *public* validator
surface (``ParallelValidator.validate_block``,
``ValidatorPipeline.process_blocks`` or ``ValidatorNode.receive_blocks``)
— never by constructing failures directly.  The registry doubles as the
taxonomy's executable specification: ``run_scenario(name)`` reproduces a
failure deterministically from its seed, and the test suite asserts every
enum variant is reachable this way.

Degradation scenarios (``degrade_serial_fallback``, ``degrade_transient``)
end in *acceptance*: they demonstrate the Block-STM guarantee that worker
faults cost throughput, never correctness — no reason in the taxonomy is
a local fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.chain.blockchain import Blockchain
from repro.core.pipeline import ValidatorPipeline
from repro.core.proposer import SealedProposal
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.faults.errors import FailureReason, ValidationFailure
from repro.faults.injector import FaultConfig, FaultInjector
from repro.network.node import ProposerNode, ValidatorNode
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
        accepted=[r is not None and r.accepted for r in result.results],
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
        accepted=[r is not None and r.accepted for r in result.results],
    )


def _run_proposer_quarantined(env: ScenarioEnv) -> ScenarioOutcome:
    # the same lying proposer strikes out, then even its blocks are refused
    node = ValidatorNode(
        "validator-0",
        env.universe.genesis,
        config=ValidatorConfig(lanes=_LANES),
        quarantine_threshold=2,
    )
    bad = env.injector.corrupt_block(env.honest.block, "profile_write_value")
    strikes = []
    for _ in range(2):  # each delivery is one byzantine strike
        outcome = node.receive_blocks([bad])
        strikes.append(outcome.failures[0])
    final = node.receive_blocks([bad])  # now refused without validation
    return ScenarioOutcome(
        name="proposer_quarantined",
        expected=FailureReason.PROPOSER_QUARANTINED,
        failures=list(final.failures),
        accepted=[False],
        extra={
            "strike_reasons": [f.reason for f in strikes if f],
            "quarantined": sorted(node.quarantined_proposers),
        },
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
            "proposer_quarantined",
            FailureReason.PROPOSER_QUARANTINED,
            "repeat byzantine proposer refused without validation",
            _run_proposer_quarantined,
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
