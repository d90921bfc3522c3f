"""Deterministic schedule fuzzer for the real-parallelism drivers.

The wave schedule (proposing) and component driver (validating) are
deterministic *given their scheduling decisions*; the decisions themselves
are exactly where OS nondeterminism would enter on real hardware.  The
fuzzer explores that space through the yield points of
:mod:`repro.exec.hooks`: each :class:`FuzzSchedule` is a seeded, fully
recorded assignment of wave widths, commit orders, lane orders and
component orders — i.e. one reachable interleaving — and the conformance
property says **every** reachable interleaving must:

* produce a proposal whose commit order the serializability oracle proves
  conflict-serializable (:func:`repro.check.oracle.verify_commit_order`);
* seal to a block indistinguishable from serial block-order execution
  (:func:`repro.check.differential.diff_proposal`);
* validate cleanly under any validator schedule, with zero footprint
  violations on honest blocks;
* and make the *same accept/reject decision* as the serial reference
  validator on adversarial (lying-profile) blocks.

Failing schedules are **shrunk**: decisions are greedily reset to their
production defaults while the failure reproduces, leaving a minimal
explicit schedule naming only the load-bearing decisions.  Schedules
serialize to JSON so a CI failure is a one-file repro.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chain.block import Block, BlockHeader, BlockProfile, TxProfileEntry
from repro.chain.blockchain import Blockchain
from repro.common.types import Address
from repro.core.occ_wsi import ProposerConfig
from repro.core.proposer import seal_block
from repro.core.strategies import STRATEGY_CHOICES, build_proposer
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.evm.interpreter import ExecutionContext
from repro.exec.backend import ThreadBackend
from repro.exec.hooks import ScheduleProbe
from repro.state.access import FrozenRWSet
from repro.txpool.pool import TxPool
from repro.txpool.transaction import Transaction
from repro.workload.generator import BlockWorkloadGenerator, WorkloadConfig
from repro.workload.universe import Universe, UniverseConfig, build_universe

from repro.check.differential import diff_proposal
from repro.check.oracle import verify_commit_order, verify_schedule
from repro.check.report import CheckLog

__all__ = [
    "FuzzSchedule",
    "FuzzFailure",
    "FuzzResult",
    "ConformanceScenario",
    "forge_lying_profile_block",
    "run_schedule",
    "fuzz_conformance",
    "shrink_schedule",
    "save_failures",
    "load_schedule_json",
]


# --------------------------------------------------------------------- #
# schedules                                                             #
# --------------------------------------------------------------------- #


@dataclass
class FuzzSchedule:
    """One fully determined interleaving of the drivers' yield points.

    ``mode='seeded'`` derives each decision from ``seed`` on first ask and
    records it into ``decisions`` (so a failing run leaves a complete,
    seed-free transcript).  ``mode='explicit'`` replays only the recorded
    decisions — anything absent takes the production default, which is
    what makes shrinking-by-removal meaningful.
    """

    seed: int
    mode: str = "seeded"  # 'seeded' | 'explicit'
    decisions: Dict[str, Any] = field(default_factory=dict)

    def probe(self) -> "_FuzzProbe":
        return _FuzzProbe(self)

    def explicit(self) -> "FuzzSchedule":
        """Seed-free copy replaying exactly the recorded decisions."""
        return FuzzSchedule(self.seed, "explicit", dict(self.decisions))

    def to_json_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "mode": self.mode, "decisions": dict(self.decisions)}

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "FuzzSchedule":
        return cls(
            seed=int(data.get("seed", 0)),
            mode=str(data.get("mode", "explicit")),
            decisions=dict(data.get("decisions", {})),
        )


class _FuzzProbe(ScheduleProbe):
    """Schedule probe backed by a :class:`FuzzSchedule`.

    ``scope`` namespaces decision keys per driver invocation (the fuzzer
    sets it before each propose/validate call), so one schedule can steer
    several runs without key collisions.  Trivial decisions (singleton
    orders, full-width waves that match the derived value) are never
    recorded — they would only be shrinking noise.
    """

    def __init__(self, schedule: FuzzSchedule) -> None:
        self._schedule = schedule
        self.scope = ""

    def _key(self, name: str) -> str:
        return f"{self.scope}/{name}" if self.scope else name

    def _decide_width(self, name: str, max_width: int) -> int:
        s = self._schedule
        key = self._key(name)
        if key in s.decisions:
            return max(1, min(max_width, int(s.decisions[key])))
        if s.mode != "seeded" or max_width <= 1:
            return max_width
        width = random.Random(f"{s.seed}|{key}").randint(1, max_width)
        if width != max_width:
            s.decisions[key] = width
        return width

    def _decide_order(self, name: str, n: int) -> List[int]:
        s = self._schedule
        key = self._key(name)
        if key in s.decisions:
            return [int(i) for i in s.decisions[key]]
        identity = list(range(n))
        if s.mode != "seeded" or n <= 1:
            return identity
        order = list(identity)
        random.Random(f"{s.seed}|{key}").shuffle(order)
        if order != identity:
            s.decisions[key] = list(order)
        return order

    # -- yield points ---------------------------------------------------- #

    def wave_width(self, wave_index: int, max_width: int) -> int:
        return self._decide_width(f"wave_width:{wave_index}", max_width)

    def wave_commit_order(self, wave_index: int, n: int) -> List[int]:
        return self._decide_order(f"wave_commit:{wave_index}", n)

    def lane_order(self, n_lanes: int) -> List[int]:
        return self._decide_order("lane_order", n_lanes)

    def component_order(self, lane_index: int, n: int) -> List[int]:
        return self._decide_order(f"component_order:{lane_index}", n)

    def blockstm_wave_width(self, wave_index: int, max_width: int) -> int:
        return self._decide_width(f"blockstm_width:{wave_index}", max_width)

    def blockstm_exec_order(self, wave_index: int, n: int) -> List[int]:
        return self._decide_order(f"blockstm_exec:{wave_index}", n)


# --------------------------------------------------------------------- #
# scenarios                                                             #
# --------------------------------------------------------------------- #


def forge_lying_profile_block(
    universe: Universe, *, hidden_payment_index: int = 1
) -> Block:
    """Seal an honest block, then tamper its profile to hide a conflict.

    The block carries two payments into the same receiver plus a filler;
    the shipped profile strips every key of the shared receiver from one
    payment's rw-set.  An account-level dependency graph built from that
    profile splits the two conflicting payments into "disjoint" components
    — the exact byzantine input the footprint guards exist to catch.  The
    header stays honest (it commits to the true execution), so a serial
    validator accepts the block; only the *parallel partition* is poisoned.
    """
    receiver = universe.eoas[-1]
    senders = (universe.eoas[-2], universe.eoas[-3], universe.eoas[-4])
    txs = [
        Transaction(senders[0], receiver, 1_000, b"", 60_000, 10, 0, tag="pay"),
        Transaction(senders[1], receiver, 2_000, b"", 60_000, 10, 0, tag="pay"),
        Transaction(senders[2], universe.eoas[-5], 3_000, b"", 60_000, 10, 0, tag="pay"),
    ]
    from repro.network.node import ProposerNode

    chain = Blockchain(universe.genesis)
    sealed = ProposerNode("forge").build_block(chain.head.header, universe.genesis, txs)
    block = sealed.block
    assert block.profile is not None

    # locate the hidden_payment_index-th payment into the shared receiver
    # (block order is commit order, which may differ from submission order)
    target = None
    seen = 0
    for index, tx in enumerate(block.transactions):
        if tx.to == receiver:
            if seen == hidden_payment_index:
                target = index
                break
            seen += 1
    if target is None:  # pragma: no cover - forge workload is fixed
        raise AssertionError("forged block lost its shared-receiver payments")

    entries = list(block.profile.entries)
    honest = entries[target]
    lying_rw = FrozenRWSet(
        reads=tuple((k, v) for k, v in honest.rw.reads if k[1] != receiver),
        writes=tuple((k, v) for k, v in honest.rw.writes if k[1] != receiver),
    )
    entries[target] = TxProfileEntry(
        tx_hash=honest.tx_hash,
        rw=lying_rw,
        gas_used=honest.gas_used,
        success=honest.success,
    )
    return dataclasses.replace(block, profile=BlockProfile(entries=tuple(entries)))


@dataclass
class ConformanceScenario:
    """A workload plus the reference answers fuzzed runs are held to.

    One scenario instance is reused across every schedule of a fuzz
    session: the universe, transactions, and serial reference verdicts are
    computed once; only the drivers' scheduling decisions vary.
    """

    name: str
    universe: Universe
    txs: List[Transaction]
    lanes: int = 4
    workers: int = 2
    #: Proposer strategy the fuzzed propose leg runs
    #: (:data:`~repro.core.strategies.STRATEGY_CHOICES`).  Block-STM
    #: schedules flow through the collaborative scheduler's own yield
    #: points (``blockstm_width:*`` / ``blockstm_exec:*``).
    strategy: str = "occ-wsi"
    #: Blocks with poisoned profiles; validated with ``verify_profile=False``
    #: (the ablation under which only the footprint guards stand between a
    #: lying profile and a wrong merge).  The conformance property is that
    #: the fuzzed verdict always equals the serial reference verdict.
    adversarial_blocks: List[Block] = field(default_factory=list)

    _parent: Optional[BlockHeader] = field(default=None, repr=False)
    _adversarial_ref: Optional[List[Tuple[bool, Optional[bytes]]]] = field(
        default=None, repr=False
    )

    @classmethod
    def hotspot(
        cls,
        n_txs: int = 18,
        seed: int = 7,
        *,
        lanes: int = 4,
        workers: int = 2,
        with_adversarial: bool = True,
        strategy: str = "occ-wsi",
    ) -> "ConformanceScenario":
        """The default fuzz target: a contended block over a small world.

        High hotspot intensity concentrates traffic on single contract
        instances, which maximises intra-wave conflicts (proposer aborts)
        and cross-component coupling pressure (validator partitions) — the
        regimes where a scheduling bug would actually show.
        """
        universe = build_universe(
            UniverseConfig(
                n_eoas=96,
                n_tokens=3,
                n_amms=2,
                n_nfts=1,
                n_airdrops=1,
                token_holder_fraction=0.9,
                seed=23,
            )
        )
        generator = BlockWorkloadGenerator(
            universe,
            WorkloadConfig(
                txs_per_block=n_txs,
                tx_count_jitter=0.0,
                hotspot_intensity=0.8,
                seed=seed,
            ),
        )
        if strategy not in STRATEGY_CHOICES:
            raise ValueError(f"unknown strategy {strategy!r}")
        scenario = cls(
            name="hotspot" if strategy == "occ-wsi" else f"hotspot[{strategy}]",
            universe=universe,
            txs=generator.generate_block_txs(),
            lanes=lanes,
            workers=workers,
            strategy=strategy,
        )
        if with_adversarial:
            scenario.adversarial_blocks.append(forge_lying_profile_block(universe))
        return scenario

    @classmethod
    def named(
        cls,
        scenario: str,
        n_txs: int = 18,
        seed: int = 7,
        *,
        lanes: int = 4,
        workers: int = 2,
        with_adversarial: bool = True,
        strategy: str = "occ-wsi",
    ) -> "ConformanceScenario":
        """A fuzz target drawn from the workload scenario registry.

        The compact variant of the named stream supplies the universe and
        one block of traffic, so every registered traffic shape (counter
        variants, bursts, MEV bundles, long tail, ...) runs under the same
        serializability + differential oracles as the default hotspot
        target — ``python -m repro --scenario mev-bundles fuzz``.
        """
        from repro.workload.scenarios import get_scenario

        if strategy not in STRATEGY_CHOICES:
            raise ValueError(f"unknown strategy {strategy!r}")
        stream = get_scenario(
            scenario, seed=seed, txs_per_block=n_txs, compact=True
        )
        label = scenario if strategy == "occ-wsi" else f"{scenario}[{strategy}]"
        out = cls(
            name=label,
            universe=stream.universe,
            txs=stream.generate_block_txs(),
            lanes=lanes,
            workers=workers,
            strategy=strategy,
        )
        if with_adversarial:
            out.adversarial_blocks.append(
                forge_lying_profile_block(stream.universe)
            )
        return out

    # -- cached reference artifacts -------------------------------------- #

    def parent_header(self) -> BlockHeader:
        if self._parent is None:
            self._parent = Blockchain(self.universe.genesis).head.header
        return self._parent

    def ctx(self) -> ExecutionContext:
        parent = self.parent_header()
        return ExecutionContext(
            block_number=parent.number + 1,
            timestamp=parent.timestamp + 12,
            coinbase=Address(b"\xcc" * 20),
            gas_limit=30_000_000,
        )

    def adversarial_reference(self) -> List[Tuple[bool, Optional[bytes]]]:
        """Serial reference verdict per adversarial block: (accepted, root)."""
        if self._adversarial_ref is None:
            validator = ParallelValidator(
                config=ValidatorConfig(lanes=self.lanes, verify_profile=False)
            )
            ref: List[Tuple[bool, Optional[bytes]]] = []
            for block in self.adversarial_blocks:
                verdict = validator.validate_block(block, self.universe.genesis)
                root = (
                    bytes(verdict.post_state.state_root())
                    if verdict.accepted and verdict.post_state is not None
                    else None
                )
                ref.append((verdict.accepted, root))
            self._adversarial_ref = ref
        return self._adversarial_ref


# --------------------------------------------------------------------- #
# executing one schedule                                                #
# --------------------------------------------------------------------- #


@dataclass
class FuzzFailure:
    """One schedule that broke the conformance property."""

    kind: str  # 'serializability' | 'differential' | 'schedule' | 'validator' | 'footprint' | 'divergence'
    detail: str
    schedule: FuzzSchedule
    shrunk: Optional[FuzzSchedule] = None

    def describe(self) -> str:
        lines = [f"[{self.kind}] {self.detail}"]
        if self.shrunk is not None:
            lines.append(
                f"  minimal schedule: {len(self.shrunk.decisions)} decision(s) "
                f"{sorted(self.shrunk.decisions)}"
            )
        return "\n".join(lines)


def run_schedule(
    scenario: ConformanceScenario, schedule: FuzzSchedule
) -> Optional[FuzzFailure]:
    """Run the full propose→oracle→seal→diff→validate chain once.

    Returns ``None`` when every conformance obligation holds, else the
    first :class:`FuzzFailure` (schedule attached, decisions recorded).
    """
    probe = schedule.probe()
    genesis = scenario.universe.genesis
    ctx = scenario.ctx()

    # -- propose under the fuzzed schedule -------------------------------- #
    pool = TxPool()
    pool.add_many(scenario.txs)
    probe.scope = "propose"
    with ThreadBackend(scenario.workers) as backend:
        proposer = build_proposer(
            ProposerConfig(lanes=scenario.lanes, strategy=scenario.strategy),
            backend=backend,
            probe=probe,
        )
        result = proposer.propose(genesis, pool, ctx)

    oracle_report = verify_commit_order(result)
    if not oracle_report.ok:
        return FuzzFailure("serializability", oracle_report.summary(), schedule)

    sealed = seal_block(
        result,
        scenario.parent_header(),
        coinbase=ctx.coinbase,
        timestamp=ctx.timestamp,
        gas_limit=ctx.gas_limit,
    )
    schedule_report = verify_schedule(sealed.block, strategy=scenario.strategy)
    if not schedule_report.ok:
        return FuzzFailure("schedule", schedule_report.summary(), schedule)
    diff_report = diff_proposal(sealed, genesis)
    if not diff_report.ok:
        return FuzzFailure("differential", diff_report.summary(), schedule)

    # -- validate the fuzzed block under a fuzzed validator schedule ------- #
    check_log = CheckLog()
    probe.scope = "validate"
    with ThreadBackend(scenario.workers) as backend:
        validator = ParallelValidator(
            config=ValidatorConfig(lanes=scenario.lanes),
            backend=backend,
            check_log=check_log,
            probe=probe,
        )
        verdict = validator.validate_block(sealed.block, genesis)
    if not verdict.accepted:
        return FuzzFailure(
            "validator", f"honest block rejected: {verdict.reason}", schedule
        )
    if not check_log.clean:
        return FuzzFailure("footprint", check_log.summary(), schedule)

    # -- adversarial blocks: fuzzed verdict must equal serial verdict ------ #
    reference = scenario.adversarial_reference()
    for index, block in enumerate(scenario.adversarial_blocks):
        expect_accepted, expect_root = reference[index]
        probe.scope = f"adversarial:{index}"
        adv_log = CheckLog()  # violations *expected* here; not a failure
        with ThreadBackend(scenario.workers) as backend:
            validator = ParallelValidator(
                config=ValidatorConfig(lanes=scenario.lanes, verify_profile=False),
                backend=backend,
                check_log=adv_log,
                probe=probe,
            )
            adv_verdict = validator.validate_block(block, genesis)
        if adv_verdict.accepted != expect_accepted:
            return FuzzFailure(
                "divergence",
                f"adversarial block {index}: fuzzed verdict "
                f"accepted={adv_verdict.accepted} ({adv_verdict.reason}) but "
                f"serial reference accepted={expect_accepted}",
                schedule,
            )
        if adv_verdict.accepted and adv_verdict.post_state is not None:
            root = bytes(adv_verdict.post_state.state_root())
            if root != expect_root:
                return FuzzFailure(
                    "divergence",
                    f"adversarial block {index}: state root differs from the "
                    f"serial reference",
                    schedule,
                )
    return None


# --------------------------------------------------------------------- #
# shrinking                                                             #
# --------------------------------------------------------------------- #


def shrink_schedule(
    schedule: FuzzSchedule,
    still_fails: Callable[[FuzzSchedule], bool],
    *,
    max_runs: int = 200,
) -> FuzzSchedule:
    """Greedily reset decisions to their production defaults.

    Works on the explicit form (missing key = default), removing one
    decision at a time and keeping the removal whenever the failure still
    reproduces, to a fixpoint.  The result names only the load-bearing
    decisions; an empty result means the failure reproduces under the
    production schedule itself.
    """
    current = schedule.explicit()
    runs = 0
    changed = True
    while changed and runs < max_runs:
        changed = False
        for key in sorted(current.decisions):
            trial = FuzzSchedule(
                current.seed,
                "explicit",
                {k: v for k, v in current.decisions.items() if k != key},
            )
            runs += 1
            if still_fails(trial):
                current = trial
                changed = True
            if runs >= max_runs:
                break
    return current


# --------------------------------------------------------------------- #
# the fuzz loop                                                         #
# --------------------------------------------------------------------- #


@dataclass
class FuzzResult:
    """Outcome of one fuzz session."""

    scenario: str
    schedules_run: int
    failures: List[FuzzFailure]
    elapsed_s: float
    #: Proposer strategy the session fuzzed (named in repro artifacts).
    strategy: str = "occ-wsi"

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        head = (
            f"fuzz[{self.scenario}]: {self.schedules_run} schedule(s) in "
            f"{self.elapsed_s:.1f}s — "
            f"{'all conformant' if self.ok else f'{len(self.failures)} FAILURE(S)'}"
        )
        if self.ok:
            return head
        return "\n".join([head] + [f.describe() for f in self.failures])


def fuzz_conformance(
    scenario: ConformanceScenario,
    n_schedules: int = 50,
    *,
    seed: int = 0,
    budget_s: Optional[float] = None,
    shrink: bool = True,
    max_failures: int = 5,
) -> FuzzResult:
    """Explore ``n_schedules`` seeded interleavings (or until ``budget_s``).

    Every schedule is independent and reproducible from its recorded
    decisions; failures are shrunk in-session (while whatever broke the
    invariant — e.g. a monkeypatched guard — is still in effect) and
    capped at ``max_failures`` so a systematically broken build doesn't
    spend the whole budget re-proving one bug.
    """
    started = time.monotonic()
    failures: List[FuzzFailure] = []
    run = 0
    for index in range(n_schedules):
        if budget_s is not None and time.monotonic() - started > budget_s:
            break
        schedule = FuzzSchedule(seed=seed + index)
        failure = run_schedule(scenario, schedule)
        run += 1
        if failure is None:
            continue
        if shrink:
            kind = failure.kind

            def _still_fails(trial: FuzzSchedule) -> bool:
                repro = run_schedule(scenario, trial)
                return repro is not None and repro.kind == kind

            failure.shrunk = shrink_schedule(
                failure.schedule, _still_fails, max_runs=40
            )
        failures.append(failure)
        if len(failures) >= max_failures:
            break
    return FuzzResult(
        scenario=scenario.name,
        schedules_run=run,
        failures=failures,
        elapsed_s=time.monotonic() - started,
        strategy=scenario.strategy,
    )


# --------------------------------------------------------------------- #
# JSON repro artifacts                                                  #
# --------------------------------------------------------------------- #


def save_failures(result: FuzzResult, path: str) -> None:
    """Write a fuzz session's failing schedules as a JSON repro file."""
    payload = {
        "scenario": result.scenario,
        "strategy": result.strategy,
        "schedules_run": result.schedules_run,
        "elapsed_s": round(result.elapsed_s, 3),
        "failures": [
            {
                "kind": failure.kind,
                "detail": failure.detail,
                "schedule": failure.schedule.explicit().to_json_dict(),
                "shrunk": (
                    failure.shrunk.to_json_dict()
                    if failure.shrunk is not None
                    else None
                ),
            }
            for failure in result.failures
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_schedule_json(path: str) -> List[FuzzSchedule]:
    """Load schedules from a repro file (or a bare schedule dict).

    Accepts either the :func:`save_failures` format (returns the shrunk
    schedule when present, else the full one, per failure) or a single
    serialized :class:`FuzzSchedule`.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict) and "failures" in data:
        schedules: List[FuzzSchedule] = []
        for entry in data["failures"]:
            chosen = entry.get("shrunk") or entry.get("schedule")
            if chosen is not None:
                schedules.append(FuzzSchedule.from_json_dict(chosen))
        return schedules
    if isinstance(data, dict):
        return [FuzzSchedule.from_json_dict(data)]
    return [FuzzSchedule.from_json_dict(entry) for entry in data]
