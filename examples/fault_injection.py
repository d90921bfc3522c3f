#!/usr/bin/env python3
"""Fault injection walkthrough: a lying proposer meets a hardened validator.

Story in four acts:

1. A byzantine proposer seals an honest block, then publishes a copy with
   a tampered write-set profile.
2. The validator re-executes, catches the lie, and rejects with a typed
   `ValidationFailure` naming exactly which check failed.
3. The same lie, relayed three times to a validator node, is refused
   three times; the rejections leave nothing behind, so the honest block
   (same hash: the profile is outside it) is accepted right after them.
4. A crashing worker lane shows graceful degradation: transient faults
   heal via parallel retry, permanent ones fall back to serial
   re-execution — same state root, more simulated time.

Run:  python examples/fault_injection.py
"""

from repro.chain.blockchain import Blockchain
from repro.core.validator import ParallelValidator, ValidatorConfig
from repro.faults.injector import FaultConfig, FaultInjector
from repro.network.node import ProposerNode, ValidatorNode
from repro.workload.generator import BlockWorkloadGenerator, WorkloadConfig
from repro.workload.universe import UniverseConfig, build_universe


def main() -> None:
    # a compact world and one honest block over its genesis
    universe = build_universe(
        UniverseConfig(n_eoas=120, n_tokens=4, n_amms=2, n_nfts=1, n_airdrops=1, seed=11)
    )
    generator = BlockWorkloadGenerator(
        universe, WorkloadConfig(txs_per_block=24, tx_count_jitter=0.0, seed=5)
    )
    chain = Blockchain(universe.genesis)
    parent_state = chain.head_state
    honest = ProposerNode("proposer-0").build_block(
        chain.head.header, parent_state, generator.generate_block_txs()
    ).block
    print(f"honest block: {len(honest)} txs, root {honest.header.state_root.hex()[:12]}…")

    # --- act 1+2: one corrupted profile entry, one typed rejection ------ #
    injector = FaultInjector(FaultConfig(seed=0))
    bad = injector.corrupt_block(honest, "profile_write_value")
    validator = ParallelValidator(config=ValidatorConfig(lanes=8))
    result = validator.validate_block(bad, parent_state)
    print("\ncorrupted profile (one write value off by a little):")
    print(f"  accepted        = {result.accepted}")
    print(f"  failure         = {result.failure}")
    print(f"  reason enum     = {result.failure.reason!r}")

    # --- act 3: a rejection leaves nothing behind ---------------------- #
    node = ValidatorNode("validator-0", universe.genesis, config=ValidatorConfig(lanes=8))
    print("\nsame lie, three deliveries, then the honest block:")
    for attempt in range(3):
        outcome = node.receive_blocks([bad])
        assert not outcome.accepted
        print(f"  delivery {attempt + 1}: rejected, reason={outcome.failures[0].reason}")
    outcome = node.receive_blocks([honest])
    assert outcome.accepted and node.chain.head.hash == honest.hash
    print(
        f"  honest block:  accepted, height {node.chain.height()}"
        f"  (same hash as the lie: {bad.hash == honest.hash})"
    )

    # --- act 4: worker crashes degrade, never corrupt ------------------- #
    print("\nworker-lane crashes (same block, increasing persistence):")
    honest_result = validator.validate_block(honest, parent_state)
    for attempts, label in ((1, "transient (heals after 1 attempt)"),
                            (10**6, "permanent (never heals)")):
        faulty = ParallelValidator(
            config=ValidatorConfig(lanes=8),
            injector=FaultInjector(
                FaultConfig(seed=0, worker_fault_rate=1.0, worker_fault_attempts=attempts)
            ),
        )
        res = faulty.validate_block(honest, parent_state)
        assert res.accepted
        assert res.post_state.state_root() == honest_result.post_state.state_root()
        print(
            f"  {label}:\n"
            f"    worker_faults={res.worker_faults}  attempts={res.exec_attempts}"
            f"  serial_pass={res.used_serial_fallback}"
            f"  commit_end={res.phases.commit_end:.0f}us"
            f"  (honest {honest_result.phases.commit_end:.0f}us)"
        )
    print("\nsame state root every time — faults cost time, never correctness")


if __name__ == "__main__":
    main()
