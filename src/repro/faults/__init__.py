"""Byzantine fault injection and the typed validation-failure taxonomy.

The paper's applier (Algorithm 2) assumes honest blocks; this package
exercises the *other* path: lying profiles, corrupted blocks and
crashing workers.  The design target is Block-STM's guarantee —
an adversarial proposer can at worst degrade performance, never
correctness (see PAPERS.md).

Layout:

* :mod:`repro.faults.errors` — :class:`FailureReason`/:class:`ValidationFailure`,
  the structured rejection taxonomy threaded through the validator stack;
* :mod:`repro.faults.injector` — the seeded :class:`FaultInjector` (block
  corruption, worker crashes/stalls);
* :mod:`repro.faults.storage` — deterministic storage faults for the
  durability engine: :class:`CrashPlan` crash points fired inside the
  :mod:`repro.store` commit path, plus tamper helpers (torn tails, byte
  flips, lost fsync windows) for recovery-detection tests.

The executable taxonomy — one scenario per failure variant, each driving
its fault through the public validator / pipeline / node API — is a test
fixture, ``tests/fault_scenarios.py``, together with the fakes that drive
faults the node itself never injects: a lying proposer and a crashing,
stalling or lying follower.
"""

from repro.faults.errors import FailureReason, ValidationFailure
from repro.faults.injector import FaultConfig, FaultInjector
from repro.faults.storage import CrashPlan

__all__ = [
    "FailureReason",
    "ValidationFailure",
    "FaultConfig",
    "FaultInjector",
    "CrashPlan",
]
