"""Deterministic discrete-event substrate for measuring parallel schedules.

Wall-clock threading cannot demonstrate speedup in this environment (single
CPU core, GIL), and the paper's own analysis reasons about transaction cost
through gas (§4.3) and opcode weight (§5.4).  This package therefore
separates *what executes* from *how long it takes*:

* transactions really execute on the mini-EVM (producing state changes,
  read/write sets and an opcode trace);
* their **cost** is derived from that trace by a :class:`CostModel`;
* costs are charged to simulated worker **lanes** (threads) managed by a
  :class:`LaneGroup`, and ordering between concurrent activities is resolved
  by an :class:`EventQueue` with stable tie-breaking.

Everything here is deterministic: identical inputs produce identical
schedules, makespans and speedups on any machine.  A run reports a
:class:`RunStats`; aggregating many runs into the paper's speedup
summaries and histograms is the experiment harness's job
(``benchmarks/analysis.py``).
"""

from repro.simcore.events import Event, EventQueue
from repro.simcore.lanes import Lane, LaneGroup
from repro.simcore.costmodel import CostModel, TraceCosts
from repro.simcore.stats import RunStats

__all__ = [
    "Event",
    "EventQueue",
    "Lane",
    "LaneGroup",
    "CostModel",
    "TraceCosts",
    "RunStats",
]
