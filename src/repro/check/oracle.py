"""Serializability oracle: prove a committed order conflict-serializable.

Every OCC-WSI run already records, per committed transaction, the snapshot
version its reads observed and the exact keys it wrote.  That is enough to
reconstruct the **conflict graph** at account+slot granularity (one node
per committed transaction, one edge per rw/ww/wr conflict, direction
derived from the versions actually observed) and check two things:

1. the graph is acyclic — some serial order is conflict-equivalent to the
   parallel execution (serializability proper); and
2. every edge points *forward* in commit order — the equivalent serial
   order is the commit order itself, which is the order the block ships
   and the order every validator replays (§3.3).

Reads are recorded at the transaction's **snapshot version** — the global
committed counter at execution time, not a per-key version.  A read at
snapshot ``s`` observed, for each key, the latest committed write at or
before ``s`` (or the base snapshot if none).  Two local invariants make
both properties checkable in one pass:

* **future read** — a transaction at position ``j`` may not observe a
  snapshot at or past its own commit (``s >= j``): a wr edge from a
  later writer would point backward.
* **stale read** — no writer of a read key may sit between the reader's
  snapshot and its commit (``s < p < j``): the reader missed ``p``'s
  write, so the rw anti-dependency ``j -> p`` and the commit-order wr
  claim ``p -> j`` form a 2-cycle.  This is exactly the check OCC-WSI's
  reserve table performs at commit time; here it is re-proven from the
  recorded sets, independently of the proposer's bookkeeping.

Violations carry a **cycle witness**: the minimal list of conflict edges
whose directions cannot be embedded in the commit order.

Two entry points:

* :func:`verify_schedule` — from a sealed :class:`~repro.chain.block.
  Block` and its profile (positions are versions); what validators and
  the ``python -m repro check`` CLI use.
* :func:`verify_commit_order` — from a live :class:`~repro.core.occ_wsi.
  ProposalResult`, additionally cross-checking the recorded write sets
  against the multi-version store's version index (catches driver bugs
  where the store and the rw bookkeeping disagree).  This is what
  ``ProposerConfig(strict_checks=True)`` runs post-propose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.state.access import StateKey

if TYPE_CHECKING:  # pragma: no cover - typing only (core imports this module)
    from repro.chain.block import Block, BlockProfile
    from repro.core.session import ProposalResult

__all__ = [
    "ConflictEdge",
    "ScheduleViolation",
    "ScheduleReport",
    "ScheduleViolationError",
    "verify_schedule",
    "verify_commit_order",
]


def _key_str(key: StateKey) -> str:
    kind, address, slot = key
    return f"{kind}:{address.hex()[:8]}" + (f"[{slot}]" if slot is not None else "")


@dataclass(frozen=True)
class ConflictEdge:
    """One directed conflict between two committed positions (1-based).

    ``kind`` is the conflict class: ``wr`` (src wrote a key dst read),
    ``ww`` (both wrote it, src first), ``rw`` (src read a version older
    than dst's write — the anti-dependency).
    """

    src: int
    dst: int
    kind: str
    key: StateKey

    def describe(self) -> str:
        return f"tx{self.src} -{self.kind}-> tx{self.dst} on {_key_str(self.key)}"


@dataclass(frozen=True)
class ScheduleViolation:
    """One reason the committed order is not conflict-serializable."""

    kind: str  # 'future_read' | 'stale_read' | 'unwitnessed_read' | 'cycle' | 'store_mismatch' | 'missing_profile'
    tx: int  # 1-based position of the offending transaction (0 = block-level)
    key: Optional[StateKey]
    detail: str
    #: Minimal set of conflict edges that cannot all point forward in the
    #: claimed order (empty for non-cyclic bookkeeping violations).
    witness: Tuple[ConflictEdge, ...] = ()

    def describe(self) -> str:
        lines = [f"{self.kind} @ tx{self.tx}: {self.detail}"]
        lines.extend(f"  witness: {edge.describe()}" for edge in self.witness)
        return "\n".join(lines)


@dataclass
class ScheduleReport:
    """Outcome of one serializability check."""

    ok: bool
    n_txs: int
    #: All conflict edges derived from the recorded sets (forward edges
    #: included — useful for analysis/visualisation).
    edges: List[ConflictEdge] = field(default_factory=list)
    violations: List[ScheduleViolation] = field(default_factory=list)
    #: Proposer strategy that produced the schedule ("" when unknown) —
    #: carried into summaries so a violation names its engine.
    strategy: str = ""

    @property
    def cycle(self) -> Optional[Tuple[ConflictEdge, ...]]:
        """First cycle witness found, if any."""
        for violation in self.violations:
            if violation.witness:
                return violation.witness
        return None

    def edge_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {"wr": 0, "ww": 0, "rw": 0}
        for edge in self.edges:
            counts[edge.kind] = counts.get(edge.kind, 0) + 1
        return counts

    def summary(self) -> str:
        counts = self.edge_counts()
        origin = f"[{self.strategy}] " if self.strategy else ""
        head = (
            f"{origin}serializability: {'OK' if self.ok else 'VIOLATED'} — "
            f"{self.n_txs} txs, edges wr={counts['wr']} ww={counts['ww']} "
            f"rw={counts['rw']}, violations={len(self.violations)}"
        )
        if self.ok:
            return head
        return "\n".join([head] + [v.describe() for v in self.violations])


class ScheduleViolationError(AssertionError):
    """Raised by ``strict_checks`` when a proposal fails the oracle.

    An ``AssertionError`` subclass on purpose: a failing oracle means the
    proposer's own bookkeeping is inconsistent — an internal invariant
    broke, not an input error.
    """

    def __init__(self, report: ScheduleReport) -> None:
        super().__init__(report.summary())
        self.report = report


# --------------------------------------------------------------------- #
# core: verify one sequence of (reads-with-versions, write-keys)         #
# --------------------------------------------------------------------- #

#: One committed entry: (reads as (key, observed_version) pairs, write keys).
_Entry = Tuple[Sequence[Tuple[StateKey, int]], Sequence[StateKey]]


def _check_entries(entries: Sequence[_Entry], *, semantics: str = "snapshot") -> ScheduleReport:
    """Check one committed sequence under the given read-version semantics.

    ``snapshot`` (OCC-WSI, two-phase): a read version is the **global
    committed counter** at execution time — any value below the reader's
    own position with no intervening writer is consistent.

    ``multiversion`` (Block-STM): a read version names the **exact
    writer** whose value the read observed (0 = base/committed prefix).
    All snapshot invariants still apply (a multi-version read resolves to
    the latest writer below the reader, which snapshot semantics accepts
    as "snapshot = that writer's position"), plus the *witness rule*: a
    non-zero read version must be an actual writer position of that key.
    A claimed version no writer occupies means the engine invented a
    dependency — undetectable under snapshot semantics, where versions
    between writers are legal.
    """
    n = len(entries)
    report = ScheduleReport(ok=True, n_txs=n)

    # writer index: key -> sorted 1-based positions that wrote it
    writers: Dict[StateKey, List[int]] = {}
    for position, (_, write_keys) in enumerate(entries, start=1):
        for key in write_keys:
            writers.setdefault(key, []).append(position)

    # ww edges: version order between consecutive writers of a key
    for key, positions in writers.items():
        for earlier, later in zip(positions, positions[1:]):
            report.edges.append(ConflictEdge(earlier, later, "ww", key))

    for j, (reads, _) in enumerate(entries, start=1):
        for key, snapshot in reads:
            key_writers = writers.get(key, ())

            # future read: observing your own or a later commit is
            # impossible under any interleaving of Algorithm 1
            if snapshot >= j:
                witness = (
                    ConflictEdge(j, snapshot, "rw", key),
                    ConflictEdge(snapshot, j, "wr", key),
                )
                report.violations.append(
                    ScheduleViolation(
                        "future_read",
                        j,
                        key,
                        f"read of {_key_str(key)} claims snapshot v{snapshot} "
                        f"at commit position {j}",
                        witness,
                    )
                )
                continue

            # witness rule (multiversion only): a non-zero read version
            # must name a position that actually wrote this key
            if semantics == "multiversion" and snapshot > 0 and snapshot not in key_writers:
                report.violations.append(
                    ScheduleViolation(
                        "unwitnessed_read",
                        j,
                        key,
                        f"tx{j} claims to have read {_key_str(key)} from "
                        f"v{snapshot}, but no committed transaction at that "
                        "position wrote the key",
                    )
                )
                continue

            # wr edge: the latest writer the reader could have observed
            # (snapshot versions are the global committed counter — a read
            # with no writer at or before it observed the base snapshot)
            observed = [p for p in key_writers if p <= snapshot]
            if observed:
                report.edges.append(ConflictEdge(max(observed), j, "wr", key))

            # stale read: a writer between snapshot and commit means the
            # reader missed a committed write => 2-cycle with commit order
            stale = [p for p in key_writers if snapshot < p < j]
            for p in stale:
                witness = (
                    ConflictEdge(p, j, "wr", key),
                    ConflictEdge(j, p, "rw", key),
                )
                report.violations.append(
                    ScheduleViolation(
                        "stale_read",
                        j,
                        key,
                        f"tx{j} read {_key_str(key)} at snapshot v{snapshot} "
                        f"but tx{p} wrote it before tx{j} committed",
                        witness,
                    )
                )
                report.edges.append(ConflictEdge(j, p, "rw", key))

            # forward anti-dependencies (reader before a later writer) are
            # consistent with commit order but part of the conflict graph
            for p in key_writers:
                if p > max(snapshot, j):
                    report.edges.append(ConflictEdge(j, p, "rw", key))

    cycle = _find_cycle(n, report.edges)
    if cycle is not None:
        report.violations.append(
            ScheduleViolation(
                "cycle",
                cycle[0].src,
                cycle[0].key,
                "conflict graph contains a cycle: "
                + " , ".join(edge.describe() for edge in cycle),
                cycle,
            )
        )

    report.ok = not report.violations
    return report


def _find_cycle(n: int, edges: Iterable[ConflictEdge]) -> Optional[Tuple[ConflictEdge, ...]]:
    """Iterative DFS cycle search; returns the edge path of the first cycle."""
    adjacency: Dict[int, List[ConflictEdge]] = {}
    for edge in edges:
        if edge.src != edge.dst:
            adjacency.setdefault(edge.src, []).append(edge)

    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in range(1, n + 1)}
    for root in range(1, n + 1):
        if color[root] != WHITE:
            continue
        # stack of (node, iterator over outgoing edges); path holds the
        # edge taken into each grey node so a back edge yields the cycle
        stack: List[Tuple[int, int]] = [(root, 0)]
        path: List[ConflictEdge] = []
        color[root] = GREY
        while stack:
            node, edge_index = stack[-1]
            outgoing = adjacency.get(node, [])
            if edge_index >= len(outgoing):
                stack.pop()
                color[node] = BLACK
                if path:
                    path.pop()
                continue
            stack[-1] = (node, edge_index + 1)
            edge = outgoing[edge_index]
            if color.get(edge.dst, BLACK) == GREY:
                # back edge: slice the path from the cycle entry point
                cycle = [edge]
                for prior in reversed(path):
                    cycle.append(prior)
                    if prior.src == edge.dst:
                        break
                return tuple(reversed(cycle))
            if color.get(edge.dst, BLACK) == WHITE:
                color[edge.dst] = GREY
                stack.append((edge.dst, 0))
                path.append(edge)
    return None


# --------------------------------------------------------------------- #
# public entry points                                                    #
# --------------------------------------------------------------------- #


def _semantics_for(strategy: str) -> str:
    """Read-version semantics a strategy's recorded schedules use."""
    return "multiversion" if strategy == "block-stm" else "snapshot"


def verify_schedule(
    block: Block, profile: Optional[BlockProfile] = None, *, strategy: str = ""
) -> ScheduleReport:
    """Prove a sealed block's commit order conflict-serializable.

    ``block`` is a :class:`~repro.chain.block.Block`; ``profile`` defaults
    to ``block.profile``.  Positions in the block are the commit versions
    (1-based), and each profile entry's recorded read versions are the
    snapshot the proposer actually executed against — so a reordered or
    hand-forged block whose claimed snapshots cannot be embedded in the
    shipped order is rejected with a cycle witness.

    ``strategy`` names the proposer engine that built the block; passing
    ``"block-stm"`` switches the read versions to per-key multiversion
    semantics (every non-zero read version must be witnessed by an actual
    writer at that position).  Blocks do not carry their strategy, so
    callers that know it (the fuzzer, the check CLI) thread it through.
    """
    if profile is None:
        profile = block.profile
    if profile is None:
        report = ScheduleReport(ok=False, n_txs=len(block.transactions), strategy=strategy)
        report.violations.append(
            ScheduleViolation(
                "missing_profile", 0, None, "block carries no profile to verify"
            )
        )
        return report
    entries: List[_Entry] = [
        (tuple(entry.rw.reads), tuple(entry.rw.write_keys()))
        for entry in profile.entries
    ]
    report = _check_entries(entries, semantics=_semantics_for(strategy))
    report.strategy = strategy
    return report


def verify_commit_order(result: ProposalResult) -> ScheduleReport:
    """Prove a live :class:`ProposalResult`'s commit order serializable.

    Beyond the schedule check, cross-validates the multi-version store's
    version index against the committed write sets: every version the
    store recorded for a key must correspond to that transaction's rw
    write set and vice versa.  A divergence means the proposing driver
    applied writes it never recorded (or recorded writes it never
    applied) — exactly the class of bug the conformance suite exists to
    catch.
    """
    strategy = getattr(result, "strategy", "")
    committed = result.committed
    entries: List[_Entry] = []
    for c in committed:
        reads = tuple((key, version) for key, version in c.rw.reads.items())
        entries.append((reads, tuple(c.rw.writes)))
    report = _check_entries(entries, semantics=_semantics_for(strategy))
    report.strategy = strategy

    # store cross-check: recorded rw writes <=> store version index
    expected: Dict[StateKey, List[int]] = {}
    for c in committed:
        for key in c.rw.writes:
            expected.setdefault(key, []).append(c.version)
    actual = result.store.key_versions()
    if expected != actual:
        drift = set(expected) ^ set(actual)
        sample = next(iter(drift), None)
        if sample is None:
            sample = next(
                (k for k in expected if expected[k] != actual.get(k)), None
            )
        report.violations.append(
            ScheduleViolation(
                "store_mismatch",
                0,
                sample,
                "multi-version store version index disagrees with recorded "
                f"write sets ({len(drift)} keys differ in presence)",
            )
        )
        report.ok = False
    return report
