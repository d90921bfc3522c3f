"""Machine-readable benchmark baselines (``BENCH_<name>.json``).

Benchmarks historically printed text tables nothing could diff; this
module gives each one a JSON artifact carrying its headline numbers
(speedups, makespans, abort rates) and the config that produced them, and
a :func:`compare` helper that flags regressions between two baselines.
``python -m benchmarks --compare`` is the gate built on it.

Direction heuristics: keys ending in ``speedup``/``tps``/``utilization``/
``accepted`` are higher-is-better; ``makespan``/``*_us``/``*_time``/
``aborts``/``*_rate``/``overhead`` are lower-is-better; anything else is
informational (never flagged).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Union

__all__ = [
    "write_baseline",
    "load_baseline",
    "compare",
    "direction_of",
    "Delta",
    "BaselineComparison",
    "baseline_path",
]

SCHEMA_VERSION = 1

_HIGHER_SUFFIXES = ("speedup", "tps", "utilization", "accepted", "throughput")
_LOWER_SUFFIXES = (
    "makespan",
    "_us",
    "_time",
    "time_s",
    "aborts",
    "_rate",
    "overhead",
    "faults",
    "retries",
    "fallbacks",
    "switches",
)


def direction_of(key: str) -> int:
    """+1 if higher is better, -1 if lower is better, 0 if informational."""
    leaf = key.rsplit(".", 1)[-1].lower()
    for suffix in _HIGHER_SUFFIXES:
        if leaf.endswith(suffix):
            return 1
    for suffix in _LOWER_SUFFIXES:
        if leaf.endswith(suffix):
            return -1
    return 0


def _flatten(prefix: str, value, out: Dict[str, float]) -> None:
    if isinstance(value, bool):
        out[prefix] = 1.0 if value else 0.0
    elif isinstance(value, (int, float)):
        out[prefix] = float(value)
    elif isinstance(value, Mapping):
        for key in sorted(value):
            child = f"{prefix}.{key}" if prefix else str(key)
            _flatten(child, value[key], out)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _flatten(f"{prefix}[{index}]", item, out)
    # strings and other leaves are not comparable numbers: skip


def flatten_numbers(headline: Mapping) -> Dict[str, float]:
    """Dotted-key view of every numeric leaf in a headline mapping."""
    out: Dict[str, float] = {}
    _flatten("", headline, out)
    return out


# ---------------------------------------------------------------------- #


def baseline_path(name: str, directory: Optional[str] = None) -> str:
    directory = directory or os.path.join("benchmarks", "results")
    return os.path.join(directory, f"BENCH_{name}.json")


def write_baseline(
    name: str,
    headline: Mapping,
    *,
    config: Optional[Mapping] = None,
    directory: Optional[str] = None,
) -> str:
    """Persist one benchmark's numbers as ``BENCH_<name>.json``.

    The document is written with sorted keys and a fixed layout so two
    runs of the same benchmark diff cleanly.  Returns the path written.
    """
    path = baseline_path(name, directory)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    document = {
        "schema": SCHEMA_VERSION,
        "name": name,
        "headline": dict(headline),
        "config": dict(config) if config else {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def load_baseline(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    if "headline" not in document or "name" not in document:
        raise ValueError(f"{path} is not a benchmark baseline (missing keys)")
    return document


# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Delta:
    """One numeric headline key that moved between two baselines."""

    key: str
    old: float
    new: float
    change: float  # relative change, signed: (new - old) / |old|
    direction: int  # +1 higher-is-better, -1 lower-is-better, 0 info


@dataclass
class BaselineComparison:
    """Outcome of comparing a new baseline against an old one."""

    name: str
    tolerance: float
    regressions: List[Delta] = field(default_factory=list)
    improvements: List[Delta] = field(default_factory=list)
    unchanged: int = 0
    missing_keys: List[str] = field(default_factory=list)
    new_keys: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def summary(self) -> str:
        lines = [
            f"baseline {self.name}: "
            f"{len(self.regressions)} regressions, "
            f"{len(self.improvements)} improvements, "
            f"{self.unchanged} within ±{self.tolerance:.0%}"
        ]
        for delta in self.regressions:
            lines.append(
                f"  REGRESSION {delta.key}: {delta.old:g} -> {delta.new:g} "
                f"({delta.change:+.1%})"
            )
        for delta in self.improvements:
            lines.append(
                f"  improved   {delta.key}: {delta.old:g} -> {delta.new:g} "
                f"({delta.change:+.1%})"
            )
        return "\n".join(lines)


def compare(
    old: Union[str, Mapping],
    new: Union[str, Mapping],
    tolerance: float = 0.05,
) -> BaselineComparison:
    """Compare two baselines (paths or loaded documents).

    A *regression* is a directional headline key that moved more than
    ``tolerance`` (relative) in the bad direction.  Comparing a baseline
    against itself always yields zero regressions.
    """
    old_doc = load_baseline(old) if isinstance(old, str) else dict(old)
    new_doc = load_baseline(new) if isinstance(new, str) else dict(new)
    old_nums = flatten_numbers(old_doc.get("headline", {}))
    new_nums = flatten_numbers(new_doc.get("headline", {}))

    result = BaselineComparison(
        name=str(new_doc.get("name", old_doc.get("name", "?"))),
        tolerance=tolerance,
    )
    result.missing_keys = sorted(set(old_nums) - set(new_nums))
    result.new_keys = sorted(set(new_nums) - set(old_nums))

    for key in sorted(set(old_nums) & set(new_nums)):
        old_value, new_value = old_nums[key], new_nums[key]
        direction = direction_of(key)
        if old_value == new_value:
            result.unchanged += 1
            continue
        denom = abs(old_value) if old_value != 0 else 1.0
        change = (new_value - old_value) / denom
        delta = Delta(key, old_value, new_value, change, direction)
        if direction == 0 or abs(change) <= tolerance:
            result.unchanged += 1
        elif change * direction < 0:
            result.regressions.append(delta)
        else:
            result.improvements.append(delta)
    return result
