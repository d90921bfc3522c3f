"""``python -m benchmarks.e2e run`` — a full set of runs, with every check.

Each (workload, repeat) is one run in its own fresh child interpreter, one
child at a time, repeats interleaved round-robin across workloads
(A B C D A B C D …) so a slow host phase lands on every workload alike.
The reported value of an end-to-end metric is the median over repeats,
with quartiles and the sample count.  One further traced run per workload
fills the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

from .kernel import CAL_REF_S, kernel_hash
from .spec import HERE, OUT_DIR, load_contract, metric_names

CHILD_TIMEOUT_S = 600
#: acceptance limits on the traced run (README, "Traced run")
MIN_COVERAGE = 0.95
MAX_OVERHEAD = 0.10


def summarise(values: List[float]) -> Dict[str, Any]:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "values": values}


def run_child(
    workload: str, seed: int, trace: int, blocks: int, scratch: str
) -> Dict[str, Any]:
    """One run in a fresh interpreter; returns its detail document."""
    detail_path = os.path.join(scratch, f"{workload}-{trace}.json")
    command = [
        sys.executable,
        os.path.join(HERE, "__main__.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
        "--detail", detail_path,
    ]  # fmt: skip
    if blocks:
        command += ["--blocks", str(blocks)]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False
    )
    if not os.path.exists(detail_path):
        return {"problems": [f"child exited {done.returncode} without a result"], "failed": 1}
    with open(detail_path, encoding="utf-8") as handle:
        detail = json.load(handle)
    os.remove(detail_path)
    if done.returncode != 0 and not detail["problems"]:
        detail["problems"].append(f"child exited {done.returncode}")
    return detail


def collect(
    names: List[str], seed: int, repeats: int, quick: bool
) -> Dict[str, Dict[str, List[Dict[str, Any]]]]:
    os.makedirs(OUT_DIR, exist_ok=True)
    runs: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        name: {"plain": [], "traced": []} for name in names
    }
    blocks = 2 if quick else 0
    with tempfile.TemporaryDirectory(prefix="suite-", dir=OUT_DIR) as scratch:
        if not quick:
            for repeat in range(repeats):
                for name in names:
                    print(f"[{repeat + 1}/{repeats}] {name}", file=sys.stderr, flush=True)
                    runs[name]["plain"].append(run_child(name, seed, 0, blocks, scratch))
        for name in names:
            print(f"[traced] {name}", file=sys.stderr, flush=True)
            runs[name]["traced"].append(run_child(name, seed, 1, blocks, scratch))
    return runs


def aggregate(
    contract: Dict[str, Any], runs: Dict[str, Dict[str, List[Dict[str, Any]]]], quick: bool
) -> Dict[str, Any]:
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    problems: List[str] = []
    workloads: Dict[str, Any] = {}
    for name, kinds in runs.items():
        traced = kinds["traced"][0]
        # a quick set has no plain runs: the traced run's untraced pass stands in
        plain = kinds["plain"] or [traced]
        every = plain + ([traced] if kinds["plain"] else [])
        for run in every:
            problems += [f"{name}: {problem}" for problem in run.get("problems", [])]
        usable = [run for run in plain if "end_to_end" in run]
        if not usable or "per_layer" not in traced:
            workloads[name] = {"ops_attempted": 0, "ops_failed": 1, "failed_share": 1.0}
            continue
        reference = usable[0]
        for run in every:
            if run.get("heads") != reference["heads"]:
                problems.append(f"{name}: head hash differs between runs of one seed")
            if run.get("counts") != reference["counts"]:
                problems.append(f"{name}: exact counts differ between runs of one seed")
        end_to_end = {}
        for metric in metric_names(contract, "end_to_end"):
            row = summarise([run["end_to_end"][metric]["value"] for run in usable])
            row["raw_median"] = statistics.median(
                run["end_to_end"][metric]["raw"] for run in usable
            )
            row["unit"] = units[metric]
            end_to_end[metric] = row
        layer = traced["per_layer"] or {}
        # two blocks are too few for either figure to mean anything
        if not quick:
            coverage = layer.get("trace.coverage", 0.0)
            overhead = layer.get("trace.overhead_share", 1.0)
            if coverage < MIN_COVERAGE:
                problems.append(f"{name}: trace.coverage {coverage:.3f} < {MIN_COVERAGE}")
            if overhead > MAX_OVERHEAD:
                problems.append(f"{name}: trace.overhead_share {overhead:.3f} > {MAX_OVERHEAD}")
        attempted = sum(run.get("attempted", 0) for run in every)
        failed = sum(run.get("failed", 0) for run in every)
        workloads[name] = {
            "end_to_end": end_to_end,
            "per_layer": {
                metric: {"value": layer.get(metric), "unit": units[metric]}
                for metric in metric_names(contract, "per_layer")
            },
            "ops_attempted": attempted,
            "ops_failed": failed,
            "failed_share": failed / attempted if attempted else 1.0,
            "heads": reference["heads"],
            "passes_per_run": [run.get("passes") for run in usable],
            "kernel_ms_median": [run.get("kernel_ms_median") for run in usable],
            "stall_s": [run.get("stall_s") for run in usable],
        }

    serial, process = workloads.get("mainnet", {}), workloads.get("mainnet-process", {})
    versus: Optional[Dict[str, Any]] = None
    if "end_to_end" in serial and "end_to_end" in process:
        base, other = serial["end_to_end"]["tx_per_s"], process["end_to_end"]["tx_per_s"]
        versus = {
            "metric": "tx_per_s",
            "base": "mainnet",
            "calibrated": [other["median"], base["median"]],
            "raw": [other["raw_median"], base["raw_median"]],
        }
    return {"workloads": workloads, "process_vs_serial": versus, "problems": problems}


def render(result: Dict[str, Any]) -> str:
    lines: List[str] = []
    for name, data in result["workloads"].items():
        lines.append(f"== {name} ==")
        if "end_to_end" not in data:
            lines.append("  no result")
            continue
        lines.append("  end-to-end (calibrated; median [q1, q3] n | raw wall median)")
        for metric, row in data["end_to_end"].items():
            lines.append(
                f"    {metric:<34} {row['median']:>12.4f} {row['unit']:<5} "
                f"[{row['q1']:.4f}, {row['q3']:.4f}] n={row['n']} | raw {row['raw_median']:.4f}"
            )
        lines.append(
            f"    {'ops_failed / ops_attempted':<34} {data['ops_failed']} / "
            f"{data['ops_attempted']}  (share {data['failed_share']:.6f})"
        )
        stalls = [s for s in data["stall_s"] if s is not None]
        if stalls:
            lines.append(
                f"    {'loop wall time left out of rates':<34} {statistics.median(stalls):>12.4f} s     "
                f"per run, max {max(stalls):.4f} (stalls; `raw` includes them)"
            )
        lines.append("  per-layer (one traced run)")
        for metric, row in data["per_layer"].items():
            value = row["value"]
            shown = f"{value:>14.4f}" if isinstance(value, (int, float)) else f"{'missing':>14}"
            lines.append(f"    {metric:<34} {shown} {row['unit']}")
    versus = result["process_vs_serial"]
    if versus:
        for kind in ("calibrated", "raw"):
            ours, base = versus[kind]
            lines.append(
                f"mainnet-process tx_per_s ({kind}) {ours:.1f} = {ours / base:.3f} x "
                f"mainnet's {base:.1f} (base: mainnet, serve's default substrate)"
            )
    for problem in result["problems"]:
        lines.append(f"FAILED CHECK: {problem}")
    lines.append("all checks passed" if not result["problems"] else "CHECKS FAILED")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    contract = load_contract()
    names = metric_names(contract, "workloads")
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e run", description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--quick", action="store_true", help="2 blocks, 1 run per workload")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "latest.json"))
    args = parser.parse_args(argv)

    runs = collect(names, args.seed, args.repeats, args.quick)
    result = {
        "schema": 1,
        "kernel_hash": kernel_hash(),
        "cal_ref_s": CAL_REF_S,
        "seed": args.seed,
        "repeats": 1 if args.quick else args.repeats,
        "quick": args.quick,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version()},
        **aggregate(contract, runs, args.quick),
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print(render(result))
    print(f"result file: {args.out}")
    failed = any(w["ops_failed"] for w in result["workloads"].values())
    return 1 if result["problems"] or failed else 0
