#!/usr/bin/env python
"""Append a bench report's speedups to the tracked BENCH_TRAJECTORY.json.

The raw ``bench_*.json`` artifacts are gitignored; this helper distills
one into a trajectory entry (headline speedups only) so the tracked
history stays small::

    PYTHONPATH=src python benchmarks/bench_topo.py --out report.json
    python benchmarks/update_trajectory.py --pr 6 --bench bench_topo report.json

An existing entry with the same ``(pr, bench)`` pair is replaced.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

TRAJECTORY = Path(__file__).resolve().parents[1] / "BENCH_TRAJECTORY.json"


def distill(report: dict) -> dict:
    """Speedups, scale headlines and scenario line from one bench report."""
    speedups = {
        name: entry["speedup"]
        for name, entry in report.get("results", {}).items()
        if entry.get("speedup") is not None
    }
    scenario = report.get("scenario", {})
    parts = []
    for key in ("num_requests", "num_nodes", "num_vnfs"):
        if key in scenario:
            parts.append(f"{scenario[key]} {key.removeprefix('num_')}")
    entry = {
        "scenario": " / ".join(parts) or "(unknown)",
        "speedups": speedups,
    }
    if "cpu_count" in scenario:
        entry["cpu_count"] = scenario["cpu_count"]
    # Macro benchmarks report absolute headline numbers instead of
    # speedups — pipeline requests/s and peak RSS (bench_scale),
    # recovery latency and eviction throughput (bench_faults).
    headline = {
        key: round(float(value), 2)
        for key, value in report.get("headline", {}).items()
        if key
        in (
            "requests_per_sec",
            "peak_rss_mb",
            "sim_speedup",
            "sim_jobs",
            "recovery_p99_ms",
            "evictions_per_sec",
        )
    }
    if headline:
        entry["headline"] = headline
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", type=Path, help="bench JSON report to distill")
    parser.add_argument("--pr", type=int, required=True, help="PR number")
    parser.add_argument(
        "--bench", required=True, help="bench name, e.g. bench_topo"
    )
    parser.add_argument(
        "--trajectory", type=Path, default=TRAJECTORY, help=f"({TRAJECTORY})"
    )
    args = parser.parse_args(argv)

    report = json.loads(args.report.read_text())
    if report.get("scenario", {}).get("quick"):
        parser.error("refusing to record a --quick run in the trajectory")
    entry = {"pr": args.pr, "bench": args.bench, **distill(report)}
    entry["source"] = f"benchmarks/{args.bench}.py (PR {args.pr})"

    trajectory = json.loads(args.trajectory.read_text())
    entries = [
        e
        for e in trajectory["entries"]
        if (e["pr"], e["bench"]) != (args.pr, args.bench)
    ]
    entries.append(entry)
    entries.sort(key=lambda e: (e["pr"], e["bench"]))
    trajectory["entries"] = entries
    args.trajectory.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"recorded {args.bench} (PR {args.pr}) -> {args.trajectory}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
