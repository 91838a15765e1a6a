#!/usr/bin/env python3
"""Run one benchmark workload and print its result as a JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan-200k --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs one untraced and one traced unit of the workload and reports the
per-layer metrics (see ``perfbench/README.md``).  The metric names and
units come from ``BENCHMARK.json``.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; a human-readable
table and the full report (provenance, gates, details) go to standard
error, and the report and any spans are also written under
``perfbench/out/``.  The exit code is 1 when a correctness gate fails,
2 when the tree holds no program to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("plan-200k", "churn", "faults")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def _spec():
    with (ROOT / "BENCHMARK.json").open() as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _workload(name: str):
    from perfbench import plan, serving

    if name == "plan-200k":
        return plan, plan.PlanParams()
    return serving, serving.CHURN if name == "churn" else serving.FAULTS


def run(name: str, seed: int, seconds: float, traced: bool):
    """``(metrics, attempted, failed, gates, report)`` of one run."""
    from perfbench import layers
    from perfbench.common import provenance

    module, params = _workload(name)
    if traced:
        tracer = layers.new_tracer()
        result = module.trace(params, seed, tracer)
        metrics = layers.layer_metrics(tracer, result)
        detail = {"spans": len(tracer.spans), "counters": tracer.counters}
        tracer.write(OUT / f"{name}-seed{seed}-spans.jsonl.gz")
    else:
        result = module.measure(params, seed, seconds)
        metrics = dict(result["end_to_end"])
        detail = dict(result["detail"], workload=result["workload"])
    gates = module.check(result, params, seed)
    report = {
        "provenance": provenance(
            ROOT,
            name,
            seed,
            dict(asdict(params), seconds=seconds, trace=int(traced)),
        ),
        "metrics": metrics,
        "gates": gates,
        "detail": detail,
    }
    return metrics, result["attempted"], result["failed"], gates, report


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return _main(args)
    finally:
        # Only a run that got as far as the workloads starts children.
        if "perfbench.common" in sys.modules:
            sys.modules["perfbench.common"].stop_children()


def _main(args) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (
        ROOT / "benchmarks" / "bench_scale.py"
    ).is_file():
        print(
            f"perfbench: no program to benchmark under {ROOT} "
            "(expected src/repro and benchmarks/bench_scale.py)",
            file=sys.stderr,
        )
        return 2
    for path in (ROOT, ROOT / "benchmarks", ROOT / "src"):
        sys.path.insert(0, str(path))

    end_to_end, per_layer = _spec()
    wanted = per_layer if args.trace else end_to_end
    metrics, attempted, failed, gates, report = run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    if set(metrics) != set(wanted):
        missing = sorted(set(wanted) - set(metrics))
        extra = sorted(set(metrics) - set(wanted))
        raise SystemExit(
            f"perfbench: metrics out of step with BENCHMARK.json "
            f"(missing {missing}, unlisted {extra})"
        )
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        raise SystemExit(f"perfbench: non-finite metrics {bad}")

    correct = not any(v.startswith("FAIL") for v in gates.values())
    units = dict(end_to_end, **per_layer)
    for key, value in sorted(metrics.items()):
        print(f"{key:<36} {value:>16.6g} {wanted[key]}", file=sys.stderr)
    for key, value in sorted(report["detail"].get("workload", {}).items()):
        print(f"{key:<36} {value:>16.6g} {units[key]}", file=sys.stderr)
    for key, verdict in gates.items():
        print(f"gate {key:<31} {verdict}", file=sys.stderr)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2, default=str) + "\n")
    print(json.dumps(report["provenance"]), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    k: {"value": v, "unit": wanted[k]} for k, v in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
