"""Where the traced run puts its spans, and the per-layer metrics.

Layer names follow the ``src/repro`` modules.  Each entry of
:data:`SPANS` is ``(span name, owner, attribute, counting hook)``;
class owners are patched on the class so nested calls (BFDSU and RCKK
inside ``rebalance``, ``remove_request`` inside ``depart``) get spans
too.  A workload that never calls a layer reports zeros for it.
"""

from __future__ import annotations

from typing import Dict

from repro.core import evaluation, local_search
from repro.core.arrays import ScenarioArrays
from repro.core.incremental import DeploymentEngine
from repro.faults.recovery import LeastLoadedReadmit
from repro.faults.sla import SLATracker
from repro.placement.bfdsu import BFDSUPlacement
from repro.scheduling import kernels, swap_refine
from repro.scheduling.rckk import RCKKScheduler
from repro.serve.service import ServingLayer
from repro.sim import scale
from repro.workload import stream

from perfbench.common import tail
from perfbench.tracing import Tracer


def _add(c: Dict[str, float], key: str, amount: float = 1.0) -> None:
    c[key] = c.get(key, 0.0) + amount


def _draws(c, result, args):
    _add(c, "placement.draws", result.iterations)


def _relocations(c, result, args):
    _add(c, "refine.relocations", result.moves_applied)


def _swaps(c, result, args):
    _add(c, "refine.swap_moves", result[1])


def _packets(c, result, args):
    _add(c, "sim.packets", int(result.generated))
    _add(c, "sim.retransmitted", int(result.retransmitted.sum()))


def _admits(c, result, args):
    _add(c, "engine.admits" if result.admitted else f"engine.rejects.{result.reason}")


def _rebalances(c, result, args):
    _add(c, "rebalance.calls")
    if result.committed:
        _add(c, "rebalance.committed")
        _add(c, "engine.rebalance_migrations", result.total_migrations)


def _evicted(c, result, args):
    _add(c, "engine.evicted", len(result))


def _recovered(c, result, args):
    _add(c, "recovery.readmitted", len(result.readmitted))
    _add(c, "recovery.attempted", len(result.readmitted) + len(result.pending))
    _add(c, "recovery.vnf_moves", result.vnf_moves)


def _samples(c, result, args):
    _add(c, "sla.samples")


SPANS = (
    ("workload.stream", stream, "stream_scenario", None),
    ("workload.rescale", stream, "rescale_to_stability", None),
    ("placement.place", BFDSUPlacement, "place", _draws),
    ("scheduling.schedule", kernels, "schedule_columns", None),
    ("scheduling.rckk", RCKKScheduler, "schedule", None),
    ("refine.relocate", local_search, "refine_placement_columns", _relocations),
    ("refine.swap", swap_refine, "swap_refine_columns", _swaps),
    ("evaluation.evaluate", evaluation, "evaluate_columns", None),
    ("sim.simulate", scale, "simulate_columns", _packets),
    ("serve.process", ServingLayer, "process", None),
    ("engine.init", DeploymentEngine, "__init__", None),
    ("engine.admit", DeploymentEngine, "admit", _admits),
    ("engine.depart", DeploymentEngine, "depart", None),
    ("engine.rebalance", DeploymentEngine, "rebalance", _rebalances),
    ("engine.fail_node", DeploymentEngine, "fail_node", _evicted),
    ("engine.recover_node", DeploymentEngine, "recover_node", None),
    ("arrays.append", ScenarioArrays, "append_request", None),
    ("arrays.remove", ScenarioArrays, "remove_request", None),
    ("arrays.schedule_arrays", ScenarioArrays, "schedule_arrays", None),
    ("recovery.recover", LeastLoadedReadmit, "recover", _recovered),
    ("sla.sample", SLATracker, "sample_latency", None),
    ("sla.response_times", DeploymentEngine, "request_response_times", _samples),
)

#: Root spans, one per workload kind (their coverage is reported).
ROOTS = ("plan.pipeline", "serve.process")

#: Plain counters reported as they are.
COUNTS = (
    "placement.draws",
    "refine.relocations",
    "refine.swap_moves",
    "sim.packets",
    "sim.retransmitted",
    "engine.admits",
    "engine.rejects.capacity",
    "engine.rejects.bandwidth",
    "engine.rejects.unavailable",
    "engine.rebalance_migrations",
    "engine.evicted",
    "recovery.vnf_moves",
    "sla.samples",
)


#: Workload-level figures of the untraced pass or replay in a traced
#: run, plus refine's useful-work ratio; zero on workloads without them.
WORKLOAD_METRICS = (
    "refine.eq16_gain_per_s",
    "plan.req_per_s",
    "plan.sim_pkts_per_s",
    "plan.eq16_latency_s",
    "serve.events_per_s",
    "serve.admit_p50_us",
    "serve.admit_p99_us",
    "serve.rebalance_p50_ms",
    "serve.resolve_req_per_s",
    "serve.reject_rate",
    "serve.migrations_per_admit",
    "serve.recover_p50_ms",
    "serve.recover_p90_ms",
    "serve.availability",
)


def new_tracer() -> Tracer:
    tracer = Tracer()
    for name, owner, attr, hook in SPANS:
        tracer.patch(owner, attr, name, hook)
    return tracer


def span_names():
    return tuple(dict.fromkeys([s[0] for s in SPANS] + list(ROOTS)))


def layer_metrics(tracer: Tracer, traced: Dict) -> Dict[str, float]:
    """Busy and self seconds per span name, counts, ratios, overhead."""
    busy = tracer.busy_times()
    own = tracer.self_times()
    out: Dict[str, float] = {}
    for name in span_names():
        out[f"{name}_s"] = busy.get(name, 0.0)
        out[f"{name}.self_s"] = own.get(name, 0.0)
    c = tracer.counters
    for name in COUNTS:
        out[name] = c.get(name, 0.0)
    calls = c.get("rebalance.calls", 0.0)
    out["engine.rebalance_commit_ratio"] = (
        c.get("rebalance.committed", 0.0) / calls if calls else 0.0
    )
    attempted = c.get("recovery.attempted", 0.0)
    out["recovery.readmit_ratio"] = (
        c.get("recovery.readmitted", 0.0) / attempted if attempted else 0.0
    )
    p, value = tail(tracer.durations("engine.depart"), 99.0)
    out["engine.depart_p99_us"] = value * 1e6 if p == 99.0 else 0.0
    root = traced["root"]
    root_s = sum(tracer.durations(root)) - traced["untraced_in_root_s"]
    covered = busy.get(root, 0.0) - own.get(root, 0.0)
    out["trace.coverage"] = covered / root_s if root_s > 0 else 0.0
    out["trace.overhead"] = traced["traced_wall_s"] / traced["plain_wall_s"] - 1.0
    out.update(dict.fromkeys(WORKLOAD_METRICS, 0.0))
    out.update(traced["extra"])
    return out
