"""``churn`` and ``faults``: closed-loop replays through the serving layer.

One caller hands a time-ordered event trace to ``ServingLayer.process``
as fast as it will go; simulated time is not paced.  The engine starts
pre-loaded with a batch of requests solved by its constructor — the
Little's-law population ``arrival_rate * mean_holding`` — each with an
Exp(``mean_holding``) departure in the trace, so the replay starts at
its steady state and set-up is the batch solve an operator pays at
service start.

The infrastructure (30 VNFs, 60 nodes, chain catalog) and the failure
timeline are one fixed instance drawn from :data:`INFRA_SEED`;
``--seed`` draws the traffic: the pre-loaded batch, its departures and
the churn trace.  With the catalog drawn per seed, instance counts of
1..25 per VNF and ten chains move the bottleneck from seed to seed, and
events/s varied by about 19 % across five seeds.  With the failures
drawn per seed, the number of rack outages (about four per 6,000 s,
Poisson) swung the evictions between 9.5k and 14.3k and the fault
replay's events/s by 19 % (both figures from an earlier, overloaded
sizing).

The traffic is sized to the instances.  In that infrastructure ``bras``
(one instance at 950 pps) sits in 2 of the 10 chains and ``transcoder``
(8 x 350 pps) in 5.  At the paper's 1-100 pps per request the service
is overloaded at any useful population (a mean holding of 800 s
rejected about 70 % of arrivals, one of 40 s still 13 %), and a replay
then mostly measures cheap rejections.  At 1-4 pps, 1,050 requests
load ``bras`` to about 55 % and ``transcoder`` to about 47 %, and no
arrival is rejected.

A *unit* builds a fresh engine :attr:`ServeParams.setup_repeats` times
(each build timed as set-up; the last one serves) and replays the trace
once.  Every unit replays the same trace, so units repeat until the
run's time is used (at least :attr:`ServeParams.min_units`).  The host
changes speed from one second to the next (one engine build took about
50 ms or 85 ms depending on when it ran), so a few-second trace with
set-up samples spread over the run's units gives steadier medians than
one long replay with all set-up samples taken at one moment.
"""

from __future__ import annotations

import gc
import time
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.incremental import DeploymentEngine
from repro.faults.events import failure_events, merge_timeline
from repro.faults.recovery import LeastLoadedReadmit, MigrationBudget
from repro.faults.sla import SLASpec
from repro.seeding import DEFAULT_SEED
from repro.serve.events import ChurnEvent, poisson_churn
from repro.serve.service import ServingLayer
from repro.workload.generator import WorkloadGenerator

from perfbench import gates
from perfbench.common import first_per_id, median, peak_rss_mb, tail, window_rates
from perfbench.tracing import Tracer

#: Seed of the fixed infrastructure and failure timeline shared by every
#: ``--seed``.
INFRA_SEED = DEFAULT_SEED


@dataclass(frozen=True)
class ServeParams:
    faults: bool = False
    num_vnfs: int = 30
    num_nodes: int = 60
    arrival_rate: float = 3.5
    mean_holding: float = 300.0
    #: Per-request traffic in packets/s (see the module docstring).
    rate_range: Tuple[float, float] = (1.0, 4.0)
    duration: float = 3_000.0
    rebalance_every: int = 500
    mtbf: float = 1_800.0
    mttr: float = 180.0
    rack_size: int = 6
    rack_mtbf_factor: float = 8.0
    #: Per-episode migration budget.  The resilience experiment's caps
    #: (100 moves, 2,000 load) left about 1,200 evicted requests of a
    #: 6,000 s replay pending until they departed (lost).  These caps readmit
    #: every eviction, and every rebalance still exceeds them and is
    #: skipped.
    budget_migrations: int = 2_000
    budget_load: float = 100_000.0
    sla_latency: float = 0.006
    sla_check_every: int = 32
    #: Arrivals per throughput window (about 2,000 events).
    window: int = 1000
    min_units: int = 2
    setup_repeats: int = 3

    @property
    def initial_active(self) -> int:
        return int(round(self.arrival_rate * self.mean_holding))


CHURN = ServeParams()
FAULTS = ServeParams(faults=True)

#: Test-sized variants (smoke tests only).
TINY_CHURN = ServeParams(
    num_vnfs=8, num_nodes=12, arrival_rate=0.5, mean_holding=100.0,
    duration=400.0, rebalance_every=20, window=20, min_units=1,
    setup_repeats=1,
)
TINY_FAULTS = ServeParams(
    faults=True, num_vnfs=8, num_nodes=12, arrival_rate=0.5,
    mean_holding=100.0, duration=400.0, rebalance_every=20, mtbf=120.0,
    mttr=20.0, rack_size=4, window=20, min_units=1, setup_repeats=1,
)


@dataclass
class Inputs:
    vnfs: list
    capacities: dict
    initial: list
    events: list
    faults: Optional[list]
    #: Index of every arrival in the timeline the serving layer replays
    #: (churn merged with faults), in arrival order.
    arrival_positions: List[int]
    #: Ids of the trace's arrivals (the pre-loaded batch has none).
    arrival_ids: frozenset


def make_inputs(params: ServeParams, seed: int) -> Inputs:
    infra = WorkloadGenerator(np.random.default_rng(INFRA_SEED)).workload(
        num_vnfs=params.num_vnfs, num_nodes=params.num_nodes, num_requests=1
    )
    batch_ss, hold_ss, churn_ss = np.random.SeedSequence(seed).spawn(3)
    initial = WorkloadGenerator(np.random.default_rng(batch_ss)).requests(
        infra.chains,
        params.initial_active,
        rate_range=params.rate_range,
        prefix="init-",
    )
    holds = np.random.default_rng(hold_ss).exponential(
        params.mean_holding, size=len(initial)
    )
    leaving = [
        ChurnEvent(time=float(h), kind="departure", request_id=r.request_id)
        for h, r in zip(holds, initial)
        if h < params.duration
    ]
    trace = poisson_churn(
        infra.chains,
        duration=params.duration,
        arrival_rate=params.arrival_rate,
        mean_holding=params.mean_holding,
        rng=np.random.default_rng(churn_ss),
        rate_range=params.rate_range,
        prefix="req",
    )
    faults = None
    if params.faults:
        nodes = tuple(infra.capacities)
        racks = tuple(
            nodes[i : i + params.rack_size]
            for i in range(0, len(nodes), params.rack_size)
        )
        faults = failure_events(
            nodes,
            duration=params.duration,
            mtbf=params.mtbf,
            mttr=params.mttr,
            rng=np.random.default_rng([INFRA_SEED, 1]),
            racks=racks,
            rack_mtbf=params.rack_mtbf_factor * params.mtbf,
            rack_mttr=params.mttr,
        )
    events = merge_timeline(trace, leaving)
    timeline = merge_timeline(events, faults or ())
    return Inputs(
        vnfs=infra.vnfs,
        capacities=infra.capacities,
        initial=list(initial),
        events=events,
        faults=faults,
        arrival_positions=[
            i for i, e in enumerate(timeline) if e.kind == "arrival"
        ],
        arrival_ids=frozenset(
            e.request_id for e in events if e.kind == "arrival"
        ),
    )


def _layer(engine, params: ServeParams, inputs: Inputs, policy) -> ServingLayer:
    if not params.faults:
        return ServingLayer(engine, rebalance_every=params.rebalance_every)
    return ServingLayer(
        engine,
        rebalance_every=params.rebalance_every,
        faults=inputs.faults,
        recovery=policy,
        budget=MigrationBudget(
            max_migrations=params.budget_migrations,
            max_moved_load=params.budget_load,
        ),
        sla=SLASpec(
            latency_threshold=params.sla_latency,
            check_every=params.sla_check_every,
        ),
    )


def nodes_in_use(engine) -> int:
    """Nodes hosting at least one VNF (the Eq. 13 objective)."""
    return len(set(engine.placement.values()))


def _timer(engine, policy):
    """``(tracer, seen)``: per-call CPU times of the engine's ``admit``
    and ``rebalance`` and the policy's ``recover``.

    The tracer patches these two *instances*, so only calls through
    them are timed.  The replay runs on one thread, so its CPU time is
    its wall time less what other processes on a shared host take from
    it.  ``seen`` records the request id of every admit call and the
    nodes in use at the start and after every rebalance call; each
    rebalance also adds its report and the active count.
    """
    tracer = Tracer(clock=time.process_time)
    seen = {
        "admit_ids": [],
        "rebalances": [],
        "nodes": [nodes_in_use(engine)],
        "active": [],
    }

    def admitted(counters, result, args):
        seen["admit_ids"].append(args[0].request_id)

    def rebalanced(counters, result, args):
        seen["rebalances"].append(result)
        seen["nodes"].append(nodes_in_use(engine))
        seen["active"].append(engine.num_active)

    tracer.patch(engine, "admit", "admit", admitted)
    tracer.patch(engine, "rebalance", "rebalance", rebalanced)
    if policy is not None:
        tracer.patch(policy, "recover", "recover")
    return tracer, seen


def run_unit(params: ServeParams, inputs: Inputs, timed: bool = True) -> Dict:
    """Fresh engine + one replay; wall times of each build and ``process``.

    ``attempted`` counts the admissions the replay asks for (arrivals
    and evictions); ``failed`` those never granted: rejected arrivals,
    evicted requests lost before a readmit, and any still pending.
    """
    setups = []
    for _ in range(params.setup_repeats):
        engine = None
        start = time.perf_counter()
        engine = DeploymentEngine(inputs.vnfs, inputs.capacities, inputs.initial)
        setups.append(time.perf_counter() - start)
    policy = LeastLoadedReadmit() if params.faults else None
    tracer, seen = _timer(engine, policy) if timed else (Tracer(), None)
    with tracer.installed():
        layer = _layer(engine, params, inputs, policy)
        start = time.perf_counter()
        report = layer.process(inputs.events)
        wall_s = time.perf_counter() - start
    return {
        "engine": engine,
        "layer": layer,
        "report": report,
        "tracer": tracer,
        "seen": seen,
        "setups": setups,
        "wall_s": wall_s,
        "events": len(inputs.events) + len(inputs.faults or ()),
        "attempted": report.arrivals + report.evictions,
        "failed": report.rejected + report.lost + len(layer.pending),
    }


def samples(unit: Dict, inputs: Inputs, params: ServeParams) -> Dict:
    """The timings of one timed unit, without the engine they came from.

    ``windows`` holds events per CPU second over windows of
    ``params.window`` trace arrivals, clocked by each arrival's first
    ``admit`` call (later calls for the same id, and any call for a
    pre-loaded request, are re-admissions).  The median over windows is
    steadier than one figure per replay.
    """
    tracer, seen = unit["tracer"], unit["seen"]
    calls = zip(tracer.starts("admit"), tracer.durations("admit"))
    arrivals = first_per_id(
        (rid, call)
        for rid, call in zip(seen["admit_ids"], calls)
        if rid in inputs.arrival_ids
    )
    rebalances = tracer.durations("rebalance")
    return {
        "setups": unit["setups"],
        "wall_s": unit["wall_s"],
        "events": unit["events"],
        "attempted": unit["attempted"],
        "failed": unit["failed"],
        "windows": window_rates(
            inputs.arrival_positions,
            [start for start, _ in arrivals],
            params.window,
        ),
        "admits": [s for _, s in arrivals],
        "rebalances": rebalances,
        "solve_rates": [
            r.active_requests / s for r, s in zip(seen["rebalances"], rebalances)
        ],
        "committed": [r.committed for r in seen["rebalances"]],
        "nodes": seen["nodes"],
        "active": seen["active"],
        "recovers": tracer.durations("recover"),
    }


def summarize(units: List[Dict], report, params: ServeParams) -> Dict:
    """Workload metrics: timings pooled over ``units`` (from
    :func:`samples`), outcome ratios from one replay's ``report``."""
    pooled = {
        key: [x for u in units for x in u[key]]
        for key in ("windows", "admits", "rebalances", "recovers", "solve_rates")
    }
    tails = {
        "admit_p50": ("admits", 50.0),
        "admit_p99": ("admits", 99.0),
        "rebalance_p50": ("rebalances", 50.0),
    }
    if params.faults:
        tails["recover_p50"] = ("recovers", 50.0)
        tails["recover_p90"] = ("recovers", 90.0)
    quoted = {name: tail(pooled[key], p) for name, (key, p) in tails.items()}

    def value(name: str, scale: float) -> float:
        # A percentile the sample cannot support is reported as 0; the
        # report's "percentiles" entry says which one was quoted.
        used, seconds = quoted[name]
        return seconds * scale if used == tails[name][1] else 0.0

    out = {
        "serve.events_per_s": median(pooled["windows"]),
        "serve.admit_p50_us": value("admit_p50", 1e6),
        "serve.admit_p99_us": value("admit_p99", 1e6),
        "serve.rebalance_p50_ms": value("rebalance_p50", 1e3),
        "serve.resolve_req_per_s": median(pooled["solve_rates"]),
        "serve.reject_rate": report.rejected / report.arrivals,
        "serve.migrations_per_admit": report.migrations / max(report.admitted, 1),
    }
    if params.faults:
        out["serve.recover_p50_ms"] = value("recover_p50", 1e3)
        out["serve.recover_p90_ms"] = value("recover_p90", 1e3)
        out["serve.availability"] = report.resilience.availability
    percentiles = {
        name: {"percentile": quoted[name][0], "samples": len(pooled[key])}
        for name, (key, _) in tails.items()
    }
    return {"metrics": out, "percentiles": percentiles}


def measure(params: ServeParams, seed: int, seconds: float) -> Dict:
    """Untraced run: units until ``seconds`` pass.

    Only the last replay's engine is kept (for the gates): every replay
    is the same, and keeping one makes the peak RSS independent of how
    many replays the run's time allowed.
    """
    inputs = make_inputs(params, seed)
    units: List[Dict] = []
    last = None
    began = time.perf_counter()
    while (
        len(units) < params.min_units
        or time.perf_counter() - began < seconds
    ):
        last = None
        # The timing patches tie each engine into a reference cycle;
        # collect the previous replay before the next one allocates.
        gc.collect()
        last = run_unit(params, inputs)
        units.append(samples(last, inputs, params))
    setups = [x for u in units for x in u["setups"]]
    rss = peak_rss_mb()

    report = last["report"]
    summary = summarize(units, report, params)
    nodes = [n for u in units for n in u["nodes"]]
    active = units[-1]["active"]
    end_to_end = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "work_per_s": summary["metrics"]["serve.events_per_s"],
        "nodes_in_service": sum(nodes) / len(nodes),
    }
    return {
        "replay": last,
        "end_to_end": end_to_end,
        "workload": summary["metrics"],
        "attempted": sum(u["attempted"] for u in units),
        "failed": sum(u["failed"] for u in units),
        "detail": {
            "units": len(units),
            "setup_samples": setups,
            "unit_wall_s": [u["wall_s"] for u in units],
            "events": last["events"],
            "percentiles": summary["percentiles"],
            "arrivals": report.arrivals,
            "admitted": report.admitted,
            "rejected": report.rejected,
            "rebalance_calls": len(units[-1]["committed"]),
            "rebalances_committed": sum(units[-1]["committed"]),
            "evictions": report.evictions,
            "readmissions": report.readmissions,
            "lost": report.lost,
            "final_active": report.final_active,
            "initial_active": params.initial_active,
            # Median active count at the rebalances of the replay's
            # second half; the pre-loaded batch should be close to it.
            "steady_active": median(active[len(active) // 2 :]) if active else None,
            "params": asdict(params),
        },
    }


def check(result: Dict, params: ServeParams, seed: int) -> Dict[str, str]:
    """The serving-loop correctness gates, on a replay's end state."""
    replay = result["replay"]
    engine, layer, report = replay["engine"], replay["layer"], replay["report"]
    return gates.run_gates(
        [
            ("engine_state", lambda: gates.check_engine_state(engine)),
            ("instance_loads", lambda: gates.check_engine_loads(engine)),
            (
                "accounting",
                lambda: gates.check_accounting(
                    report,
                    initial_active=params.initial_active,
                    pending=len(layer.pending),
                    active=engine.num_active,
                ),
            ),
        ]
    )


def trace(params: ServeParams, seed: int, tracer: Tracer) -> Dict:
    """One untraced replay, then the same replay traced."""
    # One build per unit, so the traced constructor's spans are the
    # set-up of the replay they precede.
    params = replace(params, setup_repeats=1)
    inputs = make_inputs(params, seed)
    plain = run_unit(params, inputs)
    summary = summarize([samples(plain, inputs, params)], plain["report"], params)
    with tracer.installed():
        traced = run_unit(params, inputs, timed=False)
    return {
        "replay": plain,
        "plain_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "root": "serve.process",
        "untraced_in_root_s": 0.0,
        "extra": summary["metrics"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
    }
