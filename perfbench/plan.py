"""``plan-200k``: the batch two-phase plan on one streamed scenario.

Set-up builds a 200,000-request / 2,000-node / 800-VNF scenario with
lean dtypes and rescales it to utilization 0.7.  One measured *pass*
runs the column pipeline the scale bench runs on it: BFDSU placement
(Eq. 13), ``schedule_columns``, the refine stage
(``refine_placement_columns`` + ``swap_refine_columns``), Eq. 16
evaluation and a sharded trace simulation of about 1M packets.

A run plans :attr:`PlanParams.scenarios` scenarios once each, each
from its own seed derived from ``--seed``, and pools them.  One
scenario per run would make the figures depend on which VNF catalog the
seed drew: across five seeds the nodes in service ranged 149-164 and
the pipeline's time about 25 %.  The three passes take longer than the
benchmark's run time, so ``--seconds`` does not lengthen this workload.

The pipeline calls go through module attributes (``kernels.
schedule_columns``, not a name imported into this file) so a
:class:`~perfbench.tracing.Tracer` can swap them for timing wrappers.
"""

from __future__ import annotations

import gc
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core import evaluation, local_search
from repro.core.dtypes import LEAN_POLICY
from repro.placement.base import PlacementProblem
from repro.placement.bfdsu import BFDSUPlacement
from repro.scheduling import kernels, swap_refine
from repro.sim import scale
from repro.sim.simulator import SimulationConfig
from repro.workload import stream

from perfbench import gates
from perfbench.common import median, peak_rss_mb
from perfbench.tracing import Tracer


@dataclass(frozen=True)
class PlanParams:
    num_requests: int = 200_000
    num_nodes: int = 2_000
    num_vnfs: int = 800
    stability: float = 0.7
    draw_block: int = 4096
    refine_rounds: int = 2
    sim_packets: float = 1e6
    sim_jobs: int = 2
    #: Scenarios per run, each from its own seed derived from ``--seed``.
    scenarios: int = 3
    #: Builds of each scenario timed as set-up (the last one is planned).
    setup_repeats: int = 3
    #: Size of the scenario the jobs=1 / jobs=2 simulator gate runs on.
    gate_requests: int = 3_000


#: Test-sized variant (smoke tests only).
TINY = PlanParams(
    num_requests=2_000,
    num_nodes=60,
    num_vnfs=30,
    sim_packets=2e4,
    scenarios=2,
    setup_repeats=1,
    gate_requests=300,
)


def build(params: PlanParams, seed: int):
    scenario = stream.stream_scenario(
        num_vnfs=params.num_vnfs,
        num_nodes=params.num_nodes,
        num_requests=params.num_requests,
        rng=np.random.default_rng(seed),
        dtypes=LEAN_POLICY,
    )
    stream.rescale_to_stability(scenario, target=params.stability)
    return scenario


def sim_config(arrays, params: PlanParams, seed: int) -> SimulationConfig:
    total_rate = float(np.asarray(arrays.lambda_r, dtype=np.float64).sum())
    horizon = max(0.25, params.sim_packets / max(total_rate, 1.0))
    return SimulationConfig(duration=horizon, warmup=0.1 * horizon, seed=seed)


def run_pass(scenario, params: PlanParams, seed: int, tracer: Optional[Tracer] = None) -> Dict:
    """One place -> schedule -> refine -> evaluate -> simulate pass.

    With a ``tracer`` the pass also scores Eq. 16 before refine (with
    tracing paused, so evaluation's span only covers the pipeline's own
    call) to price refine's gain per second.
    """
    arrays = scenario.arrays
    problem = PlacementProblem(vnfs=scenario.vnfs, capacities=scenario.capacities)
    start = time.perf_counter()
    placement = BFDSUPlacement(
        rng=np.random.default_rng(seed), draw_block=params.draw_block
    ).place(problem)
    pv = arrays.placement_vector(placement.placement)
    sched = kernels.schedule_columns(arrays, policy="least_loaded")
    before = None
    pre_eval_s = 0.0
    if tracer is not None:
        with tracer.paused():
            mark = time.perf_counter()
            before = evaluation.evaluate_columns(arrays, pv, sched).total_latency
            pre_eval_s = time.perf_counter() - mark
    refine = local_search.refine_placement_columns(
        arrays, pv, max_rounds=params.refine_rounds
    )
    sched, swaps = swap_refine.swap_refine_columns(
        arrays, sched, max_rounds=params.refine_rounds
    )
    report = evaluation.evaluate_columns(arrays, pv, sched)
    planned = time.perf_counter()
    metrics = scale.simulate_columns(
        arrays, sched, sim_config(arrays, params, seed), jobs=params.sim_jobs
    )
    end = time.perf_counter()
    return {
        "placement": placement,
        "placement_vec": pv,
        "sched": sched,
        "report": report,
        "metrics": metrics,
        "plan_s": planned - start,
        "sim_s": end - planned,
        "wall_s": end - start,
        "relocations": refine.moves_applied,
        "swap_moves": swaps,
        "eq16_before_refine": before,
        "pre_eval_s": pre_eval_s,
    }


def warm_up(params: PlanParams, seed: int) -> None:
    """One untimed pass before the traced run's untraced one: a
    process's first pass grows the heap and took about 15 % longer
    (3x the page faults) than the passes after it."""
    run_pass(build(params, seed), params, seed)
    gc.collect()


def scenario_seeds(params: PlanParams, seed: int) -> List[int]:
    return [
        int(child.generate_state(1)[0])
        for child in np.random.SeedSequence(seed).spawn(params.scenarios)
    ]


def measure(params: PlanParams, seed: int, seconds: float) -> Dict:
    """Untraced run: one pass over each scenario, pooled.

    Every pass builds its scenario afresh, so it pays the lazily built
    CSR caches a user planning that scenario pays.  The run's first pass
    also grows the heap, as a one-shot planning job does.  Only the last
    pass's outputs are kept (for the gates), which keeps the peak RSS
    independent of the number of scenarios.  ``seconds`` is not used
    (see the module docstring).

    Set-up samples are builds in a process whose heap a pass has grown:
    each later scenario is built ``params.setup_repeats`` times before
    its pass, and the first one as often again after the last pass.  The
    builds before the first pass page in fresh memory and took 10-50 %
    longer; timing them made the median depend on how many of them it
    straddled.
    """
    seeds = scenario_seeds(params, seed)
    setups: List[float] = []
    passes: List[Dict] = []
    scenario = last = None

    def timed_build(s: int):
        gc.collect()
        start = time.perf_counter()
        built = build(params, s)
        setups.append(time.perf_counter() - start)
        return built

    for i, s in enumerate(seeds):
        scenario = last = None
        if i == 0:
            scenario = build(params, s)
        else:
            for _ in range(params.setup_repeats):
                scenario = None
                scenario = timed_build(s)
        last = run_pass(scenario, params, s)
        passes.append(
            {
                "plan_s": last["plan_s"],
                "sim_s": last["sim_s"],
                "wall_s": last["wall_s"],
                "packets": int(last["metrics"].generated),
                "nodes": len(np.unique(last["placement_vec"])),
                "eq16": float(last["report"].total_latency),
            }
        )
    for _ in range(params.setup_repeats):
        timed_build(seeds[0])
    rss = peak_rss_mb()

    def total(key: str) -> float:
        return sum(p[key] for p in passes)

    requests = params.num_requests * len(passes)
    end_to_end = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "work_per_s": requests / total("wall_s"),
        "nodes_in_service": total("nodes") / len(passes),
    }
    workload = {
        "plan.req_per_s": requests / total("plan_s"),
        "plan.sim_pkts_per_s": total("packets") / total("sim_s"),
        "plan.eq16_latency_s": total("eq16") / len(passes),
    }
    return {
        "scenario": scenario,
        "pass": last,
        "end_to_end": end_to_end,
        "workload": workload,
        "attempted": requests,
        "failed": 0,
        "detail": {
            "scenario_seeds": seeds,
            "passes": passes,
            "setup_samples": setups,
            "relocations": last["relocations"],
            "swap_moves": last["swap_moves"],
            "max_instance_utilization": last["report"].max_instance_utilization,
            "params": asdict(params),
        },
    }


def check(result: Dict, params: PlanParams, seed: int) -> Dict[str, str]:
    """The plan-200k correctness gates (untimed)."""
    from bench_scale import parity_check

    scenario = result["scenario"]
    arrays = scenario.arrays
    done = result["pass"]

    def sim_jobs_parity():
        small = stream.stream_scenario(
            num_vnfs=max(4, params.num_vnfs // 20),
            num_nodes=max(4, params.num_nodes // 20),
            num_requests=params.gate_requests,
            rng=np.random.default_rng(seed),
            dtypes=LEAN_POLICY,
        )
        stream.rescale_to_stability(small, target=params.stability)
        sched = kernels.schedule_columns(small.arrays, policy="least_loaded")
        cfg = sim_config(small.arrays, PlanParams(sim_packets=5e4), seed)
        one = scale.simulate_columns(small.arrays, sched, cfg, jobs=1)
        two = scale.simulate_columns(small.arrays, sched, cfg, jobs=2)
        gates.check_same_metrics(one, two)

    def object_parity():
        try:
            parity_check(seed)
        except AssertionError as exc:
            raise gates.GateError(f"column/object parity: {exc}") from exc

    return gates.run_gates(
        [
            (
                "placement",
                lambda: gates.check_placement(
                    arrays, done["placement"].placement, done["placement_vec"]
                ),
            ),
            ("schedule", lambda: gates.check_schedule(arrays, done["sched"])),
            ("utilization", lambda: gates.check_utilization(arrays, done["sched"])),
            (
                "sim_vs_rho",
                lambda: gates.check_sim_utilization(
                    arrays, done["sched"], done["metrics"]
                ),
            ),
            ("object_parity", object_parity),
            ("sim_jobs_parity", sim_jobs_parity),
        ]
    )


def trace(params: PlanParams, seed: int, tracer: Tracer) -> Dict:
    """One untraced pass, then the same pass traced (first scenario)."""
    seed = scenario_seeds(params, seed)[0]
    warm_up(params, seed)
    scenario = build(params, seed)
    plain = run_pass(scenario, params, seed)
    with tracer.installed():
        traced_scenario = build(params, seed)
        with tracer.span("plan.pipeline"):
            traced = run_pass(traced_scenario, params, seed, tracer=tracer)
    traced_scenario = None
    busy = tracer.busy_times()
    refine_s = busy.get("refine.relocate", 0.0) + busy.get("refine.swap", 0.0)
    gain = traced["eq16_before_refine"] - float(traced["report"].total_latency)
    return {
        "scenario": scenario,
        "pass": plain,
        "plain_wall_s": plain["wall_s"],
        # The untraced pre-refine evaluation is no pipeline work.
        "traced_wall_s": traced["wall_s"] - traced["pre_eval_s"],
        "root": "plan.pipeline",
        "untraced_in_root_s": traced["pre_eval_s"],
        "extra": {
            "refine.eq16_gain_per_s": gain / refine_s if refine_s > 0 else 0.0,
            "plan.req_per_s": params.num_requests / plain["plan_s"],
            "plan.sim_pkts_per_s": int(plain["metrics"].generated) / plain["sim_s"],
            "plan.eq16_latency_s": float(plain["report"].total_latency),
        },
        "attempted": 2 * params.num_requests,
        "failed": 0,
    }
