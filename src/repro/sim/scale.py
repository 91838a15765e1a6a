"""Column-native trace simulation for million-request scenarios.

This is the production simulator: the same Poisson/FCFS/NACK model as
the event engine (:mod:`repro.sim.simulator`, the oracle), replayed
over whole-run packet columns instead of one event per packet.  The
run has two sweeps — causal rounds x hop levels establishing when
every packet reaches every instance, then one full-load measurement
pass per instance:

* arrivals are one vectorized draw: per-request Poisson *counts*, then
  uniform order statistics on ``[0, duration)`` (exactly the
  conditional law of a Poisson process given its count);
* each hop level is one ``(instance, time)`` lexsort plus one
  segmented Lindley pass (:func:`~repro.sim.kernels.segmented_lindley`)
  per instance shard at that level;
* cross-pass backlog (the departure frontier) is one ``searchsorted``
  per shard against its accumulated history, keyed by
  ``instance * span + time``;
* the measurement sweep is a lexsort + segmented Lindley per shard over
  every recorded (packet, hop, round) visit, merged back per packet in
  shard order.

``ChainSimulator(..., backend="trace")`` serves object-API callers from
this function (see docs/SIM_BACKENDS.md).

Sharded execution (``jobs=N``)
------------------------------
The instance axis is partitioned once per run by a deterministic
:class:`~repro.sim.shard.ScaleShardPlan` (independent of the worker
count); each shard sweeps its instances with a private history and
private RNG streams, either in-process or on worker processes that
attach the scenario via :mod:`repro.sim.shm` snapshots.  The
merged output is **byte-identical at any** ``jobs`` for the same seed
— see :mod:`repro.sim.shard` for the contract and docs/SCALE.md for
the operational guide.

RNG stream layout (documented, relied on by tests)
--------------------------------------------------
``SeedSequence(config.seed)`` spawns ``2 + 2 * S`` children for a plan
with ``S`` shards, in order:

* child ``0`` — arrival counts + times (master process);
* child ``1`` — delivery coins (master process);
* child ``2 + s`` — causal-sweep services of shard ``s``;
* child ``2 + S + s`` — measurement services of shard ``s``.

Each child seeds ONE generator consumed in deterministic (round,
level, sorted-sub-batch) order within its owner.  The streams differ
from the event engine's single shared generator, so the two agree in
distribution only (see docs/SCALE.md and docs/SIM_BACKENDS.md).  The
layout depends on the shard *plan*, never on ``jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.arrays import ScenarioArrays, ScheduleArrays
from repro.exceptions import SimulationError
from repro.sim.shard import (
    ScaleShardPlan,
    merge_shard_measurements,
    open_shard_executor,
    partition_by_shard,
)

__all__ = ["ScaleShardPlan", "ScaleSimMetrics", "simulate_columns"]

#: Hard cap on feedback rounds — each round thins by ``1 - P_r`` and
#: re-entry times only grow toward the horizon, so hitting this means
#: the configuration is pathological (e.g. ``P_r`` microscopically
#: small at enormous load), not that the simulation is healthy.
MAX_FEEDBACK_ROUNDS = 10_000


@dataclass
class ScaleSimMetrics:
    """Array-shaped statistics of one column-native simulation run.

    The dict-of-lists shape of
    :class:`~repro.sim.metrics.SimulationMetrics` (per-request latency
    lists keyed by id) costs more than the simulation at 1M requests;
    this report keeps everything as per-request / per-instance columns.
    """

    duration: float
    generated: int
    #: Packets counted as delivered per request (post-warmup, coin ok).
    delivered: np.ndarray
    #: Packets that needed at least one retransmission, per request.
    retransmitted: np.ndarray
    #: Summed end-to-end latency of counted deliveries, per request.
    latency_sum: np.ndarray
    #: Per-instance: packets seen / completed before the horizon.
    instance_arrivals: np.ndarray
    instance_departures: np.ndarray
    #: Per-instance mean sojourn over completed packets (0 where idle).
    instance_mean_sojourn: np.ndarray
    #: Per-instance busy fraction of ``[0, duration)``, clipped to 1.
    instance_utilization: np.ndarray
    #: End-to-end latency of every counted delivery, grouped by request
    #: in packet-creation order: request ``r`` owns ``delivered[r]``
    #: consecutive entries (the samples behind ``latency_sum``).
    latencies: np.ndarray

    @property
    def total_delivered(self) -> int:
        return int(self.delivered.sum())

    @property
    def mean_latency(self) -> float:
        """Mean end-to-end latency over every counted delivery."""
        done = self.total_delivered
        return float(self.latency_sum.sum() / done) if done else float("nan")

    @property
    def throughput(self) -> float:
        """Counted deliveries per simulated second."""
        return (
            self.total_delivered / self.duration if self.duration else 0.0
        )


def simulate_columns(
    arrays: ScenarioArrays,
    sched: ScheduleArrays,
    config: Optional[object] = None,
    *,
    jobs: Optional[int] = None,
    plan: Optional[ScaleShardPlan] = None,
    start_method: Optional[str] = None,
) -> ScaleSimMetrics:
    """Run one column-native trace simulation over a scheduled scenario.

    ``config`` is a :class:`~repro.sim.simulator.SimulationConfig`
    (``None`` uses its defaults).  Every chain entry must be scheduled;
    packet times are always float64 regardless of the scenario's dtype
    policy (horizon arithmetic needs the precision — only the static
    columns shrink under the lean policy).

    Parameters
    ----------
    jobs:
        Worker processes for the instance-sharded sweep.  ``None``/``1``
        runs in-process, ``0`` auto-detects CPUs, ``N >= 2`` spreads the
        shard plan over ``min(N, num_shards)`` workers.  The result is
        byte-identical at any value (see :mod:`repro.sim.shard`).
    plan:
        Optional pre-built :class:`~repro.sim.shard.ScaleShardPlan`.
        Passing a different plan changes the RNG stream layout — and
        therefore the realization — while staying distributionally
        equivalent; the default plan is a deterministic function of the
        scenario + schedule.
    start_method:
        Optional multiprocessing start method (``"spawn"`` /
        ``"fork"`` / ``"forkserver"``); ``None`` uses the platform
        default.  Workers are spawn-safe under all of them.
    """
    from repro.sim.simulator import SimulationConfig

    cfg = config if config is not None else SimulationConfig()
    horizon = float(cfg.duration)
    num_requests = len(arrays.request_ids)
    num_instances = arrays.num_instances

    slot_inst = arrays.chain_instances(sched)
    if (slot_inst < 0).any():
        entry = int(np.argmax(slot_inst < 0))
        raise SimulationError(
            f"chain entry {entry} has no schedule assignment; "
            "simulate_columns needs a complete schedule"
        )
    chain_ptr = arrays.chain_ptr.astype(np.int64, copy=False)
    chain_len = np.diff(chain_ptr)
    P_r = arrays.P_r.astype(np.float64, copy=False)
    lam = arrays.lambda_r.astype(np.float64, copy=False)

    shard_plan = (
        plan if plan is not None else ScaleShardPlan.build(arrays, sched)
    )
    if shard_plan.shard_of_inst.shape[0] != num_instances:
        raise SimulationError(
            f"shard plan covers {shard_plan.shard_of_inst.shape[0]} "
            f"instances but the scenario has {num_instances}"
        )
    num_shards = shard_plan.num_shards
    shard_of_inst = shard_plan.shard_of_inst

    root = np.random.SeedSequence(int(cfg.seed))
    children = root.spawn(2 + 2 * num_shards)
    arrival_rng = np.random.default_rng(children[0])
    coin_rng = np.random.default_rng(children[1])
    sweep_seqs = children[2 : 2 + num_shards]
    measure_seqs = children[2 + num_shards :]

    # ------------------------------------------------------------------
    # Batched arrivals: Poisson counts, then uniform order statistics.
    # ------------------------------------------------------------------
    counts = arrival_rng.poisson(lam * horizon)
    generated = int(counts.sum())
    pkt_req = np.repeat(
        np.arange(num_requests, dtype=np.int64), counts
    )
    raw = arrival_rng.random(generated) * horizon
    order = np.lexsort((raw, pkt_req))
    created = raw[order]  # sorted within each request's segment
    del raw

    extra_delay = np.zeros(generated, dtype=np.float64)
    delivered = np.zeros(num_requests, dtype=np.int64)
    retransmitted = np.zeros(num_requests, dtype=np.int64)
    latency_sum = np.zeros(num_requests, dtype=np.float64)
    latencies = np.empty(0, dtype=np.float64)
    counted_pkts: List[np.ndarray] = []

    executor = open_shard_executor(
        arrays,
        shard_plan,
        horizon,
        sweep_seqs,
        measure_seqs,
        generated,
        jobs=jobs,
        start_method=start_method,
    )
    try:
        # Alive packet state for the current round.
        pkt = np.arange(generated, dtype=np.int64)
        t = created.copy()
        round_index = 0
        while pkt.size:
            if round_index >= MAX_FEEDBACK_ROUNDS:
                raise SimulationError(
                    f"feedback did not drain after {MAX_FEEDBACK_ROUNDS} "
                    "rounds; check delivery probabilities and load"
                )
            req = pkt_req[pkt]
            lens = chain_len[req]
            max_len = int(lens.max())
            finished_pkt: List[np.ndarray] = []
            finished_t: List[np.ndarray] = []
            for level in range(max_len):
                active = lens > level
                if not active.any():
                    break
                a_pkt = pkt[active]
                a_t = t[active]
                a_req = req[active]
                inst = slot_inst[chain_ptr[a_req] + level]
                part, bounds = partition_by_shard(
                    shard_of_inst[inst], num_shards
                )
                dep_part = executor.sweep(
                    a_pkt[part], inst[part], a_t[part], bounds
                )
                dep_active = np.empty_like(dep_part)
                dep_active[part] = dep_part
                # Scatter departures back to the round's packet state;
                # completions at or past the horizon go no further.
                dep_unsorted = np.empty_like(t)
                dep_unsorted[np.flatnonzero(active)] = dep_active
                t = np.where(active, dep_unsorted, t)
                done_here = active & (lens == level + 1)
                alive = ~done_here & (~active | (t < horizon))
                ends = done_here & (t < horizon)
                if ends.any():
                    finished_pkt.append(pkt[ends])
                    finished_t.append(t[ends])
                pkt, t, req, lens = (
                    pkt[alive], t[alive], req[alive], lens[alive]
                )

            # ----------------------------------------------------------
            # Delivery coins for every chain that completed this round.
            # ----------------------------------------------------------
            if finished_pkt:
                f_pkt = np.concatenate(finished_pkt)
                f_t = np.concatenate(finished_t)
            else:
                f_pkt = np.empty(0, dtype=np.int64)
                f_t = np.empty(0, dtype=np.float64)
            if f_pkt.size:
                f_req = pkt_req[f_pkt]
                ok = coin_rng.random(f_pkt.size) < P_r[f_req]
                measured = created[f_pkt] >= cfg.warmup
                counted = ok & measured
                delivered += np.bincount(
                    f_req[counted], minlength=num_requests
                )
                latency_chunk = f_pkt[counted]
                counted_pkts.append(latency_chunk)
                failed = ~ok
                if round_index == 0:
                    retransmitted += np.bincount(
                        f_req[failed & measured], minlength=num_requests
                    )
                retry_t = f_t[failed] + cfg.nack_delay
                retry_pkt = f_pkt[failed]
                keep = retry_t < horizon
                retry_t, retry_pkt = retry_t[keep], retry_pkt[keep]
                if cfg.nack_delay > 0.0 and retry_pkt.size:
                    extra_delay[retry_pkt] += cfg.nack_delay
                pkt = np.concatenate([pkt, retry_pkt])
                t = np.concatenate([t, retry_t])
            round_index += 1

        # --------------------------------------------------------------
        # Measurement sweep: one merged full-load pass per instance,
        # reduced across shards in ascending shard order.
        # --------------------------------------------------------------
        tagged = executor.measure()
    finally:
        executor.close()

    (
        sojourn_sums,
        inst_arrivals,
        inst_departures,
        inst_sojourn_done,
        inst_busy,
    ) = merge_shard_measurements(tagged, generated, num_instances)
    with np.errstate(invalid="ignore"):
        inst_sojourn = np.where(
            inst_departures > 0,
            inst_sojourn_done / np.maximum(inst_departures, 1),
            0.0,
        )
    utilization = (
        np.minimum(1.0, inst_busy / horizon)
        if horizon > 0.0
        else np.zeros(num_instances)
    )

    # End-to-end latency of counted deliveries, summed per request.
    # Packet ids run request-major in creation order, so sorting the
    # counted ids groups the samples by request.
    if counted_pkts:
        c_pkt = np.concatenate(counted_pkts)
        weights = sojourn_sums[c_pkt] + extra_delay[c_pkt]
        latency_sum = np.bincount(
            pkt_req[c_pkt], weights=weights, minlength=num_requests
        )
        latencies = weights[np.argsort(c_pkt, kind="stable")]

    return ScaleSimMetrics(
        duration=horizon,
        generated=generated,
        delivered=delivered,
        retransmitted=retransmitted,
        latency_sum=latency_sum,
        instance_arrivals=inst_arrivals,
        instance_departures=inst_departures,
        instance_mean_sojourn=inst_sojourn,
        instance_utilization=utilization,
        latencies=latencies,
    )
