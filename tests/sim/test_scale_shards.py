"""The sharded-simulation determinism contract, pinned.

``simulate_columns(jobs=N)`` must merge to the byte-identical
:class:`~repro.sim.scale.ScaleSimMetrics` for every ``N`` — the whole
point of the shard layer is that worker count is a throughput knob,
never a realization knob.  These suites pin each leg of the contract
documented in :mod:`repro.sim.shard`: plan determinism, the stable
partition, merge-order invariance, and the serial fallback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seeding import DEFAULT_SEED
from repro.sim import shard
from repro.sim.scale import simulate_columns
from repro.sim.shard import (
    DEFAULT_NUM_SHARDS,
    ScaleShardPlan,
    _SerialShardExecutor,
    _ShardMeasure,
    _WorkerStartupError,
    merge_shard_measurements,
    open_shard_executor,
    partition_by_shard,
)
from repro.sim.simulator import SimulationConfig
from repro.exceptions import SimulationError, ValidationError
from repro.scheduling.kernels import schedule_columns
from repro.workload.stream import rescale_to_stability, stream_scenario


METRIC_FIELDS = (
    "generated",
    "delivered",
    "retransmitted",
    "latency_sum",
    "instance_arrivals",
    "instance_departures",
    "instance_mean_sojourn",
    "instance_utilization",
    "latencies",
)


def build_case(seed, num_requests=250, num_vnfs=10, num_nodes=8):
    scn = stream_scenario(
        num_vnfs=num_vnfs,
        num_nodes=num_nodes,
        num_requests=num_requests,
        rng=np.random.default_rng(seed),
    )
    rescale_to_stability(scn, target=0.7)
    arrays = scn.arrays
    return arrays, schedule_columns(arrays)


def assert_metrics_identical(a, b, context=""):
    for field in METRIC_FIELDS:
        va, vb = getattr(a, field), getattr(b, field)
        if np.isscalar(va):
            assert va == vb, f"{context}{field}"
        else:
            np.testing.assert_array_equal(va, vb, err_msg=f"{context}{field}")


class TestShardPlan:
    def test_plan_is_deterministic(self):
        arrays, sched = build_case(DEFAULT_SEED)
        a = ScaleShardPlan.build(arrays, sched)
        b = ScaleShardPlan.build(arrays, sched)
        assert a.num_shards == b.num_shards
        np.testing.assert_array_equal(a.shard_of_inst, b.shard_of_inst)

    def test_plan_independent_of_jobs(self):
        # The plan (hence the RNG stream layout) is a function of
        # scenario + schedule only; jobs never enters it.
        arrays, sched = build_case(DEFAULT_SEED)
        plan = ScaleShardPlan.build(arrays, sched)
        assert plan.num_shards == min(DEFAULT_NUM_SHARDS, arrays.num_instances)
        assert plan.shard_of_inst.shape == (arrays.num_instances,)

    def test_plan_covers_every_instance(self):
        arrays, sched = build_case(11)
        plan = ScaleShardPlan.build(arrays, sched)
        assert plan.shard_of_inst.min() >= 0
        assert plan.shard_of_inst.max() < plan.num_shards
        # Snake dealing keeps shard sizes within one of each other.
        sizes = np.bincount(plan.shard_of_inst, minlength=plan.num_shards)
        assert sizes.max() - sizes.min() <= 1

    def test_plan_caps_at_instance_count(self):
        arrays, sched = build_case(5, num_requests=20, num_vnfs=2)
        plan = ScaleShardPlan.build(arrays, sched, num_shards=10_000)
        assert plan.num_shards <= arrays.num_instances

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValidationError):
            ScaleShardPlan(num_shards=0, shard_of_inst=np.zeros(1, np.int64))

    def test_foreign_plan_shape_rejected(self):
        arrays, sched = build_case(3)
        bad = ScaleShardPlan(
            num_shards=2,
            shard_of_inst=np.zeros(arrays.num_instances + 5, np.int64),
        )
        with pytest.raises(SimulationError):
            simulate_columns(
                arrays, sched, SimulationConfig(duration=0.5, warmup=0.0), plan=bad
            )


class TestPartition:
    def test_single_shard_identity(self):
        ids = np.zeros(7, dtype=np.int64)
        order, bounds = partition_by_shard(ids, 1)
        np.testing.assert_array_equal(order, np.arange(7))
        np.testing.assert_array_equal(bounds, [0, 7])

    def test_partition_is_stable(self):
        ids = np.asarray([2, 0, 1, 0, 2, 1, 0], dtype=np.int64)
        order, bounds = partition_by_shard(ids, 3)
        np.testing.assert_array_equal(ids[order], np.sort(ids))
        # Entries of shard 0 keep their original relative order.
        np.testing.assert_array_equal(order[bounds[0]:bounds[1]], [1, 3, 6])
        np.testing.assert_array_equal(order[bounds[2]:bounds[3]], [0, 4])


class TestJobsInvariance:
    @pytest.mark.parametrize("jobs", [2, 4, 7])
    def test_jobs_byte_identical_default_seed(self, jobs):
        arrays, sched = build_case(DEFAULT_SEED)
        cfg = SimulationConfig(duration=1.0, warmup=0.1, seed=DEFAULT_SEED)
        base = simulate_columns(arrays, sched, cfg, jobs=1)
        sharded = simulate_columns(arrays, sched, cfg, jobs=jobs)
        assert_metrics_identical(base, sharded, f"jobs={jobs}: ")

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_jobs_byte_identical_derived_seeds(self, seed):
        arrays, sched = build_case(DEFAULT_SEED + seed, num_requests=120)
        cfg = SimulationConfig(
            duration=0.8, warmup=0.05, seed=DEFAULT_SEED + seed
        )
        base = simulate_columns(arrays, sched, cfg, jobs=1)
        sharded = simulate_columns(arrays, sched, cfg, jobs=2)
        assert_metrics_identical(base, sharded, f"seed={seed}: ")

    def test_explicit_plan_respected_at_any_jobs(self):
        arrays, sched = build_case(DEFAULT_SEED, num_requests=100)
        plan = ScaleShardPlan.build(arrays, sched, num_shards=3)
        cfg = SimulationConfig(duration=0.8, warmup=0.0, seed=DEFAULT_SEED)
        base = simulate_columns(arrays, sched, cfg, jobs=1, plan=plan)
        sharded = simulate_columns(arrays, sched, cfg, jobs=2, plan=plan)
        assert_metrics_identical(base, sharded, "explicit plan: ")

    def test_spawn_start_method_safe(self):
        # Spawn-safe: either real spawned workers or (when the harness
        # cannot re-import __main__) the serial fallback — identical
        # result both ways.
        arrays, sched = build_case(DEFAULT_SEED, num_requests=80)
        cfg = SimulationConfig(duration=0.6, warmup=0.0, seed=DEFAULT_SEED)
        base = simulate_columns(arrays, sched, cfg, jobs=1)
        sharded = simulate_columns(
            arrays, sched, cfg, jobs=2, start_method="spawn"
        )
        assert_metrics_identical(base, sharded, "spawn: ")


class TestSerialFallback:
    def test_jobs_none_and_one_use_serial_executor(self):
        arrays, sched = build_case(7, num_requests=60)
        plan = ScaleShardPlan.build(arrays, sched)
        seqs = np.random.SeedSequence(0).spawn(2 * plan.num_shards)
        ex = open_shard_executor(
            arrays,
            plan,
            1.0,
            seqs[: plan.num_shards],
            seqs[plan.num_shards:],
            generated=100,
            jobs=None,
        )
        try:
            assert isinstance(ex, _SerialShardExecutor)
        finally:
            ex.close()

    def test_zero_generated_stays_serial(self):
        arrays, sched = build_case(7, num_requests=60)
        plan = ScaleShardPlan.build(arrays, sched)
        seqs = np.random.SeedSequence(0).spawn(2 * plan.num_shards)
        ex = open_shard_executor(
            arrays,
            plan,
            1.0,
            seqs[: plan.num_shards],
            seqs[plan.num_shards:],
            generated=0,
            jobs=4,
        )
        try:
            assert isinstance(ex, _SerialShardExecutor)
        finally:
            ex.close()

    def test_worker_startup_failure_warns_and_runs_serially(
        self, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise _WorkerStartupError("shard worker exited before ready")

        monkeypatch.setattr(shard, "_ProcessShardExecutor", refuse)
        arrays, sched = build_case(7, num_requests=60)
        plan = ScaleShardPlan.build(arrays, sched)
        seqs = np.random.SeedSequence(0).spawn(2 * plan.num_shards)
        with pytest.warns(RuntimeWarning, match="_WorkerStartupError"):
            ex = open_shard_executor(
                arrays,
                plan,
                1.0,
                seqs[: plan.num_shards],
                seqs[plan.num_shards:],
                generated=100,
                jobs=2,
            )
        try:
            assert isinstance(ex, _SerialShardExecutor)
        finally:
            ex.close()

    def test_single_shard_plan_stays_serial(self):
        arrays, sched = build_case(7, num_requests=60)
        plan = ScaleShardPlan.build(arrays, sched, num_shards=1)
        seqs = np.random.SeedSequence(0).spawn(2)
        ex = open_shard_executor(
            arrays, plan, 1.0, seqs[:1], seqs[1:], generated=100, jobs=4
        )
        try:
            assert isinstance(ex, _SerialShardExecutor)
        finally:
            ex.close()


def measure_strategy(num_instances, generated):
    def build(draw_seed):
        rng = np.random.default_rng(draw_seed)
        count = int(rng.integers(0, generated + 1))
        pkt_idx = np.sort(
            rng.choice(generated, size=count, replace=False)
        ).astype(np.int64)
        return _ShardMeasure(
            pkt_idx=pkt_idx,
            pkt_sums=rng.random(count),
            arrivals=rng.integers(0, 50, num_instances),
            departures=rng.integers(0, 50, num_instances),
            sojourn_done=rng.random(num_instances),
            busy=rng.random(num_instances),
        )

    return build


class TestMergeOrderInvariance:
    @given(
        perm_seed=st.integers(0, 10_000),
        data_seed=st.integers(0, 10_000),
        num_shards=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_arrival_order_merges_identically(
        self, perm_seed, data_seed, num_shards
    ):
        # Workers answer in whatever order the scheduler lets them;
        # the reduction must not care.
        generated, num_instances = 37, 11
        build = measure_strategy(num_instances, generated)
        tagged = [
            (s, build(data_seed * 31 + s)) for s in range(num_shards)
        ]
        baseline = merge_shard_measurements(tagged, generated, num_instances)
        shuffled = list(tagged)
        np.random.default_rng(perm_seed).shuffle(shuffled)
        merged = merge_shard_measurements(shuffled, generated, num_instances)
        for a, b in zip(baseline, merged):
            np.testing.assert_array_equal(a, b)

    def test_shared_memory_unavailable_warns_and_runs_serially(
        self, monkeypatch
    ):
        # No POSIX shared memory: publishing the scenario snapshot
        # fails, the executor falls back to serial and says so, and the
        # output does not move a bit.
        def no_shm(*args, **kwargs):
            raise OSError("no /dev/shm")

        arrays, sched = build_case(DEFAULT_SEED, num_requests=120)
        cfg = SimulationConfig(duration=0.8, warmup=0.05, seed=DEFAULT_SEED)
        base = simulate_columns(arrays, sched, cfg, jobs=1)
        monkeypatch.setattr(shard, "publish_arrays", no_shm)
        with pytest.warns(RuntimeWarning, match="no /dev/shm"):
            fallback = simulate_columns(arrays, sched, cfg, jobs=2)
        assert_metrics_identical(base, fallback, "no shm: ")
