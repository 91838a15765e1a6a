"""Tests of the benchmark's own helpers, gates and workloads (tiny sizes)."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import gates, layers, plan, serving
from perfbench.common import (
    first_per_id,
    percentile,
    reportable_percentile,
    tail,
    window_rates,
)
from perfbench.tracing import Tracer, busy_times, self_times

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, wanted, quoted",
    [
        (1000, 99.0, 99.0),  # exactly 10 beyond p99
        (999, 99.0, 95.0),  # 9.99 beyond p99: step down
        (200, 99.9, 95.0),
        (100, 90.0, 90.0),
        (99, 90.0, 75.0),
        (20, 50.0, 50.0),
        (19, 50.0, None),
        (5000, 50.0, 50.0),  # never above the wanted percentile
    ],
)
def test_reportable_percentile(n, wanted, quoted):
    assert reportable_percentile(n, wanted) == quoted


def test_tail_quotes_the_supported_percentile():
    xs = list(np.random.default_rng(3).exponential(size=517))
    assert tail(xs, 99.9) == (95.0, percentile(xs, 95.0))
    assert tail(xs[:19], 50.0)[0] is None


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_and_busy_times():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
        ["a", 7.5, 8.0, 0],
        ["rec", 8.0, 9.5, 0],
        ["rec", 8.5, 9.0, 5],
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 3.0 - 2.0 - 0.5 - 1.5)
    assert own["a"] == pytest.approx((3.0 - 1.0) + 0.5)
    assert own["a.inner"] == pytest.approx(1.0)
    assert own["rec"] == pytest.approx(1.0 + 0.5)
    busy = busy_times(spans)
    assert busy["a"] == pytest.approx(3.5)
    # The nested ``rec`` call is inside an outer ``rec``: counted once.
    assert busy["rec"] == pytest.approx(1.5)
    assert sum(own.values()) == pytest.approx(10.0)


class _Toy:
    def outer(self, n):
        return [self.inner(i) for i in range(n)]

    def inner(self, i):
        return i * 2


def test_tracer_nests_class_patches_and_restores():
    original = _Toy.__dict__["inner"]
    tracer = Tracer()
    tracer.patch(_Toy, "outer", "toy.outer", lambda c, r, a: c.update(n=len(r)))
    tracer.patch(_Toy, "inner", "toy.inner")
    with tracer.installed():
        assert _Toy().outer(3) == [0, 2, 4]
        with tracer.paused():
            _Toy().inner(9)
    assert _Toy.__dict__["inner"] is original
    names = [s[0] for s in tracer.spans]
    assert names == ["toy.outer"] + ["toy.inner"] * 3
    assert all(s[3] == 0 for s in tracer.spans[1:])
    assert tracer.counters == {"n": 3}
    _Toy().outer(2)  # untraced after exit
    assert len(tracer.spans) == 4
    assert tracer.busy_times()["toy.outer"] >= tracer.self_times()["toy.outer"]


# ----------------------------------------------------------------------
# First admit per request id
# ----------------------------------------------------------------------
def test_first_per_id_drops_readmits():
    calls = [("a", 1.0), ("b", 2.0), ("a", 3.0), ("c", 4.0), ("b", 5.0)]
    assert first_per_id(calls) == [1.0, 2.0, 4.0]


def test_instance_timer_records_first_admits():
    engine = SimpleNamespace(
        admit=lambda request: request.request_id,
        rebalance=lambda: SimpleNamespace(committed=False, active_requests=2),
        placement={"f": "n0", "g": "n1"},
        num_active=2,
    )
    tracer, seen = serving._timer(engine, None)
    with tracer.installed():
        for rid in ("x", "y", "x"):
            assert engine.admit(SimpleNamespace(request_id=rid)) == rid
        engine.rebalance()
    assert seen["admit_ids"] == ["x", "y", "x"]
    assert len(tracer.durations("admit")) == 3
    assert len(first_per_id(zip(seen["admit_ids"], tracer.starts("admit")))) == 2
    assert seen["nodes"] == [2, 2] and seen["active"] == [2]
    engine.admit(SimpleNamespace(request_id="z"))  # not timed after exit
    assert len(seen["admit_ids"]) == 3


def test_window_rates():
    positions = [0, 3, 4, 10, 12, 20, 21, 22]
    stamps = [0.0, 1.0, 1.5, 2.0, 4.0, 4.5, 6.0, 7.0]
    # Windows of two marks: [0, 2], [2, 4], [4, 6]; mark 7 starts an
    # incomplete window, which is dropped.
    assert window_rates(positions, stamps, 2) == [4 / 1.5, 8 / 2.5, 9 / 2.0]


# ----------------------------------------------------------------------
# Gates fire on corrupted outputs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_plan():
    result = plan.measure(plan.TINY, seed=5, seconds=1e-3)
    return result


def _raises(check, *args):
    with pytest.raises(gates.GateError):
        check(*args)


def test_plan_gates_pass_on_real_output(tiny_plan):
    verdicts = plan.check(tiny_plan, plan.TINY, 5)
    assert all(v.startswith("ok") for v in verdicts.values()), verdicts


def test_placement_gate_fires(tiny_plan):
    arrays = tiny_plan["scenario"].arrays
    first = tiny_plan["pass"]
    placement, pv = dict(first["placement"].placement), first["placement_vec"]
    gates.check_placement(arrays, placement, pv)
    dropped = dict(placement)
    dropped.pop(next(iter(dropped)))
    _raises(gates.check_placement, arrays, dropped, pv)
    bad = pv.copy()
    bad[0] = len(arrays.node_keys)
    _raises(gates.check_placement, arrays, placement, bad)
    _raises(gates.check_placement, arrays, placement, np.zeros_like(pv))


def test_schedule_gate_fires(tiny_plan):
    arrays = tiny_plan["scenario"].arrays
    sched = tiny_plan["pass"]["sched"]
    gates.check_schedule(arrays, sched)
    dup = replace(
        sched,
        req=np.concatenate([sched.req, sched.req[:1]]),
        vnf=np.concatenate([sched.vnf, sched.vnf[:1]]),
        k=np.concatenate([sched.k, sched.k[:1]]),
        inst=np.concatenate([sched.inst, sched.inst[:1]]),
    )
    _raises(gates.check_schedule, arrays, dup)
    k = sched.k.copy()
    k[0] = arrays.M_f[sched.vnf[0]]
    _raises(gates.check_schedule, arrays, replace(sched, k=k))


def test_utilization_and_sim_gates_fire(tiny_plan):
    arrays = tiny_plan["scenario"].arrays
    first = tiny_plan["pass"]
    sched, metrics = first["sched"], first["metrics"]
    assert gates.check_utilization(arrays, sched) < 1.0
    slow = SimpleNamespace(
        eff_rate=arrays.eff_rate,
        num_instances=arrays.num_instances,
        mu_inst=arrays.mu_inst * 0.5,
    )
    _raises(gates.check_utilization, slow, sched)
    half = replace(metrics, instance_utilization=metrics.instance_utilization * 0.5)
    _raises(gates.check_sim_utilization, arrays, sched, half)
    gates.check_same_metrics(metrics, metrics)
    _raises(gates.check_same_metrics, metrics, replace(metrics, generated=metrics.generated + 1))


def test_parity_gates_fire(tiny_plan, monkeypatch):
    import bench_scale

    real_eval = bench_scale.evaluate_columns

    def drifted(*args, **kwargs):
        report = real_eval(*args, **kwargs)
        return replace(
            report, average_node_utilization=report.average_node_utilization * 1.01
        )

    monkeypatch.setattr(bench_scale, "evaluate_columns", drifted)
    real_sim = plan.scale.simulate_columns

    def sharded_differs(arrays, sched, cfg, jobs=None, **kwargs):
        metrics = real_sim(arrays, sched, cfg, jobs=jobs, **kwargs)
        return replace(metrics, generated=metrics.generated + (jobs == 2))

    monkeypatch.setattr(plan.scale, "simulate_columns", sharded_differs)
    verdicts = plan.check(tiny_plan, plan.TINY, 5)
    assert verdicts["object_parity"].startswith("FAIL")
    assert verdicts["sim_jobs_parity"].startswith("FAIL")


@pytest.fixture(scope="module")
def tiny_faults():
    return serving.measure(serving.TINY_FAULTS, seed=2, seconds=1e-3)


def test_serving_gates_fire(tiny_faults):
    params = serving.TINY_FAULTS
    verdicts = serving.check(tiny_faults, params, 2)
    assert all(v == "ok" for v in verdicts.values()), verdicts
    replay = tiny_faults["replay"]
    engine, layer, report = replay["engine"], replay["layer"], replay["report"]
    assert report.evictions > 0 and report.arrivals > 0
    assert tiny_faults["attempted"] == report.arrivals + report.evictions
    assert tiny_faults["failed"] == report.rejected + report.lost + len(layer.pending)

    loads = engine._inst_loads.copy()
    engine._inst_loads[int(np.argmax(loads))] += 1.0
    _raises(gates.check_engine_loads, engine)
    engine._inst_loads = loads
    gates.check_engine_loads(engine)

    placement = engine._placement
    engine._placement = dict(list(placement.items())[1:])
    _raises(gates.check_engine_state, engine)
    engine._placement = placement

    args = (params.initial_active, len(layer.pending), engine.num_active)
    gates.check_accounting(report, *args)
    _raises(gates.check_accounting, replace(report, arrivals=report.arrivals + 1), *args)
    _raises(gates.check_accounting, replace(report, lost=report.lost + 1), *args)
    _raises(gates.check_accounting, report, args[0] + 1, args[1], args[2])


# ----------------------------------------------------------------------
# Smoke runs, and agreement with BENCHMARK.json
# ----------------------------------------------------------------------
def test_plan_smoke(tiny_plan):
    e2e = tiny_plan["end_to_end"]
    assert set(e2e) == set(_spec()[0])
    assert all(v > 0 for v in e2e.values())
    tracer = layers.new_tracer()
    traced = plan.trace(plan.TINY, 5, tracer)
    metrics = layers.layer_metrics(tracer, traced)
    assert set(metrics) == set(_spec()[1])
    assert metrics["sim.packets"] > 0 and metrics["placement.draws"] > 0
    assert metrics["engine.admit_s"] == 0.0
    assert metrics["trace.coverage"] > 0.5


@pytest.mark.parametrize("params", [serving.TINY_CHURN, serving.TINY_FAULTS])
def test_serving_smoke(params):
    result = serving.measure(params, seed=4, seconds=1e-3)
    assert all(v.startswith("ok") for v in serving.check(result, params, 4).values())
    assert all(v > 0 for v in result["end_to_end"].values())
    tracer = layers.new_tracer()
    traced = serving.trace(params, 4, tracer)
    metrics = layers.layer_metrics(tracer, traced)
    assert set(metrics) == set(_spec()[1])
    assert metrics["engine.admit_s"] > 0 and metrics["refine.swap_s"] == 0.0
    assert (metrics["engine.fail_node_s"] > 0) == params.faults
    assert metrics["trace.coverage"] > 0.5


def test_same_seed_same_inputs():
    a = serving.make_inputs(serving.TINY_FAULTS, 9)
    b = serving.make_inputs(serving.TINY_FAULTS, 9)
    c = serving.make_inputs(serving.TINY_FAULTS, 10)
    key = lambda i: [(e.time, e.kind, e.request_id) for e in i.events]  # noqa: E731
    assert key(a) == key(b) and key(a) != key(c)
    assert [(e.time, e.node) for e in a.faults] == [(e.time, e.node) for e in b.faults]


def _spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"] for m in spec["end_to_end"]},
        {m["name"] for m in spec["per_layer"]},
    )


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_stop_children_reaps_the_resource_tracker():
    # Shared memory starts multiprocessing's resource tracker, which a
    # run would otherwise leave behind; run in a fresh interpreter so the
    # test process's own tracker is untouched.
    script = """
import os
from multiprocessing import resource_tracker, shared_memory
from perfbench.common import stop_children

block = shared_memory.SharedMemory(create=True, size=64)
block.close()
block.unlink()
tracker = resource_tracker._resource_tracker._pid
assert tracker is not None
assert tracker in stop_children()
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no children")
"""
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "no children"
