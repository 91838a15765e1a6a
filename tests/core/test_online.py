"""Single-VNF online churn on the incremental deployment engine.

Arrivals join the least-loaded instance, departures release their load
and ``rebalance()`` re-runs RCKK over the active set.  One node sized
for the VNF and no utilization cap make every join succeed, so these
tests isolate the balancing behaviour.
"""

import numpy as np
import pytest

from repro.core.incremental import DeploymentEngine
from repro.exceptions import SchedulingError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF

CHAIN = ServiceChain(["fw"])
VNF_UNDER_TEST = VNF("fw", 1.0, 3, 1e6)


def _engine():
    return DeploymentEngine(
        [VNF_UNDER_TEST],
        {"node0": VNF_UNDER_TEST.total_demand},
        target_utilization=None,
    )


def _request(rid, rate):
    return Request(rid, CHAIN, rate)


def _spread(engine):
    loads = engine.instance_loads()
    return float(loads.max() - loads.min())


class TestArrivals:
    def test_joins_least_loaded(self):
        engine = _engine()
        joined = [
            engine.admit(_request(rid, rate)).assignment["fw"]
            for rid, rate in [("a", 10.0), ("b", 5.0), ("c", 1.0)]
        ]
        assert joined == [0, 1, 2]
        # Next joins the lightest (instance 2 at 1.0).
        assert engine.admit(_request("d", 1.0)).assignment == {"fw": 2}

    def test_wrong_vnf_rejected(self):
        engine = _engine()
        other = Request("x", ServiceChain(["nat"]), 1.0)
        with pytest.raises(SchedulingError):
            engine.admit(other)

    def test_duplicate_rejected(self):
        engine = _engine()
        engine.admit(_request("a", 1.0))
        with pytest.raises(SchedulingError):
            engine.admit(_request("a", 2.0))

    def test_loads_tracked(self):
        engine = _engine()
        engine.admit(_request("a", 10.0))
        engine.admit(_request("b", 20.0))
        assert sorted(engine.instance_loads()) == [0.0, 10.0, 20.0]


class TestDepartures:
    def test_departure_releases_load(self):
        engine = _engine()
        engine.admit(_request("a", 10.0))
        engine.depart("a")
        assert engine.num_active == 0
        assert engine.instance_loads().tolist() == [0.0, 0.0, 0.0]

    def test_unknown_departure(self):
        with pytest.raises(SchedulingError):
            _engine().depart("ghost")


class TestRebalancing:
    def test_manual_rebalance_improves_spread(self):
        rng = np.random.default_rng(0)
        engine = _engine()
        # Adversarial arrival order: heavy ones early get spread, then a
        # departure wave unbalances.
        for i, rate in enumerate(rng.uniform(1.0, 100.0, size=30)):
            engine.admit(_request(f"r{i}", float(rate)))
        for i in range(0, 30, 3):
            engine.depart(f"r{i}")
        before = _spread(engine)
        report = engine.rebalance()
        assert _spread(engine) <= before + 1e-9
        assert report.schedule_migrations >= 0

    def test_periodic_rebalance_triggers(self):
        periodic = _engine()
        online_only = _engine()
        for i in range(10):
            periodic.admit(_request(f"r{i}", 10.0 * (i + 1)))
            online_only.admit(_request(f"r{i}", 10.0 * (i + 1)))
            if (i + 1) % 5 == 0:
                periodic.rebalance()
        # Two rebalances happened; spread should be near-optimal.
        assert _spread(periodic) <= _spread(online_only) + 1e-9

    def test_rebalance_empty_is_noop(self):
        report = _engine().rebalance()
        assert report.committed
        assert report.total_migrations == 0
        assert report.active_requests == 0

    def test_migrations_counted(self):
        engine = _engine()
        rids = []
        for i, rate in enumerate([100.0, 1.0, 1.0, 1.0, 99.0, 98.0]):
            engine.admit(_request(f"r{i}", rate))
            rids.append(f"r{i}")
        before = {rid: engine.assignment_of(rid) for rid in rids}
        report = engine.rebalance()
        moved = sum(before[rid] != engine.assignment_of(rid) for rid in rids)
        assert moved > 0
        assert report.schedule_migrations == moved


class TestHistory:
    def test_assignment_lookup(self):
        engine = _engine()
        report = engine.admit(_request("a", 5.0))
        assert engine.assignment_of("a") == report.assignment
        with pytest.raises(SchedulingError):
            engine.assignment_of("ghost")
