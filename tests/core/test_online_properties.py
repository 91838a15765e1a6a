"""Property-based tests for single-VNF churn on the engine (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incremental import DeploymentEngine
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.vnf import VNF

CHAIN = ServiceChain(["fw"])

# A random event script: (is_arrival, rate_or_victim_fraction).
events_strategy = st.lists(
    st.tuples(
        st.booleans(),
        st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)
instances_strategy = st.integers(min_value=1, max_value=6)
rebalance_strategy = st.integers(min_value=0, max_value=7)


def _spread(engine):
    loads = engine.instance_loads()
    return float(loads.max() - loads.min())


def _drive(events, num_instances, rebalance_every):
    """Replay an event script, rebalancing every ``rebalance_every``
    arrivals (never when 0); returns (engine, active request map)."""
    vnf = VNF("fw", 1.0, num_instances, 1e6)
    engine = DeploymentEngine(
        [vnf], {"node0": vnf.total_demand}, target_utilization=None
    )
    active = {}
    counter = 0
    for is_arrival, x in events:
        if is_arrival or not active:
            rid = f"r{counter}"
            counter += 1
            request = Request(rid, CHAIN, 1.0 + 99.0 * x)
            assert engine.admit(request).admitted
            active[rid] = request
            if rebalance_every and counter % rebalance_every == 0:
                engine.rebalance()
        else:
            victim = sorted(active)[int(x * len(active))]
            engine.depart(victim)
            del active[victim]
    return engine, active


@given(
    events=events_strategy,
    instances=instances_strategy,
    rebalance=rebalance_strategy,
)
@settings(max_examples=40, deadline=None)
def test_loads_always_equal_assigned_rates(events, instances, rebalance):
    """Invariant: tracked loads == sum of active requests per instance."""
    engine, active = _drive(events, instances, rebalance)
    expected = [0.0] * instances
    for rid, request in active.items():
        expected[engine.assignment_of(rid)["fw"]] += request.effective_rate
    for tracked, recomputed in zip(engine.instance_loads(), expected):
        assert tracked == pytest.approx(recomputed, abs=1e-9)


@given(
    events=events_strategy,
    instances=instances_strategy,
    rebalance=rebalance_strategy,
)
@settings(max_examples=40, deadline=None)
def test_active_count_consistent(events, instances, rebalance):
    engine, active = _drive(events, instances, rebalance)
    assert engine.num_active == len(active)
    assert set(engine.active_requests) == set(active)


@given(events=events_strategy, instances=instances_strategy)
@settings(max_examples=30, deadline=None)
def test_rebalance_never_increases_spread(events, instances):
    engine, _ = _drive(events, instances, rebalance_every=0)
    before = _spread(engine)
    engine.rebalance()
    assert _spread(engine) <= before + 1e-9
