"""Malformed placements fail every object-layer metric with one typed error.

A node missing from the capacity map, an unplaced chain VNF and a chain
VNF the scenario does not know all raise ``ValidationError`` from
:meth:`ScenarioArrays.checked_placement_vector
<repro.core.arrays.ScenarioArrays.checked_placement_vector>` — never a
bare ``KeyError``, a ``SchedulingError`` from a later stage, or a
silent count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.local_search import total_inter_node_hops
from repro.core.objectives import average_total_latency, total_latency
from repro.core.topology_eval import total_latency_on_topology
from repro.exceptions import ValidationError
from repro.nfv.chain import ServiceChain
from repro.nfv.request import Request
from repro.nfv.state import DeploymentState
from repro.nfv.vnf import VNF
from repro.placement.base import PlacementProblem, PlacementResult
from repro.topology.random_topology import random_datacenter

VNFS = [VNF("fw", 10.0, 2, 100.0), VNF("lb", 8.0, 1, 100.0)]
CAPACITIES = {"node0": 100.0, "node1": 100.0}
TOPOLOGY = random_datacenter(
    2, rng=np.random.default_rng(0), capacities=[100.0, 100.0]
)


def _state(case: str) -> DeploymentState:
    requests = [
        Request("r0", ServiceChain(["fw", "lb"]), 1.0),
        Request("r1", ServiceChain(["lb"]), 2.0),
    ]
    placement = {"fw": "node0", "lb": "node1"}
    schedule = {("r0", "fw"): 0, ("r0", "lb"): 0, ("r1", "lb"): 0}
    if case == "unknown_node":
        placement["lb"] = "node9"
    elif case == "unplaced_chain_vnf":
        del placement["lb"]
    elif case == "unknown_chain_vnf":
        requests.append(Request("r2", ServiceChain(["fw", "ghost"]), 1.0))
        schedule[("r2", "fw")] = 1
    return DeploymentState(
        vnfs=VNFS,
        requests=requests,
        node_capacities=CAPACITIES,
        placement=placement,
        schedule=schedule,
    )


CASES = {
    "unknown_node": "VNF 'lb' placed at unknown node 'node9'",
    "unplaced_chain_vnf": "request 'r0' uses unplaced VNF 'lb'",
    "unknown_chain_vnf": "request 'r2' uses unplaced VNF 'ghost'",
}

STATE_METRICS = {
    "average_node_utilization": DeploymentState.average_node_utilization,
    "total_nodes_in_service": DeploymentState.total_nodes_in_service,
    "total_latency": lambda state: total_latency(state, 0.1),
    "average_total_latency": lambda state: average_total_latency(state, 0.1),
    "total_latency_on_topology": lambda state: total_latency_on_topology(
        state, TOPOLOGY
    ),
    "total_inter_node_hops": total_inter_node_hops,
}


def test_well_formed_state_scores():
    state = _state("well_formed")
    for metric in STATE_METRICS.values():
        metric(state)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("metric", sorted(STATE_METRICS))
def test_state_metric_raises_validation_error(metric, case):
    with pytest.raises(ValidationError) as info:
        STATE_METRICS[metric](_state(case))
    assert str(info.value) == CASES[case]


@pytest.mark.parametrize(
    "metric",
    [
        PlacementResult.node_loads,
        lambda result: result.num_used_nodes,
        lambda result: result.average_utilization,
        lambda result: result.total_occupied_capacity,
    ],
    ids=[
        "node_loads",
        "num_used_nodes",
        "average_utilization",
        "total_occupied_capacity",
    ],
)
def test_placement_result_unknown_node_raises(metric):
    # A placement result carries no requests (its problem rejects
    # unknown chain VNFs, and an unplaced VNF is a legal partial
    # placement), so the unknown node is its only malformed case.
    result = PlacementResult(
        placement={"fw": "node0", "lb": "node9"},
        problem=PlacementProblem(VNFS, CAPACITIES),
    )
    with pytest.raises(ValidationError) as info:
        metric(result)
    assert str(info.value) == CASES["unknown_node"]
