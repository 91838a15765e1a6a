"""End-to-end evaluation of a joint deployment.

:func:`evaluate_deployment` scores a complete
:class:`~repro.nfv.state.DeploymentState` on every metric the paper's
evaluation section uses, in one pass:

* placement quality (Eqs. 13/14 + resource occupation),
* scheduling quality (Eq. 15, per-instance utilizations),
* the coordinated objective (Eq. 16) with link latency ``L``,
* job rejection rate under admission control.

The state is validated first, so a malformed placement or schedule
raises ``ValidationError``.  The hot path is :func:`evaluate_columns`
over the state's cached columnar view (:mod:`repro.core.arrays`):
instance rates, utilizations and the Eq. (12) response times are segment
sums over the schedule's index arrays, and the Eq. (16) communication
term is one pass over the chain CSR.  Only when admission control
actually has to shed load does the evaluation run the per-object path,
which models the greedy per-instance rejection exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core import objectives
from repro.core.admission import (
    DEFAULT_TARGET_UTILIZATION,
    apply_admission_control,
)
from repro.nfv.state import DeploymentState
from repro.topology.graph import DEFAULT_LINK_LATENCY


@dataclass(frozen=True)
class EvaluationReport:
    """Every paper metric for one joint solution."""

    # Placement metrics (Figs. 5-9)
    average_node_utilization: float
    nodes_in_service: int
    resource_occupation: float
    # Scheduling metrics (Figs. 11-14)
    average_response_latency: float
    max_instance_utilization: float
    # Coordinated objective (Eq. 16)
    total_latency: float
    average_total_latency: float
    # Admission (Figs. 15-16)
    num_rejected: int
    rejection_rate: float

    def is_stable(self) -> bool:
        """Whether every serving instance has a steady state."""
        return math.isfinite(self.average_response_latency)


def _resource_occupation(state: DeploymentState) -> float:
    """Sum of ``A_v`` over nodes in service."""
    arrays = state.arrays()
    placement_vec = arrays.checked_placement_vector(state.placement)
    return float(arrays.A_v[arrays.used_node_mask(placement_vec)].sum())


def evaluate_deployment(
    state: DeploymentState,
    link_latency: float = DEFAULT_LINK_LATENCY,
    with_admission: bool = True,
    topology=None,
) -> EvaluationReport:
    """Score a complete deployment on all paper metrics.

    Parameters
    ----------
    state:
        The joint solution; it is structurally validated first.
    link_latency:
        The per-hop constant ``L`` of Eq. (16).
    with_admission:
        When True, rejection metrics come from running admission control
        over the scheduled instances (the analytic state itself is left
        untouched — latency metrics describe the *admitted* load only if
        shedding was required).
    topology:
        Optional :class:`~repro.topology.graph.DatacenterTopology` (or
        its arrays).  When given, Eq. (16)'s communication term charges
        the fabric's measured shortest-path latency per inter-node
        transition instead of the flat ``link_latency`` constant; every
        placement node must be a compute node of the fabric.  ``None``
        (the default) keeps the paper's flat-``L`` model exactly.
    """
    state.validate()
    arrays = state.arrays()
    sched = state.schedule_arrays()
    equivalent, _, counts = arrays.instance_rates(sched)
    serving = counts > 0

    if with_admission and bool(
        (equivalent[serving] > arrays.mu_inst[serving]
         * DEFAULT_TARGET_UTILIZATION).any()
    ):
        # Some instance must shed load: the greedy per-request rejection
        # policy is inherently sequential, so run the object path.
        return _evaluate_with_shedding(state, link_latency, topology)

    return evaluate_columns(
        arrays,
        arrays.checked_placement_vector(state.placement),
        sched,
        link_latency,
        topology,
    )


def _evaluate_with_shedding(
    state: DeploymentState, link_latency: float, topology=None
) -> EvaluationReport:
    """The pre-vectorization object path, for deployments that shed."""
    instances = state.instances()
    serving = [inst for inst in instances if inst.requests]

    outcome = apply_admission_control(serving)
    num_rejected = outcome.num_rejected
    rejection_rate = outcome.rejection_rate
    latency_instances = [inst for inst in outcome.instances if inst.requests]

    if latency_instances and all(i.is_stable for i in latency_instances):
        avg_w = sum(i.mean_response_time for i in latency_instances) / len(
            latency_instances
        )
    else:
        avg_w = math.inf

    max_util = max((i.utilization for i in serving), default=0.0)

    if math.isfinite(avg_w) and not num_rejected:
        if topology is None:
            total = objectives.total_latency(state, link_latency)
        else:
            from repro.core.topology_eval import total_latency_on_topology

            total = total_latency_on_topology(state, topology)
        avg_total = total / len(state.requests) if state.requests else 0.0
    elif math.isfinite(avg_w):
        # Shedding occurred: approximate per-request totals over admitted
        # load by rebuilding a shed-aware latency sum.
        total = _total_latency_after_admission(
            state, latency_instances, link_latency, topology
        )
        avg_total = total
    else:
        total = math.inf
        avg_total = math.inf

    return EvaluationReport(
        average_node_utilization=state.average_node_utilization(),
        nodes_in_service=state.total_nodes_in_service(),
        resource_occupation=_resource_occupation(state),
        average_response_latency=avg_w,
        max_instance_utilization=max_util,
        total_latency=total,
        average_total_latency=avg_total,
        num_rejected=num_rejected,
        rejection_rate=rejection_rate,
    )


def _total_latency_after_admission(
    state, instances, link_latency, topology=None
) -> float:
    """Mean per-admitted-request latency when some requests were shed."""
    instance_w = {
        inst.key: inst.mean_response_time for inst in instances if inst.requests
    }
    admitted = {
        request.request_id
        for inst in instances
        for request in inst.requests
    }
    router = None
    if topology is not None:
        from repro.core.topology_eval import request_path_latency
        from repro.topology.routing import Router

        router = Router(topology)
    total = 0.0
    counted = 0
    for request in state.requests:
        if request.request_id not in admitted:
            continue
        ok = True
        response = 0.0
        for vnf_name in request.chain:
            k = state.schedule.get((request.request_id, vnf_name))
            w = instance_w.get((vnf_name, k))
            if w is None:
                ok = False
                break
            response += w
        if not ok:
            continue
        if router is not None:
            comm = request_path_latency(state, router, request.request_id)
        else:
            comm = state.inter_node_hops(request.request_id) * link_latency
        total += response + comm
        counted += 1
    if counted == 0:
        return math.inf
    return total / counted


def evaluate_columns(
    arrays,
    placement_vec: np.ndarray,
    sched,
    link_latency: float = DEFAULT_LINK_LATENCY,
    topology=None,
) -> EvaluationReport:
    """State-free :func:`evaluate_deployment` over raw columns.

    The million-request path: scores a ``(ScenarioArrays,
    placement-vector, ScheduleArrays)`` triple without ever building a
    :class:`~repro.nfv.state.DeploymentState` (whose dict-shaped
    ``placement``/``schedule`` would cost more than the evaluation
    itself at scale).  :func:`evaluate_deployment` runs this function
    whenever no instance has to shed load, so the two agree exactly on
    the same solution.  Admission control is not
    modeled here: callers arrange stability up front (e.g.
    :func:`repro.workload.stream.rescale_to_stability`), so the
    rejection metrics are reported as zero exactly as the
    ``with_admission=False`` route does.
    """
    equivalent, external, counts = arrays.instance_rates(sched)
    serving = counts > 0
    utilization = arrays.instance_utilizations(equivalent)
    max_util = (
        float(utilization[serving].max()) if serving.any() else 0.0
    )

    if serving.any() and bool((utilization[serving] < 1.0).all()):
        instance_w = arrays.instance_response_times(equivalent, external)
        w = instance_w[serving]
        avg_w = float(w.sum() / len(w))
    else:
        instance_w = None
        avg_w = math.inf

    num_requests = len(arrays.request_ids)
    if math.isfinite(avg_w):
        response = arrays.response_per_request(sched, instance_w)
        if topology is None:
            comm = arrays.hops_per_request(placement_vec) * link_latency
        else:
            comm = arrays.topology_latency_per_request(
                placement_vec, topology
            )
        total = float(np.sum(response + comm))
        avg_total = total / num_requests if num_requests else 0.0
    else:
        total = math.inf
        avg_total = math.inf

    loads = arrays.node_loads(placement_vec)
    used_mask = arrays.used_node_mask(placement_vec)
    if used_mask.any():
        capacities = arrays.A_v[used_mask]
        with np.errstate(divide="ignore", invalid="ignore"):
            node_util = np.where(
                capacities > 0.0, loads[used_mask] / capacities, 0.0
            )
        avg_node_util = float(node_util.sum() / used_mask.sum())
    else:
        avg_node_util = 0.0

    return EvaluationReport(
        average_node_utilization=avg_node_util,
        nodes_in_service=int(used_mask.sum()),
        resource_occupation=float(arrays.A_v[used_mask].sum()),
        average_response_latency=avg_w,
        max_instance_utilization=max_util,
        total_latency=total,
        average_total_latency=avg_total,
        num_rejected=0,
        rejection_rate=0.0,
    )
