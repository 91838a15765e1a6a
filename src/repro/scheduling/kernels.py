"""Column-native scheduling: build :class:`ScheduleArrays` directly.

``schedule_all_vnfs`` + ``ScenarioArrays.schedule_arrays`` produce the
``z`` map through a Python dict with one entry per (request, VNF) pair —
3.5M dict entries at 1M requests, costing more than every solver kernel
combined.  :func:`schedule_columns` goes straight from the scenario's
inverted ``U_r^f`` CSR (:meth:`ScenarioArrays.vnf_requests`) to the
index-form schedule, row-for-row identical to the dict route
(``tests/scheduling/test_schedule_columns.py`` pins the parity):

* each VNF's user list in :meth:`vnf_requests` is ascending request
  order, which equals the object path's in-request-order scan because
  chains never revisit a VNF (``U_r^f`` is binary);
* the dict route emits rows grouped by VNF (in VNF order) with each
  group in user-list order — exactly the CSR traversal order here.

The per-policy assignment kernels are also what the object schedulers
run: ``LeastLoadedScheduler`` calls :func:`least_loaded_assign` (a
heap with the ``(load, k)`` tie-break) and ``RoundRobinScheduler``
calls :func:`round_robin_assign` (the closed form ``i mod m``), so the
two paths cannot drift apart.  RCKK/CGA stay object-only — their
partition search is not worth replicating at a scale where
join-the-least-loaded is already within Eq. (15) noise.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Sequence, Union

import numpy as np

from repro.core.arrays import ScenarioArrays, ScheduleArrays
from repro.exceptions import SchedulingError, ValidationError

__all__ = [
    "least_loaded_assign",
    "round_robin_assign",
    "schedule_columns",
]

AssignKernel = Callable[[Sequence[float], int], np.ndarray]


def least_loaded_assign(rates: Sequence[float], m: int) -> np.ndarray:
    """Join-the-least-loaded instance index per request, in order.

    The kernel behind ``LeastLoadedScheduler.schedule``: a heap of
    ``(aggregate load, k)`` pairs, each request joining the minimum and
    pushing back ``load + rate`` — Python-float arithmetic and the
    ``(load, k)`` lexicographic tie-break included, so ties resolve to
    the lowest instance index even when accumulated loads collide
    exactly.
    """
    if m < 1:
        raise SchedulingError(f"need at least one instance, got {m}")
    heap = [(0.0, k) for k in range(m)]
    heapq.heapify(heap)
    out = np.empty(len(rates), dtype=np.int64)
    for i, rate in enumerate(rates):
        load, k = heapq.heappop(heap)
        out[i] = k
        heapq.heappush(heap, (load + rate, k))
    return out


def round_robin_assign(rates: Sequence[float], m: int) -> np.ndarray:
    """Cyclic instance index per request: ``i mod m`` in request order."""
    if m < 1:
        raise SchedulingError(f"need at least one instance, got {m}")
    return np.arange(len(rates), dtype=np.int64) % m


_POLICIES: Dict[str, AssignKernel] = {
    "least_loaded": least_loaded_assign,
    "round_robin": round_robin_assign,
}


def schedule_columns(
    arrays: ScenarioArrays,
    policy: Union[str, AssignKernel] = "least_loaded",
) -> ScheduleArrays:
    """Schedule every VNF's users straight into index form.

    ``policy`` names a built-in kernel (``"least_loaded"`` /
    ``"round_robin"``) or is a callable ``(rates, m) -> k`` applied per
    VNF to its users' effective rates (float64, user-list order).
    VNFs used by no request idle, exactly as
    :func:`~repro.scheduling.base.schedule_all_vnfs` skips them.
    """
    if isinstance(policy, str):
        kernel = _POLICIES.get(policy)
        if kernel is None:
            raise ValidationError(
                f"unknown scheduling policy {policy!r}; "
                f"expected one of {sorted(_POLICIES)}"
            )
    else:
        kernel = policy
    if arrays.chain_has_unknown:
        raise SchedulingError(
            "cannot schedule chains referencing unknown VNFs"
        )
    ptr, req_csr = arrays.vnf_requests()
    eff64 = arrays.eff_rate.astype(np.float64, copy=False)
    idt = arrays.index_dtype
    total = int(ptr[-1])
    req = np.empty(total, dtype=idt)
    vnf = np.empty(total, dtype=idt)
    k = np.empty(total, dtype=idt)
    for f in range(len(arrays.vnf_names)):
        lo, hi = int(ptr[f]), int(ptr[f + 1])
        if hi == lo:
            continue
        users = req_csr[lo:hi]
        assigned = kernel(eff64[users].tolist(), int(arrays.M_f[f]))
        if len(assigned) != hi - lo:
            raise SchedulingError(
                f"policy returned {len(assigned)} assignments for "
                f"{hi - lo} users of VNF {arrays.vnf_names[f]!r}"
            )
        req[lo:hi] = users.astype(idt, copy=False)
        vnf[lo:hi] = f
        k[lo:hi] = np.asarray(assigned).astype(idt, copy=False)
    inst = arrays.instance_offset[vnf] + k
    return ScheduleArrays(req=req, vnf=vnf, k=k, inst=inst)
