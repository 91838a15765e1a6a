"""Correctness gates: checks on the program's outputs, run untimed.

Every gate recomputes what it checks from the raw scenario columns with
plain numpy, rather than asking the program's own helpers, and raises
:class:`GateError` on a violation.  :func:`run_gates` collects the
failures so one report lists all of them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

#: Slack on capacity comparisons (the solvers' ``FIT_EPS``).
CAPACITY_EPS = 1e-9

#: Relative tolerance of the engine's incremental instance loads against
#: a fresh recompute.
LOAD_RTOL = 1e-9

#: Traffic-weighted relative error allowed between simulated busy
#: fractions and the analytic ``rho = Lambda / mu``.  The simulator
#: starts empty and measures busy time over a finite horizon, so its
#: fractions miss rho by 2.5-3.2 % at 1M packets; 5 % covers that and
#: still catches a simulator that drops or double-counts work.
SIM_RHO_TOL = 0.05


class GateError(AssertionError):
    """A correctness gate failed."""


def run_gates(gates: Sequence[Tuple[str, Callable[[], object]]]) -> Dict[str, str]:
    """Run ``(name, check)`` pairs.

    Returns ``{name: verdict}``: ``"ok"`` (followed by the figure the
    check measured, if it returns one) or ``"FAIL: <reason>"``.
    """
    out: Dict[str, str] = {}
    for name, check in gates:
        try:
            value = check()
        except GateError as exc:
            out[name] = f"FAIL: {exc}"
        else:
            out[name] = "ok" if value is None else f"ok ({value:.6g})"
    return out


# ----------------------------------------------------------------------
# Batch plan (plan-200k)
# ----------------------------------------------------------------------
def check_placement(arrays, placement: Dict, placement_vec: np.ndarray) -> None:
    """Every VNF on exactly one known node; node demand within A_v
    (Eqs. 2/4)."""
    names = arrays.vnf_names
    num_nodes = len(arrays.node_keys)
    if len(placement) != len(names) or set(placement) != set(names):
        raise GateError(
            f"placement covers {len(placement)} of {len(names)} VNFs"
        )
    pv = np.asarray(placement_vec)
    if pv.shape != (len(names),):
        raise GateError(f"placement vector has shape {pv.shape}")
    if not ((pv >= 0) & (pv < num_nodes)).all():
        raise GateError("placement vector holds an unknown node index")
    demand = arrays.M_f.astype(np.float64) * arrays.D_f.astype(np.float64)
    loads = np.bincount(pv, weights=demand, minlength=num_nodes)
    cap = arrays.A_v.astype(np.float64)
    over = loads > cap * (1.0 + CAPACITY_EPS) + CAPACITY_EPS
    if over.any():
        v = int(np.argmax(over))
        raise GateError(
            f"node {v} holds demand {loads[v]:.6g} over capacity {cap[v]:.6g}"
        )


def check_schedule(arrays, sched) -> None:
    """Every (request, chain VNF) scheduled exactly once, ``k`` in
    ``[0, M_f)``."""
    num_vnfs = np.int64(len(arrays.vnf_names))
    want = np.sort(
        arrays.chain_req.astype(np.int64) * num_vnfs
        + arrays.chain_vnf.astype(np.int64)
    )
    got = np.sort(
        sched.req.astype(np.int64) * num_vnfs + sched.vnf.astype(np.int64)
    )
    if want.shape != got.shape or not np.array_equal(want, got):
        raise GateError(
            f"schedule has {len(got)} rows for {len(want)} chain entries "
            "or some pair is missing / repeated"
        )
    k = sched.k.astype(np.int64)
    m = arrays.M_f.astype(np.int64)[sched.vnf]
    if not ((k >= 0) & (k < m)).all():
        raise GateError("schedule assigns an instance outside [0, M_f)")
    offset = arrays.instance_offset.astype(np.int64)[sched.vnf]
    if not np.array_equal(offset + k, sched.inst.astype(np.int64)):
        raise GateError("schedule's global instance index disagrees with k")


def instance_loads(arrays, sched) -> np.ndarray:
    """``Lambda_k^f`` per global instance (Eq. 7), float64."""
    eff = arrays.eff_rate.astype(np.float64)
    return np.bincount(
        sched.inst.astype(np.int64),
        weights=eff[sched.req.astype(np.int64)],
        minlength=arrays.num_instances,
    )


def check_utilization(arrays, sched) -> float:
    """Maximum instance utilization below 1 (Eq. 9); returns it."""
    util = instance_loads(arrays, sched) / arrays.mu_inst.astype(np.float64)
    worst = float(util.max()) if len(util) else 0.0
    if not worst < 1.0:
        raise GateError(f"max instance utilization {worst:.6g} >= 1")
    return worst


def check_sim_utilization(arrays, sched, metrics, tol: float = SIM_RHO_TOL) -> float:
    """Simulated busy fractions against ``rho``, traffic-weighted.

    Returns ``sum |u - rho| * Lambda / sum rho * Lambda``.
    """
    lam = instance_loads(arrays, sched)
    rho = lam / arrays.mu_inst.astype(np.float64)
    sim = np.asarray(metrics.instance_utilization, dtype=np.float64)
    if sim.shape != rho.shape:
        raise GateError(
            f"simulator reported {sim.shape} utilizations for "
            f"{rho.shape} instances"
        )
    denom = float((rho * lam).sum())
    err = float((np.abs(sim - rho) * lam).sum()) / denom if denom else 0.0
    if not err <= tol:
        raise GateError(
            f"simulated utilization off analytic rho by {err:.4f} "
            f"(traffic-weighted, tolerance {tol})"
        )
    return err


SIM_FIELDS = (
    "generated",
    "delivered",
    "retransmitted",
    "latency_sum",
    "instance_arrivals",
    "instance_departures",
    "instance_mean_sojourn",
    "instance_utilization",
)


def check_same_metrics(a, b) -> None:
    """Two simulation results are byte-identical field by field."""
    for name in SIM_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        x, y = np.asarray(x), np.asarray(y)
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            raise GateError(f"simulate_columns differs at jobs=2 on {name}")


# ----------------------------------------------------------------------
# Serving loop (churn / faults)
# ----------------------------------------------------------------------
def check_engine_state(engine) -> None:
    """``engine.state()`` validates (Eqs. 1-7)."""
    from repro.exceptions import ReproError

    try:
        engine.state()
    except ReproError as exc:
        raise GateError(f"engine state invalid: {exc}") from exc


def check_engine_loads(engine, rtol: float = LOAD_RTOL) -> None:
    """Incremental instance loads equal a recompute from the schedule."""
    arrays = engine.arrays
    schedule = engine.state().schedule
    loads = np.zeros(arrays.num_instances)
    eff = arrays.eff_rate.astype(np.float64)
    for (rid, name), k in schedule.items():
        f = arrays.vnf_index[name]
        loads[int(arrays.instance_offset[f]) + k] += eff[arrays.request_index[rid]]
    got = engine.instance_loads()
    scale = max(1.0, float(np.abs(loads).max()) if len(loads) else 1.0)
    diff = float(np.abs(got - loads).max()) if len(loads) else 0.0
    if not diff <= rtol * scale:
        raise GateError(
            f"engine instance loads off a fresh recompute by {diff:.3g} "
            f"(allowed {rtol * scale:.3g})"
        )


def check_accounting(report, initial_active: int, pending: int, active: int) -> None:
    """Arrivals, admissions, departures and evictions balance."""
    problems: List[str] = []
    if report.arrivals != report.admitted + report.rejected:
        problems.append(
            f"arrivals {report.arrivals} != admitted {report.admitted} "
            f"+ rejected {report.rejected}"
        )
    inflow = initial_active + report.admitted + report.readmissions
    outflow = report.departures + report.evictions
    if inflow - outflow != active or report.final_active != active:
        problems.append(
            f"initial {initial_active} + admitted {report.admitted} + "
            f"readmitted {report.readmissions} - departed "
            f"{report.departures} - evicted {report.evictions} != "
            f"active {active} (report says {report.final_active})"
        )
    if report.evictions != report.readmissions + report.lost + pending:
        problems.append(
            f"evicted {report.evictions} != readmitted "
            f"{report.readmissions} + lost {report.lost} + pending {pending}"
        )
    if problems:
        raise GateError("; ".join(problems))
