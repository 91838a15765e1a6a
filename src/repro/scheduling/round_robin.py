"""Round-robin request scheduler.

Assigns requests to instances cyclically in arrival order — the simplest
stateless policy, included as a floor baseline: it balances *counts*,
not rates, so heavy-tailed arrival rates leave it far from Eq. (15)'s
optimum.
"""

from __future__ import annotations

from repro.scheduling.base import (
    SchedulingAlgorithm,
    SchedulingProblem,
    ScheduleResult,
)
from repro.scheduling.kernels import round_robin_assign


class RoundRobinScheduler(SchedulingAlgorithm):
    """Cyclic assignment in request order."""

    name = "RoundRobin"

    def schedule(self, problem: SchedulingProblem) -> ScheduleResult:
        ks = round_robin_assign(
            [request.effective_rate for request in problem.requests],
            problem.num_instances,
        )
        assignment = {
            request.request_id: k
            for request, k in zip(problem.requests, ks.tolist())
        }
        result = ScheduleResult(
            assignment=assignment,
            problem=problem,
            iterations=problem.num_requests,
            algorithm=self.name,
        )
        result.validate()
        return result
