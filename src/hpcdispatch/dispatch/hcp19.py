"""Two-stage dispatcher: pooled scheduling, then heuristic allocation.

Stage one schedules against pooled per-type capacities (all nodes merged),
which keeps the model tiny.  Stage two tries to realize the promised
starts with best-fit unit placement on real nodes; jobs the heuristic
cannot place are pushed past t and the schedule is recomputed.  The loop
is bounded, and on hitting the bound the placeable subset is dispatched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hpcdispatch.dispatch.common import (
    DispatchConfig,
    FreeRuns,
    drive,
    emergency_dispatch,  # noqa: F401 -- a bench/run.py:install_spans hook
    horizon,
    objective_terms,
    place_job,
    residual,
    select_window,  # noqa: F401 -- a bench/run.py:install_spans hook
    unit_demands,
)
from hpcdispatch.dispatch.instance import (
    DispatchDecision,
    DispatchInstance,
    JobDecision,
    QueuedJob,
)
from hpcdispatch.kernel import Cumulative, IntVar, Solver, Task


@dataclass
class _JobVars:
    entry: QueuedJob
    start: IntVar


@dataclass
class Hcp19Handle:
    solver: Solver
    jobs: list[_JobVars] = field(default_factory=list)


def _build_schedule_model(
    instance: DispatchInstance,
    config: DispatchConfig,
    window: list[QueuedJob],
    held: set[int],
    deadline: float,
) -> Hcp19Handle:
    """The pooled schedule; jobs in ``held`` failed placement and start after t."""
    system = instance.system
    t = instance.t
    eoh = horizon(t, window, instance.running)
    solver = Solver("hcp19")
    handle = Hcp19Handle(solver=solver)
    for entry in window:
        lo = t + 1 if entry.job_id in held else t
        handle.jobs.append(_JobVars(entry=entry, start=solver.new_var(lo, eoh, f"s{entry.job_id}")))
    for resource in system.resources:
        tasks = []
        for jv in handle.jobs:
            total = jv.entry.job.demand.get(resource, 0)
            if total > 0:
                tasks.append(Task(jv.start, jv.entry.d_expected, total))
        for run in instance.running:
            dur = residual(run, t)
            tasks += [Task(t, dur, a.extent) for a in run.allocation if a.resource == resource]
        if tasks:
            solver.add(Cumulative(tasks, system.total_capacity[resource]))
    weights, constant = objective_terms(window, config.objective_scale)
    solver.minimize([jv.start for jv in handle.jobs], weights, constant)
    return handle


def _make_branch(handle: Hcp19Handle):
    jobs = handle.jobs

    def branch():
        for jv in jobs:
            if jv.start.lo != jv.start.hi:
                return jv.start, jv.start.lo
        return None

    return branch


def _place(
    handle: Hcp19Handle, instance: DispatchInstance, values: dict[IntVar, int]
) -> list[JobDecision]:
    """Best-fit placement of every job the schedule starts at t, window order."""
    system = instance.system
    free = FreeRuns(system, instance.running, instance.t)
    out: list[JobDecision] = []
    for jv in handle.jobs:
        start = values[jv.start]
        allocation = None
        if start == instance.t:
            unit_req = unit_demands(system, jv.entry)
            allocation = place_job(system, free, jv.entry.rn, unit_req, best=True)
        out.append(JobDecision(jv.entry.job_id, start, allocation))
    return out


def _size(instance: DispatchInstance, window: list[QueuedJob]) -> tuple[int, int]:
    return len(window), 0


def build_and_solve_hcp19(
    instance: DispatchInstance, config: DispatchConfig | None = None
) -> DispatchDecision:
    config = config or DispatchConfig()
    return drive(
        "hcp19", instance, config,
        size=_size, build=_build_schedule_model, branch=_make_branch, decode=_place,
        attempts=config.hcp_max_iterations,
    )
