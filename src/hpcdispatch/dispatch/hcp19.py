"""Two-stage dispatcher: pooled scheduling, then heuristic allocation.

Stage one schedules against pooled per-type capacities (all nodes merged),
which keeps the model tiny; a pooled cumulative is posted only when it can
prune (``Cumulative.can_prune``).  Stage two tries to realize the promised
starts with best-fit unit placement on real nodes; jobs the heuristic
cannot place are pushed past t and the schedule is recomputed.  The loop
is bounded, and on hitting the bound the placeable subset is dispatched.

When best fit places every window job at t, in window order, that plan
is the decision and no model is built (``_fits_now``).  It is what the
two stages would decide: the running jobs all start at t and only end,
so the pooled peak is at t and a placement on real nodes fits it; every
start at t meets the objective's root bound, which the branching's first
dive reaches and where search stops; and stage two then places the same
jobs by best fit in the same order on the same kind of copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hpcdispatch.dispatch.common import (
    DispatchConfig,
    FreeRuns,
    Plan,
    best_fit_node,
    drive,
    emergency_dispatch,  # noqa: F401 -- a bench/run.py:install_spans hook
    fit_now,
    horizon,
    objective_terms,
    place_job,
    select_window,  # noqa: F401 -- a bench/run.py:install_spans hook
)
from hpcdispatch.dispatch.instance import (
    DispatchDecision,
    DispatchInstance,
    JobDecision,
    QueuedJob,
    unit_demands,
)
from hpcdispatch.kernel import Cumulative, IntVar, Solver, Task

# At most this many schedule builds per invocation; jobs that still fail
# placement after the last one are deferred.
MAX_ITERATIONS = 10


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
    window: list[QueuedJob],
    held: set[int],
    deadline: float,
) -> Hcp19Handle:
    """The pooled schedule; jobs in ``held`` failed placement and start after t."""
    system = instance.system
    t = instance.t
    ledger = instance.ledger
    eoh = horizon(t, window, ledger)
    solver = Solver()
    handle = Hcp19Handle(solver=solver)
    for entry in window:
        lo = t + 1 if entry.job_id in held else t
        handle.jobs.append(_JobVars(entry=entry, start=solver.new_var(lo, eoh, f"s{entry.job_id}")))
    # Each range the ledger holds is a constant part on [t, release); all
    # start at t, so the pooled peak is the ledger's used count.  Their
    # tasks are built only for a cumulative that is posted.
    for resource in system.resources:
        tasks = []
        for jv in handle.jobs:
            total = jv.entry.job.demand.get(resource, 0)
            if total > 0:
                tasks.append(Task(jv.start, jv.entry.d_expected, total))
        capacity = system.total_capacity[resource]
        if Cumulative.can_prune(tasks, ledger.used[resource], capacity):
            tasks += [
                Task(t, release - t, last - first + 1)
                for first, last, release in ledger.releases(resource, t)
            ]
            solver.add(Cumulative(tasks, capacity))
    weights, constant = objective_terms(window)
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
    free = FreeRuns(instance.ledger)
    out: list[JobDecision] = []
    for jv in handle.jobs:
        start = values[jv.start]
        allocation = None
        if start == instance.t:
            unit_req = unit_demands(system, jv.entry)
            allocation = place_job(system, free, jv.entry.rn, unit_req, best_fit_node)
        out.append(JobDecision(jv.entry.job_id, start, allocation))
    return out


def _fits_now(instance: DispatchInstance, window: list[QueuedJob]) -> Plan | None:
    """Every window job started at t where ``_place`` would put it, or None."""
    return fit_now(instance, window, best_fit_node)


def _size(instance: DispatchInstance, window: list[QueuedJob]) -> tuple[int, int]:
    return len(window), 0


def build_and_solve_hcp19(
    instance: DispatchInstance, config: DispatchConfig | None = None
) -> DispatchDecision:
    return drive(
        "hcp19", instance, config,
        size=_size, build=_build_schedule_model, branch=_make_branch, decode=_place,
        attempts=MAX_ITERATIONS, now=_fits_now,
    )
