"""Per-node presence dispatcher.

The older joint model: each job unit is replicated once per node that
could host it, guarded by a 0/1 presence variable, with per-node capacity
constraints, each posted only when it can prune (``Cumulative.can_prune``).
Model size therefore grows with the node count, which is exactly the
scaling weakness the position-space dispatcher removes; large systems can
exhaust the budget before the model even finishes building, and that
failure is reported as a timeout fallback rather than an error.  Like the
other models it reads only the window and the snapshot's ledger: the
running jobs' per-node constants come from the ledger's held ranges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from hpcdispatch.dispatch.common import (
    BuildTimeout,
    DispatchConfig,
    FreeRuns,
    drive,
    emergency_dispatch,  # noqa: F401 -- a bench/run.py:install_spans hook
    horizon,
    objective_terms,
    place_units_on_nodes,
    select_window,  # noqa: F401 -- a bench/run.py:install_spans hook
)
from hpcdispatch.dispatch.instance import (
    DispatchDecision,
    DispatchInstance,
    JobDecision,
    QueuedJob,
    dominant_resource,
    replicas,
    unit_demands,
)
from hpcdispatch.kernel import (
    BoolSumEq,
    Cumulative,
    IntVar,
    Solver,
    Task,
)


@dataclass
class _JobVars:
    entry: QueuedJob
    start: IntVar
    # presence variables in branching order: fullest candidate node first
    presences: list[tuple[int, int, IntVar]]  # (node, replica index, var)


@dataclass
class Pcp19Handle:
    solver: Solver
    jobs: list[_JobVars] = field(default_factory=list)


def count_presence_vars(instance: DispatchInstance, window: list[QueuedJob]) -> tuple[int, int]:
    """(scheduling vars, presence vars) without building anything."""
    total = 0
    for entry in window:
        unit_req = unit_demands(instance.system, entry)
        total += sum(replicas(instance.system, entry.rn, unit_req))
    return len(window), total


def build_pcp19(
    instance: DispatchInstance,
    window: list[QueuedJob],
    deadline: float | None = None,
) -> Pcp19Handle:
    """Construct the replicated model; raises BuildTimeout past the deadline."""
    system = instance.system
    t = instance.t
    ledger = instance.ledger
    eoh = horizon(t, window, ledger)
    solver = Solver()
    handle = Pcp19Handle(solver=solver)

    # Queued tasks feeding each per-(node, resource) capacity constraint.
    node_tasks: dict[tuple[int, str], list[Task]] = {}

    for entry in window:
        if deadline is not None and time.perf_counter() > deadline:
            raise BuildTimeout
        svar = solver.new_var(t, eoh, f"s{entry.job_id}")
        unit_req = unit_demands(system, entry)
        counts = replicas(system, entry.rn, unit_req)
        r_star = dominant_resource(system, unit_req)
        # Branch on fuller nodes first: best fit at the node granularity.
        node_order = sorted(
            (node for node in range(1, system.node_count + 1) if counts[node - 1] > 0),
            key=lambda node: (ledger.total_free(node, r_star), node),
        )
        presences: list[tuple[int, int, IntVar]] = []
        for batch, node in enumerate(node_order):
            if deadline is not None and batch % 128 == 0 and time.perf_counter() > deadline:
                raise BuildTimeout
            for j in range(counts[node - 1]):
                xvar = solver.new_var(0, 1, f"x{entry.job_id}.{node}.{j}")
                presences.append((node, j, xvar))
                for resource, q in unit_req.items():
                    node_tasks.setdefault((node, resource), []).append(
                        Task(svar, entry.d_expected, q, presence=xvar)
                    )
        solver.add(BoolSumEq([x for _, _, x in presences], entry.rn))
        handle.jobs.append(_JobVars(entry=entry, start=svar, presences=presences))

    # Each range the ledger holds is a constant part on [t, release) of its
    # owner's (node, resource); all start at t, so a node's peak is what it
    # holds.  A key with no queued task could never prune in a valid
    # snapshot, so only keys with one are walked.
    running_parts: dict[tuple[int, str], list[tuple[int, int]]] = {}
    for resource in system.resources:
        owner = system.owner[resource]
        for first, last, release in ledger.releases(resource, t):
            key = (owner[first - 1], resource)
            running_parts.setdefault(key, []).append((release - t, last - first + 1))

    for batch, key in enumerate(sorted(node_tasks)):
        if deadline is not None and batch % 64 == 0 and time.perf_counter() > deadline:
            raise BuildTimeout
        tasks = node_tasks[key]
        capacity = system.cap(*key)
        if Cumulative.can_prune(tasks, capacity - ledger.total_free(*key), capacity):
            tasks += [Task(t, dur, extent) for dur, extent in running_parts.get(key, ())]
            solver.add(Cumulative(tasks, capacity))

    weights, constant = objective_terms(window)
    solver.minimize([jv.start for jv in handle.jobs], weights, constant)
    return handle


def _make_branch(handle: Pcp19Handle):
    """Highest-priority job first (window order): fix its start low, then
    turn presence variables on, fullest node first."""
    jobs = handle.jobs

    def branch():
        for jv in jobs:
            if jv.start.lo != jv.start.hi:
                return jv.start, jv.start.lo
            for _node, _j, xvar in jv.presences:
                if xvar.lo != xvar.hi:
                    return xvar, 1
        return None

    return branch


def _materialize(
    handle: Pcp19Handle, instance: DispatchInstance, values: dict[IntVar, int]
) -> list[JobDecision]:
    """Turn node assignments into concrete positions, first fit per node.

    The per-node capacity constraints guarantee enough free cells in total
    but not a contiguous stretch; a job whose cells are too fragmented
    comes back unplaced, and the driver defers it to the next cycle rather
    than split it.
    """
    system = instance.system
    free = FreeRuns(instance.ledger)
    out: list[JobDecision] = []
    for jv in handle.jobs:
        start = values[jv.start]
        allocation = None
        if start == instance.t:
            nodes = sorted(node for node, _j, xvar in jv.presences if values[xvar] == 1)
            unit_req = unit_demands(system, jv.entry)
            allocation = place_units_on_nodes(system, free, nodes, unit_req)
        out.append(JobDecision(jv.entry.job_id, start, allocation))
    return out


def _build(instance, window, held, deadline) -> Pcp19Handle:
    # Decoding defers unplaceable jobs without a re-plan, so held stays empty.
    return build_pcp19(instance, window, deadline)


def build_and_solve_pcp19(
    instance: DispatchInstance, config: DispatchConfig | None = None
) -> DispatchDecision:
    return drive(
        "pcp19", instance, config,
        size=count_presence_vars, build=_build, branch=_make_branch, decode=_materialize,
    )
