"""Per-node presence dispatcher.

The older joint model: each job unit is replicated once per node that
could host it, guarded by a 0/1 presence variable, with per-node capacity
constraints.  Model size therefore grows with the node count, which is
exactly the scaling weakness the position-space dispatcher removes; large
systems can exhaust the budget before the model even finishes building,
and that failure is reported as a timeout fallback rather than an error.
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
    replicas,
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
    n_sched: int = 0
    n_alloc: int = 0

    @property
    def n_vars(self) -> int:
        return self.n_sched + self.n_alloc


def count_presence_vars(instance: DispatchInstance, window: list[QueuedJob]) -> tuple[int, int]:
    """(scheduling vars, presence vars) without building anything."""
    total = 0
    for entry in window:
        unit_req = unit_demands(instance.system, entry)
        total += sum(replicas(instance.system, entry.rn, unit_req))
    return len(window), total


def _free_at_t(instance: DispatchInstance) -> list[dict[str, int]]:
    """Free cells per node and resource right now (index 0 is node 1)."""
    system = instance.system
    free = [dict(caps) for caps in system.caps]
    for run in instance.running:
        for alloc in run.allocation:
            node = system.position_to_node(alloc.resource, alloc.position)
            free[node - 1][alloc.resource] -= alloc.extent
    return free


def build_pcp19(
    instance: DispatchInstance,
    config: DispatchConfig,
    window: list[QueuedJob],
    deadline: float | None = None,
) -> Pcp19Handle:
    """Construct the replicated model; raises BuildTimeout past the deadline."""
    system = instance.system
    t = instance.t
    eoh = horizon(t, window, instance.running)
    solver = Solver("pcp19")
    handle = Pcp19Handle(solver=solver)
    handle.n_sched = len(window)

    free_now = _free_at_t(instance)
    # Tasks feeding each per-(node, resource) capacity constraint.
    node_tasks: dict[tuple[int, str], list[Task]] = {}

    for entry in window:
        if deadline is not None and time.perf_counter() > deadline:
            raise BuildTimeout
        svar = solver.new_var(t, eoh, f"s{entry.job_id}")
        unit_req = unit_demands(system, entry)
        counts = replicas(system, entry.rn, unit_req)
        r_star = max(unit_req, key=lambda r: (unit_req[r], -system.resources.index(r)))
        # Branch on fuller nodes first: best fit at the node granularity.
        node_order = sorted(
            (node for node in range(1, system.node_count + 1) if counts[node - 1] > 0),
            key=lambda node: (free_now[node - 1].get(r_star, 0), node),
        )
        presences: list[tuple[int, int, IntVar]] = []
        for batch, node in enumerate(node_order):
            if deadline is not None and batch % 128 == 0 and time.perf_counter() > deadline:
                raise BuildTimeout
            for j in range(counts[node - 1]):
                xvar = solver.new_var(0, 1, f"x{entry.job_id}.{node}.{j}")
                presences.append((node, j, xvar))
                handle.n_alloc += 1
                for resource, q in unit_req.items():
                    node_tasks.setdefault((node, resource), []).append(
                        Task(svar, entry.d_expected, q, presence=xvar)
                    )
        solver.add(BoolSumEq([x for _, _, x in presences], entry.rn))
        handle.jobs.append(_JobVars(entry=entry, start=svar, presences=presences))

    for run in instance.running:
        dur = residual(run, t)
        for alloc in run.allocation:
            node = system.position_to_node(alloc.resource, alloc.position)
            node_tasks.setdefault((node, alloc.resource), []).append(Task(t, dur, alloc.extent))

    for batch, ((node, resource), tasks) in enumerate(sorted(node_tasks.items())):
        if deadline is not None and batch % 64 == 0 and time.perf_counter() > deadline:
            raise BuildTimeout
        solver.add(Cumulative(tasks, system.cap(node, resource)))

    weights, constant = objective_terms(window, config.objective_scale)
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
    free = FreeRuns(system, instance.running, instance.t)
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


def _build(instance, config, window, held, deadline) -> Pcp19Handle:
    # Decoding defers unplaceable jobs without a re-plan, so held stays empty.
    return build_pcp19(instance, config, window, deadline)


def build_and_solve_pcp19(
    instance: DispatchInstance, config: DispatchConfig | None = None
) -> DispatchDecision:
    return drive(
        "pcp19", instance, config,
        size=count_presence_vars, build=_build, branch=_make_branch, decode=_materialize,
    )
