"""Joint scheduling-and-allocation dispatcher over flat position spaces.

One model decides both when and where jobs run.  Each job unit gets one
position variable per requested resource type, ranging over the whole
system's flattened capacity for that type, so the variable count depends
only on the visible queue, never on the node count.  Non-overlap of
(time x position) boxes carries allocation feasibility; node ownership is
enforced with run-indexed element constraints; pooled and position-axis
cumulatives provide relaxation pruning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from hpcdispatch.dispatch.common import (
    DispatchConfig,
    drive,
    emergency_dispatch,  # noqa: F401 -- a bench/run.py:install_spans hook
    horizon,
    objective_terms,
    owner_index,
    priority,
    requested_resources,
    residual,
    select_window,  # noqa: F401 -- a bench/run.py:install_spans hook
    unit_demands,
)
from hpcdispatch.dispatch.instance import (
    AllocationEntry,
    DispatchDecision,
    DispatchInstance,
    JobDecision,
    QueuedJob,
)
from hpcdispatch.kernel import (
    AllDifferent,
    Box,
    Cumulative,
    Diffn,
    ElementEqual,
    IntVar,
    Solver,
    Task,
    apply_span_filter,
)


@dataclass
class _JobVars:
    entry: QueuedJob
    start: IntVar
    # (resource, unit, position var, extent), in (resource order, unit) order
    positions: list[tuple[str, int, IntVar, int]]
    neg_priority: Fraction


@dataclass
class ModelHandle:
    solver: Solver
    jobs: list[_JobVars] = field(default_factory=list)
    n_sched: int = 0
    n_alloc: int = 0
    infeasible_build: bool = False

    @property
    def n_vars(self) -> int:
        return self.n_sched + self.n_alloc


def count_position_vars(instance: DispatchInstance, window: list[QueuedJob]) -> tuple[int, int]:
    """(scheduling vars, position vars) of the joint model, without building it."""
    system = instance.system
    return len(window), sum(e.rn * len(requested_resources(system, e)) for e in window)


def build_pcp20(
    instance: DispatchInstance, config: DispatchConfig, window: list[QueuedJob]
) -> ModelHandle:
    """Construct the joint model for the visible window."""
    system = instance.system
    t = instance.t
    eoh = horizon(t, window, instance.running)
    solver = Solver("pcp20")
    handle = ModelHandle(solver=solver)
    handle.n_sched = len(window)

    for entry in window:
        svar = solver.new_var(t, eoh, f"s{entry.job_id}")
        unit_req = unit_demands(system, entry)
        positions: list[tuple[str, int, IntVar, int]] = []
        for resource in requested_resources(system, entry):
            q = unit_req[resource]
            idx = owner_index(system, resource)
            # A q-wide claim at y occupies y..y+q-1, so y and y+q-1 must
            # share a node block; the span filter bakes that into the domain.
            span = idx.span_filter(q - 1) if q > 1 else None
            for unit in range(entry.rn):
                yvar = solver.new_var(
                    1, system.total_capacity[resource], f"y{entry.job_id}.{resource}.{unit}"
                )
                if span is not None and not apply_span_filter(yvar, span):
                    handle.infeasible_build = True
                positions.append((resource, unit, yvar, q))
                handle.n_alloc += 1
        handle.jobs.append(
            _JobVars(
                entry=entry,
                start=svar,
                positions=positions,
                neg_priority=-priority(entry.arrival, entry.d_expected, t),
            )
        )

    for resource in system.resources:
        boxes: list[Box] = []
        pooled: list[Task] = []
        axis: list[Task] = []
        for jv in handle.jobs:
            d = jv.entry.d_expected
            total = jv.entry.job.demand.get(resource, 0)
            if total > 0:
                pooled.append(Task(jv.start, d, total))
            for res, _unit, yvar, q in jv.positions:
                if res != resource:
                    continue
                boxes.append(Box(jv.start, d, yvar, q))
                axis.append(Task(yvar, q, d))
        # Running jobs are given data: constant parts on [t, t + residual).
        for run in instance.running:
            dur = residual(run, t)
            for alloc in run.allocation:
                if alloc.resource == resource:
                    pooled.append(Task(t, dur, alloc.extent))
                    boxes.append(Box(t, dur, alloc.position, alloc.extent))
                    axis.append(Task(alloc.position, alloc.extent, dur))
        if boxes:
            solver.add(Diffn(boxes))
        if pooled:
            solver.add(Cumulative(pooled, system.total_capacity[resource]))
        if axis:
            solver.add(Cumulative(axis, eoh - t))

    for jv in handle.jobs:
        resources = requested_resources(system, jv.entry)
        by_res: dict[str, list[IntVar]] = {r: [] for r in resources}
        for res, _unit, yvar, _q in jv.positions:
            by_res[res].append(yvar)
        for unit in range(jv.entry.rn):
            for r1, r2 in zip(resources, resources[1:]):
                solver.add(
                    ElementEqual(
                        owner_index(system, r1),
                        by_res[r1][unit],
                        owner_index(system, r2),
                        by_res[r2][unit],
                    )
                )
        if jv.entry.rn > 1:
            for r in resources:
                solver.add(AllDifferent(by_res[r]))

    weights, constant = objective_terms(window, config.objective_scale)
    solver.minimize([jv.start for jv in handle.jobs], weights, constant)
    return handle


def make_branch(handle: ModelHandle):
    """Earliest-startable job first; fix its start low, then its tightest
    position variable high (best fit).  Ties: priority, then job id."""
    jobs = handle.jobs

    def branch():
        best = None
        best_key = None
        for jv in jobs:
            s = jv.start
            s_unfixed = s.lo != s.hi
            if not s_unfixed and all(y.lo == y.hi for _, _, y, _ in jv.positions):
                continue
            key = (s.lo, jv.neg_priority, jv.entry.job_id)
            if best_key is None or key < best_key:
                best_key = key
                best = jv
        if best is None:
            return None
        if best.start.lo != best.start.hi:
            return best.start, best.start.lo
        pick = None
        pick_size = None
        for _res, _unit, yvar, _q in best.positions:
            if yvar.lo == yvar.hi:
                continue
            size = yvar.size()
            if pick_size is None or size < pick_size:
                pick = yvar
                pick_size = size
        return pick, pick.hi

    return branch


def _decode(
    handle: ModelHandle, instance: DispatchInstance, values: dict[IntVar, int]
) -> list[JobDecision]:
    out: list[JobDecision] = []
    for jv in handle.jobs:
        start = values[jv.start]
        if start == instance.t:
            allocation = tuple(
                sorted(
                    (
                        AllocationEntry(unit, res, values[yvar], q)
                        for res, unit, yvar, q in jv.positions
                    ),
                    key=lambda a: (a.unit, a.resource),
                )
            )
            out.append(JobDecision(jv.entry.job_id, start, allocation))
        else:
            out.append(JobDecision(jv.entry.job_id, start, None))
    return out


def _build(instance, config, window, held, deadline) -> ModelHandle | None:
    # Decoding never leaves a job unplaced, so held stays empty; the build
    # does not watch the deadline.
    handle = build_pcp20(instance, config, window)
    return None if handle.infeasible_build else handle


def solve_pcp20(
    instance: DispatchInstance, config: DispatchConfig | None = None
) -> DispatchDecision:
    return drive(
        "pcp20", instance, config,
        size=count_position_vars, build=_build, branch=make_branch, decode=_decode,
    )
