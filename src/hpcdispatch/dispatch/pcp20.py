"""Joint scheduling-and-allocation dispatcher over flat position spaces.

One model decides both when and where jobs run.  Each job unit gets one
position variable per requested resource type, ranging over that type's
flattened capacity within the start windows of its claim width
(``SystemModel.start_windows``).  A domain is two bounds over one shared
windows object per (resource, width), so neither the variable count nor
the size of a variable depends on the node count, only on the visible
queue.  Non-overlap of the queued jobs' (time x position) boxes (posted
where a resource has two or more, since a lone box has no pair to keep
apart), plus one release constraint per position variable against the ranges
the ledger holds for the running jobs, carries allocation feasibility;
one same-node constraint per unit and pair of resources, over the
positions' start windows, keeps a unit on one node.  The units of one job
share its start, so non-overlap alone keeps them on distinct positions.
Pooled and position-axis cumulatives provide relaxation pruning, and are
posted only when they can prune (``Cumulative.can_prune``), so a resource
no window job requests gets no propagator at all.

When every window job fits at t, ``now_plan`` places each where the
branching's first dive would (the highest node it fits, the highest free
cells there), and once the model is built and its root propagated, that
plan is the decision, with no search: every start is t, its least value,
so nothing can beat it, and it is the decision search would have
reached.  Otherwise the model is searched, and where search finds no
solution within the node limit or budget, the serial schedule
(``common.serial_schedule``: conservative backfilling with best-fit
placement over the same positions) stands in.
So pcp20 always returns a decision, and it never falls back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from hpcdispatch.dispatch.common import (
    DispatchConfig,
    FreeRuns,
    Plan,
    drive,
    emergency_dispatch,  # noqa: F401 -- a bench/run.py:install_spans hook
    horizon,
    last_fit_node,
    objective_terms,
    place_job,
    plan_decisions,
    priority,
    select_window,  # noqa: F401 -- a bench/run.py:install_spans hook
    serial_schedule,
)
from hpcdispatch.dispatch.instance import (
    AllocationEntry,
    DispatchDecision,
    DispatchInstance,
    JobDecision,
    QueuedJob,
    requested_resources,
    unit_demands,
)
from hpcdispatch.kernel import (
    Box,
    Cumulative,
    Diffn,
    ElementEqual,
    IntVar,
    Released,
    Solver,
    Task,
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


def count_position_vars(instance: DispatchInstance, window: list[QueuedJob]) -> tuple[int, int]:
    """(scheduling vars, position vars) of the joint model, without building it."""
    system = instance.system
    return len(window), sum(e.rn * len(requested_resources(system, e)) for e in window)


def build_pcp20(instance: DispatchInstance, window: list[QueuedJob]) -> ModelHandle:
    """Construct the joint model for the visible window."""
    system = instance.system
    t = instance.t
    ledger = instance.ledger
    eoh = horizon(t, window, ledger)
    solver = Solver()
    handle = ModelHandle(solver=solver)

    for entry in window:
        svar = solver.new_var(t, eoh, f"s{entry.job_id}")
        unit_req = unit_demands(system, entry)
        positions: list[tuple[str, int, IntVar, int]] = []
        for resource in requested_resources(system, entry):
            q = unit_req[resource]
            # A q-wide claim at y occupies y..y+q-1, so y and y+q-1 must
            # share a node block: y ranges over the start windows.  A valid
            # instance has one, as fits_system checks cap // q.
            windows = system.start_windows(resource, q)
            for unit in range(entry.rn):
                yvar = solver.new_var(
                    1,
                    system.total_capacity[resource],
                    f"y{entry.job_id}.{resource}.{unit}",
                    windows,
                )
                positions.append((resource, unit, yvar, q))
        handle.jobs.append(
            _JobVars(
                entry=entry,
                start=svar,
                positions=positions,
                neg_priority=-priority(entry.arrival, entry.d_expected, t),
            )
        )

    # Running jobs are given data: the ledger's held ranges, per resource in
    # position order, each with its release time.
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
        if not boxes:
            # Nothing to keep apart or release, and with no variable task
            # neither cumulative can prune: a valid instance's peaks fit.
            continue
        # A single box has no pair to keep apart, so its Diffn never prunes.
        if len(boxes) > 1:
            solver.add(Diffn(boxes))
        held = ledger.releases(resource, t)
        if held:
            for box in boxes:
                solver.add(Released(box.x, box.y, box.y_len, held))
        # Every running job starts at t, so the pooled peak is the used
        # count; the held ranges are disjoint, so the axis peak is the
        # latest release less t: the latest expected end, floored at t + 1.
        capacity = system.total_capacity[resource]
        if Cumulative.can_prune(pooled, ledger.used[resource], capacity):
            pooled += [Task(t, release - t, last - first + 1) for first, last, release in held]
            solver.add(Cumulative(pooled, capacity))
        ends = ledger.held_ends[resource]
        axis_peak = max(ends[-1] - t, 1) if ends else 0
        if Cumulative.can_prune(axis, axis_peak, eoh - t):
            axis += [Task(first, last - first + 1, release - t) for first, last, release in held]
            solver.add(Cumulative(axis, eoh - t))

    for jv in handle.jobs:
        resources = requested_resources(system, jv.entry)
        by_res: dict[str, list[IntVar]] = {r: [] for r in resources}
        for res, _unit, yvar, _q in jv.positions:
            by_res[res].append(yvar)
        for unit in range(jv.entry.rn):
            for r1, r2 in zip(resources, resources[1:]):
                solver.add(ElementEqual(by_res[r1][unit], by_res[r2][unit]))

    weights, constant = objective_terms(window)
    solver.minimize([jv.start for jv in handle.jobs], weights, constant)
    return handle


def make_branch(handle: ModelHandle):
    """Earliest-startable job first; fix its start low, then its position
    variable with the narrowest bounds (least hi - lo, first in list order
    on a tie) high.  Job ties: priority, then job id.  The pick
    reads bounds only, and every value it returns is a bound."""
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
        unfixed = [y for _, _, y, _ in best.positions if y.lo != y.hi]
        pick = min(unfixed, key=lambda y: y.hi - y.lo)
        return pick, pick.hi

    return branch


def _decode(
    handle: ModelHandle, instance: DispatchInstance, values: dict[IntVar, int]
) -> list[JobDecision]:
    plan: Plan = []
    for jv in handle.jobs:
        allocation = tuple(
            AllocationEntry(unit, res, values[y], q) for res, unit, y, q in jv.positions
        )
        plan.append((values[jv.start], allocation))
    return plan_decisions([jv.entry for jv in handle.jobs], instance.t, plan)


def now_plan(instance: DispatchInstance, window: list[QueuedJob]) -> Plan | None:
    """Every window job started at t where ``make_branch``'s first dive puts
    it, or None when some job does not fit now.

    Jobs go in window order, which is the dive's order once every start is
    t, and each unit takes the highest node it fits and there the highest
    free cells of each resource: the bounds ``make_branch`` fixes positions
    to, after the refutations of every higher place that cannot hold the
    unit.  So the plan is the decision search would reach, without search.
    """
    system, t = instance.system, instance.t
    free = FreeRuns(instance.ledger)
    plan: Plan = []
    for entry in window:
        unit_req = unit_demands(system, entry)
        allocation = place_job(system, free, entry.rn, unit_req, last_fit_node, top=True)
        if allocation is None:
            return None
        plan.append((t, allocation))
    return plan


def _build(instance, window, held, deadline) -> ModelHandle:
    # Decoding never leaves a job unplaced, so held stays empty; the build
    # does not watch the deadline.
    return build_pcp20(instance, window)


def solve_pcp20(
    instance: DispatchInstance, config: DispatchConfig | None = None
) -> DispatchDecision:
    return drive(
        "pcp20", instance, config,
        size=count_position_vars, build=_build, branch=make_branch, decode=_decode,
        now=now_plan, schedule=serial_schedule,
    )
