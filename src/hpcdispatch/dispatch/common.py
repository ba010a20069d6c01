"""Machinery shared by the dispatchers.

Covers the dispatch settings, the driver that runs one invocation of any
dispatcher model, job priorities, the visible queue window, horizon
arithmetic, the integer objective encoding, heuristic placement on a copy
of the snapshot ledger's free-position masks (used by the two-stage
dispatcher, by presence materialization, by the serial schedule, by the
joint model's plan for a window that fits now, and by the optional
emergency fallback), and the serial schedule that stands in for the joint
model's search where it finds nothing.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from hpcdispatch.dispatch.instance import (
    Allocation,
    AllocationEntry,
    DispatchDecision,
    DispatchInstance,
    FreeCounts,
    InvocationStats,
    JobDecision,
    Ledger,
    QueuedJob,
    dominant_resource,
    fits_system,  # noqa: F401 -- a bench/run.py:install_spans hook
    unit_demands,
)
from hpcdispatch.kernel import (
    STATUS_FEASIBLE,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIMEOUT,
    IntVar,
)
from hpcdispatch.kernel.core import Branching
from hpcdispatch.system import SystemModel


@dataclass
class DispatchConfig:
    """Settings of one dispatcher invocation; defaults match the CLI defaults.

    ``budget_ms`` bounds the wall time of the whole invocation and
    ``node_limit`` the search decisions of each solve; ``window`` caps the
    queued jobs one model sees, and ``emergency_first_fit`` turns on the
    greedy rescue of a fallback, which only pcp19 and hcp19 can reach:
    pcp20's serial schedule stands in where its search finds nothing.
    """

    budget_ms: float = 2000.0
    node_limit: int | None = 1500
    window: int = 100
    emergency_first_fit: bool = False


OBJECTIVE_SCALE = 10_000


def priority(arrival: int, duration: int, t: int) -> Fraction:
    """Expected slowdown if started now; larger means more urgent."""
    if duration < 1:
        raise ValueError("duration must be >= 1")
    if arrival > t:
        raise ValueError("job queued before its arrival")
    return Fraction(t - arrival + duration, duration)


def slowdown_weight(duration: int) -> int:
    """Integer objective weight: OBJECTIVE_SCALE/duration rounded to nearest, min 1.

    With a scale of 10^4 the rounding error per job is below 5*10^-5 of a
    slowdown unit, far under the one-second step that separates competing
    schedules.
    """
    return max(1, (2 * OBJECTIVE_SCALE + duration) // (2 * duration))


def objective_terms(window: Sequence[QueuedJob]) -> tuple[list[int], int]:
    """Per-job weights and the constant part of sum(w_i * (s_i - q_i + d_i)).

    The variable part is sum(w_i * s_i); running jobs contribute nothing
    the solver can change, so they are left out of the reported value.
    """
    weights = [slowdown_weight(entry.d_expected) for entry in window]
    constant = sum(
        w * (entry.d_expected - entry.arrival) for w, entry in zip(weights, window)
    )
    return weights, constant


def select_window(instance: DispatchInstance, config: DispatchConfig) -> list[QueuedJob]:
    """Visible queue subset: highest priority first, capped at ``config.window``.

    Jobs beyond the cap stay queued silently.
    """
    t = instance.t
    ranked = sorted(
        instance.queued,
        key=lambda e: (-priority(e.arrival, e.d_expected, t), e.job_id),
    )
    return ranked[: config.window]


def horizon(t: int, window: Sequence[QueuedJob], ledger: Ledger) -> int:
    """Worst-case makespan: everything visible runs back to back.

    A running job takes what is left of its expected duration, never less
    than one time unit (the ledger's t + 1 release floor).  The ledger's
    ends are sorted, so the jobs due by t are a prefix found by bisection:
    the sum of max(1, end - t) over all R jobs is their count plus the
    rest's total less t per job, in O(log R + jobs due).
    """
    ends = ledger.ends
    due = bisect_right(ends, t)
    rest = ledger.ends_total - sum(ends[:due]) - t * (len(ends) - due)
    return t + sum(entry.d_expected for entry in window) + rest + due


class FreeRuns:
    """Free positions at a fixed instant: a scratch copy of a ``Ledger``.

    It copies the ledger's masks (``free[r][p - 1]`` is 1 while position p
    of r's flattened space is free), so claims change the copy, never the
    ledger, and a new copy costs one ``bytearray`` per resource whatever
    the running jobs hold.  Another ``FreeRuns`` can be copied the same
    way.  Like the ledger, it is valid only at the instant of the snapshot
    it came from, unless its owner frees cells itself, as the serial
    schedule does for later instants.  Per-node queries read only the
    node's block ``system.node_span[(node, r)]``, so a claim takes the
    lowest q consecutive free positions of the block, or with ``top`` the
    highest.

    Every mask write goes through ``claim``, ``hold`` or ``free_range``,
    and each adds the node it wrote to ``changed``; a copy of a
    ``FreeRuns`` copies that set, and ``ledger`` is the ledger the first
    copy came from.  So outside ``changed`` the masks are the ledger's, and
    best fit reads those nodes' free counts from ``ledger.free_index``
    instead of the masks, which it never copies.  ``changed`` may also hold
    a node whose cells are as the ledger has them: it then costs a mask
    read, never another pick.
    """

    def __init__(self, ledger: Ledger | FreeRuns):
        self.system = ledger.system
        self.free = {r: bytearray(mask) for r, mask in ledger.free.items()}
        if isinstance(ledger, FreeRuns):
            self.ledger: Ledger = ledger.ledger
            self.changed: set[int] = set(ledger.changed)
        else:
            self.ledger = ledger
            self.changed = set()

    def find(self, node: int, resource: str, q: int, top: bool = False) -> int | None:
        """Start of the node's lowest (``top``: highest) q consecutive free
        positions, or None."""
        span = self.system.node_span.get((node, resource))
        if span is None:
            return None
        mask = self.free[resource]
        at = (mask.rfind if top else mask.find)(b"\1" * q, span[0] - 1, span[1])
        return None if at < 0 else at + 1

    def claim(self, node: int, resource: str, q: int, top: bool = False) -> int | None:
        """Take what ``find`` returns, if anything; returns its first position."""
        position = self.find(node, resource, q, top)
        if position is not None:
            self.free[resource][position - 1 : position - 1 + q] = bytes(q)
            self.changed.add(node)
        return position

    def hold(self, allocation: Allocation) -> None:
        """Take an allocation's cells, whether or not they were free."""
        owner = self.system.owner
        for entry in allocation:
            lo = entry.position - 1
            self.free[entry.resource][lo : lo + entry.extent] = bytes(entry.extent)
            self.changed.add(owner[entry.resource][lo])

    def free_range(self, resource: str, first: int, last: int) -> None:
        """Free positions first..last of ``resource``, which lie on one node."""
        self.free[resource][first - 1 : last] = b"\1" * (last - first + 1)
        self.changed.add(self.system.owner[resource][first - 1])


def _unit_fits(free: FreeRuns, node: int, unit_req: dict[str, int]) -> bool:
    return all(free.find(node, r, q) is not None for r, q in unit_req.items())


# Above every best-fit key: slack lies in [0, 1] and node ids start at 1.
_NO_FIT = (2.0, 0)


def best_fit_node(
    system: SystemModel, free: FreeRuns, unit_req: dict[str, int]
) -> int | None:
    """Feasible node leaving the least free share of the unit's top resource.

    A node's key is (slack, node), where slack is the share of the dominant
    resource r* the node would have left free; the lowest key of a node the
    unit fits wins.  The fit test needs one ``find`` per resource, so it
    runs only for a node whose key beats the best so far, and a node with
    fewer free r* positions than the unit needs is never tested.

    The nodes in ``free.changed`` are keyed from the copy's masks, one
    ``count`` each.  Every other node has the ledger's free count, so the
    rest come from ``ledger.free_index(r*)``, class by class in key order:
    a class whose capacity cannot hold the unit is skipped, and in the
    others the counts from ``need`` upwards are walked, each count's nodes
    ascending, passing over changed nodes.  The first node that fits is
    the class's best, and the walk stops at the first key that does not
    beat the best so far.  So a unit costs the changed nodes and the
    buckets it walks, not the nodes the running jobs occupy.

    Slack is the float (free - need) / cap.  Both numerator and denominator
    lie in [0, cap], so two unequal slacks a/b and c/d differ by at least
    1/(b*d), far above the rounding of a quotient in [0, 1] (2**-53) for
    any capacity below 2**26, and equal ones round to the same float: the
    float keys order the nodes exactly as the fractions would.
    """
    r_star = dominant_resource(system, unit_req)
    need = unit_req[r_star]
    mask = free.free[r_star]
    node_span = system.node_span
    changed = free.changed
    best = _NO_FIT
    for node in changed:
        span = node_span.get((node, r_star))
        if span is None:
            continue
        first, last = span
        spare = mask.count(1, first - 1, last) - need
        if spare >= 0:
            key = (spare / (last - first + 1), node)
            if key < best and _unit_fits(free, node, unit_req):
                best = key
    for group in free.ledger.free_index(r_star):
        best = _class_best_fit(free, group, need, unit_req, best)
    return best[1] or None


def _class_best_fit(
    free: FreeRuns,
    group: FreeCounts,
    need: int,
    unit_req: dict[str, int],
    best: tuple[float, int],
) -> tuple[float, int]:
    """The lower of ``best`` and the key of the class's best node outside
    ``free.changed``, walked in key order from ``need`` up."""
    caps = group.caps
    if any(caps[r] < q for r, q in unit_req.items()):
        return best
    changed, cap, nodes, counts = free.changed, group.cap, group.nodes, group.counts
    for at in range(bisect_left(counts, need), len(counts)):
        count = counts[at]
        slack = (count - need) / cap
        for node in nodes[count]:
            key = (slack, node)
            if key >= best:
                return best
            if node not in changed and _unit_fits(free, node, unit_req):
                return key
    return best


def first_fit_node(
    system: SystemModel, free: FreeRuns, unit_req: dict[str, int]
) -> int | None:
    """The lowest node the unit fits."""
    return _edge_fit_node(system, free, unit_req, top=False)


def last_fit_node(
    system: SystemModel, free: FreeRuns, unit_req: dict[str, int]
) -> int | None:
    """The highest node the unit fits."""
    return _edge_fit_node(system, free, unit_req, top=True)


def _edge_fit_node(
    system: SystemModel, free: FreeRuns, unit_req: dict[str, int], top: bool
) -> int | None:
    """The lowest (``top``: highest) node the unit fits, read off the masks.

    Each ``system.node_classes`` class whose capacities can hold the unit
    is walked from its lower (``top``: upper) edge, the classes in their
    order (``top``: reversed), and the walk stops at the class's first
    node that fits or at the first node that cannot beat the best so far.
    A wholly free node of such a class always fits, so the walk passes
    only nodes with taken cells: a unit costs the taken nodes at the
    classes' edges, not the machine.
    """
    best = None
    for members in reversed(system.node_classes) if top else system.node_classes:
        caps = system.caps[members[0] - 1]
        if any(caps[r] < q for r, q in unit_req.items()):
            continue
        for node in reversed(members) if top else members:
            if best is not None and (node < best if top else node > best):
                break
            if _unit_fits(free, node, unit_req):
                best = node
                break
    return best


def place_job(
    system: SystemModel,
    free: FreeRuns,
    rn: int,
    unit_req: dict[str, int],
    pick: Callable[[SystemModel, FreeRuns, dict[str, int]], int | None],
    top: bool = False,
) -> Allocation | None:
    """Heuristically allocate all rn units, or nothing at all.

    ``pick`` (``best_fit_node``, ``first_fit_node`` or ``last_fit_node``)
    chooses each unit's node only after the units before it are claimed;
    there a unit takes the lowest free cells (``top``: the highest).
    """
    nodes = (pick(system, free, unit_req) for _ in range(rn))
    return place_units_on_nodes(system, free, nodes, unit_req, top)


def place_units_on_nodes(
    system: SystemModel,
    free: FreeRuns,
    node_of_unit: Iterable[int | None],
    unit_req: dict[str, int],
    top: bool = False,
) -> Allocation | None:
    """Claim positions for units on given nodes, lowest free cells first
    (``top``: highest first).

    Nodes are drawn one unit at a time, so a lazy ``node_of_unit`` sees
    the earlier units' claims.  Fails (returning None, masks untouched) on
    a None node or when some node's free cells are too fragmented for a
    contiguous claim: every cell claimed so far was free before, so undoing
    the claims frees them again.  Their nodes stay in ``changed``, which
    costs best fit a mask read each and never changes its pick.
    """
    entries: list[AllocationEntry] = []
    for unit, node in enumerate(node_of_unit):
        for resource, q in unit_req.items():
            position = None if node is None else free.claim(node, resource, q, top)
            if position is None:
                for entry in entries:
                    last = entry.position + entry.extent - 1
                    free.free_range(entry.resource, entry.position, last)
                return None
            entries.append(AllocationEntry(unit, resource, position, q))
    return tuple(entries)


# A start and an allocation per window job, in window order.
Plan = list[tuple[int, Allocation]]


def serial_schedule(instance: DispatchInstance, window: Sequence[QueuedJob]) -> Plan:
    """A start and a best-fit allocation for each window job, in window order.

    A serial schedule (Kolisch, EJOR 1996) that is conservative backfilling
    (Mu'alem & Feitelson, IEEE TPDS 2001) on the flattened positions.  Each
    job, in window order, starts at the earliest event time tau at which
    ``place_job`` finds room; an event time is t, the release of a held
    range, or the end of a job already scheduled.  Room at tau is every
    position not held past tau and not claimed by a scheduled job whose run
    overlaps [tau, tau + d).  At the last event every held range is
    released and every scheduled job has ended, and each job of a valid
    instance fits the empty system, so every job gets a start.

    ``base`` is a ``FreeRuns`` of what the running jobs hold at tau: the
    sweep frees each held range as tau passes its release, and tries each
    tau on a copy of it that holds the overlapping scheduled claims.  A job
    that fits at t costs one copy and one placement; the held ranges are
    sorted by release only once some job does not.
    """
    system, t, ledger = instance.system, instance.t, instance.ledger
    by_release: list[tuple[int, str, int, int]] | None = None
    plan: list[tuple[int, int, Allocation]] = []  # (start, end, allocation)
    for entry in window:
        unit_req = unit_demands(system, entry)
        d = entry.d_expected
        base = FreeRuns(ledger)

        def room(tau: int) -> Allocation | None:
            free = FreeRuns(base) if plan else base  # a failed placement leaves base as it was
            for begin, end, claim in plan:
                if begin < tau + d and tau < end:
                    free.hold(claim)
            return place_job(system, free, entry.rn, unit_req, best_fit_node)

        start, allocation = t, room(t)
        if allocation is None:
            if by_release is None:
                by_release = sorted(
                    (release, resource, first, last)
                    for resource in system.resources
                    for first, last, release in ledger.releases(resource, t)
                )
            released = 0
            for start in sorted({item[0] for item in by_release} | {end for _, end, _ in plan}):
                while released < len(by_release) and by_release[released][0] <= start:
                    _, resource, first, last = by_release[released]
                    base.free_range(resource, first, last)
                    released += 1
                allocation = room(start)
                if allocation is not None:
                    break
        plan.append((start, start + d, allocation))
    return [(start, allocation) for start, _, allocation in plan]


def emergency_dispatch(
    instance: DispatchInstance, window: Sequence[QueuedJob]
) -> list[JobDecision]:
    """Greedy first-fit used when a solver produced nothing dispatchable."""
    free = FreeRuns(instance.ledger)
    out: list[JobDecision] = []
    for entry in window:
        unit_req = unit_demands(instance.system, entry)
        allocation = place_job(instance.system, free, entry.rn, unit_req, first_fit_node)
        if allocation is not None:
            out.append(JobDecision(entry.job_id, instance.t, allocation))
    return out


# -- the driver ----------------------------------------------------------------


class BuildTimeout(Exception):
    """Raised by a model build that runs past the invocation deadline."""


def plan_decisions(window: Sequence[QueuedJob], t: int, plan: Plan) -> list[JobDecision]:
    """One JobDecision per window job: a job that starts at t takes its
    allocation, sorted by (unit, resource), and a later start none yet."""
    return [
        JobDecision(
            entry.job_id,
            start,
            tuple(sorted(allocation, key=lambda a: (a.unit, a.resource))) if start == t else None,
        )
        for entry, (start, allocation) in zip(window, plan)
    ]


def drive(
    name: str,
    instance: DispatchInstance,
    config: DispatchConfig | None,
    *,
    size: Callable[[DispatchInstance, list[QueuedJob]], tuple[int, int]],
    build: Callable[[DispatchInstance, list[QueuedJob], set[int], float], Any],
    branch: Callable[[Any], Branching],
    decode: Callable[[Any, DispatchInstance, dict[IntVar, int]], list[JobDecision]],
    attempts: int = 1,
    now: Callable[[DispatchInstance, list[QueuedJob]], Plan | None] | None = None,
    schedule: Callable[[DispatchInstance, list[QueuedJob]], Plan] | None = None,
) -> DispatchDecision:
    """One dispatcher invocation; the model supplies only its own steps.

    The instance must be valid (``instance.validate()`` finds nothing), so
    every queued job fits the empty system; the simulator rejects
    unfittable jobs on arrival and offline replay skips invalid snapshots.

    ``size`` gives (scheduling vars, allocation vars) without building.
    ``build`` makes a handle whose ``solver`` holds the model, with the
    jobs in its ``held`` set kept from starting at t; it returns None when
    the model is infeasible as built and may raise BuildTimeout once
    ``time.perf_counter()`` passes the deadline.  ``now`` runs before any
    build and gives a plan that starts every window job at t, or None.
    Every start then takes its least value and every objective weight is
    positive, so the plan is optimal: once the model is built and its root
    propagated, the plan is the decision, with no search.  Otherwise the
    model is searched.  ``decode`` turns an incumbent into one JobDecision
    per window job; a job it would start at t but cannot place comes back
    with start t and no allocation.  Such jobs are held and the model
    rebuilt, up to ``attempts`` builds in all, after which they are
    deferred to t+1.
    ``schedule`` gives a plan that stands in where search has none (a
    timeout before or during search, or a node limit reached first), with
    status feasible.

    The driver owns the rest: window selection, the budget, statistics,
    and the fallback with the optional first-fit rescue.  A fallback needs
    no decision: an infeasible build or root, or, without a ``schedule``, a
    search that found nothing.
    It does not check decisions: the simulator checks each one
    (``DispatchDecision.violations``) where it applies it.
    """
    config = config or DispatchConfig()
    t0 = time.perf_counter()
    deadline = t0 + config.budget_ms / 1000.0
    window = select_window(instance, config)
    n_sched, n_alloc = size(instance, window)
    stats = InvocationStats(
        dispatcher=name,
        t=instance.t,
        queue_size=len(instance.queued),
        window_size=len(window),
        n_vars=n_sched + n_alloc,
        n_sched=n_sched,
        n_alloc=n_alloc,
    )
    decision = DispatchDecision(stats=stats)
    if not window:
        stats.status = STATUS_OPTIMAL
        stats.objective = 0
        stats.wall_ms = (time.perf_counter() - t0) * 1000.0
        return decision

    t = instance.t

    def take(plan: Plan, status: str) -> list[JobDecision]:
        weights, constant = objective_terms(window)
        stats.status = status
        stats.objective = constant + sum(w * start for w, (start, _) in zip(weights, plan))
        return plan_decisions(window, t, plan)

    plan = None if now is None else now(instance, window)
    held: set[int] = set()
    jobs: list[JobDecision] | None = None
    while jobs is None:
        try:
            handle = build(instance, window, held, deadline)
        except BuildTimeout:
            stats.status = STATUS_TIMEOUT
            break
        if handle is None:
            stats.status = STATUS_INFEASIBLE
            break
        if plan is not None:
            solver = handle.solver
            before = solver.stats.propagations
            root = solver.propagate_all()
            stats.propagations += solver.stats.propagations - before
            if not root:
                stats.status = STATUS_INFEASIBLE
                break
            jobs = take(plan, STATUS_OPTIMAL)
            break
        remaining = (deadline - time.perf_counter()) * 1000.0
        values = None
        if remaining <= 0.0:
            stats.status = STATUS_TIMEOUT
        else:
            result = handle.solver.solve(
                branch(handle), budget_ms=remaining, node_limit=config.node_limit
            )
            stats.status = result.status
            stats.objective = result.objective
            stats.decisions += result.stats.decisions
            stats.fails += result.stats.fails
            stats.propagations += result.stats.propagations
            stats.improvements += result.stats.improvements
            values = result.values
        if values is None:
            if schedule is not None and stats.status == STATUS_TIMEOUT:
                jobs = take(schedule(instance, window), STATUS_FEASIBLE)
            break
        decoded = decode(handle, instance, values)
        unplaced = {d.job_id for d in decoded if d.start == t and d.allocation is None}
        if unplaced and stats.realloc_iterations + 1 < attempts:
            held |= unplaced
            stats.realloc_iterations += 1
            continue
        stats.deferred = len(unplaced)
        jobs = [JobDecision(d.job_id, t + 1, None) if d.job_id in unplaced else d for d in decoded]

    stats.fallback = jobs is None
    if jobs is not None:
        decision.jobs = jobs
    elif config.emergency_first_fit:
        decision.jobs = emergency_dispatch(instance, window)

    stats.dispatched = len(decision.dispatched())
    stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    return decision
