"""Machinery shared by the dispatchers.

Covers the dispatch settings, the driver that runs one invocation of any
dispatcher model, job priorities, the visible queue window, horizon
arithmetic, the integer objective encoding, and heuristic placement on
per-node free position runs (used by the two-stage dispatcher, by presence
materialization, and by the optional emergency fallback).
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from hpcdispatch.dispatch.instance import (
    Allocation,
    AllocationEntry,
    DispatchDecision,
    DispatchInstance,
    InvocationStats,
    JobDecision,
    QueuedJob,
    RunningJob,
)
from hpcdispatch.kernel import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIMEOUT,
    IntVar,
)
from hpcdispatch.kernel.core import Branching
from hpcdispatch.kernel.propagators import IndexedArray
from hpcdispatch.system import SystemModel


@dataclass
class DispatchConfig:
    """Settings of one dispatcher invocation; defaults match the CLI defaults.

    ``budget_ms`` bounds the wall time of the whole invocation and
    ``node_limit`` the search decisions of each solve; ``window`` caps the
    queued jobs one model sees.  ``hcp_max_iterations`` bounds how often the
    two-stage dispatcher re-plans after failed placements, and
    ``emergency_first_fit`` turns on the greedy rescue of a fallback.
    """

    budget_ms: float = 2000.0
    node_limit: int | None = 1500
    window: int = 100
    objective_scale: int = 10_000
    hcp_max_iterations: int = 10
    emergency_first_fit: bool = False


def priority(arrival: int, duration: int, t: int) -> Fraction:
    """Expected slowdown if started now; larger means more urgent."""
    if duration < 1:
        raise ValueError("duration must be >= 1")
    if arrival > t:
        raise ValueError("job queued before its arrival")
    return Fraction(t - arrival + duration, duration)


def slowdown_weight(duration: int, scale: int) -> int:
    """Integer objective weight: scale/duration rounded to nearest, min 1.

    With the default scale of 10^4 the rounding error per job is below
    5*10^-5 of a slowdown unit, far under the one-second step that
    separates competing schedules.
    """
    return max(1, (2 * scale + duration) // (2 * duration))


def objective_terms(window: Sequence[QueuedJob], scale: int) -> tuple[list[int], int]:
    """Per-job weights and the constant part of sum(w_i * (s_i - q_i + d_i)).

    The variable part is sum(w_i * s_i); running jobs contribute nothing
    the solver can change, so they are left out of the reported value.
    """
    weights = [slowdown_weight(entry.d_expected, scale) for entry in window]
    constant = sum(
        w * (entry.d_expected - entry.arrival) for w, entry in zip(weights, window)
    )
    return weights, constant


def requested_resources(system: SystemModel, entry: QueuedJob) -> list[str]:
    """The job's positive-demand resource types, in system resource order."""
    return [r for r in system.resources if entry.job.demand.get(r, 0) > 0]


def unit_demands(system: SystemModel, entry: QueuedJob) -> dict[str, int]:
    return {r: entry.job.unit_demand(r) for r in requested_resources(system, entry)}


def replicas(system: SystemModel, rn: int, unit_req: dict[str, int]) -> list[int]:
    """Per node (index 0 is node 1): how many units of this job could fit."""
    out = []
    for node in range(1, system.node_count + 1):
        p = rn
        for resource, q in unit_req.items():
            p = min(p, system.cap(node, resource) // q)
            if p == 0:
                break
        out.append(p)
    return out


def fits_system(system: SystemModel, entry: QueuedJob) -> bool:
    """Could the whole job run on an otherwise empty system?"""
    known = set(system.resources)
    if any(v > 0 and r not in known for r, v in entry.job.demand.items()):
        return False
    unit_req = unit_demands(system, entry)
    if not unit_req:
        return False
    return sum(replicas(system, entry.rn, unit_req)) >= entry.rn


def select_window(
    instance: DispatchInstance, config: DispatchConfig
) -> tuple[list[QueuedJob], list[QueuedJob]]:
    """Visible queue subset: fittable jobs, highest priority first, capped.

    Returns (window, unfittable).  Jobs beyond the window cap stay queued
    silently; unfittable jobs can never run and are reported separately.
    """
    t = instance.t
    ranked = sorted(
        instance.queued,
        key=lambda e: (-priority(e.arrival, e.d_expected, t), e.job_id),
    )
    window: list[QueuedJob] = []
    unfittable: list[QueuedJob] = []
    for entry in ranked:
        if not fits_system(instance.system, entry):
            unfittable.append(entry)
        elif len(window) < config.window:
            window.append(entry)
    return window, unfittable


def residual(run: RunningJob, t: int) -> int:
    """Remaining expected occupancy; never below one time unit."""
    return max(1, run.start + run.d_expected - t)


def horizon(t: int, window: Sequence[QueuedJob], running: Sequence[RunningJob]) -> int:
    """Worst-case makespan: everything visible runs back to back."""
    return (
        t
        + sum(entry.d_expected for entry in window)
        + sum(residual(run, t) for run in running)
    )


_OWNER_INDEX: "weakref.WeakKeyDictionary[SystemModel, dict[str, IndexedArray]]" = (
    weakref.WeakKeyDictionary()
)


def owner_index(system: SystemModel, resource: str) -> IndexedArray:
    """Run-indexed node ownership map for a resource, cached per system."""
    per_system = _OWNER_INDEX.get(system)
    if per_system is None:
        per_system = {}
        _OWNER_INDEX[system] = per_system
    idx = per_system.get(resource)
    if idx is None:
        idx = IndexedArray(system.owner[resource])
        per_system[resource] = idx
    return idx


class FreeRuns:
    """Contiguous free position runs per (node, resource) at a fixed instant.

    Built from the running set at dispatch time; claims are left-aligned
    within a chosen run.  A small journal supports all-or-nothing placement
    of multi-unit jobs.
    """

    def __init__(self, system: SystemModel, running: Iterable[RunningJob], t: int):
        self.system = system
        self.runs: dict[tuple[int, str], list[list[int]]] = {}
        for node in range(1, system.node_count + 1):
            for resource in system.resources:
                cap = system.cap(node, resource)
                if cap > 0:
                    self.runs[(node, resource)] = [[1, cap]]
        for run in running:
            for entry in run.allocation:
                node = system.position_to_node(entry.resource, entry.position)
                local = system.node_local_index(entry.resource, entry.position)
                self._occupy(node, entry.resource, local, local + entry.extent - 1)
        self._journal: dict[tuple[int, str], list[list[int]]] | None = None

    def _occupy(self, node: int, resource: str, lo: int, hi: int) -> None:
        runs = self.runs[(node, resource)]
        out: list[list[int]] = []
        for a, b in runs:
            if hi < a or lo > b:
                out.append([a, b])
                continue
            if a < lo:
                out.append([a, lo - 1])
            if hi < b:
                out.append([hi + 1, b])
        self.runs[(node, resource)] = out

    # -- transactions ----------------------------------------------------

    def begin(self) -> None:
        self._journal = {}

    def rollback(self) -> None:
        assert self._journal is not None
        for key, saved in self._journal.items():
            self.runs[key] = saved
        self._journal = None

    def commit(self) -> None:
        self._journal = None

    def _touch(self, key: tuple[int, str]) -> None:
        if self._journal is not None and key not in self._journal:
            self._journal[key] = [run[:] for run in self.runs[key]]

    # -- queries and claims ------------------------------------------------

    def largest_run(self, node: int, resource: str) -> int:
        runs = self.runs.get((node, resource))
        if not runs:
            return 0
        return max(b - a + 1 for a, b in runs)

    def total_free(self, node: int, resource: str) -> int:
        runs = self.runs.get((node, resource))
        if not runs:
            return 0
        return sum(b - a + 1 for a, b in runs)

    def claim(self, node: int, resource: str, length: int) -> int | None:
        """Take `length` contiguous cells on the node, first fit; returns the local start."""
        key = (node, resource)
        runs = self.runs.get(key)
        if not runs:
            return None
        pick = next((i for i, (a, b) in enumerate(runs) if b - a + 1 >= length), None)
        if pick is None:
            return None
        self._touch(key)
        runs = self.runs[key]
        a, b = runs[pick]
        if a + length - 1 == b:
            del runs[pick]
        else:
            runs[pick] = [a + length, b]
        return a


def _unit_fits(free: FreeRuns, node: int, unit_req: dict[str, int]) -> bool:
    return all(free.largest_run(node, r) >= q for r, q in unit_req.items())


def best_fit_node(
    system: SystemModel, free: FreeRuns, unit_req: dict[str, int]
) -> int | None:
    """Feasible node leaving the least free share of the unit's top resource."""
    r_star = max(unit_req, key=lambda r: (unit_req[r], -system.resources.index(r)))
    best = None
    best_key = None
    for node in range(1, system.node_count + 1):
        if not _unit_fits(free, node, unit_req):
            continue
        slack = Fraction(
            free.total_free(node, r_star) - unit_req[r_star], system.cap(node, r_star)
        )
        if best_key is None or (slack, node) < best_key:
            best_key = (slack, node)
            best = node
    return best


def first_fit_node(
    system: SystemModel, free: FreeRuns, unit_req: dict[str, int]
) -> int | None:
    for node in range(1, system.node_count + 1):
        if _unit_fits(free, node, unit_req):
            return node
    return None


def place_job(
    system: SystemModel,
    free: FreeRuns,
    rn: int,
    unit_req: dict[str, int],
    best: bool = True,
) -> Allocation | None:
    """Heuristically allocate all rn units, or nothing at all."""
    free.begin()
    entries: list[AllocationEntry] = []
    for unit in range(rn):
        node = (best_fit_node if best else first_fit_node)(system, free, unit_req)
        if node is None:
            free.rollback()
            return None
        for resource, q in unit_req.items():
            local = free.claim(node, resource, q)
            assert local is not None  # guaranteed by _unit_fits
            first, _ = system.node_span[(node, resource)]
            entries.append(AllocationEntry(unit, resource, first + local - 1, q))
    free.commit()
    return tuple(entries)


def place_units_on_nodes(
    system: SystemModel,
    free: FreeRuns,
    node_of_unit: Sequence[int],
    unit_req: dict[str, int],
) -> Allocation | None:
    """Materialize positions for units whose nodes are already chosen.

    First-fit within each node; fails (returning None, state untouched)
    when some node's free cells are too fragmented for a contiguous claim.
    """
    free.begin()
    entries: list[AllocationEntry] = []
    for unit, node in enumerate(node_of_unit):
        for resource, q in unit_req.items():
            local = free.claim(node, resource, q)
            if local is None:
                free.rollback()
                return None
            first, _ = system.node_span[(node, resource)]
            entries.append(AllocationEntry(unit, resource, first + local - 1, q))
    free.commit()
    return tuple(entries)


def emergency_dispatch(
    instance: DispatchInstance, window: Sequence[QueuedJob]
) -> list[JobDecision]:
    """Greedy first-fit used when a solver produced nothing dispatchable."""
    free = FreeRuns(instance.system, instance.running, instance.t)
    out: list[JobDecision] = []
    for entry in window:
        unit_req = unit_demands(instance.system, entry)
        allocation = place_job(instance.system, free, entry.rn, unit_req, best=False)
        if allocation is not None:
            out.append(JobDecision(entry.job_id, instance.t, allocation))
    return out


# -- the driver ----------------------------------------------------------------


class BuildTimeout(Exception):
    """Raised by a model build that runs past the invocation deadline."""


def drive(
    name: str,
    instance: DispatchInstance,
    config: DispatchConfig | None,
    *,
    size: Callable[[DispatchInstance, list[QueuedJob]], tuple[int, int]],
    build: Callable[[DispatchInstance, DispatchConfig, list[QueuedJob], set[int], float], Any],
    branch: Callable[[Any], Branching],
    decode: Callable[[Any, DispatchInstance, dict[IntVar, int]], list[JobDecision]],
    attempts: int = 1,
) -> DispatchDecision:
    """One dispatcher invocation; the model supplies only its own steps.

    ``size`` gives (scheduling vars, allocation vars) without building.
    ``build`` makes a handle whose ``solver`` holds the model, with the
    jobs in its ``held`` set kept from starting at t; it returns None when
    the model is infeasible as built and may raise BuildTimeout once
    ``time.perf_counter()`` passes the deadline.  ``decode`` turns an
    incumbent into one JobDecision per window job; a job it would start at
    t but cannot place comes back with start t and no allocation.  Such
    jobs are held and the model rebuilt, up to ``attempts`` builds in all,
    after which they are deferred to t+1.

    The driver owns the rest: window selection, the budget, statistics,
    fallback with the optional first-fit rescue, and an independent check
    of every decision before it leaves.
    """
    config = config or DispatchConfig()
    t0 = time.perf_counter()
    deadline = t0 + config.budget_ms / 1000.0
    window, _ = select_window(instance, config)
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
    held: set[int] = set()
    jobs: list[JobDecision] | None = None
    while True:
        try:
            handle = build(instance, config, window, held, deadline)
        except BuildTimeout:
            stats.status = STATUS_TIMEOUT
            break
        if handle is None:
            stats.status = STATUS_INFEASIBLE
            break
        remaining = (deadline - time.perf_counter()) * 1000.0
        if remaining <= 0.0:
            stats.status = STATUS_TIMEOUT
            break
        result = handle.solver.solve(
            branch(handle), budget_ms=remaining, node_limit=config.node_limit
        )
        stats.status = result.status
        stats.objective = result.objective
        stats.decisions += result.stats.decisions
        stats.fails += result.stats.fails
        stats.propagations += result.stats.propagations
        if result.values is None:
            break
        decoded = decode(handle, instance, result.values)
        unplaced = {d.job_id for d in decoded if d.start == t and d.allocation is None}
        if unplaced and stats.realloc_iterations + 1 < attempts:
            held |= unplaced
            stats.realloc_iterations += 1
            continue
        stats.deferred = len(unplaced)
        jobs = [JobDecision(d.job_id, t + 1, None) if d.job_id in unplaced else d for d in decoded]
        break

    if jobs is None:
        decision.fallback = True
    else:
        decision.jobs = jobs
        if decision.violations(instance):
            # A decoded solution failing the independent validator means a
            # model or propagator bug; refuse to dispatch rather than corrupt state.
            decision.jobs = []
            decision.fallback = True
            stats.status = "decode-error"
    if decision.fallback and config.emergency_first_fit:
        decision.jobs = emergency_dispatch(instance, window)

    stats.dispatched = len(decision.dispatched())
    stats.fallback = decision.fallback
    stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    return decision
