"""Deterministic builders and raw-model helpers shared by the tests.

The generators only use ``random.Random`` instances passed in by the
caller, so a fixed seed reproduces the exact same scenario everywhere.
The ``full_*`` helpers solve the dispatch models directly and expose the
complete assignment (positions or nodes for every window job, not just
the ones starting at t), which the equivalence checks need.
"""

from __future__ import annotations

import random

from hpcdispatch.dispatch import DispatchConfig, DispatchInstance
from hpcdispatch.dispatch.common import select_window
from hpcdispatch.dispatch.instance import AllocationEntry, QueuedJob, RunningJob
from hpcdispatch.dispatch.pcp19 import build_pcp19, _make_branch as pcp19_branch
from hpcdispatch.dispatch.pcp20 import build_pcp20, make_branch as pcp20_branch
from hpcdispatch.kernel import STATUS_OPTIMAL
from hpcdispatch.system import SystemModel, build_system
from hpcdispatch.workload import make_job

import oracles


def system_of(*groups: tuple[int, dict[str, int]], name: str = "testsys") -> SystemModel:
    return build_system(
        {"name": name, "groups": [{"count": count, "cap": cap} for count, cap in groups]}
    )


def queued(
    job_id: int,
    submit: int,
    rn: int,
    unit_req: dict[str, int],
    d_expected: int,
    d_real: int | None = None,
    user: int = 0,
) -> QueuedJob:
    """Queued job from a per-unit request; total demand is unit_req * rn."""
    demand = {r: q * rn for r, q in unit_req.items() if q > 0}
    record = make_job(job_id, user, submit, rn, demand, d_real or d_expected)
    return QueuedJob(job=record, d_expected=d_expected)


def running(
    system: SystemModel,
    job_id: int,
    start: int,
    d_expected: int,
    placements: list[tuple[int, int, str, int, int]],
    d_real: int | None = None,
) -> RunningJob:
    """Running job from (unit, node, resource, first_position, extent) rows.

    Positions are node-local (1-based within the node's block); they are
    shifted to global coordinates here.
    """
    entries = []
    units = {unit for unit, *_ in placements}
    demand: dict[str, int] = {}
    for unit, node, resource, local_pos, extent in placements:
        owner = system.owner[resource]
        block_first = owner.index(node) + 1
        entries.append(AllocationEntry(unit, resource, block_first + local_pos - 1, extent))
        demand[resource] = demand.get(resource, 0) + extent
    record = make_job(job_id, 0, start, len(units), demand, d_real or d_expected)
    return RunningJob(
        job=record, start=start, d_expected=d_expected, allocation=tuple(sorted(
            entries, key=lambda a: (a.unit, a.resource)
        ))
    )


def instance_on(
    system: SystemModel,
    t: int,
    queued_jobs: list[QueuedJob],
    running_jobs: list[RunningJob] | None = None,
) -> DispatchInstance:
    instance = DispatchInstance(
        t=t, queued=list(queued_jobs), running=list(running_jobs or []), system=system
    )
    problems = instance.validate()
    if problems:
        raise AssertionError(f"generator produced an invalid instance: {problems}")
    return instance


# -- tiny random instances (exhaustively solvable) -----------------------------


def tiny_instance(rng: random.Random) -> DispatchInstance:
    """Up to 4 jobs, 3 nodes, 2 resource types; horizon stays under 30."""
    n_nodes = rng.randint(1, 3)
    resources = ["core"] if rng.random() < 0.4 else ["core", "mem"]
    if rng.random() < 0.3 and n_nodes > 1:
        groups = [
            (1, {r: rng.randint(2, 4) for r in resources}),
            (n_nodes - 1, {r: rng.randint(2, 4) for r in resources}),
        ]
    else:
        groups = [(n_nodes, {r: rng.randint(2, 4) for r in resources})]
    system = system_of(*groups, name="tiny")

    t = rng.randint(0, 20)
    jobs: list[QueuedJob] = []
    for job_id in range(1, rng.randint(1, 4) + 1):
        for _attempt in range(40):
            rn = rng.randint(1, min(2, n_nodes)) if rng.random() < 0.9 else n_nodes
            req = {"core": rng.randint(1, 2)}
            if len(resources) > 1 and rng.random() < 0.6:
                req["mem"] = rng.randint(1, 2)
            candidate = queued(
                job_id,
                submit=t - rng.randint(0, 6),
                rn=rn,
                unit_req=req,
                d_expected=rng.randint(1, 5),
            )
            per_node = oracles.node_unit_capacity(system, rn, req)
            if sum(per_node) >= rn:
                jobs.append(candidate)
                break

    # One running job at most: two residuals ending at different times on
    # adjacent cells can make every contiguous layout fragment while pooled
    # capacity still suffices, and then the two model families genuinely
    # disagree on the optimum.  This family is meant to stay gap-free.
    running_jobs: list[RunningJob] = []
    next_free = {(node, r): 1 for node in range(1, n_nodes + 1) for r in resources}
    for k in range(rng.randint(0, 1)):
        node = rng.randint(1, n_nodes)
        extent = rng.randint(1, 2)
        if any(
            next_free[(node, r)] + extent - 1 > system.cap(node, r) for r in resources
        ):
            continue
        resid = rng.randint(1, 5)
        started = t - rng.randint(0, 3)
        placements = []
        for r in resources:
            placements.append((0, node, r, next_free[(node, r)], extent))
            next_free[(node, r)] += extent
        running_jobs.append(
            running(
                system,
                900 + k,
                start=started,
                d_expected=resid + (t - started),
                placements=placements,
            )
        )

    return instance_on(system, t, jobs, running_jobs)


# -- queue mixes for the variable-count checks ---------------------------------


def size_independence_queue() -> list[QueuedJob]:
    """A fixed 10-job queue at t=600 for machines of 16 cores, 16 mem, 2 gpu and 2 mic per node."""
    return [
        queued(1, 440, 1, {"core": 4}, 300),
        queued(2, 450, 1, {"core": 2, "mem": 8}, 1200),
        queued(3, 460, 1, {"core": 1, "gpu": 2}, 600),
        queued(4, 470, 1, {"core": 8, "mem": 16}, 900),
        queued(5, 480, 1, {"core": 2, "mic": 2}, 450),
        queued(6, 490, 2, {"core": 8}, 3600),
        queued(7, 495, 2, {"core": 4, "gpu": 1}, 150),
        queued(8, 500, 2, {"core": 2, "mem": 4}, 800),
        queued(9, 505, 1, {"core": 16}, 60),
        queued(10, 510, 2, {"core": 1, "mem": 1}, 2400),
    ]


def eurora_style_queue(rng: random.Random, size: int, t: int = 1000) -> list[QueuedJob]:
    """Mixed serial/parallel jobs shaped like the 64-node preset's workload.

    Accelerator requests ride only on serial jobs and only in queues of
    three or more, and parallel jobs ask for modest per-unit slices, the
    way capacity jobs do; both keep any single job from owning most of a
    small model's variable budget.
    """
    jobs = []
    accel_left = max(1, size // 4) if size >= 3 else 0
    for job_id in range(1, size + 1):
        serial = rng.random() < 0.6
        if serial:
            rn = 1
            req = {"core": rng.randint(1, 16), "mem": rng.randint(1, 16)}
            if accel_left and rng.random() < 0.2:
                req["gpu" if rng.random() < 0.7 else "mic"] = rng.randint(1, 2)
                accel_left -= 1
        else:
            rn = rng.choice([2, 2, 4, 8])
            req = {
                "core": rng.randint(1, 16 // rn),
                "mem": rng.randint(1, 16 // rn),
            }
        jobs.append(
            queued(
                job_id,
                submit=t - rng.randint(0, 3600),
                rn=rn,
                unit_req=req,
                d_expected=rng.choice([60, 300, 900, 1800, 3600, 7200]),
            )
        )
    return jobs


# -- raw-model solves exposing the full assignment -----------------------------


def window_of(instance: DispatchInstance, config: DispatchConfig | None = None) -> list[QueuedJob]:
    """The queued jobs a dispatcher model would see."""
    return select_window(instance, config or DispatchConfig())


def _unlimited(budget_ms: float) -> DispatchConfig:
    return DispatchConfig(budget_ms=budget_ms, node_limit=None)


def full_pcp20(instance: DispatchInstance, budget_ms: float = 120_000.0):
    """(objective, plan) with plan[job_id] = (start, placements per unit).

    Placements follow the oracle layout: (node, ((resource, first_pos),
    ...)) for every unit, regardless of the start time.  Asserts the solve
    proved optimality.
    """
    config = _unlimited(budget_ms)
    handle = build_pcp20(instance, window_of(instance, config))
    result = handle.solver.solve(pcp20_branch(handle), budget_ms=budget_ms)
    assert result.status == STATUS_OPTIMAL, f"pcp20 did not finish: {result.status}"
    system = instance.system
    plan = {}
    for jv in handle.jobs:
        start = result.values[jv.start]
        per_unit: dict[int, list[tuple[str, int]]] = {}
        unit_nodes: dict[int, int] = {}
        for resource, unit, yvar, _extent in jv.positions:
            pos = result.values[yvar]
            per_unit.setdefault(unit, []).append((resource, pos))
            unit_nodes[unit] = system.owner[resource][pos - 1]
        placements = tuple(
            (unit_nodes[unit], tuple(sorted(per_unit[unit]))) for unit in sorted(per_unit)
        )
        plan[jv.entry.job_id] = (start, placements)
    return result.objective, plan


def full_pcp19(instance: DispatchInstance, budget_ms: float = 120_000.0):
    """(objective, plan) with plan[job_id] = (start, sorted node tuple)."""
    config = _unlimited(budget_ms)
    window = window_of(instance, config)
    if not window:
        return 0, {}
    handle = build_pcp19(instance, window)
    result = handle.solver.solve(pcp19_branch(handle), budget_ms=budget_ms)
    assert result.status == STATUS_OPTIMAL, f"pcp19 did not finish: {result.status}"
    plan = {}
    for jv in handle.jobs:
        start = result.values[jv.start]
        nodes = tuple(
            sorted(node for node, _j, xvar in jv.presences if result.values[xvar] == 1)
        )
        plan[jv.entry.job_id] = (start, nodes)
    return result.objective, plan
