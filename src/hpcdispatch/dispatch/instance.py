"""Dispatch problem snapshots and decisions.

A snapshot captures exactly what a dispatcher sees at one invocation: the
clock, the queued jobs with their expected durations, the running jobs
with concrete allocations, and the system.  Snapshots serialize to a
stable JSON form so dispatchers can be compared offline on the identical
problems a simulation produced.  The demand helpers here say what a
queued job asks of a system: its per-unit demands, how many of its units
each node could hold, and whether it fits the empty system at all.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from hpcdispatch.system import (
    PRESET_CONFIGS,
    SystemModel,
    Violation,
    build_system,
    preset,
    validate_allocation,
)
from hpcdispatch.workload import JobRecord


@dataclass(frozen=True)
class AllocationEntry:
    """One unit's claim on one resource type: positions [position, position+extent-1]."""

    unit: int
    resource: str
    position: int
    extent: int


Allocation = tuple[AllocationEntry, ...]


@dataclass(frozen=True)
class QueuedJob:
    job: JobRecord
    d_expected: int

    @property
    def job_id(self) -> int:
        return self.job.job_id

    @property
    def arrival(self) -> int:
        return self.job.submit

    @property
    def rn(self) -> int:
        return self.job.node_count


@dataclass(frozen=True)
class RunningJob:
    job: JobRecord
    start: int
    d_expected: int
    allocation: Allocation

    @property
    def job_id(self) -> int:
        return self.job.job_id


def requested_resources(system: SystemModel, entry: QueuedJob) -> list[str]:
    """The job's positive-demand resource types, in system resource order."""
    return [r for r in system.resources if entry.job.demand.get(r, 0) > 0]


def unit_demands(system: SystemModel, entry: QueuedJob) -> dict[str, int]:
    return {r: entry.job.unit_demand(r) for r in requested_resources(system, entry)}


def dominant_resource(system: SystemModel, unit_req: dict[str, int]) -> str:
    """The unit's largest demand; ties go to the resource the system lists first."""
    return max(unit_req, key=lambda r: (unit_req[r], -system.resources.index(r)))


def _replicas_per_class(
    system: SystemModel, rn: int, unit_req: dict[str, int]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(class nodes, units of this job one of them could hold) per node class."""
    for nodes in system.node_classes:
        caps = system.caps[nodes[0] - 1]
        p = rn
        for resource, q in unit_req.items():
            p = min(p, caps.get(resource, 0) // q)
            if p == 0:
                break
        yield nodes, p


def replicas(system: SystemModel, rn: int, unit_req: dict[str, int]) -> list[int]:
    """Per node (index 0 is node 1): how many units of this job could fit."""
    out = [0] * system.node_count
    for nodes, p in _replicas_per_class(system, rn, unit_req):
        for node in nodes:
            out[node - 1] = p
    return out


def fits_system(system: SystemModel, entry: QueuedJob) -> bool:
    """Could the whole job run on an otherwise empty system?"""
    known = set(system.resources)
    if any(v > 0 and r not in known for r, v in entry.job.demand.items()):
        return False
    unit_req = unit_demands(system, entry)
    if not unit_req:
        return False
    slots = sum(len(nodes) * p for nodes, p in _replicas_per_class(system, entry.rn, unit_req))
    return slots >= entry.rn


@dataclass
class DispatchInstance:
    """The dispatcher-facing problem at one point in simulated time."""

    t: int
    queued: list[QueuedJob]
    running: list[RunningJob]
    system: SystemModel

    def validate(self) -> list[Violation]:
        """Check snapshot invariants: every queued job fits the empty system,
        and running jobs must be mutually consistent."""
        problems: list[Violation] = []
        for entry in self.queued:
            if not fits_system(self.system, entry):
                problems.append(
                    Violation("unfittable", f"job {entry.job_id} cannot fit the empty system")
                )
            if entry.arrival > self.t:
                problems.append(
                    Violation("future-arrival", f"job {entry.job_id} queued before its arrival")
                )
            if entry.d_expected < 1:
                problems.append(
                    Violation("bad-duration", f"job {entry.job_id} expected duration < 1")
                )
        for run in self.running:
            if run.start > self.t:
                problems.append(
                    Violation("future-start", f"running job {run.job_id} starts after t")
                )
        # Every running job holds its allocation now, so checking them all as
        # claims at this one instant checks that they are disjoint.
        running = [(run.job_id, run.allocation) for run in self.running]
        problems.extend(validate_allocation(self.system, [], running))
        return problems

    # -- serialization -------------------------------------------------------

    def to_payload(self) -> dict:
        queued = [
            {
                "id": entry.job_id,
                "user": entry.job.user_id,
                "q": entry.arrival,
                "rn": entry.rn,
                "req": dict(sorted(entry.job.demand.items())),
                "d_expected": entry.d_expected,
                "d_real": entry.job.runtime,
            }
            for entry in sorted(self.queued, key=lambda e: e.job_id)
        ]
        running = [
            {
                "id": run.job_id,
                "s": run.start,
                "allocation": [
                    {"unit": a.unit, "r": a.resource, "y": a.position, "q": a.extent}
                    for a in sorted(run.allocation, key=lambda a: (a.unit, a.resource))
                ],
                "d_expected": run.d_expected,
                "d_real": run.job.runtime,
            }
            for run in sorted(self.running, key=lambda r: r.job_id)
        ]
        name = self.system.name
        if name in PRESET_CONFIGS and self.system.to_config() == preset(name).to_config():
            system_payload: str | dict = name
        else:
            system_payload = self.system.to_config()
        return {"t": self.t, "queued": queued, "running": running, "system": system_payload}

    def dumps(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":")) + "\n"

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(self.dumps(), encoding="utf-8")

    @classmethod
    def from_payload(cls, data: dict) -> "DispatchInstance":
        """Parse the saved form; malformed input is a ValueError naming its part."""
        if not isinstance(data, dict):
            raise ValueError("snapshot: not a JSON object")
        with _payload_part("snapshot"):
            t = int(data["t"])
            system_payload = data["system"]
            if isinstance(system_payload, str):
                system = preset(system_payload)
            else:
                system = build_system(system_payload)
            queued_payload = list(data.get("queued", []))
            running_payload = list(data.get("running", []))
        queued = []
        for number, entry in enumerate(queued_payload, 1):
            with _payload_part(_entry_label("queued", number, entry)):
                rn = int(entry["rn"])
                req = {str(r): int(v) for r, v in entry["req"].items()}
                for r, total in req.items():
                    if rn < 1 or total % rn:
                        raise ValueError(f"demand {total} for {r!r} not divisible by rn={rn}")
                job = JobRecord(
                    job_id=int(entry["id"]),
                    user_id=int(entry.get("user", 0)),
                    submit=int(entry["q"]),
                    node_count=rn,
                    demand=req,
                    runtime=int(entry["d_real"]),
                )
                queued.append(QueuedJob(job=job, d_expected=int(entry["d_expected"])))
        running = []
        for number, entry in enumerate(running_payload, 1):
            with _payload_part(_entry_label("running", number, entry)):
                allocation = tuple(
                    AllocationEntry(
                        unit=int(a["unit"]),
                        resource=str(a["r"]),
                        position=int(a["y"]),
                        extent=int(a["q"]),
                    )
                    for a in entry.get("allocation", [])
                )
                demand: dict[str, int] = {}
                units = set()
                for a in allocation:
                    demand[a.resource] = demand.get(a.resource, 0) + a.extent
                    units.add(a.unit)
                # The saved form drops the running job's owner and arrival time;
                # neither influences any dispatcher decision.
                job = JobRecord(
                    job_id=int(entry["id"]),
                    user_id=0,
                    submit=int(entry["s"]),
                    node_count=max(1, len(units)),
                    demand=demand,
                    runtime=int(entry["d_real"]),
                )
                running.append(
                    RunningJob(
                        job=job,
                        start=int(entry["s"]),
                        d_expected=int(entry["d_expected"]),
                        allocation=allocation,
                    )
                )
        return cls(t=t, queued=queued, running=running, system=system)

    @classmethod
    def loads(cls, text: str) -> "DispatchInstance":
        return cls.from_payload(json.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "DispatchInstance":
        return cls.loads(Path(path).read_text(encoding="utf-8"))


@contextmanager
def _payload_part(where: str) -> Iterator[None]:
    """Report a missing key or a mistyped value as a ValueError naming ``where``."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{where}: missing {exc}") from None
    except (TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _entry_label(kind: str, number: int, entry: object) -> str:
    job_id = entry.get("id") if isinstance(entry, dict) else None
    return f"{kind} job {job_id}" if job_id is not None else f"{kind} entry {number}"


@dataclass
class InvocationStats:
    """Everything measurable about one dispatcher invocation."""

    dispatcher: str
    t: int
    queue_size: int = 0
    window_size: int = 0
    n_vars: int = 0
    n_sched: int = 0
    n_alloc: int = 0
    status: str = ""
    objective: int | None = None
    decisions: int = 0
    fails: int = 0
    propagations: int = 0
    wall_ms: float = 0.0
    dispatched: int = 0
    deferred: int = 0
    fallback: bool = False
    realloc_iterations: int = 0

    CSV_FIELDS = (
        "t",
        "dispatcher",
        "queue_size",
        "window_size",
        "n_vars",
        "n_sched",
        "n_alloc",
        "status",
        "objective",
        "decisions",
        "fails",
        "propagations",
        "wall_ms",
        "dispatched",
        "deferred",
        "fallback",
        "realloc_iterations",
    )

    def as_row(self) -> dict:
        return {
            "t": self.t,
            "dispatcher": self.dispatcher,
            "queue_size": self.queue_size,
            "window_size": self.window_size,
            "n_vars": self.n_vars,
            "n_sched": self.n_sched,
            "n_alloc": self.n_alloc,
            "status": self.status,
            "objective": "" if self.objective is None else self.objective,
            "decisions": self.decisions,
            "fails": self.fails,
            "propagations": self.propagations,
            "wall_ms": f"{self.wall_ms:.3f}",
            "dispatched": self.dispatched,
            "deferred": self.deferred,
            "fallback": int(self.fallback),
            "realloc_iterations": self.realloc_iterations,
        }


@dataclass(frozen=True)
class JobDecision:
    """Assigned start for one queued job; allocation present iff start == t."""

    job_id: int
    start: int
    allocation: Allocation | None = None


@dataclass
class DispatchDecision:
    jobs: list[JobDecision] = field(default_factory=list)
    stats: InvocationStats | None = None
    fallback: bool = False

    def dispatched(self) -> list[JobDecision]:
        return [d for d in self.jobs if d.allocation is not None]

    def violations(self, instance: DispatchInstance) -> list[Violation]:
        """Independent feasibility check of this decision against the snapshot.

        Every running job and every freshly dispatched job holds its
        allocation at t, so disjoint occupancy at that instant is exactly
        what a valid decision needs, whatever the real durations turn out
        to be.
        """
        dispatched = []
        for decision in self.dispatched():
            if decision.start != instance.t:
                return [
                    Violation(
                        "late-allocation",
                        f"job {decision.job_id} has an allocation but start {decision.start} != t",
                    )
                ]
            dispatched.append((decision.job_id, decision.allocation))
        running = [(run.job_id, run.allocation) for run in instance.running]
        return validate_allocation(instance.system, running, dispatched)
