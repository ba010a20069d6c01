"""Dispatch problem snapshots and decisions.

A snapshot captures exactly what a dispatcher sees at one invocation: the
clock, the queued jobs with their expected durations, the running jobs
with concrete allocations, and the system.  Snapshots serialize to a
stable JSON form so dispatchers can be compared offline on the identical
problems a simulation produced.  The demand helpers here say what a
queued job asks of a system: its per-unit demands, how many of its units
each node could hold, and whether it fits the empty system at all.  The
``Ledger`` records what the running jobs hold and until when: the only
view of them the dispatchers read.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import ClassVar, Iterable, Iterator

from hpcdispatch.system import (
    PRESET_CONFIGS,
    SystemModel,
    Violation,
    build_system,
    preset,
    validate_allocation,
)
from hpcdispatch.workload import JobRecord, checked_int


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


def node_of(system: SystemModel, entry: AllocationEntry) -> int | None:
    """The node owning the entry's first position, or None if it has none."""
    owner = system.owner.get(entry.resource)
    if owner is None or not 1 <= entry.position <= len(owner):
        return None
    return owner[entry.position - 1]


def run_nodes(system: SystemModel, run: RunningJob) -> set[int]:
    """The nodes where a running job holds a cell; its allocation is valid."""
    owner = system.owner
    return {owner[entry.resource][entry.position - 1] for entry in run.allocation}


class FreeCounts:
    """One node class's nodes bucketed by their free count of one resource.

    ``nodes[k]`` lists, ascending, the class's nodes with k free positions
    of the resource, and ``counts`` the k whose list is non-empty,
    ascending; ``count_of`` maps each node to its k.  ``caps`` is the
    class's capacity vector and ``cap`` its capacity of the resource.
    """

    __slots__ = ("caps", "cap", "nodes", "counts", "count_of")

    def __init__(self, caps: dict[str, int], cap: int, members: tuple[int, ...]):
        self.caps = caps
        self.cap = cap
        self.nodes = {cap: list(members)}
        self.counts = [cap]
        self.count_of = dict.fromkeys(members, cap)

    def recount(self, node: int, new: int) -> None:
        """Move ``node`` to the bucket of ``new`` free positions."""
        old = self.count_of[node]
        if new == old:
            return
        self.count_of[node] = new
        nodes, counts = self.nodes, self.counts
        bucket = nodes[old]
        del bucket[bisect_left(bucket, node)]
        if not bucket:
            del nodes[old]
            del counts[bisect_left(counts, old)]
        bucket = nodes.get(new)
        if bucket is None:
            nodes[new] = [node]
            insort(counts, new)
        else:
            insort(bucket, node)


class Ledger:
    """What the running jobs hold, and until when: all a model reads of them.

    ``free[r][p - 1]`` is 1 while position p of r's flattened space is
    free; ``used[r]`` counts the held positions; ``held[r]`` lists the held
    ``(first, last, expected_end)`` ranges in position order, and
    ``held_ends[r]`` their expected ends in ascending order; ``ends`` lists
    each running job's expected_end, start + d_expected, in ascending
    order, and ``ends_total`` is their sum.  A job may run past its
    expected end, so a reader at time t takes ``max(expected_end, t + 1)``
    as its release: ``releases`` gives that per held range, and
    ``common.horizon`` sums it per job.

    ``occupy`` and ``release`` cost O(the job's allocation entries, each
    with a bisection), so the simulator keeps one ledger per run and
    updates it at each start and END instead of rebuilding it per
    invocation.  The sorted ends let a reader at t find the overdue jobs
    and ranges by bisection, so the read-outs cost O(log R) plus what is
    overdue, not O(R) for R running jobs.  Dispatchers only read it;
    placement claims cells on a ``FreeRuns`` copy.

    ``free_index(r)`` buckets every node, wholly free ones too, by its free
    count of r, one ``FreeCounts`` per node class that has r, for best-fit
    placement; first and last fit read only a copy's masks.  It is a cache
    of the masks, refreshed lazily: ``occupy`` and ``release`` only mark
    each entry's node stale for its resource, and the next
    ``free_index(r)`` moves r's stale nodes to their buckets, one ``count``
    each against the stored count.  So a run that never places by best fit
    pays one ``set.add`` per entry.  Like the rest of the ledger it serves
    placement only: the decision check reads ``running``, never the
    ledger.
    """

    def __init__(self, system: SystemModel):
        self.system = system
        self.free = {r: bytearray(b"\1") * system.total_capacity[r] for r in system.resources}
        self.used = dict.fromkeys(system.resources, 0)
        self.held: dict[str, list[tuple[int, int, int]]] = {r: [] for r in system.resources}
        self.held_ends: dict[str, list[int]] = {r: [] for r in system.resources}
        self.ends: list[int] = []
        self.ends_total = 0
        # The free-count index starts with every node wholly free; per
        # resource, the classes' buckets and each node's class.
        self._index: dict[str, list[FreeCounts]] = {r: [] for r in system.resources}
        self._group: dict[str, dict[int, FreeCounts]] = {r: {} for r in system.resources}
        self._stale: dict[str, set[int]] = {r: set() for r in system.resources}
        for members in system.node_classes:
            caps = system.caps[members[0] - 1]
            for resource, cap in caps.items():
                if cap > 0:
                    group = FreeCounts(caps, cap, members)
                    self._index[resource].append(group)
                    self._group[resource].update(dict.fromkeys(members, group))

    @classmethod
    def of(cls, system: SystemModel, running: Iterable[RunningJob]) -> "Ledger":
        ledger = cls(system)
        for run in running:
            ledger.occupy(run)
        return ledger

    def occupy(self, run: RunningJob) -> None:
        end = run.start + run.d_expected
        insort(self.ends, end)
        self.ends_total += end
        owner, stale = self.system.owner, self._stale
        for entry in run.allocation:
            resource, lo, extent = entry.resource, entry.position - 1, entry.extent
            self.free[resource][lo : lo + extent] = bytes(extent)
            self.used[resource] += extent
            insort(self.held[resource], (entry.position, lo + extent, end))
            insort(self.held_ends[resource], end)
            stale[resource].add(owner[resource][lo])

    def release(self, run: RunningJob) -> None:
        end = run.start + run.d_expected
        ends = self.ends
        del ends[bisect_left(ends, end)]
        self.ends_total -= end
        owner, stale = self.system.owner, self._stale
        for entry in run.allocation:
            resource, lo, extent = entry.resource, entry.position - 1, entry.extent
            self.free[resource][lo : lo + extent] = b"\1" * extent
            self.used[resource] -= extent
            held = self.held[resource]
            del held[bisect_left(held, (entry.position,))]
            held_ends = self.held_ends[resource]
            del held_ends[bisect_left(held_ends, end)]
            stale[resource].add(owner[resource][lo])

    def releases(self, resource: str, t: int) -> list[tuple[int, int, int]]:
        """The held ``(first, last, release)`` ranges at t, in position order.

        While no range of ``resource`` is overdue at t, each release is the
        range's expected end, and this is ``held[resource]`` itself, not a
        copy: callers read it and never change it.
        """
        ends = self.held_ends[resource]
        if not ends or ends[0] > t:
            return self.held[resource]
        floor = t + 1
        return [
            (first, last, end if end > floor else floor)
            for first, last, end in self.held[resource]
        ]

    def free_index(self, resource: str) -> list[FreeCounts]:
        """The free-count index of ``resource``, once its stale nodes are
        moved to their buckets: one ``FreeCounts`` per node class that has
        the resource, in ``system.node_classes`` order.  Callers read it and
        never change it."""
        stale = self._stale[resource]
        if stale:
            mask, node_span = self.free[resource], self.system.node_span
            group = self._group[resource]
            for node in stale:
                first, last = node_span[(node, resource)]
                group[node].recount(node, mask.count(1, first - 1, last))
            stale.clear()
        return self._index[resource]

    def total_free(self, node: int, resource: str) -> int:
        span = self.system.node_span.get((node, resource))
        return 0 if span is None else self.free[resource].count(1, span[0] - 1, span[1])


@dataclass
class DispatchInstance:
    """The dispatcher-facing problem at one point in simulated time."""

    t: int
    queued: list[QueuedJob]
    running: list[RunningJob]
    system: SystemModel

    @cached_property
    def ledger(self) -> Ledger:
        """What ``running`` holds, built on first use; never serialized.

        The models read the running jobs only here, next to the window.
        The simulator assigns the ledger it keeps instead, which describes
        the running jobs only at this snapshot's instant: the run updates
        it once the decision is applied.  Checks read ``running`` (the
        decision check through ``node_jobs``), never the ledger, so a
        ledger fault cannot hide a double booking.
        """
        return Ledger.of(self.system, self.running)

    @cached_property
    def node_jobs(self) -> dict[int, dict[int, RunningJob]]:
        """Per node where running jobs hold a cell, those jobs by id.

        Built from ``running`` on first use, never serialized; the
        simulator assigns the index it keeps beside its running jobs
        instead.  Only the decision check reads it, to find the running
        jobs a claim could meet.
        """
        index: dict[int, dict[int, RunningJob]] = {}
        for run in self.running:
            for node in run_nodes(self.system, run):
                index.setdefault(node, {})[run.job_id] = run
        return index

    def validate(self) -> list[Violation]:
        """Check snapshot invariants: every job id appears once, every queued
        job fits the empty system, and running jobs must be mutually consistent."""
        problems: list[Violation] = []
        seen: set[int] = set()
        for job_id in [e.job_id for e in self.queued] + [r.job_id for r in self.running]:
            if job_id in seen:
                problems.append(Violation("repeated-id", f"job {job_id} appears twice"))
            seen.add(job_id)
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
            t = checked_int("t", data["t"])
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
                rn = checked_int("rn", entry["rn"])
                req = {str(r): checked_int(f"req {r!r}", v) for r, v in entry["req"].items()}
                for r, total in req.items():
                    if rn < 1 or total % rn:
                        raise ValueError(f"demand {total} for {r!r} not divisible by rn={rn}")
                job = JobRecord(
                    job_id=checked_int("id", entry["id"]),
                    user_id=checked_int("user", entry.get("user", 0)),
                    submit=checked_int("q", entry["q"]),
                    node_count=rn,
                    demand=req,
                    runtime=checked_int("d_real", entry["d_real"]),
                )
                d_expected = checked_int("d_expected", entry["d_expected"])
                queued.append(QueuedJob(job=job, d_expected=d_expected))
        running = []
        for number, entry in enumerate(running_payload, 1):
            with _payload_part(_entry_label("running", number, entry)):
                allocation = tuple(
                    AllocationEntry(
                        unit=checked_int("unit", a["unit"]),
                        resource=str(a["r"]),
                        position=checked_int("y", a["y"]),
                        extent=checked_int("q", a["q"]),
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
                start = checked_int("s", entry["s"])
                job = JobRecord(
                    job_id=checked_int("id", entry["id"]),
                    user_id=0,
                    submit=start,
                    node_count=max(1, len(units)),
                    demand=demand,
                    runtime=checked_int("d_real", entry["d_real"]),
                )
                running.append(
                    RunningJob(
                        job=job,
                        start=start,
                        d_expected=checked_int("d_expected", entry["d_expected"]),
                        allocation=allocation,
                    )
                )
        return cls(t=t, queued=queued, running=running, system=system)

    @classmethod
    def loads(cls, text: str, source: str = "snapshot") -> "DispatchInstance":
        """Parse a snapshot; a syntax error or too deep a nesting names ``source``."""
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:  # deep nesting exhausts the decoder
            raise ValueError(f"{source}: {exc}") from None
        return cls.from_payload(payload)

    @classmethod
    def load(cls, path: str | Path) -> "DispatchInstance":
        return cls.loads(Path(path).read_text(encoding="utf-8"), f"snapshot {path}")


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
    """Everything measurable about one dispatcher invocation.

    Each field is one invocations.csv column, in field order
    (``CSV_FIELDS``); ``as_row`` formats ``objective``, ``wall_ms`` and
    ``fallback`` and passes the rest through.  ``improvements`` counts the
    incumbents search found; 0 in a decision that did not fall back means
    it came without search: pcp20's or hcp19's plan for a window that fits
    now, which also reads 0 decisions and 0 propagations, or pcp20's
    serial schedule.
    """

    t: int
    dispatcher: str
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
    improvements: int = 0
    wall_ms: float = 0.0
    dispatched: int = 0
    deferred: int = 0
    fallback: bool = False
    realloc_iterations: int = 0

    CSV_FIELDS: ClassVar[tuple[str, ...]]

    def as_row(self) -> dict:
        row = {name: getattr(self, name) for name in self.CSV_FIELDS}
        row["objective"] = "" if self.objective is None else self.objective
        row["wall_ms"] = f"{self.wall_ms:.3f}"
        row["fallback"] = int(self.fallback)
        return row


InvocationStats.CSV_FIELDS = tuple(f.name for f in fields(InvocationStats))


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

    def dispatched(self) -> list[JobDecision]:
        return [d for d in self.jobs if d.allocation is not None]

    def violations(self, instance: DispatchInstance) -> list[Violation]:
        """The one check of this decision against its snapshot.

        The simulator runs it on every decision before applying it.  Each
        job has at most one decision, and a dispatched job must be queued
        and start at t.  Every running job and every freshly dispatched job
        then holds its allocation at t, so disjoint occupancy at that
        instant is exactly what a valid decision needs, whatever the real
        durations turn out to be.

        Only the running jobs on the claimed nodes (``node_jobs``) are
        passed on as held, so the check costs what the claims touch, not
        what the machine runs.  Nothing is lost: a double booking shares a
        cell, which lies on one node, and a valid held range lies on one
        node too, so its job is indexed there.  An invalid claim is
        reported before any held range is read.
        """
        queued = {entry.job_id for entry in instance.queued}
        seen: set[int] = set()
        problems: list[Violation] = []
        dispatched = []
        for decision in self.jobs:
            job_id = decision.job_id
            if job_id in seen:
                problems.append(Violation("repeated-job", f"job {job_id} is decided twice"))
            seen.add(job_id)
            if decision.allocation is None:
                continue
            if job_id not in queued:
                problems.append(Violation("unknown-job", f"job {job_id} is not queued"))
            elif decision.start != instance.t:
                problems.append(
                    Violation(
                        "late-allocation",
                        f"job {job_id} has an allocation but start {decision.start} != t",
                    )
                )
            dispatched.append((job_id, decision.allocation))
        if problems:
            return problems
        system, node_jobs = instance.system, instance.node_jobs
        nodes = {node_of(system, entry) for _, allocation in dispatched for entry in allocation}
        near: dict[int, RunningJob] = {}
        for node in nodes:
            near.update(node_jobs.get(node, ()))
        held = [(run.job_id, run.allocation) for run in near.values()]
        return validate_allocation(system, held, dispatched)
