"""Workload handling: trace parsing, duration prediction, synthetic traces.

Traces come either from Standard Workload Format (SWF) logs or from the
JSON-lines format written by the synthetic generator.  Every job is
normalized at construction time so that its total demand divides evenly
across the requested number of identical units (per-unit demand is the
ceiling of the raw share).
"""

from __future__ import annotations

import json
import os
import random
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Iterable

SWF_COMMENT = ";"

ORACLE = "oracle"
LAST_TWO = "last2"
PREDICTOR_MODES = (ORACLE, LAST_TWO)


@dataclass(frozen=True)
class JobRecord:
    """One user request: when it arrived, what it asks for, how long it ran.

    ``demand`` maps resource type to the total amount over all units; it is
    always a multiple of ``node_count``.  ``runtime`` is the real duration,
    known only to the simulator; dispatchers see a predicted duration.
    """

    job_id: int
    user_id: int
    submit: int
    node_count: int
    demand: dict[str, int]
    runtime: int
    requested: int | None = None

    def unit_demand(self, resource: str) -> int:
        return self.demand.get(resource, 0) // self.node_count

    def resources(self) -> list[str]:
        return [r for r, amount in self.demand.items() if amount > 0]


def make_job(
    job_id: int,
    user_id: int,
    submit: int,
    node_count: int,
    demand: dict[str, int],
    runtime: int,
    requested: int | None = None,
) -> JobRecord:
    """Build a JobRecord, rounding each demand up to a multiple of the unit count."""
    units = max(1, int(node_count))
    clean: dict[str, int] = {}
    for resource, amount in demand.items():
        if amount <= 0:
            continue
        per_unit = -(-int(amount) // units)
        clean[resource] = per_unit * units
    return JobRecord(
        job_id=int(job_id),
        user_id=int(user_id),
        submit=max(0, int(submit)),
        node_count=units,
        demand=clean,
        runtime=max(1, int(runtime)),
        requested=int(requested) if requested else None,
    )


@dataclass
class ParsedTrace:
    jobs: list[JobRecord]
    skipped: int


def parse_swf(lines: Iterable[str], cores_per_node: int = 16) -> ParsedTrace:
    """Parse SWF v2 text into job records, preserving line order.

    Fields used (1-based SWF columns): job id (1), submit time (2), run
    time (4), allocated processors (5), requested processors (8), requested
    time (9), user id (12).  Requested processors win over allocated when
    both are present.  The node count is the processor count divided by
    ``cores_per_node``, rounded up.  Jobs with non-positive run time or
    processor count are skipped and counted, as are malformed lines.
    """
    if cores_per_node < 1:
        raise ValueError("cores_per_node must be >= 1")
    jobs: list[JobRecord] = []
    skipped = 0
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith(SWF_COMMENT):
            continue
        parts = line.split()
        if len(parts) < 12:
            skipped += 1
            continue
        try:
            job_id = int(parts[0])
            submit = int(float(parts[1]))
            run_time = int(float(parts[3]))
            alloc_procs = int(float(parts[4]))
            req_procs = int(float(parts[7]))
            req_time = int(float(parts[8]))
            user_id = int(parts[11])
        except ValueError:
            skipped += 1
            continue
        procs = req_procs if req_procs > 0 else alloc_procs
        if run_time <= 0 or procs <= 0:
            skipped += 1
            continue
        nodes = -(-procs // cores_per_node)
        jobs.append(
            make_job(
                job_id,
                user_id,
                submit,
                nodes,
                {"core": procs},
                run_time,
                req_time if req_time > 0 else None,
            )
        )
    return ParsedTrace(jobs, skipped)


def render_swf(jobs: Iterable[JobRecord]) -> str:
    """Render records back to SWF text (18 columns, unknown fields -1)."""
    out = []
    for job in jobs:
        cols = [-1] * 18
        cols[0] = job.job_id
        cols[1] = job.submit
        cols[3] = job.runtime
        cols[4] = job.demand.get("core", -1)
        cols[7] = job.demand.get("core", -1)
        cols[8] = job.requested if job.requested else -1
        cols[11] = job.user_id
        out.append(" ".join(str(c) for c in cols))
    return "\n".join(out) + ("\n" if out else "")


def jobs_to_jsonl(jobs: Iterable[JobRecord]) -> str:
    out = []
    for job in jobs:
        out.append(
            json.dumps(
                {
                    "id": job.job_id,
                    "user": job.user_id,
                    "submit": job.submit,
                    "nodes": job.node_count,
                    "req": job.demand,
                    "runtime": job.runtime,
                    "requested": job.requested,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    return "\n".join(out) + ("\n" if out else "")


def jobs_from_jsonl(text: str) -> list[JobRecord]:
    """Parse JSON-lines records; a line without ``id`` or ``runtime`` is a ValueError."""
    jobs = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        missing = [key for key in ("id", "runtime") if key not in obj]
        if missing:
            raise ValueError(f"trace line {number}: missing {missing[0]!r}")
        jobs.append(
            make_job(
                obj["id"],
                obj.get("user", 0),
                obj.get("submit", 0),
                obj.get("nodes", 1),
                obj.get("req", {}),
                obj["runtime"],
                obj.get("requested"),
            )
        )
    return jobs


def load_trace(path: str | os.PathLike, cores_per_node: int = 16) -> ParsedTrace:
    """Load a trace file, SWF or JSON-lines by extension; only SWF ever skips records."""
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".swf"):
        return parse_swf(text.splitlines(), cores_per_node)
    return ParsedTrace(jobs_from_jsonl(text), 0)


@dataclass
class DurationPredictor:
    """Expected-duration source used at job arrival.

    ``oracle`` returns the real runtime.  ``last2`` averages the user's two
    most recent completed runtimes (rounded up); with one completion it
    returns that runtime, and with none it falls back to the trace-supplied
    requested time and then to ``default_duration``.  History is updated
    only when a job terminates, never when it is dispatched.
    """

    mode: str = ORACLE
    default_duration: int = 3600
    _history: dict[int, deque[int]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in PREDICTOR_MODES:
            raise ValueError(f"unknown predictor mode {self.mode!r}")
        if self.default_duration < 1:
            raise ValueError("default_duration must be >= 1")

    def predict(self, job: JobRecord) -> int:
        if self.mode == ORACLE:
            return max(1, job.runtime)
        past = self._history.get(job.user_id)
        if past:
            value = (sum(past) + len(past) - 1) // len(past)
        elif job.requested:
            value = job.requested
        else:
            value = self.default_duration
        return max(1, value)

    def record_completion(self, user_id: int, runtime: int) -> None:
        history = self._history.setdefault(user_id, deque(maxlen=2))
        history.append(max(1, runtime))


@dataclass(frozen=True)
class TraceSpec:
    """Synthetic trace shape: arrival process plus duration/demand mixes.

    ``node_counts`` is a tuple of (unit count, weight) pairs; runtimes are
    drawn uniformly from the short or long range; demands are per unit.
    """

    jobs: int = 1000
    seed: int = 1
    mean_interarrival: float = 30.0
    short_fraction: float = 0.93
    short_runtime: tuple[int, int] = (30, 3600)
    long_runtime: tuple[int, int] = (3600, 14400)
    node_counts: tuple[tuple[int, float], ...] = ((1, 0.80), (2, 0.15), (4, 0.05))
    unit_cores: tuple[int, int] = (1, 8)
    unit_mem: tuple[int, int] = (1, 8)
    gpu_fraction: float = 0.0
    unit_gpus: tuple[int, int] = (1, 2)
    users: int = 20

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if not 0.0 <= self.short_fraction <= 1.0:
            raise ValueError("short_fraction must lie in [0, 1]")
        if not 0.0 <= self.gpu_fraction <= 1.0:
            raise ValueError("gpu_fraction must lie in [0, 1]")
        if self.users < 1:
            raise ValueError("users must be >= 1")


def spec_from_dict(config: dict) -> TraceSpec:
    """Build a TraceSpec from parsed config text; unknown keys are an error."""
    known = {f.name for f in fields(TraceSpec)}
    unknown = sorted(set(config) - known)
    if unknown:
        raise ValueError(f"unknown trace config keys: {', '.join(unknown)}")
    kwargs = dict(config)
    for key in ("short_runtime", "long_runtime", "unit_cores", "unit_mem", "unit_gpus"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    if "node_counts" in kwargs:
        kwargs["node_counts"] = tuple((int(n), float(w)) for n, w in kwargs["node_counts"])
    return TraceSpec(**kwargs)


def eurora_mix(jobs: int = 1000, seed: int = 1, **overrides) -> TraceSpec:
    """Short-dominated mix resembling a small accelerator cluster's log."""
    base = dict(jobs=jobs, seed=seed, gpu_fraction=0.10, unit_cores=(1, 8), unit_mem=(1, 8))
    base.update(overrides)
    return TraceSpec(**base)


def gpu_scarce_mix(jobs: int = 300, seed: int = 1, **overrides) -> TraceSpec:
    """Mix where half the jobs want GPUs; pairs with GPU-poor systems."""
    base = dict(
        jobs=jobs,
        seed=seed,
        gpu_fraction=0.50,
        unit_gpus=(1, 2),
        unit_cores=(1, 4),
        unit_mem=(1, 4),
        node_counts=((1, 0.85), (2, 0.15)),
    )
    base.update(overrides)
    return TraceSpec(**base)


def generate_trace(spec: TraceSpec) -> list[JobRecord]:
    """Generate a deterministic synthetic trace for the given spec."""
    rng = random.Random(spec.seed)
    counts = [n for n, _ in spec.node_counts]
    weights = [w for _, w in spec.node_counts]
    clock = 0.0
    jobs: list[JobRecord] = []
    for i in range(1, spec.jobs + 1):
        clock += rng.expovariate(1.0 / spec.mean_interarrival)
        if rng.random() < spec.short_fraction:
            runtime = rng.randint(*spec.short_runtime)
        else:
            runtime = rng.randint(*spec.long_runtime)
        nodes = rng.choices(counts, weights)[0]
        demand = {
            "core": nodes * rng.randint(*spec.unit_cores),
            "mem": nodes * rng.randint(*spec.unit_mem),
        }
        if spec.gpu_fraction and rng.random() < spec.gpu_fraction:
            demand["gpu"] = nodes * rng.randint(*spec.unit_gpus)
        jobs.append(
            make_job(i, rng.randint(1, spec.users), int(clock), nodes, demand, runtime)
        )
    return jobs
