"""The benchmark's workloads: a trace recipe, a system and a dispatch config.

Every workload fixes the search effort with a node limit and gives the
dispatcher a wall budget that never binds, so decisions (and therefore
quality, fallbacks and the artifacts) repeat exactly whatever the machine
load; wall time then measures only the program.  The trace is generated
from the seed the benchmark is given; nothing else varies between seeds.
"""

from __future__ import annotations

import dataclasses
import heapq
import random
from dataclasses import dataclass
from typing import Callable

from hpcdispatch.dispatch import DispatchConfig
from hpcdispatch.workload import JobRecord, TraceSpec, eurora_mix, generate_trace

# Ten minutes per invocation: far above the slowest invocation seen (well
# under one second), so only the node limit ever stops a search.
NEVER_BINDS_MS = 600_000.0


@dataclass(frozen=True)
class Workload:
    name: str
    system: str
    dispatcher: str
    spec: Callable[[int], TraceSpec]
    dispatch: DispatchConfig
    default_seed: int
    held_out_seed: int
    # Closed-loop users (0: keep the spec's open-loop arrivals) and the
    # spacing of their first submissions.
    clients: int = 0
    stagger_s: int = 0

    def trace(self, seed: int) -> list[JobRecord]:
        jobs = stratified_trace(self.spec(seed))
        if self.clients:
            jobs = closed_loop(jobs, self.clients, self.stagger_s)
        return jobs


def stratified_trace(spec: TraceSpec) -> list[JobRecord]:
    """``generate_trace`` with the unit-count and short/long mix made exact.

    Each (unit count, short or long) stratum gets its expected share of
    ``spec.jobs`` (largest remainder) and is generated separately; the jobs
    are then shuffled by the seed and renumbered.  Everything else about a
    job (runtime, demand, GPUs, user) stays random.  Fixing the mix keeps
    the cost of a replay from swinging with how many 16-unit or 4-hour jobs
    a seed happens to draw.  Arrival times are those ``generate_trace``
    gives the whole spec.
    """
    strata = [
        (units, short, weight * (spec.short_fraction if short else 1.0 - spec.short_fraction))
        for units, weight in spec.node_counts
        for short in (True, False)
    ]
    total = sum(share for _, _, share in strata)
    exact = [spec.jobs * share / total for _, _, share in strata]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[: spec.jobs - sum(counts)]:
        counts[i] += 1
    rng = random.Random(spec.seed)
    jobs: list[JobRecord] = []
    for (units, short, _), count in zip(strata, counts):
        if count:
            part = dataclasses.replace(
                spec,
                jobs=count,
                seed=rng.getrandbits(32),
                node_counts=((units, 1.0),),
                short_fraction=1.0 if short else 0.0,
            )
            jobs.extend(generate_trace(part))
    rng.shuffle(jobs)
    arrivals = [job.submit for job in generate_trace(spec)]
    return [
        dataclasses.replace(job, job_id=i, submit=submit)
        for i, (job, submit) in enumerate(zip(jobs, arrivals), 1)
    ]


def closed_loop(jobs: list[JobRecord], clients: int, stagger_s: int) -> list[JobRecord]:
    """Re-time submissions as a closed loop of ``clients`` users.

    Client ``c`` submits its first job at ``c * stagger_s``; every later
    job goes to the client that frees up first, the moment its previous job
    would end had it started on arrival.  When nothing waits, exactly
    ``clients`` jobs run at once after the ramp, whatever the seed drew.
    """
    ready = [(c * stagger_s, c) for c in range(clients)]
    timed = []
    for job in jobs:
        submit, client = heapq.heappop(ready)
        timed.append(dataclasses.replace(job, submit=submit))
        heapq.heappush(ready, (submit + job.runtime, client))
    return timed


# Why each workload exists, and what it should and should not move, is in
# README.md next to this file.


def _steady(seed: int) -> TraceSpec:
    return eurora_mix(jobs=120, seed=seed)


def _large(seed: int) -> TraceSpec:
    return TraceSpec(
        jobs=110,
        seed=seed,
        node_counts=((1, 0.7), (2, 0.1), (4, 0.2)),
        unit_cores=(1, 20),
        unit_mem=(1, 64),
        gpu_fraction=0.05,
        unit_gpus=(1, 4),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="steady-pcp20",
            system="eurora",
            dispatcher="pcp20",
            spec=_steady,
            dispatch=DispatchConfig(budget_ms=NEVER_BINDS_MS, node_limit=1500),
            default_seed=42,
            held_out_seed=4242,
            clients=30,
            stagger_s=38,
        ),
        Workload(
            name="large-hcp19",
            system="kit-forhlr2",
            dispatcher="hcp19",
            spec=_large,
            dispatch=DispatchConfig(budget_ms=NEVER_BINDS_MS, node_limit=1500),
            default_seed=42,
            held_out_seed=4242,
            clients=25,
            stagger_s=46,
        ),
    )
}
