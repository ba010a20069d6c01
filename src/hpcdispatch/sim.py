"""Trace-driven event simulation of an HPC system under a dispatcher.

The loop is a plain discrete-event simulation: completions and arrivals
advance the clock, and whenever an event batch leaves the queue non-empty
the chosen dispatcher is invoked on a snapshot of the current state.  The
time a dispatcher spends deciding is measured but never added to the
simulated clock, so prediction quality and solver speed influence only
the decisions themselves, not the physics of the replay.

The loop keeps one ``Ledger`` of what the running jobs hold, updated at
each start and END in the job's own entries, and gives it to every
snapshot, so no dispatcher rebuilds the per-resource occupancy from the
running allocations.  The ledger is valid only at the snapshot's instant,
and dispatchers only read it.

Every invocation's decision is checked once, here, before it is applied
(``DispatchDecision.violations``): each dispatched job must be queued,
dispatched once and start now, and its allocation must be disjoint from
the running jobs' allocations at that instant.  The check reads the
running allocations, never the ledger, so a ledger fault shows up as a
rejected decision instead of being shared by dispatcher and check.  It
reads only those of the running jobs on the nodes a decision claims: the
loop keeps a node index beside ``running`` (node to the running jobs
holding a cell there), updated at each start and END from that job's
allocation, and gives it to every snapshot as ``node_jobs``.  A
violation aborts the run, because it can only mean a dispatcher produced
an unsound decision; no dispatcher replaces such a decision with a
fallback.
"""

from __future__ import annotations

import heapq
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from hpcdispatch.dispatch import DISPATCHERS, DispatchConfig
from hpcdispatch.dispatch.instance import (
    DispatchInstance,
    InvocationStats,
    Ledger,
    QueuedJob,
    RunningJob,
    fits_system,
    run_nodes,
)
from hpcdispatch.system import (
    SystemModel,
    validate_allocation,  # noqa: F401 -- a bench/run.py:install_spans hook
    validate_mutual,  # noqa: F401 -- a bench/run.py:install_spans hook
)
from hpcdispatch.workload import PREDICTOR_MODES, DurationPredictor, JobRecord, index_jobs

_END, _ARRIVE, _RETRY = 0, 1, 2  # tie order at equal times: free resources first
# A queue that nothing can wake is retried this often, this many times.
RETRY_INTERVAL_S = 60
MAX_STALL_RETRIES = 50


class SimulationError(RuntimeError):
    """An internal consistency check failed; indicates a dispatcher bug."""


@dataclass
class SimConfig:
    dispatcher: str = "pcp20"
    predictor: str = "oracle"
    dispatch: DispatchConfig = field(default_factory=DispatchConfig)
    throttle_s: int = 0
    strict_kill: bool = False
    wall_cap_s: float | None = None
    dump_dir: str | Path | None = None


@dataclass
class JobOutcome:
    job: JobRecord
    d_expected: int | None = None
    start: int | None = None
    end: int | None = None
    completed: bool = False
    dnf_reason: str = ""

    @property
    def wait(self) -> int | None:
        if self.start is None:
            return None
        return self.start - self.job.submit

    @property
    def slowdown(self) -> float | None:
        if self.wait is None:
            return None
        return (self.wait + self.job.runtime) / self.job.runtime


@dataclass
class SimResult:
    dispatcher: str
    predictor: str
    outcomes: list[JobOutcome]
    invocations: list[InvocationStats]
    events: list[str]
    total_sim_s: float = 0.0
    final_time: int = 0
    dnf: bool = False
    dnf_reason: str = ""

    def completed(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if o.completed]

    @property
    def avg_dispatch_ms(self) -> float:
        if not self.invocations:
            return 0.0
        return sum(s.wall_ms for s in self.invocations) / len(self.invocations)

    def _stat(self, values: list[float]) -> tuple[float, float]:
        if not values:
            return 0.0, 0.0
        return statistics.fmean(values), statistics.pstdev(values)

    def summary_row(self) -> dict:
        done = self.completed()
        avg_sd, sd_sd = self._stat([o.slowdown for o in done])
        avg_w, sd_w = self._stat([float(o.wait) for o in done])
        return {
            "dispatcher": self.dispatcher,
            "predictor": self.predictor,
            "avg_dispatch_ms": f"{self.avg_dispatch_ms:.3f}",
            "total_sim_s": f"{self.total_sim_s:.3f}",
            "avg_slowdown": f"{avg_sd:.6f}",
            "sd_slowdown": f"{sd_sd:.6f}",
            "avg_wait_s": f"{avg_w:.6f}",
            "sd_wait_s": f"{sd_w:.6f}",
        }


def snapshot_instance(
    t: int,
    queue: dict[int, QueuedJob],
    running: dict[int, RunningJob],
    system: SystemModel,
    ledger: Ledger,
    node_jobs: dict[int, dict[int, RunningJob]],
) -> DispatchInstance:
    """The dispatcher's view at t; ``ledger`` and ``node_jobs`` index ``running``.

    The queue is in job id order; ``running`` keeps its own order, which
    nothing reads.
    """
    instance = DispatchInstance(
        t=t,
        queued=sorted(queue.values(), key=lambda e: e.job_id),
        running=list(running.values()),
        system=system,
    )
    instance.ledger = ledger
    instance.node_jobs = node_jobs
    return instance


def run_simulation(
    trace: list[JobRecord], system: SystemModel, config: SimConfig
) -> SimResult:
    if config.dispatcher not in DISPATCHERS:
        raise ValueError(f"unknown dispatcher {config.dispatcher!r}")
    if config.predictor not in PREDICTOR_MODES:
        raise ValueError(f"unknown predictor {config.predictor!r}")
    dispatch_fn = DISPATCHERS[config.dispatcher]
    predictor = DurationPredictor(mode=config.predictor)
    dump_dir = Path(config.dump_dir) if config.dump_dir else None
    if dump_dir:
        dump_dir.mkdir(parents=True, exist_ok=True)

    by_id = index_jobs(trace)

    result = SimResult(
        dispatcher=config.dispatcher,
        predictor=config.predictor,
        outcomes=[],
        invocations=[],
        events=[],
    )
    outcomes = {job_id: JobOutcome(job=job) for job_id, job in by_id.items()}
    result.outcomes = [outcomes[jid] for jid in sorted(outcomes)]
    log = result.events.append

    heap: list[tuple[int, int, int]] = [
        (job.submit, _ARRIVE, job.job_id) for job in trace
    ]
    heapq.heapify(heap)
    queue: dict[int, QueuedJob] = {}
    running: dict[int, RunningJob] = {}
    # What ``running`` holds, and where, kept at each start and END.
    ledger = Ledger(system)
    node_jobs: dict[int, dict[int, RunningJob]] = {}

    wall_start = time.perf_counter()
    stall_retries = 0
    retry_pending = False
    last_dispatch_t: int | None = None
    seq = 0
    t = 0

    def mark_dnf(reason: str) -> None:
        result.dnf = True
        if not result.dnf_reason:
            result.dnf_reason = reason
        for outcome in result.outcomes:
            if not outcome.completed and not outcome.dnf_reason:
                outcome.dnf_reason = reason

    while heap:
        if (
            config.wall_cap_s is not None
            and time.perf_counter() - wall_start > config.wall_cap_s
        ):
            mark_dnf("wall-cap")
            log(f"t={t} abort reason=wall-cap")
            break
        t = heap[0][0]
        progressed = False
        retry_due = False
        while heap and heap[0][0] == t:
            _, kind, jid = heapq.heappop(heap)
            if kind == _END:
                # A job's END event is queued at the time it ends.
                run = running.pop(jid)
                ledger.release(run)
                for node in run_nodes(system, run):
                    holders = node_jobs[node]
                    del holders[jid]
                    if not holders:
                        del node_jobs[node]
                outcome = outcomes[jid]
                outcome.end = t
                outcome.completed = True
                predictor.record_completion(run.job.user_id, t - run.start)
                log(f"t={t} end job={jid}")
                progressed = True
            elif kind == _ARRIVE:
                job = by_id[jid]
                d_expected = predictor.predict(job)
                outcome = outcomes[jid]
                outcome.d_expected = d_expected
                entry = QueuedJob(job=job, d_expected=d_expected)
                if not fits_system(system, entry):
                    outcome.dnf_reason = "unfittable"
                    result.dnf = True
                    log(f"t={t} reject job={jid} reason=unfittable")
                else:
                    queue[jid] = entry
                    log(
                        f"t={t} arrive job={jid} user={job.user_id} nodes={job.node_count}"
                        f" d_expected={d_expected} d_real={job.runtime}"
                    )
                progressed = True
            else:
                retry_pending = False
                retry_due = True

        if not queue or not (progressed or retry_due):
            continue
        if (
            config.throttle_s > 0
            and last_dispatch_t is not None
            and t - last_dispatch_t < config.throttle_s
        ):
            wake = last_dispatch_t + config.throttle_s
            if not retry_pending:
                heapq.heappush(heap, (wake, _RETRY, 0))
                retry_pending = True
            continue

        instance = snapshot_instance(t, queue, running, system, ledger, node_jobs)
        seq += 1
        if dump_dir:
            instance.dump(dump_dir / f"instance_{seq:06d}_t{t}.json")
        decision = dispatch_fn(instance, config.dispatch)
        last_dispatch_t = t
        result.invocations.append(decision.stats)
        problems = decision.violations(instance)
        if problems:
            detail = "; ".join(str(p) for p in problems[:5])
            raise SimulationError(
                f"dispatcher {config.dispatcher} produced an invalid decision at t={t}: {detail}"
            )
        dispatched = decision.dispatched()
        for jd in dispatched:
            entry = queue.pop(jd.job_id)
            duration = entry.job.runtime
            if config.strict_kill:
                duration = min(duration, entry.d_expected)
            run = running[jd.job_id] = RunningJob(
                job=entry.job,
                start=t,
                d_expected=entry.d_expected,
                allocation=jd.allocation,
            )
            ledger.occupy(run)
            for node in run_nodes(system, run):
                node_jobs.setdefault(node, {})[jd.job_id] = run
            outcomes[jd.job_id].start = t
            heapq.heappush(heap, (t + duration, _END, jd.job_id))
            log(f"t={t} start job={jd.job_id} wait={t - entry.job.submit}")
        log(
            f"t={t} dispatch queued={len(instance.queued)} window={decision.stats.window_size}"
            f" dispatched={len(dispatched)} fallback={int(decision.stats.fallback)}"
        )

        if dispatched:
            stall_retries = 0
        if queue and not heap:
            # Nothing left to wake the loop: retry on a timer, give up eventually.
            if stall_retries < MAX_STALL_RETRIES:
                stall_retries += 1
                heapq.heappush(heap, (t + RETRY_INTERVAL_S, _RETRY, 0))
                retry_pending = True
                log(f"t={t} stall retry={stall_retries}")
            else:
                for jid in sorted(queue):
                    outcomes[jid].dnf_reason = "stalled"
                    log(f"t={t} dnf job={jid} reason=stalled")
                queue.clear()
                result.dnf = True
                result.dnf_reason = result.dnf_reason or "stalled"

    result.final_time = t
    result.total_sim_s = time.perf_counter() - wall_start
    if any(not o.completed for o in result.outcomes):
        result.dnf = True
        result.dnf_reason = result.dnf_reason or "incomplete"
    return result


# -- artifacts ---------------------------------------------------------------


def write_artifacts(result: SimResult, out_dir: str | Path) -> dict[str, Path]:
    """Write jobs.csv, invocations.csv, events.log, summary.csv.

    jobs.csv and events.log contain no wall-clock measurements, so two runs
    with identical inputs produce byte-identical files; the timing aggregates
    live in summary.csv and invocations.csv.
    """
    import csv

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "jobs": out / "jobs.csv",
        "invocations": out / "invocations.csv",
        "events": out / "events.log",
        "summary": out / "summary.csv",
    }
    summary = result.summary_row()

    job_fields = (
        "job_id",
        "user",
        "submit",
        "nodes",
        "d_expected",
        "d_real",
        "start",
        "end",
        "wait_s",
        "slowdown",
        "status",
    )
    with paths["jobs"].open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=job_fields, restval="")
        writer.writeheader()
        for o in result.outcomes:
            if o.completed:
                status = "completed"
            elif o.dnf_reason:
                status = f"dnf:{o.dnf_reason}"
            else:
                status = "pending"
            writer.writerow(
                {
                    "job_id": o.job.job_id,
                    "user": o.job.user_id,
                    "submit": o.job.submit,
                    "nodes": o.job.node_count,
                    "d_expected": "" if o.d_expected is None else o.d_expected,
                    "d_real": o.job.runtime,
                    "start": "" if o.start is None else o.start,
                    "end": "" if o.end is None else o.end,
                    "wait_s": "" if o.wait is None else o.wait,
                    "slowdown": "" if o.slowdown is None else f"{o.slowdown:.6f}",
                    "status": status,
                }
            )
        writer.writerow(
            {
                "job_id": "avg",
                "wait_s": summary["avg_wait_s"],
                "slowdown": summary["avg_slowdown"],
                "status": f"completed={len(result.completed())}/{len(result.outcomes)}",
            }
        )
        sd_row = {"job_id": "sd", "wait_s": summary["sd_wait_s"], "slowdown": summary["sd_slowdown"]}
        writer.writerow(sd_row)

    with paths["invocations"].open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=InvocationStats.CSV_FIELDS)
        writer.writeheader()
        for stats in result.invocations:
            writer.writerow(stats.as_row())

    paths["events"].write_text("\n".join(result.events) + "\n", encoding="utf-8")

    with paths["summary"].open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(summary))
        writer.writeheader()
        writer.writerow(summary)

    return paths


# -- offline instance replay --------------------------------------------------


def replay_instances(
    paths: list[Path], config: DispatchConfig | None = None
) -> tuple[list[dict], list[str]]:
    """Solve each saved instance with both joint dispatchers; emit ratio rows.

    Returns (rows, notes); unreadable or invalid instances are noted and skipped.
    """
    from hpcdispatch.dispatch.pcp19 import build_and_solve_pcp19
    from hpcdispatch.dispatch.pcp20 import solve_pcp20

    config = config or DispatchConfig()
    rows: list[dict] = []
    notes: list[str] = []
    for path in paths:
        try:
            instance = DispatchInstance.load(path)
        except (OSError, ValueError) as exc:
            notes.append(f"skipped {path}: {exc}")
            continue
        problems = instance.validate()
        if problems:
            notes.append(f"skipped {path}: {'; '.join(map(str, problems))}")
            continue
        d20 = solve_pcp20(instance, config)
        d19 = build_and_solve_pcp19(instance, config)
        s20, s19 = d20.stats, d19.stats
        row = {
            "instance": Path(path).stem,
            "vars_pcp20": s20.n_vars,
            "vars_pcp19": s19.n_vars,
            "var_ratio": f"{s20.n_vars / s19.n_vars:.6f}" if s19.n_vars else "",
            "time_pcp20_ms": f"{s20.wall_ms:.3f}",
            "time_pcp19_ms": f"{s19.wall_ms:.3f}",
            "time_ratio": f"{s20.wall_ms / s19.wall_ms:.6f}" if s19.wall_ms else "",
            "obj_ratio": (
                f"{s20.objective / s19.objective:.6f}"
                if s20.objective and s19.objective
                else ""
            ),
        }
        rows.append(row)
    return rows, notes


REPLAY_FIELDS = (
    "instance",
    "vars_pcp20",
    "vars_pcp19",
    "var_ratio",
    "time_pcp20_ms",
    "time_pcp19_ms",
    "time_ratio",
    "obj_ratio",
)
