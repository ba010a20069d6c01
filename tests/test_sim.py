"""Event-driven simulation loop, metrics, artifacts, and offline replay."""

import csv
import hashlib
import statistics

import pytest

import support
from hpcdispatch import sim
from hpcdispatch.dispatch import DISPATCHERS, DispatchConfig
from hpcdispatch.dispatch import instance as instance_module
from hpcdispatch.dispatch.common import select_window, serial_schedule
from hpcdispatch.dispatch.instance import (
    AllocationEntry,
    DispatchDecision,
    DispatchInstance,
    InvocationStats,
    JobDecision,
    Ledger,
)
from hpcdispatch.dispatch.pcp20 import build_pcp20, make_branch, now_plan
from hpcdispatch.kernel import STATUS_FEASIBLE, STATUS_OPTIMAL
from hpcdispatch.sim import (
    REPLAY_FIELDS,
    SimConfig,
    SimulationError,
    replay_instances,
    run_simulation,
    snapshot_instance,
    write_artifacts,
)
from hpcdispatch.system import preset, validate_allocation
from hpcdispatch.workload import eurora_mix, generate_trace, gpu_scarce_mix, make_job


def one_core():
    return support.system_of((1, {"core": 1}))


def sim_config(**kw):
    dispatch = kw.pop("dispatch", DispatchConfig(budget_ms=10_000, node_limit=None))
    return SimConfig(dispatch=dispatch, **kw)


def two_job_trace():
    return [
        make_job(1, 1, 0, 1, {"core": 1}, 10),
        make_job(2, 2, 0, 1, {"core": 1}, 10),
    ]


# -- the loop ---------------------------------------------------------------------


def test_two_jobs_on_one_core_frozen_metrics():
    result = run_simulation(two_job_trace(), one_core(), sim_config())
    assert not result.dnf
    assert result.final_time == 20
    by_id = {o.job.job_id: o for o in result.outcomes}
    assert (by_id[1].start, by_id[1].end) == (0, 10)
    assert (by_id[2].start, by_id[2].end) == (10, 20)
    assert by_id[1].wait == 0 and by_id[2].wait == 10
    assert by_id[1].slowdown == 1.0 and by_id[2].slowdown == 2.0

    row = result.summary_row()
    assert row["dispatcher"] == "pcp20"
    assert row["avg_slowdown"] == "1.500000"
    assert row["sd_slowdown"] == "0.500000"
    assert row["avg_wait_s"] == "5.000000"
    assert row["sd_wait_s"] == "5.000000"


def test_event_log_tells_the_story():
    result = run_simulation(two_job_trace(), one_core(), sim_config())
    text = "\n".join(result.events)
    assert "t=0 arrive job=1" in text
    assert "t=0 start job=1 wait=0" in text
    assert "t=10 end job=1" in text
    assert "t=10 start job=2 wait=10" in text
    assert "dispatched=1" in text


def test_input_validation():
    with pytest.raises(ValueError):
        run_simulation([], one_core(), sim_config(dispatcher="slurm"))
    with pytest.raises(ValueError):
        run_simulation([], one_core(), sim_config(predictor="psychic"))
    dup = [make_job(1, 1, 0, 1, {"core": 1}, 5), make_job(1, 1, 3, 1, {"core": 1}, 5)]
    with pytest.raises(ValueError):
        run_simulation(dup, one_core(), sim_config())


def test_unfittable_job_rejected_on_arrival():
    trace = [
        make_job(1, 1, 0, 1, {"core": 99}, 10),
        make_job(2, 1, 0, 1, {"core": 1}, 10),
    ]
    result = run_simulation(trace, one_core(), sim_config())
    by_id = {o.job.job_id: o for o in result.outcomes}
    assert result.dnf
    assert by_id[1].dnf_reason == "unfittable"
    assert not by_id[1].completed
    assert by_id[2].completed
    assert any("reject job=1" in line for line in result.events)


def test_strict_kill_truncates_at_predicted_duration():
    trace = [make_job(1, 1, 0, 1, {"core": 1}, 50, requested=5)]
    relaxed = run_simulation(trace, one_core(), sim_config(predictor="last2"))
    assert relaxed.outcomes[0].d_expected == 5
    assert relaxed.outcomes[0].end == 50

    killed = run_simulation(trace, one_core(), sim_config(predictor="last2", strict_kill=True))
    assert killed.outcomes[0].end == 5
    assert killed.outcomes[0].completed


def test_last2_predictions_update_on_completion_only():
    trace = [
        make_job(1, 4, 0, 1, {"core": 1}, 10),
        make_job(2, 4, 100, 1, {"core": 1}, 30),
    ]
    result = run_simulation(trace, one_core(), sim_config(predictor="last2"))
    by_id = {o.job.job_id: o for o in result.outcomes}
    assert by_id[1].d_expected == 3600  # nothing known about the user yet
    assert by_id[2].d_expected == 10  # first completion feeds the history


def test_throttle_delays_the_next_invocation():
    trace = [
        make_job(1, 1, 0, 1, {"core": 1}, 5),
        make_job(2, 1, 10, 1, {"core": 1}, 5),
    ]
    result = run_simulation(trace, one_core(), sim_config(throttle_s=100))
    by_id = {o.job.job_id: o for o in result.outcomes}
    assert by_id[2].start == 100  # held until the throttle window reopens
    assert len(result.invocations) == 2


def test_stalled_queue_gives_up_after_retries():
    def never_dispatch(instance, config):
        return DispatchDecision(stats=InvocationStats(dispatcher="stub-never", t=instance.t))

    DISPATCHERS["stub-never"] = never_dispatch
    try:
        trace = [make_job(1, 1, 0, 1, {"core": 1}, 5)]
        result = run_simulation(trace, one_core(), sim_config(dispatcher="stub-never"))
    finally:
        del DISPATCHERS["stub-never"]
    assert result.dnf
    assert result.dnf_reason == "stalled"
    assert result.outcomes[0].dnf_reason == "stalled"
    assert len(result.invocations) == 51  # the first try plus 50 retries
    assert any("stall retry=50" in line for line in result.events)
    assert result.final_time == 50 * 60  # one retry a minute


def test_overlapping_dispatch_aborts_the_run():
    def pile_on_core_one(instance, config):
        jobs = [
            JobDecision(e.job_id, instance.t, (AllocationEntry(0, "core", 1, 1),))
            for e in instance.queued
        ]
        stats = InvocationStats(dispatcher="stub-pile", t=instance.t)
        return DispatchDecision(jobs=jobs, stats=stats)

    DISPATCHERS["stub-pile"] = pile_on_core_one
    try:
        with pytest.raises(SimulationError, match="double-booking"):
            run_simulation(two_job_trace(), one_core(), sim_config(dispatcher="stub-pile"))
    finally:
        del DISPATCHERS["stub-pile"]


@pytest.mark.parametrize("dispatcher", ["hcp19", "pcp20"])
def test_the_check_reads_running_jobs_not_the_ledger(dispatcher, monkeypatch):
    class Forgetful(Ledger):
        """Shows every held range as free."""

        def occupy(self, run):
            pass

        def release(self, run):
            pass

    monkeypatch.setattr(sim, "Ledger", Forgetful)
    trace = [make_job(1, 1, 0, 1, {"core": 1}, 10), make_job(2, 2, 2, 1, {"core": 1}, 10)]
    # At t=2 the ledger offers job 1's core to job 2, which both place there.
    with pytest.raises(SimulationError, match="double-booking"):
        run_simulation(trace, one_core(), sim_config(dispatcher=dispatcher))


def _twice(t):
    return [
        JobDecision(1, t, (AllocationEntry(0, "core", 1, 1),)),
        JobDecision(1, t, (AllocationEntry(0, "core", 2, 1),)),
    ]


def _not_queued(t):
    return [JobDecision(7, t, (AllocationEntry(0, "core", 1, 1),))]


def _late(t):
    return [JobDecision(1, t + 5, (AllocationEntry(0, "core", 1, 1),))]


MALFORMED = {"repeated-job": _twice, "unknown-job": _not_queued, "late-allocation": _late}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_malformed_decision_aborts_the_run(kind, monkeypatch):
    def stub(instance, config):
        stats = InvocationStats(dispatcher="stub", t=instance.t)
        return DispatchDecision(jobs=MALFORMED[kind](instance.t), stats=stats)

    monkeypatch.setitem(DISPATCHERS, "stub", stub)
    trace = [make_job(1, 1, 0, 1, {"core": 1}, 10)]
    with pytest.raises(SimulationError, match=kind):
        run_simulation(trace, support.system_of((1, {"core": 2})), sim_config(dispatcher="stub"))


def test_each_invocation_checks_its_decision_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return validate_allocation(*args)

    # Wherever the simulator or a dispatcher looks the check up.
    monkeypatch.setattr(sim, "validate_allocation", counted)
    monkeypatch.setattr(instance_module, "validate_allocation", counted)
    result = run_simulation(two_job_trace(), one_core(), sim_config())
    assert len(result.invocations) == 2
    assert len(calls) == len(result.invocations)


def test_wall_cap_aborts_the_run():
    result = run_simulation(two_job_trace(), one_core(), sim_config(wall_cap_s=0.0))
    assert result.dnf
    assert result.dnf_reason == "wall-cap"
    assert result.events[-1].endswith("abort reason=wall-cap")
    assert all(not o.completed for o in result.outcomes)


def test_requeued_jobs_keep_their_arrival_time(tmp_path):
    config = sim_config(dump_dir=tmp_path)
    result = run_simulation(two_job_trace(), one_core(), config)
    assert not result.dnf
    dumps = sorted(tmp_path.glob("instance_*.json"))
    assert [p.name for p in dumps] == ["instance_000001_t0.json", "instance_000002_t10.json"]
    later = DispatchInstance.load(dumps[1])
    # job 2 was passed over at t=0 and is still queued with its original q
    assert [e.job_id for e in later.queued] == [2]
    assert later.queued[0].arrival == 0


def test_snapshot_sorts_by_job_id():
    system = one_core()
    queue = {
        5: support.queued(5, 0, 1, {"core": 1}, 3),
        2: support.queued(2, 0, 1, {"core": 1}, 3),
    }
    snap = snapshot_instance(4, queue, {}, system, Ledger(system), {})
    assert [e.job_id for e in snap.queued] == [2, 5]


# -- artifacts -----------------------------------------------------------------------


def test_artifacts_round_out_the_run(tmp_path):
    result = run_simulation(two_job_trace(), one_core(), sim_config())
    paths = write_artifacts(result, tmp_path)
    assert sorted(paths) == ["events", "invocations", "jobs", "summary"]
    assert all(p.exists() for p in paths.values())

    with paths["jobs"].open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["job_id"] for r in rows] == ["1", "2", "avg", "sd"]
    assert rows[0]["status"] == "completed"
    assert rows[0]["slowdown"] == "1.000000"
    assert rows[2]["slowdown"] == "1.500000"
    assert rows[2]["status"] == "completed=2/2"
    assert rows[3]["wait_s"] == "5.000000"

    with paths["invocations"].open() as fh:
        inv_rows = list(csv.DictReader(fh))
    assert len(inv_rows) == len(result.invocations)
    assert inv_rows[0]["dispatcher"] == "pcp20"

    summary = paths["summary"].read_text().splitlines()
    assert summary[0].startswith("dispatcher,predictor,avg_dispatch_ms")
    assert summary[1].startswith("pcp20,oracle,")


def test_jobs_and_events_are_reproducible(tmp_path):
    # wall-clock timings stay out of jobs.csv and events.log by design
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    write_artifacts(run_simulation(two_job_trace(), one_core(), sim_config()), out_a)
    write_artifacts(run_simulation(two_job_trace(), one_core(), sim_config()), out_b)
    assert (out_a / "jobs.csv").read_bytes() == (out_b / "jobs.csv").read_bytes()
    assert (out_a / "events.log").read_bytes() == (out_b / "events.log").read_bytes()


def test_dnf_jobs_render_with_reason(tmp_path):
    trace = [make_job(1, 1, 0, 1, {"core": 99}, 10)]
    result = run_simulation(trace, one_core(), sim_config())
    paths = write_artifacts(result, tmp_path)
    with paths["jobs"].open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["status"] == "dnf:unfittable"
    assert rows[0]["wait_s"] == ""
    assert rows[1]["status"] == "completed=0/1"


# -- replay ---------------------------------------------------------------------------


def test_replay_compares_model_sizes(tmp_path):
    system = support.system_of((8, {"core": 16, "mem": 16}))
    instance = support.instance_on(
        system, t=100,
        queued_jobs=[
            support.queued(1, submit=60, rn=1, unit_req={"core": 4, "mem": 2}, d_expected=30),
            support.queued(2, submit=90, rn=2, unit_req={"core": 8}, d_expected=60),
        ],
    )
    good = tmp_path / "instance_000001_t100.json"
    instance.dump(good)
    bad = tmp_path / "instance_000000_broken.json"
    bad.write_text("{not json", encoding="utf-8")
    # Readable snapshots that validate rejects are skipped too: the models
    # take running allocations as given and never check them.
    invalid = {
        "overlap": ([], [
            support.running(system, 3, start=80, d_expected=50, placements=[(0, 1, "core", 1, 4)]),
            support.running(system, 4, start=90, d_expected=50, placements=[(0, 1, "core", 3, 4)]),
        ]),
        "range": ([], [
            support.running(system, 3, start=80, d_expected=50, placements=[(0, 8, "core", 16, 4)]),
        ]),
        "arrival": ([support.queued(3, submit=200, rn=1, unit_req={"core": 1}, d_expected=5)], []),
        "unfittable": ([support.queued(3, submit=90, rn=1, unit_req={"core": 17}, d_expected=5)], []),
    }
    paths = [bad, good]
    for label, (queued_jobs, running_jobs) in invalid.items():
        path = tmp_path / f"instance_{label}.json"
        DispatchInstance(t=100, queued=queued_jobs, running=running_jobs, system=system).dump(path)
        paths.append(path)

    rows, notes = replay_instances(paths, DispatchConfig(budget_ms=10_000, node_limit=None))
    assert len(notes) == 5 and "broken" in notes[0]
    kinds = ("double-booking", "out-of-range", "future-arrival", "unfittable")
    for note, kind in zip(notes[1:], kinds):
        assert kind in note
    (row,) = rows
    assert tuple(row) == REPLAY_FIELDS
    assert row["instance"] == "instance_000001_t100"
    # joint model: 2 starts + (1*2 + 2*1) positions
    # replicated model: 2 starts + one flag per requested unit per node (8 + 16)
    assert row["vars_pcp20"] == 6
    assert row["vars_pcp19"] == 26
    assert row["var_ratio"] == f"{6 / 26:.6f}"
    assert row["obj_ratio"] == "1.000000"


# -- golden artifacts -------------------------------------------------------------------

# Decisions must not move when dispatcher code is restructured.  The budget
# never binds, so every digest depends on the node limit alone.  A runs the
# default search; B (a burst of wide jobs) and C (GPU-scarce) cap it at 20
# nodes with a 10-job window and the first-fit rescue, which exercises pcp19
# timeout fallbacks, hcp19 re-iterations and pcp20 searches that the node
# limit stops before their first solution, where the serial schedule stands in.
# D is a burst of wide jobs on the 1173-node preset, where hcp19's best-fit
# placement fails often enough to re-plan (13 times) and roll back claims.
_TIGHT = DispatchConfig(budget_ms=600_000, node_limit=20, window=10, emergency_first_fit=True)
GOLDEN_SCENARIOS = {
    "A": (
        lambda: eurora_mix(jobs=60, seed=7),
        lambda: preset("eurora"),
        DispatchConfig(budget_ms=600_000, node_limit=1500),
    ),
    "B": (
        lambda: eurora_mix(
            jobs=60, seed=11, mean_interarrival=1.0, node_counts=((1, 0.55), (2, 0.30), (4, 0.15))
        ),
        lambda: preset("eurora"),
        _TIGHT,
    ),
    "C": (
        lambda: gpu_scarce_mix(jobs=60, seed=7, mean_interarrival=45.0),
        lambda: support.system_of(
            (12, {"core": 16, "mem": 16}), (4, {"core": 16, "mem": 16, "gpu": 2})
        ),
        _TIGHT,
    ),
    "D": (
        lambda: eurora_mix(
            jobs=60, seed=7, mean_interarrival=1.0, unit_cores=(12, 20), unit_mem=(8, 64),
            node_counts=((1, 0.5), (4, 0.3), (16, 0.2)), gpu_fraction=0.2, unit_gpus=(1, 4),
        ),
        lambda: preset("kit-forhlr2"),
        DispatchConfig(budget_ms=600_000, node_limit=1500),
    ),
}
# E is C under the last2 predictor, which leaves jobs running past their
# expected end: it pins the t + 1 release floor of every model.
GOLDEN_SCENARIOS["E"] = GOLDEN_SCENARIOS["C"]
GOLDEN_PREDICTORS = {"E": "last2"}
# sha256 prefixes of (jobs.csv + events.log, invocations.csv without wall_ms)
# hcp19 and pcp20 decide a window that fits now without search, so their
# invocations.csv rows read 0 decisions and 0 propagations there; the plan
# is the decision search reached, so no decisions half moved with that.
GOLDEN_DIGESTS = {
    ("A", "pcp20"): ("a2a537b562427c83", "8526abe7b9a6a766"),
    ("A", "pcp19"): ("a370a73da0c6a5c4", "e7e3696199c00cfa"),
    ("A", "hcp19"): ("a2a537b562427c83", "b1ef331f4a6ba546"),
    ("B", "pcp20"): ("a357b607e5c097a6", "02adb9aab9d128d4"),
    ("B", "pcp19"): ("1287b1bf946cbb4e", "8207d664d9020e56"),
    ("B", "hcp19"): ("f857cd799fad88a0", "0d8a05cf986c0df7"),
    ("C", "pcp20"): ("d83d09c55c887268", "b42648c76a74f3b4"),
    ("C", "pcp19"): ("98efbb75715a0672", "05aa923ef0033564"),
    ("C", "hcp19"): ("baba7ee83795b97c", "127d03edc6ca0ca4"),
    ("D", "hcp19"): ("a2814ee2c0bc1320", "24d7a2dc0eef096f"),
    ("E", "pcp20"): ("043ecafe89371262", "2fd14b1921a75a05"),
    ("E", "pcp19"): ("2306de6245a99593", "80bde0c7a4e026af"),
    ("E", "hcp19"): ("515ddbbc5c217934", "7aca837e9dc6b1f0"),
}


@pytest.mark.parametrize("scenario, dispatcher", sorted(GOLDEN_DIGESTS))
def test_golden_artifacts(scenario, dispatcher, tmp_path):
    spec, system, dispatch = GOLDEN_SCENARIOS[scenario]
    predictor = GOLDEN_PREDICTORS.get(scenario, "oracle")
    config = SimConfig(dispatcher=dispatcher, predictor=predictor, dispatch=dispatch)
    result = run_simulation(generate_trace(spec()), system(), config)
    paths = write_artifacts(result, tmp_path)
    decisions = hashlib.sha256(paths["jobs"].read_bytes() + paths["events"].read_bytes())
    with paths["invocations"].open(newline="") as fh:
        rows = list(csv.reader(fh))
    timing = rows[0].index("wall_ms")
    untimed = "\n".join(",".join(c for i, c in enumerate(row) if i != timing) for row in rows)
    stats = hashlib.sha256(untimed.encode())
    assert (decisions.hexdigest()[:16], stats.hexdigest()[:16]) == GOLDEN_DIGESTS[
        (scenario, dispatcher)
    ]


# -- the simulator's ledger ---------------------------------------------------------------


def ledger_state(ledger, t):
    """Everything a dispatcher can read of a ledger at t, as plain values.

    Copied, since ``releases`` may hand out the ledger's own lists.
    """
    return (
        {r: bytes(mask) for r, mask in ledger.free.items()},
        dict(ledger.used),
        {r: list(ledger.releases(r, t)) for r in ledger.held},
        list(ledger.ends),
        ledger.ends_total,
        {r: list(ends) for r, ends in ledger.held_ends.items()},
    )


def rebuilt_state(instance):
    """``ledger_state`` rebuilt from the running allocations, without a Ledger."""
    system, t = instance.system, instance.t
    free = {r: bytearray(b"\1") * system.total_capacity[r] for r in system.resources}
    used = dict.fromkeys(system.resources, 0)
    held = {r: [] for r in system.resources}
    held_ends = {r: [] for r in system.resources}
    ends = []
    for run in instance.running:
        end = run.start + run.d_expected
        ends.append(end)
        for a in run.allocation:
            free[a.resource][a.position - 1 : a.position - 1 + a.extent] = bytes(a.extent)
            used[a.resource] += a.extent
            held[a.resource].append((a.position, a.position + a.extent - 1, max(end, t + 1)))
            held_ends[a.resource].append(end)
    sorted_held = {r: sorted(h) for r, h in held.items()}
    sorted_held_ends = {r: sorted(e) for r, e in held_ends.items()}
    masks = {r: bytes(m) for r, m in free.items()}
    return masks, used, sorted_held, sorted(ends), sum(ends), sorted_held_ends


def watch(monkeypatch, dispatcher, check):
    """Call ``check(instance, decide)`` at each invocation; decide() runs the dispatcher."""
    inner = DISPATCHERS[dispatcher]

    def watched(instance, config):
        return check(instance, lambda: inner(instance, config))

    monkeypatch.setitem(DISPATCHERS, dispatcher, watched)


_LEDGER_RUNS = [
    *((d, "oracle", False) for d in sorted(DISPATCHERS)),
    *((d, "last2", False) for d in sorted(DISPATCHERS)),
    ("pcp20", "last2", True),
]


@pytest.mark.parametrize("dispatcher, predictor, strict_kill", _LEDGER_RUNS)
def test_snapshot_ledger_equals_a_rebuild(dispatcher, predictor, strict_kill, monkeypatch):
    seen = {"invocations": 0, "overdue": 0}

    def check(instance, decide):
        assert ledger_state(instance.ledger, instance.t) == rebuilt_state(instance)
        seen["invocations"] += 1
        t = instance.t
        seen["overdue"] += any(run.start + run.d_expected <= t for run in instance.running)
        return decide()

    watch(monkeypatch, dispatcher, check)
    spec, system, dispatch = GOLDEN_SCENARIOS["C"]
    config = SimConfig(dispatcher, predictor, dispatch, strict_kill=strict_kill)
    result = run_simulation(generate_trace(spec()), system(), config)
    assert not result.dnf and seen["invocations"] == len(result.invocations) > 100
    # Only a job running past its prediction takes the t + 1 release floor;
    # a strict kill ends every job by then.
    assert (seen["overdue"] > 0) == (predictor == "last2" and not strict_kill)


@pytest.mark.parametrize("dispatcher", sorted(DISPATCHERS))
def test_snapshot_node_index_equals_a_rebuild(dispatcher, monkeypatch):
    seen = []

    def check(instance, decide):
        # The simulator hands over the index it keeps; it is not built here.
        assert "node_jobs" in vars(instance)
        system, rebuilt = instance.system, {}
        for run in instance.running:
            for a in run.allocation:
                node = system.owner[a.resource][a.position - 1]
                rebuilt.setdefault(node, {})[run.job_id] = run
        assert instance.node_jobs == rebuilt
        seen.append(len(rebuilt))
        return decide()

    watch(monkeypatch, dispatcher, check)
    spec, system, dispatch = GOLDEN_SCENARIOS["C"]
    config = SimConfig(dispatcher=dispatcher, dispatch=dispatch)
    result = run_simulation(generate_trace(spec()), system(), config)
    assert not result.dnf and len(seen) == len(result.invocations) > 100
    assert max(seen) > 1


def test_dispatchers_leave_the_ledger_untouched(monkeypatch):
    def check(instance, decide):
        before = ledger_state(instance.ledger, instance.t)
        decision = decide()
        assert ledger_state(instance.ledger, instance.t) == before
        return decision

    for dispatcher in DISPATCHERS:
        watch(monkeypatch, dispatcher, check)
    stats = {}
    for scenario in "AC":
        spec, system, dispatch = GOLDEN_SCENARIOS[scenario]
        for dispatcher in sorted(DISPATCHERS):
            config = SimConfig(dispatcher=dispatcher, dispatch=dispatch)
            result = run_simulation(generate_trace(spec()), system(), config)
            stats[scenario, dispatcher] = result.invocations
    # The runs take every path that copies the ledger into a FreeRuns:
    # pcp20 places jobs that all fit now, and in C its serial schedule
    # stands in for search and holds jobs back past t, so its sweep frees
    # held ranges on its copy.
    assert sum(s.realloc_iterations for s in stats["C", "hcp19"]) > 0
    assert sum(s.deferred for s in stats["A", "pcp19"]) > 0
    assert any(s.fallback and s.dispatched for s in stats["C", "pcp19"])  # the first-fit rescue
    assert any(s.status == "optimal" and s.decisions == 0 for s in stats["A", "pcp20"])
    stood_in = [s for s in stats["C", "pcp20"] if s.status == "feasible" and s.improvements == 0]
    assert any(s.dispatched < s.window_size for s in stood_in)


@pytest.mark.parametrize("dispatcher", sorted(DISPATCHERS))
def test_dumped_snapshots_decide_as_in_the_run(dispatcher, monkeypatch, tmp_path):
    """Loaded snapshots build their own ledger, and decide as the run did."""
    decided = []

    def check(instance, decide):
        decision = decide()
        decided.append(decision)
        return decision

    watch(monkeypatch, dispatcher, check)
    spec, system, dispatch = GOLDEN_SCENARIOS["C"]
    config = SimConfig(dispatcher=dispatcher, dispatch=dispatch, dump_dir=tmp_path)
    run_simulation(generate_trace(spec()), system(), config)
    monkeypatch.undo()
    dumps = sorted(tmp_path.glob("instance_*.json"))
    assert len(dumps) == len(decided) > 100

    def untimed(decision):
        row = decision.stats.as_row()
        del row["wall_ms"]
        return decision.jobs, row

    for path, in_run in zip(dumps, decided):
        offline = DISPATCHERS[dispatcher](DispatchInstance.load(path), dispatch)
        assert untimed(offline) == untimed(in_run), path.name


# -- what stands in for pcp20's search -------------------------------------------------

# Gate check 5's oversubscribed burst, at a node limit and with no wall budget,
# so that every decision depends on the node limit alone.
BURST = (
    lambda: eurora_mix(
        jobs=160, seed=11, mean_interarrival=1.0, node_counts=((1, 0.55), (2, 0.30), (4, 0.15))
    ),
    lambda: preset("eurora"),
    DispatchConfig(budget_ms=600_000, node_limit=300, window=25),
)


def plan_values(handle, plan):
    """A plan as values of the model's variables: each job's start, and each
    unit's position on each resource."""
    values = {}
    for jv, (start, allocation) in zip(handle.jobs, plan):
        values[jv.start] = start
        position = {(a.resource, a.unit): a.position for a in allocation}
        for res, unit, yvar, _q in jv.positions:
            values[yvar] = position[res, unit]
    return values


def checked_pcp20_run(scenario, predictor, monkeypatch):
    """Run pcp20 and check, at every invocation, what stands in for search.

    The serial schedule, assigned to a fresh model, must survive root
    propagation, so a decision it stands in for is a model solution.  Where
    every window job fits now, ``now_plan`` must equal what search alone
    reaches on a fresh model, so deciding without search changes no
    decision.  Returns the result and the counts and times t of what was
    seen."""
    spec, system, dispatch = scenario
    seen = {"failed": [], "differs": [], "now": 0, "waited": 0}

    def check(instance, decide):
        window = select_window(instance, dispatch)
        plan = serial_schedule(instance, window)
        seen["waited"] += any(start > instance.t for start, _ in plan)
        handle = build_pcp20(instance, window)
        values = plan_values(handle, plan)
        solver = handle.solver
        if not (all(var.assign(values[var]) for var in solver.vars) and solver.propagate_all()):
            seen["failed"].append(instance.t)
        now = now_plan(instance, window)
        if now is not None:
            seen["now"] += 1
            handle = build_pcp20(instance, window)
            result = handle.solver.solve(make_branch(handle), node_limit=dispatch.node_limit)
            if (result.status, result.values) != (STATUS_OPTIMAL, plan_values(handle, now)):
                seen["differs"].append(instance.t)
        return decide()

    watch(monkeypatch, "pcp20", check)
    config = SimConfig(dispatcher="pcp20", predictor=predictor, dispatch=dispatch)
    return run_simulation(generate_trace(spec()), system(), config), seen


# A cut of gate check 6's trace: half the jobs want gpus, which a quarter of
# the nodes hold, so the schedule places units on two node classes.
GPU_SCARCE = (
    lambda: gpu_scarce_mix(jobs=120, seed=7, mean_interarrival=45.0),
    lambda: support.system_of(
        (48, {"core": 16, "mem": 16}), (16, {"core": 16, "mem": 16, "gpu": 2})
    ),
    DispatchConfig(budget_ms=600_000, node_limit=500, window=40, emergency_first_fit=True),
)


@pytest.fixture(scope="module")
def burst_run():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return checked_pcp20_run(BURST, "oracle", monkeypatch)


@pytest.mark.parametrize("scenario", ["A", "B", "C", "E"])
def test_what_stands_in_for_pcp20_search_solves_the_model(scenario, monkeypatch):
    """So an ``optimal`` without search rests on a model solution."""
    predictor = GOLDEN_PREDICTORS.get(scenario, "oracle")
    result, seen = checked_pcp20_run(GOLDEN_SCENARIOS[scenario], predictor, monkeypatch)
    assert not result.dnf and len(result.invocations) > 10 and seen["now"] > 5
    assert (seen["failed"], seen["differs"]) == ([], [])


def test_what_stands_in_for_pcp20_search_solves_the_model_on_the_burst(burst_run):
    result, seen = burst_run
    assert not result.dnf and len(result.invocations) > 100 and seen["now"] > 10
    assert (seen["failed"], seen["differs"]) == ([], [])


def test_what_stands_in_for_pcp20_search_solves_the_model_on_gpu_scarce_nodes(monkeypatch):
    result, seen = checked_pcp20_run(GPU_SCARCE, "oracle", monkeypatch)
    assert not result.dnf and len(result.invocations) > 100 and seen["now"] > 10
    assert seen["waited"] > 10  # schedules that reserve cells for a later start
    assert (seen["failed"], seen["differs"]) == ([], [])


def test_pcp20_decides_every_burst_invocation(burst_run):
    # Without the serial schedule, 36.5 % of these invocations found no
    # incumbent within the node limit and fell back.
    result, _ = burst_run
    stats = result.invocations
    assert all(s.status in (STATUS_OPTIMAL, STATUS_FEASIBLE) for s in stats)
    assert not any(s.fallback for s in stats)
    assert any(s.status == STATUS_FEASIBLE and s.improvements == 0 for s in stats)  # the schedule
    assert all(outcome.completed for outcome in result.outcomes)
    # The bound the serial schedule alone reaches on this burst.
    assert round(statistics.fmean(o.slowdown for o in result.completed()), 3) <= 1.082
