"""Event-driven simulation loop, metrics, artifacts, and offline replay."""

import csv
import hashlib

import pytest

import support
from hpcdispatch.dispatch import DISPATCHERS, DispatchConfig
from hpcdispatch.dispatch.instance import (
    AllocationEntry,
    DispatchDecision,
    DispatchInstance,
    InvocationStats,
    JobDecision,
)
from hpcdispatch.sim import (
    REPLAY_FIELDS,
    SimConfig,
    SimulationError,
    replay_instances,
    run_simulation,
    snapshot_instance,
    write_artifacts,
)
from hpcdispatch.system import preset
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
    snap = snapshot_instance(4, queue, {}, system)
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
# timeout fallbacks, hcp19 re-iterations and pcp20 budget-cut incumbents.
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
# sha256 prefixes of (jobs.csv + events.log, invocations.csv without wall_ms)
GOLDEN_DIGESTS = {
    ("A", "pcp20"): ("a2a537b562427c83", "df60a1e63c562753"),
    ("A", "pcp19"): ("a370a73da0c6a5c4", "59107540b59588cf"),
    ("A", "hcp19"): ("a2a537b562427c83", "87073a899f557741"),
    ("B", "pcp20"): ("a357b607e5c097a6", "f98bfdf54ad674bb"),
    ("B", "pcp19"): ("1287b1bf946cbb4e", "648461019c9c1686"),
    ("B", "hcp19"): ("f857cd799fad88a0", "8daf57cfd0f26675"),
    ("C", "pcp20"): ("580af369af92941d", "3e24ba156e18e2e0"),
    ("C", "pcp19"): ("98efbb75715a0672", "af749d112f33fc77"),
    ("C", "hcp19"): ("baba7ee83795b97c", "a262c4b0f7fd5a89"),
    ("D", "hcp19"): ("a2814ee2c0bc1320", "802f0a50cc73415b"),
}


@pytest.mark.parametrize("scenario, dispatcher", sorted(GOLDEN_DIGESTS))
def test_golden_artifacts(scenario, dispatcher, tmp_path):
    spec, system, dispatch = GOLDEN_SCENARIOS[scenario]
    result = run_simulation(
        generate_trace(spec()), system(), SimConfig(dispatcher=dispatcher, dispatch=dispatch)
    )
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
