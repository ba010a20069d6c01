"""Snapshot serialization, snapshot invariants, and decision checking."""

import pytest

import support
from hpcdispatch.dispatch.instance import (
    AllocationEntry,
    DispatchDecision,
    DispatchInstance,
    InvocationStats,
    JobDecision,
    QueuedJob,
)
from hpcdispatch.system import preset
from hpcdispatch.workload import make_job


def sample_instance():
    system = support.system_of((2, {"core": 4, "gpu": 2}), name="bench")
    return support.instance_on(
        system,
        t=50,
        queued_jobs=[
            support.queued(7, submit=40, rn=2, unit_req={"core": 2}, d_expected=30),
            support.queued(3, submit=45, rn=1, unit_req={"core": 1, "gpu": 1}, d_expected=10),
        ],
        running_jobs=[
            support.running(
                system,
                job_id=1,
                start=20,
                d_expected=60,
                placements=[(1, 1, "core", 1, 2), (1, 1, "gpu", 1, 1)],
            )
        ],
    )


# -- serialization ---------------------------------------------------------------


def test_payload_shape_and_ordering():
    payload = sample_instance().to_payload()
    assert payload["t"] == 50
    assert [e["id"] for e in payload["queued"]] == [3, 7]  # sorted by id
    assert payload["queued"][1]["req"] == {"core": 4}
    assert payload["running"][0]["allocation"][0] == {"unit": 1, "r": "core", "y": 1, "q": 2}
    assert isinstance(payload["system"], dict)  # custom systems stay inline


def test_round_trip_is_byte_stable():
    text = sample_instance().dumps()
    again = DispatchInstance.loads(text)
    assert again.dumps() == text
    assert again.validate() == []
    assert [e.job_id for e in again.queued] == [3, 7]
    assert again.queued[1].rn == 2
    assert again.running[0].allocation == (
        AllocationEntry(1, "core", 1, 2),
        AllocationEntry(1, "gpu", 1, 1),
    )


def test_dump_and_load_files(tmp_path):
    instance = sample_instance()
    path = tmp_path / "snap.json"
    instance.dump(path)
    assert DispatchInstance.load(path).dumps() == instance.dumps()


def test_preset_system_collapses_to_its_name():
    instance = DispatchInstance(t=0, queued=[], running=[], system=preset("eurora"))
    payload = instance.to_payload()
    assert payload["system"] == "eurora"
    assert DispatchInstance.from_payload(payload).system.node_count == 64


def test_load_rejects_demand_not_divisible_by_units():
    payload = sample_instance().to_payload()
    payload["queued"][0]["req"]["core"] = 3
    payload["queued"][0]["rn"] = 2
    with pytest.raises(ValueError) as err:
        DispatchInstance.from_payload(payload)
    assert "divisible" in str(err.value)


NOT_INTEGERS = {
    "rn-float": ("queued", "rn", 2.5, "queued job 3: rn must be an integer, not 2.5"),
    "rn-bool": ("queued", "rn", True, "queued job 3: rn must be an integer, not True"),
    "d_expected-text": (
        "queued", "d_expected", "4", "queued job 3: d_expected must be an integer, not '4'"
    ),
    "req-float": ("queued", "req", {"core": 1.0}, "queued job 3: req 'core' must be an integer"),
    "start-float": ("running", "s", 10.9, "running job 1: s must be an integer, not 10.9"),
    "position-float": ("allocation", "y", 1.7, "running job 1: y must be an integer, not 1.7"),
    "extent-bool": ("allocation", "q", False, "running job 1: q must be an integer, not False"),
    "t-text": ("snapshot", "t", "50", "snapshot: t must be an integer, not '50'"),
}


@pytest.mark.parametrize("case", sorted(NOT_INTEGERS))
def test_load_rejects_numbers_that_are_not_integers(case):
    # Checked, not coerced: int() would load 2.5 as 2, 1.7 as position 1,
    # true as 1 and "4" as 4.
    part, key, value, where = NOT_INTEGERS[case]
    payload = sample_instance().to_payload()
    target = {
        "snapshot": payload,
        "queued": payload["queued"][0],
        "running": payload["running"][0],
        "allocation": payload["running"][0]["allocation"][0],
    }[part]
    target[key] = value
    with pytest.raises(ValueError) as err:
        DispatchInstance.from_payload(payload)
    assert str(err.value).startswith(where)


# -- invariants ---------------------------------------------------------------------


def test_validate_flags_future_arrival_and_bad_duration():
    system = support.system_of((1, {"core": 2}))
    job = make_job(1, 1, 99, 1, {"core": 1}, 10)
    instance = DispatchInstance(
        t=5,
        queued=[QueuedJob(job=job, d_expected=0)],
        running=[],
        system=system,
    )
    kinds = sorted(v.kind for v in instance.validate())
    assert kinds == ["bad-duration", "future-arrival"]


def test_validate_flags_unfittable_jobs():
    system = support.system_of((1, {"core": 8}))
    instance = DispatchInstance(
        t=100,
        queued=[
            support.queued(1, submit=90, rn=1, unit_req={"core": 1}, d_expected=10),
            support.queued(2, submit=80, rn=1, unit_req={"core": 10}, d_expected=10),
        ],
        running=[],
        system=system,
    )
    (problem,) = instance.validate()
    assert problem.kind == "unfittable" and "job 2" in problem.message


def test_validate_flags_overlapping_running_jobs():
    system = support.system_of((1, {"core": 2}))
    runs = [
        support.running(system, 1, start=0, d_expected=10, placements=[(1, 1, "core", 1, 1)]),
        support.running(system, 2, start=2, d_expected=10, placements=[(1, 1, "core", 1, 1)]),
    ]
    instance = DispatchInstance(t=3, queued=[], running=runs, system=system)
    assert {v.kind for v in instance.validate()} == {"double-booking"}


def test_validate_flags_a_repeated_job_id():
    system = support.system_of((1, {"core": 4}))
    job = support.queued(1, submit=0, rn=1, unit_req={"core": 1}, d_expected=10)
    run = support.running(system, 1, start=0, d_expected=10, placements=[(0, 1, "core", 1, 1)])
    twice_queued = DispatchInstance(t=5, queued=[job, job], running=[], system=system)
    queued_and_running = DispatchInstance(t=5, queued=[job], running=[run], system=system)
    for instance in (twice_queued, queued_and_running):
        assert [v.kind for v in instance.validate()] == ["repeated-id"]


# -- decisions ----------------------------------------------------------------------


def test_dispatched_filters_deferred_jobs():
    decision = DispatchDecision(
        jobs=[
            JobDecision(1, 10, allocation=(AllocationEntry(1, "core", 1, 1),)),
            JobDecision(2, 15, allocation=None),
        ]
    )
    assert [d.job_id for d in decision.dispatched()] == [1]


def test_decision_violations_ok_for_valid_placement():
    instance = sample_instance()
    decision = DispatchDecision(
        jobs=[JobDecision(3, 50, allocation=(
            AllocationEntry(1, "core", 3, 1),
            AllocationEntry(1, "gpu", 2, 1),
        ))]
    )
    assert decision.violations(instance) == []


def test_decision_violations_catch_conflict_with_running():
    instance = sample_instance()
    decision = DispatchDecision(
        jobs=[JobDecision(3, 50, allocation=(
            AllocationEntry(1, "core", 1, 1),  # held by running job 1
            AllocationEntry(1, "gpu", 2, 1),
        ))]
    )
    assert {v.kind for v in decision.violations(instance)} == {"double-booking"}


def test_decision_violations_reject_allocation_with_future_start():
    instance = sample_instance()
    decision = DispatchDecision(
        jobs=[JobDecision(3, 51, allocation=(AllocationEntry(1, "core", 3, 1),))]
    )
    assert [v.kind for v in decision.violations(instance)] == ["late-allocation"]


def test_decision_violations_reject_unknown_and_repeated_jobs():
    instance = sample_instance()
    core = (AllocationEntry(1, "core", 3, 1),)
    decision = DispatchDecision(
        jobs=[JobDecision(1, 50, core), JobDecision(3, 50, core), JobDecision(3, 60)]
    )
    kinds = [v.kind for v in decision.violations(instance)]
    assert kinds == ["unknown-job", "repeated-job"]


# -- invocation stats ------------------------------------------------------------------


def test_stats_row_matches_csv_fields():
    stats = InvocationStats(dispatcher="pcp20", t=9, wall_ms=1.23456, fallback=True)
    row = stats.as_row()
    assert set(row) == set(InvocationStats.CSV_FIELDS)
    assert row["objective"] == ""  # None renders empty
    assert row["wall_ms"] == "1.235"
    assert row["fallback"] == 1

    stats.objective = 42
    assert stats.as_row()["objective"] == 42
