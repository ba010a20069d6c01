"""Snapshot serialization, snapshot invariants, and decision checking."""

import random
from collections import Counter

import pytest

import support
from hpcdispatch.dispatch import instance as instance_module
from hpcdispatch.dispatch.instance import (
    AllocationEntry,
    DispatchDecision,
    DispatchInstance,
    InvocationStats,
    JobDecision,
    QueuedJob,
    RunningJob,
)
from hpcdispatch.system import preset, validate_allocation
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


def random_entry(rng, system, unit, node=None):
    """A claim of one unit on one node; now and then an invalid one."""
    node = node or rng.randint(1, system.node_count)
    resource = rng.choice([r for r in system.resources if (node, r) in system.node_span])
    first, last = system.node_span[(node, resource)]
    position = rng.randint(first, last)
    extent = rng.randint(1, last - position + 1)
    roll = rng.random()
    if roll < 0.03:
        resource = "nic"  # unknown
    elif roll < 0.06:
        extent = 0
    elif roll < 0.09:
        position = rng.choice([0, system.total_capacity[resource] + 1])
    elif roll < 0.15:
        extent += rng.randint(1, 3)  # may cross into the next node, or leave the space
    return AllocationEntry(unit, resource, position, extent)


def random_snapshot(rng):
    """Disjoint multi-unit running jobs and random, often overlapping claims."""
    system = support.system_of(
        (rng.randint(1, 4), {"core": rng.randint(2, 8), "mem": rng.randint(1, 6)}),
        (rng.randint(1, 4), {"core": rng.randint(2, 8), "gpu": rng.randint(1, 4)}),
    )
    taken = {r: set() for r in system.resources}
    running = []
    for job_id in range(1, rng.randint(0, 10) + 1):
        entries = []
        for unit in range(rng.randint(1, 3)):
            entry = random_entry(rng, system, unit)
            cells = set(range(entry.position, entry.position + entry.extent))
            owner = system.owner.get(entry.resource)
            valid = owner and entry.extent >= 1 and cells <= set(range(1, len(owner) + 1))
            if not valid or len({owner[p - 1] for p in cells}) > 1 or cells & taken[entry.resource]:
                continue
            taken[entry.resource] |= cells
            entries.append(entry)
        if entries:
            job = make_job(job_id, 0, 0, 1, {"core": 1}, 10)
            running.append(RunningJob(job, 0, 10, tuple(entries)))
    queued, claims = [], []
    for job_id in range(100, 100 + rng.randint(1, 3)):
        queued.append(support.queued(job_id, submit=0, rn=1, unit_req={"core": 1}, d_expected=5))
        units = rng.randint(1, 2)
        node = rng.randint(1, system.node_count)
        claims.append((job_id, tuple(
            # Mostly one node per unit; sometimes a unit split over two.
            random_entry(rng, system, unit, node if rng.random() < 0.8 else None)
            for unit in range(units) for _ in range(rng.randint(1, 2))
        )))
    return DispatchInstance(t=3, queued=queued, running=running, system=system), claims


def test_decision_check_finds_what_a_check_against_every_running_job_finds():
    rng = random.Random(18)
    kinds = Counter()
    for _ in range(600):
        instance, claims = random_snapshot(rng)
        decision = DispatchDecision(jobs=[JobDecision(j, instance.t, a) for j, a in claims])
        every = [(run.job_id, run.allocation) for run in instance.running]
        expected = Counter(map(str, validate_allocation(instance.system, every, claims)))
        assert Counter(map(str, decision.violations(instance))) == expected
        kinds.update(message.split(":")[0] for message in expected)
        kinds["clean"] += not expected
    assert set(kinds) == {
        "clean", "double-booking", "unknown-resource", "bad-extent", "out-of-range",
        "node-span", "unit-split",
    }
    assert min(kinds.values()) >= 10, kinds


def test_decision_check_reads_only_the_running_jobs_on_claimed_nodes(monkeypatch):
    system = support.system_of((300, {"core": 4, "gpu": 1}))
    running = [
        support.running(system, node, 0, 10, [(0, node, "core", 1, 2)])
        for node in range(1, 301)
    ]
    # One job spreads over nodes 3 and 250: claiming either reads all of it.
    running[2] = support.running(
        system, 3, 0, 10, [(0, 3, "core", 1, 2), (1, 250, "gpu", 1, 1)]
    )
    queued = [support.queued(j, 0, 1, {"core": 2}, 5) for j in (1001, 1002)]
    instance = DispatchInstance(t=0, queued=queued, running=running, system=system)
    seen = []

    def counted(system, held, claims):
        held = list(held)
        seen.append(sorted(job_id for job_id, _ in held))
        return validate_allocation(system, held, claims)

    monkeypatch.setattr(instance_module, "validate_allocation", counted)
    core = system.node_span[(7, "core")][0]
    gpu = system.node_span[(250, "gpu")][0]
    fits = DispatchDecision(jobs=[
        JobDecision(1001, 0, (AllocationEntry(0, "core", core + 2, 2),)),
        JobDecision(1002, 0, (AllocationEntry(0, "gpu", gpu, 1),)),  # job 3 holds it
    ])
    assert [v.kind for v in fits.violations(instance)] == ["double-booking"]
    assert seen == [[3, 7, 250]]
    # An invalid claim is reported before any held range is read.
    off = DispatchDecision(jobs=[JobDecision(1001, 0, (AllocationEntry(0, "core", 4, 2),))])
    assert [v.kind for v in off.violations(instance)] == ["node-span"]
    assert seen[1] == [1]


def test_loaded_snapshot_indexes_its_running_jobs_by_node():
    instance = DispatchInstance.loads(sample_instance().dumps())
    (run,) = instance.running
    assert instance.node_jobs == {1: {1: run}}


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
