"""Shared dispatcher machinery: priorities, windows, free-position placement."""

import random
from fractions import Fraction

import pytest

import support
from hpcdispatch.dispatch import DISPATCHERS, common, hcp19, pcp19, pcp20
from hpcdispatch.dispatch.common import (
    DispatchConfig,
    FreeRuns,
    best_fit_node,
    emergency_dispatch,
    first_fit_node,
    horizon,
    objective_terms,
    place_job,
    place_units_on_nodes,
    priority,
    residual,
    select_window,
    slowdown_weight,
)
from hpcdispatch.dispatch.instance import (
    AllocationEntry,
    JobDecision,
    RunningJob,
    dominant_resource,
    fits_system,
    replicas,
    unit_demands,
)
from hpcdispatch.system import validate_allocation
from hpcdispatch.workload import make_job


# -- priorities and weights -------------------------------------------------------


def test_priority_is_expected_slowdown_now():
    assert priority(40, 30, 100) == Fraction(3)
    assert priority(100, 30, 100) == Fraction(1)  # fresh arrival
    assert priority(0, 1, 10) == Fraction(11)  # short waiting jobs dominate
    assert priority(0, 100, 10) == Fraction(110, 100)


def test_priority_validates_inputs():
    with pytest.raises(ValueError):
        priority(0, 0, 10)
    with pytest.raises(ValueError):
        priority(11, 5, 10)


def test_slowdown_weight_rounds_to_nearest():
    assert slowdown_weight(10) == 1000
    assert slowdown_weight(3) == 3333
    assert slowdown_weight(7) == 1429  # 1428.57 rounds up
    assert slowdown_weight(10_000_000) == 1  # floor of 1 for huge jobs


def test_objective_terms_constant_covers_wait_so_far():
    window = [
        support.queued(1, submit=0, rn=1, unit_req={"core": 1}, d_expected=10),
        support.queued(2, submit=5, rn=1, unit_req={"core": 1}, d_expected=20),
    ]
    weights, constant = objective_terms(window)
    assert weights == [1000, 500]
    assert constant == 1000 * (10 - 0) + 500 * (20 - 5)


# -- demand shaping ------------------------------------------------------------------


def test_unit_demands_follow_system_resource_order():
    system = support.system_of((2, {"core": 16, "mem": 16, "gpu": 2}))
    entry = support.queued(1, 0, rn=2, unit_req={"gpu": 1, "core": 4}, d_expected=10)
    assert unit_demands(system, entry) == {"core": 4, "gpu": 1}


def test_replicas_per_node():
    system = support.system_of((1, {"core": 16}), (1, {"core": 7}))
    # p = min(rn, floor(cap / q)) per node
    assert replicas(system, 2, {"core": 4}) == [2, 1]
    assert replicas(system, 8, {"core": 4}) == [4, 1]
    assert replicas(system, 1, {"core": 9}) == [1, 0]

    # kind A, then B, then A again: counts are per class, written to every node
    system = support.system_of(
        (2, {"core": 16, "gpu": 2}), (3, {"core": 7}), (1, {"core": 16, "gpu": 2})
    )
    cases = [
        (2, {"core": 4}), (8, {"core": 4}), (3, {"core": 4, "gpu": 1}),
        (1, {"core": 9}), (5, {"gpu": 1}), (1, {"core": 17}),
    ]
    for rn, unit_req in cases:
        expected = [
            min([rn] + [system.cap(node, r) // q for r, q in unit_req.items()])
            for node in range(1, system.node_count + 1)
        ]
        assert replicas(system, rn, unit_req) == expected
        entry = support.queued(1, 0, rn=rn, unit_req=unit_req, d_expected=5)
        assert fits_system(system, entry) == (sum(expected) >= rn)


def test_fits_system_rules():
    system = support.system_of((2, {"core": 4, "gpu": 1}))
    fits = lambda entry: fits_system(system, entry)
    assert fits(support.queued(1, 0, rn=2, unit_req={"core": 4}, d_expected=5))
    assert not fits(support.queued(2, 0, rn=3, unit_req={"core": 4}, d_expected=5))
    assert not fits(support.queued(3, 0, rn=1, unit_req={"core": 5}, d_expected=5))
    assert not fits(support.queued(4, 0, rn=1, unit_req={"ssd": 1}, d_expected=5))
    assert not fits(support.queued(5, 0, rn=2, unit_req={"gpu": 2}, d_expected=5))


# -- window selection -----------------------------------------------------------------


def test_select_window_orders_by_priority_then_id():
    system = support.system_of((1, {"core": 8}))
    jobs = [
        support.queued(1, submit=90, rn=1, unit_req={"core": 1}, d_expected=10),  # prio 2
        support.queued(3, submit=98, rn=1, unit_req={"core": 1}, d_expected=1),  # prio 3
        support.queued(4, submit=90, rn=1, unit_req={"core": 2}, d_expected=10),  # prio 2, ties on id
    ]
    instance = support.instance_on(system, t=100, queued_jobs=jobs)
    window = select_window(instance, DispatchConfig())
    assert [e.job_id for e in window] == [3, 1, 4]


def test_select_window_caps_visible_jobs():
    system = support.system_of((1, {"core": 8}))
    jobs = [
        support.queued(i, submit=100 - i, rn=1, unit_req={"core": 1}, d_expected=5)
        for i in range(1, 8)
    ]
    instance = support.instance_on(system, t=100, queued_jobs=jobs)
    window = select_window(instance, DispatchConfig(window=3))
    assert len(window) == 3
    # oldest (largest wait) jobs make the cut
    assert [e.job_id for e in window] == [7, 6, 5]


# -- horizon ---------------------------------------------------------------------------


def test_residual_never_drops_below_one():
    system = support.system_of((1, {"core": 4}))
    run = support.running(system, 1, start=0, d_expected=10, placements=[(1, 1, "core", 1, 1)])
    assert residual(run, 5) == 5
    assert residual(run, 10) == 1  # overdue under last2 predictions
    assert residual(run, 99) == 1


def test_horizon_sums_window_and_residuals():
    system = support.system_of((1, {"core": 4}))
    window = [
        support.queued(1, submit=0, rn=1, unit_req={"core": 1}, d_expected=7),
        support.queued(2, submit=0, rn=1, unit_req={"core": 1}, d_expected=5),
    ]
    runs = [support.running(system, 3, start=8, d_expected=6, placements=[(1, 1, "core", 1, 1)])]
    assert horizon(10, window, runs) == 10 + 12 + 4


# -- free positions ---------------------------------------------------------------------


def make_free():
    """Node 1 runs job 1 on cores 3-4 and gpu 1; node 2 is idle."""
    system = support.system_of((2, {"core": 8, "gpu": 2}))
    running = [
        support.running(
            system, 1, start=0, d_expected=50,
            placements=[(1, 1, "core", 3, 2), (1, 1, "gpu", 1, 1)],
        )
    ]
    return system, FreeRuns(system, running)


def test_free_runs_reflect_running_jobs():
    _, free = make_free()
    assert free.find(1, "core", 4) == 5 and free.find(1, "core", 5) is None
    assert free.find(1, "gpu", 1) == 2 and free.find(1, "gpu", 2) is None
    assert free.find(2, "core", 8) == 9
    assert free.total_free(1, "core") == 6
    assert free.total_free(2, "gpu") == 2
    assert free.find(1, "mem", 1) is None  # unknown resource on this system
    assert free.total_free(1, "mem") == 0


def test_claim_takes_the_lowest_free_window():
    _, free = make_free()
    assert free.claim(1, "core", 2) == 1  # consumes cores 1-2 exactly
    assert free.claim(1, "core", 3) == 5
    assert free.claim(2, "core", 1) == 9  # positions are global: node 2 starts at 9
    assert free.total_free(1, "core") == 1
    assert free.claim(1, "core", 2) is None
    assert free.claim(1, "gpu", 1) == 2


def test_transactions_roll_back_claims():
    _, free = make_free()
    free.begin()
    free.claim(1, "core", 2)
    free.claim(2, "core", 8)
    free.rollback()
    assert (free.total_free(1, "core"), free.total_free(2, "core")) == (6, 8)
    assert free.claim(1, "core", 2) == 1

    free.begin()
    free.claim(2, "core", 8)
    free.commit()
    assert free.total_free(2, "core") == 0 and free.find(2, "core", 1) is None


def random_running(rng, system, attempts):
    """Up to ``attempts`` one-entry running jobs, and the cells they take per resource."""
    taken = {r: set() for r in system.resources}
    running = []
    for job_id in range(1, attempts + 1):
        resource = rng.choice(system.resources)
        first, last = system.blocks[resource][rng.randrange(len(system.blocks[resource]))][:2]
        position = rng.randint(first, last)
        extent = rng.randint(1, last - position + 1)
        cells = set(range(position, position + extent))
        if cells & taken[resource]:
            continue
        taken[resource] |= cells
        running.append(
            RunningJob(
                job=make_job(job_id, 0, 0, 1, {resource: extent}, 10),
                start=0, d_expected=10,
                allocation=(AllocationEntry(0, resource, position, extent),),
            )
        )
    return running, taken


def test_claims_match_a_brute_force_scan():
    rng = random.Random(2024)
    for _ in range(40):
        system = support.system_of(
            (rng.randint(1, 3), {"core": rng.randint(1, 8), "mem": rng.randint(1, 6)}),
            (rng.randint(1, 3), {"core": rng.randint(1, 8), "gpu": rng.randint(1, 4)}),
        )
        running, busy = random_running(rng, system, 5)
        free = FreeRuns(system, running)
        for (node, resource), (first, last) in sorted(system.node_span.items()):
            for _ in range(3):
                assert free.total_free(node, resource) == last - first + 1 - len(
                    busy[resource] & set(range(first, last + 1))
                )
                q = rng.randint(1, last - first + 1)
                expected = next(
                    (
                        y for y in range(first, last - q + 2)
                        if not busy[resource] & set(range(y, y + q))
                    ),
                    None,
                )
                assert free.find(node, resource, q) == expected
                assert free.claim(node, resource, q) == expected
                if expected is not None:
                    busy[resource] |= set(range(expected, expected + q))


# -- node choice and placement ------------------------------------------------------------


def test_best_fit_picks_tightest_node():
    system = support.system_of((1, {"core": 8}), (1, {"core": 4}))
    free = FreeRuns(system, [])
    # both fit; node 2 retains the smaller free share of cores
    assert best_fit_node(system, free, {"core": 2}) == 2
    assert first_fit_node(system, free, {"core": 2}) == 1


def test_best_fit_breaks_ties_on_lower_node_id():
    system = support.system_of((2, {"core": 4}))
    free = FreeRuns(system, [])
    assert best_fit_node(system, free, {"core": 1}) == 1


def test_best_fit_ranks_by_dominant_resource():
    system = support.system_of((1, {"core": 16, "gpu": 2}), (1, {"core": 4, "gpu": 2}))
    free = FreeRuns(system, [])
    # core demand dominates gpu demand, so slack is measured in cores
    assert best_fit_node(system, free, {"core": 4, "gpu": 1}) == 2


def scan_best_fit(system, free, unit_req):
    """best_fit_node's rule applied to every node of the system."""
    r_star = dominant_resource(system, unit_req)
    keys = [
        (Fraction(free.total_free(node, r_star) - unit_req[r_star], system.cap(node, r_star)), node)
        for node in range(1, system.node_count + 1)
        if all(free.find(node, r, q) is not None for r, q in unit_req.items())
    ]
    return min(keys)[1] if keys else None


def scan_first_fit(system, free, unit_req):
    return next(
        (
            node for node in range(1, system.node_count + 1)
            if all(free.find(node, r, q) is not None for r, q in unit_req.items())
        ),
        None,
    )


def taken_nodes(system, free):
    """Nodes with any taken cell, read off the masks."""
    return {
        node for (node, r), (first, last) in system.node_span.items()
        if 0 in free.free[r][first - 1 : last]
    }


def random_interleaved_system(rng):
    """1-3 capacity kinds laid out in groups that revisit earlier kinds."""
    kinds = []
    for _ in range(rng.randint(1, 3)):
        caps = {"core": rng.randint(1, 6)}
        for resource in ("mem", "gpu"):
            if rng.random() < 0.5:
                caps[resource] = rng.randint(1, 4)
        kinds.append(caps)
    groups = [(rng.randint(1, 3), rng.choice(kinds)) for _ in range(rng.randint(2, 5))]
    return support.system_of(*groups)


def test_node_choice_matches_a_full_scan(monkeypatch):
    rng = random.Random(5150)
    checked = {"best": 0, "first": 0}

    def checking(pick, scan, key):
        def choose(system, free, unit_req):
            node = pick(system, free, unit_req)
            assert node == scan(system, free, unit_req)
            assert free.busy == taken_nodes(system, free)
            checked[key] += 1
            return node

        return choose

    monkeypatch.setattr(common, "best_fit_node", checking(best_fit_node, scan_best_fit, "best"))
    monkeypatch.setattr(common, "first_fit_node", checking(first_fit_node, scan_first_fit, "first"))
    placed = failed = 0
    for _ in range(300):
        system = random_interleaved_system(rng)
        free = FreeRuns(system, random_running(rng, system, rng.randint(0, 6))[0])
        for _ in range(8):
            resources = rng.sample(system.resources, rng.randint(1, len(system.resources)))
            unit_req = {r: rng.randint(1, 3) for r in system.resources if r in resources}
            before = ({r: mask[:] for r, mask in free.free.items()}, set(free.busy))
            allocation = place_job(system, free, rng.randint(1, 4), unit_req, best=rng.random() < 0.5)
            if allocation is None:
                failed += 1
                assert (free.free, free.busy) == before
            else:
                placed += 1
                nodes = {system.position_to_node(a.resource, a.position) for a in allocation}
                assert free.busy == before[1] | nodes
    # the draw covers both rules and both outcomes, many times over
    assert min(checked.values()) > 1000 and min(placed, failed) > 200


def test_node_choice_work_does_not_grow_with_the_machine():
    system = support.system_of((10_000, {"core": 4}), (10_000, {"core": 8, "gpu": 1}))
    running = [
        support.running(system, 1, start=0, d_expected=50, placements=[(0, 1, "core", 1, 1)]),
        support.running(system, 2, start=0, d_expected=50, placements=[(0, 10_001, "core", 1, 6)]),
        support.running(
            system, 3, start=0, d_expected=50,
            placements=[(0, 15_000, "core", 1, 1), (0, 15_000, "gpu", 1, 1)],
        ),
    ]
    free = FreeRuns(system, running)
    assert free.busy == {1, 10_001, 15_000}
    assert free.candidates() == [1, 2, 10_001, 10_002, 15_000]
    assert best_fit_node(system, free, {"core": 2}) == 10_001  # the tightest busy node
    assert best_fit_node(system, free, {"core": 3}) == 1
    # busy node 15 000 fits four cores, but wholly free node 2 leaves no slack
    assert best_fit_node(system, free, {"core": 4}) == 2
    # no busy node fits: the lowest wholly free node of the class that does
    assert best_fit_node(system, free, {"core": 8}) == 10_002
    assert best_fit_node(system, free, {"core": 4, "gpu": 1}) == 10_002
    assert first_fit_node(system, free, {"core": 4}) == 2

    allocation = place_job(system, free, rn=3, unit_req={"core": 4})
    assert sorted(system.position_to_node("core", a.position) for a in allocation) == [2, 3, 4]
    assert free.candidates() == [1, 2, 3, 4, 5, 10_001, 10_002, 15_000]
    assert len(free.candidates()) <= len(free.busy) + 2


def test_place_job_is_all_or_nothing():
    system = support.system_of((2, {"core": 4}))
    free = FreeRuns(system, [])
    assert place_job(system, free, rn=3, unit_req={"core": 3}) is None
    # failed placement leaves no residue
    assert (free.total_free(1, "core"), free.total_free(2, "core")) == (4, 4)

    allocation = place_job(system, free, rn=2, unit_req={"core": 3})
    assert allocation is not None
    nodes = {system.position_to_node(a.resource, a.position) for a in allocation}
    assert nodes == {1, 2}  # one unit per node; neither node fits two


def test_place_job_result_validates():
    system = support.system_of((2, {"core": 8, "gpu": 2}))
    free = FreeRuns(system, [])
    allocation = place_job(system, free, rn=2, unit_req={"core": 4, "gpu": 1})
    assert validate_allocation(system, [], [(1, allocation)]) == []


def test_place_units_on_nodes_respects_choice_and_fragmentation():
    system = support.system_of((2, {"core": 4}))
    running = [
        support.running(system, 9, start=0, d_expected=99, placements=[(1, 1, "core", 2, 1)])
    ]
    free = FreeRuns(system, running)
    # node 1 has free cells {1, 3, 4}: a 2-wide claim works, a 3-wide cannot
    ok = place_units_on_nodes(system, free, [1], {"core": 2})
    assert ok is not None and ok[0].position == 3

    free2 = FreeRuns(system, running)
    assert place_units_on_nodes(system, free2, [2, 1], {"core": 3}) is None
    # the first unit's claim on node 2 was rolled back
    assert (free2.total_free(1, "core"), free2.total_free(2, "core")) == (3, 4)


def test_emergency_dispatch_takes_what_fits():
    system = support.system_of((1, {"core": 4}))
    jobs = [
        support.queued(1, submit=0, rn=1, unit_req={"core": 3}, d_expected=10),
        support.queued(2, submit=0, rn=1, unit_req={"core": 3}, d_expected=10),
        support.queued(3, submit=0, rn=1, unit_req={"core": 1}, d_expected=10),
    ]
    instance = support.instance_on(system, t=5, queued_jobs=jobs)
    decisions = emergency_dispatch(instance, jobs)
    assert [d.job_id for d in decisions] == [1, 3]
    assert all(d.start == 5 for d in decisions)
    claims = [(d.job_id, d.allocation) for d in decisions]
    assert validate_allocation(system, [], claims) == []


# -- the driver ------------------------------------------------------------------------------

DECODERS = {
    "pcp20": (pcp20, "_decode"),
    "pcp19": (pcp19, "_materialize"),
    "hcp19": (hcp19, "_place"),
}


def one_node_half_busy():
    """Cores 1-2 of a four-core node run job 9; job 1 wants two cores now."""
    system = support.system_of((1, {"core": 4}))
    running = [
        support.running(system, 9, start=0, d_expected=50, placements=[(0, 1, "core", 1, 2)])
    ]
    queued = [support.queued(1, submit=0, rn=1, unit_req={"core": 2}, d_expected=10)]
    return support.instance_on(system, t=5, queued_jobs=queued, running_jobs=running)


@pytest.mark.parametrize("name", sorted(DISPATCHERS))
@pytest.mark.parametrize("rescue", [False, True])
def test_decode_guard_refuses_an_overlapping_decision(name, rescue, monkeypatch):
    module, decoder = DECODERS[name]

    def overlapping(handle, instance, values):
        return [JobDecision(1, instance.t, (AllocationEntry(0, "core", 2, 2),))]

    monkeypatch.setattr(module, decoder, overlapping)
    instance = one_node_half_busy()
    config = DispatchConfig(budget_ms=10_000, node_limit=None, emergency_first_fit=rescue)
    decision = DISPATCHERS[name](instance, config)
    assert decision.stats.status == "decode-error"
    assert decision.fallback and decision.stats.fallback
    if rescue:
        # The first-fit rescue takes the free cores 3-4 instead.
        assert [d.allocation for d in decision.dispatched()] == [
            (AllocationEntry(0, "core", 3, 2),)
        ]
    else:
        assert decision.dispatched() == []
    assert decision.stats.dispatched == len(decision.dispatched())
    assert decision.violations(instance) == []


@pytest.mark.parametrize("name", sorted(DISPATCHERS))
def test_empty_window_is_optimal_at_zero(name):
    system = support.system_of((1, {"core": 4}))
    queued = [support.queued(1, submit=0, rn=1, unit_req={"core": 2}, d_expected=10)]
    instance = support.instance_on(system, t=3, queued_jobs=queued)
    decision = DISPATCHERS[name](instance, DispatchConfig(window=0))
    stats = decision.stats
    assert (stats.status, stats.objective) == ("optimal", 0)
    assert (stats.queue_size, stats.window_size, stats.n_vars) == (1, 0, 0)
    assert decision.jobs == [] and not decision.fallback
