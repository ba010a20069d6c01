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
    last_fit_node,
    objective_terms,
    place_job,
    place_units_on_nodes,
    priority,
    select_window,
    serial_schedule,
    slowdown_weight,
)
from hpcdispatch.dispatch.instance import (
    AllocationEntry,
    JobDecision,
    Ledger,
    RunningJob,
    dominant_resource,
    fits_system,
    replicas,
    unit_demands,
)
from hpcdispatch.sim import SimConfig, SimulationError, run_simulation
from hpcdispatch.system import preset, validate_allocation
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


def test_horizon_sums_window_and_residuals():
    system = support.system_of((1, {"core": 4}))
    window = [
        support.queued(1, submit=0, rn=1, unit_req={"core": 1}, d_expected=7),
        support.queued(2, submit=0, rn=1, unit_req={"core": 1}, d_expected=5),
    ]
    runs = [support.running(system, 3, start=8, d_expected=6, placements=[(1, 1, "core", 1, 1)])]
    ledger = Ledger.of(system, runs)
    assert horizon(10, window, ledger) == 10 + 12 + 4
    # A job past its expected end (under last2 predictions) still counts one unit.
    assert horizon(14, window, ledger) == 14 + 12 + 1
    assert horizon(99, window, ledger) == 99 + 12 + 1


def test_horizon_with_overdue_jobs_sums_each_residual():
    rng = random.Random(17)
    system = support.system_of((4, {"core": 8}))
    for _ in range(200):
        runs = [
            support.running(
                system, job_id, start=rng.randint(0, 40), d_expected=rng.randint(1, 40),
                placements=[(0, (job_id - 1) // 8 + 1, "core", (job_id - 1) % 8 + 1, 1)],
            )
            for job_id in range(1, rng.randint(0, 32) + 1)
        ]
        ledger = Ledger.of(system, runs)
        window = [support.queued(99, 0, 1, {"core": 1}, rng.randint(1, 9))]
        for t in sorted({0, 90, *(rng.randint(0, 85) for _ in range(4))}):
            residuals = sum(max(1, run.start + run.d_expected - t) for run in runs)
            assert horizon(t, window, ledger) == t + window[0].d_expected + residuals


def test_releases_are_the_held_list_until_a_range_is_overdue():
    system = support.system_of((2, {"core": 8, "gpu": 2}))
    ledger = Ledger.of(system, [
        support.running(system, 1, start=0, d_expected=50, placements=[(0, 1, "core", 3, 2)]),
        support.running(system, 2, start=5, d_expected=10, placements=[(0, 2, "core", 1, 4)]),
    ])
    assert ledger.held_ends == {"core": [15, 50], "gpu": []}
    assert ledger.releases("core", 14) is ledger.held["core"]
    assert ledger.releases("gpu", 99) is ledger.held["gpu"]
    overdue = ledger.releases("core", 15)
    assert overdue == [(3, 4, 50), (9, 12, 16)] and overdue is not ledger.held["core"]
    assert ledger.held["core"] == [(3, 4, 50), (9, 12, 15)]


# -- free positions ---------------------------------------------------------------------


def free_runs(system, running):
    return FreeRuns(Ledger.of(system, running))


def total_free(free, node, resource):
    """Free cells of the node's block, counted from the mask."""
    span = free.system.node_span.get((node, resource))
    return 0 if span is None else free.free[resource].count(1, span[0] - 1, span[1])


def make_ledger():
    """Node 1 runs job 1 on cores 3-4 and gpu 1; node 2 is idle."""
    system = support.system_of((2, {"core": 8, "gpu": 2}))
    running = [
        support.running(
            system, 1, start=0, d_expected=50,
            placements=[(1, 1, "core", 3, 2), (1, 1, "gpu", 1, 1)],
        )
    ]
    return system, Ledger.of(system, running)


def make_free():
    system, ledger = make_ledger()
    return system, FreeRuns(ledger)


def test_free_runs_reflect_running_jobs():
    system, ledger = make_ledger()
    free = FreeRuns(ledger)
    assert free.find(1, "core", 4) == 5 and free.find(1, "core", 5) is None
    assert free.find(1, "gpu", 1) == 2 and free.find(1, "gpu", 2) is None
    assert free.find(2, "core", 8) == 9
    assert ledger.total_free(1, "core") == total_free(free, 1, "core") == 6
    assert ledger.total_free(2, "gpu") == total_free(free, 2, "gpu") == 2
    assert free.find(1, "mem", 1) is None  # unknown resource on this system
    assert ledger.total_free(1, "mem") == total_free(free, 1, "mem") == 0
    assert ledger.used == {"core": 2, "gpu": 1} and taken_nodes(system, ledger) == {1}
    assert ledger.held == {"core": [(3, 4, 50)], "gpu": [(1, 1, 50)]}


def test_claim_takes_the_lowest_free_window():
    _, ledger = make_ledger()
    masks = masks_of(ledger)
    free = FreeRuns(ledger)
    assert free.claim(1, "core", 2) == 1  # consumes cores 1-2 exactly
    assert free.claim(1, "core", 3) == 5
    assert free.claim(2, "core", 1) == 9  # positions are global: node 2 starts at 9
    assert total_free(free, 1, "core") == 1
    assert free.claim(1, "core", 2) is None
    assert free.claim(1, "gpu", 1) == 2
    # claims write to the copy, never to the ledger it came from
    assert masks_of(ledger) == masks


def test_ledger_release_undoes_occupy():
    system = support.system_of((2, {"core": 8, "gpu": 2}))
    first = support.running(system, 1, start=0, d_expected=50, placements=[(0, 1, "core", 3, 2)])
    second = support.running(
        system, 2, start=5, d_expected=10,
        placements=[(0, 1, "core", 7, 2), (0, 1, "gpu", 2, 1), (1, 2, "core", 1, 8)],
    )
    ledger = Ledger.of(system, [first])
    empty = masks_of(Ledger(system))
    alone = (masks_of(ledger), dict(ledger.used), {r: list(h) for r, h in ledger.held.items()})
    ledger.occupy(second)
    assert taken_nodes(system, ledger) == {1, 2}
    assert ledger.held["core"] == [(3, 4, 50), (7, 8, 15), (9, 16, 15)]
    # at t=20 the second job is overdue: it is released no earlier than t + 1
    assert ledger.releases("core", 20) == [(3, 4, 50), (7, 8, 21), (9, 16, 21)]
    ledger.release(second)
    assert (masks_of(ledger), ledger.used, ledger.held) == alone
    assert taken_nodes(system, ledger) == {1}  # node 1 keeps the first job's cells
    ledger.release(first)
    assert masks_of(ledger) == empty


def masks_of(free):
    return {r: bytes(mask) for r, mask in free.free.items()}


def test_failed_placement_frees_only_its_own_claims():
    system, free = make_free()
    kept = place_units_on_nodes(system, free, [1], {"core": 2})
    assert kept is not None and kept[0].position == 1  # cores 1-2 of node 1
    masks = masks_of(free)
    # node 2 takes cores 9-13 and gpu 3; node 1 then has only 4 free cores
    assert place_units_on_nodes(system, free, [2, 1], {"core": 5, "gpu": 1}) is None
    assert masks_of(free) == masks  # running cells and the kept claim stay taken
    assert taken_nodes(system, free) == {1}
    assert place_units_on_nodes(system, free, [2], {"core": 8, "gpu": 2}) is not None


def random_entry(rng, system, unit=0):
    """A random range of one resource on one node's block."""
    resource = rng.choice(system.resources)
    first, last = system.blocks[resource][rng.randrange(len(system.blocks[resource]))][:2]
    position = rng.randint(first, last)
    return AllocationEntry(unit, resource, position, rng.randint(1, last - position + 1))


def one_entry_job(job_id, entry):
    return RunningJob(
        job=make_job(job_id, 0, 0, 1, {entry.resource: entry.extent}, 10),
        start=0, d_expected=10, allocation=(entry,),
    )


def random_running(rng, system, attempts):
    """Up to ``attempts`` one-entry running jobs, and the cells they take per resource."""
    taken = {r: set() for r in system.resources}
    running = []
    for job_id in range(1, attempts + 1):
        entry = random_entry(rng, system)
        cells = set(range(entry.position, entry.position + entry.extent))
        if cells & taken[entry.resource]:
            continue
        taken[entry.resource] |= cells
        running.append(one_entry_job(job_id, entry))
    return running, taken


def test_claims_match_a_brute_force_scan():
    rng = random.Random(2024)
    for _ in range(40):
        system = support.system_of(
            (rng.randint(1, 3), {"core": rng.randint(1, 8), "mem": rng.randint(1, 6)}),
            (rng.randint(1, 3), {"core": rng.randint(1, 8), "gpu": rng.randint(1, 4)}),
        )
        running, busy = random_running(rng, system, 5)
        free = free_runs(system, running)
        for (node, resource), (first, last) in sorted(system.node_span.items()):
            for _ in range(3):
                assert total_free(free, node, resource) == last - first + 1 - len(
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
    free = free_runs(system, [])
    # both fit; node 2 retains the smaller free share of cores
    assert best_fit_node(system, free, {"core": 2}) == 2
    assert first_fit_node(system, free, {"core": 2}) == 1


def test_best_fit_breaks_ties_on_lower_node_id():
    system = support.system_of((2, {"core": 4}))
    free = free_runs(system, [])
    assert best_fit_node(system, free, {"core": 1}) == 1


def test_best_fit_ranks_by_dominant_resource():
    system = support.system_of((1, {"core": 16, "gpu": 2}), (1, {"core": 4, "gpu": 2}))
    free = free_runs(system, [])
    # core demand dominates gpu demand, so slack is measured in cores
    assert best_fit_node(system, free, {"core": 4, "gpu": 1}) == 2


@pytest.mark.parametrize(
    "caps, taken", [((4, 8), (1, 3)), ((8, 4), (3, 1)), ((3, 6), (1, 3)), ((6, 3), (3, 1))]
)
def test_best_fit_breaks_ties_across_capacities_on_lower_node_id(caps, taken):
    # With one core claimed, leaving 2 of 4 cores free ties with 4 of 8, and
    # 1 of 3 with 2 of 6: the slacks are equal, so the lower node wins.
    system = support.system_of(*((1, {"core": cap}) for cap in caps))
    running = [
        support.running(system, node, start=0, d_expected=10, placements=[(0, node, "core", 1, k)])
        for node, k in enumerate(taken, 1)
    ]
    free = free_runs(system, running)
    assert best_fit_node(system, free, {"core": 1}) == 1 == scan_best_fit(system, free, {"core": 1})


def test_best_fit_tests_fit_only_for_an_improving_key(monkeypatch):
    system = preset("kit-forhlr2")
    placements = {  # node: its running (unit, node, resource, local first, extent) rows
        3: [(0, 3, "core", 1, 2), (0, 3, "mem", 1, 60)],
        40: [(0, 40, "core", 1, 5), (1, 40, "core", 11, 5)],  # 10 free, no 6 in a row
        500: [(0, 500, "core", 1, 19)],
        1160: [(0, 1160, "core", 1, 40)],
    }
    running = [
        support.running(system, node, start=0, d_expected=50, placements=rows)
        for node, rows in placements.items()
    ]
    free = free_runs(system, running)
    assert taken_nodes(system, free) == {3, 40, 500, 1160}
    tested = []
    find = FreeRuns.find

    def counting_find(self, node, resource, q):
        tested.append(node)
        return find(self, node, resource, q)

    monkeypatch.setattr(FreeRuns, "find", counting_find)
    # (request, the node chosen, the fit tests in order: one find per
    # resource until one fails).  Each class is walked by free count from
    # the need up, and its first node that fits ends its walk, as does a
    # key that ties or loses to the best so far.  Node 500 never has enough
    # free cores, and no wholly free node is tested while a tighter one fits.
    cases = [
        ({"core": 4}, 1160, [40, 1160]),  # slack .3 among the thin nodes, then 4/48
        ({"core": 6}, 1160, [40, 3, 1160]),  # node 40 has 10 free but no 6 in a row
        ({"core": 9}, 3, [40, 3]),  # node 1160 has 8 cores free, a fat free node 39/48
        ({"core": 2, "mem": 8}, 1, [1, 1]),  # mem leads: node 3 lacks it, the rest tie or lose
    ]
    for unit_req, node, expected in cases:
        tested.clear()
        assert best_fit_node(system, free, unit_req) == node
        assert tested == expected, unit_req
        tested.clear()
        assert scan_best_fit(system, free, unit_req) == node


def scan_best_fit(system, free, unit_req):
    """best_fit_node's rule applied to every node of the system."""
    r_star = dominant_resource(system, unit_req)
    keys = [
        (Fraction(total_free(free, node, r_star) - unit_req[r_star], system.cap(node, r_star)), node)
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


def scan_last_fit(system, free, unit_req):
    return next(
        (
            node for node in range(system.node_count, 0, -1)
            if all(free.find(node, r, q) is not None for r, q in unit_req.items())
        ),
        None,
    )


def claimed(masks, allocation):
    """``masks`` with the allocation's cells taken; each was free until then."""
    out = {r: bytearray(mask) for r, mask in masks.items()}
    for a in allocation:
        cells = slice(a.position - 1, a.position - 1 + a.extent)
        assert all(out[a.resource][cells])
        out[a.resource][cells] = bytes(a.extent)
    return {r: bytes(mask) for r, mask in out.items()}


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


def check_free_index(system, ledger):
    """Every refreshed bucket holds, ascending, the nodes of its class whose
    mask shows its free count, and each class with the resource has one."""
    for r in system.resources:
        classes = [members for members in system.node_classes if system.cap(members[0], r)]
        groups = ledger.free_index(r)
        assert len(groups) == len(classes)
        for group, members in zip(groups, classes):
            assert group.caps == system.caps[members[0] - 1] and group.cap == system.cap(members[0], r)
            assert group.counts == sorted(group.nodes)
            assert all(nodes == sorted(nodes) for nodes in group.nodes.values())
            counts = {node: ledger.total_free(node, r) for node in members}
            assert {node: k for k, nodes in group.nodes.items() for node in nodes} == counts
            assert group.count_of == counts


def test_node_choice_matches_a_full_scan():
    # Between placements the ledger starts and ends jobs (a new copy reads
    # its refreshed index), and copies are copied, hold cells and free
    # ranges, so best fit meets stale ledger nodes and changed copy nodes,
    # and first and last fit meet taken cells anywhere in a class.
    rng = random.Random(5150)
    rules = {
        "best": (best_fit_node, scan_best_fit),
        "first": (first_fit_node, scan_first_fit),
        "last": (last_fit_node, scan_last_fit),
    }
    checked = dict.fromkeys(rules, 0)
    steps = dict.fromkeys(("occupy", "release", "copy", "hold", "free"), 0)

    def checking(rule):
        pick, scan = rules[rule]

        def choose(system, free, unit_req):
            node = pick(system, free, unit_req)
            assert node == scan(system, free, unit_req)
            checked[rule] += 1
            return node

        return choose

    def random_unit(system):
        resources = rng.sample(system.resources, rng.randint(1, len(system.resources)))
        return {r: rng.randint(1, 3) for r in system.resources if r in resources}

    picks = {rule: checking(rule) for rule in rules}
    placed = failed = 0
    job_ids = iter(range(1000, 10**9))
    for _ in range(300):
        system = random_interleaved_system(rng)
        running = random_running(rng, system, rng.randint(0, 6))[0]
        ledger = Ledger.of(system, running)
        free = FreeRuns(ledger)
        for _ in range(16):
            step = rng.choice(("occupy", "release", "copy", "hold", "free", "place", "place"))
            if step == "occupy":
                entry = random_entry(rng, system)
                lo = entry.position - 1
                if all(ledger.free[entry.resource][lo : lo + entry.extent]):
                    running.append(one_entry_job(next(job_ids), entry))
                    ledger.occupy(running[-1])
            elif step == "release" and running:
                ledger.release(running.pop(rng.randrange(len(running))))
            elif step == "copy":
                free = FreeRuns(free)
            elif step == "hold":
                free.hold((random_entry(rng, system),))
            elif step == "free":
                entry = random_entry(rng, system)
                free.free_range(entry.resource, entry.position, entry.position + entry.extent - 1)
            if step in ("occupy", "release"):
                free = FreeRuns(ledger)  # a copy is valid at its ledger's instant
                check_free_index(system, ledger)
            if step != "place":
                steps[step] += 1
                unit_req = random_unit(system)
                for choose in picks.values():
                    choose(system, free, unit_req)
                continue
            unit_req = random_unit(system)
            before = masks_of(free)
            rule = rng.choice(tuple(rules))
            # last fit claims the highest cells, as pcp20's fits-now plan does
            allocation = place_job(
                system, free, rng.randint(1, 4), unit_req, picks[rule], top=rule == "last"
            )
            if allocation is None:
                failed += 1
                assert masks_of(free) == before
            else:
                placed += 1
                assert masks_of(free) == claimed(before, allocation)
    # the draw covers every rule, both outcomes and every step, many times over
    assert min(checked.values()) > 1000 and min(placed, failed) > 200, checked
    assert min(steps.values()) > 200, steps


def test_best_fit_reads_do_not_grow_with_the_busy_nodes():
    # 20,000 nodes; each busy node holds its lowest cells, as claims take
    # them.  Per unit, best fit reads each node its copy changed (one count,
    # and a find per resource where its key improves) and the first node
    # that fits in each bucket walked: the same with 1,000 or 10,000 busy
    # nodes.  Only the index refresh reads the busy nodes, once each, and
    # only after the ledger changed.
    reads = []

    class CountingMask(bytearray):
        def count(self, *args):
            reads.append("count")
            return super().count(*args)

        def find(self, *args):
            reads.append("find")
            return super().find(*args)

    system = support.system_of((10_000, {"core": 4}), (10_000, {"core": 8, "gpu": 1}))
    span = system.node_span
    requests = [
        ({"core": 3}, 3, [1, 2, 3]),  # tight on thin busy nodes; each claim adds one changed node
        ({"core": 4}, 2, [1, 2]),  # the lowest wholly free thin node
        ({"core": 2, "gpu": 1}, 2, [2, 5]),  # thin nodes lack gpu; fat busy nodes fit
        ({"core": 8}, 1, [1]),  # only a wholly free fat node
    ]
    per_unit = {}
    for n_busy in (1_000, 10_000):
        busy = list(range(1, n_busy // 2 + 1)) + list(range(10_001, 10_001 + n_busy // 2))
        ledger = Ledger(system)
        ledger.free = {r: CountingMask(mask) for r, mask in ledger.free.items()}
        for job_id, node in enumerate(busy, 1):
            extent = 1 if node <= 10_000 else 2
            ledger.occupy(one_entry_job(job_id, AllocationEntry(0, "core", span[(node, "core")][0], extent)))
        reads.clear()
        ledger.free_index("core")
        assert len(reads) == n_busy and set(reads) == {"count"}
        reads.clear()
        ledger.free_index("core")
        assert reads == []
        per_unit[n_busy] = []
        for unit_req, rn, _ in requests:
            free = FreeRuns(ledger)
            free.free = {r: CountingMask(mask) for r, mask in free.free.items()}
            counts = []

            def pick(system, free, unit_req):
                reads.clear()
                node = best_fit_node(system, free, unit_req)
                counts.append(len(reads))
                return node

            assert place_job(system, free, rn, unit_req, pick) is not None
            per_unit[n_busy].append(counts)
    assert per_unit[1_000] == per_unit[10_000] == [expected for _, _, expected in requests]


def test_last_fit_and_top_claims_match_a_full_scan():
    # The highest node the unit fits, and there the highest q free cells of
    # each resource, as pcp20's branching fixes them when it starts a job now.
    rng = random.Random(4711)
    placed = failed = 0
    for _ in range(300):
        system = random_interleaved_system(rng)
        free = free_runs(system, random_running(rng, system, rng.randint(0, 6))[0])
        for _ in range(6):
            resources = rng.sample(system.resources, rng.randint(1, len(system.resources)))
            unit_req = {r: rng.randint(1, 3) for r in system.resources if r in resources}
            node = last_fit_node(system, free, unit_req)
            assert node == scan_last_fit(system, free, unit_req)
            if node is None:
                failed += 1
                continue
            highest = {}
            for r, q in unit_req.items():
                first, last = system.node_span[(node, r)]
                mask = free.free[r]
                runs = [p for p in range(first, last - q + 2) if all(mask[p - 1 : p - 1 + q])]
                highest[r] = max(runs)
                assert free.find(node, r, q, top=True) == highest[r]
            before = masks_of(free)
            allocation = place_job(system, free, 1, unit_req, last_fit_node, top=True)
            assert {a.resource: a.position for a in allocation} == highest
            assert masks_of(free) == claimed(before, allocation)
            placed += 1
    assert min(placed, failed) > 100


def test_node_choice_work_does_not_grow_with_the_machine(monkeypatch):
    system = support.system_of((10_000, {"core": 4}), (10_000, {"core": 8, "gpu": 1}))
    running = [
        support.running(system, 1, start=0, d_expected=50, placements=[(0, 1, "core", 1, 1)]),
        support.running(system, 2, start=0, d_expected=50, placements=[(0, 10_001, "core", 1, 6)]),
        support.running(
            system, 3, start=0, d_expected=50,
            placements=[(0, 15_000, "core", 1, 1), (0, 15_000, "gpu", 1, 1)],
        ),
    ]
    free = free_runs(system, running)
    assert taken_nodes(system, free) == {1, 10_001, 15_000}
    assert best_fit_node(system, free, {"core": 2}) == 10_001  # the tightest busy node
    assert best_fit_node(system, free, {"core": 3}) == 1
    # busy node 15 000 fits four cores, but wholly free node 2 leaves no slack
    assert best_fit_node(system, free, {"core": 4}) == 2
    # no busy node fits: the lowest wholly free node of the class that does
    assert best_fit_node(system, free, {"core": 8}) == 10_002
    assert best_fit_node(system, free, {"core": 4, "gpu": 1}) == 10_002
    assert first_fit_node(system, free, {"core": 4}) == 2

    allocation = place_job(system, free, rn=3, unit_req={"core": 4}, pick=best_fit_node)
    assert sorted(system.owner["core"][a.position - 1] for a in allocation) == [2, 3, 4]
    assert first_fit_node(system, free, {"core": 4}) == 5
    assert last_fit_node(system, free, {"core": 4}) == 20_000

    # First and last fit walk each class that can hold the unit from its
    # edge and stop at its first node that fits, or at one that cannot beat
    # the best so far: taken nodes away from the edges cost nothing, and
    # each taken node at an edge that cannot hold the unit costs one fit
    # test.
    span = system.node_span
    calls = []
    find = FreeRuns.find

    def counting_find(self, node, resource, q, top=False):
        calls.append(node)
        return find(self, node, resource, q, top)

    monkeypatch.setattr(FreeRuns, "find", counting_find)

    def ledger_taking(nodes, resource):
        ledger = Ledger(system)
        for job_id, node in enumerate(nodes, 1):
            first, last = span[(node, resource)]
            ledger.occupy(one_entry_job(job_id, AllocationEntry(0, resource, first, last - first + 1)))
        return ledger

    def picks(ledger, unit_req):
        """(node, the nodes fit-tested in order, find calls) for first and last fit."""
        out = []
        for pick in (first_fit_node, last_fit_node):
            calls.clear()
            node = pick(system, FreeRuns(ledger), unit_req)
            tested = [n for at, n in enumerate(calls) if at == 0 or calls[at - 1] != n]
            out.append((node, tested, len(calls)))
        return out

    requests = [
        ({"core": 4}, [(1, [1], 1), (20_000, [20_000], 1)]),
        ({"core": 2, "gpu": 1}, [(10_001, [10_001], 2), (20_000, [20_000], 2)]),  # thin nodes lack gpu
        ({"core": 8}, [(10_001, [10_001], 1), (20_000, [20_000], 1)]),
    ]
    for n_taken in (1_000, 10_000):
        middle = range(5_001 - n_taken // 4, 5_001 + n_taken // 4)
        ledger = ledger_taking([*middle, *(10_000 + node for node in middle)], "core")
        for unit_req, expected in requests:
            assert picks(ledger, unit_req) == expected, (n_taken, unit_req)

    for k in (1, 10, 1_000):
        ledger = ledger_taking(range(20_001 - k, 20_001), "gpu")
        # the thin class cannot hold a gpu unit and is never tested
        (first, _, _), (last, tested, _) = picks(ledger, {"core": 1, "gpu": 1})
        assert (first, last) == (10_001, 20_000 - k)
        assert tested == list(range(20_000, 19_999 - k, -1))
        # a unit without gpu fits the top node, whose class is walked first
        assert picks(ledger, {"core": 4})[1] == (20_000, [20_000], 1)


def test_place_job_is_all_or_nothing():
    system = support.system_of((2, {"core": 4}))
    free = free_runs(system, [])
    masks = masks_of(free)
    assert place_job(system, free, rn=3, unit_req={"core": 3}, pick=best_fit_node) is None
    # failed placement leaves no residue
    assert (total_free(free, 1, "core"), total_free(free, 2, "core")) == (4, 4)
    assert masks_of(free) == masks

    allocation = place_job(system, free, rn=2, unit_req={"core": 3}, pick=best_fit_node)
    assert allocation is not None
    nodes = {system.owner[a.resource][a.position - 1] for a in allocation}
    assert nodes == {1, 2}  # one unit per node; neither node fits two


def test_place_job_result_validates():
    system = support.system_of((2, {"core": 8, "gpu": 2}))
    free = free_runs(system, [])
    allocation = place_job(system, free, rn=2, unit_req={"core": 4, "gpu": 1}, pick=best_fit_node)
    assert validate_allocation(system, [], [(1, allocation)]) == []


def test_place_units_on_nodes_respects_choice_and_fragmentation():
    system = support.system_of((2, {"core": 4}))
    running = [
        support.running(system, 9, start=0, d_expected=99, placements=[(1, 1, "core", 2, 1)])
    ]
    free = free_runs(system, running)
    # node 1 has free cells {1, 3, 4}: a 2-wide claim works, a 3-wide cannot
    ok = place_units_on_nodes(system, free, [1], {"core": 2})
    assert ok is not None and ok[0].position == 3

    free2 = free_runs(system, running)
    masks = masks_of(free2)
    assert place_units_on_nodes(system, free2, [2, 1], {"core": 3}) is None
    # the first unit's claim on node 2 was undone
    assert (total_free(free2, 1, "core"), total_free(free2, 2, "core")) == (3, 4)
    assert masks_of(free2) == masks


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


def test_serial_schedule_backfills_behind_reservations():
    # Cores 1-2 are held until 10.  Job 1 wants all four cores, so it waits
    # for the release; job 2's run from 0 or 10 would meet job 1's, so it
    # waits for job 1's end; job 3 ends before job 1 starts, so it takes
    # the free cores now.
    system = support.system_of((1, {"core": 4}))
    jobs = [
        support.queued(1, submit=0, rn=1, unit_req={"core": 4}, d_expected=5),
        support.queued(2, submit=0, rn=1, unit_req={"core": 2}, d_expected=20),
        support.queued(3, submit=0, rn=1, unit_req={"core": 2}, d_expected=5),
    ]
    running = [support.running(system, 9, start=0, d_expected=10, placements=[(0, 1, "core", 1, 2)])]
    instance = support.instance_on(system, t=0, queued_jobs=jobs, running_jobs=running)
    masks = masks_of(FreeRuns(instance.ledger))
    schedule = serial_schedule(instance, jobs)
    assert [(start, [(a.position, a.extent) for a in alloc]) for start, alloc in schedule] == [
        (10, [(1, 4)]),
        (15, [(1, 2)]),
        (0, [(3, 2)]),
    ]
    assert masks_of(FreeRuns(instance.ledger)) == masks


# -- the driver ------------------------------------------------------------------------------

DECODERS = {
    "pcp20": (pcp20, "_decode"),
    "pcp19": (pcp19, "_materialize"),
    "hcp19": (hcp19, "_place"),
}


@pytest.mark.parametrize("name", sorted(DISPATCHERS))
@pytest.mark.parametrize("rescue", [False, True])
def test_decode_guard_refuses_an_overlapping_decision(name, rescue, monkeypatch):
    """A decoded decision is checked where the simulator applies it, and
    an invalid one aborts the run: the driver neither falls back nor lets
    the first-fit rescue replace it."""
    module, decoder = DECODERS[name]

    def overlapping(handle, instance, values):
        return [
            JobDecision(entry.job_id, instance.t, (AllocationEntry(0, "core", 1, 2),))
            for entry in instance.queued
        ]

    monkeypatch.setattr(module, decoder, overlapping)
    # Three jobs on two jobs' cores: one waits, so every dispatcher decodes
    # (pcp20 decides a window that fits now without decoding).
    system = support.system_of((1, {"core": 4}))
    trace = [make_job(job_id, 0, 0, 1, {"core": 2}, 10) for job_id in (1, 2, 3)]
    dispatch = DispatchConfig(budget_ms=10_000, node_limit=None, emergency_first_fit=rescue)
    with pytest.raises(SimulationError, match="double-booking"):
        run_simulation(trace, system, SimConfig(dispatcher=name, dispatch=dispatch))


@pytest.mark.parametrize("name", sorted(DISPATCHERS))
def test_empty_window_is_optimal_at_zero(name):
    system = support.system_of((1, {"core": 4}))
    queued = [support.queued(1, submit=0, rn=1, unit_req={"core": 2}, d_expected=10)]
    instance = support.instance_on(system, t=3, queued_jobs=queued)
    decision = DISPATCHERS[name](instance, DispatchConfig(window=0))
    stats = decision.stats
    assert (stats.status, stats.objective) == ("optimal", 0)
    assert (stats.queue_size, stats.window_size, stats.n_vars) == (1, 0, 0)
    assert decision.jobs == [] and not decision.stats.fallback
