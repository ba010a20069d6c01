"""Joint position-space dispatcher: model size, optimality, decoding."""

import random

import oracles
import prop_harness
import support
from hpcdispatch.dispatch.common import DispatchConfig, serial_schedule
from hpcdispatch.dispatch import pcp20
from hpcdispatch.dispatch.pcp20 import build_pcp20, count_position_vars, make_branch, solve_pcp20
from hpcdispatch.kernel import Cumulative
from hpcdispatch.system import preset


def unlimited(budget_ms=60_000.0):
    return DispatchConfig(budget_ms=budget_ms, node_limit=None)


# -- frozen objectives -----------------------------------------------------------


def test_single_job_objective_counts_wait_so_far():
    system = support.system_of((1, {"core": 1}))
    instance = support.instance_on(
        system, t=5,
        queued_jobs=[support.queued(1, submit=0, rn=1, unit_req={"core": 1}, d_expected=10)],
    )
    decision = solve_pcp20(instance, unlimited())
    assert decision.stats.status == "optimal"
    # weight 1000, start now: 1000 * (5 - 0 + 10)
    assert decision.stats.objective == 15_000
    (dispatched,) = decision.dispatched()
    assert dispatched.start == 5
    assert dispatched.allocation[0].position == 1


def test_two_equal_jobs_serialize_on_one_core():
    system = support.system_of((1, {"core": 1}))
    instance = support.instance_on(
        system, t=0,
        queued_jobs=[
            support.queued(1, submit=0, rn=1, unit_req={"core": 1}, d_expected=10),
            support.queued(2, submit=0, rn=1, unit_req={"core": 1}, d_expected=10),
        ],
    )
    decision = solve_pcp20(instance, unlimited())
    assert decision.stats.status == "optimal"
    # 1000 * 10 now plus 1000 * 20 after the first finishes
    assert decision.stats.objective == 30_000
    starts = {d.job_id: d.start for d in decision.jobs}
    assert sorted(starts.values()) == [0, 10]
    assert [d.job_id for d in decision.dispatched()] == [min(starts, key=starts.get)]


def test_empty_queue_short_circuits():
    system = support.system_of((1, {"core": 1}))
    instance = support.instance_on(system, t=9, queued_jobs=[])
    decision = solve_pcp20(instance)
    assert decision.stats.status == "optimal"
    assert decision.stats.objective == 0
    assert decision.jobs == []
    assert decision.stats.n_vars == 0


# -- model size --------------------------------------------------------------------


def test_variable_count_matches_closed_form():
    rng = random.Random(501)
    system = preset("eurora")
    for _ in range(20):
        jobs = support.eurora_style_queue(rng, rng.randint(1, 30))
        instance = support.instance_on(system, t=1000, queued_jobs=jobs)
        window = support.window_of(instance)
        handle = build_pcp20(instance, window)
        assert len(handle.solver.vars) == oracles.expected_vars_pcp20(instance)
        assert len(handle.solver.vars) == sum(count_position_vars(instance, window))


def test_variable_count_ignores_node_count():
    rng = random.Random(77)
    jobs = support.eurora_style_queue(rng, 12)
    counts = []
    for nodes in (2, 64, 1173):
        system = support.system_of((nodes, {"core": 16, "mem": 16, "gpu": 2, "mic": 2}))
        instance = support.instance_on(system, t=1000, queued_jobs=jobs)
        handle = build_pcp20(instance, support.window_of(instance))
        counts.append(len(handle.solver.vars))
    assert counts[0] == counts[1] == counts[2]


def test_span_filter_bakes_node_blocks_into_domains():
    system = preset("eurora")
    instance = support.instance_on(
        system, t=0,
        queued_jobs=[support.queued(1, 0, rn=1, unit_req={"gpu": 2}, d_expected=5)],
    )
    handle = build_pcp20(instance, support.window_of(instance))
    (jv,) = handle.jobs
    gpu_vars = [y for res, _u, y, _q in jv.positions if res == "gpu"]
    assert len(gpu_vars) == 1
    values = prop_harness.domain(gpu_vars[0])
    # a two-wide claim must start a node block: odd positions only
    assert values == list(range(1, 64, 2))


def test_position_domains_share_the_start_windows():
    # Every position variable holds its (resource, width)'s one windows
    # object, so nothing is copied per variable.
    for name in ("eurora", "kit-forhlr2"):
        system = preset(name)
        rng = random.Random(12)
        jobs = support.eurora_style_queue(rng, 12)
        if name == "kit-forhlr2":
            jobs = [entry for entry in jobs if entry.job.demand.get("mic", 0) == 0]
        instance = support.instance_on(system, t=1000, queued_jobs=jobs)
        handle = build_pcp20(instance, support.window_of(instance))
        positions = [(res, q, y) for jv in handle.jobs for res, _u, y, q in jv.positions]
        assert len(positions) > len(handle.jobs)
        for resource, q, y in positions:
            assert y.windows is system.start_windows(resource, q)


def test_search_cost_ignores_node_count():
    # Gate check 2's 10-job queue on an idle machine: the same status,
    # objective, decisions and propagations on 64 and on 20,000 nodes.
    caps = {"core": 16, "mem": 16, "gpu": 2, "mic": 2}
    queue = support.size_independence_queue()
    outcomes = []
    for nodes in (64, 20_000):
        system = support.system_of((nodes, caps), name=f"synth{nodes}")
        instance = support.instance_on(system, 600, queue)
        handle = build_pcp20(instance, support.window_of(instance))
        result = handle.solver.solve(make_branch(handle), node_limit=1500)
        stats = result.stats
        outcomes.append((result.status, result.objective, stats.decisions, stats.propagations))
    assert outcomes[0] == outcomes[1] == ("optimal", 138190, 34, 161)


def test_branch_ranks_positions_by_bounds_not_holes():
    # One unit's two-wide core position, over starts 1, 3-4 and 6-7, and
    # its one-wide mem position, over 1-8, both with bounds 3..7: the first
    # in list order (the system's resource order) is picked, whichever of
    # them holds fewer values.
    picks = []
    for first in ({"core": 2, "mem": 2}, {"mem": 2, "core": 2}):
        system = support.system_of((1, first), (2, {"core": 3, "mem": 3}))
        instance = support.instance_on(
            system, t=0,
            queued_jobs=[support.queued(1, 0, rn=1, unit_req={"core": 2, "mem": 1}, d_expected=5)],
        )
        handle = build_pcp20(instance, support.window_of(instance))
        (jv,) = handle.jobs
        assert jv.start.assign(0)
        ys = {res: y for res, _u, y, _q in jv.positions}
        for y in ys.values():
            assert y.set_min(3) and y.set_max(7)
        assert [len(prop_harness.domain(ys[r])) for r in ("core", "mem")] == [4, 5]
        var, value = make_branch(handle)()
        picks.append((next(r for r, y in ys.items() if y is var), value))
    assert picks == [("core", 7), ("mem", 7)]


# -- decode, and what stands in for search -----------------------------------------------------


def test_decisions_validate_and_split_on_start():
    rng = random.Random(31)
    for _ in range(15):
        instance = support.tiny_instance(rng)
        decision = solve_pcp20(instance, unlimited())
        assert decision.stats.status == "optimal"
        assert decision.violations(instance) == []
        for jd in decision.jobs:
            assert jd.start >= instance.t
            assert (jd.allocation is not None) == (jd.start == instance.t)
        assert decision.stats.dispatched == len(decision.dispatched())


def one_held_core():
    """The only core is held until t=5; one queued job wants it."""
    system = support.system_of((1, {"core": 1}))
    return support.instance_on(
        system, t=2,
        queued_jobs=[support.queued(1, submit=1, rn=1, unit_req={"core": 1}, d_expected=10)],
        running_jobs=[
            support.running(system, 9, start=0, d_expected=5, placements=[(1, 1, "core", 1, 1)])
        ],
    )


def test_running_job_blocks_the_only_core():
    instance = one_held_core()
    decision = solve_pcp20(instance, unlimited())
    assert decision.stats.status == "optimal"
    (jd,) = decision.jobs
    assert jd.start == 5  # residual of the running job is 3
    assert jd.allocation is None
    assert decision.dispatched() == []


def test_cumulatives_are_posted_only_when_they_can_prune():
    # A fitting window gets no cumulative, a lone box per resource no Diffn,
    # and the gpu, which no window job requests, no propagator at all, though
    # a running job holds some.
    system = preset("eurora")
    instance = support.instance_on(
        system, t=10,
        queued_jobs=[
            support.queued(1, submit=5, rn=1, unit_req={"core": 2, "mem": 2}, d_expected=30)
        ],
        running_jobs=[
            support.running(
                system, 8, start=0, d_expected=60,
                placements=[(1, 1, "core", 1, 4), (1, 1, "mem", 1, 4), (1, 1, "gpu", 1, 2)],
            ),
            support.running(system, 9, start=5, d_expected=20, placements=[(1, 2, "core", 1, 16)]),
        ],
    )
    handle = build_pcp20(instance, support.window_of(instance))
    kinds = [type(prop).__name__ for prop in handle.solver.props]
    assert kinds == ["Released", "Released", "ElementEqual", "_ObjectiveBound"]

    # The only core is held: the pooled cumulative can prune, the axis one
    # (residual 3 plus duration 10 on a horizon of 13) cannot.
    handle = build_pcp20(one_held_core(), support.window_of(one_held_core()))
    (pooled,) = [prop for prop in handle.solver.props if isinstance(prop, Cumulative)]
    assert pooled.capacity == 1 and pooled.base == {2: 1, 5: -1}

    # Two 3-long units fit the 8-long axis horizon alone, but not beside the
    # held core's residual of 5: only the axis cumulative is posted.
    system = support.system_of((2, {"core": 2}))
    instance = support.instance_on(
        system, t=2,
        queued_jobs=[support.queued(1, submit=1, rn=2, unit_req={"core": 1}, d_expected=3)],
        running_jobs=[
            support.running(system, 9, start=0, d_expected=7, placements=[(1, 1, "core", 1, 1)])
        ],
    )
    handle = build_pcp20(instance, support.window_of(instance))
    (axis,) = [prop for prop in handle.solver.props if isinstance(prop, Cumulative)]
    assert axis.capacity == 8 and axis.base == {1: 5, 2: -5}
    # the two units' boxes are a pair, so they get a Diffn
    assert [type(prop).__name__ for prop in handle.solver.props].count("Diffn") == 1


def test_a_window_that_fits_now_is_decided_without_search_as_search_would():
    system = preset("eurora")
    rng = random.Random(5)
    jobs = support.eurora_style_queue(rng, 6)
    instance = support.instance_on(system, t=1000, queued_jobs=jobs)
    handle = build_pcp20(instance, support.window_of(instance))
    searched = handle.solver.solve(make_branch(handle), node_limit=1500)
    assert searched.status == "optimal" and searched.stats.decisions > 0
    decision = solve_pcp20(instance, DispatchConfig(budget_ms=10_000, node_limit=1500))
    stats = decision.stats
    assert (stats.status, stats.decisions, stats.improvements, stats.fallback) == (
        "optimal", 0, 0, False,
    )
    assert stats.objective == searched.objective
    assert len(decision.dispatched()) == 6
    assert decision.jobs == pcp20._decode(handle, instance, searched.values)
    # Each unit sits on the highest node it fits, in the highest free cells.
    tops = [a.position == system.total_capacity[a.resource] for d in decision.jobs for a in d.allocation]
    assert any(tops)


def test_only_a_window_with_a_job_that_waits_is_searched(monkeypatch):
    built = []

    def counting(instance, window):
        built.append(instance.t)
        return build_pcp20(instance, window)

    monkeypatch.setattr(pcp20, "build_pcp20", counting)
    system = support.system_of((1, {"core": 1}))
    fits = support.instance_on(
        system, t=5,
        queued_jobs=[support.queued(1, submit=0, rn=1, unit_req={"core": 1}, d_expected=10)],
    )
    stats = solve_pcp20(fits, unlimited()).stats
    assert (built, stats.status, stats.objective) == ([5], "optimal", 15_000)
    assert (stats.decisions, stats.improvements) == (0, 0) and stats.propagations > 0
    stats = solve_pcp20(one_held_core(), unlimited()).stats
    assert (built, stats.status, stats.improvements) == ([5, 2], "optimal", 1)


def test_node_limit_zero_returns_the_serial_schedule():
    # Two nodes of 4 cores and four 3-core jobs: two wait, so not every job
    # fits now, and at node limit 0 search cannot start.  The serial
    # schedule stands in: the decision, not a fallback.
    system = support.system_of((2, {"core": 4}))
    jobs = [
        support.queued(job_id, submit=0, rn=1, unit_req={"core": 3}, d_expected=10 * job_id)
        for job_id in range(1, 5)
    ]
    instance = support.instance_on(system, t=5, queued_jobs=jobs)
    window = support.window_of(instance)
    schedule = dict(zip((e.job_id for e in window), serial_schedule(instance, window)))
    for rescue in (False, True):
        config = DispatchConfig(budget_ms=10_000, node_limit=0, emergency_first_fit=rescue)
        decision = solve_pcp20(instance, config)
        stats = decision.stats
        assert (stats.status, stats.fallback, stats.decisions, stats.improvements) == (
            "feasible", False, 0, 0,
        )
        assert decision.violations(instance) == []
        assert {d.job_id: d.start for d in decision.jobs} == {
            job_id: start for job_id, (start, _) in schedule.items()
        } == {1: 5, 2: 5, 3: 15, 4: 25}
        for d in decision.dispatched():
            assert d.allocation == schedule[d.job_id][1]


# -- optimality against brute force ------------------------------------------------------


def test_matches_exhaustive_optimum_on_tiny_instances():
    # Small sample of the acceptance sweep's instance family.
    for seed in range(30):
        rng = random.Random(10_000 + seed)
        instance = support.tiny_instance(rng)
        best_obj, _plan = oracles.best_schedule_positions(instance, 10_000)
        decision = solve_pcp20(instance, unlimited())
        assert decision.stats.status == "optimal", f"seed {seed}"
        assert decision.stats.objective == best_obj, f"seed {seed}"
