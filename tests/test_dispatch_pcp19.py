"""Per-node presence dispatcher: replicated model size and materialization."""

import random

import oracles
import support
from hpcdispatch.dispatch.common import DispatchConfig
from hpcdispatch.dispatch.pcp19 import (
    build_and_solve_pcp19,
    build_pcp19,
    count_presence_vars,
)
from hpcdispatch.dispatch.pcp20 import solve_pcp20
from hpcdispatch.kernel import Cumulative
from hpcdispatch.system import preset


def unlimited(budget_ms=60_000.0):
    return DispatchConfig(budget_ms=budget_ms, node_limit=None)


# -- model size -------------------------------------------------------------------


def test_presence_count_matches_oracle_and_build():
    rng = random.Random(91)
    system = preset("eurora")
    for _ in range(10):
        jobs = support.eurora_style_queue(rng, rng.randint(1, 15))
        instance = support.instance_on(system, t=1000, queued_jobs=jobs)
        window = support.window_of(instance)
        n_sched, n_alloc = count_presence_vars(instance, window)
        assert n_sched + n_alloc == oracles.expected_vars_pcp19(instance)
        handle = build_pcp19(instance, window)
        assert len(handle.solver.vars) == n_sched + n_alloc


def test_serial_job_replicates_once_per_node():
    system = preset("eurora")
    instance = support.instance_on(
        system, t=0,
        queued_jobs=[support.queued(1, 0, rn=1, unit_req={"core": 4, "mem": 4}, d_expected=60)],
    )
    n_sched, n_alloc = count_presence_vars(instance, support.window_of(instance))
    assert (n_sched, n_alloc) == (1, 64)  # one candidate slot on every node


def test_presence_vars_scale_with_the_system():
    rng = random.Random(14)
    jobs = support.eurora_style_queue(rng, 8)
    sizes = []
    for nodes in (2, 64, 256):
        system = support.system_of((nodes, {"core": 16, "mem": 16, "gpu": 2, "mic": 2}))
        instance = support.instance_on(system, t=1000, queued_jobs=jobs)
        n_sched, n_alloc = count_presence_vars(instance, support.window_of(instance))
        sizes.append(n_sched + n_alloc)
    assert sizes[0] < sizes[1] < sizes[2]


def test_node_cumulatives_are_posted_only_when_they_can_prune():
    # Node 1's cores are all held, so its core cumulative can prune; node 2
    # is idle and node 1's gpu is requested by no window job: none for them.
    system = support.system_of((2, {"core": 2, "gpu": 1}))
    instance = support.instance_on(
        system, t=2,
        queued_jobs=[support.queued(1, submit=1, rn=1, unit_req={"core": 1}, d_expected=10)],
        running_jobs=[
            support.running(
                system, 9, start=0, d_expected=5,
                placements=[(1, 1, "core", 1, 2), (1, 1, "gpu", 1, 1)],
            )
        ],
    )
    handle = build_pcp19(instance, support.window_of(instance))
    cumulatives = [prop for prop in handle.solver.props if isinstance(prop, Cumulative)]
    assert [(prop.capacity, prop.base) for prop in cumulatives] == [(2, {2: 2, 5: -2})]
    (jv,) = handle.jobs
    assert [task.presence for task in cumulatives[0].tasks] == [
        x for node, _j, x in jv.presences if node == 1
    ]
    decision = build_and_solve_pcp19(instance, unlimited())
    (jd,) = decision.dispatched()
    assert jd.start == 2 and jd.allocation[0].position == 3  # node 2's first core


# -- solving ------------------------------------------------------------------------


def test_empty_queue_short_circuits():
    system = support.system_of((1, {"core": 1}))
    instance = support.instance_on(system, t=3, queued_jobs=[])
    decision = build_and_solve_pcp19(instance)
    assert decision.stats.status == "optimal"
    assert decision.stats.objective == 0
    assert decision.jobs == []


def test_agrees_with_joint_model_on_tiny_instances():
    for seed in range(15):
        rng = random.Random(10_000 + seed)
        instance = support.tiny_instance(rng)
        joint = solve_pcp20(instance, unlimited())
        replicated = build_and_solve_pcp19(instance, unlimited())
        assert replicated.stats.status == "optimal", f"seed {seed}"
        assert replicated.stats.objective == joint.stats.objective, f"seed {seed}"


def test_materialized_decisions_validate():
    rng = random.Random(55)
    for _ in range(10):
        instance = support.tiny_instance(rng)
        decision = build_and_solve_pcp19(instance, unlimited())
        assert decision.violations(instance) == []
        for jd in decision.jobs:
            assert (jd.allocation is not None) == (jd.start == instance.t)


def test_fragmented_node_defers_job_to_next_cycle():
    # Three cores are free but not contiguously; per-node capacity is
    # satisfied at t, so the solver schedules now and materialization
    # must push the job one step instead of splitting the claim.
    system = support.system_of((1, {"core": 4}))
    instance = support.instance_on(
        system, t=10,
        queued_jobs=[support.queued(1, submit=8, rn=1, unit_req={"core": 3}, d_expected=5)],
        running_jobs=[
            support.running(system, 9, start=0, d_expected=40, placements=[(1, 1, "core", 2, 1)])
        ],
    )
    decision = build_and_solve_pcp19(instance, unlimited())
    (jd,) = decision.jobs
    assert jd.start == 11
    assert jd.allocation is None
    assert decision.stats.deferred == 1
    assert decision.dispatched() == []


def test_unit_equivalence_with_joint_plans():
    # Node-level projections of joint optima are feasible here and cost the
    # same, and node plans lift back to contiguous positions.
    for seed in range(10):
        rng = random.Random(10_000 + seed)
        instance = support.tiny_instance(rng)
        obj20, plan20 = support.full_pcp20(instance)
        obj19, plan19 = support.full_pcp19(instance)
        assert obj20 == obj19, f"seed {seed}"
        projected = {
            job_id: (start, tuple(sorted(node for node, _spots in placements)))
            for job_id, (start, placements) in plan20.items()
        }
        assert oracles.capacity_violations(instance, projected) == [], f"seed {seed}"
        assert oracles.positions_for_nodes(instance, plan19) is not None, f"seed {seed}"


def test_build_deadline_on_a_big_system_reports_timeout():
    system = preset("kit-forhlr2")
    rng = random.Random(2)
    jobs = [
        support.queued(i, submit=990, rn=1, unit_req={"core": 2, "mem": 2}, d_expected=600)
        for i in range(1, 41)
    ]
    instance = support.instance_on(system, t=1000, queued_jobs=jobs)
    decision = build_and_solve_pcp19(instance, DispatchConfig(budget_ms=1.0))
    assert decision.stats.status == "timeout"
    assert decision.stats.fallback
    assert decision.stats.n_vars > 40_000  # the count is known without building
    assert decision.jobs == []


def test_node_limit_exhaustion_reports_timeout_fallback():
    system = preset("eurora")
    rng = random.Random(5)
    jobs = support.eurora_style_queue(rng, 20)
    instance = support.instance_on(system, t=1000, queued_jobs=jobs)
    decision = build_and_solve_pcp19(instance, DispatchConfig(budget_ms=10_000, node_limit=0))
    assert decision.stats.status == "timeout"
    assert decision.stats.fallback
    assert decision.jobs == []


def test_emergency_first_fit_rescues_fallback():
    system = preset("eurora")
    rng = random.Random(5)
    jobs = support.eurora_style_queue(rng, 20)
    instance = support.instance_on(system, t=1000, queued_jobs=jobs)
    config = DispatchConfig(budget_ms=10_000, node_limit=0, emergency_first_fit=True)
    decision = build_and_solve_pcp19(instance, config)
    assert decision.stats.fallback
    assert decision.dispatched()
    assert decision.violations(instance) == []
