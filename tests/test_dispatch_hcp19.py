"""Two-stage dispatcher: pooled schedule, heuristic placement, re-iteration."""

import math
import random

import pytest

import support
from hpcdispatch.dispatch import hcp19
from hpcdispatch.dispatch.common import DispatchConfig, objective_terms, select_window
from hpcdispatch.dispatch.hcp19 import (
    _build_schedule_model,
    _fits_now,
    _make_branch,
    _place,
    build_and_solve_hcp19,
)
from hpcdispatch.dispatch.pcp20 import solve_pcp20
from hpcdispatch.kernel import Cumulative
from hpcdispatch.sim import SimConfig, run_simulation
from hpcdispatch.workload import generate_trace
from test_sim import GOLDEN_SCENARIOS, watch


def unlimited(budget_ms=60_000.0):
    return DispatchConfig(budget_ms=budget_ms, node_limit=None)


def scarce_instance():
    """Pooled capacity admits the job now; no single node can host it."""
    system = support.system_of((2, {"core": 2}))
    return support.instance_on(
        system, t=10,
        queued_jobs=[support.queued(1, submit=9, rn=1, unit_req={"core": 2}, d_expected=4)],
        running_jobs=[
            support.running(system, 8, start=7, d_expected=8, placements=[(1, 1, "core", 1, 1)]),
            support.running(system, 9, start=7, d_expected=8, placements=[(1, 2, "core", 1, 1)]),
        ],
    )


def test_empty_queue_short_circuits():
    system = support.system_of((1, {"core": 1}))
    instance = support.instance_on(system, t=0, queued_jobs=[])
    decision = build_and_solve_hcp19(instance)
    assert decision.stats.status == "optimal"
    assert decision.stats.objective == 0
    assert decision.jobs == []


def test_model_has_only_schedule_variables():
    system = support.system_of((4, {"core": 8}))
    jobs = [
        support.queued(i, submit=0, rn=1, unit_req={"core": 2}, d_expected=10)
        for i in range(1, 6)
    ]
    instance = support.instance_on(system, t=0, queued_jobs=jobs)
    decision = build_and_solve_hcp19(instance, unlimited())
    assert decision.stats.n_vars == decision.stats.n_sched == 5
    assert decision.stats.n_alloc == 0


def test_unconstrained_dispatch_matches_joint_model():
    system = support.system_of((2, {"core": 4, "mem": 4}))
    instance = support.instance_on(
        system, t=3,
        queued_jobs=[support.queued(1, submit=0, rn=2, unit_req={"core": 2, "mem": 1}, d_expected=7)],
    )
    two_stage = build_and_solve_hcp19(instance, unlimited())
    joint = solve_pcp20(instance, unlimited())
    assert two_stage.stats.objective == joint.stats.objective
    assert [d.job_id for d in two_stage.dispatched()] == [1]
    assert two_stage.violations(instance) == []


def test_decisions_validate_on_random_tiny_instances():
    rng = random.Random(42)
    for _ in range(15):
        instance = support.tiny_instance(rng)
        decision = build_and_solve_hcp19(instance, unlimited())
        assert decision.violations(instance) == []
        for jd in decision.jobs:
            assert jd.start >= instance.t
            assert (jd.allocation is not None) == (jd.start == instance.t)


def test_pooled_schedule_triggers_reallocation_loop():
    instance = scarce_instance()
    decision = build_and_solve_hcp19(instance, unlimited())
    assert decision.stats.realloc_iterations >= 1
    assert decision.dispatched() == []
    (jd,) = decision.jobs
    assert jd.start == 11  # pushed past t after the failed placement
    assert decision.violations(instance) == []
    assert not decision.stats.fallback


def test_pooled_cumulative_is_posted_only_when_it_can_prune():
    # scarce_instance fits pooled (2 held + 2 wanted of 4 cores): nothing.
    instance = scarce_instance()
    handle = _build_schedule_model(instance, support.window_of(instance), set(), math.inf)
    assert not any(isinstance(prop, Cumulative) for prop in handle.solver.props)

    # The only core and gpu are held: a core cumulative, nothing for the gpu.
    system = support.system_of((1, {"core": 1, "gpu": 1}))
    instance = support.instance_on(
        system, t=2,
        queued_jobs=[support.queued(1, submit=1, rn=1, unit_req={"core": 1}, d_expected=10)],
        running_jobs=[
            support.running(
                system, 9, start=0, d_expected=5,
                placements=[(1, 1, "core", 1, 1), (1, 1, "gpu", 1, 1)],
            )
        ],
    )
    handle = _build_schedule_model(instance, support.window_of(instance), set(), math.inf)
    (pooled,) = [prop for prop in handle.solver.props if isinstance(prop, Cumulative)]
    assert pooled.capacity == 1 and pooled.base == {2: 1, 5: -1}
    decision = build_and_solve_hcp19(instance, unlimited())
    assert [jd.start for jd in decision.jobs] == [5]


def test_iteration_bound_holds_unplaceable_jobs(monkeypatch):
    monkeypatch.setattr(hcp19, "MAX_ITERATIONS", 1)
    decision = build_and_solve_hcp19(scarce_instance(), unlimited())
    assert decision.stats.realloc_iterations == 0
    assert decision.stats.deferred == 1
    (jd,) = decision.jobs
    assert jd.start == 11
    assert jd.allocation is None


def test_zero_budget_times_out_with_fallback():
    instance = scarce_instance()
    decision = build_and_solve_hcp19(instance, DispatchConfig(budget_ms=0.0))
    assert decision.stats.status == "timeout"
    assert decision.stats.fallback
    assert decision.jobs == []

    rescue = build_and_solve_hcp19(
        instance, DispatchConfig(budget_ms=0.0, emergency_first_fit=True)
    )
    assert rescue.stats.fallback
    # nothing fits a fragmented pair of nodes, so even first fit stays empty
    assert rescue.dispatched() == []


def test_emergency_first_fit_fills_free_system():
    # scarce_instance's 2-core job waits, so the window does not fit now and
    # the model is built; at budget 0 its search times out.  The rescue
    # places the 1-core job behind it on a free core.
    instance = scarce_instance()
    instance.queued.append(support.queued(2, submit=10, rn=1, unit_req={"core": 1}, d_expected=4))
    assert [e.job_id for e in support.window_of(instance)] == [1, 2]
    decision = build_and_solve_hcp19(
        instance, DispatchConfig(budget_ms=0.0, emergency_first_fit=True)
    )
    assert (decision.stats.status, decision.stats.fallback) == ("timeout", True)
    assert [d.job_id for d in decision.dispatched()] == [2]
    assert decision.violations(instance) == []


def test_a_window_that_fits_now_is_decided_without_a_model(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("a window that fits now builds no model")

    monkeypatch.setattr(hcp19, "_build_schedule_model", unbuilt)
    system = support.system_of((1, {"core": 2}))
    instance = support.instance_on(
        system, t=3,
        queued_jobs=[support.queued(1, submit=0, rn=1, unit_req={"core": 1}, d_expected=5)],
    )
    # Neither a spent budget nor a node limit of 0 stops the decision.
    for config in (
        DispatchConfig(budget_ms=0.0, emergency_first_fit=True),
        DispatchConfig(node_limit=0, emergency_first_fit=True),
    ):
        decision = build_and_solve_hcp19(instance, config)
        stats = decision.stats
        assert (stats.status, stats.objective, stats.fallback) == ("optimal", 16_000, False)
        assert (stats.decisions, stats.propagations, stats.improvements) == (0, 0, 0)
        assert [d.job_id for d in decision.dispatched()] == [1]
        assert decision.violations(instance) == []


# -- the fits-now step against the two stages ----------------------------------


def by_unit(allocation):
    return sorted(allocation, key=lambda a: (a.unit, a.resource))


def fits_now_differs(instance, window):
    """None where ``_fits_now`` has no plan, else how its plan differs from
    what a fresh pooled model, searched to the end, and ``_place`` decide
    (an empty list where they agree)."""
    plan = _fits_now(instance, window)
    if plan is None:
        return None
    t = instance.t
    handle = _build_schedule_model(instance, window, set(), math.inf)
    result = handle.solver.solve(_make_branch(handle), node_limit=None)
    weights, constant = objective_terms(window)
    differs = []
    if (result.status, result.objective) != ("optimal", constant + t * sum(weights)):
        differs.append((result.status, result.objective))
    for jd, (_, allocation) in zip(_place(handle, instance, result.values), plan):
        if jd.start != t or by_unit(jd.allocation) != by_unit(allocation):
            differs.append(jd)
    return differs


def test_fits_now_plan_is_the_two_stage_decision_on_tiny_instances():
    rng = random.Random(24)
    planned = 0
    for _ in range(200):
        instance = support.tiny_instance(rng)
        differs = fits_now_differs(instance, support.window_of(instance))
        if differs is not None:
            planned += 1
            assert differs == []
    assert planned > 50


@pytest.mark.parametrize("scenario", ["A", "D"])
def test_fits_now_plan_is_the_two_stage_decision_in_golden_runs(scenario, monkeypatch):
    spec, system, dispatch = GOLDEN_SCENARIOS[scenario]
    seen = {"planned": 0, "differs": []}

    def check(instance, decide):
        differs = fits_now_differs(instance, select_window(instance, dispatch))
        if differs is not None:
            seen["planned"] += 1
            if differs:
                seen["differs"].append(instance.t)
        return decide()

    watch(monkeypatch, "hcp19", check)
    config = SimConfig(dispatcher="hcp19", dispatch=dispatch)
    result = run_simulation(generate_trace(spec()), system(), config)
    assert not result.dnf and seen["planned"] > 10
    assert seen["differs"] == []
