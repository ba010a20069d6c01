"""Propagator filtering: targeted cases plus randomized soundness checks."""

import random
from collections.abc import Sequence

import pytest

import oracles
import prop_harness
from hpcdispatch.kernel.core import NodeBlocks, Solver
from hpcdispatch.kernel.propagators import (
    AllDifferent,
    BoolSumEq,
    Box,
    Cumulative,
    Diffn,
    ElementEqual,
    Released,
    Task,
    _keep_common,
    _reached,
)
from hpcdispatch.system import SystemModel


# -- cumulative ---------------------------------------------------------------


def test_cumulative_rejects_bad_tasks():
    solver = Solver()
    x = solver.new_var(0, 5)
    with pytest.raises(ValueError):
        Task(x, -1, 1)
    with pytest.raises(ValueError):
        Task(x, 1, -1)
    with pytest.raises(ValueError):
        Cumulative([], -1)
    with pytest.raises(ValueError):
        Task(3, 1, 1, presence=solver.new_var(0, 1))  # a constant task always runs


def test_cumulative_pushes_start_past_saturated_segment():
    solver = Solver()
    a = solver.new_var(0, 0, "a")
    b = solver.new_var(0, 5, "b")
    solver.add(Cumulative([Task(a, 3, 1), Task(b, 2, 1)], capacity=1))
    assert solver.propagate_all()
    assert b.lo == 3  # a occupies [0, 3) at full capacity


def test_cumulative_overload_fails_at_root():
    solver = Solver()
    a = solver.new_var(0, 0, "a")
    b = solver.new_var(0, 1, "b")  # compulsory part [1, 2) collides with a
    solver.add(Cumulative([Task(a, 3, 1), Task(b, 2, 1)], capacity=1))
    assert not solver.propagate_all()


def test_cumulative_forces_absent_task_when_nothing_fits():
    solver = Solver()
    a = solver.new_var(0, 0, "a")
    b = solver.new_var(0, 1, "b")
    present = solver.new_var(0, 1, "p")
    solver.add(Cumulative([Task(a, 4, 1), Task(b, 2, 1, presence=present)], capacity=1))
    assert solver.propagate_all()
    assert present.hi == 0


def test_cumulative_oversized_optional_task_dropped():
    solver = Solver()
    a = solver.new_var(0, 3, "a")
    present = solver.new_var(0, 1, "p")
    solver.add(Cumulative([Task(a, 2, 5, presence=present)], capacity=2))
    assert solver.propagate_all()
    assert present.hi == 0


def test_cumulative_ignores_zero_duration_and_zero_demand():
    solver = Solver()
    a = solver.new_var(0, 0, "a")
    b = solver.new_var(0, 0, "b")
    prop = Cumulative([Task(a, 0, 9), Task(b, 9, 0)], capacity=1)
    assert prop.tasks == []
    solver.add(prop)
    assert solver.propagate_all()


def test_cumulative_constant_overload_fails_at_root():
    solver = Solver()
    x = solver.new_var(0, 9, "x")
    prop = Cumulative([Task(0, 3, 1), Task(2, 2, 1), Task(x, 1, 1)], capacity=1)
    assert [task.start for task in prop.tasks] == [x]  # constants live in the base profile
    solver.add(prop)
    assert not solver.propagate_all()


def test_cumulative_pushes_past_constant_segment_on_both_bounds():
    solver = Solver()
    a = solver.new_var(2, 9, "a")
    b = solver.new_var(0, 5, "b")
    solver.add(Cumulative([Task(3, 3, 1), Task(a, 2, 1), Task(b, 2, 1)], capacity=1))
    assert solver.propagate_all()
    assert (a.lo, a.hi) == (6, 9)  # earliest start clear of the constant block [3, 6)
    assert (b.lo, b.hi) == (0, 1)  # latest start that ends by 3


def test_cumulative_latest_fit_prunes_upper_bound():
    solver = Solver()
    a = solver.new_var(4, 4, "a")
    b = solver.new_var(0, 5, "b")
    solver.add(Cumulative([Task(a, 3, 1), Task(b, 2, 1)], capacity=1))
    assert solver.propagate_all()
    # b cannot start in [3, 5] without colliding with a's block [4, 7).
    assert b.hi == 2


def test_can_prune_is_exact_at_the_capacity():
    # A constant of height 1 on [0, 5) and one unit-demand task: entailed at
    # capacity 2, while one unit over capacity 1 the task is pushed past it.
    for capacity, pushed in ((2, False), (1, True)):
        solver = Solver()
        x = solver.new_var(0, 10, "x")
        tasks = [Task(x, 3, 1)]
        assert Cumulative.can_prune(tasks, peak=1, capacity=capacity) == pushed
        solver.add(Cumulative(tasks + [Task(0, 5, 1)], capacity))
        assert solver.propagate_all()
        assert (x.lo, x.hi) == ((5, 10) if pushed else (0, 10))


def _constant_peak(constants):
    """Highest point of the (start, duration, demand) constants' profile."""
    return max(
        (sum(q for s, d, q in constants if s <= p < s + d) for p, _, _ in constants), default=0
    )


def test_entailed_cumulative_never_acts_on_random_cases():
    # Whenever can_prune says no, propagation succeeds and leaves every
    # domain as it was, so a model may leave such a constraint out.  The
    # other draws show the generator does reach pruning and failing cases.
    rng = random.Random(46_000)
    seen = {"entailed": 0, "tight": 0, "acted": 0}
    for _ in range(2500):
        solver = Solver()
        tasks, variables = [], []
        for _ in range(rng.randint(1, 4)):
            start = prop_harness._random_var(solver, rng)
            presence = None
            if rng.random() < 0.4:
                presence = solver.new_var(0, 1, "p")
                if rng.random() < 0.3:
                    presence.assign(rng.randint(0, 1))
                variables.append(presence)
            variables.append(start)
            tasks.append(Task(start, rng.randint(0, 4), rng.randint(0, 3), presence))
        constants = [
            (rng.randint(-2, 8), rng.randint(1, 4), rng.randint(0, 3))
            for _ in range(rng.randint(0, 3))
        ]
        peak = _constant_peak(constants)
        need = peak + sum(task.demand for task in tasks)
        capacity = max(0, need + rng.randint(-2, 1))
        entailed = not Cumulative.can_prune(tasks, peak, capacity)
        before = [(var.lo, var.hi) for var in variables]
        mark = solver.mark()
        solver.add(Cumulative(tasks + [Task(s, d, q) for s, d, q in constants], capacity))
        ok = solver.propagate_all()
        after = [(var.lo, var.hi) for var in variables]
        if entailed:
            assert ok and after == before and solver.mark() == mark, (constants, capacity)
            seen["entailed"] += 1
            seen["tight"] += capacity == need
        else:
            seen["acted"] += not ok or after != before
    assert min(seen.values()) >= 300, seen


# -- diffn --------------------------------------------------------------------


def test_diffn_forces_apart_on_free_axis():
    solver = Solver()
    ax = solver.new_var(0, 0)
    ay = solver.new_var(0, 0)
    bx = solver.new_var(1, 1)
    by = solver.new_var(0, 3)
    solver.add(Diffn([Box(ax, 2, ay, 2), Box(bx, 2, by, 2)]))
    assert solver.propagate_all()
    assert by.lo == 2  # x-overlap is certain, so b must sit above a


def test_diffn_fixed_overlap_fails():
    solver = Solver()
    ax = solver.new_var(0, 0)
    ay = solver.new_var(0, 0)
    bx = solver.new_var(1, 1)
    by = solver.new_var(1, 1)
    solver.add(Diffn([Box(ax, 2, ay, 2), Box(bx, 2, by, 2)]))
    assert not solver.propagate_all()


def test_diffn_touching_edges_are_fine():
    solver = Solver()
    ax = solver.new_var(0, 0)
    ay = solver.new_var(0, 0)
    bx = solver.new_var(2, 2)
    by = solver.new_var(0, 0)
    solver.add(Diffn([Box(ax, 2, ay, 2), Box(bx, 2, by, 2)]))
    assert solver.propagate_all()


def test_diffn_rejects_negative_extent():
    solver = Solver()
    x = solver.new_var(0, 1)
    y = solver.new_var(0, 1)
    with pytest.raises(ValueError):
        Box(x, -1, y, 1)


def test_diffn_zero_area_boxes_dropped():
    solver = Solver()
    ax = solver.new_var(0, 0)
    ay = solver.new_var(0, 0)
    prop = Diffn([Box(ax, 0, ay, 3)])
    assert prop.boxes == []


def test_diffn_rejects_int_origin_box():
    # Taken areas are Released data, never fixed rectangles.
    solver = Solver()
    v = solver.new_var(0, 3, "v")
    for x, y in ((0, v), (v, 0), (0, 0)):
        with pytest.raises(ValueError, match="Released"):
            Diffn([Box(v, 2, v, 2), Box(x, 2, y, 2)])


def test_diffn_fails_again_on_a_revisited_state():
    solver = Solver()
    ax = solver.new_var(0, 0)
    ay = solver.new_var(0, 0)
    bx = solver.new_var(0, 3)
    by = solver.new_var(0, 3)
    solver.add(Diffn([Box(ax, 2, ay, 2), Box(bx, 2, by, 2)]))
    assert solver.propagate_all()
    mark = solver.mark()
    for _ in range(2):
        assert bx.assign(1) and by.assign(1)  # b overlaps a on both axes
        assert not solver.propagate()
        solver.undo_to(mark)
    assert bx.assign(2) and by.assign(1)
    assert solver.propagate()


def _fresh_diffn_fixpoint(solver: Solver, boxes: list[Box]):
    """(ok, bounds of every variable) of a new Diffn over copies of the domains."""
    fresh = Solver()
    copies = {}
    for var in solver.vars:
        copies[var] = fresh.new_var(var.lo, var.hi)
    fresh.add(Diffn([Box(copies[b.x], b.x_len, copies[b.y], b.y_len) for b in boxes]))
    ok = fresh.propagate_all()
    return ok, [(copies[var].lo, copies[var].hi) for var in solver.vars]


def test_diffn_rescans_from_bounds_match_a_fresh_diffn_on_random_sequences():
    rng = random.Random(20260913)
    for _ in range(150):
        solver = Solver()
        pool = [solver.new_var(0, rng.randint(3, 9)) for _ in range(rng.randint(3, 8))]
        boxes = [
            Box(rng.choice(pool), rng.randint(1, 3), rng.choice(pool), rng.randint(1, 3))
            for _ in range(rng.randint(2, 5))
        ]
        solver.add(Diffn(boxes))
        if not solver.propagate_all():
            continue
        marks = [solver.mark()]
        for _ in range(40):
            step = rng.random()
            if step < 0.25:
                marks.append(solver.mark())
                continue
            if step < 0.45:
                solver.undo_to(marks.pop() if len(marks) > 1 else marks[0])
                continue
            for var in rng.sample(pool, rng.randint(1, 2)):
                if var.lo == var.hi:
                    continue
                v = rng.randint(var.lo + 1, var.hi)
                op = rng.choice((var.set_min, var.set_max, var.remove))
                assert op(v if op is not var.set_max else v - 1)
            expected = _fresh_diffn_fixpoint(solver, boxes)
            ok = solver.propagate()
            assert ok == expected[0]
            if ok:
                assert [(var.lo, var.hi) for var in solver.vars] == expected[1]
            else:
                solver.undo_to(marks.pop() if len(marks) > 1 else marks[0])


# -- released -------------------------------------------------------------------


def test_released_pushes_claim_past_held_interval():
    # The claim starts at 1, before the interval's release at 3, so its
    # window y..y+1 must clear the interval.
    for held, y_lo, y_hi, bounds in (((0, 1, 3), 0, 5, (2, 5)), ((3, 5, 3), 0, 4, (0, 1))):
        solver = Solver()
        s = solver.new_var(1, 1, "s")
        y = solver.new_var(y_lo, y_hi, "y")
        solver.add(Released(s, y, 2, [held]))
        assert solver.propagate_all()
        assert (y.lo, y.hi) == bounds


def test_released_claim_forced_into_held_interval_fails():
    solver = Solver()
    s = solver.new_var(0, 1, "s")
    y = solver.new_var(0, 1, "y")
    solver.add(Released(s, y, 3, [(2, 3, 4)]))
    assert not solver.propagate_all()  # y..y+2 covers 2, held until 4


def test_released_raises_start_to_least_release_level():
    # Every window of y in [1, 6] meets a held interval; the cheapest are
    # y = 4 and 5 (release 5), not the low end (9) or the high end (7).
    solver = Solver()
    s = solver.new_var(0, 20, "s")
    y = solver.new_var(1, 6, "y")
    solver.add(Released(s, y, 2, [(1, 3, 9), (5, 5, 5), (7, 8, 7)]))
    assert solver.propagate_all()
    assert s.lo == 5
    assert (y.lo, y.hi) == (1, 6)


def test_released_rejects_empty_claim():
    solver = Solver()
    with pytest.raises(ValueError):
        Released(solver.new_var(0, 1), solver.new_var(1, 2), 0, [])


def test_released_filtering_is_exact_on_random_cases():
    # Bounds are exact: y.lo and y.hi are the lowest and highest values of y
    # that fit some start, and start.lo is the least start that fits some
    # y, all found by brute force over positions within start windows.
    rng = random.Random(50_000)
    outcomes = set()
    for _ in range(600):
        solver, variables, ok = prop_harness.build_case("release", rng)
        before = [prop_harness.domain(var) for var in variables]
        supported = oracles.support_sets(before, ok)
        feasible = solver.propagate_all()
        outcomes.add(feasible)
        assert feasible == bool(supported[0])
        if feasible:
            start, y = variables
            assert start.lo == min(supported[0])
            assert (y.lo, y.hi) == (min(supported[1]), max(supported[1]))
    assert outcomes == {True, False}


def test_released_reads_only_intervals_in_range_on_a_large_system():
    # Cores 1-2 of every node are held past the claim's latest start, so a
    # 2-wide claim fits only on cores 3-4 of a node.
    nodes = 20_000
    system = SystemModel([{"core": 4}] * nodes)
    held = _ReadLog([(4 * n + 1, 4 * n + 2, 10 + n % 7) for n in range(nodes)])
    solver = Solver()
    s = solver.new_var(0, 5, "s")
    y = solver.new_var(1, system.total_capacity["core"], "y", system.start_windows("core", 2))
    assert y.set_min(4 * 100 + 1) and y.set_max(4 * 103 - 1)  # nodes 101..103
    prop = Released(s, y, 2, held)
    assert prop.propagate(solver)
    assert (y.lo, y.hi, s.lo) == (403, 411, 0)
    # The intervals of nodes 101..104, plus one bisection's probes per scan.
    probes = 2 * nodes.bit_length()
    assert {100, 101, 102} <= held.read
    assert len(held.read) <= 4 + probes


# -- element ------------------------------------------------------------------

# Start windows of one-wide claims, as SystemModel.start_windows builds them:
# (first, last, node), ascending.
CORE = NodeBlocks([(1, 2, 1), (3, 4, 2), (5, 6, 3)])
GPU = NodeBlocks([(1, 1, 1), (2, 2, 3)])  # node 2 has no gpu


def test_element_filters_index_against_fixed_value():
    solver = Solver()
    core = solver.new_var(1, 6, "core", CORE)
    gpu = solver.new_var(2, 2, "gpu", GPU)
    solver.add(ElementEqual(core, gpu))
    assert solver.propagate_all()
    assert (core.lo, core.hi) == (5, 6)  # node 3's window


def test_element_empty_intersection_fails():
    solver = Solver()
    core = solver.new_var(1, 2, "core", CORE)  # node 1 only
    gpu = solver.new_var(2, 2, "gpu", GPU)  # node 3 only
    solver.add(ElementEqual(core, gpu))
    assert not solver.propagate_all()


def test_element_cross_array_run_pruning():
    # Cores on nodes 2-3 and gpus on nodes 1 and 3 share only node 3, so
    # both positions move there.
    solver = Solver()
    core = solver.new_var(3, 6, "core", CORE)
    gpu = solver.new_var(1, 2, "gpu", GPU)
    solver.add(ElementEqual(core, gpu))
    assert solver.propagate_all()
    assert (core.lo, core.hi, gpu.lo, gpu.hi) == (5, 6, 2, 2)
    # Filtering is on bounds: node 2's window between two common nodes stays.
    solver = Solver()
    core = solver.new_var(1, 6, "core", CORE)
    gpu = solver.new_var(1, 2, "gpu", GPU)
    solver.add(ElementEqual(core, gpu))
    assert solver.propagate_all()
    assert (core.lo, core.hi, gpu.lo, gpu.hi) == (1, 6, 1, 2)


def test_element_rejects_indices_outside_the_blocks():
    # A position takes its nodes from its windows, so one without windows
    # is refused; one with windows never holds a value outside them.
    solver = Solver()
    inside = solver.new_var(0, 7, "inside", CORE)
    assert (inside.lo, inside.hi) == (1, 6)
    plain = solver.new_var(1, 2, "plain")
    for pair in ((inside, plain), (plain, inside)):
        with pytest.raises(ValueError, match="'plain' has no windows"):
            ElementEqual(*pair)


def test_element_filtering_is_exact_on_random_block_maps():
    # Filtering is exact on bounds: each lo and hi is the least and the
    # greatest brute-force supported value, from per-position owner lists.
    rng = random.Random(40_000)
    outcomes = {True: 0, False: 0}
    for _ in range(1000):
        solver, variables, ok = prop_harness.build_case("element", rng)
        before = [prop_harness.domain(var) for var in variables]
        supported = oracles.support_sets(before, ok)
        feasible = solver.propagate_all()
        outcomes[feasible] += 1
        if feasible:
            assert [(var.lo, var.hi) for var in variables] == [
                (min(keep), max(keep)) for keep in supported
            ], (before, supported)
        else:
            assert supported == [set(), set()]
    assert min(outcomes.values()) >= 100, outcomes


def test_keep_common_matches_per_block_removal_on_random_cases():
    # One bound move per side leaves the bounds that removing each reached
    # window whose node is not common would leave, with at most two trail
    # entries, and undoes to the same state.
    rng = random.Random(45_000)
    seen = {"below": 0, "between": 0, "above": 0}
    for _ in range(3000):
        solver = Solver()
        system = SystemModel([{"core": rng.randint(1, 4)} for _ in range(rng.randint(1, 8))])
        var, _ = prop_harness._random_position_var(solver, rng, system, "core")
        lo, hi, mark = var.lo, var.hi, solver.mark()
        k, end = _reached(var)
        nodes = var.windows.nodes[k:end]
        common = {node for node in nodes if rng.random() < 0.5} or {rng.choice(nodes)}
        node_of = {v: node for first, last, node in var.windows for v in range(first, last + 1)}
        kept = [v for v in prop_harness.domain(var) if node_of[v] in common]
        assert _keep_common(var, k, end, common)
        assert (var.lo, var.hi) == (min(kept), max(kept))
        assert solver.mark() <= mark + 2
        solver.undo_to(mark)
        assert (var.lo, var.hi) == (lo, hi)

        inside = [i for i, node in enumerate(nodes) if node in common]
        seen["below"] += inside[0] > 0
        seen["between"] += any(node not in common for node in nodes[inside[0] : inside[-1]])
        seen["above"] += inside[-1] < len(nodes) - 1
    assert min(seen.values()) >= 100, seen


def test_node_blocks_early_return_matches_the_block_scan_on_random_maps():
    # A call returns at once when both positions reach the same run of
    # nodes; moving each bound to a common node then moves nothing, so the
    # early return ends exactly where the scan would.
    rng = random.Random(47_000)
    seen = {"early": 0, "scanned": 0}
    for _ in range(2000):
        system = prop_harness._random_system(rng)
        solver = Solver()
        y_a, y_b = (prop_harness._random_position_var(solver, rng, system, r)[0] for r in "ab")
        (k_a, end_a), (k_b, end_b) = _reached(y_a), _reached(y_b)
        nodes_a = y_a.windows.nodes[k_a:end_a]
        nodes_b = y_b.windows.nodes[k_b:end_b]
        common = set(nodes_a) & set(nodes_b)
        mark = solver.mark()
        state = [(y.lo, y.hi) for y in (y_a, y_b)]
        ok = ElementEqual(y_a, y_b).propagate(solver)
        if nodes_a == nodes_b:
            seen["early"] += 1
            assert ok and solver.mark() == mark
            assert _keep_common(y_a, k_a, end_a, common) and _keep_common(y_b, k_b, end_b, common)
            assert [(y.lo, y.hi) for y in (y_a, y_b)] == state and solver.mark() == mark
        else:
            seen["scanned"] += 1
            assert ok == bool(common)
    assert min(seen.values()) >= 300, seen


def test_system_blocks_carry_parallel_firsts_and_nodes():
    system = SystemModel([{"core": 2, "gpu": 1}, {"core": 3}, {"core": 1, "gpu": 2}])
    for resource in system.resources:
        for blocks in (system.blocks[resource], system.start_windows(resource, 2)):
            assert isinstance(blocks, NodeBlocks)
            assert blocks.firsts == [first for first, _, _ in blocks]
            assert blocks.nodes == [node for _, _, node in blocks]
    assert system.blocks["gpu"].nodes == [1, 3]
    assert system.start_windows("gpu", 2).nodes == [3]


class _ReadLog(Sequence):
    """A list that records which indices a propagator reads."""

    def __init__(self, blocks):
        self.blocks = blocks
        self.read = set()

    def __len__(self):
        return len(self.blocks)

    def __getitem__(self, k):
        self.read.update(range(*k.indices(len(self))) if isinstance(k, slice) else [k])
        return self.blocks[k]


def _logged_windows(windows: NodeBlocks) -> NodeBlocks:
    """A copy of ``windows`` whose ``firsts`` and ``nodes`` log their reads."""
    logged = NodeBlocks(windows)
    logged.firsts = _ReadLog(logged.firsts)
    logged.nodes = _ReadLog(logged.nodes)
    return logged


def test_element_reads_only_blocks_in_range_on_a_large_system():
    nodes = 20_000
    system = SystemModel([{"core": 4, "gpu": 1}] * nodes)
    core_windows = _logged_windows(system.start_windows("core", 1))
    gpu_windows = _logged_windows(system.start_windows("gpu", 1))
    solver = Solver()
    core = solver.new_var(4 * 100 + 1, 4 * 103, "core", core_windows)  # nodes 101..103
    gpu = solver.new_var(102, 105, "gpu", gpu_windows)  # nodes 102..105
    prop = ElementEqual(core, gpu)
    for windows in (core_windows, gpu_windows):
        windows.firsts.read.clear()
        windows.nodes.read.clear()
    assert prop.propagate(solver)
    assert (core.lo, core.hi, gpu.lo, gpu.hi) == (405, 412, 102, 103)
    # The windows meeting [lo, hi], plus a few bisections' probes.
    probes = 4 * nodes.bit_length()
    assert core_windows.nodes.read == {100, 101, 102}
    assert gpu_windows.nodes.read == {101, 102, 103, 104}
    for windows in (core_windows, gpu_windows):
        assert len(windows.firsts.read) <= 4 + probes


# -- span filters ---------------------------------------------------------------
# A span filter is now the start windows a variable is built over.


def _values(var) -> list[int]:
    values, v = [], var.lo
    while v <= var.hi:
        values.append(v)
        v = var.next_value(v + 1)
    return values


def test_apply_span_filter_restricts_in_place():
    system = SystemModel([{"core": 2}, {"core": 2}])
    solver = Solver()
    y = solver.new_var(1, 4, "y", system.start_windows("core", 2))
    assert (y.lo, y.hi) == (1, 3)
    assert _values(y) == [1, 3]  # 2 would split the claim across nodes
    assert solver.mark() == 0  # untrailed: the filter is part of the root domain


def test_apply_span_filter_empty_reports_failure():
    system = SystemModel([{"core": 2}, {"core": 2}])
    solver = Solver()
    with pytest.raises(ValueError):
        solver.new_var(1, 4, "y", system.start_windows("core", 3))


def test_apply_span_filter_slides_bounds_off_holes():
    solver = Solver()
    windows = NodeBlocks([(1, 1, 1), (3, 4, 2), (6, 7, 3), (9, 9, 4)])
    y = solver.new_var(3, 8, "y", windows)
    assert (y.lo, y.hi) == (3, 7)  # 8 is a hole, so hi slides down past it
    assert _values(y) == [3, 4, 6, 7]


# -- alldifferent / boolsum -----------------------------------------------------


def test_alldifferent_forward_checking():
    solver = Solver()
    a = solver.new_var(2, 2, "a")
    b = solver.new_var(2, 3, "b")
    c = solver.new_var(2, 4, "c")
    solver.add(AllDifferent([a, b, c]))
    assert solver.propagate_all()
    assert b.value() == 3  # 2 is taken, and then 3 is taken too
    assert c.value() == 4


def test_alldifferent_duplicate_fixed_fails():
    solver = Solver()
    a = solver.new_var(1, 1)
    b = solver.new_var(1, 1)
    solver.add(AllDifferent([a, b]))
    assert not solver.propagate_all()


def test_boolsum_forces_remaining_vars():
    solver = Solver()
    a = solver.new_var(0, 1)
    b = solver.new_var(1, 1)
    c = solver.new_var(0, 1)
    solver.add(BoolSumEq([a, b, c], 1))
    assert solver.propagate_all()
    assert a.value() == 0 and c.value() == 0


def test_boolsum_infeasible_totals():
    for total in (-1, 3):
        solver = Solver()
        a = solver.new_var(0, 1)
        b = solver.new_var(0, 1)
        solver.add(BoolSumEq([a, b], total))
        assert not solver.propagate_all()


def test_boolsum_rejects_non_bool_vars():
    solver = Solver()
    x = solver.new_var(0, 2)
    with pytest.raises(ValueError):
        solver.add(BoolSumEq([x], 1))


# -- randomized soundness --------------------------------------------------------


@pytest.mark.parametrize("kind", prop_harness.KINDS)
def test_randomized_soundness(kind):
    # Brute force confirms every surviving value has support and every
    # root failure is a genuine wipe-out. The deep sweep lives in the
    # acceptance suite; this run keeps the unit suite quick.
    tally = prop_harness.run_many(kind, cases=600, seed=20_000)
    assert sum(tally.values()) == 600
    assert tally.get("fail-ok", 0) > 0  # the generator does hit infeasible cases


def _objective_case(rng: random.Random) -> Solver:
    """A weighted sum over random intervals, under a random bound near its floor."""
    solver = Solver()
    variables = [prop_harness._random_var(solver, rng) for _ in range(rng.randint(1, 4))]
    solver.minimize(variables, [rng.randint(1, 4) for _ in variables], rng.randint(-5, 5))
    objective = solver.objective
    floor = objective.constant + sum(w * v.lo for v, w in zip(variables, objective.weights))
    objective.bound = floor + rng.randint(-2, 12)
    return solver


@pytest.mark.parametrize("kind", [*prop_harness.KINDS, "objective"])
def test_propagate_returns_at_its_own_fixpoint(kind):
    # The solver does not wake a propagator for its own moves, so a call
    # that succeeds must leave nothing for a second call to move.
    rng = random.Random(777)
    moved = 0
    for _ in range(2000):
        if kind == "objective":
            solver = _objective_case(rng)
        else:
            solver, _variables, _ok = prop_harness.build_case(kind, rng)
        (prop,) = solver.props
        before = _bounds(solver)
        if not prop.propagate(solver):
            continue
        after = _bounds(solver)
        moved += after != before
        assert prop.propagate(solver)
        assert _bounds(solver) == after
    assert moved  # some first calls did prune


def _bounds(solver: Solver) -> list[tuple[int, int]]:
    return [(var.lo, var.hi) for var in solver.vars]
