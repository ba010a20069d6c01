"""Propagator filtering: targeted cases plus randomized soundness checks."""

import pytest

import prop_harness
from hpcdispatch.kernel.core import Solver
from hpcdispatch.kernel.propagators import (
    AllDifferent,
    BoolSumEq,
    Box,
    Cumulative,
    Diffn,
    ElementEqual,
    IndexedArray,
    Task,
    apply_span_filter,
)


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


def test_cumulative_latest_fit_prunes_upper_bound():
    solver = Solver()
    a = solver.new_var(4, 4, "a")
    b = solver.new_var(0, 5, "b")
    solver.add(Cumulative([Task(a, 3, 1), Task(b, 2, 1)], capacity=1))
    assert solver.propagate_all()
    # b cannot start in [3, 5] without colliding with a's block [4, 7).
    assert b.hi == 2


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


# -- element ------------------------------------------------------------------


def test_value_runs_on_ownership_array():
    arr = IndexedArray([1, 1, 2, 2, 3, 3])
    assert arr.runs == [(1, 2, 1), (3, 4, 2), (5, 6, 3)]
    assert arr.run_of == [0, 0, 1, 1, 2, 2]


def test_indexed_array_rejects_empty():
    with pytest.raises(ValueError):
        IndexedArray([])


def test_element_filters_index_against_fixed_value():
    solver = Solver()
    ia = solver.new_var(1, 4, "ia")
    ib = solver.new_var(1, 1, "ib")
    solver.add(ElementEqual([1, 1, 2, 2], ia, [2], ib))
    assert solver.propagate_all()
    assert (ia.lo, ia.hi) == (3, 4)


def test_element_empty_intersection_fails():
    solver = Solver()
    ia = solver.new_var(1, 2, "ia")
    ib = solver.new_var(1, 1, "ib")
    solver.add(ElementEqual([1, 1], ia, [2], ib))
    assert not solver.propagate_all()


def test_element_clamps_out_of_range_indices():
    solver = Solver()
    ia = solver.new_var(-5, 10, "ia")
    ib = solver.new_var(1, 2, "ib")
    solver.add(ElementEqual([4, 4, 4], ia, [4, 4], ib, offset_a=1))
    assert solver.propagate_all()
    # ia + 1 must land in [1, 3]
    assert (ia.lo, ia.hi) == (0, 2)


def test_element_same_var_same_offset_keeps_everything_in_range():
    solver = Solver()
    v = solver.new_var(-3, 12, "v")
    arr = IndexedArray([5, 6, 7])
    solver.add(ElementEqual(arr, v, arr, v, offset_a=2, offset_b=2))
    assert solver.propagate_all()
    assert (v.lo, v.hi) == (-1, 1)


def test_element_ignores_stale_holes_beyond_bounds():
    # A bound move that lands next to a hole strands it outside [lo, hi];
    # reachability must not count such entries against a run.
    solver = Solver()
    y = solver.new_var(1, 5, "y")
    z = solver.new_var(1, 1, "z")
    y.remove(2)
    assert y.set_max(1)
    assert y.holes == {2}  # stale
    solver.add(ElementEqual([7, 7], y, [7], z))
    assert solver.propagate_all()
    assert y.value() == 1


def test_element_cross_array_run_pruning():
    solver = Solver()
    ia = solver.new_var(1, 6, "ia")
    ib = solver.new_var(1, 6, "ib")
    solver.add(ElementEqual([1, 1, 2, 2, 3, 3], ia, [2, 2, 2, 4, 4, 4], ib))
    assert solver.propagate_all()
    # Only the value 2 is common, so ia keeps its middle run and ib its first.
    assert sorted(ia.iter_values()) == [3, 4]
    assert sorted(ib.iter_values()) == [1, 2, 3]


# -- span filters ---------------------------------------------------------------


def test_span_filter_two_wide_runs():
    arr = IndexedArray([1, 1, 2, 2])
    lo, hi, holes = arr.span_filter(1)
    assert (lo, hi) == (1, 3)
    assert holes == frozenset({2})


def test_span_filter_no_window_signals_empty():
    arr = IndexedArray([1, 1, 2, 2])
    lo, hi, holes = arr.span_filter(2)
    assert lo > hi
    assert holes == frozenset()


def test_span_filter_is_memoized():
    arr = IndexedArray([1, 1, 1, 2])
    assert arr.span_filter(1) is arr.span_filter(1)


def test_apply_span_filter_restricts_in_place():
    solver = Solver()
    y = solver.new_var(1, 4, "y")
    assert apply_span_filter(y, (1, 3, frozenset({2})))
    assert (y.lo, y.hi) == (1, 3)
    assert y.holes == {2}
    assert solver.mark() == 0  # untrailed: the filter is part of the root domain


def test_apply_span_filter_empty_reports_failure():
    solver = Solver()
    y = solver.new_var(1, 4, "y")
    assert not apply_span_filter(y, (1, 0, frozenset()))


def test_apply_span_filter_drops_holes_outside_bounds():
    solver = Solver()
    y = solver.new_var(3, 8, "y")
    assert apply_span_filter(y, (1, 9, frozenset({2, 5, 8})))
    assert (y.lo, y.hi) == (3, 8)
    assert y.holes == {5}  # 2 is below lo, 8 sits on the bound


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
