"""Solver core: domains, trail, and branch-and-bound search."""

import itertools
import random

import pytest

from hpcdispatch.kernel.core import (
    STATUS_FEASIBLE,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIMEOUT,
    Solver,
)
from hpcdispatch.kernel.propagators import AllDifferent, BoolSumEq


def first_unfixed_min(variables):
    def branch():
        for var in variables:
            if not var.is_fixed():
                return var, var.lo
        return None

    return branch


def domain_snapshot(var):
    return (var.lo, var.hi, frozenset(var.holes))


# -- domains ------------------------------------------------------------------


def test_new_var_rejects_empty_domain():
    solver = Solver()
    with pytest.raises(ValueError):
        solver.new_var(3, 2, "bad")


def test_basic_domain_ops():
    solver = Solver()
    x = solver.new_var(0, 9, "x")
    assert x.size() == 10
    assert not x.is_fixed()
    assert x.contains(0) and x.contains(9) and not x.contains(10)

    assert x.remove(4)
    assert not x.contains(4)
    assert x.size() == 9
    assert list(x.iter_values()) == [0, 1, 2, 3, 5, 6, 7, 8, 9]

    assert x.assign(7)
    assert x.is_fixed()
    assert x.value() == 7


def test_value_raises_when_unfixed():
    solver = Solver()
    x = solver.new_var(0, 3)
    with pytest.raises(ValueError):
        x.value()


def test_set_min_skips_holes_at_landing_value():
    solver = Solver()
    x = solver.new_var(0, 9, "x")
    x.remove(3)
    x.remove(4)
    assert x.set_min(3)
    # 3 and 4 are holes, so the bound slides up to 5 and consumes them.
    assert x.lo == 5
    assert 3 not in x.holes and 4 not in x.holes


def test_set_max_skips_holes_at_landing_value():
    solver = Solver()
    x = solver.new_var(0, 9, "x")
    x.remove(5)
    x.remove(6)
    assert x.set_max(6)
    assert x.hi == 4
    assert not x.holes


def test_bound_move_leaves_stale_holes_but_queries_stay_correct():
    # Bounds that jump across interior holes do not purge them; every
    # membership query must still be right, and size() may only undercount.
    solver = Solver()
    x = solver.new_var(0, 9, "x")
    x.remove(5)
    assert x.set_max(3)
    assert x.holes == {5}  # stale, outside [lo, hi]
    assert not x.contains(5)
    assert list(x.iter_values()) == [0, 1, 2, 3]
    assert x.size() <= 4


def test_remove_outside_bounds_is_noop():
    solver = Solver()
    x = solver.new_var(2, 6)
    assert x.remove(1)
    assert x.remove(7)
    assert domain_snapshot(x) == (2, 6, frozenset())


def test_remove_range_variants():
    solver = Solver()
    x = solver.new_var(0, 9)
    assert x.remove_range(3, 5)  # interior: holes
    assert sorted(x.holes) == [3, 4, 5]
    assert x.remove_range(0, 1)  # prefix: bound move
    assert x.lo == 2
    assert x.remove_range(8, 12)  # suffix, clipped: bound move
    assert x.hi == 7
    assert x.remove_range(20, 30)  # disjoint: no-op
    assert list(x.iter_values()) == [2, 6, 7]


def test_remove_range_emptying_domain_fails():
    solver = Solver()
    x = solver.new_var(4, 6)
    assert not x.remove_range(0, 10)


def test_assign_outside_domain_fails():
    solver = Solver()
    x = solver.new_var(0, 5)
    x.remove(3)
    assert not x.assign(3)
    assert not x.assign(6)


# -- trail --------------------------------------------------------------------


def test_undo_restores_exact_domains():
    solver = Solver()
    x = solver.new_var(0, 9, "x")
    y = solver.new_var(-3, 3, "y")
    x.remove(4)
    before = (domain_snapshot(x), domain_snapshot(y))

    mark = solver.mark()
    assert x.set_min(2)
    assert x.remove_range(6, 7)
    assert y.set_max(1)
    assert y.remove(0)
    assert x.set_min(5)  # strands the pre-mark hole at 4 outside the bounds
    solver.undo_to(mark)
    assert (domain_snapshot(x), domain_snapshot(y)) == before


def test_undo_restores_holes_consumed_by_bound_moves():
    solver = Solver()
    x = solver.new_var(0, 9, "x")
    x.remove(5)
    before = domain_snapshot(x)

    mark = solver.mark()
    assert x.set_min(5)  # lands on the hole, slides to 6, deletes it
    assert x.lo == 6 and 5 not in x.holes
    solver.undo_to(mark)
    assert domain_snapshot(x) == before


def test_nested_marks_unwind_in_order():
    solver = Solver()
    x = solver.new_var(0, 9)
    m1 = solver.mark()
    x.set_min(2)
    m2 = solver.mark()
    x.set_max(5)
    solver.undo_to(m2)
    assert (x.lo, x.hi) == (2, 9)
    solver.undo_to(m1)
    assert (x.lo, x.hi) == (0, 9)


# -- propagation plumbing -------------------------------------------------------


def test_infeasible_root_propagation():
    solver = Solver()
    a = solver.new_var(0, 1)
    b = solver.new_var(0, 1)
    solver.add(BoolSumEq([a, b], 3))
    assert not solver.propagate_all()


def test_propagate_all_reaches_fixpoint():
    solver = Solver()
    a = solver.new_var(0, 1)
    b = solver.new_var(0, 1)
    c = solver.new_var(0, 1)
    solver.add(BoolSumEq([a, b, c], 3))
    assert solver.propagate_all()
    assert a.value() == b.value() == c.value() == 1


# -- search ---------------------------------------------------------------------


def test_minimize_validates_inputs():
    solver = Solver()
    x = solver.new_var(0, 1)
    with pytest.raises(ValueError):
        solver.minimize([x], [])
    with pytest.raises(ValueError):
        solver.minimize([x], [0])


def test_solve_trivial_minimum():
    solver = Solver()
    x = solver.new_var(2, 7, "x")
    solver.minimize([x], [3], constant=10)
    result = solver.solve(first_unfixed_min([x]))
    assert result.status == STATUS_OPTIMAL
    assert result.objective == 3 * 2 + 10
    assert result.values[x] == 2


def test_solve_infeasible_is_proved():
    solver = Solver()
    a = solver.new_var(0, 1)
    b = solver.new_var(0, 1)
    solver.add(AllDifferent([a, b]))
    solver.add(BoolSumEq([a, b], 2))
    solver.minimize([a, b], [1, 1])
    result = solver.solve(first_unfixed_min([a, b]))
    assert result.status == STATUS_INFEASIBLE
    assert result.objective is None
    assert result.values is None


def test_node_limit_zero_yields_timeout():
    solver = Solver()
    x = solver.new_var(0, 5)
    solver.minimize([x], [1])
    result = solver.solve(first_unfixed_min([x]), node_limit=0)
    assert result.status == STATUS_TIMEOUT
    assert result.objective is None


def test_node_limit_after_incumbent_yields_feasible():
    # Branch from the top so the first solution is suboptimal, then stop
    # the search before it can prove anything better.
    solver = Solver()
    x = solver.new_var(0, 5, "x")
    solver.minimize([x], [1])

    def branch_max():
        return (x, x.hi) if not x.is_fixed() else None

    result = solver.solve(branch_max, node_limit=2)
    assert result.status == STATUS_FEASIBLE
    assert result.objective == 5


def test_solve_unwinds_all_decision_frames():
    solver = Solver()
    x = solver.new_var(0, 5, "x")
    y = solver.new_var(0, 5, "y")
    solver.add(AllDifferent([x, y]))
    solver.minimize([x, y], [1, 1])
    result = solver.solve(first_unfixed_min([x, y]))
    assert result.status == STATUS_OPTIMAL
    # Decisions are unwound; root-level refutations may persist, so the
    # domains end up between the incumbent and the original bounds.
    assert 0 <= x.lo <= x.hi <= 5
    assert 0 <= y.lo <= y.hi <= 5


def test_alldifferent_assignment_optimum_matches_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 4)
        hi = n + rng.randint(0, 2)
        weights = [rng.randint(1, 9) for _ in range(n)]
        constant = rng.randint(0, 50)

        solver = Solver()
        xs = [solver.new_var(0, hi, f"x{i}") for i in range(n)]
        solver.add(AllDifferent(xs))
        solver.minimize(xs, weights, constant)
        result = solver.solve(first_unfixed_min(xs))

        best = min(
            sum(w * v for w, v in zip(weights, combo)) + constant
            for combo in itertools.permutations(range(hi + 1), n)
        )
        assert result.status == STATUS_OPTIMAL
        assert result.objective == best
        chosen = [result.values[x] for x in xs]
        assert len(set(chosen)) == n
        assert sum(w * v for w, v in zip(weights, chosen)) + constant == best


def test_search_statistics_are_deterministic():
    def run():
        solver = Solver()
        xs = [solver.new_var(0, 4, f"x{i}") for i in range(4)]
        solver.add(AllDifferent(xs))
        solver.minimize(xs, [5, 3, 2, 1])
        result = solver.solve(first_unfixed_min(xs))
        s = result.stats
        return (result.objective, s.decisions, s.fails, s.propagations, s.status)

    assert run() == run()


def test_dump_mentions_objective_and_constraints():
    solver = Solver("toy")
    x = solver.new_var(0, 3, "x")
    y = solver.new_var(0, 3, "y")
    solver.add(AllDifferent([x, y]))
    solver.minimize([x], [2], constant=1)
    text = solver.dump()
    assert "toy" in text
    assert "alldifferent" in text
    assert "minimize" in text
