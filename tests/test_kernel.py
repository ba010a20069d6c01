"""Solver core: domains, trail, and branch-and-bound search."""

import itertools
import random

import pytest

from hpcdispatch.kernel.core import (
    STATUS_FEASIBLE,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIMEOUT,
    NodeBlocks,
    Propagator,
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
    return (var.lo, var.hi)


# Allowed values 0-2, 5-7 and 10-12: the values between two windows are
# the domain's holes.
WINDOWS = NodeBlocks([(0, 2, 1), (5, 7, 2), (10, 12, 3)])


# -- domains ------------------------------------------------------------------


def test_new_var_rejects_empty_domain():
    solver = Solver()
    with pytest.raises(ValueError):
        solver.new_var(3, 2, "bad")
    with pytest.raises(ValueError):
        solver.new_var(3, 4, "between windows", WINDOWS)
    with pytest.raises(ValueError):
        solver.new_var(0, 9, "no window", NodeBlocks())


def test_basic_domain_ops():
    solver = Solver()
    x = solver.new_var(0, 9, "x")
    assert not x.is_fixed()

    assert x.remove(4)  # not a bound: the domain stays [0, 9]
    assert (x.lo, x.hi, solver.mark()) == (0, 9, 0)
    assert x.remove(0) and x.remove(9)
    assert (x.lo, x.hi) == (1, 8)

    assert x.assign(7)
    assert x.is_fixed()
    assert x.value() == 7


def test_value_raises_when_unfixed():
    solver = Solver()
    x = solver.new_var(0, 3)
    with pytest.raises(ValueError):
        x.value()


def test_new_var_snaps_its_bounds_into_the_windows_untrailed():
    solver = Solver()
    x = solver.new_var(3, 11, "x", WINDOWS)
    assert (x.lo, x.hi) == (5, 11)
    assert x.windows is WINDOWS
    assert solver.mark() == 0  # the windows are part of the root domain
    y = solver.new_var(-5, 20, "y", WINDOWS)
    assert (y.lo, y.hi) == (0, 12)


def test_set_min_skips_holes_at_landing_value():
    solver = Solver()
    x = solver.new_var(0, 12, "x", WINDOWS)
    assert x.set_min(3)
    # 3 and 4 lie between windows, so the bound snaps up to 5.
    assert x.lo == 5
    assert x.set_min(6) and x.lo == 6  # inside a window: no snap
    assert not x.set_min(13)  # past the last window


def test_set_max_skips_holes_at_landing_value():
    solver = Solver()
    x = solver.new_var(0, 12, "x", WINDOWS)
    assert x.set_max(9)
    assert x.hi == 7
    assert x.set_max(4) and x.hi == 2
    assert not x.set_max(-1)  # below the first window


def test_next_and_prev_value_follow_the_windows():
    solver = Solver()
    x = solver.new_var(0, 12, "x", WINDOWS)
    assert [x.next_value(v) for v in (-1, 0, 2, 3, 8, 12, 13)] == [0, 0, 2, 5, 10, 12, 13]
    assert [x.prev_value(v) for v in (-1, 0, 3, 7, 9, 12, 20)] == [-1, 0, 2, 7, 7, 12, 12]
    plain = solver.new_var(0, 12, "plain")
    assert (plain.next_value(3), plain.prev_value(9)) == (3, 9)


def test_remove_outside_bounds_is_noop():
    solver = Solver()
    x = solver.new_var(2, 6)
    assert x.remove(1)
    assert x.remove(7)
    assert x.remove(4)  # inside: a bound-only domain keeps it
    assert domain_snapshot(x) == (2, 6)
    assert solver.mark() == 0


def test_assign_outside_domain_fails():
    solver = Solver()
    x = solver.new_var(0, 12, "x", WINDOWS)
    assert not x.assign(3)  # between windows
    solver.undo_to(0)
    assert not x.assign(13)
    solver.undo_to(0)
    assert x.assign(6) and x.value() == 6


# -- trail --------------------------------------------------------------------


def test_undo_restores_exact_domains():
    solver = Solver()
    x = solver.new_var(0, 12, "x", WINDOWS)
    y = solver.new_var(-3, 3, "y")
    assert x.set_min(1)
    before = (domain_snapshot(x), domain_snapshot(y))

    mark = solver.mark()
    assert x.set_min(2)
    assert x.remove(2)  # the lower bound: snaps over 3-4 to 5
    assert y.set_max(1)
    assert y.remove(1)
    assert x.set_max(9)
    assert (domain_snapshot(x), domain_snapshot(y)) == ((5, 7), (-3, 0))
    solver.undo_to(mark)
    assert (domain_snapshot(x), domain_snapshot(y)) == before


def test_bound_moves_skip_holes_keep_them_and_undo_restores_the_domain():
    # A bound move that lands between windows snaps into the next one; the
    # windows are shared data, never trailed, so the trail holds one entry
    # per bound move and undo restores lo and hi exactly.
    solver = Solver()
    x = solver.new_var(0, 12, "x", WINDOWS)
    other = solver.new_var(0, 12, "other", WINDOWS)
    before = domain_snapshot(x)

    mark = solver.mark()
    assert x.set_min(3)  # lands on the gap 3-4 and snaps to 5
    assert x.set_max(9)  # lands on the gap 8-9 and snaps to 7
    assert (x.lo, x.hi) == (5, 7)
    assert solver.mark() == mark + 2
    assert x.remove(7)  # a bound value: one bound move
    assert (x.lo, x.hi) == (5, 6)
    assert x.windows is other.windows is WINDOWS
    assert WINDOWS == [(0, 2, 1), (5, 7, 2), (10, 12, 3)]
    solver.undo_to(mark)
    assert domain_snapshot(x) == before
    assert domain_snapshot(other) == (0, 12)


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


def test_solve_requires_an_objective():
    solver = Solver()
    x = solver.new_var(0, 1)
    with pytest.raises(ValueError, match="objective"):
        solver.solve(first_unfixed_min([x]))
    assert (x.lo, x.hi) == (0, 1)  # nothing was propagated or searched


def test_solve_trivial_minimum():
    solver = Solver()
    x = solver.new_var(2, 7, "x")
    solver.minimize([x], [3], constant=10)
    result = solver.solve(first_unfixed_min([x]))
    assert result.status == STATUS_OPTIMAL
    assert result.objective == 3 * 2 + 10
    assert result.values[x] == 2


def test_incumbent_at_the_root_bound_stops_search():
    # The first incumbent meets the root bound 3*2 + 4*1 + 10: optimal,
    # with nothing left to refute.
    solver = Solver()
    x = solver.new_var(2, 7, "x")
    y = solver.new_var(1, 3, "y")
    solver.minimize([x, y], [3, 4], constant=10)
    result = solver.solve(first_unfixed_min([x, y]))
    assert (result.status, result.objective) == (STATUS_OPTIMAL, 20)
    assert (result.stats.decisions, result.stats.fails) == (2, 0)


def test_incumbent_above_the_root_bound_is_refuted_and_improved():
    # Branching from the top finds 5 first; the root bound is 0, so search
    # goes on and improves down to it.
    solver = Solver()
    x = solver.new_var(0, 5, "x")
    solver.minimize([x], [1])
    result = solver.solve(lambda: (x, x.hi) if not x.is_fixed() else None)
    assert (result.status, result.objective, result.stats.decisions) == (STATUS_OPTIMAL, 0, 5)
    # Here the optimum 1 lies above the root bound 0, so proving it takes
    # the refutations of y = 1 and of x = 0.
    solver = Solver()
    x = solver.new_var(0, 3, "x")
    y = solver.new_var(0, 3, "y")
    solver.add(AllDifferent([x, y]))
    solver.minimize([x, y], [1, 1])
    result = solver.solve(first_unfixed_min([x, y]))
    assert (result.status, result.objective) == (STATUS_OPTIMAL, 1)
    assert (result.stats.decisions, result.stats.fails) == (2, 2)


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


class _Forbid(Propagator):
    """Fails once ``var`` is fixed at ``value``."""

    def __init__(self, var, value):
        super().__init__()
        self.var = var
        self.value = value

    def post(self, solver):
        solver.watch(self.var, self)

    def propagate(self, solver):
        return not self.var.lo == self.var.hi == self.value


@pytest.mark.parametrize("windowed", [False, True])
@pytest.mark.parametrize("pick", ["lo", "hi"])
def test_refuting_a_bound_moves_that_bound(pick, windowed):
    # The first decision fixes x at its pick, which fails; its refutation
    # raises lo or lowers hi, over the gap 3-4 or 8-9 with windows.
    solver = Solver()
    x = solver.new_var(2, 10, "x", WINDOWS if windowed else None)
    solver.add(_Forbid(x, getattr(x, pick)))
    solver.minimize([x], [1])
    seen = []

    def branch():
        seen.append((x.lo, x.hi))
        return None if x.is_fixed() else (x, getattr(x, pick))

    result = solver.solve(branch)
    assert result.status == STATUS_OPTIMAL and result.stats.fails >= 1
    assert seen[:2] == [(2, 10), {
        ("lo", False): (3, 10),
        ("lo", True): (5, 10),
        ("hi", False): (2, 9),
        ("hi", True): (2, 7),
    }[pick, windowed]]


def test_branching_on_an_interior_value_raises():
    # The refutation x != 5 of an interior value could move no bound, so
    # search would loop on it until the node limit; it is refused at once.
    solver = Solver()
    x = solver.new_var(0, 9, "x")
    solver.minimize([x], [1])
    with pytest.raises(ValueError, match="not a bound"):
        solver.solve(lambda: (x, 5) if not x.is_fixed() else None, node_limit=1000)
    assert solver.stats.decisions == 0


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
        return (result.status, result.objective, s.decisions, s.fails, s.propagations)

    assert run() == run()

