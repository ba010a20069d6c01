"""Finite-domain solver core.

Variables hold interval domains, optionally restricted to fixed, shared
windows (such as the start windows of a claim).  Only bounds ever move;
every move is recorded on a trail so backtracking restores domains
exactly, and domains are all it restores.  Branching picks a bound, so its
refutation moves that bound too.  Propagators sit in a FIFO queue and are
woken by the variables they watch; a wake only enqueues, so the solver
tells a propagator nothing except to run, and one that wants to know what
changed compares the domains with what it saw last.  A propagator returns
at its own fixpoint, so its own moves do not wake it.  Search is
depth-first branch-and-bound with a pluggable branching callback, a strict
improvement bound on a positive-weight linear objective, and a wall-clock
budget checked between propagation fixpoints.  Search stops as soon as an
incumbent meets the objective's root bound (the constant plus the weighted
lower bounds after root propagation): nothing can beat it, so it is
optimal.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

# Trail entry kinds: an old lo or an old hi.
_LO, _HI = 0, 1

STATUS_OPTIMAL = "optimal"  # incumbent proven optimal (tree exhausted or root bound met)
STATUS_FEASIBLE = "feasible"  # budget hit, incumbent in hand
STATUS_INFEASIBLE = "infeasible"  # exhausted without any solution
STATUS_TIMEOUT = "timeout"  # budget hit before the first solution


class NodeBlocks(list):
    """Ascending, disjoint (first, last, node) intervals plus their parallel
    ``firsts`` and ``nodes`` lists.

    ``SystemModel.blocks`` holds one per resource, contiguous and covering
    1..total; ``SystemModel.start_windows`` derives from it the starts a
    q-wide claim may take, and an ``IntVar`` may range over such windows.
    The parallel lists are built once, with the intervals, so that a bound
    move can bisect ``firsts`` and ``ElementEqual`` can compare the nodes
    it reaches as slices.
    """

    def __init__(self, blocks: Iterable[tuple[int, int, int]] = ()):
        super().__init__(blocks)
        self.firsts = [first for first, _, _ in self]
        self.nodes = [node for _, _, node in self]


class IntVar:
    """Integer variable whose domain is an interval, optionally within windows.

    Without ``windows`` the domain is every value in [lo, hi].  With them,
    it is the values in [lo, hi] that lie in one of the ``NodeBlocks``
    intervals: fixed data, shared by every variable built over it and never
    trailed.  Only lo and hi ever change, and only ``undo_to`` moves them
    back.  A bound move that lands between two windows snaps into the next
    one, with one bisection of ``windows.firsts``, so lo and hi are values
    while the domain is not empty.  ``remove`` moves a bound when it
    removes lo or hi and otherwise does nothing, so branching and
    refutation act on bounds only.
    """

    __slots__ = ("solver", "index", "name", "lo", "hi", "windows", "watchers")

    def __init__(
        self,
        solver: Solver,
        index: int,
        lo: int,
        hi: int,
        name: str,
        windows: NodeBlocks | None,
    ):
        self.solver = solver
        self.index = index
        self.name = name
        self.lo = lo
        self.hi = hi
        self.windows = windows
        self.watchers: list[Propagator] = []

    def is_fixed(self) -> bool:
        return self.lo == self.hi

    def value(self) -> int:
        if self.lo != self.hi:
            raise ValueError(f"variable {self.name or self.index} is not fixed")
        return self.lo

    def next_value(self, v: int) -> int:
        """The least value >= v that the windows allow; past hi means none."""
        windows = self.windows
        if windows is None:
            return v
        k = bisect_right(windows.firsts, v)
        if k and v <= windows[k - 1][1]:
            return v
        return windows.firsts[k] if k < len(windows) else v

    def prev_value(self, v: int) -> int:
        """The greatest value <= v that the windows allow; below lo means none."""
        windows = self.windows
        if windows is None:
            return v
        k = bisect_right(windows.firsts, v)
        if k and v > windows[k - 1][1]:
            return windows[k - 1][1]
        return v

    def set_min(self, v: int) -> bool:
        if v <= self.lo:
            return True
        self.solver._trail.append((_LO, self, self.lo))
        if self.windows is not None:
            v = self.next_value(v)
        self.lo = v
        if v > self.hi:
            return False
        self.solver._wake(self)
        return True

    def set_max(self, v: int) -> bool:
        if v >= self.hi:
            return True
        self.solver._trail.append((_HI, self, self.hi))
        if self.windows is not None:
            v = self.prev_value(v)
        self.hi = v
        if v < self.lo:
            return False
        self.solver._wake(self)
        return True

    def remove(self, v: int) -> bool:
        """Remove v if it is a bound; any other value stays in the domain."""
        if v == self.lo:
            return self.set_min(v + 1)
        if v == self.hi:
            return self.set_max(v - 1)
        return True

    def assign(self, v: int) -> bool:
        return self.set_min(v) and self.set_max(v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dom = str(self.lo) if self.is_fixed() else f"[{self.lo}..{self.hi}]"
        return f"{self.name or f'v{self.index}'}={dom}"


@dataclass
class SearchStats:
    """Counts of one solve; ``improvements`` counts the incumbents search
    found, each better than the one before it."""

    decisions: int = 0
    fails: int = 0
    propagations: int = 0
    improvements: int = 0


@dataclass
class SolveResult:
    status: str
    objective: int | None
    values: dict[IntVar, int] | None
    stats: SearchStats = field(repr=False, default_factory=SearchStats)


class Propagator:
    """A constraint the solver runs whenever a variable it watches changes.

    ``post`` registers the watches with ``Solver.watch``; ``propagate``
    narrows domains and returns False on failure.  A ``propagate`` that
    returns True returns at its own fixpoint: a second call at once would
    move no bound.  The solver relies on it and does not wake a propagator
    for the moves it makes itself.  ``in_queue`` is the solver's
    bookkeeping: set while the propagator waits in the queue or runs.
    """

    def __init__(self) -> None:
        self.in_queue = False

    def post(self, solver: Solver) -> None:
        raise NotImplementedError

    def propagate(self, solver: Solver) -> bool:
        raise NotImplementedError


class _ObjectiveBound(Propagator):
    """constant + sum(w_i * v_i) <= ``bound`` (None until the first incumbent),
    weights strictly positive; ``floor`` is the root propagation's lower bound."""

    def __init__(self, variables: list[IntVar], weights: list[int], constant: int):
        super().__init__()
        self.vars = variables
        self.weights = weights
        self.constant = constant
        self.bound: int | None = None
        self.floor: int | None = None

    def value(self) -> int:
        """The objective of fixed variables; ``var.value()`` raises on an unfixed one."""
        total = self.constant
        for var, weight in zip(self.vars, self.weights):
            total += weight * var.value()
        return total

    def post(self, solver: Solver) -> None:
        for var in self.vars:
            solver.watch(var, self)

    def propagate(self, solver: Solver) -> bool:
        bound = self.bound
        if bound is None:
            return True
        floor = self.constant
        for var, weight in zip(self.vars, self.weights):
            floor += weight * var.lo
        if floor > bound:
            return False
        slack = bound - floor
        for var, weight in zip(self.vars, self.weights):
            cap = var.lo + slack // weight
            if cap < var.hi and not var.set_max(cap):
                return False
        return True


Branching = Callable[[], "tuple[IntVar, int] | None"]


class Solver:
    """Owns variables, propagators, the trail, and the search loop."""

    def __init__(self) -> None:
        self.vars: list[IntVar] = []
        self.props: list[Propagator] = []
        self._trail: list[tuple[int, IntVar, int]] = []
        self._queue: deque = deque()
        self.objective: _ObjectiveBound | None = None
        self.stats = SearchStats()

    # -- model construction -------------------------------------------------

    def new_var(
        self, lo: int, hi: int, name: str = "", windows: NodeBlocks | None = None
    ) -> IntVar:
        """A variable over [lo, hi], or over the values of [lo, hi] in ``windows``."""
        var = IntVar(self, len(self.vars), lo, hi, name, windows)
        if windows is not None:
            var.lo = var.next_value(lo)
            var.hi = var.prev_value(hi)
        if var.lo > var.hi or (windows is not None and not windows):
            raise ValueError(f"empty initial domain [{lo},{hi}] for {name!r}")
        self.vars.append(var)
        return var

    def add(self, prop: Propagator) -> Propagator:
        self.props.append(prop)
        prop.post(self)
        return prop

    def watch(self, var: IntVar, prop: Propagator) -> None:
        var.watchers.append(prop)

    def minimize(self, variables: list[IntVar], weights: list[int], constant: int = 0) -> None:
        if len(variables) != len(weights):
            raise ValueError("objective variables and weights differ in length")
        if any(w <= 0 for w in weights):
            raise ValueError("objective weights must be strictly positive")
        self.objective = _ObjectiveBound(list(variables), list(weights), constant)
        self.add(self.objective)

    # -- propagation & trail -------------------------------------------------

    def _wake(self, var: IntVar) -> None:
        for prop in var.watchers:
            if not prop.in_queue:
                prop.in_queue = True
                self._queue.append(prop)

    def enqueue(self, prop: Propagator) -> None:
        if not prop.in_queue:
            prop.in_queue = True
            self._queue.append(prop)

    def _clear_queue(self) -> None:
        for prop in self._queue:
            prop.in_queue = False
        self._queue.clear()

    def propagate(self) -> bool:
        queue = self._queue
        stats = self.stats
        while queue:
            # ``in_queue`` stays set while the propagator runs, so ``_wake``
            # skips it for its own moves: it returns at its own fixpoint.
            prop = queue.popleft()
            stats.propagations += 1
            ok = prop.propagate(self)
            prop.in_queue = False
            if not ok:
                self._clear_queue()
                return False
        return True

    def propagate_all(self) -> bool:
        """Run every propagator to a global fixpoint (root propagation)."""
        for prop in self.props:
            self.enqueue(prop)
        return self.propagate()

    def mark(self) -> int:
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        trail = self._trail
        while len(trail) > mark:
            kind, var, old = trail.pop()
            if kind == _LO:
                var.lo = old
            else:
                var.hi = old

    # -- search ----------------------------------------------------------------

    def solve(
        self,
        branch: Branching,
        budget_ms: float | None = None,
        node_limit: int | None = None,
    ) -> SolveResult:
        """Depth-first branch-and-bound driven by ``branch``.

        ``branch`` returns (var, value) to try next, or None once every
        decision variable is fixed.  ``value`` must be var.lo or var.hi, so
        that its refutation, var != value, moves a bound; any other value
        is a ValueError.
        Each incumbent tightens a strict upper bound on the objective, so
        the final incumbent is optimal whenever the tree is exhausted.  An
        incumbent equal to the root bound (the objective's constant plus
        the weighted lower bounds after root propagation) is optimal at
        once: every refutation left would fail on the objective bound, so
        search stops there with the same incumbent, status and decisions.
        A solver with no objective (no ``minimize``) is a ValueError.
        """
        objective = self.objective
        if objective is None:
            raise ValueError("solve needs an objective: call minimize first")
        stats = self.stats = SearchStats()
        deadline = time.perf_counter() + budget_ms / 1000.0 if budget_ms is not None else None
        objective.bound = objective.floor = None
        best: dict[IntVar, int] | None = None
        best_obj: int | None = None
        frames: list[tuple[int, IntVar, int]] = []
        exhausted = False

        if not self.propagate_all():
            return SolveResult(STATUS_INFEASIBLE, None, None, stats)
        terms = zip(objective.vars, objective.weights)
        objective.floor = objective.constant + sum(weight * var.lo for var, weight in terms)

        while True:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if node_limit is not None and stats.decisions >= node_limit:
                break
            decision = branch()
            if decision is None:
                stats.improvements += 1
                best = {var: var.lo for var in self.vars}
                best_obj = objective.value()
                if best_obj == objective.floor:
                    exhausted = True
                    break
                objective.bound = best_obj - 1
                if not self._recover(frames):
                    exhausted = True
                    break
                continue
            var, value = decision
            if value != var.lo and value != var.hi:
                raise ValueError(
                    f"branching chose {value} for {var.name or var.index}, "
                    f"which is not a bound of [{var.lo},{var.hi}]"
                )
            mark = self.mark()
            frames.append((mark, var, value))
            stats.decisions += 1
            if var.assign(value) and self.propagate():
                continue
            stats.fails += 1
            if not self._recover(frames):
                exhausted = True
                break

        while frames:
            mark, _, _ = frames.pop()
            self.undo_to(mark)
        if exhausted:
            status = STATUS_OPTIMAL if best is not None else STATUS_INFEASIBLE
        else:
            status = STATUS_FEASIBLE if best is not None else STATUS_TIMEOUT
        return SolveResult(status, best_obj, best, stats)

    def _recover(self, frames: list[tuple[int, IntVar, int]]) -> bool:
        """Backtrack to the nearest frame whose refutation survives propagation."""
        while frames:
            mark, var, value = frames.pop()
            self._clear_queue()
            self.undo_to(mark)
            if var.remove(value):
                if self.objective.bound is not None:
                    self.enqueue(self.objective)
                if self.propagate():
                    return True
            else:
                self._clear_queue()
            self.stats.fails += 1
        return False
