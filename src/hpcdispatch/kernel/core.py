"""Finite-domain solver core.

Variables hold interval-plus-holes integer domains; every mutation is
recorded on a trail so backtracking restores domains exactly.  Propagators
sit in a FIFO queue and are woken by the variables they watch; search is
depth-first branch-and-bound with a pluggable branching callback, a strict
improvement bound on a positive-weight linear objective, and a wall-clock
budget checked between propagation fixpoints.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

_LO, _HI, _HOLE_ADD, _HOLE_DEL = 0, 1, 2, 3

STATUS_OPTIMAL = "optimal"  # search space exhausted with an incumbent
STATUS_FEASIBLE = "feasible"  # budget hit, incumbent in hand
STATUS_INFEASIBLE = "infeasible"  # exhausted without any solution
STATUS_TIMEOUT = "timeout"  # budget hit before the first solution


class IntVar:
    """Integer variable with a bounds-plus-holes domain.

    Bound updates that land on a hole skip past it.  Holes the bounds move
    across stay in the set (purging them on every bound change would cost
    O(holes), and span-filtered position variables carry one hole per node
    boundary); anything reading ``holes`` directly must ignore entries
    outside the open interval (lo, hi).  ``contains``, ``iter_values`` and
    the domain operations already do.  ``size`` subtracts stale entries
    too, making it an O(1) lower bound on the true domain size; it is only
    used to rank variables, never to decide feasibility.
    """

    __slots__ = ("solver", "index", "name", "lo", "hi", "holes", "watchers")

    def __init__(self, solver: Solver, index: int, lo: int, hi: int, name: str):
        self.solver = solver
        self.index = index
        self.name = name
        self.lo = lo
        self.hi = hi
        self.holes: set[int] = set()
        self.watchers: list[tuple[Any, Any]] = []

    def size(self) -> int:
        return self.hi - self.lo + 1 - len(self.holes)

    def is_fixed(self) -> bool:
        return self.lo == self.hi

    def value(self) -> int:
        if self.lo != self.hi:
            raise ValueError(f"variable {self.name or self.index} is not fixed")
        return self.lo

    def contains(self, v: int) -> bool:
        return self.lo <= v <= self.hi and v not in self.holes

    def iter_values(self) -> Iterator[int]:
        holes = self.holes
        return (v for v in range(self.lo, self.hi + 1) if v not in holes)

    def set_min(self, v: int) -> bool:
        if v <= self.lo:
            return True
        trail = self.solver._trail
        trail.append((_LO, self, self.lo))
        holes = self.holes
        while v in holes:
            trail.append((_HOLE_DEL, self, v))
            holes.discard(v)
            v += 1
        self.lo = v
        if v > self.hi:
            return False
        self.solver._wake(self)
        return True

    def set_max(self, v: int) -> bool:
        if v >= self.hi:
            return True
        trail = self.solver._trail
        trail.append((_HI, self, self.hi))
        holes = self.holes
        while v in holes:
            trail.append((_HOLE_DEL, self, v))
            holes.discard(v)
            v -= 1
        self.hi = v
        if v < self.lo:
            return False
        self.solver._wake(self)
        return True

    def remove(self, v: int) -> bool:
        if v < self.lo or v > self.hi:
            return True
        if v == self.lo:
            return self.set_min(v + 1)
        if v == self.hi:
            return self.set_max(v - 1)
        if v in self.holes:
            return True
        self.solver._trail.append((_HOLE_ADD, self, v))
        self.holes.add(v)
        self.solver._wake(self)
        return True

    def remove_range(self, a: int, b: int) -> bool:
        """Remove every value in [a, b] from the domain."""
        a = max(a, self.lo)
        b = min(b, self.hi)
        if a > b:
            return True
        if a <= self.lo:
            return self.set_min(b + 1)
        if b >= self.hi:
            return self.set_max(a - 1)
        trail = self.solver._trail
        holes = self.holes
        added = False
        for v in range(a, b + 1):
            if v not in holes:
                trail.append((_HOLE_ADD, self, v))
                holes.add(v)
                added = True
        if added:
            self.solver._wake(self)
        return True

    def assign(self, v: int) -> bool:
        if not self.contains(v):
            return False
        return self.set_min(v) and self.set_max(v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_fixed():
            dom = str(self.lo)
        elif self.holes:
            dom = f"[{self.lo}..{self.hi}]\\{sorted(self.holes)}"
        else:
            dom = f"[{self.lo}..{self.hi}]"
        return f"{self.name or f'v{self.index}'}={dom}"


@dataclass
class SearchStats:
    decisions: int = 0
    fails: int = 0
    propagations: int = 0
    wall_ms: float = 0.0
    best_objective: int | None = None
    status: str = STATUS_TIMEOUT


@dataclass
class SolveResult:
    status: str
    objective: int | None
    values: dict[IntVar, int] | None
    stats: SearchStats = field(repr=False, default_factory=SearchStats)


class _ObjectiveBound:
    """sum(w_i * v_i) <= solver's current bound; weights strictly positive."""

    name = "objective"
    __slots__ = ("vars", "weights", "in_queue")

    def __init__(self, variables: list[IntVar], weights: list[int]):
        self.vars = variables
        self.weights = weights
        self.in_queue = False

    def post(self, solver: Solver) -> None:
        for var in self.vars:
            solver.watch(var, self)

    def note(self, tag: Any) -> None:
        pass

    def reset(self) -> None:
        pass

    def propagate(self, solver: Solver) -> bool:
        bound = solver._objective_bound
        if bound is None:
            return True
        floor = 0
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

    def __init__(self, name: str = ""):
        self.name = name
        self.vars: list[IntVar] = []
        self.props: list[Any] = []
        self._trail: list[tuple[int, IntVar, int]] = []
        self._queue: deque = deque()
        self._objective_vars: list[IntVar] = []
        self._objective_weights: list[int] = []
        self._objective_const = 0
        self._objective_prop: _ObjectiveBound | None = None
        self._objective_bound: int | None = None
        self.stats = SearchStats()

    # -- model construction -------------------------------------------------

    def new_var(self, lo: int, hi: int, name: str = "") -> IntVar:
        if lo > hi:
            raise ValueError(f"empty initial domain [{lo},{hi}] for {name!r}")
        var = IntVar(self, len(self.vars), lo, hi, name)
        self.vars.append(var)
        return var

    def add(self, prop: Any) -> Any:
        self.props.append(prop)
        prop.post(self)
        return prop

    def watch(self, var: IntVar, prop: Any, tag: Any = None) -> None:
        var.watchers.append((prop, tag))

    def minimize(self, variables: list[IntVar], weights: list[int], constant: int = 0) -> None:
        if len(variables) != len(weights):
            raise ValueError("objective variables and weights differ in length")
        if any(w <= 0 for w in weights):
            raise ValueError("objective weights must be strictly positive")
        self._objective_vars = list(variables)
        self._objective_weights = list(weights)
        self._objective_const = constant
        self._objective_prop = _ObjectiveBound(self._objective_vars, self._objective_weights)
        self.add(self._objective_prop)

    def objective_value(self) -> int:
        total = self._objective_const
        for var, weight in zip(self._objective_vars, self._objective_weights):
            total += weight * var.value()
        return total

    # -- propagation & trail -------------------------------------------------

    def _wake(self, var: IntVar) -> None:
        for prop, tag in var.watchers:
            prop.note(tag)
            if not prop.in_queue:
                prop.in_queue = True
                self._queue.append(prop)

    def enqueue(self, prop: Any) -> None:
        if not prop.in_queue:
            prop.in_queue = True
            self._queue.append(prop)

    def _clear_queue(self) -> None:
        for prop in self._queue:
            prop.in_queue = False
            prop.reset()
        self._queue.clear()

    def propagate(self) -> bool:
        queue = self._queue
        stats = self.stats
        while queue:
            prop = queue.popleft()
            prop.in_queue = False
            stats.propagations += 1
            if not prop.propagate(self):
                prop.reset()
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
            kind, var, payload = trail.pop()
            if kind == _LO:
                var.lo = payload
            elif kind == _HI:
                var.hi = payload
            elif kind == _HOLE_ADD:
                var.holes.discard(payload)
            else:  # _HOLE_DEL
                var.holes.add(payload)

    # -- search ----------------------------------------------------------------

    def solve(
        self,
        branch: Branching,
        budget_ms: float | None = None,
        node_limit: int | None = None,
    ) -> SolveResult:
        """Depth-first branch-and-bound driven by ``branch``.

        ``branch`` returns (var, value) to try next (refuted as var != value
        on backtracking) or None once every decision variable is fixed.
        Each incumbent tightens a strict upper bound on the objective, so
        the final incumbent is optimal whenever the tree is exhausted.
        """
        stats = self.stats = SearchStats()
        start = time.perf_counter()
        deadline = start + budget_ms / 1000.0 if budget_ms is not None else None
        self._objective_bound = None
        best: dict[IntVar, int] | None = None
        best_obj: int | None = None
        frames: list[tuple[int, IntVar, int]] = []
        exhausted = False

        if not self.propagate_all():
            stats.status = STATUS_INFEASIBLE
            stats.wall_ms = (time.perf_counter() - start) * 1000.0
            return SolveResult(STATUS_INFEASIBLE, None, None, stats)

        while True:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if node_limit is not None and stats.decisions >= node_limit:
                break
            decision = branch()
            if decision is None:
                best_obj = self.objective_value()
                best = {var: var.lo for var in self.vars}
                stats.best_objective = best_obj
                self._objective_bound = best_obj - 1 - self._objective_const
                if not self._recover(frames):
                    exhausted = True
                    break
                continue
            var, value = decision
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
        stats.wall_ms = (time.perf_counter() - start) * 1000.0
        if exhausted:
            stats.status = STATUS_OPTIMAL if best is not None else STATUS_INFEASIBLE
        else:
            stats.status = STATUS_FEASIBLE if best is not None else STATUS_TIMEOUT
        stats.best_objective = best_obj
        return SolveResult(stats.status, best_obj, best, stats)

    def _recover(self, frames: list[tuple[int, IntVar, int]]) -> bool:
        """Backtrack to the nearest frame whose refutation survives propagation."""
        while frames:
            mark, var, value = frames.pop()
            self._clear_queue()
            self.undo_to(mark)
            if var.remove(value):
                if self._objective_prop is not None and self._objective_bound is not None:
                    self.enqueue(self._objective_prop)
                if self.propagate():
                    return True
            else:
                self._clear_queue()
            self.stats.fails += 1
        return False

    # -- debugging ---------------------------------------------------------------

    def dump(self) -> str:
        """Human-readable listing of variables, domains, and constraints."""
        lines = [f"model {self.name or '(unnamed)'}: {len(self.vars)} vars, {len(self.props)} constraints"]
        for var in self.vars:
            lines.append(f"  {var!r}")
        for prop in self.props:
            lines.append(f"  constraint {getattr(prop, 'name', type(prop).__name__)}")
        if self._objective_vars:
            terms = " + ".join(
                f"{w}*{v.name or f'v{v.index}'}"
                for v, w in zip(self._objective_vars, self._objective_weights)
            )
            lines.append(f"  minimize {terms} + {self._objective_const}")
        return "\n".join(lines)
