"""Propagators for the solver core.

The set is exactly what the dispatch models need: timetable-filtering
cumulative (with an optional 0/1 presence variable per task), pairwise
diffn over rectangles, element equality between two constant arrays,
forward-checking alldifferent, and a boolean cardinality sum.  A
cumulative task or diffn box placed by plain ints is a constant, such as a
running job: it is folded into a base profile or kept as a fixed rectangle,
and never watched or pushed.
"""

from __future__ import annotations

from typing import Any, Sequence

from hpcdispatch.kernel.core import IntVar, Solver

_FULL = None  # sentinel: next propagation must consider every pair


class Propagator:
    name = "constraint"

    def __init__(self) -> None:
        self.in_queue = False

    def post(self, solver: Solver) -> None:
        raise NotImplementedError

    def propagate(self, solver: Solver) -> bool:
        raise NotImplementedError

    def note(self, tag: Any) -> None:
        pass

    def reset(self) -> None:
        pass


class Task:
    """Cumulative task: a start, a fixed duration and a fixed demand.

    ``start`` is a variable, or a plain int for a constant task.  A variable
    task may take ``presence``, a 0/1 variable: the task consumes capacity
    only when present.  A missing presence means the task always runs.
    """

    __slots__ = ("start", "duration", "demand", "presence")

    def __init__(
        self, start: IntVar | int, duration: int, demand: int, presence: IntVar | None = None
    ):
        if duration < 0:
            raise ValueError("task duration must be >= 0")
        if demand < 0:
            raise ValueError("task demand must be >= 0")
        if presence is not None and isinstance(start, int):
            raise ValueError("a constant task always runs: it takes no presence")
        self.start = start
        self.duration = duration
        self.demand = demand
        self.presence = presence


class Cumulative(Propagator):
    """Renewable-resource capacity via timetable filtering.

    The profile of compulsory parts of surely-present tasks must never
    exceed the capacity; present tasks have their start bounds pushed past
    saturated profile segments, and undecided tasks that fit nowhere have
    their presence forced to 0.  Constant tasks are folded once into a
    base profile; ``tasks`` keeps only the variable ones.
    """

    name = "cumulative"

    def __init__(self, tasks: Sequence[Task], capacity: int):
        super().__init__()
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.tasks: list[Task] = []
        self.base: dict[int, int] = {}  # profile events of the constant tasks
        for task in tasks:
            if task.duration <= 0 or task.demand <= 0:
                continue
            if isinstance(task.start, int):
                end = task.start + task.duration
                self.base[task.start] = self.base.get(task.start, 0) + task.demand
                self.base[end] = self.base.get(end, 0) - task.demand
            else:
                self.tasks.append(task)
        self.capacity = capacity

    def post(self, solver: Solver) -> None:
        for task in self.tasks:
            solver.watch(task.start, self)
            if task.presence is not None:
                solver.watch(task.presence, self)

    def propagate(self, solver: Solver) -> bool:
        cap = self.capacity
        while True:
            changed = False
            present: list[Task] = []
            undecided: list[Task] = []
            for task in self.tasks:
                presence = task.presence
                if presence is None or presence.lo == 1:
                    if task.demand > cap:
                        return False
                    present.append(task)
                elif presence.hi == 1:
                    if task.demand > cap:
                        if not presence.set_max(0):
                            return False
                        changed = True
                    else:
                        undecided.append(task)

            segments = _profile(present, self.base)
            for _, _, height in segments:
                if height > cap:
                    return False

            for task in present:
                lst = task.start.hi
                ect = task.start.lo + task.duration
                own = task.demand if lst < ect else 0
                new_min = _earliest_fit(
                    segments, task.start.lo, task.duration, task.demand, cap, lst, ect, own
                )
                if new_min > task.start.hi:
                    return False
                if new_min > task.start.lo:
                    if not task.start.set_min(new_min):
                        return False
                    changed = True
                    lst = task.start.hi
                    ect = task.start.lo + task.duration
                    own = task.demand if lst < ect else 0
                new_max = _latest_fit(
                    segments, task.start.hi, task.duration, task.demand, cap, lst, ect, own
                )
                if new_max < task.start.lo:
                    return False
                if new_max < task.start.hi:
                    if not task.start.set_max(new_max):
                        return False
                    changed = True

            for task in undecided:
                fit = _earliest_fit(
                    segments, task.start.lo, task.duration, task.demand, cap, 0, 0, 0
                )
                if fit > task.start.hi:
                    if not task.presence.set_max(0):
                        return False
                    changed = True

            if not changed:
                return True


def _profile(tasks: list[Task], base: dict[int, int]) -> list[tuple[int, int, int]]:
    """Compulsory-part profile over the base events, as (from, to, height) segments."""
    events = dict(base)
    for task in tasks:
        lst = task.start.hi
        ect = task.start.lo + task.duration
        if lst < ect:
            events[lst] = events.get(lst, 0) + task.demand
            events[ect] = events.get(ect, 0) - task.demand
    if not events:
        return []
    segments = []
    height = 0
    prev = None
    for point in sorted(events):
        if prev is not None and height > 0:
            segments.append((prev, point, height))
        height += events[point]
        prev = point
    return segments


def _earliest_fit(segments, start, duration, demand, cap, own_lo, own_hi, own_demand):
    """Smallest s >= start such that [s, s+duration) avoids saturated segments."""
    for seg_from, seg_to, height in segments:
        if seg_to <= start:
            continue
        if seg_from >= start + duration:
            break
        if own_demand and seg_from >= own_lo and seg_to <= own_hi:
            height -= own_demand
        if height + demand > cap:
            start = seg_to
    return start


def _latest_fit(segments, start, duration, demand, cap, own_lo, own_hi, own_demand):
    for seg_from, seg_to, height in reversed(segments):
        if seg_from >= start + duration:
            continue
        if seg_to <= start:
            break
        if own_demand and seg_from >= own_lo and seg_to <= own_hi:
            height -= own_demand
        if height + demand > cap:
            start = seg_from - duration
    return start


class Box:
    """Axis-aligned rectangle with fixed edge lengths; an int origin makes it fixed."""

    __slots__ = ("x", "x_len", "y", "y_len")

    def __init__(self, x: IntVar | int, x_len: int, y: IntVar | int, y_len: int):
        if x_len < 0 or y_len < 0:
            raise ValueError("box edge lengths must be >= 0")
        self.x = x
        self.x_len = x_len
        self.y = y
        self.y_len = y_len


class Diffn(Propagator):
    """Pairwise non-overlap of rectangles (open interiors).

    When two boxes overlap for sure on one axis, the other axis is forced
    apart: if only one relative order remains possible it is enforced on
    the bounds, and if none remains the constraint fails.  Wakes carry the
    index of the changed box so re-propagation only rescans its pairs.
    Fixed boxes become (x, x_len, y, y_len) rectangles in ``fixed``, checked
    against variable boxes only, after each box's variable partners.
    """

    name = "diffn"

    def __init__(self, boxes: Sequence[Box]):
        super().__init__()
        solid = [b for b in boxes if b.x_len > 0 and b.y_len > 0]
        self.boxes = [b for b in solid if not isinstance(b.x, int)]
        self.fixed = [(b.x, b.x_len, b.y, b.y_len) for b in solid if isinstance(b.x, int)]
        self._dirty: set[int] | None = _FULL

    def post(self, solver: Solver) -> None:
        for idx, box in enumerate(self.boxes):
            solver.watch(box.x, self, idx)
            solver.watch(box.y, self, idx)

    def note(self, tag: Any) -> None:
        if self._dirty is not _FULL:
            self._dirty.add(tag)

    def reset(self) -> None:
        self._dirty = _FULL

    def propagate(self, solver: Solver) -> bool:
        boxes = self.boxes
        fixed = self.fixed
        count = len(boxes)
        while True:
            work = self._dirty
            self._dirty = set()
            if work is _FULL:
                rows = ((i, range(i + 1, count)) for i in range(count))
            elif not work:
                return True
            else:
                rows = ((i, range(count)) for i in sorted(work))
            for i, partners in rows:
                a = boxes[i]
                if not (
                    all(j == i or self._prune_pair(a, boxes[j]) for j in partners)
                    and all(_prune_fixed(a, *rect) for rect in fixed)
                ):
                    self.reset()
                    return False
            if not self._dirty:
                return True

    @staticmethod
    def _prune_pair(a: Box, b: Box) -> bool:
        x_must = a.x.lo + a.x_len > b.x.hi and b.x.lo + b.x_len > a.x.hi
        y_must = a.y.lo + a.y_len > b.y.hi and b.y.lo + b.y_len > a.y.hi
        if x_must and y_must:
            return False
        if x_must:
            return _force_apart(a.y, a.y_len, b.y, b.y_len)
        if y_must:
            return _force_apart(a.x, a.x_len, b.x, b.x_len)
        return True


def _force_apart(u: IntVar, u_len: int, v: IntVar, v_len: int) -> bool:
    u_first_possible = u.lo + u_len <= v.hi
    v_first_possible = v.lo + v_len <= u.hi
    if not u_first_possible and not v_first_possible:
        return False
    if not v_first_possible:
        return v.set_min(u.lo + u_len) and u.set_max(v.hi - u_len)
    if not u_first_possible:
        return u.set_min(v.lo + v_len) and v.set_max(u.hi - v_len)
    return True


def _prune_fixed(a: Box, x: int, x_len: int, y: int, y_len: int) -> bool:
    """``Diffn._prune_pair`` against the fixed rectangle at (x, y)."""
    x_must = a.x.lo + a.x_len > x and x + x_len > a.x.hi
    y_must = a.y.lo + a.y_len > y and y + y_len > a.y.hi
    if x_must == y_must:
        return not x_must
    u, u_len, v, v_len = (a.y, a.y_len, y, y_len) if x_must else (a.x, a.x_len, x, x_len)
    before_possible = u.lo + u_len <= v
    after_possible = v + v_len <= u.hi
    if before_possible == after_possible:
        return before_possible
    return u.set_max(v - u_len) if before_possible else u.set_min(v + v_len)


def _value_runs(array: Sequence[int]) -> list[tuple[int, int, int]]:
    """Maximal runs of equal values as (first, last, value), 1-based."""
    runs = []
    start = 0
    for i in range(1, len(array) + 1):
        if i == len(array) or array[i] != array[start]:
            runs.append((start + 1, i, array[start]))
            start = i
    return runs


class IndexedArray:
    """Constant 1-based array with its equal-value runs precomputed.

    Share one instance per underlying array: the run index is built once,
    and span filters are memoized, so posting many element constraints
    over the same long array stays cheap.
    """

    __slots__ = ("values", "runs", "run_of", "_filters")

    def __init__(self, values: Sequence[int]):
        if not values:
            raise ValueError("indexed array must be non-empty")
        self.values = list(values)
        self.runs = _value_runs(self.values)
        run_of = [0] * len(self.values)
        for idx, (first, last, _) in enumerate(self.runs):
            for p in range(first, last + 1):
                run_of[p - 1] = idx
        self.run_of = run_of
        self._filters: dict[int, tuple[int, int, frozenset[int]]] = {}

    @classmethod
    def of(cls, array: "IndexedArray | Sequence[int]") -> "IndexedArray":
        return array if isinstance(array, cls) else cls(array)

    def __len__(self) -> int:
        return len(self.values)

    def span_filter(self, delta: int) -> tuple[int, int, frozenset[int]]:
        """Unary domain filter for "positions p and p+delta share a run".

        Returns (lo, hi, holes); an empty filter is signalled by lo > hi.
        """
        cached = self._filters.get(delta)
        if cached is not None:
            return cached
        windows = [(first, last - delta) for first, last, _ in self.runs if last - delta >= first]
        if not windows:
            cached = (1, 0, frozenset())
        else:
            holes: set[int] = set()
            for (_, prev_hi), (next_lo, _) in zip(windows, windows[1:]):
                holes.update(range(prev_hi + 1, next_lo))
            cached = (windows[0][0], windows[-1][1], frozenset(holes))
        self._filters[delta] = cached
        return cached


def apply_span_filter(var: IntVar, filt: tuple[int, int, frozenset[int]]) -> bool:
    """Restrict a freshly created variable in place (no trail, no wakes).

    Only valid before search starts; the restriction becomes part of the
    root domain.
    """
    lo, hi, holes = filt
    var.lo = max(var.lo, lo)
    var.hi = min(var.hi, hi)
    if var.lo > var.hi:
        return False
    if holes:
        var.holes.update(h for h in holes if var.lo < h < var.hi)
    return True


class ElementEqual(Propagator):
    """array_a[index_a + offset_a] == array_b[index_b + offset_b].

    Arrays are constants indexed 1-based.  Filtering is exact on the index
    domains: a position survives only if some position of the other index
    maps to the same value.  Both indices may be one variable; the filter
    is then sound but no longer exact.

    Reasoning is run-based so long arrays with few distinct values (node
    ownership maps) cost O(runs + holes) per propagation, not O(length).
    """

    name = "element_eq"

    def __init__(
        self,
        array_a: "IndexedArray | Sequence[int]",
        index_a: IntVar,
        array_b: "IndexedArray | Sequence[int]",
        index_b: IntVar,
        offset_a: int = 0,
        offset_b: int = 0,
    ):
        super().__init__()
        self.array_a = IndexedArray.of(array_a)
        self.array_b = IndexedArray.of(array_b) if array_b is not array_a else self.array_a
        self.index_a = index_a
        self.index_b = index_b
        self.offset_a = offset_a
        self.offset_b = offset_b

    def post(self, solver: Solver) -> None:
        solver.watch(self.index_a, self)
        solver.watch(self.index_b, self)

    def propagate(self, solver: Solver) -> bool:
        if not self._clamp(self.index_a, self.offset_a, len(self.array_a)):
            return False
        if not self._clamp(self.index_b, self.offset_b, len(self.array_b)):
            return False
        reach_a = self._reachable(self.index_a, self.offset_a, self.array_a)
        reach_b = self._reachable(self.index_b, self.offset_b, self.array_b)
        common = reach_a & reach_b
        if not common:
            return False
        if common != reach_a:
            if not self._prune(self.index_a, self.offset_a, self.array_a, common):
                return False
        if common != reach_b:
            if not self._prune(self.index_b, self.offset_b, self.array_b, common):
                return False
        return True

    @staticmethod
    def _clamp(var: IntVar, offset: int, length: int) -> bool:
        return var.set_min(1 - offset) and var.set_max(length - offset)

    @staticmethod
    def _reachable(var: IntVar, offset: int, array: IndexedArray) -> set[int]:
        run_of = array.run_of
        lo, hi = var.lo, var.hi
        hole_counts: dict[int, int] = {}
        for hole in var.holes:
            if not lo < hole < hi:
                continue  # bound moves leave stale entries outside [lo, hi]
            pos = hole + offset
            if 1 <= pos <= len(run_of):
                idx = run_of[pos - 1]
                hole_counts[idx] = hole_counts.get(idx, 0) + 1
        values = set()
        for idx, (first, last, value) in enumerate(array.runs):
            if value in values:
                continue
            lo = max(first - offset, var.lo)
            hi = min(last - offset, var.hi)
            if lo > hi:
                continue
            if hi - lo + 1 > hole_counts.get(idx, 0):
                values.add(value)
        return values

    @staticmethod
    def _prune(var: IntVar, offset: int, array: IndexedArray, allowed: set[int]) -> bool:
        for first, last, value in array.runs:
            if value not in allowed:
                if not var.remove_range(first - offset, last - offset):
                    return False
        return True


class AllDifferent(Propagator):
    """Forward checking: a fixed value is removed from every other domain."""

    name = "alldifferent"

    def __init__(self, variables: Sequence[IntVar]):
        super().__init__()
        self.vars = list(variables)

    def post(self, solver: Solver) -> None:
        for var in self.vars:
            solver.watch(var, self)

    def propagate(self, solver: Solver) -> bool:
        while True:
            changed = False
            seen: dict[int, IntVar] = {}
            for var in self.vars:
                if var.lo == var.hi:
                    if var.lo in seen:
                        return False
                    seen[var.lo] = var
            for var in self.vars:
                if var.lo != var.hi:
                    before = var.size()
                    for value in seen:
                        if not var.remove(value):
                            return False
                    if var.size() != before:
                        changed = True
            if not changed:
                return True


class BoolSumEq(Propagator):
    """Sum of 0/1 variables equals a constant."""

    name = "bool_sum_eq"

    def __init__(self, variables: Sequence[IntVar], total: int):
        super().__init__()
        self.vars = list(variables)
        self.total = total

    def post(self, solver: Solver) -> None:
        for var in self.vars:
            if var.lo < 0 or var.hi > 1:
                raise ValueError("bool_sum_eq needs 0/1 variables")
            solver.watch(var, self)

    def propagate(self, solver: Solver) -> bool:
        lo = sum(var.lo for var in self.vars)
        hi = sum(var.hi for var in self.vars)
        if lo > self.total or hi < self.total:
            return False
        if lo == self.total:
            for var in self.vars:
                if var.lo != var.hi and not var.set_max(0):
                    return False
        elif hi == self.total:
            for var in self.vars:
                if var.lo != var.hi and not var.set_min(1):
                    return False
        return True
