"""Propagators for the solver core.

The set is what the dispatch models need: timetable-filtering cumulative
(with an optional 0/1 presence variable per task), pairwise diffn over
variable rectangles, "a claim starts only after the held intervals it
meets are released", "two positions lie on the same node" over each
position's start windows, and a boolean cardinality sum; and
forward-checking alldifferent, which no model posts (a job's units share
a start, so diffn keeps them apart).  Each propagator returns
at its own fixpoint.  Domains are bounds over windows (see ``IntVar``), so
every propagator moves only bounds, and the release and same-node checks
are exact on them.  Constants, such as running jobs, are never watched or
pushed: a cumulative task placed at a plain int is folded into a base
profile, and taken positions enter as the release intervals of ``Released``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

from hpcdispatch.kernel.core import IntVar, Propagator, Solver


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

    A cumulative that can never overflow need not be posted at all; see
    ``can_prune``.
    """

    @staticmethod
    def can_prune(tasks: Sequence[Task], peak: int, capacity: int) -> bool:
        """Whether a cumulative over ``tasks`` and some constants can ever act.

        ``tasks`` are the variable tasks and ``peak`` is at least the
        highest point of the constant tasks' profile.  If ``peak`` plus the
        demands of all variable tasks fits ``capacity``, the constraint is
        entailed: a profile segment holds at most ``peak`` plus the
        compulsory parts of the variable tasks, so its height, less any
        one task's own part, plus that task's demand still fits.  Then
        ``propagate`` never moves a bound, never sets a presence to 0 and
        never fails, whatever the domains, and posting it changes nothing
        but the propagation count.  True does not promise pruning.
        """
        return peak + sum(task.demand for task in tasks) > capacity

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
    """Axis-aligned rectangle with fixed edge lengths and a variable origin."""

    __slots__ = ("x", "x_len", "y", "y_len")

    def __init__(self, x: IntVar, x_len: int, y: IntVar, y_len: int):
        if x_len < 0 or y_len < 0:
            raise ValueError("box edge lengths must be >= 0")
        if isinstance(x, int) or isinstance(y, int):
            raise ValueError("box origins must be variables; a taken area is Released data")
        self.x = x
        self.x_len = x_len
        self.y = y
        self.y_len = y_len


class Diffn(Propagator):
    """Pairwise non-overlap of rectangles (open interiors).

    When two boxes overlap for sure on one axis, the other axis is forced
    apart: if only one relative order remains possible it is enforced on
    the bounds, and if none remains the constraint fails.  Boxes of zero
    area are dropped.

    A pair test reads only the two boxes' bounds, so a call rescans only
    boxes whose bounds changed.  ``_seen`` holds each box's (x.lo, x.hi,
    y.lo, y.hi) as last seen, or None.  Each pass marks as dirty the boxes
    whose bounds differ from it, records them, and rescans the dirty rows
    against every partner (every i < j pair while entries are None) until
    no box is dirty.  Every pair has then been tested at its two recorded
    bounds, so a box whose bounds come back to them, by backtracking or
    otherwise, needs no rescan.  A failure sets every entry to None, so a
    failed state reached again is checked again.
    """

    def __init__(self, boxes: Sequence[Box]):
        super().__init__()
        self.boxes = [b for b in boxes if b.x_len > 0 and b.y_len > 0]
        self._seen: list[tuple[int, int, int, int] | None] = [None] * len(self.boxes)

    def post(self, solver: Solver) -> None:
        for box in self.boxes:
            solver.watch(box.x, self)
            solver.watch(box.y, self)

    def propagate(self, solver: Solver) -> bool:
        boxes = self.boxes
        seen = self._seen
        count = len(boxes)
        while True:
            full = False
            dirty = []
            for i, box in enumerate(boxes):
                x = box.x
                y = box.y
                bounds = (x.lo, x.hi, y.lo, y.hi)
                if bounds != seen[i]:
                    full = full or seen[i] is None
                    seen[i] = bounds
                    dirty.append(i)
            if not dirty:
                return True
            if full:
                rows = ((i, range(i + 1, count)) for i in range(count))
            else:
                rows = ((i, range(count)) for i in dirty)
            for i, partners in rows:
                a = boxes[i]
                if not all(j == i or self._prune_pair(a, boxes[j]) for j in partners):
                    self._seen = [None] * count
                    return False

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


Held = Sequence[tuple[int, int, int]]


class Released(Propagator):
    """A ``q``-wide claim at ``y`` starts only once what it meets is released.

    ``held`` holds taken positions as disjoint (first, last, release)
    intervals in ascending order.  The claim y..y+q-1 may begin at
    ``start`` only if ``start >= release`` for every interval it meets.
    When no start precedes the moment the intervals were taken, this is
    exactly non-overlap with them as fixed rectangles.  Many claims may
    share one ``held``; it is read, never copied.

    Filtering is exact on bounds: ``y.lo`` and ``y.hi`` move to the nearest
    values of ``y`` whose claim meets no interval released after
    ``start.hi``, and ``start.lo`` rises to the least release level at which
    some value of ``y`` fits.  A jump past an interval lands on the next
    value of ``y`` (``IntVar.next_value`` / ``prev_value``).  A call bisects
    ``held`` and then reads only the intervals its scans meet or jump past,
    so it does not grow with the intervals elsewhere.
    """

    def __init__(self, start: IntVar, y: IntVar, q: int, held: Held):
        super().__init__()
        if q < 1:
            raise ValueError("claim width must be >= 1")
        self.start = start
        self.y = y
        self.q = q
        self.held = held

    def post(self, solver: Solver) -> None:
        solver.watch(self.start, self)
        solver.watch(self.y, self)

    def propagate(self, solver: Solver) -> bool:
        start, y, q, held = self.start, self.y, self.q, self.held
        count = len(held)
        if not count:
            return True
        floor = start.lo
        # Upward from y.lo: find a claim whose latest release is below
        # ``bar``, first any that fits (bar = start.hi + 1), then ever lower
        # ones until one fits at ``floor``.  A jump passes the rightmost
        # interval released at ``bar`` or later; every value it skips
        # meets that interval.
        bar = start.hi + 1
        first_fit = None
        v = y.lo
        k = max(bisect_left(held, (v + 1,)) - 1, 0)
        while v <= y.hi:
            while k < count and held[k][1] < v:
                k += 1
            end = v + q - 1
            level = floor
            block = -1
            j = k
            while j < count:
                first, _, release = held[j]
                if first > end:
                    break
                if release >= bar:
                    block = j
                elif release > level:
                    level = release
                j += 1
            if block >= 0:
                v = y.next_value(held[block][1] + 1)
                k = block + 1
                continue
            if first_fit is None:
                first_fit = v
            bar = level
            if level <= floor:
                break
        if first_fit is None:
            return False
        if bar > floor and not start.set_min(bar):
            return False
        if first_fit > y.lo and not y.set_min(first_fit):
            return False
        # Downward from y.hi to the highest fitting value; y.lo fits, so the
        # scan stops there at the latest.  A jump passes the leftmost
        # interval released after start.hi.
        top = start.hi
        v = y.hi
        k = bisect_left(held, (v + q,)) - 1
        while True:
            end = v + q - 1
            while k >= 0 and held[k][0] > end:
                k -= 1
            block = -1
            j = k
            while j >= 0:
                _, last, release = held[j]
                if last < v:
                    break
                if release > top:
                    block = j
                j -= 1
            if block < 0:
                return v >= y.hi or y.set_max(v)
            v = y.prev_value(held[block][0] - q)
            k = block - 1


class ElementEqual(Propagator):
    """Positions ``y_a`` and ``y_b`` lie on the same node.

    Each position ranges over its own windows (``IntVar.windows``), such as
    ``SystemModel.start_windows`` builds, and a window's node is the node
    of every position in it.  Filtering is exact on bounds: each bound
    moves to the nearest window on a node the other position reaches.  Two
    bisections per position find the windows meeting its [lo, hi] as one
    slice of ``windows.nodes``; each of them holds a value, since lo and hi
    are values and windows are intervals.  So a call does not grow with the
    node count outside the positions' bounds.  If the two slices are equal,
    every reached node is common and the call returns at once.
    """

    def __init__(self, y_a: IntVar, y_b: IntVar):
        super().__init__()
        for var in (y_a, y_b):
            if var.windows is None:
                raise ValueError(f"position {var.name!r} has no windows to give its nodes")
        self.y_a = y_a
        self.y_b = y_b

    def post(self, solver: Solver) -> None:
        solver.watch(self.y_a, self)
        solver.watch(self.y_b, self)

    def propagate(self, solver: Solver) -> bool:
        y_a, y_b = self.y_a, self.y_b
        k_a, end_a = _reached(y_a)
        k_b, end_b = _reached(y_b)
        nodes_a = y_a.windows.nodes[k_a:end_a]
        nodes_b = y_b.windows.nodes[k_b:end_b]
        if nodes_a == nodes_b:
            return True
        common = set(nodes_a).intersection(nodes_b)
        if not common:
            return False
        return _keep_common(y_a, k_a, end_a, common) and _keep_common(y_b, k_b, end_b, common)


def _reached(var: IntVar) -> tuple[int, int]:
    """The slice of ``var.windows`` that meets [var.lo, var.hi]."""
    firsts = var.windows.firsts
    return bisect_right(firsts, var.lo) - 1, bisect_right(firsts, var.hi)


def _keep_common(var: IntVar, k: int, end: int, common: set[int]) -> bool:
    """Move var's bounds to the nearest reached windows whose node is in ``common``."""
    windows = var.windows
    nodes = windows.nodes
    while nodes[k] not in common:
        k += 1
    end -= 1
    while nodes[end] not in common:
        end -= 1
    return var.set_min(windows.firsts[k]) and var.set_max(windows[end][1])


class AllDifferent(Propagator):
    """Forward checking: a fixed value is removed from every other domain.

    ``IntVar.remove`` moves only bounds, so a fixed value prunes another
    variable only where it is one of that variable's bounds.  A removal can
    bring another fixed value to a bound, so a pass repeats while any bound
    moved: the call returns at its own fixpoint.
    """

    def __init__(self, variables: Sequence[IntVar]):
        super().__init__()
        self.vars = list(variables)

    def post(self, solver: Solver) -> None:
        for var in self.vars:
            solver.watch(var, self)

    def propagate(self, solver: Solver) -> bool:
        while True:
            moved = False
            seen: dict[int, IntVar] = {}
            for var in self.vars:
                if var.lo == var.hi:
                    if var.lo in seen:
                        return False
                    seen[var.lo] = var
            for var in self.vars:
                if var.lo != var.hi:
                    bounds = (var.lo, var.hi)
                    for value in seen:
                        if not var.remove(value):
                            return False
                    moved = moved or bounds != (var.lo, var.hi)
            if not moved:
                return True


class BoolSumEq(Propagator):
    """Sum of 0/1 variables equals a constant."""

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
