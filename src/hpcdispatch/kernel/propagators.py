"""Propagators for the solver core.

The set is exactly what the dispatch models need: timetable-filtering
cumulative (with an optional 0/1 presence variable per task), pairwise
diffn over variable rectangles, "a claim starts only after the held
intervals it meets are released", "two positions lie on the same node" over
the system's node blocks, forward-checking alldifferent, and a boolean
cardinality sum.  Constants, such as running jobs, are never watched or
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
    values whose window meets no interval released after ``start.hi``, and
    ``start.lo`` rises to the least release level at which some value of
    ``y`` fits.  A call bisects ``held`` and then reads only the intervals
    its scans meet or jump past, so it does not grow with the intervals
    elsewhere.
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
        holes = y.holes
        floor = start.lo
        # Upward from y.lo: find a window whose latest release is below
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
                v = held[block][1] + 1
                while v in holes:
                    v += 1
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
            v = held[block][0] - q
            while v in holes:
                v -= 1
            k = block - 1


def apply_span_filter(var: IntVar, filt: tuple[int, int, frozenset[int]]) -> bool:
    """Restrict a freshly created variable in place (no trail, no wakes).

    ``filt`` is (lo, hi, holes) with every hole strictly between lo and hi.
    Only valid before search starts; the restriction becomes part of the
    root domain.  Like ``set_min`` and ``set_max``, a bound that lands on a
    hole skips past it.
    """
    holes = var.holes
    holes.update(filt[2])
    lo = max(var.lo, filt[0])
    hi = min(var.hi, filt[1])
    while lo in holes:
        lo += 1
    while hi in holes:
        hi -= 1
    var.lo, var.hi = lo, hi
    return lo <= hi


Blocks = Sequence[tuple[int, int, int]]


class NodeBlocks(list):
    """Node blocks plus their parallel ``firsts`` and ``nodes`` lists.

    A list of ascending, contiguous (first, last, node) triples covering
    1..total; ``firsts[k]`` and ``nodes[k]`` are block k's first position
    and node.  The parallel lists are built once, with the blocks, so that
    ``ElementEqual`` can bisect and compare the reached nodes as slices.
    """

    def __init__(self, blocks: Blocks = ()):
        super().__init__(blocks)
        self.firsts = [first for first, _, _ in self]
        self.nodes = [node for _, _, node in self]


class ElementEqual(Propagator):
    """Positions ``y_a`` and ``y_b`` lie on the same node.

    ``blocks_a`` and ``blocks_b`` are two resources' node blocks, as in
    ``SystemModel.blocks``: ascending, contiguous (first, last, node)
    triples covering 1..total.  Filtering is exact on the index domains: a
    block's positions survive only while the other index can still reach
    its node.  A call reads only the blocks that meet each index's
    [lo, hi], found by bisection, so it does not grow with the node count,
    and moves each bound of each index at most once (``_keep_common``).

    When both block lists are ``NodeBlocks``, a call first tries a cheaper
    test: if each index reaches every block meeting its [lo, hi]
    (``_reached_slice``) and the two runs of nodes are equal, every
    reached node is common and the call returns at once.
    """

    def __init__(self, blocks_a: Blocks, y_a: IntVar, blocks_b: Blocks, y_b: IntVar):
        super().__init__()
        for blocks, var in ((blocks_a, y_a), (blocks_b, y_b)):
            total = blocks[-1][1] if blocks else 0
            if var.lo < 1 or var.hi > total:
                raise ValueError(
                    f"index {var.name!r} domain [{var.lo},{var.hi}] is outside [1,{total}]"
                )
        self.blocks_a = blocks_a
        self.y_a = y_a
        self.blocks_b = blocks_b
        self.y_b = y_b
        self.slices = isinstance(blocks_a, NodeBlocks) and isinstance(blocks_b, NodeBlocks)

    def post(self, solver: Solver) -> None:
        solver.watch(self.y_a, self)
        solver.watch(self.y_b, self)

    def propagate(self, solver: Solver) -> bool:
        if self.slices:
            nodes_a = _reached_slice(self.blocks_a, self.y_a)
            if nodes_a is not None and nodes_a == _reached_slice(self.blocks_b, self.y_b):
                return True
        reached_a = _reached_blocks(self.blocks_a, self.y_a)
        reached_b = _reached_blocks(self.blocks_b, self.y_b)
        nodes_b = {node for _, _, node in reached_b}
        common = {node for _, _, node in reached_a if node in nodes_b}
        if not common:
            return False
        return _keep_common(self.y_a, reached_a, common) and _keep_common(
            self.y_b, reached_b, common
        )


def _keep_common(var: IntVar, reached: list[tuple[int, int, int]], common: set[int]) -> bool:
    """Remove the reached blocks whose node is not in ``common``, one bound move per side."""
    low = 0
    while reached[low][2] not in common:
        low += 1
    high = len(reached) - 1
    while reached[high][2] not in common:
        high -= 1
    if not (var.set_min(reached[low][0]) and var.set_max(reached[high][1])):
        return False
    for first, last, node in reached[low + 1 : high]:
        if node not in common and not var.remove_range(first, last):
            return False
    return True


def _reached_slice(blocks: NodeBlocks, var: IntVar) -> list[int] | None:
    """The nodes of the blocks meeting [var.lo, var.hi], if var reaches them all.

    lo is a value and so is every block start inside (lo, hi] that is not
    a hole, so when none is a hole, every block meeting the bounds holds a
    value.  Otherwise None: some block may be empty.
    """
    firsts = blocks.firsts
    k = bisect_right(firsts, var.lo) - 1
    end = bisect_right(firsts, var.hi)
    if var.holes and not var.holes.isdisjoint(firsts[k + 1 : end]):
        return None
    return blocks.nodes[k:end]


def _reached_blocks(blocks: Blocks, var: IntVar) -> list[tuple[int, int, int]]:
    """The blocks meeting [var.lo, var.hi] that still hold a value of var."""
    lo, hi, holes = var.lo, var.hi, var.holes
    # (p + 1,) sorts after exactly the blocks that start at or before p.
    k = bisect_left(blocks, (lo + 1,)) - 1
    out = [blocks[k]]  # it holds lo, and lo is never a hole
    for block in blocks[k + 1 : bisect_left(blocks, (hi + 1,))]:
        p = block[0]
        last = block[1] if block[1] < hi else hi
        while p in holes and p <= last:
            p += 1
        if p <= last:
            out.append(block)
    return out


class AllDifferent(Propagator):
    """Forward checking: a fixed value is removed from every other domain."""

    def __init__(self, variables: Sequence[IntVar]):
        super().__init__()
        self.vars = list(variables)

    def post(self, solver: Solver) -> None:
        for var in self.vars:
            solver.watch(var, self)

    def propagate(self, solver: Solver) -> bool:
        while True:
            fixed = False
            seen: dict[int, IntVar] = {}
            for var in self.vars:
                if var.lo == var.hi:
                    if var.lo in seen:
                        return False
                    seen[var.lo] = var
            for var in self.vars:
                if var.lo != var.hi:
                    for value in seen:
                        if not var.remove(value):
                            return False
                    fixed = fixed or var.lo == var.hi
            if not fixed:
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
