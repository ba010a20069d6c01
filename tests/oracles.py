"""Brute-force reference implementations backing the test suite.

Nothing here touches the solver kernel or the dispatch models: feasibility
is decided on explicit occupancy grids and per-node capacity profiles, and
optima come from exhaustive depth-first search with a plain additive lower
bound.  Deliberately naive; only fit for tiny inputs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

OBJECTIVE_SCALE = 10_000


def mirror_weight(duration: int, scale: int = OBJECTIVE_SCALE) -> int:
    """Nearest integer to scale/duration (half rounds up), never below 1."""
    return max(1, int(Fraction(scale, duration) + Fraction(1, 2)))


def residual_span(run, t: int) -> int:
    return max(1, run.start + run.d_expected - t)


def plan_horizon(instance) -> int:
    """Time by which everything could have run back to back."""
    total = sum(entry.d_expected for entry in instance.queued)
    total += sum(residual_span(run, instance.t) for run in instance.running)
    return instance.t + total


def job_cost(entry, start: int, scale: int = OBJECTIVE_SCALE) -> int:
    w = mirror_weight(entry.d_expected, scale)
    return w * (start - entry.arrival + entry.d_expected)


def plan_cost(instance, starts: dict, scale: int = OBJECTIVE_SCALE) -> int:
    """Weighted flow objective recomputed from concrete start times."""
    return sum(job_cost(entry, starts[entry.job_id], scale) for entry in instance.queued)


# -- window / variable-count mirrors ------------------------------------------


def unit_request(entry) -> dict:
    return {r: entry.job.unit_demand(r) for r, amount in entry.job.demand.items() if amount > 0}


def node_unit_capacity(system, rn: int, unit_req: dict) -> list:
    """How many of the job's units each node could hold on its own."""
    per_node = []
    for node in range(1, system.node_count + 1):
        most = rn
        for resource, amount in unit_req.items():
            cap = system.cap(node, resource)
            most = min(most, cap // amount if amount else rn)
        per_node.append(max(0, most))
    return per_node


def visible_window(instance, cap: int = 100) -> list:
    """Fittable queued jobs, highest priority first, truncated."""
    scored = []
    for entry in instance.queued:
        req = unit_request(entry)
        if any(amount < 1 for amount in req.values()) or not req:
            continue
        if sum(node_unit_capacity(instance.system, entry.rn, req)) < entry.rn:
            continue
        prio = Fraction(instance.t - entry.arrival + entry.d_expected, entry.d_expected)
        scored.append((-prio, entry.job_id, entry))
    scored.sort(key=lambda item: item[:2])
    return [entry for _, _, entry in scored[:cap]]


def expected_vars_pcp20(instance, cap: int = 100) -> int:
    window = visible_window(instance, cap)
    return len(window) + sum(entry.rn * len(unit_request(entry)) for entry in window)


def expected_vars_pcp19(instance, cap: int = 100) -> int:
    window = visible_window(instance, cap)
    total = len(window)
    for entry in window:
        total += sum(node_unit_capacity(instance.system, entry.rn, unit_request(entry)))
    return total


# -- exhaustive dispatch under contiguous-position rules -----------------------


def _node_blocks(system) -> dict:
    """resource -> {node: (first, last)} read off the ownership arrays."""
    blocks: dict = {}
    for resource in system.resources:
        owner = system.owner[resource]
        spans: dict = {}
        for idx, node in enumerate(owner):
            first, last = spans.get(node, (idx + 1, idx + 1))
            spans[node] = (min(first, idx + 1), max(last, idx + 1))
        blocks[resource] = spans
    return blocks


def _running_cells(instance) -> dict:
    """(resource, position) -> set of busy times, from running allocations."""
    busy: dict = {}
    for run in instance.running:
        t_end = instance.t + residual_span(run, instance.t)
        span = range(instance.t, t_end)
        for entry in run.allocation:
            for pos in range(entry.position, entry.position + entry.extent):
                busy.setdefault((entry.resource, pos), set()).update(span)
    return busy


def _free_run(busy, resource, first_pos, extent, start, end) -> bool:
    for pos in range(first_pos, first_pos + extent):
        cells = busy.get((resource, pos))
        if cells and any(tau in cells for tau in range(start, end)):
            return False
    return True


def _unit_placements(system, blocks, busy, unit_req, start, end) -> list:
    """Every (node, ((resource, first_pos), ...)) option for one unit."""
    options = []
    for node in range(1, system.node_count + 1):
        per_resource = []
        for resource, amount in sorted(unit_req.items()):
            span = blocks[resource].get(node)
            if span is None:
                per_resource = None
                break
            first, last = span
            spots = [
                pos
                for pos in range(first, last - amount + 2)
                if _free_run(busy, resource, pos, amount, start, end)
            ]
            if not spots:
                per_resource = None
                break
            per_resource.append([(resource, pos) for pos in spots])
        if per_resource is None:
            continue
        for combo in itertools.product(*per_resource):
            options.append((node, combo))
    return options


def _occupy(busy, placement, unit_req, start, end, on: bool) -> None:
    _node, combo = placement
    span = range(start, end)
    for resource, first_pos in combo:
        for pos in range(first_pos, first_pos + unit_req[resource]):
            cells = busy.setdefault((resource, pos), set())
            if on:
                cells.update(span)
            else:
                cells.difference_update(span)


def best_schedule_positions(instance, scale: int = OBJECTIVE_SCALE):
    """Exhaustive optimum when every unit holds contiguous positions.

    Returns (objective, plan) where plan maps job_id to (start, placements)
    and placements has one (node, ((resource, first_pos), ...)) per unit;
    (None, None) when nothing feasible exists.
    """
    system = instance.system
    t = instance.t
    eoh = plan_horizon(instance)
    blocks = _node_blocks(system)
    busy = _running_cells(instance)
    jobs = sorted(
        instance.queued, key=lambda e: (-mirror_weight(e.d_expected, scale), e.job_id)
    )
    weights = [mirror_weight(e.d_expected, scale) for e in jobs]
    floor_cost = [0] * (len(jobs) + 1)
    for i in range(len(jobs) - 1, -1, -1):
        floor_cost[i] = floor_cost[i + 1] + job_cost(jobs[i], t, scale)

    best: list = [None, None]

    def place_units(i, start, end, req, remaining, chosen, lower) -> None:
        if not remaining:
            descend(i + 1, lower)
            return
        options = _unit_placements(system, blocks, busy, req, start, end)
        for placement in options:
            if chosen and placement < chosen[-1]:
                continue  # units are interchangeable; keep one ordering
            _occupy(busy, placement, req, start, end, True)
            chosen.append(placement)
            place_units(i, start, end, req, remaining - 1, chosen, lower)
            chosen.pop()
            _occupy(busy, placement, req, start, end, False)

    def descend(i, cost) -> None:
        if best[0] is not None and cost + floor_cost[i] >= best[0]:
            return
        if i == len(jobs):
            best[0] = cost
            best[1] = {
                entry.job_id: (starts[entry.job_id], tuple(placed[entry.job_id]))
                for entry in jobs
            }
            return
        entry = jobs[i]
        req = unit_request(entry)
        for s in range(t, eoh + 1):
            contribution = weights[i] * (s - entry.arrival + entry.d_expected)
            if best[0] is not None and cost + contribution + floor_cost[i + 1] >= best[0]:
                break  # later starts only cost more
            starts[entry.job_id] = s
            placed[entry.job_id] = chosen = []
            place_units(i, s, s + entry.d_expected, req, entry.rn, chosen, cost + contribution)

    starts: dict = {}
    placed: dict = {}
    descend(0, 0)
    return best[0], best[1]


# -- exhaustive dispatch under per-node capacity rules -------------------------


def _free_profiles(instance, eoh: int) -> dict:
    """(node, resource) -> list of spare capacity per time in [t, eoh)."""
    system = instance.system
    t = instance.t
    length = max(0, eoh - t)
    free = {
        (node, resource): [system.cap(node, resource)] * length
        for node in range(1, system.node_count + 1)
        for resource in system.resources
    }
    for run in instance.running:
        until = min(eoh, t + residual_span(run, t))
        for entry in run.allocation:
            owner = system.owner[entry.resource]
            node = owner[entry.position - 1]
            row = free[(node, entry.resource)]
            for tau in range(t, until):
                row[tau - t] -= entry.extent
    return free


def _nodes_can_host(free, t, req, start, end, counts) -> bool:
    for node, k in counts.items():
        for resource, amount in req.items():
            row = free[(node, resource)]
            need = k * amount
            if any(row[tau - t] < need for tau in range(start, end)):
                return False
    return True


def _reserve(free, t, req, start, end, counts, sign: int) -> None:
    for node, k in counts.items():
        for resource, amount in req.items():
            row = free[(node, resource)]
            for tau in range(start, end):
                row[tau - t] -= sign * k * amount


def best_schedule_nodes(instance, scale: int = OBJECTIVE_SCALE):
    """Exhaustive optimum when a unit only needs spare node capacity.

    Returns (objective, plan) with plan mapping job_id to (start, nodes),
    nodes sorted with one entry per unit; (None, None) if infeasible.
    """
    system = instance.system
    t = instance.t
    eoh = plan_horizon(instance)
    longest = max((entry.d_expected for entry in instance.queued), default=0)
    free = _free_profiles(instance, eoh + longest + 1)
    jobs = sorted(
        instance.queued, key=lambda e: (-mirror_weight(e.d_expected, scale), e.job_id)
    )
    weights = [mirror_weight(e.d_expected, scale) for e in jobs]
    floor_cost = [0] * (len(jobs) + 1)
    for i in range(len(jobs) - 1, -1, -1):
        floor_cost[i] = floor_cost[i + 1] + job_cost(jobs[i], t, scale)

    all_nodes = range(1, system.node_count + 1)
    best: list = [None, None]
    starts: dict = {}
    chosen: dict = {}

    def descend(i, cost) -> None:
        if best[0] is not None and cost + floor_cost[i] >= best[0]:
            return
        if i == len(jobs):
            best[0] = cost
            best[1] = {
                entry.job_id: (starts[entry.job_id], chosen[entry.job_id])
                for entry in jobs
            }
            return
        entry = jobs[i]
        req = unit_request(entry)
        for s in range(t, eoh + 1):
            contribution = weights[i] * (s - entry.arrival + entry.d_expected)
            if best[0] is not None and cost + contribution + floor_cost[i + 1] >= best[0]:
                break
            end = s + entry.d_expected
            for combo in itertools.combinations_with_replacement(all_nodes, entry.rn):
                counts: dict = {}
                for node in combo:
                    counts[node] = counts.get(node, 0) + 1
                if not _nodes_can_host(free, t, req, s, end, counts):
                    continue
                _reserve(free, t, req, s, end, counts, 1)
                starts[entry.job_id] = s
                chosen[entry.job_id] = combo
                descend(i + 1, cost + contribution)
                _reserve(free, t, req, s, end, counts, -1)

    descend(0, 0)
    return best[0], best[1]


# -- conversions between the two solution forms --------------------------------


def nodes_of_allocation(system, allocation) -> tuple:
    """One node per unit, sorted; raises if a unit straddles nodes."""
    per_unit: dict = {}
    for entry in allocation:
        owner = system.owner[entry.resource]
        first = owner[entry.position - 1]
        last = owner[entry.position + entry.extent - 2]
        if first != last:
            raise ValueError(f"unit {entry.unit} crosses nodes {first}/{last}")
        per_unit.setdefault(entry.unit, set()).add(first)
    nodes = []
    for unit, held in sorted(per_unit.items()):
        if len(held) != 1:
            raise ValueError(f"unit {unit} sits on several nodes {sorted(held)}")
        nodes.append(held.pop())
    return tuple(sorted(nodes))


def capacity_violations(instance, plan, horizon_pad: int = 1) -> list:
    """Check a node-form plan against per-node capacity profiles.

    plan maps job_id to (start, nodes).  Returns human-readable problems;
    empty means the plan is feasible in the per-node-capacity sense.
    """
    by_id = {entry.job_id: entry for entry in instance.queued}
    end_max = instance.t
    for job_id, (start, _nodes) in plan.items():
        end_max = max(end_max, start + by_id[job_id].d_expected)
    free = _free_profiles(instance, end_max + horizon_pad)
    problems = []
    for job_id, (start, nodes) in sorted(plan.items()):
        entry = by_id[job_id]
        if len(nodes) != entry.rn:
            problems.append(f"job {job_id}: {len(nodes)} units placed, wants {entry.rn}")
            continue
        req = unit_request(entry)
        counts: dict = {}
        for node in nodes:
            counts[node] = counts.get(node, 0) + 1
        end = start + entry.d_expected
        if not _nodes_can_host(free, instance.t, req, start, end, counts):
            problems.append(f"job {job_id}: nodes {nodes} lack capacity at [{start},{end})")
            continue
        _reserve(free, instance.t, req, start, end, counts, 1)
    return problems


def positions_for_nodes(instance, plan):
    """Contiguous layout realizing a node-form plan, or None.

    plan maps job_id to (start, nodes).  Returns job_id -> tuple of
    (node, ((resource, first_pos), ...)) per unit when a layout exists.
    """
    system = instance.system
    blocks = _node_blocks(system)
    busy = _running_cells(instance)
    by_id = {entry.job_id: entry for entry in instance.queued}
    work = []
    for job_id, (start, nodes) in sorted(plan.items()):
        entry = by_id[job_id]
        req = unit_request(entry)
        for node in nodes:
            work.append((job_id, node, req, start, start + entry.d_expected))

    placed: dict = {}

    def backtrack(k: int) -> bool:
        if k == len(work):
            return True
        job_id, node, req, start, end = work[k]
        per_resource = []
        for resource, amount in sorted(req.items()):
            span = blocks[resource].get(node)
            if span is None:
                return False
            first, last = span
            spots = [
                pos
                for pos in range(first, last - amount + 2)
                if _free_run(busy, resource, pos, amount, start, end)
            ]
            if not spots:
                return False
            per_resource.append([(resource, pos) for pos in spots])
        for combo in itertools.product(*per_resource):
            placement = (node, combo)
            _occupy(busy, placement, req, start, end, True)
            placed.setdefault(job_id, []).append(placement)
            if backtrack(k + 1):
                return True
            placed[job_id].pop()
            _occupy(busy, placement, req, start, end, False)
        return False

    if not backtrack(0):
        return None
    return {job_id: tuple(units) for job_id, units in placed.items()}


# -- the allocation check at one instant ---------------------------------------


def allocation_kinds(system, held, claims) -> set:
    """Violation kinds of claims against held (job_id, allocation) pairs.

    Every range is held at the same instant.  Span errors of a claim mask
    the other kinds; otherwise one claimed unit on several nodes is a
    unit-split, and a claimed range that shares a position with any other
    claimed or held range, compared pair by pair, is a double-booking.
    """
    claimed = [(job_id, entry) for job_id, allocation in claims for entry in allocation]
    kinds = set()
    for _, entry in claimed:
        owner = system.owner.get(entry.resource)
        last = entry.position + entry.extent - 1
        if owner is None:
            kinds.add("unknown-resource")
        elif entry.extent < 1:
            kinds.add("bad-extent")
        elif entry.position < 1 or last > len(owner):
            kinds.add("out-of-range")
        elif owner[entry.position - 1] != owner[last - 1]:
            kinds.add("node-span")
    if kinds:
        return kinds
    unit_nodes: dict = {}
    for job_id, entry in claimed:
        node = system.owner[entry.resource][entry.position - 1]
        unit_nodes.setdefault((job_id, entry.unit), set()).add(node)
    if any(len(nodes) > 1 for nodes in unit_nodes.values()):
        kinds.add("unit-split")
    others = claimed + [(job_id, entry) for job_id, allocation in held for entry in allocation]
    for i, (_, a) in enumerate(claimed):
        for _, b in others[i + 1 :]:
            if (
                a.resource == b.resource
                and a.position < b.position + b.extent
                and b.position < a.position + a.extent
            ):
                kinds.add("double-booking")
    return kinds


# -- one-assignment feasibility predicates for the propagator harness ----------


def cumulative_ok(entries, capacity: int) -> bool:
    """entries: (start, duration, demand, present) tuples of plain ints."""
    usage: dict = {}
    for start, duration, demand, present in entries:
        if not present or duration <= 0 or demand <= 0:
            continue
        for tau in range(start, start + duration):
            usage[tau] = usage.get(tau, 0) + demand
            if usage[tau] > capacity:
                return False
    return True


def diffn_ok(rects) -> bool:
    """rects: (x, x_len, y, y_len) tuples; zero extents never collide."""
    solid = [r for r in rects if r[1] > 0 and r[3] > 0]
    for (ax, axl, ay, ayl), (bx, bxl, by, byl) in itertools.combinations(solid, 2):
        if ax < bx + bxl and bx < ax + axl and ay < by + byl and by < ay + ayl:
            return False
    return True


def released_ok(held, q: int, start: int, position: int) -> bool:
    """held: (first, last, release) intervals; the claim position..position+q-1
    may start only once every interval it meets is released."""
    return all(
        start >= release
        for first, last, release in held
        if first <= position + q - 1 and position <= last
    )


def owner_list(blocks) -> list:
    """Owning node of every position, 1-based, from (first, last, node) blocks."""
    owner = []
    for first, last, node in blocks:
        assert first == len(owner) + 1, "blocks must be ascending and contiguous"
        owner.extend([node] * (last - first + 1))
    return owner


def same_node_ok(owner_a, owner_b, position_a: int, position_b: int) -> bool:
    return owner_a[position_a - 1] == owner_b[position_b - 1]


def alldifferent_ok(values) -> bool:
    return len(set(values)) == len(values)


def bool_sum_ok(values, total: int) -> bool:
    return sum(values) == total


def support_sets(domains, ok) -> list:
    """Per-variable sets of values appearing in some feasible assignment.

    domains is a list of value lists; ok judges one full assignment.  Stops
    enumerating once every value everywhere has found support.
    """
    supported = [set() for _ in domains]
    want = sum(len(d) for d in domains)
    have = 0
    for assignment in itertools.product(*domains):
        if not ok(assignment):
            continue
        for slot, value in enumerate(assignment):
            if value not in supported[slot]:
                supported[slot].add(value)
                have += 1
        if have == want:
            break
    return supported
