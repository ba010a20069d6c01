"""Randomized soundness harness for the kernel propagators.

Each case builds a fresh solver with small random domains, posts one
propagator, runs propagation to a fixpoint, and compares the result
against exhaustive enumeration from oracles.py: a propagator may keep
unsupported values (filtering here is not arc consistent) but must never
drop a supported one, and may only fail when no full assignment exists.
Cumulative tasks and diffn boxes are sometimes constants (plain ints), so
base profiles and fixed rectangles are drawn too; the oracles take them as
fixed values.  Element cases draw the node blocks of two resources over a
few nodes, some lacking one resource, and judge by per-position owners.
"""

from __future__ import annotations

import random

from hpcdispatch.kernel import (
    AllDifferent,
    BoolSumEq,
    Box,
    Cumulative,
    Diffn,
    ElementEqual,
    IntVar,
    Solver,
    Task,
)

import oracles

KINDS = ("cumulative", "diffn", "element", "alldifferent", "boolsum")


def _random_var(solver: Solver, rng: random.Random, lo=-2, hi=8, max_size=8) -> IntVar:
    a = rng.randint(lo, hi - 1)
    b = min(hi, a + rng.randint(0, max_size - 1))
    var = solver.new_var(a, b, f"v{len(solver.vars)}")
    for v in range(a + 1, b):
        if rng.random() < 0.25:
            var.remove(v)
    return var


def _random_block_maps(rng: random.Random):
    """Node blocks of two resources on 1-5 nodes; a node may lack either one."""
    nodes = rng.randint(1, 5)
    while True:
        caps = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(nodes)]
        if sum(a for a, _ in caps) >= 2 and sum(b for _, b in caps) >= 2:
            break
    maps = []
    for side in (0, 1):
        blocks = []
        first = 1
        for node, cap in enumerate(caps, 1):
            if cap[side]:
                blocks.append((first, first + cap[side] - 1, node))
                first += cap[side]
        maps.append(blocks)
    return maps


def _random_position_var(solver: Solver, rng: random.Random, total: int) -> IntVar:
    """A random domain inside [1, total], sometimes with stale holes past its bounds."""
    var = _random_var(solver, rng, lo=1, hi=total)
    if rng.random() < 0.3:
        var.set_min(rng.choice(_domain(var)))
    if rng.random() < 0.3:
        var.set_max(rng.choice(_domain(var)))
    return var


def _domain(var: IntVar) -> list[int]:
    return list(var.iter_values())


def _value(term: IntVar | int, lookup: dict) -> int:
    return term if isinstance(term, int) else lookup[term]


def build_case(kind: str, rng: random.Random):
    """Returns (solver, vars, ok) with ok judging one full assignment.

    ``vars`` lists every decision variable in enumeration order; ``ok``
    takes the corresponding value tuple.
    """
    solver = Solver(kind)
    if kind == "cumulative":
        n = rng.randint(1, 4)
        starts = [
            rng.randint(-2, 8) if rng.random() < 0.3 else _random_var(solver, rng)
            for _ in range(n)
        ]
        durations = [rng.randint(0, 3) for _ in range(n)]
        demands = [rng.randint(0, 3) for _ in range(n)]
        capacity = rng.randint(0, 4)
        presences: list[IntVar | None] = []
        variables: list[IntVar] = [s for s in starts if not isinstance(s, int)]
        for start in starts:
            if not isinstance(start, int) and rng.random() < 0.4:
                p = solver.new_var(0, 1, f"p{len(presences)}")
                if rng.random() < 0.3:
                    p.assign(rng.randint(0, 1))
                presences.append(p)
                variables.append(p)
            else:
                presences.append(None)
        solver.add(
            Cumulative(
                [Task(s, d, q, presence=p) for s, d, q, p in zip(starts, durations, demands, presences)],
                capacity,
            )
        )

        def ok(values):
            lookup = dict(zip(variables, values))
            entries = [
                (_value(s, lookup), d, q, 1 if p is None else lookup[p])
                for s, d, q, p in zip(starts, durations, demands, presences)
            ]
            return oracles.cumulative_ok(entries, capacity)

        return solver, variables, ok

    if kind == "diffn":
        n = rng.randint(2, 4)
        pool: list[IntVar] = []

        def pick():
            if pool and rng.random() < 0.2:
                return rng.choice(pool)
            var = _random_var(solver, rng)
            pool.append(var)
            return var

        boxes = []
        for _ in range(n):
            if rng.random() < 0.3:
                x, y = rng.randint(-2, 8), rng.randint(-2, 8)
            else:
                x, y = pick(), pick()
            boxes.append(Box(x, rng.randint(0, 3), y, rng.randint(0, 3)))
        solver.add(Diffn(boxes))
        variables = list(dict.fromkeys(
            v for v in [b.x for b in boxes] + [b.y for b in boxes] if not isinstance(v, int)
        ))

        def ok(values):
            lookup = dict(zip(variables, values))
            rects = [(_value(b.x, lookup), b.x_len, _value(b.y, lookup), b.y_len) for b in boxes]
            return oracles.diffn_ok(rects)

        return solver, variables, ok

    if kind == "element":
        blocks_a, blocks_b = _random_block_maps(rng)
        variables = [
            _random_position_var(solver, rng, blocks[-1][1]) for blocks in (blocks_a, blocks_b)
        ]
        solver.add(ElementEqual(blocks_a, variables[0], blocks_b, variables[1]))
        owner_a = oracles.owner_list(blocks_a)
        owner_b = oracles.owner_list(blocks_b)
        return solver, variables, lambda values: oracles.same_node_ok(owner_a, owner_b, *values)

    if kind == "alldifferent":
        n = rng.randint(2, 4)
        variables = [_random_var(solver, rng, lo=0, hi=6, max_size=5) for _ in range(n)]
        solver.add(AllDifferent(variables))
        return solver, variables, oracles.alldifferent_ok

    if kind == "boolsum":
        n = rng.randint(1, 4)
        variables = []
        for _ in range(n):
            var = solver.new_var(0, 1, f"b{len(variables)}")
            if rng.random() < 0.3:
                var.assign(rng.randint(0, 1))
            variables.append(var)
        total = rng.randint(-1, n + 1)
        solver.add(BoolSumEq(variables, total))
        return solver, variables, lambda values: oracles.bool_sum_ok(values, total)

    raise ValueError(f"unknown propagator kind {kind!r}")


def run_case(kind: str, rng: random.Random) -> str:
    """One random case; raises AssertionError with context on a violation."""
    solver, variables, ok = build_case(kind, rng)
    before = [_domain(v) for v in variables]
    supported = oracles.support_sets(before, ok)
    feasible = bool(supported[0]) if variables else ok(())
    outcome = solver.propagate_all()
    if not outcome:
        assert not feasible, (
            f"{kind}: propagation failed but support exists; "
            f"domains {before}, supported {supported}"
        )
        return "fail-ok"
    for var, dom, keep in zip(variables, before, supported):
        left = set(var.iter_values())
        lost = keep - left
        assert not lost, (
            f"{kind}: supported values {sorted(lost)} removed from {var.name}; "
            f"before {dom}, after {sorted(left)}, supported {sorted(keep)}"
        )
    return "kept" if feasible else "undetected"


def run_many(kind: str, cases: int, seed: int) -> dict[str, int]:
    rng = random.Random(seed)
    tally: dict[str, int] = {}
    for _ in range(cases):
        result = run_case(kind, rng)
        tally[result] = tally.get(result, 0) + 1
    return tally
