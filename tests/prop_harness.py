"""Randomized soundness harness for the kernel propagators.

Each case builds a fresh solver with small random domains, posts one
propagator, runs propagation to a fixpoint, and compares the result
against exhaustive enumeration from oracles.py: a propagator may keep
unsupported values (filtering here is not arc consistent) but must never
drop a supported one, and may only fail when no full assignment exists.
Cumulative tasks are sometimes constants (plain ints), so base profiles
are drawn too; the oracle takes them as fixed values.  Diffn boxes are
sometimes already placed (singleton domains).  Domains are intervals, as
the kernel keeps them.  Release cases draw a claim whose position ranges
over a node layout's start windows, against random held intervals.
Element cases draw two resources over a few nodes, some lacking one
resource, and a position over each one's start windows for a random claim
width, and judge by per-position owners.
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
    Released,
    Solver,
    Task,
)
from hpcdispatch.system import SystemModel

import oracles

KINDS = ("cumulative", "diffn", "element", "alldifferent", "boolsum", "release")


def _random_var(solver: Solver, rng: random.Random, lo=-2, hi=8, max_size=8) -> IntVar:
    a = rng.randint(lo, hi - 1)
    b = min(hi, a + rng.randint(0, max_size - 1))
    return solver.new_var(a, b, f"v{len(solver.vars)}")


def _random_system(rng: random.Random) -> SystemModel:
    """Resources a and b on 1-5 nodes; a node may lack either one."""
    nodes = rng.randint(1, 5)
    while True:
        caps = [{"a": rng.randint(0, 3), "b": rng.randint(0, 3)} for _ in range(nodes)]
        if sum(c["a"] for c in caps) >= 2 and sum(c["b"] for c in caps) >= 2:
            return SystemModel(caps)


def _random_position_var(
    solver: Solver, rng: random.Random, system: SystemModel, resource: str
) -> tuple[IntVar, int]:
    """(y, q): a position over the start windows of a random claim width q,
    its bounds sometimes narrowed to random values of its domain."""
    q = rng.randint(1, max(cap[resource] for cap in system.caps))
    total = system.total_capacity[resource]
    y = solver.new_var(1, total, f"y{len(solver.vars)}", system.start_windows(resource, q))
    if rng.random() < 0.3:
        y.set_min(rng.choice(domain(y)))
    if rng.random() < 0.3:
        y.set_max(rng.choice(domain(y)))
    return y, q


def _random_claim(solver: Solver, rng: random.Random):
    """(y, q, held): a q-wide claim over a few nodes, and disjoint held intervals.

    y ranges over the start windows of q on random node sizes.  Intervals
    are at most three wide, a few positions apart, with releases in [0, 8].
    """
    system = SystemModel([{"core": rng.randint(1, 4)} for _ in range(rng.randint(1, 5))])
    y, q = _random_position_var(solver, rng, system, "core")
    total = system.total_capacity["core"]
    held = []
    p = rng.randint(0, 2)
    while p <= total + 1:
        last = p + rng.randint(0, 2)
        held.append((p, last, rng.randint(0, 8)))
        p = last + 1 + rng.randint(0, 3)
    return y, q, held


def domain(var: IntVar) -> list[int]:
    """The values of var: [lo, hi], within its windows if it has any."""
    if var.windows is None:
        return list(range(var.lo, var.hi + 1))
    return [
        v
        for first, last, _ in var.windows
        for v in range(max(first, var.lo), min(last, var.hi) + 1)
    ]


def _value(term: IntVar | int, lookup: dict) -> int:
    return term if isinstance(term, int) else lookup[term]


def build_case(kind: str, rng: random.Random):
    """Returns (solver, vars, ok) with ok judging one full assignment.

    ``vars`` lists every decision variable in enumeration order; ``ok``
    takes the corresponding value tuple.
    """
    solver = Solver()
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
            if rng.random() < 0.3:  # a box already placed, as search leaves them
                x, y = (solver.new_var(v, v) for v in (rng.randint(-2, 8), rng.randint(-2, 8)))
            else:
                x, y = pick(), pick()
            boxes.append(Box(x, rng.randint(0, 3), y, rng.randint(0, 3)))
        solver.add(Diffn(boxes))
        variables = list(dict.fromkeys([b.x for b in boxes] + [b.y for b in boxes]))

        def ok(values):
            lookup = dict(zip(variables, values))
            return oracles.diffn_ok([(lookup[b.x], b.x_len, lookup[b.y], b.y_len) for b in boxes])

        return solver, variables, ok

    if kind == "release":
        start = _random_var(solver, rng, lo=0, hi=8)
        y, q, held = _random_claim(solver, rng)
        solver.add(Released(start, y, q, held))
        return solver, [start, y], lambda values: oracles.released_ok(held, q, *values)

    if kind == "element":
        system = _random_system(rng)
        variables = [_random_position_var(solver, rng, system, r)[0] for r in ("a", "b")]
        solver.add(ElementEqual(*variables))
        owner_a = oracles.owner_list(system.blocks["a"])
        owner_b = oracles.owner_list(system.blocks["b"])
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
    before = [domain(v) for v in variables]
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
        left = set(domain(var))
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
