"""Cluster description and the position-based allocation check.

Each resource type has one flat, 1-based position space obtained by
concatenating the per-node capacities in node order: a node with capacity c
for resource r owns c consecutive positions of r's space.  An allocation is
a set of contiguous position ranges, all held at the same instant;
``validate_allocation`` checks new claims against held ranges with a sort
per resource, independent of any solver machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class SystemModel:
    """Immutable cluster: node capacities plus derived position geometry.

    ``node_classes`` groups the node ids whose capacity vectors are equal,
    each class in ascending order and the classes ordered by their lowest
    node (eurora and kit-forhlr2 have two each).  Nodes of one class are
    interchangeable while they are wholly free, which placement and the
    per-node replica counts use to look at one node per class.
    """

    def __init__(self, node_caps: Sequence[dict[str, int]], name: str = "custom"):
        if not node_caps:
            raise ValueError("a system needs at least one node")
        self.name = name
        self.node_count = len(node_caps)
        resources: list[str] = []
        for caps in node_caps:
            for resource, cap in caps.items():
                if cap < 0:
                    raise ValueError(f"negative capacity for {resource!r}")
                if cap > 0 and resource not in resources:
                    resources.append(resource)
        if not resources:
            raise ValueError("a system needs at least one non-empty resource")
        self.resources: tuple[str, ...] = tuple(resources)
        self.caps: list[dict[str, int]] = [
            {r: caps.get(r, 0) for r in resources} for caps in node_caps
        ]
        # Equal nodes mostly come in runs, so look a class up once per run.
        classes: dict[tuple[int, ...], list[int]] = {}
        previous = None
        for node, caps in enumerate(self.caps, 1):
            if caps != previous:
                members = classes.setdefault(tuple(caps.values()), [])
                previous = caps
            members.append(node)
        self.node_classes: tuple[tuple[int, ...], ...] = tuple(
            tuple(nodes) for nodes in classes.values()
        )
        # Flattened position spaces: owner[r][p-1] is the node id owning
        # position p; blocks[r] lists (first, last, node) spans in node order.
        self.total_capacity: dict[str, int] = {}
        self.owner: dict[str, list[int]] = {}
        self.blocks: dict[str, list[tuple[int, int, int]]] = {}
        self.node_span: dict[tuple[int, str], tuple[int, int]] = {}
        for resource in resources:
            owner: list[int] = []
            blocks: list[tuple[int, int, int]] = []
            for node in range(1, self.node_count + 1):
                cap = self.caps[node - 1][resource]
                if cap <= 0:
                    continue
                first = len(owner) + 1
                owner.extend([node] * cap)
                blocks.append((first, len(owner), node))
                self.node_span[(node, resource)] = (first, len(owner))
            self.owner[resource] = owner
            self.blocks[resource] = blocks
            self.total_capacity[resource] = len(owner)
        self._span_filters: dict[tuple[str, int], tuple[int, int, frozenset[int]]] = {}

    def cap(self, node: int, resource: str) -> int:
        return self.caps[node - 1].get(resource, 0)

    def span_filter(self, resource: str, q: int) -> tuple[int, int, frozenset[int]]:
        """Domain filter for "a q-wide claim of resource starts inside one node block".

        Returns (lo, hi, holes) for ``kernel.apply_span_filter``; lo > hi
        means no block is q wide.  Memoized per (resource, q).
        """
        key = (resource, q)
        cached = self._span_filters.get(key)
        if cached is None:
            windows = [
                (first, last - q + 1)
                for first, last, _ in self.blocks[resource]
                if last - first + 1 >= q
            ]
            holes: set[int] = set()
            for (_, prev_hi), (next_lo, _) in zip(windows, windows[1:]):
                holes.update(range(prev_hi + 1, next_lo))
            if windows:
                cached = (windows[0][0], windows[-1][1], frozenset(holes))
            else:
                cached = (1, 0, frozenset())
            self._span_filters[key] = cached
        return cached

    def position_to_node(self, resource: str, position: int) -> int:
        owner = self.owner.get(resource)
        if not owner or not 1 <= position <= len(owner):
            raise ValueError(f"position {position} out of range for {resource!r}")
        return owner[position - 1]

    def to_config(self) -> dict:
        """Inline config equivalent to this system (consecutive equal nodes merged)."""
        groups: list[dict] = []
        for caps in self.caps:
            cap = {r: c for r, c in caps.items() if c > 0}
            if groups and groups[-1]["cap"] == cap:
                groups[-1]["count"] += 1
            else:
                groups.append({"count": 1, "cap": cap})
        return {"name": self.name, "groups": groups}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SystemModel(name={self.name!r}, nodes={self.node_count})"


def build_system(config: dict) -> SystemModel:
    """Build a system from a config dict: {"name": ..., "groups": [...]}.

    Each group is {"count": n, "cap": {resource: capacity}}; nodes are
    numbered 1..N in group order.
    """
    groups = config.get("groups") if isinstance(config, dict) else None
    if not groups or not isinstance(groups, list):
        raise ValueError("system config needs a non-empty 'groups' list")
    node_caps: list[dict[str, int]] = []
    for number, group in enumerate(groups, 1):
        unknown = sorted(set(group) - {"count", "cap"}) if isinstance(group, dict) else []
        if unknown:
            raise ValueError(f"system group {number}: unknown keys {', '.join(map(str, unknown))}")
        try:
            count = int(group.get("count", 0))
            cap = {str(r): int(c) for r, c in group.get("cap", {}).items()}
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"system group {number}: {exc}") from None
        if count < 1:
            raise ValueError(f"system group {number}: count must be >= 1")
        node_caps.extend(dict(cap) for _ in range(count))
    return SystemModel(node_caps, name=str(config.get("name", "custom")))


PRESET_CONFIGS: dict[str, dict] = {
    "eurora": {
        "name": "eurora",
        "groups": [
            {"count": 32, "cap": {"core": 16, "mem": 16, "gpu": 2}},
            {"count": 32, "cap": {"core": 16, "mem": 16, "mic": 2}},
        ],
    },
    "kit-forhlr2": {
        "name": "kit-forhlr2",
        "groups": [
            {"count": 1152, "cap": {"core": 20, "mem": 64}},
            {"count": 21, "cap": {"core": 48, "mem": 1000, "gpu": 4}},
        ],
    },
}


def preset(name: str) -> SystemModel:
    try:
        config = PRESET_CONFIGS[name]
    except KeyError:
        known = ", ".join(sorted(PRESET_CONFIGS))
        raise ValueError(f"unknown system preset {name!r} (known: {known})") from None
    return build_system(config)


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


# A range of one resource's positions: (first, last, job_id, unit, is_claim).
_Range = tuple[int, int, int, int, bool]


def validate_allocation(
    system: SystemModel,
    held: Iterable[tuple[int, Iterable]],
    claims: Iterable[tuple[int, Iterable]],
) -> list[Violation]:
    """Check new claims against held allocations at one instant.

    ``held`` and ``claims`` are ``(job_id, allocation)`` pairs; an
    allocation's entries are read by their ``unit``, ``resource``,
    ``position`` and ``extent`` attributes.  Every entry is taken to hold
    its positions now, so no time enters the check.  Violations reported: a
    claimed range that names an unknown resource, has an extent below 1,
    leaves the position space or crosses a node boundary (if any claim
    does, only these are reported); one claimed unit spread over several
    nodes; and a claimed range that shares a position with another claimed
    range (even of the same unit) or with a held range.  ``held`` is
    assumed internally valid: only its ranges of claimed resources are read.

    Each claimed resource's ranges are sorted by first position, and each
    range is compared with the furthest-reaching range before it (a claim)
    or with the furthest-reaching claim before it (a held range), so a call
    costs O((H + C) log(H + C)) whatever the size of the system.
    """
    violations: list[Violation] = []
    ranges: dict[str, list[_Range]] = {}
    unit_nodes: dict[tuple[int, int], set[int]] = {}
    for job_id, allocation in claims:
        for entry in allocation:
            resource, position, extent = entry.resource, entry.position, entry.extent
            owner = system.owner.get(resource)
            last = position + extent - 1
            if owner is None:
                violations.append(
                    Violation("unknown-resource", f"job {job_id}: no resource {resource!r}")
                )
            elif extent < 1:
                violations.append(Violation("bad-extent", f"job {job_id}: extent {extent} < 1"))
            elif position < 1 or last > len(owner):
                violations.append(
                    Violation(
                        "out-of-range",
                        f"job {job_id} unit {entry.unit}: {resource} positions "
                        f"[{position},{last}] outside [1,{len(owner)}]",
                    )
                )
            elif owner[position - 1] != owner[last - 1]:
                violations.append(
                    Violation(
                        "node-span",
                        f"job {job_id} unit {entry.unit}: {resource} positions "
                        f"[{position},{last}] cross a node boundary",
                    )
                )
            else:
                ranges.setdefault(resource, []).append((position, last, job_id, entry.unit, True))
                unit_nodes.setdefault((job_id, entry.unit), set()).add(owner[position - 1])
    if violations:
        return violations

    for (job_id, unit), nodes in unit_nodes.items():
        if len(nodes) > 1:
            violations.append(
                Violation("unit-split", f"job {job_id} unit {unit} spans nodes {sorted(nodes)}")
            )
    if ranges:
        for job_id, allocation in held:
            for entry in allocation:
                claimed = ranges.get(entry.resource)
                if claimed is not None:
                    last = entry.position + entry.extent - 1
                    claimed.append((entry.position, last, job_id, entry.unit, False))
    for resource, resource_ranges in ranges.items():
        resource_ranges.sort()
        reach: _Range | None = None  # the furthest-reaching range so far
        claim_reach: _Range | None = None  # the furthest-reaching claim so far
        for current in resource_ranges:
            is_claim = current[4]
            before = reach if is_claim else claim_reach
            if before is not None and before[1] >= current[0]:
                claim, other = (current, before) if is_claim else (before, current)
                violations.append(
                    Violation(
                        "double-booking",
                        f"{resource} positions [{claim[0]},{claim[1]}] of job {claim[2]} "
                        f"unit {claim[3]} overlap job {other[2]} unit {other[3]}",
                    )
                )
            if reach is None or current[1] > reach[1]:
                reach = current
            if is_claim and (claim_reach is None or current[1] > claim_reach[1]):
                claim_reach = current
    return violations


# A second name for the one check, kept because bench/run.py:install_spans
# patches it by name; nothing calls it.
validate_mutual = validate_allocation
