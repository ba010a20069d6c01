"""Cluster description and the position-based allocation validator.

Each resource type has one flat, 1-based position space obtained by
concatenating the per-node capacities in node order: a node with capacity c
for resource r owns c consecutive positions of r's space.  An allocation is
a set of contiguous position ranges with time extents; the validator checks
them with plain interval arithmetic, independent of any solver machinery.
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
class ResourceUse:
    """One unit's hold on a contiguous position range for one resource."""

    job_id: int
    unit: int
    resource: str
    position: int
    extent: int
    t_start: int
    t_end: int  # exclusive


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


def _span_violations(system: SystemModel, use: ResourceUse) -> list[Violation]:
    out = []
    owner = system.owner.get(use.resource)
    if owner is None:
        return [Violation("unknown-resource", f"job {use.job_id}: no resource {use.resource!r}")]
    if use.extent < 1:
        return [Violation("bad-extent", f"job {use.job_id}: extent {use.extent} < 1")]
    last = use.position + use.extent - 1
    if use.position < 1 or last > len(owner):
        return [
            Violation(
                "out-of-range",
                f"job {use.job_id} unit {use.unit}: {use.resource} positions "
                f"[{use.position},{last}] outside [1,{len(owner)}]",
            )
        ]
    first_node = owner[use.position - 1]
    if owner[last - 1] != first_node:
        out.append(
            Violation(
                "node-span",
                f"job {use.job_id} unit {use.unit}: {use.resource} positions "
                f"[{use.position},{last}] cross a node boundary",
            )
        )
    return out


def _overlap(a: ResourceUse, b: ResourceUse) -> bool:
    if a.resource != b.resource:
        return False
    if a.t_start >= b.t_end or b.t_start >= a.t_end:
        return False
    return a.position < b.position + b.extent and b.position < a.position + a.extent


def validate_allocation(
    system: SystemModel,
    existing: Iterable[ResourceUse],
    candidate: Iterable[ResourceUse],
) -> list[Violation]:
    """Check a candidate set of uses against already-accepted ones.

    Violations reported: a position range crossing a node boundary, the same
    position held twice at overlapping times (even by one unit), and one
    unit's ranges spread over different nodes.  ``existing`` is assumed
    internally valid; it is only checked for conflicts with the candidate.
    """
    existing = list(existing)
    candidate = list(candidate)
    violations: list[Violation] = []
    for use in candidate:
        violations.extend(_span_violations(system, use))
    if violations:
        return violations

    by_unit: dict[tuple[int, int], list[ResourceUse]] = {}
    for use in candidate:
        by_unit.setdefault((use.job_id, use.unit), []).append(use)
    for (job_id, unit), uses in by_unit.items():
        nodes = {system.position_to_node(u.resource, u.position) for u in uses}
        if len(nodes) > 1:
            violations.append(
                Violation(
                    "unit-split",
                    f"job {job_id} unit {unit} spans nodes {sorted(nodes)}",
                )
            )

    for i, use in enumerate(candidate):
        for other in candidate[i + 1 :]:
            if _overlap(use, other):
                violations.append(_booking_violation(use, other))
        for other in existing:
            if _overlap(use, other):
                violations.append(_booking_violation(use, other))
    return violations


def _booking_violation(a: ResourceUse, b: ResourceUse) -> Violation:
    return Violation(
        "double-booking",
        f"{a.resource} positions [{a.position},{a.position + a.extent - 1}] of "
        f"job {a.job_id} unit {a.unit} overlap job {b.job_id} unit {b.unit} "
        f"during [{max(a.t_start, b.t_start)},{min(a.t_end, b.t_end)})",
    )


def validate_mutual(system: SystemModel, uses: Sequence[ResourceUse]) -> list[Violation]:
    """Full pairwise validation of one set (position-axis sweep per resource)."""
    violations: list[Violation] = []
    for use in uses:
        violations.extend(_span_violations(system, use))
    if violations:
        return violations
    by_resource: dict[str, list[ResourceUse]] = {}
    for use in uses:
        by_resource.setdefault(use.resource, []).append(use)
    for resource_uses in by_resource.values():
        events: list[tuple[int, int, int]] = []
        for idx, use in enumerate(resource_uses):
            events.append((use.position, 1, idx))
            events.append((use.position + use.extent, 0, idx))
        events.sort()
        active: set[int] = set()
        for _, is_open, idx in events:
            if not is_open:
                active.discard(idx)
                continue
            use = resource_uses[idx]
            for other_idx in active:
                other = resource_uses[other_idx]
                if not (use.t_start >= other.t_end or other.t_start >= use.t_end):
                    violations.append(_booking_violation(use, other))
            active.add(idx)
    by_unit: dict[tuple[int, int], set[int]] = {}
    for use in uses:
        node = system.position_to_node(use.resource, use.position)
        by_unit.setdefault((use.job_id, use.unit), set()).add(node)
    for (job_id, unit), nodes in by_unit.items():
        if len(nodes) > 1:
            violations.append(
                Violation("unit-split", f"job {job_id} unit {unit} spans nodes {sorted(nodes)}")
            )
    return violations
