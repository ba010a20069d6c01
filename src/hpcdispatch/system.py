"""Cluster description and the position-based allocation check.

Each resource type has one flat, 1-based position space obtained by
concatenating the per-node capacities in node order: a node with capacity c
for resource r owns c consecutive positions of r's space.  An allocation is
a set of contiguous position ranges, all held at the same instant;
``validate_allocation`` checks new claims against held ranges by sorting
each resource's claims and bisecting them once per held range, independent
of any solver machinery.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from hpcdispatch.kernel.core import NodeBlocks
from hpcdispatch.workload import checked_int


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
        # position p; blocks[r] lists (first, last, node) spans in node order,
        # from which start_windows derives the position domains.
        self.total_capacity: dict[str, int] = {}
        self.owner: dict[str, list[int]] = {}
        self.blocks: dict[str, NodeBlocks] = {}
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
            self.blocks[resource] = NodeBlocks(blocks)
            self.total_capacity[resource] = len(owner)
        self._start_windows: dict[tuple[str, int], NodeBlocks] = {}

    def cap(self, node: int, resource: str) -> int:
        return self.caps[node - 1].get(resource, 0)

    def start_windows(self, resource: str, q: int) -> NodeBlocks:
        """Where a q-wide claim of ``resource`` may start and stay on one node.

        One (first, last - q + 1, node) window per node block at least q
        wide; empty if no block is.  Memoized per (resource, q), so every
        position variable of one claim width shares one object.
        """
        key = (resource, q)
        windows = self._start_windows.get(key)
        if windows is None:
            windows = self._start_windows[key] = NodeBlocks(
                (first, last - q + 1, node)
                for first, last, node in self.blocks[resource]
                if last - first + 1 >= q
            )
        return windows

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
    numbered 1..N in group order.  An unknown key, at the top or in a
    group, is an error, and so is a count or capacity that is not an
    integer (``workload.checked_int``).
    """
    groups = config.get("groups") if isinstance(config, dict) else None
    if not groups or not isinstance(groups, list):
        raise ValueError("system config needs a non-empty 'groups' list")
    unknown = sorted(set(config) - {"name", "groups"})
    if unknown:
        raise ValueError(f"system config: unknown keys {', '.join(map(str, unknown))}")
    node_caps: list[dict[str, int]] = []
    for number, group in enumerate(groups, 1):
        if not isinstance(group, dict):
            raise ValueError(f"system group {number}: must be an object")
        unknown = sorted(set(group) - {"count", "cap"})
        if unknown:
            raise ValueError(f"system group {number}: unknown keys {', '.join(map(str, unknown))}")
        cap = group.get("cap", {})
        if not isinstance(cap, dict):
            raise ValueError(f"system group {number}: cap must be an object")
        try:
            count = checked_int("count", group.get("count", 0), least=1)
            caps = {str(r): checked_int(f"cap {r!r}", c) for r, c in cap.items()}
        except ValueError as exc:
            raise ValueError(f"system group {number}: {exc}") from None
        node_caps.extend(dict(caps) for _ in range(count))
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


# A claimed range of one resource's positions: (first, last, job_id, unit).
_Claim = tuple[int, int, int, int]


def _double_booking(resource: str, claim: _Claim, job_id: int, unit: int) -> Violation:
    return Violation(
        "double-booking",
        f"{resource} positions [{claim[0]},{claim[1]}] of job {claim[2]} "
        f"unit {claim[3]} overlap job {job_id} unit {unit}",
    )


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

    Only the claims are sorted, per resource by first position.  Each claim
    is compared with the furthest-reaching claim before it, which also
    records, for every prefix of the sorted claims, the one reaching
    furthest.  Each held range then bisects the claims' first positions for
    those starting no later than its last position: it meets some claim
    exactly when the furthest-reaching of them reaches its first position.
    So one double-booking is reported per claim that meets an earlier
    claim, and one per held range that meets any claim, and a call costs
    O(C log C + H log C) for C claimed and H held ranges, whatever the size
    of the system.  The simulator's decision check passes as held only the
    running jobs on the nodes its claims touch, so H counts their ranges,
    not every running job's.
    """
    violations: list[Violation] = []
    claimed: dict[str, list[_Claim]] = {}
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
                claimed.setdefault(resource, []).append((position, last, job_id, entry.unit))
                unit_nodes.setdefault((job_id, entry.unit), set()).add(owner[position - 1])
    if violations:
        return violations

    for (job_id, unit), nodes in unit_nodes.items():
        if len(nodes) > 1:
            violations.append(
                Violation("unit-split", f"job {job_id} unit {unit} spans nodes {sorted(nodes)}")
            )
    # Per claimed resource: the sorted claims' first positions, and for each
    # prefix of them the claim reaching furthest.
    sweeps: dict[str, tuple[list[int], list[_Claim]]] = {}
    for resource, ranges in claimed.items():
        ranges.sort()
        reaches: list[_Claim] = []
        reach: _Claim | None = None
        for claim in ranges:
            if reach is not None and reach[1] >= claim[0]:
                violations.append(_double_booking(resource, claim, reach[2], reach[3]))
            if reach is None or claim[1] > reach[1]:
                reach = claim
            reaches.append(reach)
        sweeps[resource] = ([claim[0] for claim in ranges], reaches)
    if sweeps:
        for job_id, allocation in held:
            for entry in allocation:
                sweep = sweeps.get(entry.resource)
                if sweep is None:
                    continue
                firsts, reaches = sweep
                k = bisect_right(firsts, entry.position + entry.extent - 1)
                if k and reaches[k - 1][1] >= entry.position:
                    violations.append(
                        _double_booking(entry.resource, reaches[k - 1], job_id, entry.unit)
                    )
    return violations


# A second name for the one check, kept because bench/run.py:install_spans
# patches it by name; nothing calls it.
validate_mutual = validate_allocation
