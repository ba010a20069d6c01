"""Cluster geometry and the position-based allocation check."""

import random

import pytest

import oracles
from hpcdispatch.dispatch.instance import AllocationEntry as E
from hpcdispatch.system import (
    PRESET_CONFIGS,
    SystemModel,
    build_system,
    preset,
    validate_allocation,
)


def kinds(violations):
    return sorted({v.kind for v in violations})


# -- construction ---------------------------------------------------------------


def test_system_requires_nodes_and_resources():
    with pytest.raises(ValueError):
        SystemModel([])
    with pytest.raises(ValueError):
        SystemModel([{"core": 0}])
    with pytest.raises(ValueError):
        SystemModel([{"core": -1}])


def test_build_system_validates_groups():
    with pytest.raises(ValueError):
        build_system({"groups": []})
    with pytest.raises(ValueError):
        build_system({"groups": [{"count": 0, "cap": {"core": 1}}]})


def test_build_system_names_unknown_group_keys():
    with pytest.raises(ValueError, match=r"^system group 1: unknown keys caps, nodes$"):
        build_system({"groups": [{"nodes": 2, "caps": {"core": 16}}]})
    with pytest.raises(ValueError, match=r"^system group 2: unknown keys extra$"):
        build_system({"groups": [{"count": 1, "cap": {"core": 1}}, {"count": 1, "extra": 0}]})


def test_flattened_position_geometry():
    system = SystemModel([{"core": 2}, {"core": 3, "gpu": 1}], name="tiny")
    assert system.node_count == 2
    assert system.resources == ("core", "gpu")
    assert system.total_capacity == {"core": 5, "gpu": 1}
    assert system.owner["core"] == [1, 1, 2, 2, 2]
    assert system.owner["gpu"] == [2]
    assert system.blocks["core"] == [(1, 2, 1), (3, 5, 2)]
    assert system.node_span[(2, "core")] == (3, 5)
    assert (1, "gpu") not in system.node_span
    assert system.cap(1, "gpu") == 0


def test_span_filter_two_wide_runs():
    system = SystemModel([{"core": 2}, {"core": 2}])
    # Starts 1 and 3 keep a two-wide claim inside node 1 or node 2.
    assert system.span_filter("core", 2) == (1, 3, frozenset({2}))
    assert system.span_filter("core", 1) == (1, 4, frozenset())


def test_span_filter_no_window_signals_empty():
    system = SystemModel([{"core": 2}, {"core": 2}])
    lo, hi, holes = system.span_filter("core", 3)  # no block is three wide
    assert lo > hi and holes == frozenset()


def test_span_filter_skips_narrow_blocks():
    system = SystemModel([{"core": 3}, {"core": 1}, {"core": 1}, {"core": 4}])
    # Blocks [1,3] [4,4] [5,5] [6,9]: only nodes 1 and 4 hold a two-wide claim.
    assert system.span_filter("core", 2) == (1, 8, frozenset({3, 4, 5}))


def test_span_filter_is_memoized():
    system = SystemModel([{"core": 4, "gpu": 2}, {"core": 4, "gpu": 2}])
    assert system.span_filter("core", 2) is system.span_filter("core", 2)
    assert system.span_filter("gpu", 2) == (1, 3, frozenset({2}))
    assert system.span_filter("core", 2) == (1, 7, frozenset({4}))
    assert set(system._span_filters) == {("core", 2), ("gpu", 2)}


def test_position_lookups():
    system = SystemModel([{"core": 2}, {"core": 3}])
    assert system.position_to_node("core", 2) == 1
    assert system.position_to_node("core", 3) == 2
    with pytest.raises(ValueError):
        system.position_to_node("core", 0)
    with pytest.raises(ValueError):
        system.position_to_node("core", 6)
    with pytest.raises(ValueError):
        system.position_to_node("gpu", 1)


def test_to_config_round_trip_merges_equal_nodes():
    system = preset("eurora")
    config = system.to_config()
    assert config["name"] == "eurora"
    assert [g["count"] for g in config["groups"]] == [32, 32]
    rebuilt = build_system(config)
    assert rebuilt.caps == system.caps
    assert rebuilt.owner == system.owner


def test_node_classes_group_equal_nodes_across_groups():
    # kind A, then B, then A again, then one node with A's capacities in another order
    a, b = {"core": 8, "mem": 4}, {"core": 8, "gpu": 2}
    system = SystemModel([a, a, b, b, b, a, a, {"mem": 4, "core": 8}])
    assert system.node_classes == ((1, 2, 6, 7, 8), (3, 4, 5))


# -- presets ----------------------------------------------------------------------


def test_eurora_preset_geometry():
    system = preset("eurora")
    assert system.node_count == 64
    assert system.resources == ("core", "mem", "gpu", "mic")
    assert system.total_capacity == {"core": 1024, "mem": 1024, "gpu": 64, "mic": 64}
    # gpu positions come in two-wide per-node blocks on the first half
    assert system.owner["gpu"][:4] == [1, 1, 2, 2]
    assert system.owner["gpu"][-1] == 32
    assert system.owner["mic"][0] == 33
    assert system.node_span[(2, "core")] == (17, 32)
    assert system.node_classes == (tuple(range(1, 33)), tuple(range(33, 65)))


def test_kit_preset_geometry():
    system = preset("kit-forhlr2")
    assert system.node_count == 1173
    assert system.total_capacity["core"] == 24048
    assert system.total_capacity["gpu"] == 84
    # accelerators live on the 21 fat nodes at the end
    assert system.position_to_node("gpu", 1) == 1153
    assert system.node_classes == (tuple(range(1, 1153)), tuple(range(1153, 1174)))


def test_unknown_preset_lists_known_names():
    with pytest.raises(ValueError) as err:
        preset("summit")
    for name in PRESET_CONFIGS:
        assert name in str(err.value)


# -- the allocation check ------------------------------------------------------------


@pytest.fixture
def two_node_system():
    return SystemModel([{"core": 2, "gpu": 1}, {"core": 2, "gpu": 1}])


def test_clean_allocation_passes(two_node_system):
    claims = [(1, [E(1, "core", 1, 2), E(2, "core", 3, 2)])]
    assert validate_allocation(two_node_system, [], claims) == []
    assert validate_allocation(two_node_system, claims, []) == []


def test_unknown_resource_rejected(two_node_system):
    bad = [(1, [E(1, "ssd", 1, 1)])]
    assert kinds(validate_allocation(two_node_system, [], bad)) == ["unknown-resource"]


def test_bad_extent_rejected(two_node_system):
    bad = [(1, [E(1, "core", 1, 0)])]
    assert kinds(validate_allocation(two_node_system, [], bad)) == ["bad-extent"]


def test_out_of_range_positions_rejected(two_node_system):
    for position, extent in ((0, 1), (4, 2), (5, 1)):
        bad = [(1, [E(1, "core", position, extent)])]
        assert kinds(validate_allocation(two_node_system, [], bad)) == ["out-of-range"]


def test_node_boundary_crossing_rejected(two_node_system):
    bad = [(1, [E(1, "core", 2, 2)])]  # positions 2..3 sit on nodes 1 and 2
    assert kinds(validate_allocation(two_node_system, [], bad)) == ["node-span"]


def test_unit_split_across_nodes_rejected(two_node_system):
    bad = [(1, [E(1, "core", 1, 1), E(1, "gpu", 2, 1)])]  # node 1, then node 2
    assert kinds(validate_allocation(two_node_system, [], bad)) == ["unit-split"]


def test_double_booking_against_existing(two_node_system):
    held = [(1, [E(1, "core", 1, 2)])]
    overlapping = [(2, [E(1, "core", 2, 1)])]
    out = validate_allocation(two_node_system, held, overlapping)
    assert kinds(out) == ["double-booking"]
    assert "job 1" in str(out[0])


def test_double_booking_within_candidate(two_node_system):
    claims = [(1, [E(1, "core", 1, 1)]), (2, [E(1, "core", 1, 1)])]
    assert kinds(validate_allocation(two_node_system, [], claims)) == ["double-booking"]


def test_same_unit_may_hold_different_resources(two_node_system):
    claims = [(1, [E(1, "core", 1, 2), E(1, "gpu", 1, 1)])]
    assert validate_allocation(two_node_system, [], claims) == []


def test_same_unit_same_resource_self_overlap_rejected(two_node_system):
    claims = [(1, [E(1, "core", 1, 1), E(1, "core", 1, 1)])]
    assert kinds(validate_allocation(two_node_system, [], claims)) == ["double-booking"]


VALIDATOR_CASES = {
    "clean": ([(1, [E(1, "core", 1, 2), E(2, "core", 3, 2)])], []),
    "node-span": ([(1, [E(1, "core", 2, 2)])], ["node-span"]),
    "unit-split": ([(1, [E(1, "core", 1, 1), E(1, "gpu", 2, 1)])], ["unit-split"]),
    "cross-job double-booking": (
        [(1, [E(1, "core", 1, 1)]), (2, [E(1, "core", 1, 1)])],
        ["double-booking"],
    ),
    "same-unit self-overlap": ([(1, [E(1, "core", 1, 1), E(1, "core", 1, 1)])], ["double-booking"]),
}


@pytest.mark.parametrize("case", list(VALIDATOR_CASES))
def test_validators_agree(two_node_system, case):
    # The check and the pairwise oracle agree on each hand-made case.
    claims, expected = VALIDATOR_CASES[case]
    assert kinds(validate_allocation(two_node_system, [], claims)) == expected
    assert sorted(oracles.allocation_kinds(two_node_system, [], claims)) == expected


def random_entry(rng, system, unit):
    """A range on one node (or, now and then, a malformed one)."""
    roll = rng.random()
    if roll < 0.02:
        return E(unit, "ssd", 1, 1)
    if roll < 0.04:
        return E(unit, "core", rng.randint(1, 3), 0)
    resource = rng.choice(system.resources)
    space = system.total_capacity[resource]
    if roll < 0.08:  # may leave the position space or cross a node boundary
        position = rng.randint(0, space + 1)
        return E(unit, resource, position, rng.randint(1, 3))
    first, last, _ = rng.choice(system.blocks[resource])
    position = rng.randint(first, last)
    return E(unit, resource, position, rng.randint(1, last - position + 1))


def random_unit(rng, system, unit):
    """One unit's entries: mostly one range per resource on one node."""
    node = rng.randint(1, system.node_count)
    entries = []
    for resource in system.resources:
        if rng.random() < 0.2:
            entries.append(random_entry(rng, system, unit))  # any node: maybe a split
        elif system.cap(node, resource) and rng.random() < 0.7:
            first, last = system.node_span[(node, resource)]
            position = rng.randint(first, last)
            entries.append(E(unit, resource, position, rng.randint(1, last - position + 1)))
            if rng.random() < 0.1:  # a second range of the same resource
                entries.append(E(unit, resource, rng.randint(first, last), 1))
    return entries


def random_jobs(rng, system, count, first_id):
    return [
        (job_id, [e for unit in range(rng.randint(1, 2)) for e in random_unit(rng, system, unit)])
        for job_id in range(first_id, first_id + count)
    ]


def test_validator_matches_pairwise_oracle_on_random_cases():
    rng = random.Random(8)
    seen = set()
    for _ in range(3000):
        system = SystemModel(
            [
                {"core": rng.randint(1, 4), "gpu": rng.choice((0, 1, 2))}
                for _ in range(rng.randint(1, 4))
            ]
        )
        # Held jobs may overlap one another: the check assumes they do not
        # and compares only claims with everything else.
        held = random_jobs(rng, system, rng.randint(0, 4), 1)
        claims = random_jobs(rng, system, rng.randint(0, 3), 100)
        expected = oracles.allocation_kinds(system, held, claims)
        out = validate_allocation(system, held, claims)
        assert set(kinds(out)) == expected, (system.caps, held, claims)
        assert (out == []) == (not expected)
        seen.update(expected or {"clean"})
    assert seen == {
        "clean", "unknown-resource", "bad-extent", "out-of-range", "node-span", "unit-split",
        "double-booking",
    }


def test_mutual_sweep_scales_past_pairwise():
    # Many disjoint holds on one resource: the check must accept them all
    # and pinpoint the single overlapping range we inject.
    system = SystemModel([{"core": 64}])
    holds = [(j, [E(1, "core", 1 + j, 1)]) for j in range(60)]
    assert validate_allocation(system, [], holds) == []
    injected = [(99, [E(1, "core", 5, 1)])]
    for out in (
        validate_allocation(system, [], holds + injected),
        validate_allocation(system, holds, injected),
    ):
        assert kinds(out) == ["double-booking"]
        assert len(out) == 1
