"""Reduction-tree planning: sums, modes, latencies, port discipline.

The planner is checked against a brute-force per-cluster sum for many
random contiguous partitions, including idle tails and runs of
single-leaf clusters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treefab import ValidationError, plan_reduction
from treefab.fabric import ReductionNetwork
from treefab.reduction import ASMode

from common import contiguous_partition


def replay(plan, values):
    """Per-cluster sums of one replay of the plan on ``values``."""
    return ReductionNetwork(len(values)).replay(plan, dict(enumerate(values)))


def brute_sums(vn_of_leaf, values):
    sums = {}
    for leaf, vn in enumerate(vn_of_leaf):
        if vn is not None:
            sums[vn] = sums.get(vn, 0) + values[leaf]
    return sums


def check_partition(vn_of_leaf, rng):
    values = [int(v) for v in rng.integers(-50, 51, size=len(vn_of_leaf))]
    plan = plan_reduction(vn_of_leaf)
    assert replay(plan, values) == brute_sums(vn_of_leaf, values)
    # a port may serve several clusters in a wave but only one per cycle
    for users in plan.port_uses.values():
        cycles = [t for _, t in users]
        assert len(cycles) == len(set(cycles))
    return plan


class TestKnownShapes:
    def test_three_five_split(self):
        # clusters of 3 and 5 over 8 leaves need one lateral hop
        plan = plan_reduction([0, 0, 0, 1, 1, 1, 1, 1])
        sums = replay(plan, list(range(1, 9)))
        assert sums == {0: 6, 1: 30}
        assert any(op.route == "aug" for op in plan.ops)
        assert any(len(op.sources) == 3 for op in plan.ops)
        assert ASMode.ADD_3_1 in plan.modes.values()

    def test_quad_cluster(self):
        plan = plan_reduction([0, 0, 0, 0, None, None, None, None])
        sums = replay(plan, [1, 2, 3, 4, 0, 0, 0, 0])
        assert sums == {0: 10}
        as_index, time = plan.egress[0]
        assert time == 2  # two tree levels
        assert as_index == plan.as_index(2, 0)

    def test_full_tree(self):
        plan = plan_reduction([0] * 8)
        assert replay(plan, list(range(1, 9))) == {0: 36}
        assert plan.latency[0] == 3
        assert plan.egress[0][0] == plan.as_index(3, 0)
        assert all(m in (ASMode.ADD_2_1,) for m in plan.modes.values())

    def test_two_even_clusters(self):
        plan = plan_reduction([0, 0, 0, 0, 1, 1, 1, 1])
        assert replay(plan, [1] * 8) == {0: 4, 1: 4}
        assert plan.modes[(1, 0)] == ASMode.ADD_2_1
        assert plan.modes[(3, 0)] == ASMode.IDLE  # root never used

    def test_single_leaf_cluster(self):
        plan = plan_reduction([0, None])
        assert replay(plan, [7, 0]) == {0: 7}

    def test_adjacent_singles_serialize_on_egress(self):
        plan = plan_reduction([0, 1, 2, 3])
        assert replay(plan, [1, 2, 3, 4]) == {0: 1, 1: 2, 2: 3, 3: 4}
        for node in (0, 1):
            times = sorted(
                t for (lvl, n, port), users in plan.port_uses.items()
                for _, t in users
                if lvl == 1 and n == node and port == "egress"
            )
            assert times == [times[0], times[0] + 1]

    def test_level_timing(self):
        # every op at level l completes no earlier than cycle l
        plan = plan_reduction([0, 0, 1, 1, 1, 1, 2, 2])
        for op in plan.ops:
            assert op.time >= op.level

    def test_adds_per_wave(self):
        plan = plan_reduction([0, 0, 0, 1, 1, 2, 2, 2])
        assert plan.adds_per_wave == sum(len(op.sources) - 1
                                         for op in plan.ops)
        assert plan.adds_per_wave == 5  # (3-1) + (2-1) + (3-1)


class TestValidation:
    def test_non_contiguous_rejected(self):
        with pytest.raises(ValidationError):
            plan_reduction([0, 1, 0, 1])

    def test_leaf_count_must_be_power_of_two(self):
        with pytest.raises(ValidationError):
            plan_reduction([0, 0, 0])


class TestRandomPartitions:
    @pytest.mark.parametrize("num_leaves", [8, 16, 32, 64])
    def test_sums_match_brute_force(self, num_leaves):
        rng = np.random.default_rng(num_leaves)
        for _ in range(150):
            check_partition(contiguous_partition(num_leaves, rng), rng)

    def test_dense_single_leaf_clusters(self):
        rng = np.random.default_rng(99)
        for num_leaves in (8, 16, 32):
            check_partition(list(range(num_leaves)), rng)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_arbitrary_contiguous_partitions(self, data):
        num_leaves = data.draw(st.sampled_from([8, 16, 32]))
        sizes = []
        remaining = num_leaves
        while remaining:
            size = data.draw(st.integers(1, remaining))
            sizes.append(size)
            remaining -= size
        vn_of_leaf = []
        for vn, size in enumerate(sizes):
            vn_of_leaf.extend([vn] * size)
        check_partition(vn_of_leaf, np.random.default_rng(0))
