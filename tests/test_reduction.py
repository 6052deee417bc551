"""Reduction-tree planning: sums, modes, latencies, port discipline.

The planner is checked against a brute-force per-cluster sum for many
random contiguous partitions, including idle runs and runs of
single-leaf clusters, and for every partition of 8 leaves; every
cluster layout of 2 to 128 leaves, every partition of 8 leaves, seeded
random partitions of 16 to 128 leaves and five plans besides are pinned
op for op by digest.
"""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treefab import ValidationError, plan_reduction
from treefab.fabric import ReductionNetwork
from treefab.reduction import ASMode, clusters, switch_modes

from common import contiguous_partition, port_uses


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
    uses = port_uses(plan)
    assert len(uses) == len(set(uses))
    return plan


def every_partition(num_leaves):
    """Every contiguous partition of the leaves, idle leaves anywhere, with
    clusters named in leaf order: each leaf is idle, opens the next
    cluster, or joins the cluster of a busy leaf before it."""
    partitions = [[]]
    for _ in range(num_leaves):
        partitions = [
            p + [vn] for p in partitions
            for vn in dict.fromkeys((None, len(set(p) - {None}),
                                     p[-1] if p else None))]
    return [p for p in partitions if p.count(None) < num_leaves]


def layouts(num_leaves):
    """Every ``clusters(num_leaves, width, count)`` that fits."""
    return [clusters(num_leaves, width, count)
            for width in range(1, num_leaves + 1)
            for count in range(1, num_leaves // width + 1)]


def random_partitions(num_leaves, count, seed):
    """``count`` contiguous partitions of the leaves drawn by
    ``random.Random(seed)``: runs of clusters and of idle leaves in any
    order, a quarter of them idle.  Each partition's runs are up to
    ``num_leaves >> k`` leaves long, for its own random ``k``, so some
    hold a few long clusters and some many single leaves."""
    rng = random.Random(seed)
    partitions = []
    for _ in range(count):
        vn_of_leaf, vn = [], 0
        longest = num_leaves >> rng.randrange(num_leaves.bit_length())
        while len(vn_of_leaf) < num_leaves:
            run = min(rng.randint(1, longest), num_leaves - len(vn_of_leaf))
            if rng.random() < 0.25:
                vn_of_leaf += [None] * run
            else:
                vn_of_leaf += [vn] * run
                vn += 1
        partitions.append(vn_of_leaf)
    return partitions


def check_plans(partitions):
    """Check every partition's plan: the replayed sums, one value per port
    per cycle, and exactly one egress per cluster.  Returns the count."""
    rng = np.random.default_rng(0)
    for vn_of_leaf in partitions:
        plan = check_partition(vn_of_leaf, rng)
        egresses = sorted(op.vn for op in plan.ops if op.route == "egress")
        assert egresses == sorted({vn for vn in vn_of_leaf if vn is not None})
    return len(partitions)


class TestKnownShapes:
    def test_three_five_split(self):
        # clusters of 3 and 5 over 8 leaves need one lateral hop
        plan = plan_reduction([0, 0, 0, 1, 1, 1, 1, 1])
        sums = replay(plan, list(range(1, 9)))
        assert sums == {0: 6, 1: 30}
        assert any(op.route == "aug" for op in plan.ops)
        assert any(len(op.sources) == 3 for op in plan.ops)
        assert ASMode.ADD_3_1 in switch_modes(plan).values()

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
        assert plan.egress[0] == (plan.as_index(3, 0), 3)  # three levels
        assert all(m in (ASMode.ADD_2_1,)
                   for m in switch_modes(plan).values())

    def test_two_even_clusters(self):
        plan = plan_reduction([0, 0, 0, 0, 1, 1, 1, 1])
        assert replay(plan, [1] * 8) == {0: 4, 1: 4}
        assert switch_modes(plan)[(1, 0)] == ASMode.ADD_2_1
        assert switch_modes(plan)[(3, 0)] == ASMode.IDLE  # root never used

    def test_single_leaf_cluster(self):
        plan = plan_reduction([0, None])
        assert replay(plan, [7, 0]) == {0: 7}

    def test_adjacent_singles_serialize_on_egress(self):
        plan = plan_reduction([0, 1, 2, 3])
        assert replay(plan, [1, 2, 3, 4]) == {0: 1, 1: 2, 2: 3, 3: 4}
        for node in (0, 1):
            times = sorted(
                t for lvl, n, port, t in port_uses(plan)
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

    def test_clusters_from_leaf_zero(self):
        # two clusters of three leaves, then idle leaves
        assert clusters(8, 3, 2) == [0, 0, 0, 1, 1, 1, None, None]
        plan = plan_reduction(clusters(8, 3, 2))
        assert replay(plan, list(range(1, 9))) == {0: 6, 1: 15}


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
        # runs of clusters and of idle leaves, in any order and length
        num_leaves = data.draw(st.sampled_from([8, 16, 32]))
        vn_of_leaf = []
        vn = 0
        while len(vn_of_leaf) < num_leaves:
            size = data.draw(st.integers(1, num_leaves - len(vn_of_leaf)))
            if data.draw(st.booleans()):
                vn_of_leaf.extend([None] * size)
            else:
                vn_of_leaf.extend([vn] * size)
                vn += 1
        check_partition(vn_of_leaf, np.random.default_rng(0))


class TestExhaustive:
    def test_every_small_partition_and_layout(self):
        # all 1,596 partitions of 8 leaves, idle leaves anywhere, and all
        # 1,125 cluster layouts of 2 to 128 leaves; CI runs the 1,466
        # layouts of 256 leaves
        assert check_plans(every_partition(8)) == 1596
        assert sum(check_plans(layouts(2 ** k)) for k in range(1, 8)) == 1125


def plan_digest(plan) -> str:
    """sha256 of a plan's ops, in order and field by field, its egress
    items and its additions per wave."""
    ops = [(op.index, op.level, op.node, op.vn, op.sources, op.route,
            op.time) for op in plan.ops]
    return hashlib.sha256(repr(
        (ops, sorted(plan.egress.items()), plan.adds_per_wave)).encode()
    ).hexdigest()


def plans_digest(partitions) -> str:
    """sha256 of the plan digests of ``partitions``, concatenated in
    order."""
    return hashlib.sha256("".join(
        plan_digest(plan_reduction(vn_of_leaf))
        for vn_of_leaf in partitions).encode()).hexdigest()


def layouts_digest(sizes) -> str:
    """``plans_digest`` of every layout of each leaf count in ``sizes``,
    in ``layouts`` order."""
    return plans_digest(vn_of_leaf for n in sizes for vn_of_leaf in layouts(n))


class TestPinnedPlans:
    # The sums, ports and egress counts above leave an op's timing, route
    # and order free: a plan that always sends left, or charges no lateral
    # hop, passes them.  These digests pin plans op for op: every layout
    # the engine can plan on up to 128 leaves (CI pins the 1,466 of 256),
    # every partition of 8 leaves, 1,000 seeded partitions of 16 to 128
    # leaves with idle runs anywhere (CI pins 500 of 256), and five plans
    # whose op and addition counts are spelled out.
    def test_every_layout_op_for_op(self):
        assert layouts_digest(2 ** k for k in range(1, 8)) == (
            "f4c4d9ed8274f9ce318e786f97df0b28a7974bf6f9965b5a79d0eda59c8aabb7")

    def test_every_partition_op_for_op(self):
        assert plans_digest(every_partition(8)) == (
            "2d8f5b23816a186a0fd018f192086dfbee976d0b745afdcbc1c15ce678dcd03e")

    def test_random_partitions_op_for_op(self):
        partitions = [vn_of_leaf for n in (16, 32, 64, 128)
                      for vn_of_leaf in random_partitions(n, 250, n)]
        assert check_plans(partitions) == 1000
        assert plans_digest(partitions) == (
            "5932512f61b0b686bf380dd726aef7ef524b69712a034b64f495f3d89d39a7a1")

    @pytest.mark.parametrize("layout, ops, adds, digest", [
        ((256, 9, 28), 259, 224, "abb298a892157cdc954b1c2c5a11c59c"
                                 "7bcd5dfa89c8fbc16e076725ec4914d8"),
        ((256, 9, 4), 37, 32, "e2b97fa2f13429a94b3e56fc55177cb9"
                              "2b4c84a2b19dd4405961d8c10058fc95"),
        ((32, 10, 3), 30, 27, "c553d1e155258fbec705ef8e4095b89c"
                              "a199c925357b9b48f034f13650c9be58"),
        ((64, 3, 21), 53, 42, "f5ef21a5d137648a8328bb2b2ff85543"
                              "ded6541abb6c10e41b8103a03a81da3a"),
        ((256, 1, 256), 256, 0, "178e4d27a31620334ea8089b6168bc3d"
                                "8e85bca059c6c0a7b1f840bb8e421c6e"),
    ])
    def test_plan_op_for_op(self, layout, ops, adds, digest):
        plan = plan_reduction(clusters(*layout))
        assert (len(plan.ops), plan.adds_per_wave) == (ops, adds)
        assert plan_digest(plan) == digest
