"""Mapping arithmetic: folds, cluster placement, tiling, routing tables."""

import dataclasses
import math
import pathlib

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treefab import (
    FoldingStrategy,
    HardwareConfig,
    LayerConfig,
    LayerKind,
    MappingError,
    TileConfig,
    TileExceedsLayer,
    VnTooLarge,
    build_mapping,
    compute_folds,
    derive_output_dims,
    simulate_layer,
    validate_tile,
)
from treefab.config import (
    parse_hardware_config,
    parse_layer_config,
    parse_tile_config,
)
from treefab.fabric import ReductionNetwork, generate_dn_routes
from treefab.mapper import _number
from treefab.memory import random_layer_data
from treefab.reduction import clusters, plan_reduction

from common import (HW32, LATE_SYNTHETIC, TINY, VALIDATION_TILE, ints, layers,
                    tiles)
from wave_reference import fold_blocks


class TestFolds:
    def test_validation_tile_on_tiny(self):
        assert compute_folds(TINY, VALIDATION_TILE) == 6

    def test_full_filter_tile(self):
        tile = TileConfig(3, 3, 6, 1, 1, 1, 1, 1)
        assert compute_folds(TINY, tile) == 1

    def test_late_synthetic_channel_folding(self):
        assert compute_folds(LATE_SYNTHETIC, VALIDATION_TILE) == 20

    def test_ceiling_on_uneven_split(self):
        layer = LayerConfig(LayerKind.CONV, r=5, s=3, c=7, g=1, k=1, n=1,
                            x=5, y=5)
        tile = TileConfig(2, 3, 3)
        assert compute_folds(layer, tile) == math.ceil(5 / 2) * math.ceil(7 / 3)


def numbered(columns):
    """(ids, first) by Python tuples: each row's rank among the distinct
    rows, and each distinct row's first flat index."""
    rows = list(zip(*(np.ravel(column).tolist() for column in columns)))
    distinct = sorted(set(rows))
    rank = {row: i for i, row in enumerate(distinct)}
    return [rank[row] for row in rows], [rows.index(row) for row in distinct]


class TestNumber:
    @settings(max_examples=100, deadline=None)
    @given(shape=st.sampled_from([(1,), (9,), (3, 4), (2, 1, 5)]),
           width=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_ranks_rows_of_any_int64s(self, shape, width, seed):
        # the columns draw from a few values, so rows repeat and differ
        # in one column only, among them the int64 ends, negatives and
        # values past 2**32
        rng = np.random.default_rng(seed)
        pool = np.array([-2 ** 63, -2 ** 33 - 1, -1, 0, 1, 2 ** 32,
                         2 ** 63 - 1, *rng.integers(-2 ** 63, 2 ** 63 - 1,
                                                    2)])
        columns = [pool[rng.integers(0, len(pool) // (1 + i % 3), shape)]
                   for i in range(width)]
        ids, first = _number(columns)
        want_ids, want_first = numbered(columns)
        assert ids.shape == shape
        assert ids.ravel().tolist() == want_ids
        assert first.tolist() == want_first

    def test_rows_that_differ_in_the_last_column_only(self):
        ids, first = _number([np.array([5, 5, 5, -5]),
                              np.array([2, -2 ** 40, 2, 2 ** 40])])
        assert ids.tolist() == [2, 1, 2, 0]
        assert first.tolist() == [3, 1, 0]


class TestBuildMapping:
    def test_three_clusters_of_five(self):
        # vn_size 4 plus a forwarder per cluster when folding is active
        layer = LayerConfig(LayerKind.CONV, r=2, s=2, c=2, g=1, k=3, n=1,
                            x=3, y=3)
        tile = TileConfig(2, 2, 1, 1, 3, 1, 1, 1)
        hw = HardwareConfig(16, 4, 4)
        plan = build_mapping(hw, layer, tile)
        assert plan.folds == 2
        assert plan.vn_size == 4
        assert plan.real_vn_size == 5
        assert plan.n_vns_mapped == 3
        assignment = [(a["vn"], a["role"])
                      for a in plan.describe()["ms_assignment"]]
        used = [a for a in assignment if a[1] != "idle"]
        assert len(used) == 15
        for slot in range(3):
            assert assignment[slot * 5 + 4] == (slot, "forwarder")
            assert all(assignment[slot * 5 + e] == (slot, "multiplier")
                       for e in range(4))

    def test_single_large_cluster(self):
        layer = LayerConfig(LayerKind.CONV, r=6, s=6, c=2, g=1, k=1, n=1,
                            x=6, y=6)
        tile = TileConfig(6, 6, 1)
        plan = build_mapping(HardwareConfig(64, 4, 4), layer, tile)
        assert plan.real_vn_size == 37
        assert plan.n_vns_mapped == 1

    def test_oversized_cluster_rejected(self):
        # an 11x11 filter tile cannot fit 64 multipliers once folding
        # adds the forwarder
        layer = LayerConfig(LayerKind.CONV, r=11, s=11, c=3, g=1, k=2, n=1,
                            x=11, y=11)
        tile = TileConfig(11, 11, 1, 1, 2, 1, 1, 1)
        with pytest.raises(VnTooLarge):
            build_mapping(HardwareConfig(64, 4, 4), layer, tile)

    def test_no_forwarder_without_folding(self):
        tile = TileConfig(3, 3, 6, 1, 1, 1, 1, 1)
        plan = build_mapping(HardwareConfig(64, 4, 4), TINY, tile)
        assert not plan.has_forwarder
        assert plan.real_vn_size == plan.vn_size == 54

    def test_no_forwarder_under_ideal_strategy(self):
        hw = HardwareConfig(32, 4, 4, FoldingStrategy.IDEAL)
        plan = build_mapping(hw, TINY, VALIDATION_TILE)
        assert plan.folds == 6
        assert not plan.has_forwarder
        assert plan.real_vn_size == 9

    def test_schedule_covers_every_output_once(self):
        plan = build_mapping(HW32, TINY, VALIDATION_TILE)
        seen = [coord for batch in plan.schedule for coord in batch]
        ox, oy = derive_output_dims(TINY)
        assert len(seen) == len(set(seen)) == TINY.k * ox * oy
        assert all(len(batch) <= plan.n_vns_mapped for batch in plan.schedule)
        # built afresh on every iteration, in the same order
        assert [coord for batch in plan.schedule for coord in batch] == seen
        assert plan.describe()["batches"] == -(-len(seen)
                                               // plan.n_vns_mapped)

    def test_fold_blocks_cover_filter_volume(self):
        plan = build_mapping(HW32, TINY, VALIDATION_TILE)
        elems = [e for block in fold_blocks(plan) for e in block]
        assert len(elems) == len(set(elems)) == TINY.r * TINY.s * TINY.c
        assert len(fold_blocks(plan)) == plan.folds

    def test_describe_is_serializable(self):
        plan = build_mapping(HW32, TINY, VALIDATION_TILE)
        doc = plan.describe()
        assert yaml.safe_load(yaml.safe_dump(doc)) == doc

    def test_equal_and_hashable_after_a_simulation(self):
        # a mapping is a plain description: simulating one of two equal
        # builds, or describing it, leaves nothing behind on it
        first, second = (build_mapping(HW32, TINY, VALIDATION_TILE)
                         for _ in range(2))
        simulate_layer(HW32, TINY, VALIDATION_TILE,
                       *random_layer_data(TINY, seed=0))
        first.describe()
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.folds = 1


TESTS = pathlib.Path(__file__).parent
WORKLOADS = TESTS.parent / "perfbench" / "workloads"


class TestDescribeGoldens:
    """``describe()`` documents recorded before the leaf layout, the
    switch modes and the reduction plans became views derived on request."""

    def check(self, plan, name):
        want = yaml.safe_load((TESTS / name).read_text(encoding="utf-8"))
        assert plan.describe() == want

    def test_three_clusters_of_five(self):
        # criterion 3: clusters of 4 multipliers plus a forwarder
        layer = LayerConfig(LayerKind.CONV, r=2, s=2, c=2, g=1, k=3, n=1,
                            x=3, y=3)
        tile = TileConfig(2, 2, 1, 1, 3, 1, 1, 1)
        self.check(build_mapping(HardwareConfig(16, 4, 4), layer, tile),
                   "golden_describe_three_clusters.yaml")

    def test_wide_ideal(self):
        # the benchmark's wide-ideal mapping: 28 clusters of 9 on 256 MS
        hw, layer, tile = (
            parse((WORKLOADS / name).read_text(encoding="utf-8"))
            for parse, name in (
                (parse_hardware_config, "hw256-ideal.yaml"),
                (parse_layer_config, "wide-conv.yaml"),
                (parse_tile_config, "tile-wide.yaml")))
        self.check(build_mapping(hw, layer, tile),
                   "golden_describe_wide_ideal.yaml")


def loop_nest_fold_blocks(layer, tile):
    """Reference: the fold blocks as one hand-written loop nest."""
    blocks = []
    for c0 in range(0, layer.c, tile.t_c):
        for r0 in range(0, layer.r, tile.t_r):
            for s0 in range(0, layer.s, tile.t_s):
                blocks.append([
                    (c, r, s)
                    for c in range(c0, min(c0 + tile.t_c, layer.c))
                    for r in range(r0, min(r0 + tile.t_r, layer.r))
                    for s in range(s0, min(s0 + tile.t_s, layer.s))
                ])
    return blocks


def loop_nest_schedule(layer, tile, n_vns_mapped):
    """Reference: the output batches as one hand-written loop nest."""
    ox, oy = derive_output_dims(layer)
    batches = []
    for n0 in range(0, layer.n, tile.t_n):
        for g0 in range(0, layer.g, tile.t_g):
            for k0 in range(0, layer.k, tile.t_k):
                for x0 in range(0, ox, tile.t_x):
                    for y0 in range(0, oy, tile.t_y):
                        step = [
                            (n, g, k, x, y)
                            for n in range(n0, min(n0 + tile.t_n, layer.n))
                            for g in range(g0, min(g0 + tile.t_g, layer.g))
                            for k in range(k0, min(k0 + tile.t_k, layer.k))
                            for x in range(x0, min(x0 + tile.t_x, ox))
                            for y in range(y0, min(y0 + tile.t_y, oy))
                        ]
                        for i in range(0, len(step), n_vns_mapped):
                            batches.append(step[i:i + n_vns_mapped])
    return batches


def bounds_first_offender(layer, tile):
    """Reference: the first tile axis larger than the layer, or None."""
    ox, oy = derive_output_dims(layer)
    bounds = [
        ("R", tile.t_r, layer.r), ("S", tile.t_s, layer.s),
        ("C", tile.t_c, layer.c), ("G", tile.t_g, layer.g),
        ("K", tile.t_k, layer.k), ("N", tile.t_n, layer.n),
        ("X'", tile.t_x, ox), ("Y'", tile.t_y, oy),
    ]
    return next((name for name, t, d in bounds if t > d), None)


class TestTilingMatchesLoopNests:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_schedule_and_fold_blocks(self, data):
        layer = data.draw(layers())
        tile = tiles(ints(data.draw), layer)
        hw = HardwareConfig(data.draw(st.sampled_from([8, 16, 64, 128])), 2,
                            2, data.draw(st.sampled_from(FoldingStrategy)))
        try:
            plan = build_mapping(hw, layer, tile)
        except MappingError:
            assume(False)
        assert list(plan.schedule) == loop_nest_schedule(
            layer, tile, plan.n_vns_mapped)
        assert fold_blocks(plan) == loop_nest_fold_blocks(layer, tile)
        assert len(fold_blocks(plan)) == plan.folds

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_validate_tile_names_the_first_offender(self, data):
        layer = data.draw(layers())
        tile = tiles(ints(data.draw), layer, overshoot=2)
        want = bounds_first_offender(layer, tile)
        if want is None:
            validate_tile(layer, tile)
            return
        with pytest.raises(TileExceedsLayer) as exc:
            validate_tile(layer, tile)
        assert exc.value.dimension == want


class TestUtilization:
    def test_single_cluster_of_37(self):
        layer = LayerConfig(LayerKind.CONV, r=6, s=6, c=2, g=1, k=1, n=1,
                            x=6, y=6)
        plan = build_mapping(HardwareConfig(64, 4, 4), layer,
                             TileConfig(6, 6, 1))
        assert plan.n_vns_mapped * plan.real_vn_size == 37
        assert plan.theoretical_utilization == pytest.approx(37 / 64)

    def test_full_fabric(self):
        layer = LayerConfig(LayerKind.CONV, r=4, s=4, c=2, g=1, k=1, n=1,
                            x=4, y=4)
        hw = HardwareConfig(32, 4, 4)
        plan = build_mapping(hw, layer, TileConfig(4, 4, 2))
        assert plan.theoretical_utilization == 1.0


class TestDnRoutes:
    def test_broadcast_asserts_all_bits(self):
        routes = generate_dn_routes(8, 1, set(range(8)))
        assert len(routes) == 7  # every switch of the single tree
        assert all(bits == (True, True) for bits in routes.values())

    def test_unicast_path(self):
        routes = generate_dn_routes(8, 1, {0})
        assert len(routes) == 3  # one switch per level on the path
        assert all(bits == (True, False) for bits in routes.values())

    def test_multicast_cover_delivers_exactly_dest_set(self):
        import itertools
        for num_ms, dn_bw in ((16, 2), (16, 4), (32, 4)):
            per_tree = num_ms // dn_bw
            for dests in itertools.chain(
                ({0, 1}, {0, num_ms - 1}, set(range(0, num_ms, 3))),
            ):
                routes = generate_dn_routes(num_ms, dn_bw, dests)
                # walk the asserted bits down each sub-tree
                reached = set()
                for tree in range(dn_bw):
                    if per_tree == 1:
                        if tree in dests:
                            reached.add(tree)
                        continue
                    frontier = [(0, 0)] if (tree, 0, 0) in routes else []
                    depth_max = per_tree.bit_length() - 1
                    while frontier:
                        depth, idx = frontier.pop()
                        left, right = routes[(tree, depth, idx)]
                        for child, taken in ((2 * idx, left),
                                             (2 * idx + 1, right)):
                            if not taken:
                                continue
                            if depth + 1 == depth_max:
                                reached.add(tree * per_tree + child)
                            else:
                                frontier.append((depth + 1, child))
                assert reached == dests

    def test_single_leaf_subtrees_have_no_switches(self):
        assert generate_dn_routes(8, 8, {0, 5}) == {}


class TestRnConfig:
    def test_reduces_each_cluster(self):
        plan = build_mapping(HW32, TINY, VALIDATION_TILE)
        leaves = clusters(HW32.num_ms, plan.real_vn_size, plan.n_vns_mapped)
        rn = plan_reduction(leaves)
        values = [i + 1 if leaves[i] is not None else 0
                  for i in range(len(leaves))]
        sums = ReductionNetwork(HW32.num_ms).replay(rn,
                                                    dict(enumerate(values)))
        for vn in range(plan.n_vns_mapped):
            want = sum(values[i] for i, v in enumerate(leaves) if v == vn)
            assert sums[vn] == want

    def test_partial_batch_occupancy(self):
        plan = build_mapping(HW32, TINY, VALIDATION_TILE)
        rn = plan_reduction(clusters(HW32.num_ms, plan.real_vn_size, 2))
        assert set(rn.egress) == {0, 1}
