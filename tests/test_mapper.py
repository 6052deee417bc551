"""Mapping arithmetic: folds, cluster placement, tiling, routing tables."""

import math

import pytest
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
    theoretical_utilization,
    validate_tile,
)
from treefab.fabric import ReductionNetwork, generate_dn_routes

from common import HW32, LATE_SYNTHETIC, TINY, VALIDATION_TILE


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
        assignment = plan.ms_assignment()
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
        elems = [e for block in plan.fold_blocks for e in block]
        assert len(elems) == len(set(elems)) == TINY.r * TINY.s * TINY.c
        assert len(list(plan.fold_blocks)) == plan.folds

    def test_describe_is_serializable(self):
        import yaml
        plan = build_mapping(HW32, TINY, VALIDATION_TILE)
        doc = plan.describe()
        assert yaml.safe_load(yaml.safe_dump(doc)) == doc


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


@st.composite
def layers(draw):
    r, s = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stride, padding = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    x = r - 2 * padding + stride * draw(st.integers(0, 3))
    y = s - 2 * padding + stride * draw(st.integers(0, 3))
    assume(x >= 1 and y >= 1)
    return LayerConfig(LayerKind.CONV, r=r, s=s, c=draw(st.integers(1, 5)),
                       g=draw(st.integers(1, 3)), k=draw(st.integers(1, 4)),
                       n=draw(st.integers(1, 2)), x=x, y=y, stride=stride,
                       padding=padding)


def tiles(draw, layer, overshoot=0):
    ox, oy = derive_output_dims(layer)
    return TileConfig(*(draw(st.integers(1, d + overshoot)) for d in (
        layer.r, layer.s, layer.c, layer.g, layer.k, layer.n, ox, oy)))


class TestTilingMatchesLoopNests:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_schedule_and_fold_blocks(self, data):
        layer = data.draw(layers())
        tile = tiles(data.draw, layer)
        hw = HardwareConfig(data.draw(st.sampled_from([8, 16, 64, 128])), 2,
                            2, data.draw(st.sampled_from(FoldingStrategy)))
        try:
            plan = build_mapping(hw, layer, tile)
        except MappingError:
            assume(False)
        assert list(plan.schedule) == loop_nest_schedule(
            layer, tile, plan.n_vns_mapped)
        assert list(plan.fold_blocks) == loop_nest_fold_blocks(layer, tile)
        assert len(list(plan.fold_blocks)) == plan.folds

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_validate_tile_names_the_first_offender(self, data):
        layer = data.draw(layers())
        tile = tiles(data.draw, layer, overshoot=2)
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
        util = theoretical_utilization(HardwareConfig(64, 4, 4), plan)
        assert util.mapped_ms == 37
        assert util.fraction == pytest.approx(37 / 64)

    def test_full_fabric(self):
        layer = LayerConfig(LayerKind.CONV, r=4, s=4, c=2, g=1, k=1, n=1,
                            x=4, y=4)
        hw = HardwareConfig(32, 4, 4)
        plan = build_mapping(hw, layer, TileConfig(4, 4, 2))
        assert theoretical_utilization(hw, plan).fraction == 1.0


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
        rn = plan.reduction_plan(plan.n_vns_mapped)
        leaves = plan.vn_of_leaf()
        values = [i + 1 if leaves[i] is not None else 0
                  for i in range(len(leaves))]
        sums = ReductionNetwork(HW32.num_ms).replay(rn,
                                                    dict(enumerate(values)))
        for vn in range(plan.n_vns_mapped):
            want = sum(values[i] for i, v in enumerate(leaves) if v == vn)
            assert sums[vn] == want

    def test_partial_batch_occupancy(self):
        plan = build_mapping(HW32, TINY, VALIDATION_TILE)
        rn = plan.reduction_plan(2)
        assert set(rn.egress) == {0, 1}
