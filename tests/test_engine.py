"""Whole-layer simulation: correctness, counters, timing properties."""

import hashlib
import math
import random
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treefab import (
    AddressOutOfRange,
    FoldingStrategy,
    HardwareConfig,
    LayerConfig,
    LayerKind,
    MappingError,
    MappingPlan,
    OutputOverflow,
    TileConfig,
    ValidationError,
    build_mapping,
    compare,
    conv_reference,
    derive_output_dims,
    engine,
    enumerate_tiles,
    simulate_layer,
    total_macs,
)
from treefab.config import (
    parse_hardware_config,
    parse_layer_config,
    parse_tile_config,
)
from treefab import mapper
from treefab.mapper import Cut, Grid
from treefab.memory import random_layer_data

from common import (
    DATA_KINDS,
    EARLY_SYNTHETIC,
    HW32,
    PADDED_10,
    PADDED_STRIDED,
    POINTWISE,
    RESNET,
    TINY,
    VALIDATION_TILE,
    assert_same_outcome,
    assert_same_replays,
    count_calls,
    count_records,
    ints,
    kind_data,
    layers,
    outcome,
    random_layer,
    tiles,
    within,
    workload,
)
import cut_reference
import key_reference
from wave_reference import (Fabric, fold_blocks, simulate_per_wave,
                            wave_records)


def run(hw, layer, tile, seed=0, strategy=None, trace=None):
    inputs, weights = random_layer_data(layer, seed=seed)
    if strategy is not None:
        hw = replace(hw, folding=strategy)
    return simulate_layer(hw, layer, tile, inputs, weights,
                          trace=trace), inputs, weights


class TestCorrectness:
    def test_tiny_matches_oracle(self):
        result, inputs, weights = run(HW32, TINY, VALIDATION_TILE)
        reference = conv_reference(TINY, inputs, weights)
        assert compare(result.output, reference).ok
        assert result.stats.total_cycles > 0

    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    def test_padding_stride_groups_batch(self, strategy):
        layer = LayerConfig(LayerKind.CONV, r=3, s=3, c=4, g=2, k=3, n=2,
                            x=7, y=7, stride=2, padding=1)
        tile = TileConfig(3, 3, 2, 1, 1, 1, 2, 2)
        result, inputs, weights = run(HW32, layer, tile, seed=2,
                                      strategy=strategy)
        assert compare(result.output,
                       conv_reference(layer, inputs, weights)).ok

    def test_fully_connected(self):
        layer = LayerConfig(LayerKind.FC, r=2, s=6, c=3, g=1, k=10, n=2,
                            x=2, y=6)
        tile = TileConfig(2, 6, 1, 1, 2, 1, 1, 1)
        result, inputs, weights = run(HW32, layer, tile, seed=3)
        assert compare(result.output,
                       conv_reference(layer, inputs, weights)).ok

    def test_float_data(self):
        layer = LayerConfig(LayerKind.CONV, r=2, s=2, c=2, g=1, k=2, n=1,
                            x=4, y=4)
        rng = np.random.default_rng(4)
        inputs = rng.uniform(-1, 1, (1, 1, 2, 4, 4)).astype(np.float32)
        weights = rng.uniform(-1, 1, (1, 2, 2, 2, 2)).astype(np.float32)
        result = simulate_layer(HW32, layer, TileConfig(2, 2, 1), inputs,
                                weights)
        reference = conv_reference(layer, inputs, weights)
        assert compare(result.output, reference, tolerance=1e-4).ok


class TestDeterminism:
    def test_identical_runs_identical_stats(self):
        a, _, _ = run(HW32, TINY, VALIDATION_TILE, seed=5)
        b, _, _ = run(HW32, TINY, VALIDATION_TILE, seed=5)
        assert a.stats.as_dict() == b.stats.as_dict()
        assert (a.output == b.output).all()

    def test_trace_callback_sees_every_wave(self):
        events = []
        result, _, _ = run(HW32, TINY, VALIDATION_TILE, trace=events.append)
        assert len(events) == result.stats.waves
        assert events[-1]["cycle"] == result.stats.total_cycles


class TestCounters:
    def test_mac_conservation(self):
        result, _, _ = run(HW32, TINY, VALIDATION_TILE)
        assert result.stats.ms_multiplications == total_macs(TINY)

    def test_no_roundtrips_without_folding(self):
        layer = LayerConfig(LayerKind.CONV, r=2, s=2, c=2, g=1, k=4, n=1,
                            x=4, y=4)
        result, _, _ = run(HW32, layer, TileConfig(2, 2, 2, 1, 2, 1, 1, 1))
        assert result.stats.folds == 1
        assert result.stats.fold_roundtrips == 0
        assert result.stats.forwarder_injections == 0

    def test_roundtrip_accounting(self):
        result, _, _ = run(HW32, TINY, VALIDATION_TILE)
        st = result.stats
        outputs = TINY.k * math.prod(derive_output_dims(TINY))
        assert st.fold_roundtrips == (st.folds - 1) * outputs
        assert st.forwarder_injections == st.fold_roundtrips
        # every output leaves through a collector bus once per fold
        assert st.cb_grants == st.folds * outputs
        assert st.pb_writes == st.cb_grants

    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    def test_derived_counters(self, strategy):
        st = run(HW32, TINY, VALIDATION_TILE, strategy=strategy)[0].stats
        assert st.busy_ms_cycles == (st.ms_multiplications
                                     + st.forwarder_injections)
        assert st.fifo_pops == st.fifo_pushes > 0

    def test_structural_additions(self):
        result, _, _ = run(HW32, TINY, VALIDATION_TILE)
        st = result.stats
        outputs = TINY.k * math.prod(derive_output_dims(TINY))
        assert st.as_additions == outputs * st.folds * (st.real_vn_size - 1)

    def test_ideal_additions_include_accumulator(self):
        result, _, _ = run(HW32, TINY, VALIDATION_TILE,
                           strategy=FoldingStrategy.IDEAL)
        st = result.stats
        outputs = TINY.k * math.prod(derive_output_dims(TINY))
        assert st.as_additions == outputs * (st.folds * (st.vn_size - 1)
                                             + (st.folds - 1))

    def test_utilization_bounds(self):
        result, _, _ = run(HW32, TINY, VALIDATION_TILE)
        st = result.stats
        assert 0 < st.effective_ms_utilization <= st.theoretical_utilization <= 1


class TestTimingProperties:
    def test_bandwidth_monotonicity(self):
        layer = LayerConfig(LayerKind.CONV, r=3, s=3, c=4, g=1, k=4, n=1,
                            x=6, y=6)
        tile = TileConfig(3, 3, 1, 1, 1, 1, 2, 2)
        inputs, weights = random_layer_data(layer, seed=6)
        cycles = []
        for bw in (4, 8, 16, 32):
            hw = HardwareConfig(32, bw, bw)
            cycles.append(simulate_layer(hw, layer, tile, inputs,
                                         weights).stats.total_cycles)
        assert cycles == sorted(cycles, reverse=True)

    def test_folding_dominance(self):
        for layer, tile in [
            (TINY, VALIDATION_TILE),
            (LayerConfig(LayerKind.CONV, r=2, s=2, c=6, g=1, k=3, n=1,
                         x=4, y=4), TileConfig(2, 2, 2, 1, 3, 1, 1, 1)),
        ]:
            rt, _, _ = run(HW32, layer, tile,
                           strategy=FoldingStrategy.ROUNDTRIP)
            ideal, _, _ = run(HW32, layer, tile,
                              strategy=FoldingStrategy.IDEAL)
            assert ideal.stats.total_cycles < rt.stats.total_cycles
            assert ideal.stats.folds > 1

    def test_strategies_identical_without_folding(self):
        layer = LayerConfig(LayerKind.CONV, r=2, s=2, c=2, g=1, k=4, n=1,
                            x=4, y=4)
        tile = TileConfig(2, 2, 2, 1, 2, 1, 1, 1)
        rt, _, _ = run(HW32, layer, tile, strategy=FoldingStrategy.ROUNDTRIP)
        ideal, _, _ = run(HW32, layer, tile, strategy=FoldingStrategy.IDEAL)
        assert rt.stats.total_cycles == ideal.stats.total_cycles
        assert (rt.output == ideal.output).all()


def draw_case(data, dn_headroom=1):
    """A random mappable (hardware, layer, tile); ``dn_bw`` leaves room
    for ``dn_headroom`` times itself."""
    layer = data.draw(layers())
    tile = tiles(ints(data.draw), layer)
    num_ms = data.draw(st.sampled_from([8, 16, 32, 64]))
    dn_bw = data.draw(st.sampled_from(
        [b for b in (1, 2, 4, 8, 16, 32, 64) if b * dn_headroom <= num_ms]))
    hw = HardwareConfig(num_ms, dn_bw, data.draw(st.integers(1, num_ms)),
                        data.draw(st.sampled_from(FoldingStrategy)))
    try:
        build_mapping(hw, layer, tile)
    except MappingError:
        assume(False)
    return hw, layer, tile


def assert_matches_per_wave(hw, layer, tile, inputs, weights):
    """simulate_layer and the per-wave reference agree on the stats, the
    output and every trace event."""
    fast, slow = [], []
    got = simulate_layer(hw, layer, tile, inputs, weights, trace=fast.append)
    want = simulate_per_wave(hw, layer, tile, inputs, weights,
                             trace=slow.append)
    assert got.stats.as_dict() == want.stats.as_dict()
    assert got.output.dtype == want.output.dtype
    assert (got.output == want.output).all()
    assert fast == slow
    return got


class TestMatchesPerWaveReference:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_layers(self, data):
        hw, layer, tile = draw_case(data)
        inputs, weights = random_layer_data(layer,
                                            data.draw(st.integers(0, 999)))
        assert_matches_per_wave(hw, layer, tile, inputs, weights)

    @pytest.mark.parametrize("bandwidth", [
        None, "dn_bw == num_ms", "dn_bw == 1", "rn_bw == 1"])
    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_wave_record(self, data, strategy, bandwidth):
        # each wave's counted record equals the cycles and the counter
        # increments of that wave walked through the step-by-step fabric
        # on real data, not just their sums over the layer
        hw, layer, tile = draw_case(data)
        hw = replace(hw, folding=strategy, **{
            "dn_bw == num_ms": {"dn_bw": hw.num_ms},
            "dn_bw == 1": {"dn_bw": 1},
            "rn_bw == 1": {"rn_bw": 1}}.get(bandwidth, {}))
        try:
            mapping = build_mapping(hw, layer, tile)
        except MappingError:
            assume(False)
        fabric = Fabric(hw)
        fabric.pb.load_layer_data(layer, *random_layer_data(
            layer, data.draw(st.integers(0, 999))))
        want = [record for _, _, record in wave_records(mapping, fabric)]
        # the batch grid and the factored block cut, and the same groups
        # cut one shape per group, as a grid of a count of 1 each: wave by
        # wave on the per-batch grid, and each record's waves as the pair
        # table counts them from its classes
        for batches, blocks in (
                (mapping.batch_grid(), mapping.block_cut()),
                (Grid.of(per_group(*mapping.batch_cut().expand())),
                 per_group(*mapping.block_cut().expand()))):
            got, _ = grid_waves(mapping, batches, blocks, {})
            assert list(map(tuple, got.tolist())) == want
            counts, records = pair_table(mapping, batches, blocks, {})[3:]
            assert waves_per_record(counts, records) == Counter(want)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_order_of_outputs_and_elements(self, data):
        # the engine must be exact for any schedule, not only for the
        # tiles' product order: shuffle every output into any batch and
        # every weight coordinate into any block, keeping their lengths
        hw, layer, tile = draw_case(data)
        plan = build_mapping(hw, layer, tile)
        outs, batch_lengths = plan.batch_cut().expand()
        elems, block_lengths = plan.block_cut().expand()
        outs = outs[data.draw(st.permutations(range(len(outs))))]
        elems = elems[data.draw(st.permutations(range(len(elems))))]
        inputs, weights = random_layer_data(layer,
                                            data.draw(st.integers(0, 999)))
        with inject(cut_reference.flat(outs, batch_lengths),
                    cut_reference.flat(elems, block_lengths)):
            result = assert_matches_per_wave(hw, layer, tile, inputs,
                                             weights)
        assert compare(result.output,
                       conv_reference(layer, inputs, weights)).ok

    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    def test_edge_batches_and_blocks(self, strategy):
        layer = LayerConfig(LayerKind.CONV, r=3, s=3, c=5, g=2, k=3, n=2,
                            x=9, y=8, stride=1, padding=1)
        tile = TileConfig(2, 3, 2, 1, 2, 1, 2, 3)
        hw = HardwareConfig(32, 8, 4, strategy)
        plan = build_mapping(hw, layer, tile)
        sizes = [len(batch) for batch in plan.schedule]
        lengths = [len(block) for block in fold_blocks(plan)]
        assert len(set(sizes)) > 1 and len(set(lengths)) > 1
        assert len(sizes) > 3 * 3 and sum(sizes) > 3 * 5
        inputs, weights = random_layer_data(layer, seed=11)
        result = assert_matches_per_wave(hw, layer, tile, inputs, weights)
        assert compare(result.output,
                       conv_reference(layer, inputs, weights)).ok


    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    def test_float_data(self, strategy):
        # both sum in float64 and round once to float32, in different
        # orders, so an output may round to the neighbouring float32
        rng = np.random.default_rng(9)
        inputs = rng.uniform(-1, 1, (2, 2, 4, 7, 7)).astype(np.float32)
        weights = rng.uniform(-1, 1, (2, 3, 4, 3, 3)).astype(np.float32)
        layer = LayerConfig(LayerKind.CONV, r=3, s=3, c=4, g=2, k=3, n=2,
                            x=7, y=7, stride=2, padding=1)
        tile = TileConfig(2, 3, 3, 1, 2, 1, 2, 2)
        hw = HardwareConfig(32, 4, 4, strategy)
        fast, slow = [], []
        got = simulate_layer(hw, layer, tile, inputs, weights,
                             trace=fast.append)
        want = simulate_per_wave(hw, layer, tile, inputs, weights,
                                 trace=slow.append)
        assert got.stats.as_dict() == want.stats.as_dict()
        assert fast == slow
        assert got.output.dtype == want.output.dtype == np.float32
        np.testing.assert_allclose(got.output, want.output,
                                   rtol=np.finfo(np.float32).eps, atol=1e-12)


class TestMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(DATA_KINDS))
    def test_every_data_kind(self, data, kind):
        # int64 sums, Python-int sums (beyond-int64), overflow messages
        # (int8) and float64 sums, on layers with stride, padding, groups
        # and batch under both strategies
        hw, layer, tile = draw_case(data)
        inputs, weights = kind_data(layer, data.draw(st.integers(0, 999)),
                                    kind)
        assert_same_outcome(
            outcome(lambda *a: simulate_layer(hw, a[0], tile, *a[1:]).output,
                    layer, inputs, weights),
            outcome(conv_reference, layer, inputs, weights), kind)


class TestWaveKeys:
    def count_timed_waves(self, monkeypatch, hw, layer, tile):
        records = count_records(monkeypatch)
        inputs, weights = random_layer_data(layer, seed=0)
        simulate_layer(hw, layer, tile, inputs, weights)
        return len(records)

    def test_early_times_three_waves(self, monkeypatch):
        assert self.count_timed_waves(
            monkeypatch, HW32, EARLY_SYNTHETIC,
            TileConfig(3, 3, 1, t_x=3)) == 3

    def test_wide_ideal_times_six_waves(self, monkeypatch):
        layer = LayerConfig(LayerKind.CONV, r=3, s=3, c=8, g=1, k=16, n=1,
                            x=10, y=10)
        hw = HardwareConfig(256, 16, 4, FoldingStrategy.IDEAL)
        assert self.count_timed_waves(
            monkeypatch, hw, layer, TileConfig(3, 3, 1, t_k=16, t_x=2)) == 6

    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    def test_keys_that_share_a_signature(self, strategy, monkeypatch):
        # the 9 waves of this pointwise tile fall into 6 keys but only 4
        # signatures: a key holds each slot's (ox, oy) offset, a signature
        # only which positions share an address.  Each key's record is
        # assembled once, from 5 distributions, and the 6 records hold
        # just 2 distinct ones.
        layer = LayerConfig(LayerKind.CONV, r=1, s=1, c=2, g=1, k=4, n=1,
                            x=6, y=6)
        tile = TileConfig(1, 1, 2, t_k=4, t_x=6, t_y=6)
        hw = replace(HW32, folding=strategy)
        inputs, weights = random_layer_data(layer, seed=5)
        with monkeypatch.context() as m:
            records = count_records(m)
            parts = count_calls(m, "_distribute")
            simulate_layer(hw, layer, tile, inputs, weights)
        assert (len(records), len(parts), len(set(records))) == (6, 5, 2)
        result = assert_matches_per_wave(hw, layer, tile, inputs, weights)
        reference = conv_reference(layer, inputs, weights)
        assert compare(result.output, reference).ok

    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    def test_blocks_that_differ_only_in_channels(self, strategy,
                                                 monkeypatch):
        # the two middle blocks have the same (r, s) offsets, but only the
        # first of them keeps one channel, so only there output 1's tap
        # r=0 and output 0's tap r=1 read one input
        layer = LayerConfig(LayerKind.CONV, r=2, s=1, c=4, g=1, k=1, n=1,
                            x=3, y=1)
        tile = TileConfig(2, 1, 1, t_x=2)
        monkeypatch.setattr(
            MappingPlan, "block_cut", lambda plan: cut_reference.flat(
                np.array([[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0],
                          [2, 0, 0], [3, 1, 0], [3, 0, 0], [2, 1, 0]]),
                np.array([2, 2, 2, 2])))
        hw = replace(HW32, folding=strategy)
        inputs, weights = random_layer_data(layer, seed=13)
        assert_matches_per_wave(hw, layer, tile, inputs, weights)

    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    def test_tiles_straddle_every_edge(self, strategy):
        layer = LayerConfig(LayerKind.CONV, r=3, s=3, c=2, g=2, k=2, n=2,
                            x=15, y=15, stride=2, padding=2)
        tile = TileConfig(2, 3, 1, 1, 2, 1, 2, 3)
        hw = HardwareConfig(32, 4, 4, strategy)
        plan = build_mapping(hw, layer, tile)
        # input rows (columns) touched by each batch against each block
        spans = {axis: set() for axis in (0, 1)}
        for batch in plan.schedule:
            for block in fold_blocks(plan):
                for axis in (0, 1):
                    taps = [o[3 + axis] * layer.stride + e[1 + axis]
                            - layer.padding for o in batch for e in block]
                    spans[axis].add((min(taps), max(taps)))
        for axis, extent in ((0, layer.x), (1, layer.y)):
            assert any(lo < 0 <= hi for lo, hi in spans[axis])
            assert any(lo < extent <= hi for lo, hi in spans[axis])
            assert any(0 <= lo and hi < extent for lo, hi in spans[axis])
        inputs, weights = random_layer_data(layer, seed=12)
        assert_matches_per_wave(hw, layer, tile, inputs, weights)


class LoggedReplays(dict):
    """A ``replays`` dict that logs the key of every entry read, in
    order."""

    def __init__(self):
        super().__init__()
        self.read = []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)


class TestSharedReplays:
    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    @pytest.mark.parametrize("layer, first, dn_parts", [
        (POINTWISE, 20, 8), (PADDED_10, 60, None)])
    def test_sharing_gives_the_stats_of_fresh_runs(self, layer, first,
                                                   dn_parts, strategy,
                                                   monkeypatch):
        hw = replace(HW32, folding=strategy)
        tiles_ = [c.tile for c in enumerate_tiles(hw, layer)[:first]]
        plans = [build_mapping(hw, layer, tile) for tile in tiles_]
        if layer is PADDED_10:
            assert all(plan.folds > 1 for plan in plans)
            assert all(plan.has_forwarder for plan in plans) \
                == (strategy is FoldingStrategy.ROUNDTRIP)
        inputs, weights = random_layer_data(layer, seed=0)
        replays = {}
        with monkeypatch.context() as m:
            calls = count_calls(m, "_distribute")
            planned = count_calls(m, "cluster_plan")
            shared = [simulate_layer(hw, layer, tile, inputs, weights,
                                     replays=replays) for tile in tiles_]
        # the dict holds only the waves' parts and the fold blocks' rows,
        # under tagged keys
        assert {key[0] for key in replays} == {"dn", "drain", "blocks"}
        if dn_parts is not None:
            assert len(calls) == dn_parts
        # one reduction plan per batch geometry over all the calls
        assert sorted(planned) == sorted({
            (hw.num_ms, plan.real_vn_size, size) for plan in plans
            for size in plan.batch_cut().expand()[1].tolist()})
        for tile, got in zip(tiles_, shared):
            assert got.stats == simulate_layer(hw, layer, tile, inputs,
                                               weights).stats

    def test_each_fold_block_cut_keyed_once(self, monkeypatch):
        # the fold blocks read only the layer's C, R and S and the tile's
        # steps along them, so one dict cuts and keys them once per
        # distinct (T_C, T_R, T_S), whatever the hardware: once for the 20
        # candidates of the benchmark's tile search, and once for each of
        # the two fold geometries that lead PADDED_10's enumeration under
        # the two strategies, its first 12 tiles under each, every one run
        # under both
        configs = [replace(HW32, folding=strategy)
                   for strategy in FoldingStrategy]
        inputs, weights = random_layer_data(PADDED_10, seed=0)
        for layer, hws, tiles_, data, want in (
                (POINTWISE, [HW32], [
                    c.tile for c in enumerate_tiles(HW32, POINTWISE)[:20]],
                 (), 1),
                (PADDED_10, configs, [
                    c.tile for hw in configs
                    for c in enumerate_tiles(hw, PADDED_10)[:12]],
                 (inputs, weights), 2)):
            assert len({(t.t_c, t.t_r, t.t_s) for t in tiles_}) == want
            replays = {}
            with monkeypatch.context() as m:
                cuts = count_calls(m, "block_cut", MappingPlan)
                shared = [simulate_layer(hw, layer, tile, *data,
                                         replays=replays)
                          for hw in hws for tile in tiles_]
            assert len(cuts) == want
            assert [got.stats for got in shared] == [
                simulate_layer(hw, layer, tile, *data).stats
                for hw in hws for tile in tiles_]

    def test_parts_shared_across_hardware(self):
        # roundtrip, ideal, and other bandwidths on the same fabric size,
        # tile after tile through one dict: a DN part counted for one
        # hardware, or for a fold that forwards no partial sum, must not
        # stand in for another's
        configs = [HW32, replace(HW32, folding=FoldingStrategy.IDEAL),
                   replace(HW32, dn_bw=1, rn_bw=2)]
        tiles_ = [c.tile for c in enumerate_tiles(HW32, PADDED_10)[:12]]
        inputs, weights = random_layer_data(PADDED_10, seed=0)
        replays = {}
        for tile in tiles_:
            for hw in configs:
                got = simulate_layer(hw, PADDED_10, tile, inputs, weights,
                                     replays=replays)
                assert got.stats == simulate_layer(
                    hw, PADDED_10, tile, inputs, weights).stats

    def test_parts_keyed_by_the_fields_they_read(self, monkeypatch):
        # a DN part reads num_ms and dn_bw, a drain num_ms and rn_bw: after
        # 12 tiles on HW32, the same tiles on another rn_bw count no DN
        # part, and on another dn_bw no drain
        tiles_ = [c.tile for c in enumerate_tiles(HW32, PADDED_10)[:12]]
        replays = {}

        def shared(hw):
            with monkeypatch.context() as m:
                parts = count_calls(m, "_distribute")
                drains = count_calls(m, "_drain")
                got = [simulate_layer(hw, PADDED_10, tile, replays=replays)
                       for tile in tiles_]
            for tile, result in zip(tiles_, got):
                assert result.stats == simulate_layer(hw, PADDED_10,
                                                      tile).stats
            return len(parts), len(drains)

        # (distributions, drains) counted; a fresh dict counts (108, 4)
        # each time
        assert shared(HW32) == (108, 4)
        assert shared(replace(HW32, rn_bw=2)) == (0, 4)
        assert shared(replace(HW32, dn_bw=2)) == (108, 0)
        assert all(isinstance(field, (str, int, bytes))
                   for key in replays for field in key)

    def test_one_distribution_per_dn_part(self, monkeypatch):
        # each "dn" key is one distribution, of the weights or of the
        # inputs, counted by one fabric.distribution call; so a weight
        # distribution is shared by waves whose inputs differ
        tiles_ = [c.tile for c in enumerate_tiles(HW32, PADDED_10)[:12]]
        replays = LoggedReplays()
        with monkeypatch.context() as m:
            calls = count_calls(m, "distribution")
            for strategy in FoldingStrategy:
                for tile in tiles_:
                    simulate_layer(replace(HW32, folding=strategy),
                                   PADDED_10, tile, replays=replays)
        assert len(calls) == sum(key[0] == "dn" for key in replays) > 0
        # a record reads its weight, input and drain parts in turn, so
        # each weight key pairs with the input key read after it; the
        # weight key holds the cluster width and the block length
        parts = [key for key in replays.read if key[0] != "blocks"]
        inputs_by_weights = {}
        for weight, data, drain in zip(*[iter(parts)] * 3):
            assert (weight[0], data[0], drain[0]) == ("dn", "dn", "drain")
            assert weight[:5] == data[:5] and weight[5] is False
            inputs_by_weights.setdefault(weight, set()).add(data[-1])
        assert max(map(len, inputs_by_weights.values())) > 1

    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    def test_one_signature_on_clusters_of_two_sizes(self, strategy):
        # the last fold of T_C=3 and every fold of T_C=1 hold one channel,
        # so their waves can have one signature; but the clusters span 3
        # and 1 leaves (plus a forwarder under roundtrip), so the waves
        # reach other leaves through other reduction plans
        layer = LayerConfig(LayerKind.CONV, r=1, s=1, c=4, g=1, k=2, n=1,
                            x=1, y=1)
        hw = replace(HW32, folding=strategy)
        inputs, weights = random_layer_data(layer, seed=3)
        replays = {}
        for tile in (TileConfig(1, 1, 3, t_k=2), TileConfig(1, 1, 1, t_k=2)):
            got = simulate_layer(hw, layer, tile, inputs, weights,
                                 replays=replays)
            assert got.stats == simulate_layer(hw, layer, tile, inputs,
                                               weights).stats

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_prefilled_replays_change_nothing(self, data):
        # replays left by other tiles of the layer and by other layers on
        # the same hardware give the fresh run's and the per-wave
        # reference's stats, trace events and outputs
        hw, layer, tile = draw_case(data)
        replays = {}
        for other in (layer, data.draw(layers())):
            other_tile = tiles(ints(data.draw), other)
            try:
                build_mapping(hw, other, other_tile)
            except MappingError:
                continue
            simulate_layer(hw, other, other_tile,
                           *random_layer_data(other, seed=1), replays=replays)
        inputs, weights = random_layer_data(layer,
                                            data.draw(st.integers(0, 999)))
        events = []
        want = simulate_per_wave(hw, layer, tile, inputs, weights,
                                 trace=events.append)
        for memo in (replays, {}):
            got = []
            result = simulate_layer(hw, layer, tile, inputs, weights,
                                    trace=got.append, replays=memo)
            assert result.stats == want.stats
            assert (result.output == want.output).all()
            assert got == events

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_two_hardware_configs_share_a_dict(self, data):
        # the same layer and tile on another bandwidth or folding strategy
        # of the same fabric size: its replays must not stand in for ours
        hw, layer, tile = draw_case(data)
        other = replace(
            hw, dn_bw=data.draw(st.sampled_from(
                [b for b in (1, 2, 4, 8, 16, 32, 64) if b <= hw.num_ms])),
            rn_bw=data.draw(st.integers(1, hw.num_ms)),
            folding=data.draw(st.sampled_from(FoldingStrategy)))
        inputs, weights = random_layer_data(layer, seed=2)
        replays = {}
        for config in (other, hw):
            try:
                got = simulate_layer(config, layer, tile, inputs, weights,
                                     replays=replays)
            except MappingError:
                continue
            want = simulate_layer(config, layer, tile, inputs, weights)
            assert got.stats == want.stats
            assert (got.output == want.output).all()


class TestDataFree:
    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_counts_equal_a_run_on_data(self, data, strategy):
        hw, layer, tile = draw_case(data)
        hw = replace(hw, folding=strategy)
        try:
            build_mapping(hw, layer, tile)
        except MappingError:
            assume(False)
        inputs, weights = random_layer_data(layer,
                                            data.draw(st.integers(0, 999)))
        want_events, got_events = [], []
        want = simulate_layer(hw, layer, tile, inputs, weights,
                              trace=want_events.append)
        got = simulate_layer(hw, layer, tile, trace=got_events.append)
        assert got.output is None
        assert got.stats == want.stats
        assert got_events == want_events

    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    def test_one_dict_shared_with_and_without_data(self, strategy):
        # tile after tile, a data-free call and a call on data through one
        # dict, in both orders; the dict ends as a data-only run fills it
        hw = replace(HW32, folding=strategy)
        tiles_ = [c.tile for c in enumerate_tiles(hw, PADDED_10)[:12]]
        inputs, weights = random_layer_data(PADDED_10, seed=0)
        mixed, on_data = {}, {}
        for i, tile in enumerate(tiles_):
            fresh = simulate_layer(hw, PADDED_10, tile, inputs, weights).stats
            calls = [(), (inputs, weights)]
            if i % 2:
                calls.reverse()
            for args in calls:
                got = simulate_layer(hw, PADDED_10, tile, *args,
                                     replays=mixed)
                assert got.stats == fresh
                assert (got.output is None) == (not args)
            simulate_layer(hw, PADDED_10, tile, inputs, weights,
                           replays=on_data)
        assert_same_replays(mixed, on_data)

    @pytest.mark.parametrize("present", ["inputs", "weights"])
    def test_one_of_the_two_raises(self, present):
        inputs, weights = random_layer_data(TINY, seed=0)
        data = {"inputs": inputs, "weights": weights}
        with pytest.raises(ValidationError):
            simulate_layer(HW32, TINY, VALIDATION_TILE,
                           **{present: data[present]})


class TestEngineProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_effective_never_exceeds_theoretical_utilization(self, data):
        hw, layer, tile = draw_case(data)
        st_ = run(hw, layer, tile)[0].stats
        assert st_.effective_ms_utilization <= st_.theoretical_utilization

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_doubling_dn_bw_never_adds_cycles(self, data):
        # a distribution takes as many cycles as the most payloads that
        # one sub-tree injects.  Doubling dn_bw splits each sub-tree in
        # two, and a payload injected on a half was injected on the whole,
        # so no half injects more than its whole did.  The drain reads no
        # dn_bw, so no wave, and no layer, takes more cycles
        hw, layer, tile = draw_case(data, dn_headroom=2)
        for strategy in FoldingStrategy:
            hw = replace(hw, folding=strategy)
            try:
                build_mapping(hw, layer, tile)
            except MappingError:
                continue
            wide = replace(hw, dn_bw=2 * hw.dn_bw)
            assert run(wide, layer, tile)[0].stats.total_cycles \
                <= run(hw, layer, tile)[0].stats.total_cycles

    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_doubling_rn_bw_never_adds_cycles(self, data, strategy):
        # egress switch i drains on bus i mod rn_bw, and each bus grants
        # one value per cycle, oldest first.  Doubling rn_bw gives each
        # new bus a subset of one old bus's values, in the same order, so
        # by induction along that order no value is granted later, and the
        # drain, one past the last grant, never grows.  The distributions
        # read no rn_bw, so no wave, and no layer, takes more cycles
        hw, layer, tile = draw_case(data)
        hw = replace(hw, folding=strategy,
                     rn_bw=data.draw(st.integers(1, hw.num_ms // 2)))
        try:
            build_mapping(hw, layer, tile)
        except MappingError:
            assume(False)
        wide = replace(hw, rn_bw=2 * hw.rn_bw)
        assert simulate_layer(wide, layer, tile).stats.total_cycles \
            <= simulate_layer(hw, layer, tile).stats.total_cycles

    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_tripling_g_triples_cycles_and_waves(self, data, strategy):
        # with T_G = 1 every tile, and so every batch, holds one group, and
        # the groups' tiles issue alike.  A wave's cycles and counts do not
        # depend on the absolute cycle or on the other batches, and the
        # group moves every weight and input address of a wave alike and
        # has no border, so the batches of 3G groups are those of G three
        # times over, and so are their waves and cycles
        hw, layer, tile = draw_case(data)
        hw, tile = replace(hw, folding=strategy), replace(tile, t_g=1)
        try:
            build_mapping(hw, layer, tile)
        except MappingError:
            assume(False)
        one = simulate_layer(hw, layer, tile).stats
        three = simulate_layer(hw, replace(layer, g=3 * layer.g), tile).stats
        assert (three.total_cycles, three.waves) \
            == (3 * one.total_cycles, 3 * one.waves)

    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_doubling_n_doubles_cycles_and_waves(self, data, strategy):
        # with T_N = 1 every tile, and so every batch, holds one image, and
        # the images' tiles issue alike, one image after the other.  A
        # wave's cycles and counts do not depend on the absolute cycle or
        # on the other batches, and the image moves every address of a
        # wave alike and has no border, so the batches of 2N images are
        # those of N twice over, and so are their waves and cycles
        hw, layer, tile = draw_case(data)
        hw, tile = replace(hw, folding=strategy), replace(tile, t_n=1)
        try:
            build_mapping(hw, layer, tile)
        except MappingError:
            assume(False)
        one = simulate_layer(hw, layer, tile).stats
        two = simulate_layer(hw, replace(layer, n=2 * layer.n), tile).stats
        assert (two.total_cycles, two.waves) \
            == (2 * one.total_cycles, 2 * one.waves)


class TestRelationsAtScale:
    # the relations of TestEngineProperties, counted without data on the
    # ResNet-scale tile, at the values recorded when they were added; the
    # N and G counts have five minutes, and the four bandwidth sequences
    # share five more

    @staticmethod
    def count(hw, layer):
        stats = simulate_layer(hw, layer, RESNET[2]).stats
        return stats.total_cycles, stats.waves

    def test_images_and_groups_multiply_cycles_and_waves(self):
        hw, layer, _ = RESNET
        with within(300):
            counts = [self.count(hw, replace(layer, **field)) for field in (
                {"n": 1}, {"n": 2}, {"g": 2}, {"g": 3})]
        assert counts == [
            (38375424, 2752512), (76750848, 5505024), (76750848, 5505024),
            (115126272, 8257536)]

    @pytest.mark.parametrize("field, strategy, want", [
        ("dn_bw", "roundtrip", [102510592, 71122944, 49291264, 38375424,
                                32917504, 24739584, 19267328]),
        ("dn_bw", "ideal", [53244928, 38966272, 30127104, 21967872,
                            19248128, 13775872, 8303616]),
        ("rn_bw", "roundtrip", [71405568, 52137984, 42504192, 38375424,
                                35622912, 35622912, 35622912]),
        ("rn_bw", "ideal", [22118400, 22032384, 21982208, 21967872,
                            21953536, 21946368, 21939200]),
    ])
    def test_doubling_a_bandwidth_never_adds_cycles(self, field, strategy,
                                                    want):
        # the field from 1 to 64, doubling
        hw, layer, _ = RESNET
        hw = replace(hw, folding=FoldingStrategy(strategy))
        with within(75):
            got = [self.count(replace(hw, **{field: 2 ** i}), layer)[0]
                   for i in range(7)]
        assert all(a >= b for a, b in zip(got, got[1:]))
        assert got == want


class TestHugeLayer:
    # a 1x1 conv at X = Y = 2**31 - 1 cut by T_X = 3, T_Y = 7: the keys'
    # columns and the totals run past what a packed int64 holds
    SIDE = 2 ** 31 - 1
    LAYER = LayerConfig(LayerKind.CONV, r=1, s=1, c=1, g=1, k=1, n=1,
                        x=SIDE, y=SIDE)
    TILE = TileConfig(1, 1, 1, t_x=3, t_y=7)

    def test_counted_without_data(self):
        stats = simulate_layer(HW32, self.LAYER, self.TILE).stats
        # one batch of 21 outputs or fewer per tile, one fold each
        assert stats.waves == 715_827_883 * 306_783_379 \
            == 219_604_096_729_156_657
        assert stats.ms_multiplications == self.SIDE ** 2

    @pytest.mark.parametrize("num_ms, want", [
        (4, 13_176_245_754_970_842_263),
        (2, 16_470_307_194_557_207_117)])
    def test_total_cycles_past_int64(self, num_ms, want):
        stats = simulate_layer(HardwareConfig(num_ms, 1, 1), self.LAYER,
                               self.TILE).stats
        assert stats.total_cycles == want > 2 ** 63
        assert type(stats.total_cycles) is int

    # each int64 of the count (an address, a key's waves, a row's weight)
    # is bounded by the layer's MACs or its N*G*C*X*Y input elements, so a
    # layer with more than 2**63 - 1 of either is refused, not miscounted
    @pytest.mark.parametrize("layer, tile", [
        # 3 * SIDE**2 MACs: it counted 5,522,100,804 cycles short of three
        # times this layer's, though T_G = 1 makes that relation exact
        (replace(LAYER, g=3), TILE),
        # 9.0e18 MACs, under 2**63, but 1.6e19 input elements: it counted
        # 7,666,666,686,666,666,676 cycles, not 7,666,666,688,000,000,012
        (LayerConfig(LayerKind.CONV, r=3, s=3, c=1, g=1, k=1, n=1,
                     x=4_000_000_001, y=4_000_000_001, stride=4, padding=1),
         TileConfig(3, 3, 1, t_y=3)),
        # 64 * SIDE**2 MACs: it stopped on the MAC check's AssertionError
        (replace(LAYER, n=64), TILE)])
    def test_refused_past_int64(self, layer, tile):
        with pytest.raises(ValidationError, match=r"2\*\*63 - 1 at most"):
            simulate_layer(HW32, layer, tile)


class TestDataIndependence:
    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    def test_cycles_do_not_depend_on_the_data(self, strategy):
        hw = replace(HW32, folding=strategy)
        runs = []
        for seed in (1, 2):
            events = []
            inputs, weights = random_layer_data(PADDED_STRIDED, seed=seed)
            result = simulate_layer(hw, PADDED_STRIDED, VALIDATION_TILE,
                                    inputs, weights, trace=events.append)
            runs.append((result.stats.as_dict(), events, result.output))
        assert runs[0][:2] == runs[1][:2]
        assert (runs[0][2] != runs[1][2]).any()


class TestAddressesAndOverflow:
    def test_out_of_range_address_raises(self):
        # a schedule that names output row 99 of a 3-row output
        inputs, weights = random_layer_data(TINY, seed=0)
        with inject(cut_reference.flat(np.array([[0, 0, 0, 99, 0]]),
                                       np.array([1]))), \
                pytest.raises(AddressOutOfRange):
            simulate_layer(HW32, TINY, VALIDATION_TILE, inputs, weights)

    def test_out_of_range_fold_block_raises(self, monkeypatch):
        # a fold block that names channel 6 of a 6-channel filter
        monkeypatch.setattr(
            MappingPlan, "block_cut", lambda plan: cut_reference.flat(
                np.array([[0, 0, 0], [6, 0, 0]]), np.array([2])))
        inputs, weights = random_layer_data(TINY, seed=0)
        with pytest.raises(AddressOutOfRange):
            simulate_layer(HW32, TINY, VALIDATION_TILE, inputs, weights)

    @pytest.mark.parametrize("name", ["batch_cut", "block_cut"])
    def test_sums_follow_the_schedule(self, name):
        # the last output of the schedule (or element of the fold blocks)
        # is replaced by the first: every length and coordinate stays
        # valid, but one output (or tap) is summed twice and one never
        coords, lengths = getattr(
            build_mapping(HW32, PADDED_STRIDED, VALIDATION_TILE),
            name)().expand()
        coords[-1] = coords[0]
        with inject(**{{"batch_cut": "batches", "block_cut": "blocks"}[name]:
                       cut_reference.flat(coords, lengths)}):
            result, inputs, weights = run(HW32, PADDED_STRIDED,
                                          VALIDATION_TILE)
        assert not compare(result.output, conv_reference(
            PADDED_STRIDED, inputs, weights)).ok

    def test_overflow_names_the_first_output_in_c_order(self):
        # tile T_X=2, T_Y=1 runs output (1, 0) before (0, 1); both overflow
        layer = LayerConfig(LayerKind.CONV, r=1, s=1, c=1, g=1, k=1, n=1,
                            x=2, y=2)
        inputs = np.array([[1, 2 ** 20], [2 ** 20, 1]],
                          dtype=np.int32).reshape(1, 1, 1, 2, 2)
        weights = np.full((1, 1, 1, 1, 1), 2 ** 12, dtype=np.int32)
        tile = TileConfig(1, 1, 1, t_x=2)
        assert [b for b in build_mapping(HardwareConfig(8, 2, 2), layer,
                                         tile).schedule] \
            == [[(0, 0, 0, 0, 0), (0, 0, 0, 1, 0)],
                [(0, 0, 0, 0, 1), (0, 0, 0, 1, 1)]]
        with pytest.raises(OutputOverflow) as simulator:
            simulate_layer(HardwareConfig(8, 2, 2), layer, tile, inputs,
                           weights)
        with pytest.raises(OutputOverflow) as oracle:
            conv_reference(layer, inputs, weights)
        assert str(simulator.value) == str(oracle.value) \
            == "output (0, 0, 0, 0, 1) = 4294967296 does not fit int32"


class TestRangeGuard:
    DIMS = (2, 3, 4, 5, 6)

    def flat(self, axis, value):
        # three groups of random in-range coordinates, one of which is
        # moved to ``value`` on ``axis``
        rng = np.random.default_rng(axis)
        coords = np.stack([rng.integers(0, d, 10) for d in self.DIMS], axis=1)
        coords[5, axis] = value
        return cut_reference.flat(coords, np.array([4, 3, 3]))

    def factored(self, axis, origin):
        # two shapes of offsets within half of each extent, placed at five
        # origins that keep them inside, except that the third group's
        # origin on ``axis`` is ``origin``
        rng = np.random.default_rng(axis)
        half = [d // 2 for d in self.DIMS]
        offsets = np.stack([rng.integers(0, h + 1, 7) for h in half], axis=1)
        origins = np.stack([rng.integers(0, d - h, 5)
                            for d, h in zip(self.DIMS, half)], axis=1)
        origins[2, axis] = origin
        return Cut(offsets, np.array([4, 3]), origins,
                   np.array([0, 1, 1, 0, 1]))

    def assert_names_the_axis_and_its_span(self, cut, axis):
        with pytest.raises(AddressOutOfRange) as exc:
            engine._check_range(cut, self.DIMS, "output")
        coords = cut.expand()[0][:, axis]
        assert str(exc.value) == (
            f"output axis {axis} spans {coords.min()}..{coords.max()}, "
            f"outside 0..{self.DIMS[axis] - 1}")

    @pytest.mark.parametrize("axis", range(5))
    @pytest.mark.parametrize("outside", ["below", "at the extent"])
    def test_names_the_axis_and_its_span(self, axis, outside):
        value = -1 if outside == "below" else self.DIMS[axis]
        self.assert_names_the_axis_and_its_span(self.flat(axis, value), axis)

    @pytest.mark.parametrize("axis", range(5))
    @pytest.mark.parametrize("outside", ["below", "past the extent"])
    def test_an_origin_carries_a_group_outside(self, axis, outside):
        # every shape lies inside the dims, and so does every group but
        # the third: only its origin moves it out, wholly, on ``axis``
        dim = self.DIMS[axis]
        cut = self.factored(axis, -dim if outside == "below" else dim)
        assert (cut.offsets >= 0).all() and (cut.offsets < self.DIMS).all()
        inside = np.delete(cut.expand()[0], np.s_[7:10], axis=0)
        assert (inside >= 0).all() and (inside < self.DIMS).all()
        self.assert_names_the_axis_and_its_span(cut, axis)

    @pytest.mark.parametrize("axis", range(5))
    def test_the_last_position_carries_a_group_outside(self, axis):
        # every group of the grid lies inside the dims at its first
        # position; only the third entry's count along ``axis`` moves its
        # last groups out, and the check reads that last position
        grid = Grid.of(self.factored(axis, 0))
        count = grid.count.copy()
        count[2, axis] = self.DIMS[axis] + 1
        grid = grid._replace(count=count)
        entry, p = grid.issue()
        coords = Cut(grid.cut.offsets, grid.cut.sizes,
                     grid.cut.origins[entry] + p * grid.step,
                     grid.cut.shape[entry]).expand()[0][:, axis]
        with pytest.raises(AddressOutOfRange) as exc:
            engine._check_range(grid.cut, self.DIMS, "output",
                                (grid.count - 1) * grid.step)
        assert str(exc.value) == (
            f"output axis {axis} spans {coords.min()}..{coords.max()}, "
            f"outside 0..{self.DIMS[axis] - 1}")
        engine._check_range(grid.cut, self.DIMS, "output")

    @settings(max_examples=50, deadline=None)
    @given(lengths=st.lists(st.integers(1, 5), min_size=1, max_size=6),
           seed=st.integers(0, 999))
    def test_low_and_span_of_each_group(self, lengths, seed):
        # on a cut where each group is a shape of its own, at origin 0,
        # the bounds are each group's; the canonical cut of the same
        # groups holds each group's least coordinate in its origin
        coords = np.random.default_rng(seed).integers(-3, 9,
                                                      (sum(lengths), 3))
        lengths = np.array(lengths)
        low, spread = per_group(coords, lengths).bounds()
        origins = cut_reference.flat(coords, lengths).origins
        starts = np.cumsum(lengths) - lengths
        for i, (start, length) in enumerate(zip(starts, lengths)):
            part = coords[start:start + length]
            assert (low[i] == part.min(axis=0)).all()
            assert (spread[i] == part.max(axis=0) - part.min(axis=0)).all()
            assert (origins[i] == part.min(axis=0)).all()


def run_on_cuts(hw, layer, tile, inputs, weights, cuts=None):
    """Stats, trace events, output and replays of one run; ``cuts``, if
    given, stand in for the mapping's batch and block cuts."""
    events, replays = [], {}
    with inject(*(cuts or ())):
        result = simulate_layer(hw, layer, tile, inputs, weights,
                                trace=events.append, replays=replays)
    return result.stats, events, result.output, replays


@contextmanager
def inject(batches=None, blocks=None):
    """Within the block, a mapping's batch cut is ``batches``, and its
    batch grid the same groups as a grid of a count of 1 each, and its
    block cut is ``blocks``; either may be None, left as it is."""
    with ExitStack() as stack:
        if batches is not None:
            stack.enter_context(patch.object(MappingPlan, "batch_cut",
                                             lambda _: batches))
            stack.enter_context(patch.object(MappingPlan, "batch_grid",
                                             lambda _: Grid.of(batches)))
        if blocks is not None:
            stack.enter_context(patch.object(MappingPlan, "block_cut",
                                             lambda _: blocks))
        yield


def assert_same_cut(got, want):
    """Two cuts are equal byte for byte in all four fields."""
    for a, b in zip(got, want, strict=True):
        assert (a.dtype, a.shape, a.tobytes()) \
            == (b.dtype, b.shape, b.tobytes())


def tile_cut(layer, tile, axes):
    """The cut of the layer's ``axes`` into whole tiles, in issue order."""
    extents, steps = mapper._axes(layer, tile, axes)
    return mapper._grid(extents, steps, math.prod(steps)).expand()


def per_group(coords, lengths):
    """The cut of groups given as flat coordinates and lengths with each
    group a shape of its own, at origin 0: not canonical wherever a
    group's least coordinate is not 0 or two groups are equal up to a
    shift."""
    return Cut(coords, lengths,
               np.zeros((len(lengths), coords.shape[1]), coords.dtype),
               np.arange(len(lengths)))


def assert_cuts_match_the_reference(hw, layer, tile, inputs, weights):
    """The expanded cuts equal the argsort reference's arrays byte for
    byte; a run on the canonical cuts of the expanded groups gives the
    factored run's stats, trace events, outputs and replays; and a run on
    the expanded groups cut one shape per group gives the same stats,
    trace events, outputs and parts."""
    plan = build_mapping(hw, layer, tile)
    batches, blocks = plan.batch_cut().expand(), plan.block_cut().expand()
    for got, want in ((batches, cut_reference.batch_array(plan)),
                      (blocks, cut_reference.block_array(plan))):
        for a, b in zip(got, want):
            assert (a.dtype, a.shape, a.tobytes()) \
                == (b.dtype, b.shape, b.tobytes())
    factored = run_on_cuts(hw, layer, tile, inputs, weights)
    flat = run_on_cuts(hw, layer, tile, inputs, weights,
                       (cut_reference.flat(*batches),
                        cut_reference.flat(*blocks)))
    assert factored[:2] == flat[:2]
    assert (factored[2] == flat[2]).all()
    assert_same_replays(flat[3], factored[3])
    raw = run_on_cuts(hw, layer, tile, inputs, weights,
                      (per_group(*batches), per_group(*blocks)))
    assert factored[:2] == raw[:2]
    assert (factored[2] == raw[2]).all()
    assert factored[3].keys() == raw[3].keys()
    # the parts are equal; the fold blocks' entries hold two factorings
    # of one cut, which expand alike
    parts = [{key: value for key, value in run[3].items()
              if key[0] != "blocks"} for run in (factored, raw)]
    assert parts[0] == parts[1]
    key, = factored[3].keys() - parts[0].keys()
    for a, b in zip(factored[3][key].cut.expand(), raw[3][key].cut.expand()):
        assert (a.dtype, a.shape, a.tobytes()) \
            == (b.dtype, b.shape, b.tobytes())


class TestFactoredCut:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_expands_to_the_reference_and_counts_alike(self, data):
        # the drawn tiles include clamped ones, on any axis
        hw, layer, tile = draw_case(data)
        inputs, weights = random_layer_data(layer,
                                            data.draw(st.integers(0, 999)))
        assert_cuts_match_the_reference(hw, layer, tile, inputs, weights)

    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_cuts_are_canonical(self, data, strategy):
        # the batch and block cuts are the canonical cuts of their own
        # groups, byte for byte, and the tile cuts (the fold blocks among
        # them) are canonical as cut: each shape's least offset is 0
        layer = data.draw(layers())
        tile = tiles(ints(data.draw), layer)
        hw = HardwareConfig(data.draw(st.sampled_from([8, 16, 32, 64])), 4,
                            4, strategy)
        try:
            plan = build_mapping(hw, layer, tile)
        except MappingError:
            assume(False)
        for cut in (plan.batch_cut(), plan.block_cut()):
            assert_same_cut(cut_reference.flat(*cut.expand()), cut)
            assert (cut.bounds()[0] == 0).all()
        for axes in (mapper._OUTPUT_AXES, mapper._FOLD_AXES):
            cut = tile_cut(layer, tile, axes)
            assert_same_cut(cut_reference.canonical(cut), cut)

    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    def test_clamped_on_every_axis(self, strategy):
        # steps of 2 on odd extents: two sizes per axis, so 32 tile
        # shapes of outputs, one per clamp combination, and 8 of blocks
        layer = LayerConfig(LayerKind.CONV, r=3, s=3, c=3, g=3, k=3, n=3,
                            x=7, y=7)
        tile = TileConfig(2, 2, 2, 2, 2, 2, 2, 2)
        hw = replace(HardwareConfig(64, 4, 4), folding=strategy)
        plan = build_mapping(hw, layer, tile)
        assert len(plan.block_cut().sizes) == 8
        tiles = tile_cut(layer, tile, mapper._OUTPUT_AXES)
        low, spread = tiles.bounds()
        assert (low == 0).all()
        assert sorted(map(tuple, (spread + 1).tolist())) \
            == sorted(product((1, 2), repeat=5))
        inputs, weights = random_layer_data(layer, seed=6)
        assert_cuts_match_the_reference(hw, layer, tile, inputs, weights)

    def test_one_row_per_batch_shape(self):
        # EARLY_SYNTHETIC's 648 batches share 1 shape, wide-conv's 64
        # batches 2, and the 3,472 batches of tile-search's 20 simulated
        # candidates 41, once shapes equal up to a shift are one
        hw32 = workload(parse_hardware_config, "hw32-roundtrip.yaml")
        early = (hw32, workload(parse_layer_config, "early-synthetic.yaml"),
                 workload(parse_tile_config, "tile-early.yaml"))
        wide = (workload(parse_hardware_config, "hw256-ideal.yaml"),
                workload(parse_layer_config, "wide-conv.yaml"),
                workload(parse_tile_config, "tile-wide.yaml"))
        search = [(hw32, POINTWISE, c.tile)
                  for c in enumerate_tiles(hw32, POINTWISE)[:20]]
        cuts = [[build_mapping(*run).batch_cut() for run in runs]
                for runs in ([early], [wide], search)]
        assert [sum(len(cut.shape) for cut in run) for run in cuts] \
            == [648, 64, 3472]
        assert [sum(len(cut.sizes) for cut in run) for run in cuts] \
            == [1, 2, 41]


def pair_table(mapping, grid, blocks, replays):
    """(slices, blocks, ids, counts, records): the engine's rows of
    ``grid`` and the ``blocks`` cut, and its pair table, counted as a
    list of one tile."""
    with inject(blocks=blocks):
        slices, ids, counts, records, _ = engine._count(
            mapping.hw, mapping.layer, [(mapping, grid)], replays)
        blocks = engine._blocks(mapping.layer, mapping, replays)
    return slices, blocks, ids, counts, records


def waves_per_record(counts, records):
    """The number of waves of each distinct record, from a pair table's
    counts and records."""
    waves = Counter()
    for count, record in zip(counts.tolist(), map(tuple, records.tolist())):
        waves[record] += count
    return waves


def grid_waves(mapping, grid, blocks, replays):
    """(waves, records): the record of every wave of ``grid`` and the
    ``blocks`` cut in issue order, shape (waves, record), looked up from
    the engine's pair table on the per-batch grid, and each key's
    record."""
    slices, blocks, ids, _, records = pair_table(
        mapping, Grid.of(grid.expand()), blocks, replays)
    keys = ids.reshape(len(slices.first), -1)[slices.row]
    return records[keys[:, blocks.row]].reshape(-1, records.shape[1]), records


def assert_grid_matches_the_reference(hw, layer, tile, batches=None,
                                      blocks=None):
    """A traced run and a count on the batch grid give the stats, trace
    events, per-wave records, key records and replays keys of the
    reference that keys every batch of the batch cut, and the pair table
    on the batch grid counts each record's waves as the reference does;
    ``batches`` and ``blocks``, if given, stand in for the mapping's cuts,
    the batches as a grid of a count of 1 each."""
    mapping = build_mapping(hw, layer, tile)
    events, replays = [], {}
    with inject(batches, blocks):
        got = simulate_layer(hw, layer, tile, trace=events.append,
                             replays=replays)
        counted = simulate_layer(hw, layer, tile).stats
    grid = mapping.batch_grid() if batches is None else Grid.of(batches)
    batches = mapping.batch_cut() if batches is None else batches
    blocks = mapping.block_cut() if blocks is None else blocks
    want_replays = {}
    want = key_reference.keyed(mapping, batches, blocks, want_replays)
    assert got.stats == counted == want.stats
    assert events == want.events
    waves, per_batch = grid_waves(mapping, grid, blocks, {})
    assert np.array_equal(waves, want.waves)
    counts, records = pair_table(mapping, grid, blocks, {})[3:]
    assert waves_per_record(counts, records) \
        == Counter(map(tuple, want.waves.tolist()))
    for got_records in (per_batch, records):
        assert sorted(map(tuple, got_records.tolist())) \
            == sorted(map(tuple, want.records.tolist()))
    assert {key for key in replays if key[0] != "blocks"} \
        == want_replays.keys()


class TestPairTable:
    @pytest.mark.parametrize("case, want", [
        ((HW32, EARLY_SYNTHETIC, TileConfig(3, 3, 1, t_x=3)),
         ((1, 3, 3, 3), (108, 3, 3))),
        (RESNET, ((2, 5, 36, 28), (224, 5, 28)))])
    def test_keys_a_table_of_rows_not_of_waves(self, case, want):
        # (slice rows, block rows, class tuples, keys): EARLY_SYNTHETIC's
        # 3,888 waves and the ResNet-scale tile's 2,752,512 are keyed on
        # the border classes of their slice rows, where the reference
        # keys (batch rows, block rows) pairs into the same number of keys
        want, reference = want
        plan = build_mapping(*case)
        slices, blocks, ids, counts, records = pair_table(
            plan, plan.batch_grid(), plan.block_cut(), {})
        assert (len(slices.first), len(blocks.first), len(ids),
                len(records)) == want
        assert counts.sum() == len(plan.batch_cut().shape) * plan.folds
        batches = key_reference.batch_rows(plan.layer, plan.batch_cut())
        blocks = engine._block_rows(plan.layer, plan.block_cut())
        ids, records = key_reference.pair_table(plan, batches, blocks, {})
        assert (*ids.shape, len(records)) == reference
        assert (len(batches.row), len(blocks.row)) \
            == (len(plan.batch_cut().shape), plan.folds)

    def test_resnet_scale_counted_without_data(self):
        # the batch grid and the canonical cuts of the expanded groups, as
        # a grid of a count of 1 each, count alike
        hw, layer, tile = RESNET
        plan = build_mapping(hw, layer, tile)
        factored = simulate_layer(hw, layer, tile).stats
        flat = (cut_reference.flat(*plan.batch_cut().expand()),
                cut_reference.flat(*plan.block_cut().expand()))
        with inject(*flat):
            trivial = simulate_layer(hw, layer, tile).stats
        assert factored == trivial
        assert (factored.total_cycles, factored.waves) \
            == (38_375_424, 2_752_512)


class TestOnePass:
    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_list_counts_as_its_tiles(self, data, strategy):
        # 1-12 feasible tiles of one layer, mixing fold tiles, widths and
        # steps, repeats allowed, counted in one pass: each tile's totals
        # give the stats of a fresh run, simulate_layer reads them back,
        # and the pass leaves the parts and fold-block rows that the runs
        # tile by tile leave
        hw, layer, _ = draw_case(data)
        hw = replace(hw, folding=strategy)
        tiles_ = data.draw(st.lists(st.sampled_from(
            [c.tile for c in enumerate_tiles(hw, layer)]),
            min_size=1, max_size=12))
        plans = [build_mapping(hw, layer, tile) for tile in tiles_]
        replays, want_replays = {}, {}
        totals = engine._count(hw, layer, [
            (plan, plan.batch_grid()) for plan in plans], replays)[-1]
        want = [simulate_layer(hw, layer, tile, replays=want_replays).stats
                for tile in tiles_]
        assert [engine.layer_stats(plan, *total)
                for plan, total in zip(plans, totals)] == want
        assert_same_replays(replays, want_replays)
        engine.count_tiles(hw, layer, tiles_, replays)
        assert [simulate_layer(hw, layer, tile, replays=replays).stats
                for tile in tiles_] == want
        assert {key[0] for key in replays} \
            == {"dn", "drain", "blocks", "counts"}

    def test_each_pass_bounded_by_its_pairs(self, monkeypatch):
        # count_tiles takes tiles into a pass until their (grid entry,
        # block row) pairs reach PASS_PAIRS: PADDED_10's 528 tiles under
        # roundtrip go through the pass in a few passes of many tiles, and
        # with a bound of 1 in one pass each, alike
        tiles_ = [c.tile for c in enumerate_tiles(HW32, PADDED_10)]
        counted = []
        for bound in (engine.PASS_PAIRS, 1):
            replays = {}
            with monkeypatch.context() as m:
                m.setattr(engine, "PASS_PAIRS", bound)
                passes = count_calls(m, "_count")
                engine.count_tiles(HW32, PADDED_10, tiles_, replays)
            counted.append([replays[engine._counts_key(HW32, PADDED_10, t)]
                            for t in tiles_])
            sizes = [len(runs) for _, _, runs, _ in passes]
            assert sum(sizes) == len(tiles_)
            if bound == 1:
                assert set(sizes) == {1}
            else:
                assert 1 < len(sizes) < 40
        assert counted[0] == counted[1]

class TestBatchGrid:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_expands_to_the_reference(self, data):
        # each entry's groups, at every position p of its counts, moved by
        # p steps and issued tile by tile in row-major order over the grid,
        # are the argsort reference's batches, in order
        hw, layer, tile = draw_case(data)
        plan = build_mapping(hw, layer, tile)
        grid = plan.batch_grid()
        coords, lengths = grid.cut.expand()
        starts = np.cumsum(lengths) - lengths
        issued = sorted(
            (tuple(grid.tile[i] + p), i,
             coords[starts[i]:starts[i] + lengths[i]] + np.array(p)
             * grid.step)
            for i in range(len(lengths))
            for p in product(*map(range, grid.count[i])))
        want = cut_reference.batch_array(plan)
        assert np.array_equal(np.concatenate([c for *_, c in issued]),
                              want[0])
        assert [len(c) for *_, c in issued] == want[1].tolist()
        assert (grid.cut.bounds()[0] == 0).all()
        assert_same_cut(grid.expand(), plan.batch_cut())

    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_the_reference(self, data, strategy):
        hw, layer, tile = draw_case(data)
        hw = replace(hw, folding=strategy)
        try:
            plan = build_mapping(hw, layer, tile)
        except MappingError:
            assume(False)
        assert_grid_matches_the_reference(hw, layer, tile)
        # the same groups cut one shape per group, a count of 1 each
        assert_grid_matches_the_reference(
            hw, layer, tile, per_group(*plan.batch_cut().expand()),
            per_group(*plan.block_cut().expand()))

    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    def test_every_tile_of_a_padded_layer(self, strategy):
        # all 528 feasible tiles of PADDED_10, whose batches straddle the
        # padding on both sides along both axes
        hw = replace(HW32, folding=strategy)
        candidates = enumerate_tiles(hw, PADDED_10)
        assert len(candidates) == 528
        for candidate in candidates:
            assert_grid_matches_the_reference(hw, PADDED_10, candidate.tile)

    def test_an_edge_position_past_the_range(self):
        # stride 2 and padding 3 on a 1x1 filter: of the 8 output
        # columns, 0 and 1 read padding and 6 and 7 read past the input,
        # so the one slice row's 8 X positions fall into five keys: the
        # edges 0 and 1 of a wave each, the range of columns 2 to 5 as
        # one key of four waves, and the edges 6 and 7
        layer = LayerConfig(LayerKind.CONV, r=1, s=1, c=1, g=1, k=1, n=1,
                            x=9, y=1, stride=2, padding=3)
        tile = TileConfig(1, 1, 1, t_y=derive_output_dims(layer)[1])
        plan = build_mapping(HW32, layer, tile)
        slices, _, ids, counts, _ = pair_table(
            plan, plan.batch_grid(), plan.block_cut(), {})
        assert (counts[ids].tolist(), slices.count[0].tolist()) \
            == ([1, 1, 4, 1, 1], [8])
        assert_grid_matches_the_reference(HW32, layer, tile)

    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_walk_for_the_trace_and_the_sum(self, data, strategy):
        # a traced run with data counts and lists its waves on the walk
        # its output sum reads: it gives the events and stats of a traced
        # run without data, and both give the stats of an untraced count,
        # with data or without
        hw, layer, tile = draw_case(data)
        hw = replace(hw, folding=strategy)
        try:
            build_mapping(hw, layer, tile)
        except MappingError:
            assume(False)
        layer_data = random_layer_data(layer, data.draw(st.integers(0, 999)))
        runs = []
        for args in (layer_data, ()):
            events = []
            stats = simulate_layer(hw, layer, tile, *args,
                                   trace=events.append).stats
            runs.append((stats, events))
        assert runs[0] == runs[1]
        assert runs[0][0] == simulate_layer(hw, layer, tile).stats \
            == simulate_layer(hw, layer, tile, *layer_data).stats

    @pytest.mark.parametrize("data", [False, True])
    @pytest.mark.parametrize("traced", [False, True])
    def test_batches_walked_only_for_data_or_a_trace(self, data, traced,
                                                     monkeypatch):
        # the counts read the batch grid's entries; only the output sum
        # and the trace walk its batches one by one, in one walk that
        # both read, and no call re-cuts them (a batch grid has five
        # axes, a block grid 3)
        walks = count_calls(monkeypatch, "issue", Grid)
        cuts = count_calls(monkeypatch, "batch_cut", MappingPlan)
        args = random_layer_data(PADDED_STRIDED, seed=0) if data else ()
        simulate_layer(HW32, PADDED_STRIDED, VALIDATION_TILE, *args,
                       trace=[].append if traced else None)
        assert sum(len(grid.step) == 5 for grid, in walks) \
            == (data or traced)
        assert cuts == []


def random_cases(count, seed):
    """``count`` (hardware, layer, tile) cases over ``draw_case``'s
    ranges, drawn by ``random.Random(seed)``, so the same cases every
    run; unlike ``draw_case``, tiles that no cluster holds are kept."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        layer = random_layer(rng.randint)
        if layer is None:
            continue
        num_ms = rng.choice([8, 16, 32, 64])
        hw = HardwareConfig(
            num_ms, rng.choice([b for b in (1, 2, 4, 8, 16, 32, 64)
                                if b <= num_ms]),
            rng.randint(1, num_ms), rng.choice(list(FoldingStrategy)))
        cases.append((hw, layer, tiles(rng.randint, layer)))
    return cases


class TestCountedDigest:
    # recorded before the keying took the cuts without a per-group wrapper
    DIGEST = ("f52b83fdbef867b94002a2e90baca9b6"
              "b95c8a67023710c898c810105c994600")

    def test_stats_traces_and_errors_unchanged(self):
        # one sha256 over the stats and trace events of 600 fixed random
        # cases, and the message of each of the 63 that raise MappingError
        digest, errors = hashlib.sha256(), 0
        for hw, layer, tile in random_cases(600, seed=7919):
            events = []
            try:
                result = simulate_layer(hw, layer, tile, trace=events.append)
            except MappingError as exc:
                errors += 1
                digest.update(f"{type(exc).__name__}: {exc}\n".encode())
                continue
            digest.update(f"{result.stats.as_dict()!r} {events!r}\n".encode())
        assert (errors, digest.hexdigest()) == (63, self.DIGEST)
