"""Whole-layer simulation: correctness, counters, timing properties."""

from dataclasses import replace

import numpy as np
import pytest

from treefab import (
    FoldingStrategy,
    HardwareConfig,
    LayerConfig,
    LayerKind,
    TileConfig,
    compare,
    conv_reference,
    simulate_layer,
    total_macs,
)
from treefab.memory import random_layer_data

from common import HW32, TINY, VALIDATION_TILE


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
        assert compare(result.output, reference.output).ok
        assert result.stats.total_cycles > 0

    @pytest.mark.parametrize("strategy", list(FoldingStrategy))
    def test_padding_stride_groups_batch(self, strategy):
        layer = LayerConfig(LayerKind.CONV, r=3, s=3, c=4, g=2, k=3, n=2,
                            x=7, y=7, stride=2, padding=1)
        tile = TileConfig(3, 3, 2, 1, 1, 1, 2, 2)
        result, inputs, weights = run(HW32, layer, tile, seed=2,
                                      strategy=strategy)
        assert compare(result.output,
                       conv_reference(layer, inputs, weights).output).ok

    def test_fully_connected(self):
        layer = LayerConfig(LayerKind.FC, r=2, s=6, c=3, g=1, k=10, n=2,
                            x=2, y=6)
        tile = TileConfig(2, 6, 1, 1, 2, 1, 1, 1)
        result, inputs, weights = run(HW32, layer, tile, seed=3)
        assert compare(result.output,
                       conv_reference(layer, inputs, weights).output).ok

    def test_float_data(self):
        layer = LayerConfig(LayerKind.CONV, r=2, s=2, c=2, g=1, k=2, n=1,
                            x=4, y=4)
        rng = np.random.default_rng(4)
        inputs = rng.uniform(-1, 1, (1, 1, 2, 4, 4)).astype(np.float32)
        weights = rng.uniform(-1, 1, (1, 2, 2, 2, 2)).astype(np.float32)
        result = simulate_layer(HW32, layer, TileConfig(2, 2, 1), inputs,
                                weights)
        reference = conv_reference(layer, inputs, weights)
        assert compare(result.output, reference.output, tolerance=1e-4).ok


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
        outputs = TINY.k * TINY.out_x * TINY.out_y
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
        outputs = TINY.k * TINY.out_x * TINY.out_y
        assert st.as_additions == outputs * st.folds * (st.real_vn_size - 1)

    def test_ideal_additions_include_accumulator(self):
        result, _, _ = run(HW32, TINY, VALIDATION_TILE,
                           strategy=FoldingStrategy.IDEAL)
        st = result.stats
        outputs = TINY.k * TINY.out_x * TINY.out_y
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
