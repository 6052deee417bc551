"""Tile enumeration and ranking."""

import inspect
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from treefab import (
    FoldingStrategy,
    HardwareConfig,
    LayerConfig,
    LayerKind,
    TileConfig,
    build_mapping,
    engine,
    enumerate_tiles,
    memory,
    rank_by_simulation,
)
from treefab.config import tile_extents

from common import HW32, TINY, VALIDATION_TILE, layers

HW64 = HardwareConfig(64, 8, 8)


def resnet_layer(size):
    """3x3, C=K=64, ``size`` x ``size``, padding 1."""
    return LayerConfig(LayerKind.CONV, r=3, s=3, c=64, g=1, k=64, n=1,
                       x=size, y=size, padding=1)


def test_validation_tile_among_candidates():
    candidates = enumerate_tiles(HW32, TINY)
    assert VALIDATION_TILE in [c.tile for c in candidates]


def test_unit_layer_single_candidate():
    layer = LayerConfig(LayerKind.CONV, r=1, s=1, c=1, g=1, k=1, n=1,
                        x=1, y=1)
    candidates = enumerate_tiles(HW32, layer)
    assert len(candidates) == 1
    assert candidates[0].tile == TileConfig(1, 1, 1, 1, 1, 1, 1, 1)
    assert candidates[0].predicted["folds"] == 1


def test_candidates_are_feasible_and_ranked():
    hw = HardwareConfig(16, 4, 4)
    candidates = enumerate_tiles(hw, TINY)
    keys = []
    for cand in candidates:
        plan = build_mapping(hw, TINY, cand.tile)  # must not raise
        assert plan.real_vn_size <= hw.num_ms
        keys.append((-cand.predicted["theoretical_utilization"],
                     cand.predicted["folds"]))
    assert keys == sorted(keys)


class TestExhaustive:
    def test_every_feasible_tile_of_a_resnet_layer(self):
        # brute force: a divisor tile fits when its cluster, plus a
        # forwarder if it folds under roundtrip, fits the fabric
        layer = resnet_layer(56)
        divisors = [[d for d in range(1, n + 1) if n % d == 0]
                    for n in tile_extents(layer)]
        fits = 0
        for t_r, t_s, t_c, *_ in product(*divisors):
            folds = (3 // t_r) * (3 // t_s) * (64 // t_c)
            forwarder = folds > 1  # HW64 folds by roundtrip
            fits += t_r * t_s * t_c + forwarder <= HW64.num_ms
        assert fits == 8512
        assert len(enumerate_tiles(HW64, layer)) == fits

    def test_first_pick_of_a_large_layer(self):
        # the full-utilization tile with the fewest folds lies past the
        # first 4,096 feasible tiles in product order
        first = enumerate_tiles(HW64, resnet_layer(112))[0]
        assert first.predicted["folds"] == 192


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_all_ones_tile_always_fits(data):
    # the invariant that makes an empty enumeration and an unmappable
    # tile unreachable: one leaf plus a forwarder fits num_ms >= 2
    hw = HardwareConfig(
        num_ms=2 ** data.draw(st.integers(1, 8)), dn_bw=1, rn_bw=1,
        folding=data.draw(st.sampled_from(FoldingStrategy)))
    layer = data.draw(layers())
    candidates = enumerate_tiles(hw, layer)
    assert TileConfig(1, 1, 1, 1, 1, 1, 1, 1) in [c.tile for c in candidates]
    for cand in candidates:
        assert build_mapping(hw, layer, cand.tile).n_vns_mapped >= 1


class TestRankBySimulation:
    def test_top_k_zero(self):
        candidates = enumerate_tiles(HW32, TINY)[:4]
        assert rank_by_simulation(candidates, HW32, TINY, top_k=0) == []

    def test_single_candidate_passthrough(self):
        layer = LayerConfig(LayerKind.CONV, r=1, s=1, c=1, g=1, k=1, n=1,
                            x=1, y=1)
        candidates = enumerate_tiles(HW32, layer)
        ranked = rank_by_simulation(candidates, HW32, layer, top_k=3)
        assert len(ranked) == 1
        assert ranked[0].tile == candidates[0].tile
        assert ranked[0].predicted["estimated_cycles"] > 0

    def test_fewer_folds_win_under_roundtrip(self):
        layer = LayerConfig(LayerKind.CONV, r=2, s=2, c=6, g=1, k=2, n=1,
                            x=4, y=4)
        candidates = enumerate_tiles(HW32, layer)
        folds1 = next(c for c in candidates if c.predicted["folds"] == 1)
        folds6 = next(c for c in candidates
                      if c.tile == TileConfig(2, 2, 1, 1, 1, 1, 1, 1))
        assert folds6.predicted["folds"] == 6
        ranked = rank_by_simulation([folds6, folds1], HW32, layer, top_k=2)
        assert ranked[0].predicted["folds"] == 1

    def test_order_is_deterministic(self):
        candidates = enumerate_tiles(HW32, TINY)[:6]
        a = rank_by_simulation(candidates, HW32, TINY, top_k=6)
        b = rank_by_simulation(candidates, HW32, TINY, top_k=6)
        assert [c.tile for c in a] == [c.tile for c in b]

    def test_ranking_counts_through_the_engine_entry_without_data(
            self, monkeypatch):
        # the benchmark counts simulated MACs and waves by wrapping
        # treefab.engine.simulate_layer, so every ranked tile must go
        # through it; none may draw data or sum outputs
        layer = LayerConfig(LayerKind.CONV, r=3, s=3, c=4, g=1, k=4, n=1,
                            x=10, y=10, padding=1)
        candidates = enumerate_tiles(HW32, layer)[:12]
        want = rank_by_simulation(candidates, HW32, layer, top_k=12)
        inputs, weights = memory.random_layer_data(layer, 0)
        for cand in want:
            assert cand.predicted["estimated_cycles"] == engine.simulate_layer(
                HW32, layer, cand.tile, inputs, weights).stats.total_cycles

        original = engine.simulate_layer
        calls = []

        def counted(*args, **kwargs):
            calls.append(inspect.signature(original).bind(*args, **kwargs))
            return original(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the ranking touched data")

        monkeypatch.setattr(engine, "simulate_layer", counted)
        monkeypatch.setattr(engine, "_outputs", refuse)
        monkeypatch.setattr(memory, "random_layer_data", refuse)
        assert rank_by_simulation(candidates, HW32, layer, top_k=12) == want
        assert len(calls) == 12
        for call in calls:
            assert call.arguments.get("inputs") is None
            assert call.arguments.get("weights") is None
