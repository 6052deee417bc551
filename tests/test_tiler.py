"""Tile enumeration and ranking."""

import pytest

from treefab import (
    HardwareConfig,
    LayerConfig,
    LayerKind,
    NoFeasibleTile,
    TileConfig,
    build_mapping,
    enumerate_tiles,
    rank_by_simulation,
)
from treefab import tiler as tiler_mod
from treefab.errors import VnTooLarge

from common import HW32, TINY, VALIDATION_TILE


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


def test_no_feasible_tile(monkeypatch):
    # infeasibility cannot arise from real configs (a 1-element cluster
    # plus forwarder always fits num_ms >= 2), so force it
    def always_too_large(hw, layer, tile):
        raise VnTooLarge("forced")

    monkeypatch.setattr(tiler_mod, "build_mapping", always_too_large)
    with pytest.raises(NoFeasibleTile):
        enumerate_tiles(HW32, TINY)


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
