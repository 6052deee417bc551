"""Exhaustive tile search.

Enumerates tiles whose edges divide the layer dimensions, keeps the ones
that fit the fabric, and ranks them by predicted utilization; a second
pass can re-rank the best candidates by simulated cycle count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import engine
from .config import (
    HardwareConfig,
    LayerConfig,
    TileConfig,
    field_values,
    tile_extents,
)
from .errors import MappingError, NoFeasibleTile
from .mapper import build_mapping, theoretical_utilization
from .memory import random_layer_data

ENUMERATION_CAP = 4096


@dataclass
class TileCandidate:
    tile: TileConfig
    predicted: dict  # theoretical_utilization, folds, estimated_cycles

    def sort_key(self):
        return (
            -self.predicted["theoretical_utilization"],
            self.predicted["folds"],
            field_values(self.tile),
        )


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def enumerate_tiles(hw: HardwareConfig,
                    layer: LayerConfig) -> list[TileCandidate]:
    """Feasible divisor tiles ranked by (utilization desc, folds asc).

    Enumeration walks the divisor combinations in product order (``T_R``
    outermost) and stops after ``ENUMERATION_CAP`` feasible candidates, so
    a capped search favours small ``T_R``.
    """
    candidates = []
    for combo in product(*map(_divisors, tile_extents(layer))):
        tile = TileConfig(*combo)
        try:
            plan = build_mapping(hw, layer, tile)
        except MappingError:
            continue
        util = theoretical_utilization(hw, plan)
        candidates.append(TileCandidate(
            tile=tile,
            predicted={
                "theoretical_utilization": util.fraction,
                "folds": plan.folds,
            },
        ))
        if len(candidates) >= ENUMERATION_CAP:
            break
    if not candidates:
        raise NoFeasibleTile(
            f"no divisor tile of the layer fits {hw.num_ms} multipliers"
        )
    candidates.sort(key=TileCandidate.sort_key)
    return candidates


def rank_by_simulation(candidates: list[TileCandidate], hw: HardwareConfig,
                       layer: LayerConfig, top_k: int,
                       seed: int = 0) -> list[TileCandidate]:
    """Re-rank the candidates by simulated cycles; returns the best top_k.

    Ties break by utilization (desc) then lexicographic tile order, so
    the result is a total deterministic order.  The simulations share one
    dict of wave records, so each wave signature is counted once per call.
    """
    if top_k <= 0:
        return []
    inputs, weights = random_layer_data(layer, seed)
    replays: dict = {}
    ranked = []
    for cand in candidates:
        # looked up at call time, so a wrapper installed on
        # treefab.engine.simulate_layer (perfbench counts MACs this way)
        # sees every simulation
        result = engine.simulate_layer(hw, layer, cand.tile, inputs, weights,
                                       replays=replays)
        predicted = dict(cand.predicted)
        predicted["estimated_cycles"] = result.stats.total_cycles
        ranked.append(TileCandidate(tile=cand.tile, predicted=predicted))
    ranked.sort(key=lambda c: (
        c.predicted["estimated_cycles"],
        -c.predicted["theoretical_utilization"],
        field_values(c.tile),
    ))
    return ranked[:top_k]
