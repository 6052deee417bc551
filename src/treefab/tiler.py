"""Tile search.

Enumerates every tile whose edges divide the layer dimensions, keeps
all that fit the fabric, and ranks them by predicted utilization; a
second pass re-ranks a prefix of that order by simulated cycle count
(``search-tile`` passes its ``4 * top_k`` best), counting cycles only,
on no data.  Only that second pass is not exhaustive: the fastest tile
can fall outside the prefix.
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
from .errors import MappingError
from .mapper import build_mapping


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
    """Every feasible divisor tile, ranked by (utilization desc, folds asc).

    The all-ones tile always fits (one leaf plus a forwarder against
    ``num_ms >= 2``), so the list is never empty.
    """
    candidates = []
    for combo in product(*map(_divisors, tile_extents(layer))):
        tile = TileConfig(*combo)
        try:
            plan = build_mapping(hw, layer, tile)
        except MappingError:
            continue
        candidates.append(TileCandidate(
            tile=tile,
            predicted={
                "theoretical_utilization": plan.theoretical_utilization,
                "folds": plan.folds,
            },
        ))
    candidates.sort(key=TileCandidate.sort_key)
    return candidates


def rank_by_simulation(candidates: list[TileCandidate], hw: HardwareConfig,
                       layer: LayerConfig, top_k: int) -> list[TileCandidate]:
    """Re-rank the candidates by simulated cycles; returns the best top_k.

    Ties break by utilization (desc) then lexicographic tile order, so
    the result is a total deterministic order.  Cycle counts do not depend
    on the data, so every simulation runs without any: it counts cycles
    and sums no output.  The simulations share one dict of the waves'
    DN and drain parts, so each distribution, and each batch geometry's
    reduction plan, is counted once per call.
    """
    if top_k <= 0:
        return []
    replays: dict = {}
    ranked = []
    for cand in candidates:
        # looked up at call time, so a wrapper installed on
        # treefab.engine.simulate_layer (perfbench counts MACs this way)
        # sees every simulation
        result = engine.simulate_layer(hw, layer, cand.tile, replays=replays)
        predicted = dict(cand.predicted)
        predicted["estimated_cycles"] = result.stats.total_cycles
        ranked.append(TileCandidate(tile=cand.tile, predicted=predicted))
    ranked.sort(key=lambda c: (
        c.predicted["estimated_cycles"],
        -c.predicted["theoretical_utilization"],
        field_values(c.tile),
    ))
    return ranked[:top_k]
