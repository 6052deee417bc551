"""Tile search.

Enumerates every tile whose edges divide the layer dimensions, keeps
all that fit the fabric, and ranks them by predicted utilization,
worked out from each tile's steps by arithmetic: enumeration builds no
mapping.  A second pass re-ranks a prefix of that order by simulated
cycle count (``search-tile`` passes its ``4 * top_k`` best), counting
cycles only, on no data.  Only that second pass is not exhaustive: the
fastest tile can fall outside the prefix.  It counts the candidates in a
few array passes (``engine.count_tiles``), not one by one, and then reads
each candidate's stats through ``engine.simulate_layer``.
"""

from __future__ import annotations

import math
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
from .mapper import cluster_fit
# unused here, but kept for callers that wrap this module's names
# (perfbench's tracer times ``treefab.tiler.build_mapping``)
from .mapper import build_mapping  # noqa: F401


@dataclass
class TileCandidate:
    tile: TileConfig
    predicted: dict  # theoretical_utilization, folds, estimated_cycles


def _divisors(n: int) -> list[int]:
    """n's divisors in ascending order: each d <= sqrt(n), then cofactors."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def enumerate_tiles(hw: HardwareConfig,
                    layer: LayerConfig) -> list[TileCandidate]:
    """Every feasible divisor tile, ranked by (utilization desc, folds asc),
    then by the tile's fields.

    Each tile's fit comes from ``mapper.cluster_fit`` on plain ints, and
    its utilization is ``MappingPlan.theoretical_utilization``'s, so no
    mapping is built.  The all-ones tile always fits (one leaf plus a
    forwarder against ``num_ms >= 2``), so the list is never empty.
    """
    extents = tile_extents(layer)
    ranked = []
    for steps in product(*map(_divisors, extents)):
        folds, _, real_vn_size, n_vns_mapped = cluster_fit(hw, extents, steps)
        if n_vns_mapped:
            ranked.append((-(n_vns_mapped * real_vn_size / hw.num_ms), folds,
                           steps))
    ranked.sort()
    return [TileCandidate(tile=TileConfig(*steps), predicted={
                "theoretical_utilization": -negated, "folds": folds})
            for negated, folds, steps in ranked]


def rank_by_simulation(candidates: list[TileCandidate], hw: HardwareConfig,
                       layer: LayerConfig, top_k: int) -> list[TileCandidate]:
    """Re-rank the candidates by simulated cycles; returns the best top_k.

    Ties break by utilization (desc) then lexicographic tile order, so
    the result is a total deterministic order.  Cycle counts do not depend
    on the data, so every simulation runs without any: it counts cycles
    and sums no output.  ``engine.count_tiles`` counts all the candidates,
    as many in one array pass as its bound on a pass's table allows, into
    one dict of the waves' DN and drain parts, the fold blocks' rows and
    each tile's totals, so each distribution, each batch geometry's
    reduction plan and each fold-block cut is counted once per call.
    ``engine.simulate_layer`` then runs once per candidate and reads its
    totals from that dict: a caller that wraps it (perfbench counts the
    simulated MACs and waves so) sees every candidate.
    """
    if top_k <= 0:
        return []
    replays: dict = {}
    engine.count_tiles(hw, layer, [cand.tile for cand in candidates],
                       replays)
    ranked = []
    for cand in candidates:
        # looked up at call time, so a wrapper installed on
        # treefab.engine.simulate_layer (perfbench counts MACs this way)
        # sees every simulation; each reads its tile's totals from replays
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
