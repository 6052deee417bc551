"""Tile-to-fabric compiler.

Translates (hardware, layer, tile) into a mapping plan: cluster (VN)
geometry, the leaf assignment of every multiplier switch, and the switch
configuration of the reduction network.  The output schedule and the
fold blocks are cut from the layer by one numpy function, ``_cut``, as
flat coordinate arrays with one length per group; they are built when
asked for, never stored.  Distribution routes depend only on each
payload's destinations and are generated by ``fabric.generate_dn_routes``
as payloads are injected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import (
    FoldingStrategy,
    HardwareConfig,
    LayerConfig,
    TILE_AXES,
    TileConfig,
    field_values,
    tile_extents,
    validate_tile,
)
from .errors import InfeasibleTile, VnTooLarge
from .reduction import ReductionPlan, plan_reduction

_OUTPUT_AXES = ("N", "G", "K", "X'", "Y'")  # schedule coords (n, g, k, ox, oy)
_FOLD_AXES = ("C", "R", "S")  # fold block coords (c, r, s)


@dataclass(frozen=True)
class TheoreticalUtilization:
    """Fraction of multipliers the tile maps (forwarders count as used)."""

    mapped_ms: int
    fraction: float


@dataclass
class MappingPlan:
    hw: HardwareConfig
    layer: LayerConfig
    tile: TileConfig
    vn_size: int
    folds: int
    real_vn_size: int  # vn_size + 1 when folding needs a psum forwarder
    n_vns_mapped: int
    has_forwarder: bool
    _rn_plans: dict[int, ReductionPlan] = field(default_factory=dict)

    def batch_array(self):
        """(coordinates, lengths): the schedule's output coordinates
        (n, g, k, ox, oy) in issue order, shape (outputs, 5), and the
        length of each batch.  Each batch maps one output per cluster slot
        and runs through every fold before the next batch starts."""
        coords, tiles = _cut(*_axes(self.layer, self.tile, _OUTPUT_AXES))
        # each tile splits into batches of n_vns_mapped, the last shorter
        per_tile = -(-tiles // self.n_vns_mapped)
        lengths = np.full(per_tile.sum(), self.n_vns_mapped)
        lengths[np.cumsum(per_tile) - 1] = \
            tiles - (per_tile - 1) * self.n_vns_mapped
        return coords, lengths

    def block_array(self):
        """(coordinates, lengths): the fold blocks' (c, r, s) weight
        coordinates in issue order, shape (elements, 3), and the length
        of each block."""
        return _cut(*_axes(self.layer, self.tile, _FOLD_AXES))

    @property
    def schedule(self):
        """Batches of output coordinates, as lists of tuples."""
        return _groups(*self.batch_array())

    @property
    def fold_blocks(self):
        """Fold blocks of weight coordinates, as lists of tuples."""
        return _groups(*self.block_array())

    def slot_start(self, slot: int) -> int:
        return slot * self.real_vn_size

    def element_leaf(self, slot: int, elem_idx: int) -> int:
        return self.slot_start(slot) + elem_idx

    def forwarder_leaf(self, slot: int) -> int:
        if not self.has_forwarder:
            raise InfeasibleTile("mapping has no forwarder multipliers")
        return self.slot_start(slot) + self.vn_size

    def ms_assignment(self, n_occupied: int | None = None):
        """Per-leaf (slot, role) records; role is multiplier/forwarder/idle."""
        if n_occupied is None:
            n_occupied = self.n_vns_mapped
        assignment = [(None, "idle")] * self.hw.num_ms
        for slot in range(n_occupied):
            start = self.slot_start(slot)
            for e in range(self.vn_size):
                assignment[start + e] = (slot, "multiplier")
            if self.has_forwarder:
                assignment[start + self.vn_size] = (slot, "forwarder")
        return assignment

    def vn_of_leaf(self, n_occupied: int | None = None):
        return [slot for slot, _ in self.ms_assignment(n_occupied)]

    def reduction_plan(self, n_occupied: int) -> ReductionPlan:
        if n_occupied not in self._rn_plans:
            self._rn_plans[n_occupied] = plan_reduction(
                self.vn_of_leaf(n_occupied)
            )
        return self._rn_plans[n_occupied]

    def describe(self) -> dict:
        """Serializable summary for inspection."""
        rn = self.reduction_plan(self.n_vns_mapped)
        return {
            "vn_size": self.vn_size,
            "real_vn_size": self.real_vn_size,
            "folds": self.folds,
            "n_vns_mapped": self.n_vns_mapped,
            "batches": len(self.batch_array()[1]),
            "ms_assignment": [
                {"leaf": i, "vn": slot, "role": role}
                for i, (slot, role) in enumerate(self.ms_assignment())
            ],
            "rn_modes": {
                f"L{level}.{node}": mode.value
                for (level, node), mode in sorted(rn.modes.items())
            },
            "rn_egress": {
                f"vn{vn}": {"as_index": idx, "latency": t}
                for vn, (idx, t) in sorted(rn.egress.items())
            },
        }


def compute_folds(layer: LayerConfig, tile: TileConfig) -> int:
    """Fold iterations needed for one output when the cluster cannot hold
    the whole R*S*C filter volume; folding is enabled iff the result > 1."""
    validate_tile(layer, tile)
    extents, steps = _axes(layer, tile, _FOLD_AXES)
    return math.prod(math.ceil(e / t) for e, t in zip(extents, steps))


def _axes(layer: LayerConfig, tile: TileConfig, names):
    """(layer extents, tile steps) of the named axes, in that order."""
    pairs = dict(zip(TILE_AXES, zip(tile_extents(layer),
                                    field_values(tile))))
    return tuple(zip(*(pairs[name] for name in names)))


def _cut(extents, steps):
    """Cut the box ``extents`` into tiles of ``steps``: (coordinates,
    lengths), the coordinates of every tile in turn, outermost axis first
    and each tile in product order, and the length of each tile."""
    coords = np.indices(extents).reshape(len(extents), -1)
    tiles = np.ravel_multi_index(
        tuple(coords // np.array(steps)[:, None]),
        tuple(-(-e // t) for e, t in zip(extents, steps)))
    # a stable sort keeps product order within each tile
    order = np.argsort(tiles, kind="stable")
    return coords.T[order], np.bincount(tiles)


def _groups(coords, lengths):
    """Yield each group of ``coords`` as a list of tuples."""
    rows = list(map(tuple, coords.tolist()))
    start = 0
    for length in lengths.tolist():
        yield rows[start:start + length]
        start += length


def build_mapping(hw: HardwareConfig, layer: LayerConfig,
                  tile: TileConfig) -> MappingPlan:
    """Compile the tile onto the fabric; deterministic."""
    folds = compute_folds(layer, tile)
    vn_size = tile.vn_size
    has_forwarder = folds > 1 and hw.folding is FoldingStrategy.ROUNDTRIP
    real_vn_size = vn_size + 1 if has_forwarder else vn_size
    if real_vn_size > hw.num_ms:
        raise VnTooLarge(
            f"cluster needs {real_vn_size} multipliers "
            f"(vn_size {vn_size}{' + 1 forwarder' if has_forwarder else ''}) "
            f"but the fabric has {hw.num_ms}"
        )
    n_vns_mapped = min(tile.n_vns, hw.num_ms // real_vn_size)
    if n_vns_mapped < 1:
        raise InfeasibleTile("no cluster fits the fabric")
    return MappingPlan(
        hw=hw,
        layer=layer,
        tile=tile,
        vn_size=vn_size,
        folds=folds,
        real_vn_size=real_vn_size,
        n_vns_mapped=n_vns_mapped,
        has_forwarder=has_forwarder,
    )


def theoretical_utilization(hw: HardwareConfig,
                            plan: MappingPlan) -> TheoreticalUtilization:
    mapped = plan.n_vns_mapped * plan.real_vn_size
    return TheoreticalUtilization(mapped_ms=mapped,
                                  fraction=mapped / hw.num_ms)
