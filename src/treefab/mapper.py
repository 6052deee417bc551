"""Tile-to-fabric compiler.

Translates (hardware, layer, tile) into a mapping plan: cluster (VN)
geometry, fold schedule, the leaf assignment of every multiplier switch,
and the control configuration of the distribution and reduction networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .config import (
    FoldingStrategy,
    HardwareConfig,
    LayerConfig,
    TileConfig,
    derive_output_dims,
    validate_tile,
)
from .errors import InfeasibleTile, VnTooLarge
from .reduction import ReductionPlan, plan_reduction


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
    # (c, r, s) weight coordinates of each fold iteration, in issue order
    fold_blocks: list[list[tuple[int, int, int]]]
    _rn_plans: dict[int, ReductionPlan] = field(default_factory=dict)

    @property
    def schedule(self):
        """Batches of output coordinates (n, g, k, ox, oy), built as they
        are iterated.  Each batch maps one output per cluster slot and runs
        through every fold before the next batch starts."""
        return _schedule(self.layer, self.tile, self.n_vns_mapped)

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
            "batches": sum(1 for _ in self.schedule),
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
    return (
        math.ceil(layer.r / tile.t_r)
        * math.ceil(layer.s / tile.t_s)
        * math.ceil(layer.c / tile.t_c)
    )


def _fold_blocks(layer: LayerConfig, tile: TileConfig):
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


def _schedule(layer: LayerConfig, tile: TileConfig, n_vns_mapped: int):
    ox, oy = derive_output_dims(layer)
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
                            yield step[i:i + n_vns_mapped]


def build_mapping(hw: HardwareConfig, layer: LayerConfig,
                  tile: TileConfig) -> MappingPlan:
    """Compile the tile onto the fabric; deterministic."""
    validate_tile(layer, tile)
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
        fold_blocks=_fold_blocks(layer, tile),
    )


def theoretical_utilization(hw: HardwareConfig,
                            plan: MappingPlan) -> TheoreticalUtilization:
    mapped = plan.n_vns_mapped * plan.real_vn_size
    return TheoreticalUtilization(mapped_ms=mapped,
                                  fraction=mapped / hw.num_ms)


def generate_dn_routes(num_ms: int, dn_bw: int, dest_leaves) -> dict:
    """Bit-vector routing tables for one distribution delivery.

    The distribution network is ``dn_bw`` binary sub-trees over
    ``num_ms // dn_bw`` leaves each.  Returns
    ``{(subtree, depth, idx): (left, right)}`` where a bit is set iff a
    destination leaf lies under that child; only switches on the
    multicast cover appear.  Sub-trees with a single leaf have no
    switches (direct wire).
    """
    per_tree = num_ms // dn_bw
    routes = {}
    if per_tree == 1:
        return routes
    depth_max = per_tree.bit_length() - 1  # switches at depths 0..depth_max-1
    dests = sorted(set(dest_leaves))
    by_tree: dict[int, list[int]] = {}
    for leaf in dests:
        by_tree.setdefault(leaf // per_tree, []).append(leaf % per_tree)
    for tree, local in by_tree.items():
        local_set = set(local)
        for depth in range(depth_max):
            span = per_tree >> depth
            nodes = {leaf // span for leaf in local_set}
            for idx in nodes:
                lo = idx * span
                mid = lo + span // 2
                left = any(lo <= leaf < mid for leaf in local_set)
                right = any(mid <= leaf < lo + span for leaf in local_set)
                routes[(tree, depth, idx)] = (left, right)
    return routes
