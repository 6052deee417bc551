"""Tile-to-fabric compiler.

Translates (hardware, layer, tile) into a mapping plan, a plain
description of the cluster (VN) geometry: the cluster size, plus a
forwarder when folding needs one, and the clusters per batch, all from
``cluster_fit``, which the tile search calls on plain ints.  The leaf
assignment follows from it by ``reduction.clusters``, and the switch
configuration of the reduction network, for a batch of any size, by
``cluster_plan``; ``describe`` derives both on request.  The output
schedule and the fold blocks are cut from the layer by one numpy
function, ``_cut``, as a factored ``Cut``: each tile is an origin plus
one of a few shapes (per axis the step, or the clamped remainder), and
each tile of outputs splits into batches, so a batch is a tile origin
plus one batch shape.  The two cuts are the mapping's only schedule,
built when asked for, and ``Cut`` holds their geometry: ``expand`` gives
flat coordinates with one length per group, ``coordinates`` some groups'
coordinates padded to the widest shape, and ``bounds`` each shape's
least offsets and spreads.  Distribution routes depend only on each
payload's destinations; ``fabric.generate_dn_routes`` builds them on
request, and the engine counts the switches on each payload's cover
level by level through ``fabric.distribution``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product
from typing import NamedTuple

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
from .errors import VnTooLarge
from .reduction import ReductionPlan, clusters, plan_reduction, switch_modes

_OUTPUT_AXES = ("N", "G", "K", "X'", "Y'")  # schedule coords (n, g, k, ox, oy)
_FOLD_AXES = ("C", "R", "S")  # fold block coords (c, r, s)


class Cut(NamedTuple):
    """Groups of coordinates, factored into shapes placed at origins:
    group ``i`` is the offsets of shape ``shape[i]`` plus ``origins[i]``.
    ``offsets`` holds every shape's offsets in turn, shape (rows, axes),
    and ``sizes`` the number of each shape's rows."""

    offsets: np.ndarray
    sizes: np.ndarray
    origins: np.ndarray  # (groups, axes)
    shape: np.ndarray  # (groups,)

    @classmethod
    def flat(cls, coords, lengths) -> Cut:
        """The trivial factoring of groups given as flat coordinates and
        lengths: each group is a shape of its own, at origin 0."""
        return cls(coords, lengths,
                   np.zeros((len(lengths), coords.shape[1]), coords.dtype),
                   np.arange(len(lengths)))

    def expand(self):
        """(coordinates, lengths): every group's coordinates in turn,
        shape (rows, axes), and the length of each group."""
        coords, used = self.coordinates(np.arange(len(self.shape)))
        return coords[used], self.sizes[self.shape]

    def bounds(self):
        """(low, spread): each shape's least offset along each axis, and
        the spread of its offsets from there, shape (shapes, axes)."""
        starts = np.cumsum(self.sizes) - self.sizes
        low = np.minimum.reduceat(self.offsets, starts)
        return low, np.maximum.reduceat(self.offsets, starts) - low

    def positions(self, shapes):
        """(at, used): the index in ``offsets`` of each position of
        ``shapes``, shape (shapes, width) for the widest shape's width,
        and the mask of the positions within each shape.  A position past
        a shape's end repeats the shape's first one."""
        used = np.arange(self.sizes.max()) < self.sizes[shapes, None]
        start = (np.cumsum(self.sizes) - self.sizes)[shapes, None]
        return np.where(used, start + np.arange(used.shape[1]), start), used

    def coordinates(self, groups):
        """(coordinates, used): each position's coordinates in ``groups``,
        shape (groups, width, axes), and the mask of the used ones."""
        at, used = self.positions(self.shape[groups])
        return self.offsets[at] + self.origins[groups, None], used


@dataclass(frozen=True)
class MappingPlan:
    hw: HardwareConfig
    layer: LayerConfig
    tile: TileConfig
    vn_size: int
    folds: int
    real_vn_size: int  # vn_size + 1 when folding needs a psum forwarder
    n_vns_mapped: int
    has_forwarder: bool

    @property
    def theoretical_utilization(self) -> float:
        """Fraction of multipliers the tile maps (forwarders count as used)."""
        return self.n_vns_mapped * self.real_vn_size / self.hw.num_ms

    def batch_cut(self) -> Cut:
        """The schedule's batches of output coordinates (n, g, k, ox, oy),
        in issue order.  Each tile splits into batches of
        ``n_vns_mapped``, the last shorter, so batch ``j`` of a tile is
        its origin plus slice ``j`` of its shape.  Each batch maps one
        output per cluster slot and runs through every fold before the
        next batch starts."""
        offsets, sizes, origins, shape = _cut(
            *_axes(self.layer, self.tile, _OUTPUT_AXES))
        n = self.n_vns_mapped
        per_shape = -(-sizes // n)
        ends = np.cumsum(per_shape)
        lengths = np.full(ends[-1], n)
        lengths[ends - 1] = sizes - (per_shape - 1) * n
        per_tile = per_shape[shape]
        tile_ends = np.cumsum(per_tile)
        # a tile's first batch takes its shape's first slice
        first = (ends - per_shape)[shape] - (tile_ends - per_tile)
        return Cut(offsets, lengths, np.repeat(origins, per_tile, axis=0),
                   np.repeat(first, per_tile) + np.arange(tile_ends[-1]))

    def block_cut(self) -> Cut:
        """The fold blocks of (c, r, s) weight coordinates, in issue
        order."""
        return _cut(*_axes(self.layer, self.tile, _FOLD_AXES))

    @property
    def schedule(self):
        """Batches of output coordinates, as lists of tuples."""
        coords, lengths = self.batch_cut().expand()
        rows = map(tuple, coords.tolist())
        return [list(islice(rows, length)) for length in lengths.tolist()]

    def describe(self) -> dict:
        """Serializable summary for inspection, of a full batch."""
        leaves = clusters(self.hw.num_ms, self.real_vn_size,
                          self.n_vns_mapped)
        rn = plan_reduction(leaves)
        roles = (["multiplier"] * self.vn_size
                 + ["forwarder"] * self.has_forwarder)
        return {
            "vn_size": self.vn_size,
            "real_vn_size": self.real_vn_size,
            "folds": self.folds,
            "n_vns_mapped": self.n_vns_mapped,
            "batches": len(self.batch_cut().shape),
            "ms_assignment": [
                {"leaf": i, "vn": vn, "role": "idle" if vn is None
                 else roles[i % self.real_vn_size]}
                for i, vn in enumerate(leaves)
            ],
            "rn_modes": {
                f"L{level}.{node}": mode.value
                for (level, node), mode in sorted(switch_modes(rn).items())
            },
            "rn_egress": {
                f"vn{vn}": {"as_index": idx, "latency": t}
                for vn, (idx, t) in sorted(rn.egress.items())
            },
        }


def cluster_plan(num_ms: int, width: int, count: int) -> ReductionPlan:
    """The reduction plan of ``count`` clusters of ``width`` leaves; the
    engine plans through here, where perfbench's tracer times it."""
    return plan_reduction(clusters(num_ms, width, count))


def compute_folds(layer: LayerConfig, tile: TileConfig) -> int:
    """Fold iterations needed for one output when the cluster cannot hold
    the whole R*S*C filter volume; folding is enabled iff the result > 1."""
    return _folds(*validate_tile(layer, tile))


def _folds(extents, steps) -> int:
    # R, S and C are the first three tile axes
    return math.prod([-(-e // t) for e, t in zip(extents[:3], steps[:3])])


def cluster_fit(hw: HardwareConfig, extents, steps):
    """(folds, has_forwarder, real_vn_size, n_vns_mapped) of a tile of
    ``steps`` over ``extents``, both in ``TILE_AXES`` order, on ``hw``.

    A cluster holds the tile's R*S*C volume, plus a psum forwarder when
    it folds by roundtrip, and as many clusters map as the fabric holds,
    up to the tile's outputs: ``n_vns_mapped`` is 0 when one cluster does
    not fit.
    """
    folds = _folds(extents, steps)
    has_forwarder = folds > 1 and hw.folding is FoldingStrategy.ROUNDTRIP
    real_vn_size = math.prod(steps[:3]) + has_forwarder
    return (folds, has_forwarder, real_vn_size,
            min(math.prod(steps[3:]), hw.num_ms // real_vn_size))


def _axes(layer: LayerConfig, tile: TileConfig, names):
    """(layer extents, tile steps) of the named axes, in that order."""
    pairs = dict(zip(TILE_AXES, zip(tile_extents(layer),
                                    field_values(tile))))
    return tuple(zip(*(pairs[name] for name in names)))


def _cut(extents, steps) -> Cut:
    """Cut the box ``extents`` into tiles of ``steps``, in row-major
    order over the tile grid: each tile's origin and shape index, and
    each distinct shape's offsets in product order.  Along each axis a
    tile spans the step, or the remainder where the last tile is
    clamped, so the shapes are the products of those sizes."""
    grid = tuple(-(-e // t) for e, t in zip(extents, steps))
    sizes = [(t,) if e % t == 0 else (t, e % t)
             for e, t in zip(extents, steps)]
    # shape indices run row-major over the axes' sizes, as ``product``
    # lists the shapes; a clamped last tile takes its axis's second size
    shape = np.zeros(grid, dtype=np.int64)
    for axis, kinds in enumerate(sizes):
        shape *= len(kinds)
        shape[(slice(None),) * axis + (-1,)] += len(kinds) - 1
    boxes = [np.indices(box).reshape(len(box), -1).T
             for box in product(*sizes)]
    return Cut(np.concatenate(boxes), np.array([len(b) for b in boxes]),
               np.indices(grid).reshape(len(grid), -1).T * np.array(steps),
               shape.ravel())


def build_mapping(hw: HardwareConfig, layer: LayerConfig,
                  tile: TileConfig) -> MappingPlan:
    """Compile the tile onto the fabric; deterministic."""
    folds, has_forwarder, real_vn_size, n_vns_mapped = cluster_fit(
        hw, *validate_tile(layer, tile))
    vn_size = tile.vn_size
    if not n_vns_mapped:
        raise VnTooLarge(
            f"cluster needs {real_vn_size} multipliers "
            f"(vn_size {vn_size}{' + 1 forwarder' if has_forwarder else ''}) "
            f"but the fabric has {hw.num_ms}"
        )
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
