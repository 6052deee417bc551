"""Tile-to-fabric compiler.

Translates (hardware, layer, tile) into a mapping plan, a plain
description of the cluster (VN) geometry: the cluster size, plus a
forwarder when folding needs one, and the clusters per batch, all from
``cluster_fit``, which the tile search calls on plain ints.  The leaf
assignment follows from it by ``reduction.clusters``, and the switch
configuration of the reduction network, for a batch of any size, by
``cluster_plan``; ``describe`` derives both on request.  One numpy
function, ``_grid``, cuts the output schedule and the fold blocks from
the layer, per tile shape and never per batch, as a ``Grid``: along each
axis the tiles of one size (the step, or the clamped remainder) have
their origins on one arithmetic progression, and each entry is a slice
of ``n_vns_mapped`` outputs of one tile shape (a fold block is a whole
tile), placed at the product of its axes' progressions.  ``Grid.expand``
lists the groups in issue order as a ``Cut`` (``batch_cut``,
``block_cut``), which holds their geometry: ``expand`` gives flat
coordinates with one length per group, ``coordinates`` some groups'
coordinates padded to the widest shape, and ``bounds`` each shape's
least offsets and spreads.  Both are canonical: each shape's least
offset is 0, so a group's least coordinate is its origin, and no two
shapes are equal up to a shift.  Distribution routes depend only on each
payload's destinations; ``fabric.generate_dn_routes`` builds them on
request, and the engine counts the switches on each payload's cover from
its sorted leaves through ``fabric.distribution``.
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

    def expand(self):
        """(coordinates, lengths): every group's coordinates in turn,
        shape (rows, axes), and the length of each group."""
        coords, used = self.coordinates(np.arange(len(self.shape)))
        return coords[used], self.sizes[self.shape]

    def bounds(self):
        """(low, spread): each shape's least offset along each axis, and
        the spread of its offsets from there, shape (shapes, axes)."""
        starts = self.sizes.cumsum() - self.sizes
        low = np.minimum.reduceat(self.offsets, starts)
        return low, np.maximum.reduceat(self.offsets, starts) - low

    def coordinates(self, groups):
        """(coordinates, used): each position's coordinates in ``groups``,
        shape (groups, width, axes) for the widest shape's width, and the
        mask of the used ones; a position past a shape's end repeats the
        shape's first one."""
        sizes, width = self.sizes, np.arange(self.sizes.max())
        used = width < sizes[self.shape[groups], None]
        start = (sizes.cumsum() - sizes)[self.shape[groups], None]
        at = np.where(used, start + width, start)
        return self.offsets[at] + self.origins[groups, None], used


class Grid(NamedTuple):
    """Groups placed at per-axis progressions of origins: entry ``i`` is
    group ``i`` of ``cut`` moved by ``p * step`` for each ``p`` below
    ``count[i]``, in tile ``tile[i] + p``.  The groups issue in
    lexicographic order of their tiles' coordinates, the first axis
    outermost, and the groups of one tile in entry order."""

    cut: Cut  # each entry's group at p = 0
    count: np.ndarray  # (entries, axes)
    step: np.ndarray  # (axes,)
    tile: np.ndarray  # (entries, axes)

    def expand(self) -> Cut:
        """The groups in issue order, as a cut of ``cut``'s shapes."""
        entry, p = self.issue()
        return Cut(self.cut.offsets, self.cut.sizes,
                   self.cut.origins[entry] + p * self.step,
                   self.cut.shape[entry])

    @classmethod
    def of(cls, cut: Cut) -> Grid:
        """``cut``'s groups in order as a grid, each an entry and a tile of
        its own, a count of 1 along every axis."""
        tile = np.zeros_like(cut.origins)
        tile[:, 0] = np.arange(len(tile))
        ones = np.ones_like(tile)
        return cls(cut, ones, ones[0], tile)

    def issue(self):
        """(entry, p): each group's entry and position along each axis,
        in issue order."""
        totals = self.count.prod(axis=1)
        entry = np.repeat(np.arange(len(totals)), totals)
        index = np.arange(len(entry)) - (totals.cumsum() - totals)[entry]
        p = np.empty((len(entry), self.count.shape[1]), np.int64)
        for axis in reversed(range(p.shape[1])):
            index, p[:, axis] = np.divmod(index, self.count[entry, axis])
        order = np.lexsort((self.tile[entry] + p).T[::-1])
        return entry[order], p[order]


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
        in issue order: ``batch_grid`` expanded.  Each batch maps one
        output per cluster slot and runs through every fold before the
        next batch starts."""
        return self.batch_grid().expand()

    def batch_grid(self) -> Grid:
        """The batches: each tile splits into slices of ``n_vns_mapped``
        outputs, the last shorter (``_grid``)."""
        return _grid(*_axes(self.layer, self.tile, _OUTPUT_AXES),
                     self.n_vns_mapped)

    def block_cut(self) -> Cut:
        """The fold blocks of (c, r, s) weight coordinates, in issue
        order, as a canonical cut: each tile whole."""
        extents, steps = _axes(self.layer, self.tile, _FOLD_AXES)
        return _grid(extents, steps, math.prod(steps)).expand()

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
            "batches": int(self.batch_grid().count.prod(axis=1).sum()),
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


def _number(columns):
    """(ids, first): each row of ``columns``, arrays of one shape that may
    hold any int64s, numbered among the distinct rows in lexicographic
    order, the first column outermost, and each id's first flat index."""
    flat = [np.ravel(column) for column in columns]
    order = np.lexsort(flat[::-1])  # stable: each id's first index leads
    head = np.zeros(len(order), bool)
    head[0] = True
    for column in flat:
        ranked = column[order]
        head[1:] |= ranked[1:] != ranked[:-1]
    ids = np.empty_like(order)
    ids[order] = head.cumsum() - 1
    return ids.reshape(np.shape(columns[0])), order[head]


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


def _grid(extents, steps, n) -> Grid:
    """Cut the box ``extents`` into tiles of ``steps``, issued in
    row-major order, and each tile into slices of ``n`` positions in
    row-major order, the last shorter, as a ``Grid`` of slices: a tile
    shape is a product of per-axis sizes (the step, or the clamped
    remainder), each slice of a shape is an entry, and the tiles of one
    size have their origins on one progression (the full tiles from 0, or
    the clamped last one).  A slice is the run ``start..start + length -
    1`` of its shape's box, so (box, length, ``start`` less the flat index
    of its least offset) fix its offsets less that offset: the slices are
    numbered by those three values, then merged where equal up to a
    shift."""
    # per axis, per tile size: (size, first tile, tiles)
    kinds = [[(t, 0, e // t)] + [(e % t, e // t, 1)] * (e % t > 0)
             for e, t in zip(extents, steps)]
    box, tile, count = (np.array(column) for column in zip(
        *(zip(*combo) for combo in product(*kinds))))
    # a box's row-major strides, and their products with its sizes
    span = np.multiply.accumulate(box[:, ::-1], axis=1)[:, ::-1]
    stride = span // box
    per_shape = -(-span[:, 0] // n)
    shape = np.repeat(np.arange(len(box)), per_shape)
    start = (np.arange(len(shape)) - np.repeat(
        per_shape.cumsum() - per_shape, per_shape)) * n
    span, stride, size = span[shape], stride[shape], box[shape]
    length = np.minimum(n, span[:, 0] - start)
    # along an axis the run's least offset is 0 where it wraps round the
    # axis, else its first position's
    first, last = start[:, None], (start + length - 1)[:, None]
    low = np.where(first // span == last // span, first // stride % size, 0)
    ids, at = _number([shape, length, start - (low * stride).sum(axis=1)])
    number = np.empty(len(at), np.int64)
    merged: dict[bytes, tuple[int, np.ndarray]] = {}
    for i, e in sorted(enumerate(at.tolist()), key=lambda ie: ie[1]):
        rows = (np.arange(start[e], start[e] + length[e])[:, None]
                // stride[e] % size[e] - low[e])
        number[i] = merged.setdefault(rows.tobytes(), (len(merged), rows))[0]
    kept = [rows for _, rows in merged.values()]
    slices = Cut(np.concatenate(kept), np.array([len(k) for k in kept]),
                 tile[shape] * steps + low, number[ids])
    return Grid(slices, count[shape], np.array(steps), tile[shape])


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
