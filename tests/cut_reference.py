"""Reference cut of the schedule and the fold blocks.

Cuts the layer's output box and filter box into tiles with one stable
argsort over every coordinate's tile number, as flat (coordinates,
lengths) arrays: the independent statement that ``MappingPlan``'s
factored cuts must expand to, byte for byte.  ``canonical`` states the
canonical form that the mapper builds its cuts in.
"""

import numpy as np

from treefab.config import derive_output_dims
from treefab.mapper import Cut


def flat(coords, lengths) -> Cut:
    """The canonical cut of groups given as flat coordinates and
    lengths."""
    return canonical(Cut(coords, lengths, np.zeros(
        (len(lengths), coords.shape[1]), coords.dtype),
        np.arange(len(lengths))))


def canonical(cut: Cut) -> Cut:
    """The same groups, each shape moved to least offset 0 with that
    least added to its groups' origins, and shapes equal up to a shift
    (the same size and offsets in position order) merged into one,
    numbered by first use: a group's least coordinate is its origin."""
    low, _ = cut.bounds()
    offsets = cut.offsets - np.repeat(low, cut.sizes, axis=0)
    ends = np.cumsum(cut.sizes)
    first = np.sort(np.unique(cut.shape, return_index=True)[1])
    number = np.zeros(len(cut.sizes), dtype=np.int64)
    merged: dict[bytes, int] = {}
    kept = []
    for old in cut.shape[first].tolist():
        rows = offsets[ends[old] - cut.sizes[old]:ends[old]]
        number[old] = merged.setdefault(rows.tobytes(), len(merged))
        if number[old] == len(kept):
            kept.append(old)
    return Cut(np.concatenate([offsets[ends[k] - cut.sizes[k]:ends[k]]
                               for k in kept]), cut.sizes[kept],
               cut.origins + low[cut.shape], number[cut.shape])


def cut(extents, steps):
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


def batch_array(plan):
    """The schedule's (n, g, k, ox, oy) coordinates and batch lengths:
    each tile splits into batches of ``n_vns_mapped``, the last shorter."""
    layer, tile = plan.layer, plan.tile
    coords, tiles = cut(
        (layer.n, layer.g, layer.k, *derive_output_dims(layer)),
        (tile.t_n, tile.t_g, tile.t_k, tile.t_x, tile.t_y))
    per_tile = -(-tiles // plan.n_vns_mapped)
    lengths = np.full(per_tile.sum(), plan.n_vns_mapped)
    lengths[np.cumsum(per_tile) - 1] = \
        tiles - (per_tile - 1) * plan.n_vns_mapped
    return coords, lengths


def block_array(plan):
    """The fold blocks' (c, r, s) coordinates and block lengths."""
    layer, tile = plan.layer, plan.tile
    return cut((layer.c, layer.r, layer.s), (tile.t_c, tile.t_r, tile.t_s))
