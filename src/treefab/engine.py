"""Cycle-accurate wave engine.

A mapping plan runs batch by batch.  Each batch maps one output per
cluster and iterates over all fold blocks; each fold is a wave:

1. distribute the fold's weights (shared weights multicast once),
2. distribute the fold's inputs, plus the stored partial sum to the
   cluster's forwarder switch on roundtrip folds after the first,
3. one multiply cycle,
4. reduce through the tree and drain egress values over the collector
   buses into the prefetch buffer.

With the roundtrip strategy every fold pays the reduction latency and a
partial-sum write/read through the buffer.  With the ideal strategy the
egress adder accumulates locally, folds pipeline through the tree, and
only the final fold of a batch pays the reduction latency and drain.
With a single fold the two strategies execute identically.

The engine moves no value through the fabric: it counts each distinct
wave's cycles and counters once (``_records``).  Nothing in them depends
on the data or on the absolute cycle: the buffer has no ports, so it
serves reads and writes whatever the cycle; the DN's cycles, reads and
switch traversals depend only on each payload's set of destination
leaves; the MS, RN and CB counters depend only on the batch size, its
reduction plan, and whether the fold is the first or the last.  So a
wave's *signature* is

* its batch size and its fold block length,
* whether its fold is the first and whether it is the last,
* the canonical partition of its weight addresses and of its input
  addresses: for each (slot, element) position, numbered ``slot*length +
  element`` over the wave's own batch and block, the first position with
  the same address, or -1 for a padding tap.

Waves with one signature send the same payloads (the classes of the
partitions) to the same leaves, so they take the same cycles and add the
same counts.  The leaf of position (slot, e) is ``slot*real_vn_size +
e``, a slot's forwarder (if clusters hold one) is its last leaf
(``reduction.clusters``), and the batch's reduction plan and drain
follow from the batch size and that width (``_drain``).  So a wave's
record depends only on the hardware, the geometry (``real_vn_size`` and
the forwarder flag) and the signature (``_records``).  It is a few sums
over three parts, each counted once per distinct key of the ints, bools
and bytes it reads.  The weights and then the inputs are distributed in
two phases, and each phase's PB reads, cycles and switch traversals
depend only on its own payloads' leaf sets, so each distribution is a
part (``_distribute``), keyed by the multiplier count, the DN bandwidth,
the cluster width, the block length, whether it forwards a partial sum
(only an input distribution may) and its partition's bytes: a weight
distribution and an input distribution that forwards nothing, with the
same bytes, are one part.  The drain (``_drain``) is keyed by the
multiplier count, the bus count and the batch geometry.  The fold flags
only pick which counts apply, so a batch's folds share the drain, and
waves whose input partitions differ can share a weight distribution.
The DN cycles and switch traversals and the bus grants come from
``fabric.distribution`` and ``fabric.bus_grants``, the one statement of
each rule.
``treefab.fabric`` and ``memory.PrefetchBuffer`` model the same fabric
step by step, on values, calling the same two functions; the test suite
walks every wave through them as the reference that the counts must
match.

The mapper gives the batches as a ``mapper.Grid`` (each entry a batch
shape at one arithmetic progression of origins per axis) and the blocks
as a ``mapper.Cut``; two groups of one shape hold the same coordinates,
position by position, up to a shift.  Each wave gets a closed-form *key*:

* its batch's shape and its block's shape;
* whether its fold is the first and whether it is the last;
* X border class: with ``base = ox_min*stride + r_min - padding`` and
  ``span`` the spread of ``ox*stride + r`` over the wave, 0 when
  ``[base, base + span]`` lies inside ``[0, X)``, else ``base + padding +
  1``; the Y border class likewise.

The key fixes the signature.  The shapes fix the batch size, the block
length and each position's coordinates up to one shift of ``(n, g, k,
ox, oy)`` and one of ``(c, r, s)``.  A weight address is linear in ``(g,
k, c, r, s)``, and an input address in ``(n, g, c, ox*stride + r,
oy*stride + s)``, so the shifts move every address of the wave alike
and keep which positions share one.  Whether a tap falls in the padding
depends, given the shapes, only on ``base``, which the border class
gives wherever it matters.  So the keying is exact on any grid; one
whose shapes are not canonical only yields more keys.

No key needs a batch of its own.  One step (``_rows``) numbers the
groups of either cut by rows.  A *slice row* holds the grid entries that
agree in shape, least ``ox`` and ``oy`` and X and Y origin counts,
weighted by their N, G and K origin counts; a block row (``_block_rows``)
the blocks that agree in shape, fold flags and least ``r`` and ``s``, a
count and a weight of 1 each.  Along X, a (slice row, block row) pair's
``base`` at origin position ``p`` is ``base_0 + p*step*stride``, growing
with ``p``, so its positions inside the input are one range ``lo..hi``,
in closed form, and each other position is a border class of its own.
The pass (``_count``) keys the (slice row, block row, X class, Y class)
tuples, counts each key's waves from the rows' weights and the classes'
sizes, and counts one wave's record per key (``_records``), on its slice
row's first group moved to the class and with the fold flags of its
block row's id columns, from the three parts of its signature, shared
through ``replays`` (``simulate_layer``).  Each numbering of rows
(``mapper._number``) orders them lexicographically on their columns,
which may hold any int64s, so no column needs a bound.  The range check
reads each entry's first and last origin.

The pass counts a list of tiles of one layer on one fabric at once, and
it is the only counting code: ``simulate_layer`` runs it on one tile,
``count_tiles`` on a search's candidates, as many at a time as hold
``PASS_PAIRS`` (grid entry, block row) pairs.  It numbers the slice rows
of every tile's grid in one ``_rows`` call, each grid's shape ids
offset past the last grid's, so no row and no key spans two tiles and
each tile's keys are consecutive.  It pairs each slice row only with its
own tile's block rows, which ``replays`` keeps per fold geometry under
``"blocks"``: the pairs are listed ragged, slice row by slice row, so a
list of one tile gives the pairs and key ids of a tile counted alone.
Each key's record reads its own tile's ``real_vn_size`` and forwarder
flag, and each tile's totals are summed over its keys in Python ints.
``count_tiles`` keeps them in ``replays`` under ``"counts"``, keyed by
the plain fields of the hardware, the layer and the tile, and an
untraced ``simulate_layer`` reads them there: a search calls it once per
candidate still, so a wrapper on it sees every simulated layer.  Only a
trace or an output sum walks the batches one by one (``Grid.issue``),
once for both.  A traced call counts on the walk as a grid (``Grid.of``),
each batch an entry with a count of 1, so each (slice row, block row)
pair is one key, and a batch's keys are its slice row's.

None of this reads the data, so a call without inputs and weights
counts the same stats and trace events and stops there; the tile search
ranks that way.  Given data, the outputs are exact sums over (schedule
output x fold element) pairs, one contraction per image: every output
window's taps at the fold blocks' elements, gathered from the
zero-padded input, times each group's weights at the same elements.
The sum still follows the schedule: the element list is taken with its
multiplicity, and ``np.add.at`` adds each scheduled output once per
occurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import (
    FoldingStrategy,
    HardwareConfig,
    LayerConfig,
    TileConfig,
    field_values,
    total_macs,
)
from .errors import AddressOutOfRange, ValidationError
from .fabric import bus_grants, distribution
from .mapper import (Cut, Grid, MappingPlan, _number, build_mapping,
                     cluster_plan)
from .memory import (check_layer_data, fit_outputs, input_dims,
                     output_dims, padded_inputs, weight_dims)

@dataclass
class SimStats:
    total_cycles: int
    busy_ms_cycles: int  # ms_multiplications + forwarder_injections
    effective_ms_utilization: float
    theoretical_utilization: float
    ms_multiplications: int
    forwarder_injections: int
    pb_reads: int
    pb_writes: int
    ds_traversals: int
    as_additions: int
    fifo_pushes: int
    fifo_pops: int  # == fifo_pushes: each FIFO drains within its wave
    cb_grants: int
    cb_conflicts: int
    fold_roundtrips: int  # == forwarder_injections: each psum returns once
    folds: int
    waves: int
    n_vns_mapped: int
    vn_size: int
    real_vn_size: int
    strategy: str

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class SimResult:
    output: np.ndarray | None  # (N, G, K, X', Y'); None without data
    stats: SimStats
    mapping: MappingPlan


# the SimStats fields a wave's record counts, in record order
COUNTED = ("ms_multiplications", "forwarder_injections", "pb_reads",
           "pb_writes", "ds_traversals", "as_additions", "fifo_pushes",
           "cb_grants", "cb_conflicts")


def layer_stats(mapping: MappingPlan, cycles: int, waves: int,
                counts) -> SimStats:
    """The stats document of a run; ``counts`` are in ``COUNTED`` order."""
    hw = mapping.hw
    counted = dict(zip(COUNTED, counts))
    busy = counted["ms_multiplications"] + counted["forwarder_injections"]
    return SimStats(
        total_cycles=cycles,
        busy_ms_cycles=busy,
        effective_ms_utilization=busy / (hw.num_ms * cycles),
        theoretical_utilization=mapping.theoretical_utilization,
        fifo_pops=counted["fifo_pushes"],
        fold_roundtrips=counted["forwarder_injections"],
        folds=mapping.folds,
        waves=waves,
        n_vns_mapped=mapping.n_vns_mapped,
        vn_size=mapping.vn_size,
        real_vn_size=mapping.real_vn_size,
        strategy=hw.folding.value,
        **counted,
    )


# the (grid entry, block row) pairs that one pass of ``count_tiles`` takes
# past its first tile: the bound on a pass's tables, and so on its memory
PASS_PAIRS = 2048


def check_size(layer: LayerConfig) -> int:
    """The layer's MACs; raises ``ValidationError`` when they or its
    input elements reach 2**63, since the two bound every int64 that a
    count holds (addresses, waves, weights).  Called before any data is
    drawn or any grid built."""
    macs, elements = total_macs(layer), math.prod(input_dims(layer))
    if max(macs, elements) >= 2 ** 63:
        raise ValidationError(f"layer has {macs} MACs and {elements} input "
                              "elements; int64 holds 2**63 - 1 at most")
    return macs


def simulate_layer(hw: HardwareConfig, layer: LayerConfig, tile: TileConfig,
                   inputs: np.ndarray | None = None,
                   weights: np.ndarray | None = None,
                   trace=None, replays=None) -> SimResult:
    """Run one layer through the fabric; deterministic for fixed inputs.

    The cycles and counters do not depend on the data, so ``inputs`` and
    ``weights`` are optional: with both, the result holds the output
    sums; with neither, the call only counts, and ``output`` is None.
    Passing one without the other raises ``ValidationError``, as does a
    layer with more MACs or input elements than an int64 holds
    (``check_size``).

    ``trace``, if given, is called once per wave, in order, with the
    wave's number, fold, batch size, weight and input distribution
    cycles, and the cycle at which it ends.

    ``replays``, if given, is a dict the caller owns, from the keys
    tagged ``"dn"`` and ``"drain"`` to the parts of the waves' records
    (``_records``), and from the keys tagged ``"blocks"`` to a fold-block
    cut's rows (``_Rows``, the type of the slice rows too, which holds
    the cut); it is read and filled, so calls that share it count each
    distribution and each batch geometry's drain once, and cut and key
    each fold-block geometry once.  Without it the call uses a dict of
    its own.  An untraced call reads its tile's totals from the entry
    tagged ``"counts"`` when ``count_tiles`` left one there, and
    otherwise counts the tile as a list of one; so a search counts its
    candidates in a few passes and still runs this once per tile, which
    is where a caller that wraps it sees every simulated layer.
    """
    mapping = build_mapping(hw, layer, tile)
    macs = check_size(layer)
    if (inputs is None) != (weights is None):
        raise ValidationError("give both inputs and weights, or neither")
    if inputs is not None:
        inputs, weights = check_layer_data(layer, inputs, weights)
    if replays is None:
        replays = {}
    counted = None if trace is not None else replays.get(
        _counts_key(hw, layer, tile))
    grid = (mapping.batch_grid() if counted is None or inputs is not None
            else None)
    # the trace and the output sum read one walk of the batches
    walk = None if trace is None and inputs is None else grid.expand()
    blocks = _blocks(layer, mapping, replays)
    if counted is None:
        # a traced call counts each batch as an entry of its own
        slices, ids, _, records, (counted,) = _count(
            hw, layer, [(mapping, grid if trace is None else Grid.of(walk))],
            replays)
    if trace is not None:
        # a batch's entry has a count of 1, so each pair is one key
        keys = ids.reshape(len(slices.first), -1)[slices.row]
        cycle = 0
        for b, (size, batch) in enumerate(zip(
                walk.sizes[walk.shape].tolist(), keys)):
            for f, (wc, ic, wave) in enumerate(
                    records[batch[blocks.row], :3].tolist()):
                cycle += wave
                trace({
                    "wave": b * len(blocks.row) + f + 1, "fold": f,
                    "batch_size": size, "cycle": cycle,
                    "weight_cycles": wc, "input_cycles": ic,
                })
    stats = layer_stats(mapping, *counted)
    assert stats.ms_multiplications == macs
    output = None if inputs is None else _outputs(
        layer, walk.expand()[0], blocks.cut.expand()[0], inputs, weights)
    return SimResult(output=output, stats=stats, mapping=mapping)


def count_tiles(hw: HardwareConfig, layer: LayerConfig, tiles,
                replays) -> None:
    """Count ``tiles`` of ``layer`` on ``hw`` and keep each tile's totals
    in ``replays`` under its ``"counts"`` key, which ``simulate_layer``
    reads.  The tiles go through ``_count`` in turn, as many in one pass
    as hold ``PASS_PAIRS`` (grid entry, block row) pairs, and at least
    one."""
    check_size(layer)
    runs, pairs = [], 0
    for i, tile in enumerate(tiles, 1):
        mapping = build_mapping(hw, layer, tile)
        grid = mapping.batch_grid()
        runs.append((mapping, grid))
        pairs += len(grid.cut.shape) * len(
            _blocks(layer, mapping, replays).first)
        if pairs >= PASS_PAIRS or i == len(tiles):
            for (mapping, _), totals in zip(
                    runs, _count(hw, layer, runs, replays)[-1]):
                replays[_counts_key(hw, layer, mapping.tile)] = totals
            runs, pairs = [], 0


def _counts_key(hw: HardwareConfig, layer: LayerConfig, tile: TileConfig):
    """The ``replays`` key of a tile's totals: the fields of the three
    configs as plain values."""
    return ("counts", *(getattr(value, "value", value)
                        for config in (hw, layer, tile)
                        for value in field_values(config)))


def _blocks(layer: LayerConfig, mapping: MappingPlan, replays) -> _Rows:
    """The mapping's fold-block rows, kept in ``replays``: the fold blocks
    read only these fields, so every call that agrees in them shares one
    keying of the block cut."""
    tile = mapping.tile
    key = ("blocks", layer.c, layer.r, layer.s, tile.t_c, tile.t_r, tile.t_s)
    if key not in replays:
        replays[key] = _block_rows(layer, mapping.block_cut())
    return replays[key]


class _Rows(NamedTuple):
    """A cut's groups numbered by rows: each group's row, and per row its
    first group, its id columns, shape (columns, rows), its least
    coordinate, spread and origin count along the last two axes, shape (2,
    rows), its weight, and its first group's ``Cut.coordinates``."""

    cut: Cut
    row: np.ndarray
    first: np.ndarray
    ids: np.ndarray
    least: np.ndarray
    spread: np.ndarray
    count: np.ndarray
    weight: np.ndarray
    coords: np.ndarray
    used: np.ndarray


def _rows(cut: Cut, ids, count, weight, dims, what, reach=0) -> _Rows:
    """``cut``'s rows: its groups keyed by (the ``ids`` columns, least
    coordinate and origin ``count`` along the last two axes), each row
    weighted by its groups' ``weight`` summed.  Raises
    ``AddressOutOfRange`` unless every group, moved on by up to its
    ``reach``, lies within ``dims``."""
    spread, least = _check_range(cut, dims, what, reach)
    least, count = least[-2:], count[:, -2:].T
    row, first = _number([*ids, least[0], count[0], least[1], count[1]])
    total = np.zeros(len(first), np.int64)
    np.add.at(total, row, weight)
    return _Rows(cut, row, first, np.array(ids)[:, first], least[:, first],
                 spread[cut.shape[first], -2:].T, count[:, first], total,
                 *cut.coordinates(first))


def _block_rows(layer: LayerConfig, blocks: Cut) -> _Rows:
    """The fold blocks' rows: a block's shape and fold flags (whether its
    fold follows the first, and whether it is the last) as id columns,
    its least ``r`` and ``s``, a count of 1 and a weight of 1 each.
    Raises ``AddressOutOfRange`` where a block leaves the filter."""
    fold = np.arange(len(blocks.shape))
    return _rows(blocks, [blocks.shape, fold > 0, fold == len(fold) - 1],
                 np.ones_like(blocks.origins), 1,
                 weight_dims(layer)[2:], "weight (c, r, s)")



def _count(hw: HardwareConfig, layer: LayerConfig, runs, replays):
    """One counting pass over ``runs``, each a tile's (mapping, batch
    grid) for ``layer`` on ``hw``: (slices, ids, waves, records, totals),
    the slice rows of every grid, the key id of each (slice row, block
    row, X class, Y class), listed per (slice row, block row) pair, X
    class outermost, each key's count of waves and their weight, input
    and wave cycles and ``COUNTED`` counters (``_records``), and per run
    its (cycles, waves, ``COUNTED`` sums) in Python ints.

    The grids' slice rows are numbered in one ``_rows`` call, each grid's
    shape ids after the last grid's, so no row and no key spans two
    tiles, and a tile's keys are consecutive.  Each slice row pairs with
    its own tile's fold-block rows (``_blocks``), the pairs listed
    ragged, slice row by slice row.  Along X and Y, a pair's class index
    ``q`` runs over the positions below ``lo``, then the range ``lo..hi``
    inside the input, at ``lo``, then those past."""
    grids = [grid for _, grid in runs]
    sets = [_blocks(layer, mapping, replays) for mapping, _ in runs]
    if len(runs) == 1:
        cut, count, blocks, start = grids[0].cut, grids[0].count, sets[0], [0]
        reach = (count - 1) * grids[0].step
    else:
        cut = _join([grid.cut for grid in grids])
        count = np.concatenate([grid.count for grid in grids])
        reach = np.concatenate([(g.count - 1) * g.step for g in grids])
        blocks, start = _join_blocks(sets)
    slices = _rows(cut, [cut.shape], count,
                   np.multiply.reduce(count[:, :3], axis=1),
                   output_dims(layer), "output", reach)
    # each slice row's tile, from its shape, and its X and Y steps; each
    # pair's slice row and its block row among its tile's
    shapes = np.cumsum([len(grid.cut.sizes) for grid in grids])
    tile = np.searchsorted(shapes, slices.ids[0], "right")
    step = np.array([grid.step[3:] for grid in grids])[tile].T
    folds = np.array([len(rows.first) for rows in sets])
    r, j = _ragged(folds[tile])
    j += np.array(start)[tile[r]]
    base = (slices.least[:, r] * layer.stride - layer.padding
            + blocks.least[:, j])
    span = slices.spread[:, r] * layer.stride + blocks.spread[:, j]
    count, stride = slices.count[:, r], step[:, r] * layer.stride
    last = np.array([[layer.x - 1], [layer.y - 1]]) - span
    lo = np.maximum(-(base // stride), 0)
    hi = np.minimum((last - base) // stride, count - 1)
    n = count - np.maximum(hi - lo, 0)
    pair, index = _ragged(n[0] * n[1])
    q = np.array(np.divmod(index, n[1][pair]))
    base, lo, hi, stride = (a[:, pair] for a in (base, lo, hi, stride))
    # each class's first position; the range's is lo
    inner = hi - lo
    p = q + (q > lo) * np.maximum(inner, 0)
    inside = (lo <= p) & (p <= hi)
    value = np.where(inside, 0, base + p * stride + layer.padding + 1)
    size = np.where(inside, inner + 1, 1)
    r, j = r[pair], j[pair]
    ids, first = _number([*slices.ids[:, r], *blocks.ids[:, j], *value])
    waves = np.zeros(len(first), np.int64)
    np.add.at(waves, ids, slices.weight[r] * size[0] * size[1]
              * blocks.weight[j])
    # one batch of each key: its row's first group, moved to the class's
    # first positions, on its tile's cluster geometry
    r, j = r[first], j[first]
    outs = slices.coords[r]
    outs[:, :, 3:] += (p[:, first] * step[:, r]).T[:, None]
    keyed = tile[r]
    records = _records(hw, layer, outs, slices.used[r], blocks, j,
                       [mapping for mapping, _ in runs], keyed, replays)
    totals, ends = [], np.searchsorted(keyed, np.arange(len(runs)), "right")
    for a, b in zip([0, *ends[:-1].tolist()], ends.tolist()):
        total = waves[a:b].astype(object) @ records[a:b]  # no int64 wrap
        totals.append((total[2], sum(waves[a:b].tolist()),
                       total[3:].tolist()))
    return slices, ids, waves, records, totals


def _ragged(counts):
    """(owner, index): for ``counts.sum()`` items listed owner by owner,
    ``counts[i]`` of owner ``i``, each item's owner and its index among
    its owner's items."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (counts.cumsum() - counts)[owner]


def _join(cuts) -> Cut:
    """The groups of ``cuts`` in turn as one cut, each cut's shapes
    numbered after the last one's."""
    shapes = np.cumsum([0] + [len(cut.sizes) for cut in cuts[:-1]])
    return Cut(np.concatenate([cut.offsets for cut in cuts]),
               np.concatenate([cut.sizes for cut in cuts]),
               np.concatenate([cut.origins for cut in cuts]),
               np.concatenate([cut.shape + s
                               for cut, s in zip(cuts, shapes.tolist())]))


def _join_blocks(sets):
    """(blocks, start): the distinct fold-block rows among ``sets`` as
    one table, its coordinates padded to the widest block, and the index
    of each set's first row there."""
    kept = list({id(rows): rows for rows in sets}.values())
    at = np.cumsum([0] + [len(rows.first) for rows in kept])
    start = {id(rows): s for rows, s in zip(kept, at.tolist())}
    wide = max(rows.used.shape[1] for rows in kept)

    def padded(a):
        return np.pad(a, [(0, 0), (0, wide - a.shape[1])]
                      + [(0, 0)] * (a.ndim - 2))

    blocks = _Rows(None, None, None, *(
        np.concatenate(column, axis=-1)
        for column in zip(*(rows[3:8] for rows in kept))), *(
        np.concatenate(list(map(padded, column)))
        for column in zip(*(rows[8:] for rows in kept))))
    return blocks, [start[id(rows)] for rows in sets]


def _records(hw: HardwareConfig, layer: LayerConfig, outs, slots,
             blocks: _Rows, j, plans, tile, replays):
    """Per wave ``i``, given as its outputs' coordinates ``outs[i]`` and
    used ``slots[i]`` (``Cut.coordinates``), its block row ``j[i]`` and
    its mapping ``plans[tile[i]]``, its weight, input and wave cycles,
    then its ``COUNTED`` counters, shape (waves, 12), assembled from the
    three parts of its signature on ``hw`` and the mapping's cluster
    geometry.

    The weight and the input distribution (``_distribute``, tagged
    ``"dn"``) and the drain (``_drain``) are kept in ``replays`` under
    keys that hold just the values each part reads, and counted when
    missing, so waves and calls that agree in a key share its part, even
    on hardware that differs in a field the part does not read.  The fold
    flags, read off the block row's ids, then pick which counts apply: a
    forwarding fold injects one partial sum per slot, an ideal fold after
    the first adds it at the egress, and only a draining fold (every
    roundtrip fold, the last ideal one) pays the drain and writes its sums.
    """
    # per used position (slot, e), in wave order and each wave's in
    # slot*length + e order: its weight address, input address and input
    # row and column, each an output part plus an element part
    sizes, lengths = slots.sum(axis=1), blocks.used[j].sum(axis=1)
    wave, local = _ragged(sizes * lengths)
    slot, e = np.divmod(local, lengths[wave])
    start = np.arange(len(wave)) - local
    c, r, s, x, y, u, pad = (layer.c, layer.r, layer.s, layer.x, layer.y,
                             layer.stride, layer.padding)
    outs = outs @ np.array([
        [0, layer.g * c * x * y, 0, 0], [layer.k * c * r * s, c * x * y, 0, 0],
        [c * r * s, 0, 0, 0], [0, u * y, u, 0], [0, u, 0, u]])
    elems = blocks.coords @ np.array([[r * s, x * y, 0, 0], [s, y, 1, 0],
                                      [1, 1, 0, 1]])
    addr = outs[wave, slot]
    addr += elems[j[wave], e] - [0, pad * (y + 1), pad, pad]
    w_addr, i_addr, ix, iy = addr.T
    i_addr = np.where((ix >= 0) & (ix < x) & (iy >= 0) & (iy < y), i_addr, -1)
    # each position's head, the first position of its wave with its
    # address, numbered from the wave's first position
    addr = np.stack([w_addr, i_addr])
    span = [[0], [len(wave)]]
    ids, first = _number([start + span, addr])
    heads = first[ids] - span - start
    # per wave, each partition's heads (-1 for a padding tap), 4 bytes each
    w_data, i_data = (h.astype(np.int32).tobytes()
                      for h in np.where(addr < 0, -1, heads))
    ends = (4 * np.cumsum(sizes * lengths)).tolist()
    roundtrip = hw.folding is FoldingStrategy.ROUNDTRIP
    records = []
    for later, last, plan, size, length, start, end in zip(
            *blocks.ids[1:, j].astype(bool).tolist(),
            map(plans.__getitem__, tile.tolist()), sizes.tolist(),
            lengths.tolist(), [0] + ends, ends):
        forward = plan.has_forwarder and later
        dn = ("dn", hw.num_ms, hw.dn_bw, plan.real_vn_size, length)
        parts = ((*dn, False, w_data[start:end]),
                 (*dn, forward, i_data[start:end]),
                 ("drain", hw.num_ms, hw.rn_bw, plan.real_vn_size, size))
        for key, count in zip(parts, (_distribute, _distribute, _drain)):
            if key not in replays:
                replays[key] = count(*key[1:])
        (w_reads, wc, w_hops), (i_reads, ic, i_hops), \
            (adds, pushes, drain, conflicts) = (replays[key] for key in parts)
        drained = roundtrip or last
        if not drained:
            drain = conflicts = 0
        writes = size if drained else 0
        records.append((
            wc, ic, wc + ic + 1 + drain, size * length,
            size if forward else 0, w_reads + i_reads, writes,
            w_hops + i_hops, adds + (size if later and not roundtrip else 0),
            pushes, writes, conflicts))
    return np.array(records, dtype=np.int64)


def _distribute(num_ms: int, dn_bw: int, width: int, length: int,
                forward: bool, data: bytes) -> tuple[int, int, int]:
    """The PB reads, cycles and switch traversals of distributing one of
    a wave's partitions, its weights or its inputs.

    Each class of the partition is one payload, read from the PB once and
    distributed to the class's leaves, listed in position order, as
    ``fabric.distribution`` counts; position ``slot*length + e`` sits on
    leaf ``slot*width + e`` (so the leaves are listed sorted), and the
    batch holds ``len(data) / 4 / length`` slots.  A forwarding input
    distribution adds one payload per slot, the partial sum for the
    slot's forwarder leaf, its last.
    """
    heads = np.frombuffer(data, np.int32).tolist()
    dests: dict[int, list[int]] = {}
    for p, head in enumerate(heads):
        if head >= 0:
            dests.setdefault(head, []).append(p // length * width + p % length)
    payloads = list(dests.values())
    if forward:
        payloads += [[slot * width + width - 1]
                     for slot in range(len(heads) // length)]
    return (len(payloads), *distribution(num_ms, dn_bw, payloads))


def _drain(num_ms: int, rn_bw: int, width: int, size: int) -> tuple[int, ...]:
    """The additions, FIFO pushes (one per op), drain cycles and bus
    conflicts of the reduction plan of ``size`` clusters of ``width``
    leaves; ``bus_grants`` times each sum's drain from its egress
    switch."""
    plan = cluster_plan(num_ms, width, size)
    values = [(arrival, index) for index, arrival in plan.egress.values()]
    grants = bus_grants(rn_bw, values)
    return (plan.adds_per_wave, len(plan.ops), max(grants, default=-1) + 1,
            sum(g > t for g, (t, _) in zip(grants, values)))


def _check_range(cut: Cut, dims, what, reach=0):
    """(spread, least): each shape's spread (``Cut.bounds``), and each
    group's least coordinate, shape (axes, groups).  Raises unless every
    group, moved on by up to its ``reach``, lies within ``dims``."""
    low, spread = cut.bounds()
    least = cut.origins + low[cut.shape]
    most = least + spread[cut.shape] + reach
    for axis, (lo, hi, dim) in enumerate(zip(
            least.min(axis=0).tolist(), most.max(axis=0).tolist(), dims)):
        if lo < 0 or hi >= dim:
            raise AddressOutOfRange(
                f"{what} axis {axis} spans {lo}..{hi}, outside 0..{dim - 1}"
            )
    return spread, least.T


def _outputs(layer: LayerConfig, outs, elems, inputs, weights):
    """Exact output sums over the schedule's outputs and the fold blocks'
    elements: one contraction per image.

    Each output window's taps at the elements are gathered from the
    zero-padded input, so a padding tap reads zero, and contracted
    against each group's weights at the same elements, giving every
    (n, g, ox, oy, k) sum over the element list.  The list is taken with
    its multiplicity, and ``np.add.at`` adds each scheduled output's sum
    once per occurrence, so a schedule that repeats or drops an output,
    or a fold element, gives a wrong sum.  The padded input and its
    accumulator dtype come from ``memory.padded_inputs``, and
    ``memory.fit_outputs`` checks and casts the sums, as in the oracle.
    """
    dims = output_dims(layer)
    padded = padded_inputs(layer, inputs, weights)
    c, r, s = elems.T
    # per image, every window's (G, X', Y', E) taps at the elements times
    # each group's (E, K) weights at them
    rows = np.arange(dims[3])[:, None, None] * layer.stride + r
    cols = np.arange(dims[4])[None, :, None] * layer.stride + s
    kernel = np.swapaxes(weights[:, :, c, r, s], 1, 2).astype(
        padded.dtype)[:, None]
    dense = np.stack([image[:, c, rows, cols] @ kernel for image in padded])
    n, g, k, ox, oy = outs.T
    sums = np.zeros(dims, dtype=padded.dtype)
    np.add.at(sums, (n, g, k, ox, oy), dense[n, g, ox, oy, k])
    return fit_outputs(sums, inputs.dtype)
