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
wave's cycles and counters once (``_record``).  Nothing in them depends
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
the forwarder flag) and the signature (``_record``).  It is a few sums
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

Each wave gets a closed-form *key* from a batch class, a block class
and two border classes:

* batch class: the batch size; the partition of its slots by
  ``g*K + k`` and by ``n*G + g`` (each slot's first slot with the same
  value); and each slot's ``ox`` and ``oy`` offset from the batch's least;
* block class: the block length; each element's ``c``, ``r`` and ``s``
  offset from the block's least; whether the fold is the first and
  whether it is the last;
* X border class: with ``base = ox_min*stride + r_min - padding`` and
  ``span`` the spread of ``ox*stride + r`` over the wave, 0 when
  ``[base, base + span]`` lies inside ``[0, X)``, else ``base + padding +
  1``; the Y border class likewise.

The key fixes the signature.  Two weight addresses are equal iff their
``(g, k)`` and their elements are equal, which the batch partition and the
block length give.  Two input addresses are equal iff their ``(n, g)``,
their ``c``, their ``ox*stride + r`` and their ``oy*stride + s`` are
equal, and the offsets give these up to the same shift for every
position.  Whether a tap falls in the padding depends, given the offsets,
only on ``base``, which the border class gives wherever it matters.

The mapper cuts the batches and the blocks as ``mapper.Cut``s, which
hold their geometry: each group is an origin plus one of a few shapes.
An origin shifts every coordinate of its group alike, so it changes no
offset from the least and no partition by a value linear in the
coordinates: the batch and block classes are counted once per shape,
not per group (``_classes``).  Only the borders and the range check read
the origins, through each group's least coordinate, its origin plus its
shape's least offset (``Cut.bounds``).  A schedule given as flat groups
is exact too: each group is a shape of its own, at origin 0
(``Cut.flat``).

A key reads a batch only through its *row*, its class and least ``ox``
and ``oy`` (the class fixes their spreads), and a block only through its
row, its class, fold flags and least ``r`` and ``s``.  So
``_pair_table`` keys the (batch row, block row) pairs, never the waves,
and builds one wave's signature per key and its record from the three
parts; the totals weight each pair's record by its rows' counts.  A
caller that passes one ``replays`` dict to many calls (a tile search,
the trials of ``verify``, the layers of a model) shares the parts
across those calls: a search plans each batch geometry once, not once
per tile.  The dict also holds each fold-block cut with its rows
(``_block_rows``), keyed by the only values the blocks read, the
layer's C, R and S and the tile's steps along them; so the tiles of a
search that agree in those cut and key their blocks once.

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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import (
    FoldingStrategy,
    HardwareConfig,
    LayerConfig,
    TileConfig,
    total_macs,
)
from .errors import AddressOutOfRange, ValidationError
from .fabric import bus_grants, distribution
from .mapper import Cut, MappingPlan, build_mapping, cluster_plan
from .memory import (check_layer_data, fit_outputs, output_dims,
                     padded_inputs, weight_dims)

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


def simulate_layer(hw: HardwareConfig, layer: LayerConfig, tile: TileConfig,
                   inputs: np.ndarray | None = None,
                   weights: np.ndarray | None = None,
                   trace=None, replays=None) -> SimResult:
    """Run one layer through the fabric; deterministic for fixed inputs.

    The cycles and counters do not depend on the data, so ``inputs`` and
    ``weights`` are optional: with both, the result holds the output
    sums; with neither, the call only counts, and ``output`` is None.
    Passing one without the other raises ``ValidationError``.

    ``trace``, if given, is called once per wave, in order, with the
    wave's number, fold, batch size, weight and input distribution
    cycles, and the cycle at which it ends.

    ``replays``, if given, is a dict the caller owns, from the keys
    tagged ``"dn"`` and ``"drain"`` to the parts of the waves' records
    (``_record``), and from the keys tagged ``"blocks"`` to a fold-block
    cut and its rows (``_block_rows``); it is read and filled, so calls
    that share it count each distribution and each batch geometry's drain
    once, and cut and key each fold-block geometry once.  Without it the
    call uses a dict of its own.
    """
    mapping = build_mapping(hw, layer, tile)
    if (inputs is None) != (weights is None):
        raise ValidationError("give both inputs and weights, or neither")
    if inputs is not None:
        inputs, weights = check_layer_data(layer, inputs, weights)
    if replays is None:
        replays = {}
    batches = _batch_rows(layer, mapping.batch_cut())
    # the fold blocks read only these fields, so every call that agrees
    # in them shares one keying of the block cut
    key = ("blocks", layer.c, layer.r, layer.s, tile.t_c, tile.t_r, tile.t_s)
    if key not in replays:
        replays[key] = _block_rows(layer, mapping.block_cut())
    blocks = replays[key]
    n_folds = len(blocks.cut.shape)
    waves = len(batches.cut.shape) * n_folds

    ids, records = _pair_table(mapping, batches, blocks, replays)
    # waves per (batch row, block row) pair, times each pair's record
    totals = np.bincount(batches.row) @ (np.bincount(blocks.row)
                                         @ records[ids])
    if trace is not None:
        # per batch row, its waves' weight, input and wave cycles
        rows = [records[ids[row, blocks.row], :3].T.tolist()
                for row in range(len(ids))]
        cycle = 0
        for b, (size, row) in enumerate(zip(
                batches.cut.sizes[batches.cut.shape].tolist(),
                batches.row.tolist())):
            for f, wc, ic, wave in zip(range(n_folds), *rows[row]):
                cycle += wave
                trace({
                    "wave": b * n_folds + f + 1, "fold": f,
                    "batch_size": size, "cycle": cycle,
                    "weight_cycles": wc, "input_cycles": ic,
                })
    stats = layer_stats(mapping, int(totals[2]), waves, totals[3:].tolist())
    assert stats.ms_multiplications == total_macs(layer)
    output = None if inputs is None else _outputs(
        layer, batches.cut.expand()[0], blocks.cut.expand()[0], inputs,
        weights)
    return SimResult(output=output, stats=stats, mapping=mapping)


class _Rows(NamedTuple):
    """A cut's groups numbered by the rows that wave keys read: each
    group's row, and per row its first group, its class, and that group's
    least coordinate and spread along the two axes that step over the
    input's rows and columns, shape (2, rows)."""

    cut: Cut
    row: np.ndarray
    first: np.ndarray
    ids: np.ndarray
    least: np.ndarray
    spread: np.ndarray


def _batch_rows(layer: LayerConfig, batches: Cut) -> _Rows:
    """The batches' rows: a batch's class, its least ``ox`` and ``oy``.
    Raises ``AddressOutOfRange`` where a batch leaves the output."""
    low, spread, least = _check_range(batches, output_dims(layer), "output")
    ids = _classes(batches, low, (3, 4), lambda n, g, k, ox, oy: (
        g * layer.k + k, n * layer.g + g))
    return _rows(batches, ids, least, spread, (3, 4))


def _block_rows(layer: LayerConfig, blocks: Cut) -> _Rows:
    """The fold blocks' rows: a block's class, whether its fold is the
    first and the last, its least ``r`` and ``s``.  Raises
    ``AddressOutOfRange`` where a block leaves the filter."""
    low, spread, least = _check_range(blocks, weight_dims(layer)[2:],
                                      "weight (c, r, s)")
    fold = np.arange(len(blocks.shape))
    ids = ((_classes(blocks, low, (0, 1, 2), lambda c, r, s: ()) * 2
            + (fold > 0)) * 2 + (fold == len(fold) - 1))
    return _rows(blocks, ids, least, spread, (1, 2))


def _rows(cut: Cut, ids, least, spread, axes) -> _Rows:
    least, spread = least[list(axes)], spread[:, list(axes)]
    row, first = _number([ids, *least])
    return _Rows(cut, row, first, ids[first], least[:, first],
                 spread[cut.shape[first]].T)


def _pair_table(mapping, batches: _Rows, blocks: _Rows, replays):
    """(ids, records): the key id of each (batch row, block row) pair,
    and per key id the weight, input and wave cycles and then the
    ``COUNTED`` counters of its waves, assembled by ``_record`` from
    ``replays``."""
    layer = mapping.layer
    borders = []
    for axis, extent in enumerate((layer.x, layer.y)):
        # 0 when every tap of the pair's waves lies inside the input along
        # the axis, else the first tap's row (or column) made positive
        base = (batches.least[axis, :, None] * layer.stride - layer.padding
                + blocks.least[axis])
        end = base + (batches.spread[axis, :, None] * layer.stride
                      + blocks.spread[axis])
        borders.append(np.where((base >= 0) & (end < extent), 0,
                                base + layer.padding + 1))
    ids, first = _number([batches.ids[:, None], blocks.ids, *borders])
    b, f = np.divmod(first, len(blocks.first))
    records = [_record(mapping, signature, replays)
               for signature in _signatures(mapping, batches.cut, blocks.cut,
                                            batches.first[b],
                                            blocks.first[f])]
    return ids, np.array(records, dtype=np.int64)


def _number(columns):
    """(ids, first): each row of the broadcast ``columns`` (non-negative
    ints) numbered among the distinct rows, and each id's first flat
    index.  A row is one mixed-radix int64, each column's radix its
    largest value plus one, so it stays below the radices' product:
    classes x X' x Y' for the batch rows, 4 x classes x R x S for the
    block rows, and batch classes x block classes x (X + 2 padding + 1) x
    (Y + 2 padding + 1) for the pairs."""
    number = 0
    for column in columns:
        number = number * (int(column.max()) + 1) + column
    _, first, ids = np.unique(number, return_index=True, return_inverse=True)
    return ids.reshape(np.shape(number)), first


def _classes(cut: Cut, low, axes, partitions):
    """A class id per group of ``cut``, counted once per shape; ``low``
    holds each shape's least offsets (``Cut.bounds``).

    Two groups share a class iff they have the same length, the same
    offset of each of ``axes`` from the group's least coordinate, and the
    same partition of their positions by each value of
    ``partitions(*coordinates)``.  An origin shifts every coordinate of
    its group alike, so for values linear in the coordinates these are
    the shape's own.
    """
    at, used = cut.positions(np.arange(len(cut.sizes)))
    columns = [cut.sizes]
    columns += [np.where(used, cut.offsets[at, a] - low[:, a, None], -1)
                for a in axes]
    columns += [_first_positions(np.where(used, value[at], -1))
                for value in partitions(*cut.offsets.T)]
    # each shape's row of the stacked int32 columns, as bytes
    rows = np.column_stack([np.asarray(c, dtype=np.int32) for c in columns])
    ids: dict[bytes, int] = {}
    return np.array([ids.setdefault(row, len(ids)) for row in rows.view(
        f"V{rows.shape[1] * 4}").ravel().tolist()])[cut.shape]


def _signatures(mapping: MappingPlan, batches: Cut, blocks: Cut, b, f):
    """The signature of each wave of batch ``b[i]`` and fold block
    ``f[i]``: whether its fold is the first and the last, its batch size
    and block length, and its weight and its input partition, each as the
    int32 bytes of its used positions' heads (-1 for a padding tap)."""
    layer = mapping.layer
    (outs, slots), (elems, taps) = batches.coordinates(b), \
        blocks.coordinates(f)
    used = (slots[:, :, None] & taps[:, None, :]).reshape(len(b), -1)
    n, g, k, ox, oy = np.moveaxis(outs[:, :, None], -1, 0)
    c, r, s = np.moveaxis(elems[:, None], -1, 0)
    ix = ox * layer.stride + r - layer.padding
    iy = oy * layer.stride + s - layer.padding
    tap = (ix >= 0) & (ix < layer.x) & (iy >= 0) & (iy < layer.y)
    w_addr = (((g * layer.k + k) * layer.c + c) * layer.r + r) * layer.s + s
    i_addr = np.where(
        tap, (((n * layer.g + g) * layer.c + c) * layer.x + ix) * layer.y + iy,
        -1)
    # both partitions at once, as 2 x waves rows
    first = _first_positions(np.where(
        used, np.stack([w_addr, i_addr]).reshape(2, len(b), -1), -1,
    ).reshape(2 * len(b), -1)).reshape(2, len(b), -1)
    # number position slot*width + e as slot*length + e instead
    lengths = blocks.sizes[blocks.shape[f]]
    length, width = lengths[:, None], taps.shape[1]
    first = np.where(first < 0, -1, first // width * length + first % width)
    # per wave, each partition's heads at its positions, 4 bytes each
    w_data, i_data = (h[used].astype(np.int32).tobytes() for h in first)
    ends = (4 * np.cumsum(used.sum(axis=1))).tolist()
    flags = zip((f > 0).tolist(), (f == len(blocks.shape) - 1).tolist(),
                batches.sizes[batches.shape[b]].tolist(), lengths.tolist())
    return [(*flag, w_data[start:end], i_data[start:end])
            for flag, start, end in zip(flags, [0] + ends, ends)]


def _record(mapping: MappingPlan, signature, replays) -> tuple[int, ...]:
    """A wave's weight, input and wave cycles, then its ``COUNTED``
    counters, assembled from the three parts of its signature on the
    mapping's hardware and cluster geometry.

    The weight and the input distribution (``_distribute``, tagged
    ``"dn"``) and the drain (``_drain``) are kept in ``replays`` under
    keys that hold just the values each part reads, and counted when
    missing, so records and calls that agree in a key share its part,
    even on hardware that differs in a field the part does not read.
    The fold flags then pick which counts apply: a forwarding fold
    injects one partial sum per slot, an ideal fold after the first adds
    it at the egress, and only a draining fold (every roundtrip fold, the
    last ideal one) pays the drain and writes its sums.
    """
    hw, width = mapping.hw, mapping.real_vn_size
    later, last, size, length, w_data, i_data = signature
    forward = mapping.has_forwarder and later
    dn = ("dn", hw.num_ms, hw.dn_bw, width, length)
    parts = ((*dn, False, w_data), (*dn, forward, i_data),
             ("drain", hw.num_ms, hw.rn_bw, width, size))
    for key, count in zip(parts, (_distribute, _distribute, _drain)):
        if key not in replays:
            replays[key] = count(*key[1:])
    (w_reads, wc, w_hops), (i_reads, ic, i_hops), \
        (adds, pushes, drain, conflicts) = (replays[key] for key in parts)
    roundtrip = hw.folding is FoldingStrategy.ROUNDTRIP
    drained = roundtrip or last
    if not drained:
        drain = conflicts = 0
    writes = size if drained else 0
    return (wc, ic, wc + ic + 1 + drain, size * length,
            size if forward else 0, w_reads + i_reads, writes,
            w_hops + i_hops, adds + (size if later and not roundtrip else 0),
            pushes, writes, conflicts)


def _distribute(num_ms: int, dn_bw: int, width: int, length: int,
                forward: bool, data: bytes) -> tuple[int, int, int]:
    """The PB reads, cycles and switch traversals of distributing one of
    a wave's partitions, its weights or its inputs.

    Each class of the partition is one payload, read from the PB once and
    distributed to the class's leaves as ``fabric.distribution`` counts;
    position ``slot*length + e`` sits on leaf ``slot*width + e``, and the
    batch holds ``len(data) / 4 / length`` slots.  A forwarding input
    distribution adds one payload per slot, the partial sum for the
    slot's forwarder leaf, its last.
    """
    heads = np.frombuffer(data, np.int32).tolist()
    dests: dict[int, set[int]] = {}
    for p, head in enumerate(heads):
        if head >= 0:
            dests.setdefault(head, set()).add(p // length * width + p % length)
    payloads = list(dests.values())
    if forward:
        payloads += [{slot * width + width - 1}
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


def _check_range(cut: Cut, dims, what):
    """(low, spread, least): ``cut.bounds()``, and each group's least
    coordinate, its origin plus its shape's low, shape (axes, groups).
    Raises unless every coordinate axis of the groups lies within its
    region extent, from the least coordinate to it plus the shape's
    spread."""
    low, spread = cut.bounds()
    # one axis per row, so each axis reduces over contiguous values
    least = cut.origins.T + np.take(low.T, cut.shape, axis=1)
    for axis, (lo, hi, dim) in enumerate(zip(
            least.min(axis=1),
            (least + np.take(spread.T, cut.shape, axis=1)).max(axis=1),
            dims)):
        if lo < 0 or hi >= dim:
            raise AddressOutOfRange(
                f"{what} axis {axis} spans {lo}..{hi}, outside 0..{dim - 1}"
            )
    return low, spread, least


def _first_positions(addr):
    """Per row, the first position holding each position's address; -1
    where the address is -1."""
    rows = np.arange(len(addr))[:, None]
    order = np.argsort(addr, axis=1, kind="stable")
    ranked = addr[rows, order]
    head = np.ones(addr.shape, dtype=bool)
    head[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    start = np.maximum.accumulate(
        np.where(head, np.arange(addr.shape[1]), 0), axis=1)
    first = np.empty_like(order)
    first[rows, order] = order[rows, start]
    return np.where(addr < 0, -1, first)


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
