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
the forwarder flag) and the signature: with the first two prepended, the
signature alone gives the record (``_record``) and keys records shared
between mappings.  The DN cycles and switch traversals and the bus
grants come from ``fabric.distribution`` and ``fabric.bus_grants``, the
one statement of each rule.  ``treefab.fabric`` and
``memory.PrefetchBuffer`` model the same fabric step by step, on values,
calling the same two functions; the test suite walks every wave through
them as the reference that the counts must match.

Each wave gets a closed-form *key*, one int64, built per chunk of waves
from per-batch and per-block classes:

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

So ``simulate_layer`` builds the signature of each distinct key's first
wave, counts one record per distinct signature, and sums count x record
over the keys.  Keys that share a signature share one record, and a
caller that passes one ``replays`` dict to many calls (a tile search,
the trials of ``verify``, the layers of a model) shares them across
those calls too.

The outputs are exact sums over (schedule output x fold element) pairs:
one row contraction per chunk of outputs, reading the zero-padded input
at a per-output base address plus a per-element offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import (
    FoldingStrategy,
    HardwareConfig,
    LayerConfig,
    TileConfig,
    total_macs,
)
from .errors import AddressOutOfRange, OutputOverflow
from .fabric import bus_grants, distribution
from .mapper import (MappingPlan, build_mapping, cluster_plan,
                     theoretical_utilization)
from .memory import check_layer_data, output_dims, weight_dims

# waves keyed together, and (output, element) products gathered together;
# they bound the engine's working arrays
CHUNK_WAVES = 1 << 15
CHUNK_PRODUCTS = 1 << 13


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
    output: np.ndarray  # (N, G, K, X', Y')
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
        theoretical_utilization=theoretical_utilization(hw, mapping).fraction,
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
                   inputs: np.ndarray, weights: np.ndarray,
                   trace=None, replays=None) -> SimResult:
    """Run one layer through the fabric; deterministic for fixed inputs.

    ``trace``, if given, is called once per wave, in order, with the
    wave's number, fold, batch size, weight and input distribution
    cycles, and the cycle at which it ends.

    ``replays``, if given, is a dict the caller owns, from a wave's
    signature (hardware and cluster geometry included) to its timing
    record; it is read and filled, so calls that share it count each
    signature once.  Without it the call uses a dict of its own.
    """
    mapping = build_mapping(hw, layer, tile)
    inputs, weights = check_layer_data(layer, inputs, weights)
    batches = _Groups(*mapping.batch_array())
    blocks = _Groups(*mapping.block_array())
    _check_range(batches.coords, output_dims(layer), "output")
    _check_range(blocks.coords, weight_dims(layer)[2:], "weight (c, r, s)")
    n_folds = len(blocks)
    waves = len(batches) * n_folds

    sizes = batches.lengths.tolist()
    totals = cycle = 0
    for w0, key, records in _keyed_waves(
            mapping, batches, blocks, {} if replays is None else replays):
        records = np.array(records, dtype=np.int64)
        totals += np.bincount(key, minlength=len(records)) @ records
        if trace is None:
            continue
        weight_cycles, input_cycles, ends = (
            records[key, 0].tolist(), records[key, 1].tolist(),
            (cycle + np.cumsum(records[key, 2])).tolist())
        for w, wc, ic, end in zip(range(w0, w0 + len(ends)), weight_cycles,
                                  input_cycles, ends):
            b, f = divmod(w, n_folds)
            trace({
                "wave": w + 1, "fold": f, "batch_size": sizes[b],
                "cycle": end, "weight_cycles": wc, "input_cycles": ic,
            })
        cycle = ends[-1]
    stats = layer_stats(mapping, int(totals[2]), waves, totals[3:].tolist())
    assert stats.ms_multiplications == total_macs(layer)
    output = _outputs(layer, batches.coords, blocks.coords, inputs, weights)
    return SimResult(output=output, stats=stats, mapping=mapping)


def _keyed_waves(mapping, batches, blocks, replays):
    """Yield (first wave, key ids, records) for each chunk of waves, in
    issue order.

    Key ids number the distinct keys in order of first appearance;
    ``records`` holds, per key id, the weight, input and wave cycles and
    then the ``COUNTED`` counters of the key's first wave, taken from
    ``replays`` by the wave's signature, or counted by ``_record`` and
    stored there when missing.
    """
    layer = mapping.layer
    n_folds = len(blocks)
    batch_ids, b_low, b_span = batches.classes(
        (3, 4), lambda n, g, k, ox, oy: (g * layer.k + k, n * layer.g + g))
    fold = np.arange(n_folds)
    block_ids, f_low, f_span = blocks.classes(
        (0, 1, 2), lambda c, r, s: (), fold > 0, fold == n_folds - 1)
    block_ids = block_ids[None, :]
    n_classes = int(block_ids.max()) + 1

    def border(b, axis, fold_axis, extent):
        # 0 when every tap of the waves lies inside the input along the
        # axis, else the first tap's row (or column) made positive
        base = (b_low[b, axis, None] * layer.stride - layer.padding
                + f_low[None, :, fold_axis])
        end = base + (b_span[b, axis, None] * layer.stride
                      + f_span[None, :, fold_axis])
        return np.where((base >= 0) & (end < extent), 0,
                        base + layer.padding + 1)

    key_ids: dict[int, int] = {}
    records: list[tuple[int, ...]] = []
    drains: dict[tuple, tuple[int, ...]] = {}  # batch geometry -> _drain
    rows = max(1, CHUNK_WAVES // n_folds)
    for b0 in range(0, len(batches), rows):
        b = slice(b0, b0 + rows)
        # below waves * radix_x * radix_y, far inside int64
        keys = batch_ids[b, None] * n_classes + block_ids
        for axis, fold_axis, extent in ((3, 1, layer.x), (4, 2, layer.y)):
            keys = (keys * (extent + 2 * layer.padding + 1)
                    + border(b, axis, fold_axis, extent))
        keys, first, inverse = np.unique(
            keys, return_index=True, return_inverse=True)
        keys, first = keys.tolist(), b0 * n_folds + first
        new = [i for i, key in enumerate(keys) if key not in key_ids]
        if new:
            for i, signature in zip(new, _signatures(mapping, batches, blocks,
                                                     first[new])):
                record = replays.get(signature)
                if record is None:
                    record = replays[signature] = _record(signature, drains)
                key_ids[keys[i]] = len(records)
                records.append(record)
        ids = np.array([key_ids[key] for key in keys])
        yield b0 * n_folds, ids[inverse.reshape(-1)], records


class _Groups:
    """The batches of output coordinates, or the fold blocks of weight
    coordinates: one flat (coordinates, rank) array and their lengths."""

    def __init__(self, coords, lengths):
        self.coords, self.lengths = coords, lengths
        self.starts = np.cumsum(lengths) - lengths
        self.width = int(lengths.max())

    def __len__(self) -> int:
        return len(self.lengths)

    def positions(self, groups=slice(None)):
        """(at, used): the index in ``coords`` of each position of
        ``groups``, shape (groups, width), and the mask of the positions
        within each group.  A position past a group's end repeats the
        group's first one."""
        used = np.arange(self.width) < self.lengths[groups, None]
        start = self.starts[groups, None]
        return np.where(used, start + np.arange(self.width), start), used

    def classes(self, offsets, partitions, *extra):
        """(ids, low, span): a class id per group, and per group the least
        coordinate and the spread of each axis.

        Two groups share a class iff they have the same length and
        ``extra`` columns, the same offset of each axis in ``offsets``
        from the group's least coordinate, and the same partition of
        their positions by each value of ``partitions(*axes)``.
        """
        at, used = self.positions()
        low = np.minimum.reduceat(self.coords, self.starts)
        span = np.maximum.reduceat(self.coords, self.starts) - low
        columns = [self.lengths, *extra]
        columns += [np.where(used, self.coords[at, a] - low[:, a, None], -1)
                    for a in offsets]
        columns += [_first_positions(np.where(used, value[at], -1))
                    for value in partitions(*self.coords.T)]
        ids: dict[bytes, int] = {}
        return np.array([ids.setdefault(row, len(ids))
                         for row in _row_keys(columns)]), low, span


def _signatures(mapping: MappingPlan, batches, blocks, waves) -> list:
    """The signature of each of ``waves``, prefixed with the hardware and
    the cluster geometry; hashable and comparable between mappings."""
    layer = mapping.layer
    b, f = np.divmod(waves, len(blocks))
    (outs, slots), (elems, taps) = batches.positions(b), \
        blocks.positions(f)
    used = (slots[:, :, None] & taps[:, None, :]).reshape(len(waves), -1)
    n, g, k, ox, oy = np.moveaxis(batches.coords[outs][:, :, None], -1, 0)
    c, r, s = np.moveaxis(blocks.coords[elems][:, None], -1, 0)
    ix = ox * layer.stride + r - layer.padding
    iy = oy * layer.stride + s - layer.padding
    tap = (ix >= 0) & (ix < layer.x) & (iy >= 0) & (iy < layer.y)
    w_addr = (((g * layer.k + k) * layer.c + c) * layer.r + r) * layer.s + s
    i_addr = np.where(
        tap, (((n * layer.g + g) * layer.c + c) * layer.x + ix) * layer.y + iy,
        -1)
    # both partitions at once, as 2 x waves rows
    first = _first_positions(np.where(
        used, np.stack([w_addr, i_addr]).reshape(2, len(waves), -1), -1,
    ).reshape(2 * len(waves), -1)).reshape(2, len(waves), -1)
    # number position slot*width + e as slot*length + e instead
    length = blocks.lengths[f, None]
    first = np.where(first < 0, -1, first // blocks.width * length
                     + first % blocks.width)
    # per wave, its positions' (weight, input) pairs, 8 bytes each
    data = np.moveaxis(first, 0, -1)[used].astype(np.int32).tobytes()
    ends = (8 * np.cumsum(used.sum(axis=1))).tolist()
    head = (mapping.hw, mapping.real_vn_size, mapping.has_forwarder)
    return [(*head, *flags, data[start:end]) for flags, start, end in zip(
        zip((f > 0).tolist(), (f == len(blocks) - 1).tolist(),
            batches.lengths[b].tolist(), blocks.lengths[f].tolist()),
        [0] + ends, ends)]


def _record(signature, drains) -> tuple[int, ...]:
    """A wave's weight, input and wave cycles, then its ``COUNTED``
    counters, counted from its signature.

    Each class of the weight (input) partition is one payload, read from
    the PB once and distributed to the class's leaves as
    ``fabric.distribution`` counts.  A forwarding fold adds one payload
    per slot, the partial sum for the slot's forwarder leaf.  After one
    multiply cycle the batch reduces, and folds that drain send its sums
    over the collector buses, as ``_drain`` counts once per batch
    geometry into ``drains``, a dict of one ``simulate_layer`` call.
    """
    hw, width, forwarder, later, last, size, length, data = signature
    leaves = [p // length * width + p % length for p in range(size * length)]
    forward = forwarder and later
    roundtrip = hw.folding is FoldingStrategy.ROUNDTRIP

    def distribute(heads, extra=()):
        # (PB reads, cycles, switch traversals)
        dests: dict[int, set[int]] = {}
        for leaf, head in zip(leaves, heads):
            if head >= 0:
                dests.setdefault(head, set()).add(leaf)
        payloads = [*dests.values(), *({leaf} for leaf in extra)]
        return (len(payloads),
                *distribution(hw.num_ms, hw.dn_bw, payloads))

    w_heads, i_heads = np.frombuffer(data, np.int32).reshape(-1, 2).T.tolist()
    w_reads, wc, w_hops = distribute(w_heads)
    i_reads, ic, i_hops = distribute(i_heads, [
        slot * width + width - 1 for slot in range(size)] if forward else ())
    if (hw, width, size) not in drains:
        drains[hw, width, size] = _drain(hw, width, size)
    adds, pushes, drain, conflicts = drains[hw, width, size]
    drained = roundtrip or last
    if not drained:
        drain = conflicts = 0
    writes = size if drained else 0
    return (wc, ic, wc + ic + 1 + drain, size * length,
            size if forward else 0, w_reads + i_reads, writes,
            w_hops + i_hops, adds + (size if later and not roundtrip else 0),
            pushes, writes, conflicts)


def _drain(hw: HardwareConfig, width: int, size: int) -> tuple[int, ...]:
    """The additions, FIFO pushes (one per op), drain cycles and bus
    conflicts of the reduction plan of ``size`` clusters of ``width``
    leaves; ``bus_grants`` times each sum's drain from its egress
    switch."""
    plan = cluster_plan(hw.num_ms, width, size)
    values = [(arrival, index) for index, arrival in plan.egress.values()]
    grants = bus_grants(hw.rn_bw, values)
    return (plan.adds_per_wave, len(plan.ops), max(grants, default=-1) + 1,
            sum(g > t for g, (t, _) in zip(grants, values)))


def _check_range(coords, dims, what) -> None:
    """Raise unless every coordinate axis lies within its region extent."""
    for axis, (lo, hi, dim) in enumerate(zip(coords.min(axis=0),
                                             coords.max(axis=0), dims)):
        if lo < 0 or hi >= dim:
            raise AddressOutOfRange(
                f"{what} axis {axis} spans {lo}..{hi}, outside 0..{dim - 1}"
            )


def _row_keys(columns) -> list[bytes]:
    """The rows of the stacked int32 ``columns``, as bytes."""
    rows = np.column_stack([np.asarray(c, dtype=np.int32) for c in columns])
    return rows.view(f"V{rows.shape[1] * 4}").ravel().tolist()


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
    """Exact output sums: one row contraction per chunk of schedule
    outputs, over the fold blocks' elements.

    An output's taps lie at a base address (its ``(n, g)`` plane and
    window corner) plus a per-element offset into the zero-padded input,
    so a padding tap reads the border; its weights are row ``g*K + k`` at
    the elements' columns.  Integer data sums in int64 when no output can
    leave it (R*S*C times the largest input and weight magnitudes), else
    in Python ints; float data sums in float64.  ``np.add.at`` adds every
    occurrence, so a schedule that repeats or drops an output gives a
    wrong sum.
    """
    dims = output_dims(layer)
    acc = np.float64
    if np.issubdtype(inputs.dtype, np.integer):
        peak = (_magnitude(inputs) * _magnitude(weights)
                * layer.r * layer.s * layer.c)
        acc = np.int64 if peak <= np.iinfo(np.int64).max else object
    pad = layer.padding
    # np.zeros, not np.pad: an object array's zeros must be Python ints
    padded = np.zeros(inputs.shape[:3] + (layer.x + 2 * pad,
                                          layer.y + 2 * pad), acc)
    padded[..., pad:pad + layer.x, pad:pad + layer.y] = inputs
    px, py = padded.shape[3:]
    padded = padded.ravel()
    n, g, k, ox, oy = outs.T
    c, r, s = elems.T
    base = (((n * layer.g + g) * layer.c * px + ox * layer.stride) * py
            + oy * layer.stride)
    offset = (c * px + r) * py + s
    w_rows = weights.astype(acc).reshape(layer.g * layer.k, -1)[
        :, (c * layer.r + r) * layer.s + s]
    gk = g * layer.k + k
    at = np.ravel_multi_index(tuple(outs.T), dims)
    sums = np.zeros(dims, dtype=acc).ravel()
    rows = max(1, CHUNK_PRODUCTS // len(elems))
    for o in (slice(o0, o0 + rows) for o0 in range(0, len(outs), rows)):
        np.add.at(sums, at[o], np.einsum(
            "ij,ij->i", w_rows[gk[o]], padded[base[o, None] + offset]))
    sums = sums.reshape(dims)
    if np.issubdtype(inputs.dtype, np.integer):
        info = np.iinfo(inputs.dtype)
        bad = (sums < info.min) | (sums > info.max)
        if bad.any():
            coord = tuple(int(i) for i in np.argwhere(bad)[0])
            raise OutputOverflow(
                f"output {coord} = {sums[coord]} does not fit {inputs.dtype}"
            )
    return sums.astype(inputs.dtype)


def _magnitude(a: np.ndarray) -> int:
    """Largest absolute value in the array, as a Python int."""
    return max(-int(a.min()), int(a.max()))
