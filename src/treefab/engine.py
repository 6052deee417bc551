"""Cycle-accurate wave engine.

A mapping plan runs batch by batch.  Each batch maps one output per
cluster and iterates over all fold blocks; each fold is a wave
(``run_wave``):

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

Each distinct wave is timed once.  Nothing in a wave's timing or
counters depends on the data or on the absolute cycle: the buffer serves
reads and writes whatever the cycle; the DN's cycles, reads and switch
traversals depend only on the order of the payloads and on each one's
set of destination leaves; the MS, RN and CB counters depend only on the
batch size, its reduction plan, and whether the fold is the first or the
last.  So a wave's *signature* is

* its batch size and its fold block length,
* whether its fold is the first and whether it is the last,
* the canonical partition of its weight addresses and of its input
  addresses: for each (slot, element) position, the first position with
  the same address, or -1 for a padding tap.  Positions are numbered
  over the widest batch and block, so the empty ones (-1 in the weight
  partition) also give the batch size and the block length.

Waves with one signature send the same payloads (the classes of the
partitions, in order of their first position) to the same leaves in the
same order, so they take the same cycles and add the same counts.
``simulate_layer`` runs one wave per signature through the fabric
components, on a buffer of zeros, and sums count x record over the
signatures.  The outputs come from one gather-and-sum over the same
address arrays, with exact integer sums.
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
from .fabric import (
    BusEvent,
    CollectorBuses,
    DistributionNetwork,
    MultiplierArray,
    Payload,
    ReductionNetwork,
)
from .mapper import MappingPlan, build_mapping, theoretical_utilization
from .memory import (
    PrefetchBuffer,
    check_layer_data,
    input_dims,
    output_dims,
    weight_dims,
)
from .reduction import ReductionPlan

# (slot, element) positions per chunk of waves whose signatures are built
# together; bounds the engine's working arrays
CHUNK_POSITIONS = 2048


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


# the SimStats fields the fabric's counters fill, in Fabric.counts() order
COUNTED = ("ms_multiplications", "forwarder_injections", "pb_reads",
           "pb_writes", "ds_traversals", "as_additions", "fifo_pushes",
           "cb_grants", "cb_conflicts")


class Fabric:
    """The buffer and the datapath components of one fabric."""

    def __init__(self, hw: HardwareConfig):
        self.pb = PrefetchBuffer(read_ports=hw.dn_bw, write_ports=hw.rn_bw)
        self.dn = DistributionNetwork(hw.num_ms, hw.dn_bw)
        self.ms = MultiplierArray(hw.num_ms)
        self.rn = ReductionNetwork(hw.num_ms)
        self.cb = CollectorBuses(hw.rn_bw)

    def counts(self) -> tuple[int, ...]:
        """The counters, in ``COUNTED`` order."""
        ms, rn, cb = self.ms.counters, self.rn.counters, self.cb.counters
        return (ms.multiplications, ms.forwarder_injections,
                self.pb.counters.reads, self.pb.counters.writes,
                self.dn.counters.traversals, rn.additions, rn.fifo_pushes,
                cb.grants, cb.conflicts)


def run_wave(mapping: MappingPlan, plan: ReductionPlan, batch, f: int,
             block, fabric: Fabric, cycle: int,
             accum: dict) -> tuple[int, int, int]:
    """Run fold ``f`` (weight coordinates ``block``) of ``batch`` from
    ``cycle``.

    ``accum`` holds the batch's egress adders under ideal folding and is
    updated in place.  Returns (weight cycles, input cycles, wave cycles).
    """
    layer = mapping.layer
    pb, dn, ms, rn, cb = fabric.pb, fabric.dn, fabric.ms, fabric.rn, \
        fabric.cb
    roundtrip = mapping.hw.folding is FoldingStrategy.ROUNDTRIP
    last = f == mapping.folds - 1
    forward = mapping.has_forwarder and f > 0
    start = cycle

    # -- weight distribution ----------------------------------------------
    w_payloads: dict[tuple, set[int]] = {}
    for slot, (n, g, k, ox, oy) in enumerate(batch):
        for e, (c, r, s) in enumerate(block):
            addr = ("weights", (g, k, c, r, s))
            w_payloads.setdefault(addr, set()).add(
                mapping.element_leaf(slot, e)
            )
    wc, leaf_w = dn.deliver(
        [Payload(a, frozenset(d)) for a, d in w_payloads.items()], pb, cycle,
    )
    cycle += wc

    # -- input (and partial-sum) distribution -----------------------------
    # padding taps get no payload; the multipliers read them as 0
    i_payloads: dict[tuple, set[int]] = {}
    for slot, (n, g, k, ox, oy) in enumerate(batch):
        for e, (c, r, s) in enumerate(block):
            ix = ox * layer.stride + r - layer.padding
            iy = oy * layer.stride + s - layer.padding
            if 0 <= ix < layer.x and 0 <= iy < layer.y:
                addr = ("inputs", (n, g, c, ix, iy))
                i_payloads.setdefault(addr, set()).add(
                    mapping.element_leaf(slot, e)
                )
        if forward:
            addr = ("psum", (n, g, k, ox, oy))
            i_payloads.setdefault(addr, set()).add(
                mapping.forwarder_leaf(slot)
            )
    ic, leaf_i = dn.deliver(
        [Payload(a, frozenset(d)) for a, d in i_payloads.items()], pb, cycle,
    )
    cycle += ic

    # -- multiply (one cycle) ---------------------------------------------
    # a forwarder has nothing to inject on the first fold, so the
    # reduction reads its leaf as 0
    leaf_vals = ms.multiply(leaf_w, leaf_i)
    if forward:
        for slot in range(len(batch)):
            fwd = mapping.forwarder_leaf(slot)
            leaf_vals.update(ms.forward(fwd, leaf_i[fwd]))
    cycle += 1

    # -- reduce and collect -----------------------------------------------
    sums = rn.replay(plan, leaf_vals)
    if not roundtrip:
        for slot in range(len(batch)):
            accum[slot] += sums[slot]
        if f > 0:
            rn.counters.additions += len(batch)
        sums = accum
    if roundtrip or last:
        region = "outputs" if last else "psum"
        events = []
        for slot, coord in enumerate(batch):
            as_index, arrival = plan.egress[slot]
            events.append(BusEvent(arrival, as_index, (region, coord),
                                   sums[slot]))
        cycle += cb.drain(events, pb, cycle) + 1
    return wc, ic, cycle - start


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
                   trace=None) -> SimResult:
    """Run one layer through the fabric; deterministic for fixed inputs.

    ``trace``, if given, is called once per wave, in order, with the
    wave's number, fold, batch size, weight and input distribution
    cycles, and the cycle at which it ends.
    """
    mapping = build_mapping(hw, layer, tile)
    inputs, weights = check_layer_data(layer, inputs, weights)
    batches = _Groups(mapping.schedule, 5)
    blocks = _Groups(mapping.fold_blocks, 3)
    _check_range(batches.flat, output_dims(layer), "output")
    _check_range(blocks.flat, weight_dims(layer)[2:], "weight (c, r, s)")
    n_folds = len(blocks)
    waves = len(batches) * n_folds
    rows = max(1, CHUNK_POSITIONS // (batches.width * blocks.width))

    timer = _WaveTimer(mapping, batches, blocks, inputs.dtype, weights.dtype)
    outputs = _Outputs(layer, inputs, weights)
    signature = np.empty(waves, dtype=np.int32)
    for w0 in range(0, waves, rows):
        wave = np.arange(w0, min(w0 + rows, waves))
        b, f = np.divmod(wave, n_folds)
        (coords, slots), (elems, taps) = batches.take(b), blocks.take(f)
        w_addr, i_addr = _addresses(layer, coords, slots, elems, taps)
        outputs.add(coords, slots, w_addr, i_addr)
        # the weight partition marks the empty positions, so it also
        # carries the batch size and the block length
        folds = np.stack([f > 0, f == n_folds - 1], axis=1)
        signature[wave] = timer.identify(wave, folds,
                                         _first_positions(w_addr),
                                         _first_positions(i_addr))

    records = np.array(timer.records, dtype=np.int64)
    if trace is not None:
        weight_cycles, input_cycles = (records[signature, i].tolist()
                                       for i in range(2))
        ends = np.cumsum(records[signature, 2]).tolist()
        sizes = batches.lengths.tolist()
        for w in range(waves):
            b, f = divmod(w, n_folds)
            trace({
                "wave": w + 1, "fold": f, "batch_size": sizes[b],
                "cycle": ends[w], "weight_cycles": weight_cycles[w],
                "input_cycles": input_cycles[w],
            })
    totals = (np.bincount(signature, minlength=len(records))[:, None]
              * records).sum(axis=0)
    stats = layer_stats(mapping, int(totals[2]), waves, totals[3:].tolist())
    assert stats.ms_multiplications == total_macs(layer)
    return SimResult(output=outputs.result(), stats=stats, mapping=mapping)


class _Groups:
    """The batches of output coordinates, or the fold blocks of weight
    coordinates, as one flat (coordinates, rank) array."""

    def __init__(self, groups, rank: int):
        lengths = []

        def coordinates():
            for group in groups:
                lengths.append(len(group))
                yield from group

        self.flat = np.fromiter(coordinates(), np.dtype((np.int64, rank)))
        self.lengths = np.array(lengths)
        self.starts = np.cumsum(self.lengths) - self.lengths
        self.width = int(self.lengths.max())

    def __len__(self) -> int:
        return len(self.lengths)

    def take(self, groups):
        """(coordinates, used): the coordinates of ``groups``, shape
        (groups, width, rank), and the mask of those within each group."""
        used = np.arange(self.width) < self.lengths[groups, None]
        at = np.where(used, self.starts[groups, None] + np.arange(self.width),
                      0)
        return self.flat[at], used

    def tuples(self, group: int) -> list[tuple]:
        start = self.starts[group]
        return list(map(tuple, self.flat[start:start + self.lengths[group]]
                        .tolist()))


def _check_range(coords, dims, what) -> None:
    """Raise unless every coordinate axis lies within its region extent."""
    for axis, (lo, hi, dim) in enumerate(zip(coords.min(axis=0),
                                             coords.max(axis=0), dims)):
        if lo < 0 or hi >= dim:
            raise AddressOutOfRange(
                f"{what} axis {axis} spans {lo}..{hi}, outside 0..{dim - 1}"
            )


def _addresses(layer: LayerConfig, coords, slots, elems, taps):
    """Flat weight and input addresses of each (wave, slot, element)
    position, shape (waves, slots * elements); -1 where the position is
    empty, and for the input of a padding tap."""
    n, g, k, ox, oy = (coords[:, :, None, i] for i in range(5))
    c, r, s = (elems[:, None, :, i] for i in range(3))
    used = slots[:, :, None] & taps[:, None, :]
    ix = ox * layer.stride + r - layer.padding
    iy = oy * layer.stride + s - layer.padding
    tap = used & (ix >= 0) & (ix < layer.x) & (iy >= 0) & (iy < layer.y)
    w_addr = np.where(used, (((g * layer.k + k) * layer.c + c) * layer.r
                             + r) * layer.s + s, -1)
    i_addr = np.where(tap, (((n * layer.g + g) * layer.c + c) * layer.x
                            + ix) * layer.y + iy, -1)
    width = w_addr.shape[1] * w_addr.shape[2]
    return w_addr.reshape(-1, width), i_addr.reshape(-1, width)


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


class _WaveTimer:
    """Numbers wave signatures in order of first appearance and times each
    new one by running a representative wave on fresh components and a
    buffer of zeros, so no partial sum can overflow and the timing never
    sees the data."""

    def __init__(self, mapping, batches, blocks, input_dtype, weight_dtype):
        self.mapping = mapping
        self.batches, self.blocks = batches, blocks
        self.zeros = (np.zeros(input_dims(mapping.layer), input_dtype),
                      np.zeros(weight_dims(mapping.layer), weight_dtype))
        self.ids: dict[bytes, int] = {}
        # per signature: weight, input and wave cycles, then COUNTED
        self.records: list[tuple[int, ...]] = []

    def identify(self, waves, *parts) -> list[int]:
        """Signature ids of ``waves``, given their signature columns."""
        rows = np.ascontiguousarray(np.concatenate(parts, axis=1),
                                    dtype=np.int32)
        keys = rows.view(f"V{rows.shape[1] * 4}").ravel().tolist()
        for wave, key in zip(waves.tolist(), keys):
            if key not in self.ids:
                self.ids[key] = len(self.records)
                self.records.append(self._time(wave))
        return list(map(self.ids.__getitem__, keys))

    def _time(self, wave: int) -> tuple[int, ...]:
        b, f = divmod(wave, len(self.blocks))
        batch, block = self.batches.tuples(b), self.blocks.tuples(f)
        fabric = Fabric(self.mapping.hw)
        fabric.pb.load_layer_data(self.mapping.layer, *self.zeros)
        plan = self.mapping.reduction_plan(len(batch))
        accum = dict.fromkeys(range(len(batch)), 0)
        return run_wave(self.mapping, plan, batch, f, block, fabric, 0,
                        accum) + fabric.counts()


class _Outputs:
    """Exact output sums, accumulated chunk by chunk.

    Integer data sums in int64 when no output can leave it (R*S*C times
    the largest input and weight magnitudes), else in Python ints; float
    data sums in float64.
    """

    def __init__(self, layer: LayerConfig, inputs, weights):
        self.dims = output_dims(layer)
        self.dtype = inputs.dtype
        acc = np.float64
        if np.issubdtype(inputs.dtype, np.integer):
            peak = (_magnitude(inputs) * _magnitude(weights)
                    * layer.r * layer.s * layer.c)
            acc = np.int64 if peak <= np.iinfo(np.int64).max else object
        # address -1 (an empty position or a padding tap) reads the zero
        # appended to each tensor
        self.weights = np.append(weights.astype(acc).ravel(), 0)
        self.inputs = np.append(inputs.astype(acc).ravel(), 0)
        self.sums = np.zeros(self.dims, dtype=acc).ravel()

    def add(self, coords, slots, w_addr, i_addr) -> None:
        """Add the products of one chunk of waves to their outputs."""
        products = self.weights[w_addr] * self.inputs[i_addr]
        partial = products.reshape(slots.shape + (-1,)).sum(axis=2)
        out = np.ravel_multi_index(tuple(coords[:, :, i] for i in range(5)),
                                   self.dims)
        np.add.at(self.sums, out[slots], partial[slots])

    def result(self) -> np.ndarray:
        out = self.sums.reshape(self.dims)
        if np.issubdtype(self.dtype, np.integer):
            info = np.iinfo(self.dtype)
            bad = (out < info.min) | (out > info.max)
            if bad.any():
                coord = tuple(int(i) for i in np.argwhere(bad)[0])
                raise OutputOverflow(
                    f"output {coord} = {out[coord]} does not fit {self.dtype}"
                )
        return out.astype(self.dtype)


def _magnitude(a: np.ndarray) -> int:
    """Largest absolute value in the array, as a Python int."""
    return max(-int(a.min()), int(a.max()))
