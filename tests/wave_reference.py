"""Per-wave reference for the engine.

Runs every wave of a layer, one after another, through the step-by-step
fabric components of ``treefab.fabric`` on a ``PrefetchBuffer`` loaded
with the real data: payloads are read and multicast, products formed,
the reduction plan replayed on values and the sums drained over the
collector buses.  ``simulate_layer`` counts each distinct wave once from
its signature and must give the same stats, outputs, trace events and
per-wave records.
"""

from treefab import engine
from treefab.config import FoldingStrategy
from treefab.fabric import (
    BusEvent,
    CollectorBuses,
    DistributionNetwork,
    MultiplierArray,
    Payload,
    ReductionNetwork,
)
from treefab.mapper import build_mapping
from treefab.memory import PrefetchBuffer
from treefab.reduction import clusters, plan_reduction


class Fabric:
    """The buffer and the datapath components of one fabric."""

    def __init__(self, hw):
        self.pb = PrefetchBuffer()
        self.dn = DistributionNetwork(hw.num_ms, hw.dn_bw)
        self.ms = MultiplierArray(hw.num_ms)
        self.rn = ReductionNetwork(hw.num_ms)
        self.cb = CollectorBuses(hw.rn_bw)

    def counts(self) -> tuple[int, ...]:
        """The counters, in ``engine.COUNTED`` order."""
        ms, rn, cb = self.ms.counters, self.rn.counters, self.cb.counters
        return (ms.multiplications, ms.forwarder_injections,
                self.pb.counters.reads, self.pb.counters.writes,
                self.dn.counters.traversals, rn.additions, rn.fifo_pushes,
                cb.grants, cb.conflicts)


def run_wave(mapping, plan, members, batch, f, block, fabric, cycle,
             accum):
    """Run fold ``f`` (weight coordinates ``block``) of ``batch`` from
    ``cycle``, on the clusters ``members`` (each slot's leaves, the
    forwarder last) that ``plan`` reduces:

    1. distribute the fold's weights (shared weights multicast once),
    2. distribute the fold's inputs, plus the stored partial sum to the
       cluster's forwarder switch on roundtrip folds after the first,
    3. one multiply cycle,
    4. reduce through the tree and drain egress values over the
       collector buses into the prefetch buffer.

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
            w_payloads.setdefault(addr, set()).add(members[slot][e])
    wc, leaf_w = dn.deliver(
        [Payload(a, frozenset(d)) for a, d in w_payloads.items()], pb)
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
                i_payloads.setdefault(addr, set()).add(members[slot][e])
        if forward:
            addr = ("psum", (n, g, k, ox, oy))
            i_payloads.setdefault(addr, set()).add(members[slot][-1])
    ic, leaf_i = dn.deliver(
        [Payload(a, frozenset(d)) for a, d in i_payloads.items()], pb)
    cycle += ic

    # -- multiply (one cycle) ---------------------------------------------
    # a forwarder has nothing to inject on the first fold, so the
    # reduction reads its leaf as 0
    leaf_vals = ms.multiply(leaf_w, leaf_i)
    if forward:
        for slot in range(len(batch)):
            fwd = members[slot][-1]
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
        cycle += cb.drain(events, pb) + 1
    return wc, ic, cycle - start


def wave_records(mapping, fabric):
    """Run every wave of ``mapping`` on ``fabric`` in issue order; yield
    each wave's fold, batch size and record: its weight, input and wave
    cycles, then how much each ``engine.COUNTED`` counter rose."""
    blocks = list(mapping.fold_blocks)
    cycle = 0
    for batch in mapping.schedule:
        vn_of_leaf = clusters(mapping.hw.num_ms, mapping.real_vn_size,
                              len(batch))
        plan = plan_reduction(vn_of_leaf)
        members = [[leaf for leaf, vn in enumerate(vn_of_leaf) if vn == slot]
                   for slot in range(len(batch))]
        accum = dict.fromkeys(range(len(batch)), 0)
        for f, block in enumerate(blocks):
            before = fabric.counts()
            cycles = run_wave(mapping, plan, members, batch, f, block, fabric,
                              cycle, accum)
            cycle += cycles[2]
            yield f, len(batch), cycles + tuple(
                b - a for a, b in zip(before, fabric.counts()))


def simulate_per_wave(hw, layer, tile, inputs, weights, trace=None):
    mapping = build_mapping(hw, layer, tile)
    fabric = Fabric(hw)
    fabric.pb.load_layer_data(layer, inputs, weights)
    cycle = waves = 0
    for f, size, (wc, ic, cycles, *_) in wave_records(mapping, fabric):
        cycle += cycles
        waves += 1
        if trace is not None:
            trace({
                "wave": waves, "fold": f, "batch_size": size,
                "cycle": cycle, "weight_cycles": wc, "input_cycles": ic,
            })
    stats = engine.layer_stats(mapping, cycle, waves, fabric.counts())
    return engine.SimResult(output=fabric.pb.output_array(), stats=stats,
                            mapping=mapping)
