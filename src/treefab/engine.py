"""Cycle-accurate wave engine.

Executes a mapping plan batch by batch.  Each batch maps one output per
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
from .fabric import (
    BusEvent,
    CollectorBuses,
    DistributionNetwork,
    MultiplierArray,
    Payload,
    ReductionNetwork,
)
from .mapper import MappingPlan, build_mapping, theoretical_utilization
from .memory import PrefetchBuffer


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


def simulate_layer(hw: HardwareConfig, layer: LayerConfig, tile: TileConfig,
                   inputs: np.ndarray, weights: np.ndarray,
                   trace=None) -> SimResult:
    """Run one layer through the fabric; deterministic for fixed inputs."""
    mapping = build_mapping(hw, layer, tile)
    roundtrip = hw.folding is FoldingStrategy.ROUNDTRIP

    pb = PrefetchBuffer(read_ports=hw.dn_bw, write_ports=hw.rn_bw)
    pb.load_layer_data(layer, inputs, weights)
    dn = DistributionNetwork(hw.num_ms, hw.dn_bw)
    ms = MultiplierArray(hw.num_ms)
    rn = ReductionNetwork(hw.num_ms)
    cb = CollectorBuses(hw.rn_bw)

    fold_blocks = list(mapping.fold_blocks)
    last_fold = mapping.folds - 1
    cycle = 0
    waves = 0

    for batch in mapping.schedule:
        n_occ = len(batch)
        plan = mapping.reduction_plan(n_occ)
        accum = dict.fromkeys(range(n_occ), 0)  # ideal-strategy egress adders

        for f, block in enumerate(fold_blocks):
            waves += 1
            # -- weight distribution --------------------------------------
            w_payloads: dict[tuple, set[int]] = {}
            for slot, (n, g, k, ox, oy) in enumerate(batch):
                for e, (c, r, s) in enumerate(block):
                    addr = ("weights", (g, k, c, r, s))
                    w_payloads.setdefault(addr, set()).add(
                        mapping.element_leaf(slot, e)
                    )
            wc, leaf_w = dn.deliver(
                [Payload(a, frozenset(d)) for a, d in w_payloads.items()],
                pb, cycle,
            )
            cycle += wc

            # -- input (and partial-sum) distribution ---------------------
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
                if mapping.has_forwarder and f > 0:
                    addr = ("psum", (n, g, k, ox, oy))
                    i_payloads.setdefault(addr, set()).add(
                        mapping.forwarder_leaf(slot)
                    )
            ic, leaf_i = dn.deliver(
                [Payload(a, frozenset(d)) for a, d in i_payloads.items()],
                pb, cycle,
            )
            cycle += ic

            # -- multiply (one cycle) -------------------------------------
            # a forwarder has nothing to inject on the first fold, so the
            # reduction reads its leaf as 0
            leaf_vals = ms.multiply(leaf_w, leaf_i)
            if mapping.has_forwarder and f > 0:
                for slot in range(n_occ):
                    fwd = mapping.forwarder_leaf(slot)
                    leaf_vals.update(ms.forward(fwd, leaf_i[fwd]))
            cycle += 1

            # -- reduce and collect ---------------------------------------
            sums = rn.replay(plan, leaf_vals)
            if not roundtrip:
                for slot in range(n_occ):
                    accum[slot] += sums[slot]
                if f > 0:
                    rn.counters.additions += n_occ
                sums = accum
            if roundtrip or f == last_fold:
                region = "outputs" if f == last_fold else "psum"
                events = []
                for slot, coord in enumerate(batch):
                    as_index, arrival = plan.egress[slot]
                    events.append(BusEvent(arrival, as_index, (region, coord),
                                           sums[slot]))
                cycle += cb.drain(events, pb, cycle) + 1

            if trace is not None:
                trace({
                    "wave": waves, "fold": f, "batch_size": n_occ,
                    "cycle": cycle, "weight_cycles": wc, "input_cycles": ic,
                })

    util = theoretical_utilization(hw, mapping)
    busy = ms.counters.multiplications + ms.counters.forwarder_injections
    stats = SimStats(
        total_cycles=cycle,
        busy_ms_cycles=busy,
        effective_ms_utilization=busy / (hw.num_ms * cycle),
        theoretical_utilization=util.fraction,
        ms_multiplications=ms.counters.multiplications,
        forwarder_injections=ms.counters.forwarder_injections,
        pb_reads=pb.counters.reads,
        pb_writes=pb.counters.writes,
        ds_traversals=dn.counters.traversals,
        as_additions=rn.counters.additions,
        fifo_pushes=rn.counters.fifo_pushes,
        fifo_pops=rn.counters.fifo_pushes,
        cb_grants=cb.counters.grants,
        cb_conflicts=cb.counters.conflicts,
        fold_roundtrips=ms.counters.forwarder_injections,
        folds=mapping.folds,
        waves=waves,
        n_vns_mapped=mapping.n_vns_mapped,
        vn_size=mapping.vn_size,
        real_vn_size=mapping.real_vn_size,
        strategy=hw.folding.value,
    )
    assert stats.ms_multiplications == total_macs(layer)
    return SimResult(output=pb.output_array(), stats=stats, mapping=mapping)
