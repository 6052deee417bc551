"""Datapath components: distribution trees, multipliers, reduction
replay and collector buses.

Each component models one bandwidth constraint of the fabric and counts
its own activity as it moves values (the reduction replay counts the ops
it executes, not the plan's totals).  With ``memory.PrefetchBuffer``
they are the step-by-step reference: the test suite's
``tests/wave_reference.py`` wires them together per wave to check the
counts the engine takes from each wave's signature (``engine._record``).
The distribution network is modelled here whole: payload injection, the
count of switches on each payload's multicast cover, and the bit-vector
routing tables of those switches (``generate_dn_routes``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .memory import PrefetchBuffer
from .reduction import ReductionPlan


@dataclass
class Payload:
    """One buffer address to distribute: read once, multicast to ``dests``."""

    address: tuple
    dests: frozenset


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
    depth_max = per_tree.bit_length() - 1  # switches at depths 0..depth_max-1
    routes: dict[tuple[int, int, int], tuple[bool, bool]] = {}
    for leaf in dest_leaves:
        # walk up from the leaf, setting the bit of the child it came from
        tree, node = divmod(leaf, per_tree)
        for depth in range(depth_max - 1, -1, -1):
            node, bit = divmod(node, 2)
            key = (tree, depth, node)
            seen = key in routes
            left, right = routes.get(key, (False, False))
            routes[key] = (left or bit == 0, right or bit == 1)
            if seen:
                break  # its ancestors already route towards this switch
    return routes


@dataclass
class DNCounters:
    traversals: int = 0  # switch activations on multicast covers


class DistributionNetwork:
    """``dn_bw`` binary sub-trees, each injecting one value per cycle.

    A payload whose destinations span several sub-trees is injected on
    each of them but read from the prefetch buffer only once, on its
    first injection.
    """

    def __init__(self, num_ms: int, dn_bw: int):
        if num_ms % dn_bw:
            raise ValidationError("dn_bw must divide num_ms")
        self.num_ms = num_ms
        self.dn_bw = dn_bw
        self.per_tree = num_ms // dn_bw
        self.counters = DNCounters()

    def deliver(self, payloads: list[Payload], pb: PrefetchBuffer,
                base_cycle: int) -> tuple[int, dict[int, object]]:
        """Distribute all payloads; returns (cycles used, leaf values)."""
        queued: dict[int, int] = {}  # sub-tree -> payloads injected on it
        first_reads: dict[int, list[Payload]] = {}  # cycle -> payloads
        for p in payloads:
            trees = {leaf // self.per_tree for leaf in p.dests}
            first = min(queued.get(tree, 0) for tree in trees)
            for tree in trees:
                queued[tree] = queued.get(tree, 0) + 1
            first_reads.setdefault(first, []).append(p)

        leaf_values: dict[int, object] = {}
        for t, batch in sorted(first_reads.items()):
            served, deferred = pb.serve_reads([p.address for p in batch],
                                              base_cycle + t)
            # one first-read per sub-tree per cycle, never over ports
            assert not deferred
            for p, (_, value) in zip(batch, served):
                # the cover's switches: each destination's ancestors
                self.counters.traversals += len(
                    {(h, leaf >> h) for leaf in p.dests
                     for h in range(1, self.per_tree.bit_length())})
                for leaf in p.dests:
                    leaf_values[leaf] = value
        return max(queued.values(), default=0), leaf_values


@dataclass
class MSCounters:
    multiplications: int = 0
    forwarder_injections: int = 0


class MultiplierArray:
    """Flat array of multiplier switches; one product per leaf per wave."""

    def __init__(self, num_ms: int):
        self.num_ms = num_ms
        self.counters = MSCounters()

    def multiply(self, weights: dict[int, object],
                 inputs: dict[int, object]) -> dict[int, object]:
        """One multiply cycle: product at every leaf holding a weight."""
        products = {}
        for leaf, w in weights.items():
            products[leaf] = w * inputs.get(leaf, 0)
        self.counters.multiplications += len(products)
        return products

    def forward(self, leaf: int, value) -> dict[int, object]:
        """Forwarder switch injects a partial sum alongside the products."""
        self.counters.forwarder_injections += 1
        return {leaf: value}


@dataclass
class RNCounters:
    additions: int = 0
    fifo_pushes: int = 0  # every switch result passes through its FIFO


class ReductionNetwork:
    """Replays a reduction plan on concrete leaf values."""

    def __init__(self, num_ms: int):
        self.num_ms = num_ms
        self.counters = RNCounters()

    def replay(self, plan: ReductionPlan,
               leaf_values: dict[int, object]) -> dict[int, object]:
        """Per-cluster sums; leaves missing from ``leaf_values`` read 0."""
        op_values: list = [None] * len(plan.ops)
        sums: dict[int, object] = {}
        for op in plan.ops:
            total = 0
            for kind, idx in op.sources:
                total += (leaf_values.get(idx, 0) if kind == "leaf"
                          else op_values[idx])
            op_values[op.index] = total
            self.counters.additions += len(op.sources) - 1
            self.counters.fifo_pushes += 1
            if op.route == "egress":
                sums[op.vn] = total
        return sums


@dataclass
class CBCounters:
    grants: int = 0
    conflicts: int = 0  # value ready but its bus was granted elsewhere


@dataclass
class BusEvent:
    arrival: int  # cycle the value reaches the bus, relative to wave start
    as_index: int
    address: tuple
    value: object


class CollectorBuses:
    """``rn_bw`` buses from reduction egress ports to the PB write ports.

    Egress switch ``i`` is wired to bus ``i mod rn_bw``; each bus grants
    one value per cycle, oldest arrival first (ties by switch index).
    """

    def __init__(self, rn_bw: int):
        self.rn_bw = rn_bw
        self.counters = CBCounters()

    def drain(self, events: list[BusEvent], pb: PrefetchBuffer,
              base_cycle: int) -> int:
        """Write all events; returns the last grant cycle (relative)."""
        if not events:
            return -1
        by_bus: dict[int, list[BusEvent]] = {}
        for ev in events:
            by_bus.setdefault(ev.as_index % self.rn_bw, []).append(ev)
        writes_by_cycle: dict[int, list] = {}
        last = -1
        for bus in sorted(by_bus):
            queue = sorted(by_bus[bus], key=lambda e: (e.arrival, e.as_index))
            free = 0
            for ev in queue:
                grant = max(ev.arrival, free)
                if grant > ev.arrival:
                    self.counters.conflicts += 1
                self.counters.grants += 1
                free = grant + 1
                last = max(last, grant)
                writes_by_cycle.setdefault(grant, []).append(
                    (ev.address, ev.value)
                )
        for t in sorted(writes_by_cycle):
            _, deferred = pb.serve_writes(writes_by_cycle[t], base_cycle + t)
            # one grant per bus per cycle, buses == write ports
            assert not deferred
        return last
