"""Datapath components: distribution trees, multipliers, reduction
replay and collector buses.

The fabric's two bandwidth rules are stated once each, as count
functions that the engine (``engine._record``) and the step-by-step
components below both call: ``distribution`` for the DN sub-trees and
``bus_grants`` for the collector buses.  The prefetch buffer
(``memory.PrefetchBuffer``) has no ports of its own; the sub-trees
bound its reads and the buses its writes.  The components move values
and count their own activity (the reduction replay counts the ops it
executes, not the plan's totals); ``tests/wave_reference.py`` wires
them together per wave, on real data, to check the counts the engine
takes from each wave's signature.  The distribution network is
modelled here whole: payload injection, the count of switches on each
payload's multicast cover, and the bit-vector routing tables of those
switches (``generate_dn_routes``).
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


def distribution(num_ms: int, dn_bw: int, dests) -> tuple[int, int]:
    """(cycles, switch traversals) of distributing one payload to each
    destination set in ``dests``.

    Each of the ``dn_bw`` sub-trees injects one payload per cycle, and a
    payload is injected on every sub-tree that holds one of its leaves,
    so the cycles are the most payloads on any sub-tree.  A payload
    traverses each switch on its cover: each destination's ancestors.
    """
    per_tree = num_ms // dn_bw
    queued = [0] * dn_bw  # sub-tree -> payloads injected on it
    traversals = 0
    for d in dests:
        for tree in {leaf // per_tree for leaf in d}:
            queued[tree] += 1
        traversals += len({(h, leaf >> h) for leaf in d
                           for h in range(1, per_tree.bit_length())})
    return max(queued), traversals


@dataclass
class DNCounters:
    traversals: int = 0  # switch activations on multicast covers


class DistributionNetwork:
    """``dn_bw`` binary sub-trees, each injecting one value per cycle
    (``distribution``).

    A payload whose destinations span several sub-trees is injected on
    each of them but read from the prefetch buffer only once.
    """

    def __init__(self, num_ms: int, dn_bw: int):
        if num_ms % dn_bw:
            raise ValidationError("dn_bw must divide num_ms")
        self.num_ms = num_ms
        self.dn_bw = dn_bw
        self.counters = DNCounters()

    def deliver(self, payloads: list[Payload],
                pb: PrefetchBuffer) -> tuple[int, dict[int, object]]:
        """Distribute all payloads; returns (cycles used, leaf values)."""
        cycles, traversals = distribution(self.num_ms, self.dn_bw,
                                          [p.dests for p in payloads])
        self.counters.traversals += traversals
        values = pb.serve_reads([p.address for p in payloads])
        return cycles, {leaf: value for p, value in zip(payloads, values)
                        for leaf in p.dests}


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


def bus_grants(rn_bw: int, values) -> list[int]:
    """The grant cycle of each ``(arrival, egress index)`` in ``values``.

    Egress switch ``i`` is wired to bus ``i mod rn_bw``; each bus grants
    one value per cycle, oldest arrival first, ties to the lower switch
    index.
    """
    grants = [0] * len(values)
    free: dict[int, int] = {}  # bus -> its next free cycle
    for i in sorted(range(len(values)), key=values.__getitem__):
        arrival, index = values[i]
        bus = index % rn_bw
        grants[i] = max(arrival, free.get(bus, 0))
        free[bus] = grants[i] + 1
    return grants


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
    """``rn_bw`` buses from the reduction egress ports to the PB, granted
    as ``bus_grants`` rules."""

    def __init__(self, rn_bw: int):
        self.rn_bw = rn_bw
        self.counters = CBCounters()

    def drain(self, events: list[BusEvent], pb: PrefetchBuffer) -> int:
        """Write all events; returns the last grant cycle (relative)."""
        grants = bus_grants(self.rn_bw,
                            [(ev.arrival, ev.as_index) for ev in events])
        self.counters.grants += len(events)
        self.counters.conflicts += sum(
            grant > ev.arrival for grant, ev in zip(grants, events))
        pb.serve_writes([(ev.address, ev.value) for ev in events])
        return max(grants, default=-1)
