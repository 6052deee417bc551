"""Datapath components in isolation: distribution, multiply, reduce,
collect."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treefab import ValidationError, plan_reduction
from treefab.fabric import (
    BusEvent,
    CollectorBuses,
    DistributionNetwork,
    MultiplierArray,
    Payload,
    ReductionNetwork,
    bus_grants,
    distribution,
    generate_dn_routes,
)
from treefab.memory import PrefetchBuffer, random_layer_data

from common import TINY


def tiny_pb():
    pb = PrefetchBuffer()
    pb.load_layer_data(TINY, *random_layer_data(TINY, seed=21))
    return pb


def input_payload(y, dests):
    return Payload(("inputs", (0, 0, 0, 0, y)), frozenset(dests))


class TestDistribution:
    def test_parallel_subtrees_one_cycle(self):
        pb = tiny_pb()
        dn = DistributionNetwork(num_ms=32, dn_bw=4)
        # one leaf per sub-tree
        payloads = [input_payload(i, {i * 8}) for i in range(4)]
        cycles, leaves = dn.deliver(payloads, pb)
        assert cycles == 1
        assert leaves == {i * 8: pb.peek(p.address)
                          for i, p in enumerate(payloads)}
        assert pb.counters.reads == 4

    def test_dn_bw_must_divide_num_ms(self):
        with pytest.raises(ValidationError,
                           match="^dn_bw must divide num_ms$"):
            DistributionNetwork(8, 3)

    def test_queueing_within_one_subtree(self):
        pb = tiny_pb()
        dn = DistributionNetwork(num_ms=32, dn_bw=4)
        # all five leaves in sub-tree 0
        payloads = [input_payload(i, {i}) for i in range(5)]
        cycles, _ = dn.deliver(payloads, pb)
        assert cycles == 5
        assert pb.counters.reads == 5

    def test_broadcast_counts_every_switch(self):
        pb = tiny_pb()
        dn = DistributionNetwork(num_ms=8, dn_bw=1)
        payload = input_payload(0, range(8))
        cycles, leaves = dn.deliver([payload], pb)
        assert cycles == 1
        assert leaves == {i: pb.peek(payload.address) for i in range(8)}
        assert dn.counters.traversals == 7
        assert pb.counters.reads == 1  # one read, multicast delivery

    def test_unicast_traversal_count(self):
        pb = tiny_pb()
        dn = DistributionNetwork(num_ms=8, dn_bw=1)
        dn.deliver([input_payload(0, {3})], pb)
        assert dn.counters.traversals == 3

    def test_no_payloads(self):
        dn = DistributionNetwork(num_ms=8, dn_bw=2)
        assert dn.deliver([], tiny_pb()) == (0, {})

    def test_cross_subtree_payload_read_once(self):
        pb = tiny_pb()
        dn = DistributionNetwork(num_ms=32, dn_bw=4)
        payload = input_payload(0, {0, 8, 16})
        cycles, leaves = dn.deliver([payload], pb)
        assert cycles == 1
        assert set(leaves) == {0, 8, 16}
        assert pb.counters.reads == 1


def per_switch_dn_routes(num_ms, dn_bw, dest_leaves):
    """Reference definition of the DN routes, switch by switch: a switch
    is on the cover iff a destination lies under it, and each of its bits
    is set iff a destination lies under that child."""
    per_tree = num_ms // dn_bw
    routes = {}
    if per_tree == 1:
        return routes
    depth_max = per_tree.bit_length() - 1
    by_tree = {}
    for leaf in sorted(set(dest_leaves)):
        by_tree.setdefault(leaf // per_tree, []).append(leaf % per_tree)
    for tree, local in by_tree.items():
        for depth in range(depth_max):
            span = per_tree >> depth
            for idx in {leaf // span for leaf in local}:
                lo = idx * span
                mid = lo + span // 2
                left = any(lo <= leaf < mid for leaf in local)
                right = any(mid <= leaf < lo + span for leaf in local)
                routes[(tree, depth, idx)] = (left, right)
    return routes


DN_SHAPES = [(1 << m, 1 << b) for m in range(7) for b in range(m + 1)]


class TestDnRouteWalk:
    @pytest.mark.parametrize("num_ms,dn_bw", DN_SHAPES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_per_switch_definition(self, num_ms, dn_bw, data):
        dests = data.draw(st.frozensets(st.integers(0, num_ms - 1),
                                        min_size=1))
        routes = generate_dn_routes(num_ms, dn_bw, dests)
        assert routes == per_switch_dn_routes(num_ms, dn_bw, dests)
        dn = DistributionNetwork(num_ms, dn_bw)
        dn.deliver([input_payload(0, dests)], tiny_pb())
        assert dn.counters.traversals == len(routes)


def stepped_distribution(num_ms, dn_bw, dests):
    """Distribute one payload per destination set, cycle by cycle: each
    sub-tree queues, in order, the payloads with a leaf under it and
    injects one per cycle; a payload is read from the PB on the first
    cycle that injects it.  Returns the PB reads of each cycle."""
    per_tree = num_ms // dn_bw
    queues = [[i for i, d in enumerate(dests)
               if any(leaf // per_tree == tree for leaf in d)]
              for tree in range(dn_bw)]
    read, reads = set(), []
    while any(queues):
        injected = {queue.pop(0) for queue in queues if queue}
        reads.append(len(injected - read))
        read |= injected
    return reads


class TestDistributionRule:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_stepped_subtrees(self, data):
        num_ms, dn_bw = data.draw(st.sampled_from(DN_SHAPES))
        dests = data.draw(st.lists(
            st.frozensets(st.integers(0, num_ms - 1), min_size=1),
            max_size=10))
        reads = stepped_distribution(num_ms, dn_bw, dests)
        assert distribution(num_ms, dn_bw, dests) == (
            len(reads),
            sum(len(per_switch_dn_routes(num_ms, dn_bw, d)) for d in dests))
        assert sum(reads) == len(dests)
        # the PB is never asked for more reads in a cycle than the DN has
        # sub-trees
        assert all(n <= dn_bw for n in reads)


def level_walk_distribution(num_ms, dn_bw, dests):
    """Reference definition of the DN count, level by level: each
    payload's cover is counted on the set of its ancestors at each level,
    which shrinks as it climbs; above the top switches (sub-trees hold a
    power of two of leaves) the set is the payload's sub-trees."""
    depth = (num_ms // dn_bw).bit_length() - 1  # switch levels per sub-tree
    queued = [0] * dn_bw  # sub-tree -> payloads injected on it
    traversals = 0
    for d in dests:
        nodes = set(d)
        for _ in range(depth):
            nodes = {node >> 1 for node in nodes}
            traversals += len(nodes)
        for tree in nodes:
            queued[tree] += 1
    return max(queued), traversals


class TestDistributionCover:
    def test_every_leaf_set_of_small_fabrics(self):
        # every nonempty leaf set of 2, 4 and 8 leaves, under every dn_bw
        checked = 0
        for num_ms in (2, 4, 8):
            for dn_bw in (1 << b for b in range(num_ms.bit_length())):
                for mask in range(1, 1 << num_ms):
                    leaves = [leaf for leaf in range(num_ms)
                              if mask >> leaf & 1]
                    assert distribution(num_ms, dn_bw, [leaves]) == (
                        level_walk_distribution(num_ms, dn_bw, [leaves]))
                    checked += 1
        assert checked == 2 * 3 + 3 * 15 + 4 * 255

    @pytest.mark.parametrize("num_ms", [16, 32, 64, 128, 256])
    def test_seeded_payload_lists(self, num_ms):
        # lists of up to 12 payloads, each up to the whole fabric, leaves
        # in any order and, in half the lists, repeated
        rng = random.Random(num_ms)
        for _ in range(200):
            dn_bw = 1 << rng.randrange(num_ms.bit_length())
            draw = rng.choice((rng.sample, rng.choices))
            dests = [draw(range(num_ms), k=rng.randint(
                         1, num_ms >> rng.randrange(num_ms.bit_length())))
                     for _ in range(rng.randint(1, 12))]
            assert distribution(num_ms, dn_bw, dests) == (
                level_walk_distribution(num_ms, dn_bw, dests))

    def test_empty_destination_set(self):
        for dests in ([], [set()], [set(), {3}, set()]):
            assert distribution(8, 2, dests) == (
                level_walk_distribution(8, 2, dests))
        assert distribution(8, 2, [set()]) == (0, 0)


class TestMultipliers:
    def test_product(self):
        ms = MultiplierArray(8)
        out = ms.multiply({0: 3}, {0: 4})
        assert out == {0: 12}
        assert ms.counters.multiplications == 1

    def test_forwarder_passthrough(self):
        ms = MultiplierArray(8)
        assert ms.forward(5, 7) == {5: 7}
        assert ms.counters.forwarder_injections == 1
        assert ms.counters.multiplications == 0

    def test_idle_leaves_untouched(self):
        ms = MultiplierArray(8)
        out = ms.multiply({1: 2, 3: 5}, {1: 10, 3: 1, 6: 99})
        assert out == {1: 20, 3: 5}
        assert ms.counters.multiplications == 2


class TestReductionReplay:
    def test_per_cluster_sums(self):
        plan = plan_reduction([0, 0, 0, 1, 1, 1, 1, 1])
        rn = ReductionNetwork(8)
        values = {i: v for i, v in enumerate(range(1, 9))}
        assert rn.replay(plan, values) == {0: 1 + 2 + 3, 1: 4 + 5 + 6 + 7 + 8}
        assert rn.counters.additions == plan.adds_per_wave
        assert rn.counters.fifo_pushes == len(plan.ops)

    def test_missing_leaves_read_as_zero(self):
        plan = plan_reduction([0, 0, 0, 0])
        rn = ReductionNetwork(4)
        assert rn.replay(plan, {0: 5, 2: 3}) == {0: 8}


class TestCollectorBuses:
    def test_shared_bus_serializes(self):
        pb = tiny_pb()
        cb = CollectorBuses(rn_bw=1)
        events = [
            BusEvent(arrival=0, as_index=i,
                     address=("psum", (0, 0, i, 0, 0)), value=i)
            for i in range(3)
        ]
        last = cb.drain(events, pb)
        assert last == 2  # three grants over three cycles
        assert cb.counters.grants == 3
        assert cb.counters.conflicts == 2
        assert [pb.peek(("psum", (0, 0, i, 0, 0))) for i in range(3)] == \
            [0, 1, 2]

    def test_parallel_buses(self):
        pb = tiny_pb()
        cb = CollectorBuses(rn_bw=4)
        events = [
            BusEvent(arrival=2, as_index=i,
                     address=("psum", (0, 0, i, 0, 0)), value=1)
            for i in range(4)
        ]
        assert cb.drain(events, pb) == 2
        assert cb.counters.conflicts == 0
        assert cb.counters.grants == 4

    def test_empty(self):
        cb = CollectorBuses(rn_bw=2)
        assert cb.drain([], tiny_pb()) == -1
        assert cb.counters.grants == 0


def stepped_buses(rn_bw, values):
    """Drain ``(arrival, egress index)`` values cycle by cycle: bus
    ``index mod rn_bw`` grants, each cycle, its oldest arrived value,
    ties to the lower index.  Returns each value's grant cycle and the
    grants of each cycle."""
    grants = [None] * len(values)
    per_cycle = []
    while None in grants:
        cycle, granted = len(per_cycle), 0
        for bus in range(rn_bw):
            ready = [i for i, (arrival, index) in enumerate(values)
                     if grants[i] is None and index % rn_bw == bus
                     and arrival <= cycle]
            if ready:
                grants[min(ready, key=values.__getitem__)] = cycle
                granted += 1
        per_cycle.append(granted)
    return grants, per_cycle


class TestBusRule:
    @settings(max_examples=300, deadline=None)
    @given(rn_bw=st.integers(1, 8), values=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 40)), max_size=12))
    def test_matches_stepped_buses(self, rn_bw, values):
        grants, per_cycle = stepped_buses(rn_bw, values)
        assert bus_grants(rn_bw, values) == grants
        # the PB is never asked for more writes in a cycle than there are
        # buses
        assert all(n <= rn_bw for n in per_cycle)
