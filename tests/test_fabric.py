"""Datapath components in isolation: distribution, multiply, reduce,
collect."""

import numpy as np

from treefab import plan_reduction
from treefab.fabric import (
    BusEvent,
    CollectorBuses,
    DistributionNetwork,
    MultiplierArray,
    Payload,
    ReductionNetwork,
)
from treefab.memory import PrefetchBuffer, random_layer_data

from common import TINY


def tiny_pb(read_ports=4, write_ports=4):
    pb = PrefetchBuffer(read_ports, write_ports)
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
        cycles, leaves = dn.deliver(payloads, pb, base_cycle=0)
        assert cycles == 1
        assert leaves == {i * 8: pb.peek(p.address)
                          for i, p in enumerate(payloads)}
        assert pb.counters.reads == 4

    def test_queueing_within_one_subtree(self):
        pb = tiny_pb()
        dn = DistributionNetwork(num_ms=32, dn_bw=4)
        # all five leaves in sub-tree 0
        payloads = [input_payload(i, {i}) for i in range(5)]
        cycles, _ = dn.deliver(payloads, pb, base_cycle=0)
        assert cycles == 5
        assert pb.counters.reads == 5

    def test_broadcast_counts_every_switch(self):
        pb = tiny_pb()
        dn = DistributionNetwork(num_ms=8, dn_bw=1)
        payload = input_payload(0, range(8))
        cycles, leaves = dn.deliver([payload], pb, base_cycle=0)
        assert cycles == 1
        assert leaves == {i: pb.peek(payload.address) for i in range(8)}
        assert dn.counters.traversals == 7
        assert pb.counters.reads == 1  # one read, multicast delivery

    def test_unicast_traversal_count(self):
        pb = tiny_pb()
        dn = DistributionNetwork(num_ms=8, dn_bw=1)
        dn.deliver([input_payload(0, {3})], pb, base_cycle=0)
        assert dn.counters.traversals == 3

    def test_no_payloads(self):
        dn = DistributionNetwork(num_ms=8, dn_bw=2)
        assert dn.deliver([], tiny_pb(), base_cycle=0) == (0, {})

    def test_cross_subtree_payload_read_once(self):
        pb = tiny_pb()
        dn = DistributionNetwork(num_ms=32, dn_bw=4)
        payload = input_payload(0, {0, 8, 16})
        cycles, leaves = dn.deliver([payload], pb, base_cycle=0)
        assert cycles == 1
        assert set(leaves) == {0, 8, 16}
        assert pb.counters.reads == 1

    def test_payload_read_on_first_free_subtree_cycle(self):
        pb = tiny_pb()
        dn = DistributionNetwork(num_ms=32, dn_bw=4)
        reads = []
        serve_reads = pb.serve_reads
        pb.serve_reads = lambda reqs, cycle: (
            reads.append((cycle, list(reqs))) or serve_reads(reqs, cycle))
        # sub-tree 0 is busy for two cycles; the shared payload is read
        # in cycle 0 anyway, on its free sub-tree 1
        payloads = [input_payload(0, {0}), input_payload(1, {1}),
                    input_payload(2, {2, 8})]
        cycles, leaves = dn.deliver(payloads, pb, base_cycle=10)
        assert cycles == 3
        assert reads == [(10, [payloads[0].address, payloads[2].address]),
                         (11, [payloads[1].address])]
        assert leaves[2] == leaves[8] == pb.peek(payloads[2].address)


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
        pb = tiny_pb(write_ports=1)
        cb = CollectorBuses(rn_bw=1)
        events = [
            BusEvent(arrival=0, as_index=i,
                     address=("psum", (0, 0, i, 0, 0)), value=i)
            for i in range(3)
        ]
        last = cb.drain(events, pb, base_cycle=0)
        assert last == 2  # three grants over three cycles
        assert cb.counters.grants == 3
        assert cb.counters.conflicts == 2
        assert [pb.peek(("psum", (0, 0, i, 0, 0))) for i in range(3)] == \
            [0, 1, 2]

    def test_parallel_buses(self):
        pb = tiny_pb(write_ports=4)
        cb = CollectorBuses(rn_bw=4)
        events = [
            BusEvent(arrival=2, as_index=i,
                     address=("psum", (0, 0, i, 0, 0)), value=1)
            for i in range(4)
        ]
        assert cb.drain(events, pb, base_cycle=0) == 2
        assert cb.counters.conflicts == 0
        assert cb.counters.grants == 4

    def test_empty(self):
        cb = CollectorBuses(rn_bw=2)
        assert cb.drain([], tiny_pb(), base_cycle=0) == -1
        assert cb.counters.grants == 0
