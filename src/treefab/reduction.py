"""Configuration planner for the augmented reduction tree.

The reduction network is a binary adder tree over the multiplier leaves,
augmented with lateral links between same-level nodes that do not share a
parent.  Each adder switch runs in one of four modes (2:1 add, 3:1 add,
1:1 add plus 1:1 forward, 2:2 forward), which together let any set of
contiguous, non-overlapping multiplier clusters reduce simultaneously
without blocking each other.

``plan_reduction`` turns a leaf-to-cluster assignment (of a batch:
``clusters``) into a static plan: a time-ordered list of add/forward
micro-ops and the egress switch plus completion latency of every
cluster; ``switch_modes`` derives each switch's mode from the ops on
request.  The engine counts a wave's additions, FIFO pushes and drain
from the plan; the step-by-step reference ``fabric.ReductionNetwork``
replays it on concrete values, and it is independently checkable
against a direct per-cluster sum.

Timing: values advance one tree level per cycle; a lateral hop costs one
extra cycle (``AUG_HOP_EXTRA_CYCLES``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ValidationError

AUG_HOP_EXTRA_CYCLES = 1


class ASMode(Enum):
    ADD_2_1 = "2:1 add"
    ADD_3_1 = "3:1 add"
    ADD_1_FWD_1 = "1:1 add + 1:1 forward"
    FWD_2_2 = "2:2 forward"
    IDLE = "idle"


@dataclass(frozen=True)
class ReduceOp:
    """One action of one adder switch during a reduction wave.

    ``sources`` are ``("leaf", i)`` or ``("op", idx)`` references; more
    than one source means the switch adds them.  ``time`` is the cycle
    (relative to leaf injection at cycle 0) at which the result is
    available on the chosen output.
    """

    index: int
    level: int
    node: int
    vn: int
    sources: tuple[tuple, ...]
    route: str  # "parent" | "aug" | "egress"
    time: int


@dataclass(frozen=True)
class ReductionPlan:
    num_leaves: int
    ops: list[ReduceOp]
    egress: dict[int, tuple[int, int]]  # vn -> (as_index, completion time)
    adds_per_wave: int

    def as_index(self, level: int, node: int) -> int:
        """Level-major global numbering of adder switches."""
        return self.num_leaves - (self.num_leaves >> (level - 1)) + node


@dataclass
class _Group:
    """The fragments of one cluster that one node holds while the plan is
    being built: their refs, the leaves they cover, and the cycle the last
    of them is usable at the node."""

    refs: list
    covered: int
    arrival: int


def _hold(groups: dict, node: int, vn: int, ref: tuple, covered: int,
          arrival: int) -> None:
    """Add a fragment of cluster ``vn`` to what ``node`` holds."""
    group = groups.setdefault(node, {}).get(vn)
    if group is None:
        groups[node][vn] = _Group([ref], covered, arrival)
    else:
        group.refs.append(ref)
        group.covered += covered
        group.arrival = max(group.arrival, arrival)


def clusters(num_leaves: int, width: int, count: int) -> list:
    """The ``vn_of_leaf`` list of ``count`` clusters of ``width`` leaves
    from leaf 0: cluster ``v`` holds leaves ``v*width`` to ``v*width +
    width - 1``, its forwarder (if any) last; later leaves idle."""
    return [leaf // width if leaf < width * count else None
            for leaf in range(num_leaves)]


def _cluster_sizes(vn_of_leaf) -> dict[int, int]:
    sizes: dict[int, int] = {}
    for i, vn in enumerate(vn_of_leaf):
        if vn is not None:
            if vn in sizes and vn_of_leaf[i - 1] != vn:
                raise ValidationError(f"cluster {vn} is not contiguous")
            sizes[vn] = sizes.get(vn, 0) + 1
    return sizes


def plan_reduction(vn_of_leaf) -> ReductionPlan:
    """Build the reduction plan for a contiguous leaf-cluster assignment.

    ``vn_of_leaf[i]`` names the cluster of leaf ``i`` (``None`` = idle).
    Every contiguous partition, with idle leaves anywhere, has a plan;
    raises ``ValidationError`` if the leaf count is not a power of two of
    at least 2 or a cluster is not contiguous.
    """
    n = len(vn_of_leaf)
    if n < 2 or n & (n - 1):
        raise ValidationError(f"leaf count must be a power of two >= 2, got {n}")
    size = _cluster_sizes(vn_of_leaf)

    ops: list[ReduceOp] = []
    egress: dict[int, tuple[int, int, int]] = {}  # vn -> (level, node, time)

    def emit(level, node, vn, group: _Group, route: str,
             min_time: int = 0) -> ReduceOp:
        op = ReduceOp(index=len(ops), level=level, node=node, vn=vn,
                      sources=tuple(group.refs), route=route,
                      time=max(min_time, group.arrival))
        ops.append(op)
        return op

    # the fragments held by each busy node of the level being configured,
    # by cluster in the order they arrive; idle nodes are absent
    groups: dict[int, dict[int, _Group]] = {}
    for i, vn in enumerate(vn_of_leaf):
        if vn is not None:
            _hold(groups, i // 2, vn, ("leaf", i), 1, 1)

    # No partition of contiguous clusters can over-subscribe a port or
    # strand a cluster, because at every level:
    # - a switch holds at most two unfinished clusters, one reaching past
    #   each edge of its sub-tree;
    # - a link carries at most one fragment per level;
    # - the cluster that crosses a link lies inside the two sub-trees that
    #   the link joins, so it completes at the receiver;
    # - egresses at one switch are serialized by ``min_time``;
    # - no cluster crosses the tree's edges, so neither edge node is ever
    #   a sender, and every lateral link joins two nodes inside the level.
    for level in range(1, n.bit_length()):
        parents: dict[int, dict[int, _Group]] = {}

        # Lateral links join same-level nodes that do not share a parent:
        # node j (odd) and node j + 1.  A switch holding two unfinished
        # clusters pushes one across its single lateral link: the cluster
        # that holds both leaves at the link's boundary.
        senders = {j for j, held in groups.items()
                   if sum(g.covered < size[vn] for vn, g in held.items())
                   == 2}
        for left_j in sorted({j - 1 + j % 2 for j in senders}):
            right_j = left_j + 1
            send_l, send_r = left_j in senders, right_j in senders
            vn = vn_of_leaf[(right_j << level) - 1]
            if send_l and send_r:
                # both halves want to meet: the larger fragment receives
                send_l = (groups[left_j][vn].covered
                          <= groups[right_j][vn].covered)
            send_from, recv = ((left_j, right_j) if send_l
                               else (right_j, left_j))
            group = groups[send_from].pop(vn)
            op = emit(level, send_from, vn, group, "aug")
            _hold(groups, recv, vn, ("op", op.index), group.covered,
                  op.time + AUG_HOP_EXTRA_CYCLES)

        # Route every remaining group: egress when finished, else upward.
        # Several clusters may finish at one switch (adjacent single-leaf
        # clusters); their egresses serialize through the switch FIFO.
        for j in sorted(groups):
            held = groups[j]
            egress_busy_until = -1
            for vn in sorted(held, key=lambda v: held[v].arrival):
                group = held[vn]
                if group.covered == size[vn]:
                    op = emit(level, j, vn, group, "egress",
                              min_time=egress_busy_until + 1)
                    egress_busy_until = op.time
                    egress[vn] = (level, j, op.time)
                else:
                    op = emit(level, j, vn, group, "parent")
                    _hold(parents, j // 2, vn, ("op", op.index),
                          group.covered, op.time + 1)
        groups = parents

    plan = ReductionPlan(n, ops, {}, sum(len(op.sources) - 1 for op in ops))
    for vn, (level, j, time) in egress.items():
        plan.egress[vn] = (plan.as_index(level, j), time)
    return plan


def switch_modes(plan: ReductionPlan) -> dict[tuple[int, int], ASMode]:
    """The mode of every adder switch, keyed by (level, node), from the
    source counts of its ops."""
    sources: dict[tuple[int, int], list[int]] = {}
    for op in plan.ops:
        sources.setdefault((op.level, op.node), []).append(len(op.sources))
    modes = {}
    for level in range(1, plan.num_leaves.bit_length()):
        for j in range(plan.num_leaves >> level):
            counts = sources.get((level, j), [])
            modes[level, j] = (
                ASMode.IDLE if not counts
                else ASMode.ADD_3_1 if max(counts) >= 3
                else ASMode.FWD_2_2 if 2 not in counts
                else ASMode.ADD_1_FWD_1 if len(counts) > 1
                else ASMode.ADD_2_1)
    return modes
