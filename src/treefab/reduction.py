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
against a direct per-cluster sum.  The planner climbs the tree a level
at a time, visiting only the switches that hold a fragment, each
cluster's fragments at a switch held as one plain list; the leaves pair
straight into level 1.

Timing: values advance one tree level per cycle; a lateral hop costs one
extra cycle (``AUG_HOP_EXTRA_CYCLES``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from typing import NamedTuple

from .errors import ValidationError

AUG_HOP_EXTRA_CYCLES = 1


class ASMode(Enum):
    ADD_2_1 = "2:1 add"
    ADD_3_1 = "3:1 add"
    ADD_1_FWD_1 = "1:1 add + 1:1 forward"
    FWD_2_2 = "2:2 forward"
    IDLE = "idle"


class ReduceOp(NamedTuple):
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


def clusters(num_leaves: int, width: int, count: int) -> list:
    """The ``vn_of_leaf`` list of ``count`` clusters of ``width`` leaves
    from leaf 0: cluster ``v`` holds leaves ``v*width`` to ``v*width +
    width - 1``, its forwarder (if any) last; later leaves idle."""
    return [leaf // width if leaf < width * count else None
            for leaf in range(num_leaves)]


def _cluster_sizes(vn_of_leaf) -> dict[int, int]:
    sizes: dict[int, int] = {}
    for vn, run in groupby(vn_of_leaf):
        if vn is not None:
            if vn in sizes:
                raise ValidationError(f"cluster {vn} is not contiguous")
            sizes[vn] = sum(1 for _ in run)
    return sizes


def plan_reduction(vn_of_leaf) -> ReductionPlan:
    """Build the reduction plan for a contiguous leaf-cluster assignment.

    ``vn_of_leaf[i]`` names the cluster of leaf ``i`` (``None`` = idle).
    Every contiguous partition, with idle leaves anywhere, has a plan;
    raises ``ValidationError`` if the leaf count is not a power of two of
    at least 2 or a cluster is not contiguous.  A cluster of ``k`` leaves
    takes ``k - 1`` additions, whatever its ops.
    """
    n = len(vn_of_leaf)
    if n < 2 or n & (n - 1):
        raise ValidationError(f"leaf count must be a power of two >= 2, got {n}")
    size = _cluster_sizes(vn_of_leaf)
    ops: list[ReduceOp] = []
    plan = ReductionPlan(n, ops, {}, sum(size.values()) - len(size))

    # what each busy node of the level being configured holds: per
    # cluster, in the order they arrive, ``[refs, covered, arrival]``, the
    # fragments' refs, the leaves they cover and the cycle the last of
    # them is usable at the node; idle nodes are absent, and the busy ones
    # are listed in order.  The leaves pair straight into level 1, all
    # usable at cycle 1.
    groups: dict[int, dict[int, list]] = {}
    for i, vn in enumerate(vn_of_leaf):
        if vn is not None:
            fragment = groups.setdefault(i >> 1, {}).setdefault(
                vn, [[], 0, 1])
            fragment[0].append(("leaf", i))
            fragment[1] += 1

    # No partition of contiguous clusters can over-subscribe a port or
    # strand a cluster, because at every level:
    # - a switch holds at most two unfinished clusters, one reaching past
    #   each edge of its sub-tree;
    # - a link carries at most one fragment per level;
    # - the cluster that crosses a link lies inside the two sub-trees that
    #   the link joins, so it completes at the receiver, which holds the
    #   rest of it;
    # - egresses at one switch are serialized in order of arrival;
    # - no cluster crosses the tree's edges, so neither edge node is ever
    #   a sender, and every lateral link joins two nodes inside the level.
    for level in range(1, n.bit_length()):
        parents: dict[int, dict[int, list]] = {}

        # Lateral links join same-level nodes that do not share a parent:
        # node j (odd) and node j + 1.  A switch holding two unfinished
        # clusters pushes one across its single lateral link: the cluster
        # that holds both leaves at the link's boundary.
        senders = {j for j, held in groups.items() if len(held) > 1
                   and sum(f[1] < size[vn] for vn, f in held.items()) == 2}
        for left_j in sorted({j - 1 + j % 2 for j in senders}):
            right_j = left_j + 1
            send_l, send_r = left_j in senders, right_j in senders
            vn = vn_of_leaf[(right_j << level) - 1]
            if send_l and send_r:
                # both halves want to meet: the larger fragment receives
                send_l = groups[left_j][vn][1] <= groups[right_j][vn][1]
            send_from, recv = ((left_j, right_j) if send_l
                               else (right_j, left_j))
            refs, covered, arrival = groups[send_from].pop(vn)
            fragment = groups[recv][vn]
            fragment[0].append(("op", len(ops)))
            fragment[1] += covered
            fragment[2] = max(fragment[2], arrival + AUG_HOP_EXTRA_CYCLES)
            ops.append(ReduceOp(len(ops), level, send_from, vn, tuple(refs),
                                "aug", arrival))

        # Route every node's fragments by arrival, ties in the order they
        # were held: egress when finished, else upward.  Several clusters
        # may finish at one switch (adjacent single-leaf clusters); their
        # egresses serialize through the switch FIFO.
        for j, held in groups.items():
            egress_busy_until = -1
            for vn, (refs, covered, arrival) in (
                    sorted(held.items(), key=lambda item: item[1][2])
                    if len(held) > 1 else held.items()):
                if covered == size[vn]:
                    route, time = "egress", max(egress_busy_until + 1, arrival)
                    egress_busy_until = time
                    plan.egress[vn] = (plan.as_index(level, j), time)
                else:
                    route, time = "parent", arrival
                    fragment = parents.setdefault(j >> 1, {}).setdefault(
                        vn, [[], 0, 0])
                    fragment[0].append(("op", len(ops)))
                    fragment[1] += covered
                    fragment[2] = max(fragment[2], arrival + 1)
                ops.append(ReduceOp(len(ops), level, j, vn, tuple(refs), route,
                                    time))
        groups = parents
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
