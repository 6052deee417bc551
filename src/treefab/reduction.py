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
class _Frag:
    """A partial value of one cluster while the plan is being built.

    ``arrival`` is the cycle the value is usable at the node whose input
    group currently holds the fragment.
    """

    vn: int
    size: int  # leaves actually covered by the merged fragments
    arrival: int
    ref: tuple


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

    def emit(level, node, frags: list[_Frag], route: str,
             min_time: int = 0) -> _Frag:
        op = ReduceOp(index=len(ops), level=level, node=node, vn=frags[0].vn,
                      sources=tuple(f.ref for f in frags), route=route,
                      time=max(min_time, *(f.arrival for f in frags)))
        ops.append(op)
        return _Frag(op.vn, sum(f.size for f in frags), op.time,
                     ("op", op.index))

    # the fragments held by each node of the level being configured, by
    # cluster in the order they arrive
    groups: list[dict[int, list[_Frag]]] = [{} for _ in range(n // 2)]
    for i, vn in enumerate(vn_of_leaf):
        if vn is not None:
            leaf = _Frag(vn, 1, 1, ("leaf", i))
            groups[i // 2].setdefault(vn, []).append(leaf)

    # No partition of contiguous clusters can over-subscribe a port or
    # strand a cluster, because at every level:
    # - a switch holds at most two unfinished clusters, one reaching past
    #   each edge of its sub-tree;
    # - a link carries at most one fragment per level;
    # - the cluster that crosses a link lies inside the two sub-trees that
    #   the link joins, so it completes at the receiver;
    # - egresses at one switch are serialized by ``min_time``.
    for level in range(1, n.bit_length()):
        node_count = n >> level
        parents: list[dict] = [{} for _ in range(node_count // 2)]

        def covered(j, vn):
            return sum(f.size for f in groups[j][vn])

        def is_complete(j, vn):
            return covered(j, vn) == size[vn]

        def sends(j):
            # a switch holding two unfinished clusters pushes one across
            # its single lateral link
            return sum(not is_complete(j, vn) for vn in groups[j]) == 2

        # Lateral links join same-level nodes that do not share a parent:
        # node j (odd) and node j + 1.  The cluster crossing the link is
        # the one that holds both leaves at its boundary.
        for left_j in range(1, node_count - 1, 2):
            right_j = left_j + 1
            send_l, send_r = sends(left_j), sends(right_j)
            if not (send_l or send_r):
                continue
            vn = vn_of_leaf[(right_j << level) - 1]
            if send_l and send_r:
                # both halves want to meet: the larger fragment receives
                send_l = covered(left_j, vn) <= covered(right_j, vn)
            send_from, recv = ((left_j, right_j) if send_l
                               else (right_j, left_j))
            out = emit(level, send_from, groups[send_from].pop(vn), "aug")
            out.arrival += AUG_HOP_EXTRA_CYCLES
            groups[recv].setdefault(vn, []).append(out)

        # Route every remaining group: egress when finished, else upward.
        # Several clusters may finish at one switch (adjacent single-leaf
        # clusters); their egresses serialize through the switch FIFO.
        for j in range(node_count):
            egress_busy_until = -1
            for vn in sorted(
                groups[j],
                key=lambda v: max(f.arrival for f in groups[j][v]),
            ):
                frags = groups[j][vn]
                if is_complete(j, vn):
                    out = emit(level, j, frags, "egress",
                               min_time=egress_busy_until + 1)
                    egress_busy_until = out.arrival
                    egress[vn] = (level, j, out.arrival)
                else:
                    out = emit(level, j, frags, "parent")
                    out.arrival += 1
                    parents[j // 2].setdefault(vn, []).append(out)
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
