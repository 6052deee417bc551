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

from .errors import UnroutableVN, ValidationError

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


def _vn_ranges(vn_of_leaf) -> dict[int, tuple[int, int]]:
    ranges: dict[int, tuple[int, int]] = {}
    for i, vn in enumerate(vn_of_leaf):
        if vn is None:
            continue
        if vn in ranges:
            lo, hi = ranges[vn]
            if i != hi:
                raise ValidationError(f"cluster {vn} is not contiguous")
            ranges[vn] = (lo, i + 1)
        else:
            ranges[vn] = (i, i + 1)
    return ranges


def plan_reduction(vn_of_leaf) -> ReductionPlan:
    """Build the reduction plan for a contiguous leaf-cluster assignment.

    ``vn_of_leaf[i]`` names the cluster of leaf ``i`` (``None`` = idle).
    Raises ``UnroutableVN`` if the switch modes cannot realize the
    partition; this is assertion-grade for contiguous clusters.
    """
    n = len(vn_of_leaf)
    if n < 2 or n & (n - 1):
        raise ValidationError(f"leaf count must be a power of two >= 2, got {n}")
    ranges = _vn_ranges(vn_of_leaf)

    ops: list[ReduceOp] = []
    egress: dict[int, tuple[int, int, int]] = {}  # vn -> (level, node, time)
    busy: set[tuple] = set()  # (level, node, port, cycle)

    def use_port(level, node, port, time):
        # exclusivity is per cycle: a port may serve several clusters in
        # one wave, but never two values in the same cycle
        if (level, node, port, time) in busy:
            raise UnroutableVN(
                f"switch ({level},{node}) port {port} carries two values "
                f"at cycle {time}"
            )
        busy.add((level, node, port, time))

    def emit(level, node, frags: list[_Frag], route: str,
             min_time: int = 0) -> _Frag:
        vn = frags[0].vn
        op = ReduceOp(
            index=len(ops), level=level, node=node, vn=vn,
            sources=tuple(f.ref for f in frags), route=route,
            time=max(min_time, max(f.arrival for f in frags)),
        )
        ops.append(op)
        use_port(level, node, route, op.time)
        return _Frag(vn, sum(f.size for f in frags), op.time,
                     ("op", op.index))

    levels = n.bit_length() - 1
    # fragments staged for the level currently being configured,
    # keyed by node index within that level
    staged: dict[int, list[_Frag]] = {}
    for i, vn in enumerate(vn_of_leaf):
        if vn is None:
            continue
        staged.setdefault(i // 2, []).append(
            _Frag(vn, 1, 1, ("leaf", i))
        )

    for level in range(1, levels + 1):
        node_count = n >> level
        groups: list[dict[int, list[_Frag]]] = [dict() for _ in range(node_count)]
        for j, frags in staged.items():
            for frag in frags:
                groups[j].setdefault(frag.vn, []).append(frag)
        staged = {}

        def covered(j, vn):
            return sum(f.size for f in groups[j][vn])

        def is_complete(j, vn):
            lo, hi = ranges[vn]
            return covered(j, vn) == hi - lo

        # Decide lateral transfers: a switch holding two unfinished
        # clusters pushes one across its single lateral link.  The link
        # of node j runs rightward when j is odd and leftward when j is
        # even (links exist exactly between same-level nodes that do not
        # share a parent).
        lateral: dict[int, list[int]] = {}  # link id (left node) -> senders
        for j in range(node_count):
            unfinished = [vn for vn in groups[j] if not is_complete(j, vn)]
            if len(unfinished) < 2:
                continue
            if len(unfinished) > 2:
                raise UnroutableVN(
                    f"switch ({level},{j}) holds {len(unfinished)} "
                    f"unfinished clusters"
                )
            sub_lo, sub_hi = j << level, (j + 1) << level
            left_ext = [vn for vn in unfinished if ranges[vn][0] < sub_lo]
            right_ext = [vn for vn in unfinished if ranges[vn][1] > sub_hi]
            if len(left_ext) != 1 or len(right_ext) != 1:
                raise UnroutableVN(
                    f"switch ({level},{j}) cannot split clusters {unfinished}"
                )
            if j % 2 == 1:
                if j + 1 >= node_count:
                    raise UnroutableVN(f"switch ({level},{j}) has no right link")
                lateral.setdefault(j, []).append(j)
            else:
                if j == 0:
                    raise UnroutableVN(f"switch ({level},{j}) has no left link")
                lateral.setdefault(j - 1, []).append(j)

        for link, senders in lateral.items():
            left_j, right_j = link, link + 1
            boundary = right_j << level
            # the cluster crossing this link
            def crossing(j):
                for vn in groups[j]:
                    lo, hi = ranges[vn]
                    if lo < boundary < hi and not is_complete(j, vn):
                        return vn
                raise UnroutableVN(
                    f"link ({level},{link}) has no crossing cluster at node {j}"
                )
            if len(senders) == 2:
                vn_l, vn_r = crossing(left_j), crossing(right_j)
                if vn_l != vn_r:
                    raise UnroutableVN(
                        f"link ({level},{link}) claimed by clusters "
                        f"{vn_l} and {vn_r}"
                    )
                # both halves want to meet: the larger fragment receives
                send_from = (left_j if covered(left_j, vn_l) <=
                             covered(right_j, vn_r) else right_j)
            else:
                send_from = senders[0]
            recv = right_j if send_from == left_j else left_j
            vn = crossing(send_from)
            frags = groups[send_from].pop(vn)
            out = emit(level, send_from, frags, "aug")
            use_port(level, left_j, ("link", link), out.arrival)
            out.arrival += AUG_HOP_EXTRA_CYCLES
            groups[recv].setdefault(vn, []).append(out)

        # Route every remaining group: egress when finished, else upward.
        # Several clusters may finish at one switch (adjacent single-leaf
        # clusters); their egresses serialize through the switch FIFO.
        for j in range(node_count):
            parent_routed = 0
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
                    if vn in egress:
                        raise UnroutableVN(f"cluster {vn} completed twice")
                    egress[vn] = (level, j, out.arrival)
                else:
                    if level == levels:
                        raise UnroutableVN(
                            f"cluster {vn} incomplete at tree root"
                        )
                    parent_routed += 1
                    if parent_routed > 1:
                        raise UnroutableVN(
                            f"switch ({level},{j}) parent port over-subscribed"
                        )
                    out = emit(level, j, frags, "parent")
                    out.arrival += 1
                    staged.setdefault(j // 2, []).append(out)

    missing = set(ranges) - set(egress)
    if missing:
        raise UnroutableVN(f"clusters never completed: {sorted(missing)}")

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
