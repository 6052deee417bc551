"""Span tracer for the benchmark's traced run.

Wraps the public functions and component methods of each treefab module
at the name its caller looks up (``treefab.fabric.generate_dn_routes``,
not ``treefab.mapper.generate_dn_routes``, because fabric imports it by
name).  Each call records one span: name, start, end and the index of the
enclosing span.  Spans stay in compact arrays in memory until the run
writes them out; counters are taken at the same boundaries.

A span's self time is its duration minus the durations of its direct
children.  The program is single-threaded, so children never overlap and
the self times of one operation sum exactly to its root span, less the
speed probes that ran inside it.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


def _count_simulation(counts, args, result, _pre):
    counts["coords_simulated"] += sum(len(b) for b in result.mapping.schedule)


def _count_mapping(counts, args, result, _pre):
    counts["coords_materialized"] += sum(len(b) for b in result.schedule)


def _count_deliver(counts, args, result, _pre):
    payloads = args[1]
    counts["dn_payloads"] += len(payloads)
    counts["dn_leaf_deliveries"] += sum(len(p.dests) for p in payloads)


def _count_replay(counts, args, result, _pre):
    counts["rn_ops"] += len(args[1].ops)


def _conflicts_before(args):
    return args[0].counters.conflicts


def _count_drain(counts, args, result, conflicts_before):
    counts["cb_grants"] += len(args[1])
    counts["cb_conflicts"] += args[0].counters.conflicts - conflicts_before


def _count_reads(counts, args, result, _pre):
    counts["pb_reads"] += len(result[0])


def _count_writes(counts, args, result, _pre):
    served = result[0]
    counts["pb_writes"] += len(served)
    counts["pb_psum_writes"] += sum(1 for (region, _), _v in served
                                    if region == "psum")


def _count_candidates(counts, args, result, _pre):
    counts["tiler_candidates"] += len(result)


def _count_ranked(counts, args, result, _pre):
    counts["tiler_ranked"] += len(args[0])


# (owner, attribute, span name, counter, pre-call snapshot).  The owner is
# a module or a class; each row is one place a caller looks the name up.
POINTS = [
    ("treefab.cli", "main", "cli", None, None),
    ("treefab.cli", "simulate_layer", "engine", _count_simulation, None),
    ("treefab.engine", "simulate_layer", "engine", _count_simulation, None),
    ("treefab.engine", "build_mapping", "mapper.build_mapping",
     _count_mapping, None),
    ("treefab.tiler", "build_mapping", "mapper.build_mapping",
     _count_mapping, None),
    ("treefab.fabric", "generate_dn_routes", "mapper.dn_routes", None, None),
    ("treefab.mapper", "plan_reduction", "reduction.plan", None, None),
    ("treefab.fabric:DistributionNetwork", "deliver", "fabric.dn_deliver",
     _count_deliver, None),
    ("treefab.fabric:MultiplierArray", "multiply", "fabric.ms", None, None),
    ("treefab.fabric:MultiplierArray", "forward", "fabric.ms", None, None),
    ("treefab.fabric:ReductionNetwork", "replay", "fabric.rn_replay",
     _count_replay, None),
    ("treefab.fabric:CollectorBuses", "drain", "fabric.cb_drain",
     _count_drain, _conflicts_before),
    ("treefab.memory:PrefetchBuffer", "load_layer_data", "memory.load",
     None, None),
    ("treefab.memory:PrefetchBuffer", "peek", "memory.peek", None, None),
    ("treefab.memory:PrefetchBuffer", "serve_reads", "memory.serve_reads",
     _count_reads, None),
    ("treefab.memory:PrefetchBuffer", "serve_writes", "memory.serve_writes",
     _count_writes, None),
    ("treefab.cli", "conv_reference", "oracle.reference", None, None),
    ("treefab.cli", "compare", "oracle.compare", None, None),
    ("treefab.cli", "enumerate_tiles", "tiler.enumerate",
     _count_candidates, None),
    ("treefab.cli", "rank_by_simulation", "tiler.rank", _count_ranked, None),
    ("treefab.config", "parse_hardware_config", "config.parse", None, None),
    ("treefab.config", "parse_layer_config", "config.parse", None, None),
    ("treefab.config", "parse_tile_config", "config.parse", None, None),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records spans and counters while installed; inert otherwise."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()  # span name -> scaled self seconds
        self._op_start = 0
        self.weight_cycles = 0
        self.input_cycles = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _on_wave(self, event: dict) -> None:
        self.weight_cycles += event["weight_cycles"]
        self.input_cycles += event["input_cycles"]

    def _wrap(self, fn, name, count, pre):
        nid = self._name_id(name)
        inject_trace = name == "engine"
        kind, parent = self.kind, self.parent
        start, end, stack, counts = self.start, self.end, self._stack, \
            self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inject_trace and kwargs.get("trace") is None:
                kwargs["trace"] = self._on_wave
            snapshot = pre(args) if pre else None
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                count(counts, args, result, snapshot)
            return result

        return wrapper

    def install(self) -> None:
        for path, attr, name, count, pre in POINTS:
            owner = _owner(path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count, pre))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        """Copies of the span arrays, as written by :meth:`save`."""
        return {
            "names": np.array(self.span_names),
            "kind": np.array(self.kind, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def close_op(self, probes, scale: float) -> float:
        """Add the self times of the spans recorded since the last call.

        ``probes`` are (start, end) intervals of speed probes that ran
        inside the operation; each one is taken out of the innermost span
        it interrupted.  The rest is multiplied by ``scale``.  Returns the
        operation's scaled self-time sum.
        """
        lo, hi = self._op_start, len(self.kind)
        self._op_start = hi
        kind = np.array(self.kind[lo:hi], dtype=np.int32)
        parent = np.array(self.parent[lo:hi], dtype=np.int32) - lo
        start = np.array(self.start[lo:hi], dtype=np.float64)
        end = np.array(self.end[lo:hi], dtype=np.float64)
        dur = end - start
        nested = parent >= 0
        own = dur - np.bincount(parent[nested], weights=dur[nested],
                                minlength=len(dur))
        # Spans are numbered in the order they start, so the innermost span
        # holding a probe is the last one started before it, or an ancestor.
        for t0, t1 in probes:
            i = int(np.searchsorted(start, t0, side="right")) - 1
            while i >= 0 and end[i] < t1:
                i = int(parent[i])
            if i >= 0:
                own[i] -= t1 - t0
        per_name = np.bincount(kind, weights=own * scale,
                               minlength=len(self.span_names))
        for name, value in zip(self.span_names, per_name.tolist()):
            self.self_s[name] += value
        return float(per_name.sum())

    def calls(self) -> dict[str, int]:
        per_name = np.bincount(np.array(self.kind, dtype=np.int32),
                               minlength=len(self.span_names))
        return dict(zip(self.span_names, per_name.tolist()))

    def save(self, path) -> None:
        np.savez(path, **self.spans())
