"""Prefetch buffer.

The prefetch buffer (PB) holds the input, weight and output regions of
the layer currently being simulated, as plain numpy arrays, plus a keyed
store of partial sums.  Reads and writes are served through a bounded
number of ports per cycle; excess requests are deferred to later cycles
and counted as stalls.

Addresses are ``(region, key)`` pairs where region is one of
``"inputs"`` (key ``(n, g, c, x, y)``), ``"weights"`` (``(g, k, c, r, s)``),
``"outputs"`` / ``"psum"`` (``(n, g, k, ox, oy)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import LayerConfig, derive_output_dims
from .errors import AddressOutOfRange, ShapeMismatch


@dataclass
class MemCounters:
    reads: int = 0
    writes: int = 0
    read_stalls: int = 0
    write_stalls: int = 0


def input_dims(layer: LayerConfig) -> tuple[int, ...]:
    return (layer.n, layer.g, layer.c, layer.x, layer.y)


def weight_dims(layer: LayerConfig) -> tuple[int, ...]:
    return (layer.g, layer.k, layer.c, layer.r, layer.s)


def output_dims(layer: LayerConfig) -> tuple[int, ...]:
    ox, oy = derive_output_dims(layer)
    return (layer.n, layer.g, layer.k, ox, oy)


def random_layer_data(layer: LayerConfig, seed):
    """Seeded int32 inputs and weights in [-8, 8], inputs drawn first.

    ``seed`` is an int or a ``numpy.random.Generator``; a generator is
    drawn from in place, so successive calls continue its stream.
    """
    rng = np.random.default_rng(seed)
    inputs = rng.integers(-8, 9, size=input_dims(layer), dtype=np.int32)
    weights = rng.integers(-8, 9, size=weight_dims(layer), dtype=np.int32)
    return inputs, weights


def _check_key(key, dims, what) -> None:
    if len(key) != len(dims):
        raise AddressOutOfRange(
            f"{what} key {key} has rank {len(key)}, expected {len(dims)}"
        )
    for i, d in zip(key, dims):
        if not 0 <= i < d:
            raise AddressOutOfRange(f"{what} key {key} out of range {dims}")


class PrefetchBuffer:
    """On-chip global buffer with bounded read/write ports.

    Capacity is unbounded; only port bandwidth is modeled.  Partial sums
    are stored keyed by output coordinate so folding traffic can be
    attributed in the statistics.
    """

    def __init__(self, read_ports: int, write_ports: int):
        if read_ports < 1 or write_ports < 1:
            raise ShapeMismatch("port counts must be >= 1")
        self.read_ports = read_ports
        self.write_ports = write_ports
        self.inputs: np.ndarray | None = None
        self.weights: np.ndarray | None = None
        self.outputs: np.ndarray | None = None
        self.psums: dict[tuple[int, ...], int] = {}
        self.counters = MemCounters()

    def load_layer_data(self, layer: LayerConfig, inputs, weights) -> None:
        """Populate the PB for one layer; zeroes outputs, resets counters."""
        inputs, weights = np.asarray(inputs), np.asarray(weights)
        if inputs.shape != input_dims(layer):
            raise ShapeMismatch(
                f"input dims {inputs.shape} do not match layer "
                f"{input_dims(layer)}"
            )
        if weights.shape != weight_dims(layer):
            raise ShapeMismatch(
                f"weight dims {weights.shape} do not match layer "
                f"{weight_dims(layer)}"
            )
        self.inputs = inputs
        self.weights = weights
        self.outputs = np.zeros(output_dims(layer), dtype=inputs.dtype)
        self.psums = {}
        self.counters = MemCounters()

    # -- port-limited access ---------------------------------------------

    def _region(self, name: str) -> np.ndarray:
        if name not in ("inputs", "weights", "outputs"):
            raise AddressOutOfRange(f"unknown region {name!r}")
        region = getattr(self, name)
        if region is None:
            raise AddressOutOfRange(f"region {name!r} not loaded")
        return region

    def peek(self, address):
        """Read without consuming a port; returns a Python scalar."""
        region, key = address
        if region == "psum":
            _check_key(key, self._region("outputs").shape, "psum")
            return self.psums.get(key, 0)
        array = self._region(region)
        _check_key(key, array.shape, region)
        return array.item(key)

    def serve_reads(self, requests, cycle: int):
        """Serve up to ``read_ports`` element reads, in request order.

        Returns ``(served, deferred)`` where served is a list of
        ``(address, value)`` pairs.
        """
        served, deferred = [], []
        for req in requests:
            if len(served) < self.read_ports:
                served.append((req, self.peek(req)))
            else:
                deferred.append(req)
        self.counters.reads += len(served)
        self.counters.read_stalls += len(deferred)
        return served, deferred

    def serve_writes(self, requests, cycle: int):
        """Serve up to ``write_ports`` element writes, in request order.

        Two same-cycle writes to one address serialize: the second is
        deferred so accumulation order stays deterministic.
        """
        served, deferred = [], []
        touched = set()
        for address, value in requests:
            region, key = address
            if len(served) >= self.write_ports or address in touched:
                deferred.append((address, value))
                continue
            if region == "psum":
                _check_key(key, self._region("outputs").shape, "psum")
                self.psums[key] = value
            elif region == "outputs":
                array = self._region(region)
                _check_key(key, array.shape, region)
                array[key] = value
            else:
                raise AddressOutOfRange(
                    f"region {region!r} is not writable during simulation"
                )
            touched.add(address)
            served.append((address, value))
        self.counters.writes += len(served)
        self.counters.write_stalls += len(deferred)
        return served, deferred

    def output_array(self) -> np.ndarray:
        return self._region("outputs")
