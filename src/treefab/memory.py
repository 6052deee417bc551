"""Layer data and the prefetch buffer.

The region dims and the seeded layer data serve every module.  So do
the layer-data rules, each stated once: the data check
(``check_layer_data``), the exact accumulator and the zero-padded input
in it (``padded_inputs``), and the overflow check on the final outputs
(``fit_outputs``).  The engine and the oracle both call them; each
gathers its own windows.

The prefetch buffer (PB) holds the input, weight and output regions of
the layer being simulated, as plain numpy arrays, plus a keyed store of
partial sums, and counts its reads and writes.  It models no ports: the
DN sub-trees bound the reads and the collector buses the writes
(``treefab.fabric``).  The engine does not use the PB: it counts a
wave's reads and writes from the wave's signature.  The PB and
``treefab.fabric`` are the step-by-step reference that
``tests/wave_reference.py`` drives on real data.

Addresses are ``(region, key)`` pairs where region is one of
``"inputs"`` (key ``(n, g, c, x, y)``), ``"weights"`` (``(g, k, c, r, s)``),
``"outputs"`` / ``"psum"`` (``(n, g, k, ox, oy)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import LayerConfig, derive_output_dims
from .errors import (AddressOutOfRange, OutputOverflow, ShapeMismatch,
                     ValidationError)


@dataclass
class MemCounters:
    reads: int = 0
    writes: int = 0


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


def check_layer_data(layer: LayerConfig, inputs, weights):
    """The layer's inputs and weights as arrays; raises ShapeMismatch
    unless their shapes are the layer's, and ValidationError unless both
    are integer or both are floating (integer widths may differ)."""
    inputs, weights = np.asarray(inputs), np.asarray(weights)
    if not any(np.issubdtype(inputs.dtype, kind) and np.issubdtype(
            weights.dtype, kind) for kind in (np.integer, np.floating)):
        raise ValidationError(f"inputs ({inputs.dtype}) and weights "
                              f"({weights.dtype}) must both be integer or "
                              "both floating")
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
    return inputs, weights


def padded_inputs(layer: LayerConfig, inputs, weights) -> np.ndarray:
    """The inputs, zero-padded by the layer's padding, in the exact
    accumulator dtype: float64 for float data; for integer data int64
    when no output sum can leave it (R*S*C times the largest input and
    weight magnitudes), else Python ints (``object``)."""
    acc = np.float64
    if np.issubdtype(inputs.dtype, np.integer):
        peak = (_magnitude(inputs) * _magnitude(weights)
                * layer.r * layer.s * layer.c)
        acc = np.int64 if peak <= np.iinfo(np.int64).max else object
    pad = layer.padding
    # np.zeros, not np.pad: an object array's zeros must be Python ints
    padded = np.zeros(inputs.shape[:3] + (layer.x + 2 * pad,
                                          layer.y + 2 * pad), acc)
    padded[..., pad:pad + layer.x, pad:pad + layer.y] = inputs
    return padded


def _magnitude(a: np.ndarray) -> int:
    """Largest absolute value in the array, as a Python int."""
    return max(-int(a.min()), int(a.max()))


def fit_outputs(sums: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The exact ``sums`` cast to ``dtype``; raises OutputOverflow for the
    first output, in C order, that does not fit an integer ``dtype``."""
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        bad = (sums < info.min) | (sums > info.max)
        if bad.any():
            coord = tuple(int(i) for i in np.argwhere(bad)[0])
            raise OutputOverflow(
                f"output {coord} = {sums[coord]} does not fit {dtype}")
    return sums.astype(dtype)


def _check_key(key, dims, what) -> None:
    if len(key) != len(dims):
        raise AddressOutOfRange(
            f"{what} key {key} has rank {len(key)}, expected {len(dims)}"
        )
    for i, d in zip(key, dims):
        if not 0 <= i < d:
            raise AddressOutOfRange(f"{what} key {key} out of range {dims}")


class PrefetchBuffer:
    """On-chip global buffer: bounds-checked regions and a partial-sum
    store, read and written in request order.

    Capacity is unbounded.  Partial sums are stored keyed by output
    coordinate so folding traffic can be attributed in the statistics.
    """

    def __init__(self):
        self.inputs: np.ndarray | None = None
        self.weights: np.ndarray | None = None
        self.outputs: np.ndarray | None = None
        self.psums: dict[tuple[int, ...], int] = {}
        self.counters = MemCounters()

    def load_layer_data(self, layer: LayerConfig, inputs, weights) -> None:
        """Populate the PB for one layer; zeroes outputs, resets counters."""
        inputs, weights = check_layer_data(layer, inputs, weights)
        self.inputs = inputs
        self.weights = weights
        self.outputs = np.zeros(output_dims(layer), dtype=inputs.dtype)
        self.psums = {}
        self.counters = MemCounters()

    # -- access ------------------------------------------------------------

    def _region(self, name: str) -> np.ndarray:
        if name not in ("inputs", "weights", "outputs"):
            raise AddressOutOfRange(f"unknown region {name!r}")
        region = getattr(self, name)
        if region is None:
            raise AddressOutOfRange(f"region {name!r} not loaded")
        return region

    def peek(self, address):
        """Read without counting; returns a Python scalar."""
        region, key = address
        if region == "psum":
            _check_key(key, self._region("outputs").shape, "psum")
            return self.psums.get(key, 0)
        array = self._region(region)
        _check_key(key, array.shape, region)
        return array.item(key)

    def serve_reads(self, requests) -> list:
        """The value at each address of ``requests``; one read each."""
        values = [self.peek(req) for req in requests]
        self.counters.reads += len(values)
        return values

    def serve_writes(self, requests) -> None:
        """Write each ``(address, value)`` in order; one write each."""
        for address, value in requests:
            region, key = address
            if region == "psum":
                _check_key(key, self._region("outputs").shape, "psum")
                self.psums[key] = value
            elif region == "outputs":
                array = self._region(region)
                _check_key(key, array.shape, region)
                try:
                    array[key] = value
                except OverflowError as exc:
                    raise OutputOverflow(
                        f"output {key} = {value} does not fit {array.dtype}"
                    ) from exc
            else:
                raise AddressOutOfRange(
                    f"region {region!r} is not writable during simulation"
                )
            self.counters.writes += 1

    def output_array(self) -> np.ndarray:
        return self._region("outputs")
