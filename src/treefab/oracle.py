"""Independent functional reference for grouped convolution.

Computes layer outputs from strided windows of the padded input, with one
tensor contraction per (batch, group) pair, deliberately sharing no index
arithmetic with the engine or the memory module, so every simulator run
can be cross-checked against it.  Integer sums are exact: int64 when no
sum of R*S*C products can leave it, else Python ints; float data sums in
float64.  Like the simulator, it raises ``OutputOverflow`` for the first
output, in C order, that does not fit the input dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import LayerConfig, derive_output_dims, total_macs
from .errors import (DimsMismatch, OutputOverflow, ShapeMismatch,
                     ValidationError)


@dataclass
class OracleResult:
    output: np.ndarray  # (N, G, K, X', Y')
    mac_count: int


@dataclass
class CompareResult:
    ok: bool
    first_mismatch: tuple | None = None  # (coord, simulated, reference)

    def report(self) -> str:
        if self.ok:
            return "outputs match"
        coord, got, want = self.first_mismatch
        return f"first mismatch at {coord}: simulated {got}, reference {want}"


def conv_reference(layer: LayerConfig, inputs: np.ndarray,
                   weights: np.ndarray) -> OracleResult:
    """Direct grouped convolution, O[n,g,k,ox,oy] = sum over c,r,s."""
    ox, oy = derive_output_dims(layer)
    if inputs.shape != (layer.n, layer.g, layer.c, layer.x, layer.y):
        raise ShapeMismatch(f"input shape {inputs.shape} does not match layer")
    if weights.shape != (layer.g, layer.k, layer.c, layer.r, layer.s):
        raise ShapeMismatch(f"weight shape {weights.shape} does not match layer")

    # integers (kinds "i", "u") or floats ("f"), not a mix: an integer
    # accumulator would truncate float weights
    if {a.dtype.kind.replace("u", "i") for a in (inputs, weights)} not in (
            {"i"}, {"f"}):
        raise ValidationError(f"inputs are {inputs.dtype} and weights "
                              f"{weights.dtype}: both must be int or float")
    pad = layer.padding
    integer = np.issubdtype(inputs.dtype, np.integer)
    acc_dtype = np.float64
    if integer:
        # int64 unless a sum of R*S*C products could leave it; Python ints
        volume = layer.r * layer.s * layer.c
        peak = _magnitude(inputs) * _magnitude(weights) * volume
        acc_dtype = np.int64 if peak <= np.iinfo(np.int64).max else object
    # np.pad would fill an object array with NumPy int64 zeros, which
    # overflow when multiplied by a Python int beyond int64
    padded = np.zeros(inputs.shape[:3] + (layer.x + 2 * pad,
                                          layer.y + 2 * pad), acc_dtype)
    padded[:, :, :, pad:pad + layer.x, pad:pad + layer.y] = \
        inputs.astype(acc_dtype)
    w = weights.astype(acc_dtype)
    # windows[n, g, c, i, j, r, s]
    #     = padded[n, g, c, i * stride + r, j * stride + s]
    windows = sliding_window_view(padded, (layer.r, layer.s), axis=(3, 4))[
        :, :, :, ::layer.stride, ::layer.stride]
    out = np.zeros((layer.n, layer.g, layer.k, ox, oy), dtype=acc_dtype)
    for n in range(layer.n):
        for g in range(layer.g):
            out[n, g] = np.tensordot(w[g], windows[n, g],
                                     axes=([1, 2, 3], [0, 3, 4]))
    if integer:
        info = np.iinfo(inputs.dtype)
        bad = (out < info.min) | (out > info.max)
        if bad.any():
            coord = tuple(int(i) for i in np.argwhere(bad)[0])
            raise OutputOverflow(
                f"output {coord} = {out[coord]} does not fit {inputs.dtype}"
            )
    return OracleResult(output=out.astype(inputs.dtype), mac_count=total_macs(layer))


def _magnitude(a: np.ndarray) -> int:
    """Largest absolute value in the array, as a Python int."""
    return max(-int(a.min()), int(a.max()))


def compare(simulated: np.ndarray, reference: np.ndarray,
            tolerance: float = 0) -> CompareResult:
    """Element-wise comparison: exact at tolerance 0, else |delta| <= tol.

    A NaN never matches.
    """
    if simulated.shape != reference.shape:
        raise DimsMismatch(
            f"shape {simulated.shape} vs {reference.shape}"
        )
    bad = simulated != reference
    if tolerance:
        delta = np.abs(simulated.astype(np.float64)
                       - reference.astype(np.float64))
        bad &= ~(delta <= tolerance)
    if not bad.any():
        return CompareResult(ok=True)
    coord = tuple(int(i) for i in np.argwhere(bad)[0])
    return CompareResult(
        ok=False,
        first_mismatch=(coord, simulated[coord], reference[coord]),
    )
