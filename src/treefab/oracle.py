"""Functional reference for grouped convolution.

Computes layer outputs from strided windows of the padded input, with one
tensor contraction per (batch, group) pair.  It shares the layer-data
rules with the engine, from ``treefab.memory``: the data check, the exact
accumulator with the zero-padded input in it, and the ``OutputOverflow``
check on the first output, in C order, that does not fit the input
dtype.  It shares no index arithmetic: the engine sums over its
schedule's outputs and fold elements, and the oracle over whole windows,
so every simulator run can be cross-checked against it.  The rules
themselves are checked against ``tests/pixel_reference.py``, which
states them again and sums one output pixel at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import LayerConfig
from .errors import DimsMismatch
from .memory import check_layer_data, fit_outputs, output_dims, padded_inputs


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
                   weights: np.ndarray) -> np.ndarray:
    """Direct grouped convolution, O[n,g,k,ox,oy] = sum over c,r,s, in
    the input dtype."""
    inputs, weights = check_layer_data(layer, inputs, weights)
    padded = padded_inputs(layer, inputs, weights)
    w = weights.astype(padded.dtype)
    # windows[n, g, c, i, j, r, s]
    #     = padded[n, g, c, i * stride + r, j * stride + s]
    windows = sliding_window_view(padded, (layer.r, layer.s), axis=(3, 4))[
        :, :, :, ::layer.stride, ::layer.stride]
    out = np.zeros(output_dims(layer), dtype=padded.dtype)
    for n in range(layer.n):
        for g in range(layer.g):
            out[n, g] = np.tensordot(w[g], windows[n, g],
                                     axes=([1, 2, 3], [0, 3, 4]))
    return fit_outputs(out, inputs.dtype)


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
