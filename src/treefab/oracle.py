"""Independent functional reference for grouped convolution.

Computes layer outputs with plain padded-array slicing, deliberately
sharing no index arithmetic with the memory module, so every simulator
run can be cross-checked against it.  Integer sums are exact; like the
simulator, it raises ``OutputOverflow`` for an output that does not fit
the input dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import LayerConfig, derive_output_dims, total_macs
from .errors import DimsMismatch, OutputOverflow, ShapeMismatch


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

    pad = layer.padding
    integer = np.issubdtype(inputs.dtype, np.integer)
    acc_dtype = np.float64
    if integer:
        # int64 unless a sum of R*S*C products could leave it; Python ints
        volume = layer.r * layer.s * layer.c
        peak = _magnitude(inputs) * _magnitude(weights) * volume
        acc_dtype = np.int64 if peak <= np.iinfo(np.int64).max else object
    padded = np.pad(
        inputs.astype(acc_dtype),
        ((0, 0), (0, 0), (0, 0), (pad, pad), (pad, pad)),
    )
    w = weights.astype(acc_dtype)
    out = np.zeros((layer.n, layer.g, layer.k, ox, oy), dtype=acc_dtype)
    for n in range(layer.n):
        for g in range(layer.g):
            for i in range(ox):
                for j in range(oy):
                    x0 = i * layer.stride
                    y0 = j * layer.stride
                    patch = padded[n, g, :, x0:x0 + layer.r, y0:y0 + layer.s]
                    out[n, g, :, i, j] = np.tensordot(
                        w[g], patch, axes=([1, 2, 3], [0, 1, 2])
                    )
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
