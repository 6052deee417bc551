"""Per-pixel reference for the oracle.

Computes each output pixel with its own ``tensordot`` over the padded
input, with the oracle's accumulator rule and overflow message.
``conv_reference`` contracts whole strided windows at once and must give
the same dtype, values and errors.
"""

import numpy as np

from treefab import OutputOverflow, derive_output_dims


def conv_per_pixel(layer, inputs, weights):
    ox, oy = derive_output_dims(layer)
    pad = layer.padding
    integer = np.issubdtype(inputs.dtype, np.integer)
    acc_dtype = np.float64
    if integer:
        peak = (max(-int(inputs.min()), int(inputs.max()))
                * max(-int(weights.min()), int(weights.max()))
                * layer.r * layer.s * layer.c)
        acc_dtype = np.int64 if peak <= np.iinfo(np.int64).max else object
    padded = np.zeros(inputs.shape[:3] + (layer.x + 2 * pad,
                                          layer.y + 2 * pad), acc_dtype)
    padded[:, :, :, pad:pad + layer.x, pad:pad + layer.y] = \
        inputs.astype(acc_dtype)
    w = weights.astype(acc_dtype)
    out = np.zeros((layer.n, layer.g, layer.k, ox, oy), dtype=acc_dtype)
    for n in range(layer.n):
        for g in range(layer.g):
            for i in range(ox):
                for j in range(oy):
                    x0, y0 = i * layer.stride, j * layer.stride
                    patch = padded[n, g, :, x0:x0 + layer.r, y0:y0 + layer.s]
                    out[n, g, :, i, j] = np.tensordot(
                        w[g], patch, axes=([1, 2, 3], [0, 1, 2]))
    if integer:
        info = np.iinfo(inputs.dtype)
        bad = (out < info.min) | (out > info.max)
        if bad.any():
            coord = tuple(int(i) for i in np.argwhere(bad)[0])
            raise OutputOverflow(
                f"output {coord} = {out[coord]} does not fit {inputs.dtype}")
    return out.astype(inputs.dtype)
