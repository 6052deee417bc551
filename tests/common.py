"""Shared fixtures for the test suite: reference layers, partitions, and
hypothesis strategies for random layers and tiles."""

from hypothesis import assume
from hypothesis import strategies as st

from treefab import (
    HardwareConfig,
    LayerConfig,
    LayerKind,
    TileConfig,
    derive_output_dims,
)

TINY = LayerConfig(LayerKind.CONV, r=3, s=3, c=6, g=1, k=6, n=1, x=5, y=5)
LATE_SYNTHETIC = LayerConfig(LayerKind.CONV, r=3, s=3, c=20, g=1, k=20, n=1,
                             x=5, y=5)
EARLY_SYNTHETIC = LayerConfig(LayerKind.CONV, r=3, s=3, c=6, g=1, k=6, n=1,
                              x=20, y=20)
# stride 2 and padding 1: some input taps of every fold fall in the padding
PADDED_STRIDED = LayerConfig(LayerKind.CONV, r=3, s=3, c=4, g=1, k=4, n=1,
                             x=7, y=7, stride=2, padding=1)
VALIDATION_TILE = TileConfig(3, 3, 1, 1, 1, 1, 3, 1)
HW32 = HardwareConfig(num_ms=32, dn_bw=4, rn_bw=4)


def contiguous_partition(num_leaves, rng, allow_idle_tail=True):
    """Random contiguous cluster assignment over the leaves."""
    vn_of_leaf = []
    vn = 0
    used = num_leaves
    if allow_idle_tail and rng.random() < 0.3:
        used = int(rng.integers(1, num_leaves + 1))
    while len(vn_of_leaf) < used:
        size = int(rng.integers(1, used - len(vn_of_leaf) + 1))
        vn_of_leaf.extend([vn] * size)
        vn += 1
    vn_of_leaf.extend([None] * (num_leaves - used))
    return vn_of_leaf


@st.composite
def layers(draw):
    r, s = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stride, padding = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    x = r - 2 * padding + stride * draw(st.integers(0, 3))
    y = s - 2 * padding + stride * draw(st.integers(0, 3))
    assume(x >= 1 and y >= 1)
    return LayerConfig(LayerKind.CONV, r=r, s=s, c=draw(st.integers(1, 5)),
                       g=draw(st.integers(1, 3)), k=draw(st.integers(1, 4)),
                       n=draw(st.integers(1, 2)), x=x, y=y, stride=stride,
                       padding=padding)


def tiles(draw, layer, overshoot=0):
    ox, oy = derive_output_dims(layer)
    return TileConfig(*(draw(st.integers(1, d + overshoot)) for d in (
        layer.r, layer.s, layer.c, layer.g, layer.k, layer.n, ox, oy)))
