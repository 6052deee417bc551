"""Shared fixtures for the test suite: reference layers and partitions."""

from treefab import HardwareConfig, LayerConfig, LayerKind, TileConfig

TINY = LayerConfig(LayerKind.CONV, r=3, s=3, c=6, g=1, k=6, n=1, x=5, y=5)
LATE_SYNTHETIC = LayerConfig(LayerKind.CONV, r=3, s=3, c=20, g=1, k=20, n=1,
                             x=5, y=5)
EARLY_SYNTHETIC = LayerConfig(LayerKind.CONV, r=3, s=3, c=6, g=1, k=6, n=1,
                              x=20, y=20)
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
