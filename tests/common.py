"""Shared fixtures for the test suite: reference layers, partitions,
hypothesis strategies for random layers and tiles, and the data kinds
that outputs are checked on."""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from treefab import (
    HardwareConfig,
    LayerConfig,
    LayerKind,
    OutputOverflow,
    TileConfig,
    derive_output_dims,
    engine,
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


def count_calls(monkeypatch, name, owner=engine):
    """Wrap ``owner.<name>`` (by default ``treefab.engine.<name>``; a
    class's method counts its calls on every instance) through
    ``monkeypatch``; returns the list that each call appends its arguments
    to."""
    calls = []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args: calls.append(args) or original(*args))
    return calls


def count_records(monkeypatch):
    """Wrap ``treefab.engine._records`` through ``monkeypatch``; returns
    the list that each call extends with the records it returns, one
    tuple per key."""
    records = []
    original = engine._records

    def counted(*args):
        got = original(*args)
        records.extend(map(tuple, got.tolist()))
        return got

    monkeypatch.setattr(engine, "_records", counted)
    return records


def assert_same_replays(got, want):
    """Two ``replays`` dicts hold the same keys and equal entries; an
    entry that holds arrays (the fold blocks' rows) is compared array by
    array, dtype included."""
    assert got.keys() == want.keys()
    for key in got:
        assert _same_entry(got[key], want[key]), key


def _same_entry(got, want):
    if isinstance(got, np.ndarray) or isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and isinstance(want, np.ndarray)
                and got.dtype == want.dtype and np.array_equal(got, want))
    if isinstance(got, tuple):
        return (type(got) is type(want) and len(got) == len(want)
                and all(map(_same_entry, got, want)))
    return got == want


def port_uses(plan):
    """The (level, node, port, cycle) of every switch port the plan's ops
    drive: each op's route port at ``op.time``, and for an ``aug`` op
    also the lateral link it crosses, named by the link's left node (the
    link of an odd node runs right, of an even node left)."""
    uses = []
    for op in plan.ops:
        uses.append((op.level, op.node, op.route, op.time))
        if op.route == "aug":
            link = op.node if op.node % 2 else op.node - 1
            uses.append((op.level, link, ("link", link), op.time))
    return uses


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


def ints(draw):
    """Hypothesis's ``draw`` as an ``integers(lo, hi)`` choice, both ends
    included, as ``random.Random.randint`` makes it."""
    return lambda lo, hi: draw(st.integers(lo, hi))


def random_layer(integers):
    """A small conv layer, each choice made by ``integers(lo, hi)``; None
    when the input is smaller than one window."""
    r, s = integers(1, 4), integers(1, 4)
    stride, padding = integers(1, 2), integers(0, 1)
    x = r - 2 * padding + stride * integers(0, 3)
    y = s - 2 * padding + stride * integers(0, 3)
    if x < 1 or y < 1:
        return None
    return LayerConfig(LayerKind.CONV, r=r, s=s, c=integers(1, 5),
                       g=integers(1, 3), k=integers(1, 4), n=integers(1, 2),
                       x=x, y=y, stride=stride, padding=padding)


@st.composite
def layers(draw):
    layer = random_layer(ints(draw))
    assume(layer is not None)
    return layer


def tiles(integers, layer, overshoot=0):
    """A tile of the layer, each step made by ``integers(lo, hi)``."""
    ox, oy = derive_output_dims(layer)
    return TileConfig(*(integers(1, d + overshoot) for d in (
        layer.r, layer.s, layer.c, layer.g, layer.k, layer.n, ox, oy)))


DATA_KINDS = ("int32", "int8", "beyond-int64", "float32")


def kind_data(layer, seed, kind):
    """Seeded inputs and weights for the layer, of one of ``DATA_KINDS``."""
    rng = np.random.default_rng(seed)
    shapes = ((layer.n, layer.g, layer.c, layer.x, layer.y),
              (layer.g, layer.k, layer.c, layer.r, layer.s))
    if kind == "float32":
        return (rng.uniform(-1, 1, shape).astype(np.float32)
                for shape in shapes)
    if kind == "beyond-int64":
        # the products leave int64, so every sum is in Python ints; some
        # outputs fit int64 and some overflow
        inputs = rng.integers(-2 ** 40, 2 ** 40, shapes[0])
        weights = rng.integers(-2 ** 22, 2 ** 22, shapes[1])
        weights.flat[0] = 2 ** 22
        return inputs, weights
    # int8 sums overflow often, so the overflow messages are compared too
    return (rng.integers(-9, 10, shape, dtype=kind) for shape in shapes)


def outcome(fn, layer, inputs, weights):
    """The output array ``fn`` returns, or its overflow message."""
    try:
        return fn(layer, inputs, weights)
    except OutputOverflow as exc:
        return str(exc)


def assert_same_outcome(got, want, kind):
    """The same overflow message, or the same outputs: exact for integer
    kinds, within one float32 rounding for float32."""
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
    elif kind == "float32":
        # both sum in float64 and round once to float32, in different
        # orders, so an output may round to the neighbouring float32
        assert got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=np.finfo(np.float32).eps,
                                   atol=1e-12)
    else:
        assert got.dtype == want.dtype
        assert (got == want).all()
