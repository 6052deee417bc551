"""Reference keying of a layer's waves, batch by batch.

Keys every batch of an expanded batch cut on its own row (its shape and
its least ``ox`` and ``oy``), and every (batch row, block row) pair on
its shape, block and the two border classes, each computed from the
pair's least coordinates and spreads: the per-batch statement that the
engine's closed-form classes on the batch grid must reproduce, wave for
wave.  The fold blocks' rows (``_block_rows``), whose id columns carry
the fold flags, and each key's record (``_records``) come from the
engine, which keys the blocks the same way on both paths.
"""

from typing import NamedTuple

import numpy as np

from treefab import engine
from treefab.errors import AddressOutOfRange
from treefab.mapper import Cut
from treefab.memory import output_dims


class Rows(NamedTuple):
    """The batches numbered by their rows: each batch's row, and per row
    its first batch, its shape, and that batch's least ``ox`` and ``oy``
    and their spreads, shape (2, rows)."""

    cut: Cut
    row: np.ndarray
    first: np.ndarray
    ids: np.ndarray
    least: np.ndarray
    spread: np.ndarray


def number(columns):
    """(ids, first): each row of the broadcast ``columns`` numbered among
    the distinct rows, and each id's first flat index."""
    number = 0
    for column in columns:
        number = number * (int(column.max()) + 1) + column
    _, first, ids = np.unique(number, return_index=True, return_inverse=True)
    return ids.reshape(np.shape(number)), first


def check_range(cut, dims, what):
    """(spread, least) of a cut's shapes and groups, shape (axes,
    groups); raises ``AddressOutOfRange`` unless every group lies within
    ``dims``."""
    low, spread = cut.bounds()
    least = cut.origins.T + np.take(low.T, cut.shape, axis=1)
    for axis, (lo, hi, dim) in enumerate(zip(
            least.min(axis=1),
            (least + np.take(spread.T, cut.shape, axis=1)).max(axis=1),
            dims)):
        if lo < 0 or hi >= dim:
            raise AddressOutOfRange(
                f"{what} axis {axis} spans {lo}..{hi}, outside 0..{dim - 1}"
            )
    return spread, least


def batch_rows(layer, batches):
    """The batches' rows; raises ``AddressOutOfRange`` where a batch
    leaves the output."""
    spread, least = check_range(batches, output_dims(layer), "output")
    least, spread = least[3:], spread[:, 3:]
    row, first = number([batches.shape, *least])
    return Rows(batches, row, first, batches.shape[first], least[:, first],
                spread[batches.shape[first]].T)


def pair_table(mapping, batches, blocks, replays):
    """(ids, records): the key id of each (batch row, block row) pair,
    from its border classes, and each key's record."""
    layer = mapping.layer
    borders = []
    for axis, extent in enumerate((layer.x, layer.y)):
        base = (batches.least[axis, :, None] * layer.stride - layer.padding
                + blocks.least[axis])
        end = base + (batches.spread[axis, :, None] * layer.stride
                      + blocks.spread[axis])
        borders.append(np.where((base >= 0) & (end < extent), 0,
                                base + layer.padding + 1))
    ids, first = number([batches.ids[:, None], *blocks.ids, *borders])
    b, f = np.divmod(first, len(blocks.first))
    return ids, engine._records(
        mapping.hw, layer, *batches.cut.coordinates(batches.first[b]),
        blocks, f, [mapping], np.zeros_like(f), replays)


class Keyed(NamedTuple):
    """A layer keyed batch by batch: its stats, trace events, the record
    of every wave in issue order, shape (waves, record), and each key's
    record."""

    stats: engine.SimStats
    events: list
    waves: np.ndarray
    records: np.ndarray


def keyed(mapping, batches, blocks, replays):
    """Key the waves of the ``batches`` and ``blocks`` cuts of
    ``mapping``, filling ``replays`` with their parts."""
    batches = batch_rows(mapping.layer, batches)
    blocks = engine._block_rows(mapping.layer, blocks)
    ids, records = pair_table(mapping, batches, blocks, replays)
    waves = records[ids[batches.row[:, None], blocks.row]].reshape(
        -1, records.shape[1])
    totals = waves.sum(axis=0)
    n_folds = len(blocks.row)
    sizes = np.repeat(batches.cut.sizes[batches.cut.shape], n_folds)
    events = [{"wave": w + 1, "fold": w % n_folds, "batch_size": size,
               "cycle": cycle, "weight_cycles": wc, "input_cycles": ic}
              for w, (size, cycle, wc, ic) in enumerate(zip(
                  sizes.tolist(), np.cumsum(waves[:, 2]).tolist(),
                  waves[:, 0].tolist(), waves[:, 1].tolist()))]
    stats = engine.layer_stats(mapping, int(totals[2]), len(waves),
                               totals[3:].tolist())
    return Keyed(stats, events, waves, records)
