"""Per-wave reference for the engine.

Runs every wave of a layer through ``engine.run_wave``, one after
another, on a buffer loaded with the real data, and sums their cycles
and counters.  ``simulate_layer`` times each distinct wave once and must
give the same stats, outputs and trace events.
"""

from treefab import engine
from treefab.mapper import build_mapping


def simulate_per_wave(hw, layer, tile, inputs, weights, trace=None):
    mapping = build_mapping(hw, layer, tile)
    fabric = engine.Fabric(hw)
    fabric.pb.load_layer_data(layer, inputs, weights)
    blocks = list(mapping.fold_blocks)
    cycle = waves = 0
    for batch in mapping.schedule:
        plan = mapping.reduction_plan(len(batch))
        accum = dict.fromkeys(range(len(batch)), 0)
        for f, block in enumerate(blocks):
            wc, ic, cycles = engine.run_wave(mapping, plan, batch, f, block,
                                             fabric, cycle, accum)
            cycle += cycles
            waves += 1
            if trace is not None:
                trace({
                    "wave": waves, "fold": f, "batch_size": len(batch),
                    "cycle": cycle, "weight_cycles": wc, "input_cycles": ic,
                })
    stats = engine.layer_stats(mapping, cycle, waves, fabric.counts())
    return engine.SimResult(output=fabric.pb.output_array(), stats=stats,
                            mapping=mapping)
