"""Acceptance gate: one test per acceptance criterion.

Each test prints a single pass line on success; a failing assertion is
the fail line.  Budgeted criteria assert their own wall-clock limits.
"""

import pathlib
import time
from dataclasses import replace

import numpy as np
import pytest
import yaml

from treefab import (
    FoldingStrategy,
    HardwareConfig,
    LayerConfig,
    LayerKind,
    TileConfig,
    build_mapping,
    compare,
    conv_reference,
    derive_output_dims,
    plan_reduction,
    simulate_layer,
)
from treefab.fabric import ReductionNetwork
from treefab.memory import random_layer_data

from common import (
    EARLY_SYNTHETIC,
    HW32,
    LATE_SYNTHETIC,
    PADDED_STRIDED,
    TINY,
    VALIDATION_TILE,
    contiguous_partition,
    port_uses,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_cycles.yaml"


def _random_triple(rng):
    """One random (hardware, layer, tile) combination at desk scale."""
    while True:
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 2))
        r = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        x = r + stride * int(rng.integers(0, 4))
        y = s + stride * int(rng.integers(0, 4))
        if x + 2 * padding < r or y + 2 * padding < s:
            continue
        layer = LayerConfig(
            LayerKind.CONV,
            r=r, s=s,
            c=int(rng.integers(1, 5)),
            g=int(rng.integers(1, 3)),
            k=int(rng.integers(1, 5)),
            n=int(rng.integers(1, 3)),
            x=x, y=y,
            stride=stride, padding=padding,
        )
        num_ms = int(rng.choice([8, 16, 32, 64]))
        bw = int(rng.choice([b for b in (2, 4, 8, 16, 32, 64)
                             if b <= num_ms]))
        strategy = rng.choice(list(FoldingStrategy))
        hw = HardwareConfig(num_ms, bw, bw, strategy)
        ox, oy = derive_output_dims(layer)
        tile = TileConfig(
            t_r=int(rng.integers(1, layer.r + 1)),
            t_s=int(rng.integers(1, layer.s + 1)),
            t_c=int(rng.integers(1, layer.c + 1)),
            t_g=int(rng.integers(1, layer.g + 1)),
            t_k=int(rng.integers(1, layer.k + 1)),
            t_n=int(rng.integers(1, layer.n + 1)),
            t_x=int(rng.integers(1, ox + 1)),
            t_y=int(rng.integers(1, oy + 1)),
        )
        folds = -(-layer.r // tile.t_r) * -(-layer.s // tile.t_s) * \
            -(-layer.c // tile.t_c)
        real = tile.vn_size + (1 if folds > 1 and
                               strategy is FoldingStrategy.ROUNDTRIP else 0)
        if real <= num_ms:
            return hw, layer, tile


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    for i in range(200):
        hw, layer, tile = _random_triple(rng)
        inputs, weights = random_layer_data(layer, seed=i)
        result = simulate_layer(hw, layer, tile, inputs, weights)
        reference = conv_reference(layer, inputs, weights)
        verdict = compare(result.output, reference)
        assert verdict.ok, (
            f"triple {i} (hw={hw}, layer={layer}, tile={tile}): "
            f"{verdict.report()}"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"budget exceeded: {elapsed:.1f}s"
    print(f"\n[PASS] criterion 1: 200/200 random triples match the oracle "
          f"exactly ({elapsed:.1f}s)")


def test_criterion_2_utilization_table():
    # table rows for 64 multipliers with folding; compared at the
    # table's own integer-percent resolution, tolerance 2 points
    rows = [
        (36, LayerConfig(LayerKind.CONV, r=6, s=6, c=2, g=1, k=1, n=1,
                         x=6, y=6), TileConfig(6, 6, 1), 58),
        (32, LayerConfig(LayerKind.CONV, r=8, s=4, c=2, g=1, k=1, n=1,
                         x=8, y=4), TileConfig(8, 4, 1), 52),
        (50, LayerConfig(LayerKind.CONV, r=5, s=5, c=4, g=1, k=1, n=1,
                         x=5, y=5), TileConfig(5, 5, 2), 78),
        (49, LayerConfig(LayerKind.CONV, r=7, s=7, c=2, g=1, k=1, n=1,
                         x=7, y=7), TileConfig(7, 7, 1), 76),
    ]
    hw = HardwareConfig(64, 4, 4)
    got = []
    for vn_size, layer, tile, expected in rows:
        plan = build_mapping(hw, layer, tile)
        assert plan.vn_size == vn_size and plan.folds > 1
        percent = round(100 * plan.theoretical_utilization)
        assert abs(percent - expected) <= 2, (
            f"vn_size {vn_size}: {percent}% vs expected {expected}%"
        )
        got.append(percent)
    print(f"\n[PASS] criterion 2: utilization {got}% matches "
          f"[58, 52, 78, 76]% within 2 points")


def test_criterion_3_three_clusters_of_five():
    layer = LayerConfig(LayerKind.CONV, r=2, s=2, c=2, g=1, k=3, n=1,
                        x=3, y=3)
    tile = TileConfig(2, 2, 1, 1, 3, 1, 1, 1)
    plan = build_mapping(HardwareConfig(16, 4, 4), layer, tile)
    assert plan.folds > 1
    assert plan.n_vns_mapped == 3
    assert plan.real_vn_size == 5
    assignment = [(a["vn"], a["role"])
                  for a in plan.describe()["ms_assignment"]]
    for slot in range(3):
        block = assignment[slot * 5:(slot + 1) * 5]
        assert block[:4] == [(slot, "multiplier")] * 4
        assert block[4] == (slot, "forwarder")
    print("\n[PASS] criterion 3: folding tile maps 3 clusters of 5 "
          "multipliers, forwarder at each cluster's last leaf")


def test_criterion_4_reduction_nonblocking():
    rng = np.random.default_rng(64)
    start = time.monotonic()
    for i in range(1000):
        vn_of_leaf = contiguous_partition(64, rng)
        values = [int(v) for v in rng.integers(-50, 51, size=64)]
        plan = plan_reduction(vn_of_leaf)
        sums = ReductionNetwork(64).replay(plan, dict(enumerate(values)))
        brute = {}
        for leaf, vn in enumerate(vn_of_leaf):
            if vn is not None:
                brute[vn] = brute.get(vn, 0) + values[leaf]
        assert sums == brute, f"partition {i} sum mismatch"
        uses = port_uses(plan)
        assert len(uses) == len(set(uses)), (
            f"partition {i}: port carries two values in one cycle"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 30, f"budget exceeded: {elapsed:.1f}s"
    print(f"\n[PASS] criterion 4: 1000/1000 random partitions reduce "
          f"correctly with per-cycle port exclusivity ({elapsed:.1f}s)")


def test_criterion_5_folding_and_scaling():
    # fold-heavy layer: local accumulation at least halves the cycles
    inputs, weights = random_layer_data(LATE_SYNTHETIC, seed=5)
    hw = HardwareConfig(64, 64, 64)
    rt = simulate_layer(hw, LATE_SYNTHETIC, VALIDATION_TILE, inputs,
                        weights).stats
    ideal = simulate_layer(replace(hw, folding=FoldingStrategy.IDEAL),
                           LATE_SYNTHETIC, VALIDATION_TILE, inputs,
                           weights).stats
    assert rt.folds == 20
    ratio = rt.total_cycles / ideal.total_cycles
    assert ratio >= 2.0, f"ideal speedup only {ratio:.2f}x"

    # many-cluster layer at full bandwidth: doubling the array lands in
    # the expected speedup band
    layer = LayerConfig(LayerKind.CONV, r=1, s=1, c=4, g=1, k=112, n=1,
                        x=4, y=4)
    tile = TileConfig(1, 1, 4, 1, 112, 1, 1, 1)
    inputs, weights = random_layer_data(layer, seed=6)
    c64 = simulate_layer(HardwareConfig(64, 64, 64), layer, tile, inputs,
                         weights).stats.total_cycles
    c128 = simulate_layer(HardwareConfig(128, 128, 128), layer, tile, inputs,
                          weights).stats.total_cycles
    speedup = c64 / c128
    assert 1.5 <= speedup <= 2.0, f"64->128 speedup {speedup:.2f}x"
    print(f"\n[PASS] criterion 5: ideal folding {ratio:.2f}x faster; "
          f"64->128 multiplier speedup {speedup:.2f}x in [1.5, 2.0]")


def test_criterion_6_utilization_vs_bandwidth():
    for name, layer in [("TINY", TINY), ("LATE_SYNTHETIC", LATE_SYNTHETIC),
                        ("EARLY_SYNTHETIC", EARLY_SYNTHETIC)]:
        inputs, weights = random_layer_data(layer, seed=7)
        utils = []
        for bw in (64, 32, 16, 8, 4):
            hw = HardwareConfig(64, bw, bw)
            st = simulate_layer(hw, layer, VALIDATION_TILE, inputs,
                                weights).stats
            assert st.effective_ms_utilization <= \
                st.theoretical_utilization + 1e-12, name
            utils.append(st.effective_ms_utilization)
        assert all(a >= b - 1e-12 for a, b in zip(utils, utils[1:])), (
            f"{name}: utilization not monotone over bandwidth steps: {utils}"
        )
    print("\n[PASS] criterion 6: effective utilization monotone "
          "non-increasing as bandwidth steps down 64..4, and never above "
          "theoretical")


def test_criterion_7_golden_cycle_counts():
    golden = yaml.safe_load(GOLDEN_PATH.read_text())
    layers = {"TINY": TINY, "LATE_SYNTHETIC": LATE_SYNTHETIC,
              "EARLY_SYNTHETIC": EARLY_SYNTHETIC,
              "PADDED_STRIDED": PADDED_STRIDED}
    got = {}
    for strategy, names in golden["stats"].items():
        hw = replace(HW32, folding=FoldingStrategy(strategy))
        for name in names:
            docs = []
            for seed in (0, 123):
                inputs, weights = random_layer_data(layers[name], seed=seed)
                docs.append(simulate_layer(hw, layers[name], VALIDATION_TILE,
                                           inputs, weights).stats.as_dict())
            assert docs[0] == docs[1], (
                f"{name} {strategy}: stats vary across runs"
            )
            assert docs[0] == golden["stats"][strategy][name], (
                f"{name} {strategy}: {docs[0]} vs golden "
                f"{golden['stats'][strategy][name]}"
            )
            if hw == HW32:
                got[name] = docs[0]["total_cycles"]
    assert got == golden["cycles"], f"{got} vs golden {golden['cycles']}"
    print(f"\n[PASS] criterion 7: golden stats documents reproduced "
          f"bit-stably; cycles {got}")


def test_criterion_8_model_chaining(tmp_path, capsys):
    from treefab import cli

    hw_doc = "num_ms: 32\ndn_bw: 4\nrn_bw: 4\nfolding: roundtrip\n"
    model_doc = """\
version: 1
layers:
  - name: conv1
    layer: {kind: conv, R: 3, S: 3, C: 2, K: 4, X: 6, Y: 6}
    tile: {T_R: 3, T_S: 3, T_C: 1, T_X: 2}
  - name: conv2
    layer: {kind: conv, R: 2, S: 2, C: 4, K: 3, X: 4, Y: 4}
    tile: {T_R: 2, T_S: 2, T_C: 2, T_K: 3}
  - name: fc1
    layer: {kind: fc, R: 3, S: 3, C: 3, K: 5, X: 3, Y: 3}
    tile: {T_R: 3, T_S: 1, T_C: 1}
"""
    hw_path = tmp_path / "hw.yaml"
    hw_path.write_text(hw_doc)
    model_path = tmp_path / "model.yaml"
    model_path.write_text(model_doc)
    seed = 42
    code = cli.main(["run-model", "--hw", str(hw_path),
                     "--model", str(model_path), "--seed", str(seed),
                     "--stats-out", str(tmp_path / "stats.yaml")])
    assert code == cli.EXIT_OK

    # independently compose the oracle with the same data generation
    layers = [
        LayerConfig(LayerKind.CONV, r=3, s=3, c=2, g=1, k=4, n=1, x=6, y=6),
        LayerConfig(LayerKind.CONV, r=2, s=2, c=4, g=1, k=3, n=1, x=4, y=4),
        LayerConfig(LayerKind.FC, r=3, s=3, c=3, g=1, k=5, n=1, x=3, y=3),
    ]
    tiles = [
        TileConfig(3, 3, 1, 1, 1, 1, 2, 1),
        TileConfig(2, 2, 2, 1, 3, 1, 1, 1),
        TileConfig(3, 1, 1),
    ]
    rng = np.random.default_rng(seed)
    current = None
    oracle_current = None
    for layer, tile in zip(layers, tiles):
        shape_in = (layer.n, layer.g, layer.c, layer.x, layer.y)
        if current is None:
            current = rng.integers(-8, 9, size=shape_in, dtype=np.int32)
            oracle_current = current
        else:
            current = current.reshape(shape_in)
            oracle_current = oracle_current.reshape(shape_in)
        weights = rng.integers(
            -8, 9, size=(layer.g, layer.k, layer.c, layer.r, layer.s),
            dtype=np.int32)
        current = simulate_layer(HW32, layer, tile, current, weights).output
        oracle_current = conv_reference(layer, oracle_current, weights)
    assert compare(current, oracle_current).ok
    print("\n[PASS] criterion 8: 3-layer model chain equals the composed "
          "oracle end to end")
