"""Functional reference behavior and comparison semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treefab import (
    DimsMismatch,
    HardwareConfig,
    LayerConfig,
    LayerKind,
    OutputOverflow,
    TileConfig,
    ValidationError,
    compare,
    conv_reference,
    simulate_layer,
    total_macs,
)
from treefab.errors import ShapeMismatch
from treefab.memory import random_layer_data

from common import (
    DATA_KINDS,
    TINY,
    assert_same_outcome,
    kind_data,
    layers,
    outcome,
)
from pixel_reference import conv_per_pixel


def test_unit_filter():
    layer = LayerConfig(LayerKind.CONV, r=1, s=1, c=1, g=1, k=1, n=1, x=1, y=1)
    out = conv_reference(
        layer,
        np.full((1, 1, 1, 1, 1), 5, dtype=np.int32),
        np.full((1, 1, 1, 1, 1), 2, dtype=np.int32),
    )
    assert out.output.item() == 10
    assert out.mac_count == 1


def test_tiny_all_ones():
    ones_in = np.ones((1, 1, 6, 5, 5), dtype=np.int32)
    ones_w = np.ones((1, 6, 6, 3, 3), dtype=np.int32)
    out = conv_reference(TINY, ones_in, ones_w).output
    assert (out == 54).all()  # every output sums an R*S*C window of ones


def test_group_independence():
    layer = LayerConfig(LayerKind.CONV, r=2, s=2, c=3, g=2, k=4, n=1, x=4, y=4)
    inputs, weights = random_layer_data(layer, seed=3)
    base = conv_reference(layer, inputs, weights).output
    zeroed = inputs.copy()
    zeroed[:, 1] = 0
    out = conv_reference(layer, zeroed, weights).output
    assert (out[:, 0] == base[:, 0]).all()
    assert not out[:, 1].any()


def test_linearity():
    inputs, weights = random_layer_data(TINY, seed=4)
    base = conv_reference(TINY, inputs, weights).output
    scaled = conv_reference(TINY, 3 * inputs, weights).output
    assert (scaled == 3 * base).all()


def test_zero_weights():
    inputs, weights = random_layer_data(TINY, seed=5)
    out = conv_reference(TINY, inputs, np.zeros_like(weights)).output
    assert not out.any()


def test_padding_and_stride():
    layer = LayerConfig(LayerKind.CONV, r=3, s=3, c=2, g=1, k=2, n=2,
                        x=7, y=7, stride=2, padding=1)
    inputs, weights = random_layer_data(layer, seed=6)
    out = conv_reference(layer, inputs, weights)
    assert out.output.shape == (2, 1, 2, 4, 4)
    # corner output only sees the in-bounds 2x2 window
    manual = 0
    for c in range(2):
        for r in range(3):
            for s in range(3):
                ix, iy = r - 1, s - 1
                if 0 <= ix < 7 and 0 <= iy < 7:
                    manual += int(inputs[0, 0, c, ix, iy]) * \
                        int(weights[0, 0, c, r, s])
    assert out.output[0, 0, 0, 0, 0] == manual


def test_mac_count_matches_layer():
    out = conv_reference(TINY, *random_layer_data(TINY, seed=7))
    assert out.mac_count == total_macs(TINY) == 2916


def test_shape_rejection():
    inputs, weights = random_layer_data(TINY, seed=8)
    with pytest.raises(ShapeMismatch):
        conv_reference(TINY, inputs[:, :, :5], weights)


class TestMixedDataKinds:
    """Integer inputs with float weights, or the reverse, are rejected by
    the simulator and the oracle alike: an integer sum would truncate the
    float weights (all-zero outputs for weights of 0.5).  So are data
    that are neither (bool, complex).  Integer widths may differ."""

    LAYER = LayerConfig(LayerKind.CONV, r=3, s=3, c=2, g=1, k=2, n=1, x=5,
                        y=5)

    def simulate(self, inputs, weights):
        return simulate_layer(HardwareConfig(32, 4, 4), self.LAYER,
                              TileConfig(3, 3, 1), inputs, weights).output

    @pytest.mark.parametrize("input_dtype, weight_dtype", [
        (np.int32, np.float32), (np.float32, np.int32)])
    def test_integer_and_float_rejected(self, input_dtype, weight_dtype):
        inputs = random_layer_data(self.LAYER, seed=4)[0].astype(input_dtype)
        weights = np.full((1, 2, 2, 3, 3), 0.5).astype(weight_dtype)
        with pytest.raises(ValidationError):
            self.simulate(inputs, weights)
        with pytest.raises(ValidationError):
            conv_reference(self.LAYER, inputs, weights)

    @pytest.mark.parametrize("dtype", [np.bool_, np.complex128])
    def test_neither_integer_nor_float_rejected(self, dtype):
        inputs, weights = (a.astype(dtype)
                           for a in random_layer_data(self.LAYER, seed=4))
        with pytest.raises(ValidationError,
                           match="must both be integer or both floating"):
            self.simulate(inputs, weights)
        with pytest.raises(ValidationError,
                           match="both must be int or float"):
            conv_reference(self.LAYER, inputs, weights)

    def test_int8_inputs_with_int32_weights(self):
        inputs, weights = random_layer_data(self.LAYER, seed=4)
        inputs = (inputs % 4).astype(np.int8)
        simulated = self.simulate(inputs, weights)
        reference = conv_reference(self.LAYER, inputs, weights).output
        assert simulated.dtype == reference.dtype == np.int8
        assert compare(simulated, reference).ok
        want = np.einsum("gkcrs,gcrs->gk", weights.astype(np.int64),
                         inputs[0, :, :, :3, :3].astype(np.int64))
        assert (reference[0, :, :, 0, 0] == want).all()


class TestOverflow:
    """The oracle and the simulator share one rule: sums are exact and an
    output that does not fit the input dtype raises OutputOverflow."""

    PAIR = LayerConfig(LayerKind.CONV, r=1, s=2, c=1, g=1, k=1, n=1, x=1,
                       y=2)

    @pytest.mark.parametrize("dtype, value", [
        (np.int32, 2 ** 15),    # 2 * 2**30 = 2**31, one past int32
        (np.int32, -2 ** 31),   # 2 * 2**62 leaves int64 as well
        (np.int64, 2 ** 31),    # 2 * 2**62 = 2**63, one past int64
        (np.uint8, 15),         # 450 > 255
    ])
    def test_oracle_and_simulator_both_raise(self, dtype, value):
        taps = np.full((1, 1, 1, 1, 2), value, dtype=dtype)
        with pytest.raises(OutputOverflow) as oracle:
            conv_reference(self.PAIR, taps, taps)
        with pytest.raises(OutputOverflow) as simulator:
            simulate_layer(HardwareConfig(8, 2, 2), self.PAIR,
                           TileConfig(1, 2, 1), taps, taps)
        assert str(oracle.value) == str(simulator.value)

    def test_largest_sum_that_fits(self):
        # (2**15 - 1) * 2**16 + (2**16 - 1) * 1 = 2**31 - 1
        inputs = np.array([2 ** 15 - 1, 2 ** 16 - 1],
                          dtype=np.int32).reshape(1, 1, 1, 1, 2)
        weights = np.array([2 ** 16, 1], dtype=np.int32).reshape(1, 1, 1, 1, 2)
        out = conv_reference(self.PAIR, inputs, weights).output
        assert out.item() == np.iinfo(np.int32).max


class TestCompare:
    def test_identical(self):
        a = np.arange(12, dtype=np.int32).reshape(3, 4)
        assert compare(a, a.copy()).ok

    def test_off_by_one_reports_coordinate(self):
        a = np.zeros((2, 2), dtype=np.int32)
        b = a.copy()
        b[1, 0] = 1
        result = compare(a, b)
        assert not result.ok
        assert result.first_mismatch[0] == (1, 0)
        assert "(1, 0)" in result.report()

    def test_float_tolerance(self):
        a = np.array([1.0], dtype=np.float32)
        b = np.array([1.0 + 1e-6], dtype=np.float32)
        assert compare(a, b, tolerance=1e-5).ok
        assert not compare(a, b, tolerance=1e-8).ok

    def test_exact_beyond_float64_precision(self):
        a = np.array([2 ** 53 + 1], dtype=np.int64)
        b = np.array([2 ** 53], dtype=np.int64)
        assert not compare(a, b).ok

    def test_fault_on_a_large_simulated_output(self):
        # 2**27 * 2**27 + 2**27 * 2**27 = 2**55; +1 is lost in float64
        layer = TestOverflow.PAIR
        taps = np.full((1, 1, 1, 1, 2), 2 ** 27, dtype=np.int64)
        output = simulate_layer(HardwareConfig(8, 2, 2), layer,
                                TileConfig(1, 2, 1), taps, taps).output
        reference = conv_reference(layer, taps, taps).output
        assert output.item() == 2 ** 55
        assert compare(output, reference).ok
        output[0, 0, 0, 0, 0] += 1
        result = compare(output, reference)
        assert not result.ok
        assert result.first_mismatch == ((0, 0, 0, 0, 0), 2 ** 55 + 1, 2 ** 55)

    @pytest.mark.parametrize("tolerance", [0, 1e-3, 1e9, np.inf])
    def test_nan_never_matches(self, tolerance):
        nan = np.array([np.nan])
        assert not compare(nan, np.array([5.0]), tolerance).ok
        assert not compare(np.array([5.0]), nan, tolerance).ok
        assert not compare(nan, nan.copy(), tolerance).ok

    def test_dims_mismatch(self):
        with pytest.raises(DimsMismatch):
            compare(np.zeros((2, 2)), np.zeros((2, 3)))


class TestMatchesPixelReference:
    @settings(max_examples=80, deadline=None)
    @given(layer=layers(), seed=st.integers(0, 999),
           kind=st.sampled_from(DATA_KINDS))
    def test_random_layers(self, layer, seed, kind):
        inputs, weights = kind_data(layer, seed, kind)
        assert_same_outcome(
            outcome(lambda *a: conv_reference(*a).output, layer, inputs,
                    weights),
            outcome(conv_per_pixel, layer, inputs, weights), kind)
