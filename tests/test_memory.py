"""Prefetch buffer regions, bounds checks and accounting."""

import numpy as np
import pytest

from treefab.errors import AddressOutOfRange, ShapeMismatch
from treefab.memory import (
    PrefetchBuffer,
    input_dims,
    output_dims,
    random_layer_data,
    weight_dims,
)

from common import TINY


def loaded_pb():
    pb = PrefetchBuffer()
    inputs, weights = random_layer_data(TINY, seed=11)
    pb.load_layer_data(TINY, inputs, weights)
    return pb


class TestLoad:
    def test_tiny_regions(self):
        pb = loaded_pb()
        assert pb.inputs.shape == input_dims(TINY) == (1, 1, 6, 5, 5)
        assert pb.weights.shape == weight_dims(TINY) == (1, 6, 6, 3, 3)
        assert pb.outputs.shape == output_dims(TINY) == (1, 1, 6, 3, 3)
        assert pb.outputs.dtype == pb.inputs.dtype == np.int32
        assert not pb.outputs.any()
        assert pb.counters.reads == pb.counters.writes == 0

    def test_shape_mismatch(self):
        pb = PrefetchBuffer()
        inputs, weights = random_layer_data(TINY, seed=1)
        with pytest.raises(ShapeMismatch):
            pb.load_layer_data(TINY, inputs, weights[:, :, :5])


class TestRandomData:
    def test_seed_and_generator_agree(self):
        a = random_layer_data(TINY, seed=3)
        b = random_layer_data(TINY, np.random.default_rng(3))
        assert all((x == y).all() for x, y in zip(a, b))
        assert a[0].dtype == a[1].dtype == np.int32
        assert a[0].min() >= -8 and a[0].max() <= 8

    def test_generator_stream_continues(self):
        rng = np.random.default_rng(3)
        first = random_layer_data(TINY, rng)
        second = random_layer_data(TINY, rng)
        assert not (first[0] == second[0]).all()


class TestReads:
    def test_no_requests(self):
        pb = loaded_pb()
        assert pb.serve_reads([]) == []

    def test_exact_capacity(self):
        pb = loaded_pb()
        reqs = [("inputs", (0, 0, 0, 0, i)) for i in range(4)]
        assert pb.serve_reads(reqs) == pb.inputs[0, 0, 0, 0, :4].tolist()
        assert pb.counters.reads == 4

    def test_values_match_region(self):
        pb = loaded_pb()
        addr = ("inputs", (0, 0, 2, 3, 1))
        value, = pb.serve_reads([addr])
        assert value == pb.inputs[0, 0, 2, 3, 1]
        assert type(value) is int

    def test_peek_returns_python_scalars(self):
        pb = loaded_pb()
        assert type(pb.peek(("weights", (0, 1, 2, 0, 1)))) is int
        assert type(pb.peek(("psum", (0, 0, 1, 0, 0)))) is int

    def test_negative_index_does_not_wrap(self):
        pb = loaded_pb()
        for address in [("inputs", (0, 0, 0, -1, 0)),
                        ("weights", (0, 0, 0, 0, -1)),
                        ("psum", (0, 0, -1, 0, 0))]:
            with pytest.raises(AddressOutOfRange):
                pb.peek(address)
        with pytest.raises(AddressOutOfRange):
            pb.serve_writes([(("outputs", (0, 0, 0, -1, 0)), 1)])

    def test_wrong_rank(self):
        pb = loaded_pb()
        with pytest.raises(AddressOutOfRange):
            pb.peek(("inputs", (0, 0, 0)))
        with pytest.raises(AddressOutOfRange):
            pb.peek(("outputs", (0, 0, 0, 0, 0, 0)))

    def test_unloaded_regions(self):
        pb = PrefetchBuffer()
        for address in [("inputs", (0, 0, 0, 0, 0)),
                        ("psum", (0, 0, 0, 0, 0))]:
            with pytest.raises(AddressOutOfRange):
                pb.peek(address)

    def test_bad_address(self):
        pb = loaded_pb()
        with pytest.raises(AddressOutOfRange):
            pb.serve_reads([("inputs", (0, 0, 0, 9, 9))])
        with pytest.raises(AddressOutOfRange):
            pb.peek(("nowhere", (0,)))


class TestWrites:
    def test_single_write(self):
        pb = loaded_pb()
        pb.serve_writes([(("outputs", (0, 0, 1, 2, 2)), 42)])
        assert pb.outputs[0, 0, 1, 2, 2] == 42
        assert pb.counters.writes == 1

    def test_output_value_out_of_dtype_range_raises(self):
        pb = loaded_pb()
        with pytest.raises(OverflowError):
            pb.serve_writes([(("outputs", (0, 0, 0, 0, 0)), 2**40)])

    def test_psum_key_validated(self):
        pb = loaded_pb()
        with pytest.raises(AddressOutOfRange):
            pb.serve_writes([(("psum", (0, 0, 9, 0, 0)), 1)])

    def test_read_only_regions(self):
        pb = loaded_pb()
        with pytest.raises(AddressOutOfRange):
            pb.serve_writes([(("weights", (0, 0, 0, 0, 0)), 1)])

    def test_unloaded_psum_default(self):
        pb = loaded_pb()
        assert pb.peek(("psum", (0, 0, 0, 0, 0))) == 0
