"""Configuration parsing, validation and derived arithmetic."""

import pytest

from treefab import (
    HardwareConfig,
    LayerConfig,
    LayerKind,
    TileConfig,
    TileExceedsLayer,
    ValidationError,
    derive_output_dims,
    total_macs,
    validate_tile,
)
from treefab.config import (
    FoldingStrategy,
    parse_hardware_config,
    parse_layer_config,
    parse_tile_config,
    serialize_hardware_config,
    serialize_layer_config,
    serialize_tile_config,
)
from treefab.errors import ParseError

from common import EARLY_SYNTHETIC, TINY, VALIDATION_TILE


class TestHardwareConfig:
    def test_reference_point(self):
        hw = parse_hardware_config(
            "num_ms: 32\ndn_bw: 4\nrn_bw: 4\nfolding: roundtrip\n"
        )
        assert hw == HardwareConfig(32, 4, 4, FoldingStrategy.ROUNDTRIP)

    def test_minimal_fabric(self):
        hw = parse_hardware_config("num_ms: 2\ndn_bw: 1\nrn_bw: 1\n")
        assert (hw.num_ms, hw.dn_bw, hw.rn_bw) == (2, 1, 1)

    def test_num_ms_must_be_power_of_two(self):
        with pytest.raises(ValidationError):
            parse_hardware_config("num_ms: 48\ndn_bw: 4\nrn_bw: 4\n")

    def test_dn_bw_must_be_power_of_two(self):
        with pytest.raises(ValidationError):
            HardwareConfig(num_ms=32, dn_bw=3, rn_bw=4)

    @pytest.mark.parametrize("dn_bw,rn_bw", [(64, 4), (4, 64), (0, 4), (4, 0)])
    def test_bandwidth_ranges(self, dn_bw, rn_bw):
        with pytest.raises(ValidationError):
            HardwareConfig(num_ms=32, dn_bw=dn_bw, rn_bw=rn_bw)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            parse_hardware_config("num_ms: 32\ndn_bw: 4\nrn_bw: 4\nbogus: 1\n")

    def test_malformed_document(self):
        with pytest.raises(ParseError):
            parse_hardware_config("num_ms: [unterminated\n")

    def test_bad_version(self):
        with pytest.raises(ValidationError):
            parse_hardware_config("version: 9\nnum_ms: 32\ndn_bw: 4\nrn_bw: 4\n")


class TestLayerConfig:
    def test_output_dims_tiny(self):
        assert derive_output_dims(TINY) == (3, 3)

    def test_output_dims_identity_filter(self):
        layer = LayerConfig(LayerKind.CONV, r=1, s=1, c=1, g=1, k=1, n=1,
                            x=7, y=7)
        assert derive_output_dims(layer) == (7, 7)

    def test_output_dims_stride(self):
        layer = LayerConfig(LayerKind.CONV, r=3, s=3, c=1, g=1, k=1, n=1,
                            x=5, y=5, stride=2)
        assert derive_output_dims(layer) == (2, 2)

    def test_non_divisible_stride_rejected(self):
        with pytest.raises(ValidationError):
            LayerConfig(LayerKind.CONV, r=3, s=3, c=1, g=1, k=1, n=1,
                        x=6, y=5, stride=2)

    def test_total_macs_tiny(self):
        assert total_macs(TINY) == 2916

    def test_total_macs_unit(self):
        layer = LayerConfig(LayerKind.CONV, r=1, s=1, c=1, g=1, k=1, n=1,
                            x=1, y=1)
        assert total_macs(layer) == 1

    def test_total_macs_early_synthetic(self):
        assert total_macs(EARLY_SYNTHETIC) == 104976

    def test_fc_shape_constraints(self):
        layer = LayerConfig(LayerKind.FC, r=1, s=12, c=4, g=1, k=8, n=1,
                            x=1, y=12)
        assert derive_output_dims(layer) == (1, 1)
        with pytest.raises(ValidationError):
            LayerConfig(LayerKind.FC, r=1, s=12, c=4, g=2, k=8, n=1,
                        x=1, y=12)
        with pytest.raises(ValidationError):
            LayerConfig(LayerKind.FC, r=1, s=12, c=4, g=1, k=8, n=1,
                        x=2, y=12)

    def test_dimensions_must_be_positive(self):
        with pytest.raises(ValidationError):
            LayerConfig(LayerKind.CONV, r=0, s=3, c=1, g=1, k=1, n=1,
                        x=5, y=5)
        with pytest.raises(ValidationError):
            LayerConfig(LayerKind.CONV, r=3, s=3, c=1, g=1, k=1, n=1,
                        x=5, y=5, padding=-1)


class TestTileValidation:
    def test_validation_tile_fits_tiny(self):
        validate_tile(TINY, VALIDATION_TILE)

    def test_tile_exceeding_layer(self):
        with pytest.raises(TileExceedsLayer) as err:
            validate_tile(TINY, TileConfig(4, 3, 1))
        assert err.value.dimension == "R"

    def test_fc_style_tile(self):
        layer = LayerConfig(LayerKind.FC, r=1, s=12, c=4, g=1, k=8, n=1,
                            x=1, y=12)
        validate_tile(layer, TileConfig(1, 12, 1, 1, 8, 1, 1, 1))

    def test_tile_counts(self):
        tile = TileConfig(3, 3, 2, 1, 4, 1, 2, 2)
        assert tile.vn_size == 18
        assert tile.n_vns == 16


class TestRoundTrip:
    def test_hardware(self):
        hw = HardwareConfig(64, 8, 16, FoldingStrategy.IDEAL)
        assert parse_hardware_config(serialize_hardware_config(hw)) == hw

    def test_layer(self):
        layer = LayerConfig(LayerKind.CONV, r=3, s=2, c=4, g=2, k=5, n=3,
                            x=9, y=8, stride=2, padding=1)
        assert parse_layer_config(serialize_layer_config(layer)) == layer

    def test_tile(self):
        tile = TileConfig(3, 2, 4, 2, 5, 3, 1, 2)
        assert parse_tile_config(serialize_tile_config(tile)) == tile

    def test_tile_document(self):
        tile = TileConfig(3, 2, 4, 2, 5, 3, 1, 2)
        assert serialize_tile_config(tile) == (
            "T_C: 4\nT_G: 2\nT_K: 5\nT_N: 3\nT_R: 3\nT_S: 2\nT_X: 1\n"
            "T_Y: 2\nversion: 1\n"
        )
        # only the cluster axes are required
        assert parse_tile_config("T_R: 3\nT_S: 2\nT_C: 4\n") == \
            TileConfig(3, 2, 4)
        with pytest.raises(ValidationError, match="missing key T_C"):
            parse_tile_config("T_R: 3\nT_S: 2\nT_X: 2\n")
