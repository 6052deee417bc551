"""Configuration parsing, validation and derived arithmetic."""

import pathlib

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from treefab import config
from treefab.config import (
    FoldingStrategy,
    from_doc,
    parse_hardware_config,
    parse_layer_config,
    parse_model_config,
    parse_tile_config,
    to_doc,
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

    def test_zero_stride_rejected(self):
        with pytest.raises(ValidationError, match="^stride must be >= 1$"):
            LayerConfig(LayerKind.CONV, r=1, s=1, c=1, g=1, k=1, n=1,
                        x=2, y=2, stride=0)

    def test_stride_fits_x_but_not_y(self):
        # (5 - 3) / 2 along X, (6 - 3) / 2 along Y
        with pytest.raises(ValidationError, match=(
                r"^\(Y \+ 2\*padding - S\) = 3 is not a non-negative "
                r"multiple of stride 2$")):
            LayerConfig(LayerKind.CONV, r=3, s=3, c=1, g=1, k=1, n=1,
                        x=5, y=6, stride=2)

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

    @pytest.mark.parametrize("name", ["t_r", "t_s", "t_c", "t_g", "t_k",
                                      "t_n", "t_x", "t_y"])
    def test_zero_field_rejected(self, name):
        fields = {"t_r": 1, "t_s": 1, "t_c": 1, name: 0}
        with pytest.raises(ValidationError,
                           match=f"^tile dimension {name} must be >= 1$"):
            TileConfig(**fields)

    def test_tile_counts(self):
        tile = TileConfig(3, 3, 2, 1, 4, 1, 2, 2)
        assert tile.vn_size == 18
        assert tile.n_vns == 16


def dump(config) -> str:
    return yaml.safe_dump(to_doc(config), sort_keys=True)


@st.composite
def hardware_configs(draw):
    num_ms = 2 ** draw(st.integers(1, 10))
    return HardwareConfig(
        num_ms=num_ms,
        dn_bw=draw(st.sampled_from([d for d in (1, 2, 4, 8, 16, 32, 64)
                                    if d <= num_ms])),
        rn_bw=draw(st.integers(1, num_ms)),
        folding=draw(st.sampled_from(FoldingStrategy)),
    )


@st.composite
def layer_configs(draw):
    dim = st.integers(1, 12)
    r, s, c, k, n, stride = (draw(dim) for _ in range(6))
    if draw(st.booleans()):
        return LayerConfig(LayerKind.FC, r=r, s=s, c=c, g=1, k=k, n=n,
                           x=r, y=s, stride=stride)
    padding = draw(st.integers(0, 3))
    x = (draw(dim) - 1) * stride + r - 2 * padding
    y = (draw(dim) - 1) * stride + s - 2 * padding
    assume(x >= 1 and y >= 1)
    return LayerConfig(LayerKind.CONV, r=r, s=s, c=c, g=draw(dim), k=k, n=n,
                       x=x, y=y, stride=stride, padding=padding)


tile_configs = st.builds(TileConfig, *[st.integers(1, 64)] * 8)


class TestRoundTrip:
    def test_hardware(self):
        hw = HardwareConfig(64, 8, 16, FoldingStrategy.IDEAL)
        assert parse_hardware_config(dump(hw)) == hw

    def test_layer(self):
        layer = LayerConfig(LayerKind.CONV, r=3, s=2, c=4, g=2, k=5, n=3,
                            x=9, y=8, stride=2, padding=1)
        assert parse_layer_config(dump(layer)) == layer

    def test_tile(self):
        tile = TileConfig(3, 2, 4, 2, 5, 3, 1, 2)
        assert parse_tile_config(dump(tile)) == tile

    @settings(max_examples=100, deadline=None)
    @given(config=st.one_of(hardware_configs(), layer_configs(),
                            tile_configs))
    def test_random_configs(self, config):
        doc = yaml.safe_load(yaml.safe_dump(to_doc(config)))
        assert from_doc(type(config), doc) == config

    def test_documents(self):
        assert dump(HardwareConfig(64, 8, 16, FoldingStrategy.IDEAL)) == (
            "dn_bw: 8\nfolding: ideal\nnum_ms: 64\nrn_bw: 16\nversion: 1\n"
        )
        assert dump(LayerConfig(LayerKind.FC, r=1, s=12, c=4, g=1, k=8,
                                n=1, x=1, y=12)) == (
            "C: 4\nG: 1\nK: 8\nN: 1\nR: 1\nS: 12\nX: 1\nY: 12\nkind: fc\n"
            "padding: 0\nstride: 1\nversion: 1\n"
        )

    def test_tile_document(self):
        tile = TileConfig(3, 2, 4, 2, 5, 3, 1, 2)
        assert dump(tile) == (
            "T_C: 4\nT_G: 2\nT_K: 5\nT_N: 3\nT_R: 3\nT_S: 2\nT_X: 1\n"
            "T_Y: 2\nversion: 1\n"
        )
        # only the cluster axes are required
        assert parse_tile_config("T_R: 3\nT_S: 2\nT_C: 4\n") == \
            TileConfig(3, 2, 4)
        with pytest.raises(ValidationError, match="missing key T_C"):
            parse_tile_config("T_R: 3\nT_S: 2\nT_X: 2\n")


HW_DOC = "num_ms: 32\ndn_bw: 4\nrn_bw: 4\n"
LAYER_DOC = "R: 3\nS: 3\nC: 6\nK: 6\nX: 5\nY: 5\n"
TILE_DOC = "T_R: 3\nT_S: 3\nT_C: 1\n"
MODEL_DOC = ("layers:\n  - name: a\n"
             "    layer: {R: 3, S: 3, C: 2, K: 4, X: 6, Y: 6%s}\n"
             "    tile: {T_R: 3, T_S: 3, T_C: 1%s}\n")
# the prefix of an error inside that document's entry
ENTRY = "model layer 0 ('a'): "
PARSERS = {
    "hardware": parse_hardware_config,
    "layer": parse_layer_config,
    "tile": parse_tile_config,
    "model": parse_model_config,
}
ENUM_FOLDING = "folding must be one of ['roundtrip', 'ideal'], got 'sideways'"
ENUM_KIND = "kind must be one of ['conv', 'fc'], got 'pool'"

# (document kind, fault, text, exception type, message); one fault each
BAD_DOCUMENTS = [
    ("hardware", "missing-key", "dn_bw: 4\nrn_bw: 4\n", ValidationError,
     "hardware document is missing key num_ms"),
    ("hardware", "non-integer", HW_DOC.replace("32", "32.0"),
     ValidationError, "hardware key num_ms must be an integer"),
    ("hardware", "bool", HW_DOC.replace("dn_bw: 4", "dn_bw: true"),
     ValidationError, "hardware key dn_bw must be an integer"),
    ("hardware", "unknown-key", HW_DOC + "bogus: 1\n", ValidationError,
     "unknown hardware keys: bogus"),
    ("hardware", "bad-enum", HW_DOC + "folding: sideways\n",
     ValidationError, ENUM_FOLDING),
    ("hardware", "bad-version", HW_DOC + "version: 9\n", ValidationError,
     "unsupported hardware schema version 9"),
    ("hardware", "bool-version", HW_DOC + "version: true\n",
     ValidationError, "unsupported hardware schema version True"),
    ("hardware", "non-mapping", "- 1\n- 2\n", ParseError,
     "hardware document must be a mapping"),
    ("hardware", "malformed", "num_ms: [oops\n", ParseError,
     "malformed hardware document: "),
    ("layer", "missing-key", LAYER_DOC.replace("R: 3\n", ""),
     ValidationError, "layer document is missing key R"),
    ("layer", "non-integer", LAYER_DOC.replace("X: 5", "X: 5.0"),
     ValidationError, "layer key X must be an integer"),
    ("layer", "bool", LAYER_DOC + "stride: true\n", ValidationError,
     "layer key stride must be an integer"),
    ("layer", "unknown-key", LAYER_DOC + "zeta: 2\nbogus: 1\n",
     ValidationError, "unknown layer keys: bogus, zeta"),
    ("layer", "bad-enum", LAYER_DOC + "kind: pool\n", ValidationError,
     ENUM_KIND),
    ("layer", "bad-version", LAYER_DOC + "version: 2\n", ValidationError,
     "unsupported layer schema version 2"),
    ("layer", "float-version", LAYER_DOC + "version: 1.0\n",
     ValidationError, "unsupported layer schema version 1.0"),
    ("layer", "non-mapping", "just a string\n", ParseError,
     "layer document must be a mapping"),
    ("layer", "malformed", "R: {oops\n", ParseError,
     "malformed layer document: "),
    ("tile", "missing-key", "T_R: 3\nT_S: 3\nT_X: 2\n", ValidationError,
     "tile document is missing key T_C"),
    ("tile", "non-integer", TILE_DOC + "T_X: '2'\n", ValidationError,
     "tile key T_X must be an integer"),
    ("tile", "bool", TILE_DOC + "T_K: false\n", ValidationError,
     "tile key T_K must be an integer"),
    ("tile", "unknown-key", TILE_DOC + "T_Z: 1\n", ValidationError,
     "unknown tile keys: T_Z"),
    ("tile", "bad-version", TILE_DOC + "version: 0\n", ValidationError,
     "unsupported tile schema version 0"),
    ("tile", "bool-version", TILE_DOC + "version: true\n", ValidationError,
     "unsupported tile schema version True"),
    ("tile", "float-version", TILE_DOC + "version: 1.0\n", ValidationError,
     "unsupported tile schema version 1.0"),
    ("tile", "non-mapping", "[1, 2]\n", ParseError,
     "tile document must be a mapping"),
    ("tile", "malformed", "T_R: 3\n  T_S: 3\n", ParseError,
     "malformed tile document: "),
    ("model", "missing-key", "version: 1\n", ParseError,
     "model document must map 'layers' to a list"),
    ("model", "missing-layer", "layers:\n  - {name: a, tile: search}\n",
     ParseError, "model layer 0 must be a mapping with 'layer'"),
    ("model", "layer-missing-key",
     (MODEL_DOC % ("", "")).replace("R: 3, ", ""), ValidationError,
     ENTRY + "layer document is missing key R"),
    ("model", "non-integer", MODEL_DOC % (", N: two", ""), ValidationError,
     ENTRY + "layer key N must be an integer"),
    ("model", "bool", MODEL_DOC % ("", ", T_K: true"), ValidationError,
     ENTRY + "tile key T_K must be an integer"),
    ("model", "unknown-key", MODEL_DOC % (", Q: 1", ""), ValidationError,
     ENTRY + "unknown layer keys: Q"),
    ("model", "bad-enum", MODEL_DOC % (", kind: pool", ""), ValidationError,
     ENTRY + ENUM_KIND),
    ("model", "bad-version", "version: 2\n" + MODEL_DOC % ("", ""),
     ValidationError, "unsupported model schema version 2"),
    ("model", "bool-version", "version: true\n" + MODEL_DOC % ("", ""),
     ValidationError, "unsupported model schema version True"),
    ("model", "float-version", "version: 1.0\n" + MODEL_DOC % ("", ""),
     ValidationError, "unsupported model schema version 1.0"),
    ("model", "unknown-top-key", "bogus: 1\n" + MODEL_DOC % ("", ""),
     ValidationError, "unknown model keys: bogus"),
    ("model", "unknown-entry-key",
     (MODEL_DOC % ("", "")).replace("    tile:", "    tiles:"),
     ValidationError, "unknown model layer 0 keys: tiles"),
    ("model", "entry-version", MODEL_DOC % ("", "") + "    version: 1\n",
     ValidationError, "unknown model layer 0 keys: version"),
    ("model", "layer-bad-version", MODEL_DOC % (", version: 2", ""),
     ValidationError, ENTRY + "unsupported layer schema version 2"),
    ("model", "non-mapping", "- 1\n", ParseError,
     "model document must map 'layers' to a list"),
    ("model", "tile-non-mapping",
     (MODEL_DOC % ("", "")).replace("{T_R: 3, T_S: 3, T_C: 1}", "7"),
     ParseError, ENTRY + "tile document must be a mapping"),
    ("model", "tile-null",
     (MODEL_DOC % ("", "")).replace("{T_R: 3, T_S: 3, T_C: 1}", "null"),
     ParseError, ENTRY + "tile document must be a mapping"),
    ("model", "malformed", "layers: [\n", ParseError,
     "malformed model document: "),
    ("model", "duplicate-name",
     MODEL_DOC % ("", "") + (MODEL_DOC % ("", ""))[len("layers:\n"):],
     ValidationError, "duplicate layer name 'a'"),
]


class TestBadDocuments:
    @pytest.mark.parametrize(
        "what,text,error,message",
        [case[:1] + case[2:] for case in BAD_DOCUMENTS],
        ids=[f"{case[0]}-{case[1]}" for case in BAD_DOCUMENTS],
    )
    def test_single_fault(self, what, text, error, message):
        with pytest.raises(error) as exc:
            PARSERS[what](text)
        assert type(exc.value) is error
        if message.startswith("malformed"):
            # the rest of the message is PyYAML's
            assert str(exc.value).startswith(message)
            assert isinstance(exc.value.__cause__, yaml.YAMLError)
        else:
            assert str(exc.value) == message

    def test_malformed_message_names_line_and_column(self):
        # libyaml's message and the pure-Python loader's both place the
        # fault; only the latter quotes the source line
        with pytest.raises(ParseError, match="line 2, column 6"):
            parse_tile_config("T_R: 3\n  T_S: 3\n")

    def test_non_string_key(self):
        with pytest.raises(ValidationError) as exc:
            parse_hardware_config(HW_DOC + "1: 2\nbogus: 3\n")
        assert str(exc.value) == "unknown hardware keys: 1, bogus"

    def test_valid_documents(self):
        assert parse_hardware_config(HW_DOC) == HardwareConfig(32, 4, 4)
        assert parse_layer_config(LAYER_DOC) == TINY
        assert parse_tile_config(TILE_DOC) == TileConfig(3, 3, 1)
        assert parse_model_config(MODEL_DOC % ("", ", T_X: 2")) == [(
            "a",
            LayerConfig(LayerKind.CONV, r=3, s=3, c=2, g=1, k=4, n=1,
                        x=6, y=6),
            TileConfig(3, 3, 1, t_x=2),
        )]


# (document kind, text, the key its mapping repeats): YAML keeps the last
# value, so each would parse, as num_ms 64 or X 7, if not rejected
REPEATED_KEYS = [
    ("hardware", HW_DOC + "num_ms: 64\n", "num_ms"),
    ("layer", LAYER_DOC + "X: 7\n", "X"),
    ("tile", TILE_DOC + "T_R: 1\n", "T_R"),
    ("model", MODEL_DOC % (", X: 7", ""), "X"),
]


class TestRepeatedKeys:
    @pytest.mark.parametrize("what,text,key", REPEATED_KEYS,
                             ids=[case[0] for case in REPEATED_KEYS])
    def test_rejected(self, what, text, key):
        with pytest.raises(ParseError) as exc:
            PARSERS[what](text)
        assert str(exc.value).startswith(
            f"malformed {what} document: duplicate key {key!r}\n")
        assert isinstance(exc.value.__cause__, yaml.YAMLError)

    def test_merged_keys_may_be_overridden(self):
        assert config._load("a: &A {p: 1, q: 2}\ny: {<<: *A, q: 3}\n",
                            "test") == {"a": {"p": 1, "q": 2},
                                        "y": {"p": 1, "q": 3}}
        # a mapping merged in after it has merged and overridden a key
        # itself, and merged twice
        assert config._load(
            "z: &Z {q: 0}\na: {m: &M {<<: *Z, q: 1}}\nb: {<<: *M}\n"
            "c: {<<: *M, p: 2}\n", "test") == {
                "z": {"q": 0}, "a": {"m": {"q": 1}}, "b": {"q": 1},
                "c": {"q": 1, "p": 2}}
        # a later model layer that overrides one key of an earlier one
        model = parse_model_config(
            "layers:\n"
            "  - {name: a, layer: &L {R: 3, S: 3, C: 2, K: 4, X: 6, Y: 6},"
            " tile: {T_R: 3, T_S: 3, T_C: 1}}\n"
            "  - {name: b, layer: {<<: *L, X: 8},"
            " tile: {T_R: 3, T_S: 3, T_C: 1}}\n")
        assert [layer.x for _, layer, _ in model] == [6, 8]


ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTS = sorted([*ROOT.glob("tests/*.yaml"),
                    *ROOT.glob("perfbench/workloads/*.yaml"),
                    *ROOT.glob("perfbench/expected/*.yaml")])
# the documents that treefab wrote, byte for byte
STATS_DOCUMENTS = sorted([*ROOT.glob("perfbench/expected/*.yaml"),
                          ROOT / "tests" / "golden_model_stats.yaml"])


def _name(path):
    return str(path.relative_to(ROOT))


@pytest.mark.skipif(not yaml.__with_libyaml__,
                    reason="PyYAML without libyaml has only the "
                           "pure-Python loader and dumper")
class TestLibyaml:
    def test_chosen_when_present(self):
        assert (config._LOADER, config._DUMPER) == (yaml.CSafeLoader,
                                                    yaml.CSafeDumper)
        # documents are read through libyaml too
        assert config._Loader.__bases__ == (yaml.CSafeLoader,)

    @pytest.mark.parametrize("path", DOCUMENTS, ids=_name)
    def test_both_loaders_read_equal_values(self, path):
        text = path.read_text(encoding="utf-8")
        assert (yaml.load(text, Loader=yaml.CSafeLoader)
                == yaml.load(text, Loader=yaml.SafeLoader))

    @pytest.mark.parametrize("path", STATS_DOCUMENTS, ids=_name)
    def test_both_dumpers_write_the_committed_bytes(self, path):
        text = path.read_text(encoding="utf-8")
        doc = yaml.load(text, Loader=yaml.SafeLoader)
        assert (yaml.dump(doc, Dumper=yaml.CSafeDumper, sort_keys=True)
                == yaml.dump(doc, Dumper=yaml.SafeDumper, sort_keys=True)
                == config.dump(doc) == text)
