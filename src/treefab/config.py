"""Hardware, layer and tile configurations, and the documents that hold them.

Configuration documents are YAML mappings.  Every document accepts an
optional integer ``version`` field (current version: 1) and rejects
unknown keys, in each model entry too, and a mapping that repeats a key
at any depth (a key merged in by ``<<`` may be overridden).  Schemas:

hardware::

    num_ms: 32          # multiplier switches, power of two, >= 2
    dn_bw: 4            # distribution bandwidth = sub-trees
    rn_bw: 4            # reduction bandwidth = collector buses
    folding: roundtrip  # "roundtrip" | "ideal"

layer::

    kind: conv          # "conv" | "fc"
    R: 3                # filter rows        S: filter cols
    C: 6                # channels per group G: groups
    K: 6                # filters per group  N: batch
    X: 5                # input rows         Y: input cols
    stride: 1
    padding: 0

tile::

    T_R: 3
    T_S: 3
    T_C: 1
    T_G: 1
    T_K: 1
    T_N: 1
    T_X: 3              # tiles the output rows
    T_Y: 1              # tiles the output cols

model::

    version: 1
    layers:
      - name: conv1
        layer: {kind: conv, R: 3, S: 3, C: 4, K: 8, X: 8, Y: 8}
        tile: {T_R: 3, T_S: 3, T_C: 1, T_X: 2}
      - name: conv2
        layer: {...}
        tile: search

Each model entry holds a layer document and a tile document; ``tile:
search`` (the default) takes the first tile in ``enumerate_tiles``'
order of predicted utilization.  Names default to ``layer<i>`` and must
be unique.

A fully-connected layer is expressed in the convolution parameterization
with G=1, X=R, Y=S, padding=0, so that the output is 1x1 and the
flattened input lives in the R*S*C filter volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import yaml

from .errors import ParseError, TileExceedsLayer, ValidationError

SCHEMA_VERSION = 1


class FoldingStrategy(Enum):
    """How partial sums are accumulated across fold iterations."""

    ROUNDTRIP = "roundtrip"  # psum written to PB, re-distributed to a forwarder
    IDEAL = "ideal"  # psum accumulated locally at the egress adder


class LayerKind(Enum):
    CONV = "conv"
    FC = "fc"


def field_values(config) -> tuple:
    """A config's field values in field order, not copied (unlike
    ``dataclasses.astuple``, which deep-copies every field)."""
    return tuple(getattr(config, name)
                 for name in config.__dataclass_fields__)


def is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class HardwareConfig:
    """Shape of the accelerator fabric.

    ``dn_bw`` is the number of distribution sub-trees and ``rn_bw`` the
    number of collector buses; they bound the PB's reads and writes per
    cycle.
    """

    num_ms: int
    dn_bw: int
    rn_bw: int
    folding: FoldingStrategy = FoldingStrategy.ROUNDTRIP

    def __post_init__(self):
        if not is_power_of_two(self.num_ms) or self.num_ms < 2:
            raise ValidationError(
                f"num_ms must be a power of two >= 2, got {self.num_ms}"
            )
        if not 1 <= self.dn_bw <= self.num_ms:
            raise ValidationError(
                f"dn_bw must be in [1, num_ms], got {self.dn_bw}"
            )
        if not is_power_of_two(self.dn_bw):
            raise ValidationError(
                f"dn_bw must be a power of two so sub-trees partition the "
                f"multipliers evenly, got {self.dn_bw}"
            )
        if not 1 <= self.rn_bw <= self.num_ms:
            raise ValidationError(
                f"rn_bw must be in [1, num_ms], got {self.rn_bw}"
            )


@dataclass(frozen=True)
class LayerConfig:
    """One convolution or fully-connected layer.

    r/s: filter rows/cols, c: channels per group, g: groups, k: filters
    per group, n: batch, x/y: input rows/cols.
    """

    kind: LayerKind
    r: int
    s: int
    c: int
    g: int
    k: int
    n: int
    x: int
    y: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        for name in ("r", "s", "c", "g", "k", "n", "x", "y"):
            if getattr(self, name) < 1:
                raise ValidationError(f"layer dimension {name} must be >= 1")
        if self.stride < 1:
            raise ValidationError("stride must be >= 1")
        if self.padding < 0:
            raise ValidationError("padding must be >= 0")
        if self.kind is LayerKind.FC:
            if self.g != 1:
                raise ValidationError("fully-connected layers require G=1")
            if self.x != self.r or self.y != self.s or self.padding != 0:
                raise ValidationError(
                    "fully-connected layers require X=R, Y=S, padding=0"
                )
        derive_output_dims(self)  # divisibility check


def derive_output_dims(layer: LayerConfig) -> tuple[int, int]:
    """Output rows/cols of the layer; rejects non-divisible strides."""
    ox, rem_x = divmod(layer.x + 2 * layer.padding - layer.r, layer.stride)
    oy, rem_y = divmod(layer.y + 2 * layer.padding - layer.s, layer.stride)
    if rem_x or ox < 0:
        raise ValidationError(
            f"(X + 2*padding - R) = {layer.x + 2 * layer.padding - layer.r} "
            f"is not a non-negative multiple of stride {layer.stride}"
        )
    if rem_y or oy < 0:
        raise ValidationError(
            f"(Y + 2*padding - S) = {layer.y + 2 * layer.padding - layer.s} "
            f"is not a non-negative multiple of stride {layer.stride}"
        )
    return ox + 1, oy + 1


def total_macs(layer: LayerConfig) -> int:
    """Multiply-accumulate count of the whole layer."""
    ox, oy = derive_output_dims(layer)
    return layer.n * layer.g * layer.k * ox * oy * layer.c * layer.r * layer.s


@dataclass(frozen=True)
class TileConfig:
    """Partition of a layer; t_r*t_s*t_c sets the cluster (VN) size and
    t_g*t_k*t_n*t_x*t_y the number of clusters mapped at once."""

    t_r: int
    t_s: int
    t_c: int
    t_g: int = 1
    t_k: int = 1
    t_n: int = 1
    t_x: int = 1
    t_y: int = 1

    def __post_init__(self):
        for name in ("t_r", "t_s", "t_c", "t_g", "t_k", "t_n", "t_x", "t_y"):
            if getattr(self, name) < 1:
                raise ValidationError(f"tile dimension {name} must be >= 1")

    @property
    def vn_size(self) -> int:
        return self.t_r * self.t_s * self.t_c

    @property
    def n_vns(self) -> int:
        return self.t_g * self.t_k * self.t_n * self.t_x * self.t_y


# tile axes in TileConfig field order
TILE_AXES = ("R", "S", "C", "G", "K", "N", "X'", "Y'")


def tile_extents(layer: LayerConfig) -> tuple[int, ...]:
    """Layer extent of each tile axis, in TileConfig field order."""
    ox, oy = derive_output_dims(layer)
    return (layer.r, layer.s, layer.c, layer.g, layer.k, layer.n, ox, oy)


def validate_tile(layer: LayerConfig,
                  tile: TileConfig) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Check every tile dimension against the layer it partitions; returns
    the layer extents and the tile steps it checked, in TILE_AXES order."""
    extents, steps = tile_extents(layer), field_values(tile)
    for name, t, d in zip(TILE_AXES, steps, extents):
        if t > d:
            raise TileExceedsLayer(name, t, d)
    return extents, steps


# --- documents ------------------------------------------------------------

# Document name and one (key, default) pair per field, in field order.  A
# default of None marks a required key; an enum default makes the key an
# enum.  Tile keys are T_ plus the axis: T_R, T_S and T_C are required.
_SCHEMAS = {
    HardwareConfig: ("hardware", (
        ("num_ms", None), ("dn_bw", None), ("rn_bw", None),
        ("folding", FoldingStrategy.ROUNDTRIP),
    )),
    LayerConfig: ("layer", (
        ("kind", LayerKind.CONV), ("R", None), ("S", None), ("C", None),
        ("G", 1), ("K", None), ("N", 1), ("X", None), ("Y", None),
        ("stride", 1), ("padding", 0),
    )),
    TileConfig: ("tile", tuple(
        ("T_" + axis.rstrip("'"), None if i < 3 else 1)
        for i, axis in enumerate(TILE_AXES)
    )),
}


# PyYAML's safe loader and dumper, through libyaml when PyYAML was built
# with it: the same values and bytes, several times faster
_LOADER, _DUMPER = (
    (yaml.CSafeLoader, yaml.CSafeDumper) if yaml.__with_libyaml__
    else (yaml.SafeLoader, yaml.SafeDumper))


class _Loader(_LOADER):
    """``_LOADER``, raising on a mapping that repeats one of its own
    keys; a key merged in by ``<<`` may still be overridden."""

    def flatten_mapping(self, node):
        # until its first flattening, a mapping holds only its own keys
        if not hasattr(node, "own_keys"):
            node.own_keys = set()
            for key, _ in node.value:
                if (key.tag, str(key.value)) in node.own_keys:
                    raise yaml.MarkedYAMLError(
                        problem=f"duplicate key {key.value!r}",
                        problem_mark=key.start_mark)
                if key.tag != "tag:yaml.org,2002:merge":
                    node.own_keys.add((key.tag, str(key.value)))
        super().flatten_mapping(node)


def _load(text: str, what: str):
    try:
        return yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed {what} document: {exc}") from exc


def dump(doc) -> str:
    """The YAML text of ``doc``, keys sorted; the stats documents' form."""
    return yaml.dump(doc, Dumper=_DUMPER, sort_keys=True)


def _check_keys(doc: dict, allowed, what: str) -> None:
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ValidationError(
            f"unknown {what} keys: {', '.join(sorted(map(str, unknown)))}"
        )


def _check_version(doc: dict, what: str) -> None:
    version = doc.get("version", SCHEMA_VERSION)
    # True == 1.0 == 1, so only an int that is not a bool is version 1
    if (not isinstance(version, int) or isinstance(version, bool)
            or version != SCHEMA_VERSION):
        raise ValidationError(f"unsupported {what} schema version {version}")


def _require_int(doc: dict, key: str, what: str, default=None) -> int:
    if key not in doc:
        if default is not None:
            return default
        raise ValidationError(f"{what} document is missing key {key}")
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{what} key {key} must be an integer")
    return value


def _require_enum(doc: dict, key: str, default: Enum) -> Enum:
    raw = doc.get(key, default.value)
    try:
        return type(default)(raw)
    except ValueError:
        raise ValidationError(
            f"{key} must be one of {[e.value for e in type(default)]}, "
            f"got {raw!r}"
        ) from None


def from_doc(cls, doc):
    """Build a ``cls`` config from its loaded document (see the schemas)."""
    what, schema = _SCHEMAS[cls]
    if not isinstance(doc, dict):
        raise ParseError(f"{what} document must be a mapping")
    _check_keys(doc, ("version", *(key for key, _ in schema)), what)
    _check_version(doc, what)
    return cls(*(
        _require_enum(doc, key, default) if isinstance(default, Enum)
        else _require_int(doc, key, what, default)
        for key, default in schema
    ))


def to_doc(config) -> dict:
    """The document of a hardware, layer or tile config, version included."""
    doc = {"version": SCHEMA_VERSION}
    schema = _SCHEMAS[type(config)][1]
    for (key, _), value in zip(schema, field_values(config)):
        doc[key] = value.value if isinstance(value, Enum) else value
    return doc


def parse_hardware_config(text: str) -> HardwareConfig:
    return from_doc(HardwareConfig, _load(text, "hardware"))


def parse_layer_config(text: str) -> LayerConfig:
    return from_doc(LayerConfig, _load(text, "layer"))


def parse_tile_config(text: str) -> TileConfig:
    return from_doc(TileConfig, _load(text, "tile"))


def parse_model_config(
    text: str,
) -> list[tuple[str, LayerConfig, TileConfig | None]]:
    """(name, layer, tile) per model entry; the tile is None for
    ``tile: search``."""
    doc = _load(text, "model")
    if not isinstance(doc, dict) or not isinstance(doc.get("layers"), list):
        raise ParseError("model document must map 'layers' to a list")
    _check_keys(doc, ("version", "layers"), "model")
    _check_version(doc, "model")
    entries = []
    names = set()
    for i, entry in enumerate(doc["layers"]):
        if not isinstance(entry, dict) or "layer" not in entry:
            raise ParseError(f"model layer {i} must be a mapping with 'layer'")
        _check_keys(entry, ("name", "layer", "tile"), f"model layer {i}")
        name = str(entry.get("name", f"layer{i}"))
        if name in names:
            raise ValidationError(f"duplicate layer name {name!r}")
        names.add(name)
        try:
            layer = from_doc(LayerConfig, entry["layer"])
            tile = entry.get("tile", "search")
            tile = None if tile == "search" else from_doc(TileConfig, tile)
        except (ParseError, ValidationError) as exc:
            raise type(exc)(f"model layer {i} ({name!r}): {exc}") from exc
        entries.append((name, layer, tile))
    return entries
