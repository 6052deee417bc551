"""Hardware, layer and tile configuration types.

Configuration documents are YAML mappings.  Every document accepts an
optional integer ``version`` field (current version: 1); unknown keys are
rejected.  Schemas:

hardware::

    num_ms: 32          # multiplier switches, power of two, >= 2
    dn_bw: 4            # distribution bandwidth = PB read ports = sub-trees
    rn_bw: 4            # reduction bandwidth = PB write ports = collector buses
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

A fully-connected layer is expressed in the convolution parameterization
with G=1, X=R, Y=S, padding=0, so that the output is 1x1 and the
flattened input lives in the R*S*C filter volume.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
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


def is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class HardwareConfig:
    """Shape of the accelerator fabric.

    ``dn_bw`` is both the number of PB read ports and the number of
    distribution sub-trees; ``rn_bw`` is both the number of PB write
    ports and the number of collector buses.
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

    @property
    def out_x(self) -> int:
        return derive_output_dims(self)[0]

    @property
    def out_y(self) -> int:
        return derive_output_dims(self)[1]


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


# tile axes in TileConfig field order, and their tile-document keys
TILE_AXES = ("R", "S", "C", "G", "K", "N", "X'", "Y'")
_TILE_DOC_KEYS = tuple("T_" + axis.rstrip("'") for axis in TILE_AXES)


def tile_extents(layer: LayerConfig) -> tuple[int, ...]:
    """Layer extent of each tile axis, in TileConfig field order."""
    ox, oy = derive_output_dims(layer)
    return (layer.r, layer.s, layer.c, layer.g, layer.k, layer.n, ox, oy)


def validate_tile(layer: LayerConfig, tile: TileConfig) -> None:
    """Check every tile dimension against the layer it partitions."""
    for name, t, d in zip(TILE_AXES, astuple(tile), tile_extents(layer)):
        if t > d:
            raise TileExceedsLayer(name, t, d)


# --- document parsing ----------------------------------------------------

_HW_KEYS = {"version", "num_ms", "dn_bw", "rn_bw", "folding"}
_LAYER_KEYS = {
    "version", "kind", "R", "S", "C", "G", "K", "N", "X", "Y",
    "stride", "padding",
}
_TILE_KEYS = {"version", *_TILE_DOC_KEYS}


def _load_mapping(text: str, allowed: set[str], what: str) -> dict:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"malformed {what} document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{what} document must be a mapping")
    unknown = set(doc) - allowed
    if unknown:
        raise ValidationError(
            f"unknown {what} keys: {', '.join(sorted(unknown))}"
        )
    version = doc.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported {what} schema version {version}")
    return doc


def _require_int(doc: dict, key: str, what: str, default=None) -> int:
    if key not in doc:
        if default is not None:
            return default
        raise ValidationError(f"{what} document is missing key {key}")
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{what} key {key} must be an integer")
    return value


def parse_hardware_config(text: str) -> HardwareConfig:
    doc = _load_mapping(text, _HW_KEYS, "hardware")
    folding = doc.get("folding", FoldingStrategy.ROUNDTRIP.value)
    try:
        strategy = FoldingStrategy(folding)
    except ValueError:
        raise ValidationError(
            f"folding must be one of "
            f"{[f.value for f in FoldingStrategy]}, got {folding!r}"
        ) from None
    return HardwareConfig(
        num_ms=_require_int(doc, "num_ms", "hardware"),
        dn_bw=_require_int(doc, "dn_bw", "hardware"),
        rn_bw=_require_int(doc, "rn_bw", "hardware"),
        folding=strategy,
    )


def parse_layer_config(text: str) -> LayerConfig:
    doc = _load_mapping(text, _LAYER_KEYS, "layer")
    kind_raw = doc.get("kind", LayerKind.CONV.value)
    try:
        kind = LayerKind(kind_raw)
    except ValueError:
        raise ValidationError(
            f"kind must be one of {[k.value for k in LayerKind]}, "
            f"got {kind_raw!r}"
        ) from None
    return LayerConfig(
        kind=kind,
        r=_require_int(doc, "R", "layer"),
        s=_require_int(doc, "S", "layer"),
        c=_require_int(doc, "C", "layer"),
        g=_require_int(doc, "G", "layer", default=1),
        k=_require_int(doc, "K", "layer"),
        n=_require_int(doc, "N", "layer", default=1),
        x=_require_int(doc, "X", "layer"),
        y=_require_int(doc, "Y", "layer"),
        stride=_require_int(doc, "stride", "layer", default=1),
        padding=_require_int(doc, "padding", "layer", default=0),
    )


def parse_tile_config(text: str) -> TileConfig:
    doc = _load_mapping(text, _TILE_KEYS, "tile")
    # T_R, T_S and T_C are required; the other axes default to 1
    return TileConfig(*(
        _require_int(doc, key, "tile", default=None if i < 3 else 1)
        for i, key in enumerate(_TILE_DOC_KEYS)
    ))


def serialize_hardware_config(hw: HardwareConfig) -> str:
    doc = {
        "version": SCHEMA_VERSION,
        "num_ms": hw.num_ms,
        "dn_bw": hw.dn_bw,
        "rn_bw": hw.rn_bw,
        "folding": hw.folding.value,
    }
    return yaml.safe_dump(doc, sort_keys=True)


def serialize_layer_config(layer: LayerConfig) -> str:
    doc = {
        "version": SCHEMA_VERSION,
        "kind": layer.kind.value,
        "R": layer.r, "S": layer.s, "C": layer.c, "G": layer.g,
        "K": layer.k, "N": layer.n, "X": layer.x, "Y": layer.y,
        "stride": layer.stride, "padding": layer.padding,
    }
    return yaml.safe_dump(doc, sort_keys=True)


def serialize_tile_config(tile: TileConfig) -> str:
    doc = dict(zip(_TILE_DOC_KEYS, astuple(tile)), version=SCHEMA_VERSION)
    return yaml.safe_dump(doc, sort_keys=True)
