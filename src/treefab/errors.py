"""Exception types shared across the simulator."""


class TreefabError(Exception):
    """Base class for all simulator errors."""


class ParseError(TreefabError):
    """A configuration document is syntactically invalid."""


class ValidationError(TreefabError):
    """A configuration violates one of its invariants."""


class TileExceedsLayer(ValidationError):
    """A tile dimension is larger than the corresponding layer dimension."""

    def __init__(self, dimension: str, tile_value: int, layer_value: int):
        self.dimension = dimension
        self.tile_value = tile_value
        self.layer_value = layer_value
        super().__init__(
            f"tile dimension {dimension}={tile_value} exceeds layer "
            f"{dimension}={layer_value}"
        )


class ShapeMismatch(TreefabError):
    """Tensor dimensions do not match the layer configuration."""


class AddressOutOfRange(TreefabError):
    """A memory request addresses an element outside its region."""


class OutputOverflow(TreefabError, OverflowError):
    """A simulated output does not fit the output region's integer type."""


class DimsMismatch(TreefabError):
    """Two tensors being compared have different dimensions."""


class MappingError(TreefabError):
    """The tile cannot be mapped onto the configured fabric."""


class VnTooLarge(MappingError):
    """A virtual neuron needs more multipliers than the fabric has."""
