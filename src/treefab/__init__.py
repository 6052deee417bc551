"""Cycle-accurate simulator for a tree-based flexible DNN accelerator."""

from .config import (
    FoldingStrategy,
    HardwareConfig,
    LayerConfig,
    LayerKind,
    TileConfig,
    derive_output_dims,
    total_macs,
    validate_tile,
)
from .engine import SimResult, SimStats, simulate_layer
from .errors import (
    AddressOutOfRange,
    DimsMismatch,
    MappingError,
    OutputOverflow,
    ParseError,
    ShapeMismatch,
    TileExceedsLayer,
    TreefabError,
    ValidationError,
    VnTooLarge,
)
from .mapper import MappingPlan, build_mapping, compute_folds
from .oracle import CompareResult, compare, conv_reference
from .reduction import ReductionPlan, plan_reduction
from .tiler import TileCandidate, enumerate_tiles, rank_by_simulation

__version__ = "0.1.0"

__all__ = [
    "AddressOutOfRange",
    "CompareResult",
    "DimsMismatch",
    "FoldingStrategy",
    "HardwareConfig",
    "LayerConfig",
    "LayerKind",
    "MappingError",
    "MappingPlan",
    "OutputOverflow",
    "ParseError",
    "ReductionPlan",
    "ShapeMismatch",
    "SimResult",
    "SimStats",
    "TileCandidate",
    "TileConfig",
    "TileExceedsLayer",
    "TreefabError",
    "ValidationError",
    "VnTooLarge",
    "build_mapping",
    "compare",
    "compute_folds",
    "conv_reference",
    "derive_output_dims",
    "enumerate_tiles",
    "plan_reduction",
    "rank_by_simulation",
    "simulate_layer",
    "total_macs",
    "validate_tile",
    "__version__",
]
