"""Command-line frontend.

Subcommands:

* ``run-layer``: simulate one layer with random seeded data, verify
  against the functional reference, emit a stats document.
* ``run-model``: run an ordered list of layers, feeding each layer's
  output tensor to the next layer's input.
* ``search-tile``: enumerate and rank tiles for a layer.
* ``verify``: repeat randomized runs and report a pass/fail summary.

All documents (hardware, layer, tile, model, stats) are YAML with a
``version`` field.  Identical command lines and seeds produce
byte-identical stats output.

Exit codes: 0 success, 2 parse error, 3 invalid configuration or a
simulated output that overflows the output's integer type, 4 a cluster
(plus forwarder) larger than the fabric, 5 verification failure.

The input documents, the model file included, are described in
``treefab.config``.  Setting the environment variable
``TREEFAB_INJECT_FAULT`` corrupts one simulated output element before
comparison; it exists so the verification path can be shown to catch real
mismatches.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from . import config as cfg
from .engine import COUNTED, check_size, simulate_layer
from .errors import (
    MappingError,
    ParseError,
    TreefabError,
    ValidationError,
)
from .mapper import build_mapping
from .memory import input_dims, random_layer_data
from .oracle import compare, conv_reference
from .tiler import enumerate_tiles, rank_by_simulation

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_MAPPING = 4
EXIT_VERIFY = 5

FAULT_ENV = "TREEFAB_INJECT_FAULT"

# the stats that add up over a model's layers; the cluster geometry and
# the folds describe each layer's own mapping, so they have no total
MODEL_TOTALS = ("total_cycles", "waves", "busy_ms_cycles", *COUNTED,
                "fifo_pops", "fold_roundtrips")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _hardware(args) -> cfg.HardwareConfig:
    """The ``--hw`` document with the ``--strategy`` override applied."""
    hw = cfg.parse_hardware_config(_read(args.hw))
    if args.strategy is not None:
        hw = replace(hw, folding=cfg.FoldingStrategy(args.strategy))
    return hw


def _check(layer, output, inputs, weights):
    """Compare a simulated output with the oracle's; with FAULT_ENV set,
    one output element is corrupted first."""
    reference = conv_reference(layer, inputs, weights)
    if os.environ.get(FAULT_ENV):
        output = output.copy()
        output.reshape(-1)[0] += 1
    return compare(output, reference)


def _emit(doc: dict, path: str | None) -> None:
    text = cfg.dump(doc)
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _trace_printer(enabled: bool):
    if not enabled:
        return None

    def emit(event: dict) -> None:
        line = " ".join(f"{k}={event[k]}" for k in sorted(event))
        print(f"trace: {line}", file=sys.stderr)

    return emit


# -- subcommands -----------------------------------------------------------


def _cmd_run_layer(args) -> int:
    hw = _hardware(args)
    layer = cfg.parse_layer_config(_read(args.layer))
    tile = cfg.parse_tile_config(_read(args.tile))
    check_size(layer)
    inputs, weights = random_layer_data(layer, args.seed)
    result = simulate_layer(hw, layer, tile, inputs, weights,
                            trace=_trace_printer(args.trace))
    _emit({"version": cfg.SCHEMA_VERSION, **result.stats.as_dict()},
          args.stats_out)
    if not args.no_verify:
        outcome = _check(layer, result.output, inputs, weights)
        if not outcome.ok:
            print(f"verification failed: {outcome.report()}", file=sys.stderr)
            return EXIT_VERIFY
        print("verification passed", file=sys.stderr)
    return EXIT_OK


def _chain_input(prev_name: str, prev_out: np.ndarray, name: str,
                 layer: cfg.LayerConfig) -> np.ndarray:
    want = input_dims(layer)
    if prev_out.size != int(np.prod(want)):
        raise ValidationError(
            f"output of {prev_name!r} has {prev_out.size} elements but "
            f"{name!r} expects input dims {want} "
            f"({int(np.prod(want))} elements)"
        )
    return prev_out.reshape(want)


def _cmd_run_model(args) -> int:
    hw = _hardware(args)
    entries = cfg.parse_model_config(_read(args.model))
    if not entries:
        raise ValidationError("model has no layers")
    rng = np.random.default_rng(args.seed)
    replays: dict = {}  # wave parts and fold-block rows, every layer
    per_layer = []
    totals: dict[str, int] = {}
    current = None
    prev_name = None
    for name, layer, tile in entries:
        if current is not None:
            current = _chain_input(prev_name, current, name, layer)
        try:
            check_size(layer)
            inputs, weights = random_layer_data(layer, rng)
            inputs = inputs if current is None else current
            if tile is None:
                tile = enumerate_tiles(hw, layer)[0].tile
            result = simulate_layer(hw, layer, tile, inputs, weights,
                                    replays=replays)
        except MappingError as exc:
            print(f"mapping error in layer {name!r}: {exc}", file=sys.stderr)
            return EXIT_MAPPING
        except TreefabError as exc:
            print(f"error in layer {name!r}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        outcome = _check(layer, result.output, inputs, weights)
        if not outcome.ok:
            print(f"layer {name!r} verification failed: {outcome.report()}",
                  file=sys.stderr)
            return EXIT_VERIFY
        entry = {"name": name, "tile": cfg.to_doc(tile)}
        entry.update(result.stats.as_dict())
        per_layer.append(entry)
        for key in MODEL_TOTALS:
            totals[key] = totals.get(key, 0) + getattr(result.stats, key)
        current = result.output
        prev_name = name
    _emit(
        {"version": cfg.SCHEMA_VERSION, "layers": per_layer,
         "totals": totals},
        args.stats_out,
    )
    print(f"model verification passed ({len(per_layer)} layers)",
          file=sys.stderr)
    return EXIT_OK


def _cmd_search_tile(args) -> int:
    hw = _hardware(args)
    layer = cfg.parse_layer_config(_read(args.layer))
    candidates = enumerate_tiles(hw, layer)
    top = rank_by_simulation(candidates[:4 * args.top_k],
                             hw, layer, args.top_k)
    doc = {
        "version": cfg.SCHEMA_VERSION,
        "candidates": [
            {"tile": cfg.to_doc(c.tile), "predicted": c.predicted}
            for c in top
        ],
    }
    _emit(doc, args.stats_out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    hw = _hardware(args)
    layer = cfg.parse_layer_config(_read(args.layer))
    tile = cfg.parse_tile_config(_read(args.tile))
    # an unmappable tile or a layer past int64 fails at any --trials
    build_mapping(hw, layer, tile)
    check_size(layer)
    if args.trials == 0:
        print("warning: 0 trials requested, vacuous pass", file=sys.stderr)
        return EXIT_OK
    rng = np.random.default_rng(args.seed)
    replays: dict = {}  # wave parts and fold-block rows, every trial
    failures = []
    for trial in range(args.trials):
        inputs, weights = random_layer_data(layer, rng)
        result = simulate_layer(hw, layer, tile, inputs, weights,
                                replays=replays)
        outcome = _check(layer, result.output, inputs, weights)
        if not outcome.ok:
            failures.append((trial, outcome.report()))
    passed = args.trials - len(failures)
    print(f"{passed}/{args.trials} trials passed")
    for trial, report in failures:
        print(f"trial {trial}: {report}")
    return EXIT_OK if not failures else EXIT_VERIFY


# -- argument parsing ------------------------------------------------------


def _count(text: str) -> int:
    """A non-negative integer option; argparse exits 2 on anything else."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.cache  # built on the first command, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treefab",
        description="Cycle-accurate simulator for a tree-based flexible "
                    "DNN inference accelerator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tile=False, model=False):
        p.add_argument("--hw", required=True, help="hardware YAML file")
        if model:
            p.add_argument("--model", required=True, help="model YAML file")
        else:
            p.add_argument("--layer", required=True, help="layer YAML file")
        if tile:
            p.add_argument("--tile", required=True, help="tile YAML file")
        p.add_argument("--seed", type=_count, default=0)
        p.add_argument("--strategy", choices=["roundtrip", "ideal"],
                       default=None, help="override the folding strategy")
        p.add_argument("--stats-out", default=None,
                       help="write the stats document here (default stdout)")

    p = sub.add_parser("run-layer", help="simulate and verify one layer")
    common(p, tile=True)
    p.add_argument("--trace", action="store_true",
                   help="print per-wave trace events to stderr")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the functional-reference comparison")
    p.set_defaults(func=_cmd_run_layer)

    p = sub.add_parser("run-model", help="run a chained multi-layer model")
    common(p, model=True)
    p.set_defaults(func=_cmd_run_model)

    p = sub.add_parser("search-tile", help="enumerate and rank tiles")
    common(p)
    p.add_argument("--top-k", type=_count, default=5)
    p.set_defaults(func=_cmd_search_tile)

    p = sub.add_parser("verify", help="randomized verification runs")
    common(p, tile=True)
    p.add_argument("--trials", type=_count, default=50)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MappingError as exc:
        print(f"mapping error: {exc}", file=sys.stderr)
        return EXIT_MAPPING
    except TreefabError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
