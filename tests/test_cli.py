"""Command-line behavior: exit codes, documents, chaining."""

import argparse
import hashlib
import pathlib
from dataclasses import replace

import pytest
import yaml

from treefab import (FoldingStrategy, LayerConfig, LayerKind, MappingPlan,
                     TileConfig, cli, engine, enumerate_tiles, simulate_layer,
                     total_macs)
from treefab.mapper import Grid

from common import (DEPTHWISE, HW32, PADDED_10, POINTWISE, RESNET,
                    count_calls, count_records, within, write_documents)

HW32_DOC = "num_ms: 32\ndn_bw: 4\nrn_bw: 4\nfolding: roundtrip\n"
TINY_DOC = "kind: conv\nR: 3\nS: 3\nC: 6\nK: 6\nX: 5\nY: 5\n"
TILE_DOC = "T_R: 3\nT_S: 3\nT_C: 1\nT_X: 3\nT_Y: 1\n"

TESTS = pathlib.Path(__file__).parent
# a three-layer chain; golden_model_stats.yaml holds its --seed 3 stats
MODEL_DOC = (TESTS / "golden_model.yaml").read_text(encoding="utf-8")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def standard_files(tmp_path):
    return (write(tmp_path, "hw.yaml", HW32_DOC),
            write(tmp_path, "layer.yaml", TINY_DOC),
            write(tmp_path, "tile.yaml", TILE_DOC))


class TestRunLayer:
    def test_success(self, tmp_path, capsys):
        hw, layer, tile = standard_files(tmp_path)
        code = cli.main(["run-layer", "--hw", hw, "--layer", layer,
                         "--tile", tile, "--seed", "1"])
        assert code == cli.EXIT_OK
        doc = yaml.safe_load(capsys.readouterr().out)
        assert doc["version"] == 1
        assert doc["total_cycles"] > 0
        assert doc["strategy"] == "roundtrip"

    def test_stats_bytes_are_stable(self, tmp_path):
        hw, layer, tile = standard_files(tmp_path)
        outs = []
        for name in ("a.yaml", "b.yaml"):
            out = tmp_path / name
            code = cli.main(["run-layer", "--hw", hw, "--layer", layer,
                             "--tile", tile, "--seed", "7",
                             "--stats-out", str(out)])
            assert code == cli.EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_strategy_override(self, tmp_path, capsys):
        hw, layer, tile = standard_files(tmp_path)
        code = cli.main(["run-layer", "--hw", hw, "--layer", layer,
                         "--tile", tile, "--strategy", "ideal"])
        assert code == cli.EXIT_OK
        assert yaml.safe_load(capsys.readouterr().out)["strategy"] == "ideal"

    def test_trace_lines(self, tmp_path, capsys):
        hw, layer, tile = standard_files(tmp_path)
        out = tmp_path / "s.yaml"
        cli.main(["run-layer", "--hw", hw, "--layer", layer, "--tile", tile,
                  "--trace", "--stats-out", str(out)])
        err = capsys.readouterr().err
        waves = yaml.safe_load(out.read_text())["waves"]
        assert err.count("trace:") == waves

    @pytest.mark.parametrize("target", ["missing/s.yaml", "."])
    def test_unwritable_stats_out(self, tmp_path, capsys, target):
        hw, layer, tile = standard_files(tmp_path)
        code = cli.main(["run-layer", "--hw", hw, "--layer", layer,
                         "--tile", tile, "--stats-out",
                         str(tmp_path / target)])
        assert code == cli.EXIT_PARSE
        assert "parse error: cannot write" in capsys.readouterr().err

    def test_malformed_hw(self, tmp_path):
        _, layer, tile = standard_files(tmp_path)
        hw = write(tmp_path, "bad_hw.yaml", "num_ms: [oops\n")
        code = cli.main(["run-layer", "--hw", hw, "--layer", layer,
                         "--tile", tile])
        assert code == cli.EXIT_PARSE

    def test_repeated_key_hw(self, tmp_path, capsys):
        _, layer, tile = standard_files(tmp_path)
        hw = write(tmp_path, "repeated_hw.yaml", HW32_DOC + "num_ms: 64\n")
        code = cli.main(["run-layer", "--hw", hw, "--layer", layer,
                         "--tile", tile])
        assert code == cli.EXIT_PARSE
        assert ("parse error: malformed hardware document: duplicate key "
                "'num_ms'") in capsys.readouterr().err

    def test_non_utf8_hw(self, tmp_path, capsys):
        _, layer, tile = standard_files(tmp_path)
        hw = tmp_path / "latin1_hw.yaml"
        hw.write_bytes(HW32_DOC.encode() + b"# \xff\n")
        code = cli.main(["run-layer", "--hw", str(hw), "--layer", layer,
                         "--tile", tile])
        assert code == cli.EXIT_PARSE
        assert f"cannot read {hw}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run-layer", "verify",
                                         "search-tile"])
    def test_negative_seed_rejected(self, tmp_path, capsys, command):
        hw, layer, tile = standard_files(tmp_path)
        argv = [command, "--hw", hw, "--layer", layer, "--seed", "-1"]
        if command != "search-tile":
            argv += ["--tile", tile]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_PARSE
        assert "--seed: must be >= 0, got -1" in capsys.readouterr().err

    def test_invalid_hw_values(self, tmp_path):
        _, layer, tile = standard_files(tmp_path)
        hw = write(tmp_path, "bad_hw.yaml",
                   "num_ms: 48\ndn_bw: 4\nrn_bw: 4\n")
        code = cli.main(["run-layer", "--hw", hw, "--layer", layer,
                         "--tile", tile])
        assert code == cli.EXIT_CONFIG

    def test_oversized_tile_maps_to_mapping_error(self, tmp_path):
        hw = write(tmp_path, "hw.yaml",
                   "num_ms: 64\ndn_bw: 4\nrn_bw: 4\nfolding: roundtrip\n")
        layer = write(tmp_path, "layer.yaml",
                      "kind: conv\nR: 11\nS: 11\nC: 3\nK: 2\nX: 11\nY: 11\n")
        tile = write(tmp_path, "tile.yaml",
                     "T_R: 11\nT_S: 11\nT_C: 1\nT_K: 2\n")
        code = cli.main(["run-layer", "--hw", hw, "--layer", layer,
                         "--tile", tile])
        assert code == cli.EXIT_MAPPING

    def test_injected_fault_detected(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.FAULT_ENV, "1")
        hw, layer, tile = standard_files(tmp_path)
        code = cli.main(["run-layer", "--hw", hw, "--layer", layer,
                         "--tile", tile])
        assert code == cli.EXIT_VERIFY

    def test_no_verify_skips_comparison(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.FAULT_ENV, "1")
        hw, layer, tile = standard_files(tmp_path)
        code = cli.main(["run-layer", "--hw", hw, "--layer", layer,
                         "--tile", tile, "--no-verify"])
        assert code == cli.EXIT_OK


class TestRunModel:
    def test_three_layer_chain(self, tmp_path, capsys):
        hw = write(tmp_path, "hw.yaml", HW32_DOC)
        model = write(tmp_path, "model.yaml", MODEL_DOC)
        out = tmp_path / "stats.yaml"
        code = cli.main(["run-model", "--hw", hw, "--model", model,
                         "--seed", "3", "--stats-out", str(out)])
        assert code == cli.EXIT_OK
        doc = yaml.safe_load(out.read_text())
        assert [e["name"] for e in doc["layers"]] == ["conv1", "conv2", "fc1"]
        # cycles, waves and activity counters add up over the layers; the
        # per-layer cluster geometry and folds have no total
        assert set(doc["totals"]) == {
            "total_cycles", "waves", "busy_ms_cycles", "ms_multiplications",
            "forwarder_injections", "pb_reads", "pb_writes", "ds_traversals",
            "as_additions", "fifo_pushes", "fifo_pops", "cb_grants",
            "cb_conflicts", "fold_roundtrips"}
        for key, total in doc["totals"].items():
            assert total == sum(e[key] for e in doc["layers"])

    def test_golden_stats(self, tmp_path):
        # the stats bytes of the three-layer chain, recorded before each
        # wave's record was counted from its signature alone
        hw = write(tmp_path, "hw.yaml", HW32_DOC)
        out = tmp_path / "stats.yaml"
        assert cli.main(["run-model", "--hw", hw, "--model",
                         str(TESTS / "golden_model.yaml"), "--seed", "3",
                         "--stats-out", str(out)]) == cli.EXIT_OK
        assert out.read_bytes() == \
            (TESTS / "golden_model_stats.yaml").read_bytes()

    def test_layers_share_wave_replays(self, tmp_path, monkeypatch):
        # a layer repeated with the same tile counts no DN part the first
        # copy counted: the layers of one command share a dict of parts
        hw = write(tmp_path, "hw.yaml", HW32_DOC)
        entry = """\
  - name: {}
    layer: {{kind: conv, R: 3, S: 3, C: 2, K: 2, X: 6, Y: 6, padding: 1}}
    tile: {{T_R: 3, T_S: 3, T_C: 1, T_X: 2}}
"""
        calls = count_calls(monkeypatch, "_distribute")
        replays = []
        for names in (["a"], ["a", "b"]):
            model = write(tmp_path, "model.yaml", "layers:\n" + "".join(
                entry.format(name) for name in names))
            before = len(calls)
            assert cli.main(["run-model", "--hw", hw, "--model", model]) \
                == cli.EXIT_OK
            replays.append(len(calls) - before)
        assert replays[0] == replays[1] > 0

    def test_dims_mismatch_names_both_layers(self, tmp_path, capsys):
        hw = write(tmp_path, "hw.yaml", HW32_DOC)
        model = write(tmp_path, "model.yaml", """\
layers:
  - name: first
    layer: {kind: conv, R: 2, S: 2, C: 2, K: 2, X: 4, Y: 4}
    tile: {T_R: 2, T_S: 2, T_C: 1}
  - name: second
    layer: {kind: conv, R: 2, S: 2, C: 7, K: 2, X: 4, Y: 4}
    tile: {T_R: 2, T_S: 2, T_C: 1}
""")
        code = cli.main(["run-model", "--hw", hw, "--model", model])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "first" in err and "second" in err

    def test_dims_mismatch_checked_before_the_draw(self, tmp_path, capsys):
        # the second layer's 4.6e18 inputs are more than numpy can hold;
        # the chained output does not fit it, and that is reported before
        # any of its data is drawn
        hw = write(tmp_path, "hw.yaml", HW32_DOC)
        model = write(tmp_path, "model.yaml", """\
layers:
  - name: first
    layer: {kind: conv, R: 1, S: 1, C: 1, K: 1, X: 2, Y: 2}
  - name: second
    layer: {kind: conv, R: 1, S: 1, C: 1, K: 1, X: 2147483647, Y: 2147483647}
    tile: {T_R: 1, T_S: 1, T_C: 1}
""")
        code = cli.main(["run-model", "--hw", hw, "--model", model])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'first'" in err and "'second'" in err

    def test_no_layers(self, tmp_path, capsys):
        hw = write(tmp_path, "hw.yaml", HW32_DOC)
        model = write(tmp_path, "model.yaml", "layers: []\n")
        assert cli.main(["run-model", "--hw", hw, "--model", model]) == \
            cli.EXIT_CONFIG
        assert capsys.readouterr().err.strip() == \
            "configuration error: model has no layers"

    def test_injected_fault_names_the_layer(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setenv(cli.FAULT_ENV, "1")
        hw = write(tmp_path, "hw.yaml", HW32_DOC)
        model = write(tmp_path, "model.yaml", MODEL_DOC)
        out = tmp_path / "stats.yaml"
        assert cli.main(["run-model", "--hw", hw, "--model", model,
                         "--seed", "3", "--stats-out", str(out)]) == \
            cli.EXIT_VERIFY
        assert capsys.readouterr().err.startswith(
            "layer 'conv1' verification failed: first mismatch at "
            "(0, 0, 0, 0, 0): simulated ")
        assert not out.exists()

    def test_duplicate_names_rejected(self, tmp_path):
        hw = write(tmp_path, "hw.yaml", HW32_DOC)
        model = write(tmp_path, "model.yaml", """\
layers:
  - name: a
    layer: {kind: conv, R: 1, S: 1, C: 1, K: 1, X: 2, Y: 2}
  - name: a
    layer: {kind: conv, R: 1, S: 1, C: 1, K: 1, X: 2, Y: 2}
""")
        assert cli.main(["run-model", "--hw", hw, "--model", model]) == \
            cli.EXIT_CONFIG

    @pytest.mark.parametrize("entry,code,message", [
        ("layer: {R: 1, S: 1, C: 1, K: 1, X: 2}",
         cli.EXIT_CONFIG, "configuration error: model layer 1 ('second'): "
         "layer document is missing key Y"),
        ("layer: {R: 3, S: 3, C: 1, K: 1, X: 6, Y: 6, stride: 2}",
         cli.EXIT_CONFIG, "configuration error: model layer 1 ('second'): "
         "(X + 2*padding - R) = 3 is not a non-negative multiple of "
         "stride 2"),
        ("layer: {R: 1, S: 1, C: 1, K: 1, X: 2, Y: 2}\n    tile: {T_Q: 1}",
         cli.EXIT_CONFIG, "configuration error: model layer 1 ('second'): "
         "unknown tile keys: T_Q"),
        ("layer: 7",
         cli.EXIT_PARSE, "parse error: model layer 1 ('second'): "
         "layer document must be a mapping"),
    ], ids=["missing-key", "stride", "tile-key", "non-mapping"])
    def test_entry_errors_name_the_layer(self, tmp_path, capsys, entry, code,
                                         message):
        hw = write(tmp_path, "hw.yaml", HW32_DOC)
        model = write(tmp_path, "model.yaml", f"""\
layers:
  - name: first
    layer: {{R: 1, S: 1, C: 1, K: 1, X: 2, Y: 2}}
  - name: second
    {entry}
""")
        assert cli.main(["run-model", "--hw", hw, "--model", model]) == code
        assert capsys.readouterr().err.strip() == message

    def test_overflow_reports_the_layer(self, tmp_path, capsys):
        hw = write(tmp_path, "hw.yaml",
                   "num_ms: 64\ndn_bw: 8\nrn_bw: 8\nfolding: roundtrip\n")
        layer = ("{kind: conv, R: 3, S: 3, C: 8, K: 8, X: 6, Y: 6, "
                 "padding: 1}")
        model = write(tmp_path, "model.yaml", "layers:\n" + "".join(
            f"  - name: conv{i}\n    layer: {layer}\n"
            f"    tile: {{T_R: 3, T_S: 3, T_C: 4}}\n" for i in range(1, 9)
        ))
        code = cli.main(["run-model", "--hw", hw, "--model", model,
                         "--seed", "0"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "conv6" in err and "int32" in err

    def test_mapping_error_names_the_layer(self, tmp_path, capsys):
        hw = write(tmp_path, "hw.yaml", HW32_DOC)
        model = write(tmp_path, "model.yaml", """\
layers:
  - name: wide
    layer: {R: 3, S: 3, C: 4, K: 1, X: 3, Y: 3}
    tile: {T_R: 3, T_S: 3, T_C: 4}
""")
        out = tmp_path / "stats.yaml"
        assert cli.main(["run-model", "--hw", hw, "--model", model,
                         "--stats-out", str(out)]) == cli.EXIT_MAPPING
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            "mapping error in layer 'wide': cluster needs 36 multipliers "
            "(vn_size 36) but the fabric has 32")
        assert captured.out == "" and not out.exists()

    def test_strategy_override_reaches_tile_search(self, tmp_path, capsys):
        model = write(tmp_path, "model.yaml", """\
layers:
  - name: conv1
    layer: {kind: conv, R: 3, S: 3, C: 2, K: 2, X: 5, Y: 5}
    tile: search
""")
        ideal_hw = write(tmp_path, "ideal.yaml",
                         HW32_DOC.replace("roundtrip", "ideal"))
        roundtrip_hw = write(tmp_path, "hw.yaml", HW32_DOC)
        outputs = []
        for argv in (["--hw", ideal_hw],
                     ["--hw", roundtrip_hw, "--strategy", "ideal"]):
            assert cli.main(["run-model", "--model", model] + argv) == \
                cli.EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestVerify:
    def test_all_trials_pass(self, tmp_path, capsys):
        hw, layer, tile = standard_files(tmp_path)
        code = cli.main(["verify", "--hw", hw, "--layer", layer,
                         "--tile", tile, "--trials", "5"])
        assert code == cli.EXIT_OK
        assert "5/5 trials passed" in capsys.readouterr().out

    def test_trials_share_wave_replays(self, tmp_path, monkeypatch):
        # one command counts each DN part once, however many trials it
        # runs; the next command starts again from nothing
        hw, layer, tile = standard_files(tmp_path)
        calls = count_calls(monkeypatch, "_distribute")
        replays = []
        for trials in ("1", "5"):
            before = len(calls)
            assert cli.main(["verify", "--hw", hw, "--layer", layer,
                             "--tile", tile, "--trials", trials]) \
                == cli.EXIT_OK
            replays.append(len(calls) - before)
        assert replays[0] == replays[1] > 0

    def test_trials_cut_the_fold_blocks_once(self, tmp_path, monkeypatch):
        # the trials share the fold blocks' keying through the same dict
        hw, layer, tile = standard_files(tmp_path)
        cuts = count_calls(monkeypatch, "block_cut", MappingPlan)
        counted = []
        for trials in ("1", "5"):
            before = len(cuts)
            assert cli.main(["verify", "--hw", hw, "--layer", layer,
                             "--tile", tile, "--trials", trials]) \
                == cli.EXIT_OK
            counted.append(len(cuts) - before)
        assert counted == [1, 1]

    def test_zero_trials_vacuous(self, tmp_path, capsys):
        hw, layer, tile = standard_files(tmp_path)
        code = cli.main(["verify", "--hw", hw, "--layer", layer,
                         "--tile", tile, "--trials", "0"])
        assert code == cli.EXIT_OK
        assert "vacuous" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "1"])
    def test_tile_larger_than_layer(self, tmp_path, capsys, trials):
        hw, layer, _ = standard_files(tmp_path)
        tile = write(tmp_path, "big.yaml", "T_R: 9\nT_S: 3\nT_C: 1\n")
        code = cli.main(["verify", "--hw", hw, "--layer", layer,
                         "--tile", tile, "--trials", trials])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tile dimension R=9 exceeds layer R=3" in captured.err

    def test_oversized_cluster_with_zero_trials(self, tmp_path, capsys):
        hw = write(tmp_path, "hw.yaml", "num_ms: 64\ndn_bw: 4\nrn_bw: 4\n")
        layer = write(tmp_path, "layer.yaml",
                      "kind: conv\nR: 11\nS: 11\nC: 3\nK: 2\nX: 11\nY: 11\n")
        tile = write(tmp_path, "tile.yaml", "T_R: 11\nT_S: 11\nT_C: 1\n")
        code = cli.main(["verify", "--hw", hw, "--layer", layer,
                         "--tile", tile, "--trials", "0"])
        assert code == cli.EXIT_MAPPING
        assert "vacuous" not in capsys.readouterr().err

    def test_negative_trials_rejected(self, tmp_path, capsys):
        # a tile that does not fit the layer: nothing would be simulated
        hw, layer, _ = standard_files(tmp_path)
        tile = write(tmp_path, "big.yaml", "T_R: 9\nT_S: 3\nT_C: 1\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--hw", hw, "--layer", layer,
                      "--tile", tile, "--trials", "-1"])
        assert exc.value.code == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert "trials passed" not in captured.out
        assert "--trials: must be >= 0, got -1" in captured.err

    def test_faults_reported_with_coordinates(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv(cli.FAULT_ENV, "1")
        hw, layer, tile = standard_files(tmp_path)
        code = cli.main(["verify", "--hw", hw, "--layer", layer,
                         "--tile", tile, "--trials", "3"])
        assert code == cli.EXIT_VERIFY
        out = capsys.readouterr().out
        assert "0/3 trials passed" in out
        assert "first mismatch at" in out


class TestSearchTile:
    def test_ranked_candidates_document(self, tmp_path, capsys):
        hw, layer, _ = standard_files(tmp_path)
        code = cli.main(["search-tile", "--hw", hw, "--layer", layer,
                         "--top-k", "3"])
        assert code == cli.EXIT_OK
        doc = yaml.safe_load(capsys.readouterr().out)
        assert len(doc["candidates"]) == 3
        cycles = [c["predicted"]["estimated_cycles"]
                  for c in doc["candidates"]]
        assert cycles == sorted(cycles)

    @pytest.mark.parametrize("target", ["missing/s.yaml", "."])
    def test_unwritable_stats_out(self, tmp_path, capsys, target):
        hw, layer, _ = standard_files(tmp_path)
        code = cli.main(["search-tile", "--hw", hw, "--layer", layer,
                         "--top-k", "1", "--stats-out",
                         str(tmp_path / target)])
        assert code == cli.EXIT_PARSE
        assert "parse error: cannot write" in capsys.readouterr().err

    def test_negative_top_k_rejected(self, tmp_path, capsys):
        hw, layer, _ = standard_files(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["search-tile", "--hw", hw, "--layer", layer,
                      "--top-k", "-2"])
        assert exc.value.code == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--top-k: must be >= 0, got -2" in captured.err

    def test_strategy_override_reaches_the_search(self, tmp_path, capsys):
        layer = write(tmp_path, "layer.yaml",
                      "kind: conv\nR: 3\nS: 3\nC: 2\nK: 2\nX: 5\nY: 5\n")
        ideal_hw = write(tmp_path, "ideal.yaml",
                         HW32_DOC.replace("roundtrip", "ideal"))
        roundtrip_hw = write(tmp_path, "hw.yaml", HW32_DOC)
        outputs = []
        for argv in (["--hw", ideal_hw],
                     ["--hw", roundtrip_hw, "--strategy", "ideal"],
                     ["--hw", roundtrip_hw]):
            assert cli.main(["search-tile", "--layer", layer] + argv) == \
                cli.EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0] != outputs[2]


def workload(command, *docs):
    """The argv of a benchmark workload's command, on its documents."""
    argv = [command]
    for flag, doc in zip(("--hw", "--layer", "--tile"), docs):
        argv += [flag, str(TESTS.parent / "perfbench" / "workloads" / doc)]
    return argv


WORKLOADS = {
    "fold-roundtrip": workload("run-layer", "hw32-roundtrip.yaml",
                               "early-synthetic.yaml", "tile-early.yaml"),
    "wide-ideal": workload("run-layer", "hw256-ideal.yaml", "wide-conv.yaml",
                           "tile-wide.yaml"),
    "tile-search": workload("search-tile", "hw32-roundtrip.yaml",
                            "pointwise.yaml") + ["--top-k", "5"],
}


EXPECTED = TESTS.parent / "perfbench" / "expected"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def options(directory, *configs):
    """The ``--hw``, ``--layer`` and ``--tile`` options that name the
    configs' documents, written into ``directory``."""
    paths = write_documents(directory, *configs)
    return [arg for pair in zip(("--hw", "--layer", "--tile"), paths)
            for arg in pair]


TRACE_DIGESTS = {
    "fold-roundtrip": "10861d6f59e348236c3c1f5fbed10632"
                      "fc5e31151cae1884054e17a5f2ca5abb",
    "wide-ideal": "31b46852223ce06c466d9907640e6dc1"
                  "6ef2fb5d180c32c8c553056fae1900c9",
}


@pytest.mark.parametrize("name", TRACE_DIGESTS)
def test_trace_lines_unchanged(name, tmp_path, capsys):
    # the per-wave trace lines of the two run-layer workloads keep the
    # bytes recorded before the engine counted each wave's record from its
    # signature; a traced run counts on a grid of one entry per batch, so
    # its stats equal the untraced documents
    out = tmp_path / "stats.yaml"
    assert cli.main(WORKLOADS[name] + ["--trace", "--seed", "3",
                                       "--stats-out", str(out)]) \
        == cli.EXIT_OK
    assert out.read_bytes() == (EXPECTED / f"{name}.yaml").read_bytes()
    lines = capsys.readouterr().err.splitlines(keepends=True)
    assert sha256("".join(line for line in lines
                          if line.startswith("trace:")).encode()) \
        == TRACE_DIGESTS[name]


@pytest.fixture(scope="module")
def search(tmp_path_factory):
    """``search(layer, strategy, top_k)``: the stats document of
    ``search-tile`` on HW32 and the layer, and how many ``_distribute``,
    ``_drain`` and ``distribution`` calls it made; each command runs once
    per module, in under two minutes (the ranking of all 528 tiles of
    PADDED_10 is the largest)."""
    runs = {}

    def run(layer, strategy, top_k):
        if (layer, strategy, top_k) not in runs:
            directory = tmp_path_factory.mktemp("search")
            out = directory / "ranking.yaml"
            with pytest.MonkeyPatch.context() as m, within(120):
                calls = [count_calls(m, name) for name in (
                    "_distribute", "_drain", "distribution")]
                assert cli.main([
                    "search-tile", *options(directory, HW32, layer),
                    "--top-k", str(top_k), "--strategy", strategy,
                    "--stats-out", str(out)]) == cli.EXIT_OK
            runs[layer, strategy, top_k] = (out.read_bytes(),
                                            tuple(map(len, calls)))
        return runs[layer, strategy, top_k]

    return run


class TestRankEveryTile:
    @pytest.mark.parametrize("strategy, want", [
        ("roundtrip", ("c94d07dce89dff36465229fe9da30efb"
                       "ec301dfb59e5881b40826681adaf3559", (1947, 34))),
        ("ideal", ("7268ec04b814f87edbb6ba8d0e4e1b7b"
                   "5359b62e244bc64a9a19bba8957040c9", (1299, 42))),
    ])
    def test_documents_and_parts_unchanged(self, strategy, want, search):
        # --top-k 132 ranks all 528 feasible tiles of PADDED_10; the
        # documents keep the bytes recorded before the tiles shared wave
        # replays, and the ranking counts each distribution (of weights or
        # of inputs) and each batch geometry's drain once, with one
        # fabric.distribution call per distribution
        hw = replace(HW32, folding=FoldingStrategy(strategy))
        assert len(enumerate_tiles(hw, PADDED_10)) == 528
        document, (distributions, drains, rule) = search(PADDED_10,
                                                         strategy, 132)
        assert (sha256(document), (distributions, drains)) == want
        assert rule == distributions

    @pytest.mark.parametrize("layer, strategy, want", [
        (POINTWISE, "roundtrip", (2880, 2304, 2304)),
        (POINTWISE, "ideal", (2880, 2304, 2088)),
        (PADDED_10, "roundtrip", (12096, 8060, 7916)),
        (PADDED_10, "ideal", (8808, 5810, 3952)),
    ])
    def test_first_pick_window_and_every_tile(self, layer, strategy, want,
                                              search):
        # the cycles of enumerate_tiles' first pick (run-model's "tile:
        # search"), of the best of search-tile's window of 4 * top_k = 20
        # candidates, and of the best of every candidate, which a window
        # of 4 * top_k at least the candidate count ranks: each is never
        # beaten by the one before, and the window misses the best tile
        # in three of the four cases
        hw = replace(HW32, folding=FoldingStrategy(strategy))
        candidates = enumerate_tiles(hw, layer)
        first = simulate_layer(hw, layer, candidates[0].tile).stats
        window, every = (
            yaml.safe_load(search(layer, strategy, top_k)[0])
            ["candidates"][0]["predicted"]["estimated_cycles"]
            for top_k in (5, -(-len(candidates) // 4)))
        assert first.total_cycles >= window >= every
        assert (first.total_cycles, window, every) == want


class TestAtScale:
    @pytest.mark.parametrize("layer, cycles", [
        (RESNET[1], 38375424), (DEPTHWISE, 571392)])
    def test_run_layer_verified(self, layer, cycles, tmp_path, capsys):
        # the ResNet-scale layer has about 1.2e8 MACs, so a path that paid
        # per MAC in Python would take about 18 minutes, so each run has
        # five; the depthwise layer's output sum contracts its 64 groups at
        # once.  run-layer checks the outputs against the oracle
        hw, _, tile = RESNET
        with within(300):
            assert cli.main(["run-layer", *options(tmp_path, hw, layer, tile),
                             "--seed", "3"]) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert f"total_cycles: {cycles}" in captured.out.splitlines()
        assert captured.err == "verification passed\n"

    def test_search_document_unchanged(self, tmp_path):
        # search-tile counts cycles on no data over the 4 * top_k tiles
        # that enumerate_tiles orders first; the best of that window, not
        # of all 8,512 tiles, is T_S=3 T_X=2 T_Y=8 at 33,693,184 cycles,
        # and the document keeps the bytes recorded before ranking went
        # data-free, in under five minutes
        out = tmp_path / "search.yaml"
        with within(300):
            assert cli.main(["search-tile", *options(tmp_path, *RESNET[:2]),
                             "--top-k", "1", "--stats-out", str(out)]) \
                == cli.EXIT_OK
        assert sha256(out.read_bytes()) == (
            "38d7b45b991e40c95c9c61baea3d5044"
            "00abf9702a0776b308251efaa25ff2d1")

    def test_search_refuses_a_layer_past_int64(self, tmp_path, capsys):
        # 1x1, C = 2, K = 3, X = Y = 2**31 - 1: 2.8e19 MACs.  Listing each
        # axis's divisors takes one pass to the square root, and the first
        # simulated tile raises before any grid is built
        layer = LayerConfig(LayerKind.CONV, r=1, s=1, c=2, g=1, k=3, n=1,
                            x=2 ** 31 - 1, y=2 ** 31 - 1)
        with within(2):
            code = cli.main(["search-tile", *options(tmp_path, HW32, layer)])
        assert code == cli.EXIT_CONFIG
        assert "2**63 - 1 at most" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["run-layer", "verify", "run-model"])
    def test_commands_refuse_a_layer_past_int64_before_the_draw(
            self, command, tmp_path, monkeypatch, capsys):
        # 1x1, G = 3, X = Y = 2**31 - 1: 1.4e19 MACs and input elements.
        # Each command refuses the layer with simulate_layer's message and
        # draws no data; drawing first stopped on numpy's "array is too
        # big" with a traceback and exit 1
        side = 2 ** 31 - 1
        layer = LayerConfig(LayerKind.CONV, r=1, s=1, c=1, g=3, k=1, n=1,
                            x=side, y=side)
        tile = TileConfig(1, 1, 1, t_x=3, t_y=7)
        args = options(tmp_path, HW32, layer, tile)
        if command == "run-model":
            args = args[:2] + ["--model", write(tmp_path, "model.yaml", f"""\
layers:
  - name: huge
    layer: {{kind: conv, R: 1, S: 1, C: 1, G: 3, K: 1, X: {side}, Y: {side}}}
    tile: {{T_R: 1, T_S: 1, T_C: 1, T_X: 3, T_Y: 7}}
""")]
        draws = count_calls(monkeypatch, "random_layer_data", cli)
        with within(2):
            code = cli.main([command, *args]
                            + ["--trials", "1"] * (command == "verify"))
        assert (code, draws) == (cli.EXIT_CONFIG, [])
        err = capsys.readouterr().err
        assert err.endswith(f"layer has {total_macs(layer)} MACs and "
                            f"{total_macs(layer)} input elements; int64 "
                            "holds 2**63 - 1 at most\n")

class TestBenchmarkTraffic:
    # the records, distributions and drains that the benchmark's three
    # workloads count, under each strategy: one record per key, each
    # part once per command (the search simulates 20 tiles)
    @pytest.mark.parametrize("name, strategy, want", [
        ("fold-roundtrip", "roundtrip", (3, 3, 1)),
        ("fold-roundtrip", "ideal", (3, 2, 1)),
        ("wide-ideal", "ideal", (6, 4, 2)),
        ("wide-ideal", "roundtrip", (6, 6, 2)),
        ("tile-search", "roundtrip", (41, 8, 4)),
        ("tile-search", "ideal", (41, 8, 4)),
    ])
    def test_parts_counted_once(self, name, strategy, want, monkeypatch,
                                capsys):
        calls = [count_records(monkeypatch)] + [
            count_calls(monkeypatch, part) for part in ("_distribute", "_drain")]
        assert cli.main(WORKLOADS[name] + ["--strategy", strategy]) \
            == cli.EXIT_OK
        assert tuple(map(len, calls)) == want

    def test_search_simulates_every_counted_tile(self, monkeypatch, capsys):
        # perfbench counts simulated MACs and waves by wrapping
        # treefab.engine.simulate_layer.  The search counts its 4 * top_k =
        # 20 candidates in one pass, then calls simulate_layer once per
        # candidate, which reads its tile's totals: each call returns the
        # layer's MACs and that tile's waves, as a fresh run counts them
        original, calls = engine.simulate_layer, []
        monkeypatch.setattr(engine, "simulate_layer", lambda *args, **kw: (
            calls.append((args[2], original(*args, **kw))) or calls[-1][1]))
        assert cli.main(WORKLOADS["tile-search"]) == cli.EXIT_OK
        tiles = [c.tile for c in enumerate_tiles(HW32, POINTWISE)[:20]]
        assert [tile for tile, _ in calls] == tiles
        for tile, result in calls:
            fresh = original(HW32, POINTWISE, tile).stats
            assert result.stats.ms_multiplications == total_macs(POINTWISE)
            assert result.stats == fresh

    # the search counts on no data, so no tile walks its batches one by
    # one; the run-layer workloads sum outputs, so each walks them once
    # (a batch grid has the five output axes, a fold-block grid three)
    @pytest.mark.parametrize("name, want", [
        ("tile-search", 0), ("fold-roundtrip", 1), ("wide-ideal", 1)])
    def test_batches_walked_only_for_outputs(self, name, want, monkeypatch,
                                             capsys):
        walks = count_calls(monkeypatch, "issue", Grid)
        assert cli.main(WORKLOADS[name]) == cli.EXIT_OK
        assert sum(len(grid.step) == 5 for grid, in walks) == want


def test_two_commands_build_one_parser(tmp_path, monkeypatch, capsys):
    # the parser is built on a process's first command and reused: both
    # commands parse their arguments with one parser object
    parsers = []
    original = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *args: parsers.append(self)
                        or original(self, *args))
    hw, layer, tile = standard_files(tmp_path)
    command = ["run-layer", "--hw", hw, "--layer", layer, "--tile", tile]
    assert [cli.main(command) for _ in range(2)] == [cli.EXIT_OK] * 2
    assert len(parsers) == 2 and parsers[0] is parsers[1]
