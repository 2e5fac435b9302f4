"""CLI tests: every subcommand exercised through main() with temp output
directories, plus exit-code and manifest contracts."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tmsim import cli
from tmsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main

GOLDEN_COST_CSV = Path(__file__).parent / "data" / "cost_golden.csv"
GOLDEN_LEAKAGE_CSV = Path(__file__).parent / "data" / "leakage_golden.csv"
DATA = Path(__file__).parent / "data"


def _manifest(out_dir, command):
    return json.loads((Path(out_dir) / f"{command}.manifest.json").read_text())


def _rows(path):
    """CSV lines below the ``#`` header, which names the tool version and config hash."""
    return [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]


@pytest.fixture()
def quick_config(tmp_path):
    """Parameter file that keeps CLI training runs fast."""
    path = tmp_path / "quick.cfg"
    path.write_text("train.epochs = 3\ntrain.batch_size = 16\n")
    return str(path)


class TestDataset:
    def test_fusion_default_copies(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["dataset", "--seed", "0", "--out", out]) == EXIT_OK
        manifest = _manifest(out, "dataset")
        assert manifest["params"]["total"] == 625
        assert manifest["params"]["per_group"] == {
            "group1": 135, "group2": 130, "group3": 230, "group4": 130
        }
        assert manifest["seed"] == 0
        assert "config_hash" in manifest and "tool_version" in manifest
        lines = (Path(out) / "dataset.csv").read_text().strip().split("\n")
        header_rows = [l for l in lines if l.startswith("#")]
        data_rows = [l for l in lines if not l.startswith("#")][1:]  # drop column header
        assert len(header_rows) == 3
        assert len(data_rows) == 625

    def test_single_group_single_copy(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["dataset", "--seed", "0", "--groups", "group2",
                     "--copies", "1", "--out", out]) == EXIT_OK
        lines = (Path(out) / "dataset.csv").read_text().strip().split("\n")
        assert sum(not l.startswith(("#", "item,")) for l in lines) == 26

    def test_rerun_same_seed_is_bit_identical(self, tmp_path):
        out = str(tmp_path / "out")
        main(["dataset", "--seed", "7", "--out", out])
        first = _manifest(out, "dataset")["outputs"]["dataset.csv"]["sha256"]
        assert main(["dataset", "--seed", "7", "--out", out, "--force"]) == EXIT_OK
        second = _manifest(out, "dataset")["outputs"]["dataset.csv"]["sha256"]
        assert first == second

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        main(["dataset", "--seed", "7", "--out", out])
        assert main(["dataset", "--seed", "7", "--out", out]) == EXIT_CONFIG
        assert "--force" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["leakage", "cost"])
    def test_refused_run_writes_nothing(self, tmp_path, command):
        # a stale manifest alone refuses the run before any output is written
        out = tmp_path / "out"
        out.mkdir()
        stale = out / f"{command}.manifest.json"
        stale.write_text("{}\n")
        assert main([command, "--out", str(out)]) == EXIT_CONFIG
        assert [path.name for path in out.iterdir()] == [stale.name]
        assert stale.read_text() == "{}\n"

    @pytest.mark.parametrize("force", [[], ["--force"]])
    @pytest.mark.parametrize("command", ["leakage", "cost"])
    def test_out_naming_a_file_is_refused_before_the_work(self, tmp_path, capsys, command, force):
        path = tmp_path / "afile"
        path.write_text("kept\n")
        assert main([command, "--out", str(path), *force]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: --out {path} is not a directory\n"
        assert path.read_text() == "kept\n"

    def test_unknown_group_is_config_error(self, tmp_path):
        assert main(["dataset", "--seed", "0", "--groups", "group9",
                     "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_seed_is_required(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["dataset", "--out", str(tmp_path / "x")])


class TestTrainEval:
    def test_train_then_eval_flow(self, tmp_path, quick_config):
        train_out = str(tmp_path / "train")
        assert main(["train", "--seed", "1", "--groups", "group1", "--sigma2", "0.02",
                     "--config", quick_config, "--out", train_out]) == EXIT_OK
        manifest = _manifest(train_out, "train")
        assert manifest["params"]["sigma2"] == 0.02
        assert manifest["params"]["outputs_n"] == 27
        network = str(Path(train_out) / "network.json")

        eval_out = str(tmp_path / "eval")
        assert main(["eval", "--seed", "1", "--groups", "group1", "--network", network,
                     "--sigma2", "0.0,0.5", "--config", quick_config,
                     "--out", eval_out]) == EXIT_OK
        manifest = _manifest(eval_out, "eval")
        assert set(manifest["params"]["overall"]) == {"0.0", "0.5"}
        assert manifest["params"]["n_test"] == 27
        text = (Path(eval_out) / "eval.csv").read_text()
        assert "group,mode,sigma2=0,sigma2=0.5" in text

    def test_training_is_reproducible_through_the_cli(self, tmp_path, quick_config):
        out = str(tmp_path / "t")
        args = ["train", "--seed", "4", "--groups", "group4",
                "--config", quick_config, "--out", out]
        main(args)
        first = _manifest(out, "train")["outputs"]["network.json"]["sha256"]
        assert main(args + ["--force"]) == EXIT_OK
        assert _manifest(out, "train")["outputs"]["network.json"]["sha256"] == first

    def test_eval_reruns_are_bit_identical(self, tmp_path, quick_config):
        train_out = str(tmp_path / "t")
        main(["train", "--seed", "2", "--groups", "group2",
              "--config", quick_config, "--out", train_out])
        network = str(Path(train_out) / "network.json")
        eval_out = str(tmp_path / "e")
        args = ["eval", "--seed", "2", "--groups", "group2", "--network", network,
                "--sigma2", "0.1", "--config", quick_config, "--out", eval_out]
        main(args)
        first = _manifest(eval_out, "eval")["outputs"]["eval.csv"]["sha256"]
        main(args + ["--force"])
        assert _manifest(eval_out, "eval")["outputs"]["eval.csv"]["sha256"] == first

    def test_missing_network_is_config_error(self, tmp_path, capsys):
        code = main(["eval", "--seed", "0", "--network", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_CONFIG
        assert "train subcommand" in capsys.readouterr().err

    def test_network_file_that_is_not_json_is_config_error(self, tmp_path, capsys):
        network = tmp_path / "network.json"
        network.write_text('{"schema_version": 1,')
        out = tmp_path / "e"
        code = main(["eval", "--seed", "0", "--groups", "group1", "--network", str(network), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert f"network file {network}: not JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_train_rejects_sigma2_grids(self, tmp_path, quick_config, capsys):
        code = main(["train", "--seed", "0", "--sigma2", "0.02,0.05",
                     "--config", quick_config, "--out", str(tmp_path / "t")])
        assert code == EXIT_CONFIG
        assert "exactly one" in capsys.readouterr().err

    def test_bad_config_key_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sensor.speed = 1\n")
        code = main(["dataset", "--seed", "0", "--config", str(bad),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert "bad.cfg" in capsys.readouterr().err

    def test_env_override_reaches_training(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMSIM_TRAIN__EPOCHS", "2")
        out = str(tmp_path / "t")
        assert main(["train", "--seed", "0", "--groups", "group1", "--out", out]) == EXIT_OK
        # the embedded config hash must reflect the override
        monkeypatch.delenv("TMSIM_TRAIN__EPOCHS")
        out2 = str(tmp_path / "t2")
        quick = tmp_path / "same.cfg"
        quick.write_text("train.epochs = 2\n")
        assert main(["train", "--seed", "0", "--groups", "group1",
                     "--config", str(quick), "--out", out2]) == EXIT_OK
        assert _manifest(out, "train")["config_hash"] == _manifest(out2, "train")["config_hash"]

    def test_group3_network_holds_up_at_moderate_noise(self, tmp_path):
        """Full-length training on the contraction group, scored at sigma2=0.1."""
        train_out = str(tmp_path / "t")
        assert main(["train", "--seed", "0", "--groups", "group3", "--sigma2", "0.02",
                     "--out", train_out]) == EXIT_OK
        network = str(Path(train_out) / "network.json")
        eval_out = str(tmp_path / "e")
        assert main(["eval", "--seed", "0", "--groups", "group3", "--network", network,
                     "--sigma2", "0.1", "--out", eval_out]) == EXIT_OK
        assert _manifest(eval_out, "eval")["params"]["overall"]["0.1"] >= 80.0


class TestBadFlags:
    """Bad flag values exit 2 naming the flag, before any output is written."""

    @pytest.mark.parametrize("value", ["nan", "inf", "nan,0.02", "0.02,-inf"])
    def test_non_finite_sigma2_on_eval(self, tmp_path, quick_config, capsys, value):
        train_out = tmp_path / "t"
        assert main(["train", "--seed", "0", "--groups", "group1",
                     "--config", quick_config, "--out", str(train_out)]) == EXIT_OK
        out = tmp_path / "e"
        code = main(["eval", "--seed", "0", "--groups", "group1", "--sigma2", value,
                     "--network", str(train_out / "network.json"),
                     "--config", quick_config, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "--sigma2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_sigma2_on_train(self, tmp_path, quick_config, capsys, value):
        out = tmp_path / "t"
        code = main(["train", "--seed", "0", "--sigma2", value,
                     "--config", quick_config, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "--sigma2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, copies", [
        ("dataset", "0"), ("dataset", "-1"), ("train", "1"), ("eval", "1"), ("sweep", "1"),
        ("train", "two"),
    ])
    def test_copies_below_the_minimum(self, tmp_path, capsys, command, copies):
        out = tmp_path / "o"
        argv = [command, "--seed", "0", "--copies", copies, "--out", str(out)]
        if command == "eval":
            argv += ["--network", str(tmp_path / "network.json")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "--copies" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["dataset", "train", "eval", "sweep"])
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed(self, tmp_path, capsys, command, seed):
        out = tmp_path / "o"
        argv = [command, "--seed", seed, "--out", str(out)]
        if command == "eval":
            argv += ["--network", str(tmp_path / "network.json")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "argument --seed: " + ("must be >= 0" if seed == "-1" else "invalid seed value") in err
        assert not out.exists()

    def test_eval_labels_outside_the_network_are_a_usage_error(self, tmp_path, quick_config,
                                                               capsys):
        train_out = tmp_path / "t"
        assert main(["train", "--seed", "0", "--groups", "group1",
                     "--config", quick_config, "--out", str(train_out)]) == EXIT_OK
        out = tmp_path / "e"
        code = main(["eval", "--seed", "0", "--groups", "fusion",
                     "--network", str(train_out / "network.json"),
                     "--config", quick_config, "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "no output for 98 dataset label(s)" in err
        assert "'a'" in err and "'A'" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field, corrupt", [
        ("mode", lambda net: net.update(mode="quantum")),
        ("sensor_states", lambda net: net["sensor_states"][0].__setitem__(0, 2.0)),
        ("w_hidden", lambda net: net["w_hidden"][0].__setitem__(0, float("nan"))),
        ("w_out", lambda net: net.update(w_out=net["w_out"][:-1])),
        ("b_out", lambda net: net.__delitem__("b_out")),
        ("JSON object", lambda net: []),
        ("labels", lambda net: net.update(labels=5)),
        ("labels", lambda net: net.update(labels="ab")),
        ("labels", lambda net: net["labels"].__setitem__(1, net["labels"][0])),
        pytest.param("w_hidden", lambda net: net["w_hidden"][0].__delitem__(-1), id="w_hidden-ragged"),
        pytest.param("schema version", lambda net: net.update(schema_version=2), id="schema-version"),
    ])
    def test_eval_rejects_a_bad_network_file(self, tmp_path, quick_config, capsys, field, corrupt):
        train_out = tmp_path / "t"
        assert main(["train", "--seed", "0", "--groups", "group1",
                     "--config", quick_config, "--out", str(train_out)]) == EXIT_OK
        network = json.loads((train_out / "network.json").read_text())
        replaced = corrupt(network)  # None where the corruption edits the document in place
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(network if replaced is None else replaced))
        out = tmp_path / "e"
        code = main(["eval", "--seed", "0", "--groups", "group1", "--network", str(bad),
                     "--config", quick_config, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["dataset", "train", "eval", "sweep"])
    def test_repeated_group(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        argv = [command, "--seed", "0", "--groups", "group2,group1,group2", "--out", str(out)]
        if command == "eval":
            argv += ["--network", str(tmp_path / "network.json")]
        assert main(argv) == EXIT_CONFIG
        assert "--groups names 'group2' more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_repeated_sigma2(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        argv = [command, "--seed", "0", "--groups", "group1", "--sigma2", "0.1,0.02,1e-1", "--out", str(out)]
        argv += ["--network", str(tmp_path / "network.json")] if command == "eval" else ["--mode", "binary"]
        assert main(argv) == EXIT_CONFIG
        assert "--sigma2 names 0.1 more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_train_accepts_two_copies(self, tmp_path, quick_config):
        assert main(["train", "--seed", "0", "--groups", "group1", "--copies", "2",
                     "--config", quick_config, "--out", str(tmp_path / "t")]) == EXIT_OK

    @pytest.mark.parametrize("name, value, message", [
        ("TMSIM_PIPELINE__DOT_GAIN", "nan", "pipeline.dot_gain"),
        ("TMSIM_PIPELINE__DOT_GAIN", "-3", "pipeline.dot_gain"),
        ("TMSIM_BRAILLE__F_PRESS", "0", "braille.f_press"),
        ("TMSIM_MEMRISTOR__R_ON", "-1", "r_on"),
    ])
    def test_bad_config_value_exits_before_output(self, tmp_path, monkeypatch, capsys,
                                                  name, value, message):
        monkeypatch.setenv(name, value)
        out = tmp_path / "d"
        assert main(["dataset", "--seed", "0", "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["train.batch_size", "train.epochs"])
    @pytest.mark.parametrize("value", ["1e30", "1e308", "9.3e18"])
    def test_integer_key_beyond_an_array_index_exits_before_output(self, tmp_path, monkeypatch, capsys,
                                                                   key, value):
        monkeypatch.setenv("TMSIM_" + key.upper().replace(".", "__"), value)
        out = tmp_path / "t"
        assert main(["train", "--seed", "0", "--groups", "group1", "--out", str(out)]) == EXIT_CONFIG
        assert f"{key} must be below 9.223e+18 to index an array, got '{value}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, quantity, got", [
        ("braille.f_press", "1e-30", "pressed-dot increment", "0.0"),
        ("sensor.sensitivity_k", "1e-30", "pressed-dot increment", "0.0"),
        ("sensor.bias_c", "1e30", "pressed-dot increment", "0.0"),
        ("pipeline.dot_gain", "1e308", "feature normalization current", "1.44894286144e-313"),
    ])
    def test_derived_quantity_out_of_range_exits_before_output(self, tmp_path, monkeypatch, capsys,
                                                               key, value, quantity, got):
        # each passes its own range check, but leaves a derived quantity that train divides by at 0 or
        # below the smallest normal float, and train would exit 3 on a diverged loss
        monkeypatch.setenv("TMSIM_" + key.upper().replace(".", "__"), value)
        out = tmp_path / "t"
        assert main(["train", "--seed", "0", "--groups", "group1", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"the {quantity} (from " in err and key in err
        assert f"must be finite and at least 2.225e-308, got {got}" in err
        assert not out.exists()

    def test_batch_size_above_the_dataset_trains_on_whole_batches(self, tmp_path, monkeypatch):
        # a batch never holds more than the dataset, whatever batch_size allows
        monkeypatch.setenv("TMSIM_TRAIN__EPOCHS", "2")
        networks = []
        for batch_size in ("1e18", "1000"):
            monkeypatch.setenv("TMSIM_TRAIN__BATCH_SIZE", batch_size)
            out = tmp_path / batch_size
            assert main(["train", "--seed", "0", "--groups", "group1", "--out", str(out)]) == EXIT_OK
            networks.append(json.loads((out / "network.json").read_text()))
        assert networks[0] == networks[1]

    @pytest.mark.parametrize("key, value", [("sensor.r_divider", "1e4"), ("softmax.i_s", "1e-9"),
                                            ("switch.g_off", "1e-3")])
    @pytest.mark.parametrize("source", ["file", "env"])
    def test_removed_config_key_exits_before_output(self, tmp_path, monkeypatch, capsys,
                                                    key, value, source):
        argv = ["dataset", "--seed", "0", "--out", str(tmp_path / "d")]
        if source == "file":
            path = tmp_path / "old.cfg"
            path.write_text(f"{key} = {value}\n")
            argv += ["--config", str(path)]
        else:
            monkeypatch.setenv("TMSIM_" + key.upper().replace(".", "__"), value)
        assert main(argv) == EXIT_CONFIG
        assert f"unknown key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


class TestSweep:
    def test_grid_shape_and_manifest(self, tmp_path, quick_config):
        out = str(tmp_path / "s")
        assert main(["sweep", "--seed", "0", "--groups", "group1", "--mode", "analog",
                     "--sigma2", "0.02,0.5", "--config", quick_config,
                     "--out", out]) == EXIT_OK
        lines = (Path(out) / "sweep.csv").read_text().strip().split("\n")
        table = [l for l in lines if not l.startswith("#")]
        assert table[0] == "group,analog_sigma2=0.02,analog_sigma2=0.5"
        assert table[1].startswith("group1,")
        assert len(table) == 2
        accuracy = _manifest(out, "sweep")["params"]["accuracy"]
        assert set(accuracy) == {"group1/analog/0.02", "group1/analog/0.5"}

    def test_both_modes_double_the_columns(self, tmp_path, quick_config):
        out = str(tmp_path / "s")
        assert main(["sweep", "--seed", "0", "--groups", "group1", "--mode", "both",
                     "--sigma2", "0.1", "--config", quick_config, "--out", out]) == EXIT_OK
        table = [l for l in (Path(out) / "sweep.csv").read_text().strip().split("\n")
                 if not l.startswith("#")]
        assert table[0] == "group,analog_sigma2=0.1,binary_sigma2=0.1"

    def test_refused_rerun_trains_nothing(self, tmp_path, quick_config, monkeypatch, capsys):
        argv = ["sweep", "--seed", "0", "--groups", "group1", "--mode", "analog", "--sigma2", "0.02",
                "--config", quick_config, "--out", str(tmp_path / "s")]
        assert main(argv) == EXIT_OK
        first = {path.name: path.read_bytes() for path in (tmp_path / "s").iterdir()}
        calls = []
        run_sweep = cli.run_sweep
        monkeypatch.setattr(cli, "run_sweep", lambda *a, **kw: calls.append(a) or run_sweep(*a, **kw))
        # the report, then the manifest alone, refuses the rerun before it trains
        assert main(argv) == EXIT_CONFIG
        assert f"refusing to overwrite {tmp_path / 's' / 'sweep.csv'}" in capsys.readouterr().err
        (tmp_path / "s" / "sweep.csv").unlink()
        assert main(argv) == EXIT_CONFIG
        assert f"refusing to overwrite {tmp_path / 's' / 'sweep.manifest.json'}" in capsys.readouterr().err
        assert calls == []
        assert main([*argv, "--force"]) == EXIT_OK
        assert len(calls) == 1
        assert {path.name: path.read_bytes() for path in (tmp_path / "s").iterdir()} == first

    def test_diverging_point_exits_3_without_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TMSIM_TRAIN__LR", "1e300")
        monkeypatch.setenv("TMSIM_TRAIN__EPOCHS", "2")
        out = tmp_path / "s"
        with warnings.catch_warnings():  # the overflow that precedes the divergence
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = main(["sweep", "--seed", "0", "--groups", "group1", "--mode", "analog",
                       "--sigma2", "0.02,0.5", "--out", str(out)])
        assert rc == EXIT_RUNTIME
        assert "error: group1 analog sigma2=0.02 seed 0: loss diverged at epoch 0: nan" in capsys.readouterr().err
        assert not out.exists()


class TestTrainEvalGoldens:
    """``train --seed 0 --groups group1`` and ``eval`` of its networks, pinned under tests/data.

    Labels, mode and the printed accuracies compare exactly.  Trained
    floats compare at rtol 1e-9: another CPU's BLAS may sum the matrix
    products in another order.
    """

    TRAINED_FLOATS = ("w_hidden", "b_hidden", "w_out", "b_out", "sensor_states", "binary_threshold")

    @pytest.mark.parametrize("mode", ["analog", "binary"])
    def test_network_matches_golden(self, tmp_path, mode):
        out = tmp_path / "t"
        assert main(["train", "--seed", "0", "--groups", "group1", "--mode", mode, "--out", str(out)]) == EXIT_OK
        got = json.loads((out / "network.json").read_text())
        want = json.loads((DATA / f"network_group1_{mode}_golden.json").read_text())
        assert got.keys() == want.keys()
        for key, value in want.items():
            if key in self.TRAINED_FLOATS and value is not None:
                np.testing.assert_allclose(got[key], value, rtol=1e-9, atol=0.0, err_msg=key)
            else:
                assert got[key] == value, key
        assert _manifest(out, "train")["params"] == {"copies": 5, "groups": ["group1"], "mode": mode,
                                                     "outputs_n": 27, "sigma2": 0.0}

    @pytest.mark.parametrize("mode", ["analog", "binary"])
    def test_eval_matches_golden(self, tmp_path, mode):
        out = tmp_path / "e"
        assert main(["eval", "--seed", "0", "--groups", "group1", "--sigma2", "0.02,0.5",
                     "--network", str(DATA / f"network_group1_{mode}_golden.json"), "--out", str(out)]) == EXIT_OK
        assert _rows(out / "eval.csv") == _rows(DATA / f"eval_group1_{mode}_golden.csv")


class TestDatasetSweepGoldens:
    """``dataset --seed 0`` and a small ``sweep``, pinned under tests/data.

    Labels, groups, dots and the printed accuracies compare exactly.  The
    sweep trains at nonzero noise, so it also pins the order of the noise
    draws within training.
    """

    def test_dataset_matches_golden(self, tmp_path):
        out = tmp_path / "d"
        assert main(["dataset", "--seed", "0", "--out", str(out)]) == EXIT_OK
        assert _rows(out / "dataset.csv") == _rows(DATA / "dataset_golden.csv")

    def test_sweep_matches_golden(self, tmp_path):
        out = tmp_path / "s"
        assert main(["sweep", "--seed", "0", "--groups", "group1", "--sigma2", "0.02,0.5", "--mode", "both",
                     "--out", str(out)]) == EXIT_OK
        assert _rows(out / "sweep.csv") == _rows(DATA / "sweep_group1_golden.csv")
        params = _manifest(out, "sweep")["params"]
        assert {key: value for key, value in params.items() if key != "accuracy"} == {
            "copies": 5, "groups": ["group1"], "modes": ["analog", "binary"], "sigma2_grid": [0.02, 0.5]}
        assert {key: f"{value:.2f}" for key, value in params["accuracy"].items()} == {
            "group1/analog/0.02": "100.00", "group1/analog/0.5": "96.30",
            "group1/binary/0.02": "40.74", "group1/binary/0.5": "37.04"}


class TestLeakage:
    def test_sweep_rows_and_calibration_band(self, tmp_path):
        out = str(tmp_path / "l")
        assert main(["leakage", "--out", out]) == EXIT_OK
        lines = (Path(out) / "leakage.csv").read_text().strip().split("\n")
        rows = [l for l in lines if not l.startswith(("#", "switch_g_off"))]
        assert len(rows) == 7
        first = rows[0].split(",")
        assert float(first[0]) == 0.0 and abs(float(first[2])) < 1e-9
        params = _manifest(out, "leakage")["params"]
        assert 0.12 <= params["default_leakage"] <= 0.20
        assert params["equal_currents_2x2"] is True

    def test_csv_matches_golden(self, tmp_path):
        # The leakage figures are compared to 1e-12 rather than digit for
        # digit: the scale-0 figure is a difference of nearly equal currents,
        # so its trailing digits depend on the LAPACK build.
        out = tmp_path / "l"
        assert main(["leakage", "--out", str(out)]) == EXIT_OK

        def table(path):
            return [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")]

        got, want = table(out / "leakage.csv"), table(GOLDEN_LEAKAGE_CSV)
        assert got[0] == want[0] and len(got) == len(want) == 8
        for row, golden in zip(got[1:], want[1:]):
            assert row[:2] == golden[:2]
            assert abs(float(row[2]) - float(golden[2])) <= 1e-12
        params = _manifest(out, "leakage")["params"]
        assert abs(params["default_leakage"] - 0.16360921406987033) <= 1e-12
        assert params["equal_currents_2x2"] is True

    def test_leakage_grows_with_parasitic_scale(self, tmp_path):
        out = str(tmp_path / "l")
        main(["leakage", "--out", out])
        rows = [l for l in (Path(out) / "leakage.csv").read_text().strip().split("\n")
                if not l.startswith(("#", "switch_g_off"))]
        fractions = [float(r.split(",")[2]) for r in rows]
        assert fractions == sorted(fractions)


    @pytest.mark.parametrize("name, value, network, ratio", [
        # 1e-30 ohm at 0.25 x gives wire segments of 4e30 S; a pressed cell's sensor and memristor give 3.008e-5 S
        ("TMSIM_PARASITICS__WIRE_RESISTANCE", "1e-30", "the reference pattern at 0.25 x the parasitics", "1.330e+35"),
        ("TMSIM_SWITCH__G_ON", "1e30", "the reference pattern at 0 x the parasitics", "3.326e+34"),
        ("TMSIM_PARASITICS__TERMINATION_CONDUCTANCE", "1e308", "the 2x2 equal-currents array", "inf"),
    ])
    def test_unsolvable_conductances_exit_2_naming_the_keys(self, tmp_path, monkeypatch, capsys, name, value,
                                                            network, ratio):
        # the residual check holds; a failed one is blamed on the keys that set the conductances
        monkeypatch.setenv(name, value)
        out = tmp_path / "l"
        assert main(["leakage", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{network} fails its nodal solve (nodal solve residual " in err and "exceeds tolerance" in err
        assert f"span a ratio of {ratio} from largest to smallest" in err
        keys = ("switch.g_on", "parasitics.switch_g_off", "parasitics.wire_resistance",
                "parasitics.termination_conductance")
        assert all(key in err for key in keys)
        assert not out.exists()


class TestCost:
    def test_csv_matches_golden(self, tmp_path):
        out = str(tmp_path / "c")
        assert main(["cost", "--out", out]) == EXIT_OK
        assert (Path(out) / "cost.csv").read_bytes() == GOLDEN_COST_CSV.read_bytes()
        orderings = _manifest(out, "cost")["params"]["orderings"]
        assert orderings == {
            "serial total power < parallel total power": True,
            "analog total power < binary total power": True,
        }

    def test_table_override_changes_figures(self, tmp_path):
        table = tmp_path / "units.cfg"
        table.write_text("sensor_area = 0.0  # drop the sensing patch\n")
        out = str(tmp_path / "c")
        assert main(["cost", "--table", str(table), "--out", out]) == EXIT_OK
        text = (Path(out) / "cost.csv").read_text()
        assert text != GOLDEN_COST_CSV.read_text()
        assert text.split("\n")[1].split(",")[1] == "0"

    def test_unknown_table_key_is_config_error(self, tmp_path, capsys):
        table = tmp_path / "units.cfg"
        table.write_text("sensor_mass = 1.0\n")
        code = main(["cost", "--table", str(table), "--out", str(tmp_path / "c")])
        assert code == EXIT_CONFIG
        assert "sensor_mass" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--table", "--config"])
    def test_missing_file_is_config_error(self, tmp_path, capsys, flag):
        missing = tmp_path / "absent.cfg"
        out = tmp_path / "c"
        assert main(["cost", flag, str(missing), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "not found" in err and str(missing) in err
        assert not out.exists()

    def test_negative_unit_cost_is_config_error(self, tmp_path, capsys):
        table = tmp_path / "units.cfg"
        table.write_text("cell_area = -1\n")
        out = tmp_path / "c"
        assert main(["cost", "--table", str(table), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(table) in err and "cell_area" in err
        assert not out.exists()

    def test_bad_table_number_is_config_error(self, tmp_path):
        table = tmp_path / "units.cfg"
        table.write_text("sensor_area = tiny\n")
        assert main(["cost", "--table", str(table),
                     "--out", str(tmp_path / "c")]) == EXIT_CONFIG


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "tmsim", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("tmsim ")
