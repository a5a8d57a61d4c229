import csv
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from vflhssl import cli, data, hssl, nn, privacy, vfl
from vflhssl.errors import ConfigError

from conftest import TINY, PerParameterSgd


def load_perfbench(name, monkeypatch):
    """perfbench/<name>.py imported by its path, writing no bytecode under perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    source = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", source)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TINY))
    return str(path)


class TestConfig:
    def test_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"modle": {}}')
        with pytest.raises(ConfigError, match="unknown keys"):
            cli.load_config(str(path))

    def test_unknown_section_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"pipeline": {"iterations": 3}}')
        with pytest.raises(ConfigError, match="unknown keys"):
            cli.load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            cli.load_config("/nonexistent/cfg.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            cli.load_config(str(path))

    def test_preset_expansion(self):
        cfg = cli.load_config(preset="fedcssl")
        assert cfg["pipeline"]["preset"] == "FedCSSL"
        assert cfg["model"]["finetune_encoders"] == "cross"
        cfg = cli.load_config(preset="fedsplitnn")
        assert cfg["pipeline"]["pretrain"] is False
        assert cfg["model"]["finetune_encoders"] == "local"
        cfg = cli.load_config(preset="fedhssl-byol")
        assert cfg["pipeline"]["variant"] == "byol"

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            cli.load_config(preset="fedmagic")

    def test_default_fingerprints_pinned(self):
        # The defaults live on the dataclasses; these are the fingerprints
        # of the hand-written defaults they replaced.
        pinned = {
            None: "8126012e7e59190616607b44a34af9822fe45b3938bbb5da3c81ee4d986fce50",
            "fedcssl": "afdbb2a262ae0e00b8b30e6f36dec77fff59242bbf498e0c195429d2a802978e",
            "fedgssl": "82f9f27a895519908a40e26aaf277f99656fe03a6dbea2346c72edb28ee48ab7",
            "fedhssl-byol": "10ced66cdc37b4d3775b3ad26936f58c9ee48224f2b95d295da746740b4efd07",
            "fedhssl-moco": "0d4d94a8510a18fb222b0e088fcfb6758863b8e36eb60f9dd8514e933390665e",
            "fedhssl-simsiam": "8126012e7e59190616607b44a34af9822fe45b3938bbb5da3c81ee4d986fce50",
            "fedlocal-byol": "874a97c7867227a039f452383cbdcffd0140a9940011cca183b392e206506683",
            "fedlocal-moco": "bcf4c87868267465d3eabeb207c8a6627f08352364a88eead5cf533b3ae17a2f",
            "fedlocal-simsiam": "a207409beaa6dcdea898c5d2405984b743296a45a2a010a12b8ae36dc484dcb6",
            "fedsplitnn": "b5e75b1411be371ff253ba1737d725c0051cbc799d0e918f9eae010db7fbddad",
        }
        assert set(pinned) == {None, *cli.CLI_PRESETS}
        for preset, fingerprint in pinned.items():
            assert cli.config_fingerprint(cli.load_config(preset=preset)) == fingerprint, preset

    def test_benchmark_workloads_are_accepted(self, tmp_path, monkeypatch):
        # perfbench writes every key of its own copy of the defaults, so a
        # key the program drops or a value it stops accepting fails here.
        workloads = load_perfbench("workloads", monkeypatch)
        monkeypatch.chdir(workloads.ROOT)  # moco-k4-csv's paths are relative to the checkout
        for name in workloads.WORKLOADS:
            cfg, preset, _ = workloads.build(name, 0, tmp_path / name)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            config = cli.load_config(str(path), preset=preset)
            dataset = cli.build_scored_dataset(config)
            cli.build_model_config(config, dataset)  # nn.ModelConfig checks the model section
            aux_ids = cli.auxiliary_ids(config["privacy"], dataset)
            assert len(aux_ids) == cfg["privacy"]["aux_labeled_count"], name

    def test_benchmark_tracer_targets_resolve(self, monkeypatch):
        # A renamed or dropped function would leave its span silently empty;
        # only the eight names already stale may fail to resolve.
        tracer = load_perfbench("tracer", monkeypatch)
        stale = {f"nn:EncoderStack.{name}" for name in (
            "local_backbone", "local_projected", "local_predicted", "target_projected",
            "cross_backbone", "cross_projected", "cross_predicted_from")}
        stale.add("nn:EmbeddingLayer.forward")
        missing = {target for targets in tracer.SPANS.values() for target in targets
                   if tracer._resolve(target) is None}
        assert missing <= stale, sorted(missing - stale)

    def test_every_section_is_its_dataclass_defaults(self):
        # A default changes on its dataclass: a section written out by hand
        # that drifts from it fails here.
        defaults = cli.DEFAULT_CONFIG
        assert defaults["data"] == {"synthetic": cli._defaults(data.SyntheticSpec)}
        assert defaults["model"] == cli._defaults(nn.ModelConfig, skip=cli.DATASET_FIELDS)
        assert defaults["pipeline"] == cli._defaults(hssl.PipelineConfig)
        # The finetune and privacy values are those of the literals they replaced.
        assert defaults["finetune"] == cli._defaults(cli.FinetuneConfig) == {
            "labeled_counts": [200], "lr_candidates": [0.005, 0.01, 0.03],
            "epochs": 30, "batch_size": 64,
        }
        assert defaults["privacy"] == cli._defaults(privacy.PrivacyConfig) == {
            "lambda_f": [1.0, 5.0, 25.0], "aux_labeled_count": 80, "attack_epochs": 100,
            "head_hidden_dim": 32, "encoder_source": "finetuned_local",
        }
        assert set(defaults) - {"data", "model", "pipeline", "finetune", "privacy"} == {
            "seeds", "output_dir"}

    def test_nullable_entries_name_config_keys(self):
        # A key deleted from the config must leave NULLABLE too.
        for name in cli.NULLABLE:
            section, _, key = name.rpartition(".")
            shapes = cli.CSV_SHAPES if section == "data.csv" else cli.DEFAULT_CONFIG[section]
            assert key in shapes, name

    def test_parse_sweep(self):
        assert cli.parse_sweep("gamma=0,0.5,1.0") == ("gamma", [0.0, 0.5, 1.0])
        assert cli.parse_sweep("aligned=0.2,0.4") == ("aligned", [0.2, 0.4])
        with pytest.raises(ConfigError):
            cli.parse_sweep("gamma")
        with pytest.raises(ConfigError):
            cli.parse_sweep("epochs=3")
        with pytest.raises(ConfigError):
            cli.parse_sweep("gamma=a,b")

    @pytest.mark.parametrize("values", ["inf", "nan", "0.5,-inf", "NaN,0.5"])
    def test_parse_sweep_rejects_non_finite(self, values):
        with pytest.raises(ConfigError, match="finite"):
            cli.parse_sweep(f"gamma={values}")


def _report_text(mean, std, seeds, extra_run=None, repeat_summary=False):
    """A report.json of two runs, test top-1 0.8 and 0.6, under the given
    summary; ``extra_run`` adds a per-run row and ``repeat_summary`` lists
    the summary entry twice."""
    summary = {"labeled_count": 32, "mean_test_top1": mean, "std_test_top1": std,
               "seeds": seeds}
    return json.dumps({
        "per_run": [{"labeled_count": 32, "test_top1": acc} for acc in (0.8, 0.6)]
                   + ([extra_run] if extra_run else []),
        "summary": [summary] * (2 if repeat_summary else 1),
    })


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"wat": 1}')
        assert cli.main(["pretrain", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command,section,value", [
        ("pretrain", "data", {"csv": {"paths": [], "delimiter": ";"}}),
        ("pretrain", "data", {"csv": {"cat_cols": []}}),
        ("pretrain", "pipeline", {"lambda_p": -1.0}),
        ("attack", "privacy", {"lambda_f": [-1.0]}),
        ("attack", "privacy", {"encoder_source": "pretrained_local"}),
        ("pretrain", "data", {"csv": ["a.csv"]}),
        ("pretrain", "pipeline", {"lambda_p": "0.5"}),
        ("attack", "privacy", {"lambda_f": 1.0}),
        ("pretrain", "pipeline", {"preset": "FedHSSL*"}),
        ("pretrain", "pipeline", {"preset": None}),
        ("pretrain", "pipeline", {"pretrain": False}),
        ("pretrain", "seeds", []),
        ("attack", "seeds", []),
        ("pretrain", "seeds", [0.5]),
        ("pretrain", "pipeline", {"global_iterations": 2.5}),
        ("attack", "finetune", {"labeled_counts": []}),
        ("finetune", "finetune", {"labeled_counts": [32.0]}),
        ("finetune", "finetune", {"lr_candidates": []}),
        ("pretrain", "data", {"csv": {"paths": "p1.csv"}}),
        ("pretrain", "data", {"csv": {"paths": ["p1.csv", "p2.csv"], "cat_levels": 5}}),
        ("pretrain", "data", {"csv": {"paths": ["p1.csv", "p2.csv"], "test_fraction": "x"}}),
        ("pretrain", "data", {"csv": {"paths": ["p1.csv", "p2.csv"], "test_fraction": 1.0}}),
        ("pretrain", "data", {"csv": {"paths": ["p1.csv", "p2.csv"], "test_fraction": 1.5}}),
        ("pretrain", "seeds", [-1]),
        ("pretrain", "data", {"synthetic": {"classes": 0}}),
        ("pretrain", "model", {"projector_dims": [16]}),
        ("pretrain", "model", {"projector_dims": [16, 16, 16, 16]}),
        ("pretrain", "model", {"aggregator": "sum"}),
        ("finetune", "finetune", {"lr_candidates": [0.0]}),
        ("pretrain", "pipeline", {"gamma": float("inf")}),
        ("finetune", "seeds", [0, 0]),
        ("finetune", "finetune", {"labeled_counts": [30, 30]}),
        ("attack", "privacy", {"lambda_f": [1.0, 1.0]}),
        ("finetune", "finetune", {"lr_candidates": [0.01, 0.01]}),
        ("pretrain", "data", {"synthetic": {}, "csv": {"paths": ["p1.csv", "p2.csv"]}}),
        ("pretrain", "data", {"csv": {"paths": ["p1.csv", "p2.csv"], "cat_cols": ["c0", []]}}),
        ("pretrain", "data", {"csv": {"paths": ["p1.csv", "p2.csv"], "cat_cols": [["c0"], []],
                                      "cat_levels": [[5], []]}}),
        ("gen-data", "data", {"synthetic": {"feature_dims": [2, 16],
                                            "cat_cardinalities": [[3, 3, 3], []]}}),
        ("pretrain", "data", {"synthetic": {"cat_cardinalities": [["a"], []]}}),
        ("pretrain", "data", {"synthetic": {"cat_cardinalities": [[2.5], []]}}),
        ("gen-data", "data", {"synthetic": {"cat_cardinalities": [[0], []]}}),
        ("gen-data", "data", {"synthetic": {"cat_cardinalities": [[True], []]}}),
        ("gen-data", "data", {"synthetic": {"feature_dims": [0, 16]}}),
        ("pretrain", "data", {"synthetic": {"feature_dims": [0, 16]}}),
        ("pretrain", "data", {"csv": {"paths": ["p1.csv", "p2.csv"], "labeled_count": 0}}),
    ], ids=["csv-unknown-key", "csv-no-paths", "negative-lambda-p", "negative-lambda-f",
            "encoder-source", "csv-not-object", "string-lambda-p", "scalar-lambda-f",
            "star-preset", "null-preset-with-pretrain", "method-without-pretrain",
            "empty-seeds-pretrain", "empty-seeds-attack", "float-seed",
            "float-global-iterations", "empty-labeled-counts", "float-labeled-count",
            "empty-lr-candidates", "csv-string-paths", "csv-scalar-cat-levels",
            "csv-string-test-fraction", "csv-test-fraction-one", "csv-test-fraction-above-one",
            "negative-seed", "zero-classes", "short-projector",
            "long-projector", "unknown-aggregator", "zero-lr-candidate", "infinite-gamma",
            "repeated-seed", "repeated-labeled-count", "repeated-lambda-f",
            "repeated-lr-candidate", "synthetic-and-csv", "csv-string-cat-cols",
            "csv-scalar-level-list", "more-cardinalities-than-columns", "string-cardinality",
            "float-cardinality", "zero-cardinality", "bool-cardinality",
            "zero-feature-dim-gen-data", "zero-feature-dim-pretrain", "csv-labeled-count-zero"])
    def test_malformed_section_is_2(self, tmp_path, capsys, command, section, value):
        cfg = json.loads(json.dumps(TINY))
        merge = isinstance(value, dict) and section != "data"
        cfg[section] = {**cfg.get(section, {}), **value} if merge else value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("id_col", "id"), ("label_col", "label"),
                                            ("cat_levels", [[], []]), ("standardize", True)],
                             ids=["id_col", "label_col", "cat_levels", "standardize"])
    def test_removed_csv_key_is_2(self, tmp_path, capsys, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"data": {"csv": {"paths": ["p1.csv", "p2.csv"], key: value}}}))
        assert cli.main(["pretrain", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown keys in 'data.csv': [{key!r}]")

    @pytest.mark.parametrize("counts, code, message", [
        ([32, 1], 2, "config error: finetune.labeled_counts must be >= 2"),
        ([32, 49], 3, "data error: finetune.labeled_counts entry 49 exceeds the 48 labeled ids"),
    ], ids=["below-two", "above-pool"])
    def test_bad_labeled_count_fails_before_any_training(self, tmp_path, capsys, monkeypatch,
                                                         counts, code, message):
        def train_step(self, ids):
            raise AssertionError("a fine-tune trained before the bad labeled count failed")

        monkeypatch.setattr(vfl.SplitTrainer, "train_step", train_step)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "finetune": {**TINY["finetune"],
                                                         "labeled_counts": counts}}))
        out = tmp_path / "o"
        for command in ("finetune", "attack"):
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == code
            err = capsys.readouterr().err
            assert err.startswith(message) and "Traceback" not in err
        assert not out.exists()

    def test_negative_cli_seed_is_2(self, tmp_path, capsys):
        assert cli.main(["pretrain", "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("command,pipeline", [
        ("finetune", {"gamma": -1}),
        ("gen-data", {"variant": "swav"}),
        ("attack", {"corruption_fraction": 1.5}),
        ("report", {"preset": "FedMagic"}),
    ])
    def test_bad_pipeline_value_is_2_under_every_command(self, tmp_path, capsys, command,
                                                          pipeline):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pipeline": pipeline}))
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["gen-data", "pretrain", "finetune", "attack", "report"])
    @pytest.mark.parametrize("config,key", [
        ({"finetune": {"batch_size": 0}}, "finetune.batch_size"),
        ({"privacy": {"head_hidden_dim": 0}}, "privacy.head_hidden_dim"),
        ({"privacy": {"lambda_f": [1.0, 1.0]}}, "privacy.lambda_f"),
        ({"model": {"finetune_encoders": "bogus"}}, "model.finetune_encoders"),
        ({"model": {"hidden_dim": 0}}, "model.hidden_dim"),
        ({"data": {"synthetic": {"classes": 0}}}, "data.synthetic.classes"),
        ({"model": {"predictor_dims": [0, 16]}}, "model.predictor_dims"),
        ({"model": {"moco_projector_out": 0}}, "model.moco_projector_out"),
        ({"model": {"embed_dim": 0}}, "model.embed_dim"),
    ], ids=["zero-finetune-batch", "zero-head-hidden-dim", "repeated-lambda-f",
            "unknown-finetune-encoders", "zero-hidden-dim", "zero-classes",
            "zero-predictor-bottleneck", "zero-moco-projector-out", "zero-embed-dim"])
    def test_bad_section_value_is_2_under_every_command(self, tmp_path, capsys, command,
                                                         config, key):
        # Every section builds its object when the config loads, so no
        # command gets as far as writing a file.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and key in captured.err
        assert "Traceback" not in captured.err and captured.out == "" and not out.exists()

    @pytest.mark.parametrize("privacy,message", [
        ({"lambda_f": [1.0, -1.0]}, "lambda_f"),
        ({"head_hidden_dim": 0}, "head_hidden_dim"),
        ({"aux_labeled_count": 2}, "aux_labeled_count"),
        ({"aux_labeled_count": 100000}, "aux_labeled_count"),
    ], ids=["negative-lambda-f", "zero-head-hidden-dim", "fewer-aux-labels-than-classes",
            "more-aux-labels-than-labeled-pool"])
    def test_lambda_f_checked_before_any_training(self, tmp_path, capsys, monkeypatch,
                                                  privacy, message):
        steps = []
        monkeypatch.setattr(vfl.SplitTrainer, "train_step", lambda self, ids: steps.append(ids))
        cfg = json.loads(json.dumps(TINY))
        cfg["privacy"].update(privacy)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["attack", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert steps == []

    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_empty_test_split_is_3_before_any_training(self, tmp_path, capsys, monkeypatch,
                                                       source):
        cfg = json.loads(json.dumps(TINY))
        if source == "synthetic":
            cfg["data"]["synthetic"]["test"] = 0
        else:
            p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
            p1.write_text("id,x0,label\n" + "".join(f"{i},{i / 10},{i % 2}\n" for i in range(12)))
            p2.write_text("id,x0\n" + "".join(f"{i},{i * 1.5}\n" for i in range(12)))
            cfg["data"] = {"csv": {"paths": [str(p1), str(p2)], "test_fraction": 0.0}}
            cfg["finetune"]["labeled_counts"] = [10]
            cfg["privacy"]["aux_labeled_count"] = 4
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "o")
        assert cli.main(["pretrain", "--config", str(path), "--out", out]) == 0
        steps = []
        monkeypatch.setattr(vfl.SplitTrainer, "train_step", lambda self, ids: steps.append(ids))
        for command in ("finetune", "attack"):
            assert cli.main([command, "--config", str(path), "--out", out]) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error:") and "test split" in err
        assert steps == []

    def test_data_error_is_3(self, tmp_path):
        assert cli.main(["report", "--out", str(tmp_path / "empty")]) == 3

    @pytest.mark.parametrize("command", ["pretrain", "gen-data"])
    def test_non_finite_synthetic_data_is_3_before_any_output(self, tmp_path, capsys, command):
        path = tmp_path / "cfg.json"
        out = tmp_path / "o"
        for synthetic in ({"noise_scales": [1e308, 1.0]}, {"class_sep": 1e308}):
            path.write_text(json.dumps({"data": {"synthetic": synthetic},
                                        "pipeline": {"global_iterations": 1}}))
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert "party 1's synthetic features hold non-finite values" in err
            assert "Traceback" not in err and "RuntimeWarning" not in err and not out.exists()

    def test_diverged_pretraining_is_4_before_any_output(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        out = tmp_path / "o"
        path.write_text(json.dumps({**TINY, "pipeline": {**TINY["pipeline"], "cross_lr": 1e308}}))
        assert cli.main(["pretrain", "--config", str(path), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: pretraining diverged: party 1 array 'f_lb.0.weight' "
                              "holds non-finite values")
        assert "Traceback" not in err and "RuntimeWarning" not in err and not out.exists()

    def test_failed_allocation_is_4(self, cfg_path, tmp_path, capsys, monkeypatch):
        # What numpy raises for, say, model.hidden_dim 1e12; no real allocation is tried.
        def oversized(spec):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (10**12, 1)")
        monkeypatch.setattr(data, "generate_synthetic", oversized)
        out = tmp_path / "o"
        assert cli.main(["pretrain", "--config", cfg_path, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 7.28 TiB for an array with shape (10**12, 1)\n"
        assert not out.exists()

    @pytest.mark.parametrize("bad_row", ["x2,0.2,1", "2,0.2,cat", "2,0.2"])
    def test_malformed_csv_is_3(self, tmp_path, capsys, bad_row):
        p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        p1.write_text(f"id,x0,label\n1,0.1,0\n{bad_row}\n")
        p2.write_text("id,x0\n1,1.0\n2,2.0\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"data": {"csv": {"paths": [str(p1), str(p2)]}}}))
        assert cli.main(["pretrain", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_unlisted_categorical_column_is_3_and_named(self, tmp_path, capsys):
        p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        p1.write_text("id,x0,c0,label\n1,0.1,red,0\n2,0.2,blue,1\n")
        p2.write_text("id,x0\n1,1.0\n2,2.0\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"data": {"csv": {"paths": [str(p1), str(p2)]}}}))
        assert cli.main(["pretrain", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {p1}: non-numeric cell 'red' in column 'c0'")
        assert "data.csv.cat_cols" in err and "Traceback" not in err

    def test_absurd_label_is_3_before_any_model(self, tmp_path, capsys, monkeypatch):
        # The largest label once set the class count, and so the top layer's width.
        built = []
        monkeypatch.setattr(nn.DenseLayer, "__init__", lambda self, *args, **kw: built.append(args))
        p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        p1.write_text("id,x0,label\n" + "".join(f"{i},{i / 10},{i % 2}\n" for i in range(11))
                      + f"11,1.1,{10**18}\n")
        p2.write_text("id,x0\n" + "".join(f"{i},{i * 1.5}\n" for i in range(12)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"data": {"csv": {"paths": [str(p1), str(p2)]}}}))
        assert cli.main(["pretrain", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {p1}: label {10**18} is not below the file's 12")
        assert "Traceback" not in err and built == []

    def test_guidance_dims_checked_before_any_frame(self, tmp_path, capsys, monkeypatch):
        # Step 2 regresses the 16-wide predictor onto the cross backbone.
        sent = []
        monkeypatch.setattr(vfl.Network, "send", lambda self, *args: sent.append(args))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "model": {"repr_dim": 8}}))
        assert cli.main(["pretrain", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: guidance dims disagree: predictor 16 vs cross "
                              "encoder 8") and "Traceback" not in err
        assert sent == []

    def test_missing_csv_is_3(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        missing = [str(tmp_path / "p1.csv"), str(tmp_path / "p2.csv")]
        path.write_text(json.dumps({"data": {"csv": {"paths": missing}}}))
        assert cli.main(["pretrain", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    @pytest.mark.parametrize("last_row", [
        pytest.param(b"1000,0.\xff5,1\n", id="invalid-utf8"),
        pytest.param(b"1000,%b,1\n" % (b"9" * (csv.field_size_limit() + 1)), id="oversized-field"),
    ])
    def test_read_error_in_the_last_row_is_3(self, tmp_path, capsys, last_row):
        # Past the first 8 KiB, so rows are parsed before the read fails.
        ids = range(1000)
        (tmp_path / "p1.csv").write_bytes(b"id,x0,label\n" + b"".join(
            b"%d,0.5,%d\n" % (i, i % 3) for i in ids) + last_row)
        (tmp_path / "p2.csv").write_bytes(b"id,x0\n" + b"".join(b"%d,0.5\n" % i for i in ids))
        path = tmp_path / "cfg.json"
        paths = [str(tmp_path / "p1.csv"), str(tmp_path / "p2.csv")]
        path.write_text(json.dumps({"data": {"csv": {"paths": paths}}}))
        assert cli.main(["pretrain", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot read") and "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "{nope", '{"per_run": []}', "[]", '{"summary": [{"labeled_count": 1}], "per_run": []}',
        *(pytest.param(_report_text(*summary), id=name) for name, summary in (
            ("wrong-std", (0.7, 0.9, 2)), ("wrong-seeds", (0.7, 0.1, 7)),
            ("nan-mean", (float("nan"), 0.1, 2)))),
        pytest.param(_report_text(0.7, 0.1, 2, extra_run={"labeled_count": 50, "test_top1": 0.5}),
                     id="uncovered-run"),
        pytest.param(_report_text(0.7, 0.1, 2, repeat_summary=True), id="repeated-summary"),
    ])
    def test_malformed_report_is_3(self, tmp_path, capsys, text):
        (tmp_path / "report.json").write_text(text)
        assert cli.main(["report", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    @pytest.mark.parametrize("case", ["config-is-dir", "out-under-file", "out-is-file",
                                      "report-is-dir"])
    def test_file_system_error_exits_cleanly(self, cfg_path, tmp_path, capsys, case):
        # An unreadable config is a config error, an unreadable report a
        # data error; an output path that cannot be written is exit 4.
        afile = tmp_path / "afile"
        afile.write_text("")
        (tmp_path / "r" / "report.json").mkdir(parents=True)
        argv, code, prefix = {
            "config-is-dir": (["pretrain", "--config", str(tmp_path)], 2, "config error:"),
            "out-under-file": (["pretrain", "--config", cfg_path, "--out", str(afile / "x")],
                               4, "error:"),
            "out-is-file": (["gen-data", "--config", cfg_path, "--out", str(afile)], 4, "error:"),
            "report-is-dir": (["report", "--out", str(tmp_path / "r")], 3, "data error:"),
        }[case]
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and "Traceback" not in err

    def test_missing_checkpoint_is_4(self, cfg_path, tmp_path, capsys):
        code = cli.main([
            "finetune", "--config", cfg_path, "--out", str(tmp_path / "o"),
            "--checkpoint", str(tmp_path / "nonexistent.bin"),
        ])
        err = capsys.readouterr().err
        assert code == 4
        assert "cannot read checkpoint" in err and "Traceback" not in err

    def test_runtime_error_is_4(self, cfg_path, tmp_path):
        # checkpoint path that is not a checkpoint
        bogus = tmp_path / "ckpt.bin"
        bogus.write_bytes(b"XXXX" + b"\x00" * 32)
        code = cli.main([
            "finetune", "--config", cfg_path, "--out", str(tmp_path / "o"),
            "--checkpoint", str(bogus),
        ])
        assert code == 4

    def test_corrupted_frame_is_4(self, cfg_path, tmp_path, capsys, monkeypatch):
        # A frame cut short on the wire fails its decode where it is sent.
        encode = vfl.encode_message
        monkeypatch.setattr(vfl, "encode_message", lambda msg: encode(msg)[:-1])
        assert cli.main(["pretrain", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "frame length does not match" in err and "Traceback" not in err

    def test_non_finite_checkpoint_is_4_before_any_training(self, cfg_path, tmp_path, capsys,
                                                           monkeypatch):
        out = tmp_path / "o"
        assert cli.main(["pretrain", "--config", cfg_path, "--out", str(out)]) == 0
        path = out / "checkpoint.bin"
        first = next(iter(nn.load_checkpoint(path).party_params[0]))
        raw = path.read_bytes()
        payload = 10 + int.from_bytes(raw[6:10], "little")
        path.write_bytes(raw[:payload] + np.full((len(raw) - payload) // 8, np.nan).tobytes())
        steps = []
        monkeypatch.setattr(vfl.SplitTrainer, "train_step", lambda self, ids: steps.append(ids))
        for command in ("finetune", "attack"):
            assert cli.main([command, "--config", cfg_path, "--out", str(out),
                             "--checkpoint", str(path)]) == 4
            err = capsys.readouterr().err
            assert f"party 1 array {first!r} holds non-finite values" in err
        assert steps == [] and not (out / "report.json").exists()

    def test_checkpoint_party_count_mismatch_is_4(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["pretrain", "--config", cfg_path, "--out", str(out)]) == 0
        path = out / "checkpoint.bin"
        raw = path.read_bytes()
        end = 10 + int.from_bytes(raw[6:10], "little")
        header = json.loads(raw[10:end])
        header["party_count"] += 1
        edited = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(raw[:6] + len(edited).to_bytes(4, "little") + edited + raw[end:])
        assert cli.main(["finetune", "--config", cfg_path, "--out", str(tmp_path / "f"),
                         "--checkpoint", str(path)]) == 4
        err = capsys.readouterr().err
        assert "party_count or version disagrees" in err and "Traceback" not in err

    def test_malformed_checkpoint_entry_is_4(self, cfg_path, tmp_path, capsys):
        header = json.dumps({"config_fingerprint": "0", "seeds": [0], "party_count": 1,
                             "version": 1, "parties": [[{"name": "w", "cols": 1}]]}).encode()
        bogus = tmp_path / "ckpt.bin"
        bogus.write_bytes(b"VFLH" + (1).to_bytes(2, "little")
                          + len(header).to_bytes(4, "little") + header)
        code = cli.main([
            "finetune", "--config", cfg_path, "--out", str(tmp_path / "o"),
            "--checkpoint", str(bogus),
        ])
        err = capsys.readouterr().err
        assert code == 4
        assert "malformed checkpoint parameter entry" in err
        assert "Traceback" not in err


class TestGenData:
    def test_manifest_and_files(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for entry in manifest["files"]:
            lines = (out / entry["path"]).read_text().strip().splitlines()
            assert len(lines) - 1 == entry["rows"]
        assert manifest["aligned"] == 60
        assert manifest["labeled"] == 48

    def test_idempotent(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        cli.main(["gen-data", "--config", cfg_path, "--out", str(out)])
        first = (out / "manifest.json").read_bytes()
        csv_first = (out / "party1.csv").read_bytes()
        cli.main(["gen-data", "--config", cfg_path, "--out", str(out)])
        assert (out / "manifest.json").read_bytes() == first
        assert (out / "party1.csv").read_bytes() == csv_first


class TestPretrain:
    def test_outputs_and_determinism(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        args = ["pretrain", "--config", cfg_path, "--preset", "fedhssl-simsiam",
                "--out", str(out)]
        assert cli.main(args) == 0
        first = (out / "checkpoint.bin").read_bytes()
        trace = json.loads((out / "trace.json").read_text())
        assert {r["step"] for r in trace["records"]} == {"cross", "local", "pma"}
        assert set(trace["message_bytes"]) == set(trace["message_counts"]) == {"Repr", "ModelBlob"}
        assert cli.main(args) == 0
        assert (out / "checkpoint.bin").read_bytes() == first

    def test_fedcssl_trace_has_only_cross_records(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        cli.main(["pretrain", "--config", cfg_path, "--preset", "fedcssl",
                  "--out", str(out)])
        trace = json.loads((out / "trace.json").read_text())
        assert {r["step"] for r in trace["records"]} == {"cross"}

    def test_fedsplitnn_skips_pretraining(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        cli.main(["pretrain", "--config", cfg_path, "--preset", "fedsplitnn",
                  "--out", str(out)])
        trace = json.loads((out / "trace.json").read_text())
        assert trace["records"] == []
        assert (out / "checkpoint.bin").exists()


class TestFinetuneAndAttack:
    def run_pretrain(self, cfg_path, out):
        cli.main(["pretrain", "--config", cfg_path, "--preset", "fedhssl-simsiam",
                  "--out", str(out)])

    def test_report_consistency(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        self.run_pretrain(cfg_path, out)
        code = cli.main([
            "finetune", "--config", cfg_path, "--preset", "fedhssl-simsiam",
            "--out", str(out), "--checkpoint", str(out / "checkpoint.bin"),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["per_run"]) == 1  # one labeled count, one seed
        row = report["summary"][0]
        assert row["std_test_top1"] == 0.0  # single seed
        assert row["mean_test_top1"] == report["per_run"][0]["test_top1"]
        assert "wall_clock_sec" not in report  # timings live apart
        assert json.loads((out / "timings.json").read_text())["wall_clock_sec"] > 0
        assert cli.main(["report", "--out", str(out)]) == 0

    def test_finetune_fingerprint_mismatch(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        self.run_pretrain(cfg_path, out)
        # different preset changes the config fingerprint
        code = cli.main([
            "finetune", "--config", cfg_path, "--preset", "fedcssl",
            "--out", str(out), "--checkpoint", str(out / "checkpoint.bin"),
        ])
        assert code == 4

    def test_finetune_idempotent_csv(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        self.run_pretrain(cfg_path, out)
        args = ["finetune", "--config", cfg_path, "--preset", "fedhssl-simsiam",
                "--out", str(out), "--checkpoint", str(out / "checkpoint.bin")]
        cli.main(args)
        first = (out / "report.csv").read_bytes()
        cli.main(args)
        assert (out / "report.csv").read_bytes() == first

    def test_attack_curve_and_cap(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        self.run_pretrain(cfg_path, out)
        code = cli.main([
            "attack", "--config", cfg_path, "--preset", "fedhssl-simsiam",
            "--out", str(out), "--checkpoint", str(out / "checkpoint.bin"),
        ])
        assert code == 0
        attack = json.loads((out / "attack.json").read_text())
        assert len(attack["points"]) == 2  # one per lambda_f
        lines = (out / "tradeoff.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        # CAP in the JSON equals a recomputation from the CSV rows
        curve = privacy.TradeoffCurve()
        for line in lines[1:]:
            _, dataset, lam, _, util, rec = line.split(",")
            assert dataset == "synthetic"
            curve.add_point(float(lam), float(util), float(rec))
        assert attack["cap"] == pytest.approx(privacy.cap(curve), abs=1e-12)

    def test_traced_attack_fits_every_seed_in_one_call_per_lambda(self, tmp_path, monkeypatch):
        # perfbench times the head fits as the privacy.mc_attack span; wrapped
        # as its tracer wraps it, the span must see one call per lambda_f,
        # each over every seed's adversary.
        cfg = {**TINY, "seeds": [0, 1]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        self.run_pretrain(str(path), out)
        tracer_module = load_perfbench("tracer", monkeypatch)
        tracer = tracer_module.Tracer()
        owner, attr, mc_attack = tracer_module._resolve("privacy:mc_attack")
        heads = []

        def counted(adversaries, *args, **kwargs):
            heads.append(len(adversaries))
            return mc_attack(adversaries, *args, **kwargs)

        monkeypatch.setattr(owner, attr, tracer._span("privacy.mc_attack", counted))
        assert cli.main(["attack", "--config", str(path), "--preset", "fedhssl-simsiam",
                         "--out", str(out), "--checkpoint", str(out / "checkpoint.bin")]) == 0
        assert tracer.calls["privacy.mc_attack"] == len(TINY["privacy"]["lambda_f"])
        assert heads == [2] * len(TINY["privacy"]["lambda_f"])
        per_seed = json.loads((out / "attack.json").read_text())["per_seed"]
        assert [(row["lambda_f"], row["seed"]) for row in per_seed] == [
            (lam, seed) for lam in TINY["privacy"]["lambda_f"] for seed in (0, 1)]

    def test_near_equal_lambdas_are_two_points(self, tmp_path):
        # The config refuses only exact repeats, so two distinct floats
        # one ulp apart each get their point on the curve.
        lambdas = [1.0, 1.0000000000000002]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "privacy": {**TINY["privacy"], "lambda_f": lambdas}}))
        out = tmp_path / "out"
        self.run_pretrain(str(path), out)
        assert cli.main(["attack", "--config", str(path), "--preset", "fedhssl-simsiam",
                         "--out", str(out), "--checkpoint", str(out / "checkpoint.bin")]) == 0
        attack = json.loads((out / "attack.json").read_text())
        assert [point[0] for point in attack["points"]] == lambdas

    def test_tradeoff_names_csv_data(self, cfg_path, tmp_path):
        data_dir = tmp_path / "data"
        assert cli.main(["gen-data", "--config", cfg_path, "--out", str(data_dir)]) == 0
        paths = [str(data_dir / f"party{i}.csv") for i in (1, 2)]
        path = tmp_path / "csv.json"
        path.write_text(json.dumps({**TINY, "data": {"csv": {"paths": paths}}}))
        out = tmp_path / "out"
        assert cli.main(["attack", "--config", str(path), "--preset", "fedsplitnn",
                         "--out", str(out)]) == 0
        rows = (out / "tradeoff.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["csv", "csv"]

    def test_checkpoint_loaded_once_outputs_unchanged(self, tmp_path, monkeypatch):
        # Oracle: every lr candidate restores from a fresh read of the file.
        cfg = json.loads(json.dumps(TINY))
        cfg["finetune"]["lr_candidates"] = [0.01, 0.03]
        cfg["seeds"] = [0, 1]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        self.run_pretrain(str(path), tmp_path)
        checkpoint = str(tmp_path / "checkpoint.bin")

        def run(command, out):
            assert cli.main([command, "--config", str(path), "--preset", "fedhssl-simsiam",
                             "--out", str(out), "--checkpoint", checkpoint]) == 0
            name = "report.csv" if command == "finetune" else "attack.json"
            return (out / name).read_bytes()

        load, restore = cli.nn.load_checkpoint, cli._restore_parties
        loads = []
        monkeypatch.setattr(cli.nn, "load_checkpoint",
                            lambda *a, **kw: loads.append(a) or load(*a, **kw))
        once = {c: run(c, tmp_path / f"once-{c}") for c in ("finetune", "attack")}
        assert len(loads) == 2  # one per command

        def restore_from_file(config, dataset, seed, _checkpoint):
            fresh = load(checkpoint, expect_fingerprint=cli.config_fingerprint(config))
            return restore(config, dataset, seed, fresh)

        monkeypatch.setattr(cli, "_restore_parties", restore_from_file)
        for command, expected in once.items():
            assert run(command, tmp_path / f"reread-{command}") == expected

    def test_diverged_candidate_is_named_without_numpy_warnings(self, tmp_path, capsys):
        # At batch size 1 on TINY the one candidate, lr 0.03, overflows at
        # every lambda_f. pytest turns numpy's RuntimeWarning into an error,
        # so a warning leaking out of either command fails it here.
        cfg = json.loads(json.dumps(TINY))
        cfg["finetune"]["batch_size"] = 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        self.run_pretrain(str(path), out)
        capsys.readouterr()
        for command, lambdas in (("finetune", [0.0]), ("attack", [1.0, 25.0])):
            assert cli.main([command, "--config", str(path), "--preset", "fedhssl-simsiam",
                             "--out", str(out), "--checkpoint", str(out / "checkpoint.bin")]) == 0
            assert capsys.readouterr().err == "".join(
                f"warning: seed 0, lr 0.03, lambda_f {lam}: diverged\n" for lam in lambdas)
        # Whether a diverged point is scored is not settled; the outputs stay as they were.
        report = json.loads((out / "report.json").read_text())
        assert report["per_run"][0]["test_top1"] == 0.35555555555555557
        assert json.loads((out / "attack.json").read_text())["cap"] == 0.19753086419753088



def test_select_lr_ranks_diverged_candidates_last(tmp_path):
    # Default config, lambda_f=20, seed 2: lr 0.01 and 0.03 diverge to NaN
    # logits, so argmax predicts class 0 and scores its validation share,
    # 0.325; lr 0.005 stays finite at 0.225 and must be the one kept.
    config = cli.load_config()
    assert cli.main(["pretrain", "--out", str(tmp_path)]) == 0
    dataset = cli.build_dataset(config)
    checkpoint = cli._load_checkpoint(config, str(tmp_path / "checkpoint.bin"))
    with np.errstate(over="ignore", invalid="ignore"):
        trainer, val_acc, lr = cli._select_lr(
            config, dataset, 2, 200, checkpoint, lambda_f=20.0
        )
    assert (lr, val_acc) == (0.005, 0.225)
    assert np.isfinite(trainer.logits(dataset.test_ids)).all()



def test_select_lr_packed_optimizer_equals_per_parameter_loop(cfg_path, monkeypatch):
    config = cli.load_config(cfg_path)
    config["finetune"]["lr_candidates"] = [0.01, 0.03]
    dataset = cli.build_dataset(config)

    def select():
        trainer, val_acc, lr = cli._select_lr(config, dataset, 0, 32, None, lambda_f=1.0)
        params = [p.values.tobytes() for node in trainer.parties
                  for _, p in node.model.named_params()]
        return params, val_acc, lr

    packed = select()
    monkeypatch.setattr(vfl.T, "SgdOptimizer", PerParameterSgd)
    assert select() == packed


def test_select_lr_candidates_share_batches_and_validation(cfg_path, monkeypatch):
    config = cli.load_config(cfg_path)
    config["finetune"].update(lr_candidates=[0.005, 0.01, 0.03], batch_size=8)
    dataset = cli.build_dataset(config)
    seen = {}  # trainer -> {"train": [batch ids...], "val": [scored ids...]}

    def spy(method, key):
        def wrapped(self, ids):
            seen.setdefault(self, {"train": [], "val": []})[key].append(np.asarray(ids).tolist())
            return method(self, ids)
        return wrapped

    monkeypatch.setattr(vfl.SplitTrainer, "train_step", spy(vfl.SplitTrainer.train_step, "train"))
    monkeypatch.setattr(vfl.SplitTrainer, "logits", spy(vfl.SplitTrainer.logits, "val"))
    cli._select_lr(config, dataset, 0, 32, None)
    assert len(seen) == 3
    first = next(iter(seen.values()))
    assert len(first["train"]) == 3 * 4  # 3 epochs of 26 ids in batches of 8
    assert all(record == first for record in seen.values())
    [val_ids] = first["val"]
    train_ids = {i for batch in first["train"] for i in batch}
    assert len(val_ids) == len(set(val_ids)) == max(1, round(0.2 * 32))
    assert len(train_ids) == 32 - len(val_ids) and not train_ids & set(val_ids)
    assert train_ids | set(val_ids) <= set(dataset.labeled_ids.tolist())

class TestSweep:
    def test_gamma_sweep_creates_subdirs(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        code = cli.main([
            "pretrain", "--config", cfg_path, "--preset", "fedhssl-simsiam",
            "--out", str(out), "--sweep", "gamma=0.25,0.75",
        ])
        assert code == 0
        assert (out / "sweep_gamma_0.25" / "checkpoint.bin").exists()
        assert (out / "sweep_gamma_0.75" / "trace.json").exists()

    def test_gamma_sweep_changes_local_tower(self, cfg_path, tmp_path):
        # A preset picks the steps; pipeline.gamma is the guidance weight.
        out = tmp_path / "out"
        code = cli.main([
            "pretrain", "--config", cfg_path, "--out", str(out), "--sweep", "gamma=0,0.5,2",
        ])
        assert code == 0
        params = {
            g: nn.load_checkpoint(str(out / f"sweep_gamma_{g}" / "checkpoint.bin")).party_params[0]
            for g in ("0", "0.5", "2")
        }
        local = {
            name for name in params["0.5"]
            if name.startswith(("f_lb.", "f_lt.", "projector_l.", "h_l."))
        }
        for g in ("0", "2"):
            changed = {
                name for name, values in params[g].items()
                if not np.array_equal(values, params["0.5"][name])
            }
            assert changed == local  # the cross tower and top model never see gamma

    def test_gamma_sweep_default_value_reproduces_checkpoint(self, cfg_path, tmp_path):
        assert cli.main(["pretrain", "--config", cfg_path, "--out", str(tmp_path / "plain")]) == 0
        assert cli.main([
            "pretrain", "--config", cfg_path, "--out", str(tmp_path / "swept"),
            "--sweep", "gamma=0.5",
        ]) == 0
        plain = (tmp_path / "plain" / "checkpoint.bin").read_bytes()
        assert (tmp_path / "swept" / "sweep_gamma_0.5" / "checkpoint.bin").read_bytes() == plain

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_bad_swept_value_is_2_before_any_run(self, cfg_path, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg_path, "--out", str(out),
                         "--sweep", "aligned=0.5,0"]) == 2
        assert "aligned_fraction" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sweep", ["gamma=0.5,0.5", "gamma=0.1,0.1000001"])
    def test_colliding_swept_values_are_2_before_any_run(self, cfg_path, tmp_path, capsys,
                                                         sweep):
        out = tmp_path / "out"
        assert cli.main(["pretrain", "--config", cfg_path, "--out", str(out),
                         "--sweep", sweep]) == 2
        assert "name one output directory twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sweep", ["gamma=inf", "gamma=0.5,nan", "aligned=nan"])
    def test_non_finite_swept_value_is_2(self, cfg_path, tmp_path, capsys, sweep):
        out = tmp_path / "out"
        assert cli.main(["pretrain", "--config", cfg_path, "--out", str(out),
                         "--sweep", sweep]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_pipeline_gamma_overrides_preset(self, tmp_path):
        # A preset picks the method, variant and fine-tune encoders; the
        # config's gamma holds under every preset.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pipeline": {"gamma": 0.25}}))
        for preset in (None, "fedhssl-simsiam", "fedlocal-byol", "fedcssl"):
            config = cli.load_config(str(path), preset=preset)
            assert hssl.PipelineConfig(**config["pipeline"]).gamma == 0.25

    def test_local_method_ignores_gamma(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["pretrain", "--config", cfg_path, "--preset", "fedlocal-simsiam",
                         "--out", str(out), "--sweep", "gamma=0,2"]) == 0
        zero, two = (
            nn.load_checkpoint(str(out / f"sweep_gamma_{g}" / "checkpoint.bin")).party_params
            for g in ("0", "2")
        )
        for a, b in zip(zero, two, strict=True):
            assert a.keys() == b.keys()
            for name in a:
                np.testing.assert_array_equal(a[name], b[name], err_msg=name)
