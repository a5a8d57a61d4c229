import json

import numpy as np
import pytest

from vflhssl import cli, hssl, nn, privacy, vfl
from vflhssl.errors import ConfigError

from conftest import TINY, PerParameterSgd


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
    ], ids=["csv-unknown-key", "csv-no-paths", "negative-lambda-p", "negative-lambda-f",
            "encoder-source", "csv-not-object", "string-lambda-p", "scalar-lambda-f",
            "star-preset", "null-preset-with-pretrain", "method-without-pretrain",
            "empty-seeds-pretrain", "empty-seeds-attack", "float-seed",
            "float-global-iterations", "empty-labeled-counts", "float-labeled-count",
            "empty-lr-candidates", "csv-string-paths", "csv-scalar-cat-levels",
            "csv-string-test-fraction", "negative-seed", "zero-classes", "short-projector",
            "long-projector", "unknown-aggregator", "zero-lr-candidate", "infinite-gamma",
            "repeated-seed", "repeated-labeled-count", "repeated-lambda-f",
            "repeated-lr-candidate", "synthetic-and-csv", "csv-string-cat-cols",
            "csv-scalar-level-list", "more-cardinalities-than-columns", "string-cardinality",
            "float-cardinality", "zero-cardinality", "bool-cardinality",
            "zero-feature-dim-gen-data", "zero-feature-dim-pretrain"])
    def test_malformed_section_is_2(self, tmp_path, capsys, command, section, value):
        cfg = json.loads(json.dumps(TINY))
        merge = isinstance(value, dict) and section != "data"
        cfg[section] = {**cfg.get(section, {}), **value} if merge else value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

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

    @pytest.mark.parametrize("privacy,message", [
        ({"lambda_f": [1.0, -1.0]}, "lambda_f"),
        ({"head_hidden_dim": 0}, "head_hidden_dim"),
        ({"aux_labeled_count": 2}, "aux_labeled_count"),
    ], ids=["negative-lambda-f", "zero-head-hidden-dim", "fewer-aux-labels-than-classes"])
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

    @pytest.mark.parametrize("text", ["{nope", '{"per_run": []}', "[]",
                                      '{"summary": [{"labeled_count": 1}], "per_run": []}'])
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

    def test_malformed_checkpoint_entry_is_4(self, cfg_path, tmp_path, capsys):
        header = json.dumps({"config_fingerprint": "0", "seeds": [0],
                             "parties": [[{"name": "w", "cols": 1}]]}).encode()
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
