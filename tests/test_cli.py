import json

import pytest

from vflhssl import cli, privacy
from vflhssl.errors import ConfigError


TINY = {
    "data": {"synthetic": {
        "classes": 3, "aligned": 60, "unaligned": [40, 40], "labeled": 48,
        "test": 45, "feature_dims": [8, 8], "latent_dim": 4, "class_sep": 2.0,
    }},
    "pipeline": {"global_iterations": 1, "batch_size": 32},
    "finetune": {"labeled_counts": [32], "lr_candidates": [0.03],
                 "epochs": 3, "batch_size": 32},
    "privacy": {"lambda_f": [1.0, 25.0], "aux_labeled_count": 15,
                "attack_epochs": 5},
    "seeds": [0],
}


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

    def test_parse_sweep(self):
        assert cli.parse_sweep("gamma=0,0.5,1.0") == ("gamma", [0.0, 0.5, 1.0])
        assert cli.parse_sweep("aligned=0.2,0.4") == ("aligned", [0.2, 0.4])
        with pytest.raises(ConfigError):
            cli.parse_sweep("gamma")
        with pytest.raises(ConfigError):
            cli.parse_sweep("epochs=3")
        with pytest.raises(ConfigError):
            cli.parse_sweep("gamma=a,b")


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"wat": 1}')
        assert cli.main(["pretrain", "--config", str(path)]) == 2

    def test_data_error_is_3(self, tmp_path):
        assert cli.main(["report", "--out", str(tmp_path / "empty")]) == 3

    @pytest.mark.parametrize("bad_row", ["x2,0.2,1", "2,0.2,cat", "2,0.2"])
    def test_malformed_csv_is_3(self, tmp_path, capsys, bad_row):
        p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        p1.write_text(f"id,x0,label\n1,0.1,0\n{bad_row}\n")
        p2.write_text("id,x0\n1,1.0\n2,2.0\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"data": {"csv": {"paths": [str(p1), str(p2)]}}}))
        assert cli.main(["pretrain", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_runtime_error_is_4(self, cfg_path, tmp_path):
        # checkpoint path that is not a checkpoint
        bogus = tmp_path / "ckpt.bin"
        bogus.write_bytes(b"XXXX" + b"\x00" * 32)
        code = cli.main([
            "finetune", "--config", cfg_path, "--out", str(tmp_path / "o"),
            "--checkpoint", str(bogus),
        ])
        assert code == 4


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
            _, _, lam, _, util, rec = line.split(",")
            curve.add_point(float(lam), float(util), float(rec))
        assert attack["cap"] == pytest.approx(privacy.cap(curve), abs=1e-12)


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
