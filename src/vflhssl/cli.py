"""Config-driven experiment runner.

Subcommands: gen-data, pretrain, finetune, attack, report. A single
JSON config document drives every command; ``--preset`` expands a named
method configuration, ``--sweep k=v1,v2`` fans a command out over
parameter values, and outputs are written atomically so interrupted
runs never leave half-written artifacts.

Exit codes: 0 success, 2 config error, 3 data error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import data, hssl, nn, privacy, vfl
from .errors import ConfigError, DataError, VflError
from .ssl import SslVariant

CLI_PRESETS = {
    # name -> (ablation preset or None for plain split training, SSL variant)
    "fedhssl-simsiam": ("FedHSSL", "simsiam"),
    "fedhssl-byol": ("FedHSSL", "byol"),
    "fedhssl-moco": ("FedHSSL", "moco"),
    "fedlocal-simsiam": ("FedLocalSSL", "simsiam"),
    "fedlocal-byol": ("FedLocalSSL", "byol"),
    "fedlocal-moco": ("FedLocalSSL", "moco"),
    "fedcssl": ("FedCSSL", "simsiam"),
    "fedgssl": ("FedGSSL", "simsiam"),
    "fedsplitnn": (None, "simsiam"),
}

SWEEP_KEYS = {"gamma": ("pipeline", "gamma"), "aligned": ("pipeline", "aligned_fraction")}

DEFAULT_CONFIG = {
    "data": {
        "synthetic": {
            "latent_dim": 8, "classes": 4, "parties": 2,
            "feature_dims": [16, 16], "noise_scales": [1.0, 1.0],
            "cat_cardinalities": [[], []], "class_sep": 1.5,
            "aligned": 400, "unaligned": [600, 600],
            "labeled": 200, "test": 300, "seed": 0,
        },
    },
    "model": {
        "hidden_dim": 32, "repr_dim": 16, "embed_dim": 8,
        "projector_dims": [16, 16, 16], "predictor_dims": [8, 16],
        "moco_projector_out": 16, "aggregator": "concat",
        "finetune_encoders": "concat",
    },
    "pipeline": {
        "preset": "FedHSSL", "variant": "simsiam", "gamma": 0.5,
        "global_iterations": 5, "cross_epochs": 1, "local_epochs": 1,
        "local_updates": 1, "batch_size": 128, "cross_lr": 0.03,
        "local_lr": 0.03, "aligned_fraction": 1.0,
        "corruption_fraction": 0.3, "lambda_p": 0.0, "pretrain": True,
    },
    "finetune": {
        "labeled_counts": [200], "lr_candidates": [0.005, 0.01, 0.03],
        "epochs": 30, "batch_size": 64,
    },
    "privacy": {
        "lambda_f": [1.0, 5.0, 25.0], "aux_labeled_count": 80,
        "attack_epochs": 100, "head_hidden_dim": 32,
        "encoder_source": "finetuned_local",
    },
    "seeds": [0, 1, 2, 3, 4],
    "output_dir": "runs",
}


# -- config handling ------------------------------------------------------

def _check_keys(section, given, allowed):
    unknown = set(given) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")


def load_config(path=None, preset=None, overrides=None):
    """Merge the default config, an optional JSON file and a CLI preset."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except ValueError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        _check_keys("config", user, DEFAULT_CONFIG)
        for section, value in user.items():
            if isinstance(value, dict) and section != "data":
                _check_keys(section, value, DEFAULT_CONFIG[section])
                config[section].update(value)
            elif section == "data":
                if set(value) - {"synthetic", "csv"}:
                    raise ConfigError("data section takes 'synthetic' or 'csv'")
                config["data"] = value
                if "synthetic" in value:
                    _check_keys("data.synthetic", value["synthetic"],
                                DEFAULT_CONFIG["data"]["synthetic"])
                    merged = dict(DEFAULT_CONFIG["data"]["synthetic"])
                    merged.update(value["synthetic"])
                    config["data"] = {"synthetic": merged}
            else:
                config[section] = value
    if preset is not None:
        if preset not in CLI_PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(CLI_PRESETS)}")
        ablation, variant = CLI_PRESETS[preset]
        config["pipeline"]["variant"] = variant
        if ablation is None:
            config["pipeline"]["preset"] = None
            config["pipeline"]["pretrain"] = False
            config["model"]["finetune_encoders"] = "local"
        else:
            config["pipeline"]["preset"] = ablation
            config["pipeline"]["pretrain"] = True
            config["model"]["finetune_encoders"] = hssl.preset_finetune_encoders(ablation)
            config["pipeline"]["gamma"] = hssl.ABLATION_PRESETS[ablation][3]
    for (section, key), value in (overrides or {}).items():
        config[section][key] = value
    return config


def config_fingerprint(config):
    core = {k: config[k] for k in ("data", "model", "pipeline")}
    return nn.config_fingerprint(core)


def build_dataset(config):
    section = config["data"]
    if "synthetic" in section:
        raw = dict(section["synthetic"])
        for key in ("feature_dims", "noise_scales", "unaligned"):
            raw[key] = tuple(raw[key])
        raw["cat_cardinalities"] = tuple(tuple(c) for c in raw["cat_cardinalities"])
        return data.generate_synthetic(data.SyntheticSpec(**raw))
    if "csv" in section:
        raw = dict(section["csv"])
        paths = raw.pop("paths")
        if "cat_levels" in raw and raw["cat_levels"] is not None:
            raw["cat_levels"] = [
                tuple(tuple(col) for col in party) for party in raw["cat_levels"]
            ]
        if "cat_cols" in raw and raw["cat_cols"] is not None:
            raw["cat_cols"] = [tuple(c) for c in raw["cat_cols"]]
        return data.load_csv(paths, **raw)
    raise ConfigError("data section needs a 'synthetic' or 'csv' entry")


def build_model_config(config, dataset):
    m = config["model"]
    return nn.ModelConfig(
        input_dim=1,  # replaced per party from its feature block
        num_classes=dataset.num_classes,
        num_parties=dataset.num_parties,
        embed_dim=m["embed_dim"],
        hidden_dim=m["hidden_dim"],
        repr_dim=m["repr_dim"],
        projector_dims=tuple(m["projector_dims"]),
        predictor_dims=tuple(m["predictor_dims"]),
        moco_projector_out=m["moco_projector_out"],
        finetune_encoders=m["finetune_encoders"],
        aggregator=m["aggregator"],
    )


def build_pipeline_config(config):
    p = config["pipeline"]
    protection = None
    if p["lambda_p"] > 0:
        protection = privacy.IsoConfig(
            p["lambda_p"], targets=("cross_repr", "top_model_blob")
        )
    shared = dict(
        variant=SslVariant(p["variant"]),
        global_iterations=p["global_iterations"],
        cross_epochs=p["cross_epochs"],
        local_epochs=p["local_epochs"],
        local_updates=p["local_updates"],
        batch_size=p["batch_size"],
        cross_lr=p["cross_lr"],
        local_lr=p["local_lr"],
        aligned_fraction=p["aligned_fraction"],
        augmentation=data.AugmentationPolicy(p["corruption_fraction"]),
        protection=protection,
    )
    if p["preset"] is not None:
        return hssl.PipelineConfig.from_preset(p["preset"], **shared)
    return hssl.PipelineConfig(gamma=p["gamma"], **shared)


# -- atomic output --------------------------------------------------------

def atomic_write_text(path, text):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path, obj):
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# -- commands -------------------------------------------------------------

def cmd_gen_data(config, out_dir):
    dataset = build_dataset(config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"party{i + 1}.csv" for i in range(dataset.num_parties)]
    data.export_csv(dataset, paths)
    manifest = {
        "fingerprint": dataset.fingerprint(),
        "config_fingerprint": config_fingerprint(config),
        "num_classes": dataset.num_classes,
        "files": [
            {"path": p.name, "rows": int(len(block.ids))}
            for p, block in zip(paths, dataset.parties)
        ],
        "aligned": int(len(dataset.aligned_ids)),
        "labeled": int(len(dataset.labeled_ids)),
        "test": int(len(dataset.test_ids)),
    }
    atomic_write_json(out_dir / "manifest.json", manifest)
    print(f"wrote {len(paths)} party files and manifest.json to {out_dir}")
    return 0


def _pretrained_parties(config, dataset, seed):
    cfg = build_model_config(config, dataset)
    variant = config["pipeline"]["variant"]
    nodes = vfl.make_parties(dataset, cfg, variant, seed)
    net = hssl.make_network(dataset.num_parties)
    trace = []
    if config["pipeline"]["pretrain"]:
        pipeline = build_pipeline_config(config)
        trace = hssl.pretrain(dataset, nodes, net, pipeline, seed=seed)
    return nodes, net, trace


def cmd_pretrain(config, out_dir):
    dataset = build_dataset(config)
    seed = config["seeds"][0]
    nodes, net, trace = _pretrained_parties(config, dataset, seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "checkpoint.bin"
    nn.save_checkpoint(
        ckpt_path, [p.model for p in nodes], config_fingerprint(config), seeds=[seed]
    )
    atomic_write_json(out_dir / "trace.json", {
        "config_fingerprint": config_fingerprint(config),
        "seed": seed,
        "records": trace,
        "message_counts": dict(net.counts),
    })
    print(f"wrote checkpoint.bin and trace.json to {out_dir}")
    return 0


def _restore_parties(config, dataset, seed, checkpoint_path):
    cfg = build_model_config(config, dataset)
    variant = config["pipeline"]["variant"]
    nodes = vfl.make_parties(dataset, cfg, variant, seed)
    if checkpoint_path is not None:
        ckpt = nn.load_checkpoint(
            checkpoint_path, expect_fingerprint=config_fingerprint(config)
        )
        ckpt.restore_into([p.model for p in nodes])
    return nodes


def _finetune_once(config, dataset, nodes, seed, labeled_count, learning_rate,
                   protection=None):
    """Supervised split training on a labeled subset; returns the trainer
    and its accuracy on a held-out validation slice of that subset."""
    ft = config["finetune"]
    rng = np.random.default_rng((seed, 4))
    pool = dataset.labeled_ids
    if labeled_count > len(pool):
        raise DataError(
            f"labeled_count {labeled_count} exceeds available {len(pool)} labeled ids"
        )
    chosen = pool[rng.permutation(len(pool))][:labeled_count]
    n_val = max(1, int(round(0.2 * len(chosen))))
    val_ids, train_ids = chosen[:n_val], chosen[n_val:]
    if len(train_ids) == 0:
        raise DataError("labeled subset too small to split off validation")

    net = hssl.make_network(dataset.num_parties)
    trainer = vfl.SplitTrainer(
        nodes, net, learning_rate,
        aggregator=config["model"]["aggregator"],
        protection=protection,
        protection_rng=np.random.default_rng((seed, 5)) if protection else None,
    )
    shuffle = np.random.default_rng((seed, 6))
    for _ in range(ft["epochs"]):
        for batch in data.batches(train_ids, ft["batch_size"], rng=shuffle):
            trainer.train_step(batch)
    return trainer, trainer.accuracy(val_ids)


def _select_lr(config, dataset, seed, labeled_count, checkpoint_path, protection=None):
    """Train one model per lr candidate and keep the best by validation."""
    best = None
    for lr in config["finetune"]["lr_candidates"]:
        nodes = _restore_parties(config, dataset, seed, checkpoint_path)
        trainer, val_acc = _finetune_once(
            config, dataset, nodes, seed, labeled_count, lr, protection=protection
        )
        if best is None or val_acc > best[1]:
            best = (trainer, val_acc, lr)
    return best


def cmd_finetune(config, out_dir, checkpoint_path):
    dataset = build_dataset(config)
    started = time.time()
    rows = []
    for labeled_count in config["finetune"]["labeled_counts"]:
        for seed in config["seeds"]:
            trainer, val_acc, lr = _select_lr(
                config, dataset, seed, labeled_count, checkpoint_path
            )
            rows.append({
                "labeled_count": labeled_count, "seed": seed,
                "learning_rate": lr, "val_top1": val_acc,
                "test_top1": trainer.accuracy(dataset.test_ids),
            })
    summary = []
    for labeled_count in config["finetune"]["labeled_counts"]:
        accs = [r["test_top1"] for r in rows if r["labeled_count"] == labeled_count]
        summary.append({
            "labeled_count": labeled_count,
            "mean_test_top1": float(np.mean(accs)),
            "std_test_top1": float(np.std(accs)),
            "seeds": len(accs),
        })
    report = {
        "config_fingerprint": config_fingerprint(config),
        "per_run": rows,
        "summary": summary,
        "wall_clock_sec": time.time() - started,
    }
    out_dir = Path(out_dir)
    atomic_write_json(out_dir / "report.json", report)
    lines = ["labeled_count,seed,learning_rate,val_top1,test_top1"]
    for r in rows:
        lines.append(
            f"{r['labeled_count']},{r['seed']},{r['learning_rate']},"
            f"{r['val_top1']},{r['test_top1']}"
        )
    atomic_write_text(out_dir / "report.csv", "\n".join(lines) + "\n")
    for s in summary:
        print(
            f"labeled={s['labeled_count']}: test top-1 "
            f"{s['mean_test_top1']:.4f} +- {s['std_test_top1']:.4f} "
            f"over {s['seeds']} seeds"
        )
    return 0


def cmd_attack(config, out_dir, checkpoint_path):
    dataset = build_dataset(config)
    priv = config["privacy"]
    labeled_count = config["finetune"]["labeled_counts"][0]
    curve = privacy.TradeoffCurve(
        method=config["pipeline"]["preset"] or "FedSplitNN", dataset="synthetic"
    )
    per_seed = []
    for lam in priv["lambda_f"]:
        protection = privacy.IsoConfig(float(lam), targets=("finetune_grad",))
        utilities, recoveries = [], []
        for seed in config["seeds"]:
            trainer, _, _ = _select_lr(
                config, dataset, seed, labeled_count, checkpoint_path,
                protection=protection,
            )
            adversary = trainer.parties[-1]
            attack_cfg = privacy.McAttackConfig(
                aux_labeled_count=priv["aux_labeled_count"],
                head_hidden_dim=priv["head_hidden_dim"],
                epochs=priv["attack_epochs"],
                encoder_source=priv["encoder_source"],
            )
            aux_ids = dataset.labeled_ids[: priv["aux_labeled_count"]]
            recovery = privacy.mc_attack(
                adversary, attack_cfg, aux_ids, dataset.test_ids,
                dataset.num_classes, np.random.default_rng((seed, 7)),
            )
            utilities.append(trainer.accuracy(dataset.test_ids))
            recoveries.append(recovery)
            per_seed.append({
                "lambda_f": float(lam), "seed": seed,
                "test_top1": utilities[-1], "recovery_top1": recovery,
            })
        curve.add_point(float(lam), float(np.mean(utilities)), float(np.mean(recoveries)))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    privacy.export_tradeoff_csv(
        out_dir / "tradeoff.csv", [curve], lambda_p=config["pipeline"]["lambda_p"]
    )
    atomic_write_json(out_dir / "attack.json", {
        "config_fingerprint": config_fingerprint(config),
        "cap": privacy.cap(curve),
        "points": curve.points,
        "per_seed": per_seed,
    })
    print(f"CAP = {privacy.cap(curve):.6f} over {len(curve.points)} protection strengths")
    return 0


def cmd_report(out_dir):
    path = Path(out_dir) / "report.json"
    if not path.exists():
        raise DataError(f"no report.json in {out_dir}")
    report = json.loads(path.read_text())
    for s in report["summary"]:
        accs = [
            r["test_top1"] for r in report["per_run"]
            if r["labeled_count"] == s["labeled_count"]
        ]
        if abs(float(np.mean(accs)) - s["mean_test_top1"]) > 1e-12:
            raise DataError("report summary disagrees with per-run entries")
        print(
            f"labeled={s['labeled_count']}: test top-1 "
            f"{s['mean_test_top1']:.4f} +- {s['std_test_top1']:.4f} "
            f"over {s['seeds']} seeds"
        )
    return 0


# -- argument plumbing ----------------------------------------------------

def parse_sweep(text):
    if "=" not in text:
        raise ConfigError("sweep must look like key=v1,v2,...")
    key, _, values = text.partition("=")
    if key not in SWEEP_KEYS:
        raise ConfigError(f"unknown sweep key {key!r}; choose from {sorted(SWEEP_KEYS)}")
    try:
        parsed = [float(v) for v in values.split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"non-numeric sweep value in {values!r}") from exc
    if not parsed:
        raise ConfigError("sweep needs at least one value")
    return key, parsed


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vflhssl",
        description="Vertical federated learning simulator with hybrid "
                    "self-supervised pretraining and a privacy harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen-data", "pretrain", "finetune", "attack", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--preset", default=None, choices=sorted(CLI_PRESETS))
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--sweep", default=None, help="key=v1,v2,... parameter sweep")
        if name in ("finetune", "attack"):
            p.add_argument("--checkpoint", default=None,
                           help="checkpoint from a pretrain run")
    return parser


def _run_one(args, config, out_dir):
    if args.command == "gen-data":
        return cmd_gen_data(config, out_dir)
    if args.command == "pretrain":
        return cmd_pretrain(config, out_dir)
    if args.command == "finetune":
        return cmd_finetune(config, out_dir, args.checkpoint)
    if args.command == "attack":
        return cmd_attack(config, out_dir, args.checkpoint)
    if args.command == "report":
        return cmd_report(out_dir)
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, preset=args.preset)
        if args.seed is not None:
            config["seeds"] = [args.seed]
        out_dir = args.out or config["output_dir"]
        if args.sweep:
            key, values = parse_sweep(args.sweep)
            section, field = SWEEP_KEYS[key]
            code = 0
            for value in values:
                swept = copy.deepcopy(config)
                swept[section][field] = value
                sub_dir = Path(out_dir) / f"sweep_{key}_{value:g}"
                print(f"[sweep {key}={value:g}]")
                code = max(code, _run_one(args, swept, sub_dir))
            return code
        return _run_one(args, config, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except VflError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
