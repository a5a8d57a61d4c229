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
import hashlib
import inspect
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import data, hssl, nn, privacy, vfl
from .errors import ConfigError, DataError, ValidationError, VflError, require_distinct

CLI_PRESETS = {
    # name -> (hssl.METHODS key or None for plain split training, SSL
    # variant, fine-tune encoders)
    "fedhssl-simsiam": ("FedHSSL", "simsiam", "concat"),
    "fedhssl-byol": ("FedHSSL", "byol", "concat"),
    "fedhssl-moco": ("FedHSSL", "moco", "concat"),
    "fedlocal-simsiam": ("FedLocalSSL", "simsiam", "local"),
    "fedlocal-byol": ("FedLocalSSL", "byol", "local"),
    "fedlocal-moco": ("FedLocalSSL", "moco", "local"),
    "fedcssl": ("FedCSSL", "simsiam", "cross"),
    "fedgssl": ("FedGSSL", "simsiam", "concat"),
    "fedsplitnn": (None, "simsiam", "local"),
}

SWEEP_KEYS = {"gamma": ("pipeline", "gamma"), "aligned": ("pipeline", "aligned_fraction")}

# nn.ModelConfig fields that the dataset sets rather than the model section
DATASET_FIELDS = ("input_dim", "num_classes", "num_parties", "cat_cardinalities")


def _defaults(cls, skip=()):
    """A dataclass's field defaults as a config section, tuples as lists."""
    return json.loads(json.dumps({f.name: f.default for f in fields(cls) if f.name not in skip}))


@dataclass
class FinetuneConfig:
    """The ``finetune`` section: what ``_select_lr`` trains at each labeled count."""

    labeled_counts: tuple = (200,)
    lr_candidates: tuple = (0.005, 0.01, 0.03)
    epochs: int = 30
    batch_size: int = 64

    def __post_init__(self):
        require_distinct("finetune.labeled_counts", self.labeled_counts)
        require_distinct("finetune.lr_candidates", self.lr_candidates)
        if min(self.labeled_counts) < 2:  # validation takes one id, so 1 leaves none to train
            raise ConfigError(f"finetune.labeled_counts must be >= 2, got {self.labeled_counts}")
        if min(self.lr_candidates) <= 0:
            raise ConfigError("finetune.lr_candidates must be positive")
        if self.batch_size < 1:
            raise ConfigError(f"finetune.batch_size must be >= 1, got {self.batch_size}")


DEFAULT_CONFIG = {
    # Each section but the last two is the fields of the object it builds.
    "data": {"synthetic": _defaults(data.SyntheticSpec)},
    "model": _defaults(nn.ModelConfig, skip=DATASET_FIELDS),
    "pipeline": _defaults(hssl.PipelineConfig),
    "finetune": _defaults(FinetuneConfig),
    "privacy": _defaults(privacy.PrivacyConfig),
    "seeds": [0, 1, 2, 3, 4],
    "output_dir": "runs",
}


# -- config handling ------------------------------------------------------

# data.csv's keys are load_csv's keyword arguments, each with a value of its shape.
CSV_SHAPES = {
    **{k: p.default for k, p in inspect.signature(data.load_csv).parameters.items()},
    "paths": ["party1.csv"], "cat_cols": [], "labeled_count": 0,
}

# Config values that may also be null: the preset of plain split training,
# and the data.csv arguments whose load_csv default is None.
NULLABLE = {"pipeline.preset", "data.csv.cat_cols", "data.csv.labeled_count"}

JSON_TYPES = ((type(None), "null"), (bool, "boolean"), ((int, float), "number"),
              (str, "string"), (list, "array"), (dict, "object"))


def _json_type(value):
    return next(name for types, name in JSON_TYPES if isinstance(value, types))


def _conforms(value, default):
    """``value`` has the JSON type of ``default``. A number is finite and
    non-negative, and under an integer default an integer (a count or a
    seed); under a non-empty list it is a non-empty list whose items
    conform to the default's first item."""
    if _json_type(value) != _json_type(default):
        return False
    if _json_type(default) == "number":
        return 0 <= value < math.inf and (isinstance(value, int) or isinstance(default, float))
    if isinstance(default, list) and default:
        return bool(value) and all(_conforms(item, default[0]) for item in value)
    return True


def _check_section(section, given, defaults):
    """Reject unknown keys and values that do not conform to the
    default's type; the values named in NULLABLE may also be null."""
    if _json_type(given) != "object":
        raise ConfigError(f"{section!r} must be an object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")
    for key, value in given.items():
        if not (_conforms(value, defaults[key]) or
                (value is None and f"{section}.{key}" in NULLABLE)):
            raise ConfigError(f"{section}.{key} must be a JSON {_json_type(defaults[key])} shaped "
                              f"like its default (numbers finite and >= 0, counts integer, "
                              f"lists non-empty), got {value!r}")


def load_config(path=None, preset=None):
    """Merge the default config, an optional JSON file and a CLI preset, and
    build each section's object once: every value is checked whatever the command runs."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    user = {}
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_section("config", user, DEFAULT_CONFIG)
    for section, value in user.items():
        if section == "data":
            _check_section("data", value, {"synthetic": {}, "csv": {}})
            if len(value) != 1:
                raise ConfigError("data needs exactly one of 'synthetic' and 'csv', "
                                  f"got {sorted(value)}")
            if "synthetic" in value:
                defaults = DEFAULT_CONFIG["data"]["synthetic"]
                _check_section("data.synthetic", value["synthetic"], defaults)
                value = {"synthetic": {**defaults, **value["synthetic"]}}
                data.SyntheticSpec(**value["synthetic"])
            else:
                _check_section("data.csv", value["csv"], CSV_SHAPES)
                if "paths" not in value["csv"]:
                    raise ConfigError("data.csv needs 'paths'")
            config["data"] = value
        elif isinstance(value, dict):
            _check_section(section, value, DEFAULT_CONFIG[section])
            config[section].update(value)
        else:
            config[section] = value
    pipeline = config["pipeline"]
    if preset is not None:
        if preset not in CLI_PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(CLI_PRESETS)}")
        method, pipeline["variant"], config["model"]["finetune_encoders"] = CLI_PRESETS[preset]
        pipeline.update(preset=method, pretrain=method is not None)
    nn.ModelConfig(input_dim=1, num_classes=1, **config["model"])  # the dataset sets these two
    hssl.PipelineConfig(**pipeline)
    FinetuneConfig(**config["finetune"])
    privacy.PrivacyConfig(**config["privacy"])
    require_distinct("seeds", config["seeds"])
    return config


def config_fingerprint(config):
    """SHA-256 of the data, model and pipeline sections, which fix a checkpoint."""
    core = {k: config[k] for k in ("data", "model", "pipeline")}
    return hashlib.sha256(json.dumps(core, sort_keys=True, default=str).encode()).hexdigest()


def build_dataset(config):
    section = config["data"]
    if "synthetic" in section:
        return data.generate_synthetic(data.SyntheticSpec(**section["synthetic"]))
    return data.load_csv(**section["csv"])


def build_scored_dataset(config):
    """The dataset of a command that fine-tunes and scores on the test
    split: the split must not be empty, and every labeled count must fit
    in the labeled pool, so that no fine-tune runs before a bad one fails."""
    dataset = build_dataset(config)
    if not len(dataset.test_ids):
        raise DataError("finetune and attack score on the test split, which is empty")
    count, pool = max(config["finetune"]["labeled_counts"]), len(dataset.labeled_ids)
    if count > pool:
        raise DataError(f"finetune.labeled_counts entry {count} exceeds the {pool} labeled ids")
    return dataset


def build_model_config(config, dataset):
    # input_dim is replaced per party from its feature block
    return nn.ModelConfig(input_dim=1, num_classes=dataset.num_classes,
                          num_parties=dataset.num_parties, **config["model"])


def atomic_write_json(path, obj):
    data.atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# -- commands -------------------------------------------------------------

def cmd_gen_data(config, out_dir):
    dataset = build_dataset(config)
    out_dir = Path(out_dir)
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


def cmd_pretrain(config, out_dir):
    dataset = build_dataset(config)
    seed = config["seeds"][0]
    nodes = _restore_parties(config, dataset, seed, None)
    net = vfl.Network()
    trace = []
    if config["pipeline"]["pretrain"]:
        trace = hssl.pretrain(dataset, nodes, net, hssl.PipelineConfig(**config["pipeline"]),
                              seed=seed)
    _check_finite("pretraining diverged",
                  [{name: t.values for name, t in p.model.named_params()} for p in nodes])
    out_dir = Path(out_dir)
    nn.save_checkpoint(
        out_dir / "checkpoint.bin", [p.model for p in nodes], config_fingerprint(config),
        seeds=[seed],
    )
    atomic_write_json(out_dir / "trace.json", {
        "config_fingerprint": config_fingerprint(config),
        "seed": seed,
        "records": trace,
        "message_counts": dict(net.counts),
        "message_bytes": dict(net.bytes),
    })
    print(f"wrote checkpoint.bin and trace.json to {out_dir}")
    return 0


def _check_finite(source, party_params):
    """Refuse a diverged model: ``party_params`` holds one {name: array}
    per party, and an array holding NaN or ±inf is no model to save or score."""
    for p, blob in enumerate(party_params):
        for name, values in blob.items():
            if not np.isfinite(values).all():
                raise ValidationError(f"{source}: party {p + 1} array {name!r} "
                                      f"holds non-finite values")


def _load_checkpoint(config, path):
    """The fingerprint-checked, finite checkpoint of a command, or None."""
    if path is None:
        return None
    checkpoint = nn.load_checkpoint(path, expect_fingerprint=config_fingerprint(config))
    _check_finite(f"checkpoint {path}", checkpoint.party_params)
    return checkpoint


def _restore_parties(config, dataset, seed, checkpoint):
    """Fresh parties of ``seed``, holding ``checkpoint``'s values if one is given."""
    cfg = build_model_config(config, dataset)
    variant = config["pipeline"]["variant"]
    nodes = vfl.make_parties(dataset, cfg, variant, seed)
    if checkpoint is not None:
        # restore_into copies values, so candidates share no arrays.
        checkpoint.restore_into([p.model for p in nodes])
    return nodes


def _select_lr(config, dataset, seed, labeled_count, checkpoint, lambda_f=0.0):
    """Fine-tune one split network per lr candidate; returns the
    (trainer, val_acc, lr) of the best by validation accuracy. The
    candidates differ in their lr alone: one labeled subset less a 20%
    validation cut, one batch order and one stream of ISO noise (lambda_f)
    serve them all. A diverged candidate (non-finite validation logits)
    ranks last: its argmax predicts class 0, and that share is no score."""
    ft = config["finetune"]
    pool = dataset.labeled_ids
    chosen = pool[data.stream(seed, "labeled_subset").permutation(len(pool))][:labeled_count]
    n_val = max(1, int(round(0.2 * len(chosen))))
    val_ids, train_ids = chosen[:n_val], chosen[n_val:]
    val_labels = dataset.label_array(val_ids)
    shuffle = data.stream(seed, "finetune_shuffle")
    schedule = [batch for _ in range(ft["epochs"])
                for batch in data.batches(train_ids, ft["batch_size"], rng=shuffle)]
    best, best_rank = None, None
    for lr in ft["lr_candidates"]:
        trainer = vfl.SplitTrainer(_restore_parties(config, dataset, seed, checkpoint),
                                   vfl.Network(), lr, lambda_f=lambda_f,
                                   noise_rng=data.stream(seed, "finetune_noise"))
        for batch in schedule:
            trainer.train_step(batch)
        val_logits = trainer.logits(val_ids)
        finite = bool(np.isfinite(val_logits).all())
        if not finite:
            print(f"warning: seed {seed}, lr {lr}, lambda_f {lambda_f}: diverged", file=sys.stderr)
        val_acc = privacy.metric_top1(val_logits.argmax(axis=1), val_labels)
        if best is None or (finite, val_acc) > best_rank:
            best, best_rank = (trainer, val_acc, lr), (finite, val_acc)
    return best


def cmd_finetune(config, out_dir, checkpoint_path):
    dataset = build_scored_dataset(config)
    started = time.time()
    checkpoint = _load_checkpoint(config, checkpoint_path)
    rows = []
    for labeled_count in config["finetune"]["labeled_counts"]:
        for seed in config["seeds"]:
            trainer, val_acc, lr = _select_lr(config, dataset, seed, labeled_count, checkpoint)
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
    }
    out_dir = Path(out_dir)
    atomic_write_json(out_dir / "report.json", report)
    atomic_write_json(out_dir / "timings.json", {"wall_clock_sec": time.time() - started})
    lines = ["labeled_count,seed,learning_rate,val_top1,test_top1"]
    for r in rows:
        lines.append(
            f"{r['labeled_count']},{r['seed']},{r['learning_rate']},"
            f"{r['val_top1']},{r['test_top1']}"
        )
    data.atomic_write(out_dir / "report.csv", "\n".join(lines) + "\n")
    for s in summary:
        print(_summary_line(s))
    return 0


def _summary_line(s):
    return (f"labeled={s['labeled_count']}: test top-1 "
            f"{s['mean_test_top1']:.4f} +- {s['std_test_top1']:.4f} over {s['seeds']} seeds")


def auxiliary_ids(priv, dataset):
    """The attacker's labels: the labeled pool's first ``aux_labeled_count`` ids."""
    count = priv["aux_labeled_count"]
    if not dataset.num_classes <= count <= len(dataset.labeled_ids):
        raise ConfigError(f"privacy.aux_labeled_count must lie between the {dataset.num_classes} "
                          f"classes and the {len(dataset.labeled_ids)} labeled training ids, "
                          f"got {count}")
    return dataset.labeled_ids[:count]


def cmd_attack(config, out_dir, checkpoint_path):
    priv = config["privacy"]
    dataset = build_scored_dataset(config)
    checkpoint = _load_checkpoint(config, checkpoint_path)
    labeled_count = config["finetune"]["labeled_counts"][0]
    aux_ids = auxiliary_ids(priv, dataset)
    curve = privacy.TradeoffCurve(
        method=config["pipeline"]["preset"] or "FedSplitNN",
        dataset="synthetic" if "synthetic" in config["data"] else "csv",
    )
    per_seed = []
    for lam in priv["lambda_f"]:
        # Each seed's fine-tune is scored as it ends and only its adversary
        # outlives it; one attack then fits a head to every seed's adversary.
        utilities, adversaries = [], []
        for seed in config["seeds"]:
            trainer, _, _ = _select_lr(
                config, dataset, seed, labeled_count, checkpoint, lambda_f=float(lam)
            )
            utilities.append(trainer.accuracy(dataset.test_ids))
            adversaries.append(trainer.parties[-1])
            del trainer  # before the next seed's fine-tune
        recoveries = privacy.mc_attack(
            adversaries, aux_ids, dataset.test_ids, dataset.label_array, dataset.num_classes,
            [data.stream(seed, "attack_head") for seed in config["seeds"]],
            head_hidden_dim=priv["head_hidden_dim"], epochs=priv["attack_epochs"],
        )
        per_seed += [
            {"lambda_f": float(lam), "seed": seed, "test_top1": utility, "recovery_top1": recovery}
            for seed, utility, recovery in zip(config["seeds"], utilities, recoveries)
        ]
        curve.add_point(float(lam), float(np.mean(utilities)), float(np.mean(recoveries)))
    out_dir = Path(out_dir)
    privacy.export_tradeoff_csv(
        out_dir / "tradeoff.csv", [curve], lambda_p=config["pipeline"]["lambda_p"]
    )
    cap = privacy.cap(curve)
    atomic_write_json(out_dir / "attack.json", {
        "config_fingerprint": config_fingerprint(config),
        "cap": cap,
        "points": curve.points,
        "per_seed": per_seed,
    })
    print(f"CAP = {cap:.6f} over {len(curve.points)} lambda_f values")
    return 0


def cmd_report(out_dir):
    path = Path(out_dir) / "report.json"
    try:
        text = path.read_text()
    except FileNotFoundError as exc:
        raise DataError(f"no report.json in {out_dir}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        report = json.loads(text)
        covered = sorted(s["labeled_count"] for s in report["summary"])
        if covered != sorted({*covered, *(r["labeled_count"] for r in report["per_run"])}):
            raise DataError("report summary repeats a labeled count or misses a per-run one")
        for s in report["summary"]:
            accs = [
                r["test_top1"] for r in report["per_run"]
                if r["labeled_count"] == s["labeled_count"]
            ]
            given = (s["mean_test_top1"], s["std_test_top1"], s["seeds"])
            # A NaN compares false, so it never agrees.
            if not accs or not all(abs(float(stat(accs)) - value) <= 1e-12
                                   for stat, value in zip((np.mean, np.std, len), given)):
                raise DataError("report summary disagrees with per-run entries")
            print(_summary_line(s))
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"malformed report.json in {out_dir}: {exc!r}") from exc
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
    if not all(map(math.isfinite, parsed)):
        raise ConfigError(f"sweep values must be finite, got {values!r}")
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


COMMANDS = {"gen-data": cmd_gen_data, "pretrain": cmd_pretrain,
            "finetune": cmd_finetune, "attack": cmd_attack}


@np.errstate(all="ignore")  # pretrain refuses a diverged model, and _select_lr reports one
def _run_one(args, config, out_dir):
    if args.command == "report":
        return cmd_report(out_dir)
    checkpoint = (args.checkpoint,) if args.command in ("finetune", "attack") else ()
    return COMMANDS[args.command](config, out_dir, *checkpoint)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, preset=args.preset)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be non-negative, got {args.seed}")
            config["seeds"] = [args.seed]
        out_dir = args.out or config["output_dir"]
        if args.sweep:
            key, values = parse_sweep(args.sweep)
            section, field = SWEEP_KEYS[key]
            sub_dirs = [Path(out_dir) / f"sweep_{key}_{value:g}" for value in values]
            if len(set(sub_dirs)) != len(sub_dirs):
                raise ConfigError(f"--sweep values {values} name one output directory twice "
                                  f"(sweep_{key}_<value:g>)")
            for value in values:  # every swept pipeline is checked before any runs
                hssl.PipelineConfig(**{**config[section], field: value})
            code = 0
            for value, sub_dir in zip(values, sub_dirs):
                swept = copy.deepcopy(config)
                swept[section][field] = value
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
    # OSError: an output path the command cannot write; MemoryError: an
    # array numpy cannot allocate, as a huge model.hidden_dim asks for.
    except (VflError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
