"""Workload inputs and the closed-form expectations they imply.

Every input is derived from the benchmark seed: the synthetic data seed,
the model seeds and the CSV contents. Sizes never depend on the seed, so
the frame counts, wire bytes and operation counts of a workload are the
same at every seed.
"""

from __future__ import annotations

import copy
import csv
import math
import os
from pathlib import Path

import numpy as np

# vflhssl.cli.DEFAULT_CONFIG as of this benchmark. It is copied rather than
# imported so that a change to the program's defaults cannot change the
# benchmark's inputs between the two commits being compared.
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

FRAME_HEAD = 14  # magic, version, type, round, sender, ndim
ROOT = Path(__file__).resolve().parent.parent  # rounds run with this as cwd


def frame_bytes(shape):
    return FRAME_HEAD + 4 * len(shape) + 8 * math.prod(shape)


def _model_seeds(seed, count):
    return [seed * 16 + j for j in range(count)]


def _hssl_unaligned(seed, root):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    cfg["data"]["synthetic"].update({
        "latent_dim": 64, "class_sep": 0.5, "noise_scales": [1.0, 3.0],
        "feature_dims": [48, 48], "aligned": 256, "unaligned": [2048, 2048],
        "labeled": 256, "test": 1000, "seed": seed,
    })
    cfg["pipeline"].update({"global_iterations": 6})
    cfg["finetune"].update({
        "labeled_counts": [255], "lr_candidates": [0.005, 0.01], "epochs": 40,
    })
    cfg["privacy"].update({"lambda_f": [1.0, 2.0], "attack_epochs": 60})
    cfg["seeds"] = _model_seeds(seed, 3)
    shape = {"parties": 2, "aligned_train": 256}
    return cfg, "fedhssl-simsiam", shape


def _default_privacy(seed, root):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    cfg["finetune"]["lr_candidates"] = [0.003, 0.005, 0.01]
    cfg["privacy"]["lambda_f"] = [2.0, 4.0, 6.0]
    # Seed 0 keeps the dataset and pretraining checkpoint of the default
    # config, whose CAP rests on one checkpoint with recovery near 0.85;
    # drawing them per seed spread CAP over 0.3-0.8 of its median. --seed
    # draws the other four fine-tune and attack seeds; --seed 0 gives the
    # default config's seeds [0, 1, 2, 3, 4].
    cfg["seeds"] = [0] + _model_seeds(seed, 5)[1:]
    shape = {"parties": 2, "aligned_train": 400}
    return cfg, "fedhssl-simsiam", shape


# moco-k4-csv: four parties, each with continuous and categorical columns.
CSV_PARTIES = 4
CSV_ALIGNED = 1000  # every aligned row carries a label at party 1
CSV_TEST_FRACTION = 0.3
CSV_UNALIGNED = 160  # per party
CSV_CONT = 6
CSV_CAT_LEVELS = (3, 5, 7)
CSV_CLASSES = 4
CSV_LATENT = 16
CSV_NOISE = (1.0, 2.0, 2.0, 3.0)  # the last party, the attacker, sees the least
CSV_POPULATION_SEED = 2208


def write_csv_parties(seed, out_dir):
    """Write the four party files of moco-k4-csv; returns their paths.

    The population is fixed: class means in a latent space and each
    party's projection of it. The seed draws the rows (labels, latents,
    noise and row order) and the level edges. Each party observes the
    latent through its projection plus noise; categorical columns quantize
    further projections into string levels.
    """
    pop = np.random.default_rng(CSV_POPULATION_SEED)
    width = CSV_CONT + len(CSV_CAT_LEVELS)
    means = 0.9 * pop.standard_normal((CSV_CLASSES, CSV_LATENT))
    projections = [
        pop.standard_normal((CSV_LATENT, width)) / math.sqrt(CSV_LATENT)
        for _ in range(CSV_PARTIES)
    ]
    rng = np.random.default_rng((seed, 77))
    y_al = rng.integers(0, CSV_CLASSES, size=CSV_ALIGNED)
    u_al = means[y_al] + rng.standard_normal((CSV_ALIGNED, CSV_LATENT))
    al_ids = np.arange(10_000, 10_000 + CSV_ALIGNED)
    next_id = 10_000 + CSV_ALIGNED
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for p, proj in enumerate(projections):
        y_un = rng.integers(0, CSV_CLASSES, size=CSV_UNALIGNED)
        u_un = means[y_un] + rng.standard_normal((CSV_UNALIGNED, CSV_LATENT))
        un_ids = np.arange(next_id, next_id + CSV_UNALIGNED)
        next_id += CSV_UNALIGNED
        ids = np.concatenate([al_ids, un_ids])
        x = np.concatenate([u_al, u_un]) @ proj
        x += CSV_NOISE[p] * rng.standard_normal(x.shape)
        # Level edges: quantiles of the column's projection of 4096 sampled
        # latents, before the party's observation noise.
        edges = [
            np.quantile(means[rng.integers(0, CSV_CLASSES, 4096)] @ proj[:, CSV_CONT + j]
                        + rng.standard_normal(4096) * np.linalg.norm(proj[:, CSV_CONT + j]),
                        np.linspace(0, 1, count + 1)[1:-1])
            for j, count in enumerate(CSV_CAT_LEVELS)
        ]
        levels = [np.searchsorted(e, x[:, CSV_CONT + j]) for j, e in enumerate(edges)]
        header = ["id"] + [f"x{j}" for j in range(CSV_CONT)]
        header += [f"c{j}" for j in range(len(CSV_CAT_LEVELS))]
        if p == 0:
            header.append("label")
        path = out_dir / f"party{p + 1}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for r in rng.permutation(len(ids)):
                row = [int(ids[r])] + [repr(float(v)) for v in x[r, :CSV_CONT]]
                row += [f"L{j}_{int(levels[j][r])}" for j in range(len(CSV_CAT_LEVELS))]
                if p == 0:
                    row.append(int(y_al[r]) if r < CSV_ALIGNED else "")
                writer.writerow(row)
        paths.append(path)
    return paths


def _moco_k4_csv(seed, root):
    paths = write_csv_parties(seed, Path(root) / "csv")
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    # Paths are relative to the checkout: the config fingerprint written
    # into checkpoint.bin hashes them.
    cfg["data"] = {"csv": {
        "paths": [os.path.relpath(p, ROOT) for p in paths],
        "cat_cols": [[f"c{j}" for j in range(len(CSV_CAT_LEVELS))]] * CSV_PARTIES,
        "test_fraction": CSV_TEST_FRACTION,
        "labeled_count": 200,
        "seed": seed,
    }}
    cfg["pipeline"].update({"global_iterations": 4, "local_updates": 2})
    cfg["finetune"].update({
        "labeled_counts": [200], "lr_candidates": [0.005, 0.01], "epochs": 25,
    })
    cfg["privacy"].update({"lambda_f": [1.0, 2.0], "attack_epochs": 60})
    cfg["seeds"] = _model_seeds(seed, 3)
    n_test = round(CSV_TEST_FRACTION * CSV_ALIGNED)
    shape = {"parties": CSV_PARTIES, "aligned_train": CSV_ALIGNED - n_test}
    return cfg, "fedhssl-moco", shape


WORKLOADS = {
    "hssl-unaligned": _hssl_unaligned,
    "moco-k4-csv": _moco_k4_csv,
    "default-privacy": _default_privacy,
}


def build(name, seed, root):
    """Config dict, CLI preset and closed-form expectations of a workload."""
    cfg, preset, shape = WORKLOADS[name](seed, root)
    return cfg, preset, expectations(cfg, preset, shape)


def _batch_sizes(n, batch):
    return [min(batch, n - start) for start in range(0, n, batch)]


def _pma_numel(cfg, preset):
    m = cfg["model"]
    numel = m["hidden_dim"] * m["repr_dim"] + m["repr_dim"]  # f_lt
    if not preset.endswith("moco"):  # MoCo's predictor h_l is the identity
        out, mid = m["projector_dims"][-1], m["predictor_dims"][0]
        numel += out * mid + mid + mid * out + out
    return numel


def expectations(cfg, preset, shape):
    """Frames, wire bytes, trainers, steps and operations per command.

    Derived from the workload config alone:
    - Repr: 2(K-1) frames per aligned batch per cross epoch.
    - ModelBlob: 2K one-dimensional frames per PMA round.
    - Repr + Grad: 2(K-1) frames per fine-tune step.
    - Each frame is 14 + 4*ndim + 8*numel bytes.
    """
    k = shape["parties"]
    p, ft, pr = cfg["pipeline"], cfg["finetune"], cfg["privacy"]
    m = cfg["model"]
    out = {}

    repr_out = m["moco_projector_out"] if preset.endswith("moco") else m["projector_dims"][-1]
    n_cross = math.ceil(p["aligned_fraction"] * shape["aligned_train"])
    per_epoch = [frame_bytes((b, repr_out)) for b in _batch_sizes(n_cross, p["batch_size"])]
    iters = p["global_iterations"]
    blob = frame_bytes((_pma_numel(cfg, preset),))
    out["pretrain"] = {
        "frames": {
            "Repr": iters * p["cross_epochs"] * 2 * (k - 1) * len(per_epoch),
            "ModelBlob": iters * 2 * k,
        },
        "bytes": {
            "Repr": iters * p["cross_epochs"] * 2 * (k - 1) * sum(per_epoch),
            "ModelBlob": iters * 2 * k * blob,
        },
        "trainers": 0, "steps_per_trainer": 0,
    }

    ft_dim = m["repr_dim"] * 2  # FedHSSL fine-tunes the concat of both towers
    labeled = ft["labeled_counts"][0]
    n_val = max(1, round(0.2 * labeled))
    step_batches = _batch_sizes(labeled - n_val, ft["batch_size"])
    steps = ft["epochs"] * len(step_batches)
    step_bytes = ft["epochs"] * sum(frame_bytes((b, ft_dim)) for b in step_batches)
    seeds, lrs = len(cfg["seeds"]), len(ft["lr_candidates"])
    for command, trainers in (
        ("finetune", len(ft["labeled_counts"]) * seeds * lrs),
        ("attack", len(pr["lambda_f"]) * seeds * lrs),
    ):
        out[command] = {
            "frames": {"Repr": trainers * steps * (k - 1), "Grad": trainers * steps * (k - 1)},
            "bytes": {"Repr": trainers * step_bytes * (k - 1), "Grad": trainers * step_bytes * (k - 1)},
            "trainers": trainers, "steps_per_trainer": steps,
        }
    out["attack"]["points"] = len(pr["lambda_f"]) * seeds
    out["finetune"]["runs"] = len(ft["labeled_counts"]) * seeds
    out["wire_bytes"] = sum(sum(out[c]["bytes"].values()) for c in ("pretrain", "finetune", "attack"))
    # Operations: each command, each fine-tuned model (every lr candidate
    # of finetune and attack), and each attack point.
    out["operations"] = 3 + out["finetune"]["trainers"] + out["attack"]["trainers"] + out["attack"]["points"]
    return out
