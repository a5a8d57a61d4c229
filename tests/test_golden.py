"""Golden outputs: the SHA-256 of each file that each CLI case below writes,
pinned in golden.json. Run as a script, this file prints ``case file old →
new`` for each digest that moved and exits 1 if any moved; ``--write``
rewrites the manifest instead:

    PYTHONPATH=src python tests/test_golden.py [--write]
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from vflhssl import cli

from conftest import TINY

MANIFEST = Path(__file__).with_name("golden.json")
OUTPUTS = {"pretrain": ("checkpoint.bin", "trace.json"),
           "finetune": ("report.csv", "report.json"),
           "attack": ("attack.json", "tradeoff.csv")}


# A case's commands run from one directory, with relative paths and its
# input files beside cfg.json; finetune and attack read pretrain's
# checkpoint.bin unless `checkpoint` is False.
Case = namedtuple("Case", "config preset commands checkpoint files",
                  defaults=(None, ("pretrain", "finetune", "attack"), True, {}))


def categorical_csv():
    """Party 1 has continuous and categorical columns, party 2 only
    categorical ones, so every tower's input goes through embeddings."""
    colours, sizes, shapes = ["red", "green", "blue"], ["s", "m", "l", "xl"], ["o", "x"]
    p1 = ["id,x0,c0,x1,label"] + [
        f"{i},{(i * 37 % 101) / 10},{colours[i * 7 % 3]},{(i * 13 % 17) - 8},{i % 3}"
        for i in range(80)
    ]
    p2 = ["id,c0,c1"] + [
        f"{i},{sizes[(i * 5 + i // 7) % 4]},{shapes[i * i % 5 % 2]}"
        for i in [*range(60), *range(100, 120)]
    ]
    return {"p1.csv": "\n".join(p1) + "\n", "p2.csv": "\n".join(p2) + "\n"}


# Two lr candidates over two seeds: the selected lr differs between the seeds.
MODES = {**TINY, "finetune": {**TINY["finetune"], "lr_candidates": [0.01, 0.03]},
         "seeds": [0, 1]}
# MODES with categorical columns at both parties and ISO noise in both phases;
# lambda_f 5 overflows, and the outputs are pinned as they are. The top-1
# scores of 400 test rows and an attack head of 30 epochs on 40 labels move
# when the attack's lr moves by 1%.
PRESETS = {**MODES, "data": {"synthetic": {**TINY["data"]["synthetic"], "test": 400,
                                           "cat_cardinalities": [[3], [4, 2]]}},
           "pipeline": {**TINY["pipeline"], "lambda_p": 0.5},
           "privacy": {**TINY["privacy"], "lambda_f": [1.0, 5.0], "attack_epochs": 30,
                       "aux_labeled_count": 40}}
THREE_PARTY = {
    "data": {"synthetic": {
        "classes": 3, "parties": 3, "aligned": 60, "unaligned": [30, 30, 30],
        "labeled": 48, "test": 30, "feature_dims": [6, 5, 4],
        "noise_scales": [0.5, 1.0, 1.5], "cat_cardinalities": [[], [], []],
        "latent_dim": 4, "class_sep": 2.0,
    }},
    "pipeline": {"global_iterations": 2, "batch_size": 32, "local_updates": 2,
                 "lambda_p": 0.5},
    "finetune": {"labeled_counts": [32], "lr_candidates": [0.03], "epochs": 3,
                 "batch_size": 32},
    "privacy": {"lambda_f": [1.0, 5.0], "aux_labeled_count": 15, "attack_epochs": 5},
    "seeds": [0],
}

CASES = {
    # Step 2 alone under MoCo: each party's local_a and local_b queues
    # supply the negatives, and no guidance term joins the loss.
    "local-moco": Case(TINY, "fedlocal-moco", ("pretrain",)),
    # The config fingerprint hashes data.csv.paths, so they stay relative.
    "categorical-csv": Case(
        {**TINY, "data": {"csv": {"paths": ["p1.csv", "p2.csv"], "test_fraction": 0.25,
                                  "cat_cols": [["c0"], ["c0", "c1"]]}}},
        commands=("pretrain", "finetune"), checkpoint=False, files=categorical_csv()),
    # Two peers per exchange at party 1, two updates per exchange, ISO
    # noise on party 1's Repr and PMA blob, and a noisy split network under attack.
    "three-party-moco": Case(THREE_PARTY, "fedhssl-moco", ("pretrain", "attack")),
    # The local-only and cross-only fine-tune towers, and untrained encoders;
    # finetune-local and finetune-no-pretraining write the same report.csv.
    "finetune-local": Case(MODES, "fedlocal-simsiam"),
    "finetune-cross": Case(MODES, "fedcssl"),
    "finetune-no-pretraining": Case(MODES, "fedsplitnn"),
    "no-preset": Case(PRESETS),
    **{f"preset-{preset}": Case(PRESETS, preset) for preset in cli.CLI_PRESETS},
}


def run_case(case, workdir):
    """The SHA-256 of each file that ``case``'s commands write in ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in {**case.files, "cfg.json": json.dumps(case.config)}.items():
        (workdir / name).write_text(text)
    preset = ["--preset", case.preset] if case.preset else []
    home = os.getcwd()
    os.chdir(workdir)
    try:
        with np.errstate(all="ignore"), contextlib.redirect_stdout(io.StringIO()):
            for command in case.commands:
                read = ["--checkpoint", "out/checkpoint.bin"] if (
                    command != "pretrain" and case.checkpoint) else []
                code = cli.main([command, "--config", "cfg.json", *preset, "--out", "out", *read])
                assert code == 0, f"{command} exited {code}"
    finally:
        os.chdir(home)
    return {name: hashlib.sha256((workdir / "out" / name).read_bytes()).hexdigest()
            for command in case.commands for name in OUTPUTS[command]}


def moves(old, new):
    """``case file old → new`` for each digest that differs; '-' is no digest."""
    for case in sorted(set(old) | set(new)):
        before, after = old.get(case, {}), new.get(case, {})
        for name in sorted(set(before) | set(after)):
            if before.get(name) != after.get(name):
                yield f"{case} {name} {before.get(name, '-')} → {after.get(name, '-')}"


def test_manifest_names_every_case():
    assert set(json.loads(MANIFEST.read_text())["cases"]) == set(CASES)


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_manifest(name, tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    pinned = {name: manifest["cases"].get(name, {})}
    moved = list(moves(pinned, {name: run_case(CASES[name], tmp_path)}))
    assert not moved, "\n".join(moved + [
        f"manifest from numpy {manifest['numpy']} on {manifest['machine']}; this run numpy "
        f"{np.__version__} on {platform.machine()}. If the move is intended, run "
        f"PYTHONPATH=src python tests/test_golden.py --write"])


def main(argv=None):
    parser = argparse.ArgumentParser(description="Compare every golden case with golden.json.")
    parser.add_argument("--write", action="store_true",
                        help="rewrite golden.json with this run's digests")
    args = parser.parse_args(argv)
    old = json.loads(MANIFEST.read_text())["cases"] if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = {name: run_case(case, Path(tmp) / name) for name, case in CASES.items()}
    moved = list(moves(old, new))
    for line in moved:
        print(line)
    if args.write:
        MANIFEST.write_text(json.dumps({"numpy": np.__version__, "machine": platform.machine(),
                                        "cases": new}, indent=2, sort_keys=True) + "\n")
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
