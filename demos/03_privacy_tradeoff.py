"""Privacy/utility trade-off under gradient perturbation.

Runs the CLI's own `vflhssl pretrain`, then `vflhssl finetune` from that
checkpoint (the reference row: no noise), then `vflhssl attack`, which
fine-tunes the two-party model while adding calibrated Gaussian noise
(strength lambda_f) to the gradients returned to the passive party and
mounts a label-inference attack from that party's frozen encoder. Prints
utility (test top-1), attack recovery and the aggregate CAP score, all
read from `report.json` and `attack.json`. Outputs, `tradeoff.csv`
among them, go under runs/demo03.
"""

import contextlib
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

from vflhssl import cli, data

SPEC = data.SyntheticSpec(
    latent_dim=10, classes=10, parties=2, feature_dims=(24, 24),
    noise_scales=(3.0, 3.0), cat_cardinalities=((), ()), class_sep=2.0,
    aligned=200, unaligned=(450, 150), labeled=200, test=1600, seed=0,
)
LAMBDAS = (1.0, 5.0, 25.0)
SEED = 0
OUT = Path("runs/demo03")


def run(*argv):
    """Run one CLI command with its progress lines muted; stop on a failure."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code:
        sys.exit(f"vflhssl {' '.join(argv)} exited {code}")


def main():
    config = OUT / "config.json"
    data.atomic_write(config, json.dumps({
        "data": {"synthetic": asdict(SPEC)},
        "pipeline": {"global_iterations": 10},
        "finetune": {"labeled_counts": [SPEC.labeled]},
        "privacy": {"lambda_f": list(LAMBDAS), "attack_epochs": 60},
    }))
    common = ("--config", str(config), "--preset", "fedhssl-simsiam", "--seed", str(SEED))
    checkpoint = ("--checkpoint", str(OUT / "checkpoint.bin"))
    run("pretrain", *common, "--out", str(OUT))
    run("finetune", *common, *checkpoint, "--out", str(OUT))
    run("attack", *common, *checkpoint, "--out", str(OUT))
    report = json.loads((OUT / "report.json").read_text())
    attack = json.loads((OUT / "attack.json").read_text())

    print(f"{'lambda':>8s} {'utility':>8s} {'recovery':>9s}")
    print(f"{0.0:8.1f} {report['summary'][0]['mean_test_top1']:8.4f} {'-':>9s}")
    for lam, utility, recovery in attack["points"]:
        print(f"{lam:8.1f} {utility:8.4f} {recovery:9.4f}")
    print(f"\nCAP (mean over lambda of utility * (1 - recovery)): {attack['cap']:.4f}")
    print(f"curve written to {OUT / 'tradeoff.csv'}")


if __name__ == "__main__":
    main()
