"""Walk through the federated pretraining pipeline and its ablations.

Two parties hold disjoint feature columns of a shared-latent synthetic
dataset. For each rung of the ablation ladder (local-only SSL, cross-party
SSL, guided local SSL, and the full hybrid pipeline with partial model
aggregation) and each seed, the demo runs the CLI's own `vflhssl pretrain`
and `vflhssl finetune` at that `--seed`, so every seed pretrains its own
checkpoint. It then prints the mean test top-1 from each `report.json` and
the frames and wire bytes per message type from `trace.json`, so you can
see exactly what crossed the wire. Outputs go under runs/demo02.
"""

import contextlib
import io
import json
import statistics
import sys
from dataclasses import asdict
from pathlib import Path

from vflhssl import cli, data

SPEC = data.SyntheticSpec(
    latent_dim=10, classes=10, parties=2, feature_dims=(24, 24),
    noise_scales=(3.0, 3.0), cat_cardinalities=((), ()), class_sep=2.0,
    aligned=200, unaligned=(450, 150), labeled=200, test=1600, seed=0,
)
SEEDS = range(3)
PRESETS = ("fedlocal-simsiam", "fedcssl", "fedgssl", "fedhssl-simsiam")  # the ladder, bottom up
OUT = Path("runs/demo02")


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
    }))

    for preset in PRESETS:
        scores = []
        for seed in SEEDS:
            out = OUT / preset / f"seed{seed}"
            common = ("--config", str(config), "--preset", preset, "--seed", str(seed),
                      "--out", str(out))
            run("pretrain", *common)
            run("finetune", *common, "--checkpoint", str(out / "checkpoint.bin"))
            report = json.loads((out / "report.json").read_text())
            scores.append(report["summary"][0]["mean_test_top1"])
        trace = json.loads((out / "trace.json").read_text())
        print(f"{cli.CLI_PRESETS[preset][0]:12s}  test top-1 {statistics.mean(scores):.4f} "
              f"± {statistics.pstdev(scores):.4f}   "
              f"pretrain frames {trace['message_counts']}, bytes {trace['message_bytes']}")

    print("\nFedLocalSSL exchanges nothing during pretraining; the cross-party "
          "methods ship one representation per direction per batch, and the "
          "hybrid pipeline adds two model blobs per party per aggregation round.")


if __name__ == "__main__":
    main()
