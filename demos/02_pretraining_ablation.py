"""Walk through the federated pretraining pipeline and its ablations.

Two parties hold disjoint feature columns of a shared-latent synthetic
dataset. We pretrain encoders four ways — local-only SSL, cross-party
SSL, guided local SSL, and the full hybrid pipeline with partial model
aggregation — then fine-tune each on the same 200 labeled samples with
matched seeds and compare test accuracy. Also prints the message ledger
so you can see exactly what crossed the wire.
"""

import numpy as np

from vflhssl import data, hssl, vfl
from vflhssl.nn import ModelConfig
from vflhssl.ssl import SslVariant

SPEC = data.SyntheticSpec(
    latent_dim=10, classes=10, parties=2, feature_dims=(24, 24),
    noise_scales=(3.0, 3.0), cat_cardinalities=((), ()), class_sep=2.0,
    aligned=200, unaligned=(450, 150), labeled=200, test=1600, seed=0,
)

METHODS = ["FedLocalSSL", "FedCSSL", "FedGSSL", "FedHSSL"]
SEEDS = range(3)


def run_method(ds, preset, seed):
    cfg = ModelConfig(
        input_dim=1, num_classes=10, num_parties=2, hidden_dim=32,
        repr_dim=16, projector_dims=(16, 16, 16), predictor_dims=(8, 16),
        moco_projector_out=16,
        finetune_encoders=hssl.preset_finetune_encoders(preset),
    )
    parties = vfl.make_parties(ds, cfg, "simsiam", seed)
    network = hssl.make_network(2)
    pipeline = hssl.PipelineConfig.from_preset(
        preset, variant=SslVariant("simsiam"), global_iterations=10, batch_size=128
    )
    hssl.pretrain(ds, parties, network, pipeline, seed=seed)
    messages = dict(network.counts)

    trainer = vfl.SplitTrainer(parties, hssl.make_network(2), 0.01)
    rng = np.random.default_rng((seed, 100, 0))
    accs = []
    for epoch in range(10):
        for batch in data.batches(ds.labeled_ids, 64, rng=rng):
            trainer.train_step(batch)
        if epoch >= 7:
            accs.append(trainer.accuracy(ds.test_ids))
    return float(np.mean(accs)), messages


def main():
    ds = data.generate_synthetic(SPEC)
    print(f"dataset: {ds.num_classes} classes, aligned={len(ds.aligned_ids)}, "
          f"labeled={len(ds.labeled_ids)}, test={len(ds.test_ids)}\n")

    for preset in METHODS:
        scores = []
        for seed in SEEDS:
            acc, messages = run_method(ds, preset, seed)
            scores.append(acc)
        mean, std = np.mean(scores), np.std(scores)
        print(f"{preset:12s}  test top-1 {mean:.4f} ± {std:.4f}   "
              f"pretrain messages {messages or '{}'}")

    print("\nFedLocalSSL exchanges nothing during pretraining; the cross-party "
          "methods ship one representation per direction per batch, and the "
          "hybrid pipeline adds two model blobs per party per aggregation round.")


if __name__ == "__main__":
    main()
