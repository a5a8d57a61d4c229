"""Privacy/utility trade-off under gradient perturbation.

Fine-tunes a pretrained two-party model while adding calibrated Gaussian
noise (strength lambda) to the gradients returned to the passive party,
then mounts a label-inference attack from that party's frozen encoder.
Prints utility (test top-1), attack recovery, and the aggregate CAP
score, and writes the curve to tradeoff.csv.
"""

import numpy as np

from vflhssl import data, hssl, privacy, vfl
from vflhssl.nn import ModelConfig
from vflhssl.ssl import SslVariant

SPEC = data.SyntheticSpec(
    latent_dim=10, classes=10, parties=2, feature_dims=(24, 24),
    noise_scales=(3.0, 3.0), cat_cardinalities=((), ()), class_sep=2.0,
    aligned=200, unaligned=(450, 150), labeled=200, test=1600, seed=0,
)
LAMBDAS = (0.0, 1.0, 5.0, 25.0)
SEED = 0


def main():
    ds = data.generate_synthetic(SPEC)
    cfg = ModelConfig(
        input_dim=1, num_classes=10, num_parties=2, hidden_dim=32,
        repr_dim=16, projector_dims=(16, 16, 16), predictor_dims=(8, 16),
        moco_projector_out=16, finetune_encoders="concat",
    )
    parties = vfl.make_parties(ds, cfg, "simsiam", SEED)
    pipeline = hssl.PipelineConfig.from_preset(
        "FedHSSL", variant=SslVariant("simsiam"),
        global_iterations=10, batch_size=128,
    )
    hssl.pretrain(ds, parties, hssl.make_network(2), pipeline, seed=SEED)
    snapshot = [
        {name: p.values.copy() for name, p in m.model.named_params()}
        for m in parties
    ]

    curve = privacy.TradeoffCurve(method="fedhssl-simsiam", dataset="synthetic")
    print(f"{'lambda':>8s} {'utility':>8s} {'recovery':>9s}")
    for lam in LAMBDAS:
        for party, blob in zip(parties, snapshot):
            for name, p in party.model.named_params():
                p.values[:] = blob[name]
        protection = privacy.IsoConfig(lam, targets=("finetune_grad",)) if lam else None
        trainer = vfl.SplitTrainer(
            parties, hssl.make_network(2), 0.003, protection=protection,
            protection_rng=np.random.default_rng((SEED, 5)),
        )
        rng = np.random.default_rng((SEED, 100, 0))
        for _ in range(10):
            for batch in data.batches(ds.labeled_ids, 64, rng=rng):
                trainer.train_step(batch)
        utility = trainer.accuracy(ds.test_ids)

        attack = privacy.McAttackConfig(
            aux_labeled_count=80, epochs=60, encoder_source="finetuned_local"
        )
        recovery = privacy.mc_attack(
            trainer.parties[-1], attack, ds.labeled_ids[:80], ds.test_ids,
            ds.num_classes, np.random.default_rng((SEED, 7)),
        )
        print(f"{lam:8.1f} {utility:8.4f} {recovery:9.4f}")
        if lam > 0:
            curve.add_point(lam, utility, recovery)

    print(f"\nCAP (mean over lambda of utility * (1 - recovery)): "
          f"{privacy.cap(curve):.4f}")
    privacy.export_tradeoff_csv("tradeoff.csv", [curve], lambda_p=0.0)
    print("curve written to tradeoff.csv")


if __name__ == "__main__":
    main()
