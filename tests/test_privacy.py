import numpy as np
import pytest

from vflhssl import data, nn, privacy, tensor as T, vfl
from vflhssl.errors import ConfigError, ValidationError


class TestIsoPerturb:
    def test_lambda_zero_bit_exact_and_rng_untouched(self, rng):
        d = rng.normal(size=(4, 6))
        probe = np.random.default_rng(1)
        before = np.random.default_rng(1).standard_normal()
        out = privacy.iso_perturb(d, 0.0, probe)
        np.testing.assert_array_equal(out, d)
        assert out is not d
        assert probe.standard_normal() == before  # no draws consumed

    def test_zero_matrix_stays_zero(self, rng):
        out = privacy.iso_perturb(np.zeros((3, 5)), 10.0, rng)
        np.testing.assert_array_equal(out, np.zeros((3, 5)))

    def test_empirical_std_within_5_percent(self):
        d = np.random.default_rng(0).normal(size=(1, 64))
        lam = 2.0
        sigma = lam * np.linalg.norm(d) / np.sqrt(64)
        rng = np.random.default_rng(1)
        noise = np.concatenate([
            (privacy.iso_perturb(d, lam, rng) - d).ravel() for _ in range(160)
        ])  # 160 * 64 > 1e4 draws
        assert abs(noise.std() - sigma) / sigma < 0.05
        assert abs(noise.mean()) < 5 * sigma / np.sqrt(noise.size)

    def test_scale_equivariance(self):
        d = np.random.default_rng(0).normal(size=(4, 8))
        a = privacy.iso_perturb(d, 1.5, np.random.default_rng(7))
        b = privacy.iso_perturb(3.0 * d, 1.5, np.random.default_rng(7))
        np.testing.assert_allclose(b, 3.0 * a, atol=1e-12)

    def test_1d_input_reshaped(self, rng):
        out = privacy.iso_perturb(np.ones(5), 0.5, rng)
        assert out.shape == (1, 5)

    def test_negative_lambda(self, rng):
        with pytest.raises(ValidationError):
            privacy.iso_perturb(np.ones((1, 2)), -1.0, rng)
        with pytest.raises(ValidationError):
            privacy.IsoConfig(-1.0)

    def test_unknown_target(self):
        with pytest.raises(ConfigError):
            privacy.IsoConfig(1.0, targets=("weights",))


class TestMetrics:
    def test_top1(self):
        assert privacy.metric_top1([1, 2, 3, 1], [1, 2, 0, 0]) == 0.5
        with pytest.raises(ValidationError):
            privacy.metric_top1([], [])

    def test_auc_four_pair_enumeration(self):
        # pos scores 0.9, 0.4 vs neg 0.5, 0.1: three of four pairs ordered
        scores = [0.9, 0.4, 0.5, 0.1]
        labels = [1, 1, 0, 0]
        assert privacy.metric_auc(scores, labels) == 0.75

    def test_auc_perfect_and_ties(self):
        assert privacy.metric_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
        assert privacy.metric_auc([0.5, 0.5], [1, 0]) == 0.5

    def test_auc_needs_both_classes(self):
        with pytest.raises(ValidationError):
            privacy.metric_auc([0.1, 0.2], [1, 1])

    def test_f1_hand_value(self):
        # tp=2, fp=1, fn=1: precision = recall = 2/3
        preds = [1, 1, 1, 0, 0]
        labels = [1, 1, 0, 1, 0]
        assert privacy.metric_f1(preds, labels) == pytest.approx(2 / 3)

    def test_f1_no_true_positives(self):
        assert privacy.metric_f1([0, 0], [1, 1]) == 0.0


class TestCap:
    def test_single_point_product(self):
        curve = privacy.TradeoffCurve()
        curve.add_point(1.0, 0.8, 0.5)
        assert privacy.cap(curve) == pytest.approx(0.40, abs=1e-12)

    def test_three_point_hand_value(self):
        curve = privacy.TradeoffCurve()
        curve.add_point(1.0, 0.9, 0.6)
        curve.add_point(5.0, 0.85, 0.5)
        curve.add_point(25.0, 0.8, 0.45)
        assert privacy.cap(curve) == pytest.approx(0.4083333333333333, abs=1e-9)

    def test_perfect_case(self):
        curve = privacy.TradeoffCurve()
        for lam in (1.0, 2.0):
            curve.add_point(lam, 1.0, 0.0)
        assert privacy.cap(curve) == 1.0

    def test_empty_curve(self):
        with pytest.raises(ValidationError):
            privacy.cap(privacy.TradeoffCurve())

    def test_duplicate_lambda(self):
        curve = privacy.TradeoffCurve()
        curve.add_point(1.0, 0.5, 0.5)
        with pytest.raises(ValidationError):
            curve.add_point(1.0, 0.6, 0.4)

    def test_custom_functions(self):
        curve = privacy.TradeoffCurve()
        curve.add_point(1.0, 0.5, 0.25)
        out = privacy.cap(curve, utility_fn=lambda u: 2 * u, distance_fn=lambda r: r)
        assert out == pytest.approx(0.25)

    def test_csv_export(self, tmp_path):
        curve = privacy.TradeoffCurve(method="fedhssl-simsiam", dataset="synthetic")
        curve.add_point(1.0, 0.9, 0.6)
        curve.add_point(5.0, 0.85, 0.5)
        path = tmp_path / "curve.csv"
        privacy.export_tradeoff_csv(path, [curve], lambda_p=0.0)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("method,dataset,lambda_f")
        assert len(lines) == 3
        assert "fedhssl-simsiam" in lines[1]


def adversary_dataset(classes=2, seed=0, sep=4.0, noise=0.0):
    spec = data.SyntheticSpec(
        latent_dim=4, classes=classes, parties=2, feature_dims=(6, 6),
        noise_scales=(noise, noise), cat_cardinalities=((), ()),
        class_sep=sep, aligned=200, unaligned=(20, 20),
        labeled=120, test=100, seed=seed,
    )
    return data.generate_synthetic(spec)


class IdentityTower:
    """Oracle encoder: passes raw features straight through."""

    def encode(self, cont, cats):
        return T.Tensor(cont)


class IdentityStack:
    local = cross = IdentityTower()

    def finetune_repr(self, cont, cats):
        return T.Tensor(cont)


class IdentityAdversary:
    def __init__(self, dataset, party_id=2):
        self.dataset = dataset
        self.party_id = party_id
        self.stack = IdentityStack()

    def features(self, ids):
        return self.dataset.rows(self.party_id - 1, ids)


class TestMcAttack:
    def test_separable_oracle_recovers_labels(self):
        ds = adversary_dataset()
        adv = IdentityAdversary(ds)
        cfg = privacy.McAttackConfig(aux_labeled_count=80, epochs=60)
        rec = privacy.mc_attack(
            adv, cfg, ds.labeled_ids[:80], ds.test_ids, ds.num_classes,
            np.random.default_rng(0),
        )
        assert rec > 0.9

    def test_chance_level_on_shuffled_labels(self):
        ds = adversary_dataset(classes=4)
        shuffler = np.random.default_rng(42)
        keys = list(ds.labels)
        ds.labels = {k: int(shuffler.integers(4)) for k in keys}
        adv = IdentityAdversary(ds)
        cfg = privacy.McAttackConfig(aux_labeled_count=80, epochs=60)
        rec = privacy.mc_attack(
            adv, cfg, ds.labeled_ids[:80], ds.test_ids, 4, np.random.default_rng(0),
        )
        p = 0.25
        bound = 3 * np.sqrt(p * (1 - p) / len(ds.test_ids))
        assert abs(rec - p) < bound + 0.05

    def test_encoder_frozen_during_attack(self):
        ds = adversary_dataset()
        cfg = nn.ModelConfig(
            input_dim=1, num_classes=2, hidden_dim=16, repr_dim=8,
            projector_dims=(8, 8, 8), predictor_dims=(4, 8), moco_projector_out=8,
        )
        nodes = vfl.make_parties(ds, cfg, "simsiam", 0)
        adv = nodes[1]
        before = {name: p.values.copy() for name, p in adv.model.named_params()}
        privacy.mc_attack(
            adv, privacy.McAttackConfig(epochs=3),
            ds.labeled_ids[:40], ds.test_ids, 2, np.random.default_rng(0),
        )
        for name, p in adv.model.named_params():
            np.testing.assert_array_equal(p.values, before[name], err_msg=name)

    def test_overlapping_ids_rejected(self):
        ds = adversary_dataset()
        adv = IdentityAdversary(ds)
        with pytest.raises(ConfigError, match="disjoint"):
            privacy.mc_attack(
                adv, privacy.McAttackConfig(), ds.labeled_ids[:10],
                ds.labeled_ids[5:15], 2, np.random.default_rng(0),
            )

    def test_deterministic(self):
        ds = adversary_dataset()
        adv = IdentityAdversary(ds)
        cfg = privacy.McAttackConfig(epochs=10)
        args = (adv, cfg, ds.labeled_ids[:40], ds.test_ids, 2)
        a = privacy.mc_attack(*args, np.random.default_rng(3))
        b = privacy.mc_attack(*args, np.random.default_rng(3))
        assert a == b

    def test_bad_encoder_source(self):
        with pytest.raises(ConfigError):
            privacy.McAttackConfig(encoder_source="oracle")
