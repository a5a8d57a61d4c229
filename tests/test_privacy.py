import os

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

    def test_noise_without_a_generator_refused(self):
        d = np.ones((2, 3))
        with pytest.raises(ValidationError, match="generator"):
            privacy.iso_perturb(d, 0.5, None)
        assert (d == 1.0).all()
        assert privacy.iso_perturb(d, 0.0, None).tobytes() == d.tobytes()

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda(self, rng, lam):
        with pytest.raises(ValidationError):
            privacy.iso_perturb(np.ones((1, 2)), lam, rng)


class TestMetrics:
    def test_top1(self):
        assert privacy.metric_top1([1, 2, 3, 1], [1, 2, 0, 0]) == 0.5
        with pytest.raises(ValidationError):
            privacy.metric_top1([], [])

    @pytest.mark.parametrize("predictions,labels", [([1], [1, 1, 0]), ([1, 1, 0], [1])])
    def test_top1_lengths_must_agree(self, predictions, labels):
        with pytest.raises(ValidationError):
            privacy.metric_top1(predictions, labels)


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

    def test_interrupted_csv_export_keeps_previous_file(self, tmp_path):
        curve = privacy.TradeoffCurve(method="m", dataset="d")
        curve.add_point(1.0, 0.9, 0.6)
        path = tmp_path / "curve.csv"
        privacy.export_tradeoff_csv(path, [curve])
        good = path.read_bytes()
        assert good.count(b"\r\n") == 2  # the csv module's line ends

        class Unprintable:
            def __str__(self):
                raise RuntimeError("interrupted")

        curve.points.append((5.0, Unprintable(), 0.5))
        with pytest.raises(RuntimeError, match="interrupted"):
            privacy.export_tradeoff_csv(path, [curve])
        assert path.read_bytes() == good
        assert os.listdir(tmp_path) == ["curve.csv"]


def adversary_dataset(classes=2, seed=0, sep=4.0, noise=0.0):
    spec = data.SyntheticSpec(
        latent_dim=4, classes=classes, parties=2, feature_dims=(6, 6),
        noise_scales=(noise, noise), cat_cardinalities=((), ()),
        class_sep=sep, aligned=200, unaligned=(20, 20),
        labeled=120, test=100, seed=seed,
    )
    return data.generate_synthetic(spec)


class IdentityAdversary:
    """Oracle party whose split-network representation is its raw features."""

    def __init__(self, dataset, party_id=2):
        self.block = dataset.parties[party_id - 1]

    def finetune_forward(self, ids):
        cont, _ = self.block.rows(ids)
        return T.Tensor(cont)


def per_head_attack(adversary, aux_ids, eval_ids, labels, num_classes, rng, *,
                    head_hidden_dim, epochs):
    """One head fitted on its own: the loop that the stacked ``mc_attack``
    replaces, kept as the reference it must equal bit for bit. Returns the
    recovery and the head's parameters."""
    with T.no_grad():
        x_aux = adversary.finetune_forward(aux_ids).values
        x_eval = adversary.finetune_forward(eval_ids).values
    y_aux = labels(aux_ids)
    head = nn.MLP([x_aux.shape[1], head_hidden_dim, num_classes], rng)
    opt = T.SgdOptimizer(head.params(), privacy.ATTACK_LR, momentum=0.9)
    for _ in range(epochs):
        for sel in data.batches(np.arange(len(aux_ids)), privacy.ATTACK_BATCH, rng=rng):
            loss = T.softmax_cross_entropy(head.forward(T.Tensor(x_aux[sel])), y_aux[sel])
            loss.backward()
            opt.step()
    with T.no_grad():
        recovered = head.forward(T.Tensor(x_eval)).values.argmax(axis=1)
    return privacy.metric_top1(recovered, labels(eval_ids)), [p.values for p in head.params()]


class NoisyAdversary(IdentityAdversary):
    """Raw features plus fixed noise of scale ``sigma``; NaN for a diverged fine-tune."""

    def __init__(self, dataset, sigma, seed):
        super().__init__(dataset)
        self.sigma, self.seed = sigma, seed

    def finetune_forward(self, ids):
        cont = super().finetune_forward(ids).values
        noise = np.random.default_rng((self.seed, len(ids))).standard_normal(cont.shape)
        return T.Tensor(cont + self.sigma * noise)


class TestMcAttack:
    def test_stacked_heads_equal_per_head_fits(self, monkeypatch):
        ds = adversary_dataset(classes=3, sep=1.0)
        # 70 auxiliary ids: one full batch of 64 and a partial one per epoch.
        aux_ids, eval_ids = ds.labeled_ids[:70], ds.test_ids
        sigmas = [0.0, 2.0, np.nan, 0.5]  # the NaN slice stands for a diverged lambda_f = 25
        adversaries = [NoisyAdversary(ds, sigma, seed) for seed, sigma in enumerate(sigmas)]
        seeds = [(s, 7) for s in range(len(sigmas))]
        kwargs = dict(head_hidden_dim=16, epochs=12)
        packed = []

        class Spy(T.SgdOptimizer):
            def __init__(self, params, *args, **kw):
                super().__init__(params, *args, **kw)
                packed.append(self.params)

        monkeypatch.setattr(T, "SgdOptimizer", Spy)
        recoveries = privacy.mc_attack(adversaries, aux_ids, eval_ids, ds.label_array, 3,
                                       [np.random.default_rng(s) for s in seeds], **kwargs)
        monkeypatch.undo()
        [stacked] = packed
        for s, (adversary, seed) in enumerate(zip(adversaries, seeds)):
            recovery, params = per_head_attack(adversary, aux_ids, eval_ids, ds.label_array, 3,
                                               np.random.default_rng(seed), **kwargs)
            assert recoveries[s] == recovery, s
            assert len(stacked) == len(params)
            for p, ref in zip(stacked, params):
                assert p.values[s].tobytes() == ref.tobytes(), s
            assert np.isnan(params[0]).all() == (s == 2)
        assert recoveries[0] > 0.6  # the heads learned something

    def test_separable_oracle_recovers_labels(self):
        ds = adversary_dataset()
        adv = IdentityAdversary(ds)
        [rec] = privacy.mc_attack(
            [adv], ds.labeled_ids[:80], ds.test_ids, ds.label_array, ds.num_classes,
            [np.random.default_rng(0)], head_hidden_dim=32, epochs=60,
        )
        assert rec > 0.9

    def test_chance_level_on_shuffled_labels(self):
        ds = adversary_dataset(classes=4)
        shuffler = np.random.default_rng(42)
        keys = list(ds.labels)
        ds.labels = {k: int(shuffler.integers(4)) for k in keys}
        adv = IdentityAdversary(ds)
        [rec] = privacy.mc_attack(
            [adv], ds.labeled_ids[:80], ds.test_ids, ds.label_array, 4, [np.random.default_rng(0)],
            head_hidden_dim=32, epochs=60,
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
            [adv], ds.labeled_ids[:40], ds.test_ids, ds.label_array, 2, [np.random.default_rng(0)],
            head_hidden_dim=32, epochs=3,
        )
        for name, p in adv.model.named_params():
            np.testing.assert_array_equal(p.values, before[name], err_msg=name)

    def test_labels_asked_only_for_aux_and_eval_ids(self):
        ds = adversary_dataset()
        aux_ids, eval_ids = ds.labeled_ids[:40], ds.test_ids
        asked = []

        def spy(ids):
            asked.append(sorted(map(int, ids)))
            return ds.label_array(ids)

        privacy.mc_attack(
            [IdentityAdversary(ds)], aux_ids, eval_ids, spy, 2, [np.random.default_rng(0)],
            head_hidden_dim=8, epochs=1,
        )
        assert sorted(asked) == sorted([sorted(map(int, aux_ids)), sorted(map(int, eval_ids))])

    def test_one_rng_per_adversary(self):
        ds = adversary_dataset()
        adv = IdentityAdversary(ds)
        for adversaries, rngs in (([adv, adv], [np.random.default_rng(0)]), ([], [])):
            with pytest.raises(ValidationError, match="one rng per adversary"):
                privacy.mc_attack(adversaries, ds.labeled_ids[:10], ds.test_ids, ds.label_array,
                                  2, rngs, head_hidden_dim=4, epochs=1)

    def test_overlapping_ids_rejected(self):
        ds = adversary_dataset()
        adv = IdentityAdversary(ds)
        with pytest.raises(ConfigError, match="disjoint"):
            privacy.mc_attack(
                [adv], ds.labeled_ids[:10], ds.labeled_ids[5:15], ds.label_array, 2,
                [np.random.default_rng(0)], head_hidden_dim=32, epochs=100,
            )

    def test_deterministic(self):
        ds = adversary_dataset()
        adv = IdentityAdversary(ds)
        args = ([adv], ds.labeled_ids[:40], ds.test_ids, ds.label_array, 2)
        a = privacy.mc_attack(*args, [np.random.default_rng(3)], head_hidden_dim=32, epochs=10)
        b = privacy.mc_attack(*args, [np.random.default_rng(3)], head_hidden_dim=32, epochs=10)
        assert a == b
