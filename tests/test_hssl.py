import numpy as np
import pytest

from vflhssl import data, hssl, nn, tensor as T, vfl
from vflhssl.errors import ConfigError
from vflhssl.ssl import SslVariant


def desk_cfg(**kw):
    base = dict(
        input_dim=1, num_classes=3, hidden_dim=16, repr_dim=8,
        projector_dims=(8, 8, 8), predictor_dims=(4, 8), moco_projector_out=8,
    )
    base.update(kw)
    return nn.ModelConfig(**base)


def desk_dataset(parties=2, aligned=48, seed=5):
    spec = data.SyntheticSpec(
        latent_dim=4, classes=3, parties=parties,
        feature_dims=tuple([6] * parties), noise_scales=tuple([0.5] * parties),
        cat_cardinalities=tuple([()] * parties),
        aligned=aligned, unaligned=tuple([24] * parties),
        labeled=32, test=16, seed=seed,
    )
    return data.generate_synthetic(spec)


def setup(parties=2, variant="simsiam", seed=3, aligned=48):
    ds = desk_dataset(parties=parties, aligned=aligned)
    nodes = vfl.make_parties(ds, desk_cfg(num_parties=parties), variant, seed)
    net = hssl.make_network(parties)
    return ds, nodes, net


def snapshot(node):
    return {name: p.values.copy() for name, p in node.model.named_params()}


def changed_names(node, before):
    return {
        name for name, p in node.model.named_params()
        if not np.array_equal(p.values, before[name])
    }


CROSS_PREFIXES = ("embed_c", "f_c", "projector_c", "h_c")
LOCAL_PREFIXES = ("embed_l", "f_lb", "f_lt", "projector_l", "h_l")


class TestStepIsolation:
    def test_cross_step_touches_only_cross_tower(self):
        ds, nodes, net = setup()
        variant = SslVariant("simsiam")
        opts = {p.party_id: T.SgdOptimizer(p.stack.params_cross(), 0.05) for p in nodes}
        before = [snapshot(p) for p in nodes]
        hssl.cross_party_ssl_epoch(nodes, net, ds.aligned_ids, variant, opts, batch_size=16)
        for node, snap in zip(nodes, before):
            names = changed_names(node, snap)
            assert names, "cross step made no update"
            assert all(n.startswith(CROSS_PREFIXES) for n in names), sorted(names)

    def test_local_step_touches_only_local_tower(self):
        ds, nodes, net = setup()
        node = nodes[0]
        opt = T.SgdOptimizer(node.stack.params_local(), 0.05)
        before = snapshot(node)
        hssl.guided_local_ssl_epoch(
            node, ds.local_ids(0), SslVariant("simsiam"), 0.5,
            data.AugmentationPolicy(0.3), opt, batch_size=16,
            aug_rng=np.random.default_rng(0), shuffle_rng=np.random.default_rng(1),
        )
        names = changed_names(node, before)
        assert names
        assert all(n.startswith(LOCAL_PREFIXES) for n in names), sorted(names)

    def test_local_step_updates_ema_targets_only_for_byol(self):
        ds, nodes, net = setup(variant="byol")
        node = nodes[0]
        opt = T.SgdOptimizer(node.stack.params_local(), 0.05)
        before = snapshot(node)
        hssl.guided_local_ssl_epoch(
            node, ds.local_ids(0), SslVariant("byol"), 0.5,
            data.AugmentationPolicy(0.3), opt, batch_size=16,
            aug_rng=np.random.default_rng(0), shuffle_rng=np.random.default_rng(1),
        )
        names = changed_names(node, before)
        assert any(n.startswith("target.") for n in names)
        assert all(n.startswith(LOCAL_PREFIXES + ("target.",)) for n in names)

    def test_pma_touches_only_aggregation_unit(self):
        ds, nodes, net = setup()
        before = [snapshot(p) for p in nodes]
        hssl.partial_model_aggregation(nodes, net)
        for node, snap in zip(nodes, before):
            names = changed_names(node, snap)
            assert names
            assert all(n.startswith(("f_lt", "h_l")) for n in names), sorted(names)


class TestPma:
    def test_parameters_become_uniform_mean(self):
        ds, nodes, net = setup(parties=3)
        originals = [
            {name: p.values.copy() for name, p in node.stack.named_pma_params()}
            for node in nodes
        ]
        hssl.partial_model_aggregation(nodes, net)
        for node in nodes:
            for name, p in node.stack.named_pma_params():
                expected = np.mean([o[name] for o in originals], axis=0)
                np.testing.assert_allclose(p.values, expected, atol=1e-15)

    def test_all_parties_identical_after(self):
        ds, nodes, net = setup(parties=3)
        hssl.partial_model_aggregation(nodes, net)
        ref = dict(nodes[0].stack.named_pma_params())
        for node in nodes[1:]:
            for name, p in node.stack.named_pma_params():
                np.testing.assert_array_equal(p.values, ref[name].values)

    def test_fixed_point_when_already_equal(self):
        ds, nodes, net = setup(parties=2)
        hssl.partial_model_aggregation(nodes, net)
        before = [snapshot(p) for p in nodes]
        hssl.partial_model_aggregation(nodes, net)
        for node, snap in zip(nodes, before):
            for name, p in node.model.named_params():
                np.testing.assert_array_equal(p.values, snap[name])

    def test_message_counts(self):
        ds, nodes, net = setup(parties=3)
        net.reset_counts()
        hssl.partial_model_aggregation(nodes, net)
        assert net.counts["ModelBlob"] == 6  # 3 uploads + 3 broadcasts


class TestMessageBudget:
    @pytest.mark.parametrize("parties,aligned,batch", [(2, 48, 16), (3, 48, 16), (2, 50, 16)])
    def test_cross_step_repr_count(self, parties, aligned, batch):
        ds, nodes, net = setup(parties=parties, aligned=aligned)
        cfg = hssl.PipelineConfig(
            variant=SslVariant("simsiam"), global_iterations=2,
            steps_guided_local=False, steps_pma=False, gamma=0.0,
            batch_size=batch,
        )
        hssl.pretrain(ds, nodes, net, cfg, seed=0)
        n_batches = int(np.ceil(aligned / batch))
        assert net.counts["Repr"] == 2 * (parties - 1) * n_batches * 2
        assert net.counts["Grad"] == 0

    @pytest.mark.parametrize("local_updates", [1, 4, 8])
    def test_invariant_in_local_updates(self, local_updates):
        ds, nodes, net = setup()
        cfg = hssl.PipelineConfig(
            variant=SslVariant("simsiam"), global_iterations=1,
            steps_guided_local=False, steps_pma=False, gamma=0.0,
            batch_size=16, local_updates=local_updates,
        )
        hssl.pretrain(ds, nodes, net, cfg, seed=0)
        assert net.counts["Repr"] == 2 * (2 - 1) * int(np.ceil(48 / 16))

    def test_guided_local_sends_nothing(self):
        ds, nodes, net = setup()
        opt = T.SgdOptimizer(nodes[0].stack.params_local(), 0.05)
        net.reset_counts()
        hssl.guided_local_ssl_epoch(
            nodes[0], ds.local_ids(0), SslVariant("simsiam"), 0.5,
            data.AugmentationPolicy(0.3), opt, batch_size=16,
            aug_rng=np.random.default_rng(0), shuffle_rng=np.random.default_rng(1),
        )
        assert sum(net.counts.values()) == 0


class TestGuidedLocal:
    def test_gamma_zero_ignores_cross_tower(self):
        # Two copies of the same party that differ only in their cross
        # encoder weights must take identical local updates when gamma=0.
        ds, nodes_a, _ = setup(seed=3)
        _, nodes_b, _ = setup(seed=3)
        for p in nodes_b[0].stack.params_cross():
            p.values += 1.0
        results = []
        for nodes in (nodes_a, nodes_b):
            node = nodes[0]
            opt = T.SgdOptimizer(node.stack.params_local(), 0.05)
            hssl.guided_local_ssl_epoch(
                node, ds.local_ids(0), SslVariant("simsiam"), 0.0,
                data.AugmentationPolicy(0.3), opt, batch_size=16,
                aug_rng=np.random.default_rng(0), shuffle_rng=np.random.default_rng(1),
            )
            results.append(snapshot(node))
        for name in results[0]:
            if name.startswith(LOCAL_PREFIXES):
                np.testing.assert_array_equal(results[0][name], results[1][name], err_msg=name)

    def test_gamma_positive_uses_cross_tower(self):
        ds, nodes_a, _ = setup(seed=3)
        _, nodes_b, _ = setup(seed=3)
        for p in nodes_b[0].stack.params_cross():
            p.values += 1.0
        results = []
        for nodes in (nodes_a, nodes_b):
            node = nodes[0]
            opt = T.SgdOptimizer(node.stack.params_local(), 0.05)
            hssl.guided_local_ssl_epoch(
                node, ds.local_ids(0), SslVariant("simsiam"), 0.5,
                data.AugmentationPolicy(0.3), opt, batch_size=16,
                aug_rng=np.random.default_rng(0), shuffle_rng=np.random.default_rng(1),
            )
            results.append(snapshot(node))
        assert any(
            not np.array_equal(results[0][name], results[1][name])
            for name in results[0] if name.startswith(LOCAL_PREFIXES)
        )


class TestPresets:
    def test_flag_table(self):
        cases = {
            "FedLocalSSL": (False, True, False),
            "FedCSSL": (True, False, False),
            "FedGSSL": (True, True, False),
            "FedHSSL": (True, True, True),
        }
        for name, (cross, guided, pma) in cases.items():
            cfg = hssl.PipelineConfig.from_preset(name, global_iterations=1)
            assert (cfg.steps_cross, cfg.steps_guided_local, cfg.steps_pma) == (cross, guided, pma)

    def test_finetune_encoder_modes(self):
        assert hssl.preset_finetune_encoders("FedLocalSSL") == "local"
        assert hssl.preset_finetune_encoders("FedCSSL") == "cross"
        assert hssl.preset_finetune_encoders("FedGSSL") == "concat"
        assert hssl.preset_finetune_encoders("FedHSSL*") == "local"

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            hssl.PipelineConfig.from_preset("FedMagic")

    def test_invalid_combinations(self):
        with pytest.raises(ConfigError):
            hssl.PipelineConfig(steps_cross=False, steps_guided_local=True, gamma=0.5)
        with pytest.raises(ConfigError):
            hssl.PipelineConfig(steps_guided_local=False, steps_pma=True, gamma=0.0)
        with pytest.raises(ConfigError):
            hssl.PipelineConfig(aligned_fraction=0.0)

    def test_step1_aligned_fraction(self):
        ds = desk_dataset(aligned=48)
        assert len(hssl.step1_aligned_ids(ds, 1.0)) == 48
        assert len(hssl.step1_aligned_ids(ds, 0.5)) == 24
        assert len(hssl.step1_aligned_ids(ds, 0.01)) == 1


class TestPretrain:
    @pytest.mark.parametrize("variant", ["simsiam", "byol", "moco"])
    def test_runs_and_losses_finite(self, variant):
        ds, nodes, net = setup(variant=variant)
        cfg = hssl.PipelineConfig(
            variant=SslVariant(variant), global_iterations=2, batch_size=16,
        )
        trace = hssl.pretrain(ds, nodes, net, cfg, seed=0)
        steps = {r["step"] for r in trace}
        assert steps == {"cross", "local", "pma"}
        for r in trace:
            if r["loss"] is not None:
                assert np.isfinite(r["loss"])

    def test_cross_loss_improves(self):
        ds, nodes, net = setup()
        cfg = hssl.PipelineConfig(
            variant=SslVariant("simsiam"), global_iterations=6, batch_size=48,
            steps_guided_local=False, steps_pma=False, gamma=0.0, cross_lr=0.05,
        )
        trace = hssl.pretrain(ds, nodes, net, cfg, seed=0)
        cross = [r["loss"] for r in trace if r["step"] == "cross" and r["party"] == 1]
        assert cross[-1] < cross[0]

    def test_moco_queues_created(self):
        ds, nodes, net = setup(variant="moco")
        cfg = hssl.PipelineConfig(
            variant=SslVariant("moco"), global_iterations=1, batch_size=16,
        )
        hssl.pretrain(ds, nodes, net, cfg, seed=0)
        assert any(name.startswith("cross_recv_") for name in nodes[0].queues)
        assert "local_a" in nodes[0].queues and "guide_a" in nodes[0].queues
        assert all(len(q) > 0 for q in nodes[0].queues.values())
