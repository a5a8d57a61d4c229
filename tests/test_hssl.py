import numpy as np
import pytest

from vflhssl import cli, data, hssl, nn, privacy, tensor as T, vfl
from vflhssl.errors import ConfigError


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
    net = vfl.Network()
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
        variant = "simsiam"
        opts = {p.party_id: T.SgdOptimizer(p.model.params_cross(), 0.05) for p in nodes}
        before = [snapshot(p) for p in nodes]
        hssl.cross_party_ssl_epoch(nodes, net, ds.aligned_ids, variant, opts, batch_size=16)
        for node, snap in zip(nodes, before):
            names = changed_names(node, snap)
            assert names, "cross step made no update"
            assert all(n.startswith(CROSS_PREFIXES) for n in names), sorted(names)

    def test_local_step_touches_only_local_tower(self):
        ds, nodes, net = setup()
        node = nodes[0]
        opt = T.SgdOptimizer(node.model.params_local(), 0.05)
        before = snapshot(node)
        hssl.guided_local_ssl_epoch(
            node, ds.local_ids(0), "simsiam", 0.5, 0.3, opt, batch_size=16,
            aug_rng=np.random.default_rng(0), shuffle_rng=np.random.default_rng(1),
        )
        names = changed_names(node, before)
        assert names
        assert all(n.startswith(LOCAL_PREFIXES) for n in names), sorted(names)

    def test_local_step_updates_ema_targets_only_for_byol(self):
        ds, nodes, net = setup(variant="byol")
        node = nodes[0]
        opt = T.SgdOptimizer(node.model.params_local(), 0.05)
        before = snapshot(node)
        hssl.guided_local_ssl_epoch(
            node, ds.local_ids(0), "byol", 0.5, 0.3, opt, batch_size=16,
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
            {name: p.values.copy() for name, p in node.model.named_pma_params()}
            for node in nodes
        ]
        hssl.partial_model_aggregation(nodes, net)
        for node in nodes:
            for name, p in node.model.named_pma_params():
                expected = np.mean([o[name] for o in originals], axis=0)
                np.testing.assert_allclose(p.values, expected, atol=1e-15)

    def test_all_parties_identical_after(self):
        ds, nodes, net = setup(parties=3)
        hssl.partial_model_aggregation(nodes, net)
        ref = dict(nodes[0].model.named_pma_params())
        for node in nodes[1:]:
            for name, p in node.model.named_pma_params():
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
        hssl.partial_model_aggregation(nodes, net)
        assert net.counts["ModelBlob"] == 6  # 3 uploads + 3 broadcasts


def test_writers_write_through_packed_views():
    """Checkpoint restore, PMA and the EMA update write parameters in
    place, so the optimizers that pack them step what they wrote."""
    _, nodes, _ = setup(variant="byol")
    node = nodes[0]
    online = [p for p in node.model.named_params() if p[1].requires_grad]
    target = [p for p in node.model.named_params() if not p[1].requires_grad]
    assert target, "byol has an EMA target"
    opt = T.SgdOptimizer([p for _, p in online], 0.5, momentum=0.0)
    T.SgdOptimizer([p for _, p in target], 0.5)
    views = {name: p.values for name, p in node.model.named_params()}

    def assert_written_through(expected):
        for name, p in node.model.named_params():
            assert p.values is views[name], name
            np.testing.assert_array_equal(p.values, expected[name], err_msg=name)

    blob = {name: p.values + 1.0 for name, p in node.model.named_params()}
    nn.Checkpoint("fp", [0], [blob]).restore_into([node.model])
    assert_written_through(blob)

    hssl._unflatten_pma(node.model, 2.0 * hssl._flatten_pma(node.model))
    expected = snapshot(node)
    for name, _ in node.model.named_pma_params():
        np.testing.assert_array_equal(expected[name], 2.0 * blob[name])
    assert_written_through(expected)

    target_names = {id(p): name for name, p in target}
    node.model.ema.update()
    m = node.model.ema.momentum
    for on, tgt in node.model.ema.pairs:
        name = target_names[id(tgt)]
        expected[name] = m * expected[name] + (1.0 - m) * on.values
    assert_written_through(expected)

    for _, p in online:
        p.grad = np.ones(p.shape)
    opt.step()
    for name, _ in online:
        expected[name] = expected[name] - 0.5
    assert_written_through(expected)


class TestPretrainNoise:
    """lambda_p perturbs party 1's outgoing cross Repr and PMA blob only."""

    LAM = 0.5

    def spy_sends(self, monkeypatch):
        frames = []
        send = vfl.Network.send

        def spy(net, src, dst, msg_type, rnd, payload):
            frames.append((src, dst, payload.copy()))
            return send(net, src, dst, msg_type, rnd, payload)

        monkeypatch.setattr(vfl.Network, "send", spy)
        return frames

    def test_only_party_1_cross_repr_is_noisy(self, monkeypatch):
        ds, nodes, net = setup(parties=3)
        ids = ds.aligned_ids
        own = {p.party_id: p.model.cross.forward(*p.block.rows(ids)).values for p in nodes}
        opts = {p.party_id: T.SgdOptimizer(p.model.params_cross(), 0.05) for p in nodes}
        frames = self.spy_sends(monkeypatch)
        hssl.cross_party_ssl_epoch(
            nodes, net, ids, "simsiam", opts, batch_size=len(ids),
            lambda_p=self.LAM, noise_rng=np.random.default_rng(7),
        )
        noisy = privacy.iso_perturb(own[1], self.LAM, np.random.default_rng(7))
        assert not np.array_equal(noisy, own[1])
        assert len(frames) == 4
        for src, _, payload in frames:
            np.testing.assert_array_equal(payload, noisy if src == 1 else own[src])

    def test_only_party_1_pma_blob_is_noisy(self, monkeypatch):
        ds, nodes, net = setup(parties=3)
        own = {p.party_id: hssl._flatten_pma(p.model) for p in nodes}
        frames = self.spy_sends(monkeypatch)
        hssl.partial_model_aggregation(nodes, net, self.LAM, np.random.default_rng(7))
        noisy = privacy.iso_perturb(own[1], self.LAM, np.random.default_rng(7)).reshape(-1)
        assert not np.array_equal(noisy, own[1])
        uploads = {src: payload for src, dst, payload in frames if dst == hssl.SERVER_ID}
        assert sorted(uploads) == [1, 2, 3]
        for pid, payload in uploads.items():
            np.testing.assert_array_equal(payload, noisy if pid == 1 else own[pid])

    def test_zero_lambda_checkpoint_equals_noise_free_run(self, tmp_path, monkeypatch):
        def checkpoint(path):
            ds, nodes, net = setup()
            cfg = hssl.PipelineConfig(global_iterations=2, batch_size=16, lambda_p=0.0)
            hssl.pretrain(ds, nodes, net, cfg, seed=4)
            nn.save_checkpoint(path, [p.model for p in nodes], "fp", seeds=[4])
            return path.read_bytes()

        zero = checkpoint(tmp_path / "zero.bin")
        monkeypatch.setattr(hssl, "iso_perturb", lambda d, lam, rng: np.array(d, ndmin=2))
        assert checkpoint(tmp_path / "noise_free.bin") == zero


class TestMessageBudget:
    @pytest.mark.parametrize("parties,aligned,batch", [(2, 48, 16), (3, 48, 16), (2, 50, 16)])
    def test_cross_step_repr_count(self, parties, aligned, batch):
        ds, nodes, net = setup(parties=parties, aligned=aligned)
        cfg = hssl.PipelineConfig(
            preset="FedCSSL", variant="simsiam", global_iterations=2,
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
            preset="FedCSSL", variant="simsiam", global_iterations=1,
            batch_size=16, local_updates=local_updates,
        )
        hssl.pretrain(ds, nodes, net, cfg, seed=0)
        assert net.counts["Repr"] == 2 * (2 - 1) * int(np.ceil(48 / 16))

    def test_guided_local_sends_nothing(self):
        ds, nodes, net = setup()
        opt = T.SgdOptimizer(nodes[0].model.params_local(), 0.05)
        hssl.guided_local_ssl_epoch(
            nodes[0], ds.local_ids(0), "simsiam", 0.5, 0.3, opt, batch_size=16,
            aug_rng=np.random.default_rng(0), shuffle_rng=np.random.default_rng(1),
        )
        assert sum(net.counts.values()) == 0


class TestGuidedLocal:
    def test_gamma_zero_ignores_cross_tower(self):
        # Two copies of the same party that differ only in their cross
        # encoder weights must take identical local updates when gamma=0.
        ds, nodes_a, _ = setup(seed=3)
        _, nodes_b, _ = setup(seed=3)
        for p in nodes_b[0].model.params_cross():
            p.values += 1.0
        results = []
        for nodes in (nodes_a, nodes_b):
            node = nodes[0]
            opt = T.SgdOptimizer(node.model.params_local(), 0.05)
            hssl.guided_local_ssl_epoch(
                node, ds.local_ids(0), "simsiam", 0.0, 0.3, opt, batch_size=16,
                aug_rng=np.random.default_rng(0), shuffle_rng=np.random.default_rng(1),
            )
            results.append(snapshot(node))
        for name in results[0]:
            if name.startswith(LOCAL_PREFIXES):
                np.testing.assert_array_equal(results[0][name], results[1][name], err_msg=name)

    def test_gamma_positive_uses_cross_tower(self):
        ds, nodes_a, _ = setup(seed=3)
        _, nodes_b, _ = setup(seed=3)
        for p in nodes_b[0].model.params_cross():
            p.values += 1.0
        results = []
        for nodes in (nodes_a, nodes_b):
            node = nodes[0]
            opt = T.SgdOptimizer(node.model.params_local(), 0.05)
            hssl.guided_local_ssl_epoch(
                node, ds.local_ids(0), "simsiam", 0.5, 0.3, opt, batch_size=16,
                aug_rng=np.random.default_rng(0), shuffle_rng=np.random.default_rng(1),
            )
            results.append(snapshot(node))
        assert any(
            not np.array_equal(results[0][name], results[1][name])
            for name in results[0] if name.startswith(LOCAL_PREFIXES)
        )


def per_view_local_epoch(party, ids, variant, gamma, corruption_fraction, optimizer,
                         batch_size, aug_rng, shuffle_rng):
    """Step 2 as two 2-D passes per batch, one per view: the loop that the
    stacked pass of ``hssl.guided_local_ssl_epoch`` replaces, kept as the
    reference it must equal bit for bit."""
    model, block = party.model, party.block
    losses = []
    for batch_ids in data.batches(ids, batch_size, rng=shuffle_rng):
        cont, cats = block.rows(batch_ids)
        cont_std = block.cont.std(axis=0) if len(cont) == 1 else None
        v1, v2 = (data.augment(cont, cats, block.cat_cardinalities, corruption_fraction,
                               aug_rng, cont_std) for _ in range(2))
        z1, z2 = model.local.forward(*v1), model.local.forward(*v2)
        p1, p2 = model.h_l.forward(z1), model.h_l.forward(z2)
        if model.target is None:
            t1, t2 = z1.values, z2.values
        else:
            t1, t2 = model.target.forward(*v1).values, model.target.forward(*v2).values
        feeds = []
        loss = T.affine(T.add(hssl._term(party, variant, ("local_a",), p1, t2, feeds),
                              hssl._term(party, variant, ("local_b",), p2, t1, feeds)), 0.5)
        if gamma > 0:
            zc1, zc2 = model.cross.encode(*v1).values, model.cross.encode(*v2).values
            guide = T.add(hssl._term(party, variant, ("guide_a",), p1, zc1, feeds),
                          hssl._term(party, variant, ("guide_b",), p2, zc2, feeds))
            loss = T.add(loss, T.affine(guide, gamma))
        loss.backward()
        optimizer.step()
        if model.ema is not None:
            model.ema.update()
        for queue, rows in feeds:
            queue.enqueue(rows)
        losses.append(loss.item())
    return float(np.mean(losses))


class TestStackedLocalStep:
    @pytest.mark.parametrize("variant", ["simsiam", "byol", "moco"])
    @pytest.mark.parametrize("cat_cardinalities", [(), (3, 5)])
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_equals_two_per_view_passes(self, variant, cat_cardinalities, gamma):
        """Parameters, EMA targets, MoCo queues and losses after two epochs,
        the second ending on a one-row batch, are bit-identical."""
        spec = data.SyntheticSpec(
            latent_dim=4, classes=3, feature_dims=(6, 6), noise_scales=(0.5, 0.5),
            cat_cardinalities=(cat_cardinalities, ()), aligned=48, unaligned=(24, 24),
            labeled=32, test=16, seed=5,
        )
        ds = data.generate_synthetic(spec)
        ids = ds.local_ids(0)
        runs = []
        for epoch_fn in (hssl.guided_local_ssl_epoch, per_view_local_epoch):
            node = vfl.make_parties(ds, desk_cfg(), variant, 3)[0]
            opt = T.SgdOptimizer(node.model.params_local(), 0.05)
            losses = [
                epoch_fn(node, ids, variant, gamma, 0.3, opt, batch_size=batch,
                         aug_rng=np.random.default_rng((7, epoch)),
                         shuffle_rng=np.random.default_rng((8, epoch)))
                for epoch, batch in enumerate((16, len(ids) - 1))
            ]
            state = {name: p.values.tobytes() for name, p in node.model.named_params()}
            state.update({name: q.rows.tobytes() for name, q in node.queues.items()})
            runs.append((losses, state))
        assert runs[0] == runs[1]
        if variant == "moco":
            names = ["local_a", "local_b"] + (["guide_a", "guide_b"] if gamma else [])
            assert sorted(node.queues) == sorted(names)


class TestReadOnlyForwards:
    """Forwards whose outputs are only read build no graph nodes."""

    @staticmethod
    def record(monkeypatch, method, towers):
        """Per tower, per call of its ``method``: whether every node the call built is graph-free."""
        built, result = [], T._result

        def recording(*args):
            built.append(result(*args))
            return built[-1]

        def wrap(original, calls):
            def wrapped(*args):
                built.clear()
                out = original(*args)
                calls.append(all(node._parents == () and node._backward is None
                                 for node in built))
                return out
            return wrapped

        monkeypatch.setattr(T, "_result", recording)
        per_tower = [[] for _ in towers]
        for tower, calls in zip(towers, per_tower):
            monkeypatch.setattr(tower, method, wrap(getattr(tower, method), calls))
        return per_tower

    def test_step2_guidance(self, monkeypatch):
        ds, nodes, _ = setup()
        node = nodes[0]
        [calls] = self.record(monkeypatch, "encode", [node.model.cross])
        opt = T.SgdOptimizer(node.model.params_local(), 0.05)
        hssl.guided_local_ssl_epoch(
            node, ds.local_ids(0), "simsiam", 0.5, 0.3, opt, batch_size=16,
            aug_rng=np.random.default_rng(0), shuffle_rng=np.random.default_rng(1),
        )
        assert calls == [True] * int(np.ceil(len(ds.local_ids(0)) / 16))

    def test_step1_exchange(self, monkeypatch):
        ds, nodes, net = setup()
        calls = self.record(monkeypatch, "forward", [p.model.cross for p in nodes])
        opts = {p.party_id: T.SgdOptimizer(p.model.params_cross(), 0.05) for p in nodes}
        hssl.cross_party_ssl_epoch(nodes, net, ds.aligned_ids, "simsiam", opts,
                                   batch_size=16, local_updates=2)
        # Per batch: the exchange forward, then one training forward per update.
        batches = int(np.ceil(len(ds.aligned_ids) / 16))
        assert calls == [[True, False, False] * batches] * len(nodes)


class TestPresets:
    def test_flag_table(self):
        cases = {
            "FedLocalSSL": {"local"},
            "FedCSSL": {"cross"},
            "FedGSSL": {"cross", "local"},
            "FedHSSL": {"cross", "local", "pma"},
        }
        assert set(hssl.METHODS) == set(cases)
        for name, steps in cases.items():
            ds, nodes, net = setup()
            cfg = hssl.PipelineConfig(preset=name, global_iterations=1, batch_size=16)
            trace = hssl.pretrain(ds, nodes, net, cfg, seed=0)
            assert {r["step"] for r in trace} == steps

    def test_finetune_encoder_modes(self):
        encoders = {
            "fedlocal-simsiam": "local", "fedcssl": "cross", "fedgssl": "concat",
            "fedhssl-simsiam": "concat", "fedsplitnn": "local",
        }
        for preset, mode in encoders.items():
            assert cli.load_config(preset=preset)["model"]["finetune_encoders"] == mode

    def test_unknown_preset(self):
        for name in ("FedMagic", None):
            with pytest.raises(ConfigError, match="pipeline.preset must be one of"):
                hssl.PipelineConfig(preset=name)

    def test_invalid_combinations(self):
        with pytest.raises(ConfigError):
            hssl.PipelineConfig(lambda_p=-1.0)
        with pytest.raises(ConfigError):
            hssl.PipelineConfig(aligned_fraction=0.0)

    @pytest.mark.parametrize("field", ["gamma", "lambda_p", "cross_lr", "local_lr"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            hssl.PipelineConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("global_iterations", -3), ("cross_epochs", -1), ("local_epochs", 2.5),
        ("local_updates", 2.5), ("local_updates", 0), ("batch_size", 0),
        ("global_iterations", True), ("cross_epochs", False), ("local_epochs", True),
        ("local_updates", True), ("batch_size", True),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"pipeline.{field} must be an integer"):
            hssl.PipelineConfig(**{field: value})

    def test_zero_counts_accepted(self):
        cfg = hssl.PipelineConfig(global_iterations=0, cross_epochs=0, local_epochs=0)
        assert (cfg.global_iterations, cfg.cross_epochs, cfg.local_epochs) == (0, 0, 0)

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
            variant=variant, global_iterations=2, batch_size=16,
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
            preset="FedCSSL", variant="simsiam", global_iterations=6,
            batch_size=48, cross_lr=0.05,
        )
        trace = hssl.pretrain(ds, nodes, net, cfg, seed=0)
        cross = [r["loss"] for r in trace if r["step"] == "cross" and r["party"] == 1]
        assert cross[-1] < cross[0]

    def test_moco_cross_queue_takes_one_batch_per_exchange(self):
        # local_updates=2 steps twice against one exchange; the peers'
        # batch still enters each cross_peer queue once.
        ds, nodes, net = setup(parties=3, variant="moco")
        opts = {p.party_id: T.SgdOptimizer(p.model.params_cross(), 0.05) for p in nodes}
        ids = ds.aligned_ids
        hssl.cross_party_ssl_epoch(nodes, net, ids, "moco", opts, batch_size=len(ids),
                                   local_updates=2)
        assert {p.party_id: sorted(p.queues) for p in nodes} == {
            1: ["cross_peer_2", "cross_peer_3"], 2: ["cross_peer_1"], 3: ["cross_peer_1"],
        }
        assert all(len(q) == len(ids) for p in nodes for q in p.queues.values())

    def test_moco_queues_created(self):
        ds, nodes, net = setup(variant="moco")
        cfg = hssl.PipelineConfig(
            variant="moco", global_iterations=1, batch_size=16,
        )
        hssl.pretrain(ds, nodes, net, cfg, seed=0)
        assert any(name.startswith("cross_peer_") for name in nodes[0].queues)
        assert "local_a" in nodes[0].queues and "guide_a" in nodes[0].queues
        assert all(len(q) > 0 for q in nodes[0].queues.values())
