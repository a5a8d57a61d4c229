import tracemalloc

import numpy as np
import pytest

from vflhssl import cli, data, nn, privacy, tensor as T, vfl
from vflhssl.errors import ConfigError, ProtocolError, ValidationError

from conftest import whole_batch
from test_data import HSSL_UNALIGNED


def desk_cfg(**kw):
    base = dict(
        input_dim=1, num_classes=3, hidden_dim=16, repr_dim=8,
        projector_dims=(8, 8, 8), predictor_dims=(4, 8), moco_projector_out=8,
        embed_dim=4,
    )
    base.update(kw)
    return nn.ModelConfig(**base)


def desk_dataset(parties=2, seed=5, cat_cardinalities=()):
    spec = data.SyntheticSpec(
        latent_dim=4, classes=3, parties=parties,
        feature_dims=tuple([6] * parties), noise_scales=tuple([0.5] * parties),
        cat_cardinalities=tuple([cat_cardinalities] * parties),
        aligned=60, unaligned=tuple([30] * parties), labeled=40, test=20, seed=seed,
    )
    return data.generate_synthetic(spec)


class TestWireFormat:
    def test_round_trip_2d(self, rng):
        payload = rng.normal(size=(5, 7))
        msg = vfl.WireMessage(vfl.MSG_REPR, 12, 3, payload)
        out = vfl.decode_message(vfl.encode_message(msg))
        assert (out.msg_type, out.round, out.sender) == (vfl.MSG_REPR, 12, 3)
        np.testing.assert_array_equal(out.payload, payload)

    def test_round_trip_1d(self, rng):
        payload = rng.normal(size=17)
        out = vfl.decode_message(vfl.encode_message(vfl.WireMessage(vfl.MSG_GRAD, 1, 2, payload)))
        np.testing.assert_array_equal(out.payload, payload)

    def test_bad_magic(self):
        with pytest.raises(ProtocolError):
            vfl.decode_message(b"NOPE" + b"\x00" * 20)

    def test_bad_version(self, rng):
        raw = bytearray(vfl.encode_message(vfl.WireMessage(vfl.MSG_REPR, 0, 1, rng.normal(size=(2, 2)))))
        raw[4:6] = (9).to_bytes(2, "little")
        with pytest.raises(ProtocolError, match="version"):
            vfl.decode_message(bytes(raw))

    def test_truncated_payload(self, rng):
        raw = vfl.encode_message(vfl.WireMessage(vfl.MSG_REPR, 0, 1, rng.normal(size=(2, 2))))
        with pytest.raises(ProtocolError):
            vfl.decode_message(raw[:-8])

    def test_unknown_type(self):
        # Type 3 was the never-sent Control frame.
        for msg_type in (3, 42):
            with pytest.raises(ProtocolError, match="unknown msg_type"):
                vfl.encode_message(vfl.WireMessage(msg_type, 0, 1, np.zeros((1, 1))))
            raw = bytearray(vfl.encode_message(vfl.WireMessage(vfl.MSG_REPR, 0, 1, np.zeros(1))))
            raw[6] = msg_type  # the type byte follows the magic and the version
            with pytest.raises(ProtocolError, match="unknown msg_type"):
                vfl.decode_message(bytes(raw))


def float_arrays(max_dims):
    """float64 arrays of up to ``max_dims`` dims, zero-size sides, NaNs,
    infinities, signed zeros and subnormals included."""
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    shapes = hnp.array_shapes(min_dims=0, max_dims=max_dims, min_side=0, max_side=5)
    return hnp.arrays("<f8", shapes)


def test_wire_round_trip_is_exact():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        msg_type=st.sampled_from(sorted(vfl.MSG_NAMES)),
        rnd=st.integers(0, 2**32 - 1),
        sender=st.integers(0, 2**16 - 1),
        payload=float_arrays(max_dims=4),
    )
    def check(msg_type, rnd, sender, payload):
        raw = vfl.encode_message(vfl.WireMessage(msg_type, rnd, sender, payload))
        assert len(raw) == 14 + 4 * payload.ndim + 8 * payload.size
        out = vfl.decode_message(raw)
        assert (out.msg_type, out.round, out.sender) == (msg_type, rnd, sender)
        assert out.payload.shape == payload.shape
        assert out.payload.tobytes() == payload.tobytes()

    check()


def test_malformed_frames_raise_only_protocol_error():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    valid = st.builds(
        lambda msg_type, payload: vfl.encode_message(vfl.WireMessage(msg_type, 7, 1, payload)),
        st.sampled_from(sorted(vfl.MSG_NAMES)),
        float_arrays(max_dims=3),
    )

    @hypothesis.settings(max_examples=500, deadline=None)
    @hypothesis.given(
        frame=valid,
        garbage=st.binary(max_size=64),
        cut=st.integers(0, 2**16),
        bit=st.integers(0, 2**16),
        kind=st.sampled_from(["random", "prefixed", "truncated", "bitflip"]),
    )
    def check(frame, garbage, cut, bit, kind):
        if kind == "random":
            raw = garbage
        elif kind == "prefixed":  # past the magic and version checks
            raw = frame[:6] + garbage
        elif kind == "truncated":
            raw = frame[: cut % len(frame)]
        else:
            flipped = bytearray(frame)
            flipped[(bit // 8) % len(frame)] ^= 1 << (bit % 8)
            raw = bytes(flipped)
        try:
            vfl.decode_message(raw)
        except ProtocolError:
            return
        assert kind != "truncated", "a truncated frame decoded"

    check()


def test_empty_frame_with_unrepresentable_shape_is_protocol_error():
    # ndim 2 -> 18 reads the payload as dims: a zero dim makes the frame
    # length check pass, and numpy refuses the huge remaining dims.
    raw = bytearray(vfl.encode_message(vfl.WireMessage(0, 7, 1, np.ones((2, 4)))))
    raw[13] = 18
    with pytest.raises(ProtocolError, match="not representable"):
        vfl.decode_message(bytes(raw))


class TestChannel:
    """The network's per-stream round check and its frame tally."""

    def test_round_regression_rejected(self):
        net = vfl.Network()
        net.send(1, 2, vfl.MSG_REPR, 5, np.zeros((1, 1)))
        with pytest.raises(ProtocolError, match="regression"):
            net.send(1, 2, vfl.MSG_REPR, 5, np.zeros((1, 1)))
        with pytest.raises(ProtocolError, match="regression"):
            net.send(1, 2, vfl.MSG_REPR, 4, np.zeros((1, 1)))
        net.send(1, 2, vfl.MSG_REPR, 6, np.zeros((1, 1)))

    def test_rounds_independent_per_type(self):
        net = vfl.Network()
        net.send(1, 2, vfl.MSG_REPR, 5, np.zeros((1, 1)))
        net.send(1, 2, vfl.MSG_GRAD, 5, np.zeros((1, 1)))  # same round, other type: fine

    def test_rounds_independent_per_link(self):
        net = vfl.Network()
        net.send(1, 2, vfl.MSG_REPR, 5, np.zeros((1, 1)))
        net.send(1, 3, vfl.MSG_REPR, 5, np.zeros((1, 1)))  # same round and sender, other link
        net.send(2, 1, vfl.MSG_REPR, 5, np.zeros((1, 1)))  # the reverse direction

    def test_network_counts_by_type(self):
        # send returns what the receiver decodes: the payload's bytes, in a new array
        net = vfl.Network()
        payload = np.arange(6.0).reshape(2, 3)
        out = net.send(1, 2, vfl.MSG_REPR, 1, payload)
        assert out.tobytes() == payload.tobytes() and out is not payload
        net.send(2, 1, vfl.MSG_GRAD, 1, np.zeros((1, 1)))
        assert net.counts == {"Repr": 1, "Grad": 1}
        assert net.bytes == {"Repr": 14 + 4 * 2 + 8 * 6, "Grad": 14 + 4 * 2 + 8}

    def test_send_returns_frame_length(self):
        # send returns the decoded payload; the frame's length is what it tallies
        msg = vfl.WireMessage(vfl.MSG_MODEL_BLOB, 1, 1, np.zeros(5))
        net = vfl.Network()
        out = net.send(1, 0, msg.msg_type, msg.round, msg.payload)
        assert out.shape == (5,)
        assert net.bytes["ModelBlob"] == len(vfl.encode_message(msg)) == 14 + 4 + 8 * 5


def make_trainer(parties=2, seed=3, **trainer_kw):
    ds = desk_dataset(parties=parties)
    nodes = vfl.make_parties(ds, desk_cfg(num_parties=parties), "simsiam", seed)
    net = vfl.Network()
    trainer = vfl.SplitTrainer(nodes, net, learning_rate=0.05, **trainer_kw)
    return ds, nodes, net, trainer


class MonolithicMirror:
    """Same parties trained in-process without any message exchange.

    Serves as the oracle: the split protocol must produce bit-level
    matching parameter updates because the wire carries exact float64.
    """

    def __init__(self, dataset, cfg, variant, seed, learning_rate):
        self.parties = vfl.make_parties(dataset, cfg, variant, seed)
        self.optimizers = [
            T.SgdOptimizer(p.model.params_finetune(), learning_rate, momentum=0.9)
            for p in self.parties
        ]

    def train_step(self, ids):
        labels = self.parties[0].labels(ids)
        reps = [p.finetune_forward(ids) for p in self.parties]
        joined = T.concat_cols(reps) if len(reps) > 1 else reps[0]
        logits = self.parties[0].model.top_model.forward(joined)
        loss = T.softmax_cross_entropy(logits, labels)
        loss.backward()
        for opt in self.optimizers:
            opt.step()
        return loss.item()


class PerIdGatherTrainer(vfl.SplitTrainer):
    """The step that looks its batch's ids up in every party's block and in
    party 1's labels at every step: the reference that a step sliced from
    a FinetunePool must equal bit for bit."""

    def train_step(self, ids):
        active = self.parties[0]
        labels = active.labels(ids)
        rnd = self.network.next_round()
        reps = [p.finetune_forward(ids) for p in self.parties]
        received = [
            T.Tensor(self.network.send(p.party_id, 1, vfl.MSG_REPR, rnd, z.values),
                     requires_grad=True)
            for p, z in zip(self.parties[1:], reps[1:])
        ]
        logits = active.model.top_model.forward(T.concat_cols([reps[0]] + received))
        loss = T.softmax_cross_entropy(logits, labels)
        loss.backward()
        for p, r, z in zip(self.parties[1:], received, reps[1:]):
            g = privacy.iso_perturb(r.grad, self.lambda_f, self.noise_rng)
            z.backward(grad=self.network.send(1, p.party_id, vfl.MSG_GRAD, rnd, g))
        for opt in self.optimizers:
            opt.step()
        return loss.item()


class TestFinetunePool:
    @pytest.mark.parametrize("parties, cat_cardinalities, lambda_f", [
        (2, (), 0.0), (2, (3, 5), 4.0), (3, (3, 5), 0.0), (3, (), 4.0),
    ], ids=["2-parties", "2-parties-categorical-iso", "3-parties-categorical", "3-parties-iso"])
    def test_pooled_steps_equal_per_id_gather(self, parties, cat_cardinalities, lambda_f):
        ds = desk_dataset(parties=parties, cat_cardinalities=cat_cardinalities)
        cfg = desk_cfg(num_parties=parties)
        train_ids = ds.labeled_ids[5:35]
        pool = vfl.FinetunePool(ds.parties, ds.label_array, train_ids)
        runs = []
        for trainer_type in (vfl.SplitTrainer, PerIdGatherTrainer):
            nodes = vfl.make_parties(ds, cfg, "simsiam", 3)
            net = vfl.Network()
            trainer = trainer_type(nodes, net, 0.05, lambda_f=lambda_f,
                                   noise_rng=np.random.default_rng(7))
            shuffle = np.random.default_rng(11)
            losses = []
            for _ in range(3):
                if trainer_type is vfl.SplitTrainer:
                    batches = [pool[pos] for pos in
                               data.batches(np.arange(len(train_ids)), 8, rng=shuffle)]
                else:
                    batches = list(data.batches(train_ids, 8, rng=shuffle))
                losses += [trainer.train_step(batch) for batch in batches]
            params = [p.values.tobytes() for node in nodes for _, p in node.model.named_params()]
            runs.append((losses, params, dict(net.counts), dict(net.bytes)))
        assert len(runs[0][0]) == 3 * 4 and all(np.isfinite(runs[0][0]))
        assert runs[0] == runs[1]

    def test_batch_from_other_blocks_refused(self):
        ds, nodes, net, trainer = make_trainer()
        before = [p.values.copy() for node in nodes for _, p in node.model.named_params()]
        ids = ds.labeled_ids[:8]
        for blocks in (desk_dataset(seed=6).parties, ds.parties[::-1], ds.parties[:1],
                       desk_dataset(parties=3).parties):
            pool = vfl.FinetunePool(blocks, ds.label_array, ids)
            with pytest.raises(ValidationError, match="other blocks"):
                trainer.train_step(pool[np.arange(len(ids))])
        assert sum(net.counts.values()) == 0
        after = [p.values for node in nodes for _, p in node.model.named_params()]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))


class TestSplitTraining:
    @pytest.mark.parametrize("num_parties", [2, 3])
    def test_matches_monolithic_model(self, num_parties):
        ds, nodes, net, trainer = make_trainer(parties=num_parties)
        mirror = MonolithicMirror(ds, desk_cfg(num_parties=num_parties), "simsiam", 3, 0.05)
        ids = ds.labeled_ids[:16]
        for _ in range(3):
            l_split = trainer.train_step(whole_batch(trainer, ids))
            l_mono = mirror.train_step(ids)
            assert abs(l_split - l_mono) <= 1e-10
        for split_p, mono_p in zip(nodes, mirror.parties):
            for (name, a), (_, b) in zip(split_p.model.named_params(), mono_p.model.named_params()):
                assert np.abs(a.values - b.values).max() <= 1e-10, name

    def test_matches_monolithic_model_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        datasets = {k: desk_dataset(parties=k) for k in range(1, 5)}

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(
            num_parties=st.integers(1, 4),
            hidden_dim=st.integers(1, 12),
            repr_dim=st.integers(1, 8),
            finetune_encoders=st.sampled_from(["local", "cross", "concat"]),
        )
        def check(num_parties, hidden_dim, repr_dim, finetune_encoders):
            ds = datasets[num_parties]
            cfg = desk_cfg(num_parties=num_parties, hidden_dim=hidden_dim,
                           repr_dim=repr_dim, finetune_encoders=finetune_encoders)
            nodes = vfl.make_parties(ds, cfg, "simsiam", 3)
            trainer = vfl.SplitTrainer(nodes, vfl.Network(), 0.05)
            mirror = MonolithicMirror(ds, cfg, "simsiam", 3, 0.05)
            ids = ds.labeled_ids[:16]
            for _ in range(3):
                l_split = trainer.train_step(whole_batch(trainer, ids))
                l_mono = mirror.train_step(ids)
                assert abs(l_split - l_mono) <= 1e-10
            for split_p, mono_p in zip(nodes, mirror.parties):
                for (name, a), (_, b) in zip(split_p.model.named_params(),
                                             mono_p.model.named_params()):
                    assert np.abs(a.values - b.values).max() <= 1e-10, name

        check()

    def test_single_party_degenerate(self):
        ds, nodes, net, trainer = make_trainer(parties=1)
        trainer.train_step(whole_batch(trainer, ds.labeled_ids[:8]))
        assert sum(net.counts.values()) == 0
        assert 0.0 <= trainer.accuracy(ds.test_ids) <= 1.0
        with pytest.raises(ValidationError, match="empty"):
            trainer.accuracy(ds.test_ids[:0])

    def test_message_counts_per_step(self):
        ds, nodes, net, trainer = make_trainer(parties=3)
        trainer.train_step(whole_batch(trainer, ds.labeled_ids[:8]))
        assert net.counts["Repr"] == 2
        assert net.counts["Grad"] == 2

    def test_loss_decreases(self):
        ds, nodes, net, trainer = make_trainer()
        ids = ds.labeled_ids
        first = trainer.train_step(whole_batch(trainer, ids))
        for _ in range(25):
            last = trainer.train_step(whole_batch(trainer, ids))
        assert last < first

    def test_zero_lambda_protection_is_exact(self):
        _, nodes_a, _, trainer_a = make_trainer(seed=11)
        _, nodes_b, _, trainer_b = make_trainer(
            seed=11, lambda_f=0.0, noise_rng=np.random.default_rng(0),
        )
        ids = desk_dataset().labeled_ids[:16]
        for _ in range(2):
            trainer_a.train_step(whole_batch(trainer_a, ids))
            trainer_b.train_step(whole_batch(trainer_b, ids))
        for pa, pb in zip(nodes_a, nodes_b):
            for (name, a), (_, b) in zip(pa.model.named_params(), pb.model.named_params()):
                np.testing.assert_array_equal(a.values, b.values, err_msg=name)

    def test_nonzero_lambda_perturbs(self):
        _, nodes_a, _, trainer_a = make_trainer(seed=11)
        _, nodes_b, _, trainer_b = make_trainer(
            seed=11, lambda_f=5.0, noise_rng=np.random.default_rng(0),
        )
        ids = desk_dataset().labeled_ids[:16]
        trainer_a.train_step(whole_batch(trainer_a, ids))
        trainer_b.train_step(whole_batch(trainer_b, ids))
        # the passive party's encoder sees a noisy gradient
        diffs = [
            np.abs(a.values - b.values).max()
            for (_, a), (_, b) in zip(nodes_a[1].model.named_params(), nodes_b[1].model.named_params())
        ]
        assert max(diffs) > 0

    def test_messages_never_carry_labels(self, monkeypatch):
        ds, nodes, net, trainer = make_trainer()
        ids = ds.labeled_ids[:16]
        labels = ds.label_array(ids).astype(float)
        seen = []
        original = vfl.Network.send

        def spy(self, src, dst, msg_type, rnd, payload):
            seen.append(payload.copy())
            return original(self, src, dst, msg_type, rnd, payload)

        monkeypatch.setattr(vfl.Network, "send", spy)
        trainer.train_step(whole_batch(trainer, ids))
        repr_dim = nodes[0].model.cfg.finetune_repr_dim()
        for payload in seen:
            assert payload.shape == (len(ids), repr_dim)
            assert not np.array_equal(payload.ravel()[: len(labels)], labels)

    @pytest.mark.parametrize("lambda_f", [-1.0, np.nan, np.inf])
    def test_lambda_f_non_negative_and_finite(self, lambda_f):
        with pytest.raises(ConfigError, match="lambda_f"):
            make_trainer(lambda_f=lambda_f)

    def test_noise_without_a_generator_refused_at_construction(self):
        with pytest.raises(ConfigError, match="noise_rng"):
            make_trainer(lambda_f=1.0)

    def test_party_one_without_top_model_rejected(self):
        ds = desk_dataset()
        cfg = desk_cfg()
        nodes = [
            vfl.PartyNode(pid, nn.EncoderStack(cfg, "simsiam", np.random.default_rng(pid)),
                          ds.parties[pid - 1], ds.label_array if pid == 1 else None)
            for pid in (1, 2)
        ]
        with pytest.raises(ConfigError, match="top model"):
            vfl.SplitTrainer(nodes, vfl.Network(), learning_rate=0.05)

    def test_only_party_one_owns_a_top_model(self):
        _, nodes, _, _ = make_trainer(parties=3)
        assert [p.model.top_model is not None for p in nodes] == [True, False, False]

    def test_each_party_holds_only_its_own_block(self):
        ds = desk_dataset(parties=3)
        nodes = vfl.make_parties(ds, desk_cfg(num_parties=3), "simsiam", 0)
        assert [p.block is ds.parties[p.party_id - 1] for p in nodes] == [True] * 3
        assert not any(hasattr(p, "dataset") for p in nodes)

    def test_only_party_one_holds_labels(self):
        ds = desk_dataset(parties=3)
        nodes = vfl.make_parties(ds, desk_cfg(num_parties=3), "simsiam", 0)
        assert [p.labels is not None for p in nodes] == [True, False, False]
        ids = ds.labeled_ids[:8]
        np.testing.assert_array_equal(nodes[0].labels(ids), ds.label_array(ids))

    def test_party_one_without_labels_rejected(self):
        ds = desk_dataset()
        nodes = vfl.make_parties(ds, desk_cfg(), "simsiam", 0)
        nodes[0].labels = None
        with pytest.raises(ConfigError, match="labels"):
            vfl.SplitTrainer(nodes, vfl.Network(), learning_rate=0.05)

    def test_predictions_deterministic(self):
        ds, _, _, t1 = make_trainer(seed=9)
        _, _, _, t2 = make_trainer(seed=9)
        ids = ds.labeled_ids[:16]
        for _ in range(3):
            t1.train_step(whole_batch(t1, ids))
            t2.train_step(whole_batch(t2, ids))
        np.testing.assert_array_equal(t1.logits(ds.test_ids).argmax(1),
                                      t2.logits(ds.test_ids).argmax(1))
        np.testing.assert_array_equal(t1.logits(ds.test_ids), t2.logits(ds.test_ids))

    def test_logits_record_no_graph(self, monkeypatch):
        ds, _, _, trainer = make_trainer()
        trainer.train_step(whole_batch(trainer, ds.labeled_ids[:16]))
        outputs, result = [], T._result

        def recording(*args):
            outputs.append(result(*args))
            return outputs[-1]

        monkeypatch.setattr(T, "_result", recording)
        trainer.logits(ds.test_ids)
        assert outputs and all(out._parents == () and out._backward is None for out in outputs)

    def test_logits_between_steps_leave_training_bit_identical(self):
        ds, plain, _, t1 = make_trainer(seed=9)
        _, probed, _, t2 = make_trainer(seed=9)
        for batch in np.array_split(ds.labeled_ids, 4):
            t1.train_step(whole_batch(t1, batch))
            t2.logits(ds.test_ids)
            t2.train_step(whole_batch(t2, batch))
            t2.accuracy(batch)
        for a, b in zip(plain, probed):
            for (name, pa), (_, pb) in zip(a.model.named_params(), b.model.named_params()):
                assert pa.values.tobytes() == pb.values.tobytes(), name

    def test_logits_temporary_memory_on_the_unaligned_test_split(self):
        # The hssl-unaligned benchmark's split network, scored on its 1000 test rows.
        config = cli.load_config(preset="fedhssl-simsiam")
        ds = data.generate_synthetic(data.SyntheticSpec(**HSSL_UNALIGNED))
        nodes = vfl.make_parties(ds, cli.build_model_config(config, ds), "simsiam", 0)
        trainer = vfl.SplitTrainer(nodes, vfl.Network(), learning_rate=0.01)
        trainer.train_step(whole_batch(trainer, ds.labeled_ids[:64]))
        trainer.logits(ds.test_ids)  # warm-up: first-call allocations are not the forward's
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            trainer.logits(ds.test_ids)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.6e6, peak


class TestAggregators:
    def test_unknown_kind(self):
        # concat is the one join; any other value, mean and max included, is refused.
        assert desk_cfg(aggregator="concat").top_input_dim() == 2 * desk_cfg().finetune_repr_dim()
        for kind in ("median", "mean", "max"):
            with pytest.raises(ConfigError, match="model.aggregator"):
                desk_cfg(aggregator=kind)
