import json

import numpy as np
import pytest

from vflhssl import nn, tensor as T
from vflhssl.errors import ConfigError, FingerprintError, FormatError, VersionError


def desk_cfg(**kw):
    base = dict(input_dim=10, num_classes=4, num_parties=2)
    base.update(kw)
    return nn.ModelConfig(**base)


class TestInitWeights:
    def test_same_seed_identical(self):
        a = nn.DenseLayer(8, 8, rng=np.random.default_rng(3))
        b = nn.DenseLayer(8, 8, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a.weight.values, b.weight.values)

    def test_mean_near_zero(self):
        layer = nn.DenseLayer(100, 100, rng=np.random.default_rng(0))
        draws = layer.weight.values.ravel()
        bound = np.sqrt(6.0 / 200)
        sigma = bound / np.sqrt(3)  # std of U(-bound, bound)
        assert abs(draws.mean()) < 3 * sigma / np.sqrt(draws.size)

    def test_bias_zero(self):
        layer = nn.DenseLayer(5, 7, rng=np.random.default_rng(0))
        assert not layer.bias.values.any()


class TestBuildPartyModel:
    def test_shared_config_gives_identical_pma_shapes(self):
        cfg = desk_cfg()
        m1 = nn.build_party_model(cfg, "active", "simsiam", np.random.default_rng(0))
        m2 = nn.build_party_model(desk_cfg(input_dim=25), "passive", "simsiam", np.random.default_rng(1))
        shapes1 = [p.shape for _, p in m1.stack.named_pma_params()]
        shapes2 = [p.shape for _, p in m2.stack.named_pma_params()]
        assert shapes1 == shapes2

    def test_passive_has_no_top_model(self):
        m = nn.build_party_model(desk_cfg(), "passive", "simsiam", np.random.default_rng(0))
        assert m.top_model is None

    def test_moco_predictors_are_identity(self):
        m = nn.build_party_model(desk_cfg(), "active", "moco", np.random.default_rng(0))
        assert isinstance(m.stack.h_c, nn.Identity)
        assert isinstance(m.stack.h_l, nn.Identity)
        assert m.stack.h_l.params() == []

    def test_inconsistent_dims_rejected(self):
        with pytest.raises(ConfigError, match="predictor"):
            desk_cfg(predictor_dims=(16, 32))

    def test_simsiam_has_no_target_state(self):
        m = nn.build_party_model(desk_cfg(), "active", "simsiam", np.random.default_rng(0))
        assert m.stack.target is None

    def test_forward_shapes(self):
        cfg = desk_cfg()
        m = nn.build_party_model(cfg, "active", "byol", np.random.default_rng(0))
        cont = np.random.default_rng(1).normal(size=(6, 10))
        cats = np.zeros((6, 0), dtype=np.int64)
        assert m.stack.local.encode(cont, cats).shape == (6, cfg.repr_dim)
        predicted = m.stack.h_l.forward(m.stack.local.forward(cont, cats))
        assert predicted.shape == (6, cfg.projector_dims[-1])
        assert m.stack.finetune_repr(cont, cats).shape == (6, 2 * cfg.repr_dim)


def small_cfg():
    return nn.ModelConfig(
        input_dim=3, num_classes=2, cat_cardinalities=(2,), embed_dim=2, hidden_dim=4,
        repr_dim=3, projector_dims=(5, 5, 6), predictor_dims=(2, 6), moco_projector_out=4,
    )


def small_batch():
    rng = np.random.default_rng(1)
    return rng.normal(size=(7, 3)), rng.integers(0, 3, size=(7, 1))


class TestEmaTracker:
    def test_m_one_fixed_point(self):
        online = T.Tensor([[1.0]], requires_grad=True)
        target = T.Tensor([[0.5]])
        nn.EmaTracker(1.0, [(online, target)]).update()
        assert target.values[0, 0] == 0.5

    def test_m_zero_full_copy(self):
        online = T.Tensor([[1.0]], requires_grad=True)
        target = T.Tensor([[0.5]])
        nn.EmaTracker(0.0, [(online, target)]).update()
        assert target.values[0, 0] == 1.0

    def test_two_update_unroll(self):
        online = T.Tensor([[1.0]], requires_grad=True)
        target = T.Tensor([[0.0]])
        tracker = nn.EmaTracker(0.99, [(online, target)])
        tracker.update()
        tracker.update()
        assert target.values[0, 0] == pytest.approx(0.0199, abs=1e-12)

    def test_targets_never_require_grad(self):
        m = nn.build_party_model(desk_cfg(), "active", "byol", np.random.default_rng(0))
        for _ in range(3):
            m.stack.ema.update()
        for p in m.stack.target.params():
            assert not p.requires_grad
            assert p.grad is None

    @pytest.mark.parametrize("variant", ["byol", "moco"])
    def test_fresh_target_forward_equals_online(self, variant):
        m = nn.build_party_model(small_cfg(), "active", variant, np.random.default_rng(0))
        cont, cats = small_batch()
        online = m.stack.local.forward(cont, cats).values
        target = m.stack.target.forward(cont, cats).values
        assert target.tobytes() == online.tobytes()

    @pytest.mark.parametrize("variant", ["byol", "moco"])
    def test_update_touches_exactly_the_target(self, variant):
        m = nn.build_party_model(small_cfg(), "active", variant, np.random.default_rng(0))
        for p in m.stack.local.params():
            p.values += 1.0
        before = {name: p.values.copy() for name, p in m.named_params()}
        m.stack.ema.update()
        changed = {
            name for name, p in m.named_params() if not np.array_equal(p.values, before[name])
        }
        assert changed == {name for name in before if name.startswith("target.")}


class TestEmbeddingLayer:
    def test_corruption_row_frozen(self):
        emb = nn.EmbeddingLayer(4, 3, np.random.default_rng(0))
        out = emb.forward([0, 4, 4])
        T.sum_all(out).backward()
        assert not emb.table.grad[emb.corruption_index].any()
        assert emb.table.grad[0].any()


# Checkpoint layout (format version 1) of small_cfg(): online towers in
# forward order, then the EMA target sorted by name, then the top model.
BYOL_LAYOUT = [
    ("embed_l.0.table", (3, 2)), ("f_lb.0.weight", (5, 4)), ("f_lb.0.bias", (1, 4)),
    ("f_lt.weight", (4, 3)), ("f_lt.bias", (1, 3)),
    ("projector_l.0.weight", (3, 5)), ("projector_l.0.bias", (1, 5)),
    ("projector_l.1.weight", (5, 5)), ("projector_l.1.bias", (1, 5)),
    ("projector_l.2.weight", (5, 6)), ("projector_l.2.bias", (1, 6)),
    ("h_l.0.weight", (6, 2)), ("h_l.0.bias", (1, 2)),
    ("h_l.1.weight", (2, 6)), ("h_l.1.bias", (1, 6)),
    ("embed_c.0.table", (3, 2)), ("f_c.0.weight", (5, 4)), ("f_c.0.bias", (1, 4)),
    ("f_c.1.weight", (4, 3)), ("f_c.1.bias", (1, 3)),
    ("projector_c.0.weight", (3, 5)), ("projector_c.0.bias", (1, 5)),
    ("projector_c.1.weight", (5, 5)), ("projector_c.1.bias", (1, 5)),
    ("projector_c.2.weight", (5, 6)), ("projector_c.2.bias", (1, 6)),
    ("h_c.0.weight", (6, 2)), ("h_c.0.bias", (1, 2)),
    ("h_c.1.weight", (2, 6)), ("h_c.1.bias", (1, 6)),
    ("target.embed_l.0.table", (3, 2)),
    ("target.f_lb.0.bias", (1, 4)), ("target.f_lb.0.weight", (5, 4)),
    ("target.f_lt.bias", (1, 3)), ("target.f_lt.weight", (4, 3)),
    ("target.projector_l.0.bias", (1, 5)), ("target.projector_l.0.weight", (3, 5)),
    ("target.projector_l.1.bias", (1, 5)), ("target.projector_l.1.weight", (5, 5)),
    ("target.projector_l.2.bias", (1, 6)), ("target.projector_l.2.weight", (5, 6)),
    ("top_model.weight", (12, 2)), ("top_model.bias", (1, 2)),
]

MOCO_LAYOUT = [
    ("embed_l.0.table", (3, 2)), ("f_lb.0.weight", (5, 4)), ("f_lb.0.bias", (1, 4)),
    ("f_lt.weight", (4, 3)), ("f_lt.bias", (1, 3)),
    ("projector_l.0.weight", (3, 5)), ("projector_l.0.bias", (1, 5)),
    ("projector_l.1.weight", (5, 5)), ("projector_l.1.bias", (1, 5)),
    ("projector_l.2.weight", (5, 4)), ("projector_l.2.bias", (1, 4)),
    ("embed_c.0.table", (3, 2)), ("f_c.0.weight", (5, 4)), ("f_c.0.bias", (1, 4)),
    ("f_c.1.weight", (4, 3)), ("f_c.1.bias", (1, 3)),
    ("projector_c.0.weight", (3, 5)), ("projector_c.0.bias", (1, 5)),
    ("projector_c.1.weight", (5, 5)), ("projector_c.1.bias", (1, 5)),
    ("projector_c.2.weight", (5, 4)), ("projector_c.2.bias", (1, 4)),
    ("target.embed_l.0.table", (3, 2)),
    ("target.f_lb.0.bias", (1, 4)), ("target.f_lb.0.weight", (5, 4)),
    ("target.f_lt.bias", (1, 3)), ("target.f_lt.weight", (4, 3)),
    ("target.projector_l.0.bias", (1, 5)), ("target.projector_l.0.weight", (3, 5)),
    ("target.projector_l.1.bias", (1, 5)), ("target.projector_l.1.weight", (5, 5)),
    ("target.projector_l.2.bias", (1, 4)), ("target.projector_l.2.weight", (5, 4)),
    ("top_model.weight", (12, 2)), ("top_model.bias", (1, 2)),
]


class TestCheckpoint:
    def make_models(self, seed=0):
        cfg = desk_cfg()
        return cfg, [
            nn.build_party_model(cfg, "active", "byol", np.random.default_rng(seed)),
            nn.build_party_model(cfg, "passive", "byol", np.random.default_rng(seed + 1)),
        ]

    @pytest.mark.parametrize("variant, layout", [("byol", BYOL_LAYOUT), ("moco", MOCO_LAYOUT)])
    def test_parameter_layout_pinned(self, tmp_path, variant, layout):
        m = nn.build_party_model(small_cfg(), "active", variant, np.random.default_rng(0))
        assert [(name, p.shape) for name, p in m.named_params()] == layout
        path = tmp_path / "ckpt.bin"
        nn.save_checkpoint(path, [m], small_cfg())
        blob = nn.load_checkpoint(path).party_params[0]
        assert [(name, a.shape) for name, a in blob.items()] == layout

    @pytest.mark.parametrize("key", ["parties", "config_fingerprint"])
    def test_header_missing_key(self, tmp_path, key):
        cfg, models = self.make_models()
        path = tmp_path / "ckpt.bin"
        nn.save_checkpoint(path, models, cfg)
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[6:10], "little")
        header = json.loads(raw[10 : 10 + hlen])
        del header[key]
        new_header = json.dumps(header).encode()
        path.write_bytes(raw[:6] + len(new_header).to_bytes(4, "little") + new_header
                         + raw[10 + hlen :])
        with pytest.raises(FormatError, match="lacks"):
            nn.load_checkpoint(path)

    def test_round_trip_bit_exact(self, tmp_path):
        cfg, models = self.make_models()
        path = tmp_path / "ckpt.bin"
        nn.save_checkpoint(path, models, cfg, seeds=[1, 2])
        ckpt = nn.load_checkpoint(path)
        for model, blob in zip(models, ckpt.party_params):
            for name, p in model.named_params():
                np.testing.assert_array_equal(blob[name], p.values)
        assert ckpt.seeds == [1, 2]

    def test_save_load_save_byte_identical(self, tmp_path):
        cfg, models = self.make_models()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        nn.save_checkpoint(p1, models, cfg)
        ckpt = nn.load_checkpoint(p1)
        _, fresh = self.make_models(seed=42)
        ckpt.restore_into(fresh)
        nn.save_checkpoint(p2, fresh, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(FormatError):
            nn.load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        cfg, models = self.make_models()
        path = tmp_path / "ckpt.bin"
        nn.save_checkpoint(path, models, cfg)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(FormatError):
            nn.load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        cfg, models = self.make_models()
        path = tmp_path / "ckpt.bin"
        nn.save_checkpoint(path, models, cfg)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionError):
            nn.load_checkpoint(path)

    def test_fingerprint_mismatch(self, tmp_path):
        cfg, models = self.make_models()
        path = tmp_path / "ckpt.bin"
        nn.save_checkpoint(path, models, cfg)
        with pytest.raises(FingerprintError):
            nn.load_checkpoint(path, expect_fingerprint="deadbeef")
