import json
import os
from types import SimpleNamespace

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
    """A party's model is one EncoderStack; party 1's also owns the top model."""

    def test_shared_config_gives_identical_pma_shapes(self):
        cfg = desk_cfg()
        m1 = nn.EncoderStack(cfg, "simsiam", np.random.default_rng(0), active=True)
        m2 = nn.EncoderStack(desk_cfg(input_dim=25), "simsiam", np.random.default_rng(1))
        shapes1 = [p.shape for _, p in m1.named_pma_params()]
        shapes2 = [p.shape for _, p in m2.named_pma_params()]
        assert shapes1 == shapes2

    def test_passive_has_no_top_model(self):
        m = nn.EncoderStack(desk_cfg(), "simsiam", np.random.default_rng(0))
        assert m.top_model is None

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="swav"):
            nn.EncoderStack(desk_cfg(), "swav", np.random.default_rng(0))

    @pytest.mark.parametrize("variant", ["simsiam", "byol", "moco"])
    def test_finetune_params_end_with_active_top_model(self, variant):
        active = nn.EncoderStack(desk_cfg(), variant, np.random.default_rng(0), active=True)
        named = dict(active.named_params())
        assert [id(p) for p in active.params_finetune()[-2:]] == [
            id(named["top_model.weight"]), id(named["top_model.bias"])
        ]
        passive = nn.EncoderStack(desk_cfg(), variant, np.random.default_rng(0))
        assert not any(name.startswith("top_model") for name, _ in passive.named_params())
        passive_ids = {id(p) for p in passive.params_finetune()}
        assert passive_ids <= {id(p) for _, p in passive.named_params()}
        assert len(active.params_finetune()) == len(passive.params_finetune()) + 2

    def test_top_model_is_drawn_last(self):
        passive = nn.EncoderStack(desk_cfg(), "byol", np.random.default_rng(0))
        active = nn.EncoderStack(desk_cfg(), "byol", np.random.default_rng(0), active=True)
        for (name, p), (_, q) in zip(passive.named_params(), active.named_params()):
            assert p.values.tobytes() == q.values.tobytes(), name

    def test_moco_predictors_are_identity(self):
        m = nn.EncoderStack(desk_cfg(), "moco", np.random.default_rng(0), active=True)
        assert isinstance(m.h_c, nn.Identity)
        assert isinstance(m.h_l, nn.Identity)
        assert m.h_l.params() == []

    def test_inconsistent_dims_rejected(self):
        with pytest.raises(ConfigError, match="predictor"):
            desk_cfg(predictor_dims=(16, 32))

    def test_simsiam_has_no_target_state(self):
        m = nn.EncoderStack(desk_cfg(), "simsiam", np.random.default_rng(0), active=True)
        assert m.target is None

    def test_forward_shapes(self):
        cfg = desk_cfg()
        m = nn.EncoderStack(cfg, "byol", np.random.default_rng(0), active=True)
        cont = np.random.default_rng(1).normal(size=(6, 10))
        cats = np.zeros((6, 0), dtype=np.int64)
        assert m.local.encode(cont, cats).shape == (6, cfg.repr_dim)
        predicted = m.h_l.forward(m.local.forward(cont, cats))
        assert predicted.shape == (6, cfg.projector_dims[-1])
        assert m.finetune_repr(cont, cats).shape == (6, 2 * cfg.repr_dim)


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
        m = nn.EncoderStack(desk_cfg(), "byol", np.random.default_rng(0), active=True)
        for _ in range(3):
            m.ema.update()
        for p in m.target.params():
            assert not p.requires_grad
            assert p.grad is None

    @pytest.mark.parametrize("variant", ["byol", "moco"])
    def test_fresh_target_forward_equals_online(self, variant):
        m = nn.EncoderStack(small_cfg(), variant, np.random.default_rng(0), active=True)
        cont, cats = small_batch()
        online = m.local.forward(cont, cats).values
        target = m.target.forward(cont, cats).values
        assert target.tobytes() == online.tobytes()

    @pytest.mark.parametrize("variant", ["byol", "moco"])
    def test_update_touches_exactly_the_target(self, variant):
        m = nn.EncoderStack(small_cfg(), variant, np.random.default_rng(0), active=True)
        for p in m.local.params():
            p.values += 1.0
        before = {name: p.values.copy() for name, p in m.named_params()}
        m.ema.update()
        changed = {
            name for name, p in m.named_params() if not np.array_equal(p.values, before[name])
        }
        assert changed == {name for name in before if name.startswith("target.")}


class TestEmbeddingLayer:
    def test_corruption_row_frozen(self):
        emb = nn.EmbeddingLayer(4, 3, np.random.default_rng(0))
        out = T.embed_concat(np.zeros((3, 0)), [emb.table], [[0], [4], [4]],
                             [emb.corruption_index])
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
        return [
            nn.EncoderStack(cfg, "byol", np.random.default_rng(seed), active=True),
            nn.EncoderStack(cfg, "byol", np.random.default_rng(seed + 1)),
        ]

    @pytest.mark.parametrize("variant, layout", [("byol", BYOL_LAYOUT), ("moco", MOCO_LAYOUT)])
    def test_parameter_layout_pinned(self, tmp_path, variant, layout):
        m = nn.EncoderStack(small_cfg(), variant, np.random.default_rng(0), active=True)
        assert [(name, p.shape) for name, p in m.named_params()] == layout
        path = tmp_path / "ckpt.bin"
        nn.save_checkpoint(path, [m], "fp")
        blob = nn.load_checkpoint(path).party_params[0]
        assert [(name, a.shape) for name, a in blob.items()] == layout

    def test_interrupted_save_keeps_previous_checkpoint(self, tmp_path):
        models = self.make_models()
        path = tmp_path / "ckpt.bin"
        nn.save_checkpoint(path, models, "fp")
        good = path.read_bytes()

        class Unreadable:
            rows = cols = 1

            @property
            def values(self):
                raise RuntimeError("interrupted")

        named = models[0].named_params()
        interrupted_at_fifth = SimpleNamespace(
            named_params=lambda: named[:4] + [("unreadable", Unreadable())] + named[4:]
        )
        with pytest.raises(RuntimeError, match="interrupted"):
            nn.save_checkpoint(path, [interrupted_at_fifth, models[1]], "fp")
        assert path.read_bytes() == good
        assert os.listdir(tmp_path) == ["ckpt.bin"]
        nn.load_checkpoint(path).restore_into(models)

    def saved_with_header(self, tmp_path, edit):
        """A saved checkpoint whose JSON header ``edit`` changed in place."""
        models = self.make_models()
        path = tmp_path / "ckpt.bin"
        nn.save_checkpoint(path, models, "fp")
        raw = path.read_bytes()
        hlen = int.from_bytes(raw[6:10], "little")
        header = json.loads(raw[10 : 10 + hlen])
        edit(header)
        new_header = json.dumps(header).encode()
        path.write_bytes(raw[:6] + len(new_header).to_bytes(4, "little") + new_header
                         + raw[10 + hlen :])
        return path

    @pytest.mark.parametrize("key", ["parties", "config_fingerprint", "party_count", "version"])
    def test_header_missing_key(self, tmp_path, key):
        path = self.saved_with_header(tmp_path, lambda header: header.pop(key))
        with pytest.raises(FormatError, match="lacks"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h: h.update(party_count=h["party_count"] + 1), id="party-count-up"),
        pytest.param(lambda h: h.update(party_count=1), id="party-count-down"),
        pytest.param(lambda h: h["parties"].pop(), id="party-dropped"),
        pytest.param(lambda h: h.update(version=nn.CHECKPOINT_VERSION + 1), id="json-version"),
        pytest.param(lambda h: h.update(version=str(nn.CHECKPOINT_VERSION)), id="string-version"),
    ])
    def test_header_disagrees_with_the_file(self, tmp_path, edit):
        path = self.saved_with_header(tmp_path, edit)
        with pytest.raises(FormatError, match="party_count or version disagrees"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda h: h["parties"][0][0].pop("rows"), id="no-rows"),
        pytest.param(lambda h: h["parties"][0][0].pop("cols"), id="no-cols"),
        pytest.param(lambda h: h["parties"][0][0].pop("name"), id="no-name"),
        pytest.param(lambda h: h["parties"][0][0].update(rows="4"), id="string-rows"),
        pytest.param(lambda h: h["parties"][0][0].update(cols=-1), id="negative-cols"),
        pytest.param(lambda h: h["parties"][1].insert(0, 7), id="entry-not-object"),
        pytest.param(lambda h: h.update(parties="party"), id="parties-string"),
        pytest.param(lambda h: h.update(parties=["party"]), id="party-string"),
    ])
    def test_malformed_party_entry(self, tmp_path, edit):
        path = self.saved_with_header(tmp_path, edit)
        with pytest.raises(FormatError, match="checkpoint parties|malformed"):
            nn.load_checkpoint(path)

    def test_round_trip_bit_exact(self, tmp_path):
        models = self.make_models()
        path = tmp_path / "ckpt.bin"
        nn.save_checkpoint(path, models, "fp", seeds=[1, 2])
        ckpt = nn.load_checkpoint(path)
        for model, blob in zip(models, ckpt.party_params):
            for name, p in model.named_params():
                np.testing.assert_array_equal(blob[name], p.values)
        assert ckpt.seeds == [1, 2]

    def test_save_load_save_byte_identical(self, tmp_path):
        models = self.make_models()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        nn.save_checkpoint(p1, models, "fp")
        ckpt = nn.load_checkpoint(p1)
        fresh = self.make_models(seed=42)
        ckpt.restore_into(fresh)
        nn.save_checkpoint(p2, fresh, "fp")
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(FormatError):
            nn.load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        models = self.make_models()
        path = tmp_path / "ckpt.bin"
        nn.save_checkpoint(path, models, "fp")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(FormatError):
            nn.load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        models = self.make_models()
        path = tmp_path / "ckpt.bin"
        nn.save_checkpoint(path, models, "fp")
        raw = bytearray(path.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionError):
            nn.load_checkpoint(path)

    def test_fingerprint_mismatch(self, tmp_path):
        models = self.make_models()
        path = tmp_path / "ckpt.bin"
        nn.save_checkpoint(path, models, "fp")
        with pytest.raises(FingerprintError):
            nn.load_checkpoint(path, expect_fingerprint="deadbeef")


class ArrayModel:
    """Stand-in model whose named parameters are the given 2-D arrays."""

    def __init__(self, arrays):
        self.arrays = [(f"p{i}", T.Tensor(a)) for i, a in enumerate(arrays)]

    def named_params(self):
        return self.arrays


def checkpoint_models():
    """Up to three parties of up to three float64 arrays each, zero-size
    sides, NaNs, infinities, signed zeros and subnormals included."""
    st = pytest.importorskip("hypothesis").strategies
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    arrays = hnp.arrays("<f8", hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=4))
    return st.lists(st.lists(arrays, max_size=3).map(ArrayModel), max_size=3)


def test_checkpoint_round_trip_is_exact(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path / "ckpt.bin"

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        models=checkpoint_models(),
        fingerprint=st.text(max_size=16),
        seeds=st.lists(st.integers(0, 2**63), max_size=4),
    )
    def check(models, fingerprint, seeds):
        nn.save_checkpoint(path, models, fingerprint, seeds)
        ckpt = nn.load_checkpoint(path, expect_fingerprint=fingerprint)
        assert (ckpt.config_fingerprint, ckpt.seeds) == (fingerprint, seeds)
        assert len(ckpt.party_params) == len(models)
        for model, blob in zip(models, ckpt.party_params):
            assert list(blob) == [name for name, _ in model.named_params()]
            for name, p in model.named_params():
                assert blob[name].shape == p.shape
                assert blob[name].tobytes() == p.values.tobytes()

    check()


def test_malformed_checkpoints_raise_only_format_error(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path / "ckpt.bin"

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        models=checkpoint_models(),
        garbage=st.binary(max_size=96),
        cut=st.integers(0, 2**20),
        bit=st.integers(0, 2**20),
        kind=st.sampled_from(["random", "prefixed", "truncated", "bitflip"]),
    )
    def check(models, garbage, cut, bit, kind):
        nn.save_checkpoint(path, models, "fp", [0])
        good = path.read_bytes()
        if kind == "random":
            raw = garbage
        elif kind == "prefixed":  # past the magic and version checks
            raw = good[:6] + garbage
        elif kind == "truncated":
            raw = good[: cut % len(good)]
        else:
            flipped = bytearray(good)
            flipped[(bit // 8) % len(good)] ^= 1 << (bit % 8)
            raw = bytes(flipped)
        path.write_bytes(raw)
        try:
            nn.load_checkpoint(path)
        except FormatError:
            return
        assert kind != "truncated", "a truncated checkpoint loaded"

    check()
