"""Neural building blocks and the per-party encoder stack.

A party's model holds two towers: a cross-party encoder (backbone f_c,
projector, predictor h_c) trained on aligned samples, and a local
encoder split into bottom/top (f_lb, f_lt) with its own projector and
predictor h_l, plus an optional EMA target: a frozen copy of the local
tower, run through the same forward path. Categorical inputs go
through per-tower embedding tables whose last row is a reserved,
never-trained corruption vector. The active party additionally owns a
top classifier for the supervised split network.
"""

from __future__ import annotations

import copy
import json
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import atomic_write
from .errors import ConfigError, FingerprintError, FormatError, VersionError
from .ssl import VARIANTS

CHECKPOINT_MAGIC = b"VFLH"
CHECKPOINT_VERSION = 1


def _join(prefix, name):
    return f"{prefix}.{name}" if prefix else name


class Module:
    """Subclasses name their own parameters in ``named_params(prefix)``;
    ``params`` lists the same tensors in the same order."""

    def params(self):
        return [p for _, p in self.named_params()]


class DenseLayer(Module):
    """``x @ weight + bias``, then ReLU if ``relu``: Glorot-uniform weights
    drawn from ``rng``, zero biases."""

    def __init__(self, in_dim, out_dim, rng, relu=False):
        if in_dim <= 0 or out_dim <= 0:
            raise ConfigError(f"dense dims must be positive, got {in_dim}x{out_dim}")
        bound = np.sqrt(6.0 / (in_dim + out_dim))
        self.weight = T.Tensor(rng.uniform(-bound, bound, size=(in_dim, out_dim)), requires_grad=True)
        self.bias = T.Tensor(np.zeros((1, out_dim)), requires_grad=True)
        self.relu = relu

    def forward(self, x):
        return T.dense(x, self.weight, self.bias, self.relu)

    def named_params(self, prefix=""):
        return [(_join(prefix, "weight"), self.weight), (_join(prefix, "bias"), self.bias)]


class Identity(Module):
    """Parameter-free predictor used by the MoCo variant."""

    def forward(self, x):
        return x

    def named_params(self, prefix=""):
        return []


class MLP(Module):
    """Dense layers of widths ``dims``: ReLU after each but the last, which
    has one only if ``relu_last``."""

    def __init__(self, dims, rng, relu_last=False):
        if len(dims) < 2:
            raise ConfigError("MLP needs at least one layer")
        last = len(dims) - 2
        self.layers = [DenseLayer(a, b, rng, relu=i < last or relu_last)
                       for i, (a, b) in enumerate(zip(dims[:-1], dims[1:]))]

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def named_params(self, prefix=""):
        return [
            item for i, layer in enumerate(self.layers)
            for item in layer.named_params(_join(prefix, str(i)))
        ]


class EmbeddingLayer(Module):
    """Lookup table with a reserved corruption row at index ``vocab``.

    The corruption row is excluded from gradient updates; augmentation
    maps corrupted categorical cells onto it.
    """

    def __init__(self, vocab, dim, rng):
        if vocab <= 0 or dim <= 0:
            raise ConfigError(f"embedding dims must be positive, got {vocab}x{dim}")
        bound = np.sqrt(6.0 / (vocab + 1 + dim))
        values = rng.uniform(-bound, bound, size=(vocab + 1, dim))
        self.table = T.Tensor(values, requires_grad=True)
        self.corruption_index = vocab

    def named_params(self, prefix=""):
        return [(_join(prefix, "table"), self.table)]


class Tower(Module):
    """Embeddings -> backbone -> projector, run by one forward path.

    ``parts`` are named modules in forward order: the backbone layers,
    then the projector. Continuous columns and the categorical
    embeddings are concatenated into the backbone input by one
    ``embed_concat`` node.
    """

    def __init__(self, embed_name, embeds, **parts):
        self.embeds = {f"{embed_name}.{i}": e for i, e in enumerate(embeds)}
        *backbone, self.projector_name = parts
        self.backbone = {name: parts[name] for name in backbone}
        self.projector = parts[self.projector_name]

    def named_params(self, prefix=""):
        modules = {**self.embeds, **self.backbone, self.projector_name: self.projector}
        return [
            item for name, module in modules.items()
            for item in module.named_params(_join(prefix, name))
        ]

    def backbone_params(self):
        """Embedding and backbone parameters: the part fine-tuning trains."""
        modules = [*self.embeds.values(), *self.backbone.values()]
        return [p for module in modules for p in module.params()]

    def encode(self, cont, cats):
        """Backbone representation of a batch of raw features."""
        if self.embeds:
            embeds = self.embeds.values()
            x = T.embed_concat(cont, [e.table for e in embeds], cats,
                               [e.corruption_index for e in embeds])
        else:
            x = T.Tensor(cont)
        for module in self.backbone.values():
            x = module.forward(x)
        return x

    def forward(self, cont, cats):
        return self.projector.forward(self.encode(cont, cats))


class EmaTracker:
    """theta_tgt <- m*theta_tgt + (1-m)*theta for every registered pair."""

    def __init__(self, momentum, pairs):
        if not 0.0 <= momentum <= 1.0:
            raise ConfigError("EMA momentum must be in [0, 1]")
        self.momentum = momentum
        self.pairs = list(pairs)

    def update(self):
        m = self.momentum
        for online, target in self.pairs:
            target.values *= m
            target.values += (1.0 - m) * online.values


# finetune_encoders -> the towers fine-tuning trains and concatenates, in order
FINETUNE_TOWERS = {"local": ("local",), "cross": ("cross",), "concat": ("local", "cross")}


@dataclass
class ModelConfig:
    """Per-party model dimensions shared by every party.

    ``input_dim`` is the continuous feature count; categorical columns
    are described by ``cat_cardinalities`` and enter through embeddings.
    ``finetune_encoders`` picks the fine-tune representation: local
    backbone only, cross backbone only, or their concatenation. The
    fields from ``embed_dim`` on, with their defaults, are the CLI's
    ``model`` section; the dataset sets the first four.
    """

    input_dim: int
    num_classes: int
    num_parties: int = 2
    cat_cardinalities: tuple = ()
    embed_dim: int = 8
    hidden_dim: int = 32
    repr_dim: int = 16
    projector_dims: tuple = (16, 16, 16)  # two hidden widths, then the output
    predictor_dims: tuple = (8, 16)  # the bottleneck, then the output
    moco_projector_out: int = 16
    finetune_encoders: str = "concat"  # local | cross | concat
    aggregator: str = "concat"  # the only join; kept as a key for existing configs

    def __post_init__(self):
        if (len(self.projector_dims), len(self.predictor_dims)) != (3, 2):
            raise ConfigError(
                f"model.projector_dims needs 3 entries and model.predictor_dims 2, got "
                f"{list(self.projector_dims)} and {list(self.predictor_dims)}"
            )
        for name in ("num_classes", "num_parties", "embed_dim", "hidden_dim", "repr_dim",
                     "moco_projector_out", "projector_dims", "predictor_dims"):
            if min(np.ravel(getattr(self, name))) <= 0:  # a width, or every entry of a list
                raise ConfigError(f"model.{name} must be positive, got {getattr(self, name)}")
        if self.input_dim < 0 or self.encoded_input_dim() <= 0:
            raise ConfigError("party must have at least one feature after encoding")
        if self.finetune_encoders not in FINETUNE_TOWERS:
            raise ConfigError(f"unknown model.finetune_encoders {self.finetune_encoders!r}")
        if self.aggregator != "concat":
            raise ConfigError(f"model.aggregator must be 'concat', got {self.aggregator!r}")
        if self.predictor_dims[-1] != self.projector_dims[-1]:
            raise ConfigError(
                f"model.predictor_dims output {self.predictor_dims[-1]} must equal "
                f"model.projector_dims output {self.projector_dims[-1]}"
            )

    def encoded_input_dim(self):
        return self.input_dim + self.embed_dim * len(self.cat_cardinalities)

    def finetune_repr_dim(self):
        return self.repr_dim * len(FINETUNE_TOWERS[self.finetune_encoders])

    def top_input_dim(self):
        return self.finetune_repr_dim() * self.num_parties


class EncoderStack:
    """One party's full model: local tower, cross tower, optional EMA
    target and, on the active party, the top classifier."""

    def __init__(self, cfg: ModelConfig, variant: str, rng, active=False):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown SSL variant {variant!r}")
        self.cfg = cfg
        in_dim = cfg.encoded_input_dim()
        proj_out = cfg.moco_projector_out if variant == "moco" else cfg.projector_dims[-1]

        def embeds():
            return [EmbeddingLayer(v, cfg.embed_dim, rng) for v in cfg.cat_cardinalities]

        def projector():
            return MLP([cfg.repr_dim, cfg.projector_dims[0], cfg.projector_dims[1], proj_out], rng)

        def predictor():
            if variant == "moco":
                return Identity()
            return MLP([proj_out, cfg.predictor_dims[0], proj_out], rng)

        # Local tower. The backbone is 2 dense layers; the top layer f_lt
        # is the aggregation unit shared through PMA, together with h_l.
        self.local = Tower(
            "embed_l", embeds(),
            f_lb=MLP([in_dim, cfg.hidden_dim], rng, relu_last=True),
            f_lt=DenseLayer(cfg.hidden_dim, cfg.repr_dim, rng),
            projector_l=projector(),
        )
        self.h_l = predictor()

        self.cross = Tower(
            "embed_c", embeds(),
            f_c=MLP([in_dim, cfg.hidden_dim, cfg.repr_dim], rng),
            projector_c=projector(),
        )
        self.h_c = predictor()
        self.finetune_towers = [getattr(self, t) for t in FINETUNE_TOWERS[cfg.finetune_encoders]]

        # EMA target of the local tower (BYOL/MoCo only; SimSiam reuses
        # the online tower under stop-gradient).
        self.target = None
        self.ema = None
        if variant in ("byol", "moco"):
            self.target = copy.deepcopy(self.local)
            for p in self.target.params():
                p.requires_grad = False
            momentum = 0.995 if variant == "byol" else 0.99
            self.ema = EmaTracker(momentum, zip(self.local.params(), self.target.params()))
        self.top_model = DenseLayer(cfg.top_input_dim(), cfg.num_classes, rng) if active else None

    def named_params(self):
        out = self.local.named_params() + self.h_l.named_params("h_l")
        out += self.cross.named_params() + self.h_c.named_params("h_c")
        if self.target is not None:
            # Checkpoint version 1 stores the target in name order.
            out += sorted(self.target.named_params("target"), key=lambda item: item[0])
        if self.top_model is not None:
            out += self.top_model.named_params("top_model")
        return out

    def params_cross(self):
        return self.cross.params() + self.h_c.params()

    def params_local(self):
        return self.local.params() + self.h_l.params()

    def named_pma_params(self):
        """f_lt and h_l parameters in a canonical order shared by all parties."""
        return self.local.backbone["f_lt"].named_params("f_lt") + self.h_l.named_params("h_l")

    def params_finetune(self):
        """The encoder parameters fine-tuning trains, then the top model's."""
        ps = [p for tower in self.finetune_towers for p in tower.backbone_params()]
        if self.top_model is not None:
            ps += self.top_model.params()
        return ps

    def finetune_repr(self, cont, cats):
        reps = [tower.encode(cont, cats) for tower in self.finetune_towers]
        return reps[0] if len(reps) == 1 else T.concat_cols(reps)


# -- checkpoints -------------------------------------------------------

@dataclass
class Checkpoint:
    version: int
    config_fingerprint: str
    seeds: list
    party_params: list  # list of {name: ndarray} dicts, one per party

    def restore_into(self, models):
        if len(models) != len(self.party_params):
            raise FingerprintError(
                f"checkpoint holds {len(self.party_params)} parties, got {len(models)} models"
            )
        for model, blob in zip(models, self.party_params):
            named = dict(model.named_params())
            if set(named) != set(blob):
                missing = set(named) ^ set(blob)
                raise FingerprintError(f"parameter names disagree: {sorted(missing)[:4]}")
            for name, values in blob.items():
                if named[name].shape != values.shape:
                    raise FingerprintError(f"shape mismatch for {name}")
                named[name].values[:] = values


def save_checkpoint(path, models, fingerprint, seeds=()):
    header = {
        "version": CHECKPOINT_VERSION,
        "party_count": len(models),
        "config_fingerprint": fingerprint,
        "seeds": list(seeds),
        "parties": [
            [{"name": name, "rows": p.rows, "cols": p.cols} for name, p in m.named_params()]
            for m in models
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    chunks = [CHECKPOINT_MAGIC, struct.pack("<HI", CHECKPOINT_VERSION, len(header_bytes)),
              header_bytes]
    chunks += [np.ascontiguousarray(p.values, dtype="<f8").tobytes()
               for m in models for _, p in m.named_params()]
    atomic_write(path, b"".join(chunks))


def _is_dim(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _party_entries(header):
    """The header's per-party lists of {name, rows, cols}, each checked."""
    parties = header["parties"]
    if not isinstance(parties, list) or not all(isinstance(p, list) for p in parties):
        raise FormatError("checkpoint parties must be a list of lists")
    for party in parties:
        for entry in party:
            if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                    and _is_dim(entry.get("rows")) and _is_dim(entry.get("cols"))):
                raise FormatError(f"malformed checkpoint parameter entry {entry!r}")
    return parties


def load_checkpoint(path, expect_fingerprint=None) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read checkpoint {path}: {exc.strerror}") from exc
    if len(raw) < 10 or raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError("bad checkpoint magic")
    (version,) = struct.unpack_from("<H", raw, 4)
    if version != CHECKPOINT_VERSION:
        raise VersionError(f"unsupported checkpoint version {version}")
    (hlen,) = struct.unpack_from("<I", raw, 6)
    if len(raw) < 10 + hlen:
        raise FormatError("truncated checkpoint header")
    try:
        header = json.loads(raw[10 : 10 + hlen])
    except ValueError as exc:
        raise FormatError("corrupt checkpoint header") from exc
    required = ("config_fingerprint", "parties", "party_count", "seeds", "version")
    if not isinstance(header, dict) or not set(required) <= set(header):
        raise FormatError(f"checkpoint header lacks one of {', '.join(required)}")
    parties = _party_entries(header)
    if header["party_count"] != len(parties) or header["version"] != version:
        raise FormatError("checkpoint header's party_count or version disagrees with the file")
    if expect_fingerprint is not None and header["config_fingerprint"] != expect_fingerprint:
        raise FingerprintError("checkpoint fingerprint does not match config")
    offset = 10 + hlen
    party_params = []
    for party in parties:
        blob = {}
        for entry in party:
            nbytes = entry["rows"] * entry["cols"] * 8
            if offset + nbytes > len(raw):
                raise FormatError("truncated checkpoint payload")
            arr = np.frombuffer(raw, dtype="<f8", count=entry["rows"] * entry["cols"], offset=offset)
            blob[entry["name"]] = arr.reshape(entry["rows"], entry["cols"]).copy()
            offset += nbytes
        party_params.append(blob)
    if offset != len(raw):
        raise FormatError("trailing bytes in checkpoint")
    return Checkpoint(
        version=version,
        config_fingerprint=header["config_fingerprint"],
        seeds=header["seeds"],
        party_params=party_params,
    )
