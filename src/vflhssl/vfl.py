"""Party runtime, binary message protocol and the supervised split network.

Every message crosses the binary wire format, even in-process:
``Network.send`` encodes the frame, counts it and returns what the
receiver decodes. The active party (id 1) coordinates:
passives send representations forward, the active party returns
per-party gradients, every party steps its own optimizer. The gradients
sent back to passive parties carry ISO noise of strength lambda_f, added
before they leave the active party.
"""

from __future__ import annotations

import math
import struct
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from functools import partial, reduce

import numpy as np

from . import tensor as T
from .data import stream
from .errors import ConfigError, ProtocolError, ShapeError
from .nn import EncoderStack
from .privacy import iso_perturb, metric_top1
from .ssl import QUEUE_CAPACITY, NegativeQueue

WIRE_MAGIC = b"VFLM"
WIRE_VERSION = 1

MSG_REPR = 0
MSG_GRAD = 1
MSG_MODEL_BLOB = 2
MSG_NAMES = {MSG_REPR: "Repr", MSG_GRAD: "Grad", MSG_MODEL_BLOB: "ModelBlob"}


@dataclass
class WireMessage:
    msg_type: int
    round: int
    sender: int
    payload: np.ndarray  # 1-D or 2-D float64


def encode_message(msg: WireMessage) -> bytes:
    if msg.msg_type not in MSG_NAMES:
        raise ProtocolError(f"unknown msg_type {msg.msg_type}")
    payload = np.asarray(msg.payload, dtype="<f8")
    dims = payload.shape
    head = WIRE_MAGIC + struct.pack(
        "<HBIHB", WIRE_VERSION, msg.msg_type, msg.round, msg.sender, payload.ndim
    )
    head += struct.pack(f"<{payload.ndim}I", *dims) if payload.ndim else b""
    return head + np.ascontiguousarray(payload).tobytes()


def decode_message(raw: bytes) -> WireMessage:
    if len(raw) < 14 or raw[:4] != WIRE_MAGIC:
        raise ProtocolError("bad wire magic")
    version, msg_type, rnd, sender, ndim = struct.unpack_from("<HBIHB", raw, 4)
    if version != WIRE_VERSION:
        raise ProtocolError(f"unsupported wire version {version}")
    if msg_type not in MSG_NAMES:
        raise ProtocolError(f"unknown msg_type {msg_type}")
    offset = 14
    if len(raw) < offset + 4 * ndim:
        raise ProtocolError("truncated frame header")
    dims = struct.unpack_from(f"<{ndim}I", raw, offset)
    offset += 4 * ndim
    count = math.prod(dims)
    if len(raw) != offset + 8 * count:
        raise ProtocolError("frame length does not match payload shape")
    try:
        payload = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(dims).copy()
    except ValueError as exc:  # numpy refuses the shape: too many dims, or an overflowing product
        raise ProtocolError(f"frame shape {dims} is not representable") from exc
    return WireMessage(msg_type=msg_type, round=rnd, sender=sender, payload=payload)


class Network:
    """In-process wire between node ids (0 = server, 1..K = parties).
    Every frame is encoded, tallied and decoded where it is sent. A round
    may not regress on a (src, dst, type) stream. ``counts`` and ``bytes``
    tally frames and wire bytes per message type."""

    def __init__(self):
        self._last_round = {}
        self.counts = Counter()
        self.bytes = Counter()
        self._round = 0

    def next_round(self):
        """Monotonic round counter shared by every stream on this network."""
        self._round += 1
        return self._round

    def send(self, src, dst, msg_type, rnd, payload):
        """Deliver one frame from src to dst; returns the payload dst decodes."""
        raw = encode_message(WireMessage(msg_type, rnd, src, payload))
        self.counts[MSG_NAMES[msg_type]] += 1
        self.bytes[MSG_NAMES[msg_type]] += len(raw)
        msg = decode_message(raw)
        key = (src, dst, msg.msg_type)
        last = self._last_round.get(key)
        if last is not None and msg.round <= last:
            raise ProtocolError(
                f"round regression from node {src} to node {dst} type "
                f"{MSG_NAMES[msg.msg_type]}: {msg.round} after {last}"
            )
        self._last_round[key] = msg.round
        return msg.payload


class PartyNode:
    """What one party holds: its model, its own feature block, its MoCo
    queues and, on party 1 only, the id -> class ``labels`` lookup."""

    def __init__(self, party_id, model: EncoderStack, block, labels=None):
        self.party_id = party_id
        self.model = model
        self.block = block
        self.labels = labels
        self.queues = defaultdict(partial(NegativeQueue, QUEUE_CAPACITY))  # MoCo's, by name

    def finetune_forward(self, ids):
        return self.model.finetune_repr(*self.block.rows(ids))


def make_parties(dataset, cfg, variant, seed):
    """Build one PartyNode per dataset party, each holding its own block;
    party 1 is active, owns the top model and alone holds the labels."""
    parties = []
    for i, block in enumerate(dataset.parties):
        pid = i + 1
        party_cfg = replace(
            cfg, input_dim=block.cont.shape[1], cat_cardinalities=tuple(block.cat_cardinalities)
        )
        model = EncoderStack(party_cfg, variant, stream(seed, "init", pid), active=pid == 1)
        parties.append(PartyNode(pid, model, block, dataset.label_array if pid == 1 else None))
    return parties


def _aggregate(tensors, kind):
    """Join party representations by ``kind``: concat, mean or max."""
    if kind == "concat":
        return T.concat_cols(tensors)
    dims = {t.cols for t in tensors}
    if len(dims) != 1:
        raise ShapeError(f"{kind} aggregator requires equal per-party dims, got {sorted(dims)}")
    if kind == "mean":
        return T.affine(reduce(T.add, tensors), 1.0 / len(tensors))
    return reduce(T.maximum, tensors)


class SplitTrainer:
    """Drives FedSplitNN supervised training/fine-tuning over parties.

    ``lambda_f`` is the ISO strength on the gradients sent to passive
    parties, drawn from ``noise_rng``; 0 sends them exact. The active
    party's ``ModelConfig.aggregator`` joins the party representations.
    Each party steps its ``params_finetune()`` by SGD with momentum 0.9.
    """

    def __init__(self, parties, network, learning_rate, lambda_f=0.0, noise_rng=None):
        self.parties = sorted(parties, key=lambda p: p.party_id)
        active = self.parties[0]
        if active.party_id != 1 or active.model.top_model is None or active.labels is None:
            raise ConfigError("party 1 must be active: it owns the top model and the labels")
        if not 0 <= lambda_f < math.inf:
            raise ConfigError("lambda_f must be finite and non-negative")
        self.network = network
        self.aggregator = active.model.cfg.aggregator
        self.lambda_f = lambda_f
        self.noise_rng = noise_rng
        self.optimizers = [T.SgdOptimizer(p.model.params_finetune(), learning_rate)
                           for p in self.parties]

    def train_step(self, ids):
        """One synchronized forward/backward/update over a labeled batch."""
        active = self.parties[0]
        labels = active.labels(ids)
        rnd = self.network.next_round()

        reps = [p.finetune_forward(ids) for p in self.parties]
        received = [
            T.Tensor(self.network.send(p.party_id, 1, MSG_REPR, rnd, z.values), requires_grad=True)
            for p, z in zip(self.parties[1:], reps[1:])
        ]

        joined = _aggregate([reps[0]] + received, self.aggregator)
        logits = active.model.top_model.forward(joined)
        loss = T.softmax_cross_entropy(logits, labels)
        loss.backward()

        for p, r, z in zip(self.parties[1:], received, reps[1:]):
            g = iso_perturb(r.grad, self.lambda_f, self.noise_rng)
            z.backward(grad=self.network.send(1, p.party_id, MSG_GRAD, rnd, g))

        for opt in self.optimizers:
            opt.step()
        return loss.item()

    def logits(self, ids):
        reps = [p.finetune_forward(ids) for p in self.parties]
        joined = _aggregate(reps, self.aggregator)
        return self.parties[0].model.top_model.forward(joined).values

    def accuracy(self, ids):
        labels = self.parties[0].labels(ids)
        return metric_top1(self.logits(ids).argmax(axis=1), labels)
