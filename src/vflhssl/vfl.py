"""Party runtime, binary message protocol and the supervised split network.

Messages always cross the binary wire format, even in-process, so a
networked deployment only swaps the channel implementation. The active
party (id 1) coordinates: passives send representations forward, the
active party returns per-party gradients, every party steps its own
optimizer. With ISO protection configured, the gradients sent back to
passive parties are noise-perturbed before leaving the active party.
"""

from __future__ import annotations

import queue
import struct
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .errors import ConfigError, ProtocolError, ShapeError
from .nn import build_party_model
from .privacy import iso_perturb

WIRE_MAGIC = b"VFLM"
WIRE_VERSION = 1

MSG_REPR = 0
MSG_GRAD = 1
MSG_MODEL_BLOB = 2
MSG_CONTROL = 3
MSG_NAMES = {MSG_REPR: "Repr", MSG_GRAD: "Grad", MSG_MODEL_BLOB: "ModelBlob", MSG_CONTROL: "Control"}


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
    count = 1
    for d in dims:
        count *= d
    if len(raw) != offset + 8 * count:
        raise ProtocolError("frame length does not match payload shape")
    payload = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(dims).copy()
    return WireMessage(msg_type=msg_type, round=rnd, sender=sender, payload=payload)


class Channel:
    """FIFO of encoded frames with per-(sender, type) round validation."""

    def __init__(self):
        self._queue = queue.Queue()
        self._last_round = {}
        self.closed = False

    def send(self, msg: WireMessage):
        if self.closed:
            raise ProtocolError("send on closed channel")
        self._queue.put(encode_message(msg))

    def recv(self, timeout=None) -> WireMessage:
        if self.closed and self._queue.empty():
            raise ProtocolError("recv on closed channel")
        try:
            raw = self._queue.get(timeout=timeout)
        except queue.Empty as exc:
            raise ProtocolError("recv timed out") from exc
        msg = decode_message(raw)
        key = (msg.sender, msg.msg_type)
        last = self._last_round.get(key)
        if last is not None and msg.round <= last:
            raise ProtocolError(
                f"round regression for sender {msg.sender} type {MSG_NAMES[msg.msg_type]}: "
                f"{msg.round} after {last}"
            )
        self._last_round[key] = msg.round
        return msg

    def close(self):
        self.closed = True


class Network:
    """Full mesh of channels between node ids (0 = server, 1..K = parties)."""

    def __init__(self, node_ids):
        self.node_ids = list(node_ids)
        self._channels = {
            (a, b): Channel() for a in self.node_ids for b in self.node_ids if a != b
        }
        self.counts = Counter()
        self._round = 0

    def next_round(self):
        """Monotonic round counter shared by every stream on this network."""
        self._round += 1
        return self._round

    def send(self, src, dst, msg: WireMessage):
        self._channels[(src, dst)].send(msg)
        self.counts[MSG_NAMES[msg.msg_type]] += 1

    def recv(self, dst, src, timeout=None) -> WireMessage:
        return self._channels[(src, dst)].recv(timeout=timeout)

    def reset_counts(self):
        self.counts = Counter()


class PartyNode:
    """One party's worker state: model, dataset view and MoCo queues."""

    def __init__(self, party_id, role, model, dataset):
        if role not in ("active", "passive"):
            raise ConfigError(f"unknown role {role!r}")
        if role == "active" and party_id != 1:
            raise ConfigError("the active party must have id 1")
        self.party_id = party_id
        self.role = role
        self.model = model
        self.dataset = dataset
        self.queues = {}  # name -> NegativeQueue, created on demand (moco)

    @property
    def stack(self):
        return self.model.stack

    def features(self, ids):
        return self.dataset.rows(self.party_id - 1, ids)

    def finetune_forward(self, ids):
        cont, cats = self.features(ids)
        return self.stack.finetune_repr(cont, cats)


def make_parties(dataset, cfg, variant, seed):
    """Build one PartyNode per dataset party; party 1 is active."""
    parties = []
    for i in range(dataset.num_parties):
        pid = i + 1
        block = dataset.parties[i]
        party_cfg = replace(
            cfg, input_dim=block.cont.shape[1], cat_cardinalities=tuple(block.cat_cardinalities)
        )
        role = "active" if pid == 1 else "passive"
        model = build_party_model(party_cfg, role, variant, np.random.default_rng((seed, pid)))
        parties.append(PartyNode(pid, role, model, dataset))
    return parties


def _aggregate(tensors, kind):
    if kind == "concat":
        return T.concat_cols(tensors)
    dims = {t.cols for t in tensors}
    if len(dims) != 1:
        raise ShapeError(f"{kind} aggregator requires equal per-party dims, got {sorted(dims)}")
    if kind == "mean":
        acc = tensors[0]
        for t in tensors[1:]:
            acc = T.add(acc, t)
        return T.affine(acc, 1.0 / len(tensors))
    if kind == "max":
        acc = tensors[0]
        for t in tensors[1:]:
            acc = T.maximum(acc, t)
        return acc
    raise ConfigError(f"unknown aggregator {kind!r}")


class SplitTrainer:
    """Drives FedSplitNN supervised training/fine-tuning over parties."""

    def __init__(self, parties, network, learning_rate, aggregator="concat",
                 protection=None, protection_rng=None, momentum=0.9):
        self.parties = sorted(parties, key=lambda p: p.party_id)
        if self.parties[0].role != "active":
            raise ConfigError("party 1 must be active")
        if self.parties[0].model.top_model is None:
            raise ConfigError("active party has no top model")
        self.network = network
        self.aggregator = aggregator
        self.protection = protection
        self.protection_rng = protection_rng
        self.optimizers = []
        for p in self.parties:
            params = list(p.stack.params_finetune())
            if p.model.top_model is not None:
                params += p.model.top_model.params()
            self.optimizers.append(T.SgdOptimizer(params, learning_rate, momentum=momentum))

    def _protect_grad(self, g):
        if self.protection is None or "finetune_grad" not in self.protection.targets:
            return g
        return iso_perturb(g, self.protection.lam, self.protection_rng)

    def train_step(self, ids):
        """One synchronized forward/backward/update over a labeled batch."""
        active = self.parties[0]
        labels = active.dataset.label_array(ids)
        rnd = self.network.next_round()

        reps = [p.finetune_forward(ids) for p in self.parties]
        for p, z in zip(self.parties[1:], reps[1:]):
            self.network.send(p.party_id, 1, WireMessage(MSG_REPR, rnd, p.party_id, z.values))
        received = [
            T.Tensor(self.network.recv(1, p.party_id).payload, requires_grad=True)
            for p in self.parties[1:]
        ]

        joined = _aggregate([reps[0]] + received, self.aggregator)
        logits = active.model.top_model.forward(joined)
        loss = T.softmax_cross_entropy(logits, labels)
        loss.backward()

        for p, r in zip(self.parties[1:], received):
            g = self._protect_grad(r.grad)
            self.network.send(1, p.party_id, WireMessage(MSG_GRAD, rnd, 1, g))
        for p, z in zip(self.parties[1:], reps[1:]):
            g = self.network.recv(p.party_id, 1).payload
            z.backward(grad=g)

        for opt in self.optimizers:
            opt.step()
        return loss.item()

    def logits(self, ids):
        reps = [p.finetune_forward(ids) for p in self.parties]
        joined = _aggregate(reps, self.aggregator)
        return self.parties[0].model.top_model.forward(joined).values

    def predict(self, ids):
        return self.logits(ids).argmax(axis=1)

    def accuracy(self, ids):
        labels = self.parties[0].dataset.label_array(ids)
        return float((self.predict(ids) == labels).mean())
