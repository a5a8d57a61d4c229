"""FedHSSL pretraining orchestration.

Each global iteration runs up to three steps: (1) cross-party SSL on
aligned samples, where each party's representation is the positive view
for its peers and only representations (never gradients) cross the
wire; (2) cross-party-guided local SSL on every party's full local
data, a symmetrized augmentation loss regularized toward the frozen
cross encoder; (3) partial model aggregation, a server-side uniform
parameter mean of every party's local-top encoder and predictor.

Step isolation: step 1 touches only the cross tower, step 2 only the
local tower (plus EMA targets), step 3 only f_lt and h_l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import AugmentationPolicy, augment, batches
from .errors import ConfigError, ProtocolError
from .privacy import iso_perturb
from .ssl import NegativeQueue, SslVariant, ssl_loss
from .vfl import MSG_MODEL_BLOB, MSG_REPR, Network, WireMessage

SERVER_ID = 0

ABLATION_PRESETS = {
    # name: (cross, guided_local, pma, gamma, finetune_encoders)
    "FedLocalSSL": (False, True, False, 0.0, "local"),
    "FedCSSL": (True, False, False, 0.0, "cross"),
    "FedGSSL": (True, True, False, 0.5, "concat"),
    "FedGSSL*": (True, True, False, 0.5, "local"),
    "FedHSSL": (True, True, True, 0.5, "concat"),
    "FedHSSL*": (True, True, True, 0.5, "local"),
}


@dataclass
class PipelineConfig:
    variant: SslVariant = field(default_factory=lambda: SslVariant("simsiam"))
    gamma: float = 0.5
    global_iterations: int = 10
    cross_epochs: int = 1
    local_epochs: int = 1
    local_updates: int = 1  # optimizer steps per cross-party exchange
    steps_cross: bool = True
    steps_guided_local: bool = True
    steps_pma: bool = True
    aligned_fraction: float = 1.0  # share of the dataset's aligned pool used in step 1
    batch_size: int = 256
    cross_lr: float = 0.03
    local_lr: float = 0.03
    augmentation: AugmentationPolicy = field(default_factory=AugmentationPolicy)
    protection: object = None  # IsoConfig with lambda_p, or None

    def __post_init__(self):
        if self.gamma < 0:
            raise ConfigError("gamma must be non-negative")
        if self.local_updates < 1:
            raise ConfigError("local_updates must be >= 1")
        if not 0.0 < self.aligned_fraction <= 1.0:
            raise ConfigError("aligned_fraction must be in (0, 1]")
        if self.steps_guided_local and self.gamma > 0 and not self.steps_cross:
            raise ConfigError("guided local SSL with gamma > 0 requires the cross step")
        if self.steps_pma and not self.steps_guided_local:
            raise ConfigError("PMA requires the guided local step")

    @staticmethod
    def from_preset(name, **overrides):
        if name not in ABLATION_PRESETS:
            raise ConfigError(f"unknown ablation preset {name!r}")
        cross, guided, pma, gamma, _ = ABLATION_PRESETS[name]
        base = dict(steps_cross=cross, steps_guided_local=guided, steps_pma=pma, gamma=gamma)
        base.update(overrides)
        return PipelineConfig(**base)


def preset_finetune_encoders(name):
    if name not in ABLATION_PRESETS:
        raise ConfigError(f"unknown ablation preset {name!r}")
    return ABLATION_PRESETS[name][4]


def step1_aligned_ids(dataset, fraction):
    n = math.ceil(fraction * len(dataset.aligned_ids))
    return dataset.aligned_ids[:n]


def _mean_loss(losses):
    acc = losses[0]
    for extra in losses[1:]:
        acc = T.add(acc, extra)
    return T.affine(acc, 1.0 / len(losses)) if len(losses) > 1 else acc


def _queue(party, name, capacity):
    if name not in party.queues:
        party.queues[name] = NegativeQueue(capacity)
    return party.queues[name]


def cross_party_ssl_epoch(parties, network, aligned_ids, variant, optimizers,
                          batch_size=256, local_updates=1, protection=None,
                          protection_rng=None, shuffle_rng=None):
    """One epoch of step 1. Returns per-party mean loss.

    Per batch, exactly one representation exchange happens regardless of
    ``local_updates``: every party then takes that many optimizer steps
    against the cached peer representations.
    """
    if len(parties) < 2:
        raise ConfigError("cross-party SSL requires at least two parties")
    parties = sorted(parties, key=lambda p: p.party_id)
    is_moco = variant.kind == "moco"
    totals = {p.party_id: [] for p in parties}

    for batch_ids in batches(aligned_ids, batch_size, rng=shuffle_rng):
        rnd = network.next_round()
        # Exchange phase: each party computes and ships its representation.
        values = {}
        for p in parties:
            values[p.party_id] = p.stack.cross.forward(*p.features(batch_ids)).values
        outgoing_active = values[1]
        if protection is not None and "cross_repr" in protection.targets:
            outgoing_active = iso_perturb(outgoing_active, protection.lam, protection_rng)
        for p in parties[1:]:
            network.send(1, p.party_id, WireMessage(MSG_REPR, rnd, 1, outgoing_active))
            network.send(p.party_id, 1, WireMessage(MSG_REPR, rnd, p.party_id, values[p.party_id]))
        received = {1: {p.party_id: network.recv(1, p.party_id).payload for p in parties[1:]}}
        for p in parties[1:]:
            received[p.party_id] = {1: network.recv(p.party_id, 1).payload}

        # Update phase: e steps against the cached peer representations.
        for p in parties:
            opt = optimizers[p.party_id]
            peers = received[p.party_id]
            for _ in range(local_updates):
                z = p.stack.cross.forward(*p.features(batch_ids))
                pred = p.stack.h_c.forward(z)
                losses = []
                for peer_id, target_values in sorted(peers.items()):
                    queue = (
                        _queue(p, f"cross_recv_{peer_id}", variant.queue_capacity)
                        if is_moco else None
                    )
                    losses.append(ssl_loss(variant, pred, T.Tensor(target_values), queue))
                loss = _mean_loss(losses)
                loss.backward()
                opt.step()
            totals[p.party_id].append(loss.item())
            if is_moco:
                for peer_id, target_values in peers.items():
                    _queue(p, f"cross_recv_{peer_id}", variant.queue_capacity).enqueue(target_values)

    return {pid: float(np.mean(vals)) if vals else float("nan") for pid, vals in totals.items()}


def guided_local_ssl_epoch(party, ids, variant, gamma, policy, optimizer,
                           batch_size=256, aug_rng=None, shuffle_rng=None):
    """One epoch of step 2 for a single party. Returns mean loss.

    Only the local tower (f_lb, f_lt, projector_l, h_l and its EMA
    target) is updated; the cross encoder provides frozen anchors.
    """
    stack = party.stack
    is_moco = variant.kind == "moco"
    block = party.dataset.parties[party.party_id - 1]
    losses = []

    for batch_ids in batches(ids, batch_size, rng=shuffle_rng):
        cont, cats = block.rows(batch_ids)
        v1 = augment(cont, cats, block.cat_cardinalities, policy, aug_rng, block.cont_std)
        v2 = augment(cont, cats, block.cat_cardinalities, policy, aug_rng, block.cont_std)

        z1 = stack.local.forward(*v1)
        z2 = stack.local.forward(*v2)
        p1 = stack.h_l.forward(z1)
        p2 = stack.h_l.forward(z2)
        # SimSiam's target is the online tower under stop-gradient; BYOL
        # and MoCo run the same views through the EMA copy.
        if stack.target is None:
            t1, t2 = T.Tensor(z1.values), T.Tensor(z2.values)
        else:
            t1 = T.Tensor(stack.target.forward(*v1).values)
            t2 = T.Tensor(stack.target.forward(*v2).values)

        q_a = _queue(party, "local_a", variant.queue_capacity) if is_moco else None
        q_b = _queue(party, "local_b", variant.queue_capacity) if is_moco else None
        sym = T.affine(
            T.add(ssl_loss(variant, p1, t2, q_a), ssl_loss(variant, p2, t1, q_b)), 0.5
        )
        loss = sym
        if gamma > 0:
            zc1 = T.Tensor(stack.cross.encode(*v1).values)
            zc2 = T.Tensor(stack.cross.encode(*v2).values)
            if zc1.cols != p1.cols:
                raise ConfigError(
                    f"guidance dims disagree: predictor {p1.cols} vs cross encoder {zc1.cols}"
                )
            q_ga = _queue(party, "guide_a", variant.queue_capacity) if is_moco else None
            q_gb = _queue(party, "guide_b", variant.queue_capacity) if is_moco else None
            guide = T.add(ssl_loss(variant, p1, zc1, q_ga), ssl_loss(variant, p2, zc2, q_gb))
            loss = T.add(sym, T.affine(guide, gamma))
        loss.backward()
        optimizer.step()
        if stack.ema is not None:
            stack.ema.update()
        if is_moco:
            q_a.enqueue(t2.values)
            q_b.enqueue(t1.values)
            if gamma > 0:
                q_ga.enqueue(zc1.values)
                q_gb.enqueue(zc2.values)
        losses.append(loss.item())

    return float(np.mean(losses)) if losses else float("nan")


class AggregationServer:
    """Uniform parameter-wise mean of every party's f_lt and h_l blob."""

    def __init__(self, expected_parties):
        self.expected_parties = expected_parties

    def run_round(self, network, rnd, timeout=None):
        blobs = {}
        for pid in range(1, self.expected_parties + 1):
            msg = network.recv(SERVER_ID, pid, timeout=timeout)
            if msg.msg_type != MSG_MODEL_BLOB:
                raise ProtocolError(f"server expected ModelBlob, got {msg.msg_type}")
            blobs[pid] = msg.payload
        shapes = {b.shape for b in blobs.values()}
        if len(shapes) != 1:
            raise ProtocolError(f"blob shapes disagree across parties: {shapes}")
        mean_blob = np.mean(np.stack(list(blobs.values())), axis=0)
        for pid in blobs:
            network.send(SERVER_ID, pid, WireMessage(MSG_MODEL_BLOB, rnd, SERVER_ID, mean_blob))
        return mean_blob


def _flatten_pma(stack):
    return np.concatenate([p.values.reshape(-1) for _, p in stack.named_pma_params()])


def _unflatten_pma(stack, flat):
    offset = 0
    for _, p in stack.named_pma_params():
        size = p.values.size
        p.values[:] = flat[offset : offset + size].reshape(p.shape)
        offset += size
    if offset != flat.size:
        raise ProtocolError("aggregated blob size does not match model")


def partial_model_aggregation(parties, network, server=None, protection=None,
                              protection_rng=None):
    """Step 3: average f_lt and h_l across parties and broadcast back.

    Party 1's outgoing blob is ISO-perturbed when protection covers
    top_model_blob. f_lb and EMA target state are untouched.
    """
    parties = sorted(parties, key=lambda p: p.party_id)
    server = server or AggregationServer(len(parties))
    rnd = network.next_round()
    for p in parties:
        blob = _flatten_pma(p.stack)
        if (p.party_id == 1 and protection is not None
                and "top_model_blob" in protection.targets):
            blob = iso_perturb(blob, protection.lam, protection_rng).reshape(-1)
        network.send(p.party_id, SERVER_ID, WireMessage(MSG_MODEL_BLOB, rnd, p.party_id, blob))
    server.run_round(network, rnd)
    for p in parties:
        msg = network.recv(p.party_id, SERVER_ID)
        _unflatten_pma(p.stack, msg.payload.reshape(-1))


def pretrain(dataset, parties, network, config: PipelineConfig, seed=0):
    """Run the full pretraining pipeline in place. Returns the metrics
    trace: one record per (iteration, party, step)."""
    parties = sorted(parties, key=lambda p: p.party_id)
    protection_rng = np.random.default_rng((seed, 9999)) if config.protection else None

    opt_cross = {
        p.party_id: T.SgdOptimizer(p.stack.params_cross(), config.cross_lr)
        for p in parties
    }
    opt_local = {
        p.party_id: T.SgdOptimizer(p.stack.params_local(), config.local_lr)
        for p in parties
    }
    trace = []

    for it in range(config.global_iterations):
        if config.steps_cross:
            ids = step1_aligned_ids(dataset, config.aligned_fraction)
            for epoch in range(config.cross_epochs):
                shuffle_rng = np.random.default_rng((seed, 1, it, epoch))
                losses = cross_party_ssl_epoch(
                    parties, network, ids, config.variant, opt_cross,
                    batch_size=config.batch_size,
                    local_updates=config.local_updates,
                    protection=config.protection,
                    protection_rng=protection_rng,
                    shuffle_rng=shuffle_rng,
                )
                for pid, loss in losses.items():
                    trace.append({"iteration": it, "party": pid, "step": "cross", "loss": loss})

        if config.steps_guided_local:
            for p in parties:
                for epoch in range(config.local_epochs):
                    aug_rng = np.random.default_rng((seed, 2, p.party_id, it, epoch))
                    shuffle_rng = np.random.default_rng((seed, 3, p.party_id, it, epoch))
                    loss = guided_local_ssl_epoch(
                        p, dataset.local_ids(p.party_id - 1), config.variant,
                        config.gamma, config.augmentation, opt_local[p.party_id],
                        batch_size=config.batch_size,
                        aug_rng=aug_rng, shuffle_rng=shuffle_rng,
                    )
                    trace.append({"iteration": it, "party": p.party_id, "step": "local", "loss": loss})

        if config.steps_pma:
            partial_model_aggregation(
                parties, network,
                protection=config.protection, protection_rng=protection_rng,
            )
            for p in parties:
                trace.append({"iteration": it, "party": p.party_id, "step": "pma", "loss": None})

    return trace


def make_network(num_parties):
    return Network([SERVER_ID] + list(range(1, num_parties + 1)))
