"""FedHSSL pretraining orchestration.

Each global iteration runs the steps of its method in ``METHODS``, in
this order: (1) cross-party SSL on aligned samples, where each party's
representation is the positive view for its peers and only
representations (never gradients) cross the wire; (2) cross-party-guided
local SSL on every party's full local data, a symmetrized augmentation
loss regularized toward the frozen cross encoder; (3) partial model
aggregation, a server-side uniform parameter mean of every party's
local-top encoder and predictor.
Party 1's outgoing cross representations and PMA blob carry ISO noise
of strength ``lambda_p``.

Step isolation: step 1 touches only the cross tower, step 2 only the
local tower (plus EMA targets), step 3 only f_lt and h_l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import tensor as T
from .data import augment, batches, stream
from .errors import ConfigError, ProtocolError
from .privacy import iso_perturb
from .ssl import VARIANTS, ssl_loss
from .vfl import MSG_MODEL_BLOB, MSG_REPR

SERVER_ID = 0

METHODS = {
    # the paper's ablation ladder: method -> the steps one global iteration runs
    "FedLocalSSL": ("local",),
    "FedCSSL": ("cross",),
    "FedGSSL": ("cross", "local"),
    "FedHSSL": ("cross", "local", "pma"),
}


@dataclass
class PipelineConfig:
    """The ``pipeline`` config section: which method pretrains, and how."""

    preset: str | None = "FedHSSL"  # a key of METHODS, or None for no pretraining
    variant: str = "simsiam"  # a name in ssl.VARIANTS
    gamma: float = 0.5  # step 2's guidance weight; a method without the cross step ignores it
    global_iterations: int = 5
    cross_epochs: int = 1
    local_epochs: int = 1
    local_updates: int = 1  # optimizer steps per cross-party exchange
    batch_size: int = 128
    cross_lr: float = 0.03
    local_lr: float = 0.03
    aligned_fraction: float = 1.0  # share of the dataset's aligned pool used in step 1
    corruption_fraction: float = 0.3  # share of each row's cells step 2's views corrupt
    lambda_p: float = 0.0  # ISO strength on party 1's cross Repr and PMA blob
    pretrain: bool = True  # true exactly when preset names a method

    def __post_init__(self):
        if self.preset not in (None, *METHODS) or self.pretrain != (self.preset is not None):
            raise ConfigError(
                f"pipeline.preset must be one of {sorted(METHODS)} with pretrain true, or null "
                f"with pretrain false; got {self.preset!r} with pretrain {self.pretrain!r}"
            )
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown SSL variant {self.variant!r}; choose from {VARIANTS}")
        if not (all(0 <= v < math.inf for v in (self.gamma, self.lambda_p))
                and all(0 < v < math.inf for v in (self.cross_lr, self.local_lr))):
            raise ConfigError("pipeline.gamma and lambda_p must be finite and >= 0, "
                              "and cross_lr and local_lr finite and > 0")
        counts = {"global_iterations": 0, "cross_epochs": 0, "local_epochs": 0,
                  "local_updates": 1, "batch_size": 1}  # field -> least value
        for name, least in counts.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ConfigError(f"pipeline.{name} must be an integer >= {least}, got {value!r}")
        if not 0.0 < self.aligned_fraction <= 1.0:
            raise ConfigError("pipeline.aligned_fraction must be in (0, 1]")
        if not 0.0 <= self.corruption_fraction <= 1.0:
            raise ConfigError("pipeline.corruption_fraction must be in [0, 1]")


def step1_aligned_ids(dataset, fraction):
    n = math.ceil(fraction * len(dataset.aligned_ids))
    return dataset.aligned_ids[:n]


def _mean_loss(losses):
    total = reduce(T.add, losses)
    return T.affine(total, 1.0 / len(losses)) if len(losses) > 1 else total


def _term(party, variant, names, prediction, target_values, feeds):
    """The SSL loss of ``prediction`` against the fixed ``target_values``:
    2-D with one queue name in ``names``, or stacked with one per slice.
    Under MoCo the party's queues of those names (each created by its first
    lookup) supply the negatives, and each queue with its rows of
    ``target_values`` joins ``feeds``, which the caller enqueues after its
    optimizer step."""
    if variant != "moco":
        return ssl_loss(variant, prediction, target_values)
    queues = [party.queues[name] for name in names]
    stacked = target_values.ndim == 3
    feeds += zip(queues, target_values if stacked else [target_values])
    return ssl_loss(variant, prediction, target_values, queues if stacked else queues[0])


def cross_party_ssl_epoch(parties, network, aligned_ids, variant, optimizers,
                          batch_size, local_updates=1, lambda_p=0.0,
                          noise_rng=None, shuffle_rng=None):
    """One epoch of step 1. Returns per-party mean loss.

    Per batch, exactly one representation exchange happens regardless of
    ``local_updates``: every party then takes that many optimizer steps
    against the cached peer representations.
    """
    if len(parties) < 2:
        raise ConfigError("cross-party SSL requires at least two parties")
    parties = sorted(parties, key=lambda p: p.party_id)
    totals = {p.party_id: [] for p in parties}

    for batch_ids in batches(aligned_ids, batch_size, rng=shuffle_rng):
        rnd = network.next_round()
        # Exchange phase: each party computes and ships its representation,
        # which is only read, so its forward records no graph.
        with T.no_grad():
            values = {p.party_id: p.model.cross.forward(*p.block.rows(batch_ids)).values
                      for p in parties}
        outgoing_active = iso_perturb(values[1], lambda_p, noise_rng)
        received = {1: {}}
        for p in parties[1:]:
            received[p.party_id] = {1: network.send(1, p.party_id, MSG_REPR, rnd, outgoing_active)}
            received[1][p.party_id] = network.send(p.party_id, 1, MSG_REPR, rnd, values[p.party_id])

        # Update phase: e steps against the cached peer representations.
        for p in parties:
            for _ in range(local_updates):
                pred = p.model.h_c.forward(p.model.cross.forward(*p.block.rows(batch_ids)))
                feeds = []
                loss = _mean_loss([
                    _term(p, variant, (f"cross_peer_{peer_id}",), pred, target_values, feeds)
                    for peer_id, target_values in sorted(received[p.party_id].items())
                ])
                loss.backward()
                optimizers[p.party_id].step()
            totals[p.party_id].append(loss.item())
            for queue, rows in feeds:  # the last update's feeds: one batch per exchange
                queue.enqueue(rows)

    return {pid: float(np.mean(vals)) if vals else float("nan") for pid, vals in totals.items()}


def guided_local_ssl_epoch(party, ids, variant, gamma, corruption_fraction, optimizer,
                           batch_size, aug_rng, shuffle_rng=None):
    """One epoch of step 2 for a single party. Returns mean loss.

    Only the local tower (f_lb, f_lt, projector_l, h_l and its EMA
    target) is updated; the cross encoder provides frozen anchors.
    The two augmented views of a batch run as one stacked batch (slice 0
    is the first view), so each tower runs once per batch; every slice
    computes what a separate 2-D pass over its view would, bit for bit.
    """
    model, block = party.model, party.block
    losses = []

    for batch_ids in batches(ids, batch_size, rng=shuffle_rng):
        cont, cats = block.rows(batch_ids)
        # Only a one-row batch reads the std: its jitter has no donor row.
        cont_std = block.cont.std(axis=0) if len(cont) == 1 else None
        views = [augment(cont, cats, block.cat_cardinalities, corruption_fraction, aug_rng,
                         cont_std) for _ in range(2)]
        views = [np.stack(part) for part in zip(*views)]  # stacked cont, then stacked cats

        z = model.local.forward(*views)
        p = model.h_l.forward(z)
        # SimSiam's target is the online tower under stop-gradient; BYOL
        # and MoCo run the same views through the EMA copy. Each view's
        # prediction is scored against the other view's target.
        target = z.values if model.target is None else model.target.forward(*views).values

        feeds = []
        loss = T.affine(T.slice_sum(
            _term(party, variant, ("local_a", "local_b"), p, target[::-1], feeds)), 0.5)
        if gamma > 0:
            with T.no_grad():  # the guidance is only read
                anchors = model.cross.encode(*views).values
            guide = T.slice_sum(_term(party, variant, ("guide_a", "guide_b"), p, anchors, feeds))
            loss = T.add(loss, T.affine(guide, gamma))
        loss.backward()
        optimizer.step()
        if model.ema is not None:
            model.ema.update()
        for queue, rows in feeds:
            queue.enqueue(rows)
        losses.append(loss.item())

    return float(np.mean(losses)) if losses else float("nan")


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


def partial_model_aggregation(parties, network, lambda_p=0.0, noise_rng=None):
    """Step 3: average f_lt and h_l across parties and broadcast back.

    Every party uploads its blob to the server, which broadcasts the
    uniform parameter-wise mean (stacked in party order). Party 1's
    outgoing blob carries ISO noise of strength lambda_p. f_lb and EMA
    target state are untouched.
    """
    parties = sorted(parties, key=lambda p: p.party_id)
    rnd = network.next_round()
    blobs = []
    for p in parties:
        blob = _flatten_pma(p.model)
        if p.party_id == 1:
            blob = iso_perturb(blob, lambda_p, noise_rng).reshape(-1)
        blobs.append(network.send(p.party_id, SERVER_ID, MSG_MODEL_BLOB, rnd, blob))
    shapes = {b.shape for b in blobs}
    if len(shapes) != 1:
        raise ProtocolError(f"blob shapes disagree across parties: {shapes}")
    mean_blob = np.mean(np.stack(blobs), axis=0)
    for p in parties:
        _unflatten_pma(p.model, network.send(SERVER_ID, p.party_id, MSG_MODEL_BLOB, rnd,
                                             mean_blob).reshape(-1))


def pretrain(dataset, parties, network, config: PipelineConfig, seed=0):
    """Run the full pretraining pipeline in place. Returns the metrics
    trace: one record per (iteration, party, step)."""
    parties = sorted(parties, key=lambda p: p.party_id)
    noise_rng = stream(seed, "pretrain_noise")

    opt_cross = {
        p.party_id: T.SgdOptimizer(p.model.params_cross(), config.cross_lr)
        for p in parties
    }
    opt_local = {
        p.party_id: T.SgdOptimizer(p.model.params_local(), config.local_lr)
        for p in parties
    }
    steps = METHODS[config.preset]
    gamma = config.gamma if "cross" in steps else 0.0
    if gamma > 0 and "local" in steps:
        for p in parties:  # h_l keeps the width of the local projector's output
            predicted = p.model.local.projector.layers[-1].weight.cols
            if predicted != p.model.cfg.repr_dim:
                raise ConfigError(f"guidance dims disagree: predictor {predicted} vs cross "
                                  f"encoder {p.model.cfg.repr_dim}")
    trace = []

    for it in range(config.global_iterations):
        if "cross" in steps:
            ids = step1_aligned_ids(dataset, config.aligned_fraction)
            for epoch in range(config.cross_epochs):
                shuffle_rng = stream(seed, "cross_shuffle", it, epoch)
                losses = cross_party_ssl_epoch(
                    parties, network, ids, config.variant, opt_cross,
                    batch_size=config.batch_size,
                    local_updates=config.local_updates,
                    lambda_p=config.lambda_p,
                    noise_rng=noise_rng,
                    shuffle_rng=shuffle_rng,
                )
                for pid, loss in losses.items():
                    trace.append({"iteration": it, "party": pid, "step": "cross", "loss": loss})

        if "local" in steps:
            for p in parties:
                for epoch in range(config.local_epochs):
                    aug_rng = stream(seed, "augment", p.party_id, it, epoch)
                    shuffle_rng = stream(seed, "local_shuffle", p.party_id, it, epoch)
                    loss = guided_local_ssl_epoch(
                        p, dataset.local_ids(p.party_id - 1), config.variant,
                        gamma, config.corruption_fraction, opt_local[p.party_id],
                        batch_size=config.batch_size,
                        aug_rng=aug_rng, shuffle_rng=shuffle_rng,
                    )
                    trace.append({"iteration": it, "party": p.party_id, "step": "local", "loss": loss})

        if "pma" in steps:
            partial_model_aggregation(parties, network, config.lambda_p, noise_rng)
            for p in parties:
                trace.append({"iteration": it, "party": p.party_id, "step": "pma", "loss": None})

    return trace
