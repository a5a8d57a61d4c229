"""ISO noise, the model-completion label-inference attack, evaluation
metrics and the CAP privacy-utility trade-off score."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import atomic_write, batches, csv_text
from .errors import ConfigError, ValidationError, require_distinct
from .nn import MLP


def iso_perturb(d, lam, rng):
    """d + N(0, sigma^2) elementwise, sigma = lam * max row 2-norm / sqrt(m).

    lam == 0 is an exact pass-through that consumes no rng draws (rng may
    be None), so a lam=0 run is bit-identical to one without noise; a
    lam > 0 without an rng is refused before any arithmetic.
    """
    if not 0 <= lam < math.inf:
        raise ValidationError("lambda must be finite and non-negative")
    if lam > 0 and rng is None:
        raise ValidationError("ISO noise at lambda > 0 needs a generator, got rng None")
    d = np.atleast_2d(np.asarray(d, dtype=np.float64))
    if lam == 0.0:
        return d.copy()
    m = d.shape[1]
    d_max = np.linalg.norm(d, axis=1).max()
    sigma = lam * d_max / math.sqrt(m)
    return d + sigma * rng.standard_normal(d.shape)


@dataclass
class PrivacyConfig:
    """The CLI's ``privacy`` section: one trade-off point per ``lambda_f``, and the attack."""

    lambda_f: tuple = (1.0, 5.0, 25.0)
    aux_labeled_count: int = 80
    attack_epochs: int = 100
    head_hidden_dim: int = 32
    encoder_source: str = "finetuned_local"

    def __post_init__(self):
        require_distinct("privacy.lambda_f", self.lambda_f)
        # mc_attack checks this too, but only after the first lambda_f's fine-tunes have trained.
        if self.head_hidden_dim < 1:
            raise ConfigError(f"privacy.head_hidden_dim must be >= 1, got {self.head_hidden_dim}")
        if self.encoder_source != "finetuned_local":
            # The attack reads the split network's representation; the key stays for old configs.
            raise ConfigError(f"privacy.encoder_source must be 'finetuned_local', "
                              f"got {self.encoder_source!r}")


# -- metrics ------------------------------------------------------------

def metric_top1(predictions, labels):
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.size == 0:
        raise ValidationError("empty prediction set")
    if predictions.shape != labels.shape:
        raise ValidationError(f"{predictions.shape} predictions for {labels.shape} labels")
    return float((predictions == labels).mean())


# -- model-completion attack ---------------------------------------------

ATTACK_LR = 0.05
ATTACK_BATCH = 64


def mc_attack(adversaries, aux_ids, eval_ids, labels, num_classes, rngs, *,
              head_hidden_dim, epochs):
    """Freeze each adversary's encoder, fit a one-hidden-layer head to it
    for ``epochs`` on the auxiliary labeled samples, and report each head's
    label recovery accuracy on the evaluation ids, in adversary order. Head s
    reads ``adversaries[s].finetune_forward``, the representation that
    adversary sends in the split network, and draws its init and its batch
    orders from ``rngs[s]``. ``labels`` is the id -> class lookup, asked only
    for the auxiliary and evaluation ids: the adversaries hold no labels.

    The S heads train as one: each head parameter stacks theirs along a
    leading slice axis under one optimizer, and a step runs every head on
    its own batch. Slices share nothing, so head s ends bit-equal to a fit
    on its own, whatever the other adversaries' features hold."""
    aux_ids = np.asarray(aux_ids)
    eval_ids = np.asarray(eval_ids)
    if set(map(int, aux_ids)) & set(map(int, eval_ids)):
        raise ConfigError("auxiliary and evaluation ids must be disjoint")
    if len(aux_ids) < num_classes:
        raise ConfigError("need at least one auxiliary sample per class")
    if not adversaries or len(rngs) != len(adversaries):
        raise ValidationError(f"one rng per adversary: {len(adversaries)} adversaries, "
                              f"{len(rngs)} rngs")

    # Encoder outputs are computed as constants, recording no graph: the
    # encoders are frozen by construction, only the heads train.
    with T.no_grad():
        x_aux = np.stack([adv.finetune_forward(aux_ids).values for adv in adversaries])
    y_aux = labels(aux_ids)
    y_eval = labels(eval_ids)

    heads = (MLP([x_aux.shape[-1], head_hidden_dim, num_classes], rng).layers for rng in rngs)
    # Layer i of the stacked head holds every head's layer i, slice s being head s's.
    layers = [(T.Tensor(np.stack([layer.weight.values for layer in same]), requires_grad=True),
               T.Tensor(np.stack([layer.bias.values for layer in same]), requires_grad=True),
               same[0].relu) for same in zip(*heads)]
    opt = T.SgdOptimizer([p for w, b, _ in layers for p in (w, b)], ATTACK_LR, momentum=0.9)
    heads_axis = np.arange(len(adversaries))[:, None]
    for _ in range(epochs):
        orders = [batches(np.arange(len(aux_ids)), ATTACK_BATCH, rng=rng) for rng in rngs]
        for sel in map(np.stack, zip(*orders)):
            logits = _head(T.Tensor(x_aux[heads_axis, sel]), layers)
            loss = T.softmax_cross_entropy(logits, y_aux[sel])
            loss.backward()
            opt.step()

    recoveries = []
    with T.no_grad():
        for s, adv in enumerate(adversaries):
            head_s = [(T.Tensor(w.values[s]), T.Tensor(b.values[s]), relu) for w, b, relu in layers]
            logits = _head(adv.finetune_forward(eval_ids), head_s)
            recoveries.append(metric_top1(logits.values.argmax(axis=1), y_eval))
    return recoveries


def _head(x, layers):
    """``x`` through (weight, bias, relu) ``layers`` of ``dense``."""
    for weight, bias, relu in layers:
        x = T.dense(x, weight, bias, relu)
    return x


# -- CAP ------------------------------------------------------------------

@dataclass
class TradeoffCurve:
    """Privacy-utility curve: one point per noise strength."""

    method: str = ""
    dataset: str = ""
    points: list = field(default_factory=list)  # (lambda, utility, recovery)

    def add_point(self, lam, utility, recovery):
        self.points.append((float(lam), float(utility), float(recovery)))


def cap(curve: TradeoffCurve) -> float:
    """Mean over noise strengths of utility times privacy distance,
    the distance being 1 - recovery accuracy."""
    if not curve.points:
        raise ValidationError("CAP of an empty curve")
    total = sum(u * (1.0 - rec) for _, u, rec in curve.points)
    return total / len(curve.points)


def export_tradeoff_csv(path, curves, lambda_p=0.0):
    rows = [["method", "dataset", "lambda_f", "lambda_p", "main_metric", "recovery_acc"]]
    rows += [[curve.method, curve.dataset, lam, lambda_p, utility, recovery]
             for curve in curves for lam, utility, recovery in curve.points]
    atomic_write(path, csv_text(rows))
