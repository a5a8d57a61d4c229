"""ISO noise protection, the model-completion label-inference attack,
evaluation metrics and the CAP privacy-utility trade-off score."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import batches
from .errors import ConfigError, ValidationError
from .nn import MLP


@dataclass
class IsoConfig:
    lam: float
    targets: tuple = ("finetune_grad",)  # subset of cross_repr, top_model_blob, finetune_grad

    def __post_init__(self):
        if self.lam < 0:
            raise ValidationError("lambda must be non-negative")
        known = {"cross_repr", "top_model_blob", "finetune_grad"}
        if not set(self.targets) <= known:
            raise ConfigError(f"unknown ISO targets {set(self.targets) - known}")


def iso_perturb(d, lam, rng):
    """d + N(0, sigma^2) elementwise, sigma = lam * max row 2-norm / sqrt(m).

    lam == 0 is an exact pass-through that consumes no rng draws, so an
    unprotected run and a lam=0 protected run are bit-identical.
    """
    if lam < 0:
        raise ValidationError("lambda must be non-negative")
    d = np.asarray(d, dtype=np.float64)
    if d.ndim == 1:
        d = d.reshape(1, -1)
    if lam == 0.0:
        return d.copy()
    m = d.shape[1]
    d_max = np.linalg.norm(d, axis=1).max()
    sigma = lam * d_max / math.sqrt(m)
    return d + sigma * rng.standard_normal(d.shape)


# -- metrics ------------------------------------------------------------

def metric_top1(predictions, labels):
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.size == 0:
        raise ValidationError("empty prediction set")
    return float((predictions == labels).mean())


# -- model-completion attack ---------------------------------------------

@dataclass
class McAttackConfig:
    aux_labeled_count: int = 80
    head_hidden_dim: int = 32
    epochs: int = 100
    learning_rate: float = 0.05
    batch_size: int = 64
    encoder_source: str = "finetuned_local"
    # pretrained_local | finetuned_local | pretrained_cross_plus_local

    def __post_init__(self):
        sources = ("pretrained_local", "finetuned_local", "pretrained_cross_plus_local")
        if self.encoder_source not in sources:
            raise ConfigError(f"unknown encoder_source {self.encoder_source!r}")


def _adversary_features(party, ids, source):
    cont, cats = party.features(ids)
    stack = party.stack
    if source == "pretrained_local":
        return stack.local.encode(cont, cats).values
    if source == "pretrained_cross_plus_local":
        return np.concatenate(
            [stack.local.encode(cont, cats).values, stack.cross.encode(cont, cats).values],
            axis=1,
        )
    # finetuned_local: whatever representation the adversary contributed
    # to the supervised split network.
    return stack.finetune_repr(cont, cats).values


def mc_attack(adversary, cfg: McAttackConfig, aux_ids, eval_ids, num_classes, rng):
    """Freeze the adversary's encoder, fit a small inference head on the
    auxiliary labeled samples, and report label recovery accuracy on the
    evaluation ids."""
    aux_ids = np.asarray(aux_ids)
    eval_ids = np.asarray(eval_ids)
    if set(map(int, aux_ids)) & set(map(int, eval_ids)):
        raise ConfigError("auxiliary and evaluation ids must be disjoint")
    if len(aux_ids) < num_classes:
        raise ConfigError("need at least one auxiliary sample per class")

    # Encoder outputs are computed once as constants: the encoder is
    # frozen by construction, only the head trains.
    x_aux = _adversary_features(adversary, aux_ids, cfg.encoder_source)
    y_aux = adversary.dataset.label_array(aux_ids)
    x_eval = _adversary_features(adversary, eval_ids, cfg.encoder_source)
    y_eval = adversary.dataset.label_array(eval_ids)

    head = MLP([x_aux.shape[1], cfg.head_hidden_dim, num_classes], rng)
    opt = T.SgdOptimizer(head.params(), cfg.learning_rate, momentum=0.9)
    for _ in range(cfg.epochs):
        for sel in batches(np.arange(len(aux_ids)), cfg.batch_size, rng=rng):
            loss = T.softmax_cross_entropy(head.forward(T.Tensor(x_aux[sel])), y_aux[sel])
            loss.backward()
            opt.step()

    recovered = head.forward(T.Tensor(x_eval)).values.argmax(axis=1)
    return metric_top1(recovered, y_eval)


# -- CAP ------------------------------------------------------------------

@dataclass
class TradeoffCurve:
    """Privacy-utility curve: one point per protection strength."""

    method: str = ""
    dataset: str = ""
    points: list = field(default_factory=list)  # (lambda, utility, recovery)

    def add_point(self, lam, utility, recovery):
        if any(abs(lam - l0) < 1e-15 for l0, _, _ in self.points):
            raise ValidationError(f"duplicate lambda {lam} on trade-off curve")
        self.points.append((float(lam), float(utility), float(recovery)))


def cap(curve: TradeoffCurve) -> float:
    """Mean over protection strengths of utility times privacy distance,
    the distance being 1 - recovery accuracy."""
    if not curve.points:
        raise ValidationError("CAP of an empty curve")
    total = sum(u * (1.0 - rec) for _, u, rec in curve.points)
    return total / len(curve.points)


def export_tradeoff_csv(path, curves, lambda_p=0.0):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "dataset", "lambda_f", "lambda_p", "main_metric", "recovery_acc"])
        for curve in curves:
            for lam, utility, recovery in curve.points:
                writer.writerow([curve.method, curve.dataset, lam, lambda_p, utility, recovery])
