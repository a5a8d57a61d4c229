"""ISO noise protection, the model-completion label-inference attack,
evaluation metrics and the CAP privacy-utility trade-off score."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ValidationError
from .nn import DenseLayer


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


def metric_auc(scores, labels):
    """Mann-Whitney rank AUC with ties counted one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValidationError("AUC needs both classes present")
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((greater + 0.5 * ties) / (len(pos) * len(neg)))


def metric_f1(predictions, labels):
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.size == 0:
        raise ValidationError("empty prediction set")
    tp = int(((predictions == 1) & (labels == 1)).sum())
    fp = int(((predictions == 1) & (labels == 0)).sum())
    fn = int(((predictions == 0) & (labels == 1)).sum())
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


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

    head = [
        DenseLayer(x_aux.shape[1], cfg.head_hidden_dim, activation="relu", rng=rng),
        DenseLayer(cfg.head_hidden_dim, num_classes, rng=rng),
    ]
    params = [p for layer in head for p in layer.params()]
    opt = T.SgdOptimizer(params, cfg.learning_rate, momentum=0.9)
    n = len(aux_ids)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            h = T.Tensor(x_aux[sel])
            for layer in head:
                h = layer.forward(h)
            loss = T.softmax_cross_entropy(h, y_aux[sel])
            loss.backward()
            opt.step()

    h = T.Tensor(x_eval)
    for layer in head:
        h = layer.forward(h)
    recovered = h.values.argmax(axis=1)
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


def cap(curve: TradeoffCurve, utility_fn=None, distance_fn=None) -> float:
    """Mean over protection strengths of utility times privacy distance;
    the distance defaults to 1 - recovery accuracy."""
    if not curve.points:
        raise ValidationError("CAP of an empty curve")
    utility_fn = utility_fn or (lambda u: u)
    distance_fn = distance_fn or (lambda rec: 1.0 - rec)
    total = sum(utility_fn(u) * distance_fn(rec) for _, u, rec in curve.points)
    return total / len(curve.points)


def export_tradeoff_csv(path, curves, lambda_p=0.0):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "dataset", "lambda_f", "lambda_p", "main_metric", "recovery_acc"])
        for curve in curves:
            for lam, utility, recovery in curve.points:
                writer.writerow([curve.method, curve.dataset, lam, lambda_p, utility, recovery])
