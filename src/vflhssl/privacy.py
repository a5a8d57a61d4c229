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
        # mc_attack checks this too, but only after the first fine-tune has trained.
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


def mc_attack(adversary, aux_ids, eval_ids, labels, num_classes, rng, *, head_hidden_dim, epochs):
    """Freeze the adversary's encoder, fit a one-hidden-layer head for
    ``epochs`` on the auxiliary labeled samples, and report label recovery
    accuracy on the evaluation ids. The head reads ``adversary.finetune_forward``:
    the representation the adversary sends in the split network. ``labels``
    is the id -> class lookup, asked only for the auxiliary and evaluation
    ids: the adversary itself holds no labels."""
    aux_ids = np.asarray(aux_ids)
    eval_ids = np.asarray(eval_ids)
    if set(map(int, aux_ids)) & set(map(int, eval_ids)):
        raise ConfigError("auxiliary and evaluation ids must be disjoint")
    if len(aux_ids) < num_classes:
        raise ConfigError("need at least one auxiliary sample per class")

    # Encoder outputs are computed once as constants, recording no graph:
    # the encoder is frozen by construction, only the head trains.
    with T.no_grad():
        x_aux = adversary.finetune_forward(aux_ids).values
        x_eval = adversary.finetune_forward(eval_ids).values
    y_aux = labels(aux_ids)
    y_eval = labels(eval_ids)

    head = MLP([x_aux.shape[1], head_hidden_dim, num_classes], rng)
    opt = T.SgdOptimizer(head.params(), ATTACK_LR, momentum=0.9)
    for _ in range(epochs):
        for sel in batches(np.arange(len(aux_ids)), ATTACK_BATCH, rng=rng):
            loss = T.softmax_cross_entropy(head.forward(T.Tensor(x_aux[sel])), y_aux[sel])
            loss.backward()
            opt.step()

    with T.no_grad():
        recovered = head.forward(T.Tensor(x_eval)).values.argmax(axis=1)
    return metric_top1(recovered, y_eval)


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
