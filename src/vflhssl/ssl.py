"""The three self-supervised losses and the MoCo negative queue.

All losses take a prediction ``p`` and a target ``z_target``; SimSiam
and BYOL hand ``neg_cosine`` and MoCo hands ``info_nce`` only the
target's values, so gradients never reach the target's producers
regardless of caller discipline.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError

MOCO_TEMPERATURE = 0.5
QUEUE_CAPACITY = 256  # negatives each MoCo queue holds
VARIANTS = ("simsiam", "byol", "moco")


class NegativeQueue:
    """FIFO of unit-normalized representation rows, bounded by capacity.
    Each enqueue replaces ``rows`` with a new array and never writes into
    the old one, so a matrix that ``as_matrix`` returned stays as it was.
    Only surviving old rows are copied, so no buffer outgrows a batch or capacity."""

    def __init__(self, capacity):
        if capacity < 0:
            raise ConfigError("queue capacity must be non-negative")
        self.capacity = capacity
        self.rows = None  # the held rows, oldest first; None until the first enqueue

    def __len__(self):
        return 0 if self.rows is None else len(self.rows)

    def enqueue(self, rows):
        rows = np.asarray(rows, dtype=np.float64)
        held = T._row_normalize(rows)[0]
        if self.rows is not None:
            held = np.concatenate([self.rows[max(0, len(self) + len(held) - self.capacity):], held])
        self.rows = held[max(0, len(held) - self.capacity):]

    def as_matrix(self):
        """The held rows, oldest first, or None while the queue is empty."""
        return self.rows if len(self) else None


def _check_pair(p, z):
    if p.shape != z.shape:
        raise ShapeError(f"prediction {p.shape} vs target {z.shape}")


def loss_simsiam(p: T.Tensor, z_target: T.Tensor) -> T.Tensor:
    """Mean over the batch of the negative cosine similarity."""
    _check_pair(p, z_target)
    return T.neg_cosine(p, z_target.values)


def loss_byol(p: T.Tensor, z_target: T.Tensor) -> T.Tensor:
    """Mean squared distance of unit vectors: 2 - 2*cos, i.e. 2 + 2*simsiam."""
    return T.affine(loss_simsiam(p, z_target), 2.0, 2.0)


def loss_moco(z1: T.Tensor, z2_target: T.Tensor, queue: NegativeQueue, temperature) -> T.Tensor:
    """InfoNCE with the queue as negatives; rows are unit-normalized and
    all logits are divided by the temperature."""
    _check_pair(z1, z2_target)
    if not 0 < temperature < math.inf:
        raise ConfigError("temperature must be positive and finite")
    return T.info_nce(z1, z2_target.values, queue.as_matrix(), temperature)


def ssl_loss(variant: str, p: T.Tensor, z_target: T.Tensor, queue=None) -> T.Tensor:
    """The loss of ``variant``, a name in ``VARIANTS``."""
    if variant == "simsiam":
        return loss_simsiam(p, z_target)
    if variant == "byol":
        return loss_byol(p, z_target)
    if queue is None:
        raise ConfigError("moco requires a negative queue")
    return loss_moco(p, z_target, queue, MOCO_TEMPERATURE)
