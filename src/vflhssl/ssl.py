"""The self-supervised objective and the MoCo negative queue.

``ssl_loss`` scores a prediction ``p`` against a target that is a
constant array: SimSiam's stop-gradient branch, BYOL's EMA output, or
MoCo's momentum keys. A plain ndarray has no graph, so no gradient can
reach the target's producers whatever the caller does; a ``Tensor``
target is refused with ``TypeError``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError

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


def ssl_loss(variant: str, p: T.Tensor, target: np.ndarray, queue=None) -> T.Tensor:
    """The loss of ``variant``, a name in ``VARIANTS``, of ``p`` against the
    constant ``target`` of the same shape. SimSiam is the mean negative
    cosine; BYOL is 2 - 2*cos, the mean squared distance of unit vectors;
    MoCo is InfoNCE with ``queue``'s rows as negatives at ``MOCO_TEMPERATURE``.
    A stacked ``p`` (S, n, d) gives one loss per slice, and MoCo then takes
    a sequence of S queues, slice s drawing its negatives from queue s."""
    if variant == "moco":
        if p.values.ndim == 2:
            return T.info_nce(p, target, queue.as_matrix(), MOCO_TEMPERATURE)
        held = [q.as_matrix() for q in queue]
        return T.info_nce(p, target, None if held[0] is None else held, MOCO_TEMPERATURE)
    loss = T.neg_cosine(p, target)
    return T.affine(loss, 2.0, 2.0) if variant == "byol" else loss
