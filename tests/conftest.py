import numpy as np
import pytest

from vflhssl import tensor as T, vfl


# A config small enough for a CLI test to run pretrain, finetune and attack.
TINY = {
    "data": {"synthetic": {
        "classes": 3, "aligned": 60, "unaligned": [40, 40], "labeled": 48,
        "test": 45, "feature_dims": [8, 8], "latent_dim": 4, "class_sep": 2.0,
    }},
    "pipeline": {"global_iterations": 1, "batch_size": 32},
    "finetune": {"labeled_counts": [32], "lr_candidates": [0.03],
                 "epochs": 3, "batch_size": 32},
    "privacy": {"lambda_f": [1.0, 25.0], "aux_labeled_count": 15,
                "attack_epochs": 5},
    "seeds": [0],
}


def whole_batch(trainer, ids):
    """``ids`` in order as one batch of a FinetunePool gathered from the
    trainer's own parties: what ``train_step`` reads."""
    blocks = [p.block for p in trainer.parties]
    return vfl.FinetunePool(blocks, trainer.parties[0].labels, ids)[np.arange(len(ids))]


def finite_diff_grad(fn, x, h=1e-5):
    """Central finite differences of a scalar-valued fn wrt ndarray x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        hi = fn()
        x[idx] = orig - h
        lo = fn()
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * h)
        it.iternext()
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def grad_mode_stays_on():
    """Every test starts in grad mode and must leave it on: a leaked
    ``tensor.no_grad`` fails the test that leaked it, and only that one."""
    assert T.grad_enabled
    yield
    leaked = not T.grad_enabled
    T.grad_enabled = True
    assert not leaked, "the test left tensor.no_grad on"


class PerParameterSgd(T.SgdOptimizer):
    """One update per parameter: the loop that the packed
    ``SgdOptimizer.step`` replaces, kept as the reference it must equal
    bit for bit."""

    def __init__(self, params, learning_rate, momentum=0.9):
        super().__init__(params, learning_rate, momentum=momentum)
        self.velocity = {id(p): np.zeros_like(p.values) for p in self.params}

    def step(self):
        for p in self.params:
            if not p.requires_grad or p.grad is None:
                continue
            v = self.velocity[id(p)]
            v *= self.momentum
            v += p.grad
            p.values -= self.learning_rate * v
            p.grad = None
