"""Per-layer self times and counts, recorded by wrapping the program's
public functions from outside.

A function is wrapped in every namespace it is called from: ``hssl``
imports ``augment``, ``ssl_loss`` and ``iso_perturb`` by name and ``vfl``
imports ``iso_perturb``, so rebinding ``data.augment`` alone would record
nothing. Methods are wrapped on their classes. A target that no longer
exists is reported as missing and the run goes on.

Self time of a span is its duration minus the duration of the traced
spans inside it. The harness opens one root span per CLI command; its
self time is ``cli.self_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

# layer -> wrap targets, as "module:attribute" or "module:Class.method"
SPANS = {
    "data.load": ["cli:build_dataset"],
    "data.augment": ["hssl:augment", "data:augment"],
    "data.rows": ["data:PartyBlock.rows"],
    "data.label_array": ["data:VerticalDataset.label_array"],
    "tensor.backward": ["tensor:Tensor.backward"],
    "tensor.sgd_step": ["tensor:SgdOptimizer.step"],
    "nn.forward": [
        f"nn:EncoderStack.{name}" for name in (
            "local_backbone", "local_projected", "local_predicted",
            "target_projected", "cross_backbone", "cross_projected",
            "cross_predicted_from", "finetune_repr",
        )
    ] + ["nn:DenseLayer.forward", "nn:MLP.forward", "nn:EmbeddingLayer.forward"],
    "nn.ema_update": ["nn:EmaTracker.update"],
    "nn.checkpoint": ["nn:save_checkpoint", "nn:load_checkpoint", "nn:Checkpoint.restore_into"],
    "ssl.loss": ["hssl:ssl_loss", "ssl:ssl_loss"],
    "ssl.queue": ["ssl:NegativeQueue.enqueue", "ssl:NegativeQueue.as_matrix"],
    "vfl.encode": ["vfl:encode_message"],
    "vfl.decode": ["vfl:decode_message"],
    "vfl.train_step": ["vfl:SplitTrainer.train_step"],
    "hssl.cross_epoch": ["hssl:cross_party_ssl_epoch"],
    "hssl.local_epoch": ["hssl:guided_local_ssl_epoch"],
    "hssl.pma": ["hssl:partial_model_aggregation"],
    "privacy.iso_perturb": ["hssl:iso_perturb", "vfl:iso_perturb", "privacy:iso_perturb"],
    "privacy.mc_attack": ["privacy:mc_attack"],
}

# Public tensor functions that are not graph-building ops.
NOT_OPS = {"as_tensor"}

# metric -> (layer, what): "self" is self time in s, "calls" a call count
REPORTED = {
    "data.load_s": ("data.load", "self"),
    "data.augment_s": ("data.augment", "self"),
    "data.augment_calls": ("data.augment", "calls"),
    "data.rows_s": ("data.rows", "self"),
    "data.rows_calls": ("data.rows", "calls"),
    "data.label_array_s": ("data.label_array", "self"),
    "tensor.backward_s": ("tensor.backward", "self"),
    "tensor.backward_calls": ("tensor.backward", "calls"),
    "tensor.sgd_step_s": ("tensor.sgd_step", "self"),
    "tensor.sgd_step_calls": ("tensor.sgd_step", "calls"),
    "tensor.op_calls": ("tensor.op", "calls"),
    "nn.forward_s": ("nn.forward", "self"),
    "nn.ema_update_s": ("nn.ema_update", "self"),
    "nn.checkpoint_s": ("nn.checkpoint", "self"),
    "ssl.loss_s": ("ssl.loss", "self"),
    "ssl.queue_s": ("ssl.queue", "self"),
    "ssl.queue_calls": ("ssl.queue", "calls"),
    "vfl.encode_s": ("vfl.encode", "self"),
    "vfl.decode_s": ("vfl.decode", "self"),
    "vfl.train_step_s": ("vfl.train_step", "self"),
    "vfl.train_steps": ("vfl.train_step", "calls"),
    "hssl.cross_epoch_s": ("hssl.cross_epoch", "self"),
    "hssl.local_epoch_s": ("hssl.local_epoch", "self"),
    "hssl.pma_s": ("hssl.pma", "self"),
    "privacy.iso_perturb_s": ("privacy.iso_perturb", "self"),
    "privacy.mc_attack_s": ("privacy.mc_attack", "self"),
    "cli.self_s": ("cli", "self"),
}


def _resolve(target):
    """(owner, attribute name, current value) of a wrap target, or None."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(f"vflhssl.{module_name}")
    except ImportError:
        return None
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if value is None or not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """Accumulates self time and call counts per layer.

    Single-threaded by design: the benchmark runs the serial scheduler.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.missing = []
        self._stack = [0.0]  # traced child time of each open span

    def _span(self, layer, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self_s[layer] += duration - stack.pop()
                calls[layer] += 1
                stack[-1] += duration

        return wrapper

    def _count(self, layer, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for layer, targets in SPANS.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.missing.append(target)
                    continue
                owner, attr, fn = found
                setattr(owner, attr, self._span(layer, fn))
        tensor = importlib.import_module("vflhssl.tensor")
        ops = [
            name for name, fn in vars(tensor).items()
            if inspect.isfunction(fn) and fn.__module__ == tensor.__name__
            and not name.startswith("_") and name not in NOT_OPS
        ]
        if not ops:
            self.missing.append("tensor:<public op functions>")
        for name in ops:
            setattr(tensor, name, self._count("tensor.op", getattr(tensor, name)))

    def command(self, fn, *args):
        """Run one CLI command as the root span."""
        self._stack[:] = [0.0]
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.self_s["cli"] += perf_counter() - start - self._stack[0]

    def layer_metrics(self):
        out = {}
        for metric, (layer, what) in REPORTED.items():
            out[metric] = self.self_s[layer] if what == "self" else self.calls[layer]
        return out
