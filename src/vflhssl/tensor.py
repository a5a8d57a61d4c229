"""Reverse-mode autodiff over dense float64 arrays: 2-D ``(n, m)``, or
stacked ``(S, n, m)``, whose leading axis holds S batches.

Small tape-free engine: every operation records its parents and a
backward closure on the output node; ``Tensor.backward`` topologically
sorts the reachable subgraph and runs the closures in reverse order.
A node drops its closure, its parents and its gradient once its closure
has run: a graph is backpropagated once (a later ``backward()`` that
reaches it raises), and an activation's gradient dies once the ops below
it have read it. Leaves keep their gradients, and the node ``backward``
starts from its seed. Sufficient for MLPs, embedding lookups, the
contrastive losses and cross-entropy used elsewhere in the package.
Everything is float64.

A stacked value runs through ``dense``, ``embed_concat``, ``affine``,
``relu``, ``softmax_cross_entropy``, ``neg_cosine`` and ``info_nce`` as S
separate batches would, bit for bit: each slice makes the same BLAS call
and the same reductions as a 2-D call. A 2-D operand that the slices
share receives their gradients added in slice order, as S separate calls
would accumulate them; ``dense`` also takes per-slice (S, k, m) weights
and (S, 1, m) biases, whose slice s takes slice s's gradient alone. The
losses give one value per slice, and ``slice_sum`` adds them. The other
ops are for 2-D values; ``matmul`` refuses stacked ones.

Inside ``with no_grad():`` op outputs record no graph, so a forward
whose result is only read frees each layer's input as soon as the next
layer has run. Fine-tuning's evaluation forward
(``vfl.SplitTrainer.logits``) and the attack's frozen features and head
evaluation (``privacy.mc_attack``) run so, as do step 1's exchange
forward and step 2's guidance encoder (``hssl``); every training step
records its graph as usual.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import accumulate

import numpy as np

from .errors import ShapeError, ValidationError

NORM_EPS = 1e-12

grad_enabled = True  # False inside a ``no_grad`` block


class no_grad:
    """Context manager under which ops build outputs with no parents and
    no backward closure. Values are computed exactly as in grad mode. It
    nests, and grad mode is restored however the block exits."""

    def __enter__(self):
        global grad_enabled
        self._outer, grad_enabled = grad_enabled, False

    def __exit__(self, *exc_info):
        global grad_enabled
        grad_enabled = self._outer


class Tensor:
    """A 2-D or stacked 3-D float64 array node in a dynamically built autodiff graph."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad=False):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim not in (2, 3):
            raise ShapeError(f"tensors are 2-D or stacked 3-D, got ndim={v.ndim}")
        self.values = v
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    # -- introspection -------------------------------------------------
    @property
    def rows(self):
        return self.values.shape[-2]

    @property
    def cols(self):
        return self.values.shape[-1]

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        if self.values.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.values[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- gradient plumbing ---------------------------------------------
    def _accumulate(self, g, fresh=False):
        """Add ``g`` to the gradient; a ``fresh`` g, held by nothing else, is kept uncopied."""
        if self.grad is None:
            self.grad = g if fresh else np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    def backward(self, grad=None):
        """Backpropagate from this node.

        ``grad`` seeds the output gradient; defaults to ones (for a 1x1
        loss node that is the usual dL/dL = 1).
        """
        if grad is None:
            grad = np.ones_like(self.values)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.values.shape:
                raise ShapeError(f"seed gradient {grad.shape} != tensor {self.shape}")

        # Leaves run no closure (their parents fill them): only op nodes enter the order.
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is False:
                raise ValidationError("graph already released by an earlier backward()")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p._backward is not None and id(p) not in seen:
                    stack.append((p, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node._parents, node._backward = (), False  # released: its buffers die here
                if node is not self:
                    node.grad = None  # read by its closure alone


def _result(values, parents, backward):
    """The output node of an op.

    Ops pass 2-D or 3-D float64 ``values`` and a tuple of ``parents``, so the
    node is built directly, without ``Tensor.__init__``'s input checks.
    Under ``no_grad`` it is a constant: no parents, no closure.
    """
    out = Tensor.__new__(Tensor)
    out.values = values
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    if grad_enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward
                break
    return out


# -- operations ---------------------------------------------------------

def _fold(a, param):
    """A stacked gradient's slices added in slice order, when ``param`` is a
    2-D operand the slices share: what S separate calls accumulate into it.
    Otherwise ``a`` as it is."""
    return reduce(np.add, a) if a.ndim > param.values.ndim else a


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.cols != b.rows:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    out_values = a.values @ b.values

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.values.T, fresh=True)
        if b.requires_grad:
            b._accumulate(a.values.T @ g, fresh=True)

    return _result(out_values, (a, b), backward)


def _reduce_to(g, shape):
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] > 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] > 1:
        g = g.sum(axis=1, keepdims=True)
    if g.shape != shape:
        raise ShapeError(f"cannot reduce gradient {g.shape} to {shape}")
    return g


def dense(x: Tensor, weight: Tensor, bias: Tensor, relu: bool) -> Tensor:
    """``x @ weight + bias``, then ReLU if ``relu``, as one node.

    Values and gradients equal the ``matmul -> add -> relu`` composition
    bit for bit; ``bias`` is a (1, m) row. A stacked ``x`` (S, n, k) shares a
    (k, m) ``weight`` and (1, m) ``bias`` across its slices, or takes one per
    slice, (S, k, m) and (S, 1, m).
    """
    if (x.cols != weight.rows or bias.shape != (*weight.shape[:-2], 1, weight.cols)
            or weight.values.ndim == 3 and x.shape[:-2] != weight.shape[:-2]):
        raise ShapeError(f"dense shapes disagree: {x.shape} x {weight.shape} + {bias.shape}")
    out_values = x.values @ weight.values
    out_values += bias.values
    if relu:
        mask = out_values > 0.0
        out_values = np.where(mask, out_values, 0.0)

    def backward(g):
        if relu:
            g = g * mask
        if bias.requires_grad:
            gb = _fold(g if g.shape[-2] == 1 else g.sum(axis=-2, keepdims=True), bias)
            bias._accumulate(gb, fresh=gb is not g)
        if x.requires_grad:
            x._accumulate(g @ weight.values.mT, fresh=True)
        if weight.requires_grad:
            weight._accumulate(_fold(x.values.mT @ g, weight), fresh=True)

    return _result(out_values, (x, weight, bias), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; (1,m), (n,1) and (1,1) operands broadcast."""
    try:
        out_values = a.values + b.values
    except ValueError as exc:
        raise ShapeError(f"add shapes incompatible: {a.shape} + {b.shape}") from exc

    def backward(g):
        if a.requires_grad:
            a._accumulate(_reduce_to(g, a.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to(g, b.shape))

    return _result(out_values, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_values = a.values * b.values
    except ValueError as exc:
        raise ShapeError(f"mul shapes incompatible: {a.shape} * {b.shape}") from exc

    def backward(g):
        if a.requires_grad:
            a._accumulate(_reduce_to(g * b.values, a.shape), fresh=True)
        if b.requires_grad:
            b._accumulate(_reduce_to(g * a.values, b.shape), fresh=True)

    return _result(out_values, (a, b), backward)


def affine(x: Tensor, scale: float, shift: float = 0.0) -> Tensor:
    """y = scale*x + shift with python-float coefficients."""
    out_values = scale * x.values + shift

    def backward(g):
        if x.requires_grad:
            x._accumulate(scale * g, fresh=True)

    return _result(out_values, (x,), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.values > 0.0
    out_values = np.where(mask, x.values, 0.0)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * mask, fresh=True)

    return _result(out_values, (x,), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"maximum shapes differ: {a.shape} vs {b.shape}")
    take_a = a.values >= b.values
    out_values = np.where(take_a, a.values, b.values)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * take_a, fresh=True)
        if b.requires_grad:
            b._accumulate(g * ~take_a, fresh=True)

    return _result(out_values, (a, b), backward)


def _row_normalize(x):
    """``x`` with each row divided by max(||row||_2, eps); also the
    divisors and the rows where the clamp is inactive."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    denom = np.maximum(norms, NORM_EPS)
    return x / denom, denom, norms > NORM_EPS


def _row_normalize_grad(g, x, denom, live):
    """The gradient reaching ``x`` through ``_row_normalize`` from ``g``."""
    dot = (g * x).sum(axis=-1, keepdims=True)
    return g / denom - np.where(live, x * dot / denom**3, 0.0)


def row_l2_normalize(x: Tensor) -> Tensor:
    """Divide each row by max(||row||_2, eps)."""
    out_values, denom, live = _row_normalize(x.values)

    def backward(g):
        if x.requires_grad:
            x._accumulate(_row_normalize_grad(g, x.values, denom, live), fresh=True)

    return _result(out_values, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    out_values = np.array([[x.values.sum()]])

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.full_like(x.values, g[0, 0]), fresh=True)

    return _result(out_values, (x,), backward)


def mean_all(x: Tensor) -> Tensor:
    n = x.values.size
    out_values = np.array([[x.values.sum() / n]])

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.full_like(x.values, g[0, 0] / n), fresh=True)

    return _result(out_values, (x,), backward)


def row_sum(x: Tensor) -> Tensor:
    """(n, m) -> (n, 1), summing each row."""
    out_values = x.values.sum(axis=1, keepdims=True)

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.broadcast_to(g, x.shape).copy(), fresh=True)

    return _result(out_values, (x,), backward)


def concat_cols(tensors) -> Tensor:
    if len({t.rows for t in tensors}) != 1:
        raise ShapeError("concat_cols needs one or more tensors with equal row counts")
    out_values = np.concatenate([t.values for t in tensors], axis=1)
    offsets = [0, *accumulate(t.cols for t in tensors)]

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accumulate(g[:, lo:hi])

    return _result(out_values, tuple(tensors), backward)


def embed_concat(cont, tables, cats, frozen_rows) -> Tensor:
    """``[cont | tables[0][cats[:, 0]] | tables[1][cats[:, 1]] | ...]`` as one node.

    ``cont`` is an (n, m) array, ``tables`` one or more equal-width
    embedding tables and ``cats`` the (n, len(tables)) row indices; row
    ``frozen_rows[j]`` of table j never receives gradient. Values and
    gradients equal per-column lookups joined by ``concat_cols`` bit for
    bit: one ``np.bincount`` scatters every table's gradient, adding the
    terms of each (row, lane) in batch order from 0.0, as ``np.add.at``
    would. A stacked ``cont`` (S, n, m) takes (S, n, len(tables)) ``cats``;
    its backward runs one ``np.bincount`` per slice and adds them in slice order.
    """
    cont = np.asarray(cont, dtype=np.float64)
    cats = np.asarray(cats, dtype=np.int64)
    m_cont = cont.shape[-1]
    if not tables or cats.shape != (*cont.shape[:-1], len(tables)):
        raise ShapeError(f"embed_concat needs one index column per table: "
                         f"{len(tables)} tables, indices {cats.shape} for rows {cont.shape[:-1]}")
    d = tables[0].cols
    if any(t.cols != d for t in tables):
        raise ShapeError(f"embedding tables differ in width: {[t.cols for t in tables]}")
    sizes = [t.rows for t in tables]
    # Viewed as unsigned, a negative index exceeds every table size.
    if (cats.view(np.uint64) >= sizes).any():
        raise ValidationError(f"embedding index out of range of the table sizes {sizes}")
    out_values = np.empty((*cont.shape[:-1], m_cont + len(tables) * d))
    out_values[..., :m_cont] = cont
    for j, t in enumerate(tables):
        out_values[..., m_cont + j * d : m_cont + (j + 1) * d] = t.values[cats[..., j]]

    def backward(g):
        starts = list(accumulate(sizes, initial=0))
        slices = len(cats) if cats.ndim == 3 else 1
        index = ((cats + starts[:-1])[..., None] * d + np.arange(d)).reshape(slices, -1)
        lanes = g[..., m_cont:].reshape(slices, -1)
        grads = reduce(np.add, (np.bincount(i, weights=w, minlength=starts[-1] * d)
                                for i, w in zip(index, lanes)))
        grads = grads.reshape(starts[-1], d)
        for t, lo, hi, frozen in zip(tables, starts[:-1], starts[1:], frozen_rows):
            if t.requires_grad:
                gt = grads[lo:hi]
                gt[frozen] = 0.0
                t._accumulate(gt, fresh=True)

    return _result(out_values, tuple(tables), backward)


def _slices(a):
    """The 2-D slices of ``a``: a stacked array's S, or a 2-D one itself."""
    return a if a.ndim == 3 else (a,)


def _picks(y):
    """The index of entry ``y[i]`` of each row i: (n,) labels pick in every
    slice alike, (S, n) labels hold one row of labels per slice."""
    rows = np.arange(y.shape[-1])
    return (..., rows, y) if y.ndim == 1 else (np.arange(len(y))[:, None], rows, y)


def _log_softmax_nll(logits, y, out=None):
    """The row-wise log-softmax of ``logits``, written to ``out`` (which
    may be ``logits`` itself), and the mean of its negated ``y`` entries
    (``_picks``) as a (1, 1) array, or (S, 1, 1) for stacked logits."""
    log_probs = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    for rows in _slices(log_probs):  # exp's buffer holds one slice
        rows -= np.log(np.exp(rows).sum(axis=-1, keepdims=True))
    # Picked by shared labels, the entries come out column-major: made row-major,
    # each slice's mean (its sum over n) adds them in the order of the 2-D case.
    picked = np.ascontiguousarray(log_probs[_picks(y)])
    return log_probs, -(picked.sum(axis=-1, keepdims=True)[..., None] / y.shape[-1])


def _nll_grad(log_probs, y, g):
    """The gradient of that mean with respect to the logits, given ``g``
    on it: (softmax - one-hot(y)) * g / n. It is written over ``log_probs``,
    which only the one backward that calls this reads."""
    probs = np.exp(log_probs, out=log_probs)
    probs[_picks(y)] -= 1.0
    probs *= g / y.shape[-1]
    return probs


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]. Stacked logits
    (S, n, c) take (S, n) labels, a row per slice, and give one loss per
    slice, (S, 1, 1)."""
    y = np.asarray(labels, dtype=np.int64)
    if logits.values.ndim == 2:
        y = y.reshape(-1)
    if y.shape != logits.shape[:-1]:
        raise ShapeError(f"labels of shape {y.shape} for logits of shape {logits.shape}")
    if y.size and (y.min() < 0 or y.max() >= logits.cols):
        raise ValidationError(f"label out of range [0, {logits.cols})")
    log_probs, out_values = _log_softmax_nll(logits.values, y)

    def backward(g):
        if logits.requires_grad:
            logits._accumulate(_nll_grad(log_probs, y, g), fresh=True)

    return _result(out_values, (logits,), backward)


def info_nce(q: Tensor, k, negatives, temperature) -> Tensor:
    """InfoNCE of the rows of ``q`` against the positives ``k`` and the
    shared ``negatives``, as one node.

    Rows of ``q`` and ``k`` are unit-normalised; the logits
    ``[q̂·k̂ | q̂ @ negativesᵀ]`` are divided by ``temperature``, and the
    loss is their mean cross-entropy with label 0. ``k`` (n, d) and
    ``negatives`` (Q, d), or None for none, are constant arrays. A stacked
    ``q`` (S, n, d) takes (S, n, d) ``k`` and a sequence of S (Q, d)
    ``negatives``, slice s scored against the s-th, and gives one loss per
    slice, (S, 1, 1). Values and the gradient of ``q`` equal the
    composition ``row_l2_normalize -> mul -> row_sum``, ``matmul``,
    ``concat_cols``, ``affine(1/temperature)`` and ``softmax_cross_entropy``
    bit for bit; the logits are one buffer, which each slice's negatives
    multiply into where they are held.
    """
    k = np.asarray(k, dtype=np.float64)
    negs = None if negatives is None else list(negatives) if q.values.ndim == 3 else [negatives]
    if k.shape != q.shape or negs is not None and (
            len(negs) != len(_slices(q.values))
            or {ng.shape for ng in negs} != {(len(negs[0]), q.cols)}):
        raise ShapeError(f"info_nce shapes disagree: q {q.shape}, k {k.shape}, negatives "
                         f"{None if negs is None else [ng.shape for ng in negs]}")
    n = q.rows
    qn, denom, live = _row_normalize(q.values)
    kn = _row_normalize(k)[0]
    logits = np.empty((*q.shape[:-1], 1 if negs is None else 1 + len(negs[0])))
    logits[..., :1] = (qn * kn).sum(axis=-1, keepdims=True)
    if negs is not None:
        for qs, ng, out in zip(_slices(qn), negs, _slices(logits)):
            np.matmul(qs, ng.T, out=out[:, 1:])
    scale = 1.0 / temperature
    logits *= scale
    logits += 0.0  # as affine's ``scale * x + 0.0``, which turns -0.0 into 0.0
    y = np.zeros(n, dtype=np.int64)
    log_probs, out_values = _log_softmax_nll(logits, y, out=logits)

    def backward(g):
        if q.requires_grad:
            gl = _nll_grad(log_probs, y, g)
            gl *= scale
            gqn = gl[..., :1] * kn
            if negs is not None:
                for gs, ng, gq in zip(_slices(gl), negs, _slices(gqn)):
                    gq += gs[:, 1:] @ ng
            q._accumulate(_row_normalize_grad(gqn, q.values, denom, live), fresh=True)

    return _result(out_values, (q,), backward)


def neg_cosine(p: Tensor, z) -> Tensor:
    """Minus the mean over rows of cos(p, z), with ``z`` a constant (n, d)
    array, as one node; a stacked ``p`` and ``z`` (S, n, d) give one loss
    per slice, (S, 1, 1). Values and the gradient of ``p`` equal the composition
    ``row_l2_normalize -> mul -> row_sum -> mean_all -> affine(-1.0)`` bit for bit."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != p.shape:
        raise ShapeError(f"neg_cosine shapes disagree: p {p.shape}, z {z.shape}")
    n = p.rows
    pn, denom, live = _row_normalize(p.values)
    zn = _row_normalize(z)[0]
    cos = (pn * zn).sum(axis=-1, keepdims=True)
    out_values = -1.0 * (cos.sum(axis=-2, keepdims=True) / n) + 0.0  # as affine(-1.0): -0.0 becomes 0.0

    def backward(g):
        if p.requires_grad:
            gpn = (-1.0 * g / n) * zn
            p._accumulate(_row_normalize_grad(gpn, p.values, denom, live), fresh=True)

    return _result(out_values, (p,), backward)


def slice_sum(x: Tensor) -> Tensor:
    """(S, n, m) -> (n, m): the slices added in slice order, as ``add``
    would join S separate values one by one."""
    if x.values.ndim != 3:
        raise ShapeError(f"slice_sum needs a stacked tensor, got shape {x.shape}")
    out_values = reduce(np.add, x.values)

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.broadcast_to(g, x.shape).copy(), fresh=True)

    return _result(out_values, (x,), backward)


# -- optimizer ----------------------------------------------------------

class SgdOptimizer:
    """SGD with momentum over a fixed parameter list.

    step(): v <- momentum*v + grad; theta -= lr*v;
    gradients are zeroed afterwards. Every parameter must hold a
    gradient when the optimizer steps.

    The parameters are packed into one contiguous buffer: each
    ``Tensor.values`` becomes a view of it, so every writer must write in
    place, and a step updates the whole buffer at once. A later optimizer
    that packs a parameter takes it over; this one then refuses to step.
    """

    def __init__(self, params, learning_rate, momentum=0.9):
        if not 0 < learning_rate < math.inf:
            raise ValidationError("learning_rate must be positive and finite")
        if not 0.0 <= momentum < 1.0:
            raise ValidationError("momentum must be in [0, 1)")
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValidationError("a parameter is listed twice")
        self.learning_rate = learning_rate
        self.momentum = momentum
        offsets = np.cumsum([0] + [p.values.size for p in self.params])
        self._values, self._grad = np.empty(offsets[-1]), np.empty(offsets[-1])
        self._velocity = np.zeros(offsets[-1])
        for p, lo, hi in zip(self.params, offsets[:-1], offsets[1:]):
            self._values[lo:hi] = p.values.reshape(-1)
            p.values = self._values[lo:hi].reshape(p.shape)

    def step(self):
        if any(p.values.base is not self._values for p in self.params):
            raise ValidationError("a parameter was packed by a later optimizer")
        if any(p.grad is None for p in self.params):
            raise ValidationError("a parameter has no gradient to step")
        np.concatenate([p.grad for p in self.params], axis=None, out=self._grad)
        self._velocity *= self.momentum
        self._velocity += self._grad
        self._values -= self.learning_rate * self._velocity
        for p in self.params:
            p.grad = None
