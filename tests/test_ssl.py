from collections import deque

import numpy as np
import pytest

from vflhssl import ssl, tensor as T
from vflhssl.errors import ShapeError

from conftest import finite_diff_grad, rel_err


class TestSimSiam:
    def test_identical_rows(self, rng):
        p = T.Tensor(rng.normal(size=(5, 8)))
        assert ssl.ssl_loss("simsiam", p, p.values).item() == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_rows(self):
        p = T.Tensor([[1.0, 0.0], [0.0, 2.0]])
        z = T.Tensor([[0.0, 3.0], [5.0, 0.0]])
        assert ssl.ssl_loss("simsiam", p, z.values).item() == pytest.approx(0.0, abs=1e-12)

    def test_antiparallel(self):
        p = T.Tensor([[1.0, 0.0]])
        z = T.Tensor([[-1.0, 0.0]])
        assert ssl.ssl_loss("simsiam", p, z.values).item() == pytest.approx(1.0, abs=1e-12)

    def test_target_scale_invariance(self, rng):
        p = T.Tensor(rng.normal(size=(4, 6)))
        z = rng.normal(size=(4, 6))
        a = ssl.ssl_loss("simsiam", p, z).item()
        b = ssl.ssl_loss("simsiam", p, 3.7 * z).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ssl.ssl_loss("simsiam", T.Tensor(np.zeros((2, 3))), np.zeros((2, 4)))


class TestByol:
    def test_identical_rows(self, rng):
        p = T.Tensor(rng.normal(size=(5, 8)))
        assert ssl.ssl_loss("byol", p, p.values).item() == pytest.approx(0.0, abs=1e-12)

    def test_antiparallel(self):
        p = T.Tensor([[0.0, 2.0]])
        z = T.Tensor([[0.0, -5.0]])
        assert ssl.ssl_loss("byol", p, z.values).item() == pytest.approx(4.0, abs=1e-12)

    def test_identity_with_simsiam(self, rng):
        p = T.Tensor(rng.normal(size=(16, 12)))
        z = T.Tensor(rng.normal(size=(16, 12)))
        byol = ssl.ssl_loss("byol", p, z.values).item()
        simsiam = ssl.ssl_loss("simsiam", p, z.values).item()
        assert abs(byol - (2.0 + 2.0 * simsiam)) < 1e-12


class TestMoco:
    def test_empty_queue_zero(self, rng):
        z = T.Tensor(rng.normal(size=(4, 8)))
        loss = ssl.ssl_loss("moco", z, z.values, ssl.NegativeQueue(16))
        assert abs(loss.item()) < 1e-12

    def test_positive_copies_log(self, rng):
        row = rng.normal(size=(1, 8))
        q = ssl.NegativeQueue(32)
        q.enqueue(np.tile(row, (7, 1)))
        loss = ssl.ssl_loss("moco", T.Tensor(row), row, q)
        assert loss.item() == pytest.approx(np.log(8), abs=1e-9)

    def test_matches_bruteforce_softmax(self, rng):
        # Independent oracle: direct softmax over normalized dot products.
        b, d, tau = 2, 2, 0.5
        z1 = rng.normal(size=(b, d))
        z2 = rng.normal(size=(b, d))
        queue_rows = rng.normal(size=(3, d))
        q = ssl.NegativeQueue(8)
        q.enqueue(queue_rows)

        def unit(m):
            return m / np.linalg.norm(m, axis=1, keepdims=True)

        z1n, z2n, qn = unit(z1), unit(z2), unit(queue_rows)
        expected = 0.0
        for i in range(b):
            pos = z1n[i] @ z2n[i] / tau
            negs = qn @ z1n[i] / tau
            logits = np.concatenate([[pos], negs])
            expected += -np.log(np.exp(pos) / np.exp(logits).sum())
        expected /= b

        loss = ssl.ssl_loss("moco", T.Tensor(z1), z2, q)
        assert loss.item() == pytest.approx(expected, abs=1e-10)

    def test_queue_fifo_eviction(self, rng):
        q = ssl.NegativeQueue(4)
        rows = np.eye(6)
        q.enqueue(rows)
        kept = q.as_matrix()
        assert len(q) == 4
        np.testing.assert_allclose(kept, rows[2:])  # two oldest evicted

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ssl.ssl_loss("moco", T.Tensor(np.zeros((2, 3))), np.zeros((2, 4)),
                         ssl.NegativeQueue(4))


def reference_info_nce(q, k, negatives, temperature):
    """The composition ``info_nce`` replaces: normalise, positive column by
    ``mul -> row_sum``, negatives by ``matmul``, join, scale, cross-entropy."""
    qn = T.row_l2_normalize(q)
    kn = T.row_l2_normalize(T.Tensor(k))
    logits = T.row_sum(T.mul(qn, kn))
    if negatives is not None:
        logits = T.concat_cols([logits, T.matmul(qn, T.Tensor(negatives.T))])
    logits = T.affine(logits, 1.0 / temperature)
    return T.softmax_cross_entropy(logits, np.zeros(q.rows, dtype=np.int64))


class TestInfoNce:
    @pytest.mark.parametrize("queued", [0, 5, ssl.QUEUE_CAPACITY])
    @pytest.mark.parametrize("batch", [1, 128])
    @pytest.mark.parametrize("zero_row", [False, True])
    def test_bit_identical_to_composition(self, rng, queued, batch, zero_row):
        d = 16
        q, k = rng.normal(size=(batch, d)), rng.normal(size=(batch, d))
        if zero_row:
            q[0] = 0.0  # its norm is clamped to NORM_EPS
        queue = ssl.NegativeQueue(ssl.QUEUE_CAPACITY)
        if queued:
            queue.enqueue(rng.normal(size=(queued, d)))
        arrays = [q, k, queue.as_matrix()]
        # The same operands again, with NaN, signed zeros and infinities.
        special = [None if a is None else a.copy() for a in arrays]
        for a in filter(lambda a: a is not None, special):
            cells = rng.random(a.shape) < 0.2
            a[cells] = rng.choice([np.nan, 0.0, -0.0, np.inf, -np.inf], size=cells.sum())

        def run(operands, fused):
            q = T.Tensor(operands[0], requires_grad=True)
            loss = (T.info_nce if fused else reference_info_nce)(
                q, *operands[1:], ssl.MOCO_TEMPERATURE)
            loss.backward(grad=np.array([[0.7]]))
            return loss.values, q.grad

        with np.errstate(all="ignore"):
            for operands in (arrays, special):
                for fused_part, composed_part in zip(run(operands, True), run(operands, False)):
                    assert fused_part.tobytes() == composed_part.tobytes()

    def test_constants_untouched(self, rng):
        q = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        k, negatives = rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
        before = k.copy(), negatives.copy()
        T.info_nce(q, k, negatives, 0.5).backward()
        assert k.tobytes() == before[0].tobytes() and negatives.tobytes() == before[1].tobytes()

    @pytest.mark.parametrize("k_shape,neg_shape", [((4, 2), None), ((4, 3), (6, 2)),
                                                   ((3, 3), (6, 3))])
    def test_shape_mismatch(self, k_shape, neg_shape):
        negatives = None if neg_shape is None else np.zeros(neg_shape)
        with pytest.raises(ShapeError, match="info_nce"):
            T.info_nce(T.Tensor(np.ones((4, 3))), np.ones(k_shape), negatives, 0.5)


def reference_neg_cosine(p, z):
    """The composition ``neg_cosine`` replaces: normalise both sides, the
    cosine by ``mul -> row_sum``, then minus its mean."""
    pn = T.row_l2_normalize(p)
    zn = T.row_l2_normalize(T.Tensor(z))
    return T.affine(T.mean_all(T.row_sum(T.mul(pn, zn))), -1.0)


class TestNegCosine:
    @pytest.mark.parametrize("batch", [1, 128])
    @pytest.mark.parametrize("zero_row", [None, "p", "z"])
    def test_bit_identical_to_composition(self, rng, batch, zero_row):
        d = 16
        p, z = rng.normal(size=(batch, d)), rng.normal(size=(batch, d))
        if zero_row is not None:
            # A zero p row has its norm clamped to NORM_EPS; a zero z row normalises to 0.
            (p if zero_row == "p" else z)[0] = 0.0
        # The same operands again, with NaN, signed zeros and infinities.
        special = [p.copy(), z.copy()]
        for a in special:
            cells = rng.random(a.shape) < 0.2
            a[cells] = rng.choice([np.nan, 0.0, -0.0, np.inf, -np.inf], size=cells.sum())

        def run(operands, fused, seed):
            p = T.Tensor(operands[0], requires_grad=True)
            loss = (T.neg_cosine if fused else reference_neg_cosine)(p, operands[1])
            loss.backward(grad=seed)
            return loss.values, p.grad

        with np.errstate(all="ignore"):
            for operands in ((p, z), special):
                for seed in (None, np.array([[0.7]])):
                    for fused_part, composed_part in zip(run(operands, True, seed),
                                                         run(operands, False, seed)):
                        assert fused_part.tobytes() == composed_part.tobytes()

    def test_target_untouched(self, rng):
        p = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        z = rng.normal(size=(4, 3))
        before = z.copy()
        T.neg_cosine(p, z).backward()
        assert z.tobytes() == before.tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="neg_cosine"):
            T.neg_cosine(T.Tensor(np.ones((4, 3))), np.ones((4, 2)))


class TestDispatch:
    @pytest.mark.parametrize("kind", ["simsiam", "byol", "moco"])
    def test_covers_all_kinds(self, kind, rng):
        p = T.Tensor(rng.normal(size=(3, 4)))
        z = rng.normal(size=(3, 4))
        queue = ssl.NegativeQueue(8) if kind == "moco" else None
        loss = ssl.ssl_loss(kind, p, z, queue=queue)
        assert np.isfinite(loss.item())

    def test_simsiam_dispatch_equals_direct(self, rng):
        p = T.Tensor(rng.normal(size=(3, 4)))
        z = rng.normal(size=(3, 4))
        assert ssl.ssl_loss("simsiam", p, z).item() == T.neg_cosine(p, z).item()

    def test_stacked_moco_reads_each_queue_where_it_is_held(self, rng, monkeypatch):
        queues = [ssl.NegativeQueue(8) for _ in range(2)]
        for queue in queues:
            queue.enqueue(rng.normal(size=(5, 4)))
        p, z = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))
        info_nce, passed = T.info_nce, []
        monkeypatch.setattr(T, "info_nce", lambda q, k, negatives, temperature: (
            passed.append(negatives) or info_nce(q, k, negatives, temperature)))
        loss = ssl.ssl_loss("moco", T.Tensor(p), z, queue=queues)
        [negatives] = passed
        assert all(held is queue.rows for held, queue in zip(negatives, queues, strict=True))
        for s, queue in enumerate(queues):
            alone = ssl.ssl_loss("moco", T.Tensor(p[s]), z[s], queue=queue)
            assert loss.values[s].tobytes() == alone.values.tobytes()

    @pytest.mark.parametrize("kind", ["simsiam", "byol", "moco"])
    def test_tensor_target_refused(self, kind, rng):
        # A target is a constant array: a Tensor, which could carry a graph, is refused.
        p = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        queue = ssl.NegativeQueue(8) if kind == "moco" else None
        with pytest.raises(TypeError):
            ssl.ssl_loss(kind, p, T.Tensor(rng.normal(size=(3, 4))), queue=queue)

    @pytest.mark.parametrize("kind", ["simsiam", "byol", "moco"])
    def test_target_producers_get_zero_grad(self, kind, rng):
        w = T.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        x = T.Tensor(rng.normal(size=(3, 4)))
        p = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        z = T.matmul(x, w)
        queue = ssl.NegativeQueue(8) if kind == "moco" else None
        loss = ssl.ssl_loss(kind, p, z.values, queue=queue)
        loss.backward()
        assert w.grad is None
        assert p.grad is not None


@pytest.mark.parametrize("kind", ["simsiam", "byol", "moco"])
def test_loss_gradients_match_finite_differences(kind, rng):
    p_values = rng.uniform(-1, 1, size=(4, 6))
    z_values = rng.uniform(-1, 1, size=(4, 6))
    queue_rows = rng.uniform(-1, 1, size=(5, 6))

    def make_queue():
        if kind != "moco":
            return None
        q = ssl.NegativeQueue(8)
        q.enqueue(queue_rows)
        return q

    def value():
        return ssl.ssl_loss(kind, T.Tensor(p_values), z_values, queue=make_queue()).item()

    p = T.Tensor(p_values, requires_grad=True)
    loss = ssl.ssl_loss(kind, p, z_values, queue=make_queue())
    loss.backward()
    expected = finite_diff_grad(value, p_values)
    assert rel_err(p.grad, expected) < 1e-4


@pytest.mark.parametrize("kind", ["simsiam", "byol", "moco"])
def test_loss_bounds(kind, rng):
    for _ in range(20):
        p = T.Tensor(rng.normal(size=(5, 7)))
        z = rng.normal(size=(5, 7))
        queue = None
        if kind == "moco":
            queue = ssl.NegativeQueue(16)
            queue.enqueue(rng.normal(size=(6, 7)))
        v = ssl.ssl_loss(kind, p, z, queue=queue).item()
        if kind == "simsiam":
            assert -1.0 <= v <= 1.0
        elif kind == "byol":
            assert 0.0 <= v <= 4.0
        else:
            assert v >= 0.0


def test_negative_queue_matches_deque_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.example(capacity=0, width=3, sizes=[2, 5], seed=0)
    @hypothesis.example(capacity=1, width=2, sizes=[3, 1, 0, 2], seed=1)
    @hypothesis.example(capacity=4, width=2, sizes=[3, 9, 2], seed=2)
    @hypothesis.given(
        capacity=st.integers(0, 9),
        width=st.integers(1, 5),
        sizes=st.lists(st.integers(0, 14), max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(capacity, width, sizes, seed):
        make = np.random.default_rng(seed)
        queue = ssl.NegativeQueue(capacity)
        reference = deque(maxlen=capacity)
        earlier = []  # (matrix returned by as_matrix, its copy)
        for size in sizes:
            rows = make.standard_normal((size, width))
            if size:
                rows[0] = 0.0  # a zero row normalises by NORM_EPS
            queue.enqueue(rows)
            norms = np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), T.NORM_EPS)
            reference.extend(rows / norms)
            assert len(queue) == len(reference)
            got = queue.as_matrix()
            if reference:
                np.testing.assert_array_equal(got, np.stack(reference))
                assert got.flags.c_contiguous
                earlier.append((got, got.copy()))
            else:
                assert got is None
        for got, snapshot in earlier:  # later enqueues never reach a returned matrix
            np.testing.assert_array_equal(got, snapshot)

    check()


def test_negative_queue_buffer_holds_at_most_capacity_rows(rng):
    # A full queue keeps its newest rows without a capacity + batch buffer.
    capacity = 8
    queue = ssl.NegativeQueue(capacity)
    for size in [3, 8, 5, 1, 0, 8, 7]:
        queue.enqueue(rng.normal(size=(size, 4)))
        rows = queue.as_matrix()
        assert rows.base is None or len(rows.base) <= capacity, (size, rows.base.shape)
