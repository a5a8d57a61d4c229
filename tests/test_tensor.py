import inspect
import weakref
from functools import reduce

import numpy as np
import pytest

from vflhssl import tensor as T
from vflhssl.errors import ShapeError, ValidationError

from conftest import PerParameterSgd, finite_diff_grad, rel_err


def check_grad(op, shapes, rng, h=1e-5, tol=1e-4, **kwargs):
    """Analytic gradient of sum(op(*inputs)) vs central differences."""
    arrays = [rng.uniform(-1, 1, size=s) for s in shapes]

    def value():
        tensors = [T.Tensor(a) for a in arrays]
        return T.sum_all(op(*tensors, **kwargs)).item()

    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    out = T.sum_all(op(*tensors, **kwargs))
    out.backward()
    for arr, t in zip(arrays, tensors):
        expected = finite_diff_grad(value, arr, h=h)
        assert rel_err(t.grad, expected) < tol


class TestMatmul:
    def test_identity(self, rng):
        x = rng.normal(size=(2, 3))
        out = T.matmul(T.Tensor(np.eye(2)), T.Tensor(x))
        np.testing.assert_array_equal(out.values, x)

    def test_hand_case(self):
        out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
        assert out.values.tolist() == [[11.0]]

    def test_gradient(self, rng):
        check_grad(T.matmul, [(3, 4), (4, 2)], rng)

    def test_backward_formulas(self, rng):
        a = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        out = T.matmul(a, b)
        g = rng.normal(size=(3, 2))
        out.backward(grad=g)
        np.testing.assert_allclose(a.grad, g @ b.values.T)
        np.testing.assert_allclose(b.grad, a.values.T @ g)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))))


class TestDense:
    @pytest.mark.parametrize("batch", [1, 64])
    @pytest.mark.parametrize("relu", [False, True])
    def test_bit_identical_to_composition(self, rng, batch, relu):
        arrays = [rng.normal(size=(batch, 32)), rng.normal(size=(32, 16)),
                  rng.normal(size=(1, 16)), rng.normal(size=(batch, 16))]
        # The same operands again, with NaN, signed zeros and infinities.
        special = [a.copy() for a in arrays]
        for a in special:
            cells = rng.random(a.shape) < 0.2
            a[cells] = rng.choice([np.nan, 0.0, -0.0, np.inf, -np.inf], size=cells.sum())

        def run(operands, fused):
            x, w, b = (T.Tensor(a.copy(), requires_grad=True) for a in operands[:3])
            if fused:
                out = T.dense(x, w, b, relu)
            else:
                out = T.add(T.matmul(x, w), b)
                if relu:
                    out = T.relu(out)
            out.backward(grad=operands[3])
            return out.values, x.grad, w.grad, b.grad

        with np.errstate(invalid="ignore"):
            for operands in (arrays, special):
                for fused_part, composed_part in zip(run(operands, True), run(operands, False)):
                    assert fused_part.tobytes() == composed_part.tobytes()

    def test_frozen_weights_pass_input_gradient(self, rng):
        x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w, b = T.Tensor(rng.normal(size=(4, 2))), T.Tensor(rng.normal(size=(1, 2)))
        T.sum_all(T.dense(x, w, b, False)).backward()
        np.testing.assert_allclose(x.grad, np.ones((3, 2)) @ w.values.T)
        assert w.grad is None and b.grad is None

    def test_shape_mismatch(self):
        x, w = T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 4)))
        with pytest.raises(ShapeError, match="dense"):
            T.dense(x, T.Tensor(np.zeros((4, 2))), T.Tensor(np.zeros((1, 2))), False)
        with pytest.raises(ShapeError, match="dense"):
            T.dense(x, w, T.Tensor(np.zeros((1, 3))), True)


def op_cases(rng):
    """One call of every public op, by name, over inputs that require grad."""
    a = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    bias = T.Tensor(rng.normal(size=(1, 2)), requires_grad=True)
    stacked = T.Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    return {
        "matmul": lambda: T.matmul(a, w),
        "dense": lambda: T.dense(a, w, bias, True),
        "add": lambda: T.add(a, T.Tensor([[1, 2, 3]])),
        "mul": lambda: T.mul(a, b),
        "affine": lambda: T.affine(a, 2, 1),
        "relu": lambda: T.relu(a),
        "maximum": lambda: T.maximum(a, b),
        "row_l2_normalize": lambda: T.row_l2_normalize(a),
        "sum_all": lambda: T.sum_all(a),
        "mean_all": lambda: T.mean_all(a),
        "row_sum": lambda: T.row_sum(a),
        "concat_cols": lambda: T.concat_cols([a, T.Tensor(w.values[:1].repeat(4, axis=0))]),
        "embed_concat": lambda: T.embed_concat(a.values, [w], [[0], [2], [2], [1]], [2]),
        "softmax_cross_entropy": lambda: T.softmax_cross_entropy(a, [0, 1, 2, 0]),
        "info_nce": lambda: T.info_nce(a, b.values, w.values.T, 0.5),
        "neg_cosine": lambda: T.neg_cosine(a, b.values),
        "slice_sum": lambda: T.slice_sum(stacked),
    }


def stacked_op_cases(rng):
    """One call, by name, of every op that step 2 or the attack runs on a
    stacked (S, n, m) value."""
    x = T.Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    bias = T.Tensor(rng.normal(size=(1, 2)), requires_grad=True)
    ws = T.Tensor(rng.normal(size=(2, 3, 2)), requires_grad=True)
    biases = T.Tensor(rng.normal(size=(2, 1, 2)), requires_grad=True)
    return {
        "dense": lambda: T.dense(x, w, bias, True),
        "dense, per-slice parameters": lambda: T.dense(x, ws, biases, True),
        "softmax_cross_entropy": lambda: T.softmax_cross_entropy(x, [[0, 1, 2, 0], [2, 2, 1, 0]]),
        "affine": lambda: T.affine(x, 2, 1),
        "embed_concat": lambda: T.embed_concat(x.values, [w], [[[0], [2], [2], [1]]] * 2, [2]),
        "info_nce": lambda: T.info_nce(x, x.values[::-1], rng.normal(size=(2, 5, 3)), 0.5),
        "neg_cosine": lambda: T.neg_cosine(x, x.values[::-1]),
    }


def test_every_op_returns_2d_float64(rng):
    """Op outputs skip Tensor's input checks, so each op must itself
    produce a 2-D float64 array, or a stacked 3-D one from stacked input;
    a new op without a case here fails."""
    cases = op_cases(rng)
    public_ops = {
        name for name, fn in vars(T).items()
        if inspect.isfunction(fn) and fn.__module__ == T.__name__
        and not name.startswith("_")
    }
    assert set(cases) == public_ops
    for name, make in cases.items():
        out = make()
        assert isinstance(out, T.Tensor), name
        assert out.values.ndim == 2 and out.values.dtype == np.float64, name
    for name, make in stacked_op_cases(rng).items():
        out = make()
        assert out.values.ndim == 3 and out.values.dtype == np.float64, name
        assert len(out.values) == 2, name


class TestNoGrad:
    def test_every_op_records_no_graph_and_equal_values(self, rng):
        for name, make in op_cases(rng).items():
            with_graph = make()
            assert with_graph._parents and with_graph.requires_grad, name
            with T.no_grad():
                out = make()
            assert out._parents == () and out._backward is None, name
            assert not out.requires_grad, name
            assert out.values.tobytes() == with_graph.values.tobytes(), name

    def test_grad_mode_restored_after_nesting_and_exceptions(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                assert not T.grad_enabled
            assert not T.grad_enabled
            assert T.relu(x)._parents == ()
        assert T.grad_enabled and T.relu(x)._parents == (x,)
        with pytest.raises(ShapeError), T.no_grad():
            T.matmul(x, T.Tensor(np.ones((3, 1))))
        assert T.grad_enabled and T.relu(x)._parents == (x,)


class TestGraphRelease:
    """``backward()`` releases each op node it runs: the node drops its
    closure and parents, so a second pass raises, and its gradient, which
    only its own closure reads. Leaves keep their gradients, and the node
    the pass starts from keeps its seed."""

    def graph(self, rng):
        """A dense layer into MoCo's InfoNCE against 5 negatives; every op
        node of it, root last, and the leaves."""
        x = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(1, 6)), requires_grad=True)
        h = T.dense(x, w, b, relu=True)
        z = T.affine(h, 2.0)
        loss = T.info_nce(z, rng.normal(size=(4, 6)), rng.normal(size=(5, 6)), 0.5)
        return [h, z, loss], [x, w, b]

    def test_backward_releases_every_node_it_ran(self, rng):
        nodes, leaves = self.graph(rng)
        assert all(node._parents and callable(node._backward) for node in nodes)
        nodes[-1].backward()
        for node in nodes:
            assert node._parents == () and not callable(node._backward)
        assert all(leaf.grad is not None for leaf in leaves)
        assert np.isfinite(nodes[-1].item())  # values stay readable

    def test_intermediate_grads_dropped_leaf_and_root_grads_kept(self, rng):
        nodes, leaves = self.graph(rng)
        h, z, loss = nodes
        seed = np.array([[0.75]])
        loss.backward(grad=seed)
        assert h.grad is None and z.grad is None
        assert loss.grad.tobytes() == seed.tobytes()
        for leaf in leaves:
            assert leaf.grad.shape == leaf.shape and np.isfinite(leaf.grad).all()

    def test_logits_buffer_dies_with_the_backward_not_the_loss(self, rng):
        nodes, _ = self.graph(rng)
        loss = nodes[-1]
        closure = loss._backward
        captured = dict(zip(closure.__code__.co_freevars,
                            (cell.cell_contents for cell in closure.__closure__)))
        logits = weakref.ref(captured["log_probs"])
        assert logits().shape == (4, 6)  # the positive and 5 negatives per row
        del closure, captured
        loss.backward()
        assert logits() is None  # freed although the caller still holds ``loss``

    def test_second_backward_raises_and_changes_no_gradient(self, rng):
        nodes, leaves = self.graph(rng)
        h, loss = nodes[0], nodes[-1]
        loss.backward()
        grads = [leaf.grad.copy() for leaf in leaves]
        with pytest.raises(ValidationError, match="graph already released"):
            loss.backward()
        # A new node over a released one reaches it too.
        with pytest.raises(ValidationError, match="graph already released"):
            T.sum_all(T.relu(h)).backward()
        for leaf, grad in zip(leaves, grads):
            assert leaf.grad.tobytes() == grad.tobytes()


class TestRowNormalize:
    def test_three_four_five(self):
        out = T.row_l2_normalize(T.Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.values, [[0.6, 0.8]])

    def test_zero_row_guarded(self):
        out = T.row_l2_normalize(T.Tensor([[0.0, 0.0]]))
        np.testing.assert_array_equal(out.values, [[0.0, 0.0]])

    def test_gradient(self, rng):
        check_grad(T.row_l2_normalize, [(4, 5)], rng)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = T.Tensor(np.zeros((5, 10)))
        loss = T.softmax_cross_entropy(logits, [0, 1, 2, 3, 4])
        assert abs(loss.item() - np.log(10)) < 1e-12

    def test_saturated_correct(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 1000.0
        loss = T.softmax_cross_entropy(T.Tensor(logits), [2])
        assert loss.item() < 1e-9

    def test_gradient(self, rng):
        labels = [0, 2, 1, 2]
        check_grad(T.softmax_cross_entropy, [(4, 3)], rng, labels=labels)

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            T.softmax_cross_entropy(T.Tensor(np.zeros((2, 3))), [0, 3])


class TestMiscOps:
    @pytest.mark.parametrize("op,shapes", [
        (T.relu, [(4, 4)]),
        (T.mean_all, [(3, 5)]),
        (T.row_sum, [(3, 5)]),
        (T.add, [(4, 3), (4, 3)]),
        (T.add, [(4, 3), (1, 3)]),
        (T.mul, [(4, 3), (4, 3)]),
        (T.maximum, [(4, 3), (4, 3)]),
    ])
    def test_gradients(self, op, shapes, rng):
        check_grad(op, shapes, rng)

    def test_concat_cols_gradient(self, rng):
        check_grad(lambda a, b: T.concat_cols([a, b]), [(3, 2), (3, 4)], rng)

    def test_affine_gradient(self, rng):
        check_grad(lambda x: T.affine(x, -2.5, 0.75), [(3, 3)], rng)

    def test_embedding_lookup_scatter(self, rng):
        table = T.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        out = T.embed_concat(np.zeros((3, 0)), [table], [[1], [1], [4]], [4])
        T.sum_all(out).backward()
        expected = np.zeros((5, 3))
        expected[1] = 2.0  # index 1 gathered twice, frozen row 4 stays zero
        np.testing.assert_array_equal(table.grad, expected)


def reference_embed_concat(cont, tables, cats, frozen_rows, g):
    """Per-column lookups joined by concatenation, each table's gradient
    scattered by ``np.add.at``: the composition ``embed_concat`` replaces."""
    values = np.concatenate([cont] + [t[cats[:, j]] for j, t in enumerate(tables)], axis=1)
    grads, lo = [], cont.shape[1]
    for j, (t, frozen) in enumerate(zip(tables, frozen_rows)):
        gt = np.zeros_like(t)
        np.add.at(gt, cats[:, j], g[:, lo : lo + t.shape[1]])
        gt[frozen] = 0.0
        grads.append(gt)
        lo += t.shape[1]
    return values, grads


class TestEmbedConcat:
    def test_bit_identical_to_per_column_reference(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.example(batch=64, m_cont=0, width=8, vocabs=[3, 5, 7],
                            trainable=[True, False, True, True], seed=0)
        @hypothesis.given(
            batch=st.integers(1, 130),
            m_cont=st.integers(0, 3),
            width=st.integers(1, 8),
            vocabs=st.lists(st.integers(1, 6), min_size=1, max_size=4),
            trainable=st.lists(st.booleans(), min_size=4, max_size=4),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(batch, m_cont, width, vocabs, trainable, seed):
            make = np.random.default_rng(seed)
            cont = make.standard_normal((batch, m_cont))
            arrays = [make.standard_normal((v + 1, width)) for v in vocabs]
            # Small vocabularies repeat indices; index v is the corruption row.
            cats = np.stack([make.integers(0, v + 1, size=batch) for v in vocabs], axis=1)
            g = make.standard_normal((batch, m_cont + width * len(vocabs)))
            g[make.random(g.shape) < 0.2] = -0.0
            tables = [T.Tensor(a, requires_grad=r) for a, r in zip(arrays, trainable)]
            out = T.embed_concat(cont, tables, cats, vocabs)
            out.backward(grad=g)
            values, grads = reference_embed_concat(cont, arrays, cats, vocabs, g)
            assert np.array_equal(out.values.view(np.int64), values.view(np.int64))
            for t, expected in zip(tables, grads):
                if t.requires_grad:
                    assert np.array_equal(t.grad.view(np.int64), expected.view(np.int64))
                else:
                    assert t.grad is None

        check()

    def test_gradient(self, rng):
        tables = [T.Tensor(rng.uniform(-1, 1, size=(v, 3)), requires_grad=True) for v in (3, 5)]
        cont = rng.uniform(-1, 1, size=(6, 2))
        cats = np.array([[0, 4], [1, 1], [1, 3], [2, 0], [0, 4], [1, 2]])
        # A non-uniform upstream gradient, so each row's weight differs.
        weights = T.Tensor(rng.uniform(-1, 1, size=(6, 8)))

        def loss():
            return T.sum_all(T.mul(T.embed_concat(cont, tables, cats, [2, 4]), weights))

        loss().backward()
        for t, frozen in zip(tables, (2, 4)):
            expected = finite_diff_grad(lambda: loss().item(), t.values)
            expected[frozen] = 0.0
            assert rel_err(t.grad, expected) < 1e-8
            assert not t.grad[frozen].any()

    # Index 3 is in range of the second table only.
    @pytest.mark.parametrize("cats", [[[0, 1], [2, -1]], [[0, 1], [2, 4]], [[0, 1], [3, 3]]])
    def test_index_out_of_range(self, cats):
        tables = [T.Tensor(np.zeros((3, 2))), T.Tensor(np.zeros((4, 2)))]
        with pytest.raises(ValidationError, match="out of range"):
            T.embed_concat(np.zeros((2, 1)), tables, cats, [2, 3])

    def test_unequal_widths(self):
        tables = [T.Tensor(np.zeros((3, 2))), T.Tensor(np.zeros((3, 3)))]
        with pytest.raises(ShapeError, match="width"):
            T.embed_concat(np.zeros((2, 1)), tables, [[0, 1], [2, 2]], [2, 2])


def bits(a):
    return np.ascontiguousarray(a).tobytes()


def stacked_property(test):
    """Run ``test(make, S, n)`` over hypothesis draws: S in {1, 2, 3}, n from 1
    to 130 (past numpy's 128-element pairwise-summation block), and a seed
    for ``make``, a numpy generator."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.example(slices=2, n=1, seed=0)
    @hypothesis.example(slices=3, n=130, seed=1)
    @hypothesis.given(slices=st.sampled_from([1, 2, 3]), n=st.integers(1, 130),
                      seed=st.integers(0, 2**32 - 1))
    def check(slices, n, seed):
        test(np.random.default_rng(seed), slices, n)

    check()


def upstream(make, shape):
    """An upstream gradient with some signed zeros."""
    g = make.standard_normal(shape)
    g[make.random(shape) < 0.2] = -0.0
    return g


class TestStacked:
    """A stacked (S, n, m) call of each op step 2 or the attack runs gives,
    per slice, the values and input gradient of a 2-D call on that slice,
    leaves in a shared operand the gradient that S 2-D calls accumulate in
    slice order, and in a per-slice parameter each slice's own gradient,
    all bit for bit."""

    @pytest.mark.parametrize("relu", [False, True])
    def test_dense(self, relu):
        def test(make, slices, n):
            k, m = make.integers(1, 9, size=2)
            xs, w, b = make.standard_normal((slices, n, k)), make.standard_normal((k, m)), \
                make.standard_normal((1, m))
            g = upstream(make, (slices, n, m))
            x = T.Tensor(xs, requires_grad=True)
            weight, bias = T.Tensor(w, requires_grad=True), T.Tensor(b, requires_grad=True)
            out = T.dense(x, weight, bias, relu)
            out.backward(grad=g)
            ref_w, ref_b = T.Tensor(w, requires_grad=True), T.Tensor(b, requires_grad=True)
            for s in range(slices):
                xs_s = T.Tensor(xs[s], requires_grad=True)
                out_s = T.dense(xs_s, ref_w, ref_b, relu)
                out_s.backward(grad=g[s])
                assert bits(out.values[s]) == bits(out_s.values)
                assert bits(x.grad[s]) == bits(xs_s.grad)
            assert bits(weight.grad) == bits(ref_w.grad)
            assert bits(bias.grad) == bits(ref_b.grad)

        stacked_property(test)

    @pytest.mark.parametrize("relu", [False, True])
    def test_dense_with_per_slice_parameters(self, relu):
        def test(make, slices, n):
            k, m = make.integers(1, 9, size=2)
            xs, w, b = make.standard_normal((slices, n, k)), make.standard_normal((slices, k, m)), \
                make.standard_normal((slices, 1, m))
            g = upstream(make, (slices, n, m))
            x = T.Tensor(xs, requires_grad=True)
            weight, bias = T.Tensor(w, requires_grad=True), T.Tensor(b, requires_grad=True)
            out = T.dense(x, weight, bias, relu)
            out.backward(grad=g)
            for s in range(slices):
                xs_s = T.Tensor(xs[s], requires_grad=True)
                w_s, b_s = T.Tensor(w[s], requires_grad=True), T.Tensor(b[s], requires_grad=True)
                out_s = T.dense(xs_s, w_s, b_s, relu)
                out_s.backward(grad=g[s])
                assert bits(out.values[s]) == bits(out_s.values)
                assert bits(x.grad[s]) == bits(xs_s.grad)
                assert bits(weight.grad[s]) == bits(w_s.grad)
                assert bits(bias.grad[s]) == bits(b_s.grad)

        stacked_property(test)

    def test_softmax_cross_entropy_with_per_slice_labels(self):
        def test(make, slices, n):
            c = make.integers(1, 9)
            zs = make.standard_normal((slices, n, c)) * 10.0
            y = make.integers(0, c, size=(slices, n))
            g = make.standard_normal((slices, 1, 1))
            logits = T.Tensor(zs, requires_grad=True)
            out = T.softmax_cross_entropy(logits, y)
            out.backward(grad=g)
            assert out.shape == (slices, 1, 1)
            for s in range(slices):
                z_s = T.Tensor(zs[s], requires_grad=True)
                out_s = T.softmax_cross_entropy(z_s, y[s])
                out_s.backward(grad=g[s])
                assert bits(out.values[s]) == bits(out_s.values)
                assert bits(logits.grad[s]) == bits(z_s.grad)

        stacked_property(test)

    def test_sgd_over_stacked_parameters_equals_per_slice_optimizers(self):
        def test(make, slices, n):
            shapes = [(slices, *make.integers(1, 9, size=2)) for _ in range(make.integers(1, 4))]
            init = [make.standard_normal(shape) for shape in shapes]
            stacked = [T.Tensor(a.copy(), requires_grad=True) for a in init]
            per_slice = [[T.Tensor(a[s].copy(), requires_grad=True) for a in init]
                         for s in range(slices)]
            lr, momentum = make.uniform(1e-4, 1.0), make.uniform(0.0, 0.99)
            opts = [T.SgdOptimizer(stacked, lr, momentum)]
            opts += [T.SgdOptimizer(params, lr, momentum) for params in per_slice]
            for _ in range(1 + n % 4):
                for i, p in enumerate(stacked):
                    p.grad = make.standard_normal(p.shape)
                    for s in range(slices):
                        per_slice[s][i].grad = p.grad[s].copy()
                for opt in opts:
                    opt.step()
                for i, p in enumerate(stacked):
                    for s in range(slices):
                        assert bits(p.values[s]) == bits(per_slice[s][i].values)

        stacked_property(test)

    def test_embed_concat_with_frozen_rows(self):
        def test(make, slices, n):
            m_cont, width = make.integers(0, 4), make.integers(1, 9)
            vocabs = list(make.integers(1, 7, size=make.integers(1, 5)))
            cont = make.standard_normal((slices, n, m_cont))
            arrays = [make.standard_normal((v + 1, width)) for v in vocabs]
            # Index v, the frozen corruption row, is drawn too.
            cats = np.stack([make.integers(0, v + 1, size=(slices, n)) for v in vocabs], axis=-1)
            g = upstream(make, (slices, n, m_cont + width * len(vocabs)))
            tables = [T.Tensor(a, requires_grad=True) for a in arrays]
            out = T.embed_concat(cont, tables, cats, vocabs)
            out.backward(grad=g)
            refs = [T.Tensor(a, requires_grad=True) for a in arrays]
            for s in range(slices):
                out_s = T.embed_concat(cont[s], refs, cats[s], vocabs)
                out_s.backward(grad=g[s])
                assert bits(out.values[s]) == bits(out_s.values)
            for t, ref in zip(tables, refs):
                assert bits(t.grad) == bits(ref.grad)

        stacked_property(test)

    def test_neg_cosine_with_a_zero_row(self):
        def test(make, slices, n):
            d = make.integers(1, 17)
            ps, z = make.standard_normal((slices, n, d)), make.standard_normal((slices, n, d))
            ps[make.integers(slices), make.integers(n)] = 0.0
            g = make.standard_normal((slices, 1, 1))
            p = T.Tensor(ps, requires_grad=True)
            out = T.neg_cosine(p, z)
            out.backward(grad=g)
            assert out.shape == (slices, 1, 1)
            for s in range(slices):
                p_s = T.Tensor(ps[s], requires_grad=True)
                out_s = T.neg_cosine(p_s, z[s])
                out_s.backward(grad=g[s])
                assert bits(out.values[s]) == bits(out_s.values)
                assert bits(p.grad[s]) == bits(p_s.grad)

        stacked_property(test)

    @pytest.mark.parametrize("with_negatives", [False, True])
    def test_info_nce(self, with_negatives):
        def test(make, slices, n):
            d = make.integers(1, 17)
            qs, k = make.standard_normal((slices, n, d)), make.standard_normal((slices, n, d))
            negatives = None
            if with_negatives:
                negatives = make.standard_normal((slices, make.integers(1, 40), d))
            g = make.standard_normal((slices, 1, 1))
            q = T.Tensor(qs, requires_grad=True)
            out = T.info_nce(q, k, negatives, 0.5)
            out.backward(grad=g)
            assert out.shape == (slices, 1, 1)
            for s in range(slices):
                q_s = T.Tensor(qs[s], requires_grad=True)
                out_s = T.info_nce(q_s, k[s], None if negatives is None else negatives[s], 0.5)
                out_s.backward(grad=g[s])
                assert bits(out.values[s]) == bits(out_s.values)
                assert bits(q.grad[s]) == bits(q_s.grad)

        stacked_property(test)

    def test_slice_sum_equals_adding_the_slices(self):
        def test(make, slices, n):
            xs = make.standard_normal((slices, n, make.integers(1, 9)))
            xs[make.random(xs.shape) < 0.2] = -0.0
            g = upstream(make, xs.shape[1:])
            x = T.Tensor(xs, requires_grad=True)
            out = T.slice_sum(x)
            out.backward(grad=g)
            refs = [T.Tensor(a, requires_grad=True) for a in xs]
            ref = reduce(T.add, refs)
            ref.backward(grad=g)
            assert bits(out.values) == bits(ref.values)
            for s, r in enumerate(refs):
                assert bits(x.grad[s]) == bits(r.grad)

        stacked_property(test)

    @pytest.mark.parametrize("call", [
        lambda: T.Tensor(np.zeros(3)),
        lambda: T.Tensor(np.zeros((1, 2, 3, 4))),
        lambda: T.matmul(T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((4, 2)))),
        lambda: T.softmax_cross_entropy(T.Tensor(np.zeros((2, 3, 4))), [0, 1, 2]),
        lambda: T.dense(T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((2, 4, 5))),
                        T.Tensor(np.zeros((1, 5))), False),
        # Per-slice parameters: a slice-count mismatch, and a 2-D x.
        lambda: T.dense(T.Tensor(np.zeros((3, 3, 4))), T.Tensor(np.zeros((2, 4, 5))),
                        T.Tensor(np.zeros((2, 1, 5))), False),
        lambda: T.dense(T.Tensor(np.zeros((3, 4))), T.Tensor(np.zeros((2, 4, 5))),
                        T.Tensor(np.zeros((2, 1, 5))), False),
        lambda: T.dense(T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((2, 4, 5))),
                        T.Tensor(np.zeros((3, 1, 5))), False),
        # One negatives matrix per slice, all of one shape.
        lambda: T.info_nce(T.Tensor(np.ones((2, 3, 4))), np.ones((2, 3, 4)),
                           [np.ones((5, 4))] * 3, 0.5),
        lambda: T.info_nce(T.Tensor(np.ones((2, 3, 4))), np.ones((2, 3, 4)),
                           [np.ones((5, 4)), np.ones((6, 4))], 0.5),
        # Stacked logits take one row of labels per slice.
        lambda: T.softmax_cross_entropy(T.Tensor(np.zeros((2, 3, 4))), np.zeros((3, 3))),
        lambda: T.softmax_cross_entropy(T.Tensor(np.zeros((2, 3, 4))), np.zeros((2, 3, 1))),
        lambda: T.softmax_cross_entropy(T.Tensor(np.zeros((2, 3, 4))), np.zeros(6)),
        lambda: T.slice_sum(T.Tensor(np.zeros((3, 4)))),
    ])
    def test_refused_shapes(self, call):
        with pytest.raises(ShapeError):
            call()


class TestSgdOptimizer:
    def test_hand_arithmetic(self):
        p = T.Tensor([[1.0]], requires_grad=True)
        p.grad = np.array([[2.0]])
        T.SgdOptimizer([p], 0.1, momentum=0.0).step()
        assert p.values[0, 0] == pytest.approx(0.8)
        assert p.grad is None

    def test_zero_grad_fixed_point(self):
        p = T.Tensor([[1.5]], requires_grad=True)
        p.grad = np.array([[0.0]])
        T.SgdOptimizer([p], 0.1, momentum=0.0).step()
        assert p.values[0, 0] == 1.5

    def test_momentum_unroll(self):
        p = T.Tensor([[1.0]], requires_grad=True)
        opt = T.SgdOptimizer([p], 0.1, momentum=0.9)
        # hand unroll: v1 = 2, theta = 1 - .2 = .8; v2 = .9*2 + 3 = 4.8, theta = .8 - .48 = .32
        p.grad = np.array([[2.0]])
        opt.step()
        p.grad = np.array([[3.0]])
        opt.step()
        assert p.values[0, 0] == pytest.approx(0.32)

    def test_gradless_param_raises(self):
        p, q = (T.Tensor([[1.0]], requires_grad=True) for _ in range(2))
        opt = T.SgdOptimizer([p, q], 0.1)
        p.grad = np.array([[2.0]])
        with pytest.raises(ValidationError, match="no gradient"):
            opt.step()
        assert p.values[0, 0] == q.values[0, 0] == 1.0

    def test_packed_step_equals_per_parameter_loop(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            shapes=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)),
                            min_size=1, max_size=5),
            learning_rate=st.floats(1e-4, 1.0),
            momentum=st.floats(0.0, 0.99),
            steps=st.integers(3, 6),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(shapes, learning_rate, momentum, steps, seed):
            rng = np.random.default_rng(seed)
            init = [rng.normal(size=shape) for shape in shapes]
            packed = [T.Tensor(a.copy(), requires_grad=True) for a in init]
            looped = [T.Tensor(a.copy(), requires_grad=True) for a in init]
            opts = (T.SgdOptimizer(packed, learning_rate, momentum),
                    PerParameterSgd(looped, learning_rate, momentum))
            for _ in range(steps):
                for a, b in zip(packed, looped):
                    g = rng.normal(size=a.shape)
                    a.grad, b.grad = g.copy(), g
                for opt in opts:
                    opt.step()
                for a, b in zip(packed, looped):
                    assert a.values.tobytes() == b.values.tobytes()
                    assert a.grad is None and b.grad is None

        check()

    @pytest.mark.parametrize("learning_rate", [0.0, -0.1, np.nan, np.inf])
    def test_learning_rate_positive_and_finite(self, learning_rate):
        with pytest.raises(ValidationError, match="learning_rate"):
            T.SgdOptimizer([T.Tensor([[1.0]], requires_grad=True)], learning_rate)

    def test_parameter_packed_twice(self):
        p, q = (T.Tensor([[1.0, 2.0]], requires_grad=True) for _ in range(2))
        with pytest.raises(ValidationError, match="twice"):
            T.SgdOptimizer([p, q, p], 0.1)
        first = T.SgdOptimizer([p, q], 0.1, momentum=0.0)
        second = T.SgdOptimizer([q], 0.1, momentum=0.0)
        p.grad, q.grad = np.ones((1, 2)), np.ones((1, 2))
        with pytest.raises(ValidationError, match="later optimizer"):
            first.step()
        second.step()  # q moved to the later optimizer, which steps it
        assert q.values.tolist() == [[0.9, 1.9]]
        assert p.values.tolist() == [[1.0, 2.0]]


def test_determinism_same_seed_bit_identical():
    def run():
        rng = np.random.default_rng(7)
        w = T.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        x = T.Tensor(rng.normal(size=(8, 4)))
        loss = T.softmax_cross_entropy(T.matmul(x, w), rng.integers(0, 4, size=8))
        loss.backward()
        return loss.item(), w.grad.copy()

    (l1, g1), (l2, g2) = run(), run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)
