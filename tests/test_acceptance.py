"""Acceptance criteria, one test per numbered criterion.

Criteria 8 and 9 are statistical direction-of-effect checks on a fixed
synthetic benchmark (shared latent, asymmetric party pools with the
aligned set at 40 percent of the average pool, 200 labeled samples).
Methods are trained with matched seeds, so gaps are judged against the
standard error of the mean seed-paired difference, which pools the
per-seed variance of both methods in the comparison.
"""

import json
import time

import numpy as np
import pytest

from vflhssl import cli, data, hssl, nn, privacy, ssl, tensor as T, vfl

from conftest import finite_diff_grad, rel_err


# -- shared benchmark setup ------------------------------------------------

BENCH_SPEC = dict(
    latent_dim=10, classes=10, parties=2, feature_dims=(24, 24),
    noise_scales=(3.0, 3.0), cat_cardinalities=((), ()),
    class_sep=2.0, aligned=200, unaligned=(450, 150),
    labeled=200, test=1600, seed=0,
)

SEEDS = range(5)


def bench_dataset():
    return data.generate_synthetic(data.SyntheticSpec(**BENCH_SPEC))


def bench_model_config(finetune_encoders):
    return nn.ModelConfig(
        input_dim=1, num_classes=10, num_parties=2, hidden_dim=32,
        repr_dim=16, projector_dims=(16, 16, 16), predictor_dims=(8, 16),
        moco_projector_out=16, finetune_encoders=finetune_encoders,
    )


# method (None: no pretraining) -> the fine-tune encoders of its CLI presets
FINETUNE_ENCODERS = {method: encoders for method, _, encoders in cli.CLI_PRESETS.values()}


def pretrained_parties(ds, method, seed, global_iterations=10):
    nodes = vfl.make_parties(ds, bench_model_config(FINETUNE_ENCODERS[method]), "simsiam", seed)
    if method is not None:
        cfg = hssl.PipelineConfig(
            preset=method, variant="simsiam",
            global_iterations=global_iterations, batch_size=128,
        )
        hssl.pretrain(ds, nodes, vfl.Network(), cfg, seed=seed)
    return nodes


def finetune_and_score(ds, nodes, seed, restart, epochs=10, lr=0.01, lambda_f=0.0):
    trainer = vfl.SplitTrainer(
        nodes, vfl.Network(), lr,
        lambda_f=lambda_f, noise_rng=np.random.default_rng((seed, 5)),
    )
    rng = np.random.default_rng((seed, 100, restart))
    tail = []
    for epoch in range(epochs):
        for batch in data.batches(ds.labeled_ids, 64, rng=rng):
            trainer.train_step(batch)
        if epoch >= epochs - 3:
            tail.append(trainer.accuracy(ds.test_ids))
    return trainer, float(np.mean(tail))


def snapshot_params(nodes):
    return [{n: p.values.copy() for n, p in m.model.named_params()} for m in nodes]


def restore_params(nodes, snap):
    for m, blob in zip(nodes, snap):
        for n, p in m.model.named_params():
            p.values[:] = blob[n]


# -- criterion 1: gradient correctness --------------------------------------

def test_criterion_1_gradients_match_finite_differences():
    started = time.time()
    rng = np.random.default_rng(2024)
    cases = 0

    def check(fn, *arrays, tol=1e-4):
        nonlocal cases

        def value():
            return fn(*[T.Tensor(a) for a in arrays]).item()

        tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
        out = fn(*tensors)
        out.backward()
        for arr, t in zip(arrays, tensors):
            assert rel_err(t.grad, finite_diff_grad(value, arr)) < tol
        cases += 1

    def rand(*shape):
        return rng.uniform(-1, 1, size=shape)

    for _ in range(8):
        n, k, m = rng.integers(2, 5, size=3)
        check(lambda a, b: T.sum_all(T.matmul(a, b)), rand(n, k), rand(k, m))
        check(lambda a, b: T.sum_all(T.mul(a, b)), rand(n, m), rand(n, m))
        check(lambda a, b: T.sum_all(T.add(a, b)), rand(n, m), rand(1, m))
        check(lambda a, b: T.sum_all(T.maximum(a, b)), rand(n, m), rand(n, m))
        check(lambda a: T.sum_all(T.relu(a)), rand(n, m))
        for relu in (False, True):
            check(lambda a, w, b: T.sum_all(T.dense(a, w, b, relu)),
                  rand(n, k), rand(k, m), rand(1, m))
        check(lambda a: T.mean_all(a), rand(n, m))
        check(lambda a: T.sum_all(T.row_sum(a)), rand(n, m))
        check(lambda a: T.sum_all(T.row_l2_normalize(a)), rand(n, m))
        check(lambda a: T.sum_all(T.affine(a, -1.7, 0.3)), rand(n, m))
        check(lambda a, b: T.sum_all(T.concat_cols([a, b])), rand(n, m), rand(n, k))
        labels = rng.integers(0, m, size=n)
        check(lambda a: T.softmax_cross_entropy(a, labels), rand(n, m))

    queue_rows = rand(5, 6)
    for kind in ("simsiam", "byol", "moco"):
        for _ in range(4):
            p_vals, z_vals = rand(4, 6), rand(4, 6)

            def make_queue():
                if kind != "moco":
                    return None
                q = ssl.NegativeQueue(8)
                q.enqueue(queue_rows)
                return q

            def value():
                return ssl.ssl_loss(
                    kind, T.Tensor(p_vals), z_vals, queue=make_queue()
                ).item()

            p = T.Tensor(p_vals, requires_grad=True)
            ssl.ssl_loss(kind, p, z_vals, queue=make_queue()).backward()
            assert rel_err(p.grad, finite_diff_grad(value, p_vals)) < 1e-4
            cases += 1

    assert cases >= 100
    assert time.time() - started < 30


# -- criterion 2: split network equals a monolithic model --------------------

def test_criterion_2_split_training_matches_monolithic_oracle():
    ds = bench_dataset()
    cfg = bench_model_config("concat")
    split_nodes = vfl.make_parties(ds, cfg, "simsiam", 3)
    trainer = vfl.SplitTrainer(split_nodes, vfl.Network(), 0.05)

    mono_nodes = vfl.make_parties(ds, cfg, "simsiam", 3)
    mono_opts = [T.SgdOptimizer(p.model.params_finetune(), 0.05, momentum=0.9)
                 for p in mono_nodes]

    rng = np.random.default_rng(0)
    for _ in range(20):
        ids = rng.choice(ds.labeled_ids, size=32, replace=False)
        loss_split = trainer.train_step(ids)

        labels = ds.label_array(ids)
        reps = [p.finetune_forward(ids) for p in mono_nodes]
        logits = mono_nodes[0].model.top_model.forward(T.concat_cols(reps))
        loss = T.softmax_cross_entropy(logits, labels)
        loss.backward()
        for opt in mono_opts:
            opt.step()

        assert abs(loss_split - loss.item()) <= 1e-10
    for sp, mp in zip(split_nodes, mono_nodes):
        for (name, a), (_, b) in zip(sp.model.named_params(), mp.model.named_params()):
            assert np.abs(a.values - b.values).max() <= 1e-10, name


# -- criterion 3: SSL loss identities ----------------------------------------

def test_criterion_3_ssl_identities():
    rng = np.random.default_rng(7)
    p = T.Tensor(rng.normal(size=(8, 12)))
    z = T.Tensor(rng.normal(size=(8, 12)))

    assert abs(ssl.ssl_loss("simsiam", p, p.values).item() - (-1.0)) <= 1e-12
    assert abs(ssl.ssl_loss("byol", p, p.values).item()) <= 1e-12
    assert abs(
        ssl.ssl_loss("byol", p, z.values).item()
        - (2.0 + 2.0 * ssl.ssl_loss("simsiam", p, z.values).item())
    ) <= 1e-12
    assert abs(ssl.ssl_loss("moco", p, p.values, ssl.NegativeQueue(16)).item()) <= 1e-12

    row = rng.normal(size=(1, 12))
    for n in (3, 7):
        q = ssl.NegativeQueue(16)
        q.enqueue(np.tile(row, (n, 1)))
        loss = ssl.ssl_loss("moco", T.Tensor(row), row, q)
        assert abs(loss.item() - np.log(n + 1)) <= 1e-9


# -- criterion 4: stop-gradient and step isolation ----------------------------

def test_criterion_4_stop_gradient_and_step_isolation():
    rng = np.random.default_rng(5)
    # target producers get exactly-zero gradients under every loss
    for kind in ("simsiam", "byol", "moco"):
        w = T.Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        z = T.matmul(T.Tensor(rng.normal(size=(4, 6))), w)
        p = T.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        queue = None
        if kind == "moco":
            queue = ssl.NegativeQueue(8)
            queue.enqueue(rng.normal(size=(3, 6)))
        ssl.ssl_loss(kind, p, z.values, queue=queue).backward()
        assert w.grad is None

    # the three pipeline steps mutate disjoint parameter sets
    ds = bench_dataset()
    nodes = vfl.make_parties(ds, bench_model_config("concat"), "simsiam", 1)
    net = vfl.Network()

    def changed(node, before):
        return {
            n for n, p in node.model.named_params()
            if not np.array_equal(p.values, before[n])
        }

    before = snapshot_params(nodes)
    opts = {p.party_id: T.SgdOptimizer(p.model.params_cross(), 0.05) for p in nodes}
    hssl.cross_party_ssl_epoch(nodes, net, ds.aligned_ids, "simsiam",
                               opts, batch_size=64)
    step1 = [changed(n, b) for n, b in zip(nodes, before)]

    before = snapshot_params(nodes)
    for node in nodes:
        opt = T.SgdOptimizer(node.model.params_local(), 0.05)
        hssl.guided_local_ssl_epoch(
            node, ds.local_ids(node.party_id - 1), "simsiam", 0.5, 0.3, opt, batch_size=64,
            aug_rng=np.random.default_rng(0), shuffle_rng=np.random.default_rng(1),
        )
    step2 = [changed(n, b) for n, b in zip(nodes, before)]

    before = snapshot_params(nodes)
    hssl.partial_model_aggregation(nodes, net)
    step3 = [changed(n, b) for n, b in zip(nodes, before)]

    pma_names = {n for n, _ in nodes[0].model.named_pma_params()}
    for s1, s2, s3 in zip(step1, step2, step3):
        assert s1 and s2 and s3
        assert not s1 & s2 and not s1 & s3
        # step 2 trains f_lt/h_l locally; step 3 only re-synchronizes them
        assert s3 <= pma_names


# -- criterion 5: partial model aggregation -----------------------------------

def test_criterion_5_pma_mean_and_broadcast():
    ds = bench_dataset()
    nodes = vfl.make_parties(ds, bench_model_config("concat"), "simsiam", 2)
    originals = [
        {n: p.values.copy() for n, p in node.model.named_pma_params()}
        for node in nodes
    ]
    hssl.partial_model_aggregation(nodes, vfl.Network())
    for node in nodes:
        for name, p in node.model.named_pma_params():
            expected = (originals[0][name] + originals[1][name]) / 2.0
            np.testing.assert_allclose(p.values, expected, atol=1e-15)
    # post-broadcast cross-party max difference is exactly zero
    for (na, pa), (nb, pb) in zip(nodes[0].model.named_pma_params(),
                                  nodes[1].model.named_pma_params()):
        assert np.abs(pa.values - pb.values).max() == 0.0


# -- criterion 6: ISO noise statistics ----------------------------------------

def test_criterion_6_iso_statistics():
    d = np.random.default_rng(0).normal(size=(1, 64))
    lam = 2.0
    sigma = lam * np.linalg.norm(d) / np.sqrt(64)
    rng = np.random.default_rng(1)
    draws = np.concatenate([
        (privacy.iso_perturb(d, lam, rng) - d).ravel() for _ in range(160)
    ])
    assert draws.size >= 10_000
    assert abs(draws.std() - sigma) / sigma < 0.05

    probe = np.random.default_rng(9)
    out = privacy.iso_perturb(d, 0.0, probe)
    np.testing.assert_array_equal(out, d)
    assert probe.standard_normal() == np.random.default_rng(9).standard_normal()


# -- criterion 7: CAP ---------------------------------------------------------

def test_criterion_7_cap_hand_values():
    curve = privacy.TradeoffCurve()
    curve.add_point(1.0, 0.9, 0.6)
    curve.add_point(5.0, 0.85, 0.5)
    curve.add_point(25.0, 0.8, 0.45)
    assert abs(privacy.cap(curve) - 0.4083333333333333) <= 1e-9

    single = privacy.TradeoffCurve()
    single.add_point(1.0, 0.8, 0.5)
    assert privacy.cap(single) == 0.8 * (1.0 - 0.5)


# -- criterion 8: ablation ordering on the synthetic benchmark -----------------

def test_criterion_8_method_ordering_trend():
    started = time.time()
    ds = bench_dataset()
    methods = {
        "FedHSSL": "FedHSSL", "FedGSSL": "FedGSSL", "FedCSSL": "FedCSSL",
        "FedLocalSSL": "FedLocalSSL", "FedSplitNN": None,
    }
    scores = {}
    for name, method in methods.items():
        per_seed = []
        for seed in SEEDS:
            nodes = pretrained_parties(ds, method, seed)
            snap = snapshot_params(nodes)
            restarts = []
            for restart in range(3):
                restore_params(nodes, snap)
                _, acc = finetune_and_score(ds, nodes, seed, restart)
                restarts.append(acc)
            per_seed.append(float(np.mean(restarts)))
        scores[name] = np.array(per_seed)

    def assert_gap(a, b):
        diffs = scores[a] - scores[b]
        gap = diffs.mean()
        pooled_se = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert gap > pooled_se, (
            f"{a} > {b} failed: gap {gap:.4f} vs pooled SE {pooled_se:.4f}"
        )

    assert_gap("FedHSSL", "FedGSSL")
    assert_gap("FedGSSL", "FedCSSL")
    assert_gap("FedCSSL", "FedLocalSSL")
    assert_gap("FedHSSL", "FedSplitNN")
    assert time.time() - started < 600


# -- criterion 9: noise strength trend ------------------------------------------

def test_criterion_9_recovery_and_utility_non_increasing_in_lambda():
    ds = bench_dataset()
    lambdas = (1.0, 5.0, 25.0)
    mean_util, mean_rec = [], []
    per_lambda = {lam: [] for lam in lambdas}
    for seed in SEEDS:
        nodes = pretrained_parties(ds, "FedHSSL", seed)
        snap = snapshot_params(nodes)
        for lam in lambdas:
            restore_params(nodes, snap)
            trainer, _ = finetune_and_score(ds, nodes, seed, 0, lr=0.003, lambda_f=lam)
            utility = trainer.accuracy(ds.test_ids)
            [recovery] = privacy.mc_attack(
                [trainer.parties[-1]], ds.labeled_ids[:80], ds.test_ids, ds.label_array, 10,
                [np.random.default_rng((seed, 7))], head_hidden_dim=32, epochs=60,
            )
            per_lambda[lam].append((utility, recovery))
    for lam in lambdas:
        utils, recs = zip(*per_lambda[lam])
        mean_util.append(float(np.mean(utils)))
        mean_rec.append(float(np.mean(recs)))
    assert mean_rec[0] >= mean_rec[1] >= mean_rec[2], mean_rec
    assert mean_util[0] >= mean_util[1] >= mean_util[2], mean_util


# -- criterion 10: communication accounting -------------------------------------

class CountingOptimizer(T.SgdOptimizer):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.steps = 0

    def step(self):
        self.steps += 1
        super().step()


def test_criterion_10_message_counts_closed_form():
    ds = bench_dataset()
    batch_size = 64
    n_batches = int(np.ceil(len(ds.aligned_ids) / batch_size))
    for local_updates in (1, 4, 8):
        nodes = vfl.make_parties(ds, bench_model_config("concat"), "simsiam", 0)
        net = vfl.Network()
        opts = {
            p.party_id: CountingOptimizer(p.model.params_cross(), 0.03)
            for p in nodes
        }
        hssl.cross_party_ssl_epoch(
            nodes, net, ds.aligned_ids, "simsiam", opts,
            batch_size=batch_size, local_updates=local_updates,
        )
        assert net.counts["Repr"] == 2 * (2 - 1) * n_batches  # invariant in e
        for opt in opts.values():
            assert opt.steps == local_updates * n_batches  # scales with e
        # wire bytes: 14 header + 4 per dim + 8 per float64 in each frame
        sizes = [min(batch_size, len(ds.aligned_ids) - s)
                 for s in range(0, len(ds.aligned_ids), batch_size)]
        width = 16  # the cross projector's output, projector_dims[-1]
        assert net.bytes["Repr"] == 2 * (2 - 1) * sum(14 + 4 * 2 + 8 * b * width for b in sizes)


# -- criterion 11: determinism ---------------------------------------------------

def test_criterion_11_bit_identical_determinism(tmp_path):
    ds = bench_dataset()

    def run(name):
        nodes = vfl.make_parties(ds, bench_model_config("concat"), "byol", 4)
        cfg = hssl.PipelineConfig(
            variant="byol", global_iterations=2, batch_size=64,
        )
        hssl.pretrain(ds, nodes, vfl.Network(), cfg, seed=4)
        path = tmp_path / f"{name}.bin"
        nn.save_checkpoint(path, [p.model for p in nodes], "cfg", seeds=[4])
        return path.read_bytes()

    assert run("a") == run("b")

    # end-to-end: identical config and seed give identical report files
    cfg = {
        "data": {"synthetic": {
            "classes": 3, "aligned": 60, "unaligned": [40, 40], "labeled": 48,
            "test": 45, "feature_dims": [8, 8], "latent_dim": 4, "class_sep": 2.0,
        }},
        "pipeline": {"global_iterations": 1, "batch_size": 32},
        "finetune": {"labeled_counts": [32], "lr_candidates": [0.03],
                     "epochs": 3, "batch_size": 32},
        "seeds": [0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    for command, preset, names in (
        ("pretrain", "fedhssl-simsiam", ("checkpoint.bin", "trace.json")),
        ("finetune", "fedsplitnn", ("report.csv", "report.json")),
    ):
        args = [command, "--config", str(cfg_path), "--preset", preset, "--out", str(out)]
        assert cli.main(args) == 0
        first = {name: (out / name).read_bytes() for name in names}
        assert cli.main(args) == 0
        for name in names:
            assert (out / name).read_bytes() == first[name], name
