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
from vflhssl.ssl import SslVariant

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


def pretrained_parties(ds, preset, seed, global_iterations=10):
    mode = "local" if preset is None else hssl.preset_finetune_encoders(preset)
    nodes = vfl.make_parties(ds, bench_model_config(mode), "simsiam", seed)
    if preset is not None:
        cfg = hssl.PipelineConfig.from_preset(
            preset, variant=SslVariant("simsiam"),
            global_iterations=global_iterations, batch_size=128,
        )
        hssl.pretrain(ds, nodes, hssl.make_network(2), cfg, seed=seed)
    return nodes


def finetune_and_score(ds, nodes, seed, restart, epochs=10, lr=0.01,
                       momentum=0.9, protection=None):
    trainer = vfl.SplitTrainer(
        nodes, hssl.make_network(2), lr, momentum=momentum,
        protection=protection,
        protection_rng=np.random.default_rng((seed, 5)) if protection else None,
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
        check(lambda a: T.mean_all(a), rand(n, m))
        check(lambda a: T.sum_all(T.row_sum(a)), rand(n, m))
        check(lambda a: T.sum_all(T.row_l2_normalize(a)), rand(n, m))
        check(lambda a: T.sum_all(T.affine(a, -1.7, 0.3)), rand(n, m))
        check(lambda a, b: T.sum_all(T.concat_cols([a, b])), rand(n, m), rand(n, k))
        labels = rng.integers(0, m, size=n)
        check(lambda a: T.softmax_cross_entropy(a, labels), rand(n, m))

    queue_rows = rand(5, 6)
    for kind in ("simsiam", "byol", "moco"):
        variant = SslVariant(kind)
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
                    variant, T.Tensor(p_vals), T.Tensor(z_vals), queue=make_queue()
                ).item()

            p = T.Tensor(p_vals, requires_grad=True)
            ssl.ssl_loss(variant, p, T.Tensor(z_vals), queue=make_queue()).backward()
            assert rel_err(p.grad, finite_diff_grad(value, p_vals)) < 1e-4
            cases += 1

    assert cases >= 100
    assert time.time() - started < 30


# -- criterion 2: split network equals a monolithic model --------------------

def test_criterion_2_split_training_matches_monolithic_oracle():
    ds = bench_dataset()
    cfg = bench_model_config("concat")
    split_nodes = vfl.make_parties(ds, cfg, "simsiam", 3)
    trainer = vfl.SplitTrainer(split_nodes, hssl.make_network(2), 0.05)

    mono_nodes = vfl.make_parties(ds, cfg, "simsiam", 3)
    mono_opts = []
    for p in mono_nodes:
        params = list(p.stack.params_finetune())
        if p.model.top_model is not None:
            params += p.model.top_model.params()
        mono_opts.append(T.SgdOptimizer(params, 0.05, momentum=0.9))

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

    assert abs(ssl.loss_simsiam(p, p).item() - (-1.0)) <= 1e-12
    assert abs(ssl.loss_byol(p, p).item()) <= 1e-12
    assert abs(
        ssl.loss_byol(p, z).item() - (2.0 + 2.0 * ssl.loss_simsiam(p, z).item())
    ) <= 1e-12
    assert abs(ssl.loss_moco(p, p, ssl.NegativeQueue(16), 0.5).item()) <= 1e-12

    row = rng.normal(size=(1, 12))
    for n in (3, 7):
        q = ssl.NegativeQueue(16)
        q.enqueue(np.tile(row, (n, 1)))
        loss = ssl.loss_moco(T.Tensor(row), T.Tensor(row), q, 0.5)
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
        ssl.ssl_loss(SslVariant(kind), p, z, queue=queue).backward()
        assert w.grad is None

    # the three pipeline steps mutate disjoint parameter sets
    ds = bench_dataset()
    nodes = vfl.make_parties(ds, bench_model_config("concat"), "simsiam", 1)
    net = hssl.make_network(2)

    def changed(node, before):
        return {
            n for n, p in node.model.named_params()
            if not np.array_equal(p.values, before[n])
        }

    before = snapshot_params(nodes)
    opts = {p.party_id: T.SgdOptimizer(p.stack.params_cross(), 0.05) for p in nodes}
    hssl.cross_party_ssl_epoch(nodes, net, ds.aligned_ids, SslVariant("simsiam"),
                               opts, batch_size=64)
    step1 = [changed(n, b) for n, b in zip(nodes, before)]

    before = snapshot_params(nodes)
    for node in nodes:
        opt = T.SgdOptimizer(node.stack.params_local(), 0.05)
        hssl.guided_local_ssl_epoch(
            node, ds.local_ids(node.party_id - 1), SslVariant("simsiam"), 0.5,
            data.AugmentationPolicy(0.3), opt, batch_size=64,
            aug_rng=np.random.default_rng(0), shuffle_rng=np.random.default_rng(1),
        )
    step2 = [changed(n, b) for n, b in zip(nodes, before)]

    before = snapshot_params(nodes)
    hssl.partial_model_aggregation(nodes, net)
    step3 = [changed(n, b) for n, b in zip(nodes, before)]

    pma_names = {n for n, _ in nodes[0].stack.named_pma_params()}
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
        {n: p.values.copy() for n, p in node.stack.named_pma_params()}
        for node in nodes
    ]
    hssl.partial_model_aggregation(nodes, hssl.make_network(2))
    for node in nodes:
        for name, p in node.stack.named_pma_params():
            expected = (originals[0][name] + originals[1][name]) / 2.0
            np.testing.assert_allclose(p.values, expected, atol=1e-15)
    # post-broadcast cross-party max difference is exactly zero
    for (na, pa), (nb, pb) in zip(nodes[0].stack.named_pma_params(),
                                  nodes[1].stack.named_pma_params()):
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
    for name, preset in methods.items():
        per_seed = []
        for seed in SEEDS:
            nodes = pretrained_parties(ds, preset, seed)
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


# -- criterion 9: protection strength trend -------------------------------------

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
            protection = privacy.IsoConfig(lam, targets=("finetune_grad",))
            trainer, _ = finetune_and_score(
                ds, nodes, seed, 0, lr=0.003, protection=protection
            )
            utility = trainer.accuracy(ds.test_ids)
            attack_cfg = privacy.McAttackConfig(
                aux_labeled_count=80, epochs=60, encoder_source="finetuned_local"
            )
            recovery = privacy.mc_attack(
                trainer.parties[-1], attack_cfg, ds.labeled_ids[:80],
                ds.test_ids, 10, np.random.default_rng((seed, 7)),
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
        net = hssl.make_network(2)
        opts = {
            p.party_id: CountingOptimizer(p.stack.params_cross(), 0.03)
            for p in nodes
        }
        hssl.cross_party_ssl_epoch(
            nodes, net, ds.aligned_ids, SslVariant("simsiam"), opts,
            batch_size=batch_size, local_updates=local_updates,
        )
        assert net.counts["Repr"] == 2 * (2 - 1) * n_batches  # invariant in e
        for opt in opts.values():
            assert opt.steps == local_updates * n_batches  # scales with e


# -- criterion 11: determinism ---------------------------------------------------

def test_criterion_11_bit_identical_determinism(tmp_path):
    ds = bench_dataset()

    def run(name):
        nodes = vfl.make_parties(ds, bench_model_config("concat"), "byol", 4)
        cfg = hssl.PipelineConfig(
            variant=SslVariant("byol"), global_iterations=2, batch_size=64,
        )
        hssl.pretrain(ds, nodes, hssl.make_network(2), cfg, seed=4)
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
    args = ["finetune", "--config", str(cfg_path), "--preset", "fedsplitnn",
            "--out", str(out)]
    assert cli.main(args) == 0
    first = (out / "report.csv").read_bytes()
    assert cli.main(args) == 0
    assert (out / "report.csv").read_bytes() == first
