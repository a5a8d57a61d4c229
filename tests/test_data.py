import numpy as np
import pytest

from vflhssl import data
from vflhssl.errors import ConfigError, DataError


def small_spec(**kw):
    base = dict(
        latent_dim=4, classes=3, parties=2, feature_dims=(6, 5),
        noise_scales=(0.5, 0.5), cat_cardinalities=((), ()),
        aligned=80, unaligned=(40, 40), labeled=30, test=20, seed=7,
    )
    base.update(kw)
    return data.SyntheticSpec(**base)


class TestSynthetic:
    def test_same_seed_same_fingerprint(self):
        a = data.generate_synthetic(small_spec())
        b = data.generate_synthetic(small_spec())
        assert a.fingerprint() == b.fingerprint()

    def test_different_seed_differs(self):
        a = data.generate_synthetic(small_spec())
        b = data.generate_synthetic(small_spec(seed=8))
        assert a.fingerprint() != b.fingerprint()

    def test_split_structure(self):
        ds = data.generate_synthetic(small_spec())
        assert len(ds.aligned_ids) == 80
        assert len(ds.test_ids) == 20
        assert len(ds.labeled_ids) == 30
        assert set(ds.labeled_ids) <= set(ds.aligned_ids)
        assert not set(ds.test_ids) & set(ds.aligned_ids)
        for i in range(2):
            assert len(ds.unaligned_ids[i]) == 40
            assert not set(ds.unaligned_ids[i]) & set(ds.aligned_ids)
        # every id resolvable at its party, test ids at all parties
        for i in range(2):
            ds.rows(i, ds.test_ids)
            ds.rows(i, ds.local_ids(i))

    def test_labels_cover_aligned_and_test(self):
        ds = data.generate_synthetic(small_spec())
        for i in np.concatenate([ds.aligned_ids, ds.test_ids]):
            assert int(i) in ds.labels
            assert 0 <= ds.labels[int(i)] < ds.num_classes

    def test_missing_id_raises(self):
        ds = data.generate_synthetic(small_spec())
        with pytest.raises(DataError):
            ds.rows(0, [10 ** 9])

    def test_categorical_block_shapes(self):
        ds = data.generate_synthetic(small_spec(cat_cardinalities=((4, 3), ())))
        block = ds.parties[0]
        assert block.cats.shape[1] == 2
        assert block.cont.shape[1] == 4  # two leading columns quantized away
        assert block.cats[:, 0].max() < 4 and block.cats[:, 1].max() < 3

    def test_linear_probe_recovers_classes(self):
        # Oracle: with no observation noise and wide class separation, a
        # least-squares probe on raw pooled features must score > 0.95.
        ds = data.generate_synthetic(small_spec(
            classes=2, class_sep=3.0, noise_scales=(0.0, 0.0),
            aligned=200, labeled=200, test=100, seed=1,
        ))

        def pooled(ids):
            mats = [ds.rows(i, ids)[0] for i in range(2)]
            return np.concatenate(mats, axis=1)

        x = pooled(ds.labeled_ids)
        y = ds.label_array(ds.labeled_ids)
        onehot = np.eye(2)[y]
        w, *_ = np.linalg.lstsq(np.hstack([x, np.ones((len(x), 1))]), onehot, rcond=None)
        xt = np.hstack([pooled(ds.test_ids), np.ones((len(ds.test_ids), 1))])
        pred = (xt @ w).argmax(axis=1)
        acc = (pred == ds.label_array(ds.test_ids)).mean()
        assert acc > 0.95

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            small_spec(labeled=0)
        with pytest.raises(ConfigError):
            small_spec(feature_dims=(6,))


class TestAugmentation:
    def test_exact_corruption_count_continuous(self, rng):
        cont = rng.normal(size=(10, 7))
        cats = np.zeros((10, 0), dtype=np.int64)
        policy = data.AugmentationPolicy(0.3)
        out_cont, _ = data.augment(cont, cats, (), policy, rng)
        changed = (out_cont != cont).sum(axis=1)
        assert (changed == int(np.ceil(0.3 * 7))).all()

    def test_exact_corruption_count_mixed(self, rng):
        cont = rng.normal(size=(8, 4))
        cats = rng.integers(0, 3, size=(8, 3))
        policy = data.AugmentationPolicy(0.5)
        out_cont, out_cats = data.augment(cont, cats, (3, 3, 3), policy, rng)
        changed = (out_cont != cont).sum(axis=1) + (out_cats != cats).sum(axis=1)
        assert (changed == int(np.ceil(0.5 * 7))).all()

    def test_categorical_goes_to_corruption_index(self, rng):
        cont = np.zeros((6, 0))
        cats = rng.integers(0, 4, size=(6, 2))
        out_cont, out_cats = data.augment(cont, cats, (4, 4), data.AugmentationPolicy(1.0), rng)
        assert (out_cats == 4).all()

    def test_fraction_zero_is_identity(self, rng):
        cont = rng.normal(size=(5, 6))
        cats = rng.integers(0, 2, size=(5, 1))
        out_cont, out_cats = data.augment(cont, cats, (2,), data.AugmentationPolicy(0.0), rng)
        np.testing.assert_array_equal(out_cont, cont)
        np.testing.assert_array_equal(out_cats, cats)

    def test_inputs_never_mutated(self, rng):
        cont = rng.normal(size=(5, 6))
        cats = rng.integers(0, 2, size=(5, 2))
        cont_copy, cats_copy = cont.copy(), cats.copy()
        data.augment(cont, cats, (2, 2), data.AugmentationPolicy(1.0), rng)
        np.testing.assert_array_equal(cont, cont_copy)
        np.testing.assert_array_equal(cats, cats_copy)

    def test_continuous_values_come_from_batch(self, rng):
        cont = rng.normal(size=(9, 5))
        out_cont, _ = data.augment(cont, np.zeros((9, 0), dtype=np.int64), (),
                                   data.AugmentationPolicy(1.0), rng)
        for j in range(5):
            assert set(out_cont[:, j]) <= set(cont[:, j])

    def test_single_row_jitter_fallback(self, rng):
        cont = np.ones((1, 4))
        out_cont, _ = data.augment(cont, np.zeros((1, 0), dtype=np.int64), (),
                                   data.AugmentationPolicy(1.0), rng,
                                   cont_std=np.full(4, 0.1))
        assert (out_cont != cont).all()
        assert np.abs(out_cont - cont).max() < 1.0  # jitter scaled by std

    def test_deterministic_given_rng_seed(self):
        cont = np.random.default_rng(0).normal(size=(6, 5))
        cats = np.zeros((6, 0), dtype=np.int64)
        a = data.augment(cont, cats, (), data.AugmentationPolicy(0.4), np.random.default_rng(3))
        b = data.augment(cont, cats, (), data.AugmentationPolicy(0.4), np.random.default_rng(3))
        np.testing.assert_array_equal(a[0], b[0])

    def test_empty_batch_rejected(self, rng):
        with pytest.raises(DataError):
            data.augment(np.zeros((0, 3)), np.zeros((0, 0), dtype=np.int64), (),
                         data.AugmentationPolicy(0.3), rng)


class TestBatches:
    def test_partition_covers_once(self):
        ids = np.arange(10)
        out = list(data.batches(ids, 3))
        assert [len(b) for b in out] == [3, 3, 3, 1]
        np.testing.assert_array_equal(np.concatenate(out), ids)

    def test_shuffle_is_permutation(self):
        ids = np.arange(10)
        out = np.concatenate(list(data.batches(ids, 4, rng=np.random.default_rng(0))))
        assert sorted(out) == list(ids)

    def test_bad_batch_size(self):
        with pytest.raises(ConfigError):
            list(data.batches(np.arange(4), 0))


class TestCsv:
    def roundtrip(self, tmp_path, spec=None, **load_kw):
        ds = data.generate_synthetic(spec or small_spec())
        paths = [tmp_path / "p1.csv", tmp_path / "p2.csv"]
        data.export_csv(ds, paths)
        kw = dict(standardize=False, test_fraction=0.2, seed=0)
        kw.update(load_kw)
        return ds, data.load_csv(paths, **kw)

    def test_features_round_trip_exactly(self, tmp_path):
        ds, loaded = self.roundtrip(tmp_path)
        for p in range(2):
            ids = ds.parties[p].ids
            orig_cont, orig_cats = ds.rows(p, ids)
            new_cont, new_cats = loaded.rows(p, ids)
            np.testing.assert_array_equal(new_cont, orig_cont)
            np.testing.assert_array_equal(new_cats, orig_cats)

    def test_labels_round_trip(self, tmp_path):
        ds, loaded = self.roundtrip(tmp_path)
        assert loaded.labels == ds.labels
        assert loaded.num_classes == ds.num_classes

    def test_aligned_union_preserved(self, tmp_path):
        ds, loaded = self.roundtrip(tmp_path)
        orig_all = set(map(int, ds.aligned_ids)) | set(map(int, ds.test_ids))
        new_all = set(map(int, loaded.aligned_ids)) | set(map(int, loaded.test_ids))
        assert new_all == orig_all
        for p in range(2):
            assert set(map(int, loaded.unaligned_ids[p])) == set(map(int, ds.unaligned_ids[p]))

    def test_standardize_uses_train_stats(self, tmp_path):
        _, loaded = self.roundtrip(tmp_path, standardize=True)
        cont, _ = loaded.rows(0, loaded.aligned_ids)
        np.testing.assert_allclose(cont.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(cont.std(axis=0), 1.0, atol=1e-10)

    def test_labeled_count_cap(self, tmp_path):
        _, loaded = self.roundtrip(tmp_path, labeled_count=10)
        assert len(loaded.labeled_ids) == 10

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,x0,label\n1,0.5,0\n1,0.7,1\n")
        other = tmp_path / "p2.csv"
        other.write_text("id,x0\n1,0.1\n")
        with pytest.raises(DataError, match="duplicate"):
            data.load_csv([path, other])

    def test_unknown_level_maps_to_corruption_index(self, tmp_path):
        p1 = tmp_path / "p1.csv"
        p1.write_text("id,x0,c0,label\n1,0.1,red,0\n2,0.2,blue,1\n3,0.3,teal,0\n"
                      "4,0.4,red,1\n5,0.5,blue,0\n")
        p2 = tmp_path / "p2.csv"
        p2.write_text("id,x0\n1,1.0\n2,2.0\n3,3.0\n4,4.0\n5,5.0\n")
        loaded = data.load_csv(
            [p1, p2], cat_cols=[("c0",), ()],
            cat_levels=[(("red", "blue"),), ()],
            test_fraction=0.0, standardize=False,
        )
        assert loaded.warnings[data.CORRUPTION_WARNING_KEY] == 1
        _, cats = loaded.rows(0, [3])
        assert cats[0, 0] == 2  # corruption index == pinned vocabulary size

    @pytest.mark.parametrize("party1, match", [
        ("id,x0,label\n1,0.1,0\nx2,0.2,1\n", "non-integer id"),
        ("id,x0,label\n1,0.1,0\n2,0.2,cat\n", "non-integer label"),
        ("id,x0,label\n1,0.1,0\n2,0.2\n", "row of 2 cells"),
    ])
    def test_malformed_cells_raise_data_error(self, tmp_path, party1, match):
        p1 = tmp_path / "p1.csv"
        p1.write_text(party1)
        p2 = tmp_path / "p2.csv"
        p2.write_text("id,x0\n1,1.0\n2,2.0\n")
        with pytest.raises(DataError, match=match):
            data.load_csv([p1, p2])

    def test_no_overlap_rejected(self, tmp_path):
        p1 = tmp_path / "p1.csv"
        p1.write_text("id,x0,label\n1,0.1,0\n")
        p2 = tmp_path / "p2.csv"
        p2.write_text("id,x0\n2,1.0\n")
        with pytest.raises(DataError, match="aligned"):
            data.load_csv([p1, p2])
