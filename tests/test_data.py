import ast
import dataclasses
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vflhssl import data
from vflhssl.errors import ConfigError, DataError

from test_golden import PRESETS


def small_spec(**kw):
    base = dict(
        latent_dim=4, classes=3, parties=2, feature_dims=(6, 5),
        noise_scales=(0.5, 0.5), cat_cardinalities=((), ()),
        aligned=80, unaligned=(40, 40), labeled=30, test=20, seed=7,
    )
    base.update(kw)
    return data.SyntheticSpec(**base)


# The benchmark's hssl-unaligned data at seed 3: the unaligned pools are
# most of each party's rows.
HSSL_UNALIGNED = dict(latent_dim=64, class_sep=0.5, noise_scales=(1.0, 3.0),
                      feature_dims=(48, 48), aligned=256, unaligned=(2048, 2048),
                      labeled=256, test=1000, seed=3)


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
            ds.parties[i].rows(ds.test_ids)
            ds.parties[i].rows(ds.local_ids(i))

    def test_labels_cover_aligned_and_test(self):
        ds = data.generate_synthetic(small_spec())
        for i in np.concatenate([ds.aligned_ids, ds.test_ids]):
            assert int(i) in ds.labels
            assert 0 <= ds.labels[int(i)] < ds.num_classes

    def test_missing_id_raises(self):
        ds = data.generate_synthetic(small_spec())
        with pytest.raises(DataError):
            ds.parties[0].rows([10 ** 9])

    def test_rows_reject_non_integral_id(self):
        block = data.generate_synthetic(small_spec()).parties[0]
        i = int(block.ids[3])
        with pytest.raises(DataError, match="missing"):
            block.rows(np.array([i + 0.7]))
        for got, want in zip(block.rows(np.array([float(i)])), block.rows([i])):
            np.testing.assert_array_equal(got, want)

    def test_label_array_rejects_non_integral_id(self):
        ds = data.generate_synthetic(small_spec())
        i = int(ds.labeled_ids[3])
        with pytest.raises(DataError, match="no label"):
            ds.label_array(np.array([i + 0.7]))
        assert ds.label_array(np.array([float(i)])).tolist() == [ds.labels[i]]

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
            mats = [ds.parties[i].rows(ids)[0] for i in range(2)]
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
        with pytest.raises(ConfigError, match="test count"):
            small_spec(test=-1)
        for cards in (((3, 3, 3), ()), ((2.5,), ()), (("a",), ()), ((0,), ()), ((True,), ())):
            with pytest.raises(ConfigError, match="cat_cardinalities"):
                small_spec(feature_dims=(2, 5), cat_cardinalities=cards)
        with pytest.raises(ConfigError, match="feature_dims must be >= 1"):
            small_spec(feature_dims=(0, 5))
        with pytest.raises(ConfigError, match="unaligned counts >= 0"):
            small_spec(unaligned=(-3, 40))

    def test_non_finite_block_names_the_party(self):
        with pytest.raises(DataError, match="party 2's synthetic features hold non-finite"):
            data.generate_synthetic(small_spec(noise_scales=(0.5, 1e308)))

    def test_inconsistent_id_sets_rejected(self):
        ds = data.generate_synthetic(small_spec())
        with pytest.raises(DataError, match="subset of aligned_ids"):
            dataclasses.replace(ds, labeled_ids=np.append(ds.labeled_ids, ds.test_ids[0]))
        overlapping = [ds.unaligned_ids[0], np.append(ds.unaligned_ids[1], ds.aligned_ids[5])]
        with pytest.raises(DataError, match="party 2 unaligned ids overlap aligned ids"):
            dataclasses.replace(ds, unaligned_ids=overlapping)

    @pytest.mark.parametrize("spec,digest", [
        (HSSL_UNALIGNED, "c06658a8f208dc89a27b0d10752548525ae5c5441eb6d12ee5ae655d169c0051"),
        (dict(latent_dim=5, classes=3, parties=3, feature_dims=(7, 4, 6),
              noise_scales=(0.5, 0.0, 2.0), cat_cardinalities=((), (), ()), aligned=50,
              unaligned=(31, 0, 17), labeled=20, test=13, seed=11),
         "59a98f2055e6e0eb31ab8254bffa79b2f0deb0c0ecaaeefc7cda19db7d697af7"),
        # Categorical columns at both parties: each continuous block is a
        # strided view of the party's generated block.
        (PRESETS["data"]["synthetic"],
         "f90c3d53043552a12eb0b1793b0f11236e4c9e067ece3f6dd059040bd4d24327"),
    ], ids=["hssl-unaligned", "three-party", "categorical"])
    def test_fingerprint_pinned(self, spec, digest):
        # Measured when each party's block was built by concatenating its
        # aligned and unaligned observations.
        assert data.generate_synthetic(data.SyntheticSpec(**spec)).fingerprint() == digest

    def test_build_peak_memory_near_the_dataset_size(self):
        spec = data.SyntheticSpec(**HSSL_UNALIGNED)
        data.generate_synthetic(spec)  # warm-up: first-call allocations are not the build's
        tracemalloc.start()
        try:
            ds = data.generate_synthetic(spec)  # held, so the traced size is the dataset's
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * kept, (peak, kept, ds.num_parties)


class TestAugmentation:
    def test_exact_corruption_count_continuous(self, rng):
        cont = rng.normal(size=(10, 7))
        cats = np.zeros((10, 0), dtype=np.int64)
        out_cont, _ = data.augment(cont, cats, (), 0.3, rng)
        changed = (out_cont != cont).sum(axis=1)
        assert (changed == int(np.ceil(0.3 * 7))).all()

    def test_exact_corruption_count_mixed(self, rng):
        cont = rng.normal(size=(8, 4))
        cats = rng.integers(0, 3, size=(8, 3))
        out_cont, out_cats = data.augment(cont, cats, (3, 3, 3), 0.5, rng)
        changed = (out_cont != cont).sum(axis=1) + (out_cats != cats).sum(axis=1)
        assert (changed == int(np.ceil(0.5 * 7))).all()

    def test_categorical_goes_to_corruption_index(self, rng):
        cont = np.zeros((6, 0))
        cats = rng.integers(0, 4, size=(6, 2))
        out_cont, out_cats = data.augment(cont, cats, (4, 4), 1.0, rng)
        assert (out_cats == 4).all()

    def test_fraction_zero_is_identity(self, rng):
        cont = rng.normal(size=(5, 6))
        cats = rng.integers(0, 2, size=(5, 1))
        out_cont, out_cats = data.augment(cont, cats, (2,), 0.0, rng)
        np.testing.assert_array_equal(out_cont, cont)
        np.testing.assert_array_equal(out_cats, cats)

    def test_inputs_never_mutated(self, rng):
        cont = rng.normal(size=(5, 6))
        cats = rng.integers(0, 2, size=(5, 2))
        cont_copy, cats_copy = cont.copy(), cats.copy()
        data.augment(cont, cats, (2, 2), 1.0, rng)
        np.testing.assert_array_equal(cont, cont_copy)
        np.testing.assert_array_equal(cats, cats_copy)

    def test_continuous_values_come_from_batch(self, rng):
        cont = rng.normal(size=(9, 5))
        out_cont, _ = data.augment(cont, np.zeros((9, 0), dtype=np.int64), (),
                                   1.0, rng)
        for j in range(5):
            assert set(out_cont[:, j]) <= set(cont[:, j])

    def test_single_row_jitter_fallback(self, rng):
        cont = np.ones((1, 4))
        out_cont, _ = data.augment(cont, np.zeros((1, 0), dtype=np.int64), (),
                                   1.0, rng,
                                   cont_std=np.full(4, 0.1))
        assert (out_cont != cont).all()
        assert np.abs(out_cont - cont).max() < 1.0  # jitter scaled by std

    def test_deterministic_given_rng_seed(self):
        cont = np.random.default_rng(0).normal(size=(6, 5))
        cats = np.zeros((6, 0), dtype=np.int64)
        a = data.augment(cont, cats, (), 0.4, np.random.default_rng(3))
        b = data.augment(cont, cats, (), 0.4, np.random.default_rng(3))
        np.testing.assert_array_equal(a[0], b[0])

    def test_empty_batch_rejected(self, rng):
        with pytest.raises(DataError):
            data.augment(np.zeros((0, 3)), np.zeros((0, 0), dtype=np.int64), (),
                         0.3, rng)


def per_cell_augment(cont, cats, cat_cardinalities, corruption_fraction, rng, cont_std=None):
    """A per-cell loop of scalar draws in augment's draw order; kept as the
    oracle of its outputs and of the rng state it leaves."""
    n = cont.shape[0]
    m_cont, m_cat = cont.shape[1], cats.shape[1]
    m = m_cont + m_cat
    k = int(np.ceil(corruption_fraction * m))
    out_cont = cont.copy()
    out_cats = cats.copy()
    if k == 0 or m == 0:
        return out_cont, out_cats
    keys = [[rng.random() for _ in range(m)] for _ in range(n)]
    if n > 1:
        donors = [[int(rng.integers(n - 1)) for _ in range(m_cont)] for _ in range(n)]
    else:
        jitter = [rng.standard_normal() for _ in range(m_cont)]
    for r in range(n):
        for pos in sorted(range(m), key=keys[r].__getitem__)[:k]:
            if pos < m_cont:
                if n > 1:
                    donor = donors[r][pos]
                    if donor >= r:
                        donor += 1
                    out_cont[r, pos] = cont[donor, pos]
                else:
                    sigma = cont_std[pos] if cont_std is not None else 1.0
                    out_cont[r, pos] = cont[r, pos] + sigma * jitter[pos]
            else:
                j = pos - m_cont
                out_cats[r, j] = cat_cardinalities[j]
    return out_cont, out_cats


def test_augment_matches_per_cell_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        n=st.sampled_from([1, 2]) | st.integers(3, 40),
        kind=st.sampled_from(["continuous", "categorical", "mixed"]),
        widths=st.tuples(st.integers(1, 12), st.integers(1, 5)),
        fraction=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        with_std=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(n, kind, widths, fraction, with_std, seed):
        m_cont = 0 if kind == "categorical" else widths[0]
        m_cat = 0 if kind == "continuous" else widths[1]
        make = np.random.default_rng(seed)
        cont = make.standard_normal((n, m_cont))
        cards = tuple(int(c) for c in make.integers(1, 6, size=m_cat))
        cats = np.array([[make.integers(c) for c in cards] for _ in range(n)],
                        dtype=np.int64).reshape(n, m_cat)
        cont_std = make.random(m_cont) + 0.1 if with_std else None
        ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got = data.augment(cont, cats, cards, fraction, ours, cont_std)
        want = per_cell_augment(cont, cats, cards, fraction, theirs, cont_std)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[1].dtype == want[1].dtype
        assert ours.bit_generator.state == theirs.bit_generator.state

    check()


def argpartition_augment(cont, cats, cat_cardinalities, corruption_fraction, rng, cont_std=None):
    """augment with the mask always from ``argpartition`` + ``put_along_axis``
    and the donors read by ``take_along_axis``; the oracle of its tie
    fallback."""
    n, m_cont = cont.shape
    m = m_cont + cats.shape[1]
    k = int(np.ceil(corruption_fraction * m))
    if k == 0 or m == 0:
        return cont.copy(), cats.copy()
    keys = rng.random((n, m))
    mask = np.zeros((n, m), dtype=bool)
    np.put_along_axis(mask, np.argpartition(keys, k - 1, axis=1)[:, :k], True, axis=1)
    swapped = cont
    if m_cont and n > 1:
        donors = rng.integers(n - 1, size=(n, m_cont))
        donors += donors >= np.arange(n)[:, None]
        swapped = np.take_along_axis(cont, donors, axis=0)
    elif m_cont:
        sigma = 1.0 if cont_std is None else cont_std
        swapped = cont + sigma * rng.standard_normal((1, m_cont))
    cards = np.asarray(cat_cardinalities, dtype=np.int64)
    return (np.where(mask[:, :m_cont], swapped, cont),
            np.where(mask[:, m_cont:], cards, cats))


class TiedKeysRng:
    """An rng whose ``random`` keys take one of ``levels`` values, so rows
    tie at their k-th key; ``integers`` and ``standard_normal`` are a real
    Generator's."""

    def __init__(self, seed, levels=3):
        self.gen = np.random.default_rng(seed)
        self.levels = levels
        self.integers, self.standard_normal = self.gen.integers, self.gen.standard_normal

    def random(self, size):
        return np.floor(self.gen.random(size) * self.levels) / self.levels


@pytest.mark.parametrize("n,m_cont,m_cat,fraction", [
    (16, 5, 3, 0.3),   # k = 3 of 8
    (16, 5, 3, 0.1),   # k = 1
    (16, 5, 3, 1.0),   # k = m
    (1, 5, 3, 0.5),    # one row: jitter, no donors
    (16, 0, 6, 0.5),   # categorical only
])
def test_augment_tie_fallback_matches_argpartition(n, m_cont, m_cat, fraction):
    make = np.random.default_rng(7)
    cont = make.standard_normal((n, m_cont))
    cards = (3,) * m_cat
    cats = make.integers(3, size=(n, m_cat))
    cont_std = make.random(m_cont) + 0.1
    m = m_cont + m_cat
    k = int(np.ceil(fraction * m))
    keys = TiedKeysRng(11).random((n, m))
    ties = np.count_nonzero(keys <= np.partition(keys, k - 1, axis=1)[:, k - 1 : k]) != n * k
    assert ties == (k < m)  # the fallback runs wherever a tie can change the mask
    for seed in range(11, 31):
        ours, theirs = TiedKeysRng(seed), TiedKeysRng(seed)
        got = data.augment(cont, cats, cards, fraction, ours, cont_std)
        want = argpartition_augment(cont, cats, cards, fraction, theirs, cont_std)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes() and got[1].dtype == want[1].dtype
        assert ours.gen.bit_generator.state == theirs.gen.bit_generator.state


def test_augment_positions_are_uniform():
    n, m_cont, m_cat, k = 4000, 6, 4, 3
    # Distinct values per column, so every corrupted cell differs from its input.
    cont = np.arange(n * m_cont, dtype=np.float64).reshape(n, m_cont)
    cats = np.zeros((n, m_cat), dtype=np.int64)
    p = k / (m_cont + m_cat)
    out_cont, out_cats = data.augment(cont, cats, (2,) * m_cat, p, np.random.default_rng(19))
    hits = np.concatenate([out_cont != cont, out_cats != cats], axis=1)
    assert (hits.sum(axis=1) == k).all()
    sigma = np.sqrt(n * p * (1 - p))
    assert (np.abs(hits.sum(axis=0) - n * p) < 5 * sigma).all()


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


def test_model_streams_come_only_from_the_stream_table():
    # Every model-side stream is a STREAMS family built by data.stream;
    # only the dataset builders seed a generator of their own.
    callers = set()
    for path in Path(data.__file__).parent.glob("*.py"):
        module = path.stem

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, child.name if scope is None else scope)
                    continue
                if (isinstance(child, ast.Call)
                        and ast.unparse(child.func) == "np.random.default_rng"):
                    callers.add(f"{module}.{scope}")
                visit(child, scope)

        visit(ast.parse(path.read_text()), None)
    assert callers == {"data.stream", "data.generate_synthetic", "data.load_csv"}
    tags = list(data.STREAMS.values())
    assert len(set(tags)) == len(tags)


class TestAtomicWrite:
    def test_bytes_and_text_written_exactly(self, tmp_path):
        data.atomic_write(tmp_path / "a.bin", b"\x00\xff")
        data.atomic_write(tmp_path / "sub" / "b.csv", "x\r\ny\n")
        assert (tmp_path / "a.bin").read_bytes() == b"\x00\xff"
        assert (tmp_path / "sub" / "b.csv").read_bytes() == b"x\r\ny\n"
        umask = os.umask(0o022)
        os.umask(umask)
        assert (tmp_path / "a.bin").stat().st_mode & 0o777 == 0o666 & ~umask  # as open() makes it

    def test_failed_replace_keeps_previous_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "out.bin"
        path.write_bytes(b"good")

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(data.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            data.atomic_write(path, b"new")
        assert path.read_bytes() == b"good"
        assert os.listdir(tmp_path) == ["out.bin"]


class TestCsv:
    def roundtrip(self, tmp_path, spec=None, **load_kw):
        ds = data.generate_synthetic(spec or small_spec())
        paths = [tmp_path / "p1.csv", tmp_path / "p2.csv"]
        data.export_csv(ds, paths)
        kw = dict(test_fraction=0.2, seed=0)
        kw.update(load_kw)
        return ds, data.load_csv(paths, **kw)

    def test_interrupted_export_keeps_previous_files(self, tmp_path):
        ds = data.generate_synthetic(small_spec())
        paths = [tmp_path / "p1.csv", tmp_path / "p2.csv"]
        data.export_csv(ds, paths)
        before = [p.read_bytes() for p in paths]
        lookups = iter(range(5))

        class LabelsInterruptedAtSixthRow(dict):
            def get(self, key, default=None):
                if next(lookups, None) is None:
                    raise RuntimeError("interrupted")
                return super().get(key, default)

        ds.labels = LabelsInterruptedAtSixthRow(ds.labels)
        with pytest.raises(RuntimeError, match="interrupted"):
            data.export_csv(ds, paths)
        assert [p.read_bytes() for p in paths] == before
        assert sorted(os.listdir(tmp_path)) == ["p1.csv", "p2.csv"]

    def test_features_round_trip_exactly(self, tmp_path):
        # Ids and categorical codes (none in this spec) come back as
        # written; continuous values come back z-scored by the aligned
        # training rows' mean and std (a zero std counts as 1), bit for bit.
        ds, loaded = self.roundtrip(tmp_path)
        for p in range(2):
            ids = ds.parties[p].ids
            np.testing.assert_array_equal(loaded.parties[p].ids, ids)
            orig_cont, orig_cats = ds.parties[p].rows(ids)
            new_cont, new_cats = loaded.parties[p].rows(ids)
            train, _ = ds.parties[p].rows(loaded.aligned_ids)
            std = train.std(axis=0)
            std[std == 0] = 1.0
            np.testing.assert_array_equal(new_cont, (orig_cont - train.mean(axis=0)) / std)
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
        _, loaded = self.roundtrip(tmp_path)
        cont, _ = loaded.parties[0].rows(loaded.aligned_ids)
        np.testing.assert_allclose(cont.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(cont.std(axis=0), 1.0, atol=1e-10)

    def test_labeled_count_cap(self, tmp_path):
        _, loaded = self.roundtrip(tmp_path, labeled_count=10)
        assert len(loaded.labeled_ids) == 10

    def test_labeled_count_beyond_the_pool_rejected(self, tmp_path):
        with pytest.raises(DataError, match="labeled_count 1000 exceeds available"):
            self.roundtrip(tmp_path, labeled_count=1000)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,x0,label\n1,0.5,0\n1,0.7,1\n")
        other = tmp_path / "p2.csv"
        other.write_text("id,x0\n1,0.1\n")
        with pytest.raises(DataError, match="duplicate"):
            data.load_csv([path, other])

    @pytest.mark.parametrize("cat_cols", [["c0", ()], [("c0",), (5,)]],
                             ids=["string-cat-cols", "scalar-cat-col"])
    def test_cat_cols_and_levels_items_are_lists(self, tmp_path, cat_cols):
        p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        p1.write_text("id,x0,c0,label\n1,0.1,red,0\n2,0.2,blue,1\n")
        p2.write_text("id,x0\n1,1.0\n2,2.0\n")
        with pytest.raises(ConfigError, match="list of"):
            data.load_csv([p1, p2], cat_cols=cat_cols)

    def test_cat_cols_outside_the_feature_columns_named(self, tmp_path):
        p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        p1.write_text("id,x0,label\n1,0.1,0\n2,0.2,1\n")
        p2.write_text("id,x0\n1,1.0\n2,2.0\n")
        with pytest.raises(DataError, match=r"p1.csv: .* names \['nope', 'label'\], which"):
            data.load_csv([p1, p2], cat_cols=[["nope", "x0", "label"], []])

    @pytest.mark.parametrize("party1, match", [
        ("id,x0,label\n1,0.1,0\nx2,0.2,1\n", "non-integer id"),
        ("id,x0,label\n1,0.1,0\n2,0.2,cat\n", "non-integer label"),
        ("id,x0,label\n1,0.1,0\n2,0.2\n", "row of 2 cells"),
        ("id,x0,label\n1,0.1,0\n2,0.2,1,9\n", "row of 4 cells under a 3-column header"),
        ("id,x0,x0,label\n1,0.1,0.2,0\n", r"p1.csv: header repeats column names \['x0'\]"),
        ("id,x0,label\n1,0.1,0\n99999999999999999999,0.2,1\n", "id .* out of range"),
        ("id,x0,label\n1,0.1,0\n2,0.2,-1\n", "label '-1' out of range"),
        ("id,x0,label\n1,0.1,0\n2,inf,1\n", "non-finite continuous cell for id 2"),
        ("id,x0,label\n1,0.1,0\n2,0.2,2\n", "p1.csv: label 2 is not below the file's 2 labeled"),
    ])
    def test_malformed_cells_raise_data_error(self, tmp_path, party1, match):
        p1 = tmp_path / "p1.csv"
        p1.write_text(party1)
        p2 = tmp_path / "p2.csv"
        p2.write_text("id,x0\n1,1.0\n2,2.0\n")
        with pytest.raises(DataError, match=match):
            data.load_csv([p1, p2])

    def test_load_peak_memory_near_the_dataset_size(self, tmp_path):
        # Two parties of 760 rows, 9 continuous and 3 categorical columns
        # each; rows are parsed as read, so a file's strings are never all held.
        spec = small_spec(latent_dim=8, feature_dims=(9, 9), noise_scales=(1.0, 1.0),
                          cat_cardinalities=((3, 5, 7), (3, 5, 7)), aligned=600,
                          unaligned=(160, 160), labeled=300, test=300, seed=3)
        paths = [tmp_path / "p1.csv", tmp_path / "p2.csv"]
        data.export_csv(data.generate_synthetic(spec), paths)
        cat_cols = [["c0", "c1", "c2"]] * 2
        data.load_csv(paths, cat_cols=cat_cols)  # warm-up, as for the synthetic build
        tracemalloc.start()
        try:
            ds = data.load_csv(paths, cat_cols=cat_cols)  # held, so the traced size is the dataset's
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.4 * kept, (peak, kept, ds.num_parties)

    def test_no_overlap_rejected(self, tmp_path):
        p1 = tmp_path / "p1.csv"
        p1.write_text("id,x0,label\n1,0.1,0\n")
        p2 = tmp_path / "p2.csv"
        p2.write_text("id,x0\n2,1.0\n")
        with pytest.raises(DataError, match="aligned"):
            data.load_csv([p1, p2])

    def test_three_party_load_pinned(self, tmp_path):
        # Party 1 has a continuous and a categorical column and labels,
        # party 2 a constant column (std 0) and a categorical one with
        # four levels, party 3 continuous columns only. Ids 100-102,
        # 200-201 and 300-301 are unaligned; id 50 sits at parties 1 and 3
        # only, so it is neither aligned nor unaligned. The digest was
        # measured when load_csv read every file before parsing any.
        colours, sizes = ["red", "green", "blue"], ["s", "m", "l", "xl"]
        p1 = ["id,x0,c0,label"] + [
            f"{i},{(i * 37 % 101) / 10},{colours[i * 7 % 3]},{'' if i > 99 else i % 3}"
            for i in [*range(40), 50, 100, 101, 102]
        ]
        p2 = ["id,x0,x1,c0"] + [
            f"{i},{(i * 13 % 17) - 8},1.5,{sizes[(i * 5 + i // 7) % 4]}"
            for i in [201, *range(39, -1, -1), 200]
        ]
        p3 = ["id,x0,x1"] + [f"{i},{i * i % 23},{-i / 7}" for i in [*range(40), 50, 300, 301]]
        paths = [tmp_path / "p1.csv", tmp_path / "p2.csv", tmp_path / "p3.csv"]
        for path, lines in zip(paths, (p1, p2, p3)):
            path.write_text("\n".join(lines) + "\n")
        ds = data.load_csv(paths, cat_cols=[["c0"], ["c0"], []], test_fraction=0.25,
                           labeled_count=12, seed=5)
        assert [u.tolist() for u in ds.unaligned_ids] == [[100, 101, 102], [200, 201], [300, 301]]
        assert (len(ds.aligned_ids), len(ds.labeled_ids), len(ds.test_ids)) == (30, 12, 10)
        assert [b.cat_cardinalities for b in ds.parties] == [(3,), (4,), ()]
        # Levels coded in order of appearance.
        assert ds.fingerprint() == (
            "864555868dda1fc83c68838b576c7cbb6085ade95c05bd8e67ea14d89bdb5e78")



def test_arbitrary_csv_text_raises_only_data_error(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # Valid party files with a few cells overwritten reach every cell
    # check; free text reaches the reader and the header checks.
    token = st.sampled_from(["", "x", "-1", "0.5", "nan", "1e999", "99999999999999999999",
                             '"', "\x00", "é", "1,2", "\n", "id", "label"])
    edit = st.tuples(st.integers(0, 1), st.integers(0, 9), st.integers(0, 2), token)

    def edited(n, edits):
        tables = [[["id", "x0", "label"]] + [[str(i), "0.5", str(i % 3)] for i in range(n)],
                  [["id", "x0"]] + [[str(i), str(i)] for i in range(n)]]
        for party, r, c, text in edits:
            row = tables[party][r % len(tables[party])]
            row[c % len(row)] = text
        return tuple("".join(",".join(row) + "\n" for row in t) for t in tables)

    free = st.text(st.characters(blacklist_categories=("Cs",)), max_size=60)
    files = st.one_of(st.builds(edited, st.integers(0, 9), st.lists(edit, max_size=4)),
                      st.tuples(free, free))

    @hypothesis.settings(max_examples=500, deadline=None)
    @hypothesis.given(files=files, with_cats=st.booleans())
    def check(files, with_cats):
        paths = [tmp_path / "p1.csv", tmp_path / "p2.csv"]
        for path, text in zip(paths, files):
            path.write_text(text, encoding="utf-8")
        try:
            data.load_csv(paths, cat_cols=[("x0",), ()] if with_cats else None)
        except DataError:
            pass

    check()
