"""Vertical dataset model, synthetic generation, CSV ingestion and the
tabular corruption augmentation.

Parties hold disjoint feature blocks over a shared sample-id space.
Aligned ids exist at every party; each party additionally holds its own
unaligned ids. Only party 1 sees labels, and only for a subset of the
aligned ids; a further slice of labeled aligned ids is held out as the
test split and never enters any training iterator.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

CORRUPTION_WARNING_KEY = "unknown_categorical_levels"


@dataclass
class PartyBlock:
    """One party's feature matrix plus categorical metadata."""

    ids: np.ndarray          # sample ids, one per row
    cont: np.ndarray         # n x m_cont float64
    cats: np.ndarray         # n x m_cat int64 (level indices)
    cat_cardinalities: tuple
    cont_std: np.ndarray = None  # per-column training std, jitter fallback

    def __post_init__(self):
        self._index = {int(i): r for r, i in enumerate(self.ids)}
        if self.cont_std is None:
            self.cont_std = self.cont.std(axis=0) if len(self.cont) else np.zeros(self.cont.shape[1])

    def rows(self, ids):
        try:
            idx = np.array([self._index[int(i)] for i in ids], dtype=np.int64)
        except KeyError as exc:
            raise DataError(f"sample id {exc.args[0]} missing at this party") from exc
        return self.cont[idx], self.cats[idx]

    @property
    def feature_count(self):
        return self.cont.shape[1] + self.cats.shape[1]


@dataclass
class VerticalDataset:
    parties: list                 # PartyBlock per party
    aligned_ids: np.ndarray       # excludes test ids
    unaligned_ids: list           # per-party ndarray
    labeled_ids: np.ndarray       # subset of aligned_ids
    labels: dict                  # id -> class index (party 1 only)
    test_ids: np.ndarray
    num_classes: int
    warnings: dict = field(default_factory=dict)

    def __post_init__(self):
        aligned = set(map(int, self.aligned_ids))
        if not set(map(int, self.labeled_ids)) <= aligned:
            raise DataError("labeled_ids must be a subset of aligned_ids")
        for i, una in enumerate(self.unaligned_ids):
            if aligned & set(map(int, una)):
                raise DataError(f"party {i + 1} unaligned ids overlap aligned ids")

    @property
    def num_parties(self):
        return len(self.parties)

    def rows(self, party_index, ids):
        return self.parties[party_index].rows(ids)

    def label_array(self, ids):
        try:
            return np.array([self.labels[int(i)] for i in ids], dtype=np.int64)
        except KeyError as exc:
            raise DataError(f"no label for sample id {exc.args[0]}") from exc

    def local_ids(self, party_index):
        """All training ids available at a party (aligned + own unaligned)."""
        return np.concatenate([self.aligned_ids, self.unaligned_ids[party_index]])

    def fingerprint(self):
        h = hashlib.sha256()
        for block in self.parties:
            h.update(block.ids.astype("<i8").tobytes())
            h.update(np.ascontiguousarray(block.cont, dtype="<f8").tobytes())
            h.update(np.ascontiguousarray(block.cats, dtype="<i8").tobytes())
        h.update(self.aligned_ids.astype("<i8").tobytes())
        h.update(self.labeled_ids.astype("<i8").tobytes())
        h.update(self.test_ids.astype("<i8").tobytes())
        for i in sorted(self.labels):
            h.update(f"{i}:{self.labels[i]};".encode())
        return h.hexdigest()


@dataclass
class SyntheticSpec:
    """Shared-latent synthetic generator: every party observes a random
    projection of the same class-conditional latent plus private noise."""

    latent_dim: int = 16
    classes: int = 10
    parties: int = 2
    feature_dims: tuple = (64, 64)
    noise_scales: tuple = (1.0, 1.0)
    cat_cardinalities: tuple = ((), ())
    class_sep: float = 1.0
    aligned: int = 1600
    unaligned: tuple = (2400, 2400)
    labeled: int = 200
    test: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.parties < 1:
            raise ConfigError("need at least one party")
        for name in ("feature_dims", "noise_scales", "unaligned", "cat_cardinalities"):
            if len(getattr(self, name)) != self.parties:
                raise ConfigError(f"{name} must have one entry per party")
        if self.aligned <= 0 or self.test < 0:
            raise ConfigError("aligned count must be positive")
        if self.labeled <= 0 or self.labeled > self.aligned:
            raise ConfigError("labeled count must be in (0, aligned]")


def _observe(u, w, noise_scale, rng):
    x = u @ w
    if noise_scale:
        x = x + noise_scale * rng.standard_normal(x.shape)
    return x


def generate_synthetic(spec: SyntheticSpec) -> VerticalDataset:
    rng = np.random.default_rng(spec.seed)
    means = spec.class_sep * rng.standard_normal((spec.classes, spec.latent_dim))
    projections = [
        rng.standard_normal((spec.latent_dim, spec.feature_dims[i])) / math.sqrt(spec.latent_dim)
        for i in range(spec.parties)
    ]

    n_aligned_total = spec.aligned + spec.test
    y_aligned = rng.integers(0, spec.classes, size=n_aligned_total)
    u_aligned = means[y_aligned] + rng.standard_normal((n_aligned_total, spec.latent_dim))

    next_id = 0
    aligned_all = np.arange(next_id, next_id + n_aligned_total)
    next_id += n_aligned_total

    blocks = []
    unaligned_ids = []
    for i in range(spec.parties):
        x_al = _observe(u_aligned, projections[i], spec.noise_scales[i], rng)
        n_un = spec.unaligned[i]
        y_un = rng.integers(0, spec.classes, size=n_un)
        u_un = means[y_un] + rng.standard_normal((n_un, spec.latent_dim))
        x_un = _observe(u_un, projections[i], spec.noise_scales[i], rng)
        ids_un = np.arange(next_id, next_id + n_un)
        next_id += n_un

        ids = np.concatenate([aligned_all, ids_un])
        cont = np.concatenate([x_al, x_un], axis=0)
        cards = tuple(spec.cat_cardinalities[i])
        if cards:
            # Categorical columns quantize the leading continuous ones.
            n_cat = len(cards)
            cat_src, cont = cont[:, :n_cat], cont[:, n_cat:]
            cats = np.stack(
                [_quantize(cat_src[:, j], cards[j]) for j in range(n_cat)], axis=1
            )
        else:
            cats = np.zeros((len(ids), 0), dtype=np.int64)
        blocks.append(PartyBlock(ids=ids, cont=cont, cats=cats, cat_cardinalities=cards))
        unaligned_ids.append(ids_un)

    # Shuffle aligned ids once, then carve out labeled and test slices.
    perm = rng.permutation(n_aligned_total)
    test_ids = aligned_all[perm[:spec.test]]
    train_aligned = aligned_all[perm[spec.test:]]
    labeled_ids = train_aligned[:spec.labeled]
    labels = {int(i): int(y_aligned[i]) for i in aligned_all}

    return VerticalDataset(
        parties=blocks,
        aligned_ids=np.sort(train_aligned),
        unaligned_ids=unaligned_ids,
        labeled_ids=np.sort(labeled_ids),
        labels=labels,
        test_ids=np.sort(test_ids),
        num_classes=spec.classes,
    )


def _quantize(column, levels):
    edges = np.quantile(column, np.linspace(0, 1, levels + 1)[1:-1])
    return np.searchsorted(edges, column).astype(np.int64)


# -- augmentation -------------------------------------------------------

@dataclass
class AugmentationPolicy:
    corruption_fraction: float = 0.3

    def __post_init__(self):
        if not 0.0 <= self.corruption_fraction <= 1.0:
            raise ConfigError("corruption_fraction must be in [0, 1]")


def augment(cont, cats, cat_cardinalities, policy: AugmentationPolicy, rng, cont_std=None):
    """Corrupted view of a batch; the inputs are never mutated.

    Per sample exactly ceil(fraction*m) positions are corrupted, chosen
    uniformly without replacement over all feature positions.
    Continuous cells are resampled from the same column of another
    batch row (empirical marginal); categorical cells map to the
    reserved corruption embedding index (== cardinality).
    """
    if len(cont) == 0:
        raise DataError("cannot augment an empty batch")
    n = cont.shape[0]
    m_cont, m_cat = cont.shape[1], cats.shape[1]
    m = m_cont + m_cat
    k = math.ceil(policy.corruption_fraction * m)
    out_cont = cont.copy()
    out_cats = cats.copy()
    if k == 0 or m == 0:
        return out_cont, out_cats
    for r in range(n):
        positions = rng.choice(m, size=k, replace=False)
        for pos in positions:
            if pos < m_cont:
                if n > 1:
                    donor = int(rng.integers(n - 1))
                    if donor >= r:
                        donor += 1
                    out_cont[r, pos] = cont[donor, pos]
                else:
                    sigma = cont_std[pos] if cont_std is not None else 1.0
                    out_cont[r, pos] = cont[r, pos] + sigma * rng.standard_normal()
            else:
                j = pos - m_cont
                out_cats[r, j] = cat_cardinalities[j]
    return out_cont, out_cats


# -- batching -----------------------------------------------------------

def batches(ids, batch_size, rng=None):
    """Yield id slices covering ``ids`` exactly once; last partial kept.

    With an ``rng`` the ids are shuffled first by one permutation draw.
    """
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    ids = np.asarray(ids)
    if len(ids) == 0:
        return
    if rng is not None:
        ids = ids[rng.permutation(len(ids))]
    for start in range(0, len(ids), batch_size):
        yield ids[start : start + batch_size]


# -- CSV ingestion ------------------------------------------------------

def export_csv(dataset: VerticalDataset, paths, id_col="id", label_col="label"):
    """One CSV per party; party 1's file carries the label column for
    every aligned id (missing labels written empty)."""
    if len(paths) != dataset.num_parties:
        raise ConfigError("one output path per party required")
    for i, (block, path) in enumerate(zip(dataset.parties, paths)):
        cont_names = [f"x{j}" for j in range(block.cont.shape[1])]
        cat_names = [f"c{j}" for j in range(block.cats.shape[1])]
        header = [id_col] + cont_names + cat_names
        if i == 0:
            header.append(label_col)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for r, sid in enumerate(block.ids):
                row = [int(sid)]
                row += [repr(float(v)) for v in block.cont[r]]
                row += [int(v) for v in block.cats[r]]
                if i == 0:
                    label = dataset.labels.get(int(sid))
                    row.append("" if label is None else label)
                writer.writerow(row)


def _int_cell(text, what, p):
    try:
        return int(text)
    except ValueError as exc:
        raise DataError(f"non-integer {what} {text!r} in party {p + 1} file") from exc


def load_csv(paths, id_col="id", label_col="label", cat_cols=None, cat_levels=None,
             test_fraction=0.2, labeled_count=None, seed=0, standardize=True):
    """Join per-party CSV files on the id column into a VerticalDataset.

    Ids present in every file form the aligned set; ids present in only
    one file become that party's unaligned set. Continuous columns are
    z-scored with statistics of the aligned training rows. When
    ``cat_levels`` pins the known level vocabulary per categorical
    column, unknown levels map to the corruption index and bump the
    warning counter; otherwise levels are coded in order of appearance.
    """
    cat_cols = cat_cols or [() for _ in paths]
    if len(cat_cols) != len(paths):
        raise ConfigError("cat_cols must have one entry per party")
    tables = []
    for p, path in enumerate(paths):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            rows = list(reader)
        if id_col not in header:
            raise DataError(f"{path}: missing id column {id_col!r}")
        tables.append((header, rows))

    warnings = {CORRUPTION_WARNING_KEY: 0}
    parsed = []
    labels = {}
    for p, (header, rows) in enumerate(tables):
        id_at = header.index(id_col)
        label_at = header.index(label_col) if (p == 0 and label_col in header) else None
        feature_cols = [
            (j, name) for j, name in enumerate(header) if j not in (id_at, label_at)
        ]
        cat_names = set(cat_cols[p])
        cont_cols = [(j, name) for j, name in feature_cols if name not in cat_names]
        cat_cols_p = [(j, name) for j, name in feature_cols if name in cat_names]
        ids, cont, cats = [], [], []
        seen_ids = set()
        for row in rows:
            if len(row) < len(header):
                raise DataError(
                    f"party {p + 1} file: row of {len(row)} cells under "
                    f"a {len(header)}-column header"
                )
            sid = _int_cell(row[id_at], "id", p)
            if sid in seen_ids:
                raise DataError(f"duplicate id {sid} in party {p + 1} file")
            seen_ids.add(sid)
            ids.append(sid)
            try:
                cont.append([float(row[j]) for j, _ in cont_cols])
            except ValueError as exc:
                raise DataError(f"non-numeric continuous cell for id {sid}") from exc
            cats.append([row[j] for j, _ in cat_cols_p])
            if label_at is not None and row[label_at] != "":
                labels[sid] = _int_cell(row[label_at], "label", p)
        pinned = cat_levels[p] if cat_levels is not None else None
        if pinned is not None:
            levels = [{str(lvl): k for k, lvl in enumerate(col)} for col in pinned]
        else:
            levels = [dict() for _ in cat_cols_p]
        coded = np.zeros((len(ids), len(cat_cols_p)), dtype=np.int64)
        for j in range(len(cat_cols_p)):
            for r, raw in enumerate(c[j] for c in cats):
                if raw not in levels[j]:
                    if pinned is not None:
                        warnings[CORRUPTION_WARNING_KEY] += 1
                        coded[r, j] = len(levels[j])  # corruption index
                        continue
                    levels[j][raw] = len(levels[j])
                coded[r, j] = levels[j][raw]
        parsed.append({
            "ids": np.array(ids, dtype=np.int64),
            "cont": np.array(cont, dtype=np.float64).reshape(len(ids), len(cont_cols)),
            "cats": coded,
            "cards": tuple(len(lv) for lv in levels),
        })

    id_sets = [set(map(int, t["ids"])) for t in parsed]
    aligned = sorted(set.intersection(*id_sets))
    if not aligned:
        raise DataError("no aligned ids across parties")
    aligned = np.array(aligned, dtype=np.int64)

    rng = np.random.default_rng(seed)
    labeled_aligned = np.array([i for i in aligned if int(i) in labels], dtype=np.int64)
    n_test = int(round(test_fraction * len(labeled_aligned)))
    perm = rng.permutation(len(labeled_aligned))
    test_ids = np.sort(labeled_aligned[perm[:n_test]])
    train_aligned = np.sort(np.setdiff1d(aligned, test_ids))
    train_labeled = np.setdiff1d(labeled_aligned, test_ids)
    if labeled_count is not None:
        train_labeled = train_labeled[rng.permutation(len(train_labeled))][:labeled_count]
    if len(train_labeled) == 0:
        raise DataError("no labeled training samples after the test split")

    blocks = []
    unaligned_ids = []
    for p, t in enumerate(parsed):
        others = set.union(*(s for q, s in enumerate(id_sets) if q != p)) if len(id_sets) > 1 else set()
        una = np.array(sorted(id_sets[p] - set(map(int, aligned)) - others), dtype=np.int64)
        unaligned_ids.append(una)
        cont = t["cont"]
        if standardize and cont.shape[1]:
            index = {int(i): r for r, i in enumerate(t["ids"])}
            train_rows = np.array([index[int(i)] for i in train_aligned], dtype=np.int64)
            mean = cont[train_rows].mean(axis=0)
            std = cont[train_rows].std(axis=0)
            std[std == 0] = 1.0
            cont = (cont - mean) / std
        blocks.append(PartyBlock(
            ids=t["ids"], cont=cont, cats=t["cats"], cat_cardinalities=t["cards"]
        ))

    classes = (max(labels.values()) + 1) if labels else 0
    return VerticalDataset(
        parties=blocks,
        aligned_ids=train_aligned,
        unaligned_ids=unaligned_ids,
        labeled_ids=np.sort(train_labeled),
        labels=labels,
        test_ids=test_ids,
        num_classes=classes,
        warnings=warnings,
    )
