"""Vertical dataset model, synthetic generation, CSV ingestion and the
tabular corruption augmentation.

Parties hold disjoint feature blocks over a shared sample-id space.
Aligned ids exist at every party; each party additionally holds its own
unaligned ids. Only party 1 sees labels, and only for a subset of the
aligned ids; a further slice of labeled aligned ids is held out as the
test split and never enters any training iterator. Every artifact is
written through ``atomic_write``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError


@dataclass
class PartyBlock:
    """One party's feature matrix plus categorical metadata."""

    index: dict              # sample id -> row, in row order
    cont: np.ndarray         # n x m_cont float64
    cats: np.ndarray         # n x m_cat int64 (level indices)
    cat_cardinalities: tuple
    cont_std: np.ndarray = None  # per-column training std, jitter fallback
    ids: np.ndarray = field(init=False)  # sample ids, one per row

    def __post_init__(self):
        self.ids = np.array(list(self.index), dtype=np.int64)
        if self.cont_std is None:
            self.cont_std = self.cont.std(axis=0) if len(self.cont) else np.zeros(self.cont.shape[1])

    def rows(self, ids):
        try:
            idx = np.array([self.index[i] for i in np.asarray(ids).tolist()], dtype=np.int64)
        except KeyError as exc:
            raise DataError(f"sample id {exc.args[0]} missing at this party") from exc
        return self.cont[idx], self.cats[idx]


@dataclass
class VerticalDataset:
    parties: list                 # PartyBlock per party
    aligned_ids: np.ndarray       # excludes test ids
    unaligned_ids: list           # per-party ndarray
    labeled_ids: np.ndarray       # subset of aligned_ids
    labels: dict                  # id -> class index (party 1 only)
    test_ids: np.ndarray
    num_classes: int

    def __post_init__(self):
        if not np.isin(self.labeled_ids, self.aligned_ids).all():
            raise DataError("labeled_ids must be a subset of aligned_ids")
        for i, una in enumerate(self.unaligned_ids):
            if np.isin(una, self.aligned_ids).any():
                raise DataError(f"party {i + 1} unaligned ids overlap aligned ids")

    @property
    def num_parties(self):
        return len(self.parties)

    def label_array(self, ids):
        try:
            return np.array([self.labels[i] for i in np.asarray(ids).tolist()], dtype=np.int64)
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
    projection of the same class-conditional latent plus private noise.
    The fields and defaults are the CLI's ``data.synthetic`` section."""

    latent_dim: int = 8
    classes: int = 4
    parties: int = 2
    feature_dims: tuple = (16, 16)
    noise_scales: tuple = (1.0, 1.0)
    cat_cardinalities: tuple = ((), ())
    class_sep: float = 1.5
    aligned: int = 400
    unaligned: tuple = (600, 600)
    labeled: int = 200
    test: int = 300
    seed: int = 0

    def __post_init__(self):
        for name in ("latent_dim", "classes", "parties"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("feature_dims", "noise_scales", "unaligned", "cat_cardinalities"):
            if len(getattr(self, name)) != self.parties:
                raise ConfigError(f"{name} must have one entry per party")
        if min(self.feature_dims) < 1 or min(self.unaligned) < 0:
            raise ConfigError(f"feature_dims must be >= 1 and unaligned counts >= 0, got "
                              f"{self.feature_dims!r} and {self.unaligned!r}")
        for dims, cards in zip(self.feature_dims, self.cat_cardinalities):
            # Categorical columns quantize a party's leading feature columns.
            if len(cards) > dims or any(isinstance(c, bool) or not isinstance(c, int) or c < 1
                                        for c in cards):
                raise ConfigError("cat_cardinalities must give each party at most feature_dims "
                                  f"integers >= 1, got {self.cat_cardinalities!r}")
        if self.aligned <= 0:
            raise ConfigError("aligned count must be positive")
        if self.test < 0:
            raise ConfigError("test count must be >= 0")
        if self.labeled <= 0 or self.labeled > self.aligned:
            raise ConfigError("labeled count must be in (0, aligned]")


@np.errstate(over="ignore", invalid="ignore")
def generate_synthetic(spec: SyntheticSpec) -> VerticalDataset:
    """Each party's block, its aligned and test rows and then its
    unaligned rows, is allocated once and filled in place: a latent is
    drawn into one scratch array and projected into the block's rows, then
    the observation noise is drawn into the same scratch and added. An
    overflow leaves a non-finite block, which raises a ``DataError`` naming
    the party, so numpy's overflow warnings are silenced."""
    rng = np.random.default_rng(spec.seed)
    means = spec.class_sep * rng.standard_normal((spec.classes, spec.latent_dim))
    projections = [
        rng.standard_normal((spec.latent_dim, spec.feature_dims[i])) / math.sqrt(spec.latent_dim)
        for i in range(spec.parties)
    ]
    n_al = spec.aligned + spec.test
    scratch = np.empty(max(n_al, *spec.unaligned) * max(spec.latent_dim, *spec.feature_dims))

    def normal(shape):
        out = scratch[:math.prod(shape)].reshape(shape)
        rng.standard_normal(out=out)
        return out

    def latent(y):  # standard normal plus each row's class mean
        u = normal((len(y), spec.latent_dim))
        for c, mean in enumerate(means):
            np.add(u, mean, out=u, where=(y == c)[:, None])
        return u

    def add_noise(rows, scale):
        if scale:
            noise = normal(rows.shape)
            noise *= scale
            rows += noise

    y_aligned = rng.integers(0, spec.classes, size=n_al)
    u = latent(y_aligned)
    conts = [np.empty((n_al + n_un, d)) for n_un, d in zip(spec.unaligned, spec.feature_dims)]
    for cont, w in zip(conts, projections):  # no RNG draw, so before any party's noise
        np.matmul(u, w, out=cont[:n_al])
    for i, cont in enumerate(conts):
        add_noise(cont[:n_al], spec.noise_scales[i])
        u = latent(rng.integers(0, spec.classes, size=spec.unaligned[i]))
        np.matmul(u, projections[i], out=cont[n_al:])
        add_noise(cont[n_al:], spec.noise_scales[i])
        if not np.isfinite(cont).all():
            raise DataError(f"party {i + 1}'s synthetic features hold non-finite values; "
                            f"lower data.synthetic.noise_scales or class_sep")
    del scratch, u  # u is a view of scratch

    aligned_all = np.arange(n_al)
    blocks, unaligned_ids, next_id = [], [], n_al
    for cont, cards, n_un in zip(conts, spec.cat_cardinalities, spec.unaligned):
        ids_un = np.arange(next_id, next_id + n_un)
        next_id += n_un
        # Categorical columns quantize the leading continuous ones.
        cards = tuple(cards)
        cats = np.zeros((len(cont), len(cards)), dtype=np.int64)
        for j, levels in enumerate(cards):
            cats[:, j] = _quantize(cont[:, j], levels)
        ids = np.concatenate([aligned_all, ids_un]).tolist()
        blocks.append(PartyBlock(index={sid: r for r, sid in enumerate(ids)},
                                 cont=cont[:, len(cards):], cats=cats, cat_cardinalities=cards))
        unaligned_ids.append(ids_un)

    # Shuffle aligned ids once, then carve out labeled and test slices.
    perm = rng.permutation(n_al)
    test_ids = aligned_all[perm[:spec.test]]
    train_aligned = aligned_all[perm[spec.test:]]
    labeled_ids = train_aligned[:spec.labeled]
    labels = dict(zip(range(n_al), y_aligned.tolist()))

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

def augment(cont, cats, cat_cardinalities, corruption_fraction, rng, cont_std=None):
    """Corrupted view of a batch; the inputs are never mutated.

    Per sample exactly k = ceil(corruption_fraction*m) positions, a
    fraction in [0, 1], are corrupted, chosen uniformly without
    replacement over all feature positions. Continuous cells are
    resampled from the same column of another batch row (empirical
    marginal); categorical cells map to the reserved corruption
    embedding index (== cardinality).

    Draw order, which fixes the output for an ``rng`` state:

    1. ``keys = rng.random((n, m))``. A row's corrupted cells are its k
       smallest keys: the boolean ``(n, m)`` mask is ``keys <=`` the row's
       k-th smallest key (``np.partition``). Should a row tie at that key,
       so that the mask holds more than n*k cells, it is remade from
       ``np.argpartition(keys, k - 1, axis=1)[:, :k]``, whose choice among
       tied keys fixes the mask as before.
    2. If ``m_cont > 0``, draw one of these:
       for n > 1, ``donors = rng.integers(n - 1, size=(n, m_cont))``, then
       ``donors += donors >= np.arange(n)[:, None]``, and cell (i, j) reads
       ``cont[donors[i, j], j]``;
       for n = 1, ``rng.standard_normal((1, m_cont))``, a jitter times
       ``cont_std`` (or times 1).
    3. The continuous block is ``np.where(mask[:, :m_cont], swapped, cont)``.
       The categorical block is ``np.where(mask[:, m_cont:], cards, cats)``,
       with ``cards`` as int64.
    """
    if len(cont) == 0:
        raise DataError("cannot augment an empty batch")
    n, m_cont = cont.shape
    m = m_cont + cats.shape[1]
    k = math.ceil(corruption_fraction * m)
    if k == 0 or m == 0:
        return cont.copy(), cats.copy()
    keys = rng.random((n, m))
    mask = keys <= np.partition(keys, k - 1, axis=1)[:, k - 1 : k]
    if np.count_nonzero(mask) != n * k:
        mask = np.zeros((n, m), dtype=bool)
        np.put_along_axis(mask, np.argpartition(keys, k - 1, axis=1)[:, :k], True, axis=1)
    swapped = cont
    if m_cont and n > 1:
        donors = rng.integers(n - 1, size=(n, m_cont))
        donors += donors >= np.arange(n)[:, None]
        swapped = cont.ravel()[donors * m_cont + np.arange(m_cont)]
    elif m_cont:
        sigma = 1.0 if cont_std is None else cont_std
        swapped = cont + sigma * rng.standard_normal((1, m_cont))
    cards = np.asarray(cat_cardinalities, dtype=np.int64)
    return (np.where(mask[:, :m_cont], swapped, cont),
            np.where(mask[:, m_cont:], cards, cats))


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


# -- random streams -----------------------------------------------------

# Every model-side stream, by family: its leading tag after the model
# seed. ``stream`` appends the index that tells a family's streams apart.
# The dataset's own seed (``SyntheticSpec.seed``, ``load_csv``'s seed) is
# separate. numpy's ``SeedSequence`` drops trailing zeros from its entropy
# tuple, so two streams collide today (ROADMAP item 15): cross_shuffle at
# iteration 0 and epoch 0 is party 1's init, and party k's init is the
# (k,)-tagged family for k = 4 to 7 (party 4's is the labeled subset).
STREAMS = {
    "init": (),                     # (pid,): each party's weight init
    "cross_shuffle": (1,),          # (it, epoch): step 1's aligned-id order
    "augment": (2,),                # (pid, it, epoch): step 2's views
    "local_shuffle": (3,),          # (pid, it, epoch): step 2's batch order
    "labeled_subset": (4,),         # fine-tuning's labeled ids and validation cut
    "finetune_noise": (5,),         # ISO noise on fine-tuning gradients
    "finetune_shuffle": (6,),       # fine-tuning's batch order
    "attack_head": (7,),            # model-completion head init and order
    "pretrain_noise": (9999,),      # ISO noise on step 1 and PMA uploads
}


def stream(seed, family, *index):
    """The ``family`` stream of model seed ``seed`` at ``index``."""
    return np.random.default_rng((seed, *STREAMS[family], *index))


# -- output -------------------------------------------------------------

def atomic_write(path, content):
    """Write ``content`` (bytes, or text as UTF-8) to ``path`` through a
    temporary file in the same directory, so an interrupted write leaves
    the previous file intact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(content.encode() if isinstance(content, str) else content)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def csv_text(rows):
    """``rows`` as CSV text, with the ``csv`` module's CRLF line ends."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


# -- CSV ingestion ------------------------------------------------------

def export_csv(dataset: VerticalDataset, paths, id_col="id", label_col="label"):
    """One CSV per party; party 1's file carries the label column for
    every aligned id (missing labels written empty)."""
    if len(paths) != dataset.num_parties:
        raise ConfigError("one output path per party required")
    for i, (block, path) in enumerate(zip(dataset.parties, paths)):
        cont_names = [f"x{j}" for j in range(block.cont.shape[1])]
        cat_names = [f"c{j}" for j in range(block.cats.shape[1])]
        rows = [[id_col] + cont_names + cat_names + ([label_col] if i == 0 else [])]
        for r, sid in enumerate(block.ids):
            row = [int(sid)]
            row += [repr(float(v)) for v in block.cont[r]]
            row += [int(v) for v in block.cats[r]]
            if i == 0:
                label = dataset.labels.get(int(sid))
                row.append("" if label is None else label)
            rows.append(row)
        atomic_write(path, csv_text(rows))


def _int_cell(text, what, p, low=-2**63):
    try:
        value = int(text)
    except ValueError as exc:
        raise DataError(f"non-integer {what} {text!r} in party {p + 1} file") from exc
    if not low <= value < 2**63:
        raise DataError(f"{what} {text!r} out of range in party {p + 1} file")
    return value


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _list_of(value, item_types):
    return isinstance(value, (list, tuple)) and all(isinstance(v, item_types) for v in value)


def _read_party(path, p, id_col, label_col, cat_cols, cat_levels):
    """Party ``p``'s file in one pass over its rows: the id -> row dict in
    file order, the continuous block, the coded categorical block, the
    cardinalities and the labels (none when ``label_col`` is None)."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except (OSError, UnicodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if header is None:
        raise DataError(f"{path}: empty file")
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise DataError(f"{path}: header repeats column names {repeated}")
    if id_col not in header:
        raise DataError(f"{path}: missing id column {id_col!r}")
    id_at = header.index(id_col)
    label_at = header.index(label_col) if label_col in header else None
    features = [(j, name) for j, name in enumerate(header) if j not in (id_at, label_at)]
    unknown = [name for name in cat_cols if name not in header or name in (id_col, label_col)]
    if unknown:
        raise DataError(f"{path}: data.csv.cat_cols names {unknown}, which are not among the "
                        f"file's feature columns")
    cont_cols = [(j, name) for j, name in features if name not in cat_cols]
    cat_at = [j for j, name in features if name in cat_cols]
    if cat_levels is None:  # levels coded in order of appearance
        levels, code = [{} for _ in cat_at], dict.setdefault
    elif len(cat_levels) != len(cat_at):
        raise ConfigError(f"cat_levels needs one level list per categorical column "
                          f"of party {p + 1}")
    else:  # an unknown level gets the corruption index, the vocabulary size
        levels, code = [{str(lvl): k for k, lvl in enumerate(col)} for col in cat_levels], dict.get
    index, cont, cats, labels = {}, [], [], {}
    for row in rows:
        if len(row) != len(header):
            raise DataError(f"party {p + 1} file: row of {len(row)} cells under "
                            f"a {len(header)}-column header")
        sid = _int_cell(row[id_at], "id", p)
        if sid in index:
            raise DataError(f"duplicate id {sid} in party {p + 1} file")
        index[sid] = len(index)
        try:
            cont.append([float(row[j]) for j, _ in cont_cols])
        except ValueError as exc:
            name, cell = next((name, row[j]) for j, name in cont_cols if not _is_float(row[j]))
            raise DataError(
                f"{path}: non-numeric cell {cell!r} in column {name!r} for id {sid}; "
                f"list a categorical column in data.csv.cat_cols"
            ) from exc
        cats.append([code(lv, row[j], len(lv)) for lv, j in zip(levels, cat_at)])
        if label_at is not None and row[label_at] != "":
            labels[sid] = _int_cell(row[label_at], "label", p, low=0)
    cont = np.array(cont, dtype=np.float64).reshape(len(index), len(cont_cols))
    finite = np.isfinite(cont).all(axis=1)
    if not finite.all():
        raise DataError(f"non-finite continuous cell for id {list(index)[int(finite.argmin())]}")
    if max(labels.values(), default=-1) >= len(labels):
        raise DataError(f"{path}: label {max(labels.values())} is not below the file's "
                        f"{len(labels)} labeled rows; labels are the class indices 0..C-1")
    cats = np.array(cats, dtype=np.int64).reshape(len(index), len(cat_at))
    return index, cont, cats, tuple(map(len, levels)), labels


def load_csv(paths, id_col="id", label_col="label", cat_cols=None, cat_levels=None,
             test_fraction=0.2, labeled_count=None, seed=0, standardize=True):
    """Join per-party CSV files on the id column into a VerticalDataset.

    Ids present in every file form the aligned set; ids present in only
    one file become that party's unaligned set. Continuous columns are
    z-scored with statistics of the aligned training rows. When
    ``cat_levels`` pins the known level vocabulary per categorical
    column, unknown levels map to the corruption index; otherwise levels
    are coded in order of appearance. Party 1's labels are the class
    indices: the largest must be below the file's labeled row count.
    """
    cat_cols = cat_cols or [() for _ in paths]
    if len(cat_cols) != len(paths) or len(cat_levels or paths) != len(paths):
        raise ConfigError("cat_cols and cat_levels must have one entry per party")
    if not (all(_list_of(cols, str) for cols in cat_cols) and
            all(_list_of(levels, (list, tuple)) for levels in cat_levels or ())):
        raise ConfigError("each party's cat_cols must be a list of column names and its "
                          "cat_levels a list of level lists")
    indexes, conts, codes, cards, labels = zip(*(
        _read_party(path, p, id_col, label_col if p == 0 else None, cat_cols[p],
                    None if cat_levels is None else cat_levels[p])
        for p, path in enumerate(paths)
    ))
    labels = labels[0]
    aligned_set = set(indexes[0]).intersection(*indexes[1:])
    if not aligned_set:
        raise DataError("no aligned ids across parties")
    aligned = np.array(sorted(aligned_set), dtype=np.int64)

    rng = np.random.default_rng(seed)
    labeled_aligned = np.array([i for i in aligned if int(i) in labels], dtype=np.int64)
    n_test = int(round(test_fraction * len(labeled_aligned)))
    test_ids = np.sort(labeled_aligned[rng.permutation(len(labeled_aligned))[:n_test]])
    train_aligned = np.sort(np.setdiff1d(aligned, test_ids))
    train_labeled = np.setdiff1d(labeled_aligned, test_ids)
    if labeled_count is not None:
        if labeled_count > len(train_labeled):
            raise DataError(f"labeled_count {labeled_count} exceeds available "
                            f"{len(train_labeled)} labeled training ids")
        train_labeled = train_labeled[rng.permutation(len(train_labeled))][:labeled_count]
    if len(train_labeled) == 0:
        raise DataError("no labeled training samples after the test split")

    blocks, unaligned_ids = [], []
    for p, index in enumerate(indexes):
        # An id held by some but not all parties is neither aligned nor unaligned.
        shared = aligned_set.union(*(other for q, other in enumerate(indexes) if q != p))
        unaligned_ids.append(np.array(sorted(index.keys() - shared), dtype=np.int64))
        cont = conts[p]
        if standardize and cont.shape[1]:
            train = cont[[index[i] for i in train_aligned.tolist()]]
            std = train.std(axis=0)
            std[std == 0] = 1.0
            cont = (cont - train.mean(axis=0)) / std
        blocks.append(PartyBlock(index=index, cont=cont, cats=codes[p],
                                 cat_cardinalities=cards[p]))

    return VerticalDataset(parties=blocks, aligned_ids=train_aligned, unaligned_ids=unaligned_ids,
                           labeled_ids=np.sort(train_labeled), labels=labels, test_ids=test_ids,
                           num_classes=max(labels.values(), default=-1) + 1)
