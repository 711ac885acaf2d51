"""Dataset containers, ingestion, preprocessing, and splitting.

A dataset is a ragged collection of branches; branch i holds n_i
(covariate, observation) pairs. Covariates are optional (width-0 rows for
models without them). In memory a dataset is held once, in columns: the
rows of every branch in branch order, plus the per-branch row counts (and,
once a model asks, the per-branch moments X_i'X_i, X_i'y_i, y_i'y_i).

On-disk container (documented bit-exactly in the README):
  <path>.meta  text sidecar: "branches", "covariate_dim" (other keys are ignored)
  <path>.bin   per branch: n_i as little-endian int64, then the covariate
               block (n_i x covariate_dim, row-major float64 LE), then the
               observation block (n_i float64 LE)
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidDataError
from .rng import RngStream


@dataclass
class BranchBatch:
    """Observations of a batch of branches, concatenated in batch order.

    Batch position j owns rows starts[j] : starts[j] + counts[j] of x and y;
    a branch may own no rows. ``xt`` is x transposed and contiguous. Models
    reduce per-row terms to per-branch terms with ``segment_sum`` (after
    ``segment_sort`` where the sum must not depend on the rows' order), or
    read the per-branch sufficient statistics ``moments``, built on first
    use and cached. A batch's columns must not be written after it is built:
    ``xt`` and ``moments`` would go on describing the old rows.
    """

    x: np.ndarray        # (n, x_dim)
    y: np.ndarray        # (n,)
    counts: np.ndarray   # (B,) rows per batch position

    def __post_init__(self):
        self.xt = np.ascontiguousarray(self.x.T)
        self.starts = np.cumsum(self.counts) - self.counts
        self.seg = np.repeat(np.arange(self.counts.size), self.counts)  # row -> position
        self._nonempty = self.counts > 0
        self._all_nonempty = bool(self._nonempty.all())
        self._moments = None

    @property
    def n_branches(self) -> int:
        return self.counts.size

    @property
    def moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-branch G_j = X_j'X_j (B, x_dim, x_dim), b_j = X_j'y_j (B, x_dim)
        and c_j = y_j'y_j (B,), built by ``segment_sum`` on first use (so
        each branch's entries do not depend on the rest of the batch) and
        read-only. A branch with no rows has G = 0, b = 0, c = 0."""
        if self._moments is None:
            self._moments = _branch_moments(self)
        return self._moments

    def segment_sum(self, a: np.ndarray) -> np.ndarray:
        """Per-branch sums along the last axis: a (..., n) -> (..., B).

        Each branch's rows are added in order by ``np.add.reduceat``, so a
        branch's sum does not depend on the rest of the batch. A branch with
        no rows sums to 0 (reduceat itself would return a neighbouring row).
        """
        if self._all_nonempty and self.n_branches:
            return np.add.reduceat(a, self.starts, axis=-1)
        out = np.zeros(a.shape[:-1] + (self.n_branches,))
        if self._nonempty.any():
            out[..., self._nonempty] = np.add.reduceat(a, self.starts[self._nonempty],
                                                       axis=-1)
        return out

    def segment_sort(self, a: np.ndarray) -> np.ndarray:
        """Each branch's rows sorted along the last axis: a (..., n) -> (..., n).

        One in-place sort per branch (numpy has no segmented sort; a lexsort
        by (branch, value) over the whole batch is several times slower), so a
        branch's sorted rows do not depend on the rest of the batch.
        """
        out = a.copy()
        for s, c in zip(self.starts.tolist(), self.counts.tolist()):
            if c > 1:
                out[..., s:s + c].sort(axis=-1)
        return out


def _branch_moments(obs: BranchBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (G, b, c) of ``BranchBatch.moments``: O(n x_dim^2) for n rows."""
    xt, y = obs.xt, obs.y
    G = np.ascontiguousarray(
        obs.segment_sum(xt[:, None, :] * xt[None, :, :]).transpose(2, 0, 1))
    b = np.ascontiguousarray(obs.segment_sum(xt * y).T)
    c = obs.segment_sum(y * y)
    for a in (G, b, c):
        a.setflags(write=False)
    return G, b, c


@dataclass
class BranchDataset(BranchBatch):
    """A whole dataset, held once in columns: the batch of all its branches.

    Branch i owns rows starts[i] : starts[i] + counts[i] of x and y.
    """

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.x.ndim != 2:
            raise InvalidDataError("x must be 2-d (n, covariate_dim)")
        if self.y.shape != (self.x.shape[0],):
            raise InvalidDataError(
                f"x has {self.x.shape[0]} rows but y has shape {self.y.shape}")
        if self.counts.ndim != 1 or (self.counts < 0).any():
            raise InvalidDataError("counts must be a 1-d array of non-negative row counts")
        if int(self.counts.sum()) != self.x.shape[0]:
            raise InvalidDataError(
                f"counts sum to {int(self.counts.sum())} rows but x has {self.x.shape[0]}")
        super().__post_init__()

    @property
    def covariate_dim(self) -> int:
        return self.x.shape[1]

    @property
    def n_obs(self) -> int:
        return self.y.size

    def batch(self, idx) -> BranchBatch:
        """The observations of branches ``idx``, concatenated in that order."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == self.n_branches and np.array_equal(idx, np.arange(idx.size)):
            return self
        counts = self.counts[idx]
        shift = self.starts[idx] - (np.cumsum(counts) - counts)
        rows = np.repeat(shift, counts) + np.arange(int(counts.sum()))
        return BranchBatch(self.x[rows], self.y[rows], counts)


def from_branches(branches, covariate_dim: int) -> BranchDataset:
    """A dataset from per-branch (x (n_i, covariate_dim), y (n_i,)) pairs."""
    xs, ys = [], []
    for i, (x, y) in enumerate(branches):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or x.shape[1] != covariate_dim:
            raise InvalidDataError(
                f"branch {i}: x has shape {x.shape}, want (n, {covariate_dim})")
        if y.shape != (x.shape[0],):
            raise InvalidDataError(
                f"branch {i}: x has {x.shape[0]} rows but y has shape {y.shape}")
        xs.append(x)
        ys.append(y)
    counts = np.array([y.size for y in ys], dtype=np.int64)
    return BranchDataset(np.concatenate([np.zeros((0, covariate_dim)), *xs]),
                         np.concatenate([np.zeros(0), *ys]), counts)


@dataclass
class SplitDataset:
    """Train/test parts aligned by branch index; test branches may be empty."""

    train: BranchDataset
    test: BranchDataset

    def __post_init__(self):
        if self.train.n_branches != self.test.n_branches:
            raise InvalidDataError("train and test must have identical branch counts")
        a, b = self.train.covariate_dim, self.test.covariate_dim
        if a != b:
            raise InvalidDataError(f"train and test differ in covariate_dim: {a} vs {b}")


# ---------------------------------------------------------------------------
# Ratings ingestion


@dataclass
class RatingsTable:
    """Parsed ratings file: one row per (user, item) rating plus item features."""

    user_ids: list
    item_ids: list
    ratings: np.ndarray
    features: np.ndarray  # (rows, feature_dim)

    @property
    def n_rows(self) -> int:
        return len(self.user_ids)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def load_ratings(path, delimiter: str = ",") -> RatingsTable:
    """Parse a delimited text file with header user-id, item-id, rating, features...

    Malformed rows raise with their 1-based line number.
    """
    users, items, ratings, feats = [], [], [], []
    n_cols = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            return RatingsTable([], [], np.zeros(0), np.zeros((0, 0)))
        if len(header) < 3:
            raise InvalidDataError(
                f"{path}: header needs at least user-id, item-id, rating columns"
            )
        n_cols = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_cols:
                raise InvalidDataError(
                    f"{path}:{lineno}: expected {n_cols} fields, got {len(row)}"
                )
            try:
                rating = float(row[2])
                fvals = [float(v) for v in row[3:]]
            except ValueError as exc:
                raise InvalidDataError(f"{path}:{lineno}: non-numeric field ({exc})") from None
            users.append(row[0])
            items.append(row[1])
            ratings.append(rating)
            feats.append(fvals)
    features = np.asarray(feats, dtype=float)
    if features.size == 0:
        features = features.reshape(len(users), max(n_cols - 3, 0))
    return RatingsTable(users, items, np.asarray(ratings, dtype=float), features)


def preprocess(table: RatingsTable, max_ratings_per_user: int, threshold: float) -> BranchDataset:
    """Group ratings into per-user branches with binarized observations.

    Users with more than ``max_ratings_per_user`` ratings are removed
    entirely; ratings strictly greater than ``threshold`` map to 1, the rest
    to 0. Branch order is sorted by user id so the result does not depend on
    row order in the file.
    """
    ids, user = np.unique(np.asarray(table.user_ids, dtype=object), return_inverse=True)
    counts = np.bincount(user, minlength=ids.size)
    keep = counts <= max_ratings_per_user
    order = np.argsort(user, kind="stable")      # by user, then file order
    order = order[keep[user[order]]]
    y = (table.ratings[order] > threshold).astype(float)
    return BranchDataset(table.features[order], y, counts[keep])


def pca_features(table: RatingsTable, k: int) -> RatingsTable:
    """Project item features onto their top-k principal components.

    The components are the top-k eigenvectors of the feature covariance
    (one ``eigh``); each one's sign is fixed by making its largest-magnitude
    loading positive, so the output is deterministic given the data.
    """
    dim = table.feature_dim
    if k > dim:
        raise InvalidDataError(f"k={k} exceeds feature dim {dim}")
    X = table.features - table.features.mean(axis=0)
    C = (X.T @ X) / max(X.shape[0] - 1, 1)
    comps = np.linalg.eigh(C)[1][:, ::-1][:, :k]   # eigh sorts eigenvalues up
    if k:
        pivot = np.abs(comps).argmax(axis=0)
        comps = comps * np.where(comps[pivot, np.arange(k)] < 0, -1.0, 1.0)
    return RatingsTable(table.user_ids, table.item_ids, table.ratings, X @ comps)


def split(ds: BranchDataset, test_fraction: float, rng: RngStream) -> SplitDataset:
    """Per-branch uniform split; round-half-up test counts.

    Branches with a single observation keep it in train. Each branch uses its
    own child stream, so the split for branch i does not depend on the other
    branches.
    """
    if not 0.0 <= test_fraction < 1.0:
        raise InvalidDataError("test_fraction must be in [0, 1)")
    counts = ds.counts
    n_test = np.minimum(np.floor(counts * test_fraction + 0.5).astype(np.int64), counts)
    n_test[counts <= 1] = 0
    test = np.zeros(ds.n_obs, dtype=bool)
    for i in np.flatnonzero(n_test).tolist():
        chosen = rng.child(i).choice(int(counts[i]), int(n_test[i]))
        test[ds.starts[i] + chosen] = True
    return SplitDataset(
        BranchDataset(ds.x[~test], ds.y[~test], counts - n_test),
        BranchDataset(ds.x[test], ds.y[test], n_test),
    )


# ---------------------------------------------------------------------------
# Binary container


def _layout(counts: np.ndarray, cov_dim: int):
    """Where the .bin file keeps each value, in 8-byte words: each branch's
    count (N,), each covariate row's first word (n,) and each observation (n,).

    Branch i's count word sits after i earlier counts and starts[i] earlier
    rows of cov_dim + 1 words; its x block follows it, then its y block.
    """
    starts = np.cumsum(counts) - counts
    count_at = np.arange(counts.size) + (cov_dim + 1) * starts
    rows = np.arange(int(counts.sum()))
    x_at = np.repeat(count_at + 1 - cov_dim * starts, counts) + cov_dim * rows
    y_at = np.repeat(count_at + 1 + cov_dim * counts - starts, counts) + rows
    return count_at, x_at, y_at


def save_dataset(ds: BranchDataset, path: str) -> None:
    with open(f"{path}.meta", "w") as fh:
        fh.write(f"branches = {ds.n_branches}\n")
        fh.write(f"covariate_dim = {ds.covariate_dim}\n")
    count_at, x_at, y_at = _layout(ds.counts, ds.covariate_dim)
    words = np.empty(ds.n_branches + ds.x.size + ds.y.size, dtype="<f8")
    words.view("<i8")[count_at] = ds.counts
    words[x_at[:, None] + np.arange(ds.covariate_dim)] = ds.x
    words[y_at] = ds.y
    with open(f"{path}.bin", "wb") as fh:
        fh.write(words.tobytes())


def load_dataset(path: str) -> BranchDataset:
    """Read a dataset written by save_dataset.

    One pass over the branch counts checks the layout; then x and y are
    gathered from the file's words in one indexing step each, and the file
    buffer is dropped, so the loaded data is held once. A short read, a
    negative count or bytes left after the last branch raise InvalidDataError
    naming the file and the byte offset.
    """
    meta: dict = {}
    with open(f"{path}.meta") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            try:
                meta[key.strip()] = int(value.strip())
            except ValueError:
                raise InvalidDataError(
                    f"{path}.meta:{lineno}: expected 'key = integer', got {line!r}") from None
    for key in ("branches", "covariate_dim"):
        if meta.get(key, -1) < 0:
            raise InvalidDataError(f"{path}.meta: needs a non-negative integer {key!r}")
    n_branches = meta["branches"]
    cov_dim = meta["covariate_dim"]
    bin_path = f"{path}.bin"
    with open(bin_path, "rb") as fh:
        buf = fh.read()
    end = len(buf)
    counts = []  # grows with the file, not with the .meta's claim
    off = 0
    for i in range(n_branches):
        if end - off < 8:
            raise InvalidDataError(
                f"{bin_path}: truncated at byte {end}: branch {i}'s count at byte {off} "
                "needs 8 bytes")
        (n,) = struct.unpack_from("<q", buf, off)
        if n < 0:
            raise InvalidDataError(
                f"{bin_path}: negative observation count {n} for branch {i} at byte {off}")
        off += 8
        if end - off < 8 * n * (cov_dim + 1):
            raise InvalidDataError(
                f"{bin_path}: truncated at byte {end}: branch {i}'s {n} observations "
                f"from byte {off} need {8 * n * (cov_dim + 1)} bytes")
        counts.append(n)
        off += 8 * n * (cov_dim + 1)
    if off != end:
        raise InvalidDataError(
            f"{bin_path}: {end - off} trailing bytes after the last branch, at byte {off}")
    counts = np.array(counts, dtype=np.int64)
    words = np.frombuffer(buf, dtype="<f8")
    _, x_at, y_at = _layout(counts, cov_dim)
    # row r is words x_at[r] onwards; with no rows the file may be shorter than a row
    x = sliding_window_view(words, cov_dim)[x_at] if x_at.size else np.zeros((0, cov_dim))
    y = words[y_at]
    del buf, words, x_at, y_at  # hold the data once
    return BranchDataset(x, y, counts)
